//! The one surface requests cross below the entry points.
//!
//! Every entry point that accepts a transaction — a wire frame in
//! `islands-server`, a frame its in-process cluster hands over by direct
//! call, an embedding test — lowers it to a [`PlanRequest`] and hands it to
//! a [`Session`] minted by an [`Engine`]: a partition, in either engine
//! mode. Nothing else serves sessions; routing and coordinating 2PC across
//! partitions is the caller's business.
//! Both engine modes execute it on the calling thread; whether that happens
//! under 2PL beside other sessions or alone under the partition's lock is
//! the engine's business: the caller sees the same three calls, the same
//! [`Vote`]s and [`DecideOutcome`]s, and the same rule when the session is
//! dropped: a branch it prepared stays parked until a decision reaches it.

use islands_dtxn::Vote;
use islands_obs::Snapshot;

use super::Bell;
use islands_storage::StorageError;
use islands_workload::plan::PlanRequest;

use super::SubmitOutcome;

/// Why a session call failed (distinct from a well-formed transaction
/// merely aborting, which is a [`SubmitOutcome`] / [`Vote::No`]).
#[derive(Debug)]
pub enum ExecError {
    /// The request is one this partition can never satisfy (key outside its
    /// range, unknown table).
    Storage(StorageError),
    /// A branch with this gtid is already prepared on this partition.
    DuplicateGtid(u64),
    /// The serial partition is gone: its executor shut down, or a session
    /// panicked while holding it.
    Gone,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "{e}"),
            ExecError::DuplicateGtid(g) => write!(f, "gtid {g} is already prepared here"),
            ExecError::Gone => write!(
                f,
                "partition is gone (shut down, or a session died holding it)"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

/// Outcome of applying a coordinator decision.
#[derive(Debug, PartialEq, Eq)]
pub enum DecideOutcome {
    /// The in-doubt branch was found and the decision applied.
    Applied,
    /// Abort for an unknown gtid: under presumed abort the branch may
    /// already be gone (or never prepared here); aborting nothing is the
    /// decreed outcome.
    AbortNoop,
    /// Commit for an unknown gtid — a protocol error.
    UnknownCommit,
    /// The branch existed but applying the decision failed. It is no longer
    /// in-doubt either way: it was un-parked before the attempt.
    Failed(String),
}

/// One connection's view of an engine. Decisions are partition-wide: any
/// session may decide any branch. Dropping a session closes it, and a branch
/// it prepared that nobody decided stays parked, holding its rows, with no
/// owner: its Yes vote binds whatever became of the connection, so only the
/// coordinator's verdict ends it ([`Engine::ownerless_gtids`]).
pub trait Session {
    /// Execute a fully-local plan to completion. `committed: false` means
    /// contention won (retry budget spent, or the plan touches a parked
    /// in-doubt branch); `Err` means the plan can never run here.
    fn submit(&mut self, plan: &PlanRequest) -> Result<SubmitOutcome, ExecError>;

    /// Execute one 2PC branch and run participant phase 1. [`Vote::Yes`]
    /// parks the branch in-doubt — dependent reads included — until some
    /// session's [`decide`](Self::decide). A gtid already parked on the
    /// partition is [`ExecError::DuplicateGtid`].
    fn prepare(&mut self, gtid: u64, plan: &PlanRequest) -> Result<Vote, ExecError>;

    /// Apply the coordinator's decision to the in-doubt branch `gtid`,
    /// whichever session parked it, or restart replay.
    fn decide(&mut self, gtid: u64, commit: bool) -> Result<DecideOutcome, ExecError>;
}

/// What serves sessions: a partition, locked ([`PartitionEngine`]) or
/// serial ([`PartitionExecutor`]).
///
/// [`PartitionEngine`]: super::PartitionEngine
/// [`PartitionExecutor`]: super::PartitionExecutor
pub trait Engine {
    /// Mint a session. `retry_limit` is the contention-retry budget of its
    /// [`submit`](Session::submit) calls (moot for the serial executor,
    /// where nothing contends).
    fn session(&self, retry_limit: u32) -> Box<dyn Session + '_>;

    /// Sum of the audit counters across the engine's rows: the number of
    /// committed row writes applied here.
    fn audit_sum(&self) -> Result<u64, ExecError>;

    /// Gtids of every parked branch no session owns (sorted): those restart
    /// replay re-parked and those whose session closed before their
    /// decision came. Each waits for the coordinator's verdict, applied
    /// through [`Session::decide`].
    fn ownerless_gtids(&self) -> Result<Vec<u64>, ExecError>;

    /// What rings when branches here lose their session.
    fn bell(&self) -> &Bell;

    /// Fill in what only the engine knows when a stats snapshot is taken:
    /// the branches parked in its in-doubt table and its lock manager's
    /// counts.
    fn observe(&self, snap: &mut Snapshot);
}
