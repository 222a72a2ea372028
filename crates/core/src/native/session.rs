//! The one surface requests cross below the entry points.
//!
//! Every entry point that accepts a transaction — a wire frame in
//! `islands-server`, a frame its in-process cluster hands over by direct
//! call, an embedding test — lowers it to a [`PlanRequest`] and hands it to
//! a [`Session`] minted by an [`Engine`].
//! Both engine modes execute it on the calling thread; whether that happens
//! under 2PL beside other sessions or alone under the partition's lock is
//! the engine's business: the caller sees the same four calls, the same
//! [`Vote`]s and [`DecideOutcome`]s, and the same presumed-abort rule when
//! the session closes.

use islands_dtxn::Vote;
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
    /// A 2PC frame reached an engine that is not a 2PC participant (the
    /// in-process cluster coordinates its own distributed transactions).
    NotAParticipant,
    /// An instance of the in-process cluster refused the plan. The cluster's
    /// instances answer frames, so their typed error arrives as the message
    /// a wire client would have read.
    Rejected(String),
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
            ExecError::NotAParticipant => {
                write!(f, "2PC frames require a partition instance backend")
            }
            ExecError::Rejected(message) => f.write_str(message),
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

/// One connection's view of an engine. A session scopes
/// the presumed-abort rule: a branch it prepared that nobody decided is
/// rolled back when the session closes, because its coordinator spoke on
/// this connection and is gone. Decisions are partition-wide: any session
/// may decide any branch.
pub trait Session {
    /// Execute a fully-local plan to completion. `committed: false` means
    /// contention won (retry budget spent, or the plan touches a parked
    /// in-doubt branch); `Err` means the plan can never run here.
    fn submit(&mut self, plan: &PlanRequest) -> Result<SubmitOutcome, ExecError>;

    /// Execute one 2PC branch and run participant phase 1. [`Vote::Yes`]
    /// parks the branch in-doubt — dependent reads included — until
    /// [`decide`](Self::decide) or [`close`](Self::close). A gtid already
    /// parked on the partition is [`ExecError::DuplicateGtid`].
    fn prepare(&mut self, gtid: u64, plan: &PlanRequest) -> Result<Vote, ExecError>;

    /// Apply the coordinator's decision to the in-doubt branch `gtid`,
    /// whichever session parked it, or restart replay.
    fn decide(&mut self, gtid: u64, commit: bool) -> Result<DecideOutcome, ExecError>;

    /// End the session: presume-abort every branch it prepared that is
    /// still in-doubt and return how many that was. Idempotent; dropping a
    /// session closes it.
    fn close(&mut self) -> u64;
}

/// What serves sessions: a partition in either engine mode, or the
/// in-process cluster.
pub trait Engine {
    /// Mint a session. `retry_limit` is the contention-retry budget of its
    /// [`submit`](Session::submit) calls (moot for the serial executor,
    /// where nothing contends).
    fn session(&self, retry_limit: u32) -> Box<dyn Session + '_>;

    /// Sum of the audit counters across the engine's rows: the number of
    /// committed row writes applied here.
    fn audit_sum(&self) -> Result<u64, ExecError>;

    /// Gtids of every branch parked here awaiting a decision (sorted):
    /// at startup, exactly those restart replay re-parked. Each resolves
    /// through [`Session::decide`].
    fn recovered_gtids(&self) -> Result<Vec<u64>, ExecError>;
}
