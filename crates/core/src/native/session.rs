//! What a caller holds on a partition, and what its calls can answer.
//!
//! Every entry point that accepts a transaction — a wire frame in
//! `islands-server`, a frame its in-process cluster hands over by direct
//! call, an embedding test — lowers it to a [`PlanRequest`] and calls the
//! partition's one engine, a [`PartitionEngine`], in either mode. A local
//! plan ([`PartitionEngine::submit_plan_local`]) and a decision
//! ([`PartitionEngine::decide`]) need no caller identity: decisions are
//! partition-wide. Only a prepare says who asks: a [`PartitionSession`]
//! parks the branch under its id, and when the session is dropped, a
//! branch it prepared that nobody decided stays parked, holding its rows,
//! with no owner: its Yes vote binds whatever became of the connection, so
//! only the coordinator's verdict ends it
//! ([`PartitionEngine::ownerless_gtids`]). Whether the work runs under 2PL
//! beside other callers or alone on the partition's turn is the engine's
//! business: callers see the same calls, the same [`Vote`]s and
//! [`DecideOutcome`]s.

use std::sync::Arc;

use islands_dtxn::Vote;
use islands_storage::StorageError;
use islands_workload::plan::PlanRequest;

use super::in_doubt::next_session_id;
use super::PartitionEngine;

/// Why an engine call failed (distinct from a well-formed transaction
/// merely aborting, which is a [`SubmitOutcome`](super::SubmitOutcome) /
/// [`Vote::No`]).
#[derive(Debug)]
pub enum ExecError {
    /// The request is one this partition can never satisfy (key outside its
    /// range, unknown table).
    Storage(StorageError),
    /// A branch with this gtid is already prepared on this partition.
    DuplicateGtid(u64),
    /// The serial partition is gone: a caller panicked while it held the
    /// partition's turn, so the transaction it was in is unknowable.
    Gone,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "{e}"),
            ExecError::DuplicateGtid(g) => write!(f, "gtid {g} is already prepared here"),
            ExecError::Gone => write!(f, "partition is gone (a caller died holding its turn)"),
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

/// One connection's identity on a partition: the owner its prepared
/// branches are parked under until it is dropped. It keeps its engine
/// alive.
pub struct PartitionSession {
    engine: Arc<PartitionEngine>,
    id: u64,
}

impl PartitionSession {
    pub(crate) fn new(engine: Arc<PartitionEngine>) -> Self {
        PartitionSession {
            engine,
            id: next_session_id(),
        }
    }

    /// The partition this session is on.
    pub fn engine(&self) -> &Arc<PartitionEngine> {
        &self.engine
    }

    /// Execute one 2PC branch and run participant phase 1. [`Vote::Yes`]
    /// parks the branch in-doubt — dependent reads included — under this
    /// session until a [`PartitionEngine::decide`] from anyone. A gtid
    /// already parked on the partition is [`ExecError::DuplicateGtid`].
    pub fn prepare_plan(&self, gtid: u64, plan: &PlanRequest) -> Result<Vote, ExecError> {
        self.engine.prepare_parked(self.id, gtid, plan)
    }
}

impl Drop for PartitionSession {
    /// What it parked stays parked, owned by nobody.
    fn drop(&mut self) {
        // A partition that is gone has nobody left to tell.
        let _ = self.engine.disown(self.id);
    }
}
