//! Two-phase commit (2PC) state machines.
//!
//! The paper's shared-nothing prototype extends Shore-MT with "a distributed
//! transaction coordinator using the standard two-phase commit protocol"
//! (Section 5.1). This crate is that coordinator, written as **pure state
//! machines**: inputs are votes/acks, outputs are [`Action`] lists (send
//! this message, force that log record, finish). The same machines drive
//! the served deployments (wire frames over sockets between processes, or
//! direct calls in the in-process cluster) and the simulated cluster
//! (virtual-time channels), so protocol behavior — and protocol bugs — are
//! identical in both.
//!
//! Protocol flavor: **presumed abort** with the **read-only optimization**:
//!
//! * Participants force a `Prepare` record before voting Yes; a participant
//!   that performed no writes votes `ReadOnly`, releases immediately, and is
//!   excluded from phase 2 (the paper's Figure 11 shows the resulting
//!   asymmetry between read-only and update distributed transactions).
//! * The coordinator forces a `Decision` record only for commits; asked
//!   about a gtid it holds no record for, it answers abort once no round of
//!   its own still has that gtid undecided ([`verdict`]).
//! * Phase-2 `Decision` messages go only to Yes-voters, which ack after
//!   forcing their own outcome.
//! * A Yes-voter never decides on its own: it leaves doubt by its
//!   `Decision` message or, if that never comes, by asking the coordinator,
//!   whose answer is [`verdict`].

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod decision_log;
pub mod mc;
pub mod participant;
pub mod recovery;

pub use coordinator::{Action, Coordinator, CoordinatorState};
pub use decision_log::{DecisionLog, Round};
pub use participant::{Participant, ParticipantEvent, ParticipantState};
pub use recovery::verdict;

/// Global (distributed) transaction id.
pub type Gtid = u64;

/// A participant's vote in phase 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// Prepared and durable; will obey the decision.
    Yes,
    /// Cannot commit; the global transaction must abort.
    No,
    /// Performed no writes; already released, skip phase 2.
    ReadOnly,
}
