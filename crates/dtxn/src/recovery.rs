//! The presumed-abort recovery rule.
//!
//! Presumed abort buys its cheap aborts (no force, no acks for pure aborts)
//! with one obligation at recovery time: **absence of evidence is evidence
//! of abort**. A restarting participant with an in-doubt transaction
//! (forced `Prepare`, no local outcome) asks the coordinator's log; if that
//! log holds no decision record for the gtid, the transaction aborted —
//! either the coordinator never decided, or it decided abort and was
//! entitled to forget immediately.
//!
//! The storage layer surfaces both halves (in-doubt participant
//! transactions, logged coordinator decisions); [`resolve_in_doubt`] is the
//! deployment-layer rule that joins them.

use std::collections::HashMap;

use crate::Gtid;

/// Fate of an in-doubt transaction after consulting the coordinator log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveredOutcome {
    /// The coordinator forced a commit decision: redo the withheld effects.
    Commit,
    /// No decision record: presumed abort, undo the withheld effects.
    PresumedAbort,
    /// An explicit abort decision happened to survive in the log (possible
    /// but never required: aborts are not forced). Same fate as
    /// [`PresumedAbort`](Self::PresumedAbort), kept distinct for observability.
    LoggedAbort,
}

impl RecoveredOutcome {
    /// Whether the in-doubt transaction's effects should be applied.
    pub fn commits(self) -> bool {
        self == RecoveredOutcome::Commit
    }
}

/// Resolve one in-doubt gtid against the coordinator's logged decisions
/// (gtid → commit?).
pub fn resolve_in_doubt(decisions: &HashMap<Gtid, bool>, gtid: Gtid) -> RecoveredOutcome {
    match decisions.get(&gtid) {
        Some(true) => RecoveredOutcome::Commit,
        Some(false) => RecoveredOutcome::LoggedAbort,
        None => RecoveredOutcome::PresumedAbort,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_gtid_presumes_abort() {
        let decisions = HashMap::from([(7, true), (9, false)]);
        assert_eq!(resolve_in_doubt(&decisions, 7), RecoveredOutcome::Commit);
        assert_eq!(
            resolve_in_doubt(&decisions, 9),
            RecoveredOutcome::LoggedAbort
        );
        assert_eq!(
            resolve_in_doubt(&decisions, 1234),
            RecoveredOutcome::PresumedAbort
        );
        assert!(resolve_in_doubt(&decisions, 7).commits());
        assert!(!resolve_in_doubt(&decisions, 1234).commits());
    }
}
