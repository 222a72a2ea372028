//! The presumed-abort verdict rule: the one answer a coordinator gives about
//! a gtid, whoever asks.
//!
//! A participant that voted Yes may not decide on its own: in R* (Mohan,
//! Lindsay and Obermarck, TODS 1986) a prepared subordinate asks the
//! coordinator for the outcome. Presumed abort buys its cheap aborts (no
//! force, no acks for pure aborts) with one rule for that answer: **absence
//! of a record is abort, once the round can no longer commit**. The record
//! is the forced commit decision; the round can no longer commit once its
//! coordinator has decided, crashed, or never issued the gtid at all. While
//! its coordinator still has the round undecided there is no answer yet: a
//! commit may still be forced, so an "abort" then could split the outcome.
//!
//! The coordinator's [`DecisionLog`](crate::DecisionLog) feeds [`verdict`]
//! from its records and its rounds in flight; the model checker
//! ([`crate::mc`]) feeds it from the modelled coordinator.

/// What the coordinator answers about one gtid: `Some(commit)` is final,
/// `None` means ask again later.
///
/// `logged` is the decision record for the gtid, if one exists (a forced
/// commit, or an abort record that happens to be kept). `undecided` is
/// whether a live coordinator still has the gtid's round undecided. A
/// caller reads `undecided` **before** `logged`: a round stops being
/// undecided only once its commit record is in, so reading in that order
/// never sees "decided, no record" for a round that committed.
pub fn verdict(logged: Option<bool>, undecided: bool) -> Option<bool> {
    match logged {
        Some(commit) => Some(commit),
        None if undecided => None,
        None => Some(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_verdict_table() {
        // (logged, undecided) → answer.
        let table = [
            // A forced commit record: commit, even while the round that
            // forced it is still fanning out.
            ((Some(true), false), Some(true)),
            ((Some(true), true), Some(true)),
            // A kept abort record: abort.
            ((Some(false), false), Some(false)),
            // No record and the round decided (or its coordinator gone):
            // presumed abort.
            ((None, false), Some(false)),
            // No record and the round still undecided: no answer yet.
            ((None, true), None),
        ];
        for ((logged, undecided), answer) in table {
            assert_eq!(verdict(logged, undecided), answer, "{logged:?} {undecided}");
        }
    }
}
