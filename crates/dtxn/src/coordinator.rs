//! Coordinator state machine (presumed abort).
//!
//! The outcome of a global transaction is fixed the moment its decision is
//! made — for a commit, the moment [`Action::ForceCommitDecision`] has been
//! carried out — so [`Action::Finish`] rides right behind the decision
//! fan-out and the caller can be answered then. Acks come afterwards and
//! serve one purpose: once **every** participant that was sent a commit
//! decision has acknowledged it, nobody can ask about the gtid again and
//! the decision record may be dropped ([`Action::Forget`]). A lost ack
//! never changes the outcome; it only means the record must be kept.

use crate::{Gtid, Vote};

/// Instructions the driver must carry out, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send a prepare request to participant `to`.
    SendPrepare { to: usize },
    /// Force a commit decision record to the coordinator's log **before**
    /// any decision message leaves (presumed abort forces commits only).
    ForceCommitDecision { gtid: Gtid },
    /// Send the decision to participant `to`.
    SendDecision { to: usize, commit: bool },
    /// The outcome is fixed: answer the caller. Emitted exactly once, behind
    /// the decision fan-out (and the force, for a commit) of the step that
    /// decided — not at the last ack.
    Finish { commit: bool },
    /// Every participant that was sent the commit decision has acknowledged
    /// it: no recovering participant can ask about `gtid` any more, so the
    /// forced decision record may be dropped. Never emitted once an ack was
    /// lost, and never for aborts (presumed abort has no record to drop).
    Forget { gtid: Gtid },
}

/// Coordinator phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinatorState {
    /// Prepares sent, collecting votes.
    WaitVotes,
    /// Decided, caller answered, decisions sent to Yes-voters; acks still
    /// owed.
    WaitAcks { commit: bool },
    /// Decided and nothing left to wait for (every ack in, or lost).
    Finished { commit: bool },
}

/// One global transaction's coordinator.
#[derive(Debug, Clone)]
pub struct Coordinator {
    gtid: Gtid,
    participants: Vec<usize>,
    state: CoordinatorState,
    votes: Vec<Option<Vote>>,
    acks_pending: Vec<usize>,
    /// A participant owed a decision or an ack was lost: it may still ask
    /// about the gtid on recovery, so [`Action::Forget`] is off the table.
    ack_lost: bool,
}

impl Coordinator {
    /// Start 2PC across `participants` (driver indices). Returns the
    /// coordinator and the prepare fan-out.
    pub fn new(gtid: Gtid, participants: Vec<usize>) -> (Self, Vec<Action>) {
        assert!(!participants.is_empty(), "2PC needs participants");
        let actions = participants
            .iter()
            .map(|&to| Action::SendPrepare { to })
            .collect();
        let n = participants.len();
        (
            Coordinator {
                gtid,
                participants,
                state: CoordinatorState::WaitVotes,
                votes: vec![None; n],
                acks_pending: Vec::new(),
                ack_lost: false,
            },
            actions,
        )
    }

    pub fn gtid(&self) -> Gtid {
        self.gtid
    }

    pub fn state(&self) -> CoordinatorState {
        self.state
    }

    /// Votes recorded so far, indexed like `participants` (observability;
    /// the model checker encodes visited states through this).
    pub fn votes(&self) -> &[Option<Vote>] {
        &self.votes
    }

    /// Participants whose phase-2 ack is still outstanding.
    pub fn acks_pending(&self) -> &[usize] {
        &self.acks_pending
    }

    /// Whether a participant was lost while it owed an ack (observability;
    /// part of the model checker's state encoding).
    pub fn ack_lost(&self) -> bool {
        self.ack_lost
    }

    /// Participants that voted Yes so far, in participant order.
    fn voted_yes(&self) -> Vec<usize> {
        self.participants
            .iter()
            .zip(&self.votes)
            .filter(|(_, v)| **v == Some(Vote::Yes))
            .map(|(&p, _)| p)
            .collect()
    }

    fn index_of(&self, from: usize) -> usize {
        self.participants
            .iter()
            .position(|&p| p == from)
            .unwrap_or_else(|| panic!("vote from non-participant {from}"))
    }

    /// Feed a vote; returns follow-up actions.
    ///
    /// Votes may arrive **after an abort decision**: a wire driver collects
    /// votes as in-order replies on per-participant connections, so one No
    /// vote cannot stop the other participants' already-sent votes from
    /// arriving. A late Yes gets an abort [`Action::SendDecision`] (and
    /// re-enters `WaitAcks` if the abort had already finished); late No and
    /// ReadOnly votes need nothing. Late votes after a *commit* decision are
    /// impossible (commit requires every vote) and still panic, as do
    /// duplicate votes.
    pub fn on_vote(&mut self, from: usize, vote: Vote) -> Vec<Action> {
        match self.state {
            CoordinatorState::WaitVotes => {}
            CoordinatorState::WaitAcks { commit: false }
            | CoordinatorState::Finished { commit: false } => {
                return self.on_late_vote(from, vote);
            }
            s => panic!("vote from {from} after commit decision ({s:?})"),
        }
        let idx = self.index_of(from);
        assert!(self.votes[idx].is_none(), "duplicate vote from {from}");
        self.votes[idx] = Some(vote);

        // Early abort on a No vote: every Yes-voter so far (and later ones,
        // but later votes can't arrive once we've decided — driver stops
        // routing) gets an abort; presumed abort needs no force.
        if vote == Vote::No {
            let decided = self.voted_yes();
            self.acks_pending = decided.clone();
            let mut actions: Vec<Action> = decided
                .into_iter()
                .map(|to| Action::SendDecision { to, commit: false })
                .collect();
            self.state = if self.acks_pending.is_empty() {
                CoordinatorState::Finished { commit: false }
            } else {
                CoordinatorState::WaitAcks { commit: false }
            };
            actions.push(Action::Finish { commit: false });
            return actions;
        }

        if self.votes.iter().any(|v| v.is_none()) {
            return Vec::new(); // still collecting
        }

        // All voted, none No: commit. Yes-voters get phase 2; pure
        // read-only transactions skip the decision force entirely.
        let prepared = self.voted_yes();
        if prepared.is_empty() {
            self.state = CoordinatorState::Finished { commit: true };
            return vec![Action::Finish { commit: true }];
        }
        self.acks_pending = prepared.clone();
        self.state = CoordinatorState::WaitAcks { commit: true };
        let mut actions = vec![Action::ForceCommitDecision { gtid: self.gtid }];
        actions.extend(
            prepared
                .into_iter()
                .map(|to| Action::SendDecision { to, commit: true }),
        );
        actions.push(Action::Finish { commit: true });
        actions
    }

    fn on_late_vote(&mut self, from: usize, vote: Vote) -> Vec<Action> {
        let idx = self.index_of(from);
        assert!(self.votes[idx].is_none(), "duplicate vote from {from}");
        self.votes[idx] = Some(vote);
        if vote != Vote::Yes {
            return Vec::new();
        }
        // A prepared participant surfaced after the abort was decided: it
        // holds locks until it hears the decision, so send the abort (no
        // force; presumed abort). The caller was answered when the abort
        // was decided; this only reopens the wait for one more ack.
        self.acks_pending.push(from);
        self.state = CoordinatorState::WaitAcks { commit: false };
        vec![Action::SendDecision {
            to: from,
            commit: false,
        }]
    }

    /// The driver lost a participant (connection closed, vote or ack timed
    /// out). Presumed abort turns absence into a No vote: a participant that
    /// never voted counts as No; one that is owed a decision or an ack is
    /// dropped from the wait (it resolves itself on recovery — no decision
    /// record means abort, a forced commit record means commit — which is
    /// why its loss rules out [`Action::Forget`]).
    pub fn on_participant_failure(&mut self, from: usize) -> Vec<Action> {
        let idx = self.index_of(from);
        match self.state {
            CoordinatorState::WaitVotes => {
                if self.votes[idx].is_none() {
                    self.on_vote(from, Vote::No)
                } else {
                    // Voted, then died: its decision send will fail too, and
                    // the driver reports that failure separately.
                    Vec::new()
                }
            }
            CoordinatorState::WaitAcks { commit } => {
                let Some(pos) = self.acks_pending.iter().position(|&p| p == from) else {
                    return Vec::new();
                };
                self.acks_pending.swap_remove(pos);
                self.ack_lost = true;
                if self.acks_pending.is_empty() {
                    self.state = CoordinatorState::Finished { commit };
                }
                Vec::new()
            }
            CoordinatorState::Finished { .. } => Vec::new(),
        }
    }

    /// Feed a phase-2 ack. The last one of a commit whose acks all arrived
    /// yields [`Action::Forget`]; nothing else depends on acks.
    pub fn on_ack(&mut self, from: usize) -> Vec<Action> {
        let commit = match self.state {
            CoordinatorState::WaitAcks { commit } => commit,
            s => panic!("ack in state {s:?}"),
        };
        let pos = self
            .acks_pending
            .iter()
            .position(|&p| p == from)
            .unwrap_or_else(|| panic!("unexpected ack from {from}"));
        self.acks_pending.swap_remove(pos);
        if !self.acks_pending.is_empty() {
            return Vec::new();
        }
        self.state = CoordinatorState::Finished { commit };
        if commit && !self.ack_lost {
            vec![Action::Forget { gtid: self.gtid }]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_yes_commits_with_forced_decision() {
        let (mut c, prep) = Coordinator::new(9, vec![1, 2, 3]);
        assert_eq!(prep.len(), 3);
        assert!(c.on_vote(1, Vote::Yes).is_empty());
        assert!(c.on_vote(2, Vote::Yes).is_empty());
        let actions = c.on_vote(3, Vote::Yes);
        assert_eq!(actions[0], Action::ForceCommitDecision { gtid: 9 });
        let sends: Vec<_> = actions[1..4].to_vec();
        assert!(sends
            .iter()
            .all(|a| matches!(a, Action::SendDecision { commit: true, .. })));
        // The caller is answered behind the fan-out, with every ack owed.
        assert_eq!(actions[4..], [Action::Finish { commit: true }]);
        assert_eq!(c.state(), CoordinatorState::WaitAcks { commit: true });
        // The acks only earn the right to forget.
        assert!(c.on_ack(1).is_empty());
        assert!(c.on_ack(2).is_empty());
        assert_eq!(c.on_ack(3), vec![Action::Forget { gtid: 9 }]);
        assert_eq!(c.state(), CoordinatorState::Finished { commit: true });
    }

    #[test]
    fn single_no_aborts_without_force() {
        let (mut c, _) = Coordinator::new(5, vec![1, 2]);
        assert!(c.on_vote(1, Vote::Yes).is_empty());
        let actions = c.on_vote(2, Vote::No);
        // No ForceCommitDecision anywhere (presumed abort).
        assert!(actions
            .iter()
            .all(|a| !matches!(a, Action::ForceCommitDecision { .. })));
        assert_eq!(
            actions,
            vec![
                Action::SendDecision {
                    to: 1,
                    commit: false
                },
                Action::Finish { commit: false }
            ]
        );
        // An abort has no record, so its last ack forgets nothing.
        assert!(c.on_ack(1).is_empty());
        assert_eq!(c.state(), CoordinatorState::Finished { commit: false });
    }

    #[test]
    fn no_vote_before_any_yes_finishes_immediately() {
        let (mut c, _) = Coordinator::new(5, vec![1]);
        let actions = c.on_vote(1, Vote::No);
        assert_eq!(actions, vec![Action::Finish { commit: false }]);
    }

    #[test]
    fn all_read_only_skips_phase_two_entirely() {
        let (mut c, _) = Coordinator::new(5, vec![1, 2]);
        assert!(c.on_vote(1, Vote::ReadOnly).is_empty());
        let actions = c.on_vote(2, Vote::ReadOnly);
        assert_eq!(actions, vec![Action::Finish { commit: true }]);
        assert_eq!(c.state(), CoordinatorState::Finished { commit: true });
    }

    #[test]
    fn mixed_read_only_and_yes_sends_decision_to_yes_only() {
        let (mut c, _) = Coordinator::new(5, vec![1, 2, 3]);
        assert!(c.on_vote(1, Vote::ReadOnly).is_empty());
        assert!(c.on_vote(3, Vote::Yes).is_empty());
        let actions = c.on_vote(2, Vote::ReadOnly);
        let sends: Vec<&Action> = actions
            .iter()
            .filter(|a| matches!(a, Action::SendDecision { .. }))
            .collect();
        assert_eq!(
            sends,
            vec![&Action::SendDecision {
                to: 3,
                commit: true
            }]
        );
        assert_eq!(actions.last(), Some(&Action::Finish { commit: true }));
        assert_eq!(c.on_ack(3), vec![Action::Forget { gtid: 5 }]);
    }

    #[test]
    fn late_yes_vote_after_abort_decision_gets_abort_decision() {
        // Wire drivers deliver votes as per-connection replies: participant
        // 2's No decides abort while 3's Yes is still in flight.
        let (mut c, _) = Coordinator::new(5, vec![1, 2, 3]);
        assert!(c.on_vote(1, Vote::Yes).is_empty());
        let actions = c.on_vote(2, Vote::No);
        assert_eq!(
            actions,
            vec![
                Action::SendDecision {
                    to: 1,
                    commit: false
                },
                Action::Finish { commit: false }
            ]
        );
        // The caller already has its answer: the late voter gets its abort
        // and nothing is announced twice.
        let late = c.on_vote(3, Vote::Yes);
        assert_eq!(
            late,
            vec![Action::SendDecision {
                to: 3,
                commit: false
            }]
        );
        assert!(c.on_ack(1).is_empty());
        assert!(c.on_ack(3).is_empty());
        assert_eq!(c.state(), CoordinatorState::Finished { commit: false });
    }

    #[test]
    fn late_read_only_vote_after_finished_abort_needs_nothing() {
        let (mut c, _) = Coordinator::new(5, vec![1, 2]);
        assert_eq!(
            c.on_vote(1, Vote::No),
            vec![Action::Finish { commit: false }]
        );
        assert_eq!(c.state(), CoordinatorState::Finished { commit: false });
        assert!(c.on_vote(2, Vote::ReadOnly).is_empty());
        assert_eq!(c.state(), CoordinatorState::Finished { commit: false });
    }

    #[test]
    fn late_yes_vote_after_finished_abort_reopens_for_its_ack() {
        let (mut c, _) = Coordinator::new(5, vec![1, 2]);
        assert_eq!(
            c.on_vote(1, Vote::No),
            vec![Action::Finish { commit: false }]
        );
        let late = c.on_vote(2, Vote::Yes);
        assert_eq!(
            late,
            vec![Action::SendDecision {
                to: 2,
                commit: false
            }]
        );
        assert_eq!(c.state(), CoordinatorState::WaitAcks { commit: false });
        assert!(c.on_ack(2).is_empty());
        assert_eq!(c.state(), CoordinatorState::Finished { commit: false });
    }

    #[test]
    fn participant_failure_before_voting_counts_as_no() {
        let (mut c, _) = Coordinator::new(5, vec![1, 2]);
        assert!(c.on_vote(1, Vote::Yes).is_empty());
        let actions = c.on_participant_failure(2);
        assert_eq!(
            actions,
            vec![
                Action::SendDecision {
                    to: 1,
                    commit: false
                },
                Action::Finish { commit: false }
            ]
        );
        assert!(actions
            .iter()
            .all(|a| !matches!(a, Action::ForceCommitDecision { .. })));
    }

    #[test]
    fn participant_lost_while_owing_its_ack_keeps_the_record() {
        for lost_first in [true, false] {
            let (mut c, _) = Coordinator::new(5, vec![1, 2]);
            assert!(c.on_vote(1, Vote::Yes).is_empty());
            let actions = c.on_vote(2, Vote::Yes);
            assert!(matches!(actions[0], Action::ForceCommitDecision { .. }));
            assert_eq!(actions.last(), Some(&Action::Finish { commit: true }));
            // Participant 2 died after the commit decision was forced: the
            // outcome the caller was given stands, and 2 recovers from the
            // decision log — so no ack order may yield a Forget.
            if lost_first {
                assert!(c.on_participant_failure(2).is_empty());
                assert!(c.on_ack(1).is_empty());
            } else {
                assert!(c.on_ack(1).is_empty());
                assert!(c.on_participant_failure(2).is_empty());
            }
            assert!(c.ack_lost());
            assert_eq!(c.state(), CoordinatorState::Finished { commit: true });
            // Repeated failure reports are idempotent.
            assert!(c.on_participant_failure(2).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "after commit decision")]
    fn vote_after_commit_decision_still_panics() {
        let (mut c, _) = Coordinator::new(5, vec![1]);
        c.on_vote(1, Vote::Yes);
        // All votes are in (state WaitAcks{commit: true}); another vote is
        // impossible in a correct driver.
        c.on_vote(1, Vote::Yes);
    }

    #[test]
    #[should_panic(expected = "duplicate vote")]
    fn duplicate_vote_is_a_protocol_violation() {
        let (mut c, _) = Coordinator::new(5, vec![1, 2]);
        c.on_vote(1, Vote::Yes);
        c.on_vote(1, Vote::Yes);
    }

    #[test]
    #[should_panic(expected = "non-participant")]
    fn vote_from_stranger_panics() {
        let (mut c, _) = Coordinator::new(5, vec![1, 2]);
        c.on_vote(9, Vote::Yes);
    }
}
