//! Exhaustive coordinator recovery-semantics tests.
//!
//! Three families, per the protocol's contract:
//!
//! 1. **Unknown gtid ⇒ presumed abort** — the verdict rule
//!    ([`verdict`]) applied end-to-end to a real participant WAL (forced
//!    `Prepare`, crash, log analysis) and a coordinator log with and
//!    without the decision record, once no round holds the gtid undecided.
//! 2. **Read-only voters are excluded from phase 2** — for *every* vote
//!    assignment over 1–4 participants, phase-2 decisions go to exactly the
//!    Yes-voters the coordinator heard before deciding; `ReadOnly` voters
//!    never appear.
//! 3. **Mixed Yes/No vote orderings** — every delivery permutation of every
//!    assignment (up to 3 participants; 4 in index order) reaches the same
//!    outcome: commit iff no `No` vote, with a commit force iff there is at
//!    least one Yes-voter to bind.

use islands_dtxn::{
    verdict, Action, Coordinator, CoordinatorState, Gtid, Participant, ParticipantState, Vote,
};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// 1. Unknown gtid ⇒ presumed abort
// ---------------------------------------------------------------------------

mod presumed_abort {
    use super::*;
    use islands_storage::wal::record::{encode, LogPayload};
    use islands_storage::wal::recovery::{analyze, UndoOp};
    use islands_storage::TxnId;

    fn participant_log_prepared(gtid: Gtid) -> Vec<u8> {
        let mut log = Vec::new();
        encode(TxnId(1), &LogPayload::Begin, &mut log);
        encode(
            TxnId(1),
            &LogPayload::Update {
                table: 1,
                key: 5,
                before: vec![0],
                after: vec![9],
            },
            &mut log,
        );
        encode(TxnId(1), &LogPayload::Prepare { gtid }, &mut log);
        log
    }

    #[test]
    fn in_doubt_with_no_logged_decision_presumes_abort() {
        // Participant crashed after forcing Prepare for gtid 77.
        let a = analyze(&participant_log_prepared(77), 0).unwrap();
        assert_eq!(a.in_doubt.get(&TxnId(1)), Some(&77));

        // Coordinator log holds decisions for *other* gtids only.
        let mut coord_log = Vec::new();
        encode(
            TxnId(0),
            &LogPayload::Decision {
                gtid: 76,
                commit: true,
            },
            &mut coord_log,
        );
        let coord = analyze(&coord_log, 0).unwrap();
        let logged = coord.decisions.get(&77).copied();
        assert_eq!(verdict(logged, false), Some(false), "presumed abort");
        assert_eq!(verdict(logged, true), None, "not while the round is open");
        // Presumed abort applies the branch's undo, restoring the before
        // image.
        let undo: Vec<_> = a.in_doubt_writes[&TxnId(1)].iter().map(|w| &w.1).collect();
        assert_eq!(
            undo,
            vec![&UndoOp::Revert {
                table: 1,
                key: 5,
                before: vec![0]
            }]
        );
    }

    #[test]
    fn in_doubt_with_logged_commit_decision_redoes() {
        let a = analyze(&participant_log_prepared(42), 0).unwrap();
        let mut coord_log = Vec::new();
        encode(
            TxnId(0),
            &LogPayload::Decision {
                gtid: 42,
                commit: true,
            },
            &mut coord_log,
        );
        let coord = analyze(&coord_log, 0).unwrap();
        let logged = coord.decisions.get(&42).copied();
        assert_eq!(verdict(logged, false), Some(true));
        assert_eq!(
            verdict(logged, true),
            Some(true),
            "a record answers at once"
        );
        assert_eq!(a.in_doubt_writes.get(&TxnId(1)).unwrap().len(), 1);
    }

    #[test]
    fn explicit_abort_decision_behaves_like_presumed_abort() {
        let mut coord_log = Vec::new();
        encode(
            TxnId(0),
            &LogPayload::Decision {
                gtid: 9,
                commit: false,
            },
            &mut coord_log,
        );
        let coord = analyze(&coord_log, 0).unwrap();
        assert_eq!(
            verdict(coord.decisions.get(&9).copied(), false),
            Some(false)
        );
    }

    #[test]
    fn empty_decision_map_presumes_abort_for_everything() {
        let none: HashMap<Gtid, bool> = HashMap::new();
        for gtid in [0, 1, u64::MAX] {
            assert_eq!(verdict(none.get(&gtid).copied(), false), Some(false));
        }
    }
}

// ---------------------------------------------------------------------------
// Exhaustive coordinator driver
// ---------------------------------------------------------------------------

/// Result of driving one coordinator to completion.
#[derive(Debug)]
struct Run {
    /// Participant ids whose votes were actually delivered (the driver stops
    /// routing once the coordinator decides).
    delivered: Vec<(usize, Vote)>,
    forced_commit: bool,
    /// Phase-2 decisions as (participant id, commit).
    decisions: Vec<(usize, bool)>,
    finish: Option<bool>,
    /// The last ack of a fully acknowledged commit released the record.
    forgot: bool,
}

/// Drive a coordinator for `votes` (indexed by participant), delivering in
/// `order` (indices into `votes`), acking every decision.
fn drive(votes: &[Vote], order: &[usize]) -> Run {
    // Participant ids deliberately differ from their indices.
    let ids: Vec<usize> = (0..votes.len()).map(|i| (i + 1) * 10).collect();
    let (mut coord, prepares) = Coordinator::new(7, ids.clone());
    assert_eq!(
        prepares,
        ids.iter()
            .map(|&to| Action::SendPrepare { to })
            .collect::<Vec<_>>(),
        "phase 1 fans out to every participant"
    );
    let mut run = Run {
        delivered: Vec::new(),
        forced_commit: false,
        decisions: Vec::new(),
        finish: None,
        forgot: false,
    };
    let mut queue: Vec<Action> = Vec::new();
    for &idx in order {
        if coord.state() != CoordinatorState::WaitVotes {
            break; // decided: a real driver stops routing votes
        }
        run.delivered.push((ids[idx], votes[idx]));
        queue.extend(coord.on_vote(ids[idx], votes[idx]));
        // Process resulting actions (acking decisions immediately).
        let mut i = 0;
        while i < queue.len() {
            match queue[i].clone() {
                Action::SendPrepare { .. } => panic!("prepare after construction"),
                Action::ForceCommitDecision { gtid } => {
                    assert_eq!(gtid, 7);
                    assert!(!run.forced_commit, "decision forced twice");
                    run.forced_commit = true;
                }
                Action::SendDecision { to, commit } => {
                    run.decisions.push((to, commit));
                    let more = coord.on_ack(to);
                    queue.extend(more);
                }
                Action::Finish { commit } => {
                    assert!(run.finish.is_none(), "finished twice");
                    run.finish = Some(commit);
                }
                Action::Forget { gtid } => {
                    assert_eq!(gtid, 7);
                    assert!(run.forced_commit, "forgot a record never forced");
                    assert!(!run.forgot, "forgot twice");
                    run.forgot = true;
                }
            }
            i += 1;
        }
        queue.clear();
    }
    run
}

/// All permutations of `0..n` (n <= 4 here, so at most 24).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn go(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            go(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    let mut out = Vec::new();
    go(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

/// All `3^n` vote assignments.
fn assignments(n: usize) -> Vec<Vec<Vote>> {
    let all = [Vote::Yes, Vote::No, Vote::ReadOnly];
    let mut out: Vec<Vec<Vote>> = vec![Vec::new()];
    for _ in 0..n {
        out = out
            .into_iter()
            .flat_map(|v| {
                all.iter().map(move |&vote| {
                    let mut v = v.clone();
                    v.push(vote);
                    v
                })
            })
            .collect();
    }
    out
}

/// The protocol contract for one (votes, order) case.
fn check(votes: &[Vote], order: &[usize]) {
    let run = drive(votes, order);
    let case = format!("votes {votes:?} order {order:?}: {run:?}");

    // Which Yes votes arrived before the coordinator decided?
    let first_no = run.delivered.iter().position(|&(_, v)| v == Vote::No);
    let heard_yes: Vec<usize> = run
        .delivered
        .iter()
        .take(first_no.unwrap_or(run.delivered.len()))
        .filter(|&&(_, v)| v == Vote::Yes)
        .map(|&(id, _)| id)
        .collect();

    if let Some(pos) = first_no {
        // Mixed Yes/No: the first No decides abort immediately.
        assert_eq!(run.delivered.len(), pos + 1, "No decides instantly: {case}");
        assert_eq!(run.finish, Some(false), "{case}");
        assert!(!run.forced_commit, "aborts are never forced: {case}");
        assert!(!run.forgot, "aborts have no record to forget: {case}");
        // Fan-out order follows the coordinator's participant order, not
        // delivery order; the contract is about the *set* of recipients.
        let mut targets: Vec<usize> = run.decisions.iter().map(|&(id, _)| id).collect();
        targets.sort_unstable();
        let mut heard_yes = heard_yes.clone();
        heard_yes.sort_unstable();
        assert_eq!(targets, heard_yes, "abort goes to prior Yes-voters: {case}");
        assert!(
            run.decisions.iter().all(|&(_, c)| !c),
            "decision must be abort: {case}"
        );
    } else {
        // No No vote: every vote is delivered, the outcome is commit.
        assert_eq!(run.delivered.len(), votes.len(), "{case}");
        assert_eq!(run.finish, Some(true), "{case}");
        let mut yes_ids: Vec<usize> = run
            .delivered
            .iter()
            .filter(|&&(_, v)| v == Vote::Yes)
            .map(|&(id, _)| id)
            .collect();
        yes_ids.sort_unstable();
        assert_eq!(
            run.forced_commit,
            !yes_ids.is_empty(),
            "commit is forced iff some participant is bound by it: {case}"
        );
        assert_eq!(
            run.forgot, run.forced_commit,
            "every decision was acked, so a forced record is released: {case}"
        );
        let mut targets: Vec<usize> = run.decisions.iter().map(|&(id, _)| id).collect();
        targets.sort_unstable();
        assert_eq!(
            targets, yes_ids,
            "commit goes to exactly Yes-voters: {case}"
        );
        assert!(run.decisions.iter().all(|&(_, c)| c), "{case}");
    }
    // Read-only voters never see phase 2, in every branch.
    let read_only: Vec<usize> = run
        .delivered
        .iter()
        .filter(|&&(_, v)| v == Vote::ReadOnly)
        .map(|&(id, _)| id)
        .collect();
    for &(id, _) in &run.decisions {
        assert!(
            !read_only.contains(&id),
            "read-only voter {id} got a phase-2 decision: {case}"
        );
    }
}

// ---------------------------------------------------------------------------
// 2 + 3. Exhaustive assignments × orderings
// ---------------------------------------------------------------------------

#[test]
fn every_vote_assignment_and_ordering_up_to_three_participants() {
    for n in 1..=3 {
        let orders = permutations(n);
        for votes in assignments(n) {
            for order in &orders {
                check(&votes, order);
            }
        }
    }
}

#[test]
fn every_vote_assignment_of_four_participants_in_forward_and_reverse_order() {
    let forward: Vec<usize> = (0..4).collect();
    let reverse: Vec<usize> = (0..4).rev().collect();
    for votes in assignments(4) {
        check(&votes, &forward);
        check(&votes, &reverse);
    }
}

#[test]
fn read_only_participant_machine_finishes_without_phase_two() {
    // The participant side of the exclusion: a read-only voter releases at
    // prepare time and is Finished before any decision could arrive.
    let mut p = Participant::new(3);
    p.on_prepare(false, true);
    assert_eq!(p.state(), ParticipantState::Finished);
    // While a writer is still bound after voting Yes.
    let mut w = Participant::new(3);
    w.on_prepare(true, true);
    assert_eq!(w.state(), ParticipantState::Prepared);
}
