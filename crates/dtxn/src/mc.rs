//! `mc` — an exhaustive explicit-state model checker for the 2PC machines.
//!
//! The coordinator and participant are already pure step-functions; this
//! module closes the loop by driving the *real* machines over a simulated
//! network and enumerating, by depth-first search, every reachable
//! interleaving of a bounded configuration:
//!
//! * all message delivery orders (the in-flight set is a multiset; any
//!   element may be delivered next),
//! * all vote assignments (each participant's [`Disposition`] fixes whether
//!   it votes Yes, ReadOnly, or No),
//! * duplicated and dropped frames (budgeted),
//! * participant and coordinator crash points (budgeted), and
//! * spurious coordinator-side timeouts (`mark_dead` of a live peer,
//!   budgeted — the wire driver's vote timeout can fire against a slow but
//!   healthy participant).
//!
//! Visited states are canonically encoded and hashed so each state is
//! checked exactly once; the search is a DAG (every transition consumes a
//! message, a budget, or advances a monotone machine), so it terminates.
//!
//! Safety invariants are asserted at **every** state:
//!
//! * E1 — a participant holds a local commit record only if the coordinator
//!   forced its commit decision first (presumed abort forces commits).
//! * E2 — no gtid is both committed and aborted across participants.
//! * E3 — once the commit decision is forced, no participant aborts.
//! * E4 — buffered effects reach the database only under a commit record.
//! * E5 — the caller is answered when the decision fan-out is emitted
//!   ([`Action::Finish`]), not at the last ack, and that answer is final:
//!   no participant ever holds the opposite local outcome, and at every
//!   quiescent completion — coordinator crashed with acks outstanding, acks
//!   dropped or duplicated, a decision overtaken by a participant's
//!   recovery — told *commit* means every writer's effect is applied exactly
//!   once and told *abort* means no effect survives.
//!
//! And at every **quiescent** state (no frames in flight, every crash
//! observed), the run is finished off the way a real deployment would —
//! unresolved prepared branches consult the coordinator log via
//! [`crate::recovery::resolve_in_doubt`] (a log the coordinator may have
//! *forgotten* once [`Action::Forget`] said every ack was in) — and the
//! final state must satisfy:
//!
//! * Q1 — global commit (forced decision record) ⟹ every writer's effect is
//!   applied exactly once; global abort ⟹ no effect survives anywhere.
//! * Q2 — audit-sum conservation: applied effects total `n_writers` on
//!   commit and `0` on abort.
//! * Q3 (failure-free configs only) — zero in-doubt branches at quiescence
//!   and a finished coordinator whose outcome matches the vote set.
//!
//! A built-in **mutation mode** ([`Mutation`]) seeds a protocol bug into the
//! driver (not the machines) and the self-test asserts the checker reports a
//! violation for every seeded bug — so the checker itself is tested.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

use crate::coordinator::{Action, Coordinator, CoordinatorState};
use crate::participant::{Participant, ParticipantEvent, ParticipantState};
use crate::recovery::{resolve_in_doubt, RecoveredOutcome};
use crate::{Gtid, Vote};

/// The single global transaction id used by every model run.
const GTID: Gtid = 7;

/// How a participant behaves when asked to prepare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Performed writes and validates: votes Yes, forces a prepare record.
    Writer,
    /// Performed no writes: votes ReadOnly, released immediately.
    Reader,
    /// Local validation fails: votes No, rolls back locally.
    Refuser,
}

impl Disposition {
    pub const ALL: [Disposition; 3] = [
        Disposition::Writer,
        Disposition::Reader,
        Disposition::Refuser,
    ];
}

/// A protocol bug seeded into the *driver* for the mutation self-test.
/// Machines stay untouched; each mutation models a realistic implementation
/// mistake the checker must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Treat a missing vote (timeout/death before voting) as Yes.
    CommitOnMissingVote,
    /// Apply an abort decision without undoing the buffered write
    /// (session-death cleanup forgets the rollback).
    SkipAbortUndo,
    /// Send commit decisions without forcing the decision record first.
    DecisionWithoutForce,
    /// Ack a commit decision (and log the outcome) without applying the
    /// effects.
    AckWithoutApply,
    /// Recovery presumes *commit* for an unknown gtid instead of abort.
    PresumeCommit,
    /// Forget an abort immediately: never send abort decisions to
    /// prepared Yes-voters.
    SkipDecisionOnAbort,
    /// Answer the caller "commit" before the decision record is forced: a
    /// coordinator crash in between leaves a told commit nobody can prove.
    TellBeforeForce,
    /// Drop the decision record when the decisions are written instead of
    /// when they are all acknowledged: a participant that recovers before
    /// its decision arrives finds nothing and presumes abort.
    ForgetBeforeAck,
}

impl Mutation {
    pub const ALL: [Mutation; 8] = [
        Mutation::CommitOnMissingVote,
        Mutation::SkipAbortUndo,
        Mutation::DecisionWithoutForce,
        Mutation::AckWithoutApply,
        Mutation::PresumeCommit,
        Mutation::SkipDecisionOnAbort,
        Mutation::TellBeforeForce,
        Mutation::ForgetBeforeAck,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Mutation::CommitOnMissingVote => "commit-on-missing-vote",
            Mutation::SkipAbortUndo => "skip-abort-undo",
            Mutation::DecisionWithoutForce => "decision-without-force",
            Mutation::AckWithoutApply => "ack-without-apply",
            Mutation::PresumeCommit => "presume-commit",
            Mutation::SkipDecisionOnAbort => "skip-decision-on-abort",
            Mutation::TellBeforeForce => "tell-before-force",
            Mutation::ForgetBeforeAck => "forget-before-ack",
        }
    }
}

/// One bounded configuration: participant dispositions plus fault budgets.
#[derive(Debug, Clone)]
pub struct McConfig {
    pub dispositions: Vec<Disposition>,
    /// Participant crash points available to the adversary.
    pub part_crashes: u8,
    /// Coordinator crash points (its forced log survives the crash).
    pub coord_crashes: u8,
    /// Frame duplications available.
    pub dups: u8,
    /// Frame drops available.
    pub drops: u8,
    /// Spurious timeouts (mark a *live* participant dead) available.
    pub timeouts: u8,
}

impl McConfig {
    /// Failure-free configuration: pure protocol, strongest invariants.
    pub fn clean(dispositions: Vec<Disposition>) -> Self {
        McConfig {
            dispositions,
            part_crashes: 0,
            coord_crashes: 0,
            dups: 0,
            drops: 0,
            timeouts: 0,
        }
    }

    fn is_clean(&self) -> bool {
        self.part_crashes == 0
            && self.coord_crashes == 0
            && self.dups == 0
            && self.drops == 0
            && self.timeouts == 0
    }

    fn describe(&self) -> String {
        format!(
            "{:?} crashes={}p/{}c dups={} drops={} timeouts={}",
            self.dispositions,
            self.part_crashes,
            self.coord_crashes,
            self.dups,
            self.drops,
            self.timeouts
        )
    }
}

/// Aggregate exploration statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct Report {
    /// Distinct states visited (post-dedup).
    pub states: u64,
    /// States that were quiescent (final-invariant checked).
    pub quiescent: u64,
    /// Configurations explored.
    pub configs: u64,
}

impl Report {
    fn absorb(&mut self, other: Report) {
        self.states += other.states;
        self.quiescent += other.quiescent;
        self.configs += other.configs;
    }
}

/// A safety-invariant violation, with the transition trace that reached it.
#[derive(Debug)]
pub struct Violation {
    pub invariant: &'static str,
    pub detail: String,
    pub config: String,
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant {} violated: {}", self.invariant, self.detail)?;
        writeln!(f, "  config: {}", self.config)?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {step}", i + 1)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The simulated world
// ---------------------------------------------------------------------------

/// A frame in flight. The network is an unordered multiset: any in-flight
/// frame may be delivered next (per-connection FIFO holds automatically —
/// see the module docs of `coordinator` for why votes and acks are already
/// causally ordered).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Msg {
    Prepare { to: usize },
    Decision { to: usize, commit: bool },
    Vote { from: usize, vote: Vote },
    Ack { from: usize },
}

/// Participant-local durable log summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PLog {
    /// Nothing forced (working, read-only released, or local No rollback).
    None,
    /// Forced prepare record, no outcome yet: in doubt if unresolved.
    Prepared,
    /// Local commit record.
    Committed,
    /// Local abort record.
    Aborted,
}

#[derive(Clone)]
struct PartNode {
    m: Participant,
    disp: Disposition,
    alive: bool,
    plog: PLog,
    /// Buffered write applied to the database (0 or 1 audit units).
    applied: u64,
}

#[derive(Clone)]
struct World {
    coord: Coordinator,
    coord_alive: bool,
    /// Driver-side vote dedup (a real driver reads one vote per connection).
    seen_vote: Vec<bool>,
    /// Driver-side ack dedup.
    seen_ack: Vec<bool>,
    /// Driver marked this peer dead: stop reading from it, sends fail.
    dead_mark: Vec<bool>,
    /// Coordinator's durable log: a forced commit decision for [`GTID`].
    /// Survives coordinator crashes.
    forced_commit: bool,
    /// What the caller was told, once [`Action::Finish`] was carried out.
    told: Option<bool>,
    /// The coordinator dropped its decision record: recovery finds nothing.
    forgotten: bool,
    /// Actions a driver seeded with [`Mutation::TellBeforeForce`] has yet
    /// to carry out after answering the caller (always empty otherwise).
    deferred: Vec<Action>,
    parts: Vec<PartNode>,
    net: Vec<Msg>,
    // Remaining fault budgets.
    part_crashes: u8,
    coord_crashes: u8,
    dups: u8,
    drops: u8,
    timeouts: u8,
}

impl World {
    fn new(cfg: &McConfig, mutation: Option<Mutation>) -> World {
        let n = cfg.dispositions.len();
        assert!(n >= 1, "config needs at least one participant");
        let (coord, actions) = Coordinator::new(GTID, (0..n).collect());
        let mut w = World {
            coord,
            coord_alive: true,
            seen_vote: vec![false; n],
            seen_ack: vec![false; n],
            dead_mark: vec![false; n],
            forced_commit: false,
            told: None,
            forgotten: false,
            deferred: Vec::new(),
            parts: cfg
                .dispositions
                .iter()
                .map(|&disp| PartNode {
                    m: Participant::new(GTID),
                    disp,
                    alive: true,
                    plog: PLog::None,
                    applied: 0,
                })
                .collect(),
            net: Vec::new(),
            part_crashes: cfg.part_crashes,
            coord_crashes: cfg.coord_crashes,
            dups: cfg.dups,
            drops: cfg.drops,
            timeouts: cfg.timeouts,
        };
        w.process_actions(actions, mutation);
        w
    }

    /// Carry out coordinator [`Action`]s the way the wire driver does; a
    /// send to a dead-marked peer fails immediately and is reported back as
    /// a participant failure.
    fn process_actions(&mut self, actions: Vec<Action>, mutation: Option<Mutation>) {
        if mutation == Some(Mutation::TellBeforeForce)
            && actions
                .iter()
                .any(|a| matches!(a, Action::ForceCommitDecision { .. }))
        {
            // Seeded bug: the caller hears "commit" first; the force and
            // the fan-out are a later step a crash can pre-empt.
            self.told = Some(true);
            self.deferred = actions;
            return;
        }
        self.carry_out(actions, mutation);
    }

    fn carry_out(&mut self, actions: Vec<Action>, mutation: Option<Mutation>) {
        let mut work: VecDeque<Action> = actions.into();
        while let Some(a) = work.pop_front() {
            match a {
                Action::SendPrepare { to } => {
                    if self.dead_mark[to] {
                        work.extend(self.coord.on_participant_failure(to));
                    } else {
                        self.net.push(Msg::Prepare { to });
                    }
                }
                Action::ForceCommitDecision { .. } => {
                    if mutation != Some(Mutation::DecisionWithoutForce) {
                        self.forced_commit = true;
                    }
                }
                Action::SendDecision { to, commit } => {
                    if !commit && mutation == Some(Mutation::SkipDecisionOnAbort) {
                        continue; // seeded bug: prepared voters never hear the abort
                    }
                    if commit && mutation == Some(Mutation::ForgetBeforeAck) {
                        self.forgotten = true; // seeded bug: written is not acked
                    }
                    if self.dead_mark[to] {
                        work.extend(self.coord.on_participant_failure(to));
                    } else {
                        self.net.push(Msg::Decision { to, commit });
                    }
                }
                Action::Finish { commit } => self.told = Some(commit),
                Action::Forget { .. } => self.forgotten = true,
            }
        }
    }

    fn deliver(&mut self, msg: Msg, mutation: Option<Mutation>) {
        match msg {
            Msg::Prepare { to } => {
                let p = &mut self.parts[to];
                if !p.alive || p.m.state() != ParticipantState::Working {
                    return; // dead recipient or duplicate frame
                }
                let (wrote, can_commit) = match p.disp {
                    Disposition::Writer => (true, true),
                    Disposition::Reader => (false, true),
                    Disposition::Refuser => (true, false),
                };
                match p.m.on_prepare(wrote, can_commit) {
                    ParticipantEvent::ForcePrepareAndVote { vote, .. } => {
                        p.plog = PLog::Prepared;
                        self.net.push(Msg::Vote { from: to, vote });
                    }
                    ParticipantEvent::SendVote { vote, .. } => {
                        // No vote rolls back locally (nothing forced);
                        // ReadOnly releases with nothing to undo.
                        self.net.push(Msg::Vote { from: to, vote });
                    }
                    ev => unreachable!("unexpected prepare event {ev:?}"),
                }
            }
            Msg::Decision { to, commit } => {
                let p = &mut self.parts[to];
                if !p.alive || p.m.state() != ParticipantState::Prepared {
                    return; // dead recipient or duplicate frame
                }
                match p.m.on_decision(commit) {
                    ParticipantEvent::ApplyDecisionAndAck { commit, .. } => {
                        if commit {
                            p.plog = PLog::Committed;
                            if mutation != Some(Mutation::AckWithoutApply) {
                                p.applied = 1;
                            }
                        } else {
                            p.plog = PLog::Aborted;
                            if mutation == Some(Mutation::SkipAbortUndo) {
                                p.applied = 1; // seeded bug: buffered write leaks
                            }
                        }
                        self.net.push(Msg::Ack { from: to });
                    }
                    ev => unreachable!("unexpected decision event {ev:?}"),
                }
            }
            Msg::Vote { from, vote } => {
                if !self.coord_alive || self.dead_mark[from] || self.seen_vote[from] {
                    return; // dead coordinator, dead-marked peer, or duplicate
                }
                self.seen_vote[from] = true;
                let actions = self.coord.on_vote(from, vote);
                self.process_actions(actions, mutation);
            }
            Msg::Ack { from } => {
                if !self.coord_alive || self.dead_mark[from] || self.seen_ack[from] {
                    return;
                }
                self.seen_ack[from] = true;
                let actions = self.coord.on_ack(from);
                self.process_actions(actions, mutation);
            }
        }
    }

    /// Coordinator driver observes a peer failure (EOF after a crash, or a
    /// spurious vote/ack timeout against a live peer).
    fn mark_dead(&mut self, p: usize, mutation: Option<Mutation>) {
        if self.parts[p].alive {
            self.timeouts -= 1; // spurious timeout consumes budget
        }
        self.dead_mark[p] = true;
        if mutation == Some(Mutation::CommitOnMissingVote) && !self.seen_vote[p] {
            // Seeded bug: absence treated as assent.
            self.seen_vote[p] = true;
            let actions = self.coord.on_vote(p, Vote::Yes);
            self.process_actions(actions, mutation);
        } else {
            let actions = self.coord.on_participant_failure(p);
            self.process_actions(actions, mutation);
        }
    }

    fn coord_live_unfinished(&self) -> bool {
        self.coord_alive && !matches!(self.coord.state(), CoordinatorState::Finished { .. })
    }

    /// No frames in flight and every crash the coordinator still cares
    /// about has been observed: the system rests here unless the adversary
    /// injects another fault.
    fn quiescent(&self) -> bool {
        self.net.is_empty()
            && (self.deferred.is_empty() || !self.coord_alive)
            && (!self.coord_live_unfinished()
                || self
                    .parts
                    .iter()
                    .enumerate()
                    .all(|(i, p)| p.alive || self.dead_mark[i]))
    }

    /// All enabled transitions, as `(description, successor)` pairs.
    fn successors(&self, mutation: Option<Mutation>) -> Vec<(String, World)> {
        let mut out = Vec::new();
        for i in 0..self.net.len() {
            let msg = self.net[i].clone();
            let mut w = self.clone();
            w.net.swap_remove(i);
            w.deliver(msg.clone(), mutation);
            out.push((format!("deliver {msg:?}"), w));
            if self.dups > 0 {
                let mut w = self.clone();
                w.dups -= 1;
                w.net.push(msg.clone());
                out.push((format!("duplicate {msg:?}"), w));
            }
            if self.drops > 0 {
                let mut w = self.clone();
                w.drops -= 1;
                w.net.swap_remove(i);
                out.push((format!("drop {msg:?}"), w));
            }
        }
        if self.part_crashes > 0 {
            for (i, p) in self.parts.iter().enumerate() {
                if p.alive {
                    let mut w = self.clone();
                    w.part_crashes -= 1;
                    w.parts[i].alive = false;
                    out.push((format!("crash participant {i}"), w));
                }
            }
        }
        if self.coord_crashes > 0 && self.coord_alive {
            let mut w = self.clone();
            w.coord_crashes -= 1;
            w.coord_alive = false;
            out.push(("crash coordinator".to_string(), w));
        }
        if self.coord_alive && !self.deferred.is_empty() {
            let mut w = self.clone();
            let deferred = std::mem::take(&mut w.deferred);
            w.carry_out(deferred, mutation);
            out.push(("coordinator forces and fans out".to_string(), w));
        }
        if self.coord_live_unfinished() {
            for i in 0..self.parts.len() {
                if self.dead_mark[i] {
                    continue;
                }
                if !self.parts[i].alive || self.timeouts > 0 {
                    let mut w = self.clone();
                    w.mark_dead(i, mutation);
                    out.push((format!("mark participant {i} dead"), w));
                }
            }
        }
        out
    }

    /// Canonical byte encoding for the visited-state set. The network is
    /// sorted so the multiset, not the insertion order, identifies a state.
    fn encode(&self) -> Vec<u8> {
        fn vote_byte(v: Option<Vote>) -> u8 {
            match v {
                None => 0,
                Some(Vote::Yes) => 1,
                Some(Vote::No) => 2,
                Some(Vote::ReadOnly) => 3,
            }
        }
        let mut k = Vec::with_capacity(64);
        k.push(self.coord_alive as u8);
        k.push(match self.coord.state() {
            CoordinatorState::WaitVotes => 0,
            CoordinatorState::WaitAcks { commit } => 1 + commit as u8,
            CoordinatorState::Finished { commit } => 3 + commit as u8,
        });
        for &v in self.coord.votes() {
            k.push(vote_byte(v));
        }
        let mut pending = self.coord.acks_pending().to_vec();
        pending.sort_unstable();
        k.push(pending.len() as u8);
        k.extend(pending.iter().map(|&p| p as u8));
        k.push(
            self.told.map_or(0, |c| 1 + c as u8)
                | (self.forgotten as u8) << 2
                | (self.coord.ack_lost() as u8) << 3
                | (self.deferred.is_empty() as u8) << 4,
        );
        for i in 0..self.parts.len() {
            let p = &self.parts[i];
            k.push(
                (self.seen_vote[i] as u8)
                    | (self.seen_ack[i] as u8) << 1
                    | (self.dead_mark[i] as u8) << 2
                    | (p.alive as u8) << 3,
            );
            k.push(match p.m.state() {
                ParticipantState::Working => 0,
                ParticipantState::Prepared => 1,
                ParticipantState::Finished => 2,
            });
            k.push(match p.plog {
                PLog::None => 0,
                PLog::Prepared => 1,
                PLog::Committed => 2,
                PLog::Aborted => 3,
            });
            k.push(p.applied as u8);
        }
        k.push(self.forced_commit as u8);
        k.extend([
            self.part_crashes,
            self.coord_crashes,
            self.dups,
            self.drops,
            self.timeouts,
        ]);
        let mut msgs: Vec<[u8; 3]> = self
            .net
            .iter()
            .map(|m| match *m {
                Msg::Prepare { to } => [0, to as u8, 0],
                Msg::Decision { to, commit } => [1, to as u8, commit as u8],
                Msg::Vote { from, vote } => [2, from as u8, vote_byte(Some(vote))],
                Msg::Ack { from } => [3, from as u8, 0],
            })
            .collect();
        msgs.sort_unstable();
        k.push(msgs.len() as u8);
        for m in msgs {
            k.extend(m);
        }
        k
    }

    /// Invariants that must hold in *every* reachable state.
    fn check_every_state(&self) -> Result<(), (&'static str, String)> {
        let committed = self.parts.iter().position(|p| p.plog == PLog::Committed);
        let aborted = self.parts.iter().position(|p| p.plog == PLog::Aborted);
        if let Some(i) = committed {
            if !self.forced_commit {
                return Err((
                    "E1/no-commit-without-force",
                    format!("participant {i} committed but no decision record was forced"),
                ));
            }
            if let Some(j) = aborted {
                return Err((
                    "E2/no-mixed-outcome",
                    format!("participant {i} committed while participant {j} aborted"),
                ));
            }
        }
        if self.forced_commit {
            if let Some(j) = aborted {
                return Err((
                    "E3/no-abort-after-forced-commit",
                    format!("commit decision forced but participant {j} aborted"),
                ));
            }
        }
        if let Some(told) = self.told {
            let opposite = if told { aborted } else { committed };
            if let Some(i) = opposite {
                return Err((
                    "E5/told-outcome-is-final",
                    format!(
                        "caller told commit={told} but participant {i} logged {:?}",
                        self.parts[i].plog
                    ),
                ));
            }
        }
        for (i, p) in self.parts.iter().enumerate() {
            if p.applied != 0 && p.plog != PLog::Committed {
                return Err((
                    "E4/no-effects-without-commit-record",
                    format!(
                        "participant {i} applied effects with local log {:?}",
                        p.plog
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Final invariants at a quiescent state: resolve surviving in-doubt
    /// branches through the recovery rule, then check outcome agreement and
    /// audit-sum conservation.
    fn check_quiescent(
        &self,
        cfg: &McConfig,
        mutation: Option<Mutation>,
    ) -> Result<(), (&'static str, String)> {
        let global_commit = self.forced_commit;
        // What recovery can still read: a forced record the coordinator has
        // not dropped.
        let decisions: HashMap<Gtid, bool> = if self.forced_commit && !self.forgotten {
            HashMap::from([(GTID, true)])
        } else {
            HashMap::new()
        };
        let mut sum = 0u64;
        let mut in_doubt = 0usize;
        let n_writers = cfg
            .dispositions
            .iter()
            .filter(|d| **d == Disposition::Writer)
            .count() as u64;
        for (i, p) in self.parts.iter().enumerate() {
            let fin = if p.plog == PLog::Prepared {
                in_doubt += 1;
                let outcome = resolve_in_doubt(&decisions, GTID);
                let commits = if mutation == Some(Mutation::PresumeCommit) {
                    // Seeded bug: absence of evidence read as commit.
                    matches!(outcome, RecoveredOutcome::PresumedAbort) || outcome.commits()
                } else {
                    outcome.commits()
                };
                u64::from(commits)
            } else {
                p.applied
            };
            if global_commit && p.disp == Disposition::Writer && fin != 1 {
                return Err((
                    "Q1/commit-applies-everywhere",
                    format!("global commit but writer {i} ended with {fin} applied effects"),
                ));
            }
            if !global_commit && fin != 0 {
                return Err((
                    "Q1/abort-applies-nowhere",
                    format!("global abort but participant {i} ended with {fin} applied effects"),
                ));
            }
            // E5: the same, keyed on what the caller heard.
            match self.told {
                Some(true) if p.disp == Disposition::Writer && fin != 1 => {
                    return Err((
                        "E5/told-commit-applies-everywhere",
                        format!(
                            "caller told commit but writer {i} ended with {fin} applied effects"
                        ),
                    ));
                }
                Some(false) if fin != 0 => {
                    return Err((
                        "E5/told-abort-applies-nowhere",
                        format!(
                            "caller told abort but participant {i} ended with {fin} applied effects"
                        ),
                    ));
                }
                _ => {}
            }
            sum += fin;
        }
        let expected = if global_commit { n_writers } else { 0 };
        if sum != expected {
            return Err((
                "Q2/audit-sum-conservation",
                format!("audit sum {sum}, expected {expected}"),
            ));
        }
        if cfg.is_clean() {
            if in_doubt != 0 {
                return Err((
                    "Q3/zero-in-doubt-at-quiescence",
                    format!("{in_doubt} in-doubt branch(es) in a failure-free run"),
                ));
            }
            let expect_commit = cfg.dispositions.iter().all(|d| *d != Disposition::Refuser);
            match self.coord.state() {
                CoordinatorState::Finished { commit } if commit == expect_commit => {}
                s => {
                    return Err((
                        "Q3/coordinator-finishes-clean-runs",
                        format!("coordinator ended in {s:?}, expected Finished {{ commit: {expect_commit} }}"),
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

struct Checker<'a> {
    cfg: &'a McConfig,
    mutation: Option<Mutation>,
    visited: HashSet<Vec<u8>>,
    report: Report,
    trace: Vec<String>,
}

impl Checker<'_> {
    fn violation(&self, (invariant, detail): (&'static str, String)) -> Violation {
        Violation {
            invariant,
            detail,
            config: self.cfg.describe(),
            trace: self.trace.clone(),
        }
    }

    fn explore(&mut self, w: &World) -> Result<(), Box<Violation>> {
        if !self.visited.insert(w.encode()) {
            return Ok(());
        }
        self.report.states += 1;
        w.check_every_state()
            .map_err(|v| Box::new(self.violation(v)))?;
        if w.quiescent() {
            self.report.quiescent += 1;
            w.check_quiescent(self.cfg, self.mutation)
                .map_err(|v| Box::new(self.violation(v)))?;
        }
        for (desc, next) in w.successors(self.mutation) {
            self.trace.push(desc);
            self.explore(&next)?;
            self.trace.pop();
        }
        Ok(())
    }
}

/// Exhaustively check one configuration. `mutation` seeds a driver bug; the
/// real protocol is `None`.
pub fn check(cfg: &McConfig, mutation: Option<Mutation>) -> Result<Report, Box<Violation>> {
    let mut checker = Checker {
        cfg,
        mutation,
        visited: HashSet::new(),
        report: Report {
            configs: 1,
            ..Report::default()
        },
        trace: Vec::new(),
    };
    checker.explore(&World::new(cfg, mutation))?;
    Ok(checker.report)
}

/// Every disposition assignment for `n` participants (3^n combinations).
pub fn all_dispositions(n: usize) -> Vec<Vec<Disposition>> {
    let mut out = vec![Vec::new()];
    for _ in 0..n {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                Disposition::ALL.iter().map(move |&d| {
                    let mut v = prefix.clone();
                    v.push(d);
                    v
                })
            })
            .collect();
    }
    out
}

/// The fault-budget presets swept for each disposition assignment: clean,
/// one preset per fault class, and (optionally) all faults at once.
fn presets(dispositions: &[Disposition], kitchen_sink: bool) -> Vec<McConfig> {
    let base = McConfig::clean(dispositions.to_vec());
    let mut out = vec![
        base.clone(),
        McConfig {
            part_crashes: 1,
            coord_crashes: 1,
            ..base.clone()
        },
        McConfig {
            dups: 1,
            ..base.clone()
        },
        McConfig {
            drops: 1,
            ..base.clone()
        },
        McConfig {
            timeouts: 1,
            ..base.clone()
        },
    ];
    if kitchen_sink {
        out.push(McConfig {
            part_crashes: 1,
            coord_crashes: 1,
            dups: 1,
            drops: 1,
            timeouts: 1,
            ..base
        });
    }
    out
}

/// Sweep every disposition assignment and fault preset for 1..=`max_n`
/// participants. `kitchen_sink` adds the all-faults-at-once preset (the
/// largest state spaces).
pub fn sweep(
    max_n: usize,
    kitchen_sink: bool,
    mutation: Option<Mutation>,
) -> Result<Report, Box<Violation>> {
    let mut total = Report::default();
    for n in 1..=max_n {
        for dispositions in all_dispositions(n) {
            for cfg in presets(&dispositions, kitchen_sink) {
                total.absorb(check(&cfg, mutation)?);
            }
        }
    }
    Ok(total)
}

/// Run the mutation self-test: every seeded bug must produce a violation,
/// and the unmutated protocol must not. Returns each mutation's violation.
pub fn mutation_self_test(max_n: usize) -> Result<Vec<(Mutation, Violation)>, String> {
    let mut caught = Vec::new();
    for m in Mutation::ALL {
        match sweep(max_n, true, Some(m)) {
            Err(v) => caught.push((m, *v)),
            Ok(r) => {
                return Err(format!(
                    "mutation {} was NOT caught ({} states explored)",
                    m.name(),
                    r.states
                ))
            }
        }
    }
    Ok(caught)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_two_writers_commit_is_safe() {
        let cfg = McConfig::clean(vec![Disposition::Writer, Disposition::Writer]);
        let r = check(&cfg, None).expect("protocol must be safe");
        assert!(r.states > 10, "expected a nontrivial state space");
        assert!(r.quiescent >= 1);
    }

    #[test]
    fn clean_refuser_aborts_safely() {
        let cfg = McConfig::clean(vec![Disposition::Writer, Disposition::Refuser]);
        check(&cfg, None).expect("abort path must be safe");
    }

    #[test]
    fn two_participant_sweep_passes_all_invariants() {
        let r = sweep(2, true, None).expect("2PC must pass the bounded sweep");
        // 3 + 9 disposition sets × 6 presets each.
        assert_eq!(r.configs, 12 * 6);
        assert!(r.states > 1000, "sweep visited only {} states", r.states);
    }

    #[test]
    fn faulty_single_writer_survives_crash_and_timeout() {
        let cfg = McConfig {
            part_crashes: 1,
            coord_crashes: 1,
            timeouts: 1,
            ..McConfig::clean(vec![Disposition::Writer])
        };
        check(&cfg, None).expect("crash/timeout handling must be safe");
    }

    #[test]
    fn every_mutation_is_caught() {
        let caught = mutation_self_test(2).expect("all mutations must be caught");
        assert_eq!(caught.len(), Mutation::ALL.len());
        for (m, v) in &caught {
            assert!(
                !v.trace.is_empty() || v.invariant.starts_with('Q'),
                "mutation {} caught with an empty trace at a non-quiescent state",
                m.name()
            );
        }
    }

    #[test]
    fn dropped_decision_resolves_by_presumed_abort() {
        // Writer + Refuser with one drop: the abort decision to the writer
        // can vanish; the writer must end aborted via recovery.
        let cfg = McConfig {
            drops: 1,
            ..McConfig::clean(vec![Disposition::Writer, Disposition::Refuser])
        };
        check(&cfg, None).expect("drop handling must be safe");
    }

    #[test]
    fn all_dispositions_counts() {
        assert_eq!(all_dispositions(1).len(), 3);
        assert_eq!(all_dispositions(2).len(), 9);
        assert_eq!(all_dispositions(3).len(), 27);
    }
}
