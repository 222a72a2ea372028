//! The coordinator half of a deployment: the one router
//! ([`Coordination::submit`]) and the one 2PC driver ([`drive_2pc`]), which
//! runs the pure [`islands_dtxn::Coordinator`] machine over a [`TwoPcLink`].
//! Three things implement that link: [`DeployClient`](crate::DeployClient)'s
//! sockets in a spawned deployment, [`ClusterClient`](crate::ClusterClient)'s
//! direct calls in the in-process cluster, and a scripted mock in the tests
//! below. Here too is the one way a lost decision still reaches a
//! participant: the resolver pass ([`settle`]), which asks the
//! coordinator's [`DecisionLog`] for its verdict on each ownerless branch —
//! over the [`Resolver`] socket from a spawned instance, by direct call in
//! the in-process cluster.
//!
//! A round answers its caller when the decision frames are written. The
//! `Ack`s they will bring are a debt each link carries ([`AckDebt`]) and the
//! next exchange on that link settles: its frame goes out first, then the
//! owed acks are read in order, then its own reply.
//!
//! A link that dies does not revoke a Yes vote. The participant's session
//! closes and the branch stays parked, ownerless, holding its rows; the
//! coordinator does not resend. The branch leaves only by the verdict,
//! which a participant cannot get before the round that owns the gtid is
//! decided: each coordinator publishes its round in flight in its
//! [`Round`] slot. That is 2PC's blocking: a coordinator that dies holds
//! its participants' rows until it, or its decision log, answers again.

use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use islands_core::native::{DecideOutcome, PartitionEngine};
use islands_core::partition::{split_plan_by_owner, Sites};
use islands_dtxn::{Action, Coordinator, CoordinatorState, DecisionLog, Round, Vote};
use islands_workload::{PlanBranch, PlanRequest};

use crate::deploy::{DeployOutcome, DeployReply};
use crate::server::{serve, session_loop, Endpoint, ServerHandle, SessionFn};
use crate::wire::{Reply, Request};

/// The coordinator-side resolver: a socket answering
/// [`Request::ResolveGtid`] frames with the decision log's verdict, so a
/// spawned instance can settle its ownerless branches — those its WAL
/// replay parked and those whose coordinator's link died. It is served by
/// the acceptor and session loop every instance server runs, with
/// [`resolve`] where an instance has its engine; connections are rare (an
/// instance dials it only while it has ownerless branches). Dropping it
/// drains it.
pub(crate) struct Resolver {
    pub(crate) endpoint: Endpoint,
    server: Option<ServerHandle>,
}

impl Resolver {
    pub(crate) fn spawn(socket: PathBuf, log: Arc<DecisionLog>) -> io::Result<Resolver> {
        let session: Arc<SessionFn> = Arc::new(move |conn, shutdown, metrics| {
            session_loop(conn, shutdown, metrics, |req| resolve(&log, req))
        });
        let server = serve(&Endpoint::Uds(socket), Arc::default(), None, session)?;
        Ok(Resolver {
            endpoint: server.endpoint().clone(),
            server: Some(server),
        })
    }
}

impl Drop for Resolver {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.initiate_shutdown();
            let _ = server.join();
        }
    }
}

/// The resolver's answer to one frame: a verdict for `ResolveGtid`, `Pong`
/// for `Ping`, an error for anything else — it is not an instance server,
/// and a stray `Drain` does not stop it.
fn resolve(log: &DecisionLog, req: &Request) -> Reply {
    match req {
        Request::ResolveGtid { gtid } => Reply::Resolved {
            gtid: *gtid,
            commit: log.verdict(*gtid),
        },
        Request::Ping => Reply::Pong,
        other => Reply::Error {
            message: format!("resolver answers only ResolveGtid, got {other:?}"),
        },
    }
}

/// One resolver pass over `engine`: ask `verdict` about each ownerless
/// branch and apply every final answer. Returns how many branches stay
/// ownerless because the coordinator has no answer yet; an error ends the
/// pass early and leaves the rest for the next one.
pub(crate) fn settle(
    engine: &PartitionEngine,
    mut verdict: impl FnMut(u64) -> io::Result<Option<bool>>,
) -> io::Result<usize> {
    let mut undecided = 0;
    for gtid in engine.ownerless_gtids().map_err(io::Error::other)? {
        let Some(commit) = verdict(gtid)? else {
            undecided += 1;
            continue;
        };
        match engine.decide(gtid, commit) {
            // A commit that finds nothing: another pass settled the branch
            // since it was listed.
            Ok(
                DecideOutcome::Applied | DecideOutcome::AbortNoop | DecideOutcome::UnknownCommit,
            ) => {}
            Ok(DecideOutcome::Failed(m)) => {
                return Err(io::Error::other(format!("settling gtid {gtid}: {m}")))
            }
            Err(e) => return Err(io::Error::other(format!("settling gtid {gtid}: {e}"))),
        }
    }
    Ok(undecided)
}

pub(crate) enum TwoPc {
    Commit,
    Abort,
    PresumedAbort,
    Error(String),
}

/// The acks a coordinator has been promised and not yet read.
///
/// Each link remembers, oldest first, the gtids whose `Ack` it owes; each
/// decided round stays here as its [`Coordinator`] until its last ack is in
/// or lost, because that machine is what knows whether the decision record
/// may be forgotten.
pub(crate) struct AckDebt {
    owed: Vec<VecDeque<u64>>,
    rounds: Vec<Coordinator>,
}

impl AckDebt {
    pub(crate) fn new(links: usize) -> AckDebt {
        AckDebt {
            owed: vec![VecDeque::new(); links],
            rounds: Vec::new(),
        }
    }

    /// The gtid whose ack `from`'s link owes next.
    fn next_owed(&self, from: usize) -> Option<u64> {
        self.owed[from].front().copied()
    }

    /// A decision for `gtid` was written to `to`.
    fn owe(&mut self, to: usize, gtid: u64) {
        self.owed[to].push_back(gtid);
    }

    /// The round was answered with acks still owed: keep its machine.
    fn defer(&mut self, coord: Coordinator) {
        if matches!(coord.state(), CoordinatorState::WaitAcks { .. }) {
            self.rounds.push(coord);
        }
    }

    /// Feed one event to `gtid`'s round and retire it once nothing is owed.
    fn feed(&mut self, gtid: u64, event: impl FnOnce(&mut Coordinator) -> Vec<Action>) -> bool {
        let Some(at) = self.rounds.iter().position(|c| c.gtid() == gtid) else {
            return false;
        };
        let forget = event(&mut self.rounds[at]).contains(&Action::Forget { gtid });
        if matches!(self.rounds[at].state(), CoordinatorState::Finished { .. }) {
            self.rounds.swap_remove(at);
        }
        forget
    }

    /// `from` delivered the ack it owed next. Returns the gtid when that
    /// was the last ack of a commit every participant acknowledged.
    fn acked(&mut self, from: usize) -> Option<u64> {
        let gtid = self.owed[from].pop_front()?;
        self.feed(gtid, |c| c.on_ack(from)).then_some(gtid)
    }

    /// `to`'s link is gone and what it owed will never be read.
    fn lost(&mut self, to: usize) {
        for gtid in std::mem::take(&mut self.owed[to]) {
            self.feed(gtid, |c| c.on_participant_failure(to));
        }
    }
}

/// The transport seam the router and the 2PC driver run against: one link
/// per instance, frames out, replies back in order. The live implementations
/// are [`DeployClient`](crate::DeployClient)'s per-instance connections and
/// [`ClusterClient`](crate::ClusterClient)'s per-instance sessions; tests
/// substitute a scripted mock to pin driver invariants that need injected
/// failures (an ack left unread desynchronizes the connection for whatever
/// is read from it next).
pub(crate) trait TwoPcLink {
    /// Ship one frame to participant `to`, arming whatever deadline its
    /// reply deserves.
    fn send(&mut self, to: usize, frame: &Request) -> io::Result<()>;
    /// Read the next reply frame from `from`, owed ack or not, under the
    /// deadline armed when the frame it answers was sent.
    fn recv_frame(&mut self, from: usize) -> io::Result<Reply>;
    /// Drop `to`'s connection.
    fn disconnect(&mut self, to: usize);
    /// Force a commit decision record for `gtid` to the coordinator log.
    fn force_commit(&mut self, gtid: u64);
    /// Every participant has acknowledged `gtid`'s commit decision.
    fn forget(&mut self, gtid: u64);
    /// The acks these links still owe.
    fn debt(&mut self) -> &mut AckDebt;
    /// This coordinator's slot for its round in flight.
    fn round(&self) -> &Round;

    /// Poison `to`'s connection (unreachable or desynchronized); the acks it
    /// owed stay unread, so their decision records are never forgotten.
    fn mark_dead(&mut self, to: usize) {
        self.debt().lost(to);
        self.disconnect(to);
    }

    /// Read every ack `from` owes, in the order its decisions were sent.
    /// Anything else in that position means the stream is desynchronized;
    /// the caller poisons the link as for any failed read.
    fn settle(&mut self, from: usize) -> io::Result<()> {
        while let Some(gtid) = self.debt().next_owed(from) {
            match self.recv_frame(from)? {
                Reply::Ack { gtid: g } if g == gtid => {
                    if let Some(done) = self.debt().acked(from) {
                        self.forget(done);
                    }
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("participant {from} owed Ack({gtid}), sent {other:?}"),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Read `from`'s reply to the frame just sent: the acks it owes come
    /// first on the wire, so they are settled first.
    fn recv(&mut self, from: usize) -> io::Result<Reply> {
        self.settle(from)?;
        self.recv_frame(from)
    }

    /// One exchange on link `to`: `frame` out, owed acks in, its reply in.
    /// Any failure poisons the link (a timed-out or misplaced reply would
    /// desynchronize the stream).
    fn exchange(&mut self, to: usize, frame: &Request) -> io::Result<Reply> {
        let reply = self.send(to, frame).and_then(|()| self.recv(to));
        if reply.is_err() {
            self.mark_dead(to);
        }
        reply
    }

    /// Read the acks every one of the `links` still owes, so that whoever
    /// talks to the participants next finds every decision this
    /// coordinator's callers were told about applied. A link that cannot
    /// pay is dropped like any other.
    fn settle_all(&mut self, links: usize) {
        for i in 0..links {
            if self.settle(i).is_err() {
                self.mark_dead(i);
            }
        }
    }
}

/// What the coordinators of one deployment share, whatever carries their
/// frames: the routing rule, the gtid sequence, the decision log, and the
/// count of aborts presumed after a participant failure.
pub(crate) struct Coordination {
    /// One site per instance: a site *is* its owner here.
    pub(crate) sites: Sites,
    next_gtid: AtomicU64,
    /// Rounds aborted because a participant was unreachable or timed out
    /// before the decision.
    pub(crate) presumed_aborts: AtomicU64,
    /// The one home of the verdicts: forced commit records (a volatile log
    /// keeps each until every ack is in), and every coordinator's round in
    /// flight.
    pub(crate) decisions: Arc<DecisionLog>,
}

impl Coordination {
    /// Gtids start above every one `decisions` holds: a reopened log still
    /// answers for its records, so reusing one of their gtids would hand a
    /// new round an old run's verdict.
    pub(crate) fn new(sites: Sites, decisions: Arc<DecisionLog>) -> Coordination {
        Coordination {
            sites,
            next_gtid: AtomicU64::new(decisions.last_gtid() + 1),
            presumed_aborts: AtomicU64::new(0),
            decisions,
        }
    }

    /// Force a commit record. Fail-stop on a log write error: acting on an
    /// unforced commit would let a coordinator crash contradict it, which is
    /// the one thing presumed abort must never allow.
    pub(crate) fn force_commit(&self, gtid: u64) {
        if let Err(e) = self.decisions.force(gtid, true) {
            panic!("coordinator decision log write failed: {e}");
        }
    }

    /// Route one plan over `link`: if every step lives on one instance it
    /// goes straight to the owner as a `SubmitPlan` frame; a plan spanning
    /// instances (a multisite micro batch, a remote-warehouse Payment) runs
    /// 2PC rounds with the caller as coordinator, re-attempting a round the
    /// votes aborted up to `retry_limit` times.
    pub(crate) fn submit<L: TwoPcLink>(
        &self,
        link: &mut L,
        plan: &PlanRequest,
        retry_limit: u32,
    ) -> io::Result<DeployReply> {
        let (order, branches) = split_plan_by_owner(plan, |t, k| self.sites.site_of(t, k));
        if order.len() <= 1 {
            let target = order.first().copied().unwrap_or(0);
            return submit_single(link, target, plan);
        }

        let mut retries = 0u32;
        loop {
            // One round: a fresh gtid, published as undecided before its
            // first frame leaves, one `PreparePlan` frame per participant
            // carrying its step list.
            let gtid = self.next_gtid.fetch_add(1, Ordering::Relaxed);
            link.round().open(gtid);
            let round = drive_2pc(link, gtid, &order, |gtid, to| {
                Request::PreparePlan(PlanBranch {
                    gtid,
                    plan: branches[&to].clone(),
                })
            });
            link.round().close();
            match round? {
                TwoPc::Commit => return outcome(true, true, retries, false),
                TwoPc::Abort if retries >= retry_limit => {
                    return outcome(false, true, retries, false)
                }
                TwoPc::Abort => {
                    retries += 1;
                    std::thread::yield_now();
                }
                TwoPc::PresumedAbort => {
                    self.presumed_aborts.fetch_add(1, Ordering::Relaxed);
                    return outcome(false, true, retries, true);
                }
                TwoPc::Error(message) => return Ok(DeployReply::ServerError(message)),
            }
        }
    }
}

fn outcome(
    committed: bool,
    distributed: bool,
    retries: u32,
    presumed_abort: bool,
) -> io::Result<DeployReply> {
    Ok(DeployReply::Outcome(DeployOutcome {
        committed,
        distributed,
        retries,
        presumed_abort,
    }))
}

/// Hand a single-owner plan to its owner and map what comes back.
fn submit_single<L: TwoPcLink>(
    link: &mut L,
    target: usize,
    plan: &PlanRequest,
) -> io::Result<DeployReply> {
    match link.exchange(target, &Request::SubmitPlan(plan.clone())) {
        Ok(Reply::Committed {
            distributed,
            retries,
            ..
        }) => outcome(true, distributed, retries, false),
        Ok(Reply::Aborted { retries }) => outcome(false, false, retries, false),
        Ok(Reply::Error { message }) => Ok(DeployReply::ServerError(message)),
        Ok(other) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply to submit_plan: {other:?}"),
        )),
        Err(_) => Ok(DeployReply::InstanceDown(target)),
    }
}

/// Carry out coordinator actions in FIFO order (`ForceCommitDecision` must
/// hit the log before any decision message leaves). Every decision written
/// puts its ack on that link's debt; returns how many were.
fn process_actions<L: TwoPcLink>(
    link: &mut L,
    coord: &mut Coordinator,
    actions: Vec<Action>,
    outcome: &mut Option<bool>,
) -> usize {
    let gtid = coord.gtid();
    let mut written = 0;
    let mut queue: VecDeque<Action> = actions.into();
    while let Some(action) = queue.pop_front() {
        match action {
            Action::SendPrepare { .. } => unreachable!("prepares already sent"),
            Action::ForceCommitDecision { gtid } => link.force_commit(gtid),
            Action::SendDecision { to, commit } => {
                let frame = Request::Decision { gtid, commit };
                match link.send(to, &frame) {
                    Ok(()) => {
                        link.debt().owe(to, gtid);
                        written += 1;
                    }
                    Err(_) => {
                        link.mark_dead(to);
                        queue.extend(coord.on_participant_failure(to));
                    }
                }
            }
            Action::Finish { commit } => *outcome = Some(commit),
            Action::Forget { .. } => unreachable!("acks are fed to a deferred round only"),
        }
    }
    written
}

/// One round of 2PC over `link`: prepare fan-out, vote collection, decision
/// fan-out, with participant failures reported to the [`Coordinator`] state
/// machine as they surface. It returns as soon as the decisions are written
/// — the outcome was fixed when the decision was made (and forced, for a
/// commit) — and leaves their acks on the links' debt. `prepare_frame`
/// builds participant `to`'s phase-1 frame (a [`Request::PreparePlan`] from
/// the live client).
pub(crate) fn drive_2pc<L: TwoPcLink, F: Fn(u64, usize) -> Request>(
    link: &mut L,
    gtid: u64,
    parts: &[usize],
    prepare_frame: F,
) -> io::Result<TwoPc> {
    let (mut coord, prepares) = Coordinator::new(gtid, parts.to_vec());

    // Phase 1 fan-out, exactly as the state machine instructs. The phase
    // timers feed the *coordinator side's* registry (the thread's current
    // one, outside any instance's scope): where the instance
    // side records handler durations, this side records what the paper's
    // multisite client actually waits — prepare fan-out to last vote (wire
    // time and any acks owed from earlier rounds included), then the
    // decision force and fan-out.
    let prepare_started = Instant::now();
    let mut sent: Vec<usize> = Vec::new();
    let mut unreachable: Vec<usize> = Vec::new();
    for action in prepares {
        let Action::SendPrepare { to } = action else {
            unreachable!("prepare fan-out yields only SendPrepare");
        };
        if unreachable.is_empty() {
            let frame = prepare_frame(gtid, to);
            match link.send(to, &frame) {
                Ok(()) => {
                    sent.push(to);
                    continue;
                }
                Err(_) => link.mark_dead(to),
            }
        }
        // After the first unreachable participant the transaction is
        // doomed; don't spend prepares on the rest.
        unreachable.push(to);
    }

    // Collect votes from everyone actually prepared; each link settles what
    // it owed from earlier rounds on the way to its vote.
    let mut votes: Vec<(usize, Vote)> = Vec::new();
    let mut failed: Vec<usize> = unreachable;
    let mut server_error: Option<String> = None;
    for &p in &sent {
        match link.recv(p) {
            Ok(Reply::Vote { gtid: g, vote }) if g == gtid => votes.push((p, vote)),
            Ok(Reply::Error { message }) => {
                // Misrouted/malformed branch: the participant rolled
                // nothing back and holds nothing; treat as a No vote and
                // surface the message.
                server_error.get_or_insert(message);
                votes.push((p, Vote::No));
            }
            Ok(_) | Err(_) => {
                link.mark_dead(p);
                failed.push(p);
            }
        }
    }

    if !sent.is_empty() {
        islands_obs::with(|m| m.record_prepare(prepare_started.elapsed().as_nanos() as u64));
    }

    // Drive the state machine: votes first, then failures; carry out every
    // action it emits.
    let decision_started = Instant::now();
    let mut written = 0;
    let mut outcome: Option<bool> = None;
    for (p, vote) in votes {
        let actions = coord.on_vote(p, vote);
        written += process_actions(link, &mut coord, actions, &mut outcome);
    }
    let any_failure = !failed.is_empty();
    for p in failed {
        let actions = coord.on_participant_failure(p);
        written += process_actions(link, &mut coord, actions, &mut outcome);
    }
    if written > 0 {
        islands_obs::with(|m| m.record_decision(decision_started.elapsed().as_nanos() as u64));
    }
    link.debt().defer(coord);

    match outcome {
        // A forced commit is a commit whatever becomes of its frames and
        // acks: the record is what counts. A participant whose link died
        // before its frame went out keeps the branch parked and gets the
        // commit from the resolver pass.
        Some(true) => Ok(TwoPc::Commit),
        Some(false) => {
            if let Some(message) = server_error {
                Ok(TwoPc::Error(message))
            } else if any_failure {
                Ok(TwoPc::PresumedAbort)
            } else {
                Ok(TwoPc::Abort)
            }
        }
        None => Err(io::Error::other("2PC finished without an outcome")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_workload::{OpKind, PlanBranch, PlanRequest, TxnRequest};
    use std::collections::HashMap;

    /// Scripted [`TwoPcLink`]: per-participant reply queues plus a full log
    /// of sends/recvs over a volatile [`DecisionLog`], for driving
    /// [`drive_2pc`] and the ack debt through failure interleavings a live
    /// deployment cannot produce on demand.
    struct ScriptedLink {
        replies: Vec<VecDeque<io::Result<Reply>>>,
        sent: Vec<Vec<Request>>,
        recvs: Vec<usize>,
        dead: Vec<bool>,
        forced: Vec<u64>,
        forgotten: Vec<u64>,
        /// The log's verdict on the frame's gtid as each 2PC frame left.
        asked: Vec<Option<bool>>,
        log: DecisionLog,
        round: Round,
        debt: AckDebt,
    }

    impl ScriptedLink {
        fn new(participants: usize) -> Self {
            let log = DecisionLog::volatile();
            ScriptedLink {
                replies: (0..participants).map(|_| Default::default()).collect(),
                sent: vec![Vec::new(); participants],
                recvs: vec![0; participants],
                dead: vec![false; participants],
                forced: Vec::new(),
                forgotten: Vec::new(),
                asked: Vec::new(),
                round: log.round(),
                log,
                debt: AckDebt::new(participants),
            }
        }

        fn script(&mut self, from: usize, reply: Reply) {
            self.replies[from].push_back(Ok(reply));
        }

        fn script_timeout(&mut self, from: usize) {
            self.replies[from].push_back(Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "scripted timeout",
            )));
        }

        fn owed(&self, from: usize) -> Vec<u64> {
            self.debt.owed[from].iter().copied().collect()
        }
    }

    impl TwoPcLink for ScriptedLink {
        fn send(&mut self, to: usize, frame: &Request) -> io::Result<()> {
            if self.dead[to] {
                return Err(io::Error::new(io::ErrorKind::NotConnected, "dead"));
            }
            let gtid = match frame {
                Request::PreparePlan(b) => Some(b.gtid),
                Request::Decision { gtid, .. } => Some(*gtid),
                _ => None,
            };
            self.asked.extend(gtid.map(|g| self.log.verdict(g)));
            self.sent[to].push(frame.clone());
            Ok(())
        }

        fn recv_frame(&mut self, from: usize) -> io::Result<Reply> {
            if self.dead[from] {
                return Err(io::Error::new(io::ErrorKind::NotConnected, "dead"));
            }
            self.recvs[from] += 1;
            self.replies[from].pop_front().unwrap_or_else(|| {
                panic!("recv from {from} with nothing scripted");
            })
        }

        fn disconnect(&mut self, to: usize) {
            self.dead[to] = true;
        }

        fn force_commit(&mut self, gtid: u64) {
            self.forced.push(gtid);
            self.log.force(gtid, true).unwrap();
        }

        fn forget(&mut self, gtid: u64) {
            self.forgotten.push(gtid);
            self.log.forget(gtid);
        }

        fn debt(&mut self) -> &mut AckDebt {
            &mut self.debt
        }

        fn round(&self) -> &Round {
            &self.round
        }
    }

    /// Phase-1 frame for participant `to`: a one-step plan branch.
    fn prepare_frame(gtid: u64, to: usize) -> Request {
        let req = TxnRequest {
            kind: OpKind::Update,
            keys: vec![to as u64],
            multisite: true,
        };
        Request::PreparePlan(PlanBranch {
            gtid,
            plan: req.to_plan(),
        })
    }

    fn vote(gtid: u64, vote: Vote) -> Reply {
        Reply::Vote { gtid, vote }
    }

    #[test]
    fn scripted_plan_2pc_sends_prepare_plan_frames_and_commits() {
        use islands_workload::plan::{PlanClass, PlanStep, StepOp};
        let gtid = 23;
        let parts = [0usize, 1];
        let branches: HashMap<usize, PlanRequest> = parts
            .iter()
            .map(|&p| {
                (
                    p,
                    PlanRequest {
                        class: PlanClass::Payment,
                        multisite: true,
                        steps: vec![PlanStep::point(
                            islands_workload::plan::TPCC_WAREHOUSE,
                            p as u64,
                            StepOp::Update,
                        )],
                    },
                )
            })
            .collect();
        let mut link = ScriptedLink::new(2);
        for p in parts {
            link.script(p, vote(gtid, Vote::Yes));
        }
        let out = drive_2pc(&mut link, gtid, &parts, |gtid, to| {
            Request::PreparePlan(PlanBranch {
                gtid,
                plan: branches[&to].clone(),
            })
        })
        .unwrap();
        assert!(matches!(out, TwoPc::Commit));
        assert_eq!(link.forced, vec![gtid]);
        for p in parts {
            assert!(
                matches!(&link.sent[p][0], Request::PreparePlan(b) if b.gtid == gtid),
                "phase 1 to {p} must be a PreparePlan frame"
            );
            assert_eq!(
                link.sent[p][1],
                Request::Decision { gtid, commit: true },
                "phase 2 is the shared Decision frame"
            );
        }
    }

    #[test]
    fn commit_returns_at_decision_and_the_next_round_reads_ack_then_vote() {
        let (g1, g2) = (11, 12);
        let parts = [0usize, 1, 2];
        let mut link = ScriptedLink::new(3);
        for p in parts {
            link.script(p, vote(g1, Vote::Yes));
        }
        let out = drive_2pc(&mut link, g1, &parts, prepare_frame).unwrap();
        assert!(matches!(out, TwoPc::Commit));
        assert_eq!(link.forced, vec![g1], "commit decision must be forced");
        for p in parts {
            assert_eq!(link.recvs[p], 1, "only the vote was read from {p}");
            assert_eq!(link.sent[p].len(), 2, "prepare + decision sent to {p}");
            assert_eq!(link.owed(p), vec![g1], "{p} owes the ack");
            assert!(!link.dead[p]);
        }
        assert!(
            link.forgotten.is_empty(),
            "nothing acked, nothing forgotten"
        );
        assert_eq!(link.log.len(), 1);

        // The next round's frames go out first; each link then pays Ack(g1)
        // ahead of its Vote(g2) — the order the participant answered in.
        for p in parts {
            link.script(p, Reply::Ack { gtid: g1 });
            link.script(p, vote(g2, Vote::Yes));
        }
        let out = drive_2pc(&mut link, g2, &parts, prepare_frame).unwrap();
        assert!(matches!(out, TwoPc::Commit));
        for p in parts {
            assert_eq!(link.recvs[p], 3, "vote, then ack + vote, from {p}");
            assert!(
                matches!(&link.sent[p][2], Request::PreparePlan(b) if b.gtid == g2),
                "{p}'s next prepare was written before its ack was read"
            );
            assert_eq!(link.owed(p), vec![g2]);
        }
        assert_eq!(
            link.forgotten,
            vec![g1],
            "the last ack released g1's record"
        );
        assert_eq!(link.log.len(), 1, "only g2 is still needed");
        assert_eq!(link.log.forced(), 2);
    }

    #[test]
    fn late_yes_abort_decisions_join_the_same_debt() {
        // Votes are in-order replies on per-participant links, so 0's No
        // decides the abort while 1's and 2's Yes are already on the wire:
        // each late Yes earns its own abort decision, and those acks are
        // owed exactly like a commit's.
        let (g1, g2) = (7, 8);
        let parts = [0usize, 1, 2];
        let mut link = ScriptedLink::new(3);
        link.script(0, vote(g1, Vote::No));
        link.script(1, vote(g1, Vote::Yes));
        link.script(2, vote(g1, Vote::Yes));
        let out = drive_2pc(&mut link, g1, &parts, prepare_frame).unwrap();
        assert!(matches!(out, TwoPc::Abort));
        assert!(link.forced.is_empty(), "aborts force nothing");
        assert!(link.owed(0).is_empty(), "a No voter is owed no decision");
        for p in [1, 2] {
            assert_eq!(
                link.sent[p].last(),
                Some(&Request::Decision {
                    gtid: g1,
                    commit: false
                })
            );
            assert_eq!(link.recvs[p], 1, "its ack was not waited for");
            assert_eq!(link.owed(p), vec![g1]);
        }

        // The retry settles them on the way to its votes.
        link.script(0, vote(g2, Vote::Yes));
        for p in [1, 2] {
            link.script(p, Reply::Ack { gtid: g1 });
            link.script(p, vote(g2, Vote::Yes));
        }
        let out = drive_2pc(&mut link, g2, &parts, prepare_frame).unwrap();
        assert!(matches!(out, TwoPc::Commit));
        assert_eq!(link.recvs, vec![2, 3, 3]);
        assert!(link.dead.iter().all(|d| !d));
        assert!(
            link.forgotten.is_empty(),
            "an abort has no record to forget"
        );
    }

    #[test]
    fn vote_timeout_presumes_abort_and_the_survivors_ack_is_owed() {
        let gtid = 13;
        let parts = [0usize, 1];
        let mut link = ScriptedLink::new(2);
        link.script(0, vote(gtid, Vote::Yes));
        link.script_timeout(1);
        let out = drive_2pc(&mut link, gtid, &parts, prepare_frame).unwrap();
        assert!(matches!(out, TwoPc::PresumedAbort));
        assert!(link.forced.is_empty(), "presumed abort forces nothing");
        assert_eq!(
            link.sent[0].last(),
            Some(&Request::Decision {
                gtid,
                commit: false
            }),
            "survivor must receive the abort decision"
        );
        assert_eq!(link.owed(0), vec![gtid], "and owes its ack");
        assert!(link.dead[1]);
    }

    #[test]
    fn an_abort_whose_ack_is_lost_is_a_plain_abort_and_the_retry_finds_out() {
        let (g1, g2) = (31, 32);
        let parts = [0usize, 1];
        let mut link = ScriptedLink::new(2);
        link.script(0, vote(g1, Vote::Yes));
        link.script(1, vote(g1, Vote::No));
        let out = drive_2pc(&mut link, g1, &parts, prepare_frame).unwrap();
        assert!(
            matches!(out, TwoPc::Abort),
            "decided by votes: retryable, whatever becomes of 0's ack"
        );

        // The ack never comes. The retry's prepare still goes out; settling
        // on the way to 0's vote hits the timeout, which poisons the link
        // and costs 0 its vote in this round.
        link.script_timeout(0);
        link.script(1, vote(g2, Vote::Yes));
        let out = drive_2pc(&mut link, g2, &parts, prepare_frame).unwrap();
        assert!(matches!(out, TwoPc::PresumedAbort));
        assert!(link.dead[0]);
        assert!(link.owed(0).is_empty(), "the debt died with the link");
        assert_eq!(
            link.sent[1].last(),
            Some(&Request::Decision {
                gtid: g2,
                commit: false
            })
        );
        assert_eq!(link.owed(1), vec![g2]);
    }

    #[test]
    fn a_link_owing_several_acks_pays_them_in_order() {
        // Three abort rounds whose only Yes voter was 0, none settled yet.
        let owe_three = |link: &mut ScriptedLink| {
            for gtid in [3, 4, 5] {
                let (mut coord, _) = Coordinator::new(gtid, vec![0, 1]);
                coord.on_vote(0, Vote::Yes);
                coord.on_vote(1, Vote::No);
                link.debt().owe(0, gtid);
                link.debt().defer(coord);
            }
        };

        let mut link = ScriptedLink::new(2);
        owe_three(&mut link);
        for gtid in [3, 4, 5] {
            link.script(0, Reply::Ack { gtid });
        }
        link.script(0, Reply::Pong);
        assert_eq!(link.recv(0).unwrap(), Reply::Pong);
        assert_eq!(link.recvs[0], 4, "three acks, then the reply asked for");
        assert!(link.owed(0).is_empty());
        assert!(link.debt.rounds.is_empty(), "settled rounds are retired");

        // Out of order is a desynchronized stream, not a reordering.
        let mut link = ScriptedLink::new(2);
        owe_three(&mut link);
        link.script(0, Reply::Ack { gtid: 4 });
        let err = link.recv(0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_wrong_reply_in_the_debt_poisons_the_link_and_fails_the_participant() {
        let (g1, g2) = (41, 42);
        let parts = [0usize, 1];
        for wrong in [
            Reply::Ack { gtid: 999 },
            Reply::Error {
                message: "scripted".into(),
            },
        ] {
            let mut link = ScriptedLink::new(2);
            for p in parts {
                link.script(p, vote(g1, Vote::Yes));
            }
            let out = drive_2pc(&mut link, g1, &parts, prepare_frame).unwrap();
            assert!(matches!(out, TwoPc::Commit));

            link.script(0, wrong.clone());
            link.script(1, Reply::Ack { gtid: g1 });
            link.script(1, vote(g2, Vote::Yes));
            let out = drive_2pc(&mut link, g2, &parts, prepare_frame).unwrap();
            assert!(
                matches!(out, TwoPc::PresumedAbort),
                "{wrong:?} where Ack({g1}) was owed fails participant 0"
            );
            assert!(link.dead[0] && !link.dead[1]);
            assert_eq!(link.recvs[0], 2, "nothing is read past the bad frame");
            // g1 stays committed and stays remembered: 0 never acknowledged
            // it, so it may yet ask.
            assert_eq!(link.forced, vec![g1]);
            assert!(link.forgotten.is_empty());
            assert_eq!(link.log.len(), 1);
        }
    }

    #[test]
    fn ten_thousand_commit_rounds_leave_nothing_remembered() {
        // The settled ack is the permission to forget: the volatile map used
        // to gain one entry per committed 2PC and lose none.
        let parts = [0usize, 1];
        let mut link = ScriptedLink::new(2);
        for gtid in 1..=10_000u64 {
            for p in parts {
                if gtid > 1 {
                    link.script(p, Reply::Ack { gtid: gtid - 1 });
                }
                link.script(p, vote(gtid, Vote::Yes));
            }
            let out = drive_2pc(&mut link, gtid, &parts, prepare_frame).unwrap();
            assert!(matches!(out, TwoPc::Commit));
            assert_eq!(link.log.len(), 1, "round {gtid}");
            for p in parts {
                link.sent[p].clear();
            }
        }
        for p in parts {
            link.script(p, Reply::Ack { gtid: 10_000 });
            link.settle(p).unwrap();
        }
        assert_eq!(link.log.len(), 0);
        assert_eq!(link.log.forced(), 10_000);
        assert!(link.debt.rounds.is_empty());
    }

    #[test]
    fn a_round_is_undecided_from_its_first_prepare_until_its_decision() {
        // The resolver must not answer "abort" while the round can still
        // commit: its gtid is in the round slot before the first prepare
        // leaves, and leaves the slot only once the commit is forced.
        let (g1, g2) = (61, 62);
        let sites = Sites::Range(islands_core::partition::RangeSites {
            total_rows: 100,
            n_sites: 2,
        });
        let coord = Coordination::new(sites, Arc::new(DecisionLog::volatile()));
        coord.next_gtid.store(g1, Ordering::Relaxed);
        let plan = |keys: [u64; 2]| {
            TxnRequest {
                kind: OpKind::Update,
                keys: keys.to_vec(),
                multisite: true,
            }
            .to_plan()
        };
        let mut link = ScriptedLink::new(2);
        for p in [0, 1] {
            link.script(p, vote(g1, Vote::Yes));
        }
        let reply = coord.submit(&mut link, &plan([10, 60]), 0).unwrap();
        assert!(matches!(reply, DeployReply::Outcome(o) if o.committed));
        // At each prepare no answer yet; at each decision the record.
        assert_eq!(link.asked, [None, None, Some(true), Some(true)]);
        assert_eq!(link.log.verdict(g1), Some(true));

        // An abort has no record: no answer until the round is over.
        link.asked.clear();
        for p in [0, 1] {
            link.script(p, Reply::Ack { gtid: g1 });
        }
        link.script(0, vote(g2, Vote::Yes));
        link.script(1, vote(g2, Vote::No));
        let reply = coord.submit(&mut link, &plan([11, 61]), 0).unwrap();
        assert!(matches!(reply, DeployReply::Outcome(o) if !o.committed));
        assert_eq!(link.asked, [None, None, None], "prepares, abort to 0");
        assert_eq!(link.log.verdict(g2), Some(false));
    }

    #[test]
    fn a_reopened_decision_log_resumes_verdicts() {
        let dir = std::env::temp_dir().join(format!(
            "islands-decision-log-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coordinator.decisions");

        let log = DecisionLog::open(&path).unwrap();
        log.force(7, true).unwrap();
        log.force(8, false).unwrap();
        // A durable log answers from its file for as long as the file holds
        // the record: acknowledged everywhere or not, 7 stays.
        log.forget(7);
        assert_eq!(log.verdict(7), Some(true));
        drop(log);

        // A second coordinator life over the same file keeps answering for
        // decisions from the first, and presumes abort for gtids nobody
        // ever decided.
        let reopened = DecisionLog::open(&path).unwrap();
        assert_eq!(reopened.forced(), 2);
        assert_eq!(reopened.verdict(7), Some(true));
        assert_eq!(reopened.verdict(8), Some(false));
        assert_eq!(
            reopened.verdict(9),
            Some(false),
            "unknown gtid presumes abort"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reopened_decision_log_is_never_handed_a_gtid_it_holds() {
        let dir = std::env::temp_dir().join(format!(
            "islands-decision-gtids-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coordinator.decisions");
        DecisionLog::open(&path).unwrap().force(7, true).unwrap();
        let sites = Sites::Range(islands_core::partition::RangeSites {
            total_rows: 100,
            n_sites: 2,
        });
        let reopened = Arc::new(DecisionLog::open(&path).unwrap());
        let coord = Coordination::new(sites, reopened);
        let first = coord.next_gtid.load(Ordering::Relaxed);
        assert_eq!(first, 8, "gtid 7's commit record survives");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
