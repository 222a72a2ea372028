//! The coordinator half of wire-level 2PC: the decision store and the
//! resolver socket that answers recovering participants from it, and the one
//! 2PC driver ([`drive_2pc`]) that runs the pure [`islands_dtxn::Coordinator`]
//! machine over a [`TwoPcLink`] — [`DeployClient`](crate::DeployClient)'s
//! sockets in a live deployment, a scripted mock in the tests below.

use std::collections::HashMap;
use std::io::{self, Write};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use islands_dtxn::{Action, Coordinator, DecisionLog, Vote};

use crate::deploy::{lock_clean, remove_uds_file};
use crate::server::{Conn, Endpoint};
use crate::wire::{FrameReader, Reply, Request, WireMessage};

/// The coordinator's decision verdicts: an in-memory gtid → commit map,
/// optionally written through a durable [`DecisionLog`] *before* any
/// `Decision` frame leaves the coordinator. Resolution queries apply the
/// presumed-abort rule: no record means abort.
pub(crate) struct DecisionStore {
    decided: Mutex<HashMap<u64, bool>>,
    log: Option<DecisionLog>,
}

impl DecisionStore {
    /// Volatile store, or (with a wal dir) one backed by
    /// `<wal_dir>/coordinator.decisions` — reopening over an existing log
    /// resumes its verdicts, which is what lets a restarted deployment keep
    /// answering for transactions it decided in a previous life.
    pub(crate) fn open(wal_dir: Option<&Path>) -> io::Result<DecisionStore> {
        match wal_dir {
            None => Ok(DecisionStore {
                decided: Mutex::new(HashMap::new()),
                log: None,
            }),
            Some(dir) => {
                let log = DecisionLog::open(&dir.join("coordinator.decisions"))?;
                Ok(DecisionStore {
                    decided: Mutex::new(log.decisions()),
                    log: Some(log),
                })
            }
        }
    }

    /// Durably record a decision. Fail-stop on a log write error: acting on
    /// an unforced commit would let a coordinator crash contradict it, which
    /// is the one thing presumed abort must never allow.
    pub(crate) fn force(&self, gtid: u64, commit: bool) {
        if let Some(log) = &self.log {
            if let Err(e) = log.force(gtid, commit) {
                panic!("coordinator decision log write failed: {e}");
            }
        }
        lock_clean(&self.decided).insert(gtid, commit);
    }

    /// The presumed-abort verdict for one gtid: commit only if a commit
    /// decision was forced.
    fn commit_verdict(&self, gtid: u64) -> bool {
        lock_clean(&self.decided)
            .get(&gtid)
            .copied()
            .unwrap_or(false)
    }

    pub(crate) fn decided_count(&self) -> u64 {
        lock_clean(&self.decided).len() as u64
    }
}

/// The coordinator-side resolver: a UDS listener answering
/// [`Request::ResolveGtid`] frames from the decision store, so a restarted
/// instance can settle the in-doubt branches its WAL replay parked. One
/// thread per connection; connections are rare (instance startups only).
pub(crate) struct Resolver {
    pub(crate) endpoint: Endpoint,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Resolver {
    pub(crate) fn spawn(socket: PathBuf, store: Arc<DecisionStore>) -> io::Result<Resolver> {
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket)?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("islands-resolver".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let store = Arc::clone(&store);
                                let shutdown = Arc::clone(&shutdown);
                                let _ = std::thread::Builder::new()
                                    .name("islands-resolver-conn".into())
                                    .spawn(move || {
                                        let _ = resolver_session(stream, &store, &shutdown);
                                    });
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => break,
                        }
                    }
                })?
        };
        Ok(Resolver {
            endpoint: Endpoint::Uds(socket),
            shutdown,
            acceptor: Some(acceptor),
        })
    }
}

impl Drop for Resolver {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        remove_uds_file(&self.endpoint);
    }
}

/// Serve one resolver connection until EOF: `ResolveGtid` frames answered
/// with `Resolved` verdicts, `Ping` with `Pong`; anything else is an error
/// reply (the resolver is not an instance server).
fn resolver_session(
    stream: std::os::unix::net::UnixStream,
    store: &DecisionStore,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut conn = Conn::Uds(stream);
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    loop {
        out.clear();
        loop {
            match reader.next_message::<Request>() {
                Ok(Some(Request::ResolveGtid { gtid })) => Reply::Resolved {
                    gtid,
                    commit: store.commit_verdict(gtid),
                }
                .encode_frame(&mut out),
                Ok(Some(Request::Ping)) => Reply::Pong.encode_frame(&mut out),
                Ok(Some(other)) => Reply::Error {
                    message: format!("resolver answers only ResolveGtid, got {other:?}"),
                }
                .encode_frame(&mut out),
                Ok(None) => break,
                Err(e) => {
                    Reply::Error {
                        message: format!("protocol error: {e}"),
                    }
                    .encode_frame(&mut out);
                    conn.write_all(&out)?;
                    return Ok(());
                }
            }
        }
        if !out.is_empty() {
            conn.write_all(&out)?;
            conn.flush()?;
        }
        match reader.fill_from(&mut conn) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

pub(crate) enum TwoPc {
    Commit,
    Abort,
    PresumedAbort,
    Error(String),
}

/// The transport seam the 2PC driver runs against. The live implementation
/// is [`DeployClient`]'s per-instance connections; tests substitute a
/// scripted mock to pin driver invariants that need injected failures (a
/// decision written without its ack read leaves a stale frame that
/// desynchronizes the connection for the next round).
pub(crate) trait TwoPcLink {
    /// Ship one frame to participant `to`.
    fn send(&mut self, to: usize, frame: &Request) -> io::Result<()>;
    /// Read the next reply from `to` with the vote/ack deadline armed.
    fn recv(&mut self, from: usize) -> io::Result<Reply>;
    /// Poison `to`'s connection (unreachable or desynchronized).
    fn mark_dead(&mut self, to: usize);
    /// Force a commit decision record for `gtid` to the coordinator log.
    fn force_commit(&mut self, gtid: u64);
}

/// Carry out coordinator actions in FIFO order (`ForceCommitDecision` must
/// hit the log before any decision message leaves). Every decision sent
/// pushes its participant onto `ack_wait` — **always** the live wait list,
/// so acks owed for follow-up decisions are collected no matter which phase
/// emitted them.
fn process_actions<L: TwoPcLink>(
    link: &mut L,
    coord: &mut Coordinator,
    gtid: u64,
    actions: Vec<Action>,
    ack_wait: &mut Vec<usize>,
    outcome: &mut Option<bool>,
) {
    let mut queue: std::collections::VecDeque<Action> = actions.into();
    while let Some(action) = queue.pop_front() {
        match action {
            Action::SendPrepare { .. } => unreachable!("prepares already sent"),
            Action::ForceCommitDecision { gtid } => link.force_commit(gtid),
            Action::SendDecision { to, commit } => {
                let frame = Request::Decision { gtid, commit };
                match link.send(to, &frame) {
                    Ok(()) => ack_wait.push(to),
                    Err(_) => {
                        link.mark_dead(to);
                        queue.extend(coord.on_participant_failure(to));
                    }
                }
            }
            Action::Finish { commit } => *outcome = Some(commit),
        }
    }
}

/// Phase 2: collect an ack for every decision sent. `ack_wait` is a live
/// worklist, not a snapshot — handling one participant's failure can emit a
/// follow-up decision, and that decision's ack must be read too (it used to
/// be pushed into a throwaway `Vec`, leaving the ack unread: the stale frame
/// desynchronized the connection and the next 2PC round misread it as a
/// vote, turning into a spurious presumed abort). Returns whether any
/// participant failed during the phase.
fn collect_acks<L: TwoPcLink>(
    link: &mut L,
    coord: &mut Coordinator,
    gtid: u64,
    ack_wait: &mut Vec<usize>,
    outcome: &mut Option<bool>,
) -> bool {
    let mut ack_failure = false;
    let mut next = 0;
    while next < ack_wait.len() {
        let to = ack_wait[next];
        next += 1;
        match link.recv(to) {
            Ok(Reply::Ack { gtid: g }) if g == gtid => {
                let actions = coord.on_ack(to);
                process_actions(link, coord, gtid, actions, ack_wait, outcome);
            }
            _ => {
                link.mark_dead(to);
                ack_failure = true;
                let actions = coord.on_participant_failure(to);
                process_actions(link, coord, gtid, actions, ack_wait, outcome);
            }
        }
    }
    ack_failure
}

/// One full round of 2PC over `link`: prepare fan-out, vote collection,
/// decision fan-out, ack collection, with participant failures reported to
/// the [`Coordinator`] state machine as they surface. `prepare_frame`
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
    // timers feed the *coordinator process's* registry: where the instance
    // side records handler durations, this side records what the paper's
    // multisite client actually waits — prepare fan-out to last vote, and
    // decision fan-out to last ack, wire time included.
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

    // Collect votes from everyone actually prepared.
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
        islands_obs::metrics().record_prepare(prepare_started.elapsed().as_nanos() as u64);
    }

    // Drive the state machine: votes first, then failures; carry out every
    // action it emits. Decisions are sent immediately; their acks are
    // collected afterwards (phase 2 is pipelined like phase 1).
    let decision_started = Instant::now();
    let mut ack_wait: Vec<usize> = Vec::new();
    let mut outcome: Option<bool> = None;
    for (p, vote) in votes {
        let actions = coord.on_vote(p, vote);
        process_actions(link, &mut coord, gtid, actions, &mut ack_wait, &mut outcome);
    }
    let any_failure = !failed.is_empty();
    for p in failed {
        let actions = coord.on_participant_failure(p);
        process_actions(link, &mut coord, gtid, actions, &mut ack_wait, &mut outcome);
    }

    let ack_failure = collect_acks(link, &mut coord, gtid, &mut ack_wait, &mut outcome);
    if !ack_wait.is_empty() {
        islands_obs::metrics().record_decision(decision_started.elapsed().as_nanos() as u64);
    }

    match outcome {
        // A forced commit stays a commit even if an ack never arrived:
        // the decision record is what counts (the participant resolves
        // itself from it on recovery).
        Some(true) => Ok(TwoPc::Commit),
        Some(false) => {
            if let Some(message) = server_error {
                Ok(TwoPc::Error(message))
            } else if any_failure || ack_failure {
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

    /// Scripted [`TwoPcLink`]: per-participant reply queues plus a full log
    /// of sends/recvs, for driving [`drive_2pc`]/[`collect_acks`] through
    /// failure interleavings a live deployment cannot produce on demand.
    struct ScriptedLink {
        replies: Vec<std::collections::VecDeque<io::Result<Reply>>>,
        sent: Vec<Vec<Request>>,
        recvs: Vec<usize>,
        dead: Vec<bool>,
        forced: Vec<u64>,
    }

    impl ScriptedLink {
        fn new(participants: usize) -> Self {
            ScriptedLink {
                replies: (0..participants).map(|_| Default::default()).collect(),
                sent: vec![Vec::new(); participants],
                recvs: vec![0; participants],
                dead: vec![false; participants],
                forced: Vec::new(),
            }
        }

        fn script(&mut self, from: usize, reply: io::Result<Reply>) {
            self.replies[from].push_back(reply);
        }

        fn timeout() -> io::Error {
            io::Error::new(io::ErrorKind::TimedOut, "scripted timeout")
        }
    }

    impl TwoPcLink for ScriptedLink {
        fn send(&mut self, to: usize, frame: &Request) -> io::Result<()> {
            if self.dead[to] {
                return Err(io::Error::new(io::ErrorKind::NotConnected, "dead"));
            }
            self.sent[to].push(frame.clone());
            Ok(())
        }

        fn recv(&mut self, from: usize) -> io::Result<Reply> {
            if self.dead[from] {
                return Err(io::Error::new(io::ErrorKind::NotConnected, "dead"));
            }
            self.recvs[from] += 1;
            self.replies[from].pop_front().unwrap_or_else(|| {
                panic!("recv from {from} with nothing scripted");
            })
        }

        fn mark_dead(&mut self, to: usize) {
            self.dead[to] = true;
        }

        fn force_commit(&mut self, gtid: u64) {
            self.forced.push(gtid);
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
                            islands_core::plan::TPCC_WAREHOUSE,
                            p as u64,
                            StepOp::Update,
                        )],
                    },
                )
            })
            .collect();
        let mut link = ScriptedLink::new(2);
        for p in parts {
            link.script(
                p,
                Ok(Reply::Vote {
                    gtid,
                    vote: Vote::Yes,
                }),
            );
            link.script(p, Ok(Reply::Ack { gtid }));
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
    fn ack_phase_follow_up_decision_gets_its_ack_collected() {
        // Regression: the ack loop used to hand `process` a throwaway
        // `&mut Vec::new()`, so a decision emitted while handling an
        // ack-phase participant failure was written but its ack never read,
        // leaving a stale frame on that connection. The wait list is now a
        // live worklist.
        //
        // Construct the coordinator mid-flight: participant 1 voted Yes;
        // participant 0 is still owed a reply the driver is waiting on.
        let gtid = 7;
        let (mut coord, _) = Coordinator::new(gtid, vec![0, 1]);
        assert!(coord.on_vote(1, Vote::Yes).is_empty());
        let mut link = ScriptedLink::new(2);
        // Participant 0 times out during ack collection -> its failure
        // counts as a No vote -> the coordinator emits the abort decision
        // for participant 1 *inside the ack phase*.
        link.script(0, Err(ScriptedLink::timeout()));
        link.script(1, Ok(Reply::Ack { gtid }));

        let mut ack_wait = vec![0];
        let mut outcome = None;
        let failed = collect_acks(&mut link, &mut coord, gtid, &mut ack_wait, &mut outcome);

        assert!(failed, "participant 0's timeout must be reported");
        assert_eq!(
            link.sent[1],
            vec![Request::Decision {
                gtid,
                commit: false
            }],
            "the follow-up abort decision must reach participant 1"
        );
        // The heart of the regression: participant 1's ack must be *read*,
        // not left rotting on the connection for the next round to misread.
        assert_eq!(
            link.recvs[1], 1,
            "the follow-up decision's ack was never collected"
        );
        assert!(!link.dead[1], "participant 1 stays healthy");
        assert_eq!(outcome, Some(false));
        assert_eq!(ack_wait, vec![0, 1], "wait list is live, not a snapshot");
    }

    #[test]
    fn scripted_unanimous_yes_commits_and_reads_every_ack() {
        let gtid = 11;
        let parts = [0usize, 1, 2];
        let mut link = ScriptedLink::new(3);
        for p in parts {
            link.script(
                p,
                Ok(Reply::Vote {
                    gtid,
                    vote: Vote::Yes,
                }),
            );
            link.script(p, Ok(Reply::Ack { gtid }));
        }
        let out = drive_2pc(&mut link, gtid, &parts, prepare_frame).unwrap();
        assert!(matches!(out, TwoPc::Commit));
        assert_eq!(link.forced, vec![gtid], "commit decision must be forced");
        for p in parts {
            assert_eq!(link.recvs[p], 2, "vote + ack read from {p}");
            assert_eq!(link.sent[p].len(), 2, "prepare + decision sent to {p}");
            assert!(!link.dead[p]);
        }
    }

    #[test]
    fn scripted_vote_timeout_presumes_abort_and_settles_survivors() {
        let gtid = 13;
        let parts = [0usize, 1];
        let mut link = ScriptedLink::new(2);
        link.script(
            0,
            Ok(Reply::Vote {
                gtid,
                vote: Vote::Yes,
            }),
        );
        link.script(0, Ok(Reply::Ack { gtid }));
        link.script(1, Err(ScriptedLink::timeout()));
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
        assert_eq!(link.recvs[0], 2, "survivor's abort ack must be read");
        assert!(link.dead[1]);
    }

    #[test]
    fn decision_store_reopen_resumes_verdicts() {
        let dir = std::env::temp_dir().join(format!(
            "islands-decision-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        let store = DecisionStore::open(Some(&dir)).unwrap();
        store.force(7, true);
        store.force(8, false);
        assert!(store.commit_verdict(7));
        assert!(!store.commit_verdict(8));
        drop(store);

        // A second coordinator life over the same directory keeps answering
        // for decisions from the first, and still presumes abort for gtids
        // nobody ever decided.
        let reopened = DecisionStore::open(Some(&dir)).unwrap();
        assert_eq!(reopened.decided_count(), 2);
        assert!(reopened.commit_verdict(7));
        assert!(!reopened.commit_verdict(8));
        assert!(
            !reopened.commit_verdict(9),
            "unknown gtid must presume abort"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
