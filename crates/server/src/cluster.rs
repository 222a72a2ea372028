//! The in-process deployment: a spawned deployment's parts in one process.
//!
//! A [`Cluster`] is the N partition instances of a [`DeployConfig`] — the
//! [`Backend`]s its children would serve, built from the same
//! [`DeployConfig::partition`], each with a stats registry of its own as a
//! child process would have — plus the `Coordination` every
//! [`Deployment`](crate::Deployment) has. A [`ClusterClient`] is its
//! [`DeployClient`](crate::DeployClient): one engine session per instance
//! where the sockets would be, implementing the same `TwoPcLink`, so the
//! router, the 2PC driver, the retry loop and the ack debt are the code a
//! spawned deployment's clients run, on the calling thread as theirs run on
//! theirs. A cluster is driven the way a deployment is, by one client per
//! calling thread: a timed load goes through `islands_bench::drive`, the
//! loop that drives a spawned deployment, with one `ClusterClient` per
//! worker. It is not itself an engine, and no server fronts it. A frame
//! handed to the link is answered on the spot by `server::answer` —
//! the mapping a socket session applies to a decoded frame — and its reply
//! waits in the link's queue for the read that would have crossed the
//! wire: the function call is the message. Nothing is encoded and nothing
//! is copied but the plan a frame carries. Whatever the link does on
//! instance `i` — a frame, a reconnect, a hang-up — runs with `i`'s
//! registry current, so the instance's stats are its own.
//!
//! A link that is dropped mid-round leaves its branch parked and ownerless,
//! as a dead socket does. The cluster runs the resolver pass a spawned
//! instance runs, over its own decision log by direct call
//! (`Cluster::settle`): the coordinator whose link died runs it once its
//! round is over, never while its own round is still undecided.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

use islands_core::native::{ExecError, Session};
use islands_dtxn::{DecisionLog, Round};
use islands_obs::Snapshot;
use islands_workload::PlanRequest;

use crate::coordinator::{settle, AckDebt, Coordination, TwoPcLink};
use crate::deploy::{DeployConfig, DeployReply};
use crate::server::{answer, Backend, Instance};
use crate::wire::{Reply, Request};

/// A running shared-nothing deployment inside this process.
pub struct Cluster {
    instances: Vec<Instance>,
    coord: Coordination,
    /// [`DeployConfig::retry_limit`]: what [`client`](Self::client)s retry
    /// by.
    retry_limit: u32,
}

impl Cluster {
    /// Build and load the instances `cfg` describes, each exactly as the
    /// spawned deployment's child `i` would load it. The fields that
    /// describe processes are ignored (see [`DeployConfig`]); a `wal_dir`
    /// is refused, since nothing here could ever replay it.
    pub fn build(cfg: &DeployConfig) -> io::Result<Cluster> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidInput, e);
        cfg.validate().map_err(invalid)?;
        if cfg.wal_dir.is_some() {
            return Err(invalid(
                "an in-process cluster has no restart to replay a wal_dir for".into(),
            ));
        }
        let instances = (0..cfg.instances)
            .map(|i| {
                Instance::build(cfg.engine, cfg.partition(i))
                    .map_err(|e| io::Error::other(format!("instance {i} build failed: {e}")))
            })
            .collect::<io::Result<Vec<_>>>()?;
        // Volatile logs on every instance, so a volatile decision log.
        let decisions = Arc::new(DecisionLog::volatile());
        Ok(Cluster {
            instances,
            coord: Coordination::new(cfg.sites(), decisions),
            retry_limit: cfg.retry_limit,
        })
    }

    pub fn n_instances(&self) -> usize {
        self.instances.len()
    }

    /// The engine behind instance `i` (tests, stats).
    pub fn instance(&self, i: usize) -> &Backend {
        &self.instances[i].backend
    }

    /// The stats instance `i` would report as a server process: every
    /// frame its coordinators handed it is counted as one it decoded.
    pub fn snapshot(&self, i: usize) -> Snapshot {
        self.instances[i].snapshot()
    }

    /// Number of commit decisions forced so far (read-only 2PC forces none).
    pub fn decided_commits(&self) -> u64 {
        self.coord.decisions.forced()
    }

    /// The resolver pass over every instance: each ownerless branch gets
    /// the decision log's verdict, applied in its instance's scope. Returns
    /// how many branches the log had no answer for yet.
    pub(crate) fn settle(&self) -> usize {
        let log = &self.coord.decisions;
        let pass = |inst: &Instance| {
            let _scope = islands_obs::scope(&inst.metrics);
            // A partition that is gone has nothing left to settle.
            settle(inst.backend.engine(), |gtid| Ok(log.verdict(gtid))).unwrap_or(0)
        };
        self.instances.iter().map(pass).sum()
    }

    /// Open one coordinator: a session on every instance. Each calling
    /// thread holds its own. [`DeployConfig::retry_limit`] is its budget
    /// both for a local transaction's contention retries at its instance
    /// and for 2PC rounds the votes aborted.
    pub fn client(&self) -> ClusterClient<'_> {
        ClusterClient {
            cluster: self,
            sessions: self
                .instances
                .iter()
                .map(|inst| inst.backend.engine().session(self.retry_limit))
                .collect(),
            replies: vec![VecDeque::new(); self.instances.len()],
            debt: AckDebt::new(self.instances.len()),
            round: self.coord.decisions.round(),
            unsettled: false,
        }
    }

    /// Sum of the audit counters across all instances (audit invariant:
    /// equals the number of committed row writes).
    pub fn audit_sum(&self) -> Result<u64, ExecError> {
        let mut sum = 0u64;
        for inst in &self.instances {
            sum += inst.backend.engine().audit_sum()?;
        }
        Ok(sum)
    }
}

/// One coordinator of a [`Cluster`]: a session on every instance plus the
/// router and 2PC driver, the in-process [`DeployClient`](crate::DeployClient).
/// Its sessions belong to the thread that opened it, so each calling thread
/// mints its own.
pub struct ClusterClient<'c> {
    cluster: &'c Cluster,
    sessions: Vec<Box<dyn Session + 'c>>,
    /// Per instance, the replies to frames handed over and not yet read.
    replies: Vec<VecDeque<Reply>>,
    debt: AckDebt,
    round: Round,
    /// A dropped link may have left a branch ownerless that no resolver
    /// pass has settled yet.
    unsettled: bool,
}

impl ClusterClient<'_> {
    /// Route one plan, exactly as
    /// [`DeployClient::submit_plan`](crate::DeployClient::submit_plan) does.
    /// [`DeployReply::InstanceDown`] cannot happen here: an instance whose
    /// serial partition was poisoned answers with a typed error instead.
    pub fn submit_plan(&mut self, plan: &PlanRequest) -> io::Result<DeployReply> {
        let cluster = self.cluster;
        let reply = cluster.coord.submit(self, plan, cluster.retry_limit);
        self.settle_dropped_links();
        reply
    }

    /// Run the resolver pass if a dropped link may have left a branch
    /// ownerless. Called between rounds: this coordinator's own round is
    /// decided, so the log answers for it.
    fn settle_dropped_links(&mut self) {
        if self.unsettled {
            self.unsettled = self.cluster.settle() > 0;
        }
    }
}

impl Drop for ClusterClient<'_> {
    /// Read the acks still owed before the sessions close, so that whoever
    /// talks to the instances next finds every decision this client's
    /// callers were told about applied.
    fn drop(&mut self) {
        self.settle_all(self.sessions.len());
    }
}

impl TwoPcLink for ClusterClient<'_> {
    fn send(&mut self, to: usize, frame: &Request) -> io::Result<()> {
        let inst = &self.cluster.instances[to];
        let _scope = islands_obs::scope(&inst.metrics);
        let engine = inst.backend.engine();
        let reply = answer(engine, &mut *self.sessions[to], frame, &inst.metrics);
        self.replies[to].push_back(reply);
        Ok(())
    }

    fn recv_frame(&mut self, from: usize) -> io::Result<Reply> {
        self.replies[from]
            .pop_front()
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no frame awaits a reply"))
    }

    /// Reconnect: a fresh session replaces the old one. What the old one
    /// parked stays parked, ownerless, for the next resolver pass.
    fn disconnect(&mut self, to: usize) {
        let engine = self.cluster.instances[to].backend.engine();
        self.sessions[to] = engine.session(self.cluster.retry_limit);
        self.replies[to].clear();
        self.unsettled = true;
    }

    fn force_commit(&mut self, gtid: u64) {
        self.cluster.coord.force_commit(gtid);
    }

    fn forget(&mut self, gtid: u64) {
        self.cluster.coord.decisions.forget(gtid);
    }

    fn debt(&mut self) -> &mut AckDebt {
        &mut self.debt
    }

    fn round(&self) -> &Round {
        &self.round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeployOutcome;
    use islands_core::native::{DecideOutcome, EngineMode};
    use islands_dtxn::Vote;
    use islands_workload::plan::{PlanClass, PlanStep, StepOp, MICRO_TABLE};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    const MODES: [EngineMode; 2] = [EngineMode::Locked, EngineMode::Serial];

    fn plan(keys: &[u64], op: StepOp) -> PlanRequest {
        PlanRequest {
            class: PlanClass::Generic,
            multisite: keys.len() > 1,
            steps: keys
                .iter()
                .map(|&key| PlanStep::point(MICRO_TABLE, key, op))
                .collect(),
        }
    }

    /// 4 instances over 400 rows: keys 0..100 live in instance 0, and so on.
    fn small(engine: EngineMode) -> Cluster {
        Cluster::build(&DeployConfig {
            instances: 4,
            total_rows: 400,
            row_size: 16,
            engine,
            retry_limit: 8,
            ..Default::default()
        })
        .unwrap()
    }

    fn run(client: &mut ClusterClient<'_>, plan: &PlanRequest) -> DeployOutcome {
        match client.submit_plan(plan).unwrap() {
            DeployReply::Outcome(o) => o,
            other => panic!("expected an outcome, got {other:?}"),
        }
    }

    fn summed(c: &Cluster) -> Snapshot {
        let mut sum = c.snapshot(0);
        for i in 1..c.n_instances() {
            sum.merge(&c.snapshot(i));
        }
        sum
    }

    /// A coordinator whose `Decision` frames to `victim` fail like a reset
    /// connection: the frame never arrives and the link is gone. It notes
    /// the log's verdict at that moment.
    struct LosesDecisionsTo<'c> {
        client: ClusterClient<'c>,
        victim: usize,
        verdict_then: Option<Option<bool>>,
    }

    impl TwoPcLink for LosesDecisionsTo<'_> {
        fn send(&mut self, to: usize, frame: &Request) -> io::Result<()> {
            if let (true, Request::Decision { gtid, .. }) = (to == self.victim, frame) {
                let log = &self.client.cluster.coord.decisions;
                self.verdict_then = Some(log.verdict(*gtid));
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "scripted reset",
                ));
            }
            self.client.send(to, frame)
        }
        fn recv_frame(&mut self, from: usize) -> io::Result<Reply> {
            self.client.recv_frame(from)
        }
        fn disconnect(&mut self, to: usize) {
            self.client.disconnect(to)
        }
        fn force_commit(&mut self, gtid: u64) {
            self.client.force_commit(gtid)
        }
        fn forget(&mut self, gtid: u64) {
            self.client.forget(gtid)
        }
        fn debt(&mut self) -> &mut AckDebt {
            self.client.debt()
        }
        fn round(&self) -> &Round {
            self.client.round()
        }
    }

    fn two(mode: EngineMode) -> Cluster {
        Cluster::build(&DeployConfig {
            instances: 2,
            total_rows: 200,
            row_size: 16,
            engine: mode,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn a_commit_whose_decision_dies_with_its_link_still_commits_everywhere() {
        // The coordinator forces the commit, then its Decision to instance
        // 1 fails and the link is dropped. The branch there voted Yes: it
        // must stay parked, holding its row, until the resolver pass gives
        // it the forced commit — not roll back with its session.
        for mode in MODES {
            let c = two(mode);
            let mut link = LosesDecisionsTo {
                client: c.client(),
                victim: 1,
                verdict_then: None,
            };
            let reply = c
                .coord
                .submit(&mut link, &plan(&[10, 150], StepOp::Update), 0);
            let DeployReply::Outcome(out) = reply.unwrap() else {
                panic!("{mode}: no outcome");
            };
            assert!(out.committed && out.distributed, "{mode}: {out:?}");
            assert_eq!(c.decided_commits(), 1, "{mode}: one forced commit");
            assert_eq!(link.verdict_then, Some(Some(true)), "{mode}: forced first");
            assert_eq!(c.snapshot(1).in_doubt, 1, "{mode}: parked, ownerless");
            assert_eq!(
                c.audit_sum().unwrap(),
                1,
                "{mode}: the parked write is not committed yet"
            );
            let mut other = c.client();
            let blocked = run(&mut other, &plan(&[150], StepOp::Update));
            assert!(
                !blocked.committed,
                "{mode}: the parked branch holds its row"
            );

            // The coordinator's next call runs the resolver pass once its
            // round is over; the log answers with the forced commit.
            assert!(run(&mut link.client, &plan(&[11], StepOp::Update)).committed);
            assert_eq!(summed(&c).in_doubt, 0, "{mode}: nothing left parked");
            assert_eq!(c.audit_sum().unwrap(), 3, "{mode}: both branches commit");
            let s1 = c.snapshot(1);
            assert_eq!((s1.in_doubt_commit, s1.presumed_aborts), (1, 0), "{mode}");
            assert!(run(&mut other, &plan(&[150], StepOp::Update)).committed);
            assert_eq!(c.audit_sum().unwrap(), 4, "{mode}");
        }
    }

    #[test]
    fn an_abort_whose_decision_dies_with_its_link_settles_once_the_round_is_over() {
        // A vote-decided abort has no record, so while its round is open
        // the log has no answer; a pass after the round gives the parked
        // branch its abort.
        for mode in MODES {
            let c = two(mode);
            // Instance 0 votes No: its key is held by another parked branch.
            let engine = c.instance(0).engine();
            let mut holder = engine.session(0);
            let held = plan(&[10], StepOp::Update);
            assert_eq!(holder.prepare(9_000, &held).unwrap(), Vote::Yes, "{mode}");
            let mut link = LosesDecisionsTo {
                client: c.client(),
                victim: 1,
                verdict_then: None,
            };
            let reply = c
                .coord
                .submit(&mut link, &plan(&[10, 150], StepOp::Update), 0);
            assert!(
                matches!(reply.unwrap(), DeployReply::Outcome(o) if !o.committed),
                "{mode}"
            );
            assert_eq!(link.verdict_then, Some(None), "{mode}: round still open");
            assert_eq!(c.snapshot(1).in_doubt, 1, "{mode}: the late Yes is parked");
            assert_eq!(c.audit_sum().unwrap(), 0, "{mode}: two parked writes");
            // The round is over: the pass gets the abort.
            assert_eq!(c.settle(), 0, "{mode}");
            assert_eq!(c.snapshot(1).in_doubt, 0, "{mode}");
            assert_eq!(c.audit_sum().unwrap(), 0, "{mode}: the abort moves nothing");
            assert_eq!(c.snapshot(1).in_doubt_abort, 1, "{mode}");
            assert_eq!(holder.decide(9_000, false).unwrap(), DecideOutcome::Applied);
            assert_eq!(c.audit_sum().unwrap(), 0, "{mode}");
        }
    }

    #[test]
    fn local_reads_and_updates() {
        for mode in MODES {
            let c = small(mode);
            let mut client = c.client();
            let read = run(&mut client, &plan(&[1, 2, 3], StepOp::Read));
            assert!(read.committed && !read.distributed);
            let update = run(&mut client, &plan(&[5, 6], StepOp::Update));
            assert!(update.committed && !update.distributed);
            assert_eq!(c.audit_sum().unwrap(), 2);
            assert_eq!(summed(&c).prepares, 0, "{mode}: local plans never prepare");
        }
    }

    #[test]
    fn distributed_update_commits_atomically() {
        for mode in MODES {
            let c = small(mode);
            // Keys in instances 0, 1, 3.
            let out = run(&mut c.client(), &plan(&[10, 150, 390], StepOp::Update));
            assert!(out.committed && out.distributed, "{mode}: {out:?}");
            assert_eq!(c.audit_sum().unwrap(), 3);
            assert_eq!(c.decided_commits(), 1, "one forced commit decision");
            let stats = summed(&c);
            assert_eq!((stats.prepares, stats.decisions), (3, 3));
            assert_eq!(c.snapshot(2).requests, 0, "instance 2 saw no frame");
            assert_eq!(stats.in_doubt, 0);
        }
    }

    #[test]
    fn distributed_read_uses_read_only_optimization() {
        for mode in MODES {
            let c = small(mode);
            let out = run(&mut c.client(), &plan(&[10, 150], StepOp::Read));
            assert!(out.committed && out.distributed);
            assert_eq!(c.audit_sum().unwrap(), 0);
            assert_eq!(c.decided_commits(), 0, "read-only 2PC forces nothing");
            let stats = summed(&c);
            assert_eq!(
                (stats.prepares, stats.decisions),
                (2, 0),
                "{mode}: read-only voters get no phase 2"
            );
        }
    }

    #[test]
    fn a_read_only_branch_beside_a_writing_one_costs_one_decision() {
        for mode in MODES {
            let c = small(mode);
            let mixed = PlanRequest {
                class: PlanClass::Generic,
                multisite: true,
                steps: vec![
                    PlanStep::point(MICRO_TABLE, 10, StepOp::Read),
                    PlanStep::point(MICRO_TABLE, 150, StepOp::Update),
                ],
            };
            let out = run(&mut c.client(), &mixed);
            assert!(out.committed && out.distributed);
            assert_eq!(c.audit_sum().unwrap(), 1);
            assert_eq!(c.decided_commits(), 1);
            let (s0, s1) = (c.snapshot(0), c.snapshot(1));
            assert_eq!((s0.prepares, s0.decisions), (1, 0));
            assert_eq!((s1.prepares, s1.decisions), (1, 1));
        }
    }

    #[test]
    fn an_instance_no_plan_reaches_reports_nothing() {
        // Each instance records into a registry of its own, as a child
        // process would: load on instance 0 leaves instance 1's whole
        // snapshot — counters, phase time, latency histograms — where its
        // build left it, which is zero but for the build's own phase time.
        const N: u64 = 20;
        for mode in MODES {
            let c = Cluster::build(&DeployConfig {
                instances: 2,
                total_rows: 200,
                row_size: 16,
                engine: mode,
                ..Default::default()
            })
            .unwrap();
            let built = c.snapshot(1);
            let mut client = c.client();
            for key in 0..N {
                assert!(run(&mut client, &plan(&[key], StepOp::Update)).committed);
            }
            drop(client);
            let busy = c.snapshot(0);
            assert_eq!((busy.requests, busy.commits), (N, N), "{mode}");
            assert_eq!(busy.txns, [N, 0], "{mode}");
            assert_eq!(busy.txn_us[0].count, N, "{mode}");
            assert!(busy.phase_ns[0].iter().sum::<u64>() > 0, "{mode}");
            let idle = c.snapshot(1);
            assert_eq!(idle, built, "{mode}: the load never reached instance 1");
            let zero = Snapshot {
                enabled: idle.enabled,
                phase_ns: idle.phase_ns,
                ..Snapshot::default()
            };
            assert_eq!(idle, zero, "{mode}");
        }
    }

    #[test]
    fn unsatisfiable_requests_are_typed_errors_not_outcomes() {
        for mode in MODES {
            let c = small(mode);
            let mut client = c.client();
            // Alone, and as one branch of a 2PC whose other branch is fine.
            for keys in [&[999_999u64][..], &[10, 999_999]] {
                match client.submit_plan(&plan(keys, StepOp::Update)).unwrap() {
                    DeployReply::ServerError(m) => assert!(m.contains("key not found"), "{m}"),
                    other => panic!("{mode}: expected a server error, got {other:?}"),
                }
            }
            drop(client);
            assert_eq!(
                c.audit_sum().unwrap(),
                0,
                "{mode}: the good branch rolled back"
            );
            assert_eq!(summed(&c).in_doubt, 0);
        }
    }

    #[test]
    fn non_divisible_row_counts_route_boundary_keys_to_their_loader() {
        // 403 rows over 4 instances: loading gives instance 0 keys 0..100
        // and the last instance the remainder. Routing must agree with
        // loading at every boundary, or boundary keys are "not found" on
        // the instance they were routed to.
        for mode in MODES {
            let c = Cluster::build(&DeployConfig {
                instances: 4,
                total_rows: 403,
                row_size: 16,
                engine: mode,
                ..Default::default()
            })
            .unwrap();
            let mut client = c.client();
            for key in [0, 99, 100, 101, 199, 200, 300, 399, 400, 402] {
                let out = run(&mut client, &plan(&[key], StepOp::Update));
                assert!(
                    out.committed && !out.distributed,
                    "single-key txn on {key} must be local"
                );
            }
            assert_eq!(c.audit_sum().unwrap(), 10);
        }
    }

    #[test]
    fn shapes_nothing_could_be_built_from_are_invalid_input() {
        for cfg in [
            DeployConfig {
                instances: 8,
                total_rows: 4,
                ..Default::default()
            },
            DeployConfig {
                wal_dir: Some(std::env::temp_dir()),
                ..Default::default()
            },
        ] {
            let err = Cluster::build(&cfg).err().expect("build must refuse");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{cfg:?}");
        }
    }

    #[test]
    fn high_contention_retries_stay_bounded_under_backoff() {
        // Regression: the retry loop used to only yield_now(), so victims
        // of a hot key re-attacked it the instant they were rescheduled and
        // could burn their whole budget in a storm. With capped exponential
        // backoff, every submission against a single contended key must
        // commit, and the aggregate retry count stays far below the budget.
        // Generous budget: wait-die re-stamps a victim younger on every
        // retry, so under sustained contention individual victims can lose
        // many rounds — the storm bound below is the real assertion.
        let c = Cluster::build(&DeployConfig {
            instances: 1,
            total_rows: 64,
            row_size: 16,
            lock_timeout: Duration::from_millis(50),
            retry_limit: 2048,
            ..Default::default()
        })
        .unwrap();
        const THREADS: u64 = 4;
        const TXNS: u64 = 50;
        let total_retries = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let mut client = c.client();
                    for _ in 0..TXNS {
                        let out = run(&mut client, &plan(&[7], StepOp::Update));
                        assert!(out.committed, "hot-key submission exhausted its budget");
                        total_retries.fetch_add(out.retries as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(c.audit_sum().unwrap(), THREADS * TXNS);
        let retries = total_retries.load(Ordering::Relaxed);
        let txns = THREADS * TXNS;
        assert!(
            retries < txns * 64,
            "retry storm: {retries} retries across {txns} hot-key txns \
             (mean {:.1} per txn)",
            retries as f64 / txns as f64,
        );
    }

    #[test]
    fn shared_everything_single_instance_works() {
        let c = Cluster::build(&DeployConfig {
            instances: 1,
            total_rows: 100,
            row_size: 16,
            ..Default::default()
        })
        .unwrap();
        let out = run(&mut c.client(), &plan(&[5, 95], StepOp::Update));
        assert!(out.committed && !out.distributed);
        assert_eq!(c.audit_sum().unwrap(), 2);
    }
}
