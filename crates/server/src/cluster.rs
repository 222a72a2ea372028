//! The in-process deployment: a spawned deployment's parts in one process.
//!
//! A [`Cluster`] is the N partition instances of a [`DeployConfig`] — the
//! [`Backend`]s its children would serve, built from the same
//! [`DeployConfig::partition`] — plus the `Coordination` every
//! [`Deployment`](crate::Deployment) has. A [`ClusterClient`] is its
//! [`DeployClient`](crate::DeployClient): one engine session per instance
//! where the sockets would be, implementing the same `TwoPcLink`, so the
//! router, the 2PC driver, the retry loop and the ack debt are the code a
//! spawned deployment's clients run. A frame handed to the link is answered
//! on the spot by `server::answer` — the mapping a socket session applies to a
//! decoded frame — and its reply waits in the link's queue for the read that
//! would have crossed the wire: the function call is the message. Nothing
//! is encoded and nothing is copied but the plan a frame carries.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_core::native::{DecideOutcome, Engine, ExecError, Session, SubmitOutcome};
use islands_dtxn::Vote;
use islands_obs::BreakdownCategory;
use islands_workload::PlanRequest;

use crate::coordinator::{AckDebt, Coordination, DecisionStore, TwoPcLink};
use crate::deploy::{DeployConfig, DeployReply};
use crate::server::{answer, Backend, Counters, ServerStats};
use crate::wire::{Reply, Request};

/// One instance of the cluster: the engine and the counters its server
/// process would keep.
struct Instance {
    backend: Backend,
    counters: Counters,
}

/// A running shared-nothing deployment inside this process.
pub struct Cluster {
    instances: Vec<Instance>,
    coord: Coordination,
    /// [`DeployConfig::retry_limit`]: what [`client`](Self::client)s retry
    /// by.
    retry_limit: u32,
}

/// Outcome counters from [`Cluster::run_closed_loop`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterRunResult {
    pub commits: u64,
    /// Abort-and-retry rounds, plus transactions that spent their budget.
    pub aborts: u64,
    pub distributed: u64,
    pub elapsed: Duration,
}

impl ClusterRunResult {
    pub fn tps(&self) -> f64 {
        self.commits as f64 / self.elapsed.as_secs_f64()
    }
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
                let backend = Backend::build(cfg.engine, cfg.partition(i))
                    .map_err(|e| io::Error::other(format!("instance {i} build failed: {e}")))?;
                Ok(Instance {
                    backend,
                    counters: Counters::default(),
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        // Volatile logs on every instance, so a volatile decision store.
        let decisions = Arc::new(DecisionStore::open(None)?);
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

    /// The counters instance `i` would report as a server process: every
    /// frame its coordinators handed it is counted as one it decoded.
    pub fn stats(&self, i: usize) -> ServerStats {
        let inst = &self.instances[i];
        inst.counters.snapshot(Some(inst.backend.engine()))
    }

    /// Number of commit decisions forced so far (read-only 2PC forces none).
    pub fn decided_commits(&self) -> u64 {
        self.coord.decisions.decided_count()
    }

    /// Open one coordinator: a session on every instance. Each calling
    /// thread holds its own. [`DeployConfig::retry_limit`] is its budget
    /// both for a local transaction's contention retries at its instance
    /// and for 2PC rounds the votes aborted.
    pub fn client(&self) -> ClusterClient<'_> {
        self.coordinator(self.retry_limit)
    }

    fn coordinator(&self, retry_limit: u32) -> ClusterClient<'_> {
        ClusterClient {
            cluster: self,
            retry_limit,
            sessions: self
                .instances
                .iter()
                .map(|inst| inst.backend.engine().session(retry_limit))
                .collect(),
            replies: vec![VecDeque::new(); self.instances.len()],
            debt: AckDebt::new(self.instances.len()),
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

    /// Closed-loop run: `threads` workers, one [`ClusterClient`] each,
    /// submit plans from `gen(thread, seq)` until `duration` elapses. A
    /// plan an instance refuses outright is a bug in `gen` and panics.
    pub fn run_closed_loop<F>(&self, threads: usize, duration: Duration, gen: F) -> ClusterRunResult
    where
        F: Fn(usize, u64) -> PlanRequest + Sync,
    {
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let (mut commits, mut aborts, mut distributed) = (0u64, 0u64, 0u64);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (stop, gen) = (&stop, &gen);
                    scope.spawn(move || {
                        let mut client = self.client();
                        let (mut commits, mut aborts, mut distributed) = (0u64, 0u64, 0u64);
                        let mut seq = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let plan = gen(t, seq);
                            seq += 1;
                            match client.submit_plan(&plan) {
                                Ok(DeployReply::Outcome(o)) => {
                                    aborts += o.retries as u64 + !o.committed as u64;
                                    commits += o.committed as u64;
                                    distributed += (o.committed && o.distributed) as u64;
                                }
                                other => panic!("closed-loop plan {plan:?} refused: {other:?}"),
                            }
                        }
                        (commits, aborts, distributed)
                    })
                })
                .collect();
            std::thread::sleep(duration);
            stop.store(true, Ordering::Relaxed);
            for w in workers {
                match w.join() {
                    Ok((c, a, d)) => {
                        commits += c;
                        aborts += a;
                        distributed += d;
                    }
                    // A worker died mid-run: surface its panic instead of
                    // fabricating a result from the survivors.
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        ClusterRunResult {
            commits,
            aborts,
            distributed,
            elapsed: start.elapsed(),
        }
    }
}

impl Engine for Cluster {
    /// A server fronting the cluster passes its own budget here.
    fn session(&self, retry_limit: u32) -> Box<dyn Session + '_> {
        Box::new(self.coordinator(retry_limit))
    }

    fn audit_sum(&self) -> Result<u64, ExecError> {
        Cluster::audit_sum(self)
    }

    /// The cluster's logs are volatile: nothing is ever re-parked.
    fn recovered_gtids(&self) -> Result<Vec<u64>, ExecError> {
        Ok(Vec::new())
    }
}

/// One coordinator of a [`Cluster`]: a session on every instance plus the
/// router and 2PC driver, the in-process [`DeployClient`](crate::DeployClient).
///
/// As a [`Session`] — what a server fronting the cluster mints per
/// connection — it coordinates its own distributed transactions, so it is
/// never itself a participant and holds nothing in doubt between calls.
pub struct ClusterClient<'c> {
    cluster: &'c Cluster,
    retry_limit: u32,
    sessions: Vec<Box<dyn Session + 'c>>,
    /// Per instance, the replies to frames handed over and not yet read.
    replies: Vec<VecDeque<Reply>>,
    debt: AckDebt,
}

impl ClusterClient<'_> {
    /// Route one plan, exactly as
    /// [`DeployClient::submit_plan`](crate::DeployClient::submit_plan) does.
    /// [`DeployReply::InstanceDown`] cannot happen here: an instance whose
    /// serial partition was poisoned answers with a typed error instead.
    pub fn submit_plan(&mut self, plan: &PlanRequest) -> io::Result<DeployReply> {
        let cluster = self.cluster;
        cluster.coord.submit(self, plan, self.retry_limit)
    }

    /// Hang up every link: read what it owes, then close its session, which
    /// presumes abort for whatever that session still holds.
    fn hang_up(&mut self) {
        self.settle_all(self.sessions.len());
        for (session, inst) in self.sessions.iter_mut().zip(&self.cluster.instances) {
            inst.counters.presumed_abort(session.close());
        }
    }
}

impl Drop for ClusterClient<'_> {
    fn drop(&mut self) {
        self.hang_up();
    }
}

impl TwoPcLink for ClusterClient<'_> {
    fn send(&mut self, to: usize, frame: &Request) -> io::Result<()> {
        let inst = &self.cluster.instances[to];
        let reply = answer(
            inst.backend.engine(),
            &mut *self.sessions[to],
            frame,
            &inst.counters,
        );
        self.replies[to].push_back(reply);
        Ok(())
    }

    fn recv_frame(&mut self, from: usize) -> io::Result<Reply> {
        self.replies[from]
            .pop_front()
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no frame awaits a reply"))
    }

    /// Reconnect: a fresh session replaces the old one, whose close rolls
    /// back what it had parked.
    fn disconnect(&mut self, to: usize) {
        let inst = &self.cluster.instances[to];
        let fresh = inst.backend.engine().session(self.retry_limit);
        let mut old = std::mem::replace(&mut self.sessions[to], fresh);
        inst.counters.presumed_abort(old.close());
        self.replies[to].clear();
    }

    fn force_commit(&mut self, gtid: u64) {
        self.cluster.coord.decisions.force(gtid, true);
    }

    fn forget(&mut self, gtid: u64) {
        self.cluster.coord.decisions.forget(gtid);
    }

    fn debt(&mut self) -> &mut AckDebt {
        &mut self.debt
    }
}

impl Session for ClusterClient<'_> {
    fn submit(&mut self, plan: &PlanRequest) -> Result<SubmitOutcome, ExecError> {
        // Routing and driving the round are this thread's management work;
        // the instances' own spans nest inside it.
        let _span = islands_obs::enter(BreakdownCategory::XctManagement);
        match self.submit_plan(plan) {
            Ok(DeployReply::Outcome(o)) => Ok(SubmitOutcome {
                committed: o.committed,
                distributed: o.distributed,
                retries: o.retries,
            }),
            Ok(DeployReply::ServerError(message)) => Err(ExecError::Rejected(message)),
            Ok(DeployReply::InstanceDown(_)) => Err(ExecError::Gone),
            Err(e) => Err(ExecError::Rejected(e.to_string())),
        }
    }

    fn prepare(&mut self, _gtid: u64, _plan: &PlanRequest) -> Result<Vote, ExecError> {
        Err(ExecError::NotAParticipant)
    }

    fn decide(&mut self, _gtid: u64, _commit: bool) -> Result<DecideOutcome, ExecError> {
        Err(ExecError::NotAParticipant)
    }

    fn close(&mut self) -> u64 {
        self.hang_up();
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeployOutcome;
    use islands_core::native::EngineMode;
    use islands_workload::plan::{PlanClass, PlanStep, StepOp, MICRO_TABLE};
    use std::sync::atomic::AtomicU64;

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

    fn summed(c: &Cluster) -> ServerStats {
        let mut sum = ServerStats::default();
        for i in 0..c.n_instances() {
            sum.absorb(&c.stats(i));
        }
        sum
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
            assert_eq!(c.stats(2).requests, 0, "instance 2 saw no frame");
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
            assert_eq!((c.stats(0).prepares, c.stats(0).decisions), (1, 0));
            assert_eq!((c.stats(1).prepares, c.stats(1).decisions), (1, 1));
        }
    }

    #[test]
    fn closed_loop_conserves_updates() {
        for mode in MODES {
            let c = small(mode);
            let r = c.run_closed_loop(4, Duration::from_millis(300), |t, seq| {
                // Mix of local and cross-instance updates.
                let a = (t as u64 * 131 + seq * 7) % 400;
                let b = (a + if seq % 3 == 0 { 137 } else { 1 }) % 400;
                plan(&[a, b], StepOp::Update)
            });
            assert!(r.commits > 0);
            assert!(r.distributed > 0, "some transactions must cross instances");
            assert_eq!(
                c.audit_sum().unwrap(),
                r.commits * 2,
                "{mode}: every committed txn applied exactly 2 updates \
                 (commits={}, aborts={})",
                r.commits,
                r.aborts
            );
            assert_eq!(summed(&c).in_doubt, 0, "{mode}: nothing left parked");
        }
    }

    #[test]
    fn lock_free_islands_conserve_hot_cross_instance_updates() {
        // Regression: "one worker per instance" used to be a config count
        // that turned locking off, with nothing tying it to the number of
        // calling threads — 4 threads of cross-instance read-modify-writes
        // on lock-free instances lost updates. Serial islands are owned
        // through a mutex, so any number of threads is safe.
        let c = small(EngineMode::Serial);
        const HOT: [u64; 4] = [7, 107, 207, 307]; // one per instance
        let r = c.run_closed_loop(4, Duration::from_millis(300), |t, seq| {
            let a = HOT[(t + seq as usize) % 4];
            let b = HOT[(t + seq as usize + 1 + seq as usize % 3) % 4];
            plan(&[a, b], StepOp::Update)
        });
        assert!(r.commits > 0 && r.distributed > 0, "{r:?}");
        assert_eq!(
            c.audit_sum().unwrap(),
            r.commits * 2,
            "committed writes must all be there (commits={}, aborts={})",
            r.commits,
            r.aborts
        );
        for i in 0..4 {
            let Backend::Executor(island) = c.instance(i) else {
                panic!("serial clusters are made of executors");
            };
            assert_eq!(island.lock_stats().unwrap().0, 0, "no lock was taken");
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
            // Through the engine surface a server fronts it by.
            let err = Session::submit(&mut client, &plan(&[999_999], StepOp::Update)).unwrap_err();
            assert!(matches!(err, ExecError::Rejected(ref m) if m.contains("999999")));
            assert!(matches!(
                Session::prepare(&mut client, 1, &plan(&[1], StepOp::Update)),
                Err(ExecError::NotAParticipant)
            ));
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
