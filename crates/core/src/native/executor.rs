//! Serial partition executors: a partition is a unit of mutual exclusion,
//! and the thread that receives a request runs it.
//!
//! The paper's fine-grained shared-nothing configurations win on local-only
//! workloads precisely because a partition that runs one transaction at a
//! time needs no latching or lock-manager traffic (§6.2, §7.1.1; the
//! H-Store-style design it benchmarks against makes serial per-partition
//! execution the fast path). A [`PartitionExecutor`] realizes that: it
//! builds a [`PartitionEngine`] with locking elided (`single_threaded:
//! true`) and puts it behind **one mutex**. An [`ExecutorSession`] call
//! takes that mutex and runs the transaction start-to-finish on the calling
//! thread — the session thread that decoded the frame — exactly as the
//! paper's single-threaded instance process runs the message it just
//! received. There is no executor
//! thread, no queue and no hand-off: an uncontended call costs one
//! compare-and-swap more than calling the engine directly.
//!
//! ## Why serial execution is correct without 2PL
//!
//! Holding the partition for a whole transaction makes two-phase locking
//! vacuous for the local fast path: transactions never interleave, so there
//! is nothing for locks to order. The one place concurrency re-enters is
//! **two-phase commit**: a prepared multisite branch must stay in-doubt
//! across Prepare→Decision while the partition keeps serving other
//! requests. The locked engine holds the branch's row locks for that
//! window; an engine built `single_threaded` has none, so its in-doubt
//! table keeps the branch's key set and the engine answers any conflicting
//! request the way wait-die would have — the newcomer aborts immediately (a
//! local submit reports `committed: false`, a conflicting prepare votes
//! No). The coordinator's verdict clears the key set, whether a `Decision`
//! frame brings it or, after the coordinator's connection died, a resolver
//! pass. This mirrors the locked engine exactly: there the in-doubt branch
//! is the *oldest* lock holder, so wait-die kills every conflicting
//! newcomer on first contact, too — which is what makes the two engines
//! trace-equivalent (see `tests/engine_differential.rs`).
//!
//! ## What the lock gives up, and when
//!
//! Sessions on different cores take turns on the partition, so its cache
//! lines follow whichever session thread ran last. On a one-core island —
//! the paper's finest grain, and what a pinned serial instance is — every
//! session thread shares that core and nothing moves. A session that panics
//! while holding the partition poisons the mutex: the transaction it was in
//! the middle of is unknowable, so every later call answers
//! [`ExecError::Gone`] instead of running on top of it.

use std::sync::{Arc, Mutex};

use islands_dtxn::Vote;
use islands_obs::{BreakdownCategory, Snapshot};
use islands_storage::StorageError;
use islands_workload::plan::PlanRequest;
use islands_workload::TxnRequest;

use super::engine::{PartitionConfig, PartitionEngine};
use super::in_doubt::{next_session_id, Bell};
use super::session::{DecideOutcome, Engine, ExecError, Session};
use super::SubmitOutcome;

/// How a partition instance executes its transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Shared-everything style: sessions execute concurrently, 2PL via the
    /// instance's lock manager.
    #[default]
    Locked,
    /// H-Store style: one transaction at a time per partition, no
    /// lock-table acquisition on the local fast path.
    Serial,
}

impl EngineMode {
    /// Stable CLI/report label.
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Locked => "locked",
            EngineMode::Serial => "serial",
        }
    }

    /// Parse the [`label`](Self::label) form back.
    pub fn parse(s: &str) -> Result<EngineMode, String> {
        match s {
            "locked" => Ok(EngineMode::Locked),
            "serial" => Ok(EngineMode::Serial),
            other => Err(format!("engine must be locked|serial, got {other}")),
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Construction knobs for a [`PartitionExecutor`].
#[derive(Debug, Clone, Default)]
pub struct ExecutorConfig {
    /// The partition the executor owns. `single_threaded` is forced on —
    /// serial ownership is the whole point.
    pub partition: PartitionConfig,
}

/// The partition lock and what it guards: the engine nobody else may
/// touch, `None` once the executor has shut down.
type Partition = Mutex<Option<PartitionEngine>>;

/// Take the partition and run `f` on it, on the calling thread. The
/// `queue_depth` gauge counts callers waiting for their turn.
fn hold<T>(partition: &Partition, f: impl FnOnce(&PartitionEngine) -> T) -> Result<T, ExecError> {
    islands_obs::with(|m| m.queue_depth.inc());
    let held = partition.lock();
    islands_obs::with(|m| m.queue_depth.dec());
    // Poisoned: a session panicked mid-transaction (see module docs).
    let held = held.map_err(|_| ExecError::Gone)?;
    let engine = held.as_ref().ok_or(ExecError::Gone)?;
    #[cfg(feature = "lockcheck")]
    let _owner = engine.lockcheck_claim();
    Ok(f(engine))
}

/// Handle to one partition in serial mode. Clone-free by design: share it
/// behind an [`Arc`] and mint one [`ExecutorSession`] per connection.
pub struct PartitionExecutor {
    partition: Arc<Partition>,
    /// The partition's in-doubt bell, shared so that waiting on it takes no
    /// partition lock.
    bell: Arc<Bell>,
}

impl PartitionExecutor {
    /// Build and load the partition's engine; the executor is serving when
    /// this returns.
    pub fn spawn(cfg: ExecutorConfig) -> Result<PartitionExecutor, StorageError> {
        let engine = PartitionEngine::build(&PartitionConfig {
            single_threaded: true,
            ..cfg.partition
        })?;
        Ok(PartitionExecutor {
            bell: Arc::clone(&engine.in_doubt.bell),
            partition: Arc::new(Mutex::new(Some(engine))),
        })
    }

    /// Mint a session. Each connection holds its own; the branches it
    /// prepares are parked under its id until it is dropped.
    pub fn session(&self) -> ExecutorSession {
        ExecutorSession {
            id: next_session_id(),
            partition: Arc::clone(&self.partition),
        }
    }

    /// Register the executor's partition into a deployment-wide `lockcheck`
    /// ownership scope (debug builds with `--features lockcheck` only).
    #[cfg(feature = "lockcheck")]
    pub fn set_lockcheck_scope(
        &self,
        scope: Arc<islands_storage::lockcheck::Scope>,
    ) -> Result<(), ExecError> {
        hold(&self.partition, |engine| engine.set_lockcheck_scope(scope))
    }

    /// Sum of the audit counters across the partition's rows (taken under
    /// the partition lock, so it observes a consistent point).
    pub fn audit_sum(&self) -> Result<u64, ExecError> {
        Ok(hold(&self.partition, |engine| engine.audit_sum())??)
    }

    /// `(acquires, waits, deadlock-kills)` of the partition's lock manager:
    /// all zero however much has run, which is what serial mode is for.
    pub fn lock_stats(&self) -> Result<(u64, u64, u64), ExecError> {
        hold(&self.partition, |engine| engine.instance().locks().stats())
    }

    /// [`PartitionEngine::ownerless_gtids`] of the partition.
    pub fn ownerless_gtids(&self) -> Result<Vec<u64>, ExecError> {
        hold(&self.partition, |engine| engine.ownerless_gtids())
    }

    /// Stop the executor: drop the engine, leaving any branch still parked
    /// in doubt in its WAL. Sessions that outlive it answer
    /// [`ExecError::Gone`].
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for PartitionExecutor {
    fn drop(&mut self) {
        // A poisoned partition is never touched again; what it holds is
        // freed with the last session. Otherwise dropping the engine leaves
        // whatever is still parked in doubt.
        if let Ok(mut partition) = self.partition.lock() {
            *partition = None;
        }
    }
}

impl Engine for PartitionExecutor {
    /// Serial execution never contends, so the retry budget is moot.
    fn session(&self, _retry_limit: u32) -> Box<dyn Session + '_> {
        Box::new(PartitionExecutor::session(self))
    }

    fn audit_sum(&self) -> Result<u64, ExecError> {
        PartitionExecutor::audit_sum(self)
    }

    fn ownerless_gtids(&self) -> Result<Vec<u64>, ExecError> {
        PartitionExecutor::ownerless_gtids(self)
    }

    fn bell(&self) -> &Bell {
        &self.bell
    }

    /// A poisoned partition reports nothing.
    fn observe(&self, snap: &mut Snapshot) {
        let _ = hold(&self.partition, |engine| engine.observe(snap));
    }
}

/// One connection's turn-taking handle on a [`PartitionExecutor`]. Every
/// call takes the partition lock and runs on the calling thread.
pub struct ExecutorSession {
    id: u64,
    partition: Arc<Partition>,
}

impl ExecutorSession {
    /// [`submit_plan`](Self::submit_plan) for a micro batch.
    pub fn submit(&self, req: &TxnRequest) -> Result<SubmitOutcome, ExecError> {
        self.submit_plan(&req.to_plan())
    }

    /// [`prepare_plan`](Self::prepare_plan) for a micro batch.
    pub fn prepare(&self, gtid: u64, req: &TxnRequest) -> Result<Vote, ExecError> {
        self.prepare_plan(gtid, &req.to_plan())
    }

    /// Execute one fully-local plan serially on the partition.
    ///
    /// A plan touching a row some in-doubt branch covers (range reads
    /// expanded) reports `committed: false` immediately — the same outcome
    /// wait-die hands a conflicting newcomer under the locked engine.
    pub fn submit_plan(&self, plan: &PlanRequest) -> Result<SubmitOutcome, ExecError> {
        Ok(hold(&self.partition, |engine| {
            let _span = islands_obs::enter(BreakdownCategory::XctManagement);
            // Lock-free engine: contention errors cannot occur, so the
            // retry budget is moot.
            engine.submit_plan_local(plan, 0)
        })??)
    }

    /// Execute one 2PC branch and run participant phase 1 on the partition.
    /// `Ok(Vote::Yes)` parks the branch with its full `(table, key)`
    /// footprint, dependent reads included, so conflicting work aborts
    /// until [`decide`](Self::decide), from any session, settles it.
    pub fn prepare_plan(&self, gtid: u64, plan: &PlanRequest) -> Result<Vote, ExecError> {
        hold(&self.partition, |engine| {
            let _span = islands_obs::enter(BreakdownCategory::XctManagement);
            engine.prepare_parked(self.id, gtid, plan)
        })?
    }

    /// Apply a coordinator decision to the in-doubt branch with this gtid.
    pub fn decide(&self, gtid: u64, commit: bool) -> Result<DecideOutcome, ExecError> {
        hold(&self.partition, |engine| {
            let _span = islands_obs::enter(BreakdownCategory::XctManagement);
            engine.in_doubt.decide(gtid, commit)
        })
    }
}

impl Drop for ExecutorSession {
    /// What it parked stays parked, owned by nobody.
    fn drop(&mut self) {
        let _ = hold(&self.partition, |engine| engine.in_doubt.disown(self.id));
    }
}

impl Session for ExecutorSession {
    fn submit(&mut self, plan: &PlanRequest) -> Result<SubmitOutcome, ExecError> {
        self.submit_plan(plan)
    }

    fn prepare(&mut self, gtid: u64, plan: &PlanRequest) -> Result<Vote, ExecError> {
        self.prepare_plan(gtid, plan)
    }

    fn decide(&mut self, gtid: u64, commit: bool) -> Result<DecideOutcome, ExecError> {
        ExecutorSession::decide(self, gtid, commit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_workload::OpKind;

    fn executor() -> PartitionExecutor {
        PartitionExecutor::spawn(ExecutorConfig {
            partition: PartitionConfig {
                lo: 100,
                hi: 200,
                row_size: 16,
                buffer_frames: 256,
                ..Default::default()
            },
        })
        .unwrap()
    }

    fn update(keys: &[u64]) -> TxnRequest {
        TxnRequest {
            kind: OpKind::Update,
            keys: keys.to_vec(),
            multisite: false,
        }
    }

    #[test]
    fn serial_submit_commits_without_locks() {
        let e = executor();
        let s = e.session();
        let out = s.submit(&update(&[100, 150, 199])).unwrap();
        assert!(out.committed);
        assert_eq!(out.retries, 0);
        assert_eq!(e.audit_sum().unwrap(), 3);
    }

    #[test]
    fn misrouted_keys_are_errors_not_writes() {
        let e = executor();
        let s = e.session();
        assert!(matches!(
            s.submit(&update(&[99])),
            Err(ExecError::Storage(StorageError::KeyNotFound(99)))
        ));
        assert!(matches!(
            s.prepare(1, &update(&[200])),
            Err(ExecError::Storage(StorageError::KeyNotFound(200)))
        ));
        assert_eq!(e.audit_sum().unwrap(), 0);
    }

    #[test]
    fn in_doubt_branch_aborts_conflicting_work_until_decided() {
        let e = executor();
        let s = e.session();
        assert!(matches!(s.prepare(7, &update(&[110])), Ok(Vote::Yes)));
        // Conflicting local submit: immediate abort, like wait-die.
        let blocked = s.submit(&update(&[110, 111])).unwrap();
        assert!(!blocked.committed);
        // Conflicting prepare of another gtid: votes No.
        assert!(matches!(s.prepare(8, &update(&[110])), Ok(Vote::No)));
        // Non-conflicting work flows freely.
        assert!(s.submit(&update(&[150])).unwrap().committed);
        // Decision releases the keys.
        assert!(matches!(s.decide(7, true), Ok(DecideOutcome::Applied)));
        assert!(s.submit(&update(&[110])).unwrap().committed);
        assert_eq!(e.audit_sum().unwrap(), 3);
    }

    #[test]
    fn abort_decision_undoes_the_branch() {
        let e = executor();
        let s = e.session();
        assert!(matches!(s.prepare(9, &update(&[120])), Ok(Vote::Yes)));
        assert!(matches!(s.decide(9, false), Ok(DecideOutcome::Applied)));
        assert_eq!(e.audit_sum().unwrap(), 0);
    }

    #[test]
    fn decisions_for_unknown_gtids_follow_presumed_abort() {
        let e = executor();
        let s = e.session();
        assert!(matches!(s.decide(42, false), Ok(DecideOutcome::AbortNoop)));
        assert!(matches!(
            s.decide(42, true),
            Ok(DecideOutcome::UnknownCommit)
        ));
    }

    #[test]
    fn duplicate_gtid_prepare_is_rejected() {
        let e = executor();
        let s = e.session();
        assert!(matches!(s.prepare(5, &update(&[130])), Ok(Vote::Yes)));
        assert!(matches!(
            s.prepare(5, &update(&[131])),
            Err(ExecError::DuplicateGtid(5))
        ));
        assert!(matches!(s.decide(5, false), Ok(DecideOutcome::Applied)));
    }

    #[test]
    fn a_dropped_sessions_branches_stay_parked_until_decided() {
        let e = executor();
        let dying = e.session();
        let surviving = e.session();
        assert!(matches!(dying.prepare(1, &update(&[110])), Ok(Vote::Yes)));
        assert!(matches!(dying.prepare(2, &update(&[111])), Ok(Vote::Yes)));
        assert!(matches!(
            surviving.prepare(3, &update(&[112])),
            Ok(Vote::Yes)
        ));
        let rung = e.bell.rung();
        drop(dying);
        assert_eq!(e.bell.rung(), rung + 1, "the drop rings the bell once");
        // A Yes vote binds: both branches stay parked, owned by nobody, and
        // still guard their keys, as the survivor's does.
        assert_eq!(e.ownerless_gtids().unwrap(), [1, 2]);
        for key in [110, 111, 112] {
            assert!(!e.session().submit(&update(&[key])).unwrap().committed);
        }
        // Decisions on another session settle them.
        let decider = e.session();
        assert!(matches!(
            decider.decide(1, true),
            Ok(DecideOutcome::Applied)
        ));
        assert!(matches!(
            decider.decide(2, false),
            Ok(DecideOutcome::Applied)
        ));
        assert!(matches!(
            surviving.decide(3, true),
            Ok(DecideOutcome::Applied)
        ));
        assert!(e.ownerless_gtids().unwrap().is_empty());
        assert_eq!(e.audit_sum().unwrap(), 2);
    }

    #[test]
    fn decisions_apply_across_sessions() {
        // A coordinator that reconnects decides on a fresh connection; the
        // branch is executor-global, so the decision still lands.
        let e = executor();
        let preparer = e.session();
        assert!(matches!(
            preparer.prepare(6, &update(&[140])),
            Ok(Vote::Yes)
        ));
        let decider = e.session();
        assert!(matches!(
            decider.decide(6, true),
            Ok(DecideOutcome::Applied)
        ));
        let rung = e.bell.rung();
        drop(preparer);
        assert_eq!(e.bell.rung(), rung, "branch already decided elsewhere");
        assert_eq!(e.audit_sum().unwrap(), 1);
    }

    #[test]
    fn engine_mode_round_trips_its_labels() {
        for mode in [EngineMode::Locked, EngineMode::Serial] {
            assert_eq!(EngineMode::parse(mode.label()), Ok(mode));
        }
        assert!(EngineMode::parse("turbo").is_err());
        assert_eq!(EngineMode::default(), EngineMode::Locked);
    }

    #[test]
    fn shutdown_rolls_back_orphaned_branches() {
        let e = executor();
        let s = e.session();
        assert!(matches!(s.prepare(11, &update(&[160])), Ok(Vote::Yes)));
        // Leak the session and shut the executor down: the branch is left
        // in doubt, and must not survive as a committed write.
        std::mem::forget(s);
        e.shutdown();
    }

    #[test]
    fn sessions_on_many_threads_take_turns_on_the_partition() {
        // The partition lock is the only thing between 8 session threads
        // and a lock-free engine: every committed write must be counted
        // exactly once, 2PC branches included, and nobody may see `Gone`.
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 2_000;
        let e = Arc::new(executor());
        let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let metrics = Arc::new(islands_obs::Metrics::new());
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (e, start) = (Arc::clone(&e), Arc::clone(&start));
                let metrics = Arc::clone(&metrics);
                std::thread::spawn(move || {
                    let _scope = islands_obs::scope(&metrics);
                    let s = e.session();
                    let mut written = 0u64;
                    start.wait();
                    for i in 0..ROUNDS {
                        // 4 shared keys, so in-doubt footprints do abort
                        // other threads' work.
                        let key = 100 + (t + i) % 4;
                        if i % 8 == 0 {
                            let gtid = t * ROUNDS + i;
                            let commit = i % 16 == 0;
                            if s.prepare(gtid, &update(&[key])).unwrap() == Vote::Yes {
                                let decided = s.decide(gtid, commit).unwrap();
                                assert_eq!(decided, DecideOutcome::Applied);
                                written += commit as u64;
                            }
                        } else if s.submit(&update(&[key])).unwrap().committed {
                            written += 1;
                        }
                    }
                    written
                })
            })
            .collect();
        let written: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        // How many attempts an in-doubt footprint aborted is up to the
        // scheduler; that every committed one is counted once is not.
        assert!(written > 0);
        assert_eq!(e.audit_sum().unwrap(), written);
        // Nobody is left waiting for the partition.
        assert_eq!(metrics.queue_depth.get(), 0);
    }

    #[test]
    fn a_session_that_dies_holding_the_partition_leaves_it_gone() {
        let e = executor();
        let survivor = e.session();
        assert!(survivor.submit(&update(&[110])).unwrap().committed);
        let partition = Arc::clone(&e.partition);
        let died = std::thread::spawn(move || {
            let _held = partition.lock().unwrap();
            panic!("session died mid-transaction");
        })
        .join();
        assert!(died.is_err());
        // Typed errors from every entry point: no hang, no second panic.
        assert!(matches!(
            survivor.submit(&update(&[111])),
            Err(ExecError::Gone)
        ));
        assert!(matches!(
            survivor.prepare(1, &update(&[112])),
            Err(ExecError::Gone)
        ));
        assert!(matches!(survivor.decide(1, true), Err(ExecError::Gone)));
        assert!(matches!(
            e.session().submit(&update(&[113])),
            Err(ExecError::Gone)
        ));
        assert!(matches!(e.audit_sum(), Err(ExecError::Gone)));
        assert!(matches!(e.ownerless_gtids(), Err(ExecError::Gone)));
        drop(survivor);
        e.shutdown();
    }

    #[cfg(feature = "lockcheck")]
    #[test]
    #[should_panic(expected = "lockcheck: cross-thread access")]
    fn a_handle_used_outside_the_partition_lock_is_caught() {
        let e = executor();
        let mut txn = hold(&e.partition, |engine| engine.instance().begin()).unwrap();
        // Same thread, but the partition is no longer held: any other
        // session may be running a transaction on it right now.
        let _ = txn.read(crate::native::MICRO_TABLE_NAME, 110);
    }

    #[test]
    fn sessions_outliving_the_executor_answer_gone() {
        let e = executor();
        let s = e.session();
        e.shutdown();
        assert!(matches!(s.submit(&update(&[110])), Err(ExecError::Gone)));
    }

    fn tpcc_executor() -> PartitionExecutor {
        use super::super::engine::TpccPartition;
        PartitionExecutor::spawn(ExecutorConfig {
            partition: PartitionConfig {
                buffer_frames: 8192,
                tpcc: Some(TpccPartition {
                    warehouses: 2,
                    w_lo: 0,
                    w_hi: 1,
                }),
                ..Default::default()
            },
        })
        .unwrap()
    }

    #[test]
    fn serial_executor_runs_tpcc_plans() {
        use islands_workload::tpcc;
        let e = tpcc_executor();
        let s = e.session();
        let order = tpcc::NewOrder {
            w_id: 0,
            d_id: 2,
            c_id: 5,
            items: vec![10, 20],
        };
        let out = s.submit_plan(&order.plan(3)).unwrap();
        assert!(out.committed);
        // District + 2 stock updates + order insert.
        assert_eq!(e.audit_sum().unwrap(), 4);
    }

    #[test]
    fn parked_plan_branch_guards_its_dependent_reads_per_table() {
        use islands_workload::plan::{PlanClass, PlanRequest, PlanStep, StepOp, TPCC_CUSTOMER};
        use islands_workload::tpcc;
        let e = tpcc_executor();
        let s = e.session();
        // Remote-payment customer-side branch: dependent scan of customers
        // 16..20 plus the customer update, parked in-doubt.
        let branch = PlanRequest {
            class: PlanClass::Payment,
            multisite: true,
            steps: vec![
                PlanStep::range(TPCC_CUSTOMER, tpcc::customer_key(0, 1, 16), 4),
                PlanStep::point(TPCC_CUSTOMER, tpcc::customer_key(0, 1, 17), StepOp::Update),
            ],
        };
        assert!(matches!(s.prepare_plan(21, &branch), Ok(Vote::Yes)));
        // A plan touching a *scanned* row conflicts and aborts immediately.
        let scanned = PlanRequest {
            class: PlanClass::Generic,
            multisite: false,
            steps: vec![PlanStep::point(
                TPCC_CUSTOMER,
                tpcc::customer_key(0, 1, 19),
                StepOp::Update,
            )],
        };
        assert!(!s.submit_plan(&scanned).unwrap().committed);
        // The same row number in a *different table* does not conflict.
        let other_table = tpcc::NewOrder {
            w_id: 0,
            d_id: 1,
            c_id: 40,
            items: vec![19],
        };
        assert!(s.submit_plan(&other_table.plan(8)).unwrap().committed);
        // Decision releases the footprint.
        assert!(matches!(s.decide(21, true), Ok(DecideOutcome::Applied)));
        assert!(s.submit_plan(&scanned).unwrap().committed);
    }

    #[test]
    fn restart_replay_parks_branches_resolvable_through_decide() {
        let path = std::env::temp_dir().join(format!(
            "islands-exec-wal-{}-restart.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let partition = PartitionConfig {
            lo: 100,
            hi: 200,
            row_size: 16,
            buffer_frames: 256,
            wal: Some(path.clone()),
            ..Default::default()
        };
        // First incarnation prepares a branch and "crashes" (the forgotten
        // handle never logs a decision, like kill -9 after Prepare-ack).
        {
            let eng = PartitionEngine::build(&PartitionConfig {
                single_threaded: true,
                ..partition.clone()
            })
            .unwrap();
            let crate::native::BranchOutcome::Prepared(handle) =
                eng.prepare_branch(77, &update(&[150])).unwrap()
            else {
                panic!("writer branch must prepare");
            };
            std::mem::forget(handle);
        }
        let e2 = PartitionExecutor::spawn(ExecutorConfig { partition }).unwrap();
        assert_eq!(e2.ownerless_gtids().unwrap(), vec![77]);
        let s = e2.session();
        // The recovered branch guards its key against new work.
        assert!(!s.submit(&update(&[150])).unwrap().committed);
        assert!(matches!(s.prepare(78, &update(&[150])), Ok(Vote::No)));
        // A normal decision resolves it through the executor.
        assert!(matches!(s.decide(77, true), Ok(DecideOutcome::Applied)));
        assert!(e2.ownerless_gtids().unwrap().is_empty());
        assert_eq!(e2.audit_sum().unwrap(), 1);
        assert!(s.submit(&update(&[150])).unwrap().committed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn misrouted_plans_are_typed_errors_on_the_executor() {
        use islands_workload::tpcc;
        let e = tpcc_executor();
        let s = e.session();
        // Warehouse 1 belongs to the other instance.
        let foreign = tpcc::NewOrder {
            w_id: 1,
            d_id: 0,
            c_id: 0,
            items: vec![1],
        };
        assert!(matches!(
            s.submit_plan(&foreign.plan(1 << 32)),
            Err(ExecError::Storage(StorageError::KeyNotFound(_)))
        ));
        assert_eq!(e.audit_sum().unwrap(), 0);
    }
}
