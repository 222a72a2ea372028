//! Serial partition executors: one pinned thread owns one partition and
//! executes local transactions with **no lock-table acquisition**.
//!
//! The paper's fine-grained shared-nothing configurations win on local-only
//! workloads precisely because a partition owned by a single thread needs no
//! latching or lock-manager traffic (§6.2, §7.1.1; the H-Store-style design
//! it benchmarks against makes serial per-partition execution the fast
//! path). A [`PartitionExecutor`] realizes that: it spawns one dedicated
//! thread (optionally pinned to a `taskset`-style cpu list from `hwtopo`),
//! builds a [`PartitionEngine`] with locking elided
//! (`single_threaded: true`), and drains a **bounded MPSC queue** of
//! requests. Server sessions become producers — they enqueue decoded
//! requests with a completion slot instead of executing inline — so the
//! number of client connections is decoupled from the number of execution
//! threads.
//!
//! ## Why serial execution is correct without 2PL
//!
//! Single-owner execution makes two-phase locking vacuous for the local
//! fast path: every transaction runs start-to-finish on the executor
//! thread, so there is no interleaving for locks to order. The one place
//! concurrency re-enters is **two-phase commit**: a prepared multisite
//! branch must stay in-doubt across Prepare→Decision while the executor
//! keeps serving other requests. The locked engine holds the branch's row
//! locks for that window; the executor instead remembers the branch's key
//! set and answers any conflicting request the way wait-die would have —
//! the newcomer aborts immediately (a local submit reports
//! `committed: false`, a conflicting prepare votes No). The coordinator's
//! decision (or the presumed-abort rule when its connection dies) clears
//! the key set. This mirrors the locked engine exactly: there the in-doubt
//! branch is the *oldest* lock holder, so wait-die kills every conflicting
//! newcomer on first contact, too — which is what makes the two engines
//! trace-equivalent (see `tests/engine_differential.rs`).
//!
//! ## Queue sizing
//!
//! The queue is a bounded [`std::sync::mpsc::sync_channel`]: when
//! `queue_depth` requests are already waiting, producers block in `send`,
//! which is exactly the backpressure a saturated partition should exert on
//! its sessions. Depth trades memory and burst absorption against how far
//! offered load can run ahead of a stalled executor; the default of 1024
//! comfortably covers every session's pipeline window at the server's
//! default batch size.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

use islands_dtxn::Vote;
use islands_obs::{metrics, BreakdownCategory, TxnClass};
use islands_storage::{StorageError, TxnHandle};
use islands_workload::plan::PlanRequest;
use islands_workload::TxnRequest;

use super::engine::{BranchOutcome, PartitionConfig, PartitionEngine};
use super::session::{DecideOutcome, Engine, ExecError, Session};
use super::SubmitOutcome;

/// How a partition instance executes its transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Shared-everything style: sessions execute inline, 2PL via the
    /// instance's lock manager.
    #[default]
    Locked,
    /// H-Store style: one dedicated executor thread per partition, serial
    /// execution, no lock-table acquisition on the local fast path.
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
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// The partition the executor owns. `single_threaded` is forced on —
    /// serial ownership is the whole point.
    pub partition: PartitionConfig,
    /// Bounded request-queue depth; full queues block producers (see module
    /// docs on queue sizing).
    pub queue_depth: usize,
    /// `taskset`-style cpu list to pin the executor thread to (via the
    /// `hwtopo` core lists of the deployment layer). `None` inherits the
    /// process affinity — in a spawned deployment the child process is
    /// already pinned to its island.
    pub pin_cpus: Option<String>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            partition: PartitionConfig::default(),
            queue_depth: 1024,
            pin_cpus: None,
        }
    }
}

/// One prepared, in-doubt 2PC branch parked on the executor.
struct Branch {
    handle: TxnHandle,
    /// Producer session that prepared it (the presumed-abort scope).
    session: u64,
    /// `(table, key)` pairs the branch wrote/read (range reads expanded):
    /// the executor's stand-in for the locks the branch would hold under
    /// 2PL.
    keys: Vec<(u32, u64)>,
    /// When the branch went in-doubt (Prepare→Decision parked time).
    parked_at: Instant,
}

/// Retire an in-doubt branch for observability: drop the gauge and record
/// how long it sat parked between Prepare and the decision.
fn retire_branch(b: &Branch) {
    metrics().in_doubt().dec();
    metrics().record_parked(b.parked_at.elapsed().as_nanos() as u64);
}

enum Job {
    Submit {
        plan: PlanRequest,
        done: SyncSender<Result<SubmitOutcome, StorageError>>,
    },
    Prepare {
        session: u64,
        gtid: u64,
        plan: PlanRequest,
        done: SyncSender<Result<Vote, ExecError>>,
    },
    Decide {
        gtid: u64,
        commit: bool,
        done: SyncSender<DecideOutcome>,
    },
    /// A producer session ended; presume-abort every branch it prepared.
    /// Replies with the number of branches rolled back.
    SessionClosed {
        session: u64,
        done: SyncSender<u64>,
    },
    AuditSum {
        done: SyncSender<Result<u64, StorageError>>,
    },
    /// Gtids of in-doubt branches the engine re-parked during restart
    /// replay (each resolves through a normal `Decide`).
    RecoveredGtids {
        done: SyncSender<Vec<u64>>,
    },
    /// Register the engine into a `lockcheck` ownership scope (runs on the
    /// executor thread like everything else that touches the engine).
    #[cfg(feature = "lockcheck")]
    SetLockcheckScope {
        scope: std::sync::Arc<islands_storage::lockcheck::Scope>,
        done: SyncSender<()>,
    },
    Shutdown,
}

/// Handle to one partition's serial executor. Clone-free by design: share
/// it behind an [`Arc`](std::sync::Arc) and mint one [`ExecutorSession`]
/// per producer.
pub struct PartitionExecutor {
    tx: SyncSender<Job>,
    join: Option<std::thread::JoinHandle<()>>,
    next_session: AtomicU64,
    range: (u64, u64),
    pinned: bool,
}

impl PartitionExecutor {
    /// Spawn the executor thread, pin it (best effort), build the engine on
    /// it, and wait until the partition is loaded and serving.
    pub fn spawn(cfg: ExecutorConfig) -> Result<PartitionExecutor, StorageError> {
        assert!(cfg.queue_depth >= 1, "executor queue needs a slot");
        let (tx, rx) = sync_channel::<Job>(cfg.queue_depth);
        let (ready_tx, ready_rx) = sync_channel::<Result<bool, StorageError>>(1);
        let range = (cfg.partition.lo, cfg.partition.hi);
        let join = std::thread::Builder::new()
            .name("islands-exec".into())
            .spawn(move || {
                let pinned = cfg
                    .pin_cpus
                    .as_deref()
                    .map(pin_current_thread)
                    .unwrap_or(false);
                let pcfg = PartitionConfig {
                    single_threaded: true,
                    ..cfg.partition
                };
                match PartitionEngine::build(&pcfg) {
                    Ok(engine) => {
                        let _ = ready_tx.send(Ok(pinned));
                        serve(&engine, &rx);
                    }
                    Err(e) => {
                        let _ = ready_tx.send(Err(e));
                    }
                }
            })?;
        let pinned = ready_rx.recv().unwrap_or(Err(StorageError::CorruptCatalog(
            "executor thread died before ready".into(),
        )))?;
        Ok(PartitionExecutor {
            tx,
            join: Some(join),
            next_session: AtomicU64::new(1),
            range,
            pinned,
        })
    }

    /// The key range `[lo, hi)` this executor's partition owns.
    pub fn range(&self) -> (u64, u64) {
        self.range
    }

    /// Whether the executor thread was actually pinned.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// Mint a producer session. Each connection/producer holds its own; the
    /// session id scopes the presumed-abort rule for branches it prepares.
    pub fn session(&self) -> ExecutorSession {
        ExecutorSession {
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            tx: self.tx.clone(),
            closed: false,
        }
    }

    /// Register the executor's partition into a deployment-wide `lockcheck`
    /// ownership scope (debug builds with `--features lockcheck` only).
    #[cfg(feature = "lockcheck")]
    pub fn set_lockcheck_scope(
        &self,
        scope: std::sync::Arc<islands_storage::lockcheck::Scope>,
    ) -> Result<(), ExecError> {
        call(&self.tx, |done| Job::SetLockcheckScope { scope, done })
    }

    /// Sum of the audit counters across the partition's rows (serialized
    /// through the queue, so it observes a consistent point).
    pub fn audit_sum(&self) -> Result<u64, ExecError> {
        Ok(call(&self.tx, |done| Job::AuditSum { done })??)
    }

    /// Gtids of in-doubt branches restart replay re-parked on the engine,
    /// still awaiting a coordinator decision. Resolve each with
    /// [`ExecutorSession::decide`] — the decision falls through to the
    /// recovered branch when no live branch holds the gtid.
    pub fn recovered_gtids(&self) -> Result<Vec<u64>, ExecError> {
        call(&self.tx, |done| Job::RecoveredGtids { done })
    }

    /// Stop the executor: drain the queue up to this point, presume-abort
    /// any branch still in-doubt, and join the thread.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for PartitionExecutor {
    fn drop(&mut self) {
        if let Some(h) = self.join.take() {
            let _ = enqueue(&self.tx, Job::Shutdown);
            let _ = h.join();
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

    fn recovered_gtids(&self) -> Result<Vec<u64>, ExecError> {
        PartitionExecutor::recovered_gtids(self)
    }
}

/// Enqueue one job, counting it into the queue-depth gauge; the serve loop
/// counts it back out when it dequeues.
fn enqueue(tx: &SyncSender<Job>, job: Job) -> Result<(), ExecError> {
    metrics().queue_depth().inc();
    tx.send(job).map_err(|_| {
        metrics().queue_depth().dec();
        ExecError::Gone
    })
}

/// Enqueue the job `make` builds around a completion slot and block until
/// the executor thread fills the slot (enqueue + rendezvous).
fn call<T>(tx: &SyncSender<Job>, make: impl FnOnce(SyncSender<T>) -> Job) -> Result<T, ExecError> {
    let (done, wait) = sync_channel(1);
    enqueue(tx, make(done))?;
    wait.recv().map_err(|_| ExecError::Gone)
}

/// One producer's channel to a [`PartitionExecutor`]. Calls block until the
/// executor answers (enqueue + rendezvous), which keeps the producer's
/// request pipeline depth bounded by the executor queue.
pub struct ExecutorSession {
    id: u64,
    tx: SyncSender<Job>,
    closed: bool,
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

    /// Execute one fully-local plan serially on the executor.
    ///
    /// A plan touching a row some in-doubt branch covers (range reads
    /// expanded) reports `committed: false` immediately — the same outcome
    /// wait-die hands a conflicting newcomer under the locked engine.
    pub fn submit_plan(&self, plan: &PlanRequest) -> Result<SubmitOutcome, ExecError> {
        let plan = plan.clone();
        Ok(call(&self.tx, |done| Job::Submit { plan, done })??)
    }

    /// Execute one 2PC branch and run participant phase 1 on the executor.
    /// `Ok(Vote::Yes)` parks the branch with its full `(table, key)`
    /// footprint, dependent reads included, so conflicting work aborts
    /// until [`decide`](Self::decide) (from any session) or this session's
    /// close presumed-aborts it.
    pub fn prepare_plan(&self, gtid: u64, plan: &PlanRequest) -> Result<Vote, ExecError> {
        let (session, plan) = (self.id, plan.clone());
        call(&self.tx, |done| Job::Prepare {
            session,
            gtid,
            plan,
            done,
        })?
    }

    /// Apply a coordinator decision to the in-doubt branch with this gtid.
    pub fn decide(&self, gtid: u64, commit: bool) -> Result<DecideOutcome, ExecError> {
        call(&self.tx, |done| Job::Decide { gtid, commit, done })
    }

    /// End the session: every branch it prepared that is still in-doubt is
    /// rolled back (presumed abort — the coordinator's connection is gone).
    /// Returns how many branches were rolled back. Idempotent.
    pub fn close(&mut self) -> u64 {
        if self.closed {
            return 0;
        }
        self.closed = true;
        let session = self.id;
        call(&self.tx, |done| Job::SessionClosed { session, done }).unwrap_or(0)
    }
}

impl Drop for ExecutorSession {
    fn drop(&mut self) {
        let _ = self.close();
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

    fn close(&mut self) -> u64 {
        ExecutorSession::close(self)
    }
}

/// Whether `plan` touches a row some in-doubt branch's footprint covers.
/// Branch counts are small (one per outstanding 2PC transaction on this
/// partition), so a linear scan beats maintaining an index — and with
/// nothing parked, the common case, it is no work at all.
fn conflicts(branches: &HashMap<u64, Branch>, plan: &PlanRequest) -> bool {
    branches.values().any(|b| plan.conflicts_with(&b.keys))
}

/// The executor thread's serve loop: drain jobs until shutdown, then
/// presume-abort any branch still parked.
fn serve(engine: &PartitionEngine, rx: &Receiver<Job>) {
    let mut branches: HashMap<u64, Branch> = HashMap::new();
    while let Ok(job) = rx.recv() {
        metrics().queue_depth().dec();
        match job {
            Job::Submit { plan, done } => {
                islands_obs::set_txn_class(if plan.multisite {
                    TxnClass::Multisite
                } else {
                    TxnClass::Local
                });
                let _span = islands_obs::enter(BreakdownCategory::XctManagement);
                let outcome = if conflicts(&branches, &plan) {
                    // Rows held by an in-doubt branch: abort now, exactly as
                    // wait-die would kill the younger conflicting txn.
                    engine.check_plan(&plan).map(|()| SubmitOutcome {
                        committed: false,
                        distributed: false,
                        retries: 0,
                    })
                } else {
                    // Lock-free engine: contention errors cannot occur, so
                    // the retry budget is moot.
                    engine.submit_plan_local(&plan, 0)
                };
                let _ = done.send(outcome);
            }
            Job::Prepare {
                session,
                gtid,
                plan,
                done,
            } => {
                islands_obs::set_txn_class(TxnClass::Multisite);
                let _span = islands_obs::enter(BreakdownCategory::XctManagement);
                let reply = if branches.contains_key(&gtid) {
                    Err(ExecError::DuplicateGtid(gtid))
                } else if conflicts(&branches, &plan) {
                    engine
                        .check_plan(&plan)
                        .map(|()| Vote::No)
                        .map_err(ExecError::Storage)
                } else {
                    match engine.prepare_plan_branch(gtid, &plan) {
                        Ok(BranchOutcome::Prepared(handle)) => {
                            metrics().in_doubt().inc();
                            branches.insert(
                                gtid,
                                Branch {
                                    handle,
                                    session,
                                    keys: plan.conflict_keys(),
                                    parked_at: Instant::now(),
                                },
                            );
                            Ok(Vote::Yes)
                        }
                        Ok(BranchOutcome::ReadOnly) => Ok(Vote::ReadOnly),
                        Ok(BranchOutcome::No) => Ok(Vote::No),
                        Err(e) => Err(ExecError::Storage(e)),
                    }
                };
                let _ = done.send(reply);
            }
            Job::Decide { gtid, commit, done } => {
                islands_obs::set_txn_class(TxnClass::Multisite);
                let _span = islands_obs::enter(BreakdownCategory::XctManagement);
                let outcome = match branches.remove(&gtid) {
                    Some(b) => {
                        retire_branch(&b);
                        match b.handle.decide(commit) {
                            Ok(()) => DecideOutcome::Applied,
                            Err(e) => DecideOutcome::Failed(e.to_string()),
                        }
                    }
                    None => engine.decide_recovered(gtid, commit),
                };
                let _ = done.send(outcome);
            }
            Job::SessionClosed { session, done } => {
                let doomed: Vec<u64> = branches
                    .iter()
                    .filter(|(_, b)| b.session == session)
                    .map(|(&g, _)| g)
                    .collect();
                let mut aborted = 0u64;
                for gtid in doomed {
                    if let Some(b) = branches.remove(&gtid) {
                        retire_branch(&b);
                        let _ = b.handle.decide(false);
                        aborted += 1;
                    }
                }
                let _ = done.send(aborted);
            }
            Job::AuditSum { done } => {
                let _ = done.send(engine.audit_sum());
            }
            Job::RecoveredGtids { done } => {
                let _ = done.send(engine.recovered_gtids());
            }
            #[cfg(feature = "lockcheck")]
            Job::SetLockcheckScope { scope, done } => {
                engine.set_lockcheck_scope(scope);
                let _ = done.send(());
            }
            Job::Shutdown => break,
        }
    }
    // Anything still in-doubt at shutdown has no coordinator left to decide
    // it: presumed abort releases the partition's state cleanly.
    for (_, b) in branches.drain() {
        retire_branch(&b);
        let _ = b.handle.decide(false);
    }
}

/// Best-effort pin of the calling thread to a `taskset`-style cpu list.
///
/// There is no libc binding in this workspace, so the pin goes through the
/// same tool the deployment layer uses for child processes: `taskset -p`
/// against the thread id read from `/proc/thread-self/stat` (Linux-only;
/// anywhere that file or the tool is missing, the thread simply runs
/// unpinned and we report so).
fn pin_current_thread(cpus: &str) -> bool {
    let Some(tid) = std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_owned))
    else {
        return false;
    };
    std::process::Command::new("taskset")
        .args(["-p", "-c", cpus, &tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
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
            ..Default::default()
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
    fn session_close_presumed_aborts_its_branches_only() {
        let e = executor();
        let mut dying = e.session();
        let surviving = e.session();
        assert!(matches!(dying.prepare(1, &update(&[110])), Ok(Vote::Yes)));
        assert!(matches!(dying.prepare(2, &update(&[111])), Ok(Vote::Yes)));
        assert!(matches!(
            surviving.prepare(3, &update(&[112])),
            Ok(Vote::Yes)
        ));
        assert_eq!(dying.close(), 2, "both of the dying session's branches");
        assert_eq!(dying.close(), 0, "close is idempotent");
        // The dying session's writes were rolled back; the survivor's
        // branch is still in-doubt and still guards its key.
        assert!(!e.session().submit(&update(&[112])).unwrap().committed);
        assert!(matches!(
            surviving.decide(3, true),
            Ok(DecideOutcome::Applied)
        ));
        assert_eq!(e.audit_sum().unwrap(), 1);
    }

    #[test]
    fn decisions_apply_across_sessions() {
        // A coordinator that reconnects decides on a fresh connection; the
        // branch is executor-global, so the decision still lands.
        let e = executor();
        let mut preparer = e.session();
        assert!(matches!(
            preparer.prepare(6, &update(&[140])),
            Ok(Vote::Yes)
        ));
        let decider = e.session();
        assert!(matches!(
            decider.decide(6, true),
            Ok(DecideOutcome::Applied)
        ));
        assert_eq!(preparer.close(), 0, "branch already decided elsewhere");
        assert_eq!(e.audit_sum().unwrap(), 1);
    }

    #[test]
    fn pinned_executor_reports_its_pin_and_still_serves() {
        // The deployment layer hands serial instance children their island
        // cpu list; the executor thread pins itself to it via taskset -p.
        // Where the tool works, spawn must report the pin; either way the
        // executor serves normally.
        let taskset_works = std::process::Command::new("taskset")
            .arg("-V")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        let e = PartitionExecutor::spawn(ExecutorConfig {
            partition: PartitionConfig {
                lo: 0,
                hi: 100,
                row_size: 16,
                buffer_frames: 256,
                ..Default::default()
            },
            pin_cpus: Some("0".into()),
            ..Default::default()
        })
        .unwrap();
        if taskset_works {
            assert!(e.pinned(), "taskset works but the executor did not pin");
        }
        assert!(e.session().submit(&update(&[50])).unwrap().committed);
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
        // Leak the session (no close) and shut the executor down: the
        // branch must not survive as a committed write.
        std::mem::forget(s);
        e.shutdown();
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
            ..Default::default()
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
            let BranchOutcome::Prepared(handle) = eng.prepare_branch(77, &update(&[150])).unwrap()
            else {
                panic!("writer branch must prepare");
            };
            std::mem::forget(handle);
        }
        let e2 = PartitionExecutor::spawn(ExecutorConfig {
            partition,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(e2.recovered_gtids().unwrap(), vec![77]);
        let s = e2.session();
        // The recovered branch guards its key against new work.
        assert!(!s.submit(&update(&[150])).unwrap().committed);
        assert!(matches!(s.prepare(78, &update(&[150])), Ok(Vote::No)));
        // A normal decision resolves it through the executor.
        assert!(matches!(s.decide(77, true), Ok(DecideOutcome::Applied)));
        assert!(e2.recovered_gtids().unwrap().is_empty());
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
