//! Native deployment: real storage instances, real threads, real 2PC.
//!
//! This is the embeddable form of the paper's prototype: `N` independent
//! [`StorageInstance`]s range-partition the data; local transactions run
//! directly against their instance; multisite transactions run
//! presumed-abort two-phase commit driven by the pure
//! [`islands_dtxn::Coordinator`] state machine, with prepare/decision
//! records forced to each instance's WAL.
//!
//! In-process deployments use direct calls as the transport (the paper's
//! processes use Unix domain sockets; within one process the function call
//! *is* the message). The protocol, logging, and locking are identical.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_dtxn::{Action, Coordinator, Vote};
use islands_storage::instance::PrepareVote;
use islands_storage::store::MemStore;
use islands_storage::wal::record::LogPayload;
use islands_storage::wal::DiscardLogDevice;
use islands_storage::{InstanceOptions, StorageError, StorageInstance, TxnId};
use islands_workload::plan::PlanRequest;
use islands_workload::TxnRequest;

use crate::partition::{instance_of_site, RangeSites, SiteMap};
use crate::plan::{plan_from_request, plan_micro, OpType, TxnPlan, MICRO_TABLE};

pub mod engine;
pub mod executor;
pub mod session;

pub use engine::{BranchOutcome, LockedSession, PartitionConfig, PartitionEngine, TpccPartition};
pub use executor::{EngineMode, ExecutorConfig, ExecutorSession, PartitionExecutor};
pub use session::{DecideOutcome, Engine, ExecError, Session};

/// Delay before the `retries`-th re-attempt of a contention-aborted
/// transaction: `None` for the first few attempts (just yield — the
/// conflicting lock holder is usually mid-commit), then exponential from
/// 1 µs, capped at 256 µs so a long queue of victims never sleeps past the
/// lock-wait scale it is trying to avoid.
pub fn contention_backoff_delay(retries: u32) -> Option<Duration> {
    const YIELD_ONLY: u32 = 4;
    const CAP_SHIFT: u32 = 8; // 2^8 us = 256 us
    if retries < YIELD_ONLY {
        return None;
    }
    Some(Duration::from_micros(
        1 << (retries - YIELD_ONLY).min(CAP_SHIFT),
    ))
}

/// Wait out one contention-abort retry. A bare `yield_now` per retry causes
/// retry storms under skew: every victim re-attacks the same hot key the
/// instant it is rescheduled, burning its whole retry budget while the
/// winner is still committing. Backing off exponentially (capped) spreads
/// the victims out instead.
pub fn contention_backoff(retries: u32) {
    match contention_backoff_delay(retries) {
        None => std::thread::yield_now(),
        Some(d) => std::thread::sleep(d),
    }
}

/// Little-endian audit counter from a row's first 8 bytes. Every table in
/// this module is created with `row_size >= 8` (asserted at load), so the
/// slice below is always in bounds.
pub(crate) fn audit_counter(row: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&row[..8]);
    u64::from_le_bytes(bytes)
}

/// Configuration for a native micro-benchmark cluster.
#[derive(Debug, Clone)]
pub struct NativeClusterConfig {
    pub n_instances: usize,
    pub total_rows: u64,
    pub row_size: usize,
    /// Workers that will run per instance; 1 enables the single-threaded
    /// (no locking) optimization, as in the paper.
    pub workers_per_instance: usize,
    pub lock_timeout: Duration,
    pub buffer_frames: usize,
}

impl Default for NativeClusterConfig {
    fn default() -> Self {
        NativeClusterConfig {
            n_instances: 4,
            total_rows: 40_000,
            row_size: 64,
            workers_per_instance: 2,
            lock_timeout: Duration::from_millis(200),
            buffer_frames: 4096,
        }
    }
}

/// The table name used by native micro clusters.
pub const MICRO_TABLE_NAME: &str = "rows";

/// A running shared-nothing deployment inside this process.
pub struct NativeCluster {
    instances: Vec<Arc<StorageInstance>>,
    sites: RangeSites,
    next_gtid: AtomicU64,
}

/// Outcome counters from [`NativeCluster::run_closed_loop`].
#[derive(Debug, Clone, Copy)]
pub struct NativeRunResult {
    pub commits: u64,
    pub aborts: u64,
    pub distributed: u64,
    pub elapsed: Duration,
}

impl NativeRunResult {
    pub fn tps(&self) -> f64 {
        self.commits as f64 / self.elapsed.as_secs_f64()
    }
}

/// Result of one externally submitted request (see [`NativeCluster::submit`]).
///
/// `committed == false` means the retry budget was exhausted by repeated
/// deadlock/timeout/2PC aborts — a well-formed request that simply lost; the
/// submitter decides whether to resubmit. Malformed requests (missing key,
/// unknown table) surface as `Err` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOutcome {
    pub committed: bool,
    /// Whether the (last) attempt ran two-phase commit.
    pub distributed: bool,
    /// Abort-and-retry rounds before the final outcome.
    pub retries: u32,
}

impl NativeCluster {
    /// Build instances and load the microbenchmark table, range-partitioned.
    pub fn build_micro(cfg: &NativeClusterConfig) -> Result<Self, StorageError> {
        assert!(cfg.n_instances >= 1);
        let mut instances = Vec::with_capacity(cfg.n_instances);
        let rows_per = cfg.total_rows / cfg.n_instances as u64;
        for i in 0..cfg.n_instances {
            let inst = StorageInstance::create(
                Arc::new(MemStore::new()),
                DiscardLogDevice::new(),
                InstanceOptions {
                    buffer_frames: cfg.buffer_frames,
                    single_threaded: cfg.workers_per_instance == 1,
                    lock_timeout: cfg.lock_timeout,
                    ..Default::default()
                },
            );
            let table = inst.create_table(MICRO_TABLE_NAME, cfg.row_size)?;
            let lo = i as u64 * rows_per;
            let hi = if i + 1 == cfg.n_instances {
                cfg.total_rows
            } else {
                lo + rows_per
            };
            let payload = vec![0u8; cfg.row_size];
            for key in lo..hi {
                inst.load_row(&table, key, &payload)?;
            }
            inst.checkpoint()?;
            instances.push(inst);
        }
        Ok(NativeCluster {
            instances,
            sites: RangeSites {
                total_rows: cfg.total_rows,
                n_sites: cfg.n_instances,
            },
            next_gtid: AtomicU64::new(1),
        })
    }

    pub fn n_instances(&self) -> usize {
        self.instances.len()
    }

    pub fn instance(&self, i: usize) -> &Arc<StorageInstance> {
        &self.instances[i]
    }

    fn instance_of(&self, table: u32, key: u64) -> usize {
        debug_assert_eq!(table, MICRO_TABLE);
        instance_of_site(
            self.sites.site_of(table, key),
            self.sites.n_sites,
            self.instances.len(),
        )
    }

    /// Execute one transaction plan to completion (commit) or error
    /// (deadlock/timeout — caller retries). Returns whether it ran 2PC.
    pub fn execute(&self, plan: &TxnPlan) -> Result<bool, StorageError> {
        // Group ops by participant, preserving op order.
        let mut order: Vec<usize> = Vec::new();
        let mut by_inst: HashMap<usize, Vec<&crate::plan::PlanOp>> = HashMap::new();
        for op in &plan.ops {
            let inst = self.instance_of(op.table, op.key);
            if !by_inst.contains_key(&inst) {
                order.push(inst);
            }
            by_inst.entry(inst).or_default().push(op);
        }

        // Open a transaction at each participant and run its ops.
        let mut handles: HashMap<usize, islands_storage::TxnHandle> = HashMap::new();
        for &i in &order {
            handles.insert(i, self.instances[i].begin());
        }
        let mut failed = None;
        'outer: for &i in &order {
            let txn = match handles.get_mut(&i) {
                Some(t) => t,
                None => unreachable!("handle opened above for every participant"),
            };
            for op in &by_inst[&i] {
                let r = match op.op {
                    OpType::Read => txn.read(MICRO_TABLE_NAME, op.key).map(|_| ()),
                    OpType::Update => {
                        let row = txn.read(MICRO_TABLE_NAME, op.key)?;
                        let mut row = row.ok_or(StorageError::KeyNotFound(op.key))?;
                        // Increment the first 8 bytes: an auditable update.
                        let mut v = audit_counter(&row);
                        v += 1;
                        row[..8].copy_from_slice(&v.to_le_bytes());
                        txn.update(MICRO_TABLE_NAME, op.key, &row)
                    }
                    OpType::Insert => txn.insert(MICRO_TABLE_NAME, op.key, &[0u8; 0]).map(|_| ()),
                };
                if let Err(e) = r {
                    failed = Some(e);
                    break 'outer;
                }
            }
        }
        if let Some(e) = failed {
            for (_, txn) in handles.drain() {
                let _ = txn.abort();
            }
            return Err(e);
        }

        if order.len() == 1 {
            let txn = match handles.remove(&order[0]) {
                Some(t) => t,
                None => unreachable!("single-site plan has exactly one handle"),
            };
            txn.commit()?;
            return Ok(false);
        }

        // Two-phase commit, coordinator at the home (first) instance.
        let gtid = self.next_gtid.fetch_add(1, Ordering::Relaxed);
        let home = order[0];
        let (mut coord, prepares) = Coordinator::new(gtid, order.clone());
        let mut actions = prepares;
        let mut queue: Vec<Action> = Vec::new();
        let mut prepared: HashMap<usize, islands_storage::TxnHandle> = HashMap::new();
        loop {
            for action in actions.drain(..) {
                match action {
                    Action::SendPrepare { to } => {
                        let mut txn = match handles.remove(&to) {
                            Some(t) => t,
                            None => unreachable!("coordinator prepares each participant once"),
                        };
                        let vote = match txn.prepare(gtid) {
                            Ok(PrepareVote::Yes) => {
                                prepared.insert(to, txn);
                                Vote::Yes
                            }
                            Ok(PrepareVote::ReadOnly) => Vote::ReadOnly,
                            Err(_) => Vote::No,
                        };
                        queue.extend(coord.on_vote(to, vote));
                    }
                    Action::ForceCommitDecision { gtid } => {
                        let wal = self.instances[home].wal();
                        let lsn =
                            wal.append(TxnId(gtid), &LogPayload::Decision { gtid, commit: true });
                        // A decision that cannot be forced is no decision:
                        // the error drops the prepared handles, which roll
                        // back.
                        wal.commit_durable(lsn)?;
                    }
                    Action::SendDecision { to, commit } => {
                        let txn = match prepared.remove(&to) {
                            Some(t) => t,
                            // Decisions go only to Yes-voters, which are
                            // exactly the handles parked in `prepared`.
                            None => unreachable!("decision for a participant that never prepared"),
                        };
                        txn.decide(commit)?;
                        queue.extend(coord.on_ack(to));
                    }
                    // Permission to drop the decision record; the home
                    // WAL keeps its records, so there is nothing to do.
                    Action::Forget { .. } => {}
                    Action::Finish { commit } => {
                        // A Yes-voter that prepared after a No decided the
                        // abort: its own abort decision is queued behind
                        // this Finish, so settle it here.
                        for (_, txn) in prepared.drain() {
                            let _ = txn.decide(commit);
                        }
                        return if commit {
                            Ok(true)
                        } else {
                            Err(StorageError::MustAbort(TxnId(gtid)))
                        };
                    }
                }
            }
            if queue.is_empty() {
                unreachable!("2PC stalled without Finish");
            }
            actions = std::mem::take(&mut queue);
        }
    }

    /// Total rows loaded across all instances (the partitioned key space is
    /// `0..total_rows`).
    pub fn total_rows(&self) -> u64 {
        self.sites.total_rows
    }

    /// Submission entry point for external callers (servers, client
    /// libraries): run `req` to completion, retrying contention aborts
    /// (deadlock, lock timeout, 2PC abort) up to `retry_limit` times.
    ///
    /// Unlike [`execute`](Self::execute), which hands protocol-level aborts
    /// back to the caller, this is the full at-most-one-commit request loop a
    /// front end wants: `Ok` with [`SubmitOutcome::committed`] true/false for
    /// well-formed requests, `Err` only for requests the engine can never
    /// satisfy (e.g. a key outside the loaded range).
    pub fn submit(
        &self,
        req: &TxnRequest,
        retry_limit: u32,
    ) -> Result<SubmitOutcome, StorageError> {
        self.submit_plan(&plan_micro(req), retry_limit)
    }

    /// [`submit`](Self::submit) for an already-built plan.
    pub fn submit_plan(
        &self,
        plan: &TxnPlan,
        retry_limit: u32,
    ) -> Result<SubmitOutcome, StorageError> {
        // Reject keys outside the loaded range up front: the partition map
        // asserts on them, and a served deployment must answer a malformed
        // request with an error, not a panic.
        if let Some(op) = plan
            .ops
            .iter()
            .find(|op| op.table == MICRO_TABLE && op.key >= self.sites.total_rows)
        {
            return Err(StorageError::KeyNotFound(op.key));
        }
        // Whether the plan spans instances (so a failed submission can still
        // report the distributed flag truthfully).
        let mut spans = false;
        if let Some(first) = plan.ops.first() {
            let home = self.instance_of(first.table, first.key);
            spans = plan
                .ops
                .iter()
                .any(|op| self.instance_of(op.table, op.key) != home);
        }
        let mut retries = 0u32;
        loop {
            match self.execute(plan) {
                Ok(distributed) => {
                    return Ok(SubmitOutcome {
                        committed: true,
                        distributed,
                        retries,
                    })
                }
                Err(StorageError::Deadlock(_))
                | Err(StorageError::LockTimeout(_))
                | Err(StorageError::MustAbort(_)) => {
                    if retries >= retry_limit {
                        return Ok(SubmitOutcome {
                            committed: false,
                            distributed: spans,
                            retries,
                        });
                    }
                    retries += 1;
                    contention_backoff(retries);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sum of the first-8-byte counters across all rows (audit invariant:
    /// equals the number of committed row updates).
    pub fn audit_sum(&self) -> Result<u64, StorageError> {
        let mut sum = 0u64;
        for inst in &self.instances {
            let table = inst.table(MICRO_TABLE_NAME)?;
            for (_, payload) in table.range(0, u64::MAX)? {
                sum += audit_counter(&payload);
            }
        }
        Ok(sum)
    }

    /// Closed-loop run: `threads` workers execute plans from `gen` until
    /// `duration` elapses. Deadlock/timeout victims retry.
    pub fn run_closed_loop<F>(
        self: &Arc<Self>,
        threads: usize,
        duration: Duration,
        gen: F,
    ) -> NativeRunResult
    where
        F: Fn(usize, u64) -> TxnPlan + Send + Sync + 'static,
    {
        let gen = Arc::new(gen);
        let stop = Arc::new(AtomicBool::new(false));
        let commits = Arc::new(AtomicU64::new(0));
        let aborts = Arc::new(AtomicU64::new(0));
        let distributed = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        let mut workers = Vec::new();
        for t in 0..threads {
            let cluster = Arc::clone(self);
            let gen = Arc::clone(&gen);
            let stop = Arc::clone(&stop);
            let commits = Arc::clone(&commits);
            let aborts = Arc::clone(&aborts);
            let distributed = Arc::clone(&distributed);
            workers.push(std::thread::spawn(move || {
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let plan = gen(t, seq);
                    seq += 1;
                    let mut attempt = 0u32;
                    loop {
                        match cluster.execute(&plan) {
                            Ok(was_distributed) => {
                                commits.fetch_add(1, Ordering::Relaxed);
                                if was_distributed {
                                    distributed.fetch_add(1, Ordering::Relaxed);
                                }
                                break;
                            }
                            Err(StorageError::Deadlock(_))
                            | Err(StorageError::LockTimeout(_))
                            | Err(StorageError::MustAbort(_)) => {
                                aborts.fetch_add(1, Ordering::Relaxed);
                                attempt += 1;
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                                contention_backoff(attempt);
                            }
                            Err(e) => panic!("unexpected engine error: {e}"),
                        }
                    }
                }
            }));
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            if let Err(panic) = w.join() {
                // A worker died mid-run: surface its panic instead of
                // fabricating a result from the survivors.
                std::panic::resume_unwind(panic);
            }
        }
        NativeRunResult {
            commits: commits.load(Ordering::Relaxed),
            aborts: aborts.load(Ordering::Relaxed),
            distributed: distributed.load(Ordering::Relaxed),
            elapsed: start.elapsed(),
        }
    }
}

impl Engine for NativeCluster {
    fn session(&self, retry_limit: u32) -> Box<dyn Session + '_> {
        Box::new(ClusterSession {
            cluster: self,
            retry_limit,
        })
    }

    fn audit_sum(&self) -> Result<u64, ExecError> {
        Ok(NativeCluster::audit_sum(self)?)
    }

    /// The cluster's logs are volatile: nothing is ever re-parked.
    fn recovered_gtids(&self) -> Result<Vec<u64>, ExecError> {
        Ok(Vec::new())
    }
}

/// A session on the whole in-process cluster: submissions route and run
/// 2PC inside [`NativeCluster::submit_plan`], so the cluster is never
/// itself a participant and holds nothing in doubt.
struct ClusterSession<'c> {
    cluster: &'c NativeCluster,
    retry_limit: u32,
}

impl Session for ClusterSession<'_> {
    fn submit(&mut self, plan: &PlanRequest) -> Result<SubmitOutcome, ExecError> {
        let _span = islands_obs::enter(islands_obs::BreakdownCategory::XctManagement);
        // The cluster range-partitions only the micro table; TPC-C plans
        // belong on partition instances.
        if let Some(s) = plan.steps.iter().find(|s| s.table != MICRO_TABLE) {
            return Err(ExecError::Storage(StorageError::NoSuchTable(format!(
                "plan table id {} not served by the in-process cluster",
                s.table
            ))));
        }
        Ok(self
            .cluster
            .submit_plan(&plan_from_request(plan), self.retry_limit)?)
    }

    fn prepare(&mut self, _gtid: u64, _plan: &PlanRequest) -> Result<Vote, ExecError> {
        Err(ExecError::NotAParticipant)
    }

    fn decide(&mut self, _gtid: u64, _commit: bool) -> Result<DecideOutcome, ExecError> {
        Err(ExecError::NotAParticipant)
    }

    fn close(&mut self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanOp;

    fn plan(keys: &[u64], op: OpType) -> TxnPlan {
        TxnPlan {
            ops: keys
                .iter()
                .map(|&key| PlanOp {
                    table: MICRO_TABLE,
                    key,
                    op,
                })
                .collect(),
        }
    }

    fn small() -> NativeClusterConfig {
        NativeClusterConfig {
            n_instances: 4,
            total_rows: 400,
            row_size: 16,
            workers_per_instance: 2,
            buffer_frames: 512,
            ..Default::default()
        }
    }

    #[test]
    fn local_reads_and_updates() {
        let c = NativeCluster::build_micro(&small()).unwrap();
        // Keys 0..100 live in instance 0.
        assert!(!c.execute(&plan(&[1, 2, 3], OpType::Read)).unwrap());
        assert!(!c.execute(&plan(&[5, 6], OpType::Update)).unwrap());
        assert_eq!(c.audit_sum().unwrap(), 2);
    }

    #[test]
    fn distributed_update_commits_atomically() {
        let c = NativeCluster::build_micro(&small()).unwrap();
        // Keys in instances 0, 1, 3.
        let was_2pc = c.execute(&plan(&[10, 150, 390], OpType::Update)).unwrap();
        assert!(was_2pc);
        assert_eq!(c.audit_sum().unwrap(), 3);
    }

    #[test]
    fn distributed_read_uses_read_only_optimization() {
        let c = NativeCluster::build_micro(&small()).unwrap();
        let was_2pc = c.execute(&plan(&[10, 150], OpType::Read)).unwrap();
        assert!(was_2pc);
        assert_eq!(c.audit_sum().unwrap(), 0);
    }

    #[test]
    fn closed_loop_conserves_updates() {
        let cfg = small();
        let total_rows = cfg.total_rows;
        let c = Arc::new(NativeCluster::build_micro(&cfg).unwrap());
        let r = c.run_closed_loop(4, Duration::from_millis(300), move |t, seq| {
            // Mix of local and cross-instance updates.
            let a = (t as u64 * 131 + seq * 7) % total_rows;
            let b = (a + if seq % 3 == 0 { 137 } else { 1 }) % total_rows;
            TxnPlan {
                ops: vec![
                    PlanOp {
                        table: MICRO_TABLE,
                        key: a,
                        op: OpType::Update,
                    },
                    PlanOp {
                        table: MICRO_TABLE,
                        key: b,
                        op: OpType::Update,
                    },
                ],
            }
        });
        assert!(r.commits > 0);
        assert!(r.distributed > 0, "some transactions must cross instances");
        assert_eq!(
            c.audit_sum().unwrap(),
            r.commits * 2,
            "every committed txn applied exactly 2 updates (commits={}, aborts={})",
            r.commits,
            r.aborts
        );
    }

    #[test]
    fn submit_commits_and_reports_distribution() {
        use islands_workload::OpKind;
        let c = NativeCluster::build_micro(&small()).unwrap();
        let local = c
            .submit(
                &TxnRequest {
                    kind: OpKind::Update,
                    keys: vec![1, 2],
                    multisite: false,
                },
                8,
            )
            .unwrap();
        assert!(local.committed);
        assert!(!local.distributed);
        let multi = c
            .submit(
                &TxnRequest {
                    kind: OpKind::Update,
                    keys: vec![10, 150, 390],
                    multisite: true,
                },
                8,
            )
            .unwrap();
        assert!(multi.committed);
        assert!(multi.distributed);
        assert_eq!(c.audit_sum().unwrap(), 5);
    }

    #[test]
    fn submit_surfaces_unsatisfiable_requests_as_errors() {
        use islands_workload::OpKind;
        let c = NativeCluster::build_micro(&small()).unwrap();
        let err = c
            .submit(
                &TxnRequest {
                    kind: OpKind::Update,
                    keys: vec![999_999],
                    multisite: false,
                },
                8,
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::KeyNotFound(999_999)));
    }

    #[test]
    fn non_divisible_row_counts_route_boundary_keys_to_their_loader() {
        // 403 rows over 4 instances: loading gives instance 0 keys 0..100
        // and the last instance the remainder. Routing must agree with
        // loading at every boundary, or boundary keys are "not found" on
        // the instance they were routed to.
        let c = NativeCluster::build_micro(&NativeClusterConfig {
            n_instances: 4,
            total_rows: 403,
            row_size: 16,
            workers_per_instance: 2,
            buffer_frames: 512,
            ..Default::default()
        })
        .unwrap();
        for key in [0, 99, 100, 101, 199, 200, 300, 399, 400, 402] {
            assert!(
                !c.execute(&plan(&[key], OpType::Update)).unwrap(),
                "single-key txn on {key} must be local"
            );
        }
        assert_eq!(c.audit_sum().unwrap(), 10);
    }

    #[test]
    fn contention_backoff_yields_then_escalates_and_caps() {
        // First attempts only yield: the conflicting holder is usually
        // mid-commit and a sleep would overshoot.
        for r in 0..4 {
            assert_eq!(contention_backoff_delay(r), None, "retry {r} must yield");
        }
        // Then exponential from 1 us...
        assert_eq!(contention_backoff_delay(4), Some(Duration::from_micros(1)));
        assert_eq!(contention_backoff_delay(5), Some(Duration::from_micros(2)));
        assert_eq!(contention_backoff_delay(8), Some(Duration::from_micros(16)));
        // ...monotone non-decreasing and capped at 256 us forever.
        let mut prev = Duration::ZERO;
        for r in 4..2_000 {
            let d = contention_backoff_delay(r).unwrap();
            assert!(d >= prev, "backoff regressed at retry {r}");
            assert!(d <= Duration::from_micros(256), "cap blown at retry {r}");
            prev = d;
        }
        assert_eq!(
            contention_backoff_delay(u32::MAX),
            Some(Duration::from_micros(256)),
            "no overflow at the extreme"
        );
    }

    #[test]
    fn high_contention_retries_stay_bounded_under_backoff() {
        // Regression: the retry loop used to only yield_now(), so victims
        // of a hot key re-attacked it the instant they were rescheduled and
        // could burn their whole budget in a storm. With capped exponential
        // backoff, every submission against a single contended key must
        // commit, and the aggregate retry count stays far below the budget.
        use islands_workload::OpKind;
        let c = Arc::new(
            NativeCluster::build_micro(&NativeClusterConfig {
                n_instances: 1,
                total_rows: 64,
                row_size: 16,
                workers_per_instance: 4,
                buffer_frames: 256,
                lock_timeout: Duration::from_millis(50),
            })
            .unwrap(),
        );
        const THREADS: usize = 4;
        const TXNS: u64 = 50;
        // Generous budget: wait-die re-stamps a victim younger on every
        // retry, so under sustained contention individual victims can lose
        // many rounds — the storm bound below is the real assertion.
        const BUDGET: u32 = 2048;
        let total_retries = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        for _ in 0..THREADS {
            let c = Arc::clone(&c);
            let total_retries = Arc::clone(&total_retries);
            workers.push(std::thread::spawn(move || {
                for _ in 0..TXNS {
                    let out = c
                        .submit(
                            &TxnRequest {
                                kind: OpKind::Update,
                                keys: vec![7],
                                multisite: false,
                            },
                            BUDGET,
                        )
                        .unwrap();
                    assert!(out.committed, "hot-key submission exhausted its budget");
                    total_retries.fetch_add(out.retries as u64, Ordering::Relaxed);
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(c.audit_sum().unwrap(), THREADS as u64 * TXNS);
        let retries = total_retries.load(Ordering::Relaxed);
        let txns = THREADS as u64 * TXNS;
        assert!(
            retries < txns * 64,
            "retry storm: {retries} retries across {txns} hot-key txns \
             (mean {:.1} per txn)",
            retries as f64 / txns as f64,
        );
    }

    #[test]
    fn shared_everything_single_instance_works() {
        let c = NativeCluster::build_micro(&NativeClusterConfig {
            n_instances: 1,
            total_rows: 100,
            row_size: 16,
            workers_per_instance: 4,
            buffer_frames: 256,
            ..Default::default()
        })
        .unwrap();
        assert!(!c.execute(&plan(&[5, 95], OpType::Update)).unwrap());
        assert_eq!(c.audit_sum().unwrap(), 2);
    }
}
