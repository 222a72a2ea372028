//! Single-partition engine: one OS process's share of a shared-nothing
//! deployment.
//!
//! A [`PartitionEngine`] is one [`StorageInstance`] owning a contiguous key
//! sub-range `[lo, hi)` of the globally partitioned microbenchmark table.
//! A spawned deployment (`islands-server`'s `deploy` module) runs one process
//! per partition and serves its engine over the wire; the in-process cluster
//! (`cluster` module) holds N of them and hands each the same frames by
//! direct call:
//!
//! * **Local transactions** (every row inside the range) commit entirely
//!   here via [`submit_plan_local`](PartitionEngine::submit_plan_local),
//!   which retries contention aborts under
//!   [`contention_backoff`](super::contention_backoff) within a budget.
//! * **Distributed branches** arrive as 2PC prepare frames: the engine
//!   executes the branch's steps and runs participant-side phase 1
//!   ([`prepare_plan_branch`](PartitionEngine::prepare_plan_branch)). A
//!   session parks the prepared branch in the partition's one in-doubt
//!   table (`in_doubt` module), beside any branch restart replay re-parked,
//!   until some session applies the coordinator's decision.
//!
//! A [`PlanRequest`] is the only request shape executed here; the
//! batch-taking [`submit_local`](PartitionEngine::submit_local) and
//! [`prepare_branch`](PartitionEngine::prepare_branch) lower their
//! [`TxnRequest`] with [`to_plan`](TxnRequest::to_plan) and call the above.
//!
//! Keys stay **global**: the engine checks range membership instead of
//! translating, so a request routed to the wrong process is a typed error,
//! never a silent write to the wrong row.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_dtxn::Vote;
use islands_obs::{BreakdownCategory, Snapshot};
use islands_storage::instance::PrepareVote;
use islands_storage::store::MemStore;
use islands_storage::table::Table;
use islands_storage::wal::{self, DiscardLogDevice, LogDevice};
use islands_storage::{InstanceOptions, StorageError, StorageInstance, TxnHandle};
use islands_workload::plan::{PlanRequest, PlanStep, StepOp};
use islands_workload::{tpcc, TxnRequest};

use super::in_doubt::{next_session_id, Bell, InDoubtTable};
use super::session::{DecideOutcome, Engine, ExecError, Session};
use super::{SubmitOutcome, MICRO_TABLE_NAME};

/// TPC-C mode for a partition: which warehouse sub-range `[w_lo, w_hi)` of
/// the `warehouses`-warehouse deployment this instance loads and owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpccPartition {
    /// Total warehouses across the whole deployment.
    pub warehouses: u64,
    /// First warehouse this partition owns (inclusive).
    pub w_lo: u64,
    /// One past the last warehouse this partition owns (exclusive).
    pub w_hi: u64,
}

/// Construction knobs for one partition's engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionConfig {
    /// First key this partition owns (inclusive).
    pub lo: u64,
    /// One past the last key this partition owns (exclusive).
    pub hi: u64,
    /// Payload bytes per row (first 8 bytes hold the audit counter).
    pub row_size: usize,
    /// Buffer-pool frames for the instance.
    pub buffer_frames: usize,
    /// 2PL lock-wait timeout.
    pub lock_timeout: Duration,
    /// One worker ⇒ skip locking (the paper's fine-grained optimization).
    pub single_threaded: bool,
    /// Ignored, like [`InstanceOptions::group_window`]: the WAL has no timed
    /// group window any more. Kept only because `benchmark/`, which a
    /// product PR may not edit, still sets it.
    pub group_window: Duration,
    /// `Some` switches the partition from the microbenchmark table to the
    /// TPC-C tables (warehouse/district/customer/stock loaded for the
    /// warehouse range; history/order created empty). `lo`/`hi`/`row_size`
    /// are ignored in that mode.
    pub tpcc: Option<TpccPartition>,
    /// `Some(path)` puts the instance's WAL on a file instead of memory.
    /// When the file already holds log records from a previous incarnation,
    /// [`PartitionEngine::build`] replays them: committed work is redone,
    /// losers are undone, and prepared-but-undecided 2PC branches are parked
    /// back on the engine awaiting coordinator resolution.
    pub wal: Option<PathBuf>,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            lo: 0,
            hi: 10_000,
            row_size: 64,
            buffer_frames: 4096,
            lock_timeout: Duration::from_millis(200),
            single_threaded: false,
            group_window: Duration::ZERO,
            tpcc: None,
            wal: None,
        }
    }
}

/// Refuse a partition nothing can be built from, before any file or page
/// is touched.
fn check_config(cfg: &PartitionConfig) -> Result<(), StorageError> {
    let bad = |why: String| Err(StorageError::BadConfig(why));
    match &cfg.tpcc {
        None if cfg.lo >= cfg.hi => bad(format!("empty partition {}..{}", cfg.lo, cfg.hi)),
        None if cfg.row_size < 8 => bad(format!(
            "row size {} cannot hold the 8-byte audit counter",
            cfg.row_size
        )),
        Some(t) if t.w_lo >= t.w_hi || t.w_hi > t.warehouses => bad(format!(
            "bad warehouse range {}..{} of {}",
            t.w_lo, t.w_hi, t.warehouses
        )),
        _ => Ok(()),
    }
}

/// Participant-side outcome of executing and preparing one branch.
pub enum BranchOutcome {
    /// Executed, prepare record forced; the handle holds locks until the
    /// coordinator's decision arrives (pass it to [`TxnHandle::decide`]).
    Prepared(TxnHandle),
    /// Read-only branch: voted, released, excluded from phase 2.
    ReadOnly,
    /// Local execution or validation failed (lock timeout, deadlock); the
    /// branch rolled back and the participant votes No.
    No,
}

/// Plan table ids are small and dense (`MICRO_TABLE` = 0 up to
/// `TPCC_STOCK` = 6): a partition's tables sit in an array indexed by them.
const PLAN_TABLES: usize = islands_workload::plan::TPCC_STOCK as usize + 1;

/// One shared-nothing partition: a storage instance plus its key range
/// (microbenchmark mode) or warehouse range (TPC-C mode).
pub struct PartitionEngine {
    inst: Arc<StorageInstance>,
    lo: u64,
    hi: u64,
    tpcc: Option<TpccPartition>,
    /// The tables this partition serves, by plan table id, resolved once:
    /// the row path never goes through the catalog.
    tables: [Option<Arc<Table>>; PLAN_TABLES],
    /// Every branch parked between its Yes vote and its decision.
    pub(crate) in_doubt: InDoubtTable,
}

impl PartitionEngine {
    /// Create the instance and load its share of the data: rows `lo..hi` of
    /// the micro table, or — in TPC-C mode — every table of warehouses
    /// `w_lo..w_hi` (keys are global in both modes), each table with one
    /// sorted [`Table::load`]. A configuration nothing can be built from is
    /// [`StorageError::BadConfig`] before any file or page is touched.
    ///
    /// With [`PartitionConfig::wal`] set and prior log records on the file,
    /// this is a **restart**: the page store is volatile, so the partition
    /// is rebuilt fresh (the table-creation order below is deterministic,
    /// giving the same table ids the old incarnation logged under) and the
    /// old WAL is replayed over it — committed transactions redone, losers
    /// undone, surviving in-doubt branches parked for a [`Session::decide`].
    pub fn build(cfg: &PartitionConfig) -> Result<Self, StorageError> {
        check_config(cfg)?;
        // Capture the previous incarnation's log *before* the new instance
        // starts appending to the same device, its torn tail cut off so
        // this incarnation's records follow the last whole one.
        let (device, prior): (Arc<dyn LogDevice>, Vec<u8>) = match &cfg.wal {
            // Nothing ever reads a volatile partition's log back: count
            // its bytes, keep none.
            None => (DiscardLogDevice::new(), Vec::new()),
            Some(path) => {
                let (dev, prior) = wal::reopen(path)?;
                (dev, prior)
            }
        };
        let inst = StorageInstance::create(
            Arc::new(MemStore::new()),
            device,
            InstanceOptions {
                buffer_frames: cfg.buffer_frames,
                single_threaded: cfg.single_threaded,
                lock_timeout: cfg.lock_timeout,
                ..Default::default()
            },
        );
        use islands_workload::plan as p;
        let mut tables: [Option<Arc<Table>>; PLAN_TABLES] = Default::default();
        match &cfg.tpcc {
            None => {
                let table = inst.create_table(MICRO_TABLE_NAME, cfg.row_size)?;
                let payload = vec![0u8; cfg.row_size];
                table.load((cfg.lo..cfg.hi).map(|key| (key, &payload)))?;
                tables[p::MICRO_TABLE as usize] = Some(table);
            }
            Some(t) => {
                let mut create = |plan_id: u32, name, row| {
                    let table = inst.create_table(name, row)?;
                    tables[plan_id as usize] = Some(Arc::clone(&table));
                    Ok::<_, StorageError>(table)
                };
                let warehouse = create(p::TPCC_WAREHOUSE, tpcc::T_WAREHOUSE, tpcc::WAREHOUSE_ROW)?;
                let district = create(p::TPCC_DISTRICT, tpcc::T_DISTRICT, tpcc::DISTRICT_ROW)?;
                let customer = create(p::TPCC_CUSTOMER, tpcc::T_CUSTOMER, tpcc::CUSTOMER_ROW)?;
                let stock = create(p::TPCC_STOCK, tpcc::T_STOCK, tpcc::STOCK_ROW)?;
                // Append-only tables start empty; inserts create their rows.
                create(p::TPCC_HISTORY, tpcc::T_HISTORY, tpcc::HISTORY_ROW)?;
                create(p::TPCC_ORDER, tpcc::T_ORDER, tpcc::ORDER_ROW)?;
                // Each table in one pass, its keys ascending in this order.
                let w_row = vec![0u8; tpcc::WAREHOUSE_ROW];
                let d_row = vec![0u8; tpcc::DISTRICT_ROW];
                let c_row = &vec![0u8; tpcc::CUSTOMER_ROW];
                let s_row = &vec![0u8; tpcc::STOCK_ROW];
                let warehouses = t.w_lo..t.w_hi;
                let districts = warehouses
                    .clone()
                    .flat_map(|w| (0..tpcc::DISTRICTS_PER_WAREHOUSE).map(move |d| (w, d)));
                warehouse.load(warehouses.clone().map(|w| (w, &w_row)))?;
                district.load(
                    districts
                        .clone()
                        .map(|(w, d)| (tpcc::district_key(w, d), &d_row)),
                )?;
                customer.load(districts.flat_map(|(w, d)| {
                    (0..tpcc::CUSTOMERS_PER_DISTRICT)
                        .map(move |c| (tpcc::customer_key(w, d, c), c_row))
                }))?;
                stock.load(warehouses.flat_map(|w| {
                    (0..tpcc::STOCK_PER_WAREHOUSE).map(move |s| (tpcc::stock_key(w, s), s_row))
                }))?;
            }
        }
        let engine = PartitionEngine {
            lo: cfg.lo,
            hi: cfg.hi,
            tpcc: cfg.tpcc.clone(),
            tables,
            in_doubt: InDoubtTable::new(cfg.single_threaded),
            inst,
        };
        if prior.is_empty() {
            // The loads wrote their pages into the store already: this
            // flushes only the few that went through frames (each table's
            // heap head and root leaf) and the catalog.
            engine.inst.checkpoint()?;
        } else {
            // Restart path: replay instead of checkpointing, so a crash
            // during this build leaves the old log intact for the next try.
            let started = Instant::now();
            for (gtid, branch) in engine.inst.replay_log(&prior)? {
                engine
                    .in_doubt
                    .insert(gtid, branch, None, |b| engine.plan_space_keys(b));
            }
            islands_obs::with(|m| m.record_recovery(started.elapsed().as_nanos() as u64));
        }
        Ok(engine)
    }

    /// Translate the rows a recovered branch wrote from catalog table ids
    /// into plan-table-id space so they compare against incoming requests.
    /// An unknown catalog id keeps its raw value — at worst a false
    /// conflict, never a missed one.
    fn plan_space_keys(&self, branch: &TxnHandle) -> Vec<(u32, u64)> {
        branch
            .written_rows()
            .map(|(cat_id, key)| {
                let served = |t: &Option<Arc<Table>>| t.as_ref().is_some_and(|t| t.id == cat_id);
                match self.tables.iter().position(served) {
                    Some(plan_id) => (plan_id as u32, key),
                    None => (cat_id, key),
                }
            })
            .collect()
    }

    /// Gtids of every parked branch no session owns, sorted: at startup,
    /// exactly the ones restart replay re-parked.
    pub fn ownerless_gtids(&self) -> Vec<u64> {
        self.in_doubt.ownerless()
    }

    /// The key range `[lo, hi)` this partition owns.
    pub fn range(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    /// Whether `key` belongs to this partition.
    pub fn owns(&self, key: u64) -> bool {
        (self.lo..self.hi).contains(&key)
    }

    /// The underlying storage instance (tests, stats).
    pub fn instance(&self) -> &Arc<StorageInstance> {
        &self.inst
    }

    /// Register this partition into a deployment-wide `lockcheck` ownership
    /// scope (debug builds with `--features lockcheck` only).
    #[cfg(feature = "lockcheck")]
    pub fn set_lockcheck_scope(&self, scope: Arc<islands_storage::lockcheck::Scope>) {
        self.inst.set_lockcheck_scope(scope);
    }

    /// Own the partition's instance on the calling thread until the claim
    /// drops (the serial executor does, around each critical section).
    #[cfg(feature = "lockcheck")]
    pub(crate) fn lockcheck_claim(&self) -> islands_storage::lockcheck::Claim<'_> {
        self.inst.lockcheck_claim()
    }

    /// [`submit_plan_local`](Self::submit_plan_local) for a micro batch.
    pub fn submit_local(
        &self,
        req: &TxnRequest,
        retry_limit: u32,
    ) -> Result<SubmitOutcome, StorageError> {
        self.submit_plan_local(&req.to_plan(), retry_limit)
    }

    /// [`prepare_plan_branch`](Self::prepare_plan_branch) for a micro batch.
    pub fn prepare_branch(
        &self,
        gtid: u64,
        req: &TxnRequest,
    ) -> Result<BranchOutcome, StorageError> {
        self.prepare_plan_branch(gtid, &req.to_plan())
    }

    /// The table a plan table id names on this partition; ids from the
    /// other mode (or unknown ids) are typed errors, so a plan routed at the
    /// wrong kind of deployment can never touch a row.
    fn plan_table(&self, table: u32) -> Result<&Table, StorageError> {
        match self.tables.get(table as usize) {
            Some(Some(t)) => Ok(t),
            _ => Err(StorageError::NoSuchTable(format!(
                "plan table id {table} not served by this partition"
            ))),
        }
    }

    /// Whether every row `step` covers belongs to this partition.
    fn owns_step(&self, step: &PlanStep) -> bool {
        (0..step.rows()).all(|i| {
            let key = step.key.wrapping_add(i);
            match &self.tpcc {
                None => step.table == islands_workload::plan::MICRO_TABLE && self.owns(key),
                Some(t) => matches!(
                    tpcc::warehouse_of_table(step.table, key),
                    Some(w) if (t.w_lo..t.w_hi).contains(&w)
                ),
            }
        })
    }

    /// Reject plans this partition can never satisfy: an unknown/foreign
    /// table id or any row outside the owned range — typed errors before a
    /// single operation runs.
    pub(crate) fn check_plan(&self, plan: &PlanRequest) -> Result<(), StorageError> {
        for step in &plan.steps {
            self.plan_table(step.table)?;
            if !self.owns_step(step) {
                return Err(StorageError::KeyNotFound(step.key));
            }
        }
        Ok(())
    }

    /// Run a plan's steps inside `txn`: reads fetch, updates bump the audit
    /// counter where the row lies, inserts create a fresh audited row, range
    /// reads fetch each covered row in order (the dependent-read shape).
    fn run_plan(&self, txn: &mut TxnHandle, plan: &PlanRequest) -> Result<(), StorageError> {
        let found = |row: Option<Vec<u8>>, key| row.ok_or(StorageError::KeyNotFound(key));
        for step in &plan.steps {
            let table = self.plan_table(step.table)?;
            match step.op {
                StepOp::Read => {
                    found(txn.read_row(table, step.key)?, step.key)?;
                }
                StepOp::Update => txn.modify(table, step.key, |row| {
                    let v = super::audit_counter(row) + 1;
                    row[..8].copy_from_slice(&v.to_le_bytes());
                })?,
                StepOp::Insert => {
                    // A freshly inserted row counts itself: audit_sum equals
                    // committed row writes (updates + inserts) either way.
                    let mut row = vec![0u8; table.row_size];
                    row[..8].copy_from_slice(&1u64.to_le_bytes());
                    txn.insert_row(table, step.key, &row)?;
                }
                StepOp::RangeRead => {
                    for i in 0..step.span as u64 {
                        let key = step.key.wrapping_add(i);
                        found(txn.read_row(table, key)?, key)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Execute a fully-local plan to completion, retrying contention aborts
    /// up to `retry_limit` times. `Err` only for plans this partition can
    /// never satisfy (a foreign table, a row outside the owned range).
    pub fn submit_plan_local(
        &self,
        plan: &PlanRequest,
        retry_limit: u32,
    ) -> Result<SubmitOutcome, StorageError> {
        self.check_plan(plan)?;
        let mut retries = 0u32;
        loop {
            if !self.in_doubt.blocks(plan) {
                let mut txn = self.inst.begin();
                match self.run_plan(&mut txn, plan).and_then(|()| txn.commit()) {
                    Ok(()) => {
                        return Ok(SubmitOutcome {
                            committed: true,
                            distributed: false,
                            retries,
                        })
                    }
                    Err(StorageError::Deadlock(_))
                    | Err(StorageError::LockTimeout(_))
                    | Err(StorageError::MustAbort(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            // Contention: a lock conflict, or a row a parked footprint
            // still claims. That is an abort, not an error — the
            // branch resolves soon — so both retry under the same backoff.
            if retries >= retry_limit {
                return Ok(SubmitOutcome {
                    committed: false,
                    distributed: false,
                    retries,
                });
            }
            retries += 1;
            super::contention_backoff(retries);
        }
    }

    /// Execute one 2PC branch and run participant phase 1: force the prepare
    /// record and vote. Dependent reads (range scans) run *before* the
    /// prepare record is forced, so a parked branch holds their S locks
    /// alongside its write locks until the decision. Contention failures
    /// abort the branch locally and vote No (the coordinator retries the
    /// whole global transaction); `Err` is reserved for misrouted branches
    /// (a row outside this partition).
    pub fn prepare_plan_branch(
        &self,
        gtid: u64,
        plan: &PlanRequest,
    ) -> Result<BranchOutcome, StorageError> {
        self.check_plan(plan)?;
        // Rows a parked footprint claims are as locked as a lock would
        // keep them: vote No, the coordinator retries.
        if self.in_doubt.blocks(plan) {
            return Ok(BranchOutcome::No);
        }
        let mut txn = self.inst.begin();
        if self.run_plan(&mut txn, plan).is_err() {
            let _ = txn.abort();
            return Ok(BranchOutcome::No);
        }
        match txn.prepare(gtid) {
            Ok(PrepareVote::Yes) => Ok(BranchOutcome::Prepared(txn)),
            Ok(PrepareVote::ReadOnly) => Ok(BranchOutcome::ReadOnly),
            Err(_) => {
                let _ = txn.abort();
                Ok(BranchOutcome::No)
            }
        }
    }

    /// [`prepare_plan_branch`](Self::prepare_plan_branch) as branch `gtid`
    /// of `session`, parked in the in-doubt table when it votes Yes. A
    /// misrouted branch is the coordinator's bug: a typed error, not a vote.
    pub(crate) fn prepare_parked(
        &self,
        session: u64,
        gtid: u64,
        plan: &PlanRequest,
    ) -> Result<Vote, ExecError> {
        let prepare = || self.prepare_plan_branch(gtid, plan);
        self.in_doubt.park(session, gtid, plan, prepare)
    }

    /// Sum of the audit counters across this partition's rows — every table
    /// in TPC-C mode — equal to the number of committed row writes (updates
    /// plus inserts) applied here. A parked 2PC branch's writes sit in its
    /// rows uncommitted, so each of its rows counts as its before-image did
    /// (an inserted row not at all), read under the in-doubt table's lock:
    /// no branch is parked or decided mid-count.
    pub fn audit_sum(&self) -> Result<u64, StorageError> {
        use super::audit_counter;
        self.in_doubt.with_parked(|parked| {
            let mut sum = 0u64;
            for table in self.tables.iter().flatten() {
                for (_, payload) in table.range(0, u64::MAX)? {
                    sum += audit_counter(&payload);
                }
            }
            let by_id = |id| self.tables.iter().flatten().find(|t| t.id == id);
            for branch in parked {
                for ((id, key), before) in branch.before_images() {
                    let Some(table) = by_id(id) else { continue };
                    if let Some(now) = table.get(key)? {
                        sum -= audit_counter(&now);
                    }
                    sum += before.map_or(0, audit_counter);
                }
            }
            Ok(sum)
        })
    }
}

impl Engine for PartitionEngine {
    fn session(&self, retry_limit: u32) -> Box<dyn Session + '_> {
        Box::new(LockedSession {
            engine: self,
            id: next_session_id(),
            retry_limit,
        })
    }

    fn audit_sum(&self) -> Result<u64, ExecError> {
        Ok(PartitionEngine::audit_sum(self)?)
    }

    fn ownerless_gtids(&self) -> Result<Vec<u64>, ExecError> {
        Ok(PartitionEngine::ownerless_gtids(self))
    }

    fn bell(&self) -> Option<&Bell> {
        Some(&self.in_doubt.bell)
    }

    fn observe(&self, snap: &mut Snapshot) {
        snap.in_doubt = self.in_doubt.parked() as u64;
        (snap.lock_acquires, snap.lock_waits, snap.lock_dies) = self.inst.locks().stats();
    }
}

/// A connection's session on the locked engine: requests execute inline on
/// the calling thread under 2PL, and a branch it prepares waits in the
/// partition's in-doubt table, holding its locks, for the decision.
pub struct LockedSession<'e> {
    engine: &'e PartitionEngine,
    id: u64,
    retry_limit: u32,
}

impl Session for LockedSession<'_> {
    fn submit(&mut self, plan: &PlanRequest) -> Result<SubmitOutcome, ExecError> {
        // The work happens on this thread, so the management span here
        // catches what nested storage spans don't claim.
        let _span = islands_obs::enter(BreakdownCategory::XctManagement);
        Ok(self.engine.submit_plan_local(plan, self.retry_limit)?)
    }

    fn prepare(&mut self, gtid: u64, plan: &PlanRequest) -> Result<Vote, ExecError> {
        let _span = islands_obs::enter(BreakdownCategory::XctManagement);
        self.engine.prepare_parked(self.id, gtid, plan)
    }

    fn decide(&mut self, gtid: u64, commit: bool) -> Result<DecideOutcome, ExecError> {
        let _span = islands_obs::enter(BreakdownCategory::XctManagement);
        Ok(self.engine.in_doubt.decide(gtid, commit))
    }
}

impl Drop for LockedSession<'_> {
    fn drop(&mut self) {
        self.engine.in_doubt.disown(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_workload::plan::MICRO_TABLE;
    use islands_workload::OpKind;
    use std::sync::atomic::Ordering;

    fn engine() -> PartitionEngine {
        PartitionEngine::build(&PartitionConfig {
            lo: 100,
            hi: 200,
            row_size: 16,
            buffer_frames: 256,
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
    fn local_submit_commits_inside_the_range() {
        let e = engine();
        let out = e.submit_local(&update(&[100, 150, 199]), 4).unwrap();
        assert!(out.committed);
        assert!(!out.distributed);
        assert_eq!(e.audit_sum().unwrap(), 3);
    }

    #[test]
    fn keys_outside_the_range_are_errors_not_writes() {
        let e = engine();
        assert!(matches!(
            e.submit_local(&update(&[99]), 4),
            Err(StorageError::KeyNotFound(99))
        ));
        assert!(matches!(
            e.prepare_branch(1, &update(&[200])),
            Err(StorageError::KeyNotFound(200))
        ));
        assert_eq!(e.audit_sum().unwrap(), 0);
    }

    #[test]
    fn prepared_branch_holds_locks_until_decision() {
        let e = engine();
        let BranchOutcome::Prepared(handle) = e.prepare_branch(7, &update(&[110])).unwrap() else {
            panic!("writer branch must prepare");
        };
        // The prepared branch holds an X lock: a conflicting local submit
        // exhausts its (zero) retry budget and reports not-committed.
        let blocked = e.submit_local(&update(&[110]), 0).unwrap();
        assert!(!blocked.committed);
        handle.decide(true).unwrap();
        assert_eq!(e.audit_sum().unwrap(), 1);
        // Locks released: the same submit now commits.
        assert!(e.submit_local(&update(&[110]), 0).unwrap().committed);
    }

    #[test]
    fn abort_decision_undoes_the_branch() {
        let e = engine();
        let BranchOutcome::Prepared(handle) = e.prepare_branch(8, &update(&[120])).unwrap() else {
            panic!("writer branch must prepare");
        };
        handle.decide(false).unwrap();
        assert_eq!(e.audit_sum().unwrap(), 0);
    }

    #[test]
    fn read_only_branch_skips_phase_two() {
        let e = engine();
        let req = TxnRequest {
            kind: OpKind::Read,
            keys: vec![150],
            multisite: true,
        };
        assert!(matches!(
            e.prepare_branch(9, &req).unwrap(),
            BranchOutcome::ReadOnly
        ));
    }

    fn tpcc_engine() -> PartitionEngine {
        // Instance owning warehouse 2 of a 4-warehouse deployment.
        PartitionEngine::build(&PartitionConfig {
            buffer_frames: 8192,
            tpcc: Some(TpccPartition {
                warehouses: 4,
                w_lo: 2,
                w_hi: 3,
            }),
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn tpcc_local_payment_plan_commits_and_audits() {
        let e = tpcc_engine();
        let p = tpcc::Payment {
            w_id: 2,
            d_id: 5,
            c_w_id: 2,
            c_d_id: 5,
            c_id: 17,
            amount: 9,
        };
        let plan = p.plan((2 << 32) | 1, true);
        let out = e.submit_plan_local(&plan, 4).unwrap();
        assert!(out.committed);
        // W + D + C updates + history insert, scan reads add nothing.
        assert_eq!(e.audit_sum().unwrap(), 4);
        // Same history key again: a typed duplicate, not a retry loop.
        assert!(matches!(
            e.submit_plan_local(&plan, 4),
            Err(StorageError::DuplicateKey(_))
        ));
    }

    #[test]
    fn tpcc_neworder_plan_commits_and_audits() {
        let e = tpcc_engine();
        let o = tpcc::NewOrder {
            w_id: 2,
            d_id: 0,
            c_id: 100,
            items: vec![1, 2, 3, 4, 5],
        };
        let out = e.submit_plan_local(&o.plan((2 << 32) | 7), 4).unwrap();
        assert!(out.committed);
        // District + 5 stock updates + order insert.
        assert_eq!(e.audit_sum().unwrap(), 7);
    }

    /// Lock-manager acquires and buffer-pool fetches one committed plan
    /// costs on `e`: counts, so they repeat exactly.
    fn plan_cost(e: &PartitionEngine, plan: &PlanRequest) -> (u64, u64) {
        let inst = e.instance();
        let fetches = || inst.pool().hits() + inst.pool().stats.misses.load(Ordering::Relaxed);
        let before = (inst.locks().stats().0, fetches());
        assert!(e.submit_plan_local(plan, 0).unwrap().committed);
        (inst.locks().stats().0 - before.0, fetches() - before.1)
    }

    #[test]
    fn a_row_update_is_one_lock_one_descent_and_one_heap_page() {
        // Enough rows for an index with a root above its leaves.
        let e = PartitionEngine::build(&PartitionConfig {
            lo: 0,
            hi: 2_000,
            row_size: 16,
            buffer_frames: 256,
            ..Default::default()
        })
        .unwrap();
        let height = e.plan_table(MICRO_TABLE).unwrap().index_height() as u64;
        assert_eq!(height, 2);
        let (acquires, fetches) = plan_cost(&e, &update(&[3, 700, 1_400, 1_999]).to_plan());
        assert_eq!(acquires, 4, "an X lock per row and no table intent");
        assert_eq!(
            fetches,
            4 * (height + 1),
            "per row: the descent and the heap page"
        );
    }

    /// Lock requests `plan` makes on `e`, and the lock entries it holds just
    /// before it commits.
    fn plan_locks(e: &PartitionEngine, plan: &PlanRequest) -> (u64, usize) {
        let locks = e.instance().locks();
        let before = locks.stats().0;
        let mut txn = e.instance().begin();
        e.run_plan(&mut txn, plan).unwrap();
        let held = locks.active_locks();
        txn.commit().unwrap();
        (locks.stats().0 - before, held)
    }

    /// Rows `plan` touches, counted per touch and once each.
    fn plan_rows(plan: &PlanRequest) -> (u64, usize) {
        let rows: Vec<(u32, u64)> = plan
            .steps
            .iter()
            .flat_map(|s| (0..s.rows()).map(move |i| (s.table, s.key.wrapping_add(i))))
            .collect();
        let distinct = rows.iter().collect::<std::collections::HashSet<_>>().len();
        (rows.len() as u64, distinct)
    }

    #[test]
    fn tpcc_plans_take_one_lock_per_row_and_no_table_entry() {
        let e = tpcc_engine();
        let order = tpcc::NewOrder {
            w_id: 2,
            d_id: 0,
            c_id: 100,
            items: vec![1, 2, 3, 4, 5],
        };
        let payment = tpcc::Payment {
            w_id: 2,
            d_id: 5,
            c_w_id: 2,
            c_d_id: 5,
            c_id: 17,
            amount: 9,
        };
        for (plan, locks) in [
            // Warehouse, district, customer, five stock rows, the order.
            (order.plan((2 << 32) | 7), (9, 9)),
            // By id: warehouse, district, customer, history.
            (payment.plan((2 << 32) | 1, false), (4, 4)),
            // By name: four customer rows read, one of them then updated.
            (payment.plan((2 << 32) | 2, true), (8, 7)),
        ] {
            assert_eq!(plan_rows(&plan), locks);
            // A request per row touched; an entry per row held, none for a
            // table.
            assert_eq!(plan_locks(&e, &plan), locks);
        }
    }

    #[test]
    fn misrouted_and_foreign_plans_are_typed_errors() {
        let e = tpcc_engine();
        // Warehouse 1 lives elsewhere.
        let foreign = tpcc::Payment {
            w_id: 1,
            d_id: 0,
            c_w_id: 1,
            c_d_id: 0,
            c_id: 0,
            amount: 1,
        }
        .plan(1 << 32, false);
        assert!(matches!(
            e.submit_plan_local(&foreign, 0),
            Err(StorageError::KeyNotFound(_))
        ));
        // A micro-table plan against a TPC-C partition (and vice versa) is a
        // catalog error before any row is touched.
        let micro_plan = islands_workload::plan::PlanRequest {
            class: islands_workload::plan::PlanClass::Generic,
            multisite: false,
            steps: vec![PlanStep::point(
                islands_workload::plan::MICRO_TABLE,
                0,
                StepOp::Update,
            )],
        };
        assert!(matches!(
            e.submit_plan_local(&micro_plan, 0),
            Err(StorageError::NoSuchTable(_))
        ));
        let micro_engine = engine();
        let tpcc_plan = tpcc::NewOrder {
            w_id: 0,
            d_id: 0,
            c_id: 0,
            items: vec![1],
        }
        .plan(0);
        assert!(matches!(
            micro_engine.submit_plan_local(&tpcc_plan, 0),
            Err(StorageError::NoSuchTable(_))
        ));
        assert_eq!(e.audit_sum().unwrap(), 0);
    }

    #[test]
    fn prepared_plan_branch_parks_with_its_dependent_reads() {
        let e = tpcc_engine();
        // Remote-payment branch at the customer side: dependent range read
        // plus the customer update, prepared and parked.
        let branch_plan = islands_workload::plan::PlanRequest {
            class: islands_workload::plan::PlanClass::Payment,
            multisite: true,
            steps: vec![
                PlanStep::range(
                    islands_workload::plan::TPCC_CUSTOMER,
                    tpcc::customer_key(2, 3, 16),
                    4,
                ),
                PlanStep::point(
                    islands_workload::plan::TPCC_CUSTOMER,
                    tpcc::customer_key(2, 3, 17),
                    StepOp::Update,
                ),
            ],
        };
        let BranchOutcome::Prepared(handle) = e.prepare_plan_branch(11, &branch_plan).unwrap()
        else {
            panic!("writer branch must prepare");
        };
        // The parked branch holds locks over the scanned rows too: a
        // conflicting update on a row the scan merely *read* cannot commit.
        let conflicting = islands_workload::plan::PlanRequest {
            class: islands_workload::plan::PlanClass::Generic,
            multisite: false,
            steps: vec![PlanStep::point(
                islands_workload::plan::TPCC_CUSTOMER,
                tpcc::customer_key(2, 3, 16),
                StepOp::Update,
            )],
        };
        let blocked = e.submit_plan_local(&conflicting, 0).unwrap();
        assert!(!blocked.committed, "scan lock must block the writer");
        handle.decide(true).unwrap();
        assert_eq!(e.audit_sum().unwrap(), 1);
        assert!(e.submit_plan_local(&conflicting, 0).unwrap().committed);
    }

    /// Unique scratch WAL path for one test (fresh per run).
    fn temp_wal(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "islands-engine-wal-{}-{}.log",
            std::process::id(),
            name
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn rebuild_over_the_wal_replays_and_parks_in_doubt_branches() {
        let path = temp_wal("rebuild");
        let cfg = PartitionConfig {
            lo: 100,
            hi: 200,
            row_size: 16,
            buffer_frames: 256,
            wal: Some(path.clone()),
            ..Default::default()
        };
        {
            let e = PartitionEngine::build(&cfg).unwrap();
            assert!(e.ownerless_gtids().is_empty());
            // Committed work that must survive the crash.
            assert!(e.submit_local(&update(&[110]), 0).unwrap().committed);
            // A prepared branch whose decision never arrives: forget the
            // handle so no abort is logged — exactly what kill -9 leaves.
            let BranchOutcome::Prepared(handle) = e.prepare_branch(42, &update(&[120])).unwrap()
            else {
                panic!("writer branch must prepare");
            };
            std::mem::forget(handle);
        }
        // "Restart": same config, same WAL file, fresh volatile store.
        let e2 = PartitionEngine::build(&cfg).unwrap();
        assert_eq!(e2.ownerless_gtids(), vec![42]);
        // Committed update redone; the in-doubt write is back in its row,
        // under the branch's X lock, as a live parked branch's would be,
        // and the audit counts it only once it commits.
        let row = e2.instance().table(MICRO_TABLE_NAME).unwrap().get(120);
        assert_eq!(crate::native::audit_counter(&row.unwrap().unwrap()), 1);
        assert_eq!(e2.audit_sum().unwrap(), 1);
        // The parked branch's lock blocks new work on its row...
        assert!(!e2.submit_local(&update(&[120]), 0).unwrap().committed);
        assert!(matches!(
            e2.prepare_branch(43, &update(&[120])).unwrap(),
            BranchOutcome::No
        ));
        // ...but not elsewhere.
        assert!(e2.submit_local(&update(&[150]), 0).unwrap().committed);
        // A commit decision applies the branch; unknown gtids get the
        // presumed-abort answers.
        let mut s = e2.session(0);
        assert_eq!(s.decide(42, true).unwrap(), DecideOutcome::Applied);
        assert_eq!(s.decide(42, true).unwrap(), DecideOutcome::UnknownCommit);
        assert_eq!(s.decide(999, false).unwrap(), DecideOutcome::AbortNoop);
        assert_eq!(e2.audit_sum().unwrap(), 3);
        assert!(e2.submit_local(&update(&[120]), 0).unwrap().committed);
        let _ = std::fs::remove_file(&path);
    }

    /// Build the locked partition `cfg`, prepare one branch per key of
    /// `keys` (gtid = key + 1), and crash with every branch undecided.
    fn crash_with_branches_parked(cfg: &PartitionConfig, keys: std::ops::Range<u64>) {
        let e = PartitionEngine::build(cfg).unwrap();
        for key in keys {
            let BranchOutcome::Prepared(handle) =
                e.prepare_branch(key + 1, &update(&[key])).unwrap()
            else {
                panic!("writer branch must prepare");
            };
            std::mem::forget(handle);
        }
    }

    /// A replayed branch holds its row's X lock like a live one: a raw
    /// transaction on the row dies until the decision releases it.
    #[test]
    fn a_replayed_branch_holds_its_row_lock_until_decided() {
        let path = temp_wal("replayed-lock");
        let cfg = PartitionConfig {
            lo: 100,
            hi: 200,
            row_size: 16,
            buffer_frames: 256,
            wal: Some(path.clone()),
            ..Default::default()
        };
        crash_with_branches_parked(&cfg, 120..121);
        let e = PartitionEngine::build(&cfg).unwrap();
        assert_eq!(e.ownerless_gtids(), vec![121]);
        let table = e.plan_table(MICRO_TABLE).unwrap();
        let mut raw = e.instance().begin();
        let parked = raw.modify(table, 120, |_| {});
        assert!(
            matches!(parked, Err(StorageError::Deadlock(_))),
            "a write to a parked branch's row: {parked:?}"
        );
        raw.abort().unwrap();
        assert_eq!(
            e.session(0).decide(121, true).unwrap(),
            DecideOutcome::Applied
        );
        let mut raw = e.instance().begin();
        raw.modify(table, 120, |_| {}).unwrap();
        raw.commit().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// Decisions of replayed branches, each raced by a thread submitting
    /// local updates to the branch's row. Sized for under 10 s in a debug
    /// build on a 2-cpu machine.
    const DECIDE_RACES: u64 = 500;

    /// The row of a replayed branch decided commit while local submits
    /// hammer it ends at 1 + the local commits: the decision never
    /// overwrites a local write that slipped in before it was applied.
    #[test]
    fn deciding_a_replayed_branch_under_local_load_loses_no_update() {
        let path = temp_wal("decide-race");
        let cfg = PartitionConfig {
            lo: 0,
            hi: DECIDE_RACES,
            row_size: 16,
            buffer_frames: 256,
            wal: Some(path.clone()),
            ..Default::default()
        };
        crash_with_branches_parked(&cfg, 0..DECIDE_RACES);
        let e = PartitionEngine::build(&cfg).unwrap();
        let table = e.plan_table(MICRO_TABLE).unwrap();
        let (mut lost, mut local) = (0, 0);
        for key in 0..DECIDE_RACES {
            let attempts = std::sync::atomic::AtomicU64::new(0);
            let stop = std::sync::atomic::AtomicBool::new(false);
            let commits = std::thread::scope(|s| {
                let hammer = s.spawn(|| {
                    let mut commits = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let out = e.submit_local(&update(&[key]), 0).unwrap();
                        commits += out.committed as u64;
                        attempts.fetch_add(1, Ordering::Relaxed);
                    }
                    commits
                });
                while attempts.load(Ordering::Relaxed) == 0 {
                    std::hint::spin_loop();
                }
                let decided = e.session(0).decide(key + 1, true).unwrap();
                assert_eq!(decided, DecideOutcome::Applied);
                stop.store(true, Ordering::Relaxed);
                hammer.join().unwrap()
            });
            let row = crate::native::audit_counter(&table.get(key).unwrap().unwrap());
            lost += (row != 1 + commits) as u64;
            local += commits;
        }
        assert_eq!(lost, 0, "{lost} of {DECIDE_RACES} decisions lost an update");
        assert_eq!(e.audit_sum().unwrap(), DECIDE_RACES + local);
        let _ = std::fs::remove_file(&path);
    }

    /// The defect `benchmark/` works around with `Stream::own_rows`: replay
    /// used to undo an aborted branch *after* redoing later commits.
    #[test]
    fn restart_keeps_commits_that_follow_an_aborted_branch() {
        let path = temp_wal("abort-then-commit");
        let cfg = PartitionConfig {
            lo: 0,
            hi: 50,
            row_size: 16,
            buffer_frames: 256,
            wal: Some(path.clone()),
            ..Default::default()
        };
        {
            let e = PartitionEngine::build(&cfg).unwrap();
            let BranchOutcome::Prepared(handle) = e.prepare_branch(7, &update(&[10])).unwrap()
            else {
                panic!("writer branch must prepare");
            };
            handle.decide(false).unwrap();
            assert!(e.submit_local(&update(&[10]), 0).unwrap().committed);
            assert_eq!(e.audit_sum().unwrap(), 1);
        }
        let e2 = PartitionEngine::build(&cfg).unwrap();
        assert!(e2.ownerless_gtids().is_empty());
        assert_eq!(e2.audit_sum().unwrap(), 1);
        let _ = std::fs::remove_file(&path);
    }

    /// A crash mid-flush leaves part of a record on the file. Replay stops
    /// there, so the next incarnation must append after the last whole
    /// record, not after the torn bytes, or its commits are lost at the
    /// following restart.
    #[test]
    fn commits_after_a_torn_tail_survive_the_next_restart() {
        let path = temp_wal("torn-tail");
        let cfg = PartitionConfig {
            lo: 0,
            hi: 50,
            row_size: 16,
            buffer_frames: 256,
            wal: Some(path.clone()),
            ..Default::default()
        };
        {
            let e = PartitionEngine::build(&cfg).unwrap();
            assert!(e.submit_local(&update(&[10]), 0).unwrap().committed);
        }
        let mut torn = Vec::new();
        islands_storage::wal::record::encode(
            islands_storage::TxnId(99),
            &islands_storage::wal::LogPayload::Update {
                table: 1,
                key: 11,
                before: vec![0; 16],
                after: vec![1; 16],
            },
            &mut torn,
        );
        torn.truncate(torn.len() / 2);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut file, &torn).unwrap();
        drop(file);
        {
            let e = PartitionEngine::build(&cfg).unwrap();
            assert_eq!(e.audit_sum().unwrap(), 1);
            assert!(e.submit_local(&update(&[20]), 0).unwrap().committed);
        }
        let e = PartitionEngine::build(&cfg).unwrap();
        assert_eq!(e.audit_sum().unwrap(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn volatile_partition_counts_its_log_and_keeps_none() {
        let e = engine();
        for _ in 0..100 {
            assert!(e.submit_local(&update(&[100, 150]), 0).unwrap().committed);
        }
        let wal = e.instance().wal();
        assert!(wal.durable_lsn() > 0);
        assert_eq!(wal.device().len(), wal.durable_lsn());
        assert!(wal.device().read_all().is_err());
    }

    #[test]
    fn abort_resolution_discards_the_recovered_branch() {
        let path = temp_wal("abort");
        let cfg = PartitionConfig {
            lo: 0,
            hi: 50,
            row_size: 16,
            buffer_frames: 256,
            wal: Some(path.clone()),
            ..Default::default()
        };
        {
            let e = PartitionEngine::build(&cfg).unwrap();
            let BranchOutcome::Prepared(handle) = e.prepare_branch(7, &update(&[10])).unwrap()
            else {
                panic!("writer branch must prepare");
            };
            std::mem::forget(handle);
        }
        let e2 = PartitionEngine::build(&cfg).unwrap();
        assert_eq!(e2.ownerless_gtids(), vec![7]);
        let decided = e2.session(0).decide(7, false).unwrap();
        assert_eq!(decided, DecideOutcome::Applied);
        assert_eq!(e2.audit_sum().unwrap(), 0);
        assert!(e2.ownerless_gtids().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_eight_warehouse_build_leaves_the_pool_to_fill_on_demand() {
        const W: u64 = 8;
        let e = PartitionEngine::build(&PartitionConfig {
            tpcc: Some(TpccPartition {
                warehouses: W,
                w_lo: 0,
                w_hi: W,
            }),
            ..Default::default()
        })
        .unwrap();
        let pool = e.instance().pool();
        // Six tables' heap heads and root leaves; the customer table alone
        // is larger than the pool.
        assert!(
            pool.frames_with_memory() < 64,
            "{} frames with memory",
            pool.frames_with_memory()
        );
        assert_eq!(pool.stats.evictions.load(Ordering::Relaxed), 0);
        assert!(pool.stats.writebacks.load(Ordering::Relaxed) < 64);
        let districts = W * tpcc::DISTRICTS_PER_WAREHOUSE;
        for (name, rows) in [
            (tpcc::T_WAREHOUSE, W),
            (tpcc::T_DISTRICT, districts),
            (tpcc::T_CUSTOMER, districts * tpcc::CUSTOMERS_PER_DISTRICT),
            (tpcc::T_STOCK, W * tpcc::STOCK_PER_WAREHOUSE),
            (tpcc::T_HISTORY, 0),
            (tpcc::T_ORDER, 0),
        ] {
            let table = e.instance().table(name).unwrap();
            assert_eq!(table.row_count(), rows, "{name}");
            assert_eq!(
                table.range(0, u64::MAX).unwrap().len() as u64,
                rows,
                "{name}"
            );
        }
        assert_eq!(e.audit_sum().unwrap(), 0);
    }
}
