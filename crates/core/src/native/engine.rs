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
//!   [`PartitionSession`] parks the prepared branch in the partition's one
//!   in-doubt table (`in_doubt` module), beside any branch restart replay
//!   re-parked, until anyone applies the coordinator's decision
//!   ([`decide`](PartitionEngine::decide)).
//!
//! A [`PlanRequest`] is the only request shape executed here; the
//! batch-taking [`submit_local`](PartitionEngine::submit_local) and
//! [`prepare_branch`](PartitionEngine::prepare_branch) lower their
//! [`TxnRequest`] with [`to_plan`](TxnRequest::to_plan) and call the above.
//!
//! Keys stay **global**: the engine checks range membership instead of
//! translating, so a request routed to the wrong process is a typed error,
//! never a silent write to the wrong row.
//!
//! ## Serial partitions: one turn, no locks
//!
//! The paper's fine-grained shared-nothing configurations win on local-only
//! workloads because a partition that runs one transaction at a time needs
//! no latching or lock-manager traffic (§6.2, §7.1.1). An engine built
//! `single_threaded` ([`EngineMode::Serial`]) is such a partition: its
//! instance takes no locks, and its callers take **turns** on one mutex.
//! Each call — one attempt of a local plan, a whole prepare (footprint
//! check, plan, park), a decision, a disown, an audit or a stats read —
//! runs start to finish on the calling thread while it holds the turn,
//! exactly as the paper's single-threaded instance process runs the message
//! it just received. There is no executor thread, no queue and no
//! hand-off: an uncontended call costs one compare-and-swap more than the
//! locked engine's. The locked engine has no turn.
//!
//! Holding the turn for a whole transaction makes two-phase locking vacuous
//! for the local path: transactions never interleave. The one place
//! concurrency re-enters is **two-phase commit**: a prepared branch stays
//! in-doubt across Prepare→Decision while the partition serves other
//! requests. The locked engine holds the branch's row locks for that
//! window; a serial one has none, so its in-doubt table keeps the branch's
//! `(table, key)` footprint and answers any conflicting request the way
//! wait-die would have — the newcomer aborts at once. A conflicting
//! prepare votes No; a conflicting local attempt fails and, like a
//! wait-die victim in the locked engine, is retried within its budget
//! after a backoff taken outside the turn, so the decision it waits for
//! can land. That is what makes the two modes trace-equivalent (see
//! `tests/engine_differential.rs`).
//!
//! Callers on different cores take turns, so the partition's cache lines
//! follow whichever thread ran last; on a one-core island — the paper's
//! finest grain — nothing moves. A caller that panics while holding the
//! turn poisons it: the transaction it was in is unknowable, so every
//! later call answers [`ExecError::Gone`] instead of running on top of it.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
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

use super::in_doubt::{Bell, InDoubtTable};
use super::session::{DecideOutcome, ExecError, PartitionSession};
use super::{SubmitOutcome, MICRO_TABLE_NAME};

/// How a partition instance executes its transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Shared-everything style: callers execute concurrently, 2PL via the
    /// instance's lock manager.
    #[default]
    Locked,
    /// H-Store style: one transaction at a time per partition, no
    /// lock-table acquisition (the engine is built `single_threaded`).
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
    /// Take no locks and let callers take turns on the partition instead
    /// (the paper's fine-grained optimization; [`EngineMode::Serial`]).
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

/// What executing and preparing one branch came to, on the participant side.
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
    in_doubt: InDoubtTable,
    /// `Some` when built `single_threaded`: the turn callers take (see the
    /// module docs).
    turn: Option<Mutex<()>>,
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
    /// undone, surviving in-doubt branches parked for a
    /// [`decide`](Self::decide).
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
            turn: cfg.single_threaded.then(Mutex::default),
            inst,
        };
        // A fresh build is done: the loads wrote their pages into the store,
        // and a restart rebuilds by loading again and replaying the whole
        // log, so there is nothing to checkpoint.
        if !prior.is_empty() {
            // Restart path: replay, so a crash during this build leaves the
            // old log intact for the next try.
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

    /// Run `f` on the calling thread as one call on the partition: alone,
    /// holding the turn, when the engine is `single_threaded`; beside other
    /// callers under 2PL otherwise. The `queue_depth` gauge counts callers
    /// waiting for the turn. The in-doubt table's lock is taken inside the
    /// turn or without it ([`observe`](Self::observe)), never around it.
    fn take_turn<T>(&self, f: impl FnOnce() -> T) -> Result<T, ExecError> {
        let Some(turn) = &self.turn else {
            return Ok(f());
        };
        islands_obs::with(|m| m.queue_depth.inc());
        let held = turn.lock();
        islands_obs::with(|m| m.queue_depth.dec());
        // Poisoned: a caller panicked mid-transaction (see module docs).
        let _held = held.map_err(|_| ExecError::Gone)?;
        #[cfg(feature = "lockcheck")]
        let _owner = self.inst.lockcheck_claim();
        Ok(f())
    }

    /// Open a session: the owner the branches it prepares are parked under
    /// until it is dropped. Each connection holds its own.
    pub fn session(self: &Arc<Self>) -> PartitionSession {
        PartitionSession::new(Arc::clone(self))
    }

    /// Gtids of every parked branch no session owns, sorted: those restart
    /// replay re-parked and those whose session closed before their
    /// decision came. Each waits for the coordinator's verdict, applied
    /// through [`decide`](Self::decide).
    pub fn ownerless_gtids(&self) -> Result<Vec<u64>, ExecError> {
        self.take_turn(|| self.in_doubt.ownerless())
    }

    /// Apply the coordinator's decision to the in-doubt branch `gtid`,
    /// whichever session parked it, or restart replay.
    pub fn decide(&self, gtid: u64, commit: bool) -> Result<DecideOutcome, ExecError> {
        self.take_turn(|| {
            let _span = islands_obs::enter(BreakdownCategory::XctManagement);
            self.in_doubt.decide(gtid, commit)
        })
    }

    /// `session` closed: what it parked stays parked, owned by nobody.
    pub(crate) fn disown(&self, session: u64) -> Result<(), ExecError> {
        self.take_turn(|| self.in_doubt.disown(session))
    }

    /// What rings when branches here lose their session.
    pub fn bell(&self) -> &Bell {
        &self.in_doubt.bell
    }

    /// Fill in what only the engine knows when a stats snapshot is taken:
    /// the branches parked in its in-doubt table and its lock manager's
    /// counts. Neither needs the turn, so a partition whose turn is
    /// poisoned still reports the branches it leaves in doubt.
    pub fn observe(&self, snap: &mut Snapshot) {
        snap.in_doubt = self.in_doubt.parked() as u64;
        (snap.lock_acquires, snap.lock_waits, snap.lock_dies) = self.inst.locks().stats();
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

    /// [`submit_plan_local`](Self::submit_plan_local) for a micro batch.
    pub fn submit_local(
        &self,
        req: &TxnRequest,
        retry_limit: u32,
    ) -> Result<SubmitOutcome, ExecError> {
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
    /// never satisfy (a foreign table, a row outside the owned range), or a
    /// partition that is gone. Each attempt takes the turn; the backoff
    /// between attempts does not, so the decision a parked footprint waits
    /// for can land.
    pub fn submit_plan_local(
        &self,
        plan: &PlanRequest,
        retry_limit: u32,
    ) -> Result<SubmitOutcome, ExecError> {
        self.check_plan(plan)?;
        let mut retries = 0u32;
        loop {
            let committed = self.take_turn(|| self.attempt_local(plan))??;
            if committed || retries >= retry_limit {
                return Ok(SubmitOutcome {
                    committed,
                    distributed: false,
                    retries,
                });
            }
            retries += 1;
            super::contention_backoff(retries);
        }
    }

    /// One attempt of a checked local plan: whether it committed. Losing to
    /// contention — a lock conflict, or a row a parked footprint still
    /// claims — is an abort, not an error: the holder resolves soon.
    fn attempt_local(&self, plan: &PlanRequest) -> Result<bool, StorageError> {
        // The work happens on this thread, so the management span here
        // catches what nested storage spans don't claim.
        let _span = islands_obs::enter(BreakdownCategory::XctManagement);
        if self.in_doubt.blocks(plan) {
            return Ok(false);
        }
        let mut txn = self.inst.begin();
        match self.run_plan(&mut txn, plan).and_then(|()| txn.commit()) {
            Ok(()) => Ok(true),
            Err(StorageError::Deadlock(_))
            | Err(StorageError::LockTimeout(_))
            | Err(StorageError::MustAbort(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Execute one 2PC branch and run participant phase 1: force the prepare
    /// record and vote. Dependent reads (range scans) run *before* the
    /// prepare record is forced, so a parked branch holds their S locks
    /// alongside its write locks until the decision. Contention failures
    /// abort the branch locally and vote No (the coordinator retries the
    /// whole global transaction); `Err` is reserved for misrouted branches
    /// (a row outside this partition). A building block: it takes no turn
    /// and parks nothing; [`PartitionSession::prepare_plan`] does both.
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
    /// of `session`, parked in the in-doubt table when it votes Yes, all in
    /// one turn: no local slips in between the footprint check and the
    /// park. A misrouted branch is the coordinator's bug: a typed error,
    /// not a vote.
    pub(crate) fn prepare_parked(
        &self,
        session: u64,
        gtid: u64,
        plan: &PlanRequest,
    ) -> Result<Vote, ExecError> {
        self.take_turn(|| {
            let _span = islands_obs::enter(BreakdownCategory::XctManagement);
            let prepare = || self.prepare_plan_branch(gtid, plan);
            self.in_doubt.park(session, gtid, plan, prepare)
        })?
    }

    /// Sum of the audit counters across this partition's rows — every table
    /// in TPC-C mode — equal to the number of committed row writes (updates
    /// plus inserts) applied here. A parked 2PC branch's writes sit in its
    /// rows uncommitted, so each of its rows counts as its before-image did
    /// (an inserted row not at all), read under the in-doubt table's lock:
    /// no branch is parked or decided mid-count.
    pub fn audit_sum(&self) -> Result<u64, ExecError> {
        Ok(self.take_turn(|| self.count_audit())??)
    }

    fn count_audit(&self) -> Result<u64, StorageError> {
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
            Err(ExecError::Storage(StorageError::KeyNotFound(99)))
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
            Err(ExecError::Storage(StorageError::DuplicateKey(_)))
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
    fn a_loaded_row_update_is_one_lock_and_one_heap_page() {
        // Enough rows for an index with a root above its leaves, which the
        // load directory's lookups never descend.
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
        assert_eq!(fetches, 4, "per row: the heap page, no descent");
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
            Err(ExecError::Storage(StorageError::KeyNotFound(_)))
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
            Err(ExecError::Storage(StorageError::NoSuchTable(_)))
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
            Err(ExecError::Storage(StorageError::NoSuchTable(_)))
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
            assert!(e.ownerless_gtids().unwrap().is_empty());
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
        assert_eq!(e2.ownerless_gtids().unwrap(), vec![42]);
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
        assert_eq!(e2.decide(42, true).unwrap(), DecideOutcome::Applied);
        assert_eq!(e2.decide(42, true).unwrap(), DecideOutcome::UnknownCommit);
        assert_eq!(e2.decide(999, false).unwrap(), DecideOutcome::AbortNoop);
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
        assert_eq!(e.ownerless_gtids().unwrap(), vec![121]);
        let table = e.plan_table(MICRO_TABLE).unwrap();
        let mut raw = e.instance().begin();
        let parked = raw.modify(table, 120, |_| {});
        assert!(
            matches!(parked, Err(StorageError::Deadlock(_))),
            "a write to a parked branch's row: {parked:?}"
        );
        raw.abort().unwrap();
        assert_eq!(e.decide(121, true).unwrap(), DecideOutcome::Applied);
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
                let decided = e.decide(key + 1, true).unwrap();
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
        assert!(e2.ownerless_gtids().unwrap().is_empty());
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
        assert_eq!(e2.ownerless_gtids().unwrap(), vec![7]);
        let decided = e2.decide(7, false).unwrap();
        assert_eq!(decided, DecideOutcome::Applied);
        assert_eq!(e2.audit_sum().unwrap(), 0);
        assert!(e2.ownerless_gtids().unwrap().is_empty());
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

    /// A local that meets a parked branch, with budget `budget`, while
    /// another thread decides the branch commit a few ms after the local
    /// starts: the local's outcome, once the audit is checked.
    fn local_meeting_a_parked_branch(single_threaded: bool, budget: u32) -> SubmitOutcome {
        let e = Arc::new(
            PartitionEngine::build(&PartitionConfig {
                lo: 100,
                hi: 200,
                row_size: 16,
                buffer_frames: 256,
                single_threaded,
                ..Default::default()
            })
            .unwrap(),
        );
        let a = e.session();
        let branch = update(&[110]).to_plan();
        assert_eq!(a.prepare_plan(7, &branch).unwrap(), Vote::Yes);
        let submitting = std::sync::Barrier::new(2);
        let out = std::thread::scope(|s| {
            s.spawn(|| {
                submitting.wait();
                std::thread::sleep(Duration::from_millis(3));
                assert_eq!(e.decide(7, true).unwrap(), DecideOutcome::Applied);
            });
            submitting.wait();
            e.submit_local(&update(&[110, 111]), budget).unwrap()
        });
        // The branch's write, and the local's two if it committed.
        let writes = 1 + 2 * out.committed as u64;
        assert_eq!(e.audit_sum().unwrap(), writes, "{out:?}");
        out
    }

    #[test]
    fn a_local_waits_out_a_parked_branch_within_its_budget_in_both_modes() {
        for single_threaded in [false, true] {
            let out = local_meeting_a_parked_branch(single_threaded, 64);
            assert!(
                out.committed && out.retries > 0,
                "single_threaded={single_threaded}: {out:?}"
            );
        }
    }

    #[test]
    fn a_local_with_no_budget_loses_to_a_parked_branch_in_both_modes() {
        for single_threaded in [false, true] {
            let out = local_meeting_a_parked_branch(single_threaded, 0);
            assert_eq!(
                (out.committed, out.retries),
                (false, 0),
                "single_threaded={single_threaded}"
            );
        }
    }

    /// A serial partition: an engine built `single_threaded`, whose callers
    /// take turns.
    mod serial {
        use super::super::*;
        use super::update;

        fn serial_with(partition: PartitionConfig) -> Arc<PartitionEngine> {
            let partition = PartitionConfig {
                single_threaded: true,
                ..partition
            };
            Arc::new(PartitionEngine::build(&partition).unwrap())
        }

        fn serial_partition() -> Arc<PartitionEngine> {
            serial_with(PartitionConfig {
                lo: 100,
                hi: 200,
                row_size: 16,
                buffer_frames: 256,
                ..Default::default()
            })
        }

        fn prepare(s: &PartitionSession, gtid: u64, keys: &[u64]) -> Result<Vote, ExecError> {
            s.prepare_plan(gtid, &update(keys).to_plan())
        }

        #[test]
        fn serial_submit_commits_without_locks() {
            let e = serial_partition();
            let out = e.submit_local(&update(&[100, 150, 199]), 0).unwrap();
            assert!(out.committed);
            assert_eq!(out.retries, 0);
            assert_eq!(e.audit_sum().unwrap(), 3);
            assert_eq!(e.instance().locks().stats(), (0, 0, 0));
        }

        #[test]
        fn misrouted_keys_are_errors_not_writes() {
            let e = serial_partition();
            let s = e.session();
            assert!(matches!(
                e.submit_local(&update(&[99]), 0),
                Err(ExecError::Storage(StorageError::KeyNotFound(99)))
            ));
            assert!(matches!(
                prepare(&s, 1, &[200]),
                Err(ExecError::Storage(StorageError::KeyNotFound(200)))
            ));
            assert_eq!(e.audit_sum().unwrap(), 0);
        }

        #[test]
        fn in_doubt_branch_aborts_conflicting_work_until_decided() {
            let e = serial_partition();
            let s = e.session();
            assert!(matches!(prepare(&s, 7, &[110]), Ok(Vote::Yes)));
            // Conflicting local submit: immediate abort, like wait-die.
            let blocked = e.submit_local(&update(&[110, 111]), 0).unwrap();
            assert!(!blocked.committed);
            // Conflicting prepare of another gtid: votes No.
            assert!(matches!(prepare(&s, 8, &[110]), Ok(Vote::No)));
            // Non-conflicting work flows freely.
            assert!(e.submit_local(&update(&[150]), 0).unwrap().committed);
            // Decision releases the keys.
            assert!(matches!(e.decide(7, true), Ok(DecideOutcome::Applied)));
            assert!(e.submit_local(&update(&[110]), 0).unwrap().committed);
            assert_eq!(e.audit_sum().unwrap(), 3);
        }

        #[test]
        fn abort_decision_undoes_the_branch() {
            let e = serial_partition();
            let s = e.session();
            assert!(matches!(prepare(&s, 9, &[120]), Ok(Vote::Yes)));
            assert!(matches!(e.decide(9, false), Ok(DecideOutcome::Applied)));
            assert_eq!(e.audit_sum().unwrap(), 0);
        }

        #[test]
        fn decisions_for_unknown_gtids_follow_presumed_abort() {
            let e = serial_partition();
            assert!(matches!(e.decide(42, false), Ok(DecideOutcome::AbortNoop)));
            assert!(matches!(
                e.decide(42, true),
                Ok(DecideOutcome::UnknownCommit)
            ));
        }

        #[test]
        fn duplicate_gtid_prepare_is_rejected() {
            let e = serial_partition();
            let s = e.session();
            assert!(matches!(prepare(&s, 5, &[130]), Ok(Vote::Yes)));
            assert!(matches!(
                prepare(&s, 5, &[131]),
                Err(ExecError::DuplicateGtid(5))
            ));
            assert!(matches!(e.decide(5, false), Ok(DecideOutcome::Applied)));
        }

        #[test]
        fn a_dropped_sessions_branches_stay_parked_until_decided() {
            let e = serial_partition();
            let dying = e.session();
            let surviving = e.session();
            assert!(matches!(prepare(&dying, 1, &[110]), Ok(Vote::Yes)));
            assert!(matches!(prepare(&dying, 2, &[111]), Ok(Vote::Yes)));
            assert!(matches!(prepare(&surviving, 3, &[112]), Ok(Vote::Yes)));
            let rung = e.bell().rung();
            drop(dying);
            assert_eq!(e.bell().rung(), rung + 1, "the drop rings the bell once");
            // A Yes vote binds: both branches stay parked, owned by nobody,
            // and still guard their keys, as the survivor's does.
            assert_eq!(e.ownerless_gtids().unwrap(), [1, 2]);
            for key in [110, 111, 112] {
                assert!(!e.submit_local(&update(&[key]), 0).unwrap().committed);
            }
            // Decisions from anyone settle them.
            assert!(matches!(e.decide(1, true), Ok(DecideOutcome::Applied)));
            assert!(matches!(e.decide(2, false), Ok(DecideOutcome::Applied)));
            assert!(matches!(e.decide(3, true), Ok(DecideOutcome::Applied)));
            assert!(e.ownerless_gtids().unwrap().is_empty());
            assert_eq!(e.audit_sum().unwrap(), 2);
        }

        #[test]
        fn decisions_apply_across_sessions() {
            // A coordinator that reconnects decides on a fresh connection;
            // the branch is partition-wide, so the decision still lands.
            let e = serial_partition();
            let preparer = e.session();
            assert!(matches!(prepare(&preparer, 6, &[140]), Ok(Vote::Yes)));
            assert!(matches!(e.decide(6, true), Ok(DecideOutcome::Applied)));
            let rung = e.bell().rung();
            drop(preparer);
            assert_eq!(e.bell().rung(), rung, "branch already decided elsewhere");
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
        fn sessions_on_many_threads_take_turns_on_the_partition() {
            // The turn is the only thing between 8 threads and a lock-free
            // engine: every committed write must be counted exactly once,
            // 2PC branches included, and nobody may see `Gone`.
            const THREADS: u64 = 8;
            const ROUNDS: u64 = 2_000;
            let e = serial_partition();
            let start = std::sync::Barrier::new(THREADS as usize);
            let metrics = Arc::new(islands_obs::Metrics::new());
            let written: u64 = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (e, start, metrics) = (&e, &start, &metrics);
                        scope.spawn(move || {
                            let _scope = islands_obs::scope(metrics);
                            let s = e.session();
                            let mut written = 0u64;
                            start.wait();
                            for i in 0..ROUNDS {
                                // 4 shared keys, so in-doubt footprints do
                                // abort other threads' work.
                                let key = 100 + (t + i) % 4;
                                if i % 8 == 0 {
                                    let gtid = t * ROUNDS + i;
                                    let commit = i % 16 == 0;
                                    if prepare(&s, gtid, &[key]).unwrap() == Vote::Yes {
                                        let decided = e.decide(gtid, commit).unwrap();
                                        assert_eq!(decided, DecideOutcome::Applied);
                                        written += commit as u64;
                                    }
                                } else if e.submit_local(&update(&[key]), 0).unwrap().committed {
                                    written += 1;
                                }
                            }
                            written
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            // How many attempts an in-doubt footprint aborted is up to the
            // scheduler; that every committed one is counted once is not.
            assert!(written > 0);
            assert_eq!(e.audit_sum().unwrap(), written);
            // Nobody is left waiting for the turn.
            assert_eq!(metrics.queue_depth.get(), 0);
        }

        #[test]
        fn a_session_that_dies_holding_the_partition_leaves_it_gone() {
            let e = serial_partition();
            let survivor = e.session();
            assert!(e.submit_local(&update(&[110]), 0).unwrap().committed);
            let died = std::thread::scope(|s| {
                s.spawn(|| {
                    let _held = e.turn.as_ref().unwrap().lock().unwrap();
                    panic!("session died mid-transaction");
                })
                .join()
            });
            assert!(died.is_err());
            // Typed errors from every entry point: no hang, no second panic,
            // and no retry loop on a partition that is gone.
            assert!(matches!(
                e.submit_local(&update(&[111]), 64),
                Err(ExecError::Gone)
            ));
            assert!(matches!(
                prepare(&survivor, 1, &[112]),
                Err(ExecError::Gone)
            ));
            assert!(matches!(e.decide(1, true), Err(ExecError::Gone)));
            assert!(matches!(
                e.submit_local(&update(&[113]), 0),
                Err(ExecError::Gone)
            ));
            assert!(matches!(e.audit_sum(), Err(ExecError::Gone)));
            assert!(matches!(e.ownerless_gtids(), Err(ExecError::Gone)));
            drop(survivor);
        }

        #[test]
        fn a_gone_partition_still_reports_its_parked_branches() {
            let e = serial_partition();
            let s = e.session();
            assert!(matches!(prepare(&s, 7, &[110]), Ok(Vote::Yes)));
            let died = std::thread::scope(|s| {
                s.spawn(|| {
                    let _held = e.turn.as_ref().unwrap().lock().unwrap();
                    panic!("session died mid-transaction");
                })
                .join()
            });
            assert!(died.is_err());
            assert!(matches!(e.decide(7, true), Err(ExecError::Gone)));
            // A drain check reading this snapshot must see the leak.
            let mut snap = Snapshot::default();
            e.observe(&mut snap);
            assert_eq!(snap.in_doubt, 1);
        }

        #[cfg(feature = "lockcheck")]
        #[test]
        #[should_panic(expected = "lockcheck: cross-thread access")]
        fn a_handle_used_outside_the_partition_lock_is_caught() {
            let e = serial_partition();
            let mut txn = e.take_turn(|| e.instance().begin()).unwrap();
            // Same thread, but the turn is over: any other caller may be
            // running a transaction on the partition right now.
            let _ = txn.read(crate::native::MICRO_TABLE_NAME, 110);
        }

        fn tpcc_serial_partition() -> Arc<PartitionEngine> {
            serial_with(PartitionConfig {
                buffer_frames: 8192,
                tpcc: Some(TpccPartition {
                    warehouses: 2,
                    w_lo: 0,
                    w_hi: 1,
                }),
                ..Default::default()
            })
        }

        #[test]
        fn serial_executor_runs_tpcc_plans() {
            let e = tpcc_serial_partition();
            let order = tpcc::NewOrder {
                w_id: 0,
                d_id: 2,
                c_id: 5,
                items: vec![10, 20],
            };
            let out = e.submit_plan_local(&order.plan(3), 0).unwrap();
            assert!(out.committed);
            // District + 2 stock updates + order insert.
            assert_eq!(e.audit_sum().unwrap(), 4);
        }

        #[test]
        fn parked_plan_branch_guards_its_dependent_reads_per_table() {
            use islands_workload::plan::{PlanClass, TPCC_CUSTOMER};
            let e = tpcc_serial_partition();
            let s = e.session();
            // Remote-payment customer-side branch: dependent scan of
            // customers 16..20 plus the customer update, parked in-doubt.
            let branch = PlanRequest {
                class: PlanClass::Payment,
                multisite: true,
                steps: vec![
                    PlanStep::range(TPCC_CUSTOMER, tpcc::customer_key(0, 1, 16), 4),
                    PlanStep::point(TPCC_CUSTOMER, tpcc::customer_key(0, 1, 17), StepOp::Update),
                ],
            };
            assert!(matches!(s.prepare_plan(21, &branch), Ok(Vote::Yes)));
            // A plan touching a *scanned* row conflicts and aborts at once.
            let scanned = PlanRequest {
                class: PlanClass::Generic,
                multisite: false,
                steps: vec![PlanStep::point(
                    TPCC_CUSTOMER,
                    tpcc::customer_key(0, 1, 19),
                    StepOp::Update,
                )],
            };
            assert!(!e.submit_plan_local(&scanned, 0).unwrap().committed);
            // The same row number in a *different table* does not conflict.
            let other_table = tpcc::NewOrder {
                w_id: 0,
                d_id: 1,
                c_id: 40,
                items: vec![19],
            };
            assert!(
                e.submit_plan_local(&other_table.plan(8), 0)
                    .unwrap()
                    .committed
            );
            // Decision releases the footprint.
            assert!(matches!(e.decide(21, true), Ok(DecideOutcome::Applied)));
            assert!(e.submit_plan_local(&scanned, 0).unwrap().committed);
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
            // First incarnation prepares a branch and "crashes" (the
            // forgotten handle never logs a decision, like kill -9 after
            // Prepare-ack).
            {
                let eng = serial_with(partition.clone());
                let BranchOutcome::Prepared(handle) =
                    eng.prepare_branch(77, &update(&[150])).unwrap()
                else {
                    panic!("writer branch must prepare");
                };
                std::mem::forget(handle);
            }
            let e2 = serial_with(partition);
            assert_eq!(e2.ownerless_gtids().unwrap(), vec![77]);
            let s = e2.session();
            // The recovered branch guards its key against new work.
            assert!(!e2.submit_local(&update(&[150]), 0).unwrap().committed);
            assert!(matches!(prepare(&s, 78, &[150]), Ok(Vote::No)));
            // A normal decision resolves it.
            assert!(matches!(e2.decide(77, true), Ok(DecideOutcome::Applied)));
            assert!(e2.ownerless_gtids().unwrap().is_empty());
            assert_eq!(e2.audit_sum().unwrap(), 1);
            assert!(e2.submit_local(&update(&[150]), 0).unwrap().committed);
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn misrouted_plans_are_typed_errors_on_the_executor() {
            let e = tpcc_serial_partition();
            // Warehouse 1 belongs to the other instance.
            let foreign = tpcc::NewOrder {
                w_id: 1,
                d_id: 0,
                c_id: 0,
                items: vec![1],
            };
            assert!(matches!(
                e.submit_plan_local(&foreign.plan(1 << 32), 0),
                Err(ExecError::Storage(StorageError::KeyNotFound(_)))
            ));
            assert_eq!(e.audit_sum().unwrap(), 0);
        }
    }
}
