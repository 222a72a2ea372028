//! The simulated OLTP cluster: NISL deployments under the NUMA cost model.
//!
//! Execution model: a closed system with multiprogramming level equal to
//! the number of active cores (the paper pins one worker per core). Each
//! in-flight transaction is a simulator task; its CPU bursts occupy the
//! core it is assigned to (FIFO per-core occupancy), while lock waits,
//! commit-durability waits, message latencies and disk I/O suspend without
//! occupying the core. Completing a transaction admits the next request,
//! routed to the instance owning its home site — under skew this floods the
//! hot instance, reproducing the bottleneck behavior of Figure 13.
//!
//! Distributed transactions run presumed-abort 2PC with the read-only
//! optimization through the `islands-dtxn` machines the served stack runs
//! (and `dtxn::mc` model-checks): the `Execute` message carries the prepare
//! request (the standard piggyback), so a read-only participant costs one
//! round trip and an update participant two, matching the messaging
//! asymmetry of Figure 11.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use islands_dtxn::{
    Action, Coordinator, CoordinatorState, Gtid, Participant, ParticipantEvent, Vote,
};
use islands_hwtopo::{CoreId, Machine, NislConfig, PlacementStyle, SocketId};
use islands_memsim::{CostModel, CounterSnapshot, Line, Region, RegionSpec};
use islands_obs::{BreakdownCategory as Cat, NCATS};
use islands_sim::chan::{channel, Receiver, Sender};
use islands_sim::disk::{Disk, DiskParams, Raid0};
use islands_sim::sync::{Event, Notify, SimMutex};
use islands_sim::{Sim, SimTime};
use islands_storage::lock::{Acquire, LockId, LockMode, LockTable};
use islands_storage::wal::{Batch, Force, LogBuffer, LogPayload};
use islands_storage::{InstanceOptions, Lsn, TxnId};
use islands_workload::plan::{self, PlanRequest, PlanStep};
use islands_workload::tpcc::{self, PaymentGenerator};
use islands_workload::{MicroGenerator, MicroSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::partition::{instance_of_site, split_plan_by_owner, RangeSites, Sites, WarehouseSites};
use crate::simrt::costs::CostParams;

/// Workloads the simulated cluster can run.
#[derive(Debug, Clone)]
pub enum SimWorkload {
    Micro(MicroSpec),
    Payment { warehouses: u64, remote_pct: f64 },
}

/// Configuration of one simulated run.
#[derive(Clone)]
pub struct SimClusterConfig {
    pub machine: Machine,
    pub n_instances: usize,
    pub style: PlacementStyle,
    /// Restrict to the first `n` cores (Figure 12 scale-up).
    pub active_cores: Option<u32>,
    /// Override worker cores (Figure 3's Spread/Group/Mix placements;
    /// requires `n_instances == 1`).
    pub worker_cores: Option<Vec<CoreId>>,
    /// Model unpinned OS scheduling (random core per txn + migrations).
    pub os_scheduling: bool,
    pub seed: u64,
    pub warmup_ms: u64,
    pub measure_ms: u64,
    pub costs: CostParams,
    /// Total buffer pool bytes across the cluster; `None` = fully resident.
    pub buffer_bytes: Option<u64>,
    /// Data disks behind the buffer pool (Figure 14's 2-HDD RAID-0).
    pub data_disk: Option<DiskParams>,
    /// Closed-loop multiprogramming level per core. Requests are routed by
    /// key, so a depth > 1 keeps uniformly-loaded instances busy while
    /// still letting skew pile requests onto the hot instance.
    pub mpl_per_core: usize,
}

impl SimClusterConfig {
    pub fn new(machine: Machine, n_instances: usize) -> Self {
        SimClusterConfig {
            machine,
            n_instances,
            style: PlacementStyle::Islands,
            active_cores: None,
            worker_cores: None,
            os_scheduling: false,
            seed: 42,
            warmup_ms: 5,
            measure_ms: 25,
            costs: CostParams::default(),
            buffer_bytes: None,
            data_disk: None,
            mpl_per_core: 4,
        }
    }

    pub fn label(&self) -> String {
        match self.style {
            PlacementStyle::Islands => format!("{}ISL", self.n_instances),
            PlacementStyle::Spread => format!("{}SPR", self.n_instances),
        }
    }
}

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

struct SimTable {
    row_size: usize,
    /// Index levels per probe.
    height: u32,
    index_region: Region,
    heap_region: Region,
    /// Exactly-once audit counters for owned rows (small tables only).
    counters: Option<RefCell<Vec<u32>>>,
    base_key: u64,
    /// Page write-latches: writers to the same page serialize. Tiny hot
    /// tables (TPC-C Warehouse: 24 rows = one page) make this the paper's
    /// "contention on the Warehouse table" in shared-everything.
    page_latches: Vec<SimMutex<()>>,
    rows_per_page: u64,
}

/// 2PC messages between instances. The gtid is the coordinator's `TxnId`,
/// so a remote branch locks with its transaction's wait-die age.
enum Msg {
    ExecutePrepare {
        gtid: Gtid,
        from: usize,
        steps: Vec<PlanStep>,
    },
    Vote {
        gtid: Gtid,
        from: usize,
        vote: Vote,
    },
    Decision {
        gtid: Gtid,
        from: usize,
        commit: bool,
    },
    Ack {
        gtid: Gtid,
        from: usize,
    },
}

struct PreparedPart {
    machine: Participant,
    applied: Vec<(u32, u64)>,
}

/// The coordinator's side of one distributed transaction. The poller feeds
/// votes and acks into the machine and keeps the actions it emits; the
/// coordinating task wakes once when every vote is in and once when the
/// machine has finished.
struct PendingCoord {
    machine: RefCell<Coordinator>,
    actions: RefCell<Vec<Action>>,
    votes_in: Event,
    finished: Event,
}

impl PendingCoord {
    fn wake(&self, machine: &Coordinator) {
        if machine.votes().iter().all(Option::is_some) {
            self.votes_in.set();
            if matches!(machine.state(), CoordinatorState::Finished { .. }) {
                self.finished.set();
            }
        }
    }
}

/// One instance's log: the served WAL's buffer and group-commit policy
/// ([`LogBuffer::force`]), driven in simulated time over the log disk. A
/// leader's write is one `disk.access` of its batch's bytes.
struct InstanceLog {
    buffer: RefCell<LogBuffer>,
    /// Fires when a leader hands its batch back.
    flushed: Notify,
    disk: Disk,
}

impl InstanceLog {
    fn new(sim: &Sim, disk: DiskParams) -> Self {
        InstanceLog {
            buffer: RefCell::new(LogBuffer::new(
                InstanceOptions::default().flush_threshold,
                0,
            )),
            flushed: Notify::new(),
            disk: Disk::new(sim, disk),
        }
    }

    /// Append a record; returns the LSN to force. An append that fills the
    /// buffer past its threshold with no flush in flight writes the batch.
    async fn append(&self, txn: TxnId, payload: &LogPayload) -> Lsn {
        let (lsn, due) = {
            let mut buffer = self.buffer.borrow_mut();
            (buffer.append(txn, payload), buffer.due())
        };
        if let Some(batch) = due {
            self.write(batch).await;
        }
        lsn
    }

    /// Wait until `lsn` is durable, leading a flush when nobody is.
    async fn force(&self, lsn: Lsn) {
        loop {
            let next = self.buffer.borrow_mut().force(lsn);
            match next {
                Force::Durable => return,
                Force::Wait => self.flushed.notified().await,
                Force::Lead(batch) => self.write(batch).await,
            }
        }
    }

    async fn write(&self, batch: Batch) {
        self.disk.access(batch.bytes().len() as u64).await;
        self.buffer.borrow_mut().written(batch);
        self.flushed.notify_all();
    }
}

struct Instance {
    idx: usize,
    cores: Vec<CoreId>,
    core_rr: Cell<usize>,
    core_slots: Vec<SimMutex<()>>,
    /// Locking skipped: single worker *and* a perfectly local workload
    /// (the paper notes locking is mandatory once transactions can be
    /// distributed, Section 7.1.2).
    locks_off: bool,
    client_q: RefCell<std::collections::VecDeque<PlanRequest>>,
    q_notify: Notify,
    home_socket: Option<SocketId>,
    tables: HashMap<u32, SimTable>,
    lock_table: RefCell<LockTable>,
    lock_waiters: RefCell<HashMap<TxnId, Event>>,
    lock_lines: Vec<Line>,
    ctrl_line: Line,
    log_line: Line,
    /// Serialized transaction-manager section (begin/commit bookkeeping):
    /// every Shore-MT transaction enters contentious critical sections
    /// (Sections 2.1, 7.2); this is the shared-everything scalability
    /// ceiling of Figure 12.
    xct_mutex: SimMutex<()>,
    log: InstanceLog,
    inbox: Sender<Msg>,
    prepared: RefCell<HashMap<Gtid, PreparedPart>>,
    pending: RefCell<HashMap<Gtid, Rc<PendingCoord>>>,
    hist_ctr: Cell<u64>,
    /// Probability a row access misses the buffer pool and hits disk.
    io_miss_prob: f64,
    /// Shared engine state (lock manager, latches, buffer-pool hash).
    engine_region: Region,
}

enum Gen {
    Micro(MicroGenerator),
    Payment(PaymentGenerator),
}

struct Stats {
    commits: Cell<u64>,
    aborts: Cell<u64>,
    distributed: Cell<u64>,
    committed_writes: Cell<u64>,
}

struct Cluster {
    sim: Sim,
    cost: Rc<CostModel>,
    costs: CostParams,
    machine: Machine,
    instances: Vec<Rc<Instance>>,
    sites: Sites,
    gen: RefCell<Gen>,
    rng: RefCell<SmallRng>,
    stats: Stats,
    /// Picoseconds billed per Figure 11 category.
    breakdown: Cell<[u64; NCATS]>,
    next_txn: Cell<u64>,
    raid: Option<Raid0>,
    os_scheduling: bool,
    os_migration_penalty_ps: u64,
    active_cores: Vec<CoreId>,
    end_time: Cell<SimTime>,
}

/// One measured run of the simulated cluster.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub label: String,
    /// Committed transactions inside the measurement window.
    pub commits: u64,
    /// Aborted transaction attempts (wait-die kills, No votes).
    pub aborts: u64,
    /// Measurement window, picoseconds of virtual time.
    pub window_ps: u64,
    /// Picoseconds per Figure 11 category, indexed by
    /// [`BreakdownCategory::index`](islands_obs::BreakdownCategory::index).
    pub breakdown: [u64; NCATS],
    /// Committed distributed transactions.
    pub distributed: u64,
    /// Perf-counter extras of the memory-hierarchy model (Figures 8, 12).
    pub qpi_imc_ratio: f64,
    pub ipc: f64,
    pub stalled_frac: f64,
    pub sibling_share_frac: f64,
}

impl RunResult {
    /// Thousands of transactions per second (the paper's KTps axes).
    pub fn ktps(&self) -> f64 {
        if self.window_ps == 0 {
            return 0.0;
        }
        self.commits as f64 / (self.window_ps as f64 / 1e12) / 1e3
    }

    /// Mean billed time per committed transaction, microseconds.
    pub fn cost_per_txn_us(&self) -> f64 {
        if self.commits == 0 {
            return 0.0;
        }
        self.breakdown.iter().sum::<u64>() as f64 / self.commits as f64 / 1e6
    }
}

/// Audit data for protocol-correctness tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Audit {
    /// Sum of per-row applied-update counters across all instances.
    pub applied_row_updates: u64,
    /// Row writes belonging to committed transactions.
    pub committed_row_writes: u64,
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

/// Page latches for a table of `owned` rows: one latch per page, capped.
fn make_latches(owned: u64, row_size: usize) -> (Vec<SimMutex<()>>, u64) {
    let rows_per_page = (8192 / (row_size as u64 + 12)).max(1);
    let pages = (owned / rows_per_page).clamp(1, 128) as usize;
    (
        (0..pages).map(|_| SimMutex::new(())).collect(),
        rows_per_page,
    )
}

fn index_height(rows: u64) -> u32 {
    let fanout = 400f64;
    let mut h = 1;
    let mut cap = fanout;
    while (rows as f64) > cap {
        h += 1;
        cap *= fanout;
    }
    h
}

fn build_tables(
    workload: &SimWorkload,
    inst_idx: usize,
    n_instances: usize,
    cores: &[CoreId],
    home: Option<SocketId>,
) -> HashMap<u32, SimTable> {
    let mut out = HashMap::new();
    let mk_region = |name: &'static str, bytes: u64, write_ratio: f64| {
        Region::new(RegionSpec {
            name,
            footprint_bytes: bytes.max(1),
            home_socket: home,
            writer_cores: if write_ratio > 0.0 {
                cores.to_vec()
            } else {
                Vec::new()
            },
            write_ratio,
        })
    };
    match workload {
        SimWorkload::Micro(spec) => {
            let owned = spec.total_rows / n_instances as u64;
            let base_key = inst_idx as u64 * owned;
            let write_ratio = match spec.kind {
                islands_workload::OpKind::Read => 0.0,
                islands_workload::OpKind::Update => 0.5,
            };
            let audit = owned <= 4_000_000;
            let (latches, rpp) = make_latches(owned, spec.row_size);
            out.insert(
                plan::MICRO_TABLE,
                SimTable {
                    row_size: spec.row_size,
                    height: index_height(spec.total_rows),
                    index_region: mk_region("micro-index", owned * 16, 0.02),
                    heap_region: mk_region(
                        "micro-heap",
                        owned * (spec.row_size as u64 + 40),
                        write_ratio,
                    ),
                    counters: audit.then(|| RefCell::new(vec![0u32; owned as usize + 1])),
                    base_key,
                    page_latches: latches,
                    rows_per_page: rpp,
                },
            );
        }
        SimWorkload::Payment { warehouses, .. } => {
            let scale = tpcc::TpccScale {
                warehouses: *warehouses,
            };
            let per = |rows: u64| rows / n_instances as u64;
            let specs = [
                (
                    plan::TPCC_WAREHOUSE,
                    scale.warehouse_rows(),
                    tpcc::WAREHOUSE_ROW,
                    0.9,
                ),
                (
                    plan::TPCC_DISTRICT,
                    scale.district_rows(),
                    tpcc::DISTRICT_ROW,
                    0.9,
                ),
                (
                    plan::TPCC_CUSTOMER,
                    scale.customer_rows(),
                    tpcc::CUSTOMER_ROW,
                    0.5,
                ),
                (
                    plan::TPCC_HISTORY,
                    scale.customer_rows() / 3,
                    tpcc::HISTORY_ROW,
                    0.9,
                ),
            ];
            for (id, rows, row_size, wr) in specs {
                let (latches, rpp) = make_latches(per(rows).max(1), row_size);
                out.insert(
                    id,
                    SimTable {
                        row_size,
                        height: index_height(rows.max(1)),
                        index_region: mk_region("tpcc-index", per(rows) * 16, 0.05),
                        heap_region: mk_region("tpcc-heap", per(rows) * (row_size as u64 + 40), wr),
                        counters: None,
                        base_key: 0,
                        page_latches: latches,
                        rows_per_page: rpp,
                    },
                );
            }
        }
    }
    out
}

fn build_cluster(cfg: &SimClusterConfig, workload: &SimWorkload) -> Rc<Cluster> {
    let sim = Sim::new();
    let machine = cfg.machine.clone();
    let cost = CostModel::new(machine.clone(), cfg.seed ^ 0x9E3779B97F4A7C15);
    let active: Vec<CoreId> = match cfg.active_cores {
        Some(n) => machine.with_active_cores(n).cores,
        None => machine.all_cores().collect(),
    };
    // Instance placements.
    let placements: Vec<Vec<CoreId>> = if let Some(cores) = &cfg.worker_cores {
        assert_eq!(cfg.n_instances, 1, "worker_cores override needs 1ISL");
        vec![cores.clone()]
    } else {
        NislConfig::new(&machine, &active, cfg.n_instances, cfg.style)
            .placements
            .into_iter()
            .map(|p| p.cores)
            .collect()
    };
    let worker_cores: Vec<CoreId> = placements.iter().flatten().copied().collect();

    let sites = match workload {
        SimWorkload::Micro(spec) => Sites::Range(RangeSites {
            total_rows: spec.total_rows,
            n_sites: worker_cores.len(),
        }),
        SimWorkload::Payment { warehouses, .. } => Sites::Warehouse(WarehouseSites {
            warehouses: *warehouses,
            n_sites: *warehouses as usize,
        }),
    };

    let raid = cfg.data_disk.map(|params| Raid0::new(&sim, params, 2));
    let workload_local = match workload {
        SimWorkload::Micro(spec) => spec.multisite_pct == 0.0,
        SimWorkload::Payment { remote_pct, .. } => *remote_pct == 0.0,
    };

    let mut instances = Vec::with_capacity(cfg.n_instances);
    for (idx, cores) in placements.iter().enumerate() {
        let single = cores.len() == 1;
        let sockets: Vec<SocketId> = {
            let mut s: Vec<SocketId> = cores.iter().map(|&c| machine.socket_of(c)).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        let home = if sockets.len() == 1 {
            Some(sockets[0])
        } else {
            None
        };
        let tables = build_tables(workload, idx, cfg.n_instances, cores, home);
        // Buffer-pool miss probability (Figure 14).
        let io_miss_prob = match cfg.buffer_bytes {
            None => 0.0,
            Some(total) => {
                let footprint: u64 = tables
                    .values()
                    .map(|t| t.heap_region.spec().footprint_bytes)
                    .sum();
                let share = total / cfg.n_instances as u64;
                if footprint <= share {
                    0.0
                } else {
                    1.0 - share as f64 / footprint as f64
                }
            }
        };
        // Engine-state working set grows with the worker count (each
        // worker's transactions keep their own latch/lock footprints live).
        let engine_region = Region::new(RegionSpec {
            name: "engine-state",
            footprint_bytes: (cores.len() as u64) * (256 << 10),
            home_socket: home,
            writer_cores: cores.clone(),
            write_ratio: if cores.len() > 1 { 0.7 } else { 0.0 },
        });
        let (tx, rx) = channel::<Msg>(&sim);
        let inst = Rc::new(Instance {
            idx,
            cores: cores.clone(),
            core_rr: Cell::new(0),
            core_slots: cores.iter().map(|_| SimMutex::new(())).collect(),
            locks_off: single && workload_local,
            client_q: RefCell::new(std::collections::VecDeque::new()),
            q_notify: Notify::new(),
            home_socket: home,
            tables,
            lock_table: RefCell::new(LockTable::new()),
            lock_waiters: RefCell::new(HashMap::new()),
            lock_lines: (0..cfg.costs.lock_buckets).map(|_| Line::new()).collect(),
            ctrl_line: Line::new(),
            log_line: Line::new(),
            xct_mutex: SimMutex::new(()),
            log: InstanceLog::new(&sim, cfg.costs.log_disk),
            inbox: tx,
            prepared: RefCell::new(HashMap::new()),
            pending: RefCell::new(HashMap::new()),
            hist_ctr: Cell::new(0),
            io_miss_prob,
            engine_region,
        });
        instances.push((inst, rx));
    }

    let gen = match workload {
        SimWorkload::Micro(spec) => {
            Gen::Micro(MicroGenerator::new(spec.clone(), worker_cores.len() as u64))
        }
        SimWorkload::Payment {
            warehouses,
            remote_pct,
        } => Gen::Payment(PaymentGenerator::new(*warehouses, *remote_pct)),
    };

    let cluster = Rc::new(Cluster {
        sim: sim.clone(),
        cost,
        costs: cfg.costs.clone(),
        os_migration_penalty_ps: machine.calib.os_migration_penalty_ps,
        machine,
        instances: instances.iter().map(|(i, _)| Rc::clone(i)).collect(),
        sites,
        gen: RefCell::new(gen),
        rng: RefCell::new(SmallRng::seed_from_u64(cfg.seed)),
        stats: Stats {
            commits: Cell::new(0),
            aborts: Cell::new(0),
            distributed: Cell::new(0),
            committed_writes: Cell::new(0),
        },
        breakdown: Cell::new([0; NCATS]),
        next_txn: Cell::new(1),
        raid,
        os_scheduling: cfg.os_scheduling,
        active_cores: worker_cores,
        end_time: Cell::new(SimTime(u64::MAX)),
    });

    // Network pollers.
    for (inst, rx) in instances {
        let cl = Rc::clone(&cluster);
        sim.spawn(async move { poller(cl, inst.idx, rx).await });
    }
    cluster
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Died;

impl Cluster {
    fn alloc_txn(&self) -> TxnId {
        let id = self.next_txn.get();
        self.next_txn.set(id + 1);
        TxnId(id)
    }

    fn pick_core(&self, inst: &Instance) -> usize {
        if self.os_scheduling {
            self.rng.borrow_mut().gen_range(0..inst.cores.len())
        } else {
            let i = inst.core_rr.get();
            inst.core_rr.set((i + 1) % inst.cores.len());
            i
        }
    }

    /// The instance owning `(table, key)`: its logical site's group.
    fn owner_of(&self, table: u32, key: u64) -> usize {
        instance_of_site(
            self.sites.site_of(table, key),
            self.sites.n_sites(),
            self.instances.len(),
        )
    }

    fn gen_plan(&self) -> PlanRequest {
        let mut rng = self.rng.borrow_mut();
        match &*self.gen.borrow() {
            Gen::Micro(g) => g.next(&mut *rng).to_plan(),
            Gen::Payment(g) => {
                let home = rng.gen_range(0..g.warehouses);
                let p = g.next(&mut *rng, home);
                // History rows are homed at the paying warehouse.
                let home_inst = self.owner_of(plan::TPCC_WAREHOUSE, p.w_id);
                let ctr = self.instances[home_inst].hist_ctr.get();
                self.instances[home_inst].hist_ctr.set(ctr + 1);
                p.plan((p.w_id << 32) | ctr, false)
            }
        }
    }
}

/// Occupy `core` of `inst` for `ps` of busy time under `cat`.
async fn busy(cl: &Cluster, inst: &Instance, core_idx: usize, cat: Cat, ps: u64) {
    let guard = inst.core_slots[core_idx].lock().await;
    note_wait(cl, cat, ps);
    cl.sim.sleep(ps).await;
    drop(guard);
}

/// Record waiting time (not occupying a core).
fn note_wait(cl: &Cluster, cat: Cat, ps: u64) {
    let mut sums = cl.breakdown.get();
    sums[cat.index()] += ps;
    cl.breakdown.set(sums);
}

/// Acquire a row lock; FIFO waits via per-transaction events.
async fn acquire_row_lock(
    cl: &Cluster,
    inst: &Instance,
    core_idx: usize,
    txn: TxnId,
    table: u32,
    key: u64,
    write: bool,
) -> Result<(), Died> {
    let core = inst.cores[core_idx];
    let bucket = (key as usize).wrapping_mul(0x9E37) % inst.lock_lines.len();
    let ps = cl.cost.charge_line(core, &inst.lock_lines[bucket])
        + cl.cost.charge_instr(core, cl.costs.instr_lock_pair);
    busy(cl, inst, core_idx, Cat::Locking, ps).await;
    let mode = if write { LockMode::X } else { LockMode::S };
    let decision = inst
        .lock_table
        .borrow_mut()
        .acquire(txn, LockId::Key(table, key), mode);
    match decision {
        Acquire::Granted => Ok(()),
        Acquire::Die => Err(Died),
        Acquire::Wait => {
            let ev = Event::new();
            inst.lock_waiters.borrow_mut().insert(txn, ev.clone());
            let t0 = cl.sim.now();
            ev.wait().await;
            inst.lock_waiters.borrow_mut().remove(&txn);
            note_wait(cl, Cat::Locking, cl.sim.now().since(t0));
            Ok(())
        }
    }
}

fn release_locks(cl: &Cluster, inst: &Instance, txn: TxnId) {
    let woken = inst.lock_table.borrow_mut().release_all(txn);
    let waiters = inst.lock_waiters.borrow();
    for t in woken {
        if let Some(ev) = waiters.get(&t) {
            ev.set();
        }
    }
    let _ = cl;
}

/// Execute one plan step at `inst`. Returns whether it wrote. A range read
/// takes one lock and one index probe (the scan's entry point), then pays a
/// heap read per covered row.
async fn do_op(
    cl: &Cluster,
    inst: &Instance,
    core_idx: usize,
    txn: TxnId,
    op: &PlanStep,
    applied: &mut Vec<(u32, u64)>,
) -> Result<bool, Died> {
    let core = inst.cores[core_idx];
    if !inst.locks_off {
        acquire_row_lock(cl, inst, core_idx, txn, op.table, op.key, op.is_write()).await?;
    }
    let table = match inst.tables.get(&op.table) {
        Some(t) => t,
        // Plans are generated from the same catalog the instance loaded.
        None => unreachable!("plan references an uncataloged table"),
    };
    // Shared engine-state traffic for this op (lock manager, latches,
    // buffer pool): coherence misses grow with the instance's span.
    let engine = cl.cost.charge_region(
        core,
        &inst.engine_region,
        cl.costs.engine_lines_per_op,
        true,
    );
    busy(cl, inst, core_idx, Cat::XctExecution, engine).await;
    // Index probe.
    let probe_mem = cl
        .cost
        .charge_region(core, &table.index_region, table.height + 1, false);
    let probe = probe_mem + cl.cost.charge_instr(core, cl.costs.instr_probe);
    busy(cl, inst, core_idx, Cat::XctExecution, probe).await;
    // Buffer-pool miss → data disk (Figure 14).
    if inst.io_miss_prob > 0.0 {
        let miss = cl.rng.borrow_mut().gen_bool(inst.io_miss_prob);
        if miss {
            if let Some(raid) = &cl.raid {
                let t0 = cl.sim.now();
                raid.access(op.key, 8192).await;
                note_wait(cl, Cat::XctExecution, cl.sim.now().since(t0));
            }
        }
    }
    if !op.is_write() {
        for _ in 0..op.rows() {
            let mem = cl
                .cost
                .charge_region(core, &table.heap_region, cl.costs.row_lines, false);
            let ps = mem + cl.cost.charge_instr(core, cl.costs.instr_row_read);
            busy(cl, inst, core_idx, Cat::XctExecution, ps).await;
        }
        return Ok(false);
    }
    // Writers to the same heap page serialize on its latch.
    let latch = if inst.cores.len() > 1 {
        let page =
            ((op.key - table.base_key) / table.rows_per_page) as usize % table.page_latches.len();
        let t0 = cl.sim.now();
        let g = table.page_latches[page].lock().await;
        note_wait(cl, Cat::Locking, cl.sim.now().since(t0));
        Some(g)
    } else {
        None
    };
    let mem = cl
        .cost
        .charge_region(core, &table.heap_region, cl.costs.row_lines, true);
    let ps = mem + cl.cost.charge_instr(core, cl.costs.instr_row_update);
    busy(cl, inst, core_idx, Cat::XctExecution, ps).await;
    if let Some(counters) = &table.counters {
        let slot = (op.key - table.base_key) as usize;
        let mut c = counters.borrow_mut();
        if slot < c.len() {
            c[slot] += 1;
        }
    }
    applied.push((op.table, op.key));
    // Log record: head line + build + bytes (latch held: the page update
    // and its log record are one atomic action).
    let log_ps = cl.cost.charge_line(core, &inst.log_line)
        + cl.cost.charge_instr(core, cl.costs.instr_log_insert);
    busy(cl, inst, core_idx, Cat::Logging, log_ps).await;
    let update = LogPayload::Update {
        table: op.table,
        key: op.key,
        before: vec![0; table.row_size],
        after: vec![0; table.row_size],
    };
    inst.log.append(txn, &update).await;
    drop(latch);
    Ok(true)
}

/// Undo applied operations after a wait-die kill or a global abort.
fn undo_applied(inst: &Instance, applied: &[(u32, u64)]) {
    for &(table, key) in applied {
        if let Some(t) = inst.tables.get(&table) {
            if let Some(counters) = &t.counters {
                let slot = (key - t.base_key) as usize;
                let mut c = counters.borrow_mut();
                if slot < c.len() {
                    c[slot] -= 1;
                }
            }
        }
    }
}

/// Per-message cost between `from` and instance `to` (streaming rate: the
/// Figure 6 ping-pong throughput reflects round-trip latency; pipelined
/// messaging costs roughly half the CPU per message on each side).
fn msg_cost(cl: &Cluster, from: &Instance, to: Option<usize>) -> islands_net::IpcCost {
    let same_socket = match to {
        Some(t) => match (from.home_socket, cl.instances[t].home_socket) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
        None => false,
    };
    let c = cl.costs.mechanism.cost(same_socket);
    islands_net::IpcCost {
        sender_ps: c.sender_ps / 2,
        wire_ps: c.wire_ps,
        receiver_ps: c.receiver_ps / 2,
    }
}

/// Send a message to another instance, charging sender CPU and wire time.
async fn send_msg(cl: &Cluster, from: &Instance, core_idx: usize, to: usize, msg: Msg) {
    let cost = msg_cost(cl, from, Some(to));
    busy(cl, from, core_idx, Cat::Communication, cost.sender_ps).await;
    cl.instances[to].inbox.send(msg, cost.wire_ps);
}

/// Per-instance network poller: bookkeeping messages are handled inline,
/// work-carrying messages spawn handler tasks.
async fn poller(cl: Rc<Cluster>, idx: usize, rx: Receiver<Msg>) {
    while let Some(msg) = rx.recv().await {
        match msg {
            Msg::ExecutePrepare { gtid, from, steps } => {
                let cl2 = Rc::clone(&cl);
                cl.sim
                    .spawn(async move { participant_execute(cl2, idx, gtid, from, steps).await });
            }
            Msg::Decision { gtid, from, commit } => {
                let cl2 = Rc::clone(&cl);
                cl.sim
                    .spawn(async move { participant_decide(cl2, idx, gtid, from, commit).await });
            }
            Msg::Vote { gtid, from, vote } => {
                if let Some(p) = cl.instances[idx].pending.borrow().get(&gtid) {
                    let mut machine = p.machine.borrow_mut();
                    let actions = machine.on_vote(from, vote);
                    p.actions.borrow_mut().extend(actions);
                    p.wake(&machine);
                }
            }
            Msg::Ack { gtid, from } => {
                if let Some(p) = cl.instances[idx].pending.borrow().get(&gtid) {
                    let mut machine = p.machine.borrow_mut();
                    // `Forget` needs nothing: the simulated coordinator
                    // keeps no decision log to trim.
                    machine.on_ack(from);
                    p.wake(&machine);
                }
            }
        }
    }
}

/// Participant side: execute the coordinator's branch, prepare, vote.
async fn participant_execute(
    cl: Rc<Cluster>,
    idx: usize,
    gtid: Gtid,
    from: usize,
    steps: Vec<PlanStep>,
) {
    let inst = Rc::clone(&cl.instances[idx]);
    let core_idx = cl.pick_core(&inst);
    let core = inst.cores[core_idx];
    // The branch locks as its transaction, with that transaction's age.
    let txn = TxnId(gtid);
    // Receive + 2PC bookkeeping.
    let recv_ps = msg_cost(&cl, &inst, None).receiver_ps
        + cl.cost.charge_instr(core, cl.costs.instr_2pc_part);
    busy(&cl, &inst, core_idx, Cat::Communication, recv_ps).await;

    let mut applied = Vec::new();
    let mut wrote = false;
    let mut died = false;
    for op in &steps {
        match do_op(&cl, &inst, core_idx, txn, op, &mut applied).await {
            Ok(w) => wrote |= w,
            Err(Died) => {
                died = true;
                break;
            }
        }
    }
    let mut machine = Participant::new(gtid);
    let vote = match machine.on_prepare(wrote, !died) {
        ParticipantEvent::ForcePrepareAndVote { vote, .. } => {
            log_forced(&cl, &inst, txn, &LogPayload::Prepare { gtid }).await;
            inst.prepared
                .borrow_mut()
                .insert(gtid, PreparedPart { machine, applied });
            vote
        }
        // No and ReadOnly end the branch here (a reader applied nothing).
        ParticipantEvent::SendVote { vote, .. } => {
            undo_applied(&inst, &applied);
            release_locks(&cl, &inst, txn);
            vote
        }
        other => unreachable!("prepare answered {other:?}"),
    };
    let reply = Msg::Vote {
        gtid,
        from: idx,
        vote,
    };
    send_msg(&cl, &inst, core_idx, from, reply).await;
}

/// Participant side, phase 2.
async fn participant_decide(cl: Rc<Cluster>, idx: usize, gtid: Gtid, from: usize, commit: bool) {
    let inst = Rc::clone(&cl.instances[idx]);
    let core_idx = cl.pick_core(&inst);
    let core = inst.cores[core_idx];
    let ps = msg_cost(&cl, &inst, None).receiver_ps
        + cl.cost.charge_instr(core, cl.costs.instr_2pc_part / 2);
    busy(&cl, &inst, core_idx, Cat::Communication, ps).await;
    let part = inst.prepared.borrow_mut().remove(&gtid);
    let Some(mut part) = part else { return };
    let ParticipantEvent::ApplyDecisionAndAck { commit, .. } = part.machine.on_decision(commit)
    else {
        unreachable!("a prepared branch applies its decision")
    };
    if !commit {
        undo_applied(&inst, &part.applied);
    }
    // Commit or abort record, lazily flushed.
    let outcome = if commit {
        LogPayload::Commit
    } else {
        LogPayload::Abort
    };
    inst.log.append(TxnId(gtid), &outcome).await;
    release_locks(&cl, &inst, TxnId(gtid));
    send_msg(&cl, &inst, core_idx, from, Msg::Ack { gtid, from: idx }).await;
}

/// Force a commit decision record and everything logged before it.
async fn force_decision(cl: &Cluster, inst: &Instance, core_idx: usize, gtid: Gtid) {
    let core = inst.cores[core_idx];
    let core_ps = cl.cost.charge_line(core, &inst.log_line)
        + cl.cost.charge_instr(core, cl.costs.instr_log_insert);
    busy(cl, inst, core_idx, Cat::Logging, core_ps).await;
    let decision = LogPayload::Decision { gtid, commit: true };
    log_forced(cl, inst, TxnId(gtid), &decision).await;
}

/// Append a record and wait until it is durable, billing the wait to
/// logging.
async fn log_forced(cl: &Cluster, inst: &Instance, txn: TxnId, payload: &LogPayload) {
    let lsn = inst.log.append(txn, payload).await;
    let t0 = cl.sim.now();
    inst.log.force(lsn).await;
    note_wait(cl, Cat::Logging, cl.sim.now().since(t0));
}

/// Execute one transaction attempt inline on `core_idx` of its home
/// instance. Returns `true` on commit, `false` if wait-die killed it.
async fn execute_txn(
    cl: &Rc<Cluster>,
    inst: &Rc<Instance>,
    core_idx: usize,
    plan: &PlanRequest,
) -> bool {
    let home = inst.idx;
    let core = inst.cores[core_idx];

    // Dispatch + begin. Multi-worker instances additionally serialize the
    // transaction-manager bookkeeping (a contentious critical section whose
    // cache lines bounce between the instance's cores); OS scheduling pays
    // occasional migration penalties.
    let mut mgmt = cl
        .cost
        .charge_instr(core, cl.costs.instr_dispatch + cl.costs.instr_begin / 2);
    if cl.os_scheduling && cl.rng.borrow_mut().gen_bool(0.02) {
        mgmt += cl.os_migration_penalty_ps;
    }
    busy(cl, inst, core_idx, Cat::XctManagement, mgmt).await;
    if inst.cores.len() > 1 {
        let t0 = cl.sim.now();
        let g = inst.xct_mutex.lock().await;
        note_wait(cl, Cat::XctManagement, cl.sim.now().since(t0));
        let hold = cl.cost.charge_line(core, &inst.ctrl_line)
            + cl.cost.charge_instr(core, cl.costs.instr_begin / 2);
        busy(cl, inst, core_idx, Cat::XctManagement, hold).await;
        drop(g);
    } else {
        let rest = cl.cost.charge_instr(core, cl.costs.instr_begin / 2);
        busy(cl, inst, core_idx, Cat::XctManagement, rest).await;
    }

    let txn = cl.alloc_txn();
    let (order, mut branches) = split_plan_by_owner(plan, |t, k| cl.owner_of(t, k));
    let home_ops = branches.remove(&home).map(|b| b.steps).unwrap_or_default();
    let participants: Vec<usize> = order.into_iter().filter(|p| *p != home).collect();

    // Local phase.
    let mut applied = Vec::new();
    let mut wrote_local = false;
    let mut died = false;
    for op in &home_ops {
        match do_op(cl, inst, core_idx, txn, op, &mut applied).await {
            Ok(w) => wrote_local |= w,
            Err(Died) => {
                died = true;
                break;
            }
        }
    }
    if died {
        undo_applied(inst, &applied);
        release_locks(cl, inst, txn);
        return false;
    }

    if participants.is_empty() {
        // Purely local commit.
        if wrote_local {
            log_forced(cl, inst, txn, &LogPayload::Commit).await;
        }
        release_locks(cl, inst, txn);
        let fin = cl.cost.charge_instr(core, cl.costs.instr_finish);
        busy(cl, inst, core_idx, Cat::XctManagement, fin).await;
        finish_commit(cl, plan, false);
        return true;
    }

    // Distributed: presumed-abort 2PC, Execute carries the prepare.
    let gtid = txn.0;
    let n_participants = participants.len() as u64;
    let (machine, prepares) = Coordinator::new(gtid, participants);
    let pending = Rc::new(PendingCoord {
        machine: RefCell::new(machine),
        actions: RefCell::new(Vec::new()),
        votes_in: Event::new(),
        finished: Event::new(),
    });
    inst.pending.borrow_mut().insert(gtid, Rc::clone(&pending));
    let coord_instr = cl
        .cost
        .charge_instr(core, cl.costs.instr_2pc_coord * n_participants);
    busy(cl, inst, core_idx, Cat::XctManagement, coord_instr).await;
    for action in prepares {
        if let Action::SendPrepare { to } = action {
            let steps = branches.remove(&to).map(|b| b.steps).unwrap_or_default();
            let msg = Msg::ExecutePrepare {
                gtid,
                from: home,
                steps,
            };
            send_msg(cl, inst, core_idx, to, msg).await;
        }
    }
    let t0 = cl.sim.now();
    pending.votes_in.wait().await;
    note_wait(cl, Cat::Communication, cl.sim.now().since(t0));
    let recv = msg_cost(cl, inst, None).receiver_ps * n_participants;
    busy(cl, inst, core_idx, Cat::Communication, recv).await;

    // Carry out what the votes decided. The home branch is not a machine
    // participant, so a commit that needs no decision force still forces
    // when the home branch wrote.
    let mut commit = false;
    let mut forced = false;
    let actions = pending.actions.take();
    for action in actions {
        match action {
            Action::ForceCommitDecision { .. } => {
                force_decision(cl, inst, core_idx, gtid).await;
                forced = true;
            }
            Action::SendDecision { to, commit } => {
                let msg = Msg::Decision {
                    gtid,
                    from: home,
                    commit,
                };
                send_msg(cl, inst, core_idx, to, msg).await;
            }
            Action::Finish { commit: outcome } => {
                if outcome && wrote_local && !forced {
                    force_decision(cl, inst, core_idx, gtid).await;
                }
                commit = outcome;
            }
            Action::SendPrepare { .. } | Action::Forget { .. } => {}
        }
    }
    let t0 = cl.sim.now();
    pending.finished.wait().await;
    note_wait(cl, Cat::Communication, cl.sim.now().since(t0));
    inst.pending.borrow_mut().remove(&gtid);

    // Local outcome.
    if !commit {
        undo_applied(inst, &applied);
    }
    release_locks(cl, inst, txn);
    let fin = cl.cost.charge_instr(core, cl.costs.instr_finish);
    busy(cl, inst, core_idx, Cat::XctManagement, fin).await;

    if commit {
        finish_commit(cl, plan, true);
        true
    } else {
        false
    }
}

fn finish_commit(cl: &Cluster, plan: &PlanRequest, distributed: bool) {
    cl.stats.commits.set(cl.stats.commits.get() + 1);
    cl.stats
        .committed_writes
        .set(cl.stats.committed_writes.get() + plan.write_rows());
    if distributed {
        cl.stats.distributed.set(cl.stats.distributed.get() + 1);
    }
}

/// Route a fresh request to the queue of its home instance.
fn admit_next(cl: &Rc<Cluster>) {
    if cl.sim.now() >= cl.end_time.get() {
        return;
    }
    let plan = cl.gen_plan();
    // The home is whoever owns the first step (generated plans have one).
    let first = plan.steps[0];
    let home = cl.owner_of(first.table, first.key);
    let inst = &cl.instances[home];
    inst.client_q.borrow_mut().push_back(plan);
    inst.q_notify.notify_one();
}

/// One worker per core: pulls client transactions from the instance queue
/// and runs each to completion (retrying wait-die victims), exactly like
/// the paper's one-worker-thread-per-core deployment. Participant-side 2PC
/// work runs in separate tasks and competes for the same core slots.
async fn worker(cl: Rc<Cluster>, inst_idx: usize, core_idx: usize) {
    let inst = Rc::clone(&cl.instances[inst_idx]);
    loop {
        // Pop the next client request.
        let plan = loop {
            let next = inst.client_q.borrow_mut().pop_front();
            match next {
                Some(p) => break p,
                None => inst.q_notify.notified().await,
            }
        };
        let mut attempt: u32 = 0;
        loop {
            if execute_txn(&cl, &inst, core_idx, &plan).await {
                admit_next(&cl);
                break;
            }
            cl.stats.aborts.set(cl.stats.aborts.get() + 1);
            if cl.sim.now() >= cl.end_time.get() {
                break;
            }
            // Backoff keeps wait-die livelock at bay.
            attempt += 1;
            let backoff = 5_000_000u64 * (attempt as u64).min(8);
            cl.sim.sleep(backoff).await;
        }
    }
}

// ---------------------------------------------------------------------------
// Run harness
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Snapshot {
    commits: u64,
    aborts: u64,
    distributed: u64,
    breakdown: [u64; NCATS],
    counters: CounterSnapshot,
    qpi: u64,
    imc: u64,
}

fn take_snapshot(cl: &Cluster) -> Snapshot {
    Snapshot {
        commits: cl.stats.commits.get(),
        aborts: cl.stats.aborts.get(),
        distributed: cl.stats.distributed.get(),
        breakdown: cl.breakdown.get(),
        counters: cl.cost.counters().aggregate(cl.active_cores.iter()),
        qpi: cl.cost.counters().qpi_bytes.get(),
        imc: cl.cost.counters().imc_bytes.get(),
    }
}

/// Run `workload` on the configured deployment; returns measured results
/// and the audit info for invariant checks.
pub fn run_with_audit(cfg: &SimClusterConfig, workload: &SimWorkload) -> (RunResult, Audit) {
    let cl = build_cluster(cfg, workload);
    let warmup = SimTime(cfg.warmup_ms * 1_000_000_000);
    let end = SimTime((cfg.warmup_ms + cfg.measure_ms) * 1_000_000_000);
    cl.end_time.set(end);
    // Seed the closed loop: `mpl_per_core` requests per core.
    for _ in 0..cl.active_cores.len() * cfg.mpl_per_core.max(1) {
        admit_next(&cl);
    }
    // One worker per core of every instance.
    for (i, inst) in cl.instances.iter().enumerate() {
        for c in 0..inst.cores.len() {
            let cl2 = Rc::clone(&cl);
            cl.sim.spawn(async move { worker(cl2, i, c).await });
        }
    }
    cl.sim.run_until(warmup);
    let before = take_snapshot(&cl);
    cl.sim.run_until(end);
    let after = take_snapshot(&cl);

    let commits = after.commits - before.commits;
    let breakdown = std::array::from_fn(|i| after.breakdown[i] - before.breakdown[i]);
    let d_instr = after.counters.instructions - before.counters.instructions;
    let d_busy = after.counters.busy_ps - before.counters.busy_ps;
    let d_stall = after.counters.stall_ps - before.counters.stall_ps;
    let d_access = after.counters.total_accesses() - before.counters.total_accesses();
    let d_sibling = after.counters.sibling_hits - before.counters.sibling_hits;
    let freq = cl.machine.calib.freq_khz as f64;
    let cycles = d_busy as f64 * freq / 1e9;
    let d_qpi = after.qpi - before.qpi;
    let d_imc = after.imc - before.imc;

    let result = RunResult {
        label: cfg.label(),
        commits,
        aborts: after.aborts - before.aborts,
        window_ps: end.0 - warmup.0,
        breakdown,
        distributed: after.distributed - before.distributed,
        qpi_imc_ratio: if d_imc == 0 {
            0.0
        } else {
            d_qpi as f64 / d_imc as f64
        },
        ipc: if cycles == 0.0 {
            0.0
        } else {
            d_instr as f64 / cycles
        },
        stalled_frac: if d_busy == 0 {
            0.0
        } else {
            d_stall as f64 / d_busy as f64
        },
        sibling_share_frac: if d_access == 0 {
            0.0
        } else {
            d_sibling as f64 / d_access as f64
        },
    };

    // Let in-flight transactions drain briefly for a clean audit.
    cl.sim.run_until(SimTime(end.0 + 400_000_000_000));
    let applied: u64 = cl
        .instances
        .iter()
        .flat_map(|i| i.tables.values())
        .filter_map(|t| t.counters.as_ref())
        .map(|c| c.borrow().iter().map(|&x| x as u64).sum::<u64>())
        .sum();
    let audit = Audit {
        applied_row_updates: applied,
        committed_row_writes: cl.stats.committed_writes.get(),
    };
    cl.sim.shutdown();
    (result, audit)
}

/// Run and return only the measurement.
pub fn run(cfg: &SimClusterConfig, workload: &SimWorkload) -> RunResult {
    run_with_audit(cfg, workload).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_sim::PS_PER_MS;
    use islands_storage::wal::record::encoded_len;
    use islands_workload::plan::StepOp;
    use islands_workload::OpKind;

    #[test]
    fn remote_branch_keeps_its_transactions_wait_die_age() {
        // An older transaction coordinated on instance 1 sends a branch to
        // instance 0, where a younger local transaction holds the row.
        let cfg = SimClusterConfig::new(Machine::quad_socket(), 4);
        let spec = MicroSpec::new(OpKind::Update, 1, 1.0);
        let cl = build_cluster(&cfg, &SimWorkload::Micro(spec));
        let older = cl.alloc_txn();
        let younger = cl.alloc_txn();
        let key = 7;
        assert_eq!(cl.owner_of(plan::MICRO_TABLE, key), 0);
        let inst = Rc::clone(&cl.instances[0]);
        let row = LockId::Key(plan::MICRO_TABLE, key);
        let held = inst
            .lock_table
            .borrow_mut()
            .acquire(younger, row, LockMode::X);
        assert_eq!(held, Acquire::Granted);

        let steps = vec![PlanStep::point(plan::MICRO_TABLE, key, StepOp::Update)];
        let cl2 = Rc::clone(&cl);
        cl.sim
            .spawn(async move { participant_execute(cl2, 0, older.0, 1, steps).await });
        cl.sim.run_until(SimTime(PS_PER_MS));
        assert!(
            inst.lock_waiters.borrow().contains_key(&older),
            "the older branch must wait for the younger holder, not die"
        );
        release_locks(&cl, &inst, younger);
        cl.sim.run_until(SimTime(2 * PS_PER_MS));
        assert!(inst.prepared.borrow().contains_key(&older.0));
        cl.sim.shutdown();
    }

    #[test]
    fn group_commit_batches_and_wakes() {
        let sim = Sim::new();
        let disk = DiskParams {
            access_ps: 1_000_000,
            per_byte_ps: 0,
        };
        let log = Rc::new(InstanceLog::new(&sim, disk));
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let (log, s) = (Rc::clone(&log), sim.clone());
                sim.spawn(async move {
                    s.sleep(i * 10_000).await; // commits arrive within 80 ns
                    let lsn = log.append(TxnId(i), &LogPayload::Commit).await;
                    log.force(lsn).await;
                    assert!(log.buffer.borrow().is_durable(lsn));
                })
            })
            .collect();
        sim.run_until(SimTime(50_000_000));
        assert!(handles.iter().all(|h| h.is_finished()), "committer stuck");
        // The first committer leads alone; the seven behind it share one
        // batch.
        let (_, writes) = log.buffer.borrow().stats();
        assert!(writes <= 2, "writes: {writes}");
        assert_eq!(log.disk.stats().0, writes);
    }

    #[test]
    fn durability_is_monotone() {
        let sim = Sim::new();
        let disk = DiskParams {
            access_ps: 10,
            per_byte_ps: 1,
        };
        let log = Rc::new(InstanceLog::new(&sim, disk));
        let log2 = Rc::clone(&log);
        let h = sim.spawn(async move {
            let l1 = log2.append(TxnId(1), &LogPayload::Begin).await;
            let l2 = log2.append(TxnId(1), &LogPayload::Commit).await;
            assert!(l2 > l1);
            log2.force(l2).await;
            l1
        });
        sim.run_until(SimTime(1_000_000));
        let l1 = h.try_take().expect("forced");
        assert!(log.buffer.borrow().is_durable(l1));
    }

    /// The simulator logs the records the served engine writes: one
    /// row-image `Update` per written row and a `Commit`.
    #[test]
    fn a_local_one_row_update_logs_an_update_and_a_commit() {
        let cfg = SimClusterConfig::new(Machine::quad_socket(), 24);
        let spec = MicroSpec::new(OpKind::Update, 1, 0.0);
        let row_size = spec.row_size;
        let cl = build_cluster(&cfg, &SimWorkload::Micro(spec));
        let inst = Rc::clone(&cl.instances[0]);
        let plan = PlanRequest {
            class: plan::PlanClass::Generic,
            multisite: false,
            steps: vec![PlanStep::point(plan::MICRO_TABLE, 7, StepOp::Update)],
        };
        let (cl2, inst2) = (Rc::clone(&cl), Rc::clone(&inst));
        let h = cl
            .sim
            .spawn(async move { execute_txn(&cl2, &inst2, 0, &plan).await });
        cl.sim.run_until(SimTime(PS_PER_MS));
        assert_eq!(h.try_take(), Some(true));
        let update = LogPayload::Update {
            table: plan::MICRO_TABLE,
            key: 7,
            before: vec![0; row_size],
            after: vec![0; row_size],
        };
        let expected = encoded_len(&update) + encoded_len(&LogPayload::Commit);
        let log = inst.log.buffer.borrow();
        assert_eq!(log.end_lsn(), expected as u64);
        assert!(log.is_durable(expected as u64));
        drop(log);
        cl.sim.shutdown();
    }

    #[test]
    fn run_result_rates() {
        let r = RunResult {
            label: "x".into(),
            commits: 500,
            aborts: 100,
            window_ps: 1_000_000_000_000, // 1 s
            breakdown: [1_000_000, 0, 0, 2_000_000, 0],
            distributed: 0,
            qpi_imc_ratio: 0.0,
            ipc: 0.0,
            stalled_frac: 0.0,
            sibling_share_frac: 0.0,
        };
        assert!((r.ktps() - 0.5).abs() < 1e-9);
        assert!((r.cost_per_txn_us() - 3e6 / 500.0 / 1e6).abs() < 1e-12);
    }

    fn quick(n_instances: usize, spec: MicroSpec) -> (RunResult, Audit) {
        let mut cfg = SimClusterConfig::new(Machine::quad_socket(), n_instances);
        cfg.warmup_ms = 2;
        cfg.measure_ms = 8;
        run_with_audit(&cfg, &SimWorkload::Micro(spec))
    }

    #[test]
    fn local_read_only_runs_and_commits() {
        let (r, _) = quick(4, MicroSpec::new(OpKind::Read, 10, 0.0));
        assert!(r.commits > 1_000, "commits {}", r.commits);
        assert_eq!(r.distributed, 0);
        assert!(r.ktps() > 0.0);
    }

    #[test]
    fn multisite_transactions_become_distributed() {
        let (r, _) = quick(24, MicroSpec::new(OpKind::Read, 10, 1.0));
        assert!(r.commits > 100);
        assert!(
            r.distributed as f64 > r.commits as f64 * 0.9,
            "distributed {} of {}",
            r.distributed,
            r.commits
        );
    }

    #[test]
    fn shared_everything_never_distributes() {
        let (r, _) = quick(1, MicroSpec::new(OpKind::Update, 10, 0.8));
        assert!(r.commits > 100);
        assert_eq!(r.distributed, 0, "1ISL has no remote partitions");
    }

    #[test]
    fn update_audit_exactly_once() {
        for multisite in [0.0, 0.5] {
            let (_, audit) = quick(8, MicroSpec::new(OpKind::Update, 4, multisite));
            assert_eq!(
                audit.applied_row_updates, audit.committed_row_writes,
                "2PC must apply committed writes exactly once (multisite {multisite})"
            );
        }
    }

    #[test]
    fn fine_grained_beats_shared_everything_when_local() {
        let (fg, _) = quick(24, MicroSpec::new(OpKind::Read, 10, 0.0));
        let (se, _) = quick(1, MicroSpec::new(OpKind::Read, 10, 0.0));
        assert!(
            fg.ktps() > se.ktps() * 1.2,
            "FG {} vs SE {}",
            fg.ktps(),
            se.ktps()
        );
    }

    #[test]
    fn distribution_hurts_fine_grained_most() {
        let (fg0, _) = quick(24, MicroSpec::new(OpKind::Update, 10, 0.0));
        let (fg100, _) = quick(24, MicroSpec::new(OpKind::Update, 10, 1.0));
        assert!(
            fg100.ktps() < fg0.ktps() * 0.5,
            "100% multisite must crush FG: {} vs {}",
            fg100.ktps(),
            fg0.ktps()
        );
    }

    #[test]
    fn payment_workload_runs() {
        let mut cfg = SimClusterConfig::new(Machine::quad_socket(), 24);
        cfg.warmup_ms = 2;
        cfg.measure_ms = 8;
        let r = run(
            &cfg,
            &SimWorkload::Payment {
                warehouses: 24,
                remote_pct: 0.0,
            },
        );
        assert!(r.commits > 500, "payment commits {}", r.commits);
        assert_eq!(r.distributed, 0);
    }
}
