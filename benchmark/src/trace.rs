//! The traced run (`--trace 1`): where the measured run says how fast, this
//! one says where the time goes. Three parts, none of which feeds the
//! end-to-end numbers:
//!
//! 1. the workload under the same closed loop with observability off, then
//!    on — the difference is `obs.overhead_pct`, the obs-on scrape is the
//!    server's own Fig. 11 breakdown, the obs-off half gives the tail and
//!    per-class diagnostics and the CPU per transaction on both sides;
//! 2. one client's seeded stream replayed single-threaded through stacks of
//!    increasing depth — codec, wire frame, bare storage, `PartitionEngine`,
//!    `ExecutorSession`, `Client` against an in-process `Server`,
//!    `DeployClient` against a spawned deployment — with a span recorded
//!    around every call from outside the product; a layer's self time is
//!    its span minus the spans one depth further in;
//! 3. the single-layer microbenchmarks of `layers`.
//!
//! The replays of one request happen one depth after another, not nested in
//! real time: the parent links in the span file are the stack's, and the
//! self times are differences of like-for-like executions of the same
//! request. Counts (`*_per_txn`, bytes, heights) come from the
//! single-client replay, so they repeat exactly for a seed.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_core::native::{
    BranchOutcome, ExecutorConfig, ExecutorSession, PartitionConfig, PartitionEngine,
    PartitionExecutor, TpccPartition, MICRO_TABLE_NAME,
};
use islands_dtxn::Vote;
use islands_server::deploy::split_by_owner;
use islands_server::wire::{FrameReader, Reply, Request, WireMessage};
use islands_server::{
    Backend, Client, DeployClient, DeployReply, Endpoint, EngineMode, Server, ServerConfig,
    ServerHandle, ServerStats,
};
use islands_storage::{InstanceOptions, StorageError, TxnHandle};
use islands_workload::plan::{self as plan_ids, StepOp};
use islands_workload::{tpcc, OpKind, PlanRequest, TxnBranch, TxnRequest};

use crate::env::{self, RunDir};
use crate::layers;
use crate::load::{self, Bound, LoadResult, SEGMENTS};
use crate::run::{self, Check, Live, Metric, Outcome};
use crate::stats;
use crate::workloads::{Class, Req, Workload, MICRO_ROWS, MICRO_ROW_SIZE, POOL_FRAMES};
use crate::{err, Res};

/// The stack's depths, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    Deploy,
    Server,
    Executor,
    Engine,
    Storage,
    Wire,
    Codec,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Deploy,
        Layer::Server,
        Layer::Executor,
        Layer::Engine,
        Layer::Storage,
        Layer::Wire,
        Layer::Codec,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Layer::Deploy => "deploy",
            Layer::Server => "server",
            Layer::Executor => "executor",
            Layer::Engine => "engine",
            Layer::Storage => "storage",
            Layer::Wire => "wire",
            Layer::Codec => "codec",
        }
    }

    /// The depth whose call contains this one. A locked instance has no
    /// executor: its engine runs inline on the session thread.
    pub fn parent(self, serial: bool) -> Option<Layer> {
        match self {
            Layer::Deploy => None,
            Layer::Server => Some(Layer::Deploy),
            Layer::Executor | Layer::Wire => Some(Layer::Server),
            Layer::Engine if serial => Some(Layer::Executor),
            Layer::Engine => Some(Layer::Server),
            Layer::Storage => Some(Layer::Engine),
            Layer::Codec => Some(Layer::Wire),
        }
    }
}

/// One timed call: request id, layer, start and end (ns since the trace
/// began). The causing span is `(req, layer.parent())`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1_000.0
    }
}

/// Spans are kept in a buffer allocated up front and written at exit, so
/// recording costs two clock reads and a push that never reallocates.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(n: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    pub fn time<T>(&mut self, req: usize, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            req: req as u32,
            layer,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }
}

/// Self time (us) of every span: its duration minus the durations of the
/// same request's spans whose parent it is. Grouped by layer.
pub fn self_times(
    spans: &[Span],
    parent: impl Fn(Layer) -> Option<Layer>,
) -> HashMap<Layer, Vec<f64>> {
    let mut children: HashMap<(u32, Layer), f64> = HashMap::new();
    for s in spans {
        if let Some(p) = parent(s.layer) {
            *children.entry((s.req, p)).or_default() += s.micros();
        }
    }
    let mut out: HashMap<Layer, Vec<f64>> = HashMap::new();
    for s in spans {
        let inner = children.get(&(s.req, s.layer)).copied().unwrap_or(0.0);
        out.entry(s.layer).or_default().push(s.micros() - inner);
    }
    out
}

fn write_span_file(path: &str, spans: &[Span], serial: bool) -> Res<()> {
    let id = |req: u32, layer: Layer| req as u64 * Layer::ALL.len() as u64 + layer as u64;
    let present: std::collections::HashSet<(u32, Layer)> =
        spans.iter().map(|s| (s.req, s.layer)).collect();
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s
            .layer
            .parent(serial)
            .filter(|p| present.contains(&(s.req, *p)))
            .map(|p| id(s.req, p).to_string())
            .unwrap_or_else(|| "null".into());
        let _ = writeln!(
            out,
            "{{\"req\": {}, \"layer\": \"{}\", \"id\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.req,
            s.layer.label(),
            id(s.req, s.layer),
            s.start_ns,
            s.end_ns
        );
    }
    std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))
}

// ---------------------------------------------------------------------------
// Part 2: the in-process stacks
// ---------------------------------------------------------------------------

fn plan_table(table: u32) -> Res<(&'static str, usize)> {
    Ok(match table {
        plan_ids::TPCC_WAREHOUSE => (tpcc::T_WAREHOUSE, tpcc::WAREHOUSE_ROW),
        plan_ids::TPCC_DISTRICT => (tpcc::T_DISTRICT, tpcc::DISTRICT_ROW),
        plan_ids::TPCC_CUSTOMER => (tpcc::T_CUSTOMER, tpcc::CUSTOMER_ROW),
        plan_ids::TPCC_HISTORY => (tpcc::T_HISTORY, tpcc::HISTORY_ROW),
        plan_ids::TPCC_ORDER => (tpcc::T_ORDER, tpcc::ORDER_ROW),
        plan_ids::TPCC_STOCK => (tpcc::T_STOCK, tpcc::STOCK_ROW),
        other => return Err(format!("plan table id {other} is not a TPC-C table")),
    })
}

fn bump(txn: &mut TxnHandle, table: &str, key: u64) -> Result<(), StorageError> {
    let mut row = txn
        .read(table, key)?
        .ok_or(StorageError::KeyNotFound(key))?;
    let mut counter = [0u8; 8];
    counter.copy_from_slice(&row[..8]);
    row[..8].copy_from_slice(&(u64::from_le_bytes(counter) + 1).to_le_bytes());
    txn.update(table, key, &row)
}

/// The storage calls one micro batch makes, on a bare transaction handle.
fn micro_ops(txn: &mut TxnHandle, req: &TxnRequest) -> Result<(), StorageError> {
    for &key in &req.keys {
        match req.kind {
            OpKind::Read => {
                txn.read(MICRO_TABLE_NAME, key)?;
            }
            OpKind::Update => bump(txn, MICRO_TABLE_NAME, key)?,
        }
    }
    Ok(())
}

/// The storage calls one plan makes, on a bare transaction handle.
fn plan_ops(txn: &mut TxnHandle, plan: &PlanRequest) -> Res<()> {
    for step in &plan.steps {
        let (name, width) = plan_table(step.table)?;
        match step.op {
            StepOp::Read => txn.read(name, step.key).map(|_| ()),
            StepOp::Update => bump(txn, name, step.key),
            StepOp::Insert => {
                let mut row = vec![0u8; width];
                row[..8].copy_from_slice(&1u64.to_le_bytes());
                txn.insert(name, step.key, &row)
            }
            StepOp::RangeRead => (0..step.span as u64)
                .try_for_each(|i| txn.read(name, step.key.wrapping_add(i)).map(|_| ())),
        }
        .map_err(err("storage step"))?;
    }
    Ok(())
}

/// The in-process half of the stack: engines the way an instance builds
/// them, executors over engines of their own, and servers on UDS sockets in
/// the run's scratch directory.
struct Stack {
    serial: bool,
    instances: usize,
    engines: Vec<Arc<PartitionEngine>>,
    executors: Vec<Arc<PartitionExecutor>>,
    sessions: Vec<ExecutorSession>,
    servers: Vec<ServerHandle>,
    clients: Vec<Client>,
}

fn partition_config(w: &Workload, i: usize, run_dir: &RunDir, role: &str) -> PartitionConfig {
    let per = MICRO_ROWS / w.instances as u64;
    let serial = w.engine == EngineMode::Serial;
    PartitionConfig {
        lo: i as u64 * per,
        hi: if i + 1 == w.instances {
            MICRO_ROWS
        } else {
            (i as u64 + 1) * per
        },
        row_size: MICRO_ROW_SIZE,
        buffer_frames: POOL_FRAMES,
        lock_timeout: Duration::from_millis(200),
        // What `PartitionExecutor` forces on its own engine: one owner, no
        // lock table, no group window.
        single_threaded: serial,
        group_window: if serial {
            Duration::ZERO
        } else {
            InstanceOptions::default().group_window
        },
        tpcc: w.tpcc_warehouses().map(|warehouses| TpccPartition {
            warehouses,
            w_lo: 0,
            w_hi: warehouses,
        }),
        wal: w
            .durable
            .then(|| run_dir.path().join(format!("replay-{role}-{i}.wal"))),
    }
}

impl Stack {
    fn build(w: &Workload, run_dir: &RunDir) -> Res<Stack> {
        let serial = w.engine == EngineMode::Serial;
        let mut stack = Stack {
            serial,
            instances: w.instances,
            engines: Vec::new(),
            executors: Vec::new(),
            sessions: Vec::new(),
            servers: Vec::new(),
            clients: Vec::new(),
        };
        for i in 0..w.instances {
            let engine = PartitionEngine::build(&partition_config(w, i, run_dir, "engine"))
                .map_err(err("engine build"))?;
            stack.engines.push(Arc::new(engine));
            let backend = if serial {
                let exec = Arc::new(
                    PartitionExecutor::spawn(ExecutorConfig {
                        partition: partition_config(w, i, run_dir, "executor"),
                        ..Default::default()
                    })
                    .map_err(err("executor spawn"))?,
                );
                stack.sessions.push(exec.session());
                stack.executors.push(Arc::clone(&exec));
                Backend::Executor(exec)
            } else {
                Backend::Partition(Arc::clone(&stack.engines[i]))
            };
            let socket = run_dir.path().join(format!("replay-{i}.sock"));
            let handle = Server::spawn_backend(
                backend,
                Endpoint::Uds(socket),
                ServerConfig {
                    retry_limit: 64,
                    ..Default::default()
                },
            )
            .map_err(err("in-process server"))?;
            stack.clients.push(
                Client::connect_with_retry(handle.endpoint(), Duration::from_secs(2))
                    .map_err(err("in-process client"))?,
            );
            stack.servers.push(handle);
        }
        Ok(stack)
    }

    /// Per-instance branches of a micro request, in first-touch order.
    fn branches(&self, req: &TxnRequest) -> Vec<(usize, TxnRequest)> {
        let (order, mut by_owner) = split_by_owner(req, self.instances, MICRO_ROWS);
        order
            .into_iter()
            .map(|i| (i, by_owner.remove(&i).expect("owner has a branch")))
            .collect()
    }

    fn storage(&self, req: &Req, gtid: u64) -> Res<()> {
        match req {
            Req::Plan(plan) => {
                let mut txn = self.engines[0].instance().begin();
                plan_ops(&mut txn, plan)?;
                txn.commit().map_err(err("storage commit"))
            }
            Req::Micro(r) => {
                let branches = self.branches(r);
                if let [(i, _)] = branches[..] {
                    let mut txn = self.engines[i].instance().begin();
                    micro_ops(&mut txn, r).map_err(err("storage ops"))?;
                    return txn.commit().map_err(err("storage commit"));
                }
                let mut prepared = Vec::with_capacity(branches.len());
                for (i, branch) in &branches {
                    let mut txn = self.engines[*i].instance().begin();
                    micro_ops(&mut txn, branch).map_err(err("storage ops"))?;
                    txn.prepare(gtid).map_err(err("storage prepare"))?;
                    prepared.push(txn);
                }
                prepared
                    .into_iter()
                    .try_for_each(|txn| txn.decide(true))
                    .map_err(err("storage decide"))
            }
        }
    }

    fn engine(&self, req: &Req, gtid: u64) -> Res<()> {
        let committed = |o: islands_core::native::SubmitOutcome| {
            o.committed
                .then_some(())
                .ok_or_else(|| "engine: single-client submit aborted".to_string())
        };
        match req {
            Req::Plan(plan) => self.engines[0]
                .submit_plan_local(plan, 64)
                .map_err(err("engine plan"))
                .and_then(committed),
            Req::Micro(r) => {
                let branches = self.branches(r);
                if let [(i, _)] = branches[..] {
                    return self.engines[i]
                        .submit_local(r, 64)
                        .map_err(err("engine submit"))
                        .and_then(committed);
                }
                let mut prepared = Vec::with_capacity(branches.len());
                for (i, branch) in &branches {
                    match self.engines[*i].prepare_branch(gtid, branch) {
                        Ok(BranchOutcome::Prepared(handle)) => prepared.push(handle),
                        Ok(_) => return Err("engine: branch did not prepare".into()),
                        Err(e) => return Err(format!("engine prepare: {e}")),
                    }
                }
                prepared
                    .into_iter()
                    .try_for_each(|h| h.decide(true))
                    .map_err(err("engine decide"))
            }
        }
    }

    fn executor(&self, req: &Req, gtid: u64) -> Res<()> {
        let committed = |o: islands_core::native::SubmitOutcome| {
            o.committed
                .then_some(())
                .ok_or_else(|| "executor: single-client submit aborted".to_string())
        };
        match req {
            Req::Plan(plan) => self.sessions[0]
                .submit_plan(plan)
                .map_err(err("executor plan"))
                .and_then(committed),
            Req::Micro(r) => {
                let branches = self.branches(r);
                if let [(i, _)] = branches[..] {
                    return self.sessions[i]
                        .submit(r)
                        .map_err(err("executor submit"))
                        .and_then(committed);
                }
                for (i, branch) in &branches {
                    match self.sessions[*i].prepare(gtid, branch) {
                        Ok(Vote::Yes) => {}
                        other => return Err(format!("executor prepare: {other:?}")),
                    }
                }
                for (i, _) in &branches {
                    self.sessions[*i]
                        .decide(gtid, true)
                        .map_err(err("executor decide"))?;
                }
                Ok(())
            }
        }
    }

    /// Through `Client` and the in-process `Server`: a plain submit, or the
    /// coordinator's frames in the coordinator's order (prepares fanned out,
    /// votes collected, decisions fanned out, acks collected).
    fn server(&mut self, req: &Req, gtid: u64) -> Res<()> {
        let expect_commit = |reply: Reply| match reply {
            Reply::Committed { .. } => Ok(()),
            other => Err(format!("server: expected a commit, got {other:?}")),
        };
        match req {
            Req::Plan(plan) => self.clients[0]
                .submit_plan(plan)
                .map_err(err("client plan"))
                .and_then(expect_commit),
            Req::Micro(r) => {
                let branches = self.branches(r);
                if let [(i, _)] = branches[..] {
                    return self.clients[i]
                        .submit(r)
                        .map_err(err("client submit"))
                        .and_then(expect_commit);
                }
                for (i, branch) in &branches {
                    self.clients[*i]
                        .send_request(&Request::Prepare(TxnBranch {
                            gtid,
                            req: branch.clone(),
                        }))
                        .map_err(err("client prepare"))?;
                }
                for (i, _) in &branches {
                    match self.clients[*i].recv_reply().map_err(err("client vote"))? {
                        Reply::Vote {
                            vote: Vote::Yes, ..
                        } => {}
                        other => return Err(format!("server: expected a yes vote, got {other:?}")),
                    }
                }
                for (i, _) in &branches {
                    self.clients[*i]
                        .send_request(&Request::Decision { gtid, commit: true })
                        .map_err(err("client decision"))?;
                }
                for (i, _) in &branches {
                    match self.clients[*i].recv_reply().map_err(err("client ack"))? {
                        Reply::Ack { .. } => {}
                        other => return Err(format!("server: expected an ack, got {other:?}")),
                    }
                }
                Ok(())
            }
        }
    }

    /// Drain the servers, join their threads, stop the executors.
    fn teardown(mut self) -> Res<()> {
        for (client, handle) in self.clients.iter_mut().zip(self.servers.drain(..)) {
            client
                .drain_server()
                .map_err(err("drain in-process server"))?;
            handle.join().map_err(err("join in-process server"))?;
        }
        self.clients.clear();
        self.sessions.clear();
        for exec in self.executors.drain(..) {
            match Arc::try_unwrap(exec) {
                Ok(exec) => exec.shutdown(),
                Err(_) => return Err("an executor was still shared at teardown".into()),
            }
        }
        Ok(())
    }
}

/// What the replay yields besides its spans.
struct Replay {
    codec: layers::Codec,
    reqs: Vec<Req>,
    lock_acquires_per_txn: f64,
    lock_wait_share: f64,
    wal_bytes_per_txn: f64,
    wal_flushes_per_txn: f64,
    btree_height: f64,
    ping_us: f64,
}

fn replay(
    w: &Workload,
    seed: u64,
    run_dir: &RunDir,
    scale: usize,
    rec: &mut Recorder,
    checks: &mut Vec<Check>,
) -> Res<Replay> {
    let n = (w.replay_requests / scale).max(50);
    let socket_n = (w.socket_replay_requests / scale).max(50).min(n);
    // Each depth replays the same (seed, client 0) stream; the tag only
    // recolours TPC-C append keys so depths sharing an engine do not
    // collide on inserts.
    let stream_for = |depth: u64| w.stream(seed, 0, 100 + depth);
    let (codec, reqs) = layers::codec(&mut stream_for(0), n)?;

    let mut buf = Vec::new();
    let mut reader = FrameReader::new();
    for (r, req) in reqs.iter().enumerate() {
        let ok = rec.time(r, Layer::Codec, || {
            buf.clear();
            req.encode_into(&mut buf);
            match req {
                Req::Micro(_) => TxnRequest::decode_from(&buf).is_ok(),
                Req::Plan(_) => PlanRequest::decode_from(&buf).is_ok(),
            }
        });
        let frame = layers::to_wire(req);
        let framed = rec.time(r, Layer::Wire, || {
            buf.clear();
            frame.encode_frame(&mut buf);
            reader.extend(&buf);
            matches!(reader.next_message::<Request>(), Ok(Some(_)))
        });
        if !(ok && framed) {
            return Err(format!(
                "replay: request {r} did not survive codec and framing"
            ));
        }
    }

    let mut stack = Stack::build(w, run_dir)?;
    let counters = |stack: &Stack| {
        let (mut acquires, mut waits, mut bytes, mut flushes) = (0, 0, 0, 0);
        for e in &stack.engines {
            let (a, wt, _) = e.instance().locks().stats();
            let (b, f) = e.instance().wal().stats();
            acquires += a;
            waits += wt;
            bytes += b;
            flushes += f;
        }
        (acquires, waits, bytes, flushes)
    };
    let depth_reqs = |depth: u64, count: usize| -> Vec<Req> {
        let mut s = stream_for(depth);
        (0..count).map(|_| s.next()).collect()
    };
    // Gtids only need to be unique per engine; keep the depths apart.
    let gtid = |depth: u64, r: usize| depth << 32 | r as u64;

    for (r, req) in depth_reqs(1, n).iter().enumerate() {
        rec.time(r, Layer::Storage, || stack.storage(req, gtid(1, r)))?;
    }
    let before = counters(&stack);
    for (r, req) in depth_reqs(2, n).iter().enumerate() {
        rec.time(r, Layer::Engine, || stack.engine(req, gtid(2, r)))?;
    }
    let after = counters(&stack);
    if stack.serial {
        for (r, req) in depth_reqs(3, n).iter().enumerate() {
            rec.time(r, Layer::Executor, || stack.executor(req, gtid(3, r)))?;
        }
    }
    for (r, req) in depth_reqs(4, socket_n).iter().enumerate() {
        rec.time(r, Layer::Server, || stack.server(req, gtid(4, r)))?;
    }
    let main_table = if w.tpcc_warehouses().is_some() {
        tpcc::T_CUSTOMER
    } else {
        MICRO_TABLE_NAME
    };
    let btree_height = stack.engines[0]
        .instance()
        .table(main_table)
        .map_err(err("replay table"))?
        .index_height() as f64;
    stack.teardown()?;

    // Outermost depth: one quiet DeployClient against a spawned deployment.
    let (live, _) = run::spawn(w, run_dir, 90, false)?;
    let audit_before = run::audit_total(&live.deploy)?;
    let mut client: DeployClient = live.deploy.client().map_err(err("deploy client"))?;
    let mut write_rows = 0;
    for (r, req) in depth_reqs(5, socket_n).iter().enumerate() {
        let reply = rec
            .time(r, Layer::Deploy, || match req {
                Req::Micro(m) => client.submit(m),
                Req::Plan(p) => client.submit_plan(p),
            })
            .map_err(err("deploy submit"))?;
        match reply {
            DeployReply::Outcome(o) if o.committed => write_rows += req.write_rows(),
            other => return Err(format!("replay: quiet deploy submit ended {other:?}")),
        }
    }
    drop(client);
    let mut pings: Vec<f64> = Vec::with_capacity(2_000);
    let mut pinger = Client::connect(&live.deploy.endpoint(0)).map_err(err("ping connect"))?;
    for _ in 0..2_000 {
        pings.push(pinger.ping().map_err(err("ping"))?.as_nanos() as f64 / 1_000.0);
    }
    drop(pinger);
    let audit_after = run::audit_total(&live.deploy)?;
    checks.push(Check {
        name: "replay_audit_identity",
        ok: audit_after - audit_before == write_rows,
        detail: format!(
            "quiet replay: audit_total rose by {} for {write_rows} committed row writes",
            audit_after - audit_before
        ),
    });
    run::shutdown(live, checks);

    let per_txn = |a: u64, b: u64| (b - a) as f64 / n as f64;
    Ok(Replay {
        codec,
        reqs,
        lock_acquires_per_txn: per_txn(before.0, after.0),
        lock_wait_share: if after.0 > before.0 {
            (after.1 - before.1) as f64 / (after.0 - before.0) as f64
        } else {
            0.0
        },
        wal_bytes_per_txn: per_txn(before.2, after.2),
        wal_flushes_per_txn: per_txn(before.3, after.3),
        btree_height,
        ping_us: stats::median(&pings),
    })
}

// ---------------------------------------------------------------------------
// Part 1: the loaded phases
// ---------------------------------------------------------------------------

struct Phase {
    loaded: LoadResult,
    stats: ServerStats,
    obs: islands_obs::Snapshot,
    server_cpu_s: f64,
    client_cpu_s: f64,
    rss_mb_peak: f64,
    queue_depth: f64,
    presumed_aborts: u64,
    /// The run header, filled from this phase's live deployment.
    header: crate::json::Json,
    /// Obs-off phase only: the last instance's kill/restart time, and on a
    /// durable deployment the size of the WAL it replayed.
    wal_mb: f64,
    restart_s: f64,
}

fn instance_pids(live: &Live) -> Vec<u32> {
    (0..live.deploy.instances())
        .flat_map(|i| match live.deploy.endpoint(i) {
            Endpoint::Uds(path) => env::child_pids_matching(&path.display().to_string()),
            Endpoint::Tcp(_) => Vec::new(),
        })
        .collect()
}

fn cpu_of(pids: &[u32]) -> f64 {
    pids.iter()
        .filter_map(|p| env::cpu_seconds(&p.to_string()))
        .sum()
}

fn loaded_phase(
    w: &Workload,
    seed: u64,
    secs: f64,
    obs: bool,
    began: &env::BoxState,
    run_dir: &RunDir,
    checks: &mut Vec<Check>,
) -> Res<Phase> {
    // The coordinator half of 2PC runs in this process; gate its registry
    // with the instances'.
    islands_obs::set_enabled(obs);
    let (live, _) = run::spawn(w, run_dir, 50 + obs as usize, obs)?;
    let pids = instance_pids(&live);
    let audit_before = run::audit_total(&live.deploy)?;
    let bound = Bound::Time {
        warmup: Duration::from_secs_f64((secs / 6.0).min(1.0)),
        segment: Duration::from_secs_f64(secs / SEGMENTS as f64),
    };
    let (server_cpu0, client_cpu0) = (cpu_of(&pids), env::cpu_seconds("self").unwrap_or(0.0));
    let mut depth_samples = Vec::new();
    let deploy = Arc::clone(&live.deploy);
    let loaded = load::run(&live.deploy, w, seed, bound, &mut || {
        if obs {
            if let Ok(scraped) = run::scrape(&deploy) {
                depth_samples.push(scraped.iter().map(|(_, o)| o.queue_depth as f64).sum());
            }
        }
    })?;
    drop(deploy);
    let server_cpu_s = cpu_of(&pids) - server_cpu0;
    let client_cpu_s = env::cpu_seconds("self").unwrap_or(0.0) - client_cpu0;
    let stats = run::gate_after_load(w, &live, audit_before, &loaded, checks)?;
    let mut merged = islands_obs::Snapshot::default();
    for (_, snapshot) in run::scrape(&live.deploy)? {
        merged.merge(&snapshot);
    }
    let rss_mb_peak = pids
        .iter()
        .filter_map(|p| env::rss_peak_mb(*p))
        .fold(0.0, f64::max);
    let (mut wal_mb, mut restart_s) = (0.0, 0.0);
    if !obs {
        if w.durable {
            let victim = live.deploy.instances() - 1;
            wal_mb = std::fs::metadata(live.dirs.wal.join(format!("instance-{victim}.wal")))
                .map(|m| m.len() as f64 / 1e6)
                .map_err(err("stat instance WAL"))?;
        }
        let acknowledged = audit_before + loaded.committed_write_rows;
        let samples = run::time_restarts(w, &live, 3, acknowledged, checks)?;
        restart_s = stats::better_quartile(&samples, false);
    }
    let presumed_aborts = live.deploy.presumed_aborts();
    let header = env::header(
        w,
        seed,
        began,
        live.deploy.pinned(),
        &live.config,
        &w.flush_policy(&live.dirs.wal),
    );
    run::shutdown(live, checks);
    islands_obs::set_enabled(false);
    Ok(Phase {
        loaded,
        stats,
        obs: merged,
        server_cpu_s,
        client_cpu_s,
        rss_mb_peak,
        queue_depth: if depth_samples.is_empty() {
            0.0
        } else {
            depth_samples.iter().sum::<f64>() / depth_samples.len() as f64
        },
        presumed_aborts,
        header,
        wal_mb,
        restart_s,
    })
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// Median duration (us) of `layer`'s spans over requests of the classes
/// `keep` admits; 0 when none qualifies.
fn median_span_us(spans: &[Span], reqs: &[Req], layer: Layer, keep: impl Fn(Class) -> bool) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == layer && keep(reqs[s.req as usize].class()))
        .map(Span::micros)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        stats::median(&v)
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, quick: bool) -> Res<Outcome> {
    let run_dir = RunDir::create()?;
    let began = env::BoxState::now();
    let mut checks = Vec::new();
    let serial = w.engine == EngineMode::Serial;

    // Part 1: half the run's seconds with observability off, half with it on.
    let off = loaded_phase(w, seed, seconds / 2.0, false, &began, &run_dir, &mut checks)?;
    let on = loaded_phase(w, seed, seconds / 2.0, true, &began, &run_dir, &mut checks)?;

    // Part 2: the replay. `scale` shrinks it for smoke tests only.
    let scale = if quick { 20 } else { 1 };
    let mut rec = Recorder::with_capacity(Layer::ALL.len() * w.replay_requests);
    let replayed = replay(w, seed, &run_dir, scale, &mut rec, &mut checks)?;
    let trace_file = format!("{}/trace-{}.jsonl", env::OUT_DIR, w.name);
    write_span_file(&trace_file, &rec.spans, serial)?;
    let selfs = self_times(&rec.spans, |l| l.parent(serial));
    let self_us = |layer: Layer| selfs.get(&layer).map(|v| stats::median(v)).unwrap_or(0.0);
    let reqs = &replayed.reqs;
    let local = |c: Class| c != Class::Multisite;
    let multi = |c: Class| c == Class::Multisite;

    // Part 3: the single layers.
    let btree = layers::btree()?;
    let (heap_read_ns, heap_update_ns) = layers::heap()?;
    let (fetch_hit_ns, fetch_miss_ns) = layers::buffer()?;
    let wal = layers::wal(run_dir.path())?;

    let committed_off = off.loaded.committed().max(1) as f64;
    let tps_off = stats::better_quartile(&off.loaded.tps_by_window(), true);
    let tps_on = stats::better_quartile(&on.loaded.tps_by_window(), true);
    let p50_loaded = stats::median(&off.loaded.latency_us_by_segment(50.0, None));
    let class_p50 = |c: Class| {
        let v = off.loaded.latency_us_by_segment(50.0, Some(c));
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let attempted_off = off.loaded.attempted();
    // Share of execution attempts that were re-executions of an aborted one
    // (instance-side retries, coordinator 2PC retries, client resubmits).
    let retries_off = (off.loaded.server_retries + off.loaded.resubmits) as f64;
    let multisite_commits = on.loaded.samples(Some(Class::Multisite)).max(1) as f64;
    let budget_sum: f64 = Layer::ALL.iter().map(|l| self_us(*l)).sum();
    // The registry counts a transaction per Submit frame only; a 2PC
    // branch is not one. Divide by what the clients saw commit instead.
    let committed_on = on.loaded.committed().max(1);
    let obs_us = |cat: islands_obs::BreakdownCategory| {
        on.obs.cat_ns(cat) as f64 / 1_000.0 / committed_on as f64
    };
    let tps_series = off.loaded.tps_by_segment();
    let tps_range = tps_series.iter().cloned().fold(f64::MIN, f64::max)
        - tps_series.iter().cloned().fold(f64::MAX, f64::min);

    let n_replayed = reqs.len() as u64;
    let m = Metric::scalar;
    let metrics = vec![
        m("workload.gen_ns", replayed.codec.gen_ns, "ns", n_replayed),
        m(
            "workload.encode_ns",
            replayed.codec.encode_ns,
            "ns",
            n_replayed,
        ),
        m(
            "workload.decode_ns",
            replayed.codec.decode_ns,
            "ns",
            n_replayed,
        ),
        m(
            "workload.request_bytes",
            replayed.codec.request_bytes,
            "bytes",
            n_replayed,
        ),
        m("net.uds_rtt_us", layers::uds_rtt_us()?, "us", 10_000),
        m(
            "wire.frame_ns",
            layers::wire_frame_ns(reqs)?,
            "ns",
            n_replayed,
        ),
        m("server.ping_us", replayed.ping_us, "us", 2_000),
        m(
            "server.session_us",
            self_us(Layer::Server),
            "us",
            n_replayed,
        ),
        m(
            "server.cpu_us_per_txn",
            1e6 * off.server_cpu_s / committed_off,
            "us",
            off.loaded.committed(),
        ),
        m(
            "client.cpu_us_per_txn",
            1e6 * off.client_cpu_s / committed_off,
            "us",
            off.loaded.committed(),
        ),
        m(
            "server.rss_mb_peak",
            off.rss_mb_peak,
            "MB",
            w.instances as u64,
        ),
        m(
            "executor.submit_us",
            median_span_us(&rec.spans, reqs, Layer::Executor, |_| true),
            "us",
            n_replayed,
        ),
        m(
            "executor.hop_us",
            self_us(Layer::Executor),
            "us",
            n_replayed,
        ),
        m(
            "executor.queue_depth",
            on.queue_depth,
            "count",
            on.loaded.attempted(),
        ),
        m(
            "engine.submit_us",
            median_span_us(&rec.spans, reqs, Layer::Engine, local),
            "us",
            n_replayed,
        ),
        m(
            "engine.prepare_us",
            median_span_us(&rec.spans, reqs, Layer::Engine, multi),
            "us",
            n_replayed,
        ),
        m(
            "engine.retry_share",
            retries_off / (retries_off + attempted_off as f64).max(1.0),
            "share",
            attempted_off,
        ),
        m(
            "storage.txn_us",
            median_span_us(&rec.spans, reqs, Layer::Storage, |_| true),
            "us",
            n_replayed,
        ),
        m("lock.acquire_ns", layers::lock_acquire_ns()?, "ns", 100_000),
        m(
            "lock.acquires_per_txn",
            replayed.lock_acquires_per_txn,
            "count",
            n_replayed,
        ),
        m(
            "lock.wait_share",
            replayed.lock_wait_share,
            "share",
            n_replayed,
        ),
        m("btree.get_ns", btree.get_ns, "ns", 100_000),
        m("btree.insert_ns", btree.insert_ns, "ns", 240_000),
        m("btree.range_ns", btree.range_ns, "ns", 50_000),
        m("btree.height", replayed.btree_height, "count", 1),
        m("heap.read_ns", heap_read_ns, "ns", 100_000),
        m("heap.update_ns", heap_update_ns, "ns", 100_000),
        m("buffer.fetch_hit_ns", fetch_hit_ns, "ns", 200_000),
        m("buffer.fetch_miss_ns", fetch_miss_ns, "ns", 20_480),
        m("wal.append_ns", wal.append_ns, "ns", 100_000),
        m("wal.commit_sync_us", wal.commit_sync_us, "us", 50_000),
        m("wal.commit_group_us", wal.commit_group_us, "us", 1_000),
        m("wal.commit_file_us", wal.commit_file_us, "us", 1_500),
        m(
            "wal.bytes_per_txn",
            replayed.wal_bytes_per_txn,
            "bytes",
            n_replayed,
        ),
        m(
            "wal.flushes_per_txn",
            replayed.wal_flushes_per_txn,
            "count",
            n_replayed,
        ),
        m("dtxn.machine_ns", layers::dtxn_machine_ns()?, "ns", 200_000),
        m(
            "dtxn.decision_force_us",
            layers::decision_force_us(run_dir.path())?,
            "us",
            1_500,
        ),
        m(
            "deploy.route_ns",
            layers::route_ns(reqs, w.instances),
            "ns",
            n_replayed,
        ),
        m(
            "deploy.local_us",
            median_span_us(&rec.spans, reqs, Layer::Deploy, local),
            "us",
            n_replayed,
        ),
        m(
            "deploy.twopc_us",
            median_span_us(&rec.spans, reqs, Layer::Deploy, multi),
            "us",
            n_replayed,
        ),
        m(
            "deploy.twopc_rounds_per_txn",
            if on.stats.prepares == 0 {
                0.0
            } else {
                (on.stats.prepares + on.stats.decisions) as f64 / multisite_commits
            },
            "count",
            on.stats.prepares + on.stats.decisions,
        ),
        m(
            "deploy.presumed_aborts",
            (off.presumed_aborts + on.presumed_aborts) as f64,
            "count",
            1,
        ),
        m("deploy.restart_s", off.restart_s, "s", 3),
        m("recovery.wal_mb", off.wal_mb, "MB", 1),
        m(
            "recovery.replay_mb_per_s",
            off.wal_mb / off.restart_s.max(1e-9),
            "MB/s",
            1,
        ),
        m(
            "obs.execution_us_per_txn",
            obs_us(islands_obs::BreakdownCategory::XctExecution),
            "us",
            committed_on,
        ),
        m(
            "obs.locking_us_per_txn",
            obs_us(islands_obs::BreakdownCategory::Locking),
            "us",
            committed_on,
        ),
        m(
            "obs.logging_us_per_txn",
            obs_us(islands_obs::BreakdownCategory::Logging),
            "us",
            committed_on,
        ),
        m(
            "obs.communication_us_per_txn",
            obs_us(islands_obs::BreakdownCategory::Communication),
            "us",
            committed_on,
        ),
        m(
            "obs.management_us_per_txn",
            obs_us(islands_obs::BreakdownCategory::XctManagement),
            "us",
            committed_on,
        ),
        m(
            "obs.prepare_p50_us",
            on.obs.prepare_us.percentile_us(50.0) as f64,
            "us",
            on.obs.prepare_us.count,
        ),
        m(
            "obs.decision_p50_us",
            on.obs.decision_us.percentile_us(50.0) as f64,
            "us",
            on.obs.decision_us.count,
        ),
        m(
            "obs.parked_p50_us",
            on.obs.parked_us.percentile_us(50.0) as f64,
            "us",
            on.obs.parked_us.count,
        ),
        m(
            "obs.overhead_pct",
            100.0 * (tps_off - tps_on) / tps_off,
            "%",
            on.loaded.committed(),
        ),
        m("e2e.tps", tps_off, "1/s", off.loaded.committed()),
        m(
            "e2e.p50_us",
            p50_loaded,
            "us",
            off.loaded.samples(None) as u64,
        ),
        m(
            "e2e.p95_us",
            stats::median(&off.loaded.latency_us_by_segment(95.0, None)),
            "us",
            off.loaded.samples(None) as u64,
        ),
        m(
            "e2e.p99_us",
            off.loaded.overall_latency_us(99.0),
            "us",
            off.loaded.samples(None) as u64,
        ),
        m(
            "e2e.p999_us",
            off.loaded.overall_latency_us(99.9),
            "us",
            off.loaded.samples(None) as u64,
        ),
        m(
            "e2e.local_p50_us",
            class_p50(Class::Local),
            "us",
            off.loaded.samples(Some(Class::Local)) as u64,
        ),
        m(
            "e2e.multisite_p50_us",
            class_p50(Class::Multisite),
            "us",
            off.loaded.samples(Some(Class::Multisite)) as u64,
        ),
        m(
            "e2e.neworder_p50_us",
            class_p50(Class::NewOrder),
            "us",
            off.loaded.samples(Some(Class::NewOrder)) as u64,
        ),
        m(
            "e2e.payment_p50_us",
            class_p50(Class::Payment),
            "us",
            off.loaded.samples(Some(Class::Payment)) as u64,
        ),
        m(
            "e2e.segment_spread_pct",
            100.0 * tps_range / tps_off,
            "%",
            SEGMENTS as u64,
        ),
        m(
            "e2e.failed_share",
            (attempted_off - off.loaded.committed()) as f64 / attempted_off.max(1) as f64,
            "share",
            attempted_off,
        ),
        m("budget.sum_us", budget_sum, "us", n_replayed),
        m(
            "budget.residual_pct",
            100.0 * (p50_loaded - budget_sum) / p50_loaded,
            "%",
            n_replayed,
        ),
    ];
    println!("wrote {trace_file} ({} spans)", rec.spans.len());
    for layer in Layer::ALL {
        if let Some(v) = selfs.get(&layer) {
            println!(
                "  self time {:<9} median {:>9.3} us over {} requests",
                layer.label(),
                stats::median(v),
                v.len()
            );
        }
    }

    let attempted = off.loaded.attempted() + on.loaded.attempted();
    let committed = off.loaded.committed() + on.loaded.committed();
    Ok(Outcome {
        workload: w.name,
        trace: true,
        // Written when the obs-off deployment drained: its loadavg "end" is
        // the end of the half whose numbers carry the run.
        header: off.header,
        checks,
        attempted,
        failed: attempted - committed,
        metrics,
        diagnostics: Vec::new(),
        warnings: began.warnings(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u32, layer: Layer, start_us: u64, end_us: u64) -> Span {
        Span {
            req,
            layer,
            start_ns: start_us * 1_000,
            end_ns: end_us * 1_000,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children_of_the_same_request() {
        // Request 0 on a serial stack: deploy 200 > server 120 > {executor
        // 50 > engine 30 > storage 20, wire 4 > codec 1}. Request 1 only
        // reached the engine depth.
        let spans = vec![
            span(0, Layer::Deploy, 0, 200),
            span(0, Layer::Server, 300, 420),
            span(0, Layer::Executor, 500, 550),
            span(0, Layer::Engine, 600, 630),
            span(0, Layer::Storage, 700, 720),
            span(0, Layer::Wire, 800, 804),
            span(0, Layer::Codec, 900, 901),
            span(1, Layer::Engine, 1_000, 1_040),
            span(1, Layer::Storage, 1_100, 1_110),
        ];
        let selfs = self_times(&spans, |l| l.parent(true));
        assert_eq!(selfs[&Layer::Deploy], vec![80.0]);
        assert_eq!(selfs[&Layer::Server], vec![120.0 - 50.0 - 4.0]);
        assert_eq!(selfs[&Layer::Executor], vec![20.0]);
        assert_eq!(selfs[&Layer::Engine], vec![10.0, 30.0]);
        assert_eq!(selfs[&Layer::Storage], vec![20.0, 10.0]);
        assert_eq!(selfs[&Layer::Wire], vec![3.0]);
        assert_eq!(selfs[&Layer::Codec], vec![1.0]);
        // The self times of one request add back up to its outermost span.
        let total: f64 = Layer::ALL.iter().map(|l| selfs[l][0]).sum();
        assert_eq!(total, 200.0);
    }

    #[test]
    fn a_locked_stack_has_no_executor_depth() {
        let spans = vec![
            span(0, Layer::Server, 0, 100),
            span(0, Layer::Engine, 200, 260),
            span(0, Layer::Wire, 300, 305),
        ];
        let selfs = self_times(&spans, |l| l.parent(false));
        assert_eq!(selfs[&Layer::Server], vec![35.0]);
        assert_eq!(Layer::Engine.parent(false), Some(Layer::Server));
        assert_eq!(Layer::Engine.parent(true), Some(Layer::Executor));
    }
}
