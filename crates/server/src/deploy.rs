//! Multi-process shared-nothing deployments.
//!
//! The paper's central comparison is between deployments of *separate OS
//! processes*: shared-everything (one instance spanning the machine),
//! island-sized shared-nothing, and fine-grained shared-nothing, where
//! multisite transactions pay real distributed-commit and IPC costs
//! (Porobic et al., §3, Figs. 9–12). [`Deployment::spawn`] stands such a
//! topology up for real:
//!
//! * **One process per instance.** Each child runs one partition — a
//!   contiguous key (or warehouse) range — in the configured
//!   [`EngineMode`], served over the wire protocol ([`Backend::Partition`]
//!   or [`Backend::Executor`]). Children are re-executions of the host
//!   binary ([`SpawnMode::SelfExec`]) or a dedicated `islands-instance`
//!   binary ([`SpawnMode::Binary`]).
//! * **Topology-pinned.** Instance `i` is pinned (via `taskset`, when
//!   available) to the cores `hwtopo`'s island placement assigns it on the
//!   *detected host* topology — the paper's "N islands" layout, not a
//!   simulated one.
//! * **One route, wire-level 2PC.** [`DeployClient::submit_plan`] is the
//!   only routing path — the router it calls is the one the in-process
//!   [`Cluster`](crate::Cluster) runs over direct calls; a micro batch is
//!   lowered onto it on entry
//!   ([`DeployClient::submit`]), so micro and TPC-C traffic cross the same
//!   code and the same frames. A plan whose steps all live on one instance
//!   goes straight to it as a `SubmitPlan` frame. A plan spanning instances
//!   runs presumed-abort two-phase commit: the [`DeployClient`] coordinator
//!   splits it into per-instance branches, fans out `PreparePlan` frames,
//!   collects `Vote`s, forces commit decisions to the coordinator log,
//!   writes the `Decision`s and answers its caller — driving the pure
//!   [`islands_dtxn::Coordinator`] state machine with bytes on sockets
//!   instead of function calls (the driver lives in `coordinator.rs`). The
//!   `Ack`s are not waited for: each connection remembers which it is owed
//!   and the next exchange on it reads them ahead of its own reply.
//! * **Presumed abort under failure.** A participant that cannot be
//!   reached (connection refused/reset, vote timeout) is reported to the
//!   state machine as a failure: an undecided transaction aborts, and
//!   surviving participants receive abort decisions. An owed ack that never
//!   arrives poisons its connection and changes no outcome. On the instance
//!   side, a coordinator connection that dies leaving prepared branches
//!   behind triggers the same rule (see `server.rs`): the branches roll
//!   back, locks release, and the instance stays serviceable.
//!
//! The coordinator's forced decision log lives in the coordinator process
//! (`coordinator::DecisionStore`); `islands_dtxn::recovery` holds the rule a
//! restarted participant applies against it, tested in that crate. What
//! this module adds is the *live* half: no process exits with in-doubt
//! transactions still holding locks, which the instance processes verify
//! themselves at drain (nonzero exit + `in_doubt` count in their final
//! stats line).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use islands_core::native::{DecideOutcome, Engine, EngineMode, PartitionConfig, TpccPartition};
pub use islands_core::partition::split_plan_by_owner;
use islands_core::partition::{RangeSites, SiteMap, Sites, WarehouseSites};
use islands_hwtopo::{island_cpu_lists, HostTopology};
use islands_workload::{even_owner, PlanRequest, TxnRequest};

use crate::client::Client;
use crate::coordinator::{AckDebt, Coordination, DecisionStore, Resolver, TwoPcLink};
use crate::server::{Backend, Endpoint, Server, ServerConfig};
use crate::wire::{Reply, Request};

/// First argument that turns a host binary into an instance child (see
/// [`run_instance_child_if_requested`]).
pub const INSTANCE_CHILD_FLAG: &str = "--instance-child";

/// How instance processes are started.
#[derive(Debug, Clone)]
pub enum SpawnMode {
    /// Re-execute the current binary with [`INSTANCE_CHILD_FLAG`]; the host
    /// binary must call [`run_instance_child_if_requested`] first thing in
    /// `main`. One binary, zero path discovery.
    SelfExec,
    /// Run this binary (e.g. a built `islands-instance`). It is passed
    /// [`INSTANCE_CHILD_FLAG`] too, so the same arg parser serves both.
    Binary(PathBuf),
}

/// Where the deployment's endpoints live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Unix domain sockets in [`DeployConfig::socket_dir`].
    Uds,
    /// Loopback TCP on ephemeral ports.
    Tcp,
}

/// What data the instance processes load and serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployWorkload {
    /// The single-table microbenchmark: `total_rows` keys range-partitioned
    /// evenly across instances.
    Micro,
    /// TPC-C-lite: warehouses (with their districts, customers, and stock)
    /// partitioned contiguously across instances
    /// ([`WarehouseSites`]); NewOrder runs local, remote-warehouse Payments
    /// run wire-level 2PC.
    Tpcc {
        /// Scale factor: number of warehouses across the whole deployment.
        warehouses: u64,
    },
}

/// Configuration for a multi-process deployment.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// Number of instance processes (1 = "1ISL", machine-count = islands,
    /// core-count = fine-grained).
    pub instances: usize,
    pub transport: Transport,
    /// Total rows, range-partitioned evenly across instances.
    pub total_rows: u64,
    /// Payload bytes per row.
    pub row_size: usize,
    /// Server-side retry budget for local submissions, and the
    /// coordinator's retry budget for multisite 2PC aborts.
    pub retry_limit: u32,
    /// Per-instance lock wait budget (also breaks distributed deadlocks).
    pub lock_timeout: Duration,
    /// Run instances without locking (only sound for one client).
    pub single_threaded: bool,
    /// How each instance executes: [`EngineMode::Locked`] (sessions execute
    /// inline under 2PL) or [`EngineMode::Serial`] (sessions take turns on
    /// the partition's one mutex, no lock table on the local fast path).
    pub engine: EngineMode,
    /// Pin instance processes to island core sets via `taskset`.
    pub pin: bool,
    pub spawn: SpawnMode,
    /// How long the coordinator waits for a vote or ack before presuming
    /// the participant failed. Must comfortably exceed `lock_timeout`.
    pub vote_timeout: Duration,
    /// Directory for UDS socket files (default: the OS temp dir).
    pub socket_dir: Option<PathBuf>,
    /// Period of the `STATS` heartbeat each instance prints on stdout
    /// (0 disables). The parent only drains child stdout at shutdown, so
    /// the pipe's capacity bounds how long a run can heartbeat before the
    /// child would block on a full pipe — at the 500 ms default and ~100
    /// bytes a line, comfortably over five minutes.
    pub stats_every_ms: u64,
    /// Run instances with the observability registry enabled. Disabling it
    /// (`islands-sweep --no-obs`) turns every counter/span into a load-and-branch
    /// for overhead A/B measurements; heartbeats and final stats still
    /// print (wire counters are always on).
    pub obs: bool,
    /// What the instances load and serve (micro table or TPC-C-lite).
    pub workload: DeployWorkload,
    /// Directory for durable state, or `None` for a volatile deployment.
    /// When set, each instance writes a WAL (`instance-<i>.wal`) it replays
    /// on restart, the coordinator forces commit decisions to
    /// `coordinator.decisions` before any `Decision` frame leaves, and a
    /// resolver socket answers a recovering instance's
    /// [`Request::ResolveGtid`] queries from that log (unknown gtid ⇒
    /// presumed abort).
    pub wal_dir: Option<PathBuf>,
}

impl DeployConfig {
    /// Check that the configuration describes a spawnable deployment.
    ///
    /// In particular `total_rows >= instances`: with fewer rows than
    /// instances the even range partitioning degenerates (instances whose
    /// range is empty), which is exactly the shape under which ownership
    /// arithmetic divergence bugs hide. Reject it before any process spawns.
    pub fn validate(&self) -> Result<(), String> {
        check_partitionable(self.instances, self.total_rows)?;
        if self.row_size == 0 {
            return Err("row_size must be nonzero".into());
        }
        if self.vote_timeout <= self.lock_timeout {
            return Err(format!(
                "vote_timeout ({:?}) must exceed lock_timeout ({:?}) or every \
                 lock-contended vote is presumed dead",
                self.vote_timeout, self.lock_timeout
            ));
        }
        if let DeployWorkload::Tpcc { warehouses } = self.workload {
            if warehouses < self.instances as u64 {
                return Err(format!(
                    "{warehouses} warehouses cannot partition across {} instances \
                     (need warehouses >= instances)",
                    self.instances
                ));
            }
        }
        Ok(())
    }
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            instances: 4,
            transport: Transport::Uds,
            total_rows: 40_000,
            row_size: 64,
            retry_limit: 64,
            lock_timeout: Duration::from_millis(200),
            single_threaded: false,
            engine: EngineMode::Locked,
            pin: true,
            spawn: SpawnMode::SelfExec,
            vote_timeout: Duration::from_secs(5),
            socket_dir: None,
            stats_every_ms: 500,
            obs: true,
            workload: DeployWorkload::Micro,
            wal_dir: None,
        }
    }
}

/// Whether `total_rows` keys range-partition over `instances`, for a spawned
/// deployment and the in-process cluster alike. With fewer rows than
/// instances some range would be empty, and routing has no divisor.
pub(crate) fn check_partitionable(instances: usize, total_rows: u64) -> Result<(), String> {
    if instances == 0 {
        return Err("a deployment needs at least one instance".into());
    }
    if total_rows < instances as u64 {
        return Err(format!(
            "{total_rows} rows cannot partition across {instances} instances \
             (need rows >= instances)"
        ));
    }
    Ok(())
}

impl DeployWorkload {
    /// The site map a deployment of `instances` routes and loads by: one
    /// site per instance.
    fn sites(self, instances: usize, total_rows: u64) -> Sites {
        match self {
            DeployWorkload::Micro => Sites::Range(RangeSites {
                total_rows,
                n_sites: instances,
            }),
            DeployWorkload::Tpcc { warehouses } => Sites::Warehouse(WarehouseSites {
                warehouses,
                n_sites: instances,
            }),
        }
    }
}

/// Split a multisite batch into per-instance branches, preserving key
/// order within each branch. Returns `(participants-in-first-touch-order,
/// branch-per-participant)`. Routing itself goes through
/// [`split_plan_by_owner`] (re-exported here from `core::partition`); this
/// is the batch-shaped reference that split is tested against.
pub fn split_by_owner(
    req: &TxnRequest,
    instances: usize,
    total_rows: u64,
) -> (Vec<usize>, HashMap<usize, TxnRequest>) {
    let mut order = Vec::new();
    let mut branches: HashMap<usize, TxnRequest> = HashMap::new();
    for &key in &req.keys {
        let owner = even_owner(key, instances, total_rows);
        let branch = branches.entry(owner).or_insert_with(|| {
            order.push(owner);
            TxnRequest {
                kind: req.kind,
                keys: Vec::new(),
                multisite: true,
            }
        });
        branch.keys.push(key);
    }
    (order, branches)
}

/// Final counters one instance printed at drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstanceStats {
    pub commits: u64,
    pub aborts: u64,
    pub errors: u64,
    pub prepares: u64,
    pub decisions: u64,
    pub presumed_aborts: u64,
    pub in_doubt: u64,
}

fn parse_stats(line: &str) -> Option<InstanceStats> {
    let rest = line.strip_prefix("STATS ")?;
    let mut s = InstanceStats::default();
    for pair in rest.split_whitespace() {
        let (k, v) = pair.split_once('=')?;
        let v: u64 = v.parse().ok()?;
        match k {
            "commits" => s.commits = v,
            "aborts" => s.aborts = v,
            "errors" => s.errors = v,
            "prepares" => s.prepares = v,
            "decisions" => s.decisions = v,
            "presumed_aborts" => s.presumed_aborts = v,
            "in_doubt" => s.in_doubt = v,
            // Unknown keys are skipped, not fatal: a newer child may
            // heartbeat fields an older parent has no slot for.
            _ => {}
        }
    }
    Some(s)
}

fn format_stats(s: &crate::server::ServerStats) -> String {
    format!(
        "STATS commits={} aborts={} errors={} prepares={} decisions={} \
         presumed_aborts={} in_doubt={}",
        s.commits, s.aborts, s.errors, s.prepares, s.decisions, s.presumed_aborts, s.in_doubt,
    )
}

/// How one instance process ended.
#[derive(Debug)]
pub struct InstanceExit {
    pub index: usize,
    /// Drained on request, exited zero, and reported zero in-doubt
    /// transactions.
    pub clean: bool,
    /// Final counters, when the instance lived long enough to print them.
    pub stats: Option<InstanceStats>,
    /// Human-readable detail for unclean exits.
    pub detail: String,
}

/// Where in the 2PC exchange a scripted fault kills its victim (always
/// relative to the victim's own frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Before the victim's `Prepare` frame is sent: nothing durable exists
    /// on the victim; the transaction presumed-aborts.
    PrePrepare,
    /// After the victim voted Yes (its prepared branch is durable in its
    /// WAL), before its `Decision` frame is sent — the canonical in-doubt
    /// window.
    PostPreparePreDecision,
    /// Right after the victim's `Decision` frame was written. Nobody is
    /// waiting for the ack: the round answers its caller regardless, the
    /// victim may or may not have applied the frame, and the loss surfaces
    /// on the next exchange that tries to read what the link owes.
    PostDecisionPreAck,
}

impl FaultPoint {
    /// Parse the CLI spelling (`pre-prepare`, `post-prepare`,
    /// `post-decision`).
    pub fn parse(s: &str) -> Result<FaultPoint, String> {
        match s {
            "pre-prepare" => Ok(FaultPoint::PrePrepare),
            "post-prepare" => Ok(FaultPoint::PostPreparePreDecision),
            "post-decision" => Ok(FaultPoint::PostDecisionPreAck),
            other => Err(format!(
                "fault point must be pre-prepare, post-prepare, or post-decision; got {other}"
            )),
        }
    }

    /// The CLI spelling back (round-trips with [`parse`](Self::parse)).
    pub fn label(&self) -> &'static str {
        match self {
            FaultPoint::PrePrepare => "pre-prepare",
            FaultPoint::PostPreparePreDecision => "post-prepare",
            FaultPoint::PostDecisionPreAck => "post-decision",
        }
    }
}

/// One scripted fault: SIGKILL `victim` the next time the coordinator
/// reaches `point` in a 2PC exchange involving it. Armed once via
/// [`Deployment::arm_fault`]; fires at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub point: FaultPoint,
    pub victim: usize,
}

struct Member {
    endpoint: Mutex<Endpoint>,
    range: (u64, u64),
    cpus: Option<String>,
    /// Child argv (after the executable), kept verbatim so
    /// [`Deployment::restart_instance`] respawns the same instance — same
    /// key range, same WAL path, same pins.
    args: Vec<String>,
    child: Mutex<Child>,
    stdout: Mutex<BufReader<ChildStdout>>,
}

/// A running multi-process deployment. Dropping it kills every child that
/// [`shutdown`](Self::shutdown) has not already reaped.
pub struct Deployment {
    members: Vec<Member>,
    exe: PathBuf,
    retry_limit: u32,
    vote_timeout: Duration,
    /// Reply deadline for plain submissions: unlike a vote (one execution
    /// attempt), a submit may legitimately burn the instance's whole
    /// retry × lock-wait budget before answering, so "wedged" starts after
    /// that budget plus the vote timeout.
    submit_timeout: Duration,
    pinned: bool,
    /// What every [`DeployClient`] of this deployment routes and decides
    /// by. With [`DeployConfig::wal_dir`] set its decision store is written
    /// through a durable [`DecisionLog`](islands_dtxn::DecisionLog);
    /// `islands_dtxn::recovery::resolve_in_doubt` is the rule participants
    /// apply against it.
    coord: Coordination,
    /// The resolver socket answering recovering instances (wal deployments
    /// only). Dropped last-ish: children are killed first in both shutdown
    /// paths, so nothing is left asking.
    resolver: Option<Resolver>,
    /// A scripted fault waiting to fire (see [`FaultPlan`]).
    fault: Mutex<Option<FaultPlan>>,
    faults_fired: AtomicU64,
}

impl Deployment {
    /// Spawn `cfg.instances` pinned instance processes and wait for each to
    /// report readiness. On any failure the already-spawned children are
    /// killed before the error returns.
    pub fn spawn(cfg: &DeployConfig) -> io::Result<Deployment> {
        cfg.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let exe = match &cfg.spawn {
            SpawnMode::SelfExec => std::env::current_exe()?,
            SpawnMode::Binary(p) => p.clone(),
        };
        // Pinning needs both the request and the tool; when either is
        // missing, report no cpu sets at all rather than a plan that was
        // never applied.
        let taskset = cfg.pin && taskset_available();
        let pins = if taskset {
            island_pin_sets(cfg.instances)
        } else {
            vec![None; cfg.instances]
        };
        let socket_dir = cfg.socket_dir.clone().unwrap_or_else(std::env::temp_dir);
        // Socket names carry a per-process sequence number on top of the
        // pid: concurrent Deployments in one process (parallel tests) must
        // not race for the same paths.
        static DEPLOY_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = DEPLOY_SEQ.fetch_add(1, Ordering::Relaxed);

        // Durable half: the coordinator's decision log and its resolver
        // socket come up before any child spawns, so a child that restarts
        // into recovery always finds someone to ask.
        if let Some(dir) = &cfg.wal_dir {
            std::fs::create_dir_all(dir)?;
        }
        let decisions = Arc::new(DecisionStore::open(cfg.wal_dir.as_deref())?);
        let resolver = match &cfg.wal_dir {
            Some(_) => Some(Resolver::spawn(
                socket_dir.join(format!("islands-coord-{}-{seq}.sock", std::process::id())),
                Arc::clone(&decisions),
            )?),
            None => None,
        };

        let child_args = |i: usize, range: (u64, u64)| -> Vec<String> {
            let endpoint_spec = match cfg.transport {
                Transport::Uds => format!(
                    "uds:{}",
                    socket_dir
                        .join(format!(
                            "islands-inst-{}-{seq}-{i}.sock",
                            std::process::id()
                        ))
                        .display()
                ),
                Transport::Tcp => "tcp:127.0.0.1:0".to_string(),
            };
            let mut args = vec![
                INSTANCE_CHILD_FLAG.to_string(),
                "--endpoint".into(),
                endpoint_spec,
                "--row-size".into(),
                cfg.row_size.to_string(),
                "--retry-limit".into(),
                cfg.retry_limit.to_string(),
                "--lock-ms".into(),
                cfg.lock_timeout.as_millis().to_string(),
                "--stats-every-ms".into(),
                cfg.stats_every_ms.to_string(),
            ];
            match cfg.workload {
                DeployWorkload::Micro => {
                    args.extend(["--lo".into(), range.0.to_string()]);
                    args.extend(["--hi".into(), range.1.to_string()]);
                }
                DeployWorkload::Tpcc { warehouses } => {
                    args.extend(["--warehouses".into(), warehouses.to_string()]);
                    args.extend(["--w-lo".into(), range.0.to_string()]);
                    args.extend(["--w-hi".into(), range.1.to_string()]);
                }
            }
            if let Some(dir) = &cfg.wal_dir {
                args.extend([
                    "--wal".into(),
                    dir.join(format!("instance-{i}.wal")).display().to_string(),
                ]);
            }
            if let Some(r) = &resolver {
                args.extend(["--coord".into(), r.endpoint.to_string()]);
            }
            if cfg.single_threaded {
                args.push("--single-threaded".into());
            }
            if !cfg.obs {
                args.push("--no-obs".into());
            }
            if cfg.engine == EngineMode::Serial {
                args.extend(["--engine".into(), EngineMode::Serial.label().into()]);
            }
            args
        };

        let sites = cfg.workload.sites(cfg.instances, cfg.total_rows);
        let mut spawned: Vec<Member> = Vec::new();
        for (i, pin) in pins.iter().enumerate().take(cfg.instances) {
            // In TPC-C mode the "range" a member reports is its warehouse
            // range.
            let range = sites.range_of(i);
            let args = child_args(i, range);
            let cpus = if taskset { pin.clone() } else { None };
            match spawn_child(&exe, cpus.as_deref(), &args) {
                Ok((child, stdout)) => spawned.push(Member {
                    endpoint: Mutex::new(Endpoint::Uds(PathBuf::new())), // patched after READY
                    range,
                    cpus: pin.clone(),
                    args,
                    child: Mutex::new(child),
                    stdout: Mutex::new(stdout),
                }),
                Err(e) => {
                    for m in &spawned {
                        let mut c = lock_clean(&m.child);
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    return Err(io::Error::other(format!("spawn instance {i}: {e}")));
                }
            }
        }

        // Collect READY lines (children bind and load in parallel above).
        let mut members = Vec::with_capacity(spawned.len());
        let mut failure: Option<String> = None;
        for (i, member) in spawned.drain(..).enumerate() {
            if failure.is_none() {
                let ready = {
                    let mut stdout = lock_clean(&member.stdout);
                    let mut child = lock_clean(&member.child);
                    read_ready(&mut stdout, &mut child)
                };
                match ready {
                    Ok(endpoint) => {
                        *lock_clean(&member.endpoint) = endpoint;
                        members.push(member);
                        continue;
                    }
                    Err(e) => failure = Some(format!("instance {i} never became ready: {e}")),
                }
            }
            let mut c = lock_clean(&member.child);
            let _ = c.kill();
            let _ = c.wait();
        }
        if let Some(msg) = failure {
            for m in &members {
                let mut c = lock_clean(&m.child);
                let _ = c.kill();
                let _ = c.wait();
            }
            return Err(io::Error::other(msg));
        }
        Ok(Deployment {
            members,
            exe,
            retry_limit: cfg.retry_limit,
            vote_timeout: cfg.vote_timeout,
            submit_timeout: cfg.vote_timeout + cfg.lock_timeout * (cfg.retry_limit + 1),
            pinned: taskset,
            coord: Coordination::new(sites, decisions),
            resolver,
            fault: Mutex::new(None),
            faults_fired: AtomicU64::new(0),
        })
    }

    pub fn instances(&self) -> usize {
        self.members.len()
    }

    /// Whether children were actually wrapped in `taskset`.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// The cpu list instance `i` was pinned to, if any.
    pub fn cpus_of(&self, i: usize) -> Option<&str> {
        self.members[i].cpus.as_deref()
    }

    /// The endpoint instance `i` listens on. A clone, not a reference: a
    /// concurrent [`restart_instance`](Self::restart_instance) may swap the
    /// live endpoint (TCP children re-bind an ephemeral port).
    pub fn endpoint(&self, i: usize) -> Endpoint {
        lock_clean(&self.members[i].endpoint).clone()
    }

    /// The resolver socket recovering instances query, when this deployment
    /// has one ([`DeployConfig::wal_dir`] set).
    pub fn resolver_endpoint(&self) -> Option<Endpoint> {
        self.resolver.as_ref().map(|r| r.endpoint.clone())
    }

    /// The key range instance `i` owns.
    pub fn range(&self, i: usize) -> (u64, u64) {
        self.members[i].range
    }

    /// The instance owning `(table, key)` under the deployment's workload:
    /// micro keys by row range, TPC-C keys by their warehouse — the site
    /// map each member's loaded range is the inverse of.
    pub fn owner_of_step(&self, table: u32, key: u64) -> usize {
        self.coord.sites.site_of(table, key)
    }

    /// Coordinator-observed presumed aborts so far.
    pub fn presumed_aborts(&self) -> u64 {
        self.coord.presumed_aborts.load(Ordering::Relaxed)
    }

    /// Number of commit decisions forced to the coordinator log so far
    /// (monotone: forgetting a fully acknowledged one does not lower it).
    pub fn decided_commits(&self) -> u64 {
        self.coord.decisions.decided_count()
    }

    /// Decision records the coordinator still holds in memory. A volatile
    /// deployment drops each one when the last `Ack` it was owed is read,
    /// so this is the number of commits not yet acknowledged everywhere; a
    /// durable one ([`DeployConfig::wal_dir`]) keeps them all.
    pub fn remembered_decisions(&self) -> usize {
        self.coord.decisions.remembered()
    }

    /// Arm a scripted fault: the next 2PC exchange that reaches
    /// `plan.point` with `plan.victim` as a participant SIGKILLs the victim
    /// at exactly that point. One-shot; re-arm for another fault.
    pub fn arm_fault(&self, plan: FaultPlan) {
        *lock_clean(&self.fault) = Some(plan);
    }

    /// How many scripted faults have fired.
    pub fn faults_fired(&self) -> u64 {
        self.faults_fired.load(Ordering::Relaxed)
    }

    fn maybe_fire_fault(&self, point: FaultPoint, to: usize) {
        let fire = {
            let mut armed = lock_clean(&self.fault);
            match *armed {
                Some(plan) if plan.point == point && plan.victim == to => {
                    *armed = None;
                    true
                }
                _ => false,
            }
        };
        if fire {
            let _ = self.kill_instance(to);
            self.faults_fired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Open one coordinator connection set (one socket per instance).
    /// Each client thread should hold its own.
    pub fn client(self: &Arc<Self>) -> io::Result<DeployClient> {
        let mut conns = Vec::with_capacity(self.members.len());
        for m in &self.members {
            let endpoint = lock_clean(&m.endpoint).clone();
            conns.push(Some(Client::connect_with_retry(
                &endpoint,
                Duration::from_secs(2),
            )?));
        }
        Ok(DeployClient {
            debt: AckDebt::new(conns.len()),
            deploy: Arc::clone(self),
            conns,
        })
    }

    /// SIGKILL instance `i` (no drain, no cleanup) — the fault injector's
    /// hammer, also usable directly from tests to exercise the
    /// presumed-abort paths.
    pub fn kill_instance(&self, i: usize) -> io::Result<()> {
        let mut child = lock_clean(&self.members[i].child);
        child.kill()?;
        child.wait()?;
        Ok(())
    }

    /// Respawn instance `i` on its original key range, WAL path, and pins,
    /// and wait for it to report READY. The stale socket file a killed
    /// child leaves behind is removed first — the replacement must bind
    /// fresh, not inherit a path some client still holds a dead connection
    /// to. On a WAL deployment the child replays its log before READY, so
    /// when this returns, its surviving in-doubt branches are already
    /// resolved against the coordinator's decision log.
    pub fn restart_instance(&self, i: usize) -> io::Result<()> {
        let m = &self.members[i];
        {
            // Make sure the old incarnation is dead and reaped before its
            // replacement binds (idempotent after kill_instance).
            let mut child = lock_clean(&m.child);
            let _ = child.kill();
            let _ = child.wait();
        }
        remove_uds_file(&lock_clean(&m.endpoint).clone());
        let cpus = if self.pinned { m.cpus.as_deref() } else { None };
        let (mut child, mut stdout) = spawn_child(&self.exe, cpus, &m.args)?;
        match read_ready(&mut stdout, &mut child) {
            Ok(endpoint) => {
                *lock_clean(&m.endpoint) = endpoint;
                *lock_clean(&m.child) = child;
                *lock_clean(&m.stdout) = stdout;
                Ok(())
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "instance {i} never became ready after restart: {e}"
                )))
            }
        }
    }

    /// Drain every instance, wait for the processes to exit, and report how
    /// each ended. An instance is `clean` iff it acknowledged the drain,
    /// exited zero, and reported zero in-doubt transactions.
    pub fn shutdown(mut self) -> Vec<InstanceExit> {
        let members = std::mem::take(&mut self.members);
        let mut reports = Vec::with_capacity(members.len());
        for (i, member) in members.into_iter().enumerate() {
            let mut detail = String::new();
            let endpoint = unwrap_clean(member.endpoint);
            let drained = match Client::connect(&endpoint).and_then(|mut c| c.drain_server()) {
                Ok(()) => true,
                Err(e) => {
                    detail = format!("drain failed: {e}");
                    false
                }
            };
            let mut child = unwrap_clean(member.child);
            let status = match wait_with_timeout(&mut child, Duration::from_secs(10)) {
                Ok(status) => Some(status),
                Err(e) => {
                    detail = format!("{detail}; wait failed: {e}");
                    let _ = child.kill();
                    let _ = child.wait();
                    None
                }
            };
            // The child has exited (or been killed): its stdout is at EOF,
            // so drain the remaining lines and keep the *last* STATS record.
            // With heartbeats on, many STATS lines precede it; the final one
            // (printed after the server joins) carries the drained totals,
            // and a killed child's newest heartbeat is the best estimate.
            let mut stats = None;
            let mut stdout = unwrap_clean(member.stdout);
            let mut line = String::new();
            while let Ok(n) = stdout.read_line(&mut line) {
                if n == 0 {
                    break;
                }
                if let Some(s) = parse_stats(line.trim_end()) {
                    stats = Some(s);
                }
                line.clear();
            }
            let exited_zero = status.map(|s| s.success()).unwrap_or(false);
            let no_leak = stats.map(|s| s.in_doubt == 0).unwrap_or(false);
            if !exited_zero {
                detail = format!("{detail}; exit status {status:?}");
            }
            if stats.is_none() {
                detail = format!("{detail}; no STATS line");
            } else if !no_leak {
                detail = format!("{detail}; leaked in-doubt transactions");
            }
            let clean = drained && exited_zero && no_leak;
            // Unclean exits name the instance in the detail itself: callers
            // routinely collect `detail`s from every member into one error
            // string, where "drain failed" without an index is useless.
            if !clean {
                detail = format!("instance {i}: {}", detail.trim_start_matches("; "));
            }
            // A cleanly drained child unlinks its own socket file; a killed
            // one cannot, so the parent (which chose the path) sweeps up.
            remove_uds_file(&endpoint);
            reports.push(InstanceExit {
                index: i,
                clean,
                stats,
                detail: detail.trim_start_matches("; ").to_string(),
            });
        }
        reports
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        // Anything shutdown() did not reap dies here: no orphan processes,
        // no stale socket files.
        for m in &self.members {
            let mut c = lock_clean(&m.child);
            let _ = c.kill();
            let _ = c.wait();
            remove_uds_file(&lock_clean(&m.endpoint));
        }
        // The resolver field drops after this body: children are dead by
        // then, so nothing is left mid-query.
    }
}

/// The mutexes in this module guard a `Child`, a `BufReader`, or the
/// decision map — state that stays consistent across a holder's panic
/// (kill/wait/read/insert are self-contained) — so recover the guard from
/// poisoning instead of cascading the panic into cleanup paths like `Drop`.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Same recovery for consuming the mutex at shutdown.
fn unwrap_clean<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn remove_uds_file(endpoint: &Endpoint) {
    if let Endpoint::Uds(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
}

fn wait_with_timeout(child: &mut Child, timeout: Duration) -> io::Result<std::process::ExitStatus> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status);
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "instance did not exit after drain",
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Start one instance child (optionally wrapped in `taskset -c cpus`) with
/// its stdout piped for the READY/STATS protocol.
fn spawn_child(
    exe: &Path,
    cpus: Option<&str>,
    args: &[String],
) -> io::Result<(Child, BufReader<ChildStdout>)> {
    let mut cmd = match cpus {
        Some(cpus) => {
            let mut c = Command::new("taskset");
            c.arg("-c").arg(cpus).arg(exe);
            c
        }
        None => Command::new(exe),
    };
    cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped());
    let mut child = cmd.spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| io::Error::other("child stdout was not piped"))?;
    Ok((child, BufReader::new(stdout)))
}

/// Block until the child prints its `READY <endpoint>` handshake line (or
/// dies, which surfaces its exit status).
fn read_ready(stdout: &mut BufReader<ChildStdout>, child: &mut Child) -> io::Result<Endpoint> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            let status = child
                .try_wait()?
                .map(|s| format!("exited {s}"))
                .unwrap_or_else(|| "stdout closed".into());
            return Err(io::Error::other(status));
        }
        if let Some(spec) = line.trim_end().strip_prefix("READY ") {
            return Endpoint::parse(spec).map_err(io::Error::other);
        }
    }
}

fn taskset_available() -> bool {
    Command::new("taskset")
        .arg("-V")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Island-style cpu lists for `n` instances on the detected host (see
/// [`islands_hwtopo::island_cpu_lists`], which the granularity sweep shares).
fn island_pin_sets(n: usize) -> Vec<Option<String>> {
    let topo = HostTopology::detect();
    island_cpu_lists(&topo, n).into_iter().map(Some).collect()
}

/// Outcome of one request submitted through a [`DeployClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeployOutcome {
    pub committed: bool,
    /// Whether the request ran wire-level 2PC across instances.
    pub distributed: bool,
    /// Coordinator-side retry rounds (2PC aborts re-attempted).
    pub retries: u32,
    /// The abort was presumed after a participant failure rather than
    /// decided by votes.
    pub presumed_abort: bool,
}

/// What came back for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployReply {
    Outcome(DeployOutcome),
    /// A participant rejected the request as malformed/unsatisfiable.
    ServerError(String),
    /// The single owning instance is unreachable.
    InstanceDown(usize),
}

/// One coordinator: a connection to every instance plus the 2PC driver.
///
/// A 2PC submit returns when its `Decision` frames are written; the `Ack`s
/// are read by the next exchange on each link (any submit, an audit), or on
/// drop. Until then a *different* connection scraping a participant — an
/// [`audit_total`](Self::audit_total) from another client, a `Stats` probe
/// — can observe it a decision behind. Transactions cannot: on any
/// connection they wait (locked engine) or abort and retry (serial) behind
/// the parked branch until the decision, already in the socket, is applied.
pub struct DeployClient {
    deploy: Arc<Deployment>,
    conns: Vec<Option<Client>>,
    /// The acks each connection is still owed (dropped with it).
    debt: AckDebt,
}

/// Total reconnect budget per [`DeployClient::conn`] call — long enough to
/// ride out an instance respawn, short enough that a permanently dead
/// instance still surfaces as [`DeployReply::InstanceDown`] promptly.
const RECONNECT_BUDGET: Duration = Duration::from_secs(1);

impl DeployClient {
    fn conn(&mut self, i: usize) -> io::Result<&mut Client> {
        if self.conns[i].is_none() {
            // Reconnect with backoff: a raced submit that lands while
            // instance `i` restarts rides out the respawn instead of
            // failing on the first refused connect.
            self.conns[i] = Some(Client::connect_with_retry(
                &self.deploy.endpoint(i),
                RECONNECT_BUDGET,
            )?);
        }
        self.conns[i]
            .as_mut()
            .ok_or_else(|| io::Error::other("connection slot empty after connect"))
    }

    /// Route one micro batch: lowered onto the plan path, like every other
    /// entry point that still accepts one.
    pub fn submit(&mut self, req: &TxnRequest) -> io::Result<DeployReply> {
        self.submit_plan(&req.to_plan())
    }

    /// Route one plan: if every step lives on one instance it goes straight
    /// to the owner as a `SubmitPlan` frame; a plan spanning instances (a
    /// multisite micro batch, a remote-warehouse Payment) runs wire-level
    /// 2PC with this client as coordinator.
    pub fn submit_plan(&mut self, plan: &PlanRequest) -> io::Result<DeployReply> {
        let deploy = Arc::clone(&self.deploy);
        deploy.coord.submit(self, plan, deploy.retry_limit)
    }

    /// Deployment-wide audit sum: every instance's committed-row-write total
    /// added up. The consistency check a TPC-C run ends with — the total
    /// must equal the sum of `write_rows()` over every committed plan (both
    /// branches of a committed remote Payment included). Each instance's
    /// scrape rides behind whatever acks its link owes, so the sum covers
    /// every transaction this client has been answered for.
    pub fn audit_total(&mut self) -> io::Result<u64> {
        let mut sum = 0u64;
        for i in 0..self.deploy.instances() {
            match self.exchange(i, &Request::Audit)? {
                Reply::AuditSum { sum: part } => sum += part,
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected AuditSum, instance {i} sent {other:?}"),
                    ))
                }
            }
        }
        Ok(sum)
    }
}

impl Drop for DeployClient {
    /// Read the acks still owed before the sockets close, so that whoever
    /// connects next finds every decision this client's callers were told
    /// about applied. A link that cannot pay is dropped like any other.
    fn drop(&mut self) {
        self.settle_all(self.conns.len());
    }
}

impl TwoPcLink for DeployClient {
    fn send(&mut self, to: usize, frame: &Request) -> io::Result<()> {
        // Scripted fault injection hooks: the kill lands exactly between
        // protocol steps, so the drill hits the same in-doubt windows every
        // run instead of whenever a signal happens to land.
        match frame {
            Request::Prepare(_) | Request::PreparePlan(_) => {
                self.deploy.maybe_fire_fault(FaultPoint::PrePrepare, to);
            }
            Request::Decision { .. } => {
                self.deploy
                    .maybe_fire_fault(FaultPoint::PostPreparePreDecision, to);
            }
            _ => {}
        }
        let timeout = match frame {
            // Unlike a vote (one execution attempt), a submit may burn the
            // instance's whole retry × lock-wait budget before answering.
            Request::Submit(_) | Request::SubmitPlan(_) => Some(self.deploy.submit_timeout),
            // A scan of every table is not a vote: no deadline.
            Request::Audit => None,
            _ => Some(self.deploy.vote_timeout),
        };
        let conn = self.conn(to)?;
        conn.set_read_timeout(timeout)?;
        let sent = conn.send_request(frame);
        if sent.is_ok() && matches!(frame, Request::Decision { .. }) {
            self.deploy
                .maybe_fire_fault(FaultPoint::PostDecisionPreAck, to);
        }
        sent
    }

    fn recv_frame(&mut self, from: usize) -> io::Result<Reply> {
        self.conns[from]
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "participant dead"))?
            .recv_reply()
    }

    fn disconnect(&mut self, to: usize) {
        self.conns[to] = None;
    }

    fn force_commit(&mut self, gtid: u64) {
        // Write-through BEFORE any Decision frame leaves: recovery must
        // reach the same verdict the live protocol acted on.
        self.deploy.coord.decisions.force(gtid, true);
    }

    fn forget(&mut self, gtid: u64) {
        self.deploy.coord.decisions.forget(gtid);
    }

    fn debt(&mut self) -> &mut AckDebt {
        &mut self.debt
    }
}

/// Instance-child entry point: call this first thing in any binary that may
/// serve as a [`SpawnMode::SelfExec`] host. When the process was started
/// with [`INSTANCE_CHILD_FLAG`], it runs the instance server to completion
/// and exits; otherwise it returns immediately.
pub fn run_instance_child_if_requested() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some(INSTANCE_CHILD_FLAG) {
        std::process::exit(instance_child_main(args.collect()));
    }
}

/// Run one instance process from parsed-out child arguments; returns the
/// process exit code (0 clean, 2 = in-doubt leak, 1 = setup failure).
pub fn instance_child_main(args: Vec<String>) -> i32 {
    match run_instance(&args) {
        Ok(false) => 0,
        Ok(true) => {
            eprintln!("islands-instance: drained with in-doubt transactions leaked");
            2
        }
        Err(e) => {
            eprintln!("islands-instance: {e}");
            1
        }
    }
}

fn run_instance(args: &[String]) -> io::Result<bool> {
    let mut endpoint: Option<Endpoint> = None;
    let mut lo = 0u64;
    let mut hi = 0u64;
    let mut warehouses = 0u64;
    let mut w_lo = 0u64;
    let mut w_hi = 0u64;
    let mut row_size = 64usize;
    let mut retry_limit = 64u32;
    let mut lock_ms = 200u64;
    let mut single_threaded = false;
    let mut engine_mode = EngineMode::Locked;
    let mut stats_every_ms = 500u64;
    let mut obs = true;
    let mut wal: Option<PathBuf> = None;
    let mut coord: Option<Endpoint> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| io::Error::other(format!("{name} requires a value")))
        };
        let parse_err = |name: &str, v: &str| io::Error::other(format!("bad {name}: {v}"));
        match flag.as_str() {
            "--endpoint" => {
                let v = value("--endpoint")?;
                endpoint = Some(Endpoint::parse(v).map_err(io::Error::other)?);
            }
            "--lo" => {
                let v = value("--lo")?;
                lo = v.parse().map_err(|_| parse_err("--lo", v))?;
            }
            "--hi" => {
                let v = value("--hi")?;
                hi = v.parse().map_err(|_| parse_err("--hi", v))?;
            }
            "--warehouses" => {
                let v = value("--warehouses")?;
                warehouses = v.parse().map_err(|_| parse_err("--warehouses", v))?;
            }
            "--w-lo" => {
                let v = value("--w-lo")?;
                w_lo = v.parse().map_err(|_| parse_err("--w-lo", v))?;
            }
            "--w-hi" => {
                let v = value("--w-hi")?;
                w_hi = v.parse().map_err(|_| parse_err("--w-hi", v))?;
            }
            "--row-size" => {
                let v = value("--row-size")?;
                row_size = v.parse().map_err(|_| parse_err("--row-size", v))?;
            }
            "--retry-limit" => {
                let v = value("--retry-limit")?;
                retry_limit = v.parse().map_err(|_| parse_err("--retry-limit", v))?;
            }
            "--lock-ms" => {
                let v = value("--lock-ms")?;
                lock_ms = v.parse().map_err(|_| parse_err("--lock-ms", v))?;
            }
            "--single-threaded" => single_threaded = true,
            "--engine" => {
                let v = value("--engine")?;
                engine_mode = EngineMode::parse(v).map_err(io::Error::other)?;
            }
            "--wal" => wal = Some(PathBuf::from(value("--wal")?)),
            "--coord" => {
                let v = value("--coord")?;
                coord = Some(Endpoint::parse(v).map_err(io::Error::other)?);
            }
            "--stats-every-ms" => {
                let v = value("--stats-every-ms")?;
                stats_every_ms = v.parse().map_err(|_| parse_err("--stats-every-ms", v))?;
            }
            "--no-obs" => obs = false,
            other => return Err(io::Error::other(format!("unknown instance flag {other}"))),
        }
    }
    let endpoint = endpoint.ok_or_else(|| io::Error::other("--endpoint is required"))?;
    // The registry is process-global and this process *is* one instance, so
    // the gate is per-instance by construction.
    islands_obs::set_enabled(obs);

    // `--warehouses` switches the instance to TPC-C-lite mode: it loads
    // warehouses `[w_lo, w_hi)` (districts, customers, stock included) and
    // serves multi-step plans against them; `--lo/--hi` are the micro-table
    // row range otherwise.
    let tpcc = (warehouses > 0).then_some(TpccPartition {
        warehouses,
        w_lo,
        w_hi,
    });
    let partition = PartitionConfig {
        lo,
        hi,
        row_size,
        lock_timeout: Duration::from_millis(lock_ms),
        single_threaded,
        tpcc,
        wal,
        ..Default::default()
    };
    let backend = Backend::build(engine_mode, partition)
        .map_err(|e| io::Error::other(format!("{engine_mode} partition build failed: {e}")))?;
    let engine = backend.engine();
    let parked = || engine.recovered_gtids().map_err(io::Error::other);

    // Crash recovery rejoin, before READY: WAL replay parked any branch
    // that was prepared-but-undecided when the previous incarnation died.
    // Ask the coordinator's resolver for each verdict (presumed abort: an
    // unknown gtid answers abort). Without a reachable coordinator the
    // branches stay parked — never presume abort unilaterally; the leak is
    // then visible in the drain accounting below.
    let recovered = parked()?;
    if !recovered.is_empty() {
        match &coord {
            Some(coord) => {
                if let Err(e) = resolve_with_coordinator(coord, &recovered, engine) {
                    eprintln!(
                        "islands-instance: in-doubt resolution failed \
                         ({} branch(es) stay parked): {e}",
                        parked()?.len()
                    );
                }
            }
            None => eprintln!(
                "islands-instance: {} recovered in-doubt branch(es) but no \
                 --coord to resolve against; leaving them parked",
                recovered.len()
            ),
        }
    }

    let handle = Server::spawn_backend(
        backend,
        endpoint,
        ServerConfig {
            retry_limit,
            ..Default::default()
        },
    )?;

    // Readiness handshake: the parent parses this for the resolved endpoint
    // (TCP port 0 becomes a real port here).
    {
        let mut out = io::stdout().lock();
        writeln!(out, "READY {}", handle.endpoint())?;
        out.flush()?;
    }
    // Heartbeat printer: a mid-run observer (tail, a scraper that lost its
    // socket, the parent after a SIGKILL) gets counters without asking the
    // server anything. The probe is minted before `join` consumes the
    // handle; the channel doubles as the stop signal (dropping the sender
    // ends the recv_timeout loop).
    let heartbeat = (stats_every_ms > 0).then(|| {
        let probe = handle.probe();
        let period = Duration::from_millis(stats_every_ms);
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let printer = std::thread::spawn(move || {
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(period)
            {
                let mut out = io::stdout().lock();
                let _ = writeln!(out, "{}", format_stats(&probe.stats()));
                let _ = out.flush();
            }
        });
        (stop_tx, printer)
    });
    // The gauge started at the recovered branches the resolver never
    // settled, so those count as in-doubt leaks like session-parked ones.
    let stats = handle.join()?;
    if let Some((stop_tx, printer)) = heartbeat {
        drop(stop_tx);
        let _ = printer.join();
    }
    let mut out = io::stdout().lock();
    writeln!(out, "{}", format_stats(&stats))?;
    out.flush()?;
    Ok(stats.in_doubt != 0)
}

/// Ask the coordinator's resolver for each parked gtid's verdict and apply
/// it through a session of the engine's own — it prepared nothing, so
/// closing it rolls back nothing. Stops at the first failure, leaving the
/// remaining branches parked for a later attempt (or the drain leak check).
fn resolve_with_coordinator(
    coord: &Endpoint,
    gtids: &[u64],
    engine: &dyn Engine,
) -> io::Result<()> {
    let mut conn = Client::connect_with_retry(coord, Duration::from_secs(5))?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut session = engine.session(0);
    for &gtid in gtids {
        conn.send_request(&Request::ResolveGtid { gtid })?;
        let commit = match conn.recv_reply()? {
            Reply::Resolved { gtid: g, commit } if g == gtid => commit,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("resolver answered {other:?} for gtid {gtid}"),
                ))
            }
        };
        match session.decide(gtid, commit) {
            Ok(DecideOutcome::Applied | DecideOutcome::AbortNoop) => {}
            Ok(DecideOutcome::UnknownCommit) => {
                return Err(io::Error::other(format!(
                    "commit verdict for gtid {gtid} found no parked branch"
                )))
            }
            Ok(DecideOutcome::Failed(m)) => {
                return Err(io::Error::other(format!("resolving gtid {gtid}: {m}")))
            }
            Err(e) => return Err(io::Error::other(format!("resolving gtid {gtid}: {e}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_workload::OpKind;

    #[test]
    fn rows_fewer_than_instances_is_rejected_not_misrouted() {
        // Regression: routing used to clamp its divisor with `.max(1)` while
        // loading did not, so rows < instances routed keys to instances
        // whose loaded range was empty. The shape is rejected up front.
        let cfg = DeployConfig {
            instances: 8,
            total_rows: 4,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let err = match Deployment::spawn(&cfg) {
            Err(e) => e,
            Ok(_) => panic!("spawn must reject rows < instances"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn validate_accepts_the_default_and_rejects_degenerate_shapes() {
        assert!(DeployConfig::default().validate().is_ok());
        for cfg in [
            DeployConfig {
                instances: 0,
                ..Default::default()
            },
            DeployConfig {
                row_size: 0,
                ..Default::default()
            },
            DeployConfig {
                vote_timeout: Duration::from_millis(1),
                ..Default::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} must not validate");
        }
    }

    proptest::proptest! {
        /// Routing a lowered batch is routing the batch: the plan split the
        /// client uses yields the participant order and per-branch keys of
        /// the batch-shaped reference split, each branch being that
        /// reference branch's own lowering.
        #[test]
        fn plan_split_of_a_lowered_batch_matches_the_batch_split(
            n in 1usize..9,
            extra in 0u64..500,
            update in proptest::any::<bool>(),
            picks in proptest::collection::vec(proptest::any::<u64>(), 0..12),
        ) {
            let rows = n as u64 + extra;
            let req = TxnRequest {
                kind: if update { OpKind::Update } else { OpKind::Read },
                keys: picks.iter().map(|k| k % rows).collect(),
                multisite: true,
            };
            let (order, branches) = split_by_owner(&req, n, rows);
            let (plan_order, plan_branches) =
                split_plan_by_owner(&req.to_plan(), |_, key| even_owner(key, n, rows));
            proptest::prop_assert_eq!(&plan_order, &order);
            proptest::prop_assert_eq!(plan_branches.len(), branches.len());
            for (owner, branch) in &branches {
                proptest::prop_assert_eq!(&plan_branches[owner], &branch.to_plan());
            }
        }
    }

    #[test]
    fn split_preserves_first_touch_order_and_key_order() {
        let req = TxnRequest {
            kind: OpKind::Update,
            keys: vec![350, 10, 360, 120],
            multisite: true,
        };
        let (order, branches) = split_by_owner(&req, 4, 400);
        assert_eq!(order, vec![3, 0, 1]);
        assert_eq!(branches[&3].keys, vec![350, 360]);
        assert_eq!(branches[&0].keys, vec![10]);
        assert_eq!(branches[&1].keys, vec![120]);
        assert!(branches.values().all(|b| b.multisite));
        assert!(branches.values().all(|b| b.kind == OpKind::Update));
    }

    #[test]
    fn tpcc_deploy_config_validates_warehouse_shapes() {
        let ok = DeployConfig {
            instances: 2,
            workload: DeployWorkload::Tpcc { warehouses: 4 },
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
        let too_few = DeployConfig {
            instances: 8,
            workload: DeployWorkload::Tpcc { warehouses: 4 },
            ..Default::default()
        };
        assert!(too_few.validate().is_err());
    }

    #[test]
    fn stats_line_round_trips() {
        let stats = crate::server::ServerStats {
            connections: 0,
            requests: 0,
            commits: 10,
            aborts: 2,
            errors: 1,
            prepares: 7,
            decisions: 6,
            presumed_aborts: 1,
            in_doubt: 0,
        };
        let parsed = parse_stats(&format_stats(&stats)).unwrap();
        assert_eq!(
            parsed,
            InstanceStats {
                commits: 10,
                aborts: 2,
                errors: 1,
                prepares: 7,
                decisions: 6,
                presumed_aborts: 1,
                in_doubt: 0,
            }
        );
        assert_eq!(parse_stats("STATS commits=nope"), None);
        assert_eq!(parse_stats("nonsense"), None);
        // Heartbeats from a newer child may carry keys this parent has no
        // slot for; they are skipped, not fatal.
        let tolerant = parse_stats("STATS commits=3 p99_us=412 in_doubt=1").unwrap();
        assert_eq!(tolerant.commits, 3);
        assert_eq!(tolerant.in_doubt, 1);
    }

    #[test]
    fn pin_sets_cover_every_instance() {
        for n in [1, 2, 3, 8, 64] {
            let pins = island_pin_sets(n);
            assert_eq!(pins.len(), n);
            assert!(pins
                .iter()
                .all(|p| p.as_deref().is_some_and(|s| !s.is_empty())));
        }
    }

    #[test]
    fn fault_point_parse_round_trips_and_rejects_junk() {
        for point in [
            FaultPoint::PrePrepare,
            FaultPoint::PostPreparePreDecision,
            FaultPoint::PostDecisionPreAck,
        ] {
            assert_eq!(FaultPoint::parse(point.label()), Ok(point));
        }
        assert!(FaultPoint::parse("mid-prepare").is_err());
        assert!(FaultPoint::parse("").is_err());
    }
}
