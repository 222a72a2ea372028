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
//!   [`EngineMode`](crate::EngineMode), served over the wire protocol (a
//!   partition [`Backend`](crate::Backend)). Children are re-executions of
//!   the host binary ([`SpawnMode::SelfExec`]) or a dedicated
//!   `islands-instance` binary ([`SpawnMode::Binary`]).
//! * **Topology-pinned.** Instance `i` is pinned (via `taskset`, when
//!   available) to the cores `hwtopo`'s island placement assigns it on the
//!   *detected host* topology — the paper's "N islands" layout, not a
//!   simulated one.
//!
//! The module is split by job. `config` says what a deployment is and is the
//! one place it is lowered to partitions; `child` carries one partition
//! across `exec` and serves it; `client` is the coordinator's socket link —
//! one route, wire-level presumed-abort 2PC, under the router and driver in
//! `coordinator.rs` that the in-process [`Cluster`](crate::Cluster) runs over
//! direct calls; `fault` names the scripted kills. This file is the parent's
//! side of the processes: spawn, `READY`, kill, restart, drain. What it adds
//! to the protocol is the *live* half of "no in-doubt leak": no process
//! exits with in-doubt transactions still holding locks, which the instance
//! processes verify themselves at drain (nonzero exit + `in_doubt` count in
//! their final stats line) and [`Deployment::shutdown`] reports.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use islands_core::partition::split_plan_by_owner;
use islands_hwtopo::{island_cpu_lists, HostTopology};

mod child;
mod client;
mod config;
mod fault;

pub use child::{instance_child_main, run_instance_child_if_requested, INSTANCE_CHILD_FLAG};
pub use client::{split_by_owner, DeployClient, DeployOutcome, DeployReply};
pub use config::{DeployConfig, DeployWorkload, SpawnMode, Transport};
pub use fault::{FaultPlan, FaultPoint};

use crate::client::Client;
use crate::coordinator::{Coordination, DecisionStore, Resolver};
use crate::poll::Callers;
use crate::server::{Endpoint, ServerStats};
use child::ChildSpec;

/// How one instance process ended.
#[derive(Debug)]
pub struct InstanceExit {
    pub index: usize,
    /// Drained on request, exited zero, and reported zero in-doubt
    /// transactions.
    pub clean: bool,
    /// The last counters the instance printed: its drained totals, or — for
    /// one that was killed — its newest heartbeat.
    pub stats: Option<ServerStats>,
    /// Human-readable detail for unclean exits.
    pub detail: String,
}

/// One instance process, as its parent holds it.
struct Process {
    child: Child,
    /// Where the child said it listens, once it has.
    ready: mpsc::Receiver<Endpoint>,
    /// Reads the child's stdout to EOF as it is printed, so the pipe never
    /// fills: `READY` goes to `ready`, the last `STATS` record is returned.
    stdout: Option<JoinHandle<Option<ServerStats>>>,
}

impl Process {
    /// Start one instance child (optionally wrapped in `taskset -c cpus`)
    /// with its stdout piped for the READY/STATS protocol.
    fn start(exe: &Path, cpus: Option<&str>, args: &[String]) -> io::Result<Process> {
        let mut cmd = match cpus {
            Some(cpus) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(cpus).arg(exe);
                c
            }
            None => Command::new(exe),
        };
        cmd.arg(INSTANCE_CHILD_FLAG).args(args);
        let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
        let lines = child.stdout.take().map(BufReader::new);
        let lines = lines.ok_or_else(|| io::Error::other("child stdout was not piped"))?;
        let (ready_tx, ready) = mpsc::channel();
        let stdout = std::thread::Builder::new()
            .name("islands-child-stdout".into())
            .spawn(move || {
                let mut last = None;
                for line in lines.lines().map_while(Result::ok) {
                    match line.strip_prefix("READY ").map(Endpoint::parse) {
                        Some(Ok(endpoint)) => drop(ready_tx.send(endpoint)),
                        Some(Err(_)) => break,
                        None => last = ServerStats::from_line(&line).or(last),
                    }
                }
                last
            })?;
        Ok(Process {
            child,
            ready,
            stdout: Some(stdout),
        })
    }

    /// Block until the child prints `READY <endpoint>`, or dies without
    /// (which surfaces its exit status).
    fn ready(&mut self) -> io::Result<Endpoint> {
        self.ready.recv().map_err(|_| {
            io::Error::other(match self.child.try_wait() {
                Ok(Some(status)) => format!("exited {status}"),
                _ => "stdout closed".into(),
            })
        })
    }

    /// SIGKILL and reap. Idempotent: an exited child stays exited.
    fn kill(&mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }

    /// The last `STATS` record of a dead child (its stdout is at EOF).
    fn last_stats(&mut self) -> Option<ServerStats> {
        self.stdout.take()?.join().ok().flatten()
    }

    /// Wait for a drained child to exit by itself; past `timeout` it is
    /// killed and the wait reported as failed.
    fn wait(&mut self, timeout: Duration) -> io::Result<ExitStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                let _ = self.kill();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "instance did not exit after drain",
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

struct Member {
    endpoint: Mutex<Endpoint>,
    range: (u64, u64),
    cpus: Option<String>,
    /// Child argv ([`ChildSpec::to_args`]), kept verbatim so
    /// [`Deployment::restart_instance`] respawns the same instance — same
    /// key range, same WAL path, same pins.
    args: Vec<String>,
    process: Mutex<Process>,
}

impl Drop for Member {
    /// However a member goes — a failed spawn, a shutdown, a dropped
    /// deployment — its process is reaped, its reader joined and its socket
    /// file gone (a killed child cannot unlink its own).
    fn drop(&mut self) {
        let process = get_clean(&mut self.process);
        let _ = process.kill();
        process.last_stats();
        remove_uds_file(get_clean(&mut self.endpoint));
    }
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
    /// only). Declared after `members`, so it outlives the children.
    resolver: Option<Resolver>,
    /// A scripted fault waiting to fire (see [`FaultPlan`]).
    fault: Mutex<Option<FaultPlan>>,
    faults_fired: AtomicU64,
    /// The live [`DeployClient`]s: the callers whose reply waits the poll
    /// rule weighs in this process.
    callers: Arc<Callers>,
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
        let pinned = cfg.pin && taskset_available();
        let pins = if pinned {
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
        let pid = std::process::id();

        // Durable half: the coordinator's decision log and its resolver
        // socket come up before any child spawns, so a child that restarts
        // into recovery always finds someone to ask.
        if let Some(dir) = &cfg.wal_dir {
            std::fs::create_dir_all(dir)?;
        }
        let decisions = Arc::new(DecisionStore::open(cfg.wal_dir.as_deref())?);
        let resolver = match &cfg.wal_dir {
            Some(_) => Some(Resolver::spawn(
                socket_dir.join(format!("islands-coord-{pid}-{seq}.sock")),
                Arc::clone(&decisions),
            )?),
            None => None,
        };
        let coord_endpoint = resolver.as_ref().map(|r| r.endpoint.clone());

        // Children bind and load in parallel; a `?` out of either loop
        // drops the members spawned so far, which kills them.
        let mut members = Vec::with_capacity(cfg.instances);
        for (i, cpus) in pins.into_iter().enumerate() {
            let listen = match cfg.transport {
                Transport::Uds => {
                    Endpoint::Uds(socket_dir.join(format!("islands-inst-{pid}-{seq}-{i}.sock")))
                }
                Transport::Tcp => Endpoint::Tcp(([127, 0, 0, 1], 0).into()),
            };
            let spec = ChildSpec::of(cfg, i, listen.clone(), coord_endpoint.clone());
            let args = spec.to_args();
            let process = Process::start(&exe, cpus.as_deref(), &args)
                .map_err(|e| io::Error::other(format!("spawn instance {i}: {e}")))?;
            members.push(Member {
                // Where it was told to listen, until READY says where it does.
                endpoint: Mutex::new(listen),
                range: match &spec.partition.tpcc {
                    Some(t) => (t.w_lo, t.w_hi),
                    None => (spec.partition.lo, spec.partition.hi),
                },
                cpus,
                args,
                process: Mutex::new(process),
            });
        }
        for (i, member) in members.iter_mut().enumerate() {
            let endpoint = get_clean(&mut member.process)
                .ready()
                .map_err(|e| io::Error::other(format!("instance {i} never became ready: {e}")))?;
            *get_clean(&mut member.endpoint) = endpoint;
        }
        Ok(Deployment {
            members,
            exe,
            retry_limit: cfg.retry_limit,
            vote_timeout: cfg.vote_timeout,
            submit_timeout: cfg.vote_timeout + cfg.lock_timeout * (cfg.retry_limit + 1),
            pinned,
            coord: Coordination::new(cfg.sites(), decisions),
            resolver,
            fault: Mutex::new(None),
            faults_fired: AtomicU64::new(0),
            callers: Arc::default(),
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

    /// What instance `i` owns: its key range, or (TPC-C) its warehouse
    /// range.
    pub fn range(&self, i: usize) -> (u64, u64) {
        self.members[i].range
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

    /// Kill `to` if the armed fault is a frame for it at `point`; counted
    /// once the victim is dead.
    fn maybe_fire_fault(&self, point: FaultPoint, to: usize) {
        let fire = {
            let mut armed = lock_clean(&self.fault);
            let hit = *armed == Some(FaultPlan { point, victim: to });
            if hit {
                *armed = None;
            }
            hit
        };
        if fire {
            let _ = self.kill_instance(to);
            self.faults_fired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Open one coordinator connection set (one socket per instance).
    /// Each client thread should hold its own. While the live clients do
    /// not outnumber the host's cpus, each polls its socket briefly for a
    /// reply before it sleeps on it.
    pub fn client(self: &Arc<Self>) -> io::Result<DeployClient> {
        DeployClient::connect(self)
    }

    /// [`DeployClient`]s of this deployment not yet dropped.
    pub fn live_clients(&self) -> usize {
        self.callers.live()
    }

    /// SIGKILL instance `i` (no drain, no cleanup) — the fault injector's
    /// hammer, also usable directly from tests to exercise the
    /// presumed-abort paths.
    pub fn kill_instance(&self, i: usize) -> io::Result<()> {
        lock_clean(&self.members[i].process).kill()
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
        let mut process = lock_clean(&m.process);
        // Make sure the old incarnation is dead and reaped before its
        // replacement binds (idempotent after kill_instance).
        let _ = process.kill();
        process.last_stats();
        remove_uds_file(&lock_clean(&m.endpoint));
        *process = Process::start(&self.exe, m.cpus.as_deref(), &m.args)?;
        match process.ready() {
            Ok(endpoint) => {
                *lock_clean(&m.endpoint) = endpoint;
                Ok(())
            }
            Err(e) => {
                let _ = process.kill();
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
        for (i, mut member) in members.into_iter().enumerate() {
            // Everything wrong with this exit, in words; nothing is "clean".
            let mut faults: Vec<String> = Vec::new();
            let endpoint = get_clean(&mut member.endpoint).clone();
            if let Err(e) = Client::connect(&endpoint).and_then(|mut c| c.drain_server()) {
                faults.push(format!("drain failed: {e}"));
            }
            let process = get_clean(&mut member.process);
            let status = process.wait(Duration::from_secs(10));
            if let Err(e) = &status {
                faults.push(format!("wait failed: {e}"));
            }
            if !status.as_ref().is_ok_and(|s| s.success()) {
                faults.push(format!("exit status {:?}", status.ok()));
            }
            // A drained child's last line carries its totals; a killed
            // one's newest heartbeat is the best estimate there is.
            let stats = process.last_stats();
            match stats {
                None => faults.push("no STATS line".into()),
                Some(s) if s.in_doubt != 0 => faults.push("leaked in-doubt transactions".into()),
                Some(_) => {}
            }
            reports.push(InstanceExit {
                index: i,
                clean: faults.is_empty(),
                stats,
                // Names the instance: callers collect `detail`s from every
                // member into one error string.
                detail: match faults.is_empty() {
                    true => String::new(),
                    false => format!("instance {i}: {}", faults.join("; ")),
                },
            });
        }
        reports
    }
}

/// The mutexes in this module guard a `Process`, an `Endpoint`, a fault
/// plan, or the decision map — state that stays consistent across a
/// holder's panic (kill/wait/read/insert are self-contained) — so recover
/// the guard from poisoning instead of cascading the panic into cleanup
/// paths like `Drop`.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Same recovery for an owner that needs no lock.
fn get_clean<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(|e| e.into_inner())
}

fn remove_uds_file(endpoint: &Endpoint) {
    if let Endpoint::Uds(path) = endpoint {
        let _ = std::fs::remove_file(path);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_invalid_config_is_refused_before_anything_spawns() {
        let cfg = DeployConfig {
            instances: 8,
            total_rows: 4,
            ..Default::default()
        };
        let err = match Deployment::spawn(&cfg) {
            Err(e) => e,
            Ok(_) => panic!("spawn must reject rows < instances"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
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
}
