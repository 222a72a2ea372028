//! Reusable load-driving engine for served islands deployments.
//!
//! `islands-sweep` drives every cell of the paper's granularity × multisite
//! × skew cross-product through this module: spawn one thread per client,
//! each its own coordinator over the deployment (or one connection to an
//! external server), submit open- or closed-loop plans from a
//! [`MicroGenerator`] or [`TpccGenerator`], tally outcomes **per
//! transaction class** (local vs multisite — the paper's served comparisons
//! hinge on how the multisite class degrades while the local class holds)
//! and the row writes of every committed plan, and verify teardown (every
//! instance drained clean, zero in-doubt 2PC leaks). It is the one closed
//! loop over a deployment: the in-process [`Cluster`] is driven here too,
//! one [`ClusterClient`](islands_server::ClusterClient) per worker thread.
//!
//! **The audit identity.** [`drive`] reads the target's audit sum (the row
//! writes its instances applied) before the first request and after the
//! last worker is joined, and reports the difference as
//! [`DriveResult::audit_delta`]. On a correct deployment it equals
//! [`DriveResult::committed_writes`]: no committed write lost, no aborted
//! one applied. An external server ([`DriveTarget::Endpoint`]) is read the
//! same way, so writes other clients made there during the run read as a
//! broken identity: this run cannot vouch for them.
//!
//! **One verdict.** [`DriveResult::faults`] and [`TeardownReport::faults`]
//! are the rules every driven run is judged by, in words; a run is clean
//! when both are empty.
//!
//! **Retries.** [`ClassTally::aborted`] counts transactions that finally
//! aborted; [`ClassTally::retries`] counts the abort-and-retry rounds the
//! coordinator spent on every transaction, committed or not.
//!
//! Closed loop (default): each client submits its next transaction the
//! moment the previous reply arrives — offered load tracks capacity. Open
//! loop ([`DriveConfig::open_rate`]): clients submit on a fixed aggregate
//! schedule and latency is measured from the *scheduled* send time, so
//! queueing delay when the server falls behind is charged to the server
//! (no coordinated omission).

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_server::{
    Client, Cluster, DeployClient, DeployOutcome, DeployReply, Deployment, Endpoint, InstanceExit,
    Reply,
};
use islands_workload::{
    MicroGenerator, MicroSpec, PlanClass, PlanRequest, TpccGenerator, TpccSpec,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The request stream a run drives: the micro-benchmark's single-shot
/// read/update batches, or TPC-C's multi-step transactions (NewOrder and
/// Payment, remote payments as wire-level 2PC). Both reach the wire as
/// [`PlanRequest`]s.
#[derive(Debug, Clone)]
pub enum DriveWorkload {
    /// Single-shot micro-benchmark batches, lowered with `to_plan()`.
    Micro(MicroSpec),
    /// TPC-C NewOrder/Payment plans; the multisite axis is the
    /// remote-payment probability.
    Tpcc(TpccSpec),
}

/// One load-generation run: how many clients, for how long, over which
/// workload.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Concurrent client connections (threads).
    pub clients: usize,
    /// Measured duration in seconds.
    pub secs: f64,
    /// Open-loop aggregate arrival rate in txn/s; `None` is closed loop.
    pub open_rate: Option<f64>,
    /// The workload each client generates.
    pub workload: DriveWorkload,
    /// Logical sites for micro request generation — the finest-grained
    /// partitioning under comparison, so every deployment granularity sees
    /// the *same* request stream (the paper uses one logical site per
    /// core-sized instance). TPC-C ignores it: warehouses are the sites.
    pub n_sites: u64,
    /// Base RNG seed; client `i` derives its own stream from it.
    pub seed: u64,
}

impl DriveConfig {
    /// A closed-loop run of `clients` clients for `secs` seconds.
    pub fn closed(clients: usize, secs: f64, workload: DriveWorkload, n_sites: u64) -> Self {
        DriveConfig {
            clients,
            secs,
            open_rate: None,
            workload,
            n_sites,
            seed: 0x1517_ab1e,
        }
    }
}

/// What a run drives: a deployment each client coordinates 2PC over —
/// spawned instance processes, or the same instances in this process — or
/// a single external server.
pub enum DriveTarget<'a> {
    Deployment(&'a Arc<Deployment>),
    Cluster(&'a Cluster),
    Endpoint(&'a Endpoint),
}

impl DriveTarget<'_> {
    /// The target's audit sum: every instance's, added up.
    fn audit(&self) -> Result<u64, String> {
        match self {
            DriveTarget::Deployment(d) => d
                .client()
                .and_then(|mut c| c.audit_total())
                .map_err(|e| e.to_string()),
            DriveTarget::Cluster(cluster) => cluster.audit_sum().map_err(|e| e.to_string()),
            DriveTarget::Endpoint(ep) => connect(ep)
                .and_then(|mut c| c.audit())
                .map_err(|e| e.to_string()),
        }
        .map_err(|e| format!("audit: {e}"))
    }
}

/// Tallies for one transaction class (local or multisite).
#[derive(Debug, Default, Clone)]
pub struct ClassTally {
    pub committed: u64,
    pub aborted: u64,
    pub errors: u64,
    pub distributed: u64,
    pub presumed_aborts: u64,
    /// Abort-and-retry rounds ([`DeployOutcome::retries`]) summed over
    /// every transaction that got an outcome.
    pub retries: u64,
    /// `write_rows()` summed over the committed plans: what the
    /// deployment's audit sum must have grown by.
    pub committed_writes: u64,
    /// End-to-end latency per completed request, microseconds.
    pub latencies_us: Vec<u64>,
}

impl ClassTally {
    pub fn absorb(&mut self, other: ClassTally) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.errors += other.errors;
        self.distributed += other.distributed;
        self.presumed_aborts += other.presumed_aborts;
        self.retries += other.retries;
        self.committed_writes += other.committed_writes;
        self.latencies_us.extend(other.latencies_us);
    }

    /// Requests of any outcome in this class.
    pub fn total(&self) -> u64 {
        self.committed + self.aborted + self.errors
    }

    /// Rank-`p` percentile of this class's latencies, microseconds.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        percentile(&sorted, p)
    }
}

/// Per-client tallies, split by class.
///
/// Micro runs fill `local`/`multi` directly. TPC-C runs fill the three
/// TPC-C class tallies; [`drive`] then folds them into `local`/`multi`
/// (NewOrder and local Payment are local, remote Payment is multisite) so
/// every consumer of the generic split keeps working.
#[derive(Debug, Default)]
pub struct ClientResult {
    pub local: ClassTally,
    pub multi: ClassTally,
    pub neworder: ClassTally,
    pub payment_local: ClassTally,
    pub payment_multisite: ClassTally,
}

/// Aggregated outcome of one [`drive`] run.
///
/// `local`/`multi` always hold the full per-class split (for TPC-C they are
/// the fold of the three TPC-C tallies, which stay populated alongside).
#[derive(Debug, Default)]
pub struct DriveResult {
    pub local: ClassTally,
    pub multi: ClassTally,
    /// TPC-C NewOrder transactions (always single-site). Empty in micro runs.
    pub neworder: ClassTally,
    /// TPC-C Payments whose customer is at the home warehouse.
    pub payment_local: ClassTally,
    /// TPC-C Payments through a remote warehouse — the paper's multisite
    /// class, executed as wire-level 2PC in proc deployments.
    pub payment_multisite: ClassTally,
    pub elapsed: Duration,
    /// Client threads that failed or panicked (any nonzero is a run error).
    pub client_failures: u64,
    /// How far the target's audit sum moved over the run; equal to
    /// [`committed_writes`](Self::committed_writes) on a correct one.
    pub audit_delta: u64,
}

impl DriveResult {
    pub fn committed(&self) -> u64 {
        self.local.committed + self.multi.committed
    }

    /// Row writes of every committed plan (the audit identity's right side).
    pub fn committed_writes(&self) -> u64 {
        self.local.committed_writes + self.multi.committed_writes
    }

    pub fn throughput_tps(&self) -> f64 {
        self.committed() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Everything that makes the run unclean, in words; empty is clean.
    pub fn faults(&self) -> Vec<String> {
        let mut faults = Vec::new();
        if self.committed() == 0 {
            faults.push("zero committed transactions".to_string());
        }
        if self.client_failures > 0 {
            faults.push(format!("{} client(s) failed", self.client_failures));
        }
        let errors = self.local.errors + self.multi.errors;
        if errors > 0 {
            faults.push(format!("{errors} request(s) answered with an error"));
        }
        if self.audit_delta != self.committed_writes() {
            faults.push(format!(
                "audit sum moved by {} but committed plans wrote {} rows",
                self.audit_delta,
                self.committed_writes()
            ));
        }
        faults
    }
}

/// Rank-`p` percentile of an ascending-sorted latency slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A client's connection, opened before the run starts.
enum Submitter {
    /// One wire connection to a single external server.
    Wire(Client),
    /// Coordinator over a multi-process deployment.
    Proc(DeployClient),
}

/// A single server's reply in the coordinator's terms. A server fronts one
/// partition, so a commit it reports is never distributed.
fn wire_reply(reply: Reply) -> io::Result<DeployReply> {
    let outcome = |committed, retries| {
        DeployReply::Outcome(DeployOutcome {
            committed,
            distributed: false,
            retries,
            presumed_abort: false,
        })
    };
    match reply {
        Reply::Committed { retries, .. } => Ok(outcome(true, retries)),
        Reply::Aborted { retries } => Ok(outcome(false, retries)),
        Reply::Error { message } => Ok(DeployReply::ServerError(message)),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply {other:?}"),
        )),
    }
}

impl Submitter {
    fn submit_plan(&mut self, plan: &PlanRequest) -> io::Result<DeployReply> {
        match self {
            Submitter::Wire(client) => wire_reply(client.submit_plan(plan)?),
            Submitter::Proc(client) => client.submit_plan(plan),
        }
    }
}

/// Per-client request generator, one variant per [`DriveWorkload`].
enum Generator {
    Micro(MicroGenerator),
    Tpcc(TpccGenerator),
}

fn drive_client(
    id: usize,
    mut submit: impl FnMut(&PlanRequest) -> io::Result<DeployReply>,
    cfg: &DriveConfig,
    deadline: Instant,
) -> io::Result<ClientResult> {
    let mut gen = match &cfg.workload {
        DriveWorkload::Micro(spec) => {
            Generator::Micro(MicroGenerator::new(spec.clone(), cfg.n_sites))
        }
        // The client id doubles as the TPC-C insert-key tag, so history and
        // order keys never collide across concurrent clients.
        DriveWorkload::Tpcc(spec) => Generator::Tpcc(TpccGenerator::new(*spec, id as u64)),
    };
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (id as u64) << 17);
    let mut result = ClientResult::default();

    // Open loop: this client owns a 1/clients share of the aggregate rate.
    let interval = cfg
        .open_rate
        .map(|rate| Duration::from_secs_f64(cfg.clients as f64 / rate));
    let mut next_due = Instant::now();

    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let measured_from = match interval {
            None => now, // closed loop: service time is the latency
            Some(gap) => {
                // Open loop: wait for the schedule, then charge latency from
                // the scheduled instant even if we are running behind.
                if next_due > now {
                    std::thread::sleep(next_due - now);
                }
                let due = next_due;
                next_due += gap;
                if due >= deadline {
                    break;
                }
                due
            }
        };
        let plan = match &mut gen {
            Generator::Micro(g) => g.next(&mut rng).to_plan(),
            Generator::Tpcc(g) => g.next(&mut rng),
        };
        let reply = submit(&plan)?;
        let tally = match (plan.class, plan.multisite) {
            (PlanClass::Generic, false) => &mut result.local,
            (PlanClass::Generic, true) => &mut result.multi,
            (PlanClass::NewOrder, _) => &mut result.neworder,
            (PlanClass::Payment, false) => &mut result.payment_local,
            (PlanClass::Payment, true) => &mut result.payment_multisite,
        };
        if let DeployReply::Outcome(o) = &reply {
            tally.retries += o.retries as u64;
        }
        match reply {
            DeployReply::Outcome(o) if o.committed => {
                tally.committed += 1;
                tally.distributed += o.distributed as u64;
                tally.committed_writes += plan.write_rows();
            }
            DeployReply::Outcome(o) => {
                tally.aborted += 1;
                tally.presumed_aborts += o.presumed_abort as u64;
            }
            DeployReply::ServerError(message) => {
                tally.errors += 1;
                eprintln!("client {id}: server error: {message}");
            }
            DeployReply::InstanceDown(i) => {
                tally.errors += 1;
                eprintln!("client {id}: instance {i} unreachable");
            }
        }
        tally
            .latencies_us
            .push(measured_from.elapsed().as_micros() as u64);
    }
    Ok(result)
}

/// Drive `target` with `cfg.clients` concurrent clients, aggregate the
/// per-class tallies and measure how far the audit sum moved.
///
/// Every socket client connects **before** any worker thread spawns, so a
/// refused connect fails the run before any load is offered. A cluster
/// client's engine sessions stay on the thread that opened them, so each
/// worker mints its own. Workers are scoped: none outlives the call, and a
/// worker panic is tallied in [`DriveResult::client_failures`], never
/// unwound past a live deployment.
pub fn drive(target: &DriveTarget<'_>, cfg: &DriveConfig) -> Result<DriveResult, String> {
    if matches!(cfg.workload, DriveWorkload::Tpcc(_)) && cfg.clients > 256 {
        return Err(format!(
            "tpcc supports at most 256 clients (client ids tag insert keys), got {}",
            cfg.clients
        ));
    }
    let audit_before = target.audit()?;
    let mut sockets = Vec::with_capacity(cfg.clients);
    for id in 0..cfg.clients {
        let refused = |e| format!("connect client {id}: {e}");
        match target {
            DriveTarget::Deployment(d) => {
                sockets.push(Submitter::Proc(d.client().map_err(refused)?))
            }
            DriveTarget::Endpoint(ep) => {
                sockets.push(Submitter::Wire(connect(ep).map_err(refused)?))
            }
            DriveTarget::Cluster(_) => {}
        }
    }

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.secs);
    let mut result = DriveResult::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = match target {
            DriveTarget::Cluster(cluster) => (0..cfg.clients)
                .map(|id| {
                    scope.spawn(move || {
                        let mut client = cluster.client();
                        drive_client(id, |plan| client.submit_plan(plan), cfg, deadline)
                    })
                })
                .collect(),
            _ => sockets
                .into_iter()
                .enumerate()
                .map(|(id, mut socket)| {
                    scope.spawn(move || {
                        drive_client(id, |plan| socket.submit_plan(plan), cfg, deadline)
                    })
                })
                .collect(),
        };
        for w in workers {
            match w.join() {
                Ok(Ok(r)) => {
                    result.local.absorb(r.local);
                    result.multi.absorb(r.multi);
                    result.neworder.absorb(r.neworder);
                    result.payment_local.absorb(r.payment_local);
                    result.payment_multisite.absorb(r.payment_multisite);
                }
                Ok(Err(e)) => {
                    result.client_failures += 1;
                    eprintln!("client connection failed: {e}");
                }
                Err(_) => {
                    result.client_failures += 1;
                    eprintln!("client thread panicked");
                }
            }
        }
    });
    // Fold the TPC-C classes into the generic local/multisite split so the
    // reporting shared with micro runs (tables, gates) keeps working:
    // NewOrder and local Payment are single-site, remote Payment is the
    // multisite class.
    let (no, pl, pm) = (
        result.neworder.clone(),
        result.payment_local.clone(),
        result.payment_multisite.clone(),
    );
    result.local.absorb(no);
    result.local.absorb(pl);
    result.multi.absorb(pm);
    result.elapsed = started.elapsed();
    // Every worker is joined and its client dropped, so every decision a
    // caller was told about has been applied.
    result.audit_delta = target.audit()?.wrapping_sub(audit_before);
    Ok(result)
}

/// One connection to an external server, which may still be coming up.
fn connect(ep: &Endpoint) -> io::Result<Client> {
    Client::connect_with_retry(ep, Duration::from_secs(2))
}

/// How a cell's instances ended, aggregated.
#[derive(Debug)]
pub struct TeardownReport {
    pub instances: Vec<InstanceExit>,
    /// Instances that failed to drain, exited nonzero, or lost their stats.
    pub unclean: u64,
    /// In-doubt transactions leaked across all instances (must be zero).
    pub in_doubt_leaks: u64,
}

impl TeardownReport {
    /// Aggregate the exits a teardown produced
    /// ([`Deployment::shutdown`]'s, or an in-process cluster's equivalent).
    pub fn of(instances: Vec<InstanceExit>) -> TeardownReport {
        let unclean = instances.iter().filter(|r| !r.clean).count() as u64;
        let in_doubt_leaks = instances
            .iter()
            .map(|r| r.stats.map(|s| s.in_doubt).unwrap_or(0))
            .sum();
        TeardownReport {
            instances,
            unclean,
            in_doubt_leaks,
        }
    }

    /// Every way the instances ended badly, in words; empty is clean.
    pub fn faults(&self) -> Vec<String> {
        let mut faults: Vec<String> = self
            .instances
            .iter()
            .filter(|r| !r.clean)
            .map(|r| format!("instance {} unclean: {}", r.index, r.detail))
            .collect();
        if self.in_doubt_leaks > 0 {
            faults.push(format!(
                "{} in-doubt transaction(s) leaked",
                self.in_doubt_leaks
            ));
        }
        faults
    }
}

/// One class's tallies as a JSON object (the `islands-sweep/1` class shape).
pub fn class_json(tally: &ClassTally, elapsed: Duration) -> String {
    // Sort a copy: correctness here must not depend on any report having
    // sorted the live tally first.
    let mut sorted = tally.latencies_us.clone();
    sorted.sort_unstable();
    let n = sorted.len();
    let mean = if n > 0 {
        sorted.iter().sum::<u64>() as f64 / n as f64
    } else {
        0.0
    };
    format!(
        "{{\"committed\":{},\"aborted\":{},\"errors\":{},\"distributed\":{},\
         \"presumed_aborts\":{},\"retries\":{},\"throughput_tps\":{:.1},\"p50_us\":{},\"p95_us\":{},\
         \"p99_us\":{},\"max_us\":{},\"mean_us\":{:.1},\"samples\":{}}}",
        tally.committed,
        tally.aborted,
        tally.errors,
        tally.distributed,
        tally.presumed_aborts,
        tally.retries,
        tally.committed as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        percentile(&sorted, 50.0),
        percentile(&sorted, 95.0),
        percentile(&sorted, 99.0),
        sorted.last().copied().unwrap_or(0),
        mean,
        n,
    )
}

/// One instance's exit report as a JSON object.
pub fn instance_json(r: &InstanceExit) -> String {
    let s = r.stats.unwrap_or_default();
    format!(
        "{{\"index\":{},\"clean\":{},\"commits\":{},\"aborts\":{},\"errors\":{},\
         \"prepares\":{},\"decisions\":{},\"presumed_aborts\":{},\"in_doubt\":{}}}",
        r.index,
        r.clean,
        s.commits,
        s.aborts,
        s.errors,
        s.prepares,
        s.decisions,
        s.presumed_aborts,
        s.in_doubt,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_core::native::PartitionEngine;
    use islands_server::{Backend, DeployConfig, EngineMode, Server, ServerConfig};
    use islands_workload::OpKind;

    /// One closed-loop drive of a cluster: its shape, and the 2-or-more-row
    /// updates its clients send.
    struct Case {
        engine: EngineMode,
        instances: usize,
        clients: usize,
        spec: MicroSpec,
    }

    fn updates(total_rows: u64, rows_per_txn: usize, multisite_pct: f64) -> MicroSpec {
        MicroSpec {
            total_rows,
            ..MicroSpec::new(OpKind::Update, rows_per_txn, multisite_pct)
        }
    }

    #[test]
    fn a_cluster_target_runs_clean_and_its_audit_moves_by_the_committed_writes() {
        let mut cases = Vec::new();
        for engine in [EngineMode::Locked, EngineMode::Serial] {
            let case = |instances, clients, spec| Case {
                engine,
                instances,
                clients,
                spec,
            };
            // The two ends of the multisite axis; a local and cross-instance
            // mix over 4 instances; 3-row updates, every one distributed.
            cases.push(case(2, 2, updates(400, 2, 0.0)));
            cases.push(case(2, 2, updates(400, 2, 0.5)));
            cases.push(case(4, 4, updates(400, 2, 0.3)));
            cases.push(case(4, 6, updates(2_000, 3, 1.0)));
        }
        // Hot and lock-free: 4 serial instances of one row each, every
        // transaction a read-modify-write of 2 rows on 2 instances.
        cases.push(Case {
            engine: EngineMode::Serial,
            instances: 4,
            clients: 4,
            spec: updates(4, 2, 1.0).with_sites(2),
        });

        for Case {
            engine,
            instances,
            clients,
            spec,
        } in cases
        {
            let cell = format!(
                "{engine} {instances}x{clients} rows={} per_txn={} multisite={}",
                spec.total_rows, spec.rows_per_txn, spec.multisite_pct
            );
            let cluster = Cluster::build(&DeployConfig {
                instances,
                total_rows: spec.total_rows,
                engine,
                retry_limit: 8,
                ..DeployConfig::default()
            })
            .unwrap();
            let multisite = spec.multisite_pct > 0.0;
            let hot = spec.total_rows == instances as u64;
            let cfg =
                DriveConfig::closed(clients, 0.2, DriveWorkload::Micro(spec), instances as u64);
            let r = drive(&DriveTarget::Cluster(&cluster), &cfg).unwrap();
            assert_eq!(r.faults(), Vec::<String>::new(), "{cell}");
            assert_eq!(r.multi.distributed > 0, multisite, "{cell}");
            let parked: u64 = (0..instances).map(|i| cluster.snapshot(i).in_doubt).sum();
            assert_eq!(parked, 0, "{cell}");
            // Serial islands are owned by taking turns, so no lock is ever
            // taken, not even on hot rows.
            if engine == EngineMode::Serial {
                for i in 0..instances {
                    let (acquires, _, _) = cluster.instance(i).instance().locks().stats();
                    assert_eq!(acquires, 0, "{cell}");
                }
            }
            if hot {
                // The 2PC rounds the votes abort on a hot row are retried.
                assert!(r.multi.retries > 0, "{cell}");
            }
        }
    }

    #[test]
    fn an_endpoint_target_is_audited_like_any_other() {
        // One partition behind its own server, read through `Client::audit`
        // before and after the load.
        let engine = PartitionEngine::build(
            &DeployConfig {
                instances: 1,
                total_rows: 100,
                ..DeployConfig::default()
            }
            .partition(0),
        )
        .map(Arc::new)
        .unwrap();
        let mut sock = std::env::temp_dir();
        sock.push(format!("islands-drive-{}.sock", std::process::id()));
        let handle = Server::spawn_backend(
            Backend::Partition(Arc::clone(&engine)),
            Endpoint::Uds(sock),
            ServerConfig::default(),
        )
        .unwrap();
        let cfg = DriveConfig::closed(1, 0.1, DriveWorkload::Micro(updates(100, 2, 0.0)), 1);
        let r = drive(&DriveTarget::Endpoint(handle.endpoint()), &cfg).unwrap();
        assert_eq!(r.faults(), Vec::<String>::new());
        assert_eq!(r.audit_delta, r.committed_writes());
        assert_eq!(engine.audit_sum().unwrap(), r.committed_writes());
        Client::connect(handle.endpoint())
            .unwrap()
            .drain_server()
            .unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn each_verdict_rule_yields_exactly_its_message() {
        let tally = |committed, errors, committed_writes| ClassTally {
            committed,
            errors,
            committed_writes,
            ..ClassTally::default()
        };
        let result = |local, client_failures, audit_delta| DriveResult {
            local,
            client_failures,
            audit_delta,
            ..DriveResult::default()
        };
        assert!(result(tally(2, 0, 4), 0, 4).faults().is_empty());
        for (r, fault) in [
            (result(tally(0, 0, 0), 0, 0), "zero committed transactions"),
            (result(tally(2, 0, 4), 3, 4), "3 client(s) failed"),
            (
                result(tally(2, 1, 4), 0, 4),
                "1 request(s) answered with an error",
            ),
            (
                result(tally(2, 0, 4), 0, 5),
                "audit sum moved by 5 but committed plans wrote 4 rows",
            ),
        ] {
            assert_eq!(r.faults(), vec![fault.to_string()]);
        }

        let exit = |index, clean| InstanceExit {
            index,
            clean,
            detail: if clean { "exit 0" } else { "signal 9" }.to_string(),
            stats: None,
        };
        let clean = TeardownReport::of(vec![exit(0, true), exit(1, true)]);
        assert!(clean.faults().is_empty());
        assert_eq!(
            TeardownReport::of(vec![exit(0, true), exit(1, false)]).faults(),
            vec!["instance 1 unclean: signal 9".to_string()]
        );
        let leaky = TeardownReport {
            in_doubt_leaks: 2,
            ..TeardownReport::of(Vec::new())
        };
        assert_eq!(
            leaky.faults(),
            vec!["2 in-doubt transaction(s) leaked".to_string()]
        );
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 100.0), 100);
        assert!(percentile(&v, 50.0).abs_diff(50) <= 1);
    }

    #[test]
    fn tallies_absorb_and_total() {
        let mut a = ClassTally {
            committed: 3,
            aborted: 1,
            errors: 0,
            distributed: 2,
            presumed_aborts: 0,
            retries: 4,
            committed_writes: 6,
            latencies_us: vec![5, 9],
        };
        let b = ClassTally {
            committed: 1,
            aborted: 0,
            errors: 2,
            distributed: 1,
            presumed_aborts: 1,
            retries: 1,
            committed_writes: 2,
            latencies_us: vec![3],
        };
        a.absorb(b);
        assert_eq!(a.committed, 4);
        assert_eq!(a.committed_writes, 8);
        assert_eq!(a.retries, 5);
        assert_eq!(a.total(), 7);
        assert_eq!(a.latencies_us, vec![5, 9, 3]);
    }

    #[test]
    fn class_json_is_stable_and_self_contained() {
        let tally = ClassTally {
            committed: 2,
            aborted: 1,
            errors: 0,
            distributed: 1,
            presumed_aborts: 0,
            retries: 3,
            committed_writes: 2,
            latencies_us: vec![30, 10, 20],
        };
        let json = class_json(&tally, Duration::from_secs(1));
        assert!(json.contains("\"committed\":2"));
        assert!(json.contains("\"retries\":3"));
        assert!(json.contains("\"p50_us\":20"));
        assert!(json.contains("\"max_us\":30"));
        assert!(json.contains("\"samples\":3"));
        // The input tally must not have been mutated (sorted) in place.
        assert_eq!(tally.latencies_us, vec![30, 10, 20]);
    }
}
