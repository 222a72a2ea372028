//! Reusable load-driving engine for served islands deployments.
//!
//! `islands-sweep` drives every cell of the paper's granularity × multisite
//! × skew cross-product through this module: spawn one thread per client,
//! submit open- or closed-loop plans from a [`MicroGenerator`] or
//! [`TpccGenerator`], tally outcomes **per transaction class** (local vs
//! multisite — the paper's served comparisons hinge on how the multisite
//! class degrades while the local class holds), and verify teardown (every
//! instance drained clean, zero in-doubt 2PC leaks).
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
    Client, DeployClient, DeployReply, Deployment, Endpoint, InstanceExit, Reply,
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

/// What a run drives: a multi-process deployment we coordinate 2PC over, or
/// a single served endpoint (in-process cluster server or external).
pub enum DriveTarget<'a> {
    Deployment(&'a Arc<Deployment>),
    Endpoint(&'a Endpoint),
}

/// Tallies for one transaction class (local or multisite).
#[derive(Debug, Default, Clone)]
pub struct ClassTally {
    pub committed: u64,
    pub aborted: u64,
    pub errors: u64,
    pub distributed: u64,
    pub presumed_aborts: u64,
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
        self.latencies_us.extend(other.latencies_us);
    }

    /// Requests of any outcome in this class.
    pub fn total(&self) -> u64 {
        self.committed + self.aborted + self.errors
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
}

impl DriveResult {
    pub fn committed(&self) -> u64 {
        self.local.committed + self.multi.committed
    }

    pub fn throughput_tps(&self) -> f64 {
        self.committed() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
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

/// The two ways a client submits one request.
enum Submitter {
    /// One wire connection to a single server (inproc / external).
    Wire(Client),
    /// Coordinator over a multi-process deployment.
    Proc(DeployClient),
}

/// Unified per-request outcome across submitters.
struct Done {
    committed: bool,
    error: Option<String>,
    distributed: bool,
    presumed_abort: bool,
}

/// Map a single-server reply to the unified outcome shape.
fn wire_done(reply: Reply) -> io::Result<Done> {
    match reply {
        Reply::Committed { distributed, .. } => Ok(Done {
            committed: true,
            error: None,
            distributed,
            presumed_abort: false,
        }),
        Reply::Aborted { .. } => Ok(Done {
            committed: false,
            error: None,
            distributed: false,
            presumed_abort: false,
        }),
        Reply::Error { message } => Ok(Done {
            committed: false,
            error: Some(message),
            distributed: false,
            presumed_abort: false,
        }),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply {other:?}"),
        )),
    }
}

/// Map a deployment coordinator reply to the unified outcome shape.
fn proc_done(reply: DeployReply) -> Done {
    match reply {
        DeployReply::Outcome(o) => Done {
            committed: o.committed,
            error: None,
            distributed: o.distributed,
            presumed_abort: o.presumed_abort,
        },
        DeployReply::ServerError(message) => Done {
            committed: false,
            error: Some(message),
            distributed: false,
            presumed_abort: false,
        },
        DeployReply::InstanceDown(i) => Done {
            committed: false,
            error: Some(format!("instance {i} unreachable")),
            distributed: false,
            presumed_abort: false,
        },
    }
}

impl Submitter {
    fn submit_plan(&mut self, plan: &PlanRequest) -> io::Result<Done> {
        match self {
            Submitter::Wire(client) => wire_done(client.submit_plan(plan)?),
            Submitter::Proc(client) => Ok(proc_done(client.submit_plan(plan)?)),
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
    mut submitter: Submitter,
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
        let done = submitter.submit_plan(&plan)?;
        let tally = match (plan.class, plan.multisite) {
            (PlanClass::Generic, false) => &mut result.local,
            (PlanClass::Generic, true) => &mut result.multi,
            (PlanClass::NewOrder, _) => &mut result.neworder,
            (PlanClass::Payment, false) => &mut result.payment_local,
            (PlanClass::Payment, true) => &mut result.payment_multisite,
        };
        if done.committed {
            tally.committed += 1;
            tally.distributed += done.distributed as u64;
        } else if let Some(message) = done.error {
            tally.errors += 1;
            eprintln!("client {id}: server error: {message}");
        } else {
            tally.aborted += 1;
            tally.presumed_aborts += done.presumed_abort as u64;
        }
        tally
            .latencies_us
            .push(measured_from.elapsed().as_micros() as u64);
    }
    Ok(result)
}

/// Drive `target` with `cfg.clients` concurrent clients and aggregate the
/// per-class tallies.
///
/// Every client connects **before** any worker thread spawns: a connect
/// error propagates while nothing else holds the deployment, so its Drop
/// impl still reaps every instance process (bailing after threads are
/// running would exit with worker threads — and their `Arc<Deployment>`
/// clones — alive, orphaning the children). Worker panics are tallied in
/// [`DriveResult::client_failures`], never unwound past a live deployment.
pub fn drive(target: &DriveTarget<'_>, cfg: &DriveConfig) -> Result<DriveResult, String> {
    if matches!(cfg.workload, DriveWorkload::Tpcc(_)) && cfg.clients > 256 {
        return Err(format!(
            "tpcc supports at most 256 clients (client ids tag insert keys), got {}",
            cfg.clients
        ));
    }
    let mut submitters = Vec::with_capacity(cfg.clients);
    for id in 0..cfg.clients {
        submitters.push(match target {
            DriveTarget::Deployment(d) => Submitter::Proc(
                d.client()
                    .map_err(|e| format!("connect client {id}: {e}"))?,
            ),
            DriveTarget::Endpoint(ep) => Submitter::Wire(
                Client::connect_with_retry(ep, Duration::from_secs(2))
                    .map_err(|e| format!("connect client {id}: {e}"))?,
            ),
        });
    }

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.secs);
    let workers: Vec<_> = submitters
        .into_iter()
        .enumerate()
        .map(|(id, submitter)| {
            let cfg = cfg.clone();
            std::thread::spawn(move || drive_client(id, submitter, &cfg, deadline))
        })
        .collect();

    let mut result = DriveResult::default();
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
    Ok(result)
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
         \"presumed_aborts\":{},\"throughput_tps\":{:.1},\"p50_us\":{},\"p95_us\":{},\
         \"p99_us\":{},\"max_us\":{},\"mean_us\":{:.1},\"samples\":{}}}",
        tally.committed,
        tally.aborted,
        tally.errors,
        tally.distributed,
        tally.presumed_aborts,
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
            latencies_us: vec![5, 9],
        };
        let b = ClassTally {
            committed: 1,
            aborted: 0,
            errors: 2,
            distributed: 1,
            presumed_aborts: 1,
            latencies_us: vec![3],
        };
        a.absorb(b);
        assert_eq!(a.committed, 4);
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
            latencies_us: vec![30, 10, 20],
        };
        let json = class_json(&tally, Duration::from_secs(1));
        assert!(json.contains("\"committed\":2"));
        assert!(json.contains("\"p50_us\":20"));
        assert!(json.contains("\"max_us\":30"));
        assert!(json.contains("\"samples\":3"));
        // The input tally must not have been mutated (sorted) in place.
        assert_eq!(tally.latencies_us, vec![30, 10, 20]);
    }
}
