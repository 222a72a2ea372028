//! Scripted crash-recovery drill for WAL-backed deployments.
//!
//! One invocation runs the whole fault story end to end and verifies it:
//!
//! 1. spawn a multi-process deployment with durable per-instance WALs and
//!    the coordinator's decision log,
//! 2. drive warm mixed load (local + wire-2PC multisite updates),
//! 3. park an undecided in-doubt branch on the victim (a raw coordinator
//!    that prepares and goes silent), then trip a scripted fault — SIGKILL
//!    of the victim at a chosen 2PC point — under live multisite traffic,
//! 4. restart the victim via [`Deployment::restart_instance`]: WAL replay
//!    parks the in-doubt branches, the resolver settles them (commit for
//!    decided gtids, presumed abort for the rest) before the instance
//!    re-serves,
//! 5. drive verify load (which also walks the client reconnect path) and
//!    close with the audit identity: committed row writes across the whole
//!    deployment must equal exactly what committed clients observed —
//!    including the branch the victim only learned about during recovery —
//!    with zero in-doubt transactions at drain.
//!
//! ```sh
//! cargo run --release -p islands-bench --bin islands-drill -- \
//!     --engine serial --instances 2 --multisite 20 --fault-point post-prepare \
//!     --json BENCH_drill.json
//! ```
//!
//! Exit code 0 means every check held; any protocol leak, audit mismatch,
//! or unclean instance exit is a hard failure.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_core::native::EngineMode;
use islands_server::deploy::{
    self, DeployConfig, DeployReply, Deployment, FaultPlan, FaultPoint, SpawnMode, Transport,
};
use islands_server::{Client, DeployClient, Request};
use islands_workload::plan::MICRO_TABLE;
use islands_workload::{PlanBranch, PlanClass, PlanRequest, PlanStep, StepOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const USAGE: &str = "islands-drill - scripted crash-recovery drill

USAGE:
  islands-drill [OPTIONS]

OPTIONS:
  --engine locked|serial  instance execution engine (default locked)
  --transport uds|tcp     wire transport (default uds)
  --instances N           shared-nothing instance processes (default 2)
  --rows N                total rows partitioned across instances (default 4000)
  --multisite PCT         multisite percentage of the mixed load (default 20)
  --secs S                seconds of load per phase, warm and verify (default 1)
  --fault-point P         where the victim dies: pre-prepare (before it can
                          vote), post-prepare (voted Yes, decision never
                          arrives - the headline in-doubt case), or
                          post-decision (right behind its decision frame:
                          the transaction was already answered commit)
                          (default post-prepare)
  --victim I              instance to kill (default: last instance)
  --wal-dir PATH          WAL directory (default: fresh dir under the system
                          temp dir, removed on success)
  --pin on|off            pin instance processes to island core sets (default off)
  --seed N                load generator seed (default 42)
  --json PATH             write the islands-drill/1 report to PATH
  -h, --help              print this help
";

/// The gtid of the staged never-decided branch. Far above anything the
/// deployment coordinator hands out during a drill.
const ZOMBIE_GTID: u64 = 900_001;

#[derive(Debug, Clone)]
struct Args {
    engine: EngineMode,
    transport: String,
    instances: usize,
    rows: u64,
    multisite_pct: f64,
    secs: f64,
    fault_point: FaultPoint,
    victim: Option<usize>,
    wal_dir: Option<String>,
    pin: bool,
    seed: u64,
    json: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            engine: EngineMode::Locked,
            transport: "uds".into(),
            instances: 2,
            rows: 4000,
            multisite_pct: 20.0,
            secs: 1.0,
            fault_point: FaultPoint::PostPreparePreDecision,
            victim: None,
            wal_dir: None,
            pin: false,
            seed: 42,
            json: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--engine" => args.engine = EngineMode::parse(&value("--engine")?)?,
            "--transport" => args.transport = value("--transport")?,
            "--instances" => args.instances = num(&value("--instances")?)?,
            "--rows" => args.rows = num(&value("--rows")?)?,
            "--multisite" => args.multisite_pct = num(&value("--multisite")?)?,
            "--secs" => args.secs = num(&value("--secs")?)?,
            "--fault-point" => args.fault_point = FaultPoint::parse(&value("--fault-point")?)?,
            "--victim" => args.victim = Some(num(&value("--victim")?)?),
            "--wal-dir" => args.wal_dir = Some(value("--wal-dir")?),
            "--pin" => {
                args.pin = match value("--pin")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--pin on|off, got {other}")),
                }
            }
            "--seed" => args.seed = num(&value("--seed")?)?,
            "--json" => args.json = Some(value("--json")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
    }
    if args.instances < 2 {
        return Err("--instances must be >= 2 (a drill needs a surviving coordinator side)".into());
    }
    if args.rows < args.instances as u64 {
        return Err("--rows must be >= --instances".into());
    }
    if !(0.0..=100.0).contains(&args.multisite_pct) {
        return Err("--multisite must be 0-100".into());
    }
    if !args.secs.is_finite() || args.secs < 0.0 {
        return Err("--secs must be a nonnegative number".into());
    }
    if args.transport != "uds" && args.transport != "tcp" {
        return Err(format!("--transport uds|tcp, got {}", args.transport));
    }
    if let Some(v) = args.victim {
        if v == 0 || v >= args.instances {
            return Err(format!(
                "--victim {v} out of range 1..{} (instance 0 hosts the first-touch \
                 branches; killing a later instance exercises the decision window)",
                args.instances
            ));
        }
    }
    Ok(args)
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad number {s:?}: {e}"))
}

fn update(keys: &[u64]) -> PlanRequest {
    PlanRequest {
        class: PlanClass::Generic,
        multisite: keys.len() > 1,
        steps: keys
            .iter()
            .map(|&key| PlanStep::point(MICRO_TABLE, key, StepOp::Update))
            .collect(),
    }
}

/// Tallies from one load phase; `expected_rows` is the audit-identity
/// contribution (committed update transactions write one row per key).
#[derive(Debug, Default)]
struct Tally {
    committed: u64,
    aborted: u64,
    down: u64,
    expected_rows: u64,
}

/// Closed-loop mixed load from one client for `secs`: single-site updates
/// with a `multisite_pct` fraction of two-instance wire-2PC updates. Every
/// submit outcome is definitive (the coordinator is this process), so the
/// expected-rows tally is exact.
fn drive_mixed(
    client: &mut DeployClient,
    deploy: &Deployment,
    rng: &mut SmallRng,
    secs: f64,
    multisite_pct: f64,
    tally: &mut Tally,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let n = deploy.instances();
    while Instant::now() < deadline {
        let req = if rng.gen_bool(multisite_pct / 100.0) {
            let a = rng.gen_range(0..n);
            let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
            update(&[key_of(deploy, a, rng), key_of(deploy, b, rng)])
        } else {
            let i = rng.gen_range(0..n);
            update(&[key_of(deploy, i, rng)])
        };
        match client.submit_plan(&req) {
            Ok(DeployReply::Outcome(o)) if o.committed => {
                tally.committed += 1;
                tally.expected_rows += req.write_rows();
            }
            Ok(DeployReply::Outcome(_)) => tally.aborted += 1,
            Ok(DeployReply::InstanceDown(_)) => tally.down += 1,
            Ok(other) => return Err(format!("unexpected reply {other:?}")),
            Err(e) => return Err(format!("submit failed: {e}")),
        }
    }
    Ok(())
}

fn key_of(deploy: &Deployment, i: usize, rng: &mut SmallRng) -> u64 {
    let (lo, hi) = deploy.range(i);
    rng.gen_range(lo..hi)
}

/// Submit with a retry budget: after the restart the deploy client's cached
/// connection to the victim is stale, and the first touches walk the
/// reconnect-with-backoff path.
fn submit_retrying(
    client: &mut DeployClient,
    req: &PlanRequest,
    tally: &mut Tally,
) -> Result<(), String> {
    for _ in 0..50 {
        match client.submit_plan(req) {
            Ok(DeployReply::Outcome(o)) if o.committed => {
                tally.committed += 1;
                tally.expected_rows += req.write_rows();
                return Ok(());
            }
            Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    Err(format!("request never committed after restart: {req:?}"))
}

struct DrillReport {
    warm: Tally,
    fault: Tally,
    verify: Tally,
    faulted_committed: u64,
    restart_ms: f64,
    recoveries: u64,
    in_doubt_commit: u64,
    in_doubt_abort: u64,
    audit_expected: u64,
    audit_actual: u64,
    decided_commits: u64,
    presumed_aborts: u64,
    instances_clean: usize,
    in_doubt_leaks: u64,
}

fn run(args: &Args) -> Result<DrillReport, String> {
    let victim = args.victim.unwrap_or(args.instances - 1);
    let wal_dir = match &args.wal_dir {
        Some(p) => std::path::PathBuf::from(p),
        None => std::env::temp_dir().join(format!("islands-drill-{}", std::process::id())),
    };
    let cleanup_wal = args.wal_dir.is_none();
    if cleanup_wal {
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    let deploy = Arc::new(
        Deployment::spawn(&DeployConfig {
            instances: args.instances,
            transport: if args.transport == "tcp" {
                Transport::Tcp
            } else {
                Transport::Uds
            },
            total_rows: args.rows,
            row_size: 64,
            engine: args.engine,
            pin: args.pin,
            spawn: SpawnMode::SelfExec,
            wal_dir: Some(wal_dir.clone()),
            vote_timeout: Duration::from_secs(2),
            ..Default::default()
        })
        .map_err(|e| format!("spawn deployment: {e}"))?,
    );
    println!(
        "drill: {} {} instances ({} engine), victim {victim} at {}, wal {}",
        args.instances,
        args.transport,
        args.engine,
        args.fault_point.label(),
        wal_dir.display(),
    );
    let mut client = deploy.client().map_err(|e| format!("client: {e}"))?;
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let audit_base = client.audit_total().map_err(|e| format!("audit: {e}"))?;

    // Phase 1: warm load against a healthy deployment.
    let mut warm = Tally::default();
    drive_mixed(
        &mut client,
        &deploy,
        &mut rng,
        args.secs,
        args.multisite_pct,
        &mut warm,
    )?;
    println!(
        "warm: committed={} aborted={} (expected rows {})",
        warm.committed, warm.aborted, warm.expected_rows
    );

    // Phase 2a: park an undecided branch on the victim. The raw coordinator
    // stays connected — a disconnect would resolve it live via presumed
    // abort; the SIGKILL is what strands it in the WAL.
    let zombie_key = deploy.range(victim).0;
    let mut zombie =
        Client::connect(&deploy.endpoint(victim)).map_err(|e| format!("zombie: {e}"))?;
    zombie
        .send_request(&Request::PreparePlan(PlanBranch {
            gtid: ZOMBIE_GTID,
            plan: update(&[zombie_key]),
        }))
        .map_err(|e| format!("zombie prepare: {e}"))?;
    match zombie
        .recv_reply()
        .map_err(|e| format!("zombie vote: {e}"))?
    {
        islands_server::Reply::Vote { gtid, vote } if gtid == ZOMBIE_GTID => {
            if vote != islands_dtxn::Vote::Yes {
                return Err(format!("zombie branch must prepare, voted {vote:?}"));
            }
        }
        other => return Err(format!("unexpected zombie reply {other:?}")),
    }

    // Phase 2b: trip the scripted fault under multisite traffic aimed at
    // the victim. Whether the faulted transaction commits is the protocol
    // question: the decision is forced *before* decision frames go out, so
    // post-prepare and post-decision faults leave a committed transaction
    // the victim has not heard of; pre-prepare must presume abort.
    deploy.arm_fault(FaultPlan {
        point: args.fault_point,
        victim,
    });
    let mut fault = Tally::default();
    let mut faulted_committed = 0u64;
    while deploy.faults_fired() == 0 {
        let other = (victim + 1) % args.instances;
        let req = update(&[
            key_of(&deploy, other, &mut rng),
            key_of(&deploy, victim, &mut rng),
        ]);
        let reply = client
            .submit_plan(&req)
            .map_err(|e| format!("fault submit: {e}"))?;
        let fired = deploy.faults_fired() > 0;
        match reply {
            DeployReply::Outcome(o) if o.committed => {
                fault.committed += 1;
                fault.expected_rows += req.write_rows();
                if fired {
                    faulted_committed = 1;
                }
            }
            DeployReply::Outcome(_) => fault.aborted += 1,
            DeployReply::InstanceDown(_) => fault.down += 1,
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
    drop(zombie); // the victim is dead; this disconnect reaches nobody
    match args.fault_point {
        FaultPoint::PrePrepare => {
            if faulted_committed != 0 {
                return Err("a pre-prepare fault cannot yield a commit".into());
            }
        }
        FaultPoint::PostPreparePreDecision | FaultPoint::PostDecisionPreAck => {
            if faulted_committed != 1 {
                return Err(format!(
                    "{} fires after every vote is in: the forced commit must stand",
                    args.fault_point.label()
                ));
            }
        }
    }
    println!(
        "fault fired at {} (victim {victim}); faulted txn committed={faulted_committed}",
        args.fault_point.label()
    );

    // Phase 3: restart. WAL replay parks the in-doubt branches and the
    // resolver settles them before the instance answers READY, so the
    // restart duration covers the whole rejoin.
    let restart_started = Instant::now();
    deploy
        .restart_instance(victim)
        .map_err(|e| format!("restart: {e}"))?;
    let restart_ms = restart_started.elapsed().as_secs_f64() * 1e3;

    // Phase 4: verify. The zombie key commits only if the presumed abort
    // released its footprint; mixed load proves the rejoined instance
    // serves both classes again.
    let mut verify = Tally::default();
    submit_retrying(&mut client, &update(&[zombie_key]), &mut verify)?;
    drive_mixed(
        &mut client,
        &deploy,
        &mut rng,
        args.secs,
        args.multisite_pct,
        &mut verify,
    )?;
    println!(
        "verify: committed={} aborted={} restart={restart_ms:.0}ms",
        verify.committed, verify.aborted
    );

    // The victim's own metrics tell the recovery story.
    let mut probe = Client::connect(&deploy.endpoint(victim)).map_err(|e| format!("probe: {e}"))?;
    let (_, snap) = probe.stats().map_err(|e| format!("stats: {e}"))?;
    drop(probe);
    if snap.recoveries != 1 {
        return Err(format!(
            "victim must replay exactly once, saw {}",
            snap.recoveries
        ));
    }
    if snap.in_doubt_abort == 0 {
        return Err("the undecided branch must resolve as presumed abort".into());
    }
    if args.fault_point == FaultPoint::PrePrepare && snap.in_doubt_commit != 0 {
        return Err("pre-prepare leaves no decided branch to commit on recovery".into());
    }
    if args.fault_point == FaultPoint::PostPreparePreDecision && snap.in_doubt_commit != 1 {
        return Err(format!(
            "the decided gtid must resolve as commit on recovery, saw {}",
            snap.in_doubt_commit
        ));
    }

    // The audit identity, deployment-wide: every committed update wrote one
    // row per key — the faulted transaction's victim branch included, which
    // only recovery could have applied — and nothing else did.
    let audit_expected = warm.expected_rows + fault.expected_rows + verify.expected_rows;
    let audit_actual = client.audit_total().map_err(|e| format!("audit: {e}"))? - audit_base;
    if audit_actual != audit_expected {
        return Err(format!(
            "audit identity broken: expected {audit_expected} committed row writes, \
             instances sum to {audit_actual}"
        ));
    }
    println!("audit identity holds: {audit_actual} committed row writes");

    let decided_commits = deploy.decided_commits();
    let presumed_aborts = deploy.presumed_aborts();
    drop(client);
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("all clients dropped")
        .shutdown();
    let instances_clean = reports.iter().filter(|r| r.clean).count();
    let in_doubt_leaks: u64 = reports
        .iter()
        .filter_map(|r| r.stats.map(|s| s.in_doubt))
        .sum();
    for r in &reports {
        if !r.clean {
            return Err(format!("instance {} exited unclean: {}", r.index, r.detail));
        }
    }
    if in_doubt_leaks > 0 {
        return Err(format!("{in_doubt_leaks} in-doubt transaction(s) leaked"));
    }
    println!("drained clean: {instances_clean} instances, in_doubt=0");
    if cleanup_wal {
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    Ok(DrillReport {
        warm,
        fault,
        verify,
        faulted_committed,
        restart_ms,
        recoveries: snap.recoveries,
        in_doubt_commit: snap.in_doubt_commit,
        in_doubt_abort: snap.in_doubt_abort,
        audit_expected,
        audit_actual,
        decided_commits,
        presumed_aborts,
        instances_clean,
        in_doubt_leaks,
    })
}

fn tally_json(t: &Tally) -> String {
    format!(
        "{{\"committed\":{},\"aborted\":{},\"down\":{},\"expected_rows\":{}}}",
        t.committed, t.aborted, t.down, t.expected_rows
    )
}

fn write_json(path: &str, args: &Args, victim: usize, r: &DrillReport) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"islands-drill/1\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"engine\":\"{}\",\"transport\":\"{}\",\"instances\":{},\
         \"rows\":{},\"multisite_pct\":{},\"secs\":{},\"fault_point\":\"{}\",\
         \"victim\":{victim},\"seed\":{}}},\n",
        args.engine,
        args.transport,
        args.instances,
        args.rows,
        args.multisite_pct,
        args.secs,
        args.fault_point.label(),
        args.seed,
    ));
    out.push_str(&format!(
        "  \"phases\": {{\"warm\": {}, \"fault\": {}, \"verify\": {}}},\n",
        tally_json(&r.warm),
        tally_json(&r.fault),
        tally_json(&r.verify),
    ));
    out.push_str(&format!(
        "  \"fault\": {{\"faulted_txn_committed\":{}}},\n",
        r.faulted_committed
    ));
    out.push_str(&format!(
        "  \"recovery\": {{\"restart_ms\":{:.1},\"recoveries\":{},\
         \"in_doubt_commit\":{},\"in_doubt_abort\":{}}},\n",
        r.restart_ms, r.recoveries, r.in_doubt_commit, r.in_doubt_abort,
    ));
    out.push_str(&format!(
        "  \"audit\": {{\"expected_rows\":{},\"actual_rows\":{},\"identity_ok\":true}},\n",
        r.audit_expected, r.audit_actual,
    ));
    out.push_str(&format!(
        "  \"teardown\": {{\"instances_clean\":{},\"in_doubt_leaks\":{},\
         \"decided_commits\":{},\"presumed_aborts\":{}}}\n",
        r.instances_clean, r.in_doubt_leaks, r.decided_commits, r.presumed_aborts,
    ));
    out.push_str("}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

fn main() -> ExitCode {
    // A `--instance-child` first argument means we were spawned as one of
    // the deployment's instance processes: serve the partition and exit.
    deploy::run_instance_child_if_requested();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("islands-drill: {e}");
            return ExitCode::FAILURE;
        }
    };
    let victim = args.victim.unwrap_or(args.instances - 1);
    match run(&args) {
        Ok(report) => {
            if let Some(path) = &args.json {
                if let Err(e) = write_json(path, &args, victim, &report) {
                    eprintln!("islands-drill: write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {path}");
            }
            println!("drill PASSED");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("islands-drill: FAILED - {e}");
            ExitCode::FAILURE
        }
    }
}
