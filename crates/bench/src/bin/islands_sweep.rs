//! `islands-sweep` — the paper's headline comparison, driven end to end.
//!
//! The central result of *OLTP on Hardware Islands* is not any single
//! deployment but the comparison **across partitioning granularities**:
//! shared-everything (one instance spanning the machine), island-sized
//! shared-nothing (one instance per socket), and fine-grained shared-nothing
//! (one instance per core), swept over multisite percentage (Figs. 6–8),
//! multisite transaction spread (Figs. 9–10), and skew (Fig. 13). This
//! binary derives those granularities from the detected host topology
//! (`islands_hwtopo::granularity_configs`), then runs the cross-product
//! `granularity × engine × multisite% × sites × skew`. Every list flag takes
//! a single value too, so one served deployment is a one-cell sweep.
//!
//! Each cell has one lifecycle: stand the deployment up (`--deploy proc`,
//! the default: pinned instance processes with wire-level 2PC; `--deploy
//! inproc`: the same instances built in this process as a `Cluster`, no
//! socket anywhere; `--connect EP`: someone else's server), drive it
//! through the shared `islands_bench::drive` engine — proc and inproc
//! alike, each client its own coordinator on its own thread — scrape every
//! instance's live stats, tear it down, and judge it.
//!
//! ```sh
//! cargo run --release -p islands-bench --bin islands-sweep -- --quick
//! cargo run --release -p islands-bench --bin islands-sweep -- \
//!     --instances 4 --multisite 20 --clients 8 --secs 2
//! ```
//!
//! Output: a Markdown table on stdout and one `islands-sweep/1` JSON
//! document (default `BENCH_sweep.json`) with one line per cell. The run
//! exits nonzero if any cell committed nothing, lost a client, had an
//! unclean instance exit, leaked an in-doubt transaction, or — in a cell
//! it stood up — saw the deployment's audit sum move by anything but the
//! row writes of the plans its clients saw commit. It is a correctness
//! gate and a figure-shaped report; throughput is gated by `benchmark/`
//! (BENCHMARK.json), not here.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use islands_bench::drive::{
    class_json, drive, instance_json, ClassTally, DriveConfig, DriveResult, DriveTarget,
    DriveWorkload, TeardownReport,
};
use islands_core::native::EngineMode;
use islands_hwtopo::{granularity_configs, HostTopology};
use islands_obs::{BreakdownCategory, Snapshot};
use islands_server::deploy::{
    self, DeployConfig, DeployWorkload, Deployment, SpawnMode, Transport,
};
use islands_server::{Client, Cluster, Endpoint};
use islands_workload::{MicroSpec, OpKind, TpccSpec};

const USAGE: &str = "islands-sweep - granularity sweeps over served deployments (Figs. 6-10, 13)

USAGE:
  islands-sweep [OPTIONS]

Every LIST is comma-separated; a single value is a one-entry list, so
`--instances 4 --multisite 20` drives exactly one deployment.

OPTIONS:
  --quick               reduced sweep: 0.5s cells, 4 clients, multisite
                        {0,20,80}% (explicit flags still win)
  --deploy proc|inproc  proc (default): one pinned server process per
                        instance, wire-level 2PC for multisite txns;
                        inproc: the same instances built in this process
                        and driven by direct call, no socket (each cell's
                        instances record into registries of their own, so
                        a cell reports only itself)
  --connect EP          drive an existing single server instead of standing
                        one up; EP is uds:/path/to.sock or tcp:HOST:PORT
                        (needs --rows and a single --instances matching the
                        server's dataset and partition count; the server is
                        scraped but NOT drained afterwards)
  --engine LIST         engine modes to sweep: locked (sessions execute
                        inline under 2PL) and/or serial (one transaction at
                        a time per partition, no lock table on local
                        transactions; default locked). Listing both prints
                        the locked-vs-serial comparison (both tps and the
                        serial/locked ratio) per granularity
  --workload micro|tpcc micro (default): single-shot read/update batches;
                        tpcc: NewOrder/Payment multi-step plans partitioned
                        by warehouse (not with --connect) — the --multisite
                        axis becomes the remote-payment probability (Figs. 3
                        and 7), and --kind/--rows-per-txn/--sites/--skew/
                        --rows are micro-only
  --warehouses N        tpcc scale factor (default: 2 x the finest
                        granularity's instance count; must cover every
                        granularity so each instance owns a warehouse)
  --transport uds|tcp   transport for the served instances (default uds;
                        not with --deploy inproc, which has no socket)
  --clients N           concurrent clients per cell (default 8; quick 4)
  --secs S              measured seconds per cell (default 2; quick 0.5)
  --open RATE           open-loop arrival rate, txn/s aggregate; latency is
                        charged from the scheduled send (default: closed loop)
  --kind read|update    transaction kind (default update)
  --rows-per-txn N      rows touched per transaction (default 4)
  --multisite LIST      multisite percentages
                        (default 0,20,50,80,100; quick 0,20,80)
  --sites LIST          multisite spreads; each entry is a distinct-site
                        count >= 2, or 0 for the paper's unconstrained
                        whole-range draw (default 0). Inert at 0% multisite,
                        where only the first entry runs.
  --skew LIST           Zipfian skews (default 0)
  --instances LIST      override the topology-derived granularities with
                        explicit instance counts (labelled e.g. 4isl)
  --rows N              total rows loaded/partitioned (default 40000)
  --retry-limit N       server-side retry budget per txn (default 64)
  --pin on|off          pin instance processes via taskset (proc; default on)
  --no-obs              disable the observability registry in every serving
                        process (A/B baseline for obs overhead; wire counters
                        and final stats stay on)
  --json PATH           islands-sweep/1 output (default BENCH_sweep.json)
  --scrape-out PATH     write the per-instance JSON snapshot lines scraped
                        from each live cell to PATH (what the CI sweep job
                        uploads as its artifact)
  -h, --help            print this help
";

/// Where a cell's instances live.
#[derive(Debug, Clone, PartialEq)]
enum Deploy {
    Proc,
    Inproc,
    External(Endpoint),
}

impl Deploy {
    fn label(&self) -> &'static str {
        match self {
            Deploy::Proc => "proc",
            Deploy::Inproc => "inproc",
            Deploy::External(_) => "external",
        }
    }
}

#[derive(Debug, Clone)]
struct Args {
    quick: bool,
    deploy: Deploy,
    engines: Vec<EngineMode>,
    workload: String,
    warehouses: u64,
    transport: String,
    clients: Option<usize>,
    secs: Option<f64>,
    open_rate: Option<f64>,
    kind: OpKind,
    rows_per_txn: usize,
    multisite: Option<Vec<f64>>,
    sites: Vec<usize>,
    skews: Vec<f64>,
    instances_override: Option<Vec<usize>>,
    rows: u64,
    retry_limit: u32,
    pin: bool,
    obs: bool,
    json: String,
    scrape_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            quick: false,
            deploy: Deploy::Proc,
            engines: vec![EngineMode::Locked],
            workload: "micro".into(),
            warehouses: 0,
            transport: "uds".into(),
            clients: None,
            secs: None,
            open_rate: None,
            kind: OpKind::Update,
            rows_per_txn: 4,
            multisite: None,
            sites: vec![0],
            skews: vec![0.0],
            instances_override: None,
            rows: 40_000,
            retry_limit: 64,
            pin: true,
            obs: true,
            json: "BENCH_sweep.json".into(),
            scrape_out: None,
        }
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad number {s:?}: {e}"))
}

fn num_list<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let list: Vec<T> = s
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| num(p.trim()))
        .collect::<Result<_, _>>()?;
    if list.is_empty() {
        return Err(format!("empty list {s:?}"));
    }
    Ok(list)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut connect = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--deploy" => {
                args.deploy = match value("--deploy")?.as_str() {
                    "proc" => Deploy::Proc,
                    "inproc" => Deploy::Inproc,
                    other => return Err(format!("--deploy proc|inproc, got {other}")),
                }
            }
            "--connect" => connect = Some(Endpoint::parse(&value("--connect")?)?),
            "--engine" => {
                let list = value("--engine")?;
                let engines: Vec<EngineMode> = list
                    .split(',')
                    .filter(|p| !p.is_empty())
                    .map(|p| EngineMode::parse(p.trim()))
                    .collect::<Result<_, _>>()?;
                if engines.is_empty() {
                    return Err(format!("empty engine list {list:?}"));
                }
                args.engines = engines;
            }
            "--workload" => args.workload = value("--workload")?,
            "--warehouses" => args.warehouses = num(&value("--warehouses")?)?,
            "--transport" => args.transport = value("--transport")?,
            "--clients" => args.clients = Some(num(&value("--clients")?)?),
            "--secs" => args.secs = Some(num(&value("--secs")?)?),
            "--open" => args.open_rate = Some(num(&value("--open")?)?),
            "--kind" => {
                args.kind = match value("--kind")?.as_str() {
                    "read" => OpKind::Read,
                    "update" => OpKind::Update,
                    other => return Err(format!("--kind read|update, got {other}")),
                }
            }
            "--rows-per-txn" => args.rows_per_txn = num(&value("--rows-per-txn")?)?,
            "--multisite" => args.multisite = Some(num_list(&value("--multisite")?)?),
            "--sites" => args.sites = num_list(&value("--sites")?)?,
            "--skew" => args.skews = num_list(&value("--skew")?)?,
            "--instances" => args.instances_override = Some(num_list(&value("--instances")?)?),
            "--rows" => args.rows = num(&value("--rows")?)?,
            "--retry-limit" => args.retry_limit = num(&value("--retry-limit")?)?,
            "--pin" => {
                args.pin = match value("--pin")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--pin on|off, got {other}")),
                }
            }
            "--no-obs" => args.obs = false,
            "--json" => args.json = value("--json")?,
            "--scrape-out" => args.scrape_out = Some(value("--scrape-out")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
    }
    if let Some(ep) = connect {
        // The external server's shape is whatever it was started with: this
        // run can only be told it, once.
        if args.instances_override.as_ref().map(Vec::len) != Some(1) {
            return Err(
                "--connect needs a single --instances N: the external server's \
                        partition count"
                    .into(),
            );
        }
        if args.engines != [EngineMode::Locked] {
            return Err("--engine applies to instances this run builds (no --connect)".into());
        }
        args.deploy = Deploy::External(ep);
    }
    if args.transport != "uds" && args.transport != "tcp" {
        return Err(format!("--transport uds|tcp, got {}", args.transport));
    }
    if args.deploy == Deploy::Inproc && args.transport != "uds" {
        return Err(
            "--transport applies to served instances; --deploy inproc has no socket".into(),
        );
    }
    if args.workload != "micro" && args.workload != "tpcc" {
        return Err(format!("--workload micro|tpcc, got {}", args.workload));
    }
    if args.workload == "tpcc" {
        if matches!(args.deploy, Deploy::External(_)) {
            return Err(
                "--workload tpcc needs a deployment this run builds (no --connect): \
                 nothing says an external server loaded the TPC-C tables"
                    .into(),
            );
        }
        // The micro-only axes must stay at their defaults: tpcc's multisite
        // class is remote payments, its skew is TPC-C's own access pattern.
        if args.sites != vec![0] {
            return Err("--sites is micro-only; tpcc's multisite class is remote payments".into());
        }
        if args.skews != vec![0.0] {
            return Err("--skew is micro-only (tpcc draws warehouses uniformly)".into());
        }
    } else if args.warehouses != 0 {
        return Err("--warehouses applies only with --workload tpcc".into());
    }
    if let Some(pcts) = &args.multisite {
        if pcts.iter().any(|p| !(0.0..=100.0).contains(p)) {
            return Err("--multisite entries must be 0-100".into());
        }
    }
    if args.skews.iter().any(|s| !(0.0..=1.0).contains(s)) {
        return Err("--skew entries must be 0-1".into());
    }
    for &k in &args.sites {
        if k == 1 {
            return Err("--sites entries are >= 2, or 0 for unconstrained".into());
        }
        if k > args.rows_per_txn {
            return Err(format!(
                "--sites {k} cannot be covered by --rows-per-txn {}",
                args.rows_per_txn
            ));
        }
    }
    if let Some(list) = &args.instances_override {
        if list.contains(&0) {
            return Err("--instances entries must be >= 1".into());
        }
    }
    if args.open_rate.is_some_and(|r| !r.is_finite() || r <= 0.0) {
        return Err("--open must be a positive rate in txn/s".into());
    }
    {
        let mut seen = Vec::new();
        for &e in &args.engines {
            if seen.contains(&e) {
                return Err(format!("--engine lists {e} twice"));
            }
            seen.push(e);
        }
    }
    Ok(args)
}

/// One granularity under comparison.
#[derive(Debug, Clone)]
struct Config {
    label: String,
    instances: usize,
}

/// What every cell of one sweep shares, resolved once from the flags and the
/// host: so each granularity is judged on the same request stream.
struct Shared {
    clients: usize,
    secs: f64,
    /// Logical sites micro requests are generated over: the finest instance
    /// count under comparison, stretched to fit the widest `--sites` spread.
    n_sites: u64,
    /// TPC-C scale factor; 0 for micro sweeps.
    warehouses: u64,
}

/// The coordinates of one cell in the sweep's cross-product.
#[derive(Debug, Clone, PartialEq)]
struct Point {
    label: String,
    instances: usize,
    engine: EngineMode,
    multisite_pct: f64,
    sites: usize, // 0 = unconstrained
    skew: f64,
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} x{} engine={} multisite={}% sites={} skew={}",
            self.label,
            self.instances,
            self.engine,
            self.multisite_pct,
            sites_label(self.sites),
            self.skew
        )
    }
}

/// One completed sweep cell.
struct Cell {
    point: Point,
    /// `"micro"` or `"tpcc"`.
    workload: String,
    /// TPC-C scale factor; 0 for micro cells.
    warehouses: u64,
    /// `"proc"`, `"inproc"` or `"external"`.
    deploy: &'static str,
    result: DriveResult,
    coordinator_presumed_aborts: u64,
    teardown: TeardownReport,
    pinned: bool,
    /// Per-instance snapshots taken while the deployment was still live
    /// (after the measured window, before teardown).
    scrapes: Vec<Snapshot>,
    /// The instance snapshots merged — the cell's Fig. 11 breakdown.
    obs: Snapshot,
    /// Everything that makes the cell unclean, in words; empty is the
    /// verdict "clean".
    faults: Vec<String>,
}

impl Cell {
    fn clean(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fields that say which cell this is, shared by the cell's own JSON
    /// line and each of its scrape lines.
    fn identity_json(&self) -> String {
        format!(
            "\"workload\":\"{}\",\"warehouses\":{},\"deploy\":\"{}\",\"granularity\":\"{}\",\
             \"instances\":{},\"engine\":\"{}\",\"multisite_pct\":{},\"sites\":{},\"skew\":{}",
            self.workload,
            self.warehouses,
            self.deploy,
            self.point.label,
            self.point.instances,
            self.point.engine,
            self.point.multisite_pct,
            self.point.sites,
            self.point.skew,
        )
    }
}

fn derive_configs(args: &Args, topo: &HostTopology) -> Vec<Config> {
    match &args.instances_override {
        Some(list) => list
            .iter()
            .map(|&n| Config {
                label: format!("{n}isl"),
                instances: n,
            })
            .collect(),
        None => granularity_configs(topo)
            .into_iter()
            .map(|g| Config {
                label: g.label.to_string(),
                instances: g.instances,
            })
            .collect(),
    }
}

/// The workload of one sweep cell (one construction point, so pre-flight
/// validation and the drive loop cannot diverge).
fn cell_workload(args: &Args, shared: &Shared, p: &Point) -> DriveWorkload {
    if args.workload == "tpcc" {
        DriveWorkload::Tpcc(TpccSpec {
            warehouses: shared.warehouses,
            remote_pct: p.multisite_pct / 100.0,
        })
    } else {
        DriveWorkload::Micro(MicroSpec {
            kind: args.kind,
            rows_per_txn: args.rows_per_txn,
            multisite_pct: p.multisite_pct / 100.0,
            skew: p.skew,
            multisite_sites: (p.sites >= 2).then_some(p.sites),
            total_rows: args.rows,
            row_size: 64,
        })
    }
}

/// What a cell stands up, drives and tears down.
enum Stand {
    /// Spawned instance processes this run coordinates 2PC over.
    Proc(Arc<Deployment>),
    /// The same instances in this process, driven by direct call.
    Inproc(Cluster),
    /// Someone else's server: driven and scraped, never drained.
    External(Endpoint),
}

impl Stand {
    fn up(args: &Args, shared: &Shared, p: &Point) -> Result<Stand, String> {
        let tcp = args.transport == "tcp";
        // One description of the cell's deployment, whichever way it is
        // stood up.
        let cfg = DeployConfig {
            instances: p.instances,
            transport: if tcp { Transport::Tcp } else { Transport::Uds },
            total_rows: args.rows,
            row_size: 64,
            retry_limit: args.retry_limit,
            engine: p.engine,
            workload: if args.workload == "tpcc" {
                DeployWorkload::Tpcc {
                    warehouses: shared.warehouses,
                }
            } else {
                DeployWorkload::Micro
            },
            pin: args.pin,
            obs: args.obs,
            spawn: SpawnMode::SelfExec,
            ..Default::default()
        };
        match &args.deploy {
            Deploy::External(ep) => Ok(Stand::External(ep.clone())),
            Deploy::Proc => Deployment::spawn(&cfg)
                .map(|d| Stand::Proc(Arc::new(d)))
                .map_err(|e| format!("spawn {} x{}: {e}", p.label, p.instances)),
            Deploy::Inproc => Cluster::build(&cfg)
                .map(Stand::Inproc)
                .map_err(|e| format!("build cluster x{}: {e}", p.instances)),
        }
    }

    fn target(&self) -> DriveTarget<'_> {
        match self {
            Stand::Proc(d) => DriveTarget::Deployment(d),
            Stand::Inproc(cluster) => DriveTarget::Cluster(cluster),
            Stand::External(ep) => DriveTarget::Endpoint(ep),
        }
    }

    /// Every instance's stats: a `Stats` frame from each serving process,
    /// or each cluster instance's own snapshot, as a proc cell reads each
    /// child.
    fn scrape(&self) -> Result<Vec<Snapshot>, String> {
        let endpoints = match self {
            Stand::Proc(d) => (0..d.instances()).map(|i| d.endpoint(i)).collect(),
            Stand::Inproc(cluster) => {
                return Ok((0..cluster.n_instances())
                    .map(|i| cluster.snapshot(i))
                    .collect())
            }
            Stand::External(ep) => vec![ep.clone()],
        };
        let scrape = |(i, ep): (usize, &Endpoint)| {
            let stats = Client::connect(ep).and_then(|mut c| c.stats());
            stats
                .map(|(_, snap)| snap)
                .map_err(|e| format!("scrape instance {i}: {e}"))
        };
        endpoints.iter().enumerate().map(scrape).collect()
    }

    /// Name the serving endpoints before the drive starts, so `islands-top`
    /// can be pointed at a cell while it runs.
    fn banner(&self, unit: &str) {
        match self {
            Stand::Proc(d) => {
                for i in 0..d.instances() {
                    let (lo, hi) = d.range(i);
                    let cpus = d.cpus_of(i).map(|c| format!(" cpus {c}"));
                    let ep = d.endpoint(i);
                    println!(
                        "  instance {i}: {unit} {lo}..{hi} at {ep}{}",
                        cpus.unwrap_or_default()
                    );
                }
            }
            Stand::Inproc(cluster) => println!(
                "  {} instance(s) in this process, no socket",
                cluster.n_instances()
            ),
            Stand::External(_) => {}
        }
    }

    /// Drain what this run stood up and report how every instance ended.
    fn down(self) -> TeardownReport {
        match self {
            Stand::Proc(d) => {
                let d = Arc::try_unwrap(d).ok().expect("all drive clients joined");
                TeardownReport::of(d.shutdown())
            }
            // Every client is gone; whatever an instance still counts as
            // parked has no coordinator left to decide it. No process
            // exited, so there are no exits to report.
            Stand::Inproc(cluster) => TeardownReport {
                in_doubt_leaks: (0..cluster.n_instances())
                    .map(|i| cluster.snapshot(i).in_doubt)
                    .sum(),
                ..TeardownReport::of(Vec::new())
            },
            Stand::External(_) => TeardownReport::of(Vec::new()),
        }
    }
}

/// One cell, start to finish: stand up → drive → scrape → tear down → judge.
fn run_cell(args: &Args, shared: &Shared, point: &Point, seed: u64) -> Result<Cell, String> {
    let stand = Stand::up(args, shared, point)?;
    let tpcc = args.workload == "tpcc";
    stand.banner(if tpcc { "warehouses" } else { "keys" });
    let cfg = DriveConfig {
        open_rate: args.open_rate,
        seed,
        ..DriveConfig::closed(
            shared.clients,
            shared.secs,
            cell_workload(args, shared, point),
            shared.n_sites,
        )
    };
    // Drive (which also measures how far the audit sum moved), then scrape
    // every instance's live stats while the deployment still serves (drive
    // has finished, teardown has not begun): the cell's Fig. 11 breakdown,
    // straight from the phase spans each instance accumulated.
    let driven = drive(&stand.target(), &cfg).and_then(|result| Ok((result, stand.scrape()?)));
    let (pinned, coordinator_presumed_aborts) = match &stand {
        Stand::Proc(d) => (d.pinned(), d.presumed_aborts()),
        _ => (false, 0),
    };
    // Tear down whatever the drive said: a failed cell must not leave its
    // instances serving under the next one.
    let teardown = stand.down();
    let (result, scrapes) = driven?;

    let mut obs = Snapshot::default();
    for snap in &scrapes {
        obs.merge(snap);
    }
    let mut faults = Vec::new();
    if result.committed() == 0 {
        faults.push("zero committed transactions".to_string());
    }
    if result.client_failures > 0 {
        faults.push(format!("{} client(s) failed", result.client_failures));
    }
    for r in teardown.instances.iter().filter(|r| !r.clean) {
        faults.push(format!("instance {} unclean: {}", r.index, r.detail));
    }
    if teardown.in_doubt_leaks > 0 {
        faults.push(format!(
            "{} in-doubt transaction(s) leaked",
            teardown.in_doubt_leaks
        ));
    }
    if let Some(delta) = result
        .audit_delta
        .filter(|&d| d != result.committed_writes())
    {
        faults.push(format!(
            "audit sum moved by {delta} but committed plans wrote {} rows",
            result.committed_writes()
        ));
    }
    Ok(Cell {
        point: point.clone(),
        workload: args.workload.clone(),
        warehouses: shared.warehouses,
        deploy: args.deploy.label(),
        result,
        coordinator_presumed_aborts,
        teardown,
        pinned,
        scrapes,
        obs,
        faults,
    })
}

fn class_tput(t: &ClassTally, cell: &Cell) -> f64 {
    t.committed as f64 / cell.result.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
}

fn sites_label(sites: usize) -> String {
    if sites == 0 {
        "any".into()
    } else {
        sites.to_string()
    }
}

fn markdown_table(cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str(
        "| granularity | instances | engine | multisite % | sites | skew | tput tps | \
         local tps | multi tps | multi p95 us | exec % | lock % | log % | comm % | \
         mgmt % | presumed aborts | leaks | clean |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for c in cells {
        let pct = c.obs.breakdown_pct();
        let cat = |cat: BreakdownCategory| pct[cat.index()];
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {:.0} | {:.0} | {:.0} | {} | {:.1} | {:.1} | \
             {:.1} | {:.1} | {:.1} | {} | {} | {} |\n",
            c.point.label,
            c.point.instances,
            c.point.engine,
            c.point.multisite_pct,
            sites_label(c.point.sites),
            c.point.skew,
            c.result.throughput_tps(),
            class_tput(&c.result.local, c),
            class_tput(&c.result.multi, c),
            c.result.multi.percentile_us(95.0),
            cat(BreakdownCategory::XctExecution),
            cat(BreakdownCategory::Locking),
            cat(BreakdownCategory::Logging),
            cat(BreakdownCategory::Communication),
            cat(BreakdownCategory::XctManagement),
            c.coordinator_presumed_aborts,
            c.teardown.in_doubt_leaks,
            if c.clean() { "yes" } else { "NO" },
        ));
    }
    out
}

/// One cell as a single JSON line. Identity and headline fields come
/// **before** the nested class objects so `jsonscan`'s first-occurrence
/// rule reads the top-level values.
fn cell_json(c: &Cell) -> String {
    let exits = c
        .teardown
        .instances
        .iter()
        .map(instance_json)
        .collect::<Vec<_>>()
        .join(", ");
    // TPC-C cells break the classes out further: NewOrder, local Payment,
    // remote (multisite) Payment — the nested `local`/`multisite` objects
    // stay the fold of these, so micro tooling reads every cell.
    let tpcc_classes = if c.workload == "tpcc" {
        format!(
            ",\"neworder\":{},\"payment_local\":{},\"payment_multisite\":{}",
            class_json(&c.result.neworder, c.result.elapsed),
            class_json(&c.result.payment_local, c.result.elapsed),
            class_json(&c.result.payment_multisite, c.result.elapsed),
        )
    } else {
        String::new()
    };
    let audit_delta = c
        .result
        .audit_delta
        .map_or_else(|| "null".to_string(), |d| d.to_string());
    format!(
        "{{{},\"committed\":{},\"committed_writes\":{},\"audit_delta\":{audit_delta},\
         \"throughput_tps\":{:.1},\
         \"coordinator_presumed_aborts\":{},\"unclean_instances\":{},\"in_doubt_leaks\":{},\
         \"client_failures\":{},\"clean\":{},\"pinned\":{},\"elapsed_secs\":{:.3},{},\
         \"local\":{},\"multisite\":{}{tpcc_classes},\"instance_exits\":[{}]}}",
        c.identity_json(),
        c.result.committed(),
        c.result.committed_writes(),
        c.result.throughput_tps(),
        c.coordinator_presumed_aborts,
        c.teardown.unclean,
        c.teardown.in_doubt_leaks,
        c.result.client_failures,
        c.clean(),
        c.pinned,
        c.result.elapsed.as_secs_f64(),
        // The merged obs snapshot's flat fields (breakdown percentages,
        // per-class latency hists, 2PC phase hists) sit at top level,
        // before the nested class objects, so jsonscan reads them exactly.
        c.obs.json_fields(),
        class_json(&c.result.local, c.result.elapsed),
        class_json(&c.result.multi, c.result.elapsed),
        exits,
    )
}

/// One cell's raw per-instance scrape as obs JSON lines: cell identity
/// and instance first, then the snapshot's flat fields — the artifact the
/// CI sweep job uploads.
fn scrape_lines(c: &Cell, out: &mut String) {
    for (i, snap) in c.scrapes.iter().enumerate() {
        out.push_str(&snap.json_line(&format!("{},\"instance\":{i}", c.identity_json())));
        out.push('\n');
    }
}

fn write_json(
    path: &str,
    args: &Args,
    shared: &Shared,
    topo: &HostTopology,
    cells: &[Cell],
) -> std::io::Result<()> {
    let committed: u64 = cells.iter().map(|c| c.result.committed()).sum();
    let unclean: u64 = cells.iter().map(|c| c.teardown.unclean).sum();
    let leaks: u64 = cells.iter().map(|c| c.teardown.in_doubt_leaks).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"islands-sweep/1\",\n");
    out.push_str(&format!(
        "  \"host\": {{\"sockets\":{},\"cores\":{}}},\n",
        topo.machine.sockets,
        topo.machine.total_cores(),
    ));
    let engines = args
        .engines
        .iter()
        .map(|e| format!("\"{e}\""))
        .collect::<Vec<_>>()
        .join(",");
    let mode = match args.open_rate {
        Some(rate) => format!("open@{rate:.0}"),
        None => "closed".into(),
    };
    out.push_str(&format!(
        "  \"config\": {{\"workload\":\"{}\",\"warehouses\":{},\"deploy\":\"{}\",\
         \"transport\":\"{}\",\"engines\":[{engines}],\
         \"clients\":{},\"secs\":{},\"mode\":\"{mode}\",\"obs\":{},\
         \"kind\":\"{}\",\"rows_per_txn\":{},\"rows\":{},\"n_sites\":{},\
         \"quick\":{}}},\n",
        args.workload,
        shared.warehouses,
        args.deploy.label(),
        args.transport,
        shared.clients,
        shared.secs,
        args.obs,
        args.kind.label(),
        args.rows_per_txn,
        args.rows,
        shared.n_sites,
        args.quick,
    ));
    out.push_str(&format!(
        "  \"totals\": {{\"cells\":{},\"committed\":{committed},\
         \"unclean_instances\":{unclean},\"in_doubt_leaks\":{leaks}}},\n",
        cells.len(),
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&cell_json(c));
        out.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

/// The paper-style locked-vs-serial comparison: for every workload point
/// swept under both engine modes, one line with both committed throughputs
/// and the serial/locked ratio. A record, not a gate: which engine leads at
/// 0% multisite depends on what running alone buys against what 2PL costs
/// on the box at hand (EXPERIMENTS.md, "Locked vs serial").
fn engine_comparison(cells: &[Cell]) {
    let mut printed_header = false;
    for locked in cells
        .iter()
        .filter(|c| c.point.engine == EngineMode::Locked)
    {
        let as_serial = Point {
            engine: EngineMode::Serial,
            ..locked.point.clone()
        };
        let Some(serial) = cells.iter().find(|c| c.point == as_serial) else {
            continue;
        };
        if !printed_header {
            println!("\nlocked vs serial (committed tps):");
            printed_header = true;
        }
        let l = locked.result.throughput_tps();
        let s = serial.result.throughput_tps();
        let ratio = s / l.max(f64::MIN_POSITIVE);
        let p = &locked.point;
        println!(
            "  {} x{} multisite={}% sites={} skew={}: locked {l:.0} serial {s:.0} (serial/locked {ratio:.2}x)",
            p.label,
            p.instances,
            p.multisite_pct,
            sites_label(p.sites),
            p.skew,
        );
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // This process's own registry too: a cell's coordinators record 2PC
    // phase latencies here, and inproc instances live here.
    islands_obs::set_enabled(args.obs);
    let clients = args.clients.unwrap_or(if args.quick { 4 } else { 8 });
    let secs = args.secs.unwrap_or(if args.quick { 0.5 } else { 2.0 });
    let multisite = args.multisite.clone().unwrap_or_else(|| {
        if args.quick {
            vec![0.0, 20.0, 80.0]
        } else {
            vec![0.0, 20.0, 50.0, 80.0, 100.0]
        }
    });
    if clients == 0 {
        return Err("--clients must be >= 1".into());
    }
    if !secs.is_finite() || secs <= 0.0 {
        return Err("--secs must be a positive number".into());
    }

    let topo = HostTopology::detect();
    let configs = derive_configs(&args, &topo);
    for c in &configs {
        if args.rows < c.instances as u64 {
            return Err(format!(
                "--rows {} cannot partition across {} instances ({})",
                args.rows, c.instances, c.label
            ));
        }
    }
    let finest = configs
        .iter()
        .map(|c| c.instances as u64)
        .max()
        .unwrap_or(1);
    let shared = Shared {
        clients,
        secs,
        n_sites: args
            .sites
            .iter()
            .map(|&s| s as u64)
            .fold(finest, u64::max)
            .max(1),
        // Two warehouses per instance of the finest granularity by default.
        warehouses: match (args.workload.as_str(), args.warehouses) {
            ("tpcc", 0) => finest * 2,
            ("tpcc", n) => n,
            _ => 0,
        },
    };
    if shared.n_sites > args.rows {
        return Err(format!(
            "--rows {} cannot back {} logical sites (the widest of \
             --instances and --sites)",
            args.rows, shared.n_sites
        ));
    }
    // Enumerate the cells up front. The --sites axis is inert in
    // 0%-multisite cells (no multisite transactions exist to spread), so
    // only its first entry runs there — duplicate deployments would spend
    // full spawn/drive/teardown cycles measuring the same workload.
    let mut plan: Vec<Point> = Vec::new();
    for config in &configs {
        for &engine in &args.engines {
            for &pct in &multisite {
                for &sites in &args.sites {
                    if pct == 0.0 && sites != args.sites[0] {
                        continue;
                    }
                    for &skew in &args.skews {
                        plan.push(Point {
                            label: config.label.clone(),
                            instances: config.instances,
                            engine,
                            multisite_pct: pct,
                            sites,
                            skew,
                        });
                    }
                }
            }
        }
    }
    // Pre-flight every planned cell's workload shape through the spec's own
    // check (the single source of truth the generator asserts), so an
    // unsatisfiable combination is a clean CLI error instead of a worker
    // panic mid-sweep.
    for p in &plan {
        match cell_workload(&args, &shared, p) {
            DriveWorkload::Tpcc(spec) => spec.check(p.instances),
            DriveWorkload::Micro(spec) => spec.check(shared.n_sites),
        }
        .map_err(|e| format!("{p}: {e}"))?;
    }

    let total_cells = plan.len();
    let scale = if args.workload == "tpcc" {
        format!("{} warehouses", shared.warehouses)
    } else {
        format!("{} rows, n_sites={}", args.rows, shared.n_sites)
    };
    println!(
        "islands-sweep: host {} socket(s) x {} core(s); workload={}; deploy={}; {} config(s) x \
         {} engine(s) x {} multisite x {} sites x {} skew = {total_cells} cells \
         ({clients} clients, {secs}s each, {scale})",
        topo.machine.sockets,
        topo.machine.total_cores(),
        args.workload,
        args.deploy.label(),
        configs.len(),
        args.engines.len(),
        multisite.len(),
        args.sites.len(),
        args.skews.len(),
    );
    for c in &configs {
        println!("  config {}: {} instance(s)", c.label, c.instances);
    }

    let mut cells: Vec<Cell> = Vec::with_capacity(total_cells);
    let mut cell_errors = 0usize;
    for (i, point) in plan.iter().enumerate() {
        // Seed from the cell's place in the plan, so a failed cell does not
        // shift every later cell onto a reused seed and break run-to-run
        // reproducibility.
        let attempt = i as u64 + 1;
        let seed = 0x5eed ^ (attempt * 0x9e37_79b9);
        println!("cell {attempt}/{total_cells}: {point}");
        match run_cell(&args, &shared, point, seed) {
            Ok(cell) => {
                let breakout = if cell.workload == "tpcc" {
                    format!(
                        " (neworder {:.0}, pay-local {:.0}, pay-multi {:.0})",
                        class_tput(&cell.result.neworder, &cell),
                        class_tput(&cell.result.payment_local, &cell),
                        class_tput(&cell.result.payment_multisite, &cell),
                    )
                } else {
                    String::new()
                };
                println!(
                    "  {:.0} tps (local {:.0}, multi {:.0}){breakout}, leaks={}, {}",
                    cell.result.throughput_tps(),
                    class_tput(&cell.result.local, &cell),
                    class_tput(&cell.result.multi, &cell),
                    cell.teardown.in_doubt_leaks,
                    if cell.clean() { "clean" } else { "UNCLEAN" },
                );
                for fault in &cell.faults {
                    println!("  UNCLEAN: {fault}");
                }
                cells.push(cell);
            }
            Err(e) => {
                println!("  FAILED: {e}");
                cell_errors += 1;
            }
        }
    }

    println!();
    print!("{}", markdown_table(&cells));
    write_json(&args.json, &args, &shared, &topo, &cells)
        .map_err(|e| format!("write {}: {e}", args.json))?;
    println!("wrote {}", args.json);
    if let Some(path) = &args.scrape_out {
        let mut lines = String::new();
        for c in &cells {
            scrape_lines(c, &mut lines);
        }
        std::fs::write(path, &lines).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }

    engine_comparison(&cells);

    if cell_errors > 0 {
        return Err(format!("{cell_errors} cell(s) failed to run"));
    }
    let unclean = cells.iter().filter(|c| !c.clean()).count();
    if unclean > 0 {
        return Err(format!(
            "{unclean} cell(s) unclean (zero commits, client failures, instance exits, \
             leaks, or an audit mismatch)"
        ));
    }
    println!(
        "sweep complete: {} cells, all drained clean, zero in-doubt leaks",
        cells.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    // A `--instance-child` first argument means we were spawned as one of a
    // deployment's instance processes: serve the partition and exit.
    deploy::run_instance_child_if_requested();
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("islands-sweep: {e}");
            ExitCode::FAILURE
        }
    }
}
