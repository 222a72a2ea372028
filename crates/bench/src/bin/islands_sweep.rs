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
//! `granularity × multisite% × sites × skew`, each cell a **real spawned
//! multi-process deployment** (pinned instance processes, wire-level 2PC)
//! driven by the shared `islands_bench::drive` engine and torn down with
//! leak verification.
//!
//! ```sh
//! cargo run --release -p islands-bench --bin islands-sweep -- --quick
//! ```
//!
//! Output: a Markdown table on stdout and one `islands-sweep/1` JSON
//! document (default `BENCH_sweep.json`) with one line per cell. The run
//! exits nonzero if any cell had an unclean instance exit, a leaked
//! in-doubt transaction, zero commits, or (with `--baseline`) throughput
//! below the tolerance band of a previous run's JSON.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use islands_bench::drive::{
    class_json, drive, instance_json, percentile, shutdown_deployment, ClassTally, DriveConfig,
    DriveResult, DriveTarget, DriveWorkload, TeardownReport,
};
use islands_bench::jsonscan::{int_field, num_field, str_field};
use islands_core::native::EngineMode;
use islands_hwtopo::{granularity_configs, HostTopology};
use islands_obs::{BreakdownCategory, Snapshot};
use islands_server::deploy::{
    self, DeployConfig, DeployWorkload, Deployment, SpawnMode, Transport,
};
use islands_server::{Client, ServerStats};
use islands_workload::{MicroSpec, OpKind, TpccSpec};

const USAGE: &str = "islands-sweep - granularity sweeps over real deployments (Figs. 6-10, 13)

USAGE:
  islands-sweep [OPTIONS]

OPTIONS:
  --quick               reduced sweep: 0.5s cells, 4 clients, multisite
                        {0,20,80}% (explicit flags still win)
  --engine LIST         comma-separated engine modes to sweep: locked
                        (sessions execute inline under 2PL) and/or serial
                        (one transaction at a time per partition, no
                        lock table on local transactions; default locked).
                        Listing both prints the locked-vs-serial
                        comparison (both tps and the serial/locked
                        ratio) per granularity; recorded, never gated
  --workload micro|tpcc micro (default): single-shot read/update batches;
                        tpcc: NewOrder/Payment multi-step plans partitioned
                        by warehouse — the --multisite axis becomes the
                        remote-payment probability (Figs. 3 and 7), and
                        --kind/--rows-per-txn/--sites/--skew/--rows are
                        micro-only
  --warehouses N        tpcc scale factor (default: 2 x the finest
                        granularity's instance count; must cover every
                        granularity so each instance owns a warehouse)
  --transport uds|tcp   transport for instance processes (default uds)
  --clients N           concurrent clients per cell (default 8; quick 4)
  --secs S              measured seconds per cell (default 2; quick 0.5)
  --kind read|update    transaction kind (default update)
  --rows-per-txn N      rows touched per transaction (default 4)
  --multisite LIST      comma-separated multisite percentages
                        (default 0,20,50,80,100; quick 0,20,80)
  --sites LIST          comma-separated multisite spreads; each entry is a
                        distinct-site count >= 2, or 0 for the paper's
                        unconstrained whole-range draw (default 0). Inert
                        at 0% multisite, where only the first entry runs.
  --skew LIST           comma-separated Zipfian skews (default 0)
  --instances LIST      override the topology-derived granularities with
                        explicit instance counts (labelled e.g. 4isl)
  --rows N              total rows loaded/partitioned (default 40000)
  --retry-limit N       server-side retry budget per txn (default 64)
  --pin on|off          pin instance processes via taskset (default on)
  --json PATH           islands-sweep/1 output (default BENCH_sweep.json)
  --markdown PATH       also write the Markdown table to PATH
  --scrape-out PATH     write the raw per-instance islands-obs/1 snapshot
                        lines scraped from each live cell to PATH (what the
                        CI sweep job uploads as its artifact)
  --baseline PATH       gate each cell's throughput against a previous
                        islands-sweep/1 JSON (cells matched on granularity,
                        instances, multisite%, sites, skew)
  --tolerance FRAC      allowed fractional shortfall vs the baseline before
                        the gate fails, 0-1 (default 0.7: fail only below
                        30% of baseline; faster never fails)
  -h, --help            print this help
";

#[derive(Debug, Clone)]
struct Args {
    quick: bool,
    engines: Vec<EngineMode>,
    workload: String,
    warehouses: u64,
    transport: String,
    clients: Option<usize>,
    secs: Option<f64>,
    kind: OpKind,
    rows_per_txn: usize,
    multisite: Option<Vec<f64>>,
    sites: Vec<usize>,
    skews: Vec<f64>,
    instances_override: Option<Vec<usize>>,
    rows: u64,
    retry_limit: u32,
    pin: bool,
    json: String,
    markdown: Option<String>,
    scrape_out: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            quick: false,
            engines: vec![EngineMode::Locked],
            workload: "micro".into(),
            warehouses: 0,
            transport: "uds".into(),
            clients: None,
            secs: None,
            kind: OpKind::Update,
            rows_per_txn: 4,
            multisite: None,
            sites: vec![0],
            skews: vec![0.0],
            instances_override: None,
            rows: 40_000,
            retry_limit: 64,
            pin: true,
            json: "BENCH_sweep.json".into(),
            markdown: None,
            scrape_out: None,
            baseline: None,
            tolerance: 0.7,
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
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--quick" => args.quick = true,
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
            "--json" => args.json = value("--json")?,
            "--markdown" => args.markdown = Some(value("--markdown")?),
            "--scrape-out" => args.scrape_out = Some(value("--scrape-out")?),
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--tolerance" => args.tolerance = num(&value("--tolerance")?)?,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
    }
    if args.transport != "uds" && args.transport != "tcp" {
        return Err(format!("--transport uds|tcp, got {}", args.transport));
    }
    if args.workload != "micro" && args.workload != "tpcc" {
        return Err(format!("--workload micro|tpcc, got {}", args.workload));
    }
    if args.workload == "tpcc" {
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
    if !(0.0..=1.0).contains(&args.tolerance) {
        return Err("--tolerance must be 0-1".into());
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

/// One completed sweep cell.
struct Cell {
    label: String,
    instances: usize,
    engine: EngineMode,
    /// `"micro"` or `"tpcc"` — part of the cell's baseline identity.
    workload: String,
    /// TPC-C scale factor; 0 for micro cells.
    warehouses: u64,
    multisite_pct: f64,
    sites: usize, // 0 = unconstrained
    skew: f64,
    result: DriveResult,
    coordinator_presumed_aborts: u64,
    teardown: TeardownReport,
    pinned: bool,
    /// Per-instance `(wire counters, obs snapshot)` scraped over `Stats`
    /// frames while the deployment was still live (after the measured
    /// window, before teardown).
    scrapes: Vec<(ServerStats, Snapshot)>,
    /// The instance snapshots merged — the cell's Fig. 11 breakdown.
    obs: Snapshot,
}

impl Cell {
    fn clean(&self) -> bool {
        self.teardown.clean() && self.result.client_failures == 0 && self.result.committed() > 0
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
fn cell_spec(args: &Args, pct: f64, sites: usize, skew: f64) -> MicroSpec {
    MicroSpec {
        kind: args.kind,
        rows_per_txn: args.rows_per_txn,
        multisite_pct: pct / 100.0,
        skew,
        multisite_sites: (sites >= 2).then_some(sites),
        total_rows: args.rows,
        row_size: 64,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    args: &Args,
    config: &Config,
    engine: EngineMode,
    warehouses: u64,
    pct: f64,
    sites: usize,
    skew: f64,
    n_sites: u64,
    clients: usize,
    secs: f64,
    seed: u64,
) -> Result<Cell, String> {
    let transport = if args.transport == "tcp" {
        Transport::Tcp
    } else {
        Transport::Uds
    };
    let tpcc = args.workload == "tpcc";
    let deployment = Deployment::spawn(&DeployConfig {
        instances: config.instances,
        transport,
        total_rows: args.rows,
        row_size: 64,
        retry_limit: args.retry_limit,
        engine,
        workload: if tpcc {
            DeployWorkload::Tpcc { warehouses }
        } else {
            DeployWorkload::Micro
        },
        pin: args.pin,
        spawn: SpawnMode::SelfExec,
        ..Default::default()
    })
    .map_err(|e| format!("spawn {} x{}: {e}", config.label, config.instances))?;
    let pinned = deployment.pinned();
    let deployment = Arc::new(deployment);

    let workload = if tpcc {
        DriveWorkload::Tpcc(TpccSpec {
            warehouses,
            remote_pct: pct / 100.0,
        })
    } else {
        DriveWorkload::Micro(cell_spec(args, pct, sites, skew))
    };
    let cfg = DriveConfig {
        seed,
        ..DriveConfig::closed(clients, secs, workload, n_sites)
    };
    let result = drive(&DriveTarget::Deployment(&deployment), &cfg)?;
    let coordinator_presumed_aborts = deployment.presumed_aborts();

    // Scrape every instance's live stats while the deployment still serves
    // (drive has finished, teardown has not begun): the cell's Fig. 11
    // breakdown, straight from the phase spans each child accumulated.
    let mut obs = Snapshot {
        enabled: false,
        ..Snapshot::default()
    };
    let mut scrapes = Vec::with_capacity(deployment.instances());
    for i in 0..deployment.instances() {
        let (server, snap) = Client::connect(&deployment.endpoint(i))
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("scrape instance {i}: {e}"))?;
        obs.merge(&snap);
        scrapes.push((server, snap));
    }

    let deployment = Arc::try_unwrap(deployment)
        .ok()
        .expect("all drive clients joined");
    let teardown = shutdown_deployment(deployment);
    Ok(Cell {
        label: config.label.clone(),
        instances: config.instances,
        engine,
        workload: args.workload.clone(),
        warehouses: if tpcc { warehouses } else { 0 },
        multisite_pct: pct,
        sites,
        skew,
        result,
        coordinator_presumed_aborts,
        teardown,
        pinned,
        scrapes,
        obs,
    })
}

fn class_tput(t: &ClassTally, cell: &Cell) -> f64 {
    t.committed as f64 / cell.result.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
}

fn p95(t: &ClassTally) -> u64 {
    let mut sorted = t.latencies_us.clone();
    sorted.sort_unstable();
    percentile(&sorted, 95.0)
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
            c.label,
            c.instances,
            c.engine,
            c.multisite_pct,
            sites_label(c.sites),
            c.skew,
            c.result.throughput_tps(),
            class_tput(&c.result.local, c),
            class_tput(&c.result.multi, c),
            p95(&c.result.multi),
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
    format!(
        "{{\"workload\":\"{}\",\"warehouses\":{},\"granularity\":\"{}\",\"instances\":{},\
         \"engine\":\"{}\",\"multisite_pct\":{},\
         \"sites\":{},\
         \"skew\":{},\"committed\":{},\"throughput_tps\":{:.1},\
         \"coordinator_presumed_aborts\":{},\"unclean_instances\":{},\"in_doubt_leaks\":{},\
         \"client_failures\":{},\"pinned\":{},\"elapsed_secs\":{:.3},{},\
         \"local\":{},\"multisite\":{}{tpcc_classes},\"instance_exits\":[{}]}}",
        c.workload,
        c.warehouses,
        c.label,
        c.instances,
        c.engine,
        c.multisite_pct,
        c.sites,
        c.skew,
        c.result.committed(),
        c.result.throughput_tps(),
        c.coordinator_presumed_aborts,
        c.teardown.unclean,
        c.teardown.in_doubt_leaks,
        c.result.client_failures,
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

/// One cell's raw per-instance scrape as `islands-obs/1` lines: cell
/// identity first, then the instance's wire counters, then the snapshot's
/// flat fields — the artifact the CI sweep job uploads.
fn scrape_lines(c: &Cell, out: &mut String) {
    for (i, (server, snap)) in c.scrapes.iter().enumerate() {
        out.push_str(&format!(
            "{{\"schema\":\"islands-obs/1\",\"workload\":\"{}\",\"warehouses\":{},\
             \"granularity\":\"{}\",\"instances\":{},\
             \"engine\":\"{}\",\"multisite_pct\":{},\"sites\":{},\"skew\":{},\
             \"instance\":{i},\"commits\":{},\"aborts\":{},\"prepares\":{},\
             \"decisions\":{},\"in_doubt\":{},{}}}\n",
            c.workload,
            c.warehouses,
            c.label,
            c.instances,
            c.engine,
            c.multisite_pct,
            c.sites,
            c.skew,
            server.commits,
            server.aborts,
            server.prepares,
            server.decisions,
            server.in_doubt,
            snap.json_fields(),
        ));
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    args: &Args,
    topo: &HostTopology,
    cells: &[Cell],
    n_sites: u64,
    clients: usize,
    secs: f64,
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
    let warehouses = cells.iter().map(|c| c.warehouses).max().unwrap_or(0);
    out.push_str(&format!(
        "  \"config\": {{\"workload\":\"{}\",\"warehouses\":{warehouses},\
         \"transport\":\"{}\",\"engines\":[{engines}],\
         \"clients\":{clients},\"secs\":{secs},\
         \"kind\":\"{}\",\"rows_per_txn\":{},\"rows\":{},\"n_sites\":{n_sites},\
         \"quick\":{}}},\n",
        args.workload,
        args.transport,
        args.kind.label(),
        args.rows_per_txn,
        args.rows,
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

/// Gate `cells` against a previous run's JSON: a cell fails if its matching
/// baseline cell (same granularity/instances/multisite/sites/skew) ran more
/// than `tolerance` fractionally faster than this run. Unmatched cells are
/// reported and skipped; faster-than-baseline never fails.
fn gate_against_baseline(path: &str, tolerance: f64, cells: &[Cell]) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read baseline {path}: {e}"))?;
    let baseline_cells: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"granularity\":"))
        .collect();
    if baseline_cells.is_empty() {
        return Err(format!("baseline {path} holds no sweep cells"));
    }
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for c in cells {
        let found = baseline_cells.iter().find(|l| {
            str_field(l, "granularity") == Some(c.label.as_str())
                && int_field(l, "instances") == Some(c.instances as i64)
                // Baselines written before the engine axis existed carry no
                // engine field; they were all locked-engine runs. Likewise
                // pre-workload-axis baselines were all micro runs.
                && str_field(l, "engine").unwrap_or(EngineMode::Locked.label())
                    == c.engine.label()
                && str_field(l, "workload").unwrap_or("micro") == c.workload
                && int_field(l, "warehouses").unwrap_or(0) == c.warehouses as i64
                && num_field(l, "multisite_pct") == Some(c.multisite_pct)
                && int_field(l, "sites") == Some(c.sites as i64)
                && num_field(l, "skew") == Some(c.skew)
        });
        let Some(line) = found else {
            println!(
                "baseline: no cell for {} x{} engine={} multisite={} sites={} skew={} (skipped)",
                c.label,
                c.instances,
                c.engine,
                c.multisite_pct,
                sites_label(c.sites),
                c.skew
            );
            continue;
        };
        let Some(base_tput) = num_field(line, "throughput_tps") else {
            return Err(format!("baseline cell lacks throughput_tps: {line}"));
        };
        matched += 1;
        let floor = base_tput * (1.0 - tolerance);
        let got = c.result.throughput_tps();
        if got < floor {
            failures.push(format!(
                "{} x{} engine={} multisite={} sites={} skew={}: {got:.0} tps < floor \
                 {floor:.0} (baseline {base_tput:.0}, tolerance {tolerance})",
                c.label,
                c.instances,
                c.engine,
                c.multisite_pct,
                sites_label(c.sites),
                c.skew,
            ));
        }
    }
    if matched == 0 {
        return Err(format!(
            "baseline {path} matched none of this sweep's {} cells",
            cells.len()
        ));
    }
    println!("baseline: {matched} cell(s) compared against {path}");
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "throughput below the baseline band:\n  {}",
            failures.join("\n  ")
        ))
    }
}

/// The paper-style locked-vs-serial comparison: for every workload point
/// swept under both engine modes, one line with both committed throughputs
/// and the serial/locked ratio. A record, not a gate: which engine leads at
/// 0% multisite depends on what running alone buys against what 2PL costs
/// on the box at hand (EXPERIMENTS.md, "Locked vs serial").
fn engine_comparison(cells: &[Cell]) {
    let mut printed_header = false;
    for locked in cells.iter().filter(|c| c.engine == EngineMode::Locked) {
        let Some(serial) = cells.iter().find(|c| {
            c.engine == EngineMode::Serial
                && c.label == locked.label
                && c.instances == locked.instances
                && c.multisite_pct == locked.multisite_pct
                && c.sites == locked.sites
                && c.skew == locked.skew
        }) else {
            continue;
        };
        if !printed_header {
            println!("\nlocked vs serial (committed tps):");
            printed_header = true;
        }
        let l = locked.result.throughput_tps();
        let s = serial.result.throughput_tps();
        let ratio = s / l.max(f64::MIN_POSITIVE);
        println!(
            "  {} x{} multisite={}% sites={} skew={}: locked {l:.0} serial {s:.0} (serial/locked {ratio:.2}x)",
            locked.label,
            locked.instances,
            locked.multisite_pct,
            sites_label(locked.sites),
            locked.skew,
        );
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
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
    // One logical-site count for the *whole* sweep, so every granularity is
    // judged on the same request stream: the finest instance count under
    // comparison, stretched to fit the widest --sites spread.
    let n_sites = configs
        .iter()
        .map(|c| c.instances as u64)
        .chain(args.sites.iter().map(|&s| s as u64))
        .max()
        .unwrap_or(1)
        .max(1);
    if n_sites > args.rows {
        return Err(format!(
            "--rows {} cannot back {n_sites} logical sites (the widest of \
             --instances and --sites)",
            args.rows
        ));
    }
    // TPC-C scale: one warehouse count for the *whole* sweep, so every
    // granularity runs the identical workload — defaulting to two
    // warehouses per instance of the finest granularity under comparison.
    let warehouses = if args.workload == "tpcc" {
        if args.warehouses > 0 {
            args.warehouses
        } else {
            configs
                .iter()
                .map(|c| c.instances as u64)
                .max()
                .unwrap_or(1)
                * 2
        }
    } else {
        0
    };
    // Enumerate the cells up front. The --sites axis is inert in
    // 0%-multisite cells (no multisite transactions exist to spread), so
    // only its first entry runs there — duplicate deployments would spend
    // full spawn/drive/teardown cycles measuring the same workload.
    let mut plan: Vec<(&Config, EngineMode, f64, usize, f64)> = Vec::new();
    for config in &configs {
        for &engine in &args.engines {
            for &pct in &multisite {
                for &sites in &args.sites {
                    if pct == 0.0 && sites != args.sites[0] {
                        continue;
                    }
                    for &skew in &args.skews {
                        plan.push((config, engine, pct, sites, skew));
                    }
                }
            }
        }
    }
    // Pre-flight every planned cell's workload shape through the spec's own
    // check (the single source of truth the generator asserts), so an
    // unsatisfiable combination is a clean CLI error instead of a worker
    // panic mid-sweep.
    for &(config, _, pct, sites, skew) in &plan {
        if args.workload == "tpcc" {
            TpccSpec {
                warehouses,
                remote_pct: pct / 100.0,
            }
            .check(config.instances)
            .map_err(|e| {
                format!(
                    "{} x{} multisite={pct}%: {e}",
                    config.label, config.instances
                )
            })?;
        } else {
            cell_spec(&args, pct, sites, skew)
                .check(n_sites)
                .map_err(|e| {
                    format!(
                        "multisite={pct}% sites={} skew={skew}: {e}",
                        sites_label(sites)
                    )
                })?;
        }
    }

    let total_cells = plan.len();
    let scale = if args.workload == "tpcc" {
        format!("{warehouses} warehouses")
    } else {
        format!("{} rows, n_sites={n_sites}", args.rows)
    };
    println!(
        "islands-sweep: host {} socket(s) x {} core(s); workload={}; {} config(s) x \
         {} engine(s) x {} multisite x {} sites x {} skew = {total_cells} cells \
         ({} clients, {secs}s each, {scale})",
        topo.machine.sockets,
        topo.machine.total_cores(),
        args.workload,
        configs.len(),
        args.engines.len(),
        multisite.len(),
        args.sites.len(),
        args.skews.len(),
        clients,
    );
    for c in &configs {
        println!("  config {}: {} instance process(es)", c.label, c.instances);
    }

    let mut cells: Vec<Cell> = Vec::with_capacity(total_cells);
    let mut cell_errors: Vec<String> = Vec::new();
    for (config, engine, pct, sites, skew) in plan {
        // Seed from the *attempt* index (completed + failed), so a failed
        // cell does not shift every later cell onto a reused seed and
        // break run-to-run reproducibility.
        let attempt = (cells.len() + cell_errors.len()) as u64 + 1;
        let seed = 0x5eed ^ (attempt * 0x9e37_79b9);
        print!(
            "cell {attempt}/{total_cells}: {} x{} engine={engine} multisite={pct}% \
             sites={} skew={skew} ... ",
            config.label,
            config.instances,
            sites_label(sites),
        );
        std::io::stdout().flush().ok();
        match run_cell(
            &args, config, engine, warehouses, pct, sites, skew, n_sites, clients, secs, seed,
        ) {
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
                    "{:.0} tps (local {:.0}, multi {:.0}){breakout}, leaks={}, {}",
                    cell.result.throughput_tps(),
                    class_tput(&cell.result.local, &cell),
                    class_tput(&cell.result.multi, &cell),
                    cell.teardown.in_doubt_leaks,
                    if cell.clean() { "clean" } else { "UNCLEAN" },
                );
                cells.push(cell);
            }
            Err(e) => {
                println!("FAILED: {e}");
                cell_errors.push(e);
            }
        }
    }

    println!();
    let table = markdown_table(&cells);
    print!("{table}");
    if let Some(path) = &args.markdown {
        std::fs::write(path, &table).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    write_json(&args.json, &args, &topo, &cells, n_sites, clients, secs)
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

    if !cell_errors.is_empty() {
        return Err(format!("{} cell(s) failed to run", cell_errors.len()));
    }
    let unclean: Vec<&Cell> = cells.iter().filter(|c| !c.clean()).collect();
    if !unclean.is_empty() {
        return Err(format!(
            "{} cell(s) unclean (instance exits, leaks, client failures, or zero commits)",
            unclean.len()
        ));
    }
    if let Some(baseline) = &args.baseline {
        gate_against_baseline(baseline, args.tolerance, &cells)?;
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
