//! The repo's benchmark: four served-deployment workloads measured end to
//! end, and a traced run that attributes their latency layer by layer.
//! See `README.md` beside this package and `BENCHMARK.json` at the root.

mod compare;
mod env;
mod json;
mod layers;
mod load;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Json;
use run::Outcome;

/// Every fallible step of a run reports what it was doing, as text.
type Res<T> = Result<T, String>;

/// `map_err` adaptor: prefix an error with the step that hit it.
fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

const USAGE: &str = "islands-benchmark - measure a served islands deployment

USAGE (from the checkout root):
  islands-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  islands-benchmark --compare A.json B.json

OPTIONS:
  --workload NAME   micro_local | micro_multisite | tpcc_locked | micro_durable | all
  --seed N          seed of the request streams (default 1)
  --seconds S       measured seconds per run, split into 12 segments (default:
                    run_seconds of BENCHMARK.json)
  --trace 0|1       0 (default): measured run, observability off, prints the
                    end-to-end metrics; 1: traced run, prints the per-layer
                    metrics and writes benchmark/out/trace-<workload>.jsonl
  --quick           third-of-a-second segments and a short warm-up (smoke tests)
  --out PATH        where to write the full result (default
                    benchmark/out/result-<workload|all>[-trace].json)
  --compare A B     compare two result files metric by metric against the
                    bounds of BENCHMARK.json; non-zero exit on a breach
";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace 0|1, got {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("--out")?),
            "--compare" => args.compare = Some((value("--compare")?, value("--compare")?)),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
    }
    Ok(args)
}

/// `run_seconds` of the `BENCHMARK.json` in the current directory.
fn declared_run_seconds() -> Result<f64, String> {
    let src = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    json::parse(&src)?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".into())
}

fn run_one(w: &workloads::Workload, args: &Args) -> Result<Outcome, String> {
    let (seconds, warmup_s) = match (args.quick, args.seconds) {
        (true, _) => (load::SEGMENTS as f64 / 3.0, 0.5),
        (false, Some(s)) => (s, 3.0),
        (false, None) => (declared_run_seconds()?, 3.0),
    };
    if args.trace {
        trace::run(w, args.seed, seconds, args.quick)
    } else {
        run::measure(w, args.seed, seconds, warmup_s)
    }
}

fn run_workloads(args: &Args) -> Result<bool, String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("--workload is required (see --help)")?;
    let selected = match name {
        "all" => workloads::all(),
        one => vec![workloads::by_name(one).ok_or_else(|| format!("unknown workload {one}"))?],
    };
    let mut outcomes = Vec::new();
    for w in &selected {
        let outcome = run_one(w, args)?;
        outcome.print_human();
        outcomes.push(outcome);
    }
    let file = args.out.clone().unwrap_or_else(|| {
        format!(
            "{}/result-{name}{}.json",
            env::OUT_DIR,
            if args.trace { "-trace" } else { "" }
        )
    });
    let set = json::obj(vec![(
        "results",
        Json::Arr(outcomes.iter().map(Outcome::to_json).collect()),
    )]);
    if let Some(dir) = std::path::Path::new(&file).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&file, set.render() + "\n").map_err(|e| format!("write {file}: {e}"))?;
    println!("wrote {file}");
    // The contract's last line describes one workload; `all` prints one per
    // workload in order, the final one last.
    for outcome in &outcomes {
        println!("{}", outcome.summary_line());
    }
    Ok(outcomes.iter().all(Outcome::correct))
}

fn main() -> ExitCode {
    // Spawned as `--instance-child ...`: this process is one of a
    // deployment's instances. Serve the partition and exit.
    islands_server::deploy::run_instance_child_if_requested();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("islands-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.compare {
        Some((a, b)) => compare::run(a, b),
        None => run_workloads(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("islands-benchmark: FAILED (see the checks above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("islands-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
