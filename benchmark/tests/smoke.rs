//! Runs the built benchmark the way the driver does — from the checkout
//! root, one workload per invocation — in `--quick` mode, and holds it to
//! the contract: the gate passes, nothing fails, and the last line carries
//! exactly the metrics `BENCHMARK.json` declares for that kind of run.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::Path;
use std::process::Command;

use json::Json;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
}

fn declared(benchmark: &Json, list: &str) -> Vec<(String, String)> {
    benchmark
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One `--quick` run; returns the parsed last line of its stdout.
fn quick_run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_islands-benchmark"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "11", "--quick"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn quick_runs_pass_the_gate_and_print_exactly_the_declared_metrics() {
    let src = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let benchmark = json::parse(&src).expect("BENCHMARK.json parses");
    // Every workload the package defines is smoke-tested; the gated ones
    // (`BENCHMARK.json`) are a subset with the same names.
    let workloads = [
        "micro_local",
        "micro_multisite",
        "tpcc_locked",
        "micro_durable",
    ];
    let gated = declared_names(&benchmark);
    assert!(gated.len() >= 2 && gated.iter().all(|g| workloads.contains(&g.as_str())));
    for workload in &workloads {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = declared(&benchmark, list);
            assert!(want.iter().all(|(n, _)| valid_name(n)), "{list} names");
            let line = quick_run(workload, trace);
            let keys: Vec<&str> = line
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let got: Vec<(String, String)> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload} {name}: {m:?}"
                    );
                    assert_eq!(
                        m.as_obj().map(<[_]>::len),
                        Some(2),
                        "{name}: value and unit only"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, want, "{workload} --trace {}", trace as u8);
            if !trace {
                for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap() {
                    let v = m.get("value").and_then(Json::as_f64).unwrap();
                    assert!(v > 0.0, "end-to-end metric {name} must never be 0");
                }
            }
        }
    }
}

fn declared_names(benchmark: &Json) -> Vec<String> {
    benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn compare_flags_a_breach_and_accepts_identical_sets() {
    let dir = repo_root().join("benchmark/out");
    std::fs::create_dir_all(&dir).unwrap();
    let result = |tps: f64| {
        format!(
            "{{\"results\": [{{\"workload\": \"micro_local\", \"metrics\": {{\
             \"tps\": {{\"value\": {tps}, \"spread\": 0.01}}, \
             \"p50_us\": {{\"value\": 160.0, \"spread\": 0.01}}, \
             \"committed_share\": {{\"value\": 1.0, \"spread\": 0.0}}, \
             \"setup_s\": {{\"value\": 0.05, \"spread\": 0.02}}, \
             \"restart_s\": {{\"value\": 0.04, \"spread\": 0.02}}}}}}]}}"
        )
    };
    let (a, b, c) = (
        dir.join("cmp-test-a.json"),
        dir.join("cmp-test-b.json"),
        dir.join("cmp-test-c.json"),
    );
    std::fs::write(&a, result(12_000.0)).unwrap();
    std::fs::write(&b, result(12_100.0)).unwrap();
    std::fs::write(&c, result(6_000.0)).unwrap();
    let compare = |x: &Path, y: &Path| {
        Command::new(env!("CARGO_BIN_EXE_islands-benchmark"))
            .current_dir(repo_root())
            .arg("--compare")
            .args([x, y])
            .output()
            .expect("run --compare")
    };
    assert!(compare(&a, &b).status.success());
    let halved = compare(&a, &c);
    assert!(!halved.status.success(), "a 2x tps regression must fail");
    assert!(String::from_utf8_lossy(&halved.stdout).contains("BREACH"));
    for f in [a, b, c] {
        let _ = std::fs::remove_file(f);
    }
}
