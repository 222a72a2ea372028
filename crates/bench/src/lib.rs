//! Shared helpers for the figure/table benchmark harness.
//!
//! Every `benches/figNN_*.rs` target (declared `harness = false`) prints
//! the rows/series of one figure or table of *OLTP on Hardware Islands*.
//! Absolute numbers are the simulator's; EXPERIMENTS.md records them next
//! to the paper's and discusses the shapes.

#![forbid(unsafe_code)]

pub mod drive;
pub mod jsonscan;

use islands_core::simrt::{run, RunResult, SimClusterConfig, SimWorkload};
use islands_hwtopo::Machine;
use islands_workload::{MicroSpec, OpKind};

/// Default virtual warmup/measure windows for bench sweeps (ms).
pub const WARMUP_MS: u64 = 2;
pub const MEASURE_MS: u64 = 8;

/// A quick simulated run on `machine` with `n` instances.
pub fn sim_run(machine: Machine, n: usize, workload: &SimWorkload, seed: u64) -> RunResult {
    let mut cfg = SimClusterConfig::new(machine, n);
    cfg.warmup_ms = WARMUP_MS;
    cfg.measure_ms = MEASURE_MS;
    cfg.seed = seed;
    run(&cfg, workload)
}

/// Microbenchmark spec shorthand.
pub fn micro(kind: OpKind, rows: usize, multisite: f64) -> SimWorkload {
    SimWorkload::Micro(MicroSpec::new(kind, rows, multisite))
}

/// Print a table header like `config | col col col`.
pub fn header(title: &str, cols: &[String]) {
    println!("\n=== {title} ===");
    print!("{:>10} |", "config");
    for c in cols {
        print!(" {c:>9}");
    }
    println!();
}

/// Print one row of a sweep table.
pub fn row(label: &str, values: &[f64]) {
    print!("{label:>10} |");
    for v in values {
        print!(" {v:>9.1}");
    }
    println!();
}
