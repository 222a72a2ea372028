//! Does the locked engine scale inside one instance? One shared-everything
//! TPC-C partition (8 warehouses, the `tpcc_locked` shape), N threads each
//! submitting local plans with a retry budget of 64, no sockets, obs off:
//! whatever moves between 1 and N sessions here is the engine's own sharing
//! cost — lock manager, buffer pool, B+-tree root, WAL — and nothing else.
//!
//! Run with: `cargo run --release --example locked_scaling -- SESSIONS SECONDS`
//!
//! Prints how long the partition took to build, on how many load workers
//! (one per cpu the process may run on), and how many pool frames hold
//! page memory after it, then throughput, user/sys CPU per transaction
//! (`/proc/self/stat`; zero where there is no procfs), retries, lock waits
//! and wait-die kills, pool hits and misses per transaction, and how steady
//! the run was (IQR/median of the 250 ms windows).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use oltp_islands::core::native::{PartitionConfig, PartitionEngine, TpccPartition};
use oltp_islands::workload::{TpccGenerator, TpccSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const WAREHOUSES: u64 = 8;
const WINDOW: Duration = Duration::from_millis(250);

/// One session's counters on a cache line of their own, so the probe does
/// not add the kind of sharing it is looking for.
#[repr(align(128))]
#[derive(Default)]
struct Tally {
    commits: AtomicU64,
    retries: AtomicU64,
    row_writes: AtomicU64,
}

/// `(user, system)` CPU seconds this process has used so far.
fn cpu_seconds() -> (f64, f64) {
    // Fields 14 and 15 of /proc/self/stat, counted from after the
    // parenthesised command name; in USER_HZ ticks, 100 per second on Linux.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let mut fields = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11)
        .map(|f| f.parse::<f64>().unwrap_or(0.0) / 100.0);
    (fields.next().unwrap_or(0.0), fields.next().unwrap_or(0.0))
}

fn quartile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let sessions: usize = args.next().map_or(4, |a| a.parse().expect("SESSIONS"));
    let seconds: f64 = args.next().map_or(2.0, |a| a.parse().expect("SECONDS"));
    assert!((1..256).contains(&sessions), "1..=255 sessions");

    oltp_islands::obs::set_enabled(false);
    let building = Instant::now();
    let engine = PartitionEngine::build(&PartitionConfig {
        tpcc: Some(TpccPartition {
            warehouses: WAREHOUSES,
            w_lo: 0,
            w_hi: WAREHOUSES,
        }),
        ..Default::default()
    })
    .expect("build the partition");
    let pool = engine.instance().pool();
    let workers = oltp_islands::storage::heap::load_workers();
    println!(
        "build {:.1} ms on {workers} worker{}  frames with memory {} of {}",
        building.elapsed().as_secs_f64() * 1e3,
        if workers == 1 { "" } else { "s" },
        pool.frames_with_memory(),
        pool.capacity(),
    );
    let spec = TpccSpec {
        warehouses: WAREHOUSES,
        remote_pct: 0.15,
    };

    let tallies: Vec<Tally> = (0..sessions).map(|_| Tally::default()).collect();
    let stop = AtomicBool::new(false);
    let inst = engine.instance();
    let locks_before = inst.locks().stats();
    let pool = || {
        (
            inst.pool().hits(),
            inst.pool().stats.misses.load(Ordering::Relaxed),
        )
    };
    let pool_before = pool();
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let mut windows: Vec<f64> = Vec::new();

    std::thread::scope(|scope| {
        for (client, tally) in tallies.iter().enumerate() {
            let (engine, stop) = (&engine, &stop);
            scope.spawn(move || {
                let mut generator = TpccGenerator::new(spec, client as u64);
                let mut rng = SmallRng::seed_from_u64(0x15_1A_0D_05 ^ client as u64);
                while !stop.load(Ordering::Relaxed) {
                    let plan = generator.next(&mut rng);
                    let out = engine
                        .submit_plan_local(&plan, 64)
                        .expect("a well-formed local plan");
                    tally
                        .retries
                        .fetch_add(out.retries as u64, Ordering::Relaxed);
                    if out.committed {
                        tally.commits.fetch_add(1, Ordering::Relaxed);
                        tally
                            .row_writes
                            .fetch_add(plan.write_rows(), Ordering::Relaxed);
                    }
                }
            });
        }
        let commits = || -> u64 {
            tallies
                .iter()
                .map(|t| t.commits.load(Ordering::Relaxed))
                .sum()
        };
        let mut last = (Instant::now(), commits());
        while started.elapsed().as_secs_f64() < seconds {
            std::thread::sleep(WINDOW);
            let now = (Instant::now(), commits());
            windows.push((now.1 - last.1) as f64 / (now.0 - last.0).as_secs_f64());
            last = now;
        }
        stop.store(true, Ordering::Relaxed);
    });

    let elapsed = started.elapsed().as_secs_f64();
    let cpu = cpu_seconds();
    let (locks, pool_after) = (inst.locks().stats(), pool());
    let sum = |f: fn(&Tally) -> &AtomicU64| -> u64 {
        tallies.iter().map(|t| f(t).load(Ordering::Relaxed)).sum()
    };
    let commits = sum(|t| &t.commits);
    let per_txn = |n: u64| n as f64 / commits.max(1) as f64;
    let cpu_us = |before: f64, after: f64| (after - before) * 1e6 / commits.max(1) as f64;
    windows.sort_by(f64::total_cmp);
    let spread = if windows.is_empty() {
        0.0
    } else {
        (quartile(&windows, 0.75) - quartile(&windows, 0.25)) / quartile(&windows, 0.5).max(1.0)
    };

    println!(
        "sessions {sessions}  {:.0} tps  cpu/txn {:.1} us user + {:.1} us sys  \
         retries/txn {:.3}  lock waits/txn {:.4} dies/txn {:.3} acquires/txn {:.1}  \
         pool hits/txn {:.1} misses/txn {:.3}  window IQR/median {:.1}% over {} windows",
        commits as f64 / elapsed,
        cpu_us(cpu_before.0, cpu.0),
        cpu_us(cpu_before.1, cpu.1),
        per_txn(sum(|t| &t.retries)),
        per_txn(locks.1 - locks_before.1),
        per_txn(locks.2 - locks_before.2),
        per_txn(locks.0 - locks_before.0),
        per_txn(pool_after.0 - pool_before.0),
        per_txn(pool_after.1 - pool_before.1),
        spread * 100.0,
        windows.len(),
    );
    // Exactly-once accounting, as every example ends: committed row writes
    // equal the audit sum whatever the interleaving was.
    assert_eq!(engine.audit_sum().unwrap(), sum(|t| &t.row_writes));
}
