//! TPC-C Payment on the in-process cluster: shared-everything (one locked
//! instance) vs fine-grained shared-nothing (four serial islands) on real
//! threads, over the same four warehouses (functional demonstration of the
//! paper's Figure 7 setup; the calibrated NUMA shapes live in the simulated
//! benches). 15 % of payments go through a customer at another warehouse,
//! which is two-phase commit wherever that warehouse is another island's.
//!
//! Run with: `cargo run --release --example tpcc_payment`

use std::time::Duration;

use oltp_islands::server::{Cluster, DeployConfig, DeployWorkload, EngineMode};
use oltp_islands::workload::tpcc::{PaymentGenerator, PAYMENT_BY_NAME_PCT, REMOTE_PAYMENT_PCT};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WAREHOUSES: u64 = 4;

fn main() {
    let payments = PaymentGenerator::new(WAREHOUSES, REMOTE_PAYMENT_PCT);
    for (label, instances, engine) in [
        ("shared-everything", 1usize, EngineMode::Locked),
        ("4 islands", 4, EngineMode::Serial),
    ] {
        let cluster = Cluster::build(&DeployConfig {
            instances,
            engine,
            workload: DeployWorkload::Tpcc {
                warehouses: WAREHOUSES,
            },
            ..Default::default()
        })
        .unwrap();
        let loaded = cluster.audit_sum().unwrap();
        let r = cluster.run_closed_loop(4, Duration::from_millis(600), |t, seq| {
            let mut rng = SmallRng::seed_from_u64((t as u64) << 32 | seq);
            // Each worker is a terminal homed at one warehouse; its history
            // rows are keyed by warehouse, terminal and sequence number.
            let home = t as u64 % WAREHOUSES;
            let history_key = home << 32 | (t as u64) << 24 | (seq + 1);
            payments
                .next(&mut rng, home)
                .plan(history_key, rng.gen_bool(PAYMENT_BY_NAME_PCT))
        });
        println!(
            "{label:>18}: {:>8.0} tps ({} commits, {} distributed, {} aborts)",
            r.tps(),
            r.commits,
            r.distributed,
            r.aborts
        );
        // Warehouse, district and customer updated, one history row inserted.
        assert_eq!(cluster.audit_sum().unwrap() - loaded, r.commits * 4);
    }
    println!("\n(4 row writes per committed payment verified by audit on both deployments)");
}
