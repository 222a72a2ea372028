//! TPC-C NewOrder + Payment on the in-process cluster: shared-everything
//! (one locked instance) vs fine-grained shared-nothing (four serial
//! islands) on real threads, over the same four warehouses (functional
//! demonstration of the paper's Figure 7 setup; the calibrated NUMA shapes
//! live in the simulated benches). Each client is a terminal at one home
//! warehouse and mixes NewOrders with Payments; 15 % of payments go through
//! a customer at another warehouse, which is two-phase commit wherever that
//! warehouse is another island's. Both deployments are driven by
//! `islands_bench::drive`, the loop that drives every deployment.
//!
//! Run with: `cargo run --release --example tpcc_payment`

use islands_bench::drive::{drive, ClassTally, DriveConfig, DriveTarget, DriveWorkload};
use oltp_islands::server::{Cluster, DeployConfig, DeployWorkload, EngineMode};
use oltp_islands::workload::tpcc::REMOTE_PAYMENT_PCT;
use oltp_islands::workload::TpccSpec;

const WAREHOUSES: u64 = 4;

fn class(name: &str, t: &ClassTally) {
    println!(
        "{name:>30}: {:>6} commits, {:>4} distributed, p50 {:>5} us",
        t.committed,
        t.distributed,
        t.percentile_us(50.0)
    );
}

fn main() {
    let spec = TpccSpec {
        warehouses: WAREHOUSES,
        remote_pct: REMOTE_PAYMENT_PCT,
    };
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
        // TPC-C's sites are its warehouses; the site count is unused.
        let load = DriveConfig::closed(4, 0.6, DriveWorkload::Tpcc(spec), WAREHOUSES);
        let r = drive(&DriveTarget::Cluster(&cluster), &load).unwrap();
        println!(
            "{label:>18}: {:>8.0} tps; local p50 {} us, multisite p50 {} us \
             ({} aborted, {} retries)",
            r.throughput_tps(),
            r.local.percentile_us(50.0),
            r.multi.percentile_us(50.0),
            r.local.aborted + r.multi.aborted,
            r.local.retries + r.multi.retries,
        );
        class("payment, home customer", &r.payment_local);
        class("payment, remote customer", &r.payment_multisite);
        // The row writes of every committed NewOrder and Payment, and
        // nothing else, reached the tables; no client failed or erred.
        assert_eq!(r.faults(), Vec::<String>::new(), "{label}");
    }
    println!("\n(row writes of every committed transaction verified by audit on both deployments)");
}
