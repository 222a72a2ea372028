//! TPC-C-lite Payment on the in-process cluster: shared-everything (one
//! locked instance) vs fine-grained shared-nothing (four serial islands) on
//! real threads (functional demonstration of the paper's Figure 7 setup;
//! the calibrated NUMA shapes live in the simulated benches).
//!
//! Run with: `cargo run --release --example tpcc_payment`

use std::time::Duration;

use oltp_islands::server::{Cluster, ClusterConfig, EngineMode};
use oltp_islands::workload::plan::{PlanClass, PlanRequest, PlanStep, StepOp, MICRO_TABLE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Payment-shaped plan over the micro table: one hot "warehouse" row, one
/// "district" row, one "customer" row (all updates).
fn payment_plan(
    rng: &mut SmallRng,
    warehouses: u64,
    rows: u64,
    home: u64,
    remote_pct: f64,
) -> PlanRequest {
    let w_row = home; // warehouse rows live at keys 0..warehouses
    let d_row = warehouses + home * 10 + rng.gen_range(0..10u64);
    let c_w = if rng.gen_bool(remote_pct) {
        (home + 1 + rng.gen_range(0..warehouses - 1)) % warehouses
    } else {
        home
    };
    let c_row = warehouses * 11
        + (c_w * (rows - warehouses * 11) / warehouses)
        + rng.gen_range(0..(rows - warehouses * 11) / warehouses);
    PlanRequest {
        class: PlanClass::Payment,
        multisite: c_w != home,
        steps: [w_row, d_row, c_row]
            .into_iter()
            .map(|key| PlanStep::point(MICRO_TABLE, key, StepOp::Update))
            .collect(),
    }
}

fn main() {
    let rows = 44_000u64;
    let warehouses = 4u64;
    for (label, n_instances, engine) in [
        ("shared-everything", 1usize, EngineMode::Locked),
        ("4 islands", 4, EngineMode::Serial),
    ] {
        let cluster = Cluster::build(&ClusterConfig {
            n_instances,
            total_rows: rows,
            row_size: 64,
            engine,
            ..Default::default()
        })
        .unwrap();
        let r = cluster.run_closed_loop(4, Duration::from_millis(600), move |t, seq| {
            let mut rng = SmallRng::seed_from_u64((t as u64) << 32 | seq);
            // Each worker is a terminal homed at one warehouse.
            payment_plan(&mut rng, warehouses, rows, t as u64 % warehouses, 0.15)
        });
        println!(
            "{label:>18}: {:>8.0} tps ({} commits, {} distributed, {} aborts)",
            r.tps(),
            r.commits,
            r.distributed,
            r.aborts
        );
        assert_eq!(cluster.audit_sum().unwrap(), r.commits * 3);
    }
    println!("\n(3 updates per committed payment verified by audit on both deployments)");
}
