//! Quickstart: build an in-process shared-nothing deployment, run local and
//! distributed transactions, then a short closed-loop burst.
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Duration;

use oltp_islands::server::{Cluster, DeployConfig, DeployReply};
use oltp_islands::workload::{OpKind, PlanRequest, TxnRequest};

fn update(keys: &[u64]) -> PlanRequest {
    TxnRequest {
        kind: OpKind::Update,
        keys: keys.to_vec(),
        multisite: keys.len() > 1,
    }
    .to_plan()
}

fn main() {
    // 4 locked (2PL) instances over 40k rows.
    let cfg = DeployConfig {
        instances: 4,
        total_rows: 40_000,
        row_size: 64,
        ..Default::default()
    };
    let cluster = Cluster::build(&cfg).unwrap();
    println!(
        "built {} instances over {} rows",
        cluster.n_instances(),
        cfg.total_rows
    );

    // One coordinator: a session on every instance, as a deployment's
    // client holds a socket to every process.
    let mut client = cluster.client();
    let mut run = |what: &str, plan: &PlanRequest| match client.submit_plan(plan).unwrap() {
        DeployReply::Outcome(o) if o.committed => {
            println!("{what} txn committed (2pc = {})", o.distributed)
        }
        other => panic!("{what} txn did not commit: {other:?}"),
    };
    // A local transaction (all keys in instance 0).
    run("local", &update(&[0, 1, 2, 3]));
    // A distributed transaction (keys span instances -> 2PC).
    run("cross-instance", &update(&[5, 35_000]));

    // Closed-loop workers for half a second.
    let total_rows = cfg.total_rows;
    let result = cluster.run_closed_loop(4, Duration::from_millis(500), move |t, seq| {
        let a = (t as u64 * 977 + seq * 13) % total_rows;
        update(&[a, (a + 911) % total_rows])
    });
    println!(
        "closed loop: {} commits ({} distributed, {} aborts) -> {:.0} tps",
        result.commits,
        result.distributed,
        result.aborts,
        result.tps()
    );
    // Exactly-once accounting: the 4-op local txn, the 2-op distributed txn,
    // then 2 rows per closed-loop commit.
    let sum = cluster.audit_sum().unwrap();
    assert_eq!(sum, result.commits * 2 + 6);
    println!(
        "audit: {} row updates applied = 4 + 2 + 2 x {} committed txns  OK",
        sum, result.commits
    );
}
