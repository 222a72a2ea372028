//! Server demo: a spawned shared-nothing deployment end to end.
//!
//! Spawns 4 instance processes (this binary re-executed as each child),
//! each serving one partition over a Unix domain socket, and drives them
//! the way every served run does: a coordinator in this process routes a
//! local transaction to its owner and runs wire-level 2PC for a
//! distributed one. Then a typed error, a pipelined batch straight to each
//! instance, the audit invariant, and a drain.
//!
//! Run with: `cargo run --release --example server_demo`

use std::sync::Arc;

use oltp_islands::server::deploy::run_instance_child_if_requested;
use oltp_islands::server::{Client, DeployConfig, DeployReply, Deployment, Reply};
use oltp_islands::workload::{OpKind, TxnRequest};

fn update(keys: &[u64]) -> TxnRequest {
    TxnRequest {
        kind: OpKind::Update,
        keys: keys.to_vec(),
        multisite: keys.len() > 1,
    }
}

fn main() {
    // Spawned as one of the instances below: serve the partition and exit.
    run_instance_child_if_requested();

    // The deployment: 4 shared-nothing instances over 40k rows, the
    // quickstart cluster's shape, each its own process.
    let cfg = DeployConfig {
        instances: 4,
        total_rows: 40_000,
        row_size: 64,
        pin: false,
        ..Default::default()
    };
    let deploy = Arc::new(Deployment::spawn(&cfg).unwrap());
    for i in 0..deploy.instances() {
        let (lo, hi) = deploy.range(i);
        println!("instance {i}: keys {lo}..{hi} at {}", deploy.endpoint(i));
    }
    let mut coordinator = deploy.client().unwrap();
    let rtt = Client::connect(&deploy.endpoint(0))
        .unwrap()
        .ping()
        .unwrap();
    println!("ping instance 0: {rtt:?}");

    // Local transaction: all keys in instance 0, one SubmitPlan frame.
    // Distributed: keys in instances 0 and 3, prepare/vote/decision/ack
    // over both sockets.
    for (what, keys) in [
        ("local", &[1, 2, 3, 4][..]),
        ("cross-instance", &[5, 35_000]),
    ] {
        match coordinator.submit(&update(keys)).unwrap() {
            DeployReply::Outcome(o) if o.committed => {
                println!("{what} txn committed (2pc = {})", o.distributed)
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    // A request no instance can satisfy gets a typed error, not a dead link.
    match coordinator.submit(&update(&[999_999_999])).unwrap() {
        DeployReply::ServerError(message) => println!("rejected as expected: {message}"),
        other => panic!("unexpected reply {other:?}"),
    }

    // Pipelining: 8 local transactions per instance, each batch in one
    // write; the instance executes them back-to-back and flushes all
    // replies at once.
    let mut committed = 0;
    for i in 0..deploy.instances() {
        let (lo, _) = deploy.range(i);
        let batch: Vec<TxnRequest> = (0..8).map(|k| update(&[lo + 100 + k * 100])).collect();
        let mut client = Client::connect(&deploy.endpoint(i)).unwrap();
        let replies = client.submit_pipelined(&batch).unwrap();
        committed += replies
            .iter()
            .filter(|r| matches!(r, Reply::Committed { .. }))
            .count();
    }
    println!("pipelined batches: {committed}/32 committed, one round trip per instance");

    // Exactly-once accounting across the processes: 4 + 2 + 32 row updates.
    let sum = coordinator.audit_total().unwrap();
    assert_eq!(sum, 38);
    println!("audit: {sum} row updates applied  OK");

    // Drain: every instance stops accepting, finishes in-flight work, exits.
    drop(coordinator);
    let deploy = Arc::try_unwrap(deploy).ok().expect("every client dropped");
    let exits = deploy.shutdown();
    for exit in &exits {
        let stats = exit.stats.unwrap_or_default();
        println!(
            "instance {} drained {}: {} requests, {} commits, {} errors, {} in doubt",
            exit.index,
            if exit.clean { "cleanly" } else { "UNCLEAN" },
            stats.requests,
            stats.commits,
            stats.errors,
            stats.in_doubt,
        );
    }
    assert!(exits.iter().all(|e| e.clean), "every instance drains clean");
}
