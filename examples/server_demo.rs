//! Server demo: a socket-served shared-nothing deployment end to end.
//!
//! Spawns a 4-instance in-process `Cluster` behind a Unix-domain-socket server,
//! connects a client, runs local and distributed transactions plus a
//! pipelined batch, prints the typed replies, then drains the server and
//! verifies the audit invariant.
//!
//! Run with: `cargo run --release --example server_demo`

use std::sync::Arc;

use oltp_islands::server::{Client, Cluster, DeployConfig, Endpoint, Reply, Server, ServerConfig};
use oltp_islands::workload::{OpKind, TxnRequest};

fn update(keys: &[u64]) -> TxnRequest {
    TxnRequest {
        kind: OpKind::Update,
        keys: keys.to_vec(),
        multisite: keys.len() > 1,
    }
}

fn main() {
    // The deployment: 4 shared-nothing instances over 40k rows, exactly the
    // in-process quickstart cluster...
    let cfg = DeployConfig {
        instances: 4,
        total_rows: 40_000,
        row_size: 64,
        ..Default::default()
    };
    let cluster = Arc::new(Cluster::build(&cfg).unwrap());

    // ...but served over a Unix domain socket, the paper's IPC of choice.
    let mut sock = std::env::temp_dir();
    sock.push(format!("islands-demo-{}.sock", std::process::id()));
    let handle = Server::spawn(
        Arc::clone(&cluster),
        Endpoint::Uds(sock),
        ServerConfig::default(),
    )
    .unwrap();
    println!("serving 4 instances at {}", handle.endpoint());

    let mut client = Client::connect(handle.endpoint()).unwrap();
    println!("ping: {:?}", client.ping().unwrap());

    // Local transaction: all keys in instance 0, no 2PC.
    match client.submit(&update(&[1, 2, 3, 4])).unwrap() {
        Reply::Committed {
            distributed,
            server_micros,
            ..
        } => println!("local txn committed (2pc = {distributed}, {server_micros}us server-side)"),
        other => panic!("unexpected reply {other:?}"),
    }

    // Distributed transaction: keys span instances 0 and 3 -> 2PC over the
    // same socket round trip.
    match client.submit(&update(&[5, 35_000])).unwrap() {
        Reply::Committed {
            distributed,
            server_micros,
            ..
        } => println!(
            "cross-instance txn committed (2pc = {distributed}, {server_micros}us server-side)"
        ),
        other => panic!("unexpected reply {other:?}"),
    }

    // A malformed request gets a typed error, not a dead connection.
    match client.submit(&update(&[999_999_999])).unwrap() {
        Reply::Error { message } => println!("rejected as expected: {message}"),
        other => panic!("unexpected reply {other:?}"),
    }

    // Pipelining: 32 transactions in one write; the server executes them
    // back-to-back and flushes all replies at once.
    let batch: Vec<TxnRequest> = (0..32).map(|i| update(&[i * 1_000])).collect();
    let replies = client.submit_pipelined(&batch).unwrap();
    let committed = replies
        .iter()
        .filter(|r| matches!(r, Reply::Committed { .. }))
        .count();
    println!("pipelined batch: {committed}/32 committed in one round trip");

    // Drain: server stops accepting, finishes in-flight work, exits.
    client.drain_server().unwrap();
    let stats = handle.join().unwrap();
    println!(
        "drained cleanly: {} requests, {} commits, {} errors over {} connections",
        stats.requests, stats.commits, stats.errors, stats.connections
    );

    // Exactly-once accounting across the socket: 4 + 2 + 32 row updates.
    let sum = cluster.audit_sum().unwrap();
    assert_eq!(sum, 38);
    println!("audit: {sum} row updates applied  OK");
}
