//! Quickstart: build an in-process shared-nothing deployment, run a local
//! and a distributed transaction, then drive it closed loop through
//! `islands_bench::drive`, the loop that drives every deployment.
//!
//! Run with: `cargo run --release --example quickstart`

use islands_bench::drive::{drive, DriveConfig, DriveTarget, DriveWorkload};
use oltp_islands::server::{Cluster, DeployConfig, DeployReply};
use oltp_islands::workload::{MicroSpec, OpKind, PlanRequest, TxnRequest};

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
    drop(client);

    // Four closed-loop clients for half a second: 2-row updates, 20 % of
    // them across instances.
    let spec = MicroSpec {
        total_rows: cfg.total_rows,
        ..MicroSpec::new(OpKind::Update, 2, 0.2)
    };
    let load = DriveConfig::closed(4, 0.5, DriveWorkload::Micro(spec), cfg.instances as u64);
    let r = drive(&DriveTarget::Cluster(&cluster), &load).unwrap();
    println!(
        "closed loop: {:.0} tps; local p50 {} us, multisite p50 {} us \
         ({} commits, {} distributed, {} aborted, {} retries)",
        r.throughput_tps(),
        r.local.percentile_us(50.0),
        r.multi.percentile_us(50.0),
        r.committed(),
        r.multi.distributed,
        r.local.aborted + r.multi.aborted,
        r.local.retries + r.multi.retries,
    );
    // The one verdict, exactly-once accounting included: the audit sum
    // moved by the row writes of the committed transactions, no more, no
    // less, and no client failed or saw an error.
    assert_eq!(r.faults(), Vec::<String>::new());
    println!(
        "audit: {} row updates applied = 2 x {} committed txns  OK",
        r.committed_writes(),
        r.committed()
    );
}
