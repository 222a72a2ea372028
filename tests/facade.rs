//! The facade crate's re-exports ARE the public API: examples, docs, and
//! downstream users reach every subsystem through `oltp_islands::{core,
//! storage, sim, memsim, net, hwtopo, dtxn, workload, server}`. These tests pin those
//! paths so a facade refactor that breaks them fails loudly.

use oltp_islands::server::{Cluster, DeployConfig, DeployReply};
use oltp_islands::workload::{OpKind, TxnRequest};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Every re-exported module path used by the examples and crate docs
/// resolves and hands back a usable value.
#[test]
fn reexported_module_paths_resolve() {
    // storage: the substrate types.
    let txn = oltp_islands::storage::TxnId(7);
    assert_eq!(txn.to_string(), "txn7");
    assert_eq!(oltp_islands::storage::PAGE_SIZE, 8192);

    // hwtopo: the paper's quad-socket machine parameterizes everything.
    let machine = oltp_islands::hwtopo::Machine::quad_socket();
    assert!(machine.total_cores() > 0);

    // memsim: a cost model over that machine.
    let cm = oltp_islands::memsim::CostModel::new(machine, 1);
    let cost = cm.charge_instr(oltp_islands::hwtopo::CoreId(0), 10);
    assert!(cost > 0);

    // net: the Figure 6 IPC mechanisms.
    assert!(!oltp_islands::net::IpcMechanism::ALL.is_empty());

    // sim: the DES kernel runs (an empty run completes at time zero).
    let sim = oltp_islands::sim::Sim::new();
    sim.run();
    assert_eq!(oltp_islands::sim::PS_PER_MS, 1_000_000_000);

    // dtxn: protocol vocabulary.
    let vote = oltp_islands::dtxn::Vote::ReadOnly;
    assert_ne!(vote, oltp_islands::dtxn::Vote::No);

    // workload: the Zipf sampler stays in range through the facade path.
    let zipf = oltp_islands::workload::Zipf::new(100, 0.9);
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..50 {
        assert!(zipf.sample(&mut rng) < 100);
    }

    // core: crate-root re-exports of the deployment vocabulary.
    assert_eq!(oltp_islands::core::instance_of_site(23, 24, 4), 3);
    let sites = oltp_islands::core::Sites::Range(oltp_islands::core::partition::RangeSites {
        total_rows: 100,
        n_sites: 4,
    });
    assert_eq!(sites.site_of(0, 99), 3);
}

/// A one-op transaction through the facade: build a tiny in-process
/// cluster, commit a single local update, and read it back via the audit.
#[test]
fn native_cluster_one_op_round_trip() {
    let cluster = Cluster::build(&DeployConfig {
        instances: 2,
        total_rows: 200,
        row_size: 16,
        ..Default::default()
    })
    .unwrap();

    let plan = TxnRequest {
        kind: OpKind::Update,
        keys: vec![7],
        multisite: false,
    }
    .to_plan();
    let DeployReply::Outcome(out) = cluster.client().submit_plan(&plan).unwrap() else {
        panic!("a well-formed plan gets an outcome");
    };
    assert!(out.committed);
    assert!(!out.distributed, "single-key txn must stay local");
    assert_eq!(cluster.n_instances(), 2);
    assert_eq!(cluster.audit_sum().unwrap(), 1, "exactly one row updated");
}
