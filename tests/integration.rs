//! Cross-crate integration tests: the native engine, the simulated engine,
//! and the protocol invariants that tie them together.

use std::sync::Arc;

use islands_bench::drive::{drive, DriveConfig, DriveTarget, DriveWorkload};
use oltp_islands::core::simrt::{run_with_audit, SimClusterConfig, SimWorkload};
use oltp_islands::hwtopo::Machine;
use oltp_islands::server::{
    Backend, Cluster, ClusterClient, DeployConfig, DeployOutcome, DeployReply, EngineMode,
};
use oltp_islands::storage::store::MemStore;
use oltp_islands::storage::wal::MemLogDevice;
use oltp_islands::storage::{InstanceOptions, StorageInstance};
use oltp_islands::workload::{MicroSpec, OpKind, PlanRequest, TxnRequest};

fn upd(keys: &[u64]) -> PlanRequest {
    TxnRequest {
        kind: OpKind::Update,
        keys: keys.to_vec(),
        multisite: keys.len() > 1,
    }
    .to_plan()
}

fn run(client: &mut ClusterClient<'_>, plan: &PlanRequest) -> DeployOutcome {
    match client.submit_plan(plan).unwrap() {
        DeployReply::Outcome(o) => o,
        other => panic!("expected an outcome, got {other:?}"),
    }
}

#[test]
fn native_2pc_is_atomic_across_instances() {
    let cluster = Cluster::build(&DeployConfig {
        instances: 8,
        total_rows: 8_000,
        row_size: 16,
        ..Default::default()
    })
    .unwrap();
    // Touch all 8 instances in one transaction.
    let keys: Vec<u64> = (0..8).map(|i| i * 1_000 + 5).collect();
    let out = run(&mut cluster.client(), &upd(&keys));
    assert!(out.committed && out.distributed);
    assert_eq!(cluster.audit_sum().unwrap(), 8, "all-or-nothing");
}

#[test]
fn native_concurrent_mixed_load_conserves_updates() {
    // Six clients of 3-row updates over 4 instances, every one multisite.
    let cfg = DeployConfig {
        instances: 4,
        total_rows: 2_000,
        row_size: 16,
        ..Default::default()
    };
    let cluster = Cluster::build(&cfg).unwrap();
    let spec = MicroSpec {
        total_rows: cfg.total_rows,
        ..MicroSpec::new(OpKind::Update, 3, 1.0)
    };
    let load = DriveConfig::closed(6, 0.4, DriveWorkload::Micro(spec), 4);
    let r = drive(&DriveTarget::Cluster(&cluster), &load).unwrap();
    assert_eq!((r.client_failures, r.multi.errors), (0, 0));
    assert!(r.committed() > 0);
    assert!(r.multi.distributed > 0);
    assert_eq!(r.audit_delta, Some(r.committed_writes()));
}

#[test]
fn recovery_across_checkpoint_and_2pc() {
    // Build an instance, prepare a txn, "crash", recover, resolve in doubt.
    let store: Arc<dyn oltp_islands::storage::store::PageStore> = Arc::new(MemStore::new());
    let dev = MemLogDevice::new();
    {
        let inst = StorageInstance::create(
            Arc::clone(&store),
            dev.clone(),
            InstanceOptions {
                buffer_frames: 256,
                ..Default::default()
            },
        );
        let t = inst.create_table("t", 16).unwrap();
        t.load((0..50u64).map(|k| (k, [0u8; 16]))).unwrap();
        inst.checkpoint().unwrap();
        // One committed txn, one in-doubt prepared txn.
        let mut a = inst.begin();
        a.update("t", 1, &[1u8; 16]).unwrap();
        a.commit().unwrap();
        let mut b = inst.begin();
        b.update("t", 2, &[2u8; 16]).unwrap();
        b.prepare(42).unwrap();
        std::mem::forget(b); // crash while prepared
    }
    let (inst, mut in_doubt) = StorageInstance::recover(
        store,
        dev,
        InstanceOptions {
            buffer_frames: 256,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(in_doubt.len(), 1);
    // Coordinator decision arrives: commit.
    let (gtid, branch) = in_doubt.pop().unwrap();
    assert_eq!(gtid, 42);
    branch.decide(true).unwrap();
    let mut txn = inst.begin();
    assert_eq!(txn.read("t", 1).unwrap(), Some(vec![1u8; 16]));
    assert_eq!(txn.read("t", 2).unwrap(), Some(vec![2u8; 16]));
    txn.commit().unwrap();
}

#[test]
fn sim_exactly_once_under_multisite_and_skew() {
    let cells = [
        (24usize, 0.5, 0.0),
        (4, 0.2, 0.9),
        (1, 0.0, 0.99),
        // Every transaction distributed onto hot rows: wait-die kills reach
        // the 2PC machines as early No votes and late Yes votes.
        (4, 1.0, 0.9),
    ];
    for (n, pct, skew) in cells {
        let spec = MicroSpec::new(OpKind::Update, 3, pct).with_skew(skew);
        let mut cfg = SimClusterConfig::new(Machine::quad_socket(), n);
        cfg.warmup_ms = 2;
        cfg.measure_ms = 6;
        let (r, audit) = run_with_audit(&cfg, &SimWorkload::Micro(spec));
        assert!(
            r.commits > 50,
            "{n}ISL pct={pct} skew={skew}: {}",
            r.commits
        );
        assert_eq!(
            audit.applied_row_updates, audit.committed_row_writes,
            "{n}ISL pct={pct} skew={skew}"
        );
        if pct == 1.0 {
            assert!(
                r.aborts > 0 && r.distributed > 0,
                "{n}ISL pct={pct} skew={skew}: {} aborts, {} distributed",
                r.aborts,
                r.distributed
            );
        }
    }
}

#[test]
fn sim_is_deterministic_for_a_seed() {
    let mk = || {
        let mut cfg = SimClusterConfig::new(Machine::quad_socket(), 4);
        cfg.warmup_ms = 1;
        cfg.measure_ms = 4;
        cfg.seed = 1234;
        run_with_audit(
            &cfg,
            &SimWorkload::Micro(MicroSpec::new(OpKind::Update, 4, 0.3)),
        )
        .0
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.aborts, b.aborts);
    assert_eq!(a.distributed, b.distributed);
    assert_eq!(a.breakdown, b.breakdown);
}

#[test]
fn headline_results_hold() {
    // Paper headline 1: perfectly partitionable workloads favor
    // fine-grained shared-nothing over shared-everything.
    let mk = |n: usize, wl: &SimWorkload| {
        let mut cfg = SimClusterConfig::new(Machine::quad_socket(), n);
        cfg.warmup_ms = 2;
        cfg.measure_ms = 8;
        run_with_audit(&cfg, wl).0.ktps()
    };
    let local_read = SimWorkload::Micro(MicroSpec::new(OpKind::Read, 10, 0.0));
    let fg = mk(24, &local_read);
    let se = mk(1, &local_read);
    assert!(
        fg > se * 1.5,
        "FG {fg:.0} must beat SE {se:.0} on local reads"
    );

    // Paper headline 2: at 100% multisite, shared-everything wins.
    let all_multi = SimWorkload::Micro(MicroSpec::new(OpKind::Read, 10, 1.0));
    let fg = mk(24, &all_multi);
    let se = mk(1, &all_multi);
    assert!(
        se > fg * 1.5,
        "SE {se:.0} must beat FG {fg:.0} at 100% multisite"
    );

    // Paper headline 3: under heavy skew, islands degrade more gracefully
    // than fine-grained shared-nothing.
    let skewed = SimWorkload::Micro(MicroSpec::new(OpKind::Update, 2, 0.2).with_skew(1.0));
    let fg = mk(24, &skewed);
    let cg = mk(4, &skewed);
    assert!(
        cg > fg * 2.0,
        "CG {cg:.0} must beat FG {fg:.0} under heavy skew"
    );
}

#[test]
fn native_single_threaded_fine_grained_optimization() {
    // Serial islands run one transaction at a time, which disables locking
    // entirely; the throughput path — 2PC branches included — stays correct.
    let cluster = Cluster::build(&DeployConfig {
        instances: 2,
        total_rows: 200,
        row_size: 16,
        engine: EngineMode::Serial,
        ..Default::default()
    })
    .unwrap();
    let mut client = cluster.client();
    for k in 0..10 {
        assert!(run(&mut client, &upd(&[k])).committed);
    }
    assert!(run(&mut client, &upd(&[50, 150])).distributed);
    for i in 0..2 {
        let Backend::Executor(island) = cluster.instance(i) else {
            panic!("serial clusters are made of executors");
        };
        let (acquires, _, _) = island.lock_stats().unwrap();
        assert_eq!(acquires, 0, "serial instances skip the lock manager");
    }
    assert_eq!(cluster.audit_sum().unwrap(), 12);
}
