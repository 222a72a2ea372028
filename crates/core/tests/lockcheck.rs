//! The serial engine under the `lockcheck` race detector: a deliberately
//! mis-routed key is caught, clean partitioned execution is not.
//! (Compiled only with `--features lockcheck`.)

#![cfg(feature = "lockcheck")]

use std::sync::Arc;

use islands_core::native::{EngineMode, ExecError, PartitionConfig, PartitionEngine};
use islands_storage::lockcheck::Scope;
use islands_workload::{OpKind, TxnRequest};

/// A serial partition over `lo..hi`.
fn executor(lo: u64, hi: u64) -> Arc<PartitionEngine> {
    let engine = PartitionEngine::build(&PartitionConfig {
        lo,
        hi,
        row_size: 16,
        buffer_frames: 256,
        single_threaded: true,
        ..Default::default()
    });
    Arc::new(engine.expect("build serial partition"))
}

fn update(keys: &[u64]) -> TxnRequest {
    TxnRequest {
        kind: OpKind::Update,
        keys: keys.to_vec(),
        multisite: false,
    }
}

#[test]
fn disjoint_serial_partitions_run_clean_under_lockcheck() {
    let a = executor(0, 100);
    let b = executor(100, 200);
    let scope = Scope::new();
    a.set_lockcheck_scope(Arc::clone(&scope));
    b.set_lockcheck_scope(Arc::clone(&scope));
    for k in [5u64, 50, 99] {
        assert!(a.submit_local(&update(&[k]), 0).unwrap().committed);
    }
    for k in [100u64, 150, 199] {
        assert!(b.submit_local(&update(&[k]), 0).unwrap().committed);
    }
    assert_eq!(a.audit_sum().unwrap(), 3);
    assert_eq!(b.audit_sum().unwrap(), 3);
}

#[test]
fn mis_routed_key_in_the_serial_engine_is_caught() {
    // The deliberate routing bug: two "partitions" whose ranges overlap on
    // [50, 100), registered into one ownership scope. Key 60 exists on
    // both, so a request for it can be routed to either — exactly the bug
    // class lockcheck exists to catch.
    let a = executor(0, 100);
    let b = executor(50, 150);
    let scope = Scope::new();
    a.set_lockcheck_scope(Arc::clone(&scope));
    b.set_lockcheck_scope(Arc::clone(&scope));

    assert!(
        a.submit_local(&update(&[60]), 0).unwrap().committed,
        "first owner"
    );

    // The mis-route: the same key reaches partition B. The detector panics
    // on the thread that ran it (the message names the key), and the
    // partition whose turn it died holding answers `Gone` from then on.
    let sb = Arc::clone(&b);
    let misrouted = std::thread::spawn(move || sb.submit_local(&update(&[60]), 0)).join();
    assert!(
        misrouted.is_err(),
        "lockcheck must kill the session that ran a mis-routed key"
    );
    assert!(matches!(
        b.submit_local(&update(&[120]), 0),
        Err(ExecError::Gone)
    ));

    // Partition A is untouched and keeps serving.
    assert!(a.submit_local(&update(&[10]), 0).unwrap().committed);
    assert_eq!(a.audit_sum().unwrap(), 2);
}

#[test]
fn serial_mode_label_still_round_trips() {
    // Keep a non-panicking engine-mode check in this binary so a lockcheck
    // CI run exercises the serial-mode vocabulary too.
    assert_eq!(EngineMode::parse("serial"), Ok(EngineMode::Serial));
}
