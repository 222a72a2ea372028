//! End-to-end tests: single partition instances, locked and serial, served
//! over real sockets.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use islands_core::native::{PartitionConfig, PartitionEngine};
use islands_server::{
    Backend, Client, Endpoint, Reply, Request, Server, ServerConfig, ServerHandle,
};
use islands_workload::{OpKind, PlanBranch, TxnBranch, TxnRequest};

static NEXT_SOCK: AtomicU32 = AtomicU32::new(0);

fn uds_endpoint() -> Endpoint {
    let n = NEXT_SOCK.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("islands-e2e-{}-{n}.sock", std::process::id()));
    Endpoint::Uds(p)
}

/// The server-mechanics tests' subject: one locked partition over keys
/// 0..400, served at `endpoint`.
fn spawn(endpoint: Endpoint) -> (Arc<PartitionEngine>, ServerHandle) {
    let engine = spawn_partition_engine(0, 400);
    let backend = Backend::Partition(Arc::clone(&engine));
    let handle = Server::spawn_backend(backend, endpoint, ServerConfig::default()).unwrap();
    (engine, handle)
}

fn update(keys: &[u64]) -> TxnRequest {
    TxnRequest {
        kind: OpKind::Update,
        keys: keys.to_vec(),
        multisite: keys.len() > 1,
    }
}

#[test]
fn uds_submits_commit_locally_whatever_their_class() {
    let (engine, handle) = spawn(uds_endpoint());
    let mut client = Client::connect(handle.endpoint()).unwrap();

    // A partition commits only what is local to it: a plan flagged
    // multisite that it owns whole commits here too, without 2PC.
    for keys in [&[1, 2][..], &[10, 390]] {
        match client.submit(&update(keys)).unwrap() {
            Reply::Committed { distributed, .. } => assert!(!distributed, "{keys:?}"),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(engine.audit_sum().unwrap(), 4);

    assert!(client.ping().unwrap() < Duration::from_secs(1));
    client.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.commits, 2);
    assert_eq!(stats.aborts, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.requests, 4); // 2 submits + ping + drain
}

#[test]
fn tcp_round_trip_works() {
    let (_engine, handle) = spawn(Endpoint::Tcp("127.0.0.1:0".parse().unwrap()));
    // Port 0 resolved to a real port.
    match handle.endpoint() {
        Endpoint::Tcp(addr) => assert_ne!(addr.port(), 0),
        other => panic!("expected tcp endpoint, got {other}"),
    }
    let mut client = Client::connect(handle.endpoint()).unwrap();
    assert!(matches!(
        client.submit(&update(&[7])).unwrap(),
        Reply::Committed { .. }
    ));
    client.drain_server().unwrap();
    assert_eq!(handle.join().unwrap().commits, 1);
}

#[test]
fn pipelined_replies_come_back_in_order() {
    let (engine, handle) = spawn(uds_endpoint());
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let batch: Vec<TxnRequest> = (0..50).map(|i| update(&[i * 7 % 400])).collect();
    let replies = client.submit_pipelined(&batch).unwrap();
    assert_eq!(replies.len(), 50);
    assert!(replies.iter().all(|r| matches!(r, Reply::Committed { .. })));
    assert_eq!(engine.audit_sum().unwrap(), 50);
    client.drain_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn unsatisfiable_request_gets_error_reply_and_connection_survives() {
    let (_engine, handle) = spawn(uds_endpoint());
    let mut client = Client::connect(handle.endpoint()).unwrap();
    match client.submit(&update(&[999_999])).unwrap() {
        Reply::Error { message } => assert!(message.contains("key not found"), "{message}"),
        other => panic!("unexpected reply {other:?}"),
    }
    // The session decoded a well-formed frame; it must keep serving.
    assert!(matches!(
        client.submit(&update(&[3])).unwrap(),
        Reply::Committed { .. }
    ));
    client.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.commits, 1);
}

#[test]
fn oversized_frame_is_answered_with_error_and_hangup() {
    let (_engine, handle) = spawn(uds_endpoint());
    let path = match handle.endpoint() {
        Endpoint::Uds(p) => PathBuf::from(p),
        other => panic!("expected uds, got {other}"),
    };
    let mut raw = std::os::unix::net::UnixStream::connect(&path).unwrap();
    raw.write_all(&(islands_server::MAX_FRAME as u32 + 1).to_le_bytes())
        .unwrap();
    raw.flush().unwrap();
    // Server replies with a protocol error frame, then closes.
    let mut reader = islands_server::FrameReader::new();
    let reply = loop {
        match reader.next_message::<Reply>().unwrap() {
            Some(r) => break r,
            None => {
                use std::io::Read;
                let mut buf = [0u8; 1024];
                let n = raw.read(&mut buf).unwrap();
                assert_ne!(n, 0, "server closed without an error reply");
                reader.extend(&buf[..n]);
            }
        }
    };
    match reply {
        Reply::Error { message } => assert!(message.contains("protocol error"), "{message}"),
        other => panic!("unexpected reply {other:?}"),
    }
    handle.initiate_shutdown();
    handle.join().unwrap();
}

#[test]
fn drain_completes_while_a_client_keeps_sending() {
    let (_engine, handle) = spawn(uds_endpoint());
    let ep = handle.endpoint().clone();
    // A client that never stops submitting: its session must still exit
    // once a drain lands (after answering the batch in flight).
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(&ep).unwrap();
        let mut replied = 0u64;
        // Submit until the drained server hangs up on us.
        while c.submit(&update(&[replied % 400])).is_ok() {
            replied += 1;
        }
        replied
    });
    std::thread::sleep(Duration::from_millis(100));
    let mut draining = Client::connect(handle.endpoint()).unwrap();
    draining.drain_server().unwrap();
    // The busy session exits after its in-flight batch, so join returns.
    let stats = handle.join().unwrap();
    let replied = busy.join().unwrap();
    assert!(replied > 0, "busy client must have made progress");
    // Every answered submit was counted; at most the final unanswered one
    // can exceed the client's view.
    assert!(stats.commits >= replied);
}

#[test]
fn bad_frame_mid_pipeline_gets_prior_replies_then_error() {
    use islands_server::{Request, WireMessage};
    let (engine, handle) = spawn(uds_endpoint());
    let path = match handle.endpoint() {
        Endpoint::Uds(p) => PathBuf::from(p),
        other => panic!("expected uds, got {other}"),
    };
    let mut raw = std::os::unix::net::UnixStream::connect(&path).unwrap();
    // One valid submit, then a frame with an unknown tag, in a single write.
    let mut bytes = Vec::new();
    Request::Submit(update(&[1])).encode_frame(&mut bytes);
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(0x7F);
    raw.write_all(&bytes).unwrap();
    raw.flush().unwrap();

    let mut reader = islands_server::FrameReader::new();
    let mut replies = Vec::new();
    loop {
        match reader.next_message::<Reply>().unwrap() {
            Some(r) => {
                replies.push(r);
                continue;
            }
            None => {
                use std::io::Read;
                let mut buf = [0u8; 1024];
                let n = raw.read(&mut buf).unwrap();
                if n == 0 {
                    break; // server hung up after the error reply
                }
                reader.extend(&buf[..n]);
            }
        }
    }
    // The request decoded before the bad frame was executed and answered;
    // the bad frame got a protocol error; then the connection closed.
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(matches!(replies[0], Reply::Committed { .. }), "{replies:?}");
    match &replies[1] {
        Reply::Error { message } => assert!(message.contains("protocol error"), "{message}"),
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(engine.audit_sum().unwrap(), 1);
    handle.initiate_shutdown();
    handle.join().unwrap();
}

fn spawn_partition_engine(lo: u64, hi: u64) -> Arc<PartitionEngine> {
    Arc::new(
        PartitionEngine::build(&PartitionConfig {
            lo,
            hi,
            row_size: 16,
            buffer_frames: 512,
            ..Default::default()
        })
        .unwrap(),
    )
}

fn spawn_partition(lo: u64, hi: u64) -> (std::sync::Arc<PartitionEngine>, ServerHandle) {
    let engine = spawn_partition_engine(lo, hi);
    let handle = Server::spawn_backend(
        Backend::Partition(std::sync::Arc::clone(&engine)),
        uds_endpoint(),
        ServerConfig::default(),
    )
    .unwrap();
    (engine, handle)
}

fn prepare(gtid: u64, keys: &[u64]) -> Request {
    Request::Prepare(TxnBranch {
        gtid,
        req: TxnRequest {
            kind: OpKind::Update,
            keys: keys.to_vec(),
            multisite: true,
        },
    })
}

#[test]
fn partition_backend_runs_wire_level_2pc_phase_by_phase() {
    use islands_dtxn::Vote;
    let (engine, handle) = spawn_partition(0, 100);
    let mut coord = Client::connect(handle.endpoint()).unwrap();

    // Phase 1: prepare a writer branch — Yes vote, branch held in-doubt.
    coord.send_request(&prepare(7, &[1, 2])).unwrap();
    match coord.recv_reply().unwrap() {
        Reply::Vote { gtid: 7, vote } => assert_eq!(vote, Vote::Yes),
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(handle.stats().in_doubt, 1);
    // Updates are applied in place under X locks (undo images roll them
    // back on abort), but the audit counts committed writes only: a
    // parked branch's rows count as their before-images had them.
    assert_eq!(engine.audit_sum().unwrap(), 0);

    // Phase 2: commit decision applies the branch and acks.
    coord
        .send_request(&Request::Decision {
            gtid: 7,
            commit: true,
        })
        .unwrap();
    match coord.recv_reply().unwrap() {
        Reply::Ack { gtid: 7 } => {}
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(engine.audit_sum().unwrap(), 2);
    assert_eq!(handle.stats().in_doubt, 0);

    // Read-only branch: ReadOnly vote, no phase 2 required.
    coord
        .send_request(&Request::Prepare(TxnBranch {
            gtid: 8,
            req: TxnRequest {
                kind: OpKind::Read,
                keys: vec![5],
                multisite: true,
            },
        }))
        .unwrap();
    match coord.recv_reply().unwrap() {
        Reply::Vote { gtid: 8, vote } => assert_eq!(vote, Vote::ReadOnly),
        other => panic!("unexpected reply {other:?}"),
    }

    // Abort decision for an unknown gtid is a presumed-abort no-op: acked.
    coord
        .send_request(&Request::Decision {
            gtid: 999,
            commit: false,
        })
        .unwrap();
    assert!(matches!(
        coord.recv_reply().unwrap(),
        Reply::Ack { gtid: 999 }
    ));
    // Commit for an unknown gtid is a protocol error.
    coord
        .send_request(&Request::Decision {
            gtid: 999,
            commit: true,
        })
        .unwrap();
    assert!(matches!(coord.recv_reply().unwrap(), Reply::Error { .. }));

    coord.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.prepares, 2);
    assert_eq!(stats.in_doubt, 0);
    assert_eq!(stats.presumed_aborts, 0);
}

/// Spin until `done`, failing after a generous deadline instead of hanging.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(
            std::time::Instant::now() < deadline,
            "never happened: {what}"
        );
        std::thread::yield_now();
    }
}

/// A coordinator prepares gtid 11 on key 9 and vanishes; the branch must
/// stay parked and keep the key from local work until a `Decision` on
/// another connection commits it. Nothing is presumed.
fn an_orphaned_branch_waits_for_its_decision(
    handle: ServerHandle,
    ownerless: impl Fn() -> Vec<u64>,
    audit: impl Fn() -> u64,
) {
    {
        let mut coord = Client::connect(handle.endpoint()).unwrap();
        coord.send_request(&prepare(11, &[9])).unwrap();
        match coord.recv_reply().unwrap() {
            Reply::Vote { gtid: 11, .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(handle.stats().in_doubt, 1);
    } // connection dropped here, decision never sent

    // The session notices the hangup and leaves the branch ownerless,
    // still parked and still holding its row.
    wait_until("the branch is ownerless", || ownerless() == [11]);
    assert_eq!(handle.stats().in_doubt, 1);
    let mut client = Client::connect(handle.endpoint()).unwrap();
    match client.submit(&update(&[9])).unwrap() {
        Reply::Aborted { .. } => {}
        other => panic!("the parked branch must hold key 9: {other:?}"),
    }
    client
        .send_request(&Request::Decision {
            gtid: 11,
            commit: true,
        })
        .unwrap();
    assert_eq!(client.recv_reply().unwrap(), Reply::Ack { gtid: 11 });
    assert!(ownerless().is_empty());
    match client.submit(&update(&[9])).unwrap() {
        Reply::Committed { .. } => {}
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(
        audit(),
        2,
        "the prepared update committed, then the new one"
    );

    client.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.presumed_aborts, 0);
    assert_eq!(stats.in_doubt, 0);
}

#[test]
fn a_dropped_coordinator_connection_leaves_its_branch_parked_until_decided() {
    let (engine, handle) = spawn_partition(0, 100);
    an_orphaned_branch_waits_for_its_decision(
        handle,
        || engine.ownerless_gtids().unwrap(),
        || engine.audit_sum().unwrap(),
    );
}

#[test]
fn drain_while_other_clients_are_connected() {
    let (_engine, handle) = spawn(uds_endpoint());
    let mut idle_client = Client::connect(handle.endpoint()).unwrap();
    assert!(matches!(
        idle_client.submit(&update(&[5])).unwrap(),
        Reply::Committed { .. }
    ));
    let mut draining = Client::connect(handle.endpoint()).unwrap();
    draining.drain_server().unwrap();
    // Join must complete even though idle_client never disconnects
    // explicitly: idle sessions notice the flag at the next poll tick.
    handle.join().unwrap();
    // The drained server is gone; new submissions fail.
    assert!(idle_client.submit(&update(&[6])).is_err());
}

#[test]
fn connection_churn_is_survived_and_counted() {
    // Companion to the SessionSet unit regression: a server under rapid
    // connect/use/disconnect churn keeps accepting, serves every
    // connection, and drains cleanly afterwards.
    let (_engine, handle) = spawn(uds_endpoint());
    const CHURN: u64 = 150;
    for i in 0..CHURN {
        let mut c = Client::connect(handle.endpoint()).unwrap();
        match c.submit(&update(&[i % 400])).unwrap() {
            Reply::Committed { .. } | Reply::Aborted { .. } => {}
            other => panic!("churn connection {i}: unexpected reply {other:?}"),
        }
        // Dropping c closes the connection; the session thread exits.
    }
    let mut closer = Client::connect(handle.endpoint()).unwrap();
    closer.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.connections, CHURN + 1);
    assert_eq!(stats.requests, CHURN + 1); // one submit each + drain
}

// ---------------------------------------------------------------------------
// Serial backend: a partition built `single_threaded`, whose sessions take
// turns on it, each request running on its session thread with no
// lock-table acquisition.
// ---------------------------------------------------------------------------

fn spawn_executor_engine(lo: u64, hi: u64) -> Arc<PartitionEngine> {
    let partition = PartitionConfig {
        lo,
        hi,
        row_size: 16,
        buffer_frames: 512,
        single_threaded: true,
        ..Default::default()
    };
    Arc::new(PartitionEngine::build(&partition).unwrap())
}

fn spawn_executor(lo: u64, hi: u64) -> (Arc<PartitionEngine>, ServerHandle) {
    let exec = spawn_executor_engine(lo, hi);
    let handle = Server::spawn_backend(
        Backend::Partition(Arc::clone(&exec)),
        uds_endpoint(),
        ServerConfig::default(),
    )
    .unwrap();
    (exec, handle)
}

#[test]
fn executor_backend_serves_local_submissions_from_many_connections() {
    let (exec, handle) = spawn_executor(0, 100);
    // Several concurrent connections all take turns on the one partition.
    let mut clients: Vec<Client> = (0..4)
        .map(|_| Client::connect(handle.endpoint()).unwrap())
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        for k in 0..10u64 {
            match c.submit(&update(&[(i as u64 * 10 + k) % 100])).unwrap() {
                Reply::Committed {
                    distributed,
                    retries,
                    ..
                } => {
                    assert!(!distributed);
                    assert_eq!(retries, 0, "serial execution never retries");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
    assert_eq!(exec.audit_sum().unwrap(), 40);
    clients[0].drain_server().unwrap();
    drop(clients);
    let stats = handle.join().unwrap();
    assert_eq!(stats.commits, 40);
    assert_eq!(stats.aborts, 0);
    assert_eq!(stats.in_doubt, 0);
}

#[test]
fn executor_backend_runs_wire_level_2pc_phase_by_phase() {
    use islands_dtxn::Vote;
    let (exec, handle) = spawn_executor(0, 100);
    let mut coord = Client::connect(handle.endpoint()).unwrap();

    // Phase 1: writer branch prepares, parks in-doubt on the executor.
    coord.send_request(&prepare(7, &[1, 2])).unwrap();
    match coord.recv_reply().unwrap() {
        Reply::Vote { gtid: 7, vote } => assert_eq!(vote, Vote::Yes),
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(handle.stats().in_doubt, 1);

    // A conflicting local submission aborts once its retry budget is spent
    // (the serial partition's in-doubt key set stands in for the locks the
    // branch would hold).
    let mut client = Client::connect(handle.endpoint()).unwrap();
    match client.submit(&update(&[2])).unwrap() {
        Reply::Aborted { .. } => {}
        other => panic!("unexpected reply {other:?}"),
    }
    // Non-conflicting work keeps flowing while the branch is in-doubt.
    assert!(matches!(
        client.submit(&update(&[50])).unwrap(),
        Reply::Committed { .. }
    ));

    // Phase 2: commit decision applies the branch, releases the keys.
    coord
        .send_request(&Request::Decision {
            gtid: 7,
            commit: true,
        })
        .unwrap();
    assert!(matches!(
        coord.recv_reply().unwrap(),
        Reply::Ack { gtid: 7 }
    ));
    assert_eq!(handle.stats().in_doubt, 0);
    assert!(matches!(
        client.submit(&update(&[2])).unwrap(),
        Reply::Committed { .. }
    ));
    assert_eq!(exec.audit_sum().unwrap(), 4);

    // Presumed-abort protocol corners, same answers as the locked backend.
    coord
        .send_request(&Request::Decision {
            gtid: 999,
            commit: false,
        })
        .unwrap();
    assert!(matches!(
        coord.recv_reply().unwrap(),
        Reply::Ack { gtid: 999 }
    ));
    coord
        .send_request(&Request::Decision {
            gtid: 999,
            commit: true,
        })
        .unwrap();
    assert!(matches!(coord.recv_reply().unwrap(), Reply::Error { .. }));

    coord.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.prepares, 1);
    assert_eq!(stats.in_doubt, 0);
    assert_eq!(stats.presumed_aborts, 0);
}

#[test]
fn executor_backend_keeps_a_branch_parked_when_its_coordinator_vanishes() {
    let (exec, handle) = spawn_executor(0, 100);
    an_orphaned_branch_waits_for_its_decision(
        handle,
        || exec.ownerless_gtids().unwrap(),
        || exec.audit_sum().unwrap(),
    );
}

// ---------------------------------------------------------------------------
// Wire equivalence: a batch frame and the plan frame of its lowering are the
// same request to either partition backend.
// ---------------------------------------------------------------------------

/// Run one fixed conversation — local commits, a misrouted key, a 2PC branch
/// decided commit with a conflicting local inside its in-doubt window, a
/// read-only branch, a branch decided abort, a branch orphaned by its
/// coordinator and then decided on another connection, an audit — sending
/// batches either as `Submit`/`Prepare`
/// frames or as the `SubmitPlan`/`PreparePlan` frames of their lowering.
/// Returns every reply (server timing zeroed) and the final counters.
#[test]
fn stats_count_one_lock_acquire_per_row_update_on_a_locked_partition_and_none_on_a_serial_one() {
    const N: u64 = 25;
    for (locked, handle) in [
        (true, spawn_partition(0, 100).1),
        (false, spawn_executor(0, 100).1),
    ] {
        let mut client = Client::connect(handle.endpoint()).unwrap();
        let (_, before) = client.stats().unwrap();
        for key in 0..N {
            let reply = client.submit(&update(&[key])).unwrap();
            assert!(matches!(reply, Reply::Committed { .. }), "{reply:?}");
        }
        let (_, after) = client.stats().unwrap();
        assert_eq!(after.commits - before.commits, N);
        assert_eq!(
            after.lock_acquires - before.lock_acquires,
            if locked { N } else { 0 },
            "locked={locked}"
        );
        assert_eq!(after.lock_dies, 0, "locked={locked}: nothing contended");
        client.drain_server().unwrap();
        handle.join().unwrap();
    }
}

fn wire_conversation(backend: Backend, lowered: bool) -> (Vec<Reply>, islands_server::ServerStats) {
    let submit = |keys: &[u64]| {
        let req = update(keys);
        if lowered {
            Request::SubmitPlan(req.to_plan())
        } else {
            Request::Submit(req)
        }
    };
    let prepare = |gtid: u64, kind: OpKind, keys: &[u64]| {
        let req = TxnRequest {
            kind,
            keys: keys.to_vec(),
            multisite: true,
        };
        if lowered {
            Request::PreparePlan(PlanBranch {
                gtid,
                plan: req.to_plan(),
            })
        } else {
            Request::Prepare(TxnBranch { gtid, req })
        }
    };
    let decision = |gtid, commit| Request::Decision { gtid, commit };
    let handle = Server::spawn_backend(backend, uds_endpoint(), ServerConfig::default()).unwrap();
    let mut replies = Vec::new();
    let mut ask = |client: &mut Client, frame: Request| {
        client.send_request(&frame).unwrap();
        replies.push(match client.recv_reply().unwrap() {
            Reply::Committed {
                distributed,
                retries,
                ..
            } => Reply::Committed {
                distributed,
                retries,
                server_micros: 0,
            },
            other => other,
        });
    };

    let mut coord = Client::connect(handle.endpoint()).unwrap();
    let mut local = Client::connect(handle.endpoint()).unwrap();
    ask(&mut local, submit(&[1, 2]));
    ask(&mut local, submit(&[999]));
    ask(&mut coord, prepare(7, OpKind::Update, &[3, 4]));
    ask(&mut local, submit(&[4, 5]));
    ask(&mut coord, decision(7, true));
    ask(&mut local, submit(&[4, 5]));
    ask(&mut coord, prepare(8, OpKind::Read, &[6]));
    ask(&mut coord, prepare(9, OpKind::Update, &[7]));
    ask(&mut coord, prepare(9, OpKind::Update, &[8]));
    ask(&mut coord, decision(9, false));
    ask(&mut coord, prepare(10, OpKind::Update, &[200]));
    ask(&mut coord, prepare(11, OpKind::Update, &[9]));
    drop(coord);
    // The orphaned branch keeps its row until a decision, from any
    // connection, settles it.
    ask(&mut local, submit(&[9]));
    ask(&mut local, decision(11, false));
    ask(&mut local, submit(&[9]));
    ask(&mut local, Request::Audit);
    local.drain_server().unwrap();
    (replies, handle.join().unwrap())
}

#[test]
fn batch_frames_and_their_lowered_plan_frames_are_the_same_request() {
    use islands_dtxn::Vote;
    let partition: fn() -> Backend = || Backend::Partition(spawn_partition_engine(0, 100));
    let executor: fn() -> Backend = || Backend::Partition(spawn_executor_engine(0, 100));
    for (name, backend) in [("partition", partition), ("executor", executor)] {
        let (batch_replies, batch_stats) = wire_conversation(backend(), false);
        let (plan_replies, plan_stats) = wire_conversation(backend(), true);
        assert_eq!(batch_replies, plan_replies, "{name}: replies diverged");
        assert_eq!(batch_stats, plan_stats, "{name}: counters diverged");
        // Spot-check the conversation did what its comment says (both
        // backends agree on everything but retry counts).
        let shape: Vec<String> = batch_replies
            .iter()
            .map(|r| match r {
                Reply::Committed { .. } => "committed".into(),
                Reply::Aborted { .. } => "aborted".into(),
                Reply::Error { .. } => "error".into(),
                Reply::Vote { vote, .. } => format!("{vote:?}"),
                Reply::Ack { .. } => "ack".into(),
                Reply::AuditSum { sum } => format!("audit {sum}"),
                other => panic!("{name}: unexpected reply {other:?}"),
            })
            .collect();
        assert_eq!(
            shape,
            [
                "committed",
                "error",
                &format!("{:?}", Vote::Yes),
                "aborted",
                "ack",
                "committed",
                &format!("{:?}", Vote::ReadOnly),
                &format!("{:?}", Vote::Yes),
                "error",
                "ack",
                "error",
                &format!("{:?}", Vote::Yes),
                "aborted",
                "ack",
                "committed",
                "audit 7",
            ],
            "{name}"
        );
        assert_eq!(batch_stats.presumed_aborts, 0, "{name}");
        assert_eq!(batch_stats.in_doubt, 0, "{name}");
        assert_eq!(batch_stats.errors, 3, "{name}");
    }
}

#[test]
fn decision_for_a_branch_recovered_from_the_wal_leaves_the_gauge_at_zero() {
    // Regression: a branch re-parked by restart replay was never counted by
    // a Prepare frame, so the Decision that settled it wrapped the
    // `in_doubt` gauge to u64::MAX and the drain reported a phantom leak.
    for serial in [false, true] {
        let wal = std::env::temp_dir().join(format!(
            "islands-e2e-{}-recovered-{serial}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&wal);
        let partition = PartitionConfig {
            lo: 0,
            hi: 100,
            row_size: 16,
            buffer_frames: 512,
            single_threaded: serial,
            wal: Some(wal.clone()),
            ..Default::default()
        };
        // First incarnation: votes Yes on gtid 77, then dies undecided.
        {
            let engine = PartitionEngine::build(&partition).unwrap();
            let islands_core::native::BranchOutcome::Prepared(branch) =
                engine.prepare_branch(77, &update(&[50])).unwrap()
            else {
                panic!("writer branch must prepare");
            };
            std::mem::forget(branch);
        }
        let backend = Backend::Partition(Arc::new(PartitionEngine::build(&partition).unwrap()));
        let handle =
            Server::spawn_backend(backend, uds_endpoint(), ServerConfig::default()).unwrap();
        assert_eq!(handle.stats().in_doubt, 1, "serial={serial}: recovered");
        let mut client = Client::connect(handle.endpoint()).unwrap();
        client
            .send_request(&Request::Decision {
                gtid: 77,
                commit: true,
            })
            .unwrap();
        assert_eq!(client.recv_reply().unwrap(), Reply::Ack { gtid: 77 });
        assert_eq!(client.audit().unwrap(), 1, "serial={serial}: redone");
        client.drain_server().unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.in_doubt, 0, "serial={serial}: {stats:?}");
        let _ = std::fs::remove_file(&wal);
    }
}

// ---------------------------------------------------------------------------
// Pipelining without a window: what arrives together is answered together,
// and a lone request waits for nothing.
// ---------------------------------------------------------------------------

/// Write `frames` in one write and decode whatever one read returns. One
/// server write is one read here: it fits a socket buffer.
fn burst(conn: &mut std::os::unix::net::UnixStream, frames: &[Request]) -> Vec<Reply> {
    use islands_server::{FrameReader, WireMessage};
    use std::io::Read;
    let mut out = Vec::new();
    for f in frames {
        f.encode_frame(&mut out);
    }
    conn.write_all(&out).unwrap();
    let mut buf = vec![0u8; 64 * 1024];
    let n = conn.read(&mut buf).unwrap();
    let mut reader = FrameReader::new();
    reader.fill_from(&mut &buf[..n]).unwrap();
    std::iter::from_fn(|| reader.next_message::<Reply>().unwrap()).collect()
}

fn connect_raw(handle: &ServerHandle) -> std::os::unix::net::UnixStream {
    let Endpoint::Uds(path) = handle.endpoint().clone() else {
        panic!("uds endpoint");
    };
    std::os::unix::net::UnixStream::connect(path).unwrap()
}

#[test]
fn fifty_frames_in_one_write_are_answered_in_order_in_one_burst() {
    let (engine, handle) = spawn_partition(0, 100);
    let mut conn = connect_raw(&handle);
    let mut burst = |frames: &[Request]| burst(&mut conn, frames);
    // Votes and acks carry their gtid, so order is checkable.
    let prepares: Vec<Request> = (0..50).map(|g| prepare(g, &[g])).collect();
    let votes: Vec<Reply> = (0..50)
        .map(|gtid| Reply::Vote {
            gtid,
            vote: islands_dtxn::Vote::Yes,
        })
        .collect();
    assert_eq!(burst(&prepares), votes);
    let decisions: Vec<Request> = (0..50)
        .map(|gtid| Request::Decision { gtid, commit: true })
        .collect();
    let acks: Vec<Reply> = (0..50).map(|gtid| Reply::Ack { gtid }).collect();
    assert_eq!(burst(&decisions), acks);
    assert_eq!(engine.audit_sum().unwrap(), 50);
    handle.initiate_shutdown();
    drop(conn);
    let stats = handle.join().unwrap();
    assert_eq!((stats.requests, stats.in_doubt), (100, 0));
}

#[test]
fn a_decision_and_the_next_request_in_one_write_come_back_ack_first_in_one_read() {
    // What a coordinator that answers at decision time puts on a link: the
    // Decision of one round and the first frame of the next, back to back.
    // The session must apply the decision *before* it runs the frame behind
    // it — both touch key 5 here, so the wrong order waits out the branch's
    // own lock — and answer both in one write, ack first, which is the
    // order the coordinator settles its debt in.
    let partition: fn() -> Backend = || Backend::Partition(spawn_partition_engine(0, 100));
    let executor: fn() -> Backend = || Backend::Partition(spawn_executor_engine(0, 100));
    for backend in [partition, executor] {
        let handle =
            Server::spawn_backend(backend(), uds_endpoint(), ServerConfig::default()).unwrap();
        let mut conn = connect_raw(&handle);
        let yes = |gtid| Reply::Vote {
            gtid,
            vote: islands_dtxn::Vote::Yes,
        };
        let commit = |gtid| Request::Decision { gtid, commit: true };
        assert_eq!(burst(&mut conn, &[prepare(1, &[5])]), vec![yes(1)]);
        assert_eq!(
            burst(&mut conn, &[commit(1), prepare(2, &[5])]),
            vec![Reply::Ack { gtid: 1 }, yes(2)],
            "ack and vote in one read, in request order"
        );
        // The same holds for a local plan behind an owed ack.
        let replies = burst(&mut conn, &[commit(2), Request::Submit(update(&[5]))]);
        assert!(
            matches!(
                replies[..],
                [Reply::Ack { gtid: 2 }, Reply::Committed { retries: 0, .. }]
            ),
            "{replies:?}"
        );
        assert_eq!(
            burst(&mut conn, &[Request::Audit]),
            vec![Reply::AuditSum { sum: 3 }]
        );
        handle.initiate_shutdown();
        drop(conn);
        let stats = handle.join().unwrap();
        assert_eq!(
            (
                stats.prepares,
                stats.decisions,
                stats.in_doubt,
                stats.errors
            ),
            (2, 2, 0, 0)
        );
    }
}

#[test]
fn a_lone_ping_costs_a_socket_round_trip_not_a_batch_window() {
    // The session used to spin 50 us for more frames before answering
    // anything. A ping on an idle session must now sit within 30 us of a
    // bare 64-byte UDS ping-pong — a margin the window alone exceeded, so
    // it tells the two designs apart without a tight race. Interference
    // only ever adds time, so each side is judged by the quietest of five
    // interleaved attempts.
    const ROUNDS: usize = 200;
    let (_engine, handle) = spawn_partition(0, 100);
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let (mut floor_us, mut ping_us) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        let floor = islands_net::live::measure_unix_sockets(ROUNDS as u32).unwrap();
        floor_us = floor_us.min(2e6 / floor.msgs_per_sec);
        let mut pings: Vec<Duration> = (0..ROUNDS).map(|_| client.ping().unwrap()).collect();
        pings.sort_unstable();
        ping_us = ping_us.min(pings[ROUNDS / 2].as_secs_f64() * 1e6);
    }
    assert!(
        ping_us < floor_us + 30.0,
        "median ping {ping_us:.0} us against a {floor_us:.0} us UDS round trip"
    );
    client.drain_server().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// Accept-latency regression: the acceptor's idle wait must be adaptive.
// ---------------------------------------------------------------------------

#[test]
fn fresh_connection_is_served_in_under_a_millisecond() {
    // Regression: the accept loop used to sleep poll_interval.min(5ms) on
    // every WouldBlock, adding up to 5 ms of connect latency per accept.
    // With the adaptive spin-then-park wait, a connection arriving at a
    // long-idle server must still complete a full connect + ping round
    // trip in well under a millisecond (best-of-N to shrug off scheduler
    // noise on loaded CI machines).
    let (_engine, handle) = spawn(uds_endpoint());
    // Let the acceptor go fully idle (escalated to its capped park).
    std::thread::sleep(Duration::from_millis(50));
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let started = std::time::Instant::now();
        let mut c = Client::connect(handle.endpoint()).unwrap();
        c.ping().unwrap();
        best = best.min(started.elapsed());
        drop(c);
        std::thread::sleep(Duration::from_millis(10)); // re-idle
    }
    assert!(
        best < Duration::from_millis(1),
        "idle-server connect+ping took {best:?} at best"
    );
    let mut closer = Client::connect(handle.endpoint()).unwrap();
    closer.drain_server().unwrap();
    handle.join().unwrap();
}
