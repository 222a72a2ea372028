//! End-to-end tests for multi-process deployments: real instance processes
//! (the `islands-instance` binary), wire-level 2PC between them, and the
//! presumed-abort rule when a participant is killed mid-protocol.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use islands_dtxn::Vote;
use islands_server::deploy::{
    DeployConfig, DeployReply, DeployWorkload, Deployment, FaultPlan, FaultPoint, SpawnMode,
    Transport,
};
use islands_server::{Client, Endpoint, EngineMode, Reply, Request};
use islands_workload::plan::{PlanClass, PlanRequest, PlanStep, StepOp, MICRO_TABLE};
use islands_workload::tpcc::{NewOrder, Payment};
use islands_workload::{OpKind, TxnBranch, TxnRequest};

fn config(instances: usize, transport: Transport) -> DeployConfig {
    DeployConfig {
        instances,
        transport,
        total_rows: 400,
        row_size: 16,
        // Tests must not depend on the host having taskset / enough cores.
        pin: false,
        spawn: SpawnMode::Binary(PathBuf::from(env!("CARGO_BIN_EXE_islands-instance"))),
        // Kill-based tests should not wait the full default on a dead peer.
        vote_timeout: Duration::from_secs(2),
        ..Default::default()
    }
}

fn update(keys: &[u64]) -> TxnRequest {
    TxnRequest {
        kind: OpKind::Update,
        keys: keys.to_vec(),
        multisite: keys.len() > 1,
    }
}

fn outcome(reply: DeployReply) -> islands_server::DeployOutcome {
    match reply {
        DeployReply::Outcome(o) => o,
        other => panic!("expected an outcome, got {other:?}"),
    }
}

/// A fresh per-test WAL directory under the system temp dir; any leftovers
/// from a previous run of the same test are removed first.
fn temp_wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("islands-e2e-wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Submit until the request commits. After an instance restart the deploy
/// client's cached connection is stale: the first send observes the dead
/// socket (`InstanceDown` or an I/O error), the retry reconnects with
/// backoff. A request that keeps aborting — e.g. against a branch whose
/// footprint was never released — exhausts the budget and panics.
fn submit_until_committed(
    client: &mut islands_server::DeployClient,
    req: &TxnRequest,
) -> islands_server::DeployOutcome {
    for _ in 0..40 {
        match client.submit(req) {
            Ok(DeployReply::Outcome(o)) if o.committed => return o,
            Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("request never committed: {req:?}");
}

#[test]
fn four_process_uds_deployment_commits_local_and_multisite() {
    let deploy = Arc::new(Deployment::spawn(&config(4, Transport::Uds)).unwrap());
    assert_eq!(deploy.instances(), 4);
    let mut client = deploy.client().unwrap();

    // Local: keys 0..100 live in instance 0.
    let local = outcome(client.submit(&update(&[1, 2])).unwrap());
    assert!(local.committed);
    assert!(!local.distributed);

    // Multisite: instances 0, 1, 3 — wire-level 2PC.
    let multi = outcome(client.submit(&update(&[10, 150, 390])).unwrap());
    assert!(multi.committed, "multisite 2PC must commit: {multi:?}");
    assert!(multi.distributed);
    assert_eq!(deploy.decided_commits(), 1, "one forced commit decision");
    assert_eq!(deploy.presumed_aborts(), 0);

    // Distributed read-only: commits without forcing a decision.
    let ro = outcome(
        client
            .submit(&TxnRequest {
                kind: OpKind::Read,
                keys: vec![20, 250],
                multisite: true,
            })
            .unwrap(),
    );
    assert!(ro.committed);
    assert!(ro.distributed);
    assert_eq!(
        deploy.decided_commits(),
        1,
        "read-only 2PC must not force a decision"
    );
    // Nor does it send one: read-only voters are excluded from phase 2 on
    // the wire, so the only Decision frames so far went to the 3 writers.
    assert_eq!(decision_frames_received(&deploy, &mut client), 3);

    // One read-only branch beside a writing one: a single decision frame,
    // to the writer, behind a single forced record.
    let mixed = PlanRequest {
        class: PlanClass::Generic,
        multisite: true,
        steps: vec![
            PlanStep::point(MICRO_TABLE, 30, StepOp::Read),
            PlanStep::point(MICRO_TABLE, 260, StepOp::Update),
        ],
    };
    let mixed = outcome(client.submit_plan(&mixed).unwrap());
    assert!(mixed.committed && mixed.distributed);
    assert_eq!(deploy.decided_commits(), 2);
    assert_eq!(decision_frames_received(&deploy, &mut client), 4);

    drop(client);
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("no other refs")
        .shutdown();
    let mut commits = 0;
    let mut prepares = 0;
    for r in &reports {
        assert!(r.clean, "instance {} unclean: {}", r.index, r.detail);
        let stats = r.stats.expect("stats parsed");
        assert_eq!(stats.in_doubt, 0);
        assert_eq!(stats.presumed_aborts, 0);
        commits += stats.commits;
        prepares += stats.prepares;
    }
    // 1 local commit + 3 committed update branches + the mixed plan's
    // writer; read-only branches commit nothing. Prepares: 3 update
    // branches + 2 read-only branches + the mixed plan's 2.
    assert_eq!(commits, 5);
    assert_eq!(prepares, 7);
}

/// `Decision` frames the instances have processed, summed. The audit first
/// settles every ack `client`'s links are owed, so each decision it was
/// answered for has been applied — and counted — by the time of the scrape.
fn decision_frames_received(deploy: &Deployment, client: &mut islands_server::DeployClient) -> u64 {
    client.audit_total().unwrap();
    (0..deploy.instances())
        .map(|i| {
            let mut probe = Client::connect(&deploy.endpoint(i)).unwrap();
            probe.stats().unwrap().0.decisions
        })
        .sum()
}

#[test]
fn tcp_deployment_round_trips() {
    let deploy = Arc::new(Deployment::spawn(&config(2, Transport::Tcp)).unwrap());
    let mut client = deploy.client().unwrap();
    let multi = outcome(client.submit(&update(&[10, 350])).unwrap());
    assert!(multi.committed);
    assert!(multi.distributed);
    drop(client);
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("no other refs")
        .shutdown();
    assert!(reports.iter().all(|r| r.clean), "{reports:?}");
}

#[test]
fn heartbeats_past_a_pipe_full_do_not_wedge_the_drain() {
    // Regression: the parent used to read a child's stdout only after it
    // had exited. Once 64 KiB of heartbeats sat unread the printer thread
    // blocked in `write`, the drained child waited on it forever, and the
    // parent killed it after 10 s and reported an unclean exit. At one
    // heartbeat a millisecond and ~100 bytes a line, three seconds is
    // several pipes' worth.
    let deploy = Arc::new(
        Deployment::spawn(&DeployConfig {
            stats_every_ms: 1,
            ..config(2, Transport::Uds)
        })
        .unwrap(),
    );
    let mut client = deploy.client().unwrap();
    let started = std::time::Instant::now();
    let mut commits = 0u64;
    while started.elapsed() < Duration::from_secs(3) {
        assert!(outcome(client.submit(&update(&[10, 350])).unwrap()).committed);
        commits += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(client);
    let drain_started = std::time::Instant::now();
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("no other refs")
        .shutdown();
    assert!(
        drain_started.elapsed() < Duration::from_secs(5),
        "a drain is not a timeout: {:?}",
        drain_started.elapsed()
    );
    for r in &reports {
        assert!(r.clean, "instance {} unclean: {}", r.index, r.detail);
        let stats = r.stats.expect("final stats, not a stale heartbeat");
        assert_eq!((stats.commits, stats.in_doubt), (commits, 0));
    }
}

#[test]
fn killed_participant_mid_prepare_presumes_abort_and_survivors_serve() {
    let deploy = Arc::new(Deployment::spawn(&config(2, Transport::Uds)).unwrap());
    let mut client = deploy.client().unwrap();

    // Sanity: both instances answer before the kill.
    assert!(outcome(client.submit(&update(&[10, 350])).unwrap()).committed);

    // Kill instance 1 (SIGKILL: no drain, no goodbye). The next multisite
    // transaction's prepare cannot reach it; the coordinator must presume
    // abort — and instance 0, which may have voted Yes already, must get an
    // abort decision so nothing stays in doubt.
    deploy.kill_instance(1).unwrap();
    let dead = outcome(client.submit(&update(&[20, 360])).unwrap());
    assert!(!dead.committed);
    assert!(dead.presumed_abort, "abort must be presumed: {dead:?}");
    assert!(deploy.presumed_aborts() >= 1);

    // The surviving instance stays serviceable: the very keys the aborted
    // branch touched are unlocked and writable.
    let local = outcome(client.submit(&update(&[20, 30])).unwrap());
    assert!(local.committed, "survivor must serve: {local:?}");

    // Single-site traffic to the dead instance reports it down rather than
    // hanging or corrupting anything.
    match client.submit(&update(&[350])).unwrap() {
        DeployReply::InstanceDown(1) => {}
        other => panic!("expected InstanceDown(1), got {other:?}"),
    }

    drop(client);
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("no other refs")
        .shutdown();
    let survivor = &reports[0];
    assert!(survivor.clean, "survivor unclean: {}", survivor.detail);
    let stats = survivor.stats.expect("stats parsed");
    assert_eq!(stats.in_doubt, 0, "no in-doubt leak on the survivor");
    // The killed instance is reported, not hidden.
    assert!(!reports[1].clean);
}

/// Instance `i`'s whole stats snapshot, scraped on a fresh connection.
fn snapshot(deploy: &Deployment, i: usize) -> islands_obs::Snapshot {
    Client::connect(&deploy.endpoint(i))
        .unwrap()
        .stats()
        .unwrap()
        .1
}

/// Poll instance `i` until `done` holds for its snapshot, failing after a
/// generous deadline instead of hanging.
fn wait_for_instance(
    deploy: &Deployment,
    i: usize,
    what: &str,
    done: impl Fn(&islands_obs::Snapshot) -> bool,
) -> islands_obs::Snapshot {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snap = snapshot(deploy, i);
        if done(&snap) {
            return snap;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never happened: {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn coordinator_crash_between_prepare_and_decision_leaves_no_leak() {
    let deploy = Arc::new(Deployment::spawn(&config(1, Transport::Uds)).unwrap());

    // A raw wire client plays a coordinator that prepares and then crashes.
    {
        let mut coord = Client::connect(&deploy.endpoint(0)).unwrap();
        coord
            .send_request(&Request::Prepare(TxnBranch {
                gtid: 77,
                req: update(&[5]),
            }))
            .unwrap();
        match coord.recv_reply().unwrap() {
            islands_server::Reply::Vote { gtid: 77, .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
    } // coordinator "crashes": connection drops with the branch in doubt

    // The hang-up decides nothing: the branch stays parked, ownerless,
    // holding its row, until the instance's resolver pass asks the
    // deployment's coordinator. No round of its holds gtid 77 and its log
    // has no record, so the verdict is abort, and only then is key 5 free.
    let settled = wait_for_instance(&deploy, 0, "the resolver settles gtid 77", |s| {
        s.in_doubt == 0
    });
    assert_eq!(
        (settled.in_doubt_abort, settled.presumed_aborts),
        (1, 0),
        "settled by the verdict, not by the hang-up"
    );
    let mut client = deploy.client().unwrap();
    let again = outcome(client.submit(&update(&[5])).unwrap());
    assert!(again.committed);

    drop(client);
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("no other refs")
        .shutdown();
    let r = &reports[0];
    assert!(r.clean, "instance unclean: {}", r.detail);
    let stats = r.stats.expect("stats parsed");
    assert_eq!(stats.presumed_aborts, 0);
    assert_eq!(stats.in_doubt, 0);
}

#[test]
fn a_commit_whose_link_dies_before_its_decision_commits_everywhere_in_both_engines() {
    // The socket twin of the in-process test: the coordinator forces the
    // commit, then its link to instance 1 is lost before the Decision
    // frame leaves. Instance 1 lives on; its session closes with the branch
    // parked, and its resolver pass must bring it the forced commit — the
    // audit identity holds and nothing is left in doubt at drain.
    for engine in [EngineMode::Locked, EngineMode::Serial] {
        let deploy = Arc::new(
            Deployment::spawn(&DeployConfig {
                engine,
                ..config(2, Transport::Uds)
            })
            .unwrap(),
        );
        let mut client = deploy.client().unwrap();
        let base = client.audit_total().unwrap();
        deploy.arm_fault(FaultPlan {
            point: FaultPoint::LinkLoss,
            victim: 1,
        });
        let done = outcome(client.submit(&update(&[20, 360])).unwrap());
        assert!(
            done.committed && done.distributed && !done.presumed_abort,
            "[{engine:?}] the forced commit stands: {done:?}"
        );
        assert_eq!(deploy.faults_fired(), 1, "[{engine:?}] the link was lost");
        assert_eq!(deploy.decided_commits(), 1, "[{engine:?}]");

        let settled = wait_for_instance(&deploy, 1, "the resolver settles the branch", |s| {
            s.in_doubt == 0
        });
        assert_eq!(
            (settled.in_doubt_commit, settled.in_doubt_abort),
            (1, 0),
            "[{engine:?}] the verdict was the forced commit"
        );
        assert_eq!(
            client.audit_total().unwrap() - base,
            2,
            "[{engine:?}] both branches committed"
        );
        // The lost link reconnects, and the row is free again.
        assert!(outcome(client.submit(&update(&[20, 360])).unwrap()).committed);
        assert_eq!(client.audit_total().unwrap() - base, 4, "[{engine:?}]");

        drop(client);
        assert_eq!(deploy.presumed_aborts(), 0, "[{engine:?}]");
        let reports = Arc::try_unwrap(deploy)
            .ok()
            .expect("no other refs")
            .shutdown();
        for r in &reports {
            assert!(
                r.clean,
                "[{engine:?}] instance {} unclean: {}",
                r.index, r.detail
            );
            let stats = r.stats.expect("stats parsed");
            assert_eq!(
                (stats.in_doubt, stats.presumed_aborts),
                (0, 0),
                "[{engine:?}]"
            );
        }
    }
}

#[test]
fn midrun_stats_scrape_sees_live_counters_and_populated_breakdown() {
    // The observability acceptance path: a loaded two-instance deployment is
    // scraped *while it serves* — on a separate connection, exactly like
    // `islands-top` — and the scrape must show (1) monotonically increasing
    // commit counters between two scrapes with load in between, and (2) all
    // five Fig. 11 breakdown categories populated, plus the 2PC prepare and
    // decision histograms, because the load includes multisite updates.
    let deploy = Arc::new(Deployment::spawn(&config(2, Transport::Uds)).unwrap());
    let mut client = deploy.client().unwrap();

    // With 400 rows on 2 instances, keys 0..200 are instance 0's; a
    // [k, 350-k] pair spans both instances (wire 2PC).
    let mut load = |rounds: u64| {
        for i in 0..rounds {
            let k = i % 100;
            assert!(outcome(client.submit(&update(&[k])).unwrap()).committed);
            assert!(
                outcome(client.submit(&update(&[k + 1, 350 - k])).unwrap()).committed,
                "multisite update {i} must commit"
            );
        }
    };
    load(40);

    // Scrape instance 0 mid-run on a dedicated connection.
    let mut probe = Client::connect(&deploy.endpoint(0)).unwrap();
    let (s1, o1) = probe.stats().unwrap();
    assert!(o1.enabled, "obs must be on by default");
    assert!(s1.commits > 0, "first scrape must see commits: {s1:?}");
    assert!(
        s1.prepares > 0,
        "multisite load must have prepared branches"
    );

    load(20);

    let (s2, o2) = probe.stats().unwrap();
    assert!(
        s2.commits > s1.commits,
        "commits must grow between scrapes: {} -> {}",
        s1.commits,
        s2.commits
    );
    assert!(s2.requests > s1.requests);

    // Every Fig. 11 category has accumulated time somewhere: execution and
    // logging from the updates themselves, locking from the 2PL chokepoint,
    // communication from wire frame handling, management from session
    // bookkeeping around the engine call.
    for cat in islands_obs::BreakdownCategory::ALL {
        assert!(
            o2.cat_ns(cat) > 0,
            "breakdown category {} never accumulated",
            cat.label()
        );
    }
    // Local submits are counted as completed transactions on the instance;
    // multisite work reaches a *participant* only as Prepare/Decision
    // branches (the coordinator holds the txn count), so it shows up here as
    // multisite-class phase time plus populated 2PC phase histograms.
    assert!(o2.txns[islands_obs::TxnClass::Local.index()] > 0);
    let multi_ns: u64 = o2.phase_ns[islands_obs::TxnClass::Multisite.index()]
        .iter()
        .sum();
    assert!(multi_ns > 0, "no multisite-class phase time on participant");
    assert!(o2.prepare_us.count > 0, "prepare hist empty");
    assert!(o2.decision_us.count > 0, "decision hist empty");
    assert!(o2.txn_us[0].count > 0);

    // The scrape is non-disruptive: the deployment still serves and drains
    // clean afterwards.
    load(5);
    drop(probe);
    drop(client);
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("no other refs")
        .shutdown();
    for r in &reports {
        assert!(r.clean, "instance {} unclean: {}", r.index, r.detail);
        assert_eq!(r.stats.expect("stats parsed").in_doubt, 0);
    }
}

#[test]
fn with_obs_off_the_stats_reply_and_the_drain_line_still_carry_the_wire_counters() {
    // The configuration the benchmark measures: recording off in every
    // instance. The wire counters are not measurements, so a mid-run
    // `Stats` reply still shows the load, and each instance's drain line
    // says the same.
    let deploy = Arc::new(
        Deployment::spawn(&DeployConfig {
            obs: false,
            ..config(2, Transport::Uds)
        })
        .unwrap(),
    );
    let mut client = deploy.client().unwrap();
    for i in 0..30 {
        let k = i % 100;
        assert!(outcome(client.submit(&update(&[k])).unwrap()).committed);
        assert!(outcome(client.submit(&update(&[200 + k])).unwrap()).committed);
        assert!(outcome(client.submit(&update(&[k + 1, 350 - k])).unwrap()).committed);
    }
    // Settle the acks the links are owed: every decision is applied, and
    // counted, before the scrape.
    client.audit_total().unwrap();
    let scraped: Vec<_> = (0..2)
        .map(|i| {
            let mut probe = Client::connect(&deploy.endpoint(i)).unwrap();
            let (stats, snap) = probe.stats().unwrap();
            assert!(!snap.enabled, "instance {i} records nothing");
            assert!(
                stats.commits > 0 && stats.prepares > 0,
                "instance {i}: {stats:?}"
            );
            assert_eq!(stats.in_doubt, 0, "instance {i}");
            assert_eq!(snap.txns, [0, 0], "instance {i}: no measurement");
            stats
        })
        .collect();
    drop(client);
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("no other refs")
        .shutdown();
    for (r, mid) in reports.iter().zip(&scraped) {
        assert!(r.clean, "instance {} unclean: {}", r.index, r.detail);
        let last = r.stats.expect("stats parsed");
        assert_eq!(
            (last.commits, last.aborts, last.prepares, last.decisions),
            (mid.commits, mid.aborts, mid.prepares, mid.decisions),
            "instance {}",
            r.index
        );
        assert_eq!(last.in_doubt, 0);
    }
}

#[test]
fn serial_engine_deployment_commits_local_and_multisite_and_drains_clean() {
    // The serial executor engine, end to end across real processes: each
    // instance child runs a PartitionExecutor (no lock table on the local
    // fast path) behind the same wire protocol, so local traffic, 2PC, and
    // the teardown invariants must all behave exactly like the locked
    // engine's.
    let deploy = Arc::new(
        Deployment::spawn(&DeployConfig {
            engine: EngineMode::Serial,
            ..config(2, Transport::Uds)
        })
        .unwrap(),
    );
    let mut client = deploy.client().unwrap();

    let local = outcome(client.submit(&update(&[1, 2])).unwrap());
    assert!(local.committed);
    assert!(!local.distributed);

    // Multisite across both instances: wire-level 2PC against executors.
    let multi = outcome(client.submit(&update(&[10, 350])).unwrap());
    assert!(multi.committed, "serial-engine 2PC must commit: {multi:?}");
    assert!(multi.distributed);
    assert_eq!(deploy.decided_commits(), 1);
    assert_eq!(deploy.presumed_aborts(), 0);

    drop(client);
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("no other refs")
        .shutdown();
    let mut commits = 0;
    for r in &reports {
        assert!(r.clean, "instance {} unclean: {}", r.index, r.detail);
        let stats = r.stats.expect("stats parsed");
        assert_eq!(stats.in_doubt, 0);
        commits += stats.commits;
    }
    // 1 local commit + 2 committed update branches.
    assert_eq!(commits, 3);
}

#[test]
fn tpcc_neworder_and_remote_payment_audit_consistent_in_both_engines() {
    // TPC-C over the wire, end to end: a two-instance deployment serving
    // warehouses 0..2 (instance 0) and 2..4 (instance 1). NewOrders are
    // single-home plans on the owner's fast path; remote-warehouse Payments
    // split into two PreparePlan branches and run real wire-level 2PC. The
    // closing invariant is the audit identity: committed row writes across
    // the whole deployment grow by exactly the `write_rows()` sum of the
    // committed plans — both branches of every remote Payment included,
    // nothing double-counted, nothing leaked in doubt.
    for engine in [EngineMode::Locked, EngineMode::Serial] {
        let deploy = Arc::new(
            Deployment::spawn(&DeployConfig {
                engine,
                workload: DeployWorkload::Tpcc { warehouses: 4 },
                ..config(2, Transport::Uds)
            })
            .unwrap(),
        );
        let mut client = deploy.client().unwrap();
        let before = client.audit_total().unwrap();

        let mut expected = 0u64;
        // NewOrders homed at warehouse 0: never distributed.
        for i in 0..10u64 {
            let no = NewOrder {
                w_id: 0,
                d_id: i % 10,
                c_id: (i * 17) % 3000,
                items: vec![i % 1000, (i * 7 + 1) % 1000, 999],
            };
            let plan = no.plan(i); // order key (0 << 32) | i
            let done = outcome(client.submit_plan(&plan).unwrap());
            assert!(done.committed, "[{engine:?}] NewOrder {i}: {done:?}");
            assert!(!done.distributed, "[{engine:?}] NewOrder is single-home");
            expected += plan.write_rows();
        }
        // Remote Payments: home warehouse 1 (instance 0), customer at
        // warehouse 3 (instance 1) — every one crosses the wire as 2PC.
        // Half select the customer by name (range read on the branch).
        for i in 0..10u64 {
            let pay = Payment {
                w_id: 1,
                d_id: i % 10,
                c_w_id: 3,
                c_d_id: (i + 3) % 10,
                c_id: (i * 31) % 3000,
                amount: 100 + i,
            };
            assert!(pay.is_remote());
            let plan = pay.plan((1 << 32) | (0x100 + i), i % 2 == 0);
            assert!(plan.multisite);
            let done = outcome(client.submit_plan(&plan).unwrap());
            assert!(done.committed, "[{engine:?}] remote Payment {i}: {done:?}");
            assert!(done.distributed, "[{engine:?}] Payment must run wire 2PC");
            expected += plan.write_rows();
        }
        assert_eq!(deploy.decided_commits(), 10, "[{engine:?}] one per Payment");
        assert_eq!(deploy.presumed_aborts(), 0);

        let after = client.audit_total().unwrap();
        assert_eq!(
            after - before,
            expected,
            "[{engine:?}] audit delta must equal committed write_rows"
        );

        drop(client);
        let reports = Arc::try_unwrap(deploy)
            .ok()
            .expect("no other refs")
            .shutdown();
        for r in &reports {
            assert!(
                r.clean,
                "[{engine:?}] instance {} unclean: {}",
                r.index, r.detail
            );
            let stats = r.stats.expect("stats parsed");
            assert_eq!(stats.in_doubt, 0, "[{engine:?}] in-doubt leak");
            assert_eq!(stats.presumed_aborts, 0);
        }
    }
}

#[test]
fn resolver_socket_answers_decided_commit_and_presumes_abort_for_unknown() {
    // The in-doubt resolution wire path in isolation: a deployment with a
    // WAL directory exposes the coordinator's resolver socket, which must
    // answer `ResolveGtid` from the durable decision log — commit for a
    // forced decision, abort (presumed) for any gtid it has never heard of.
    let wal_dir = temp_wal_dir("resolver");
    let deploy = Arc::new(
        Deployment::spawn(&DeployConfig {
            wal_dir: Some(wal_dir.clone()),
            ..config(2, Transport::Uds)
        })
        .unwrap(),
    );
    let mut client = deploy.client().unwrap();
    // Gtid 1: a committed multisite update, forced to the decision log.
    assert!(outcome(client.submit(&update(&[10, 350])).unwrap()).committed);
    assert_eq!(deploy.decided_commits(), 1);

    let mut raw = Client::connect(&deploy.resolver_endpoint()).unwrap();
    let mut ask = |gtid| {
        raw.send_request(&Request::ResolveGtid { gtid }).unwrap();
        match raw.recv_reply().unwrap() {
            Reply::Resolved { gtid: g, commit } if g == gtid => commit,
            other => panic!("unexpected reply {other:?}"),
        }
    };
    assert_eq!(ask(1), Some(true), "forced commit must resolve commit");
    assert_eq!(ask(4242), Some(false), "unknown gtid must presume abort");

    drop(raw);
    drop(client);
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("no other refs")
        .shutdown();
    assert!(reports.iter().all(|r| r.clean), "{reports:?}");
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn restart_instance_reclaims_stale_socket_and_serves_again() {
    // Regression: SIGKILL leaves the instance's UDS socket file behind. A
    // respawn on the same path must reclaim it (not fail with AddrInUse,
    // not leave a dead file that eats the next connection) and the
    // deployment's cached client must recover through its reconnect path.
    // The live-client count the poll rule reads follows the clients, not
    // their connections.
    let deploy = Arc::new(Deployment::spawn(&config(1, Transport::Uds)).unwrap());
    let sock = match deploy.endpoint(0) {
        Endpoint::Uds(p) => p,
        other => panic!("uds deployment, got {other:?}"),
    };
    let mut client = deploy.client().unwrap();
    let other = deploy.client().unwrap();
    assert_eq!(deploy.live_clients(), 2);
    drop(other);
    assert_eq!(deploy.live_clients(), 1);
    assert!(outcome(client.submit(&update(&[5])).unwrap()).committed);

    deploy.kill_instance(0).unwrap();
    assert!(sock.exists(), "SIGKILL must leave the socket file behind");
    deploy.restart_instance(0).unwrap();

    // A fresh connection reaches the rebound socket immediately...
    let mut fresh = Client::connect(&deploy.endpoint(0)).unwrap();
    fresh.ping().unwrap();
    // ...and the deploy client's stale cached connection retries through.
    let done = submit_until_committed(&mut client, &update(&[7]));
    assert!(!done.distributed);

    assert_eq!(deploy.live_clients(), 1, "a reconnect is the same client");
    drop(fresh);
    drop(client);
    assert_eq!(deploy.live_clients(), 0);
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("no other refs")
        .shutdown();
    assert!(
        reports[0].clean,
        "restarted instance unclean: {}",
        reports[0].detail
    );
    assert_eq!(reports[0].stats.expect("stats parsed").in_doubt, 0);
}

#[test]
fn killed_participant_rejoins_and_resolves_in_doubt_in_both_engines() {
    // The headline crash drill. Per engine mode: a two-instance WAL-backed
    // deployment loses instance 1 to a scripted SIGKILL *after* it voted
    // Yes (prepare records durable) but *before* the commit decision
    // reaches it, with a second branch prepared by a coordinator that never
    // decides. After `restart_instance` the rejoined process must have
    // replayed its WAL, asked the coordinator's resolver, and settled both
    // ways: the decided gtid commits, the undecided one presumed-aborts —
    // then keep serving local and 2PC traffic with the audit identity
    // intact and nothing left in doubt at drain.
    for engine in [EngineMode::Locked, EngineMode::Serial] {
        let wal_dir = temp_wal_dir(&format!("rejoin-{engine:?}"));
        let deploy = Arc::new(
            Deployment::spawn(&DeployConfig {
                engine,
                wal_dir: Some(wal_dir.clone()),
                ..config(2, Transport::Uds)
            })
            .unwrap(),
        );
        let mut client = deploy.client().unwrap();
        let base = client.audit_total().unwrap();

        // Gtid 1: baseline multisite commit, both instances healthy.
        assert!(
            outcome(client.submit(&update(&[10, 350])).unwrap()).committed,
            "[{engine:?}] baseline"
        );

        // The undecided branch: a raw coordinator prepares gtid 9001 on
        // instance 1 and then goes silent *without disconnecting* — a
        // disconnect would leave the branch ownerless for the live resolver
        // pass; staying connected keeps it owned and in doubt until the
        // SIGKILL.
        let mut zombie = Client::connect(&deploy.endpoint(1)).unwrap();
        zombie
            .send_request(&Request::Prepare(TxnBranch {
                gtid: 9001,
                req: update(&[370]),
            }))
            .unwrap();
        match zombie.recv_reply().unwrap() {
            Reply::Vote {
                gtid: 9001,
                vote: Vote::Yes,
            } => {}
            other => panic!("[{engine:?}] unexpected reply {other:?}"),
        }

        // Gtid 2: the scripted fault kills instance 1 after both Yes votes
        // are in but before the decision frame goes out. The coordinator
        // forces the commit decision first, so this transaction *is*
        // committed — the victim just never hears it until recovery asks.
        deploy.arm_fault(FaultPlan {
            point: FaultPoint::PostPreparePreDecision,
            victim: 1,
        });
        let decided = outcome(client.submit(&update(&[20, 360])).unwrap());
        assert!(
            decided.committed,
            "[{engine:?}] forced commit must stand: {decided:?}"
        );
        assert!(decided.distributed);
        assert_eq!(deploy.faults_fired(), 1, "[{engine:?}] fault must fire");
        assert_eq!(deploy.decided_commits(), 2);
        drop(zombie); // the instance is dead; this disconnect reaches nobody

        // Rejoin: replay the WAL (parking gtids 2 and 9001), dial the
        // resolver before READY, settle both branches.
        deploy.restart_instance(1).unwrap();

        // Key 370 commits only if gtid 9001's presumed abort released its
        // parked footprint; the submit also walks the client's stale-socket
        // reconnect path.
        let freed = submit_until_committed(&mut client, &update(&[370]));
        assert!(!freed.distributed);

        // Audit identity across the deployment: baseline (2 rows) + the
        // decided gtid's two branches (2 rows — instance 1's applied during
        // recovery) + key 370 (1 row); the aborted branch contributes 0.
        assert_eq!(
            client.audit_total().unwrap() - base,
            5,
            "[{engine:?}] audit after rejoin"
        );

        // The rejoined instance's own metrics tell the recovery story.
        let mut probe = Client::connect(&deploy.endpoint(1)).unwrap();
        let (_, snap) = probe.stats().unwrap();
        assert_eq!(snap.recoveries, 1, "[{engine:?}] one WAL replay");
        assert_eq!(
            snap.in_doubt_commit, 1,
            "[{engine:?}] decided gtid resolved commit"
        );
        assert_eq!(
            snap.in_doubt_abort, 1,
            "[{engine:?}] undecided gtid presumed abort"
        );
        drop(probe);

        // And it serves wire 2PC again: same keys as the decided gtid.
        let again = outcome(client.submit(&update(&[20, 360])).unwrap());
        assert!(
            again.committed && again.distributed,
            "[{engine:?}] rejoined 2PC: {again:?}"
        );
        assert_eq!(client.audit_total().unwrap() - base, 7);

        drop(client);
        let reports = Arc::try_unwrap(deploy)
            .ok()
            .expect("no other refs")
            .shutdown();
        for r in &reports {
            assert!(
                r.clean,
                "[{engine:?}] instance {} unclean: {}",
                r.index, r.detail
            );
            assert_eq!(
                r.stats.expect("stats parsed").in_doubt,
                0,
                "[{engine:?}] in-doubt leak at drain"
            );
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
}

/// One instance's live wire counters, scraped on a connection of its own.
fn scrape(deploy: &Deployment, i: usize) -> islands_server::ServerStats {
    Client::connect(&deploy.endpoint(i))
        .unwrap()
        .stats()
        .unwrap()
        .0
}

#[test]
fn back_to_back_commits_are_all_applied_once_their_client_is_gone_in_both_engines() {
    // A 2PC submit returns when its Decision frames are written; the acks
    // are read by the next exchange on each link. Nobody may ever see the
    // difference: after `drop(client)` a *fresh* connection finds every
    // decision applied, and the client's own audit rides behind its acks.
    for engine in [EngineMode::Locked, EngineMode::Serial] {
        let deploy = Arc::new(
            Deployment::spawn(&DeployConfig {
                engine,
                ..config(2, Transport::Uds)
            })
            .unwrap(),
        );
        let mut client = deploy.client().unwrap();
        let base = client.audit_total().unwrap();
        let run = |client: &mut islands_server::DeployClient| {
            for i in 0..200u64 {
                let k = i % 100;
                let done = outcome(client.submit(&update(&[k, 399 - k])).unwrap());
                assert!(
                    done.committed && done.distributed,
                    "[{engine:?}] commit {i}: {done:?}"
                );
            }
        };

        // (a) Drop the client, then look from a new one.
        run(&mut client);
        assert_eq!(deploy.decided_commits(), 200, "[{engine:?}]");
        assert_eq!(
            deploy.remembered_decisions(),
            1,
            "[{engine:?}] only the last round's acks are still owed"
        );
        drop(client);
        assert_eq!(
            deploy.remembered_decisions(),
            0,
            "[{engine:?}] drop settles what was owed"
        );
        for i in 0..2 {
            let s = scrape(&deploy, i);
            assert_eq!(
                (
                    s.prepares,
                    s.decisions,
                    s.in_doubt,
                    s.errors,
                    s.presumed_aborts
                ),
                (200, 200, 0, 0, 0),
                "[{engine:?}] instance {i} after the client left: {s:?}"
            );
        }
        let mut fresh = deploy.client().unwrap();
        assert_eq!(
            fresh.audit_total().unwrap() - base,
            400,
            "[{engine:?}] a fresh client must see every acknowledged write"
        );

        // (b) No drop: the client's own audit settles its own debt.
        run(&mut fresh);
        assert_eq!(
            fresh.audit_total().unwrap() - base,
            800,
            "[{engine:?}] own audit"
        );
        assert_eq!(deploy.decided_commits(), 400, "[{engine:?}] monotone");
        assert_eq!(deploy.remembered_decisions(), 0, "[{engine:?}]");
        assert_eq!(deploy.presumed_aborts(), 0);

        drop(fresh);
        let reports = Arc::try_unwrap(deploy)
            .ok()
            .expect("no other refs")
            .shutdown();
        for r in &reports {
            assert!(
                r.clean,
                "[{engine:?}] instance {} unclean: {}",
                r.index, r.detail
            );
            let s = r.stats.expect("stats parsed");
            assert_eq!(
                (
                    s.prepares,
                    s.decisions,
                    s.in_doubt,
                    s.errors,
                    s.presumed_aborts
                ),
                (400, 400, 0, 0, 0),
                "[{engine:?}] instance {} at drain",
                r.index
            );
        }
    }
}

#[test]
fn a_local_submit_to_a_participant_that_owes_an_ack_gets_its_own_reply() {
    for engine in [EngineMode::Locked, EngineMode::Serial] {
        let deploy = Arc::new(
            Deployment::spawn(&DeployConfig {
                engine,
                ..config(2, Transport::Uds)
            })
            .unwrap(),
        );
        let mut client = deploy.client().unwrap();
        let base = client.audit_total().unwrap();
        assert!(outcome(client.submit(&update(&[10, 350])).unwrap()).committed);
        assert_eq!(deploy.remembered_decisions(), 1, "[{engine:?}] acks owed");

        // Both links owe Ack(1). A single-site plan on either must come
        // back as that plan's outcome — on the very keys the branch held —
        // with the ack read and discarded ahead of it.
        for key in [10, 350] {
            let local = outcome(client.submit(&update(&[key])).unwrap());
            assert!(
                local.committed && !local.distributed,
                "[{engine:?}] local on {key}: {local:?}"
            );
        }
        assert_eq!(deploy.remembered_decisions(), 0, "[{engine:?}] both paid");

        // The links are still in step: another round and an audit agree.
        assert!(outcome(client.submit(&update(&[11, 351])).unwrap()).committed);
        assert_eq!(client.audit_total().unwrap() - base, 6, "[{engine:?}]");
        assert_eq!(deploy.presumed_aborts(), 0);

        drop(client);
        let reports = Arc::try_unwrap(deploy)
            .ok()
            .expect("no other refs")
            .shutdown();
        for r in &reports {
            assert!(r.clean, "[{engine:?}] {}", r.detail);
            let s = r.stats.expect("stats parsed");
            assert_eq!((s.in_doubt, s.errors, s.presumed_aborts), (0, 0, 0));
        }
    }
}

#[test]
fn participant_killed_behind_its_decision_frame_keeps_the_acknowledged_commit() {
    // `PostDecisionPreAck`: the victim dies the instant its commit Decision
    // is written. The submit has nothing left to wait for — it returns
    // commit, as the forced record entitles it to. The loss surfaces once,
    // on the next use of that link, and after a restart the victim holds
    // the write whether it had applied the frame or recovery had to ask.
    for engine in [EngineMode::Locked, EngineMode::Serial] {
        let wal_dir = temp_wal_dir(&format!("post-decision-{engine:?}"));
        let deploy = Arc::new(
            Deployment::spawn(&DeployConfig {
                engine,
                wal_dir: Some(wal_dir.clone()),
                ..config(2, Transport::Uds)
            })
            .unwrap(),
        );
        let mut client = deploy.client().unwrap();
        let base = client.audit_total().unwrap();
        assert!(outcome(client.submit(&update(&[10, 350])).unwrap()).committed);

        deploy.arm_fault(FaultPlan {
            point: FaultPoint::PostDecisionPreAck,
            victim: 1,
        });
        let decided = outcome(client.submit(&update(&[20, 360])).unwrap());
        assert!(
            decided.committed && !decided.presumed_abort,
            "[{engine:?}] the forced commit is the answer: {decided:?}"
        );
        assert_eq!(deploy.faults_fired(), 1, "[{engine:?}] fault must fire");
        assert_eq!(deploy.decided_commits(), 2);

        // The dead link says so exactly once...
        match client.submit(&update(&[370])).unwrap() {
            DeployReply::InstanceDown(1) => {}
            other => panic!("[{engine:?}] expected InstanceDown(1), got {other:?}"),
        }
        // ...while the survivor's link, which also owed an ack, just pays.
        let local = outcome(client.submit(&update(&[20])).unwrap());
        assert!(local.committed, "[{engine:?}] survivor: {local:?}");

        deploy.restart_instance(1).unwrap();
        let freed = submit_until_committed(&mut client, &update(&[370]));
        assert!(!freed.distributed);
        // 2 + 2 rows from the two commits, 1 + 1 from the locals.
        assert_eq!(
            client.audit_total().unwrap() - base,
            6,
            "[{engine:?}] the acknowledged write survived its participant"
        );

        drop(client);
        let reports = Arc::try_unwrap(deploy)
            .ok()
            .expect("no other refs")
            .shutdown();
        for r in &reports {
            assert!(
                r.clean,
                "[{engine:?}] instance {} unclean: {}",
                r.index, r.detail
            );
            assert_eq!(r.stats.expect("stats parsed").in_doubt, 0);
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
}
