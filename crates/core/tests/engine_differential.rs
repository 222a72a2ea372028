//! Differential test: the locked engine and the serial executor are
//! result-equivalent.
//!
//! One `MicroSpec`-generated trace is replayed through both engine modes —
//! the locked [`PartitionEngine`] (2PL, wait-die) and the
//! [`PartitionExecutor`] (serial, no lock table) — by **one** `replay`
//! written against the [`Engine`]/[`Session`] surface: nothing in it knows
//! which mode it drives. The trace interleaves local submissions *inside*
//! the in-doubt window of prepared 2PC branches — including branches later
//! decided **abort**, deliberately conflicting locals, and branches whose
//! engine is killed after the vote and rebuilt over its WAL, so the
//! decision lands on a branch restart replay re-parked — and the claim
//! under test is exact per-step outcome equality, equal commit counts, and
//! equal `audit_sum()`.
//!
//! Why equality holds: under the locked engine an in-doubt branch is the
//! *oldest* holder of its row locks, so wait-die kills every conflicting
//! newcomer immediately; the executor answers a conflicting request with an
//! immediate abort off its in-doubt key set. A re-parked branch guards its
//! footprint the same way in both modes: both park every branch, live or
//! replayed, in the partition's one in-doubt table. Same observable
//! behavior, no locks on the serial side.

use std::path::{Path, PathBuf};

use islands_core::native::{
    DecideOutcome, Engine, EngineMode, ExecError, ExecutorConfig, PartitionConfig, PartitionEngine,
    PartitionExecutor, TpccPartition,
};
use islands_dtxn::Vote;
use islands_storage::StorageError;
use islands_workload::plan::PlanRequest;
use islands_workload::{MicroGenerator, MicroSpec, OpKind, TpccGenerator, TpccSpec, TxnRequest};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const ROWS: u64 = 240;
const SITES: u64 = 4;
/// Retry budget of local submissions (moot for the serial executor).
const RETRIES: u32 = 4;

/// One step of the replay script.
enum Step {
    /// A fully-local submission.
    Local(TxnRequest),
    /// A 2PC branch: prepare, interleave the locals while in-doubt, then
    /// decide.
    Branch {
        gtid: u64,
        req: TxnRequest,
        /// Local submissions executed while the branch is in-doubt. Some
        /// deliberately reuse the branch's home key to force conflicts.
        interleave: Vec<TxnRequest>,
        commit: bool,
        /// Kill the engine once the branch has voted Yes and rebuild it
        /// over the WAL: the interleave and the decision then meet the
        /// branch as restart replay re-parked it.
        restart: bool,
    },
}

/// Outcomes of one step, in the same shape for both engines. A branch step
/// records the vote-equivalent plus each interleaved local's fate.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Local {
        committed: bool,
    },
    Branch {
        prepared: bool,
        interleaved: Vec<bool>,
        committed: bool,
    },
}

fn partition_config(wal: Option<&Path>) -> PartitionConfig {
    PartitionConfig {
        lo: 0,
        hi: ROWS,
        row_size: 16,
        buffer_frames: 512,
        wal: wal.map(Path::to_path_buf),
        ..Default::default()
    }
}

/// The one place a mode is named: everything downstream sees `dyn Engine`.
fn build(mode: EngineMode, wal: Option<&Path>) -> Box<dyn Engine> {
    build_partition(mode, partition_config(wal))
}

fn build_partition(mode: EngineMode, partition: PartitionConfig) -> Box<dyn Engine> {
    match mode {
        EngineMode::Locked => Box::new(PartitionEngine::build(&partition).unwrap()),
        EngineMode::Serial => {
            Box::new(PartitionExecutor::spawn(ExecutorConfig { partition }).unwrap())
        }
    }
}

/// Fresh scratch WAL path for one test's run of `mode`.
fn temp_wal(mode: EngineMode, tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "islands-differential-{}-{mode}-{tag}.wal",
        std::process::id(),
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Build the script from a generated request stream. Multisite requests
/// become branches; the locals that follow are pulled inside their in-doubt
/// window; every third branch additionally gets a synthesized conflicting
/// local (its own home key plus fresh fillers), every third branch is
/// decided abort, and every fourth is decided across an engine restart
/// (so restarts meet commits, aborts and forced conflicts alike).
fn build_script(kind: OpKind) -> Vec<Step> {
    let spec = MicroSpec {
        kind,
        rows_per_txn: 3,
        multisite_pct: 0.4,
        skew: 0.0,
        multisite_sites: None,
        total_rows: ROWS,
        row_size: 16,
    };
    let gen = MicroGenerator::new(spec, SITES);
    let mut rng = SmallRng::seed_from_u64(0xd1ff);
    let reqs: Vec<TxnRequest> = (0..240).map(|_| gen.next(&mut rng)).collect();

    let mut steps = Vec::new();
    let mut gtid = 1u64;
    let mut it = reqs.into_iter().peekable();
    while let Some(req) = it.next() {
        if !req.multisite {
            steps.push(Step::Local(req));
            continue;
        }
        let mut interleave = Vec::new();
        // Pull the next few locals inside the in-doubt window.
        while interleave.len() < 2 && it.peek().is_some_and(|r| !r.multisite) {
            interleave.push(it.next().expect("peeked"));
        }
        if gtid.is_multiple_of(3) {
            // Force a conflict: a local touching the branch's home key.
            let home = req.keys[0];
            interleave.push(TxnRequest {
                kind,
                keys: vec![home, (home + 1) % ROWS, (home + 2) % ROWS],
                multisite: false,
            });
        }
        steps.push(Step::Branch {
            gtid,
            req,
            interleave,
            commit: !gtid.is_multiple_of(3),
            restart: gtid.is_multiple_of(4),
        });
        gtid += 1;
    }
    steps
}

/// Replay the script through one engine mode, entirely on the session
/// surface. Returns the per-step outcomes and the final audit sum.
fn replay(mode: EngineMode, kind: OpKind, steps: &[Step]) -> (Vec<Outcome>, u64) {
    let wal = temp_wal(mode, kind.label());
    let mut engine = build(mode, Some(&wal));
    let mut session = engine.session(RETRIES);
    let mut outcomes = Vec::new();
    for step in steps {
        match step {
            Step::Local(req) => outcomes.push(Outcome::Local {
                committed: session.submit(&req.to_plan()).unwrap().committed,
            }),
            Step::Branch {
                gtid,
                req,
                interleave,
                commit,
                restart,
            } => {
                let vote = session.prepare(*gtid, &req.to_plan()).unwrap();
                if *restart && vote == Vote::Yes {
                    // kill -9: no session close, no engine shutdown —
                    // either would log the presumed abort a crash never
                    // writes. The dead incarnation is leaked, not dropped.
                    std::mem::forget(session);
                    std::mem::forget(engine);
                    engine = build(mode, Some(&wal));
                    assert_eq!(engine.recovered_gtids().unwrap(), [*gtid]);
                    session = engine.session(RETRIES);
                }
                let interleaved = interleave
                    .iter()
                    .map(|il| session.submit(&il.to_plan()).unwrap().committed)
                    .collect();
                let committed = match vote {
                    Vote::Yes => {
                        assert_eq!(
                            session.decide(*gtid, *commit).unwrap(),
                            DecideOutcome::Applied
                        );
                        *commit
                    }
                    // Read-only branches committed at prepare; No-voting
                    // branches rolled back (neither occurs with conflicts
                    // scripted only against already-prepared branches).
                    Vote::ReadOnly => true,
                    Vote::No => false,
                };
                outcomes.push(Outcome::Branch {
                    prepared: vote == Vote::Yes,
                    interleaved,
                    committed,
                });
            }
        }
    }
    assert_eq!(session.close(), 0, "every branch was decided");
    drop(session);
    assert!(engine.recovered_gtids().unwrap().is_empty());
    let audit = engine.audit_sum().unwrap();
    let _ = std::fs::remove_file(&wal);
    (outcomes, audit)
}

fn committed_count(outcomes: &[Outcome]) -> u64 {
    outcomes
        .iter()
        .map(|o| match o {
            Outcome::Local { committed } => *committed as u64,
            Outcome::Branch {
                interleaved,
                committed,
                ..
            } => *committed as u64 + interleaved.iter().filter(|c| **c).count() as u64,
        })
        .sum()
}

fn run_differential(kind: OpKind) {
    let steps = build_script(kind);
    let branches = steps
        .iter()
        .filter(|s| matches!(s, Step::Branch { .. }))
        .count();
    assert!(
        branches >= 20,
        "script must exercise 2PC ({branches} branches)"
    );
    let aborted_branches = steps
        .iter()
        .filter(|s| matches!(s, Step::Branch { commit: false, .. }))
        .count();
    assert!(aborted_branches >= 5, "script must abort branches");
    let restarted = |commit| {
        steps
            .iter()
            .any(|s| matches!(s, Step::Branch { commit: c, restart: true, .. } if *c == commit))
    };
    assert!(
        kind == OpKind::Read || (restarted(true) && restarted(false)),
        "script must decide re-parked branches both ways"
    );

    let (locked, locked_audit) = replay(EngineMode::Locked, kind, &steps);
    let (serial, serial_audit) = replay(EngineMode::Serial, kind, &steps);

    assert_eq!(locked.len(), serial.len(), "both engines replay every step");
    for (i, (l, s)) in locked.iter().zip(&serial).enumerate() {
        assert_eq!(l, s, "step {i} diverged between locked and serial");
    }
    assert_eq!(
        committed_count(&locked),
        committed_count(&serial),
        "{} vs {}: commit counts must agree",
        EngineMode::Locked,
        EngineMode::Serial,
    );
    assert_eq!(
        locked_audit, serial_audit,
        "audit sums must agree after the full trace"
    );
}

#[test]
fn update_trace_is_engine_equivalent() {
    run_differential(OpKind::Update);
}

#[test]
fn read_trace_is_engine_equivalent() {
    // Read-only branches take the ReadOnly-vote path (no in-doubt window)
    // in both engines; the audit sums are trivially zero but the per-step
    // outcome equality is still load-bearing.
    run_differential(OpKind::Read);
}

#[test]
fn conflicting_locals_abort_identically_in_both_engines() {
    // The sharpest corner, pinned explicitly: while a branch is in-doubt,
    // a conflicting local must fail in *both* engines (wait-die kills the
    // younger txn under 2PL; the executor's in-doubt key set answers the
    // same way), and succeed in both once the branch aborts.
    let req = TxnRequest {
        kind: OpKind::Update,
        keys: vec![10, 11],
        multisite: true,
    };
    let conflicting = TxnRequest {
        kind: OpKind::Update,
        keys: vec![11, 12],
        multisite: false,
    };

    let run = |mode| {
        let engine = build(mode, None);
        let mut session = engine.session(RETRIES);
        assert_eq!(session.prepare(1, &req.to_plan()).unwrap(), Vote::Yes);
        let blocked = session.submit(&conflicting.to_plan()).unwrap().committed;
        assert_eq!(session.decide(1, false).unwrap(), DecideOutcome::Applied);
        let after = session.submit(&conflicting.to_plan()).unwrap().committed;
        drop(session);
        (blocked, after, engine.audit_sum().unwrap())
    };
    let (locked_blocked, locked_after, locked_audit) = run(EngineMode::Locked);
    let (serial_blocked, serial_after, serial_audit) = run(EngineMode::Serial);

    assert_eq!(locked_blocked, serial_blocked);
    assert!(!locked_blocked, "in-doubt keys must block the local txn");
    assert_eq!(locked_after, serial_after);
    assert!(locked_after, "aborted branch must release the keys");
    assert_eq!(
        locked_audit, serial_audit,
        "conflict corner leaves identical state"
    );
}

#[test]
fn in_doubt_branches_belong_to_the_partition_in_both_engines() {
    let update = |key: u64| {
        TxnRequest {
            kind: OpKind::Update,
            keys: vec![key],
            multisite: true,
        }
        .to_plan()
    };
    for mode in [EngineMode::Locked, EngineMode::Serial] {
        // A decision sent on another session lands: the preparing session
        // has nothing left to presume aborted.
        let engine = build(mode, None);
        let mut a = engine.session(RETRIES);
        let mut b = engine.session(RETRIES);
        assert_eq!(a.prepare(1, &update(10)).unwrap(), Vote::Yes, "{mode}");
        assert_eq!(b.decide(1, true).unwrap(), DecideOutcome::Applied, "{mode}");
        assert_eq!(a.close(), 0, "{mode}: decided elsewhere");
        assert_eq!(engine.audit_sum().unwrap(), 1, "{mode}");

        // One gtid, one branch per partition, whichever session asks.
        assert_eq!(a.prepare(2, &update(20)).unwrap(), Vote::Yes, "{mode}");
        assert!(
            matches!(b.prepare(2, &update(21)), Err(ExecError::DuplicateGtid(2))),
            "{mode}"
        );
        assert_eq!(
            a.decide(2, false).unwrap(),
            DecideOutcome::Applied,
            "{mode}"
        );
        drop((a, b));
        drop(engine);

        // A replayed branch's gtid is taken too, and its decision finds it.
        let wal = temp_wal(mode, "replayed-gtid");
        let first = build(mode, Some(&wal));
        let mut s = first.session(RETRIES);
        assert_eq!(s.prepare(77, &update(50)).unwrap(), Vote::Yes, "{mode}");
        std::mem::forget(s);
        std::mem::forget(first);
        let engine = build(mode, Some(&wal));
        assert_eq!(engine.recovered_gtids().unwrap(), [77], "{mode}");
        let mut s = engine.session(RETRIES);
        assert!(
            matches!(
                s.prepare(77, &update(60)),
                Err(ExecError::DuplicateGtid(77))
            ),
            "{mode}"
        );
        assert_eq!(
            s.decide(77, true).unwrap(),
            DecideOutcome::Applied,
            "{mode}"
        );
        assert!(engine.recovered_gtids().unwrap().is_empty(), "{mode}");
        assert_eq!(engine.audit_sum().unwrap(), 1, "{mode}: redone once");
        drop(s);
        drop(engine);
        let _ = std::fs::remove_file(&wal);
    }
}

/// A durable TPC-C partition rebuilt over its WAL — a bulk load of the four
/// loaded tables, then replay — holds every committed write again in both
/// engines: the audit sum matches, and each committed plan's history or
/// order insert is back (running the plan again hits the row).
#[test]
fn a_tpcc_partition_rebuilt_over_its_wal_keeps_every_commit_in_both_engines() {
    let spec = TpccSpec {
        warehouses: 2,
        remote_pct: 0.15,
    };
    let mut generator = TpccGenerator::new(spec, 0);
    let mut rng = SmallRng::seed_from_u64(0x7cc);
    let plans: Vec<PlanRequest> = (0..300).map(|_| generator.next(&mut rng)).collect();
    for mode in [EngineMode::Locked, EngineMode::Serial] {
        let wal = temp_wal(mode, "tpcc-restart");
        let cfg = PartitionConfig {
            buffer_frames: 1024,
            tpcc: Some(TpccPartition {
                warehouses: 2,
                w_lo: 0,
                w_hi: 2,
            }),
            wal: Some(wal.clone()),
            ..Default::default()
        };
        let engine = build_partition(mode, cfg.clone());
        let mut session = engine.session(RETRIES);
        let mut committed = Vec::new();
        for plan in &plans {
            if session.submit(plan).unwrap().committed {
                committed.push(plan);
            }
        }
        drop(session);
        let audit = engine.audit_sum().unwrap();
        let writes: u64 = committed.iter().map(|p| p.write_rows()).sum();
        assert_eq!(audit, writes, "{mode}");
        assert!(
            committed.len() > 250,
            "{mode}: {} committed",
            committed.len()
        );
        drop(engine);

        let engine = build_partition(mode, cfg);
        assert!(engine.recovered_gtids().unwrap().is_empty(), "{mode}");
        assert_eq!(engine.audit_sum().unwrap(), audit, "{mode}");
        let mut session = engine.session(RETRIES);
        for plan in committed {
            assert!(
                matches!(
                    session.submit(plan),
                    Err(ExecError::Storage(StorageError::DuplicateKey(_)))
                ),
                "{mode}: a committed insert was not replayed"
            );
        }
        assert_eq!(
            engine.audit_sum().unwrap(),
            audit,
            "{mode}: the repeats changed nothing"
        );
        drop(session);
        drop(engine);
        let _ = std::fs::remove_file(&wal);
    }
}
