//! In-process ≡ spawned: one seeded script of mixed plans through the
//! in-process cluster in both engine modes and through a spawned deployment
//! of the same shape. They share the router, the 2PC driver and the frame
//! mappers, so every request must be classified alike, every instance must
//! count the same frames, and the audits must agree.

use std::path::PathBuf;
use std::sync::Arc;

use islands_server::deploy::{DeployConfig, DeployReply, Deployment, SpawnMode, Transport};
use islands_server::{Cluster, ClusterConfig, EngineMode, InstanceStats};
use islands_workload::plan::{PlanClass, PlanRequest, PlanStep, StepOp, MICRO_TABLE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const INSTANCES: usize = 4;
const ROWS: u64 = 403; // not divisible: the last instance owns the remainder
const PER: u64 = ROWS / INSTANCES as u64;
const SCRIPT_LEN: usize = 240;

/// What a submitter can tell apart: an outcome, or a refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Outcome { committed: bool, distributed: bool },
    Refused,
}

fn classify(reply: DeployReply) -> Seen {
    match reply {
        DeployReply::Outcome(o) => Seen::Outcome {
            committed: o.committed,
            distributed: o.distributed,
        },
        DeployReply::ServerError(_) => Seen::Refused,
        DeployReply::InstanceDown(i) => panic!("instance {i} down in a fault-free script"),
    }
}

/// A key of instance `i`, never its first `8` (room for range reads).
fn key_in(rng: &mut SmallRng, i: usize) -> u64 {
    i as u64 * PER + rng.gen_range(0..PER - 8)
}

/// `n` distinct instances, home first.
fn pick_instances(rng: &mut SmallRng, n: usize) -> Vec<usize> {
    let mut picked = Vec::with_capacity(n);
    while picked.len() < n {
        let i = rng.gen_range(0..INSTANCES);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

fn script() -> Vec<PlanRequest> {
    let mut rng = SmallRng::seed_from_u64(0x151A_4D5E);
    let plan = |steps: Vec<PlanStep>| PlanRequest {
        class: PlanClass::Generic,
        multisite: steps.len() > 1,
        steps,
    };
    let point = |key, op| PlanStep::point(MICRO_TABLE, key, op);
    (0..SCRIPT_LEN)
        .map(|n| match n % 10 {
            // Local update and local read, two rows each.
            0 | 1 => {
                let i = rng.gen_range(0..INSTANCES);
                let op = if n % 10 == 0 {
                    StepOp::Update
                } else {
                    StepOp::Read
                };
                let a = key_in(&mut rng, i);
                plan(vec![point(a, op), point(a + 1, op)])
            }
            // Two-site and three-site updates.
            2..=4 => {
                let sites = pick_instances(&mut rng, if n % 10 == 4 { 3 } else { 2 });
                plan(
                    sites
                        .iter()
                        .map(|&i| point(key_in(&mut rng, i), StepOp::Update))
                        .collect(),
                )
            }
            // Read-only across two sites: 2PC with no phase 2.
            5 => {
                let sites = pick_instances(&mut rng, 2);
                plan(
                    sites
                        .iter()
                        .map(|&i| point(key_in(&mut rng, i), StepOp::Read))
                        .collect(),
                )
            }
            // One read-only branch beside a writing one.
            6 => {
                let sites = pick_instances(&mut rng, 2);
                plan(vec![
                    point(key_in(&mut rng, sites[0]), StepOp::Read),
                    point(key_in(&mut rng, sites[1]), StepOp::Update),
                ])
            }
            // A local dependent read (range) followed by an update.
            7 => {
                let i = rng.gen_range(0..INSTANCES);
                let a = key_in(&mut rng, i);
                plan(vec![
                    PlanStep::range(MICRO_TABLE, a, 4),
                    point(a + 2, StepOp::Update),
                ])
            }
            // Out of range, alone: refused by the last instance.
            8 => plan(vec![point(
                ROWS + rng.gen_range(0..1_000u64),
                StepOp::Update,
            )]),
            // Out of range as one branch of a 2PC whose other branch is fine
            // (never the last instance, which owns the bad key's branch).
            _ => {
                let i = rng.gen_range(0..INSTANCES - 1);
                plan(vec![
                    point(key_in(&mut rng, i), StepOp::Update),
                    point(ROWS + 5, StepOp::Update),
                ])
            }
        })
        .collect()
}

struct Run {
    seen: Vec<Seen>,
    audit: u64,
    per_instance: Vec<InstanceStats>,
}

fn run_inproc(engine: EngineMode, script: &[PlanRequest]) -> Run {
    let cluster = Cluster::build(&ClusterConfig {
        n_instances: INSTANCES,
        total_rows: ROWS,
        row_size: 16,
        engine,
        buffer_frames: 512,
        ..Default::default()
    })
    .unwrap();
    let mut client = cluster.client(DeployConfig::default().retry_limit);
    let seen = script
        .iter()
        .map(|p| classify(client.submit_plan(p).unwrap()))
        .collect();
    drop(client);
    Run {
        seen,
        audit: cluster.audit_sum().unwrap(),
        per_instance: (0..INSTANCES)
            .map(|i| {
                let s = cluster.stats(i);
                InstanceStats {
                    commits: s.commits,
                    aborts: s.aborts,
                    errors: s.errors,
                    prepares: s.prepares,
                    decisions: s.decisions,
                    presumed_aborts: s.presumed_aborts,
                    in_doubt: s.in_doubt,
                }
            })
            .collect(),
    }
}

fn run_spawned(script: &[PlanRequest]) -> Run {
    let deploy = Arc::new(
        Deployment::spawn(&DeployConfig {
            instances: INSTANCES,
            transport: Transport::Uds,
            total_rows: ROWS,
            row_size: 16,
            pin: false,
            spawn: SpawnMode::Binary(PathBuf::from(env!("CARGO_BIN_EXE_islands-instance"))),
            ..Default::default()
        })
        .unwrap(),
    );
    let mut client = deploy.client().unwrap();
    let seen = script
        .iter()
        .map(|p| classify(client.submit_plan(p).unwrap()))
        .collect();
    let audit = client.audit_total().unwrap();
    drop(client);
    let reports = Arc::try_unwrap(deploy)
        .ok()
        .expect("no other refs")
        .shutdown();
    Run {
        seen,
        audit,
        per_instance: reports
            .iter()
            .map(|r| {
                assert!(r.clean, "instance {} unclean: {}", r.index, r.detail);
                r.stats.expect("stats parsed")
            })
            .collect(),
    }
}

#[test]
fn one_script_reads_the_same_in_process_locked_serial_and_spawned() {
    let script = script();
    let locked = run_inproc(EngineMode::Locked, &script);
    let serial = run_inproc(EngineMode::Serial, &script);
    let spawned = run_spawned(&script);

    // The script is what it claims to be: every class occurs, and nothing
    // contends, so every well-formed plan commits.
    let expected_audit: u64 = script
        .iter()
        .zip(&locked.seen)
        .filter(|(_, s)| {
            matches!(
                s,
                Seen::Outcome {
                    committed: true,
                    ..
                }
            )
        })
        .map(|(p, _)| p.write_rows())
        .sum();
    let count = |f: fn(&Seen) -> bool| locked.seen.iter().filter(|s| f(s)).count();
    assert_eq!(count(|s| *s == Seen::Refused), SCRIPT_LEN / 10 * 2);
    assert_eq!(
        count(|s| matches!(
            s,
            Seen::Outcome {
                committed: true,
                distributed: true
            }
        )),
        SCRIPT_LEN / 10 * 5
    );
    assert_eq!(
        count(|s| matches!(
            s,
            Seen::Outcome {
                committed: true,
                distributed: false
            }
        )),
        SCRIPT_LEN / 10 * 3
    );

    for (name, other) in [("serial", &serial), ("spawned", &spawned)] {
        for (n, (a, b)) in locked.seen.iter().zip(&other.seen).enumerate() {
            assert_eq!(a, b, "request {n} ({:?}): locked vs {name}", script[n]);
        }
        assert_eq!(locked.audit, other.audit, "audit: locked vs {name}");
        assert_eq!(
            locked.per_instance, other.per_instance,
            "per-instance frame counts: locked vs {name}"
        );
    }
    assert_eq!(locked.audit, expected_audit);
    // Read-only voters are sent no decision: phase 2 reaches writers only.
    let prepares: u64 = locked.per_instance.iter().map(|s| s.prepares).sum();
    let decisions: u64 = locked.per_instance.iter().map(|s| s.decisions).sum();
    assert!(
        decisions < prepares,
        "{decisions} decisions, {prepares} prepares"
    );
    assert!(locked.per_instance.iter().all(|s| s.in_doubt == 0));
}
