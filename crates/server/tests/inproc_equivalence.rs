//! In-process ≡ spawned: a seeded script of plans — micro batches, then
//! TPC-C transactions — through the in-process cluster in both engine modes
//! and through a spawned deployment, all three built from one
//! [`DeployConfig`]. They share its lowering to partitions, the router, the
//! 2PC driver and the frame mappers, so every request must be classified
//! alike, every instance must count the same frames, and the audits must
//! agree.

use std::path::PathBuf;
use std::sync::Arc;

use islands_server::deploy::{DeployConfig, DeployReply, DeployWorkload, Deployment, SpawnMode};
use islands_server::{Cluster, EngineMode, ServerStats};
use islands_workload::plan::{
    PlanClass, PlanRequest, PlanStep, StepOp, MICRO_TABLE, TPCC_CUSTOMER,
};
use islands_workload::tpcc::{NewOrder, Payment};
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

/// TPC-C over 5 warehouses on 3 instances: instance 0 owns warehouses 0–1,
/// instance 1 owns 2–3, instance 2 owns 4, so a remote payment may stay on
/// its home instance or cross to another.
const WAREHOUSES: u64 = 5;
const TPCC_INSTANCES: usize = 3;
const TPCC_SCRIPT_LEN: usize = 120;

fn instance_of_warehouse(w: u64) -> u64 {
    w * TPCC_INSTANCES as u64 / WAREHOUSES
}

fn tpcc_script() -> Vec<PlanRequest> {
    let mut rng = SmallRng::seed_from_u64(0x7ACC_5C41);
    (0..TPCC_SCRIPT_LEN as u64)
        .map(|n| {
            let home = rng.gen_range(0..WAREHOUSES);
            let append_key = home << 32 | (n + 1);
            if n % 6 == 0 {
                let order = NewOrder {
                    w_id: home,
                    d_id: rng.gen_range(0..10),
                    c_id: rng.gen_range(0..3000),
                    items: (0..rng.gen_range(5..=15))
                        .map(|_| rng.gen_range(0..1000))
                        .collect(),
                };
                return order.plan(append_key);
            }
            // Payments: by id and by name at home (1, 2), by id and by name
            // through another warehouse (3, 4), and one whose remote branch
            // only looks the customer up (5).
            let remote = n % 6 >= 3;
            let pay = Payment {
                w_id: home,
                d_id: rng.gen_range(0..10),
                c_w_id: if remote {
                    (home + rng.gen_range(1..WAREHOUSES)) % WAREHOUSES
                } else {
                    home
                },
                c_d_id: rng.gen_range(0..10),
                c_id: rng.gen_range(0..3000),
                amount: rng.gen_range(1..=5000),
            };
            let mut plan = pay.plan(append_key, matches!(n % 6, 2 | 4 | 5));
            if n % 6 == 5 {
                plan.steps
                    .retain(|s| !(s.table == TPCC_CUSTOMER && s.is_write()));
            }
            plan
        })
        .collect()
}

struct Run {
    seen: Vec<Seen>,
    /// Row writes the script added to the audit sum.
    audit: u64,
    /// Per instance, the counters both kinds of deployment keep alike (a
    /// spawned one also counts connections, and audit and drain frames).
    per_instance: Vec<ServerStats>,
}

fn frames_only(s: ServerStats) -> ServerStats {
    ServerStats {
        connections: 0,
        requests: 0,
        ..s
    }
}

fn run_inproc(cfg: &DeployConfig, engine: EngineMode, script: &[PlanRequest]) -> Run {
    let cluster = Cluster::build(&DeployConfig {
        engine,
        ..cfg.clone()
    })
    .unwrap();
    let loaded = cluster.audit_sum().unwrap();
    let mut client = cluster.client();
    let seen = script
        .iter()
        .map(|p| classify(client.submit_plan(p).unwrap()))
        .collect();
    drop(client);
    Run {
        seen,
        audit: cluster.audit_sum().unwrap() - loaded,
        per_instance: (0..cfg.instances)
            .map(|i| frames_only(cluster.stats(i)))
            .collect(),
    }
}

fn run_spawned(cfg: &DeployConfig, script: &[PlanRequest]) -> Run {
    let deploy = Arc::new(
        Deployment::spawn(&DeployConfig {
            pin: false,
            spawn: SpawnMode::Binary(PathBuf::from(env!("CARGO_BIN_EXE_islands-instance"))),
            ..cfg.clone()
        })
        .unwrap(),
    );
    let mut client = deploy.client().unwrap();
    let loaded = client.audit_total().unwrap();
    let seen = script
        .iter()
        .map(|p| classify(client.submit_plan(p).unwrap()))
        .collect();
    let audit = client.audit_total().unwrap() - loaded;
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
                frames_only(r.stats.expect("stats parsed"))
            })
            .collect(),
    }
}

/// Run `script` three ways over `cfg` and hold them to one another and to
/// the audit identity; returns the locked in-process run for what is
/// particular to the script.
fn held_equal(cfg: &DeployConfig, script: &[PlanRequest]) -> Run {
    let locked = run_inproc(cfg, EngineMode::Locked, script);
    let serial = run_inproc(cfg, EngineMode::Serial, script);
    let spawned = run_spawned(cfg, script);
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
    assert_eq!(locked.audit, expected_audit);
    assert!(locked.per_instance.iter().all(|s| s.in_doubt == 0));
    locked
}

#[test]
fn one_script_reads_the_same_in_process_locked_serial_and_spawned() {
    let script = script();
    let locked = held_equal(
        &DeployConfig {
            instances: INSTANCES,
            total_rows: ROWS,
            row_size: 16,
            ..Default::default()
        },
        &script,
    );

    // The script is what it claims to be: every class occurs, and nothing
    // contends, so every well-formed plan commits.
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
    // Read-only voters are sent no decision: phase 2 reaches writers only.
    let prepares: u64 = locked.per_instance.iter().map(|s| s.prepares).sum();
    let decisions: u64 = locked.per_instance.iter().map(|s| s.decisions).sum();
    assert!(
        decisions < prepares,
        "{decisions} decisions, {prepares} prepares"
    );
}

#[test]
fn a_tpcc_script_reads_the_same_in_process_locked_serial_and_spawned() {
    let script = tpcc_script();
    let locked = held_equal(
        &DeployConfig {
            instances: TPCC_INSTANCES,
            workload: DeployWorkload::Tpcc {
                warehouses: WAREHOUSES,
            },
            ..Default::default()
        },
        &script,
    );

    // One client, so everything commits; a plan is distributed exactly when
    // its two warehouses belong to different instances — a remote payment
    // between two warehouses of one instance is a local submit.
    let mut crossing = Vec::new();
    for (n, (plan, seen)) in script.iter().zip(&locked.seen).enumerate() {
        let mut owners: Vec<u64> = plan
            .conflict_keys()
            .iter()
            .filter_map(|&(t, k)| islands_workload::tpcc::warehouse_of_table(t, k))
            .map(instance_of_warehouse)
            .collect();
        owners.sort_unstable();
        owners.dedup();
        let distributed = owners.len() > 1;
        assert_eq!(
            *seen,
            Seen::Outcome {
                committed: true,
                distributed
            },
            "request {n}: {plan:?}"
        );
        if distributed {
            crossing.push(n);
        }
    }
    assert!(crossing.len() > TPCC_SCRIPT_LEN / 6, "{crossing:?}");
    assert!(
        (3..6).all(|class| crossing.iter().any(|n| n % 6 == class)),
        "by id, by name and look-up-only payments all cross: {crossing:?}"
    );
    assert!(
        (3..TPCC_SCRIPT_LEN)
            .step_by(6)
            .any(|n| !crossing.contains(&n)),
        "some remote payment stays on its home instance"
    );
    // Two branches prepared per crossing plan, and a decision for each but
    // the look-up-only branches, which vote read-only.
    let prepares: u64 = locked.per_instance.iter().map(|s| s.prepares).sum();
    let decisions: u64 = locked.per_instance.iter().map(|s| s.decisions).sum();
    let lookups = crossing.iter().filter(|n| *n % 6 == 5).count() as u64;
    assert_eq!(prepares, 2 * crossing.len() as u64);
    assert_eq!(decisions, prepares - lookups);
}
