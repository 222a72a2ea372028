//! The measured run: set-up timing, warm-up, segmented closed-loop load,
//! kill/restart timing, and the correctness gate every run must pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_server::{Client, Deployment, ServerStats};

use crate::env::{self, RunDir};
use crate::json::{num, obj, text, Json};
use crate::load::{self, Bound, LoadResult, SEGMENTS};
use crate::stats;
use crate::workloads::{DeployDirs, Workload};

/// Deployments spawned (and all but the last drained) to time set-up.
const SETUP_REPEATS: usize = 7;
/// Kill/restart cycles of the last instance, the samples of `restart_s`.
const RESTART_REPEATS: usize = 9;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind `value` (latencies, commits, repeats).
    pub samples: u64,
    /// The per-segment (or per-repeat) values `value` summarises.
    pub series: Vec<f64>,
}

impl Metric {
    pub fn scalar(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            series: Vec::new(),
        }
    }

    /// The better-side quartile of a per-segment (or per-repeat) series.
    pub fn steady(
        name: &'static str,
        series: Vec<f64>,
        higher_is_better: bool,
        unit: &'static str,
        samples: u64,
    ) -> Metric {
        Metric {
            name,
            value: stats::better_quartile(&series, higher_is_better),
            unit,
            samples,
            series,
        }
    }
}

/// One line of the correctness gate.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run reports.
pub struct Outcome {
    pub workload: &'static str,
    pub trace: bool,
    pub header: Json,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Numbers worth keeping beside a measured run that are too unsteady on
    /// a shared box to carry a bound (restart time, tail percentiles):
    /// printed and stored, never on the contract's last line.
    pub diagnostics: Vec<Metric>,
    pub warnings: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The contract's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric exactly a `value` and a `unit`.
    pub fn summary_line(&self) -> String {
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                obj(vec![("value", num(m.value)), ("unit", text(m.unit))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// The full result, as stored in result files and read by `--compare`.
    pub fn to_json(&self) -> Json {
        let full = |metrics: &[Metric]| {
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            obj(vec![
                                ("value", num(m.value)),
                                ("unit", text(m.unit)),
                                ("samples", num(m.samples as f64)),
                                ("spread", num(stats::spread(&m.series))),
                                (
                                    "series",
                                    Json::Arr(m.series.iter().map(|v| num(*v)).collect()),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        obj(vec![
            ("schema", text("islands-benchmark/1")),
            ("workload", text(self.workload)),
            ("trace", Json::Bool(self.trace)),
            ("header", self.header.clone()),
            ("correct", Json::Bool(self.correct())),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("name", text(c.name)),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", text(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", full(&self.metrics)),
            ("diagnostics", full(&self.diagnostics)),
        ])
    }

    /// Every metric by name and unit, the header, and the gate, for people.
    pub fn print_human(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.trace {
                "traced run, per-layer"
            } else {
                "measured run, end to end"
            }
        );
        if let Some(fields) = self.header.as_obj() {
            for (k, v) in fields {
                println!(
                    "  {k}: {}",
                    v.as_str().map(str::to_owned).unwrap_or(v.render())
                );
            }
        }
        for w in &self.warnings {
            println!("WARNING: {w}");
        }
        for m in self.metrics.iter().chain(&self.diagnostics) {
            let detail = if m.series.len() > 1 {
                format!(
                    "better quartile of {}, spread {:.1}%, ",
                    m.series.len(),
                    100.0 * stats::spread(&m.series)
                )
            } else {
                String::new()
            };
            println!(
                "{:<32} {:>14.4} {:<6} ({detail}n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for c in &self.checks {
            println!(
                "{} {}: {}",
                if c.ok { "check ok    " } else { "CHECK FAILED" },
                c.name,
                c.detail
            );
        }
        println!(
            "attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
    }
}

/// A spawned deployment plus what the gate needs to know about it.
pub struct Live {
    pub deploy: Arc<Deployment>,
    pub dirs: DeployDirs,
    pub config: String,
}

/// Spawn `w`'s deployment into a fresh WAL directory; returns it with the
/// `Deployment::spawn` wall time (all instances READY, data loaded).
pub fn spawn(w: &Workload, run_dir: &RunDir, nth: usize, obs: bool) -> Result<(Live, f64), String> {
    let dirs = DeployDirs {
        sockets: run_dir.path().to_path_buf(),
        wal: run_dir.subdir(&format!("wal-{nth}"))?,
    };
    let cfg = w.deploy_config(&dirs, obs);
    let started = Instant::now();
    let deploy = Deployment::spawn(&cfg).map_err(|e| format!("spawn {}: {e}", w.name))?;
    let took = started.elapsed().as_secs_f64();
    Ok((
        Live {
            deploy: Arc::new(deploy),
            dirs,
            config: format!("{cfg:?}"),
        },
        took,
    ))
}

/// Drain every instance and check each left clean with nothing in doubt.
pub fn shutdown(live: Live, checks: &mut Vec<Check>) {
    let deploy = match Arc::try_unwrap(live.deploy) {
        Ok(d) => d,
        Err(_) => {
            checks.push(Check {
                name: "clean_drain",
                ok: false,
                detail: "a client still held the deployment at shutdown".into(),
            });
            return;
        }
    };
    let exits = deploy.shutdown();
    let unclean: Vec<String> = exits
        .iter()
        .filter(|e| !e.clean)
        .map(|e| e.detail.clone())
        .collect();
    let leaks: u64 = exits
        .iter()
        .map(|e| e.stats.map(|s| s.in_doubt).unwrap_or(0))
        .sum();
    checks.push(Check {
        name: "clean_drain",
        ok: unclean.is_empty(),
        detail: if unclean.is_empty() {
            format!("{} instance(s) drained and exited zero", exits.len())
        } else {
            unclean.join("; ")
        },
    });
    checks.push(Check {
        name: "in_doubt_leaks",
        ok: leaks == 0,
        detail: format!("{leaks} in-doubt branch(es) at drain"),
    });
}

/// Scrape every instance's wire counters and observability snapshot.
pub fn scrape(deploy: &Deployment) -> Result<Vec<(ServerStats, islands_obs::Snapshot)>, String> {
    (0..deploy.instances())
        .map(|i| {
            Client::connect(&deploy.endpoint(i))
                .and_then(|mut c| c.stats())
                .map_err(|e| format!("scrape instance {i}: {e}"))
        })
        .collect()
}

pub fn audit_total(deploy: &Arc<Deployment>) -> Result<u64, String> {
    deploy
        .client()
        .and_then(|mut c| c.audit_total())
        .map_err(|e| format!("audit: {e}"))
}

/// The checks every load phase ends with: no dead client threads, the audit
/// identity, nothing in doubt, and 2PC traffic exactly where the workload
/// says it is. Returns the summed instance counters.
pub fn gate_after_load(
    w: &Workload,
    live: &Live,
    audit_before: u64,
    loaded: &LoadResult,
    checks: &mut Vec<Check>,
) -> Result<ServerStats, String> {
    checks.push(Check {
        name: "client_threads",
        ok: loaded.client_failures == 0,
        detail: format!(
            "{} client thread(s) failed{}",
            loaded.client_failures,
            if loaded.failures.is_empty() {
                String::new()
            } else {
                format!(" (first failures: {})", loaded.failures.join("; "))
            }
        ),
    });
    let audit_after = audit_total(&live.deploy)?;
    checks.push(Check {
        name: "audit_identity",
        ok: audit_after.wrapping_sub(audit_before) == loaded.committed_write_rows,
        detail: format!(
            "audit_total rose by {} for {} committed row writes",
            audit_after.wrapping_sub(audit_before),
            loaded.committed_write_rows
        ),
    });
    let mut total = ServerStats::default();
    for (server, _) in scrape(&live.deploy)? {
        total.absorb(&server);
    }
    checks.push(Check {
        name: "in_doubt_after_load",
        ok: total.in_doubt == 0,
        detail: format!(
            "{} branch(es) parked with no client connected",
            total.in_doubt
        ),
    });
    let expects_2pc = w.runs_2pc();
    checks.push(Check {
        name: "layers_exercised",
        ok: (total.prepares > 0) == expects_2pc && total.presumed_aborts == 0,
        detail: format!(
            "{} prepares, {} decisions, {} presumed aborts (2PC expected: {expects_2pc})",
            total.prepares, total.decisions, total.presumed_aborts
        ),
    });
    Ok(total)
}

/// How the load phase of a run of `seconds` is bounded for `w`.
pub fn bound_for(w: &Workload, seconds: f64, warmup_s: f64) -> Bound {
    match w.fixed_txns_per_client(seconds) {
        Some(per_client) => Bound::Count {
            warmup: ((per_client as f64 * warmup_s / seconds) as u64).max(1),
            per_segment: (per_client / SEGMENTS as u64).max(1),
        },
        None => Bound::Time {
            warmup: Duration::from_secs_f64(warmup_s),
            segment: Duration::from_secs_f64(seconds / SEGMENTS as f64),
        },
    }
}

/// Kill and restart the last instance `repeats` times; each sample is
/// `restart_instance` wall time (process start, data load, and on a durable
/// deployment WAL replay and in-doubt resolution, READY). A durable
/// deployment must then hold exactly the `acknowledged` row writes.
pub fn time_restarts(
    w: &Workload,
    live: &Live,
    repeats: usize,
    acknowledged: u64,
    checks: &mut Vec<Check>,
) -> Result<Vec<f64>, String> {
    let victim = live.deploy.instances() - 1;
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        live.deploy
            .kill_instance(victim)
            .map_err(|e| format!("kill instance {victim}: {e}"))?;
        let started = Instant::now();
        live.deploy
            .restart_instance(victim)
            .map_err(|e| format!("restart instance {victim}: {e}"))?;
        samples.push(started.elapsed().as_secs_f64());
    }
    if w.durable {
        let recovered = audit_total(&live.deploy)?;
        checks.push(Check {
            name: "audit_after_restart",
            ok: recovered == acknowledged,
            detail: format!("audit_total {recovered} after kill/restart, expected {acknowledged}"),
        });
    }
    Ok(samples)
}

/// The measured (`--trace 0`) run of one workload.
pub fn measure(w: &Workload, seed: u64, seconds: f64, warmup_s: f64) -> Result<Outcome, String> {
    let run_dir = RunDir::create()?;
    let began = env::BoxState::now();
    let mut checks = Vec::new();
    // Observability off everywhere: the coordinator half of 2PC records
    // into this process's registry.
    islands_obs::set_enabled(false);

    // Set-up: spawn several times, keep the last deployment for the load.
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    for nth in 0..SETUP_REPEATS {
        if let Some(previous) = live.take() {
            shutdown(previous, &mut checks);
        }
        let (spawned, took) = spawn(w, &run_dir, nth, false)?;
        setup.push(took);
        live = Some(spawned);
    }
    let live = live.expect("SETUP_REPEATS >= 1");
    let pinned = live.deploy.pinned();

    let audit_before = audit_total(&live.deploy)?;
    let loaded = load::run(
        &live.deploy,
        w,
        seed,
        bound_for(w, seconds, warmup_s),
        &mut || {},
    )?;
    gate_after_load(w, &live, audit_before, &loaded, &mut checks)?;

    let restarts = time_restarts(
        w,
        &live,
        RESTART_REPEATS,
        audit_before + loaded.committed_write_rows,
        &mut checks,
    )?;
    let header = env::header(
        w,
        seed,
        &began,
        pinned,
        &live.config,
        &w.flush_policy(&live.dirs.wal),
    );
    shutdown(live, &mut checks);

    let attempted = loaded.attempted();
    let committed = loaded.committed();
    let samples = loaded.samples(None) as u64;
    let metrics = vec![
        Metric::steady("tps", loaded.tps_by_window(), true, "1/s", committed),
        Metric::steady(
            "p50_us",
            loaded.latency_us_by_segment(50.0, None),
            false,
            "us",
            samples,
        ),
        Metric::scalar(
            "committed_share",
            committed as f64 / attempted.max(1) as f64,
            "share",
            attempted,
        ),
        Metric::steady("setup_s", setup, false, "s", SETUP_REPEATS as u64),
    ];
    Ok(Outcome {
        workload: w.name,
        trace: false,
        header,
        checks,
        attempted,
        failed: attempted - committed,
        metrics,
        diagnostics: vec![
            Metric::steady("restart_s", restarts, false, "s", RESTART_REPEATS as u64),
            Metric::steady(
                "p95_us",
                loaded.latency_us_by_segment(95.0, None),
                false,
                "us",
                samples,
            ),
            Metric::scalar("p99_us", loaded.overall_latency_us(99.0), "us", samples),
        ],
        warnings: began.warnings(),
    })
}
