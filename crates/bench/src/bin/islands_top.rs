//! Live per-instance observability viewer for running deployments.
//!
//! Point it at the endpoints of a served deployment (the `READY` lines or
//! `islands-sweep`'s "instance i: ... at EP" banner name them) and it
//! scrapes a `Stats` frame from each instance every interval —
//! non-disruptively, on its own connection, while the run continues:
//!
//! ```sh
//! islands-top uds:/tmp/islands-inst-1234-0-0.sock tcp:127.0.0.1:40133
//! ```
//!
//! Each tick prints one table row per instance: throughput from commit
//! deltas between ticks, server-side p99 handling latency, queue depth and
//! parked in-doubt branches, and the Fig. 11 breakdown percentages
//! (execution / locking / logging / communication / management) the
//! instance's phase spans have accumulated. A final `SUM` row merges the
//! snapshots, which is exactly the deployment-wide aggregation
//! [`islands_obs::Snapshot::merge`] defines.
//!
//! `--json` swaps the table for one [`Snapshot::json_line`] per instance
//! per tick (flat keys, scannable with `islands_bench::jsonscan`), which is
//! what the sweep's scrape artifact and the CI smoke check consume.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use islands_obs::{BreakdownCategory, Snapshot};
use islands_server::{Client, Endpoint, ServerStats};

const USAGE: &str = "islands-top - live stats for a running islands deployment

USAGE:
  islands-top [OPTIONS] ENDPOINT [ENDPOINT...]

  ENDPOINT is uds:/path/to.sock or tcp:HOST:PORT, one per instance.

OPTIONS:
  --interval SECS   seconds between scrapes (default 1.0)
  --iterations N    stop after N ticks (default: run until interrupted
                    or an instance becomes unreachable)
  --json            emit one JSON snapshot line per instance per tick
                    instead of the table
  -h, --help        print this help
";

struct Args {
    endpoints: Vec<Endpoint>,
    interval: f64,
    iterations: Option<u64>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut endpoints = Vec::new();
    let mut interval = 1.0f64;
    let mut iterations = None;
    let mut json = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--interval" => {
                let v = value("--interval")?;
                interval = v.parse().map_err(|_| format!("bad --interval {v:?}"))?;
            }
            "--iterations" => {
                let v = value("--iterations")?;
                iterations = Some(v.parse().map_err(|_| format!("bad --iterations {v:?}"))?);
            }
            "--json" => json = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            ep => endpoints.push(Endpoint::parse(ep).map_err(|e| format!("{ep}: {e}"))?),
        }
    }
    if endpoints.is_empty() {
        return Err("at least one endpoint is required (see --help)".into());
    }
    if !interval.is_finite() || interval <= 0.0 {
        return Err("--interval must be a positive number of seconds".into());
    }
    Ok(Args {
        endpoints,
        interval,
        iterations,
        json,
    })
}

/// One instance's scrape, plus what the previous tick saw (for deltas).
struct Tracked {
    conn: Client,
    prev: Option<(Instant, ServerStats)>,
}

/// One instance's line: identity fields first, then the wire counters, then
/// the snapshot's flat fields. Top-level keys are unique, so `jsonscan`'s
/// first-occurrence scanners read any of them exactly.
fn json_line(instance: usize, tick: u64, tps: f64, server: &ServerStats, obs: &Snapshot) -> String {
    obs.json_line(&format!(
        "\"instance\":{instance},\"tick\":{tick},\"tps\":{tps:.1},\"connections\":{},\
         \"requests\":{},\"commits\":{},\"aborts\":{},\"errors\":{},\"prepares\":{},\
         \"decisions\":{},\"presumed_aborts\":{},\"in_doubt\":{}",
        server.connections,
        server.requests,
        server.commits,
        server.aborts,
        server.errors,
        server.prepares,
        server.decisions,
        server.presumed_aborts,
        server.in_doubt,
    ))
}

/// Merged p99 server-side handling latency across both txn classes, µs.
fn p99_us(obs: &Snapshot) -> u64 {
    let mut merged = obs.txn_us[0];
    merged.merge(&obs.txn_us[1]);
    merged.percentile_us(99.0)
}

fn table_header() {
    println!(
        "{:>5} {:>10} {:>9} {:>6} {:>8} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "inst",
        "tps",
        "commits",
        "queue",
        "in_doubt",
        "p99us",
        "exec%",
        "lock%",
        "log%",
        "comm%",
        "mgmt%",
    );
}

fn table_row(label: &str, tps: Option<f64>, server: &ServerStats, obs: &Snapshot) {
    let pct = obs.breakdown_pct();
    let cell = |c: BreakdownCategory| pct[c.index()];
    println!(
        "{:>5} {:>10} {:>9} {:>6} {:>8} {:>7} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
        label,
        tps.map(|t| format!("{t:.0}")).unwrap_or_else(|| "-".into()),
        server.commits,
        obs.queue_depth,
        obs.in_doubt,
        p99_us(obs),
        cell(BreakdownCategory::XctExecution),
        cell(BreakdownCategory::Locking),
        cell(BreakdownCategory::Logging),
        cell(BreakdownCategory::Communication),
        cell(BreakdownCategory::XctManagement),
    );
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut tracked = Vec::with_capacity(args.endpoints.len());
    for ep in &args.endpoints {
        tracked.push(Tracked {
            conn: Client::connect_with_retry(ep, Duration::from_secs(2))
                .map_err(|e| format!("connect {ep}: {e}"))?,
            prev: None,
        });
    }

    let interval = Duration::from_secs_f64(args.interval);
    let mut tick = 0u64;
    loop {
        let mut sum_server = ServerStats::default();
        // `merge` ORs the enabled flags, so the sum starts from "disabled"
        // and reports enabled iff any instance is.
        let mut sum_obs = Snapshot {
            enabled: false,
            ..Snapshot::default()
        };
        let mut sum_tps = 0.0f64;
        let mut rows = Vec::with_capacity(tracked.len());
        for (i, t) in tracked.iter_mut().enumerate() {
            let now = Instant::now();
            let (server, obs) = t
                .conn
                .stats()
                .map_err(|e| format!("instance {i} ({}): {e}", args.endpoints[i]))?;
            // Throughput is the commit delta over the time between *this
            // instance's* two scrapes, not the nominal interval.
            let tps = t.prev.as_ref().map(|(at, prev)| {
                let dt = now.duration_since(*at).as_secs_f64().max(f64::MIN_POSITIVE);
                server.commits.saturating_sub(prev.commits) as f64 / dt
            });
            t.prev = Some((now, server));
            sum_tps += tps.unwrap_or(0.0);
            sum_server.absorb(&server);
            sum_obs.merge(&obs);
            rows.push((server, obs, tps));
        }

        if args.json {
            let mut out = std::io::stdout().lock();
            for (i, (server, obs, tps)) in rows.iter().enumerate() {
                writeln!(
                    out,
                    "{}",
                    json_line(i, tick, tps.unwrap_or(0.0), server, obs)
                )
                .map_err(|e| e.to_string())?;
            }
            out.flush().map_err(|e| e.to_string())?;
        } else {
            table_header();
            for (i, (server, obs, tps)) in rows.iter().enumerate() {
                table_row(&i.to_string(), *tps, server, obs);
            }
            if rows.len() > 1 {
                table_row("SUM", Some(sum_tps), &sum_server, &sum_obs);
            }
            println!();
        }

        tick += 1;
        if args.iterations.is_some_and(|n| tick >= n) {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("islands-top: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_bench::jsonscan::{int_field, num_field, str_field};

    #[test]
    fn json_lines_scan_with_jsonscan() {
        let server = ServerStats {
            connections: 2,
            requests: 50,
            commits: 41,
            aborts: 3,
            errors: 0,
            prepares: 7,
            decisions: 7,
            presumed_aborts: 0,
            in_doubt: 1,
        };
        let mut obs = Snapshot {
            txns: [30, 11],
            ..Snapshot::default()
        };
        obs.phase_ns[0][BreakdownCategory::XctExecution.index()] = 9_000_000;
        obs.phase_ns[1][BreakdownCategory::Communication.index()] = 1_000_000;
        let line = json_line(3, 12, 512.5, &server, &obs);
        assert_eq!(str_field(&line, "schema"), Some("islands-obs/1"));
        assert_eq!(int_field(&line, "instance"), Some(3));
        assert_eq!(int_field(&line, "tick"), Some(12));
        assert_eq!(num_field(&line, "tps"), Some(512.5));
        assert_eq!(int_field(&line, "commits"), Some(41));
        assert_eq!(int_field(&line, "in_doubt"), Some(1));
        assert_eq!(int_field(&line, "local_txns"), Some(30));
        assert_eq!(int_field(&line, "multisite_txns"), Some(11));
        let exec = num_field(&line, "execution_pct").unwrap();
        let comm = num_field(&line, "communication_pct").unwrap();
        assert!((exec - 90.0).abs() < 0.1, "exec {exec}");
        assert!((comm - 10.0).abs() < 0.1, "comm {comm}");
    }
}
