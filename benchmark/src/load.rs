//! The benchmark's own closed-loop load loop. Each client thread owns one
//! `DeployClient`, submits its next request the moment the previous reply
//! arrives, and tallies outcomes and latencies per segment. Nothing here
//! comes from `islands-bench`: a later change to that crate cannot move
//! what this measures.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use islands_server::{DeployClient, DeployReply, Deployment};

use crate::stats;
use crate::workloads::{Class, Req, Workload};

/// Resubmissions a client spends on a request the deployment aborted (a
/// serial instance aborts a local transaction that touches a row parked
/// under another client's in-doubt 2PC branch instead of waiting; a
/// coordinator gives up after its retry budget). The closed-loop caller
/// does what any caller would: back off a little and submit it again. The
/// latency sample covers every attempt.
const CLIENT_RESUBMITS: u32 = 32;

/// Measured segments per load phase; every end-to-end rate and timing is
/// computed per segment and reported as the better-side quartile over
/// segments ([`stats::better_quartile`]).
pub const SEGMENTS: usize = 12;

/// Throughput is tallied in windows this long. A stolen vCPU stops the whole
/// deployment for tens of milliseconds at a time; over a 2.5 s segment that
/// is a lower rate, over quarter-second windows it is some empty windows and
/// many clean ones, which the better-side quartile then reads.
pub const TPS_WINDOW: Duration = Duration::from_millis(250);

/// How a load phase is bounded: warm-up, then [`SEGMENTS`] back-to-back
/// segments.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    Time {
        warmup: Duration,
        segment: Duration,
    },
    /// Fixed work per client: `warmup` requests, then segments of
    /// `per_segment` requests each.
    Count {
        warmup: u64,
        per_segment: u64,
    },
}

/// One client's tally for one segment.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    /// This client's own wall time inside the segment.
    pub elapsed: Duration,
    pub attempted: u64,
    pub committed: u64,
    /// Latency of every attempted request, nanoseconds, with its class.
    pub samples: Vec<(u64, Class)>,
}

/// Everything one client did, warm-up included where the audit needs it.
#[derive(Debug, Default)]
struct ClientRun {
    segments: Vec<Segment>,
    /// Commits per [`TPS_WINDOW`] since this client's first measured segment
    /// began (the clients start within microseconds of each other).
    window_commits: Vec<u64>,
    /// Row writes of every committed request since the client connected.
    committed_write_rows: u64,
    resubmits: u64,
    server_retries: u64,
    failures: Vec<String>,
}

/// The merged outcome of one load phase.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Per segment, the clients' tallies side by side.
    pub segments: Vec<Vec<Segment>>,
    /// Commits of all clients per [`TPS_WINDOW`] of the measured phase.
    pub window_commits: Vec<u64>,
    pub committed_write_rows: u64,
    pub resubmits: u64,
    pub server_retries: u64,
    /// First few failure messages (requests that did not commit).
    pub failures: Vec<String>,
    /// Client threads that died on an I/O error or panicked.
    pub client_failures: u64,
}

impl LoadResult {
    pub fn attempted(&self) -> u64 {
        self.segments.iter().flatten().map(|s| s.attempted).sum()
    }

    pub fn committed(&self) -> u64 {
        self.segments.iter().flatten().map(|s| s.committed).sum()
    }

    /// Committed transactions per second in segment `k`: each client's own
    /// rate over its own clock, summed, so a client that crosses the
    /// boundary a little late does not distort the segment.
    pub fn segment_tps(&self, k: usize) -> f64 {
        self.segments[k]
            .iter()
            .map(|s| s.committed as f64 / s.elapsed.as_secs_f64().max(1e-9))
            .sum()
    }

    /// Committed transactions per second in every whole [`TPS_WINDOW`] of
    /// the measured phase (the last, partial window is left out).
    pub fn tps_by_window(&self) -> Vec<f64> {
        let whole = self.window_commits.len().saturating_sub(1);
        self.window_commits[..whole]
            .iter()
            .map(|c| *c as f64 / TPS_WINDOW.as_secs_f64())
            .collect()
    }

    pub fn tps_by_segment(&self) -> Vec<f64> {
        (0..self.segments.len())
            .map(|k| self.segment_tps(k))
            .collect()
    }

    /// Ascending latencies (ns) of the attempted requests of `segments`,
    /// optionally of one class only.
    fn latencies_ns(&self, segments: &[Vec<Segment>], class: Option<Class>) -> Vec<f64> {
        let mut ns: Vec<f64> = segments
            .iter()
            .flatten()
            .flat_map(|s| s.samples.iter())
            .filter(|(_, c)| class.is_none_or(|want| want == *c))
            .map(|(ns, _)| *ns as f64)
            .collect();
        ns.sort_by(f64::total_cmp);
        ns
    }

    /// Percentile `p` of the latency (microseconds) of every attempted
    /// request, clients merged, per segment; segments without a sample of
    /// `class` are left out.
    pub fn latency_us_by_segment(&self, p: f64, class: Option<Class>) -> Vec<f64> {
        self.segments
            .iter()
            .map(|seg| self.latencies_ns(std::slice::from_ref(seg), class))
            .filter(|ns| !ns.is_empty())
            .map(|ns| stats::percentile(&ns, p) / 1_000.0)
            .collect()
    }

    /// Latency samples over the whole measured phase (all segments).
    pub fn samples(&self, class: Option<Class>) -> usize {
        self.latencies_ns(&self.segments, class).len()
    }

    /// Percentile over every measured sample at once (tail diagnostics,
    /// which need more samples than one segment holds).
    pub fn overall_latency_us(&self, p: f64) -> f64 {
        stats::percentile(&self.latencies_ns(&self.segments, None), p) / 1_000.0
    }
}

/// Submit one request; `Ok(Some(server_retries))` when it committed.
fn submit(client: &mut DeployClient, req: &Req) -> std::io::Result<Result<u32, String>> {
    let reply = match req {
        Req::Micro(r) => client.submit(r)?,
        Req::Plan(p) => client.submit_plan(p)?,
    };
    Ok(match reply {
        DeployReply::Outcome(o) if o.committed => Ok(o.retries),
        DeployReply::Outcome(o) if o.presumed_abort => Err("presumed abort".into()),
        DeployReply::Outcome(_) => Err("aborted".into()),
        DeployReply::ServerError(message) => Err(format!("server error: {message}")),
        DeployReply::InstanceDown(i) => Err(format!("instance {i} down")),
    })
}

fn drive_client(
    mut client: DeployClient,
    mut stream: crate::workloads::Stream,
    bound: Bound,
    start: &Barrier,
) -> std::io::Result<ClientRun> {
    let mut run = ClientRun::default();
    // Phase 0 is warm-up; phases 1..=n are the measured segments.
    let mut phase = 0usize;
    let mut done_in_phase = 0u64;
    let mut current = Segment::default();
    start.wait();
    let t0 = Instant::now();
    let mut phase_started = t0;
    let mut measure_started: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let crossed = match bound {
            Bound::Time { warmup, segment } => now >= t0 + warmup + segment * phase as u32,
            Bound::Count {
                warmup,
                per_segment,
            } => done_in_phase >= if phase == 0 { warmup } else { per_segment },
        };
        if crossed {
            if phase > 0 {
                current.elapsed = now - phase_started;
                run.segments.push(std::mem::take(&mut current));
            }
            if phase == SEGMENTS {
                return Ok(run);
            }
            phase += 1;
            phase_started = now;
            done_in_phase = 0;
            measure_started.get_or_insert(now);
        }
        let req = stream.next();
        let mut outcome = submit(&mut client, &req)?;
        let mut resubmits = 0;
        while matches!(&outcome, Err(why) if why == "aborted") && resubmits < CLIENT_RESUBMITS {
            resubmits += 1;
            std::thread::sleep(Duration::from_micros(50 * resubmits as u64));
            outcome = submit(&mut client, &req)?;
        }
        let latency = now.elapsed();
        run.resubmits += resubmits as u64;
        done_in_phase += 1;
        let committed = match outcome {
            Ok(retries) => {
                run.server_retries += retries as u64;
                run.committed_write_rows += req.write_rows();
                true
            }
            Err(why) => {
                if run.failures.len() < 4 {
                    run.failures.push(why);
                }
                false
            }
        };
        if let Some(origin) = measure_started {
            let window = ((now + latency - origin).as_nanos() / TPS_WINDOW.as_nanos()) as usize;
            if run.window_commits.len() <= window {
                run.window_commits.resize(window + 1, 0);
            }
            run.window_commits[window] += committed as u64;
            current.attempted += 1;
            current.committed += committed as u64;
            current
                .samples
                .push((latency.as_nanos() as u64, req.class()));
        }
    }
}

/// Drive `deploy` with `w.clients` closed-loop clients drawing
/// `(seed, client)` streams. `tick` runs on the calling thread every
/// 200 ms while the clients work (the traced run scrapes gauges there).
pub fn run(
    deploy: &Arc<Deployment>,
    w: &Workload,
    seed: u64,
    bound: Bound,
    tick: &mut dyn FnMut(),
) -> Result<LoadResult, String> {
    // Connect everything before any thread starts: a connect error then
    // returns while nothing else holds the deployment.
    let mut clients = Vec::with_capacity(w.clients);
    for id in 0..w.clients {
        clients.push(
            deploy
                .client()
                .map_err(|e| format!("connect client {id}: {e}"))?,
        );
    }
    let barrier = Barrier::new(w.clients);
    let mut result = LoadResult {
        segments: vec![Vec::new(); SEGMENTS],
        ..Default::default()
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(id, client)| {
                let stream = w.stream(seed, id, id as u64);
                let barrier = &barrier;
                scope.spawn(move || drive_client(client, stream, bound, barrier))
            })
            .collect();
        while !workers.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(200));
            tick();
        }
        for (id, worker) in workers.into_iter().enumerate() {
            match worker.join() {
                Ok(Ok(run)) => {
                    for (k, seg) in run.segments.into_iter().enumerate() {
                        result.segments[k].push(seg);
                    }
                    if result.window_commits.len() < run.window_commits.len() {
                        result.window_commits.resize(run.window_commits.len(), 0);
                    }
                    for (sum, c) in result.window_commits.iter_mut().zip(&run.window_commits) {
                        *sum += c;
                    }
                    result.committed_write_rows += run.committed_write_rows;
                    result.resubmits += run.resubmits;
                    result.server_retries += run.server_retries;
                    result.failures.extend(run.failures);
                }
                Ok(Err(e)) => {
                    result.client_failures += 1;
                    result.failures.push(format!("client {id} died: {e}"));
                }
                Err(_) => {
                    result.client_failures += 1;
                    result.failures.push(format!("client {id} panicked"));
                }
            }
        }
    });
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ms: u64, committed: u64, lat_us: &[u64]) -> Segment {
        Segment {
            elapsed: Duration::from_millis(ms),
            attempted: committed,
            committed,
            samples: lat_us.iter().map(|us| (us * 1_000, Class::Local)).collect(),
        }
    }

    #[test]
    fn window_tps_leaves_out_the_partial_last_window() {
        let r = LoadResult {
            window_commits: vec![1_000, 0, 1_200, 37],
            ..Default::default()
        };
        // A stalled window reads 0, its neighbours are untouched.
        assert_eq!(r.tps_by_window(), vec![4_000.0, 0.0, 4_800.0]);
        assert!(LoadResult::default().tps_by_window().is_empty());
    }

    #[test]
    fn segment_tps_sums_each_clients_own_rate() {
        let r = LoadResult {
            segments: vec![
                vec![seg(1_000, 2_000, &[100, 200]), seg(2_000, 2_000, &[300])],
                vec![seg(1_000, 1_000, &[400]), seg(1_000, 1_000, &[500])],
            ],
            ..Default::default()
        };
        assert!((r.segment_tps(0) - 3_000.0).abs() < 1e-6);
        assert!((r.segment_tps(1) - 2_000.0).abs() < 1e-6);
        assert_eq!(r.committed(), 6_000);
        // Median over segments of the per-segment p50 (merged clients).
        assert_eq!(r.latency_us_by_segment(50.0, None), vec![200.0, 450.0]);
        assert_eq!(stats::median(&r.latency_us_by_segment(50.0, None)), 325.0);
        assert!(r
            .latency_us_by_segment(50.0, Some(Class::Payment))
            .is_empty());
    }
}
