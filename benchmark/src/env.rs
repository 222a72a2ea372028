//! What the run header records about the machine, and the run's scratch
//! directory. Everything the benchmark writes lives under
//! `benchmark/out/`, relative to the checkout root it is started from.

use std::path::{Path, PathBuf};

use crate::json::{num, obj, text, Json};

/// Where results, traces and per-run scratch go.
pub const OUT_DIR: &str = "benchmark/out";

/// Per-process scratch directory (sockets, WAL files), removed on drop.
/// The path stays relative and short: a Unix socket path is capped near
/// 108 bytes and the checkout may sit arbitrarily deep.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create() -> Result<RunDir, String> {
        if !Path::new("BENCHMARK.json").is_file() {
            return Err("run from the checkout root (no BENCHMARK.json here)".into());
        }
        let path = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh subdirectory (each spawned deployment gets its own WAL dir:
    /// reusing one would make the next spawn replay the previous log).
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
        Ok(p)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// 1-minute load average, or NaN where `/proc` is not there to ask.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// `(stolen, total)` CPU ticks since boot, all cpus (`/proc/stat`): time the
/// hypervisor gave this VM's cpus to someone else.
fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// What the box looked like when the run began.
#[derive(Debug, Clone, Copy)]
pub struct BoxState {
    loadavg_1m: f64,
    stolen: u64,
    total: u64,
}

impl BoxState {
    pub fn now() -> BoxState {
        let (stolen, total) = cpu_ticks();
        BoxState {
            loadavg_1m: loadavg_1m(),
            stolen,
            total,
        }
    }

    /// Share of all cpu time stolen from the VM since this state was taken.
    pub fn steal_share(&self) -> f64 {
        let (stolen, total) = cpu_ticks();
        (stolen - self.stolen) as f64 / (total - self.total).max(1) as f64
    }

    /// Warn (never fail) about a box that was busy at the start or had its
    /// cpus taken away during the run.
    pub fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        let limit = nproc() as f64 / 2.0;
        if self.loadavg_1m > limit {
            out.push(format!(
                "1-min loadavg {:.2} at the start exceeds nproc/2 = {limit:.1} (a run straight \
                 after another inherits its load average)",
                self.loadavg_1m
            ));
        }
        let steal = self.steal_share();
        if steal > 0.01 {
            out.push(format!(
                "{:.1}% of the cpu time of this run was stolen by the hypervisor: expect lower \
                 tps and a wide spread",
                100.0 * steal
            ));
        }
        out
    }
}

/// The checked-out commit, read from `.git` without running git; a checkout
/// that is not a repository (the driver's) has none to report.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unborn:{reference}")),
    }
}

/// Cumulative user+system CPU seconds of process `pid` (`"self"` works).
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name: state is field 3, utime
    // and stime fields 14 and 15 (1-based), in clock ticks (100 Hz on Linux).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set of process `pid` in MB (`VmHWM`).
pub fn rss_peak_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Pids of this process's children whose command line mentions `needle`
/// (an instance's socket path): `Deployment` does not expose child pids, so
/// the traced run finds them the way `ps` would.
pub fn child_pids_matching(needle: &str) -> Vec<u32> {
    let me = std::process::id().to_string();
    let mut pids = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return pids;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        let ppid = stat
            .rfind(')')
            .and_then(|i| stat[i + 1..].split_whitespace().nth(1));
        if ppid != Some(me.as_str()) {
            continue;
        }
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        if String::from_utf8_lossy(&cmdline).contains(needle) {
            pids.push(pid);
        }
    }
    pids
}

/// The fields every result carries about where and how it was measured.
pub fn header(
    w: &crate::workloads::Workload,
    seed: u64,
    began: &BoxState,
    pinned: bool,
    config: &str,
    flush_policy: &str,
) -> Json {
    obj(vec![
        ("why", text(w.why)),
        ("git_commit", text(git_commit())),
        ("seed", num(seed as f64)),
        (
            "request_stream_hash",
            text(format!(
                "{:016x}",
                crate::workloads::stream_hash(w, seed, 1_000)
            )),
        ),
        ("nproc", num(nproc() as f64)),
        ("loadavg_1m_start", num(began.loadavg_1m)),
        ("loadavg_1m_end", num(loadavg_1m())),
        ("steal_share", num(began.steal_share())),
        ("taskset_pinning", Json::Bool(pinned)),
        ("clients", num(w.clients as f64)),
        ("load", text("closed loop")),
        ("deploy_config", text(config)),
        ("flush_policy", text(flush_policy)),
        ("data_vs_pool", text(w.data_vs_pool())),
    ])
}
