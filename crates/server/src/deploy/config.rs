//! What a deployment is ([`DeployConfig`]) and the one place it is lowered
//! to the partition each instance runs ([`DeployConfig::partition`]), which
//! a spawned child is handed on its command line and an in-process
//! [`Cluster`](crate::Cluster) builds directly.

use std::path::PathBuf;
use std::time::Duration;

use islands_core::native::{EngineMode, PartitionConfig, TpccPartition};
use islands_core::partition::{RangeSites, Sites, WarehouseSites};

/// How instance processes are started.
#[derive(Debug, Clone)]
pub enum SpawnMode {
    /// Re-execute the current binary with
    /// [`INSTANCE_CHILD_FLAG`](super::INSTANCE_CHILD_FLAG); the host binary
    /// must call
    /// [`run_instance_child_if_requested`](super::run_instance_child_if_requested)
    /// first thing in `main`. One binary, zero path discovery.
    SelfExec,
    /// Run this binary (e.g. a built `islands-instance`). It is passed
    /// [`INSTANCE_CHILD_FLAG`](super::INSTANCE_CHILD_FLAG) too, so the same
    /// arg parser serves both.
    Binary(PathBuf),
}

/// Where the deployment's endpoints live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Unix domain sockets in [`DeployConfig::socket_dir`].
    Uds,
    /// Loopback TCP on ephemeral ports.
    Tcp,
}

/// What data the instances load and serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployWorkload {
    /// The single-table microbenchmark: `total_rows` keys range-partitioned
    /// evenly across instances.
    Micro,
    /// TPC-C-lite: warehouses (with their districts, customers, and stock)
    /// partitioned contiguously across instances
    /// ([`WarehouseSites`]); NewOrder runs local, remote-warehouse Payments
    /// run 2PC.
    Tpcc {
        /// Scale factor: number of warehouses across the whole deployment.
        warehouses: u64,
    },
}

/// One description of a deployment, spawned or in-process.
///
/// # Process-only fields
///
/// `transport`, `spawn`, `pin`, `socket_dir`, `stats_every_ms`,
/// `vote_timeout` and `obs` describe processes and the sockets between
/// them. [`Cluster::build`](crate::Cluster::build) ignores them: its
/// instances live in the caller's process (whose obs registry the caller
/// sets), its frames are function calls, and a call that does not return
/// has no deadline to miss. Everything else means the same thing in both.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// Number of instances (1 = "1ISL", machine-count = islands, core-count
    /// = fine-grained).
    pub instances: usize,
    pub transport: Transport,
    /// Total rows, range-partitioned evenly across instances.
    pub total_rows: u64,
    /// Payload bytes per row.
    pub row_size: usize,
    /// Instance-side retry budget for local submissions, and the
    /// coordinator's retry budget for multisite 2PC aborts.
    pub retry_limit: u32,
    /// Per-instance lock wait budget (also breaks distributed deadlocks).
    /// Reaches a spawned instance in whole milliseconds.
    pub lock_timeout: Duration,
    /// Ignored: [`engine`](Self::engine) alone decides whether an instance
    /// takes locks. Kept only because `benchmark/`, which a product change
    /// may not edit, still sets it (goes with ROADMAP item 1).
    pub single_threaded: bool,
    /// How each instance executes: [`EngineMode::Locked`] (callers execute
    /// side by side under 2PL) or [`EngineMode::Serial`] (callers take turns
    /// on the partition, which takes no locks).
    pub engine: EngineMode,
    /// Pin instance processes to island core sets via `taskset`.
    pub pin: bool,
    pub spawn: SpawnMode,
    /// How long the coordinator waits for a vote or ack before presuming
    /// the participant failed. Must comfortably exceed `lock_timeout`.
    pub vote_timeout: Duration,
    /// Directory for UDS socket files (default: the OS temp dir).
    pub socket_dir: Option<PathBuf>,
    /// Period of the stats heartbeat each instance prints on stdout (0
    /// disables): its snapshot, in the `Stats` reply's encoding. The parent
    /// reads them as printed and keeps the newest; an instance's drain
    /// line has the same form.
    pub stats_every_ms: u64,
    /// Run instances with observability recording enabled. Disabling it
    /// (`islands-sweep --no-obs`) turns every span, histogram and gauge
    /// into a load-and-branch for overhead A/B measurements; the wire
    /// counters (commits, prepares, ...) and the engine's in-doubt and lock
    /// counts are reported either way, so heartbeats, final stats and
    /// `Stats` replies still carry them.
    pub obs: bool,
    /// What the instances load and serve (micro table or TPC-C-lite).
    pub workload: DeployWorkload,
    /// Directory for durable state, or `None` for a volatile deployment.
    /// When set, each instance writes a WAL (`instance-<i>.wal`) it replays
    /// on restart, and the coordinator forces commit decisions to
    /// `coordinator.decisions` before any `Decision` frame leaves, so the
    /// resolver socket that answers instances'
    /// [`Request::ResolveGtid`](crate::Request::ResolveGtid) queries keeps
    /// its verdicts across a restart of the coordinator. In-process there is
    /// no restart to replay one for: `Cluster::build` rejects `Some`.
    pub wal_dir: Option<PathBuf>,
}

impl DeployConfig {
    /// Check that the configuration describes a buildable deployment.
    ///
    /// In particular `total_rows >= instances`: with fewer rows than
    /// instances the even range partitioning degenerates (instances whose
    /// range is empty, routing without a divisor), which is exactly the
    /// shape under which ownership arithmetic divergence bugs hide. Reject
    /// it before anything is built.
    pub fn validate(&self) -> Result<(), String> {
        if self.instances == 0 {
            return Err("a deployment needs at least one instance".into());
        }
        if self.total_rows < self.instances as u64 {
            return Err(format!(
                "{} rows cannot partition across {} instances (need rows >= instances)",
                self.total_rows, self.instances
            ));
        }
        if self.row_size == 0 {
            return Err("row_size must be nonzero".into());
        }
        if self.vote_timeout <= self.lock_timeout {
            return Err(format!(
                "vote_timeout ({:?}) must exceed lock_timeout ({:?}) or every \
                 lock-contended vote is presumed dead",
                self.vote_timeout, self.lock_timeout
            ));
        }
        if let DeployWorkload::Tpcc { warehouses } = self.workload {
            if warehouses < self.instances as u64 {
                return Err(format!(
                    "{warehouses} warehouses cannot partition across {} instances \
                     (need warehouses >= instances)",
                    self.instances
                ));
            }
        }
        Ok(())
    }

    /// The site map the deployment routes by: one site per instance.
    pub(crate) fn sites(&self) -> Sites {
        match self.workload {
            DeployWorkload::Micro => Sites::Range(RangeSites {
                total_rows: self.total_rows,
                n_sites: self.instances,
            }),
            DeployWorkload::Tpcc { warehouses } => Sites::Warehouse(WarehouseSites {
                warehouses,
                n_sites: self.instances,
            }),
        }
    }

    /// The partition instance `i` loads and serves — the inverse of the site
    /// map requests are routed by, and the only place a key range, a warehouse
    /// range or a WAL path is worked out.
    pub fn partition(&self, i: usize) -> PartitionConfig {
        let (lo, hi) = self.sites().range_of(i);
        let (keys, tpcc) = match self.workload {
            DeployWorkload::Micro => ((lo, hi), None),
            DeployWorkload::Tpcc { warehouses } => (
                (0, 0),
                Some(TpccPartition {
                    warehouses,
                    w_lo: lo,
                    w_hi: hi,
                }),
            ),
        };
        PartitionConfig {
            lo: keys.0,
            hi: keys.1,
            row_size: self.row_size,
            lock_timeout: self.lock_timeout,
            tpcc,
            wal: self
                .wal_dir
                .as_ref()
                .map(|dir| dir.join(format!("instance-{i}.wal"))),
            ..Default::default()
        }
    }
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            instances: 4,
            transport: Transport::Uds,
            total_rows: 40_000,
            row_size: 64,
            retry_limit: 64,
            lock_timeout: Duration::from_millis(200),
            single_threaded: false,
            engine: EngineMode::Locked,
            pin: true,
            spawn: SpawnMode::SelfExec,
            vote_timeout: Duration::from_secs(5),
            socket_dir: None,
            stats_every_ms: 500,
            obs: true,
            workload: DeployWorkload::Micro,
            wal_dir: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_the_default_and_rejects_degenerate_shapes() {
        assert!(DeployConfig::default().validate().is_ok());
        for cfg in [
            DeployConfig {
                instances: 0,
                ..Default::default()
            },
            // Regression: routing used to clamp its divisor with `.max(1)`
            // while loading did not, so rows < instances routed keys to
            // instances whose loaded range was empty.
            DeployConfig {
                instances: 8,
                total_rows: 4,
                ..Default::default()
            },
            DeployConfig {
                row_size: 0,
                ..Default::default()
            },
            DeployConfig {
                vote_timeout: Duration::from_millis(1),
                ..Default::default()
            },
            DeployConfig {
                instances: 8,
                workload: DeployWorkload::Tpcc { warehouses: 4 },
                ..Default::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} must not validate");
        }
        let tpcc = DeployConfig {
            instances: 2,
            workload: DeployWorkload::Tpcc { warehouses: 4 },
            ..Default::default()
        };
        assert!(tpcc.validate().is_ok());
    }

    #[test]
    fn partitions_tile_the_keyspace_and_carry_the_shared_settings() {
        let micro = DeployConfig {
            instances: 4,
            total_rows: 403,
            row_size: 16,
            lock_timeout: Duration::from_millis(50),
            wal_dir: Some("/w".into()),
            ..Default::default()
        };
        let parts: Vec<_> = (0..4).map(|i| micro.partition(i)).collect();
        assert_eq!(parts[0].lo, 0);
        assert_eq!(parts[3].hi, 403, "the last instance owns the remainder");
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p.row_size, 16);
            assert_eq!(p.lock_timeout, Duration::from_millis(50));
            assert_eq!(p.tpcc, None);
            assert_eq!(
                p.wal.as_deref(),
                Some(format!("/w/instance-{i}.wal").as_ref())
            );
            if i > 0 {
                assert_eq!(p.lo, parts[i - 1].hi, "ranges are contiguous");
            }
        }

        let tpcc = DeployConfig {
            instances: 2,
            // Ignored: the engine mode alone makes a partition serial.
            single_threaded: true,
            workload: DeployWorkload::Tpcc { warehouses: 5 },
            ..Default::default()
        };
        let (a, b) = (tpcc.partition(0), tpcc.partition(1));
        let (wa, wb) = (a.tpcc.as_ref().unwrap(), b.tpcc.as_ref().unwrap());
        assert_eq!((wa.w_lo, wa.w_hi, wb.w_hi), (0, wb.w_lo, 5));
        assert_eq!((wa.warehouses, wb.warehouses), (5, 5));
        assert!(!a.single_threaded && a.wal.is_none());
    }
}
