//! OLTP deployments on hardware islands — the paper's primary contribution.
//!
//! This crate assembles the substrates (`islands-storage`, `islands-sim`,
//! `islands-memsim`, `islands-net`, `islands-dtxn`) into the pieces a
//! deployment is made of:
//!
//! * [`partition`] — logical sites, range and warehouse partitioning, the
//!   site → instance mapping for any `NISL` configuration, and the one
//!   split of a plan into per-owner branches. What a transaction *does* is
//!   an [`islands_workload::PlanRequest`]; this module says *where*.
//! * [`native`] — one real partition: a storage instance behind one
//!   engine, [`PartitionEngine`](native::PartitionEngine), in locked (2PL)
//!   or serial (callers take turns) mode, executing on the calling thread.
//!   `islands-server` assembles N of them into deployments — spawned
//!   processes over sockets, or an in-process cluster over direct calls —
//!   behind one router and one 2PC driver.
//! * [`simrt`] — the same plans, site maps and `islands-dtxn` 2PC machines
//!   on the deterministic simulator with the calibrated NUMA cost model:
//!   every figure of the paper is regenerated through this runtime, and its
//!   [`simrt::RunResult`] carries throughput and the five-way time breakdown
//!   of Figure 11, summed per `islands_obs::BreakdownCategory`.
//! * [`counterbench`] — the lock-protected counter microbenchmark of
//!   Figure 2 / Table 1.
//! * [`advisor`] — the island advisor (the paper's future work, Section 8):
//!   pick an island size for a machine and workload by simulating candidate
//!   configurations.

#![forbid(unsafe_code)]

pub mod advisor;
pub mod counterbench;
pub mod native;
pub mod partition;
pub mod simrt;

pub use advisor::{recommend, Recommendation};
pub use partition::{instance_of_site, Sites};
