//! Simulated runtime: the paper's deployments under the virtual clock.

pub mod cluster;
pub mod costs;
pub mod log;

pub use cluster::{run, run_with_audit, Audit, RunResult, SimClusterConfig, SimWorkload};
pub use costs::CostParams;
