//! Workloads from the paper's evaluation (Section 5.2).
//!
//! Two microbenchmarks — read-only transactions retrieving `N` rows and
//! read-write transactions updating `N` rows — with two transaction types:
//!
//! * **Local**: all `N` rows in one logical site (one partition).
//! * **Multisite**: one row in the home site, the remaining `N-1` chosen
//!   uniformly from the whole data range (distributed iff some of those
//!   rows land in remote partitions).
//!
//! Requests mix the two types with a configurable multisite percentage, and
//! home sites / row choices can be skewed with a Zipfian distribution
//! (Section 7.3). [`tpcc`] adds a scaled-down TPC-C with the NewOrder and
//! Payment transactions used in Figures 3 and 7. [`codec`] gives
//! [`TxnRequest`] a stable byte form so served deployments can ship
//! requests over sockets, and [`plan`] generalizes the request model to
//! multi-step, multi-table transaction plans (the shape TPC-C needs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod plan;
pub mod spec;
pub mod tpcc;
pub mod zipf;

pub use codec::{CodecError, TxnBranch, MAX_KEYS_PER_REQUEST};
pub use plan::{PlanBranch, PlanClass, PlanRequest, PlanStep, StepOp, MAX_STEPS_PER_PLAN};
pub use spec::{even_owner, even_range, MicroGenerator, MicroSpec, OpKind, TxnRequest};
pub use tpcc::{TpccGenerator, TpccSpec};
pub use zipf::Zipf;

/// Default row payload size: 240 000 rows ≈ 60 MB in the paper's dataset,
/// i.e. ~260 bytes per row; minus the 8-byte key, 248 payload bytes.
pub const DEFAULT_ROW_SIZE: usize = 248;

/// Default row count of the paper's small dataset.
pub const DEFAULT_ROWS: u64 = 240_000;
