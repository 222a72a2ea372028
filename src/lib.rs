//! # oltp-islands
//!
//! A from-scratch Rust reproduction of **"OLTP on Hardware Islands"**
//! (Porobic, Pandis, Branco, Tözün, Ailamaki — PVLDB 5(11), 2012).
//!
//! Modern multisocket multicore servers are *islands* of cores: cheap
//! communication inside a socket, expensive communication across. The paper
//! studies how OLTP deployments — one shared-everything instance, many
//! fine-grained shared-nothing instances, or topology-aware *islands* in
//! between — behave on such hardware. This crate re-implements the whole
//! stack the paper needed:
//!
//! * [`storage`] — a Shore-MT-style storage manager (B+trees, heap files,
//!   buffer pool, hierarchical 2PL, ARIES-style WAL with group commit,
//!   recovery with 2PC in-doubt resolution).
//! * [`dtxn`] — presumed-abort two-phase commit state machines with the
//!   read-only optimization.
//! * [`net`] — the IPC cost models of the paper's Figure 6, plus live
//!   Unix-socket/TCP ping-pong measurement.
//! * [`hwtopo`] — machine topologies (the paper's quad- and octo-socket
//!   Xeons), calibrated communication costs, placement policies.
//! * [`sim`] / [`memsim`] — a deterministic discrete-event simulator and a
//!   NUMA memory-hierarchy cost model standing in for the paper's hardware
//!   (see DESIGN.md for the substitution argument).
//! * [`core`] — what a deployment is made of: the partition engine in its
//!   locked and serial modes ([`core::native`]), site maps and plan
//!   splitting ([`core::partition`]), the simulated cluster
//!   ([`core::simrt`]) that regenerates every figure, and the island
//!   advisor ([`core::advisor`]).
//! * [`workload`] — the paper's microbenchmarks (multisite %, Zipfian
//!   skew), TPC-C-lite NewOrder/Payment, and the multi-step plan every
//!   layer executes, routes and simulates.
//! * [`server`] — deployments: N partition instances behind one router and
//!   one 2PC driver, spawned as pinned processes over Unix domain sockets /
//!   TCP ([`server::Deployment`]) or assembled in this process
//!   ([`server::Cluster`]); the wire protocol, the multi-threaded server
//!   with request pipelining, and a blocking client library (drive a
//!   served deployment with the `islands-sweep` binary in `islands-bench`).
//!
//! ## Quickstart
//!
//! ```
//! use oltp_islands::server::{Cluster, DeployConfig, DeployReply};
//! use oltp_islands::workload::{OpKind, TxnRequest};
//!
//! // Four shared-nothing instances over 4000 rows.
//! let cluster = Cluster::build(&DeployConfig {
//!     instances: 4,
//!     total_rows: 4_000,
//!     row_size: 32,
//!     ..Default::default()
//! }).unwrap();
//!
//! // A cross-instance update runs two-phase commit transparently.
//! let plan = TxnRequest {
//!     kind: OpKind::Update,
//!     keys: vec![10, 3_900],
//!     multisite: true,
//! }.to_plan();
//! let DeployReply::Outcome(out) = cluster.client().submit_plan(&plan).unwrap() else {
//!     panic!("a well-formed plan gets an outcome");
//! };
//! assert!(out.committed && out.distributed);
//! assert_eq!(cluster.audit_sum().unwrap(), 2);
//! ```

pub use islands_core as core;
pub use islands_dtxn as dtxn;
pub use islands_hwtopo as hwtopo;
pub use islands_memsim as memsim;
pub use islands_net as net;
pub use islands_obs as obs;
pub use islands_server as server;
pub use islands_sim as sim;
pub use islands_storage as storage;
pub use islands_workload as workload;
