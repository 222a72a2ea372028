//! Shared-nothing deployments: N partition instances, one router, one 2PC
//! driver, spawned over sockets or assembled in-process.
//!
//! The paper's shared-nothing configurations are separate OS processes
//! exchanging messages over IPC — Unix domain sockets above all (Figure 6
//! measures exactly that axis). A [`Deployment`] is that for real; the
//! in-process [`Cluster`] is the same instances, routing and commit
//! protocol with each message replaced by the function call that answers
//! it. Both are driven the same way: each calling thread opens its own
//! coordinator ([`DeployClient`], [`ClusterClient`]), which routes a plan
//! to the one instance that owns it or runs 2PC across the instances it
//! spans. A timed load over either goes through `islands_bench::drive`,
//! one coordinator per worker thread, which also measures how far the
//! audit sum moved. Only partitions serve sessions; a server fronts
//! exactly one.
//!
//! * [`wire`] — a hand-rolled length-prefixed wire protocol: framed
//!   [`Request`]/[`Reply`] messages carrying
//!   [`PlanRequest`](islands_workload::PlanRequest) submissions (and
//!   [`TxnRequest`](islands_workload::TxnRequest) batches, which the
//!   server lowers to plans on arrival), 2PC branch and decision frames,
//!   and typed commit/abort/latency replies, with a streaming
//!   [`FrameReader`] that makes pipelining natural and
//!   rejects oversized or truncated traffic instead of trusting it.
//! * [`server`] — one partition ([`Backend`]) behind a multi-threaded
//!   acceptor: one session thread per connection, each holding one
//!   [`PartitionSession`](islands_core::native::PartitionSession) its
//!   prepares are parked under, every request frame one call on the
//!   partition's engine, in both engine modes; request pipelining (frames
//!   that arrive together run back-to-back and their replies flush in one
//!   write; nothing waits for frames that have not arrived, though an idle
//!   session polls its socket briefly for the next one before it sleeps),
//!   live counters, and graceful drain via a wire message or the local
//!   handle. A deployment child is one such server.
//! * [`client`] — the blocking client library: single connections
//!   ([`Client`]), one-write pipelining, connect-with-backoff.
//! * [`deploy`] — what a deployment is ([`DeployConfig`], lowered to one
//!   partition per instance by [`DeployConfig::partition`]) and the
//!   multi-process way to run one: spawn one topology-pinned server process
//!   per instance ([`Deployment`]), route single-site plans to the owner,
//!   and run presumed-abort two-phase commit across processes with
//!   `PreparePlan`/`Vote`/`Decision`/`Ack` wire frames ([`DeployClient`]).
//! * [`cluster`] — the same [`DeployConfig`] in one process: the partitions
//!   its children would serve, held directly ([`Cluster`]), and a
//!   coordinator whose links are partition sessions instead of sockets
//!   ([`ClusterClient`]).
//!
//! ```
//! use islands_server::{Cluster, DeployConfig, DeployReply};
//! use islands_workload::{OpKind, TxnRequest};
//!
//! // 4 instances over 4 000 rows; `Deployment::spawn(&cfg)` would run the
//! // same four partitions as pinned processes, driven through
//! // `deployment.client()` exactly as the cluster is through `client()`.
//! let cfg = DeployConfig {
//!     total_rows: 4_000,
//!     ..DeployConfig::default()
//! };
//! let cluster = Cluster::build(&cfg).unwrap();
//! let mut client = cluster.client();
//! let plan = TxnRequest {
//!     kind: OpKind::Update,
//!     keys: vec![1, 3_999],
//!     multisite: true,
//! }
//! .to_plan();
//! let DeployReply::Outcome(out) = client.submit_plan(&plan).unwrap() else {
//!     panic!("a well-formed plan gets an outcome");
//! };
//! assert!(out.committed && out.distributed);
//! drop(client);
//! assert_eq!(cluster.audit_sum().unwrap(), plan.write_rows());
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
mod coordinator;
pub mod deploy;
mod poll;
pub mod server;
pub mod wire;

pub use client::Client;
pub use cluster::{Cluster, ClusterClient};
pub use deploy::{
    DeployClient, DeployConfig, DeployOutcome, DeployReply, DeployWorkload, Deployment,
    InstanceExit, SpawnMode, Transport,
};
pub use islands_core::native::EngineMode;
pub use server::{Backend, Endpoint, Server, ServerConfig, ServerHandle, ServerStats};
pub use wire::{FrameReader, Reply, Request, WireError, WireMessage, MAX_FRAME};
