//! Shared-nothing deployments: N partition instances, one router, one 2PC
//! driver, spawned over sockets or assembled in-process.
//!
//! The paper's shared-nothing configurations are separate OS processes
//! exchanging messages over IPC — Unix domain sockets above all (Figure 6
//! measures exactly that axis). A [`Deployment`] is that for real; the
//! in-process [`Cluster`] is the same instances, routing and commit
//! protocol with each message replaced by the function call that answers
//! it, and can itself be fronted by a server:
//!
//! * [`wire`] — a hand-rolled length-prefixed wire protocol: framed
//!   [`Request`]/[`Reply`] messages carrying
//!   [`PlanRequest`](islands_workload::PlanRequest) submissions (and
//!   [`TxnRequest`](islands_workload::TxnRequest) batches, which the
//!   server lowers to plans on arrival) and typed
//!   commit/abort/latency replies, with a streaming
//!   [`FrameReader`] that makes pipelining natural and
//!   rejects oversized or truncated traffic instead of trusting it.
//! * [`server`] — a multi-threaded acceptor: one session thread per
//!   connection, each holding one engine
//!   [`Session`](islands_core::native::Session) that every request frame
//!   becomes a call on, run on that session thread in both engine modes;
//!   request pipelining (frames that arrive together run back-to-back
//!   and their replies flush in one write; nothing waits for frames that
//!   have not arrived, though an idle session polls its socket briefly for
//!   the next one before it sleeps), live counters, and graceful drain via
//!   a wire message or the local handle.
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
//!   coordinator whose links are engine sessions instead of sockets
//!   ([`ClusterClient`]).
//!
//! ```no_run
//! use std::sync::Arc;
//! use islands_server::{Client, Cluster, DeployConfig, Endpoint, Server, ServerConfig};
//! use islands_workload::{OpKind, TxnRequest};
//!
//! // 4 instances over 40 000 rows; `Deployment::spawn(&cfg)` would run the
//! // same four partitions as pinned processes.
//! let cfg = DeployConfig::default();
//! let cluster = Arc::new(Cluster::build(&cfg).unwrap());
//! let handle = Server::spawn(
//!     cluster,
//!     Endpoint::Uds("/tmp/islands.sock".into()),
//!     ServerConfig::default(),
//! ).unwrap();
//!
//! let mut client = Client::connect(handle.endpoint()).unwrap();
//! let reply = client.submit(&TxnRequest {
//!     kind: OpKind::Update,
//!     keys: vec![1, 39_999],
//!     multisite: true,
//! }).unwrap();
//! println!("{reply:?}");
//! client.drain_server().unwrap();
//! handle.join().unwrap();
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
pub use cluster::{Cluster, ClusterClient, ClusterRunResult};
pub use deploy::{
    DeployClient, DeployConfig, DeployOutcome, DeployReply, DeployWorkload, Deployment,
    InstanceExit, SpawnMode, Transport,
};
pub use islands_core::native::EngineMode;
pub use server::{Backend, Endpoint, Server, ServerConfig, ServerHandle, ServerStats, StatsProbe};
pub use wire::{FrameReader, Reply, Request, WireError, WireMessage, MAX_FRAME};
