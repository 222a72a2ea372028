//! Deterministic discrete-event simulation (DES) kernel.
//!
//! The *OLTP on Hardware Islands* paper measures NUMA effects on real 4- and
//! 8-socket Xeons. This reproduction executes the same transaction logic
//! under a **virtual clock**: worker threads become async tasks, and every
//! hardware interaction (memory access, lock handoff, message, disk write)
//! advances virtual time by a calibrated amount instead of wall time.
//!
//! The kernel is intentionally tiny and dependency-free:
//!
//! * [`Sim`] — a single-threaded executor with a binary-heap timer wheel.
//!   Events with equal timestamps fire in registration order, so a run is a
//!   pure function of its inputs (and any externally-seeded RNG).
//! * [`sync`] — async primitives (FIFO [`sync::SimMutex`], [`sync::Notify`],
//!   [`sync::Event`]) whose wait queues suspend tasks in virtual time.
//! * [`chan`] — message channels with per-message delivery latency, the
//!   substrate for the simulated IPC layer.
//! * [`disk`] — a serial-service-queue disk model (log device and the
//!   RAID-0 data disks of the paper's Section 7.4).
//! * [`stats`] — Welford mean/variance accumulators used by every benchmark.
//!
//! Time is `u64` picoseconds ([`SimTime`]); experiments run milliseconds to
//! seconds of virtual time, far below overflow.

#![forbid(unsafe_code)]

pub mod chan;
pub mod disk;
pub mod executor;
pub mod stats;
pub mod sync;
pub mod time;

pub use executor::{JoinHandle, Sim};
pub use time::SimTime;

/// Picoseconds per nanosecond, exposed for cost tables.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;
