//! Hierarchical two-phase locking.
//!
//! Shore-MT uses a hierarchical lock manager (database → table → row) with
//! intention modes. We implement the table → row hierarchy the paper's
//! workloads exercise: transactions take `IS`/`IX` on the table and `S`/`X`
//! on individual rows (keyed logically by primary key, so lock identity
//! survives record moves).
//!
//! The core [`table::LockTable`] is a *pure state machine* — acquire/release
//! return decisions and wakeup lists without blocking — so the same logic
//! drives both the native blocking manager ([`native::NativeLockManager`],
//! parking real threads) and the simulated cluster (suspending virtual-time
//! tasks in `islands-core`).
//!
//! Deadlock handling is **wait-die** (Rosenkrantz et al.): an older
//! transaction may wait for a younger one, a younger requester is killed
//! immediately. All wait edges then point old → young and cycles are
//! impossible. Transaction ids double as ages.

pub mod native;
pub mod table;

pub use native::{NativeLockManager, ShardSet};
pub use table::{Acquire, LockId, LockMode, LockTable};
