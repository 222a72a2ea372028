//! Hierarchical two-phase locking.
//!
//! Shore-MT uses a hierarchical lock manager (database → table → row) with
//! intention modes. We implement the table → row hierarchy: the lattice
//! keeps `IS`/`IX` on tables and `S`/`X` on tables and rows (rows keyed
//! logically by primary key, so lock identity survives record moves).
//!
//! Transactions ([`TxnHandle`](crate::TxnHandle)) take only row `S`/`X`
//! locks. An intent conflicts with nothing but a table-level `S`/`X`, which
//! no transaction path requests, so taking one bought no exclusion and cost
//! a lock-table line every session wrote. Table locks remain for direct
//! callers of [`NativeLockManager`]; a transaction path that starts asking
//! for table-level `S`/`X` must bring the intents back first (see
//! `TxnHandle::lock_row`).
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
