//! `lockcheck` — a dynamic race detector for partitioned execution
//! (compiled only with `--features lockcheck`; zero cost otherwise).
//!
//! The serial engine's safety argument is *ownership*: one partition is
//! touched by exactly one thread at a time, and one key lives in exactly one
//! partition. Both halves are conventions the type system cannot see — a
//! routing bug that lands a key on two instances, or a thread calling into
//! a `single_threaded` instance it does not hold, silently corrupts data
//! instead of
//! failing. This module turns those conventions into checked invariants:
//!
//! * **Thread ownership** — a `single_threaded` instance is touched only
//!   by the thread that owns it. A serial partition executor
//!   [`claim`](crate::StorageInstance::lockcheck_claim)s the instance for
//!   the calling thread while it holds the partition lock, and an access
//!   from any other thread — or from any thread once the claim is released —
//!   panics. An instance nobody ever claims belongs to the first thread that
//!   touches it, for good.
//! * **Partition ownership** — instances registered into a shared [`Scope`]
//!   record the first instance to touch each key; a different instance
//!   touching the same key panics (a mis-routed request).
//! * **Lock-order inversions** (locked mode) — the lock manager records
//!   *acquired-before* edges between **table-level** locks ("requested B
//!   while holding A") and panics when a request would close a cycle. Row
//!   level is intentionally excluded: wait-die resolves arbitrary key
//!   orders by killing the younger transaction, so key-order cycles are by
//!   design survivable, while table-order cycles indicate structural
//!   misuse.
//!
//! All panics carry a `lockcheck:` prefix so CI logs are greppable.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};

use parking_lot::Mutex;

use crate::lock::LockId;
use crate::TxnId;

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// A deployment-wide key-ownership registry. Create one per cluster/test
/// and register every instance that is supposed to partition one key space;
/// instances without a scope skip the cross-partition check (separate
/// clusters in one process must not see each other's keys).
#[derive(Debug, Default)]
pub struct Scope {
    /// key → id of the instance that first touched it.
    owners: Mutex<HashMap<u64, u64>>,
}

impl Scope {
    pub fn new() -> Arc<Scope> {
        Arc::new(Scope::default())
    }
}

/// Who may touch a `single_threaded` instance right now.
#[derive(Debug, Clone, Copy)]
enum Owner {
    /// Never claimed, never touched: the first access takes it for good.
    Unowned,
    /// The first toucher, or the thread currently holding a [`Claim`].
    Thread(ThreadId),
    /// A [`Claim`] ended: nobody, until the next claim.
    Released,
}

/// Per-instance detector state, embedded in `StorageInstance`.
#[derive(Debug)]
pub(crate) struct InstanceCheck {
    id: u64,
    owner: Mutex<Owner>,
    scope: Mutex<Option<Arc<Scope>>>,
}

/// The calling thread's ownership of a `single_threaded` instance; dropping
/// it leaves the instance owned by nobody.
pub struct Claim<'a>(&'a InstanceCheck);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        *self.0.owner.lock() = Owner::Released;
    }
}

impl InstanceCheck {
    pub(crate) fn new() -> InstanceCheck {
        InstanceCheck {
            id: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            owner: Mutex::new(Owner::Unowned),
            scope: Mutex::new(None),
        }
    }

    pub(crate) fn set_scope(&self, scope: Arc<Scope>) {
        *self.scope.lock() = Some(scope);
    }

    /// Hand the instance to the calling thread until the claim drops (the
    /// caller holds whatever lock makes it the partition's only user).
    pub(crate) fn claim(&self) -> Claim<'_> {
        *self.owner.lock() = Owner::Thread(thread::current().id());
        Claim(self)
    }

    /// Called on every transactional key access (read/update/insert).
    pub(crate) fn on_access(&self, single_threaded: bool, key: u64) {
        if single_threaded {
            let me = thread::current().id();
            let mut owner = self.owner.lock();
            match *owner {
                Owner::Unowned => *owner = Owner::Thread(me),
                Owner::Thread(o) if o == me => {}
                held => panic!(
                    "lockcheck: cross-thread access to single-threaded instance {}: \
                     key {key} touched from {me:?} but its owner is {held:?}",
                    self.id
                ),
            }
        }
        let scope = self.scope.lock().clone();
        if let Some(scope) = scope {
            let mut owners = scope.owners.lock();
            let owner = *owners.entry(key).or_insert(self.id);
            if owner != self.id {
                panic!(
                    "lockcheck: cross-partition access: key {key} is owned by instance \
                     {owner} but was accessed via instance {} — a request was mis-routed",
                    self.id
                );
            }
        }
    }
}

/// Acquired-before tracking for the lock manager, embedded in
/// `NativeLockManager`.
#[derive(Debug, Default)]
pub(crate) struct LockOrderCheck {
    /// Table-level acquired-before edges: `a → b` means some transaction
    /// requested table `b` while holding table `a`.
    edges: Mutex<HashMap<u32, HashSet<u32>>>,
    /// Locks currently held, per transaction.
    held: Mutex<HashMap<TxnId, Vec<LockId>>>,
}

impl LockOrderCheck {
    /// Record a request and panic if it closes an acquired-before cycle.
    pub(crate) fn on_request(&self, txn: TxnId, id: LockId) {
        let LockId::Table(want) = id else {
            return;
        };
        let held_tables: Vec<u32> = self
            .held
            .lock()
            .get(&txn)
            .map(|held| {
                held.iter()
                    .filter_map(|h| match h {
                        LockId::Table(t) if *t != want => Some(*t),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        if held_tables.is_empty() {
            return;
        }
        let mut edges = self.edges.lock();
        for &h in &held_tables {
            // About to add h → want; an existing path want ⇝ h is a cycle.
            if Self::reachable(&edges, want, h) {
                panic!(
                    "lockcheck: lock-order inversion: {txn} requests table {want} while \
                     holding table {h}, but table {h} has previously been requested while \
                     holding table {want} (acquired-before cycle)"
                );
            }
            edges.entry(h).or_default().insert(want);
        }
    }

    fn reachable(edges: &HashMap<u32, HashSet<u32>>, from: u32, to: u32) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = edges.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Record a granted lock (not called for wait-die kills/timeouts).
    pub(crate) fn on_granted(&self, txn: TxnId, id: LockId) {
        let mut held = self.held.lock();
        let locks = held.entry(txn).or_default();
        if !locks.contains(&id) {
            locks.push(id);
        }
    }

    pub(crate) fn on_release_all(&self, txn: TxnId) {
        self.held.lock().remove(&txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_tracks_first_owner() {
        let a = InstanceCheck::new();
        let scope = Scope::new();
        a.set_scope(Arc::clone(&scope));
        a.on_access(false, 42);
        a.on_access(false, 42); // same instance: fine
        assert_eq!(scope.owners.lock().len(), 1);
    }

    #[test]
    #[should_panic(expected = "lockcheck: cross-partition access")]
    fn second_instance_touching_same_key_panics() {
        let a = InstanceCheck::new();
        let b = InstanceCheck::new();
        let scope = Scope::new();
        a.set_scope(Arc::clone(&scope));
        b.set_scope(Arc::clone(&scope));
        a.on_access(false, 42);
        b.on_access(false, 42);
    }

    #[test]
    fn unscoped_instances_skip_partition_checks() {
        let a = InstanceCheck::new();
        let b = InstanceCheck::new();
        a.on_access(false, 42);
        b.on_access(false, 42); // no shared scope: not an error
    }

    #[test]
    #[should_panic(expected = "lockcheck: lock-order inversion")]
    fn opposite_table_orders_panic() {
        let c = LockOrderCheck::default();
        // txn 1: table 1 then table 2.
        c.on_request(TxnId(1), LockId::Table(1));
        c.on_granted(TxnId(1), LockId::Table(1));
        c.on_request(TxnId(1), LockId::Table(2));
        c.on_granted(TxnId(1), LockId::Table(2));
        c.on_release_all(TxnId(1));
        // txn 2: table 2 then table 1 — closes the cycle.
        c.on_request(TxnId(2), LockId::Table(2));
        c.on_granted(TxnId(2), LockId::Table(2));
        c.on_request(TxnId(2), LockId::Table(1));
    }

    #[test]
    fn consistent_table_order_is_clean() {
        let c = LockOrderCheck::default();
        for t in [TxnId(1), TxnId(2), TxnId(3)] {
            c.on_request(t, LockId::Table(1));
            c.on_granted(t, LockId::Table(1));
            c.on_request(t, LockId::Table(2));
            c.on_granted(t, LockId::Table(2));
            c.on_release_all(t);
        }
    }

    #[test]
    fn key_locks_are_exempt_from_order_tracking() {
        // Wait-die handles arbitrary key orders; they must not trip the
        // detector.
        let c = LockOrderCheck::default();
        c.on_granted(TxnId(1), LockId::Key(1, 5));
        c.on_request(TxnId(1), LockId::Key(1, 7));
        c.on_granted(TxnId(2), LockId::Key(1, 7));
        c.on_request(TxnId(2), LockId::Key(1, 5));
    }
}
