//! The pure lock-table state machine.

use std::collections::{HashMap, VecDeque};

use crate::TxnId;

/// Lock modes: intention-shared/exclusive on tables, shared/exclusive on rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    IS,
    IX,
    S,
    X,
}

impl LockMode {
    /// Classic multi-granularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IS, IS) | (IS, IX) | (IS, S) | (IX, IS) | (IX, IX) | (S, IS) | (S, S)
        )
    }

    /// Whether holding `self` already satisfies a request for `want`.
    pub fn covers(self, want: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, want),
            (X, _) | (S, S) | (S, IS) | (IX, IX) | (IX, IS) | (IS, IS)
        )
    }

    /// The weakest mode granting both `self` and `other` (supremum in the
    /// lock-mode lattice restricted to our four modes).
    pub fn combine(self, other: LockMode) -> LockMode {
        use LockMode::*;
        match (self, other) {
            (X, _) | (_, X) => X,
            (S, IX) | (IX, S) => X, // SIX collapsed to X (no SIX mode)
            (S, _) | (_, S) => S,
            (IX, _) | (_, IX) => IX,
            (IS, IS) => IS,
        }
    }
}

/// What a lock protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockId {
    /// A whole table.
    Table(u32),
    /// One row, identified logically by `(table, key)`.
    Key(u32, u64),
}

/// Outcome of [`LockTable::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// Lock granted (or already held in a covering mode).
    Granted,
    /// Caller must block until woken by a release.
    Wait,
    /// Wait-die says the requester (younger than a conflicting party) must
    /// abort.
    Die,
}

#[derive(Debug)]
struct Entry {
    granted: Vec<(TxnId, LockMode)>,
    waiting: VecDeque<(TxnId, LockMode)>,
}

/// What each transaction holds and waits for — kept apart from the entries
/// so an entry and the ledger can be borrowed together.
#[derive(Debug, Default)]
struct Ledger {
    held: HashMap<TxnId, Vec<LockId>>,
    /// The request each blocked transaction has queued. A transaction
    /// blocks while it waits, so it never has more than one.
    waiting_on: HashMap<TxnId, LockId>,
    /// Emptied `held` lists, kept for the next transactions.
    spare: Vec<Vec<LockId>>,
}

impl Ledger {
    /// Spare lists worth keeping: about as many as transactions run at once.
    const SPARES: usize = 64;

    fn note_held(&mut self, txn: TxnId, id: LockId) {
        let spare = &mut self.spare;
        self.held
            .entry(txn)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(id);
    }

    /// Everything `txn` holds or waits for, forgotten. Hand the list back
    /// through [`recycle`](Self::recycle).
    fn take(&mut self, txn: TxnId) -> Vec<LockId> {
        // A release without a shard set visits every shard, and most hold
        // nothing of anybody's: answer those before hashing anything.
        if self.held.is_empty() && self.waiting_on.is_empty() {
            return Vec::new();
        }
        let mut touched = self.held.remove(&txn).unwrap_or_default();
        // The txn may also be waiting on one more lock (at abort time).
        if !self.waiting_on.is_empty() {
            touched.extend(self.waiting_on.remove(&txn));
        }
        touched
    }

    fn recycle(&mut self, mut list: Vec<LockId>) {
        if list.capacity() > 0 && self.spare.len() < Self::SPARES {
            list.clear();
            self.spare.push(list);
        }
    }
}

/// The pure lock table. All methods are non-blocking; `Wait` outcomes are
/// parked by the caller and resolved through the wake lists returned by
/// [`LockTable::release_all`].
#[derive(Debug, Default)]
pub struct LockTable {
    entries: HashMap<LockId, Entry>,
    ledger: Ledger,
    /// Wakeups produced by `cancel_wait`, delivered via
    /// [`LockTable::take_deferred_wakeups`].
    deferred_wakeups: Vec<TxnId>,
    /// Diagnostics.
    pub acquires: u64,
    pub waits: u64,
    pub dies: u64,
}

impl LockTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `id` in `mode` for `txn`.
    pub fn acquire(&mut self, txn: TxnId, id: LockId, mode: LockMode) -> Acquire {
        self.acquires += 1;
        let entry = self.entries.entry(id).or_insert_with(|| Entry {
            granted: Vec::new(),
            waiting: VecDeque::new(),
        });

        // Re-entrant / covered request?
        if let Some(&(_, held)) = entry.granted.iter().find(|(t, _)| *t == txn) {
            if held.covers(mode) {
                return Acquire::Granted;
            }
            // Upgrade: target mode combines held + requested.
            let target = held.combine(mode);
            let conflicting: Vec<TxnId> = entry
                .granted
                .iter()
                .filter(|(t, m)| *t != txn && !target.compatible(*m))
                .map(|(t, _)| *t)
                .collect();
            if conflicting.is_empty() {
                let slot = entry
                    .granted
                    .iter_mut()
                    .find(|(t, _)| *t == txn)
                    .expect("held above");
                slot.1 = target;
                return Acquire::Granted;
            }
            // Wait-die against the conflicting holders.
            if conflicting.iter().all(|t| txn < *t) {
                // Upgrades queue at the front so they cannot deadlock behind
                // fresh requests for the same lock.
                entry.waiting.push_front((txn, target));
                return self.wait(txn, id);
            }
            self.dies += 1;
            return Acquire::Die;
        }

        // Fresh request: conflicts with any incompatible holder, or queues
        // behind existing waiters (strict FIFO; no barging).
        let holder_conflicts: Vec<TxnId> = entry
            .granted
            .iter()
            .filter(|(_, m)| !mode.compatible(*m))
            .map(|(t, _)| *t)
            .collect();
        if holder_conflicts.is_empty() && entry.waiting.is_empty() {
            entry.granted.push((txn, mode));
            self.ledger.note_held(txn, id);
            return Acquire::Granted;
        }
        // Wait-die: may wait only if older than every conflicting holder and
        // every queued waiter.
        let older_than_all = holder_conflicts.iter().all(|t| txn < *t)
            && entry.waiting.iter().all(|(t, _)| txn < *t);
        if older_than_all {
            entry.waiting.push_back((txn, mode));
            self.wait(txn, id)
        } else {
            self.dies += 1;
            Acquire::Die
        }
    }

    /// `txn`'s request for `id` has just been queued.
    fn wait(&mut self, txn: TxnId, id: LockId) -> Acquire {
        let queued = self.ledger.waiting_on.insert(txn, id);
        debug_assert!(queued.is_none(), "{txn} queued twice: {queued:?}, {id:?}");
        self.waits += 1;
        Acquire::Wait
    }

    /// Release everything `txn` holds or waits for; returns transactions
    /// whose pending requests became granted (to be woken), in grant order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut woken = Vec::new();
        let touched = self.ledger.take(txn);
        for &id in &touched {
            let Some(entry) = self.entries.get_mut(&id) else {
                continue;
            };
            entry.granted.retain(|(t, _)| *t != txn);
            entry.waiting.retain(|(t, _)| *t != txn);
            if Self::promote(entry, &mut self.ledger, id, &mut woken) {
                self.entries.remove(&id);
            }
        }
        self.ledger.recycle(touched);
        woken
    }

    /// Remove a pending wait (timeout/abort path). Returns `true` if the
    /// request was still queued, `false` if it is now granted (the caller
    /// won the race and should treat the lock as held).
    pub fn cancel_wait(&mut self, txn: TxnId, id: LockId) -> bool {
        let Some(entry) = self.entries.get_mut(&id) else {
            return false;
        };
        let was_waiting = entry.waiting.iter().any(|(t, _)| *t == txn);
        if was_waiting {
            entry.waiting.retain(|(t, _)| *t != txn);
            self.ledger.waiting_on.remove(&txn);
            // Removing a waiter can unblock those behind it. Callers of
            // cancel_wait run under the same external mutex as release_all;
            // report wakeups through take_deferred_wakeups.
            if Self::promote(entry, &mut self.ledger, id, &mut self.deferred_wakeups) {
                self.entries.remove(&id);
            }
        }
        was_waiting
    }

    /// Grant queued requests that are now compatible, strictly FIFO. Returns
    /// whether the entry is left with nobody holding or wanting it.
    fn promote(entry: &mut Entry, ledger: &mut Ledger, id: LockId, woken: &mut Vec<TxnId>) -> bool {
        while let Some(&(t, m)) = entry.waiting.front() {
            let upgrade = entry.granted.iter().any(|(g, _)| *g == t);
            let ok = entry
                .granted
                .iter()
                .filter(|(g, _)| *g != t)
                .all(|(_, gm)| m.compatible(*gm));
            if !ok {
                break;
            }
            entry.waiting.pop_front();
            ledger.waiting_on.remove(&t);
            if upgrade {
                let slot = entry.granted.iter_mut().find(|(g, _)| *g == t).unwrap();
                slot.1 = m;
            } else {
                entry.granted.push((t, m));
                ledger.note_held(t, id);
            }
            woken.push(t);
        }
        entry.granted.is_empty() && entry.waiting.is_empty()
    }

    /// Wakeups produced by [`LockTable::cancel_wait`]; drain and deliver.
    pub fn take_deferred_wakeups(&mut self) -> Vec<TxnId> {
        std::mem::take(&mut self.deferred_wakeups)
    }

    /// Does `txn` hold `id` in a mode covering `mode`?
    pub fn holds(&self, txn: TxnId, id: LockId, mode: LockMode) -> bool {
        self.entries
            .get(&id)
            .map(|e| e.granted.iter().any(|(t, m)| *t == txn && m.covers(mode)))
            .unwrap_or(false)
    }

    /// Number of locks `txn` currently holds.
    pub fn held_count(&self, txn: TxnId) -> usize {
        self.ledger.held.get(&txn).map(|v| v.len()).unwrap_or(0)
    }

    /// Total number of lock entries with any holder or waiter.
    pub fn active_locks(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u32 = 1;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(IS.compatible(IX));
        assert!(IX.compatible(IX));
        assert!(S.compatible(S));
        assert!(!S.compatible(IX));
        assert!(!X.compatible(IS));
        assert!(!IX.compatible(S));
    }

    #[test]
    fn covers_and_combine() {
        use LockMode::*;
        assert!(X.covers(S));
        assert!(S.covers(IS));
        assert!(!S.covers(X));
        assert_eq!(S.combine(X), X);
        assert_eq!(IX.combine(S), X, "S+IX needs SIX; we round up to X");
        assert_eq!(IS.combine(IX), IX);
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lt = LockTable::new();
        let id = LockId::Key(T, 7);
        assert_eq!(lt.acquire(t(1), id, LockMode::S), Acquire::Granted);
        assert_eq!(lt.acquire(t(2), id, LockMode::S), Acquire::Granted);
        assert!(lt.holds(t(1), id, LockMode::S));
        assert!(lt.holds(t(2), id, LockMode::S));
    }

    #[test]
    fn exclusive_conflicts_wait_die() {
        let mut lt = LockTable::new();
        let id = LockId::Key(T, 7);
        assert_eq!(lt.acquire(t(5), id, LockMode::X), Acquire::Granted);
        // Older requester (1 < 5) waits.
        assert_eq!(lt.acquire(t(1), id, LockMode::X), Acquire::Wait);
        // Younger requester (9 > 5) dies.
        assert_eq!(lt.acquire(t(9), id, LockMode::X), Acquire::Die);
    }

    #[test]
    fn release_wakes_fifo() {
        let mut lt = LockTable::new();
        let id = LockId::Key(T, 1);
        assert_eq!(lt.acquire(t(10), id, LockMode::X), Acquire::Granted);
        assert_eq!(lt.acquire(t(3), id, LockMode::S), Acquire::Wait);
        assert_eq!(lt.acquire(t(2), id, LockMode::S), Acquire::Wait);
        let woken = lt.release_all(t(10));
        // Both shared waiters are granted together, in queue order.
        assert_eq!(woken, vec![t(3), t(2)]);
        assert!(lt.holds(t(3), id, LockMode::S));
        assert!(lt.holds(t(2), id, LockMode::S));
    }

    #[test]
    fn fifo_blocks_barging_readers() {
        let mut lt = LockTable::new();
        let id = LockId::Key(T, 1);
        assert_eq!(lt.acquire(t(10), id, LockMode::S), Acquire::Granted);
        // Writer waits (older).
        assert_eq!(lt.acquire(t(4), id, LockMode::X), Acquire::Wait);
        // A new reader may not barge past the queued writer; being younger
        // than the waiter, it dies.
        assert_eq!(lt.acquire(t(20), id, LockMode::S), Acquire::Die);
        // An older reader queues.
        assert_eq!(lt.acquire(t(2), id, LockMode::S), Acquire::Wait);
        let woken = lt.release_all(t(10));
        // Writer first (FIFO), reader stays queued behind it.
        assert_eq!(woken, vec![t(4)]);
        let woken = lt.release_all(t(4));
        assert_eq!(woken, vec![t(2)]);
    }

    #[test]
    fn reentrant_and_covered_requests() {
        let mut lt = LockTable::new();
        let id = LockId::Table(T);
        assert_eq!(lt.acquire(t(1), id, LockMode::X), Acquire::Granted);
        assert_eq!(lt.acquire(t(1), id, LockMode::S), Acquire::Granted);
        assert_eq!(lt.acquire(t(1), id, LockMode::IX), Acquire::Granted);
        assert_eq!(lt.held_count(t(1)), 1, "one lock despite three acquires");
    }

    #[test]
    fn upgrade_sole_holder_succeeds() {
        let mut lt = LockTable::new();
        let id = LockId::Key(T, 3);
        assert_eq!(lt.acquire(t(1), id, LockMode::S), Acquire::Granted);
        assert_eq!(lt.acquire(t(1), id, LockMode::X), Acquire::Granted);
        assert!(lt.holds(t(1), id, LockMode::X));
    }

    #[test]
    fn upgrade_with_other_reader_waits_or_dies() {
        let mut lt = LockTable::new();
        let id = LockId::Key(T, 3);
        assert_eq!(lt.acquire(t(1), id, LockMode::S), Acquire::Granted);
        assert_eq!(lt.acquire(t(2), id, LockMode::S), Acquire::Granted);
        // Older upgrader waits...
        assert_eq!(lt.acquire(t(1), id, LockMode::X), Acquire::Wait);
        // ...and is granted once the other reader releases.
        let woken = lt.release_all(t(2));
        assert_eq!(woken, vec![t(1)]);
        assert!(lt.holds(t(1), id, LockMode::X));
    }

    #[test]
    fn upgrade_deadlock_resolved_by_wait_die() {
        let mut lt = LockTable::new();
        let id = LockId::Key(T, 3);
        assert_eq!(lt.acquire(t(1), id, LockMode::S), Acquire::Granted);
        assert_eq!(lt.acquire(t(2), id, LockMode::S), Acquire::Granted);
        assert_eq!(lt.acquire(t(1), id, LockMode::X), Acquire::Wait);
        // The younger upgrader must die, breaking the classic upgrade
        // deadlock.
        assert_eq!(lt.acquire(t(2), id, LockMode::X), Acquire::Die);
        let woken = lt.release_all(t(2));
        assert_eq!(woken, vec![t(1)]);
    }

    #[test]
    fn cancel_wait_unblocks_queue() {
        let mut lt = LockTable::new();
        let id = LockId::Key(T, 9);
        assert_eq!(lt.acquire(t(10), id, LockMode::S), Acquire::Granted);
        // Writer queues first; an older reader queues behind it.
        assert_eq!(lt.acquire(t(2), id, LockMode::X), Acquire::Wait);
        assert_eq!(lt.acquire(t(1), id, LockMode::S), Acquire::Wait);
        assert!(lt.cancel_wait(t(2), id), "was still waiting");
        // Reader behind the cancelled writer becomes compatible.
        assert_eq!(lt.take_deferred_wakeups(), vec![t(1)]);
        assert!(lt.holds(t(1), id, LockMode::S));
    }

    #[test]
    fn hierarchy_intention_modes() {
        let mut lt = LockTable::new();
        let tbl = LockId::Table(T);
        // Reader: IS on table, S on row. Writer: IX on table, X on other row.
        assert_eq!(lt.acquire(t(1), tbl, LockMode::IS), Acquire::Granted);
        assert_eq!(
            lt.acquire(t(1), LockId::Key(T, 1), LockMode::S),
            Acquire::Granted
        );
        assert_eq!(lt.acquire(t(2), tbl, LockMode::IX), Acquire::Granted);
        assert_eq!(
            lt.acquire(t(2), LockId::Key(T, 2), LockMode::X),
            Acquire::Granted
        );
        // A table-level S blocks behind the IX holder (older waits).
        assert_eq!(lt.acquire(t(0), tbl, LockMode::S), Acquire::Wait);
        lt.release_all(t(2));
        assert!(lt.holds(t(0), tbl, LockMode::S));
        // Cleanup leaves the table empty.
        lt.release_all(t(0));
        lt.release_all(t(1));
        assert_eq!(lt.active_locks(), 0);
    }
}
