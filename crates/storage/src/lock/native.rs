//! Blocking lock manager for native (real-thread) execution.
//!
//! Thin driver over the pure [`LockTable`], one table per shard of the
//! [`LockId`] space so sessions working on different rows take different
//! mutexes. `Wait` outcomes park the calling thread on a per-transaction
//! condition variable; releases wake the transactions the tables report as
//! newly granted. A configurable timeout backstops wait-die (which already
//! prevents true deadlocks) against lost wakeups and runaway holders in
//! tests.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{Result, StorageError};
use crate::lock::table::{Acquire, LockId, LockMode, LockTable};
use crate::TxnId;

/// Shards of the lock-id space, one [`LockTable`] each: a power of two, one
/// bit each in a [`ShardSet`].
const SHARDS: usize = 16;
const _: () = assert!(SHARDS.is_power_of_two() && SHARDS <= u16::BITS as usize);

/// Which shards a transaction holds locks in — what
/// [`NativeLockManager::lock`] returns, for the caller to accumulate and
/// hand back to [`NativeLockManager::unlock`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSet(u16);

impl ShardSet {
    /// Every shard: releases whatever a transaction holds anywhere.
    pub const ALL: ShardSet = ShardSet(u16::MAX);

    fn contains(self, shard: usize) -> bool {
        self.0 & (1 << shard) != 0
    }
}

impl std::ops::BitOrAssign for ShardSet {
    fn bitor_assign(&mut self, other: ShardSet) {
        self.0 |= other.0;
    }
}

/// A shard's table on cache lines of its own.
#[repr(align(64))]
struct Shard(Mutex<LockTable>);

#[derive(Default)]
struct WaitCell {
    state: Mutex<WaitState>,
    cv: Condvar,
}

#[derive(Default, Clone, Copy, PartialEq)]
enum WaitState {
    #[default]
    Waiting,
    Granted,
}

/// The blocking lock manager.
pub struct NativeLockManager {
    shards: [Shard; SHARDS],
    /// Parked waiters. Only the wait and wake paths come here, and under
    /// wait-die almost nothing waits.
    cells: Mutex<HashMap<TxnId, Arc<WaitCell>>>,
    timeout: Duration,
    #[cfg(feature = "lockcheck")]
    order: crate::lockcheck::LockOrderCheck,
}

impl NativeLockManager {
    pub fn new(timeout: Duration) -> Self {
        NativeLockManager {
            shards: std::array::from_fn(|_| Shard(Mutex::new(LockTable::new()))),
            cells: Mutex::new(HashMap::new()),
            timeout,
            #[cfg(feature = "lockcheck")]
            order: crate::lockcheck::LockOrderCheck::default(),
        }
    }

    fn shard_of(id: LockId) -> usize {
        let mixed = match id {
            LockId::Table(t) => t as u64,
            LockId::Key(t, k) => k ^ (t as u64).rotate_left(48),
        };
        (mixed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARDS.trailing_zeros())) as usize
    }

    /// Acquire `id` in `mode`, blocking as needed; returns the shard the
    /// lock now lives in. (A request that fails leaves nothing behind in its
    /// shard, so only grants need remembering.)
    ///
    /// Errors: [`StorageError::Deadlock`] if wait-die kills the requester,
    /// [`StorageError::LockTimeout`] if the wait exceeds the timeout.
    pub fn lock(&self, txn: TxnId, id: LockId, mode: LockMode) -> Result<ShardSet> {
        let _span = islands_obs::enter(islands_obs::BreakdownCategory::Locking);
        #[cfg(feature = "lockcheck")]
        self.order.on_request(txn, id);
        let shard = Self::shard_of(id);
        let queued = {
            let mut t = self.shards[shard].0.lock();
            match t.acquire(txn, id, mode) {
                Acquire::Granted => None,
                Acquire::Die => return Err(StorageError::Deadlock(txn)),
                // Register the wait cell before the shard lock drops: the
                // release that grants this request can then only run
                // afterwards, and finds the cell. Registered any later, its
                // wakeup is lost and the waiter sleeps out the whole timeout
                // holding a lock it does not know it has.
                Acquire::Wait => {
                    let cell = Arc::new(WaitCell::default());
                    self.cells.lock().insert(txn, Arc::clone(&cell));
                    Some(cell)
                }
            }
        };
        if let Some(cell) = queued {
            self.wait(txn, id, shard, &cell)?;
        }
        #[cfg(feature = "lockcheck")]
        self.order.on_granted(txn, id);
        Ok(ShardSet(1 << shard))
    }

    fn wait(&self, txn: TxnId, id: LockId, shard: usize, cell: &WaitCell) -> Result<()> {
        let mut st = cell.state.lock();
        while *st == WaitState::Waiting {
            if self.cv_wait(cell, &mut st) {
                continue; // woken (or spurious); loop re-checks
            }
            // Timed out: resolve the race against a concurrent grant under
            // the shard lock.
            drop(st);
            let mut t = self.shards[shard].0.lock();
            let still_waiting = t.cancel_wait(txn, id);
            let woken = t.take_deferred_wakeups();
            drop(t);
            self.wake(&woken);
            if still_waiting {
                self.cells.lock().remove(&txn);
                return Err(StorageError::LockTimeout(txn));
            }
            // No longer queued: a release granted the request at the last
            // moment. The lock is held, whether or not that releaser has
            // reached this cell with its wakeup yet.
            break;
        }
        self.cells.lock().remove(&txn);
        Ok(())
    }

    /// Returns `true` if woken before the timeout.
    fn cv_wait(&self, cell: &WaitCell, st: &mut parking_lot::MutexGuard<'_, WaitState>) -> bool {
        !cell.cv.wait_for(st, self.timeout).timed_out()
    }

    /// Release everything `txn` holds, wherever it is, and wake newly
    /// granted waiters.
    pub fn unlock_all(&self, txn: TxnId) {
        self.unlock(txn, ShardSet::ALL);
    }

    /// Release everything `txn` holds in `touched` — the union of what
    /// [`lock`](Self::lock) has returned to it — and wake newly granted
    /// waiters.
    pub fn unlock(&self, txn: TxnId, touched: ShardSet) {
        let _span = islands_obs::enter(islands_obs::BreakdownCategory::Locking);
        #[cfg(feature = "lockcheck")]
        self.order.on_release_all(txn);
        for (i, shard) in self.shards.iter().enumerate() {
            if touched.contains(i) {
                let woken = shard.0.lock().release_all(txn);
                self.wake(&woken);
            }
        }
    }

    fn wake(&self, txns: &[TxnId]) {
        if txns.is_empty() {
            return;
        }
        let cells = self.cells.lock();
        for t in txns {
            if let Some(cell) = cells.get(t) {
                let mut st = cell.state.lock();
                *st = WaitState::Granted;
                cell.cv.notify_all();
            }
        }
    }

    pub fn holds(&self, txn: TxnId, id: LockId, mode: LockMode) -> bool {
        self.shards[Self::shard_of(id)]
            .0
            .lock()
            .holds(txn, id, mode)
    }

    /// Lock entries with any holder or waiter, over all shards (diagnostics
    /// and tests: it visits every shard).
    pub fn active_locks(&self) -> usize {
        self.shards.iter().map(|s| s.0.lock().active_locks()).sum()
    }

    /// `(acquires, waits, deadlock-kills)` counters, summed over the shards.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |(a, w, d), shard| {
            let t = shard.0.lock();
            (a + t.acquires, w + t.waits, d + t.dies)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const T: u32 = 1;

    fn mgr() -> Arc<NativeLockManager> {
        Arc::new(NativeLockManager::new(Duration::from_secs(5)))
    }

    #[test]
    fn uncontended_lock_unlock() {
        let m = mgr();
        m.lock(TxnId(1), LockId::Key(T, 5), LockMode::X).unwrap();
        assert!(m.holds(TxnId(1), LockId::Key(T, 5), LockMode::X));
        m.unlock_all(TxnId(1));
        assert!(!m.holds(TxnId(1), LockId::Key(T, 5), LockMode::X));
    }

    #[test]
    fn blocked_thread_resumes_on_release() {
        let m = mgr();
        let id = LockId::Key(T, 1);
        m.lock(TxnId(10), id, LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || {
            // Older transaction: allowed to wait.
            m2.lock(TxnId(1), id, LockMode::X).unwrap();
            m2.unlock_all(TxnId(1));
        });
        thread::sleep(Duration::from_millis(50));
        m.unlock_all(TxnId(10));
        h.join().unwrap();
    }

    #[test]
    fn younger_requester_dies() {
        let m = mgr();
        let id = LockId::Key(T, 1);
        m.lock(TxnId(1), id, LockMode::X).unwrap();
        assert!(matches!(
            m.lock(TxnId(2), id, LockMode::X),
            Err(StorageError::Deadlock(TxnId(2)))
        ));
    }

    #[test]
    fn timeout_fires_when_holder_never_releases() {
        let m = Arc::new(NativeLockManager::new(Duration::from_millis(50)));
        let id = LockId::Key(T, 1);
        m.lock(TxnId(10), id, LockMode::X).unwrap();
        let start = std::time::Instant::now();
        let r = m.lock(TxnId(1), id, LockMode::X);
        assert!(matches!(r, Err(StorageError::LockTimeout(TxnId(1)))));
        assert!(start.elapsed() >= Duration::from_millis(50));
        // The cancelled wait must not corrupt the queue.
        m.unlock_all(TxnId(10));
        m.lock(TxnId(2), id, LockMode::X).unwrap();
    }

    #[test]
    fn contended_counter_increments_are_serialized() {
        let m = mgr();
        let id = LockId::Key(T, 42);
        let counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let m = Arc::clone(&m);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for done in 0..50u64 {
                    // One id per increment, kept across its retries: wait-die
                    // is starvation-free only if a victim comes back with
                    // its original timestamp and so ages into the oldest
                    // waiter. A fresh (younger) id per attempt can die
                    // forever.
                    let txn = TxnId(1 + i + 8 * done);
                    loop {
                        match m.lock(txn, id, LockMode::X) {
                            Ok(_) => break,
                            Err(StorageError::Deadlock(_)) => {
                                m.unlock_all(txn);
                                thread::yield_now();
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                    *counter.lock() += 1;
                    m.unlock_all(txn);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 8 * 50);
    }

    /// Row locks on enough keys to land in every shard.
    fn lock_everywhere(m: &NativeLockManager, txn: TxnId) -> ShardSet {
        let mut held = ShardSet::default();
        for key in 0..256 {
            held |= m.lock(txn, LockId::Key(T, key), LockMode::X).unwrap();
        }
        assert_eq!(held, ShardSet::ALL, "256 keys missed a shard");
        held
    }

    #[test]
    fn release_by_shard_set_frees_every_shard() {
        let m = mgr();
        let held = lock_everywhere(&m, TxnId(1));
        assert_eq!(m.active_locks(), 256);
        // A set short of a shard leaves that shard's locks where they are...
        let mut partial = held;
        partial.0 &= !1;
        m.unlock(TxnId(1), partial);
        let left = m.active_locks();
        assert!(0 < left && left < 256);
        // ...and the set-less release finds them wherever they are.
        m.unlock_all(TxnId(1));
        assert_eq!(m.active_locks(), 0);
    }

    #[test]
    fn a_waiter_is_woken_by_a_release_that_spans_shards() {
        let m = mgr();
        let held = lock_everywhere(&m, TxnId(10));
        let waiter = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                // Older than the holder: waits, in whichever shard key 77 is.
                let started = std::time::Instant::now();
                let shard = m.lock(TxnId(1), LockId::Key(T, 77), LockMode::X).unwrap();
                m.unlock(TxnId(1), shard);
                started.elapsed()
            })
        };
        while m.stats().1 == 0 {
            thread::yield_now(); // until the waiter is queued
        }
        m.unlock(TxnId(10), held);
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_secs(1),
            "woken by the timeout: {waited:?}"
        );
        assert_eq!(m.active_locks(), 0);
        assert_eq!(m.stats(), (257, 1, 0));
    }
}
