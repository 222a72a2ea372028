//! Blocking lock manager for native (real-thread) execution.
//!
//! Thin driver over the pure [`LockTable`]: `Wait` outcomes park the calling
//! thread on a per-transaction condition variable; releases wake the
//! transactions the table reports as newly granted. A configurable timeout
//! backstops wait-die (which already prevents true deadlocks) against lost
//! wakeups and runaway holders in tests.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{Result, StorageError};
use crate::lock::table::{Acquire, LockId, LockMode, LockTable};
use crate::TxnId;

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
    table: Mutex<LockTable>,
    cells: Mutex<HashMap<TxnId, Arc<WaitCell>>>,
    timeout: Duration,
    #[cfg(feature = "lockcheck")]
    order: crate::lockcheck::LockOrderCheck,
}

impl NativeLockManager {
    pub fn new(timeout: Duration) -> Self {
        NativeLockManager {
            table: Mutex::new(LockTable::new()),
            cells: Mutex::new(HashMap::new()),
            timeout,
            #[cfg(feature = "lockcheck")]
            order: crate::lockcheck::LockOrderCheck::default(),
        }
    }

    /// Acquire `id` in `mode`, blocking as needed.
    ///
    /// Errors: [`StorageError::Deadlock`] if wait-die kills the requester,
    /// [`StorageError::LockTimeout`] if the wait exceeds the timeout.
    pub fn lock(&self, txn: TxnId, id: LockId, mode: LockMode) -> Result<()> {
        let _span = islands_obs::enter(islands_obs::BreakdownCategory::Locking);
        #[cfg(feature = "lockcheck")]
        self.order.on_request(txn, id);
        let decision = {
            let mut t = self.table.lock();
            match t.acquire(txn, id, mode) {
                Acquire::Granted => Ok(None),
                Acquire::Die => Err(StorageError::Deadlock(txn)),
                // Register the wait cell before the table lock drops: the
                // release that grants this request can then only run
                // afterwards, and finds the cell. Registered any later, its
                // wakeup is lost and the waiter sleeps out the whole timeout
                // holding a lock it does not know it has.
                Acquire::Wait => {
                    let cell = Arc::new(WaitCell::default());
                    self.cells.lock().insert(txn, Arc::clone(&cell));
                    Ok(Some(cell))
                }
            }
        };
        let granted = match decision {
            Ok(None) => Ok(()),
            Ok(Some(cell)) => self.wait(txn, id, &cell),
            Err(e) => Err(e),
        };
        #[cfg(feature = "lockcheck")]
        if granted.is_ok() {
            self.order.on_granted(txn, id);
        }
        granted
    }

    fn wait(&self, txn: TxnId, id: LockId, cell: &WaitCell) -> Result<()> {
        let mut st = cell.state.lock();
        while *st == WaitState::Waiting {
            if self.cv_wait(cell, &mut st) {
                continue; // woken (or spurious); loop re-checks
            }
            // Timed out: resolve the race against a concurrent grant under
            // the table lock.
            drop(st);
            let mut t = self.table.lock();
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

    /// Release everything `txn` holds and wake newly granted waiters.
    pub fn unlock_all(&self, txn: TxnId) {
        let _span = islands_obs::enter(islands_obs::BreakdownCategory::Locking);
        #[cfg(feature = "lockcheck")]
        self.order.on_release_all(txn);
        let woken = {
            let mut t = self.table.lock();
            t.release_all(txn)
        };
        self.wake(&woken);
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
        self.table.lock().holds(txn, id, mode)
    }

    /// `(acquires, waits, deadlock-kills)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        let t = self.table.lock();
        (t.acquires, t.waits, t.dies)
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
                            Ok(()) => break,
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
}
