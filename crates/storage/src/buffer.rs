//! Buffer pool: fixed set of frames, pinning, clock eviction.
//!
//! Design points (and their relation to the paper's setup):
//!
//! * **Latches are the frame `RwLock`s.** B+tree traversal latch-couples on
//!   them; the fine-grained single-threaded configurations bypass contention
//!   naturally because only one thread ever runs per instance.
//! * **Steal with a WAL barrier.** Evicting a dirty page first invokes the
//!   registered WAL barrier (which makes the whole log durable), upholding
//!   the write-ahead rule; if the barrier fails the page is not written and
//!   the fetch that needed the frame gets the barrier's error. Stolen pages
//!   may carry uncommitted data; recovery (see `wal::recovery`) therefore
//!   runs a logical undo pass using logged before-images. With no barrier
//!   registered the pool is strictly no-steal and fails with
//!   [`StorageError::BufferFull`] when every frame is dirty or pinned.
//! * **Clock eviction** with a reference bit; dirty victims are written back
//!   through the store on eviction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::lock_api::{ArcRwLockReadGuard, ArcRwLockWriteGuard};
use parking_lot::{Mutex, RawRwLock, RwLock};

use crate::error::{Result, StorageError};
use crate::page::{Page, PageId};
use crate::store::PageStore;

/// The write-ahead hook a dirty-page steal calls first.
pub type WalBarrier = Arc<dyn Fn() -> Result<()> + Send + Sync>;

/// Read guard bundling the pin with the latch.
pub type PageRead = ArcRwLockReadGuard<RawRwLock, Page>;
/// Write guard bundling the pin with the latch.
pub type PageWrite = ArcRwLockWriteGuard<RawRwLock, Page>;

struct Frame {
    page: Arc<RwLock<Page>>,
    pid: Mutex<Option<PageId>>,
    pin: AtomicU32,
    dirty: AtomicBool,
    referenced: AtomicBool,
}

/// Buffer pool statistics.
#[derive(Debug, Default)]
pub struct PoolStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub writebacks: AtomicU64,
}

/// The buffer pool.
pub struct BufferPool {
    frames: Vec<Frame>,
    /// page id -> frame index, plus the clock hand; one map lock (coarse but
    /// simple; frame latches do the heavy lifting).
    map: Mutex<PoolMap>,
    store: Arc<dyn PageStore>,
    /// Called before a dirty page is stolen; must make the WAL durable or
    /// say why it could not.
    wal_barrier: RwLock<Option<WalBarrier>>,
    pub stats: PoolStats,
}

struct PoolMap {
    table: HashMap<PageId, usize>,
    hand: usize,
}

/// A pinned page: keeps the frame resident; take `read()`/`write()` latches
/// through it. Unpins on drop.
pub struct PinnedPage {
    pool: Arc<BufferPool>,
    frame_idx: usize,
    pub pid: PageId,
}

impl PinnedPage {
    pub fn read(&self) -> PageRead {
        let f = &self.pool.frames[self.frame_idx];
        f.page.read_arc()
    }

    pub fn write(&self) -> PageWrite {
        let f = &self.pool.frames[self.frame_idx];
        f.page.write_arc()
    }

    /// Mark the page dirty (call while or after holding the write latch).
    pub fn mark_dirty(&self) {
        self.pool.frames[self.frame_idx]
            .dirty
            .store(true, Ordering::Release);
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        let f = &self.pool.frames[self.frame_idx];
        f.pin.fetch_sub(1, Ordering::AcqRel);
    }
}

impl BufferPool {
    pub fn new(store: Arc<dyn PageStore>, frames: usize) -> Arc<Self> {
        assert!(frames >= 2, "pool needs at least two frames");
        Arc::new(BufferPool {
            frames: (0..frames)
                .map(|_| Frame {
                    page: Arc::new(RwLock::new(Page::new())),
                    pid: Mutex::new(None),
                    pin: AtomicU32::new(0),
                    dirty: AtomicBool::new(false),
                    referenced: AtomicBool::new(false),
                })
                .collect(),
            map: Mutex::new(PoolMap {
                table: HashMap::new(),
                hand: 0,
            }),
            store,
            wal_barrier: RwLock::new(None),
            stats: PoolStats::default(),
        })
    }

    /// Register the WAL barrier enabling dirty-page steal (see module docs).
    pub fn set_wal_barrier(&self, f: WalBarrier) {
        *self.wal_barrier.write() = Some(f);
    }

    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    pub fn store(&self) -> &Arc<dyn PageStore> {
        &self.store
    }

    /// Fetch `pid`, reading it from the store on a miss.
    pub fn fetch(self: &Arc<Self>, pid: PageId) -> Result<PinnedPage> {
        let mut map = self.map.lock();
        if let Some(&idx) = map.table.get(&pid) {
            let f = &self.frames[idx];
            f.pin.fetch_add(1, Ordering::AcqRel);
            f.referenced.store(true, Ordering::Release);
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(PinnedPage {
                pool: Arc::clone(self),
                frame_idx: idx,
                pid,
            });
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let idx = self.take_victim(&mut map)?;
        // Load under the map lock: coarse, but guarantees no two threads
        // load the same page into different frames.
        {
            let f = &self.frames[idx];
            let mut page = f.page.write();
            self.store.read_page(pid, &mut page)?;
            *f.pid.lock() = Some(pid);
            f.pin.store(1, Ordering::Release);
            f.dirty.store(false, Ordering::Release);
            f.referenced.store(true, Ordering::Release);
        }
        map.table.insert(pid, idx);
        Ok(PinnedPage {
            pool: Arc::clone(self),
            frame_idx: idx,
            pid,
        })
    }

    /// Allocate a brand-new zeroed page and pin it.
    pub fn new_page(self: &Arc<Self>) -> Result<PinnedPage> {
        let pid = self.store.allocate()?;
        let mut map = self.map.lock();
        let idx = self.take_victim(&mut map)?;
        {
            let f = &self.frames[idx];
            let mut page = f.page.write();
            page.data.fill(0);
            *f.pid.lock() = Some(pid);
            f.pin.store(1, Ordering::Release);
            f.dirty.store(true, Ordering::Release);
            f.referenced.store(true, Ordering::Release);
        }
        map.table.insert(pid, idx);
        Ok(PinnedPage {
            pool: Arc::clone(self),
            frame_idx: idx,
            pid,
        })
    }

    /// Pick a free or evictable (clean, unpinned) frame; clock with one
    /// full sweep of second chances.
    fn take_victim(&self, map: &mut PoolMap) -> Result<usize> {
        let n = self.frames.len();
        for pass in 0..2 * n {
            let idx = map.hand;
            map.hand = (map.hand + 1) % n;
            let f = &self.frames[idx];
            if f.pin.load(Ordering::Acquire) != 0 {
                continue;
            }
            let occupied = f.pid.lock().is_some();
            if !occupied {
                return Ok(idx);
            }
            if f.referenced.swap(false, Ordering::AcqRel) && pass < n {
                continue; // second chance on the first sweep
            }
            if f.dirty.load(Ordering::Acquire) {
                // Steal requires the WAL barrier; without one, keep looking.
                let barrier = self.wal_barrier.read().clone();
                let Some(barrier) = barrier else { continue };
                barrier()?;
                let pid = f.pid.lock().expect("occupied above");
                let page = f.page.read();
                self.store.write_page(pid, &page)?;
                drop(page);
                f.dirty.store(false, Ordering::Release);
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            // Evict.
            let old = f.pid.lock().take().unwrap();
            map.table.remove(&old);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            return Ok(idx);
        }
        Err(StorageError::BufferFull)
    }

    /// Write all dirty pages back to the store and clear their dirty bits.
    /// Callers must ensure the WAL is durable first (checkpoint protocol).
    pub fn flush_all(&self) -> Result<()> {
        for f in &self.frames {
            if !f.dirty.load(Ordering::Acquire) {
                continue;
            }
            let pid = match *f.pid.lock() {
                Some(p) => p,
                None => continue,
            };
            let page = f.page.read();
            self.store.write_page(pid, &page)?;
            f.dirty.store(false, Ordering::Release);
            self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        self.store.sync()?;
        Ok(())
    }

    /// Number of dirty frames (diagnostics / tests).
    pub fn dirty_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.dirty.load(Ordering::Acquire))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn pool(frames: usize) -> Arc<BufferPool> {
        BufferPool::new(Arc::new(MemStore::new()), frames)
    }

    #[test]
    fn new_page_and_read_back() {
        let pool = pool(4);
        let pid;
        {
            let p = pool.new_page().unwrap();
            pid = p.pid;
            let mut w = p.write();
            w.init_slotted();
            w.insert_record(b"abc").unwrap();
            drop(w);
            p.mark_dirty();
        }
        let p = pool.fetch(pid).unwrap();
        let r = p.read();
        assert_eq!(r.get_record(0).unwrap(), b"abc");
    }

    #[test]
    fn hit_avoids_store_read() {
        let pool = pool(4);
        let p = pool.new_page().unwrap();
        let pid = p.pid;
        drop(p);
        let _a = pool.fetch(pid).unwrap();
        let _b = pool.fetch(pid).unwrap();
        assert_eq!(pool.stats.hits.load(Ordering::Relaxed), 2);
        assert_eq!(pool.stats.misses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn eviction_of_clean_pages_when_full() {
        let pool = pool(2);
        // Fill with two clean pages.
        let mut pids = Vec::new();
        for _ in 0..2 {
            let p = pool.new_page().unwrap();
            let mut w = p.write();
            w.init_slotted();
            drop(w);
            p.mark_dirty();
            pids.push(p.pid);
        }
        // Clean them; a third page then forces an eviction.
        pool.flush_all().unwrap();
        let p3 = pool.new_page().unwrap();
        drop(p3);
        assert!(pool.stats.evictions.load(Ordering::Relaxed) >= 1);
        // Originals still readable (from store).
        for pid in pids {
            let p = pool.fetch(pid).unwrap();
            let r = p.read();
            assert_eq!(r.page_type(), crate::page::PAGE_TYPE_SLOTTED);
        }
    }

    #[test]
    fn no_steal_dirty_pages_block_eviction() {
        let pool = pool(2);
        for _ in 0..2 {
            let p = pool.new_page().unwrap();
            p.mark_dirty();
            drop(p); // unpinned but dirty
        }
        assert!(matches!(pool.new_page(), Err(StorageError::BufferFull)));
        pool.flush_all().unwrap();
        assert!(pool.new_page().is_ok(), "clean pages evictable again");
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let pool = pool(2);
        let a = pool.new_page().unwrap(); // pinned
        let _b = pool.new_page().unwrap(); // pinned
        assert!(matches!(pool.new_page(), Err(StorageError::BufferFull)));
        drop(a);
        // 'a' is dirty; flush to allow eviction.
        pool.flush_all().unwrap();
        assert!(pool.new_page().is_ok());
    }

    #[test]
    fn concurrent_fetches_see_consistent_data() {
        let pool = pool(8);
        let p = pool.new_page().unwrap();
        let pid = p.pid;
        {
            let mut w = p.write();
            w.init_slotted();
            w.insert_record(&42u64.to_le_bytes()).unwrap();
            p.mark_dirty();
        }
        drop(p);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let p = pool.fetch(pid).unwrap();
                    let r = p.read();
                    let rec = r.get_record(0).unwrap();
                    assert_eq!(u64::from_le_bytes(rec.try_into().unwrap()), 42);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
