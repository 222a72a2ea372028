//! Buffer pool: fixed set of frames, pinning, clock eviction.
//!
//! Design points (and their relation to the paper's setup):
//!
//! * **Latches are the frame `RwLock`s.** B+tree traversal latch-couples on
//!   them; the fine-grained single-threaded configurations bypass contention
//!   naturally because only one thread ever runs per instance.
//! * **Pins and latches borrow the pool.** A [`PinnedPage`] is a reference
//!   to its frame plus a pin count; the latches it hands out are the frame
//!   lock's own guards.
//! * **A hit writes only its own frame's line.** The page map is a
//!   lock-free page id → frame array: a hit loads the entry, pins the frame
//!   by CAS and re-checks that the frame still holds the page — no shard
//!   lock, no line another page's hit writes. The CAS never pins a frame the
//!   victim search has *claimed* (pin `CLAIMED`), and a frame's page
//!   changes only while it is claimed, so a pin that took holds its page
//!   still. A hit that loses either race takes the locked path.
//! * **Misses go through the page's shard lock**, each shard owning its own
//!   frames and clock hand. Claiming a victim, the 8 KB copy, a dirty
//!   steal's WAL barrier and the map writes all run under it: no page can be
//!   loaded into two frames, and a miss stalls only misses on that shard's
//!   pages.
//! * **Steal with a WAL barrier.** Evicting a dirty page first invokes the
//!   registered WAL barrier (which makes the whole log durable), upholding
//!   the write-ahead rule; if the barrier fails the page is not written and
//!   the fetch that needed the frame gets the barrier's error. Stolen pages
//!   may carry uncommitted data; recovery (see `wal::recovery`) therefore
//!   runs a logical undo pass using logged before-images. With no barrier
//!   registered the pool is strictly no-steal and fails with
//!   [`StorageError::BufferFull`] when every frame of the page's shard is
//!   dirty or pinned.
//! * **Clock eviction** with a reference bit, per shard; dirty victims are
//!   written back through the store on eviction.
//! * **A frame gets its 8 KB when a page first lands in it.** Creating the
//!   pool allocates no page memory; a pool sized for the largest partition
//!   costs a small one only the frames its pages fill. The victim search and
//!   [`BufferPool::flush_all`] never touch the memory of a frame that has
//!   never held a page.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::{Result, StorageError};
use crate::page::{Page, PageId};
use crate::store::PageStore;

/// The write-ahead hook a dirty-page steal calls first.
pub type WalBarrier = Arc<dyn Fn() -> Result<()> + Send + Sync>;

/// Read latch on a pinned page.
pub type PageRead<'a> = RwLockReadGuard<'a, Page>;
/// Write latch on a pinned page.
pub type PageWrite<'a> = RwLockWriteGuard<'a, Page>;

/// Most shards a pool is cut into.
const MAX_SHARDS: usize = 16;
/// Fewest frames a shard may own: a B+tree split pins a handful of pages at
/// once and they may all hash to one shard. Small (test) pools are one shard.
const MIN_SHARD_FRAMES: usize = 64;

/// The pin count of a frame the victim search owns: nothing pins it, and
/// only its claimant changes which page it holds.
const CLAIMED: u32 = u32::MAX;

/// Page ids one chunk of the page map covers (32 KB of entries).
const MAP_CHUNK: u64 = 1 << 13;
/// Chunks the page map may grow to: its reach is 2^25 pages, 256 GB.
const MAP_CHUNKS: u64 = 1 << 12;

/// A frame on cache lines of its own: neighbouring frames hold unrelated
/// pages, and one page's pin traffic is no business of the next one's.
#[repr(align(64))]
struct Frame {
    /// Set by the first install into the frame, and kept.
    page: OnceLock<RwLock<Page>>,
    /// The resident page, [`PageId::INVALID`] while free. Changed only while
    /// the frame is [`CLAIMED`], so a pin holder reads a settled value.
    pid: AtomicU64,
    /// Pins held, or [`CLAIMED`].
    pin: AtomicU32,
    dirty: AtomicBool,
    referenced: AtomicBool,
    /// Fetches answered from this frame, counted on the line the pin has
    /// just written: a pool-wide counter would be one more line every fetch
    /// on every thread writes.
    hits: AtomicU64,
}

impl Frame {
    /// The frame's page latch. Only a frame that holds (or held) a page is
    /// pinned, latched or written back, and its install gave it memory.
    fn page(&self) -> &RwLock<Page> {
        self.page
            .get()
            .expect("a frame that held a page has memory")
    }

    /// Pin the frame unless the victim search has claimed it. `Acquire`
    /// pairs with the `Release` that ended the last claim (`install`'s
    /// `pin = 1` or [`unclaim`](Self::unclaim)), so the `pid` read after a
    /// pin is the one that claim left.
    fn try_pin(&self) -> bool {
        let mut pins = self.pin.load(Ordering::Relaxed);
        while pins != CLAIMED {
            match self.pin.compare_exchange_weak(
                pins,
                pins + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => pins = now,
            }
        }
        false
    }

    /// Take an unpinned frame for the victim search (under its shard lock).
    /// `Acquire` pairs with the `Release` of the last unpin.
    fn claim(&self) -> bool {
        self.pin
            .compare_exchange(0, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Give a claimed frame back, unpinned and as it is.
    fn unclaim(&self) {
        self.pin.store(0, Ordering::Release);
    }
}

/// page id → frame, read with one atomic load and no lock.
///
/// An entry is `frame + 1`, `0` while the page is not resident. Chunks are
/// allocated by the first install into their range and kept. An entry is
/// written only by `install` and eviction, under the lock of its page's
/// shard; a lock-free reader treats what it loads as a hint and re-checks
/// the frame after pinning it.
struct PageMap {
    chunks: Box<[OnceLock<Box<[AtomicU32]>>]>,
}

impl PageMap {
    fn new() -> PageMap {
        PageMap {
            chunks: (0..MAP_CHUNKS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `(chunk, slot)` of `pid`'s entry; a page beyond the map's reach is a
    /// typed error.
    fn locate(pid: PageId) -> Result<(usize, usize)> {
        let chunk = pid.0 / MAP_CHUNK;
        if chunk >= MAP_CHUNKS {
            return Err(StorageError::NoSuchPage(pid.0));
        }
        Ok((chunk as usize, (pid.0 % MAP_CHUNK) as usize))
    }

    /// The frame `pid` was in when the entry was read.
    fn get(&self, pid: PageId) -> Result<Option<usize>> {
        let (chunk, slot) = Self::locate(pid)?;
        Ok(self.chunks[chunk]
            .get()
            .and_then(|c| c[slot].load(Ordering::Acquire).checked_sub(1))
            .map(|f| f as usize))
    }

    /// `pid`'s entry, its chunk allocated if need be.
    fn entry(&self, pid: PageId) -> Result<&AtomicU32> {
        let (chunk, slot) = Self::locate(pid)?;
        let c =
            self.chunks[chunk].get_or_init(|| (0..MAP_CHUNK).map(|_| AtomicU32::new(0)).collect());
        Ok(&c[slot])
    }
}

/// Buffer pool statistics (hits are counted per frame: see
/// [`BufferPool::hits`]).
#[derive(Debug, Default)]
pub struct PoolStats {
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub writebacks: AtomicU64,
}

/// The buffer pool.
pub struct BufferPool {
    frames: Vec<Frame>,
    map: PageMap,
    /// A power of two of them; a page lives in `shard_of(pid)` only.
    shards: Vec<Shard>,
    store: Arc<dyn PageStore>,
    /// Called before a dirty page is stolen; must make the WAL durable or
    /// say why it could not.
    wal_barrier: RwLock<Option<WalBarrier>>,
    pub stats: PoolStats,
}

/// The frames one shard alone fills and evicts.
#[repr(align(64))]
struct Shard {
    /// The frames `first..first + len` of the pool belong to this shard.
    first: usize,
    len: usize,
    /// The clock hand, relative to `first`. Holding it is what serializes
    /// the shard's claims, installs, evictions and page-map writes.
    hand: Mutex<usize>,
}

/// A pinned page: keeps the frame resident; take `read()`/`write()` latches
/// through it. Unpins on drop — drop the latch first.
pub struct PinnedPage<'a> {
    frame: &'a Frame,
    pub pid: PageId,
}

impl<'a> PinnedPage<'a> {
    pub fn read(&self) -> PageRead<'a> {
        self.frame.page().read()
    }

    pub fn write(&self) -> PageWrite<'a> {
        self.frame.page().write()
    }

    /// Mark the page dirty (call while or after holding the write latch).
    pub fn mark_dirty(&self) {
        set_if_clear(&self.frame.dirty);
    }
}

impl Drop for PinnedPage<'_> {
    fn drop(&mut self) {
        // Pairs with `claim`'s `Acquire`: whoever claims the frame next sees
        // everything done under this pin.
        self.frame.pin.fetch_sub(1, Ordering::Release);
    }
}

/// Raise a flag that is usually up already without dirtying its cache line.
fn set_if_clear(flag: &AtomicBool) {
    if !flag.load(Ordering::Acquire) {
        flag.store(true, Ordering::Release);
    }
}

impl BufferPool {
    pub fn new(store: Arc<dyn PageStore>, frames: usize) -> Arc<Self> {
        assert!(frames >= 2, "pool needs at least two frames");
        assert!(
            frames < CLAIMED as usize,
            "a page-map entry names the frame"
        );
        let mut shards = 1;
        while shards < MAX_SHARDS && frames / (shards * 2) >= MIN_SHARD_FRAMES {
            shards *= 2;
        }
        Arc::new(BufferPool {
            frames: (0..frames)
                .map(|_| Frame {
                    page: OnceLock::new(),
                    pid: AtomicU64::new(PageId::INVALID.0),
                    pin: AtomicU32::new(0),
                    dirty: AtomicBool::new(false),
                    referenced: AtomicBool::new(false),
                    hits: AtomicU64::new(0),
                })
                .collect(),
            map: PageMap::new(),
            shards: (0..shards)
                .map(|s| {
                    let first = s * frames / shards;
                    Shard {
                        first,
                        len: (s + 1) * frames / shards - first,
                        hand: Mutex::new(0),
                    }
                })
                .collect(),
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

    /// Frames that have been given page memory: at most one per page ever
    /// installed, and never more than the capacity.
    pub fn frames_with_memory(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.page.get().is_some())
            .count()
    }

    /// Fetches answered from a resident frame.
    pub fn hits(&self) -> u64 {
        self.frames
            .iter()
            .map(|f| f.hits.load(Ordering::Relaxed))
            .sum()
    }

    fn shard_of(&self, pid: PageId) -> &Shard {
        // Fibonacci hashing: consecutive page ids (a table's heap and index
        // pages interleave as it loads) spread evenly over the shards.
        let h = pid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[h as usize & (self.shards.len() - 1)]
    }

    /// Fetch `pid`, reading it from the store on a miss.
    pub fn fetch(&self, pid: PageId) -> Result<PinnedPage<'_>> {
        if let Some(idx) = self.map.get(pid)? {
            if let Some(hit) = self.pin_if_holds(idx, pid) {
                return Ok(hit);
            }
        }
        self.fetch_locked(pid)
    }

    /// The lock-free hit: pin frame `idx` if it still holds `pid` — it may
    /// have been claimed, or reused for another page, since the map said so.
    fn pin_if_holds(&self, idx: usize, pid: PageId) -> Option<PinnedPage<'_>> {
        let frame = &self.frames[idx];
        if !frame.try_pin() {
            return None;
        }
        let pinned = PinnedPage { frame, pid };
        if frame.pid.load(Ordering::Acquire) != pid.0 {
            return None; // unpinned by the drop
        }
        Some(Self::hit(pinned))
    }

    fn hit(pinned: PinnedPage<'_>) -> PinnedPage<'_> {
        set_if_clear(&pinned.frame.referenced);
        pinned.frame.hits.fetch_add(1, Ordering::Relaxed);
        pinned
    }

    /// The fetch under `pid`'s shard lock: a hit the lock-free path lost to
    /// a victim search, or a miss.
    fn fetch_locked(&self, pid: PageId) -> Result<PinnedPage<'_>> {
        let shard = self.shard_of(pid);
        let mut hand = shard.hand.lock();
        if let Some(idx) = self.map.get(pid)? {
            // Under the shard lock the map is exact and none of the shard's
            // frames is claimed: pin outright.
            let frame = &self.frames[idx];
            let pins = frame.pin.fetch_add(1, Ordering::Acquire);
            debug_assert!(pins != CLAIMED && frame.pid.load(Ordering::Acquire) == pid.0);
            return Ok(Self::hit(PinnedPage { frame, pid }));
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        self.install(shard, &mut hand, pid, |page| {
            self.store.read_page(pid, page)
        })
    }

    /// Allocate a brand-new zeroed page and pin it.
    pub fn new_page(&self) -> Result<PinnedPage<'_>> {
        let pid = self.store.allocate()?;
        let shard = self.shard_of(pid);
        let pinned = self.install(shard, &mut shard.hand.lock(), pid, |page| {
            page.data.fill(0);
            Ok(())
        })?;
        pinned.mark_dirty();
        Ok(pinned)
    }

    /// Claim a frame of `shard` for `pid`, fill it, map it and pin it once.
    /// A failed fill leaves the frame free and unpinned.
    fn install(
        &self,
        shard: &Shard,
        hand: &mut usize,
        pid: PageId,
        fill: impl FnOnce(&mut Page) -> Result<()>,
    ) -> Result<PinnedPage<'_>> {
        let entry = self.map.entry(pid)?;
        let idx = self.take_victim(shard, hand)?;
        let frame = &self.frames[idx];
        {
            let latch = frame.page.get_or_init(|| RwLock::new(Page::new()));
            let mut page = latch.write();
            if let Err(e) = fill(&mut page) {
                drop(page);
                frame.unclaim();
                return Err(e);
            }
            frame.pid.store(pid.0, Ordering::Release);
        }
        frame.referenced.store(true, Ordering::Release);
        entry.store(idx as u32 + 1, Ordering::Release);
        frame.pin.store(1, Ordering::Release);
        Ok(PinnedPage { frame, pid })
    }

    /// Claim a free or evictable (clean, unpinned) frame of `shard`, leaving
    /// it free and [`CLAIMED`]; clock with one full sweep of second chances.
    /// Every frame the search lets go of is unpinned again.
    fn take_victim(&self, shard: &Shard, hand: &mut usize) -> Result<usize> {
        let n = shard.len;
        for pass in 0..2 * n {
            let idx = shard.first + *hand;
            *hand = (*hand + 1) % n;
            let f = &self.frames[idx];
            if f.pin.load(Ordering::Relaxed) != 0 || !f.claim() {
                continue;
            }
            let resident = PageId(f.pid.load(Ordering::Acquire));
            if !resident.is_valid() {
                return Ok(idx);
            }
            if f.referenced.swap(false, Ordering::AcqRel) && pass < n {
                f.unclaim(); // second chance on the first sweep
                continue;
            }
            if f.dirty.load(Ordering::Acquire) {
                // Steal requires the WAL barrier; without one, keep looking.
                let barrier = self.wal_barrier.read().clone();
                let Some(barrier) = barrier else {
                    f.unclaim();
                    continue;
                };
                let written =
                    barrier().and_then(|()| self.store.write_page(resident, &f.page().read()));
                if let Err(e) = written {
                    f.unclaim();
                    return Err(e);
                }
                f.dirty.store(false, Ordering::Release);
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            // Evict.
            self.map.entry(resident)?.store(0, Ordering::Release);
            f.pid.store(PageId::INVALID.0, Ordering::Release);
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
            // No shard lock: a writer may hold this latch while it fetches
            // another page of the same shard. The latch alone pins down
            // which page the frame holds. A dirty frame has held a page.
            let page = f.page().read();
            let pid = PageId(f.pid.load(Ordering::Acquire));
            if !pid.is_valid() || !f.dirty.load(Ordering::Acquire) {
                continue;
            }
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
        assert_eq!(pool.hits(), 2);
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

    /// A WAL-less pool that may steal dirty frames.
    fn stealing_pool(frames: usize) -> Arc<BufferPool> {
        let pool = pool(frames);
        pool.set_wal_barrier(Arc::new(|| Ok(())));
        pool
    }

    /// Every resident page sits in exactly one frame and the page map names
    /// it; no map entry names a frame that holds another page.
    fn assert_one_frame_per_page(pool: &BufferPool) {
        let mut seen = std::collections::HashSet::new();
        for (idx, f) in pool.frames.iter().enumerate() {
            let pid = PageId(f.pid.load(Ordering::Acquire));
            if pid.is_valid() {
                assert!(seen.insert(pid), "{pid:?} is resident twice");
                assert_eq!(pool.map.get(pid).unwrap(), Some(idx), "{pid:?} unmapped");
            }
        }
        for (c, chunk) in pool.map.chunks.iter().enumerate() {
            let entries = chunk.get().map_or(&[][..], |c| &c[..]);
            for (slot, entry) in entries.iter().enumerate() {
                if let Some(idx) = entry.load(Ordering::Acquire).checked_sub(1) {
                    let pid = c as u64 * MAP_CHUNK + slot as u64;
                    let held = pool.frames[idx as usize].pid.load(Ordering::Acquire);
                    assert_eq!(held, pid, "page {pid} maps to a frame that moved on");
                }
            }
        }
    }

    /// `pid`'s frame, which the page map names.
    fn frame_of(pool: &BufferPool, pid: PageId) -> usize {
        pool.map.get(pid).unwrap().expect("resident")
    }

    /// A new page carrying `n` at offset 16, written back and unpinned.
    fn clean_page(pool: &BufferPool, n: u64) -> PageId {
        let p = pool.new_page().unwrap();
        p.write().write_u64(16, n);
        let pid = p.pid;
        drop(p);
        pool.flush_all().unwrap();
        pid
    }

    #[test]
    fn a_hit_on_a_claimed_or_reused_frame_takes_the_locked_path() {
        let pool = pool(2); // one shard, no steal
        let (p, q) = (clean_page(&pool, 1), clean_page(&pool, 2));
        let stale = frame_of(&pool, p);
        let q_pin = pool.fetch(q).unwrap();

        // The victim search claims p's frame (q's is pinned) and evicts p.
        let shard = pool.shard_of(p);
        let mut hand = shard.hand.lock();
        assert_eq!(pool.take_victim(shard, &mut hand).unwrap(), stale);
        let frame = &pool.frames[stale];
        assert_eq!(frame.pin.load(Ordering::Acquire), CLAIMED);
        // A hit that read the map before the claim gets nothing, and leaves
        // the claim as it was.
        assert!(pool.pin_if_holds(stale, p).is_none());
        assert_eq!(frame.pin.load(Ordering::Acquire), CLAIMED);
        frame.unclaim(); // as a failed fill would
        drop(hand);
        // The locked path reads p back, into the one free frame.
        assert_eq!(pool.fetch_locked(p).unwrap().read().read_u64(16), 1);
        assert_eq!(frame_of(&pool, p), stale);

        // Now p is evicted again and its frame reused for a new page.
        let r = pool.new_page().unwrap();
        assert_eq!(frame_of(&pool, r.pid), stale);
        assert!(pool.pin_if_holds(stale, p).is_none(), "pinned another page");
        assert_eq!(frame.pin.load(Ordering::Acquire), 1, "r's pin alone");
        drop((r, q_pin));
        // r is dirty, so p comes back into q's frame.
        let misses = pool.stats.misses.load(Ordering::Relaxed);
        assert_eq!(pool.fetch(p).unwrap().read().read_u64(16), 1);
        assert_eq!(pool.stats.misses.load(Ordering::Relaxed), misses + 1);
        assert_one_frame_per_page(&pool);
    }

    #[test]
    fn a_failed_fill_leaves_the_frame_free_and_unpinned() {
        let pool = pool(2);
        let p = clean_page(&pool, 7);
        let missing = PageId(pool.store.num_pages() + 10);
        assert!(matches!(
            pool.fetch(missing),
            Err(StorageError::NoSuchPage(_))
        ));
        assert_eq!(pool.map.get(missing).unwrap(), None);
        for f in &pool.frames {
            assert_eq!(f.pin.load(Ordering::Acquire), 0);
        }
        assert_one_frame_per_page(&pool);
        // Both frames still serve: p, and one more page pinned beside it.
        let a = pool.fetch(p).unwrap();
        let b = pool.new_page().unwrap();
        assert_eq!(a.read().read_u64(16), 7);
        drop((a, b));
        assert_one_frame_per_page(&pool);
    }

    #[test]
    fn a_page_beyond_the_map_is_a_typed_error() {
        let pool = pool(2);
        let far = PageId(MAP_CHUNK * MAP_CHUNKS);
        assert!(matches!(pool.fetch(far), Err(StorageError::NoSuchPage(_))));
        assert!(matches!(
            pool.fetch(PageId(u64::MAX)),
            Err(StorageError::NoSuchPage(_))
        ));
        assert_eq!(pool.stats.misses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_fetch_dirty_evict_keeps_pages_whole() {
        const FRAMES: usize = 256; // four shards
        const PAGES: u64 = 4 * FRAMES as u64;
        const THREADS: u64 = 4;
        let pool = stealing_pool(FRAMES);
        assert_eq!(pool.shards.len(), 4);
        // Each page carries its own number and a write counter.
        let pids: Vec<PageId> = (0..PAGES)
            .map(|n| {
                let p = pool.new_page().unwrap();
                p.write().write_u64(16, n);
                p.pid
            })
            .collect();
        // Thread t alone writes pages n = t (mod THREADS) and reads any.
        let written: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (pool, pids) = (&pool, &pids);
                    s.spawn(move || {
                        let mut mine = vec![0u64; (PAGES / THREADS) as usize];
                        let mut x = 0x9E37_79B9u64 + t;
                        for _ in 0..20_000 {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let slot = (x >> 33) % (PAGES / THREADS);
                            let n = slot * THREADS + t;
                            {
                                let pin = pool.fetch(pids[n as usize]).expect("never BufferFull");
                                let mut w = pin.write();
                                assert_eq!(w.read_u64(16), n, "wrong page in the frame");
                                assert_eq!(w.read_u64(24), mine[slot as usize], "lost a write");
                                w.write_u64(24, mine[slot as usize] + 1);
                                drop(w);
                                pin.mark_dirty();
                                mine[slot as usize] += 1;
                            }
                            let other = (x >> 13) % PAGES;
                            let pin = pool.fetch(pids[other as usize]).expect("never BufferFull");
                            assert_eq!(pin.read().read_u64(16), other, "wrong page in the frame");
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            pool.stats.evictions.load(Ordering::Relaxed) > PAGES,
            "pool too roomy"
        );
        assert!(
            pool.stats.writebacks.load(Ordering::Relaxed) > 0,
            "nothing was stolen"
        );
        assert_one_frame_per_page(&pool);
        // Every write survived its evictions.
        for (t, mine) in written.iter().enumerate() {
            for (slot, &count) in mine.iter().enumerate() {
                let n = slot * THREADS as usize + t;
                assert_eq!(pool.fetch(pids[n]).unwrap().read().read_u64(24), count);
            }
        }
        assert_eq!(
            pool.hits() + pool.stats.misses.load(Ordering::Relaxed),
            2 * THREADS * 20_000 + PAGES,
            "every fetch is a hit or a miss"
        );
    }

    #[test]
    fn only_frames_a_page_landed_in_hold_memory() {
        let pool = stealing_pool(4096); // sixteen shards of 256
        let with_memory =
            |frames: &[Frame]| frames.iter().filter(|f| f.page.get().is_some()).count();
        assert_eq!(pool.frames_with_memory(), 0, "creation allocates no page");
        // Touch k pages: k frames get memory, and flushing them all gives
        // the other 4096 - k frames none.
        let k = 100;
        let touched: Vec<PageId> = (0..k).map(|n| clean_page(&pool, n)).collect();
        assert_eq!(pool.frames_with_memory(), k as usize);
        pool.flush_all().unwrap();
        assert_eq!(pool.frames_with_memory(), k as usize);

        // Fill one shard well past its frames with pages from the store:
        // clean evictions, then dirty ones (steals). Only that shard's
        // frames gain memory, each once.
        let shard = pool.shard_of(touched[0]);
        let frames = &pool.frames[shard.first..shard.first + shard.len];
        let others = with_memory(&pool.frames) - with_memory(frames);
        let mut page = Page::new();
        let mut mine = Vec::new();
        while mine.len() < 3 * shard.len {
            let pid = pool.store.allocate().unwrap();
            if std::ptr::eq(pool.shard_of(pid), shard) {
                page.write_u64(16, pid.0);
                pool.store.write_page(pid, &page).unwrap();
                mine.push(pid);
            }
        }
        for (i, &pid) in mine.iter().enumerate() {
            let pin = pool.fetch(pid).unwrap();
            assert_eq!(pin.read().read_u64(16), pid.0);
            if i >= shard.len {
                pin.mark_dirty();
            }
        }
        let stats = &pool.stats;
        assert!(stats.evictions.load(Ordering::Relaxed) >= 2 * shard.len as u64);
        assert!(
            stats.writebacks.load(Ordering::Relaxed) > 0,
            "nothing was stolen"
        );
        pool.flush_all().unwrap();
        assert_eq!(
            with_memory(frames),
            shard.len,
            "the shard's frames, once each"
        );
        assert_eq!(with_memory(&pool.frames) - shard.len, others);
        assert!(pool.frames_with_memory() < k as usize + shard.len);
        assert_one_frame_per_page(&pool);
    }

    #[test]
    fn buffer_full_means_every_frame_of_the_shard_is_pinned() {
        let pool = stealing_pool(128); // two shards of 64
        assert_eq!(pool.shards.len(), 2);
        let all_pinned = |s: &Shard| {
            (s.first..s.first + s.len).all(|i| pool.frames[i].pin.load(Ordering::Acquire) > 0)
        };
        // The page `new_page` allocated last, served or refused.
        let last = || PageId(pool.store.num_pages() - 1);
        // Pin pages until one is refused: its shard has nothing left to give.
        let mut pins = Vec::new();
        let full = loop {
            match pool.new_page() {
                Ok(p) => pins.push(p),
                Err(StorageError::BufferFull) => break pool.shard_of(last()),
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert!(all_pinned(full), "refused with an unpinned frame to give");
        // One unpin there and that shard serves again — whatever the other
        // shard, which may be just as full, says about its own pages.
        let in_full = |p: &PinnedPage<'_>| std::ptr::eq(pool.shard_of(p.pid), full);
        pins.swap_remove(pins.iter().position(in_full).unwrap());
        loop {
            match pool.new_page() {
                Ok(p) if in_full(&p) => break,
                Ok(_) => {}
                Err(StorageError::BufferFull) => {
                    let refusing = pool.shard_of(last());
                    assert!(!std::ptr::eq(refusing, full) && all_pinned(refusing));
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_one_frame_per_page(&pool);
    }
}
