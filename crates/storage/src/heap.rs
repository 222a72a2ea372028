//! Heap files: unordered collections of records addressed by RID.
//!
//! Pages are chained through the slotted-page `next_page` field so the file
//! can be rediscovered from its head page at recovery time. Inserts go to
//! the current tail page ("append" placement, like the paper's sequentially
//! loaded microbenchmark tables); updates are in place.
//!
//! A single record ([`insert`](HeapFile::insert)) goes in through the
//! pool: the tail page, or a fresh pool page chained behind it. A bulk
//! load's worth ([`append`](HeapFile::append)) fills the tail's room
//! through its frame and writes every further page straight to the page
//! store, so a load larger than the pool neither fills nor evicts it;
//! those pages are built by as many workers as the load is worth and the
//! calling thread may run on, each on its own contiguous run of page ids.
//! A record no empty page can hold is refused before a page is allocated
//! for it.

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{records_per_page, Page, PageId, Rid, MAX_RECORD};

/// Fresh pages a load worker is given at the least: a thread costs tens of
/// microseconds to start, a page a few to build.
const MIN_WORKER_PAGES: u64 = 256;

/// The cpus this thread may run on (its affinity mask, or its cgroup's
/// quota if smaller): a load spreads its fresh pages over at most this
/// many workers.
pub fn load_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Workers for a load of `pages` fresh pages: one per `MIN_WORKER_PAGES`,
/// up to [`load_workers`], which is not asked when one worker is all a
/// load can have.
pub(crate) fn worker_count(pages: u64) -> usize {
    match pages / MIN_WORKER_PAGES {
        0 | 1 => 1,
        most => load_workers().min(most as usize),
    }
}

/// A heap file over a buffer pool.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    state: Mutex<HeapState>,
}

struct HeapState {
    head: PageId,
    tail: PageId,
    pages: u64,
    records: u64,
}

impl HeapFile {
    /// Create a heap file with one empty page.
    pub fn create(pool: Arc<BufferPool>) -> Result<HeapFile> {
        let pid = {
            let first = pool.new_page()?;
            first.write().init_slotted();
            first.pid
        };
        Ok(HeapFile {
            pool,
            state: Mutex::new(HeapState {
                head: pid,
                tail: pid,
                pages: 1,
                records: 0,
            }),
        })
    }

    /// Re-attach to an existing chain starting at `head` (recovery path).
    pub fn open(pool: Arc<BufferPool>, head: PageId) -> Result<HeapFile> {
        let mut tail = head;
        let mut pages = 0u64;
        let mut records = 0u64;
        let mut cur = head;
        while cur.is_valid() {
            let pin = pool.fetch(cur)?;
            let g = pin.read();
            pages += 1;
            for s in 0..g.slot_count() {
                if g.slot_live(s) {
                    records += 1;
                }
            }
            tail = cur;
            cur = g.next_page();
        }
        Ok(HeapFile {
            pool,
            state: Mutex::new(HeapState {
                head,
                tail,
                pages,
                records,
            }),
        })
    }

    pub fn head(&self) -> PageId {
        self.state.lock().head
    }

    pub fn page_count(&self) -> u64 {
        self.state.lock().pages
    }

    pub fn record_count(&self) -> u64 {
        self.state.lock().records
    }

    /// Append a record through the pool: into the tail page, or a fresh
    /// page chained behind it when the tail is full.
    pub fn insert(&self, rec: &[u8]) -> Result<Rid> {
        if rec.len() > MAX_RECORD {
            // Refused before a page is allocated for it.
            return Err(StorageError::RecordTooLarge(rec.len()));
        }
        let mut st = self.state.lock();
        let mut pin = self.pool.fetch(st.tail)?;
        let mut page = pin.write();
        if !page.has_room(rec.len()) {
            let next = self.pool.new_page()?;
            page.set_next_page(next.pid);
            drop(page);
            pin.mark_dirty();
            pin = next;
            page = pin.write();
            page.init_slotted();
            st.tail = pin.pid;
            st.pages += 1;
        }
        let slot = page.insert_record(rec).expect("room was checked");
        drop(page);
        pin.mark_dirty();
        st.records += 1;
        Ok(Rid {
            page: st.tail,
            slot,
        })
    }

    /// Append `count` records of `len` bytes, in order, each written in
    /// place by a writer `part` hands out. `part` is called on this thread
    /// once per run of consecutive records, with the run's ordinals and in
    /// order; its writer is then called once per record of that run, in
    /// order, with the record's RID and its bytes.
    ///
    /// The tail page's room is filled first, through its frame, on this
    /// thread. The fresh pages after it get contiguous ids from one
    /// [`allocate_run`](crate::store::PageStore::allocate_run), so where a
    /// record lands is a function of its ordinal alone, and they are split
    /// into contiguous ranges, one per worker: up to one per cpu this
    /// thread may run on ([`load_workers`]), each given at least
    /// `MIN_WORKER_PAGES`.
    /// A worker builds its pages in its own page buffer and writes each
    /// straight to the store, chained to the next id; the first worker is
    /// this thread, so a one-worker load spawns nothing. No fresh page
    /// takes a pool frame; the pool reads them in on first use. The tail
    /// stays write-latched until every range is in the store and only then
    /// links to the first fresh page, so no scan follows the chain into a
    /// page not yet written.
    pub fn append<W>(
        &self,
        len: usize,
        count: usize,
        part: impl FnMut(Range<usize>) -> W,
    ) -> Result<()>
    where
        W: FnMut(Rid, &mut [u8]) + Send,
    {
        self.append_with(worker_count, len, count, part)
    }

    /// [`append`](Self::append) over `workers(fresh pages)` workers (at
    /// most one per fresh page).
    pub(crate) fn append_with<W>(
        &self,
        workers: impl FnOnce(u64) -> usize,
        len: usize,
        count: usize,
        mut part: impl FnMut(Range<usize>) -> W,
    ) -> Result<()>
    where
        W: FnMut(Rid, &mut [u8]) + Send,
    {
        if len > MAX_RECORD {
            // Refused before a page is allocated for it.
            return Err(StorageError::RecordTooLarge(len));
        }
        if count == 0 {
            return Ok(());
        }
        let mut st = self.state.lock();
        let tail = self.pool.fetch(st.tail)?;
        let mut tail_page = tail.write();
        let (page, in_tail) = (tail.pid, tail_page.room_for(len).min(count));
        let mut write = part(0..in_tail);
        for _ in 0..in_tail {
            let (slot, space) = tail_page.reserve_record(len).expect("room was counted");
            write(Rid { page, slot }, space);
        }
        tail.mark_dirty();
        let fresh = count - in_tail;
        if fresh > 0 {
            let per_page = records_per_page(len);
            let pages = fresh.div_ceil(per_page);
            let store = self.pool.store();
            let first = store.allocate_run(pages as u64)?;
            // Fresh page `p` (0-based) holds the records `in_tail +
            // p * per_page ..`; worker `w` builds pages `w * pages / n ..`.
            let n = workers(pages as u64).clamp(1, pages);
            let mut ranges = (0..n).map(|w| {
                let span = w * pages / n..(w + 1) * pages / n;
                let records =
                    in_tail + span.start * per_page..(in_tail + span.end * per_page).min(count);
                (span, part(records))
            });
            let build = |(span, mut write): (Range<usize>, W)| -> Result<()> {
                let mut page = Page::new();
                for p in span {
                    let pid = PageId(first.0 + p as u64);
                    page.init_slotted();
                    for _ in 0..per_page.min(fresh - p * per_page) {
                        let (slot, space) =
                            page.reserve_record(len).expect("an empty page holds it");
                        write(Rid { page: pid, slot }, space);
                    }
                    if p + 1 < pages {
                        page.set_next_page(PageId(pid.0 + 1));
                    }
                    store.write_page(pid, &page)?;
                }
                Ok(())
            };
            std::thread::scope(|scope| {
                let (build, mine) = (&build, ranges.next().expect("one worker at least"));
                let others: Vec<_> = ranges.map(|r| scope.spawn(move || build(r))).collect();
                let mut built = build(mine);
                for worker in others {
                    let theirs = worker
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p));
                    built = built.and(theirs);
                }
                built
            })?;
            tail_page.set_next_page(first);
            st.tail = PageId(first.0 + pages as u64 - 1);
            st.pages += pages as u64;
        }
        st.records += count as u64;
        Ok(())
    }

    /// Read the record at `rid` into a fresh vector.
    pub fn read(&self, rid: Rid) -> Result<Vec<u8>> {
        let pin = self.pool.fetch(rid.page)?;
        let g = pin.read();
        Ok(g.get_record(rid.slot)?.to_vec())
    }

    /// Read and pass the record to `f` without copying.
    pub fn with_record<T>(&self, rid: Rid, f: impl FnOnce(&[u8]) -> T) -> Result<T> {
        let pin = self.pool.fetch(rid.page)?;
        let g = pin.read();
        Ok(f(g.get_record(rid.slot)?))
    }

    /// `f` over the record at `rid` under its page's read latch, if the
    /// slot holds a live record; `None` for a dead or unused slot, or when
    /// `f` declines.
    pub(crate) fn with_live<T>(
        &self,
        rid: Rid,
        f: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Result<Option<T>> {
        let pin = self.pool.fetch(rid.page)?;
        let g = pin.read();
        Ok(match g.slot_live(rid.slot) {
            true => f(g.get_record(rid.slot)?),
            false => None,
        })
    }

    /// [`modify`](Self::modify) if the slot at `rid` holds a live record;
    /// `None` for a dead or unused slot, or when `f` declines (the page is
    /// then left clean).
    pub(crate) fn modify_live<T>(
        &self,
        rid: Rid,
        f: impl FnOnce(&mut [u8]) -> Option<T>,
    ) -> Result<Option<T>> {
        let pin = self.pool.fetch(rid.page)?;
        let mut g = pin.write();
        if !g.slot_live(rid.slot) {
            return Ok(None);
        }
        let out = f(g.record_mut(rid.slot)?);
        drop(g);
        if out.is_some() {
            pin.mark_dirty();
        }
        Ok(out)
    }

    /// Overwrite the record at `rid` (same size).
    pub fn update(&self, rid: Rid, rec: &[u8]) -> Result<()> {
        let pin = self.pool.fetch(rid.page)?;
        {
            let mut w = pin.write();
            w.update_record(rid.slot, rec)?;
        }
        pin.mark_dirty();
        Ok(())
    }

    /// Rewrite the record at `rid` in place under one write latch; `f` may
    /// read the old bytes before it overwrites them.
    pub fn modify<T>(&self, rid: Rid, f: impl FnOnce(&mut [u8]) -> T) -> Result<T> {
        let pin = self.pool.fetch(rid.page)?;
        let out = f(pin.write().record_mut(rid.slot)?);
        pin.mark_dirty();
        Ok(out)
    }

    /// Tombstone the record at `rid`.
    pub fn delete(&self, rid: Rid) -> Result<()> {
        let pin = self.pool.fetch(rid.page)?;
        {
            let mut w = pin.write();
            w.delete_record(rid.slot)?;
        }
        pin.mark_dirty();
        self.state.lock().records -= 1;
        Ok(())
    }

    /// Visit every live record as `(rid, bytes)`.
    pub fn scan(&self, mut f: impl FnMut(Rid, &[u8])) -> Result<()> {
        let mut cur = self.head();
        while cur.is_valid() {
            let pin = self.pool.fetch(cur)?;
            let g = pin.read();
            for s in 0..g.slot_count() {
                if g.slot_live(s) {
                    f(Rid { page: cur, slot: s }, g.get_record(s)?);
                }
            }
            cur = g.next_page();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{image, FileStore, MemStore, PageStore};

    fn heap(frames: usize) -> HeapFile {
        let pool = BufferPool::new(Arc::new(MemStore::new()), frames);
        HeapFile::create(pool).unwrap()
    }

    #[test]
    fn insert_read_update() {
        let h = heap(8);
        let rid = h.insert(b"v1------").unwrap();
        assert_eq!(h.read(rid).unwrap(), b"v1------");
        h.update(rid, b"v2------").unwrap();
        assert_eq!(h.read(rid).unwrap(), b"v2------");
        assert_eq!(h.record_count(), 1);
    }

    #[test]
    fn grows_across_pages() {
        let h = heap(64);
        let rec = [9u8; 1000];
        let rids: Vec<Rid> = (0..50).map(|_| h.insert(&rec).unwrap()).collect();
        assert!(h.page_count() > 1, "1000-byte records must span pages");
        for rid in rids {
            assert_eq!(h.read(rid).unwrap(), rec.to_vec());
        }
        assert_eq!(h.record_count(), 50);
    }

    #[test]
    fn scan_visits_all_live() {
        let h = heap(64);
        let rec = [1u8; 500];
        let rids: Vec<Rid> = (0..30).map(|_| h.insert(&rec).unwrap()).collect();
        h.delete(rids[3]).unwrap();
        h.delete(rids[17]).unwrap();
        let mut seen = 0;
        h.scan(|_, bytes| {
            assert_eq!(bytes.len(), 500);
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, 28);
    }

    #[test]
    fn open_recounts_chain() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), 64);
        let h = HeapFile::create(Arc::clone(&pool)).unwrap();
        let rec = [7u8; 2000];
        for _ in 0..10 {
            h.insert(&rec).unwrap();
        }
        let head = h.head();
        let pages = h.page_count();
        drop(h);
        let h2 = HeapFile::open(pool, head).unwrap();
        assert_eq!(h2.page_count(), pages);
        assert_eq!(h2.record_count(), 10);
        // And appends continue at the real tail.
        let rid = h2.insert(&rec).unwrap();
        assert_eq!(h2.read(rid).unwrap(), rec.to_vec());
    }

    /// Every live record as `(rid, bytes)`, in chain order.
    fn records(h: &HeapFile) -> Vec<(Rid, Vec<u8>)> {
        let mut all = Vec::new();
        h.scan(|rid, bytes| all.push((rid, bytes.to_vec())))
            .unwrap();
        all
    }

    /// An append writer that fills record `i` with byte `i + 10`.
    fn numbered(span: Range<usize>) -> impl FnMut(Rid, &mut [u8]) + Send {
        let mut i = span.start;
        move |_, rec| {
            rec.fill((i as u8).wrapping_add(10));
            i += 1;
        }
    }

    #[test]
    fn append_fills_pages_in_order_and_inserts_continue_behind_it() {
        let h = heap(64);
        h.insert(&[1u8; 1000]).unwrap();
        h.append(1000, 20, numbered).unwrap();
        let all = records(&h);
        assert_eq!(all[1].0.page, h.head(), "the tail's room is used first");
        assert!(all
            .windows(2)
            .all(|w| (w[0].0.page, w[0].0.slot) < (w[1].0.page, w[1].0.slot)));
        for (i, (_, bytes)) in all[1..].iter().enumerate() {
            assert_eq!(*bytes, vec![i as u8 + 10; 1000]);
        }
        // 8 records of 1004 bytes fit a page: 21 records take 3 pages.
        assert_eq!((h.record_count(), h.page_count()), (21, 3));
        let last = h.insert(&[2u8; 1000]).unwrap();
        assert_eq!(last.page, all[20].0.page);
        assert_eq!(records(&h).len(), 22, "one chain from the head");
    }

    #[test]
    fn a_parallel_append_builds_the_pages_a_serial_one_does() {
        let dir = std::env::temp_dir().join(format!("islands-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // 100-byte records: 78 to a page. Counts that are not a multiple
        // of a page or of any worker's span, one page and no fresh page.
        for (inserted, count) in [(0, 1000), (5, 1000), (3, 78 * 7), (1, 40), (0, 78)] {
            let built: Vec<_> = (1..=3)
                .flat_map(|workers| [false, true].map(|on_file| (workers, on_file)))
                .map(|(workers, on_file)| {
                    let store: Arc<dyn PageStore> = if on_file {
                        let path = dir.join(format!("{inserted}-{count}-{workers}.db"));
                        let _ = std::fs::remove_file(&path);
                        Arc::new(FileStore::open(&path).unwrap())
                    } else {
                        Arc::new(MemStore::new())
                    };
                    let pool = BufferPool::new(Arc::clone(&store), 16);
                    let h = HeapFile::create(Arc::clone(&pool)).unwrap();
                    for _ in 0..inserted {
                        h.insert(&[1u8; 100]).unwrap();
                    }
                    h.append_with(|_| workers, 100, count, numbered).unwrap();
                    let counts = (h.page_count(), h.record_count());
                    let read = records(&h);
                    pool.flush_all().unwrap();
                    (counts, read, image(&*store))
                })
                .collect();
            let serial = &built[0];
            assert_eq!(serial.0 .1, (inserted + count) as u64);
            for (i, (_, bytes)) in serial.1[inserted..].iter().enumerate() {
                assert_eq!(*bytes, vec![(i as u8).wrapping_add(10); 100], "record {i}");
            }
            for other in &built[1..] {
                assert!(*other == *serial, "{inserted} inserted, {count} appended");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_oversized_record_fails_before_a_page_is_allocated() {
        let h = heap(8);
        h.insert(&[1u8; 4000]).unwrap();
        h.insert(&[1u8; 4000]).unwrap(); // the tail is now full
        let (pages, stored) = (h.page_count(), h.pool.store().num_pages());
        let too_big = MAX_RECORD + 1;
        for _ in 0..3 {
            assert!(matches!(
                h.insert(&vec![0u8; too_big]),
                Err(StorageError::RecordTooLarge(n)) if n == too_big
            ));
            assert!(matches!(
                h.append(too_big, 2, |_| |_, _| {}),
                Err(StorageError::RecordTooLarge(_))
            ));
        }
        assert_eq!(
            (h.page_count(), h.pool.store().num_pages()),
            (pages, stored)
        );
        assert_eq!(h.record_count(), 2);
        // The largest record that fits an empty page still goes in.
        h.insert(&vec![3u8; MAX_RECORD]).unwrap();
        assert_eq!(h.page_count(), pages + 1);
    }

    #[test]
    fn with_record_avoids_copy() {
        let h = heap(8);
        let rid = h.insert(b"zero-copy").unwrap();
        let len = h.with_record(rid, |b| b.len()).unwrap();
        assert_eq!(len, 9);
    }
}
