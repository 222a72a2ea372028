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
//! store, so a load larger than the pool neither fills nor evicts it. A
//! record no empty page can hold is refused before a page is allocated for
//! it.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, Rid, MAX_RECORD};

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

    /// Append one `len`-byte record per item, in order, `write` filling each
    /// in place and told its RID: the tail page's room first, through its
    /// frame, then fresh pages built one at a time in a single page buffer
    /// and written straight to the store, each chained to the next. No
    /// fresh page takes a pool frame; the pool reads them in on first use.
    /// The tail stays write-latched until the last fresh page is in the
    /// store and only then links to the first, so no scan follows the chain
    /// into a page not yet written.
    pub fn append<T>(
        &self,
        len: usize,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(T, Rid, &mut [u8]),
    ) -> Result<()> {
        if len > MAX_RECORD {
            // Refused before a page is allocated for it.
            return Err(StorageError::RecordTooLarge(len));
        }
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            return Ok(());
        }
        let mut st = self.state.lock();
        let tail = self.pool.fetch(st.tail)?;
        let mut tail_page = tail.write();
        let (page, mut records) = (tail.pid, 0);
        while tail_page.has_room(len) {
            let Some(item) = items.next() else { break };
            let (slot, space) = tail_page.reserve_record(len).expect("room was checked");
            write(item, Rid { page, slot }, space);
            records += 1;
        }
        tail.mark_dirty();
        if items.peek().is_some() {
            let store = self.pool.store();
            let first = store.allocate()?;
            let (mut pid, mut pages) = (first, 1);
            let mut fresh = Page::new();
            fresh.init_slotted();
            for item in items {
                if !fresh.has_room(len) {
                    let next = store.allocate()?;
                    fresh.set_next_page(next);
                    store.write_page(pid, &fresh)?;
                    fresh.init_slotted();
                    (pid, pages) = (next, pages + 1);
                }
                let (slot, space) = fresh.reserve_record(len).expect("an empty page holds it");
                write(item, Rid { page: pid, slot }, space);
                records += 1;
            }
            store.write_page(pid, &fresh)?;
            tail_page.set_next_page(first);
            st.tail = pid;
            st.pages += pages;
        }
        st.records += records;
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
    use crate::store::MemStore;

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

    #[test]
    fn append_fills_pages_in_order_and_inserts_continue_behind_it() {
        let h = heap(64);
        h.insert(&[1u8; 1000]).unwrap();
        let mut rids = Vec::new();
        h.append(1000, 0..20u8, |i, rid, rec| {
            rec.fill(i + 10);
            rids.push(rid);
        })
        .unwrap();
        assert_eq!(rids[0].page, h.head(), "the tail's room is used first");
        assert!(rids
            .windows(2)
            .all(|w| (w[0].page, w[0].slot) < (w[1].page, w[1].slot)));
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.read(*rid).unwrap(), vec![i as u8 + 10; 1000]);
        }
        // 8 records of 1004 bytes fit a page: 21 records take 3 pages.
        assert_eq!((h.record_count(), h.page_count()), (21, 3));
        let last = h.insert(&[2u8; 1000]).unwrap();
        assert_eq!(last.page, rids[19].page);
        let mut seen = 0;
        h.scan(|_, _| seen += 1).unwrap();
        assert_eq!(seen, 22, "one chain from the head");
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
                h.append(too_big, 0..2, |_, _, _| {}),
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
