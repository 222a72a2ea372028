//! Tables: a heap file for rows plus a B+tree primary-key index.
//!
//! Rows are fixed-size `(key: u64, payload: [u8; row_size])` records — the
//! shape of the paper's microbenchmark table (240 000 rows ≈ 60 MB ⇒ ~260
//! bytes per row) and of the TPC-C-lite tables in `islands-workload`.
//!
//! A table's initial rows go in with one [`Table::load`]: rows in
//! ascending key order, checked whole before a page is written, then the
//! heap appended page by page and the index built bottom-up, each page
//! written once, straight into the page store. That is the only load path;
//! [`Table::insert_row`] is the transactional one.
//!
//! The load also keeps its sorted `(key, RID)` entries as the table's
//! *load directory*: loaded rows never move (updates are in place), so a
//! point lookup ([`Table::get`], [`Table::modify`]) binary-searches it and
//! goes straight to the heap page, writing no shared line of the B+tree on
//! the way. A hit counts only if, under the page latch, the slot is live
//! and its record starts with the key; anything else (a key never loaded,
//! a loaded key deleted or re-inserted elsewhere) takes the tree, which
//! stays the one complete index.

use std::sync::{Arc, OnceLock};

use crate::btree::{check_ascending, BTree};
use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::heap::HeapFile;
use crate::page::{PageId, Rid, MAX_RECORD};

/// Metadata persisted in the catalog page for re-opening a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    pub id: u32,
    pub name: String,
    pub row_size: usize,
    pub heap_head: PageId,
    pub index_root: PageId,
    pub index_height: u32,
    pub row_count: u64,
}

/// A key → payload table.
pub struct Table {
    pub id: u32,
    pub name: String,
    /// Payload bytes per row (excluding the 8-byte key).
    pub row_size: usize,
    heap: HeapFile,
    index: BTree,
    /// The first non-empty load's `(key, packed RID)` entries, ascending;
    /// never written after. Unset for a table that was never loaded or was
    /// re-attached with [`open`](Self::open).
    loaded: OnceLock<Box<[(u64, u64)]>>,
}

impl Table {
    /// A new empty table; a row no page can hold is refused up front.
    pub fn create(pool: Arc<BufferPool>, id: u32, name: &str, row_size: usize) -> Result<Table> {
        Self::check_row_size(row_size)?;
        Ok(Table {
            id,
            name: name.to_owned(),
            row_size,
            heap: HeapFile::create(Arc::clone(&pool))?,
            index: BTree::create(pool)?,
            loaded: OnceLock::new(),
        })
    }

    /// Re-open from catalog metadata (recovery).
    pub fn open(pool: Arc<BufferPool>, meta: &TableMeta) -> Result<Table> {
        Ok(Table {
            id: meta.id,
            name: meta.name.clone(),
            row_size: meta.row_size,
            heap: HeapFile::open(Arc::clone(&pool), meta.heap_head)?,
            index: BTree::open(pool, meta.index_root, meta.index_height, meta.row_count),
            loaded: OnceLock::new(),
        })
    }

    pub fn meta(&self) -> TableMeta {
        TableMeta {
            id: self.id,
            name: self.name.clone(),
            row_size: self.row_size,
            heap_head: self.heap.head(),
            index_root: self.index.root_pid(),
            index_height: self.index.height(),
            row_count: self.index.len(),
        }
    }

    /// Whether a `(key, payload)` record of `row_size` payload bytes fits a
    /// heap page.
    pub(crate) fn check_row_size(row_size: usize) -> Result<()> {
        if 8 + row_size > MAX_RECORD {
            return Err(StorageError::RecordTooLarge(8 + row_size));
        }
        Ok(())
    }

    pub(crate) fn check_payload(&self, payload: &[u8]) -> Result<()> {
        if payload.len() != self.row_size {
            return Err(StorageError::RecordTooLarge(payload.len()));
        }
        Ok(())
    }

    /// Physically insert a row; fails on duplicate key.
    pub fn insert_row(&self, key: u64, payload: &[u8]) -> Result<Rid> {
        self.check_payload(payload)?;
        if self.index.get(key)?.is_some() {
            return Err(StorageError::DuplicateKey(key));
        }
        let mut rec = Vec::with_capacity(8 + payload.len());
        rec.extend_from_slice(&key.to_le_bytes());
        rec.extend_from_slice(payload);
        let rid = self.heap.insert(&rec)?;
        self.index.insert(key, rid.pack())?;
        Ok(rid)
    }

    /// Fill this empty table with `rows`, keys strictly ascending: the
    /// heap page by page, the index bottom-up. Nothing is written until
    /// every row has been checked (order, payload size, the table empty);
    /// a rejected load is a typed error, allocates no page and leaves the
    /// table reading as empty. The rows are walked twice, to check and then
    /// to write.
    ///
    /// Every page the load builds goes straight into the pool's page store
    /// ([`HeapFile::append`], [`BTree::load`]); only the two pages already
    /// resident, the heap's tail and the index's root leaf (written last,
    /// publishing the index), go through their frames. The pool takes the
    /// rest on first use. The heap's fresh pages may be built on more than
    /// one thread: each worker walks its own clone of `rows` from its first
    /// row and fills its own slice of the index entries. Those entries are
    /// then kept as the table's load directory (16 bytes a row).
    pub fn load<I, P>(&self, rows: I) -> Result<()>
    where
        I: IntoIterator<Item = (u64, P)>,
        I::IntoIter: Clone + Send,
        P: AsRef<[u8]>,
    {
        self.load_with(crate::heap::worker_count, rows)
    }

    /// [`load`](Self::load) with the heap built by `workers(fresh pages)`
    /// workers.
    pub(crate) fn load_with<I, P>(&self, workers: impl FnOnce(u64) -> usize, rows: I) -> Result<()>
    where
        I: IntoIterator<Item = (u64, P)>,
        I::IntoIter: Clone + Send,
        P: AsRef<[u8]>,
    {
        let rows = rows.into_iter();
        if self.row_count() != 0 || self.index.height() != 1 {
            return Err(StorageError::NotEmpty(format!("table {}", self.name)));
        }
        let (mut prev, mut count) = (None, 0);
        for (key, payload) in rows.clone() {
            self.check_payload(payload.as_ref())?;
            if let Some(prev) = prev {
                check_ascending(prev, key)?;
            }
            (prev, count) = (Some(key), count + 1);
        }
        let mut entries = vec![(0, 0); count];
        let mut unfilled = &mut entries[..];
        self.heap
            .append_with(workers, 8 + self.row_size, count, |span| {
                let (mine, rest) = std::mem::take(&mut unfilled).split_at_mut(span.len());
                unfilled = rest;
                let (mut rows, mut mine) = (rows.clone().skip(span.start), mine.iter_mut());
                move |rid, rec| {
                    let (key, payload) = rows.next().expect("the check pass counted it");
                    *mine.next().expect("one entry per row") = (key, rid.pack());
                    rec[..8].copy_from_slice(&key.to_le_bytes());
                    rec[8..].copy_from_slice(payload.as_ref());
                }
            })?;
        self.index.load(&entries)?;
        if count > 0 {
            // Only a table emptied since its first load can be loaded
            // again; its directory stays the first load's and misses.
            let _ = self.loaded.set(entries.into_boxed_slice());
        }
        Ok(())
    }

    /// Where the load put `key`, if it loaded `key`: a hint a lookup checks
    /// under the page latch (see the module docs).
    fn loaded_rid(&self, key: u64) -> Option<Rid> {
        let dir = self.loaded.get()?;
        let at = dir.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        Some(Rid::unpack(dir[at].1))
    }

    /// Read a row's payload: from where the load put it if it is still
    /// there, else through the index.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>> {
        if let Some(rid) = self.loaded_rid(key) {
            let row = self.heap.with_live(rid, |rec| {
                (rec[..8] == key.to_le_bytes()).then(|| rec[8..].to_vec())
            })?;
            if row.is_some() {
                return Ok(row);
            }
        }
        match self.index.get(key)? {
            None => Ok(None),
            Some(packed) => {
                let rid = Rid::unpack(packed);
                self.heap
                    .with_record(rid, |rec| rec[8..].to_vec())
                    .map(Some)
            }
        }
    }

    /// Overwrite a row's payload, returning the before image.
    pub fn update(&self, key: u64, payload: &[u8]) -> Result<Vec<u8>> {
        self.check_payload(payload)?;
        self.modify(key, |row| {
            let before = row.to_vec();
            row.copy_from_slice(payload);
            before
        })
    }

    /// Rewrite a row's payload where it lies: one lookup (as [`get`](Self::get)
    /// finds a row) and one heap write latch, where a `get` followed by an
    /// `update` pays two lookups and three heap fetches.
    pub fn modify<T>(&self, key: u64, f: impl FnOnce(&mut [u8]) -> T) -> Result<T> {
        let mut f = Some(f);
        if let Some(rid) = self.loaded_rid(key) {
            let out = self.heap.modify_live(rid, |rec| {
                let (head, row) = rec.split_at_mut(8);
                (*head == key.to_le_bytes()).then(|| f.take().expect("called once")(row))
            })?;
            if let Some(out) = out {
                return Ok(out);
            }
        }
        let f = f.expect("a declined directory hit leaves it");
        let packed = self.index.get(key)?.ok_or(StorageError::KeyNotFound(key))?;
        self.heap
            .modify(Rid::unpack(packed), |rec| f(&mut rec[8..]))
    }

    /// Physically remove a row (used by abort-undo of inserts).
    pub fn delete_row(&self, key: u64) -> Result<bool> {
        match self.index.get(key)? {
            None => Ok(false),
            Some(packed) => {
                self.heap.delete(Rid::unpack(packed))?;
                self.index.delete(key)?;
                Ok(true)
            }
        }
    }

    /// All `(key, payload)` pairs with `lo <= key <= hi`.
    pub fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        let hits = self.index.range(lo, hi)?;
        let mut out = Vec::with_capacity(hits.len());
        for (k, packed) in hits {
            let payload = self
                .heap
                .with_record(Rid::unpack(packed), |rec| rec[8..].to_vec())?;
            out.push((k, payload));
        }
        Ok(out)
    }

    pub fn row_count(&self) -> u64 {
        self.index.len()
    }

    /// Levels of the B+tree index (sim cost input): what a lookup the load
    /// directory does not serve descends.
    pub fn index_height(&self) -> u32 {
        self.index.height()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::*;
    use crate::store::{image, FileStore, MemStore, PageStore};

    fn table(row_size: usize) -> Table {
        let pool = BufferPool::new(Arc::new(MemStore::new()), 1024);
        Table::create(pool, 1, "t", row_size).unwrap()
    }

    #[test]
    fn insert_get_update_cycle() {
        let t = table(16);
        t.insert_row(5, &[1u8; 16]).unwrap();
        assert_eq!(t.get(5).unwrap(), Some(vec![1u8; 16]));
        let before = t.update(5, &[2u8; 16]).unwrap();
        assert_eq!(before, vec![1u8; 16]);
        assert_eq!(t.get(5).unwrap(), Some(vec![2u8; 16]));
        assert_eq!(t.get(6).unwrap(), None);
    }

    #[test]
    fn duplicate_and_missing_keys() {
        let t = table(8);
        t.insert_row(1, &[0u8; 8]).unwrap();
        assert!(matches!(
            t.insert_row(1, &[0u8; 8]),
            Err(StorageError::DuplicateKey(1))
        ));
        assert!(matches!(
            t.update(99, &[0u8; 8]),
            Err(StorageError::KeyNotFound(99))
        ));
    }

    #[test]
    fn wrong_payload_size_rejected() {
        let t = table(8);
        assert!(matches!(
            t.insert_row(1, &[0u8; 9]),
            Err(StorageError::RecordTooLarge(9))
        ));
    }

    #[test]
    fn range_returns_payloads_in_key_order() {
        let t = table(8);
        for k in [5u64, 1, 9, 3] {
            t.insert_row(k, &k.to_le_bytes()).unwrap();
        }
        let r = t.range(2, 8).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, 3);
        assert_eq!(r[1].0, 5);
        assert_eq!(r[1].1, 5u64.to_le_bytes().to_vec());
    }

    #[test]
    fn delete_then_reinsert() {
        let t = table(8);
        t.insert_row(1, &[7u8; 8]).unwrap();
        assert!(t.delete_row(1).unwrap());
        assert!(!t.delete_row(1).unwrap());
        assert_eq!(t.get(1).unwrap(), None);
        t.insert_row(1, &[8u8; 8]).unwrap();
        assert_eq!(t.get(1).unwrap(), Some(vec![8u8; 8]));
    }

    #[test]
    fn a_load_writes_its_pages_to_the_store_not_through_the_pool() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), 64);
        pool.set_wal_barrier(Arc::new(|| Ok(())));
        let t = Table::create(Arc::clone(&pool), 1, "t", 64).unwrap();
        let before = pool.store().num_pages();
        const ROWS: u64 = 20_000; // ~190 heap pages and 40 leaves: 3x the pool
        let row = |k: u64| k.to_le_bytes().repeat(8);
        t.load((0..ROWS).map(|k| (k, row(k)))).unwrap();
        assert!(pool.store().num_pages() - before > 3 * 64);
        // The heap's head and the root leaf are the only pages in frames.
        assert_eq!(pool.frames_with_memory(), 2);
        let stats = &pool.stats;
        assert_eq!(stats.evictions.load(Ordering::Relaxed), 0);
        assert_eq!(stats.writebacks.load(Ordering::Relaxed), 0);
        assert_eq!(t.index_height(), 2);
        // Every row reads back from the store, the pool filling on demand.
        assert_eq!(t.row_count(), ROWS);
        for k in (0..ROWS).step_by(97).chain([ROWS - 1]) {
            assert_eq!(t.get(k).unwrap(), Some(row(k)), "key {k}");
        }
        let all = t.range(0, u64::MAX).unwrap();
        assert!(all.iter().map(|r| r.0).eq(0..ROWS));
        assert!(all.iter().all(|(k, payload)| *payload == row(*k)));
        assert!(stats.misses.load(Ordering::Relaxed) > 3 * 64);
        // Inserts continue behind the loaded tail, through the pool.
        t.insert_row(ROWS, &row(ROWS)).unwrap();
        assert_eq!(t.range(ROWS - 1, u64::MAX).unwrap().len(), 2);
    }

    #[test]
    fn a_parallel_load_builds_the_store_a_serial_one_does() {
        let dir = std::env::temp_dir().join(format!("islands-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let row = |k: u64| k.to_le_bytes().repeat(7);
        // 64-byte records, 120 to a page: none past the empty tail, one,
        // and counts no page or worker span divides.
        for rows in [1u64, 121, 1000, 4321] {
            let keys = || (0..rows).map(|k| (3 * k + 1, row(k)));
            let built: Vec<_> = (1..=3)
                .flat_map(|workers| [false, true].map(|on_file| (workers, on_file)))
                .map(|(workers, on_file)| {
                    let store: Arc<dyn PageStore> = if on_file {
                        let path = dir.join(format!("{rows}-{workers}.db"));
                        let _ = std::fs::remove_file(&path);
                        Arc::new(FileStore::open(&path).unwrap())
                    } else {
                        Arc::new(MemStore::new())
                    };
                    let pool = BufferPool::new(Arc::clone(&store), 64);
                    let t = Table::create(Arc::clone(&pool), 3, "t", 56).unwrap();
                    t.load_with(|_| workers, keys()).unwrap();
                    let read = t.range(0, u64::MAX).unwrap();
                    pool.flush_all().unwrap();
                    (t.meta(), read, image(&*store))
                })
                .collect();
            let serial = &built[0];
            assert!(serial.1.iter().cloned().eq(keys()), "{rows} rows read back");
            for other in &built[1..] {
                assert_eq!(other.0, serial.0, "{rows} rows");
                assert!(*other == *serial, "{rows} rows");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What a loaded table answers once key 7 is deleted and key 9 deleted
    /// and re-inserted: the load directory's RIDs for both are dead slots.
    fn answers_after_delete_and_reinsert(t: &Table) {
        assert_eq!(t.get(7).unwrap(), None);
        assert!(matches!(
            t.modify(7, |_| ()),
            Err(StorageError::KeyNotFound(7))
        ));
        assert!(matches!(
            t.update(7, &[0u8; 8]),
            Err(StorageError::KeyNotFound(7))
        ));
        assert_eq!(t.get(9).unwrap(), Some(vec![9u8; 8]));
        t.modify(9, |row| row[0] = 1).unwrap();
        let mut moved = vec![9u8; 8];
        moved[0] = 1;
        assert_eq!(t.get(9).unwrap(), Some(moved.clone()));
        assert_eq!(t.update(9, &[9u8; 8]).unwrap(), moved);
        assert_eq!(t.get(9).unwrap(), Some(vec![9u8; 8]));
        // A loaded row nothing moved.
        assert_eq!(t.get(8).unwrap(), Some(8u64.to_le_bytes().to_vec()));
        assert_eq!(t.update(8, &[8u8; 8]).unwrap(), 8u64.to_le_bytes());
        assert_eq!(t.update(8, &8u64.to_le_bytes()).unwrap(), [8u8; 8]);
    }

    #[test]
    fn a_loaded_key_deleted_or_moved_is_found_through_the_index() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), 1024);
        let t = Table::create(Arc::clone(&pool), 1, "t", 8).unwrap();
        t.load((0..1000u64).map(|k| (k, k.to_le_bytes()))).unwrap();
        let (at7, at9) = (t.loaded_rid(7), t.loaded_rid(9));
        assert!(at7.is_some() && at9.is_some());
        assert!(t.delete_row(7).unwrap());
        assert!(t.delete_row(9).unwrap());
        assert_eq!(t.get(9).unwrap(), None);
        let now9 = t.insert_row(9, &[9u8; 8]).unwrap();
        assert_ne!(Some(now9), at9);
        assert_eq!((t.loaded_rid(7), t.loaded_rid(9)), (at7, at9));
        answers_after_delete_and_reinsert(&t);
        // Re-attached, the table has no directory and answers the same.
        let meta = t.meta();
        drop(t);
        let t = Table::open(pool, &meta).unwrap();
        assert_eq!(t.loaded_rid(8), None);
        answers_after_delete_and_reinsert(&t);
    }

    #[test]
    fn meta_round_trips_through_reopen() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), 1024);
        let t = Table::create(Arc::clone(&pool), 7, "acct", 32).unwrap();
        for k in 0..500u64 {
            t.insert_row(k, &[k as u8; 32]).unwrap();
        }
        let meta = t.meta();
        drop(t);
        let t2 = Table::open(pool, &meta).unwrap();
        assert_eq!(t2.row_count(), 500);
        assert_eq!(t2.get(123).unwrap(), Some(vec![123u8; 32]));
        assert_eq!(t2.name, "acct");
    }
}
