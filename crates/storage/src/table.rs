//! Tables: a heap file for rows plus a B+tree primary-key index.
//!
//! Rows are fixed-size `(key: u64, payload: [u8; row_size])` records — the
//! shape of the paper's microbenchmark table (240 000 rows ≈ 60 MB ⇒ ~260
//! bytes per row) and of the TPC-C-lite tables in `islands-workload`.
//!
//! A table's initial rows go in with one [`Table::load`]: rows in
//! ascending key order, checked whole before a page is written, then the
//! heap appended page by page and the index built bottom-up. That is the
//! only load path; [`Table::insert_row`] is the transactional one.

use std::sync::Arc;

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
    /// a rejected load is a typed error and leaves the table reading as
    /// empty. The rows are walked twice, to check and then to write.
    pub fn load<I, P>(&self, rows: I) -> Result<()>
    where
        I: IntoIterator<Item = (u64, P)>,
        I::IntoIter: Clone,
        P: AsRef<[u8]>,
    {
        let rows = rows.into_iter();
        if self.row_count() != 0 || self.index.height() != 1 {
            return Err(StorageError::NotEmpty(format!("table {}", self.name)));
        }
        let mut entries: Vec<(u64, u64)> = Vec::with_capacity(rows.size_hint().0);
        for (key, payload) in rows.clone() {
            self.check_payload(payload.as_ref())?;
            if let Some(&(prev, _)) = entries.last() {
                check_ascending(prev, key)?;
            }
            entries.push((key, 0));
        }
        let rids = self
            .heap
            .append(8 + self.row_size, rows, |(key, payload), rec| {
                rec[..8].copy_from_slice(&key.to_le_bytes());
                rec[8..].copy_from_slice(payload.as_ref());
            })?;
        for (entry, rid) in entries.iter_mut().zip(rids) {
            entry.1 = rid.pack();
        }
        self.index.load(&entries)
    }

    /// Read a row's payload.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>> {
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

    /// Rewrite a row's payload where it lies: one index descent and one
    /// heap write latch, where a `get` followed by an `update` pays two
    /// descents and three heap fetches.
    pub fn modify<T>(&self, key: u64, f: impl FnOnce(&mut [u8]) -> T) -> Result<T> {
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

    /// Index levels a point lookup traverses (sim cost input).
    pub fn index_height(&self) -> u32 {
        self.index.height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

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
