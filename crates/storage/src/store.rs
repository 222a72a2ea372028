//! Page stores: where pages live when not in the buffer pool.
//!
//! The paper's main experiments keep data and log on memory-mapped disks
//! ("the disks are not capable of sustaining the I/O load"), which
//! [`MemStore`] models; [`FileStore`] provides a real on-disk store for
//! durability tests and the growing-database experiment.
//!
//! A [`MemStore`] keeps its pages in fixed chunks of 64 pages, each one
//! zeroed allocation (512 KiB, above malloc's mmap threshold, so its
//! memory is untouched until a page is written) with a lock of its own and
//! a mask of the pages written. A page copy holds only
//! its chunk's lock, so threads writing different chunks, as a parallel
//! heap load does, never wait on one another, and the memory each touches
//! first is faulted in by that thread alone.

use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PAGE_SIZE};

/// Abstract page store. Page 0 is reserved for the catalog; allocation
/// starts at page 1.
pub trait PageStore: Send + Sync {
    fn read_page(&self, pid: PageId, out: &mut Page) -> Result<()>;
    fn write_page(&self, pid: PageId, page: &Page) -> Result<()>;
    /// Allocate `n` contiguous fresh page ids in one step and return the
    /// first (contents undefined until first write).
    fn allocate_run(&self, n: u64) -> Result<PageId>;
    /// Allocate a fresh page id (contents undefined until first write).
    fn allocate(&self) -> Result<PageId> {
        self.allocate_run(1)
    }
    /// Number of pages ever allocated (including the catalog page).
    fn num_pages(&self) -> u64;
    /// Make previous writes durable.
    fn sync(&self) -> Result<()>;
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// Pages per [`MemStore`] chunk (512 KiB); the written mask is one `u64`.
const CHUNK_PAGES: usize = 64;

/// Heap-backed page store, its pages in chunks of 64.
pub struct MemStore {
    /// Chunk `i` holds pages `i * CHUNK_PAGES ..`; created by the first
    /// write into it or past it, never moved or freed.
    chunks: RwLock<Vec<Arc<RwLock<Chunk>>>>,
    next: AtomicU64,
}

/// `CHUNK_PAGES` pages in one zeroed allocation, and which of them have
/// been written: a page allocated but never written reads as missing.
struct Chunk {
    bytes: Box<[u8]>,
    written: u64,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore {
    pub fn new() -> Self {
        MemStore {
            chunks: RwLock::new(Vec::new()),
            next: AtomicU64::new(1), // page 0: catalog
        }
    }

    /// The chunk holding `pid`, created with any before it when `create`.
    /// The directory lock is let go before the caller copies a page.
    fn chunk(&self, pid: PageId, create: bool) -> Option<Arc<RwLock<Chunk>>> {
        let idx = pid.0 as usize / CHUNK_PAGES;
        if let Some(chunk) = self.chunks.read().get(idx) {
            return Some(Arc::clone(chunk));
        }
        if !create {
            return None;
        }
        let mut chunks = self.chunks.write();
        while chunks.len() <= idx {
            chunks.push(Arc::new(RwLock::new(Chunk {
                bytes: vec![0u8; CHUNK_PAGES * PAGE_SIZE].into_boxed_slice(),
                written: 0,
            })));
        }
        Some(Arc::clone(&chunks[idx]))
    }

    /// `pid`'s byte range in its chunk and its bit in the written mask.
    fn slot(pid: PageId) -> (Range<usize>, u64) {
        let i = pid.0 as usize % CHUNK_PAGES;
        (i * PAGE_SIZE..(i + 1) * PAGE_SIZE, 1 << i)
    }
}

impl PageStore for MemStore {
    fn read_page(&self, pid: PageId, out: &mut Page) -> Result<()> {
        let missing = || StorageError::NoSuchPage(pid.0);
        if pid.0 >= self.next.load(Ordering::SeqCst) {
            return Err(missing());
        }
        let chunk = self.chunk(pid, false).ok_or_else(missing)?;
        let chunk = chunk.read();
        let (bytes, bit) = Self::slot(pid);
        if chunk.written & bit == 0 {
            return Err(missing());
        }
        out.data.copy_from_slice(&chunk.bytes[bytes]);
        Ok(())
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        if pid.0 >= self.next.load(Ordering::SeqCst) {
            return Err(StorageError::NoSuchPage(pid.0));
        }
        let chunk = self.chunk(pid, true).expect("created on demand");
        let mut chunk = chunk.write();
        let (bytes, bit) = Self::slot(pid);
        chunk.bytes[bytes].copy_from_slice(&page.data[..]);
        chunk.written |= bit;
        Ok(())
    }

    fn allocate_run(&self, n: u64) -> Result<PageId> {
        Ok(PageId(self.next.fetch_add(n, Ordering::SeqCst)))
    }

    fn num_pages(&self) -> u64 {
        self.next.load(Ordering::SeqCst)
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FileStore
// ---------------------------------------------------------------------------

/// A page store over one file, pages at `pid * PAGE_SIZE`.
pub struct FileStore {
    file: File,
    next: AtomicU64,
}

impl FileStore {
    /// Open (or create) the store at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let existing = len / PAGE_SIZE as u64;
        Ok(FileStore {
            file,
            next: AtomicU64::new(existing.max(1)),
        })
    }
}

impl PageStore for FileStore {
    fn read_page(&self, pid: PageId, out: &mut Page) -> Result<()> {
        use std::os::unix::fs::FileExt;
        if pid.0 >= self.next.load(Ordering::SeqCst) && pid.0 != 0 {
            return Err(StorageError::NoSuchPage(pid.0));
        }
        self.file
            .read_exact_at(&mut out.data[..], pid.0 * PAGE_SIZE as u64)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    StorageError::NoSuchPage(pid.0)
                } else {
                    StorageError::Io(e)
                }
            })
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file
            .write_all_at(&page.data[..], pid.0 * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn allocate_run(&self, n: u64) -> Result<PageId> {
        Ok(PageId(self.next.fetch_add(n, Ordering::SeqCst)))
    }

    fn num_pages(&self) -> u64 {
        self.next.load(Ordering::SeqCst)
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// Every page `1..num_pages` of `store`, byte for byte; an id never
/// written reads as `None`.
#[cfg(test)]
pub(crate) fn image(store: &dyn PageStore) -> Vec<Option<Vec<u8>>> {
    let mut page = Page::new();
    (1..store.num_pages())
        .map(|pid| {
            let read = store.read_page(PageId(pid), &mut page);
            read.ok().map(|()| page.data.to_vec())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(store: &dyn PageStore) {
        let pid = store.allocate().unwrap();
        let mut page = Page::new();
        page.init_slotted();
        page.insert_record(b"persist me").unwrap();
        store.write_page(pid, &page).unwrap();

        let mut read = Page::new();
        store.read_page(pid, &mut read).unwrap();
        assert_eq!(read.get_record(0).unwrap(), b"persist me");
    }

    #[test]
    fn memstore_round_trip() {
        round_trip(&MemStore::new());
    }

    /// Where `pid`'s bytes lie in its chunk.
    fn page_addr(s: &MemStore, pid: PageId) -> *const u8 {
        let chunk = s.chunk(pid, false).unwrap();
        let at = chunk.read().bytes[MemStore::slot(pid).0].as_ptr();
        at
    }

    #[test]
    fn memstore_rewrites_a_page_where_it_lies() {
        let s = MemStore::new();
        let pid = s.allocate().unwrap();
        let mut page = Page::new();
        page.write_u64(100, 1);
        s.write_page(pid, &page).unwrap();
        let (at, chunks) = (page_addr(&s, pid), s.chunks.read().len());
        page.write_u64(100, 2);
        s.write_page(pid, &page).unwrap();
        let mut read = Page::new();
        s.read_page(pid, &mut read).unwrap();
        assert_eq!(read.read_u64(100), 2);
        assert_eq!(
            page_addr(&s, pid),
            at,
            "the second write reused the first's bytes"
        );
        assert_eq!(s.chunks.read().len(), chunks, "and allocated no chunk");
    }

    #[test]
    fn memstore_missing_page_errors() {
        let s = MemStore::new();
        let mut p = Page::new();
        assert!(matches!(
            s.read_page(PageId(99), &mut p),
            Err(StorageError::NoSuchPage(99))
        ));
    }

    #[test]
    fn an_allocated_but_unwritten_page_reads_as_missing() {
        let s = MemStore::new();
        let first = s.allocate_run(3).unwrap();
        let mut page = Page::new();
        page.write_u64(100, 7);
        s.write_page(PageId(first.0 + 1), &page).unwrap();
        let next = s.num_pages();
        let mut read = Page::new();
        // Pages 1 and 3 share the written page's live chunk; `next` and
        // beyond were never handed out.
        for pid in [
            first.0,
            first.0 + 2,
            next,
            next + 1,
            10 * CHUNK_PAGES as u64,
        ] {
            assert!(
                matches!(s.read_page(PageId(pid), &mut read), Err(StorageError::NoSuchPage(p)) if p == pid),
                "page {pid}"
            );
        }
        assert!(matches!(
            s.write_page(PageId(next), &page),
            Err(StorageError::NoSuchPage(_))
        ));
        s.read_page(PageId(first.0 + 1), &mut read).unwrap();
        assert_eq!(read.read_u64(100), 7);
    }

    #[test]
    fn two_writers_in_one_chunk_and_in_two_read_back_exactly() {
        let s = MemStore::new();
        let pages = 3 * CHUNK_PAGES as u64;
        let first = s.allocate_run(pages).unwrap();
        // Interleaved within each chunk (odd and even pages), and across
        // chunks (each thread starts in a different one), both released at
        // once.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for parity in 0..2u64 {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut page = Page::new();
                    let from = parity * CHUNK_PAGES as u64;
                    for i in (0..pages).map(|i| (from + i) % pages) {
                        if i % 2 == parity {
                            page.data.fill(i as u8);
                            page.write_u64(0, first.0 + i);
                            s.write_page(PageId(first.0 + i), &page).unwrap();
                        }
                    }
                });
            }
        });
        let mut read = Page::new();
        for i in 0..pages {
            s.read_page(PageId(first.0 + i), &mut read).unwrap();
            assert_eq!(read.read_u64(0), first.0 + i);
            assert!(read.data[8..].iter().all(|&b| b == i as u8), "page {i}");
        }
    }

    #[test]
    fn memstore_allocations_are_dense_from_one() {
        let s = MemStore::new();
        assert_eq!(s.allocate().unwrap(), PageId(1));
        assert_eq!(s.allocate().unwrap(), PageId(2));
        assert_eq!(s.num_pages(), 3);
    }

    #[test]
    fn a_run_hands_out_contiguous_ids_in_one_step() {
        let dir = std::env::temp_dir().join(format!("islands-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        let stores: [Box<dyn PageStore>; 2] = [
            Box::new(MemStore::new()),
            Box::new(FileStore::open(&path).unwrap()),
        ];
        for s in &stores {
            assert_eq!(s.allocate().unwrap(), PageId(1));
            assert_eq!(s.allocate_run(5).unwrap(), PageId(2));
            assert_eq!(s.allocate().unwrap(), PageId(7));
            assert_eq!(s.num_pages(), 8);
        }
        drop(stores);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filestore_round_trip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("islands-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        let pid;
        {
            let s = FileStore::open(&path).unwrap();
            round_trip(&s);
            pid = PageId(s.num_pages() - 1);
            s.sync().unwrap();
        }
        // Reopen and read back.
        let s = FileStore::open(&path).unwrap();
        let mut p = Page::new();
        s.read_page(pid, &mut p).unwrap();
        assert_eq!(p.get_record(0).unwrap(), b"persist me");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn catalog_page_zero_is_writable_everywhere() {
        let s = MemStore::new();
        let mut page = Page::new();
        page.set_page_type(crate::page::PAGE_TYPE_CATALOG);
        s.write_page(PageId(0), &page).unwrap();
        let mut rd = Page::new();
        s.read_page(PageId(0), &mut rd).unwrap();
        assert_eq!(rd.page_type(), crate::page::PAGE_TYPE_CATALOG);
    }
}
