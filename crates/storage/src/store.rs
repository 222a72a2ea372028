//! Page stores: where pages live when not in the buffer pool.
//!
//! The paper's main experiments keep data and log on memory-mapped disks
//! ("the disks are not capable of sustaining the I/O load"), which
//! [`MemStore`] models; [`FileStore`] provides a real on-disk store for
//! durability tests and the growing-database experiment.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PAGE_SIZE};

/// Abstract page store. Page 0 is reserved for the catalog; allocation
/// starts at page 1.
pub trait PageStore: Send + Sync {
    fn read_page(&self, pid: PageId, out: &mut Page) -> Result<()>;
    fn write_page(&self, pid: PageId, page: &Page) -> Result<()>;
    /// Allocate a fresh page id (contents undefined until first write).
    fn allocate(&self) -> Result<PageId>;
    /// Number of pages ever allocated (including the catalog page).
    fn num_pages(&self) -> u64;
    /// Make previous writes durable.
    fn sync(&self) -> Result<()>;
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// Heap-backed page store.
pub struct MemStore {
    pages: RwLock<Vec<Option<Box<[u8; PAGE_SIZE]>>>>,
    next: AtomicU64,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore {
    pub fn new() -> Self {
        MemStore {
            pages: RwLock::new(vec![None]), // slot 0: catalog
            next: AtomicU64::new(1),
        }
    }
}

impl PageStore for MemStore {
    fn read_page(&self, pid: PageId, out: &mut Page) -> Result<()> {
        let pages = self.pages.read();
        match pages.get(pid.0 as usize) {
            Some(Some(bytes)) => {
                out.data.copy_from_slice(&bytes[..]);
                Ok(())
            }
            _ => Err(StorageError::NoSuchPage(pid.0)),
        }
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        let mut pages = self.pages.write();
        let idx = pid.0 as usize;
        if idx >= pages.len() {
            if pid.0 >= self.next.load(Ordering::SeqCst) && pid.0 != 0 {
                return Err(StorageError::NoSuchPage(pid.0));
            }
            pages.resize_with(idx + 1, || None);
        }
        // A page written before is copied into its buffer: no allocation.
        match &mut pages[idx] {
            Some(bytes) => bytes.copy_from_slice(&page.data[..]),
            slot => *slot = Some(page.data.clone()),
        }
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        Ok(PageId(self.next.fetch_add(1, Ordering::SeqCst)))
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

    fn allocate(&self) -> Result<PageId> {
        Ok(PageId(self.next.fetch_add(1, Ordering::SeqCst)))
    }

    fn num_pages(&self) -> u64 {
        self.next.load(Ordering::SeqCst)
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
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

    #[test]
    fn memstore_rewrites_a_page_where_it_lies() {
        let s = MemStore::new();
        let pid = s.allocate().unwrap();
        let mut page = Page::new();
        page.write_u64(100, 1);
        s.write_page(pid, &page).unwrap();
        let buffer = s.pages.read()[pid.0 as usize].as_ref().unwrap().as_ptr();
        page.write_u64(100, 2);
        s.write_page(pid, &page).unwrap();
        let mut read = Page::new();
        s.read_page(pid, &mut read).unwrap();
        assert_eq!(read.read_u64(100), 2);
        let again = s.pages.read()[pid.0 as usize].as_ref().unwrap().as_ptr();
        assert_eq!(again, buffer, "the second write reused the first's buffer");
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
    fn memstore_allocations_are_dense_from_one() {
        let s = MemStore::new();
        assert_eq!(s.allocate().unwrap(), PageId(1));
        assert_eq!(s.allocate().unwrap(), PageId(2));
        assert_eq!(s.num_pages(), 3);
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
