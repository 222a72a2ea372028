//! Log devices: where the log manager's batches go.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Result, StorageError};

/// Where log batches go.
pub trait LogDevice: Send + Sync {
    fn append(&self, bytes: &[u8]) -> Result<()>;
    fn sync(&self) -> Result<()>;
    /// Entire log contents (recovery).
    fn read_all(&self) -> Result<Vec<u8>>;
    fn len(&self) -> u64;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Memory-backed log device (the paper's memory-mapped log disk).
#[derive(Default)]
pub struct MemLogDevice {
    data: Mutex<Vec<u8>>,
}

impl MemLogDevice {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

impl LogDevice for MemLogDevice {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.data.lock().extend_from_slice(bytes);
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        Ok(())
    }
    fn read_all(&self) -> Result<Vec<u8>> {
        Ok(self.data.lock().clone())
    }
    fn len(&self) -> u64 {
        self.data.lock().len() as u64
    }
}

/// File-backed log device.
pub struct FileLogDevice {
    file: Mutex<File>,
    path: std::path::PathBuf,
}

impl FileLogDevice {
    pub fn open(path: &Path) -> Result<Arc<Self>> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        Ok(Arc::new(FileLogDevice {
            file: Mutex::new(file),
            path: path.to_path_buf(),
        }))
    }
}

impl LogDevice for FileLogDevice {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.file.lock().write_all(bytes)?;
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }
    fn read_all(&self) -> Result<Vec<u8>> {
        Ok(std::fs::read(&self.path)?)
    }
    fn len(&self) -> u64 {
        self.file.lock().metadata().map(|m| m.len()).unwrap_or(0)
    }
}

/// A device for instances whose log nothing will ever read back (volatile
/// deployments without `--wal`): it counts the bytes it is handed, so LSNs
/// and `len()` behave, and retains none of them, so the process does not
/// grow by its own log volume.
#[derive(Default)]
pub struct DiscardLogDevice {
    len: AtomicU64,
}

impl DiscardLogDevice {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

impl LogDevice for DiscardLogDevice {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.len.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        Ok(())
    }
    fn read_all(&self) -> Result<Vec<u8>> {
        Err(StorageError::CorruptLog(
            "discarding log device retains no records to read back".into(),
        ))
    }
    fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }
}

/// Log-device double for this crate's tests.
#[cfg(test)]
pub(crate) mod testdev {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Device double: keeps each appended batch, can make `sync` slow, fail
    /// from the N-th call on, or block until the test releases it.
    #[derive(Default)]
    pub(crate) struct TestDevice {
        pub batches: Mutex<Vec<Vec<u8>>>,
        pub syncs: AtomicU64,
        pub sync_delay: Duration,
        /// 1-based index of the first `sync` that fails (and all after it).
        pub fail_from_sync: Option<u64>,
        /// `sync` waits for one message per call; a dropped sender opens
        /// the gate for good.
        pub gate: Option<Mutex<mpsc::Receiver<()>>>,
    }

    impl TestDevice {
        pub fn bytes(&self) -> Vec<u8> {
            self.batches.lock().concat()
        }
    }

    impl LogDevice for TestDevice {
        fn append(&self, bytes: &[u8]) -> Result<()> {
            self.batches.lock().push(bytes.to_vec());
            Ok(())
        }
        fn sync(&self) -> Result<()> {
            if let Some(gate) = &self.gate {
                let _ = gate.lock().recv();
            }
            std::thread::sleep(self.sync_delay);
            let n = self.syncs.fetch_add(1, Ordering::SeqCst) + 1;
            match self.fail_from_sync {
                Some(at) if n >= at => Err(std::io::Error::other("injected sync failure").into()),
                _ => Ok(()),
            }
        }
        fn read_all(&self) -> Result<Vec<u8>> {
            Ok(self.bytes())
        }
        fn len(&self) -> u64 {
            self.batches.lock().iter().map(|b| b.len() as u64).sum()
        }
    }
}
