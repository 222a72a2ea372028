//! Log devices: where the log manager's batches go.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Result, StorageError};
use crate::wal::record;

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

/// Open the log file at `path` for a new incarnation (creating it if
/// absent): keep its longest prefix of whole records, cut a torn tail off
/// the file and return the device with that prefix.
///
/// A torn tail is what a crash mid-flush leaves after the last whole
/// record ([`record::is_torn`]). Replay of the prefix stops where it
/// starts, and nothing in it was ever acknowledged durable. Left on the
/// file, it would sit between the prefix and every record this incarnation
/// appends, and the next replay would read its header over them: stop
/// there, or decode one record out of torn and new bytes. A
/// [`LogManager`](crate::wal::LogManager) over the returned device
/// continues the stream right after the last whole record.
///
/// Bytes after the prefix that do not look torn — a whole frame that fails
/// to decode, as mid-file corruption or a file in another format gives —
/// are [`StorageError::CorruptLog`], and the file is left as it was.
pub fn reopen(path: &Path) -> Result<(Arc<FileLogDevice>, Vec<u8>)> {
    let device = FileLogDevice::open(path)?;
    let mut log = device.read_all()?;
    let mut whole = 0;
    while whole < log.len() {
        match record::decode(&log[whole..], whole as u64) {
            Ok((_, used)) => whole += used,
            Err(_) if record::is_torn(&log[whole..]) => break,
            Err(e) => return Err(e),
        }
    }
    if whole < log.len() {
        let file = device.file.lock();
        file.set_len(whole as u64)?;
        file.sync_data()?;
        drop(file);
        log.truncate(whole);
    }
    Ok((device, log))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::record::{encode, encoded_len, LogPayload};
    use crate::TxnId;

    #[test]
    fn reopen_cuts_a_torn_tail_off_the_file() {
        let path =
            std::env::temp_dir().join(format!("islands-wal-reopen-{}.log", std::process::id()));
        let mut bytes = Vec::new();
        encode(TxnId(1), &LogPayload::Commit, &mut bytes);
        encode(TxnId(2), &LogPayload::Prepare { gtid: 9 }, &mut bytes);
        let whole = bytes.len();
        encode(TxnId(3), &LogPayload::Commit, &mut bytes);
        bytes.truncate(whole + encoded_len(&LogPayload::Commit) / 2);
        std::fs::write(&path, &bytes).unwrap();

        let (device, prefix) = reopen(&path).unwrap();
        assert_eq!(prefix, bytes[..whole]);
        assert_eq!(device.len(), whole as u64);
        assert_eq!(std::fs::read(&path).unwrap(), bytes[..whole]);
        // A clean log reopens untouched.
        let (_, again) = reopen(&path).unwrap();
        assert_eq!(again, prefix);
        // So does a tail of zeros the file grew by before its data landed.
        let mut zeros = bytes[..whole].to_vec();
        zeros.resize(whole + 40, 0);
        std::fs::write(&path, &zeros).unwrap();
        assert_eq!(reopen(&path).unwrap().1, prefix);
        assert_eq!(std::fs::read(&path).unwrap(), prefix);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_refuses_bytes_that_are_not_a_torn_tail() {
        let path =
            std::env::temp_dir().join(format!("islands-wal-refuse-{}.log", std::process::id()));
        // A whole record with an unknown tag after a good one.
        let mut bytes = Vec::new();
        encode(TxnId(1), &LogPayload::Commit, &mut bytes);
        let at = bytes.len();
        encode(TxnId(2), &LogPayload::Commit, &mut bytes);
        bytes[at + 12] = 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(reopen(&path), Err(StorageError::CorruptLog(_))));
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "left as it was");
        std::fs::remove_file(&path).unwrap();
    }
}
