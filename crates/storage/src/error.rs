//! Error type shared across the storage manager.

use std::fmt;
use std::io;

use crate::TxnId;

/// Storage-level result alias.
pub type Result<T> = std::result::Result<T, StorageError>;

/// All failure modes of the storage manager.
#[derive(Debug)]
pub enum StorageError {
    Io(io::Error),
    /// Page id out of range or never written.
    NoSuchPage(u64),
    /// All buffer frames pinned or dirty (no-steal policy refuses eviction).
    BufferFull,
    /// Key already present in a unique index.
    DuplicateKey(u64),
    KeyNotFound(u64),
    NoSuchTable(String),
    /// A record did not fit into a page.
    RecordTooLarge(usize),
    /// Wait-die decided the requester must abort.
    Deadlock(TxnId),
    /// Lock wait exceeded the configured timeout.
    LockTimeout(TxnId),
    /// Transaction was already finished (committed/aborted).
    TxnFinished(TxnId),
    /// Transaction must abort (e.g. failed prepare).
    MustAbort(TxnId),
    /// Log corruption detected during recovery.
    CorruptLog(String),
    /// The log device failed a write or sync (the message is the first
    /// failure's). Nothing after it is durable, so no commit or prepare may
    /// be acknowledged until the instance restarts over its log.
    LogPoisoned(String),
    /// Catalog page corrupt or of wrong version.
    CorruptCatalog(String),
    /// A bulk load's keys were not ascending: `key` came after `prev`.
    UnsortedLoad {
        prev: u64,
        key: u64,
    },
    /// A bulk load into a table (or index) that already holds rows.
    NotEmpty(String),
    /// A partition or table description nothing can be built from.
    BadConfig(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::NoSuchPage(p) => write!(f, "no such page: {p}"),
            StorageError::BufferFull => write!(f, "buffer pool exhausted"),
            StorageError::DuplicateKey(k) => write!(f, "duplicate key: {k}"),
            StorageError::KeyNotFound(k) => write!(f, "key not found: {k}"),
            StorageError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            StorageError::RecordTooLarge(n) => write!(f, "record too large: {n} bytes"),
            StorageError::Deadlock(t) => write!(f, "deadlock: {t} must abort (wait-die)"),
            StorageError::LockTimeout(t) => write!(f, "lock timeout for {t}"),
            StorageError::TxnFinished(t) => write!(f, "transaction already finished: {t}"),
            StorageError::MustAbort(t) => write!(f, "transaction must abort: {t}"),
            StorageError::CorruptLog(m) => write!(f, "corrupt log: {m}"),
            StorageError::LogPoisoned(m) => write!(f, "log device failed, log poisoned: {m}"),
            StorageError::CorruptCatalog(m) => write!(f, "corrupt catalog: {m}"),
            StorageError::UnsortedLoad { prev, key } => {
                write!(f, "bulk load out of order: key {key} after {prev}")
            }
            StorageError::NotEmpty(t) => write!(f, "bulk load into non-empty {t}"),
            StorageError::BadConfig(m) => write!(f, "bad configuration: {m}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::Deadlock(TxnId(9));
        assert!(e.to_string().contains("txn9"));
        let e = StorageError::Io(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error;
        let e = StorageError::from(io::Error::other("x"));
        assert!(e.source().is_some());
        assert!(StorageError::BufferFull.source().is_none());
    }
}
