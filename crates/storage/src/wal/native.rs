//! Native log manager: the group-commit policy of [`LogBuffer`] driven by
//! OS threads over a log device.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{Result, StorageError};
use crate::wal::buffer::{Batch, Force, LogBuffer};
use crate::wal::device::LogDevice;
use crate::wal::record::LogPayload;
use crate::{Lsn, TxnId};

struct LogState {
    buffer: LogBuffer,
    /// Committers parked on `durable_cv`; a leader with none skips the
    /// notify (a futex syscall) — the lone-committer case on every commit.
    followers: u32,
    /// Message of the first device error. Once set, nothing more is written
    /// (a write after a failed one would leave a hole in the stream) and
    /// nothing more becomes durable.
    poisoned: Option<String>,
}

impl LogState {
    /// The leader's write failed: nothing more is written or made durable.
    /// Out of line, so the commit path carries only a call to it.
    #[cold]
    #[inline(never)]
    fn poison(&mut self, cause: StorageError, batch: Batch) {
        self.poisoned = Some(cause.to_string());
        self.buffer.failed(batch);
    }
}

/// Leader/follower group-commit log manager.
///
/// `append` is a memcpy into the buffer. `commit_durable` returns once the
/// caller's LSN is on the device; whether it returns at once, waits for the
/// flush in flight or leads the next one is [`LogBuffer::force`]'s call. A
/// **leader** writes and syncs its batch on its own thread with the buffer
/// lock dropped, hands it back and wakes the followers. No timer and no
/// flusher thread exist, so a lone committer pays exactly one device write.
pub struct LogManager {
    state: Mutex<LogState>,
    /// Wakes followers when a leader finishes (durable advanced or poisoned).
    durable_cv: Condvar,
    device: Arc<dyn LogDevice>,
}

impl LogManager {
    /// The stream continues at `device.len()`, so a reopened file must hold
    /// whole records only ([`reopen`](crate::wal::reopen) sees to it).
    ///
    /// `_group_window` is ignored: grouping comes from device latency, not
    /// from a timer. The parameter survives only because `benchmark/` (which
    /// a product PR may not edit) still passes one.
    pub fn new(
        device: Arc<dyn LogDevice>,
        flush_threshold: usize,
        _group_window: Duration,
    ) -> Arc<Self> {
        Arc::new(LogManager {
            state: Mutex::new(LogState {
                buffer: LogBuffer::new(flush_threshold, device.len()),
                followers: 0,
                poisoned: None,
            }),
            durable_cv: Condvar::new(),
            device,
        })
    }

    /// Append a record; returns the LSN to pass to
    /// [`LogManager::commit_durable`] for a forced write. An appender that
    /// fills the buffer past `flush_threshold` with no flush in flight
    /// leads one itself; a device error there poisons the log and surfaces
    /// at the next `commit_durable`.
    pub fn append(&self, txn: TxnId, payload: &LogPayload) -> Lsn {
        let _span = islands_obs::enter(islands_obs::BreakdownCategory::Logging);
        let mut st = self.state.lock();
        let lsn = st.buffer.append(txn, payload);
        if st.poisoned.is_none() {
            if let Some(batch) = st.buffer.due() {
                drop(self.write(st, batch));
            }
        }
        lsn
    }

    /// Block until `lsn` is durable on the device. `Err` means the device
    /// failed (now or earlier): the record is **not** known durable and the
    /// caller must not acknowledge a commit.
    pub fn commit_durable(&self, lsn: Lsn) -> Result<()> {
        let _span = islands_obs::enter(islands_obs::BreakdownCategory::Logging);
        let mut st = self.state.lock();
        assert!(lsn <= st.buffer.end_lsn(), "forcing an LSN never appended");
        loop {
            if let Some(cause) = &st.poisoned {
                return Err(StorageError::LogPoisoned(cause.clone()));
            }
            match st.buffer.force(lsn) {
                Force::Durable => return Ok(()),
                Force::Wait => {
                    st.followers += 1;
                    self.durable_cv.wait(&mut st);
                    st.followers -= 1;
                }
                Force::Lead(batch) => st = self.write(st, batch),
            }
        }
    }

    /// Force everything appended so far (WAL barrier, drop).
    pub fn flush(&self) -> Result<()> {
        self.commit_durable(self.end_lsn())
    }

    /// Lead: write `batch` with the buffer lock dropped (appends and new
    /// followers keep arriving), then hand it back and wake the followers.
    fn write<'a>(&'a self, st: MutexGuard<'a, LogState>, batch: Batch) -> MutexGuard<'a, LogState> {
        drop(st);
        let written = self
            .device
            .append(batch.bytes())
            .and_then(|()| self.device.sync());
        let mut st = self.state.lock();
        match written {
            Ok(()) => st.buffer.written(batch),
            Err(e) => st.poison(e, batch),
        }
        if st.followers > 0 {
            self.durable_cv.notify_all();
        }
        st
    }

    pub fn durable_lsn(&self) -> Lsn {
        self.state.lock().buffer.durable_lsn()
    }

    pub fn end_lsn(&self) -> Lsn {
        self.state.lock().buffer.end_lsn()
    }

    /// `(bytes appended, flush batches)`.
    pub fn stats(&self) -> (u64, u64) {
        self.state.lock().buffer.stats()
    }

    pub fn device(&self) -> &Arc<dyn LogDevice> {
        &self.device
    }
}

impl Drop for LogManager {
    /// Records appended without a force (aborts, `End`s) still reach the
    /// device. A device error here has no one left to report to.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::device::testdev::TestDevice;
    use crate::wal::device::{DiscardLogDevice, FileLogDevice, MemLogDevice};
    use crate::wal::record::decode;
    use std::sync::mpsc;
    use std::time::Instant;

    /// The window every pre-leader/follower caller passed; must be inert.
    const LEGACY_WINDOW: Duration = Duration::from_micros(500);

    #[test]
    fn commit_durable_round_trip() {
        let dev = MemLogDevice::new();
        let lm = LogManager::new(dev.clone(), 1 << 16, LEGACY_WINDOW);
        let lsn = lm.append(TxnId(1), &LogPayload::Commit);
        lm.commit_durable(lsn).unwrap();
        assert!(lm.durable_lsn() >= lsn);
        assert_eq!(dev.len(), lsn);
        assert_eq!(lm.stats(), (lsn, 1));
    }

    #[test]
    fn lone_committer_never_waits_out_a_window() {
        let lm = LogManager::new(MemLogDevice::new(), 1 << 16, LEGACY_WINDOW);
        let mut took: Vec<Duration> = (1..=201u64)
            .map(|i| {
                let lsn = lm.append(TxnId(i), &LogPayload::Commit);
                let t = Instant::now();
                lm.commit_durable(lsn).unwrap();
                t.elapsed()
            })
            .collect();
        took.sort();
        // The median, so a preempted commit or two cannot fail the test; a
        // timed wait would push every sample past the window.
        assert!(
            took[100] < Duration::from_micros(100),
            "median commit_durable took {:?}",
            took[100]
        );
        assert_eq!(lm.stats().1, 201, "one flush per lone commit");
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        // Forced interleaving: the first flush blocks in `sync` until all
        // eight committers have appended, so everything that missed the
        // first batch must ride the second.
        let (open, gate) = mpsc::channel();
        let dev = Arc::new(TestDevice {
            gate: Some(Mutex::new(gate)),
            ..Default::default()
        });
        let lm = LogManager::new(dev.clone(), 1 << 20, LEGACY_WINDOW);
        let (appended_tx, appended_rx) = mpsc::channel();
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let lm = Arc::clone(&lm);
                let appended = appended_tx.clone();
                std::thread::spawn(move || {
                    let lsn = lm.append(TxnId(i + 1), &LogPayload::Commit);
                    appended.send(()).unwrap();
                    lm.commit_durable(lsn).unwrap();
                    assert!(lm.durable_lsn() >= lsn);
                })
            })
            .collect();
        for _ in 0..8 {
            appended_rx.recv().unwrap();
        }
        drop(open);
        for h in handles {
            h.join().unwrap();
        }
        let (bytes, flushes) = lm.stats();
        assert_eq!(dev.len(), bytes);
        assert!(
            flushes <= 2,
            "8 committers behind one blocked flush must share: {flushes} flushes"
        );
    }

    #[test]
    fn concurrent_committers_stress_keeps_the_stream_whole() {
        const THREADS: u64 = 8;
        const COMMITS: u64 = 500;
        let dev = Arc::new(TestDevice {
            sync_delay: Duration::from_micros(100),
            ..Default::default()
        });
        // A small threshold, so appenders lead flushes too.
        let lm = LogManager::new(dev.clone(), 256, LEGACY_WINDOW);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let lm = &lm;
                s.spawn(move || {
                    for j in 0..COMMITS {
                        let txn = TxnId(t * COMMITS + j + 1);
                        lm.append(txn, &LogPayload::Begin);
                        let lsn = lm.append(txn, &LogPayload::Commit);
                        lm.commit_durable(lsn).unwrap();
                        assert!(lm.durable_lsn() >= lsn, "returned before durable");
                    }
                });
            }
        });
        let (appended, flushes) = lm.stats();
        assert_eq!(lm.end_lsn(), appended);
        assert_eq!(lm.durable_lsn(), appended, "every record was forced");
        assert!(flushes <= THREADS * COMMITS * 2);
        // Batches concatenate, in the order they were written, to the whole
        // record stream with every record at its own LSN.
        let log = dev.bytes();
        assert_eq!(log.len() as u64, appended);
        let (mut at, mut records) = (0usize, 0u64);
        let mut commits = std::collections::HashSet::new();
        while at < log.len() {
            let (rec, used) = decode(&log[at..], at as u64).unwrap();
            if rec.payload == LogPayload::Commit {
                assert!(commits.insert(rec.txn), "{} committed twice", rec.txn);
            }
            at += used;
            records += 1;
        }
        assert_eq!(records, THREADS * COMMITS * 2);
        assert_eq!(commits.len() as u64, THREADS * COMMITS);
    }

    #[test]
    fn appender_crossing_the_threshold_leads_a_flush() {
        let dev = MemLogDevice::new();
        let lm = LogManager::new(dev.clone(), 64, LEGACY_WINDOW);
        let mut last = 0;
        while last < 64 {
            assert_eq!(dev.len(), 0, "below the threshold nothing is written");
            last = lm.append(TxnId(1), &LogPayload::Begin);
        }
        assert_eq!(dev.len(), last);
        assert_eq!(lm.durable_lsn(), last);
    }

    #[test]
    fn failed_sync_poisons_the_log_and_acknowledges_nothing() {
        let dev = Arc::new(TestDevice {
            fail_from_sync: Some(3),
            ..Default::default()
        });
        let lm = LogManager::new(dev.clone(), 1 << 16, LEGACY_WINDOW);
        let mut durable = 0;
        for i in 1..=2u64 {
            durable = lm.append(TxnId(i), &LogPayload::Commit);
            lm.commit_durable(durable).unwrap();
        }
        let lost = lm.append(TxnId(3), &LogPayload::Commit);
        assert!(matches!(
            lm.commit_durable(lost),
            Err(StorageError::LogPoisoned(_))
        ));
        assert_eq!(lm.durable_lsn(), durable, "the failed batch is not durable");
        // Poison is permanent and stops all device traffic, forced or not.
        let written = dev.batches.lock().len();
        let later = lm.append(TxnId(4), &LogPayload::Commit);
        assert!(matches!(
            lm.commit_durable(later),
            Err(StorageError::LogPoisoned(_))
        ));
        assert!(matches!(lm.flush(), Err(StorageError::LogPoisoned(_))));
        assert_eq!(dev.batches.lock().len(), written);
        assert_eq!(lm.durable_lsn(), durable);
    }

    #[test]
    fn followers_of_a_failed_flush_fail_with_the_leader() {
        let (open, gate) = mpsc::channel();
        let dev = Arc::new(TestDevice {
            fail_from_sync: Some(1),
            gate: Some(Mutex::new(gate)),
            ..Default::default()
        });
        let lm = LogManager::new(dev, 1 << 16, LEGACY_WINDOW);
        let (appended_tx, appended_rx) = mpsc::channel();
        let handles: Vec<_> = (0..3u64)
            .map(|i| {
                let lm = Arc::clone(&lm);
                let appended = appended_tx.clone();
                std::thread::spawn(move || {
                    let lsn = lm.append(TxnId(i + 1), &LogPayload::Commit);
                    appended.send(()).unwrap();
                    lm.commit_durable(lsn)
                })
            })
            .collect();
        for _ in 0..3 {
            appended_rx.recv().unwrap();
        }
        drop(open);
        for h in handles {
            assert!(matches!(
                h.join().unwrap(),
                Err(StorageError::LogPoisoned(_))
            ));
        }
        assert_eq!(lm.durable_lsn(), 0);
    }

    #[test]
    fn discard_device_counts_bytes_and_keeps_none() {
        let dev = DiscardLogDevice::new();
        let lm = LogManager::new(dev.clone(), 1 << 16, LEGACY_WINDOW);
        let mut lsn = 0;
        for i in 1..=100u64 {
            lsn = lm.append(TxnId(i), &LogPayload::Commit);
            lm.commit_durable(lsn).unwrap();
        }
        assert_eq!(dev.len(), lsn);
        assert!(matches!(dev.read_all(), Err(StorageError::CorruptLog(_))));
    }

    #[test]
    fn shutdown_flushes_residue() {
        let dev = MemLogDevice::new();
        let tail;
        {
            let lm = LogManager::new(dev.clone(), 1 << 20, LEGACY_WINDOW);
            lm.append(TxnId(1), &LogPayload::Begin);
            tail = lm.append(TxnId(1), &LogPayload::Commit);
            // Dropped without commit_durable.
        }
        assert_eq!(dev.len(), tail, "drop must flush buffered records");
    }

    #[test]
    fn reopened_device_continues_lsns() {
        let dir = std::env::temp_dir().join(format!("islands-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-reopen.log");
        let _ = std::fs::remove_file(&path);
        let lsn1;
        {
            let dev = FileLogDevice::open(&path).unwrap();
            let lm = LogManager::new(dev, 64, LEGACY_WINDOW);
            lsn1 = lm.append(TxnId(1), &LogPayload::Prepare { gtid: 5 });
            lm.commit_durable(lsn1).unwrap();
        }
        // A second manager over the same file must continue the byte-offset
        // LSN stream, not restart at 0 (which would desync LSNs from record
        // positions and break the durability ratchet).
        let dev = FileLogDevice::open(&path).unwrap();
        let lm = LogManager::new(dev.clone(), 64, LEGACY_WINDOW);
        assert_eq!(lm.end_lsn(), lsn1);
        assert_eq!(lm.durable_lsn(), lsn1);
        let lsn2 = lm.append(TxnId(2), &LogPayload::Commit);
        assert!(lsn2 > lsn1);
        lm.commit_durable(lsn2).unwrap();
        let bytes = dev.read_all().unwrap();
        assert_eq!(bytes.len() as u64, lsn2);
        let (first, used) = crate::wal::record::decode(&bytes, 0).unwrap();
        assert_eq!(first.payload, LogPayload::Prepare { gtid: 5 });
        let (second, _) = crate::wal::record::decode(&bytes[used..], used as u64).unwrap();
        assert_eq!(second.payload, LogPayload::Commit);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_device_persists() {
        let dir = std::env::temp_dir().join(format!("islands-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let lsn;
        {
            let dev = FileLogDevice::open(&path).unwrap();
            let lm = LogManager::new(dev, 64, LEGACY_WINDOW);
            lsn = lm.append(TxnId(3), &LogPayload::Prepare { gtid: 9 });
            lm.commit_durable(lsn).unwrap();
        }
        let dev = FileLogDevice::open(&path).unwrap();
        let bytes = dev.read_all().unwrap();
        assert_eq!(bytes.len() as u64, lsn);
        let (rec, _) = crate::wal::record::decode(&bytes, 0).unwrap();
        assert_eq!(rec.payload, LogPayload::Prepare { gtid: 9 });
        std::fs::remove_file(&path).unwrap();
    }
}
