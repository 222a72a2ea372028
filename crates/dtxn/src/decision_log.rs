//! The coordinator's durable decision log.
//!
//! Presumed abort lets the coordinator force **only commit** decisions: an
//! in-doubt participant that finds no record for its gtid here must abort.
//! [`DecisionLog`] is that log as a file: an instance WAL
//! ([`LogManager`]) that holds [`LogPayload::Decision`] records, forced
//! before any `Decision` message leaves the coordinator, plus the in-memory
//! gtid → commit view recovery resolution reads. Concurrent forces share a
//! leader's sync like any WAL's committers do.
//!
//! Abort records are accepted too (they sharpen observability: a logged
//! abort is distinguishable from a presumed one) but nothing depends on
//! them surviving, exactly as the protocol allows.
//!
//! A crash can tear the final record; [`DecisionLog::open`] reopens the file
//! by the WAL's one rule ([`wal::reopen`]) and keeps its whole records, so a
//! torn tail costs at most one *unforced* decision — forced ones were synced
//! before anyone acted on them.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use islands_storage::wal::{self, analyze, LogManager, LogPayload};
use islands_storage::{InstanceOptions, Lsn, TxnId};

use crate::recovery::{resolve_in_doubt, RecoveredOutcome};
use crate::Gtid;

/// File-backed presumed-abort decision log (see module docs).
pub struct DecisionLog {
    wal: Arc<LogManager>,
    /// Forced verdicts, latest per gtid, each with the end LSN of its
    /// record (0 for the ones `open` read back).
    decisions: Mutex<HashMap<Gtid, (bool, Lsn)>>,
    path: PathBuf,
}

impl DecisionLog {
    /// Open (creating if absent) the decision log at `path` and load every
    /// whole record; a torn trailing record is cut off, never an error. A
    /// file holding anything else, such as the 9-byte records this log
    /// used before it was a WAL, is an error and is left as it was.
    pub fn open(path: &Path) -> io::Result<DecisionLog> {
        let (device, prior) = wal::reopen(path).map_err(io::Error::other)?;
        let decisions = analyze(&prior, 0).map_err(io::Error::other)?.decisions;
        let decisions = decisions.into_iter().map(|(g, c)| (g, (c, 0))).collect();
        let threshold = InstanceOptions::default().flush_threshold;
        Ok(DecisionLog {
            wal: LogManager::new(device, threshold, Duration::ZERO),
            decisions: Mutex::new(decisions),
            path: path.to_path_buf(),
        })
    }

    /// Where the log lives on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<Gtid, (bool, Lsn)>> {
        self.decisions.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Durably record a decision: append and sync before returning, so the
    /// caller may act on the decision (send `Decision` frames, ack clients)
    /// knowing recovery will reach the same verdict. Idempotent per gtid.
    ///
    /// The sync runs with no lock held, so concurrent forces share it. A
    /// verdict enters the view once durable, and only over an earlier
    /// record's: the view then agrees with recovery, where the latest
    /// record for a gtid wins, whichever force finishes first.
    pub fn force(&self, gtid: Gtid, commit: bool) -> io::Result<()> {
        if self.lock().get(&gtid).map(|&(c, _)| c) == Some(commit) {
            return Ok(());
        }
        let lsn = self
            .wal
            .append(TxnId(gtid), &LogPayload::Decision { gtid, commit });
        self.wal.commit_durable(lsn).map_err(io::Error::other)?;
        let mut decisions = self.lock();
        let logged = decisions.entry(gtid).or_insert((commit, lsn));
        if logged.1 <= lsn {
            *logged = (commit, lsn);
        }
        Ok(())
    }

    /// The presumed-abort verdict for one gtid: commit only if a commit
    /// record survives; everything else aborts.
    pub fn outcome(&self, gtid: Gtid) -> RecoveredOutcome {
        let logged = self.lock().get(&gtid).map(|&(commit, _)| (gtid, commit));
        resolve_in_doubt(&logged.into_iter().collect(), gtid)
    }

    /// Snapshot of every logged decision (gtid → commit).
    pub fn decisions(&self) -> HashMap<Gtid, bool> {
        self.lock().iter().map(|(&g, &(c, _))| (g, c)).collect()
    }

    /// Number of distinct gtids with a logged decision.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no decision has been logged yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_storage::wal::record::encoded_len;

    fn temp_log(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "islands-decisions-{}-{}.log",
            std::process::id(),
            name
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn decisions_survive_reopen() {
        let path = temp_log("reopen");
        {
            let log = DecisionLog::open(&path).unwrap();
            assert!(log.is_empty());
            log.force(7, true).unwrap();
            log.force(9, false).unwrap();
            log.force(7, true).unwrap(); // idempotent re-force
            assert_eq!(log.len(), 2);
        }
        let log = DecisionLog::open(&path).unwrap();
        assert_eq!(log.outcome(7), RecoveredOutcome::Commit);
        assert_eq!(log.outcome(9), RecoveredOutcome::LoggedAbort);
        assert_eq!(log.outcome(1234), RecoveredOutcome::PresumedAbort);
        assert_eq!(log.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_drops_only_the_last_record() {
        let path = temp_log("torn");
        {
            let log = DecisionLog::open(&path).unwrap();
            log.force(1, true).unwrap();
            log.force(2, true).unwrap();
        }
        // Tear the final record mid-write.
        let mut bytes = std::fs::read(&path).unwrap();
        let record = encoded_len(&LogPayload::Decision {
            gtid: 2,
            commit: true,
        });
        bytes.truncate(2 * record - 4);
        std::fs::write(&path, &bytes).unwrap();
        let log = DecisionLog::open(&path).unwrap();
        assert_eq!(log.outcome(1), RecoveredOutcome::Commit);
        assert_eq!(
            log.outcome(2),
            RecoveredOutcome::PresumedAbort,
            "the torn decision was never acted on, so presumed abort holds"
        );
        // The reopened log keeps appending correctly after the tear.
        log.force(3, true).unwrap();
        let log2 = DecisionLog::open(&path).unwrap();
        assert_eq!(log2.outcome(3), RecoveredOutcome::Commit);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_log_in_the_old_format_is_refused_untouched() {
        let path = temp_log("old-format");
        // `[gtid u64 LE][commit u8]` records: commit 7, abort 9.
        let old: Vec<u8> = [(7u64, 1u8), (9, 0)]
            .iter()
            .flat_map(|&(gtid, commit)| gtid.to_le_bytes().into_iter().chain([commit]))
            .collect();
        std::fs::write(&path, &old).unwrap();
        assert!(DecisionLog::open(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), old);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn latest_record_for_a_gtid_wins() {
        let path = temp_log("latest");
        {
            let log = DecisionLog::open(&path).unwrap();
            log.force(5, false).unwrap();
            log.force(5, true).unwrap();
        }
        let log = DecisionLog::open(&path).unwrap();
        assert_eq!(log.outcome(5), RecoveredOutcome::Commit);
        let _ = std::fs::remove_file(&path);
    }
}
