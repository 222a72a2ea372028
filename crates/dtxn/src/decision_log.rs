//! The coordinator's decision log: the one home of its verdicts.
//!
//! Presumed abort lets the coordinator force **only commit** decisions: an
//! in-doubt participant that finds no record for its gtid must abort — once
//! the round can no longer commit. [`DecisionLog`] holds both halves of that
//! answer:
//!
//! * **Records.** A gtid → verdict map, written *before* any `Decision`
//!   message leaves the coordinator. A durable log ([`DecisionLog::open`])
//!   writes each through an instance WAL ([`LogManager`]) of
//!   [`LogPayload::Decision`] records, so concurrent forces share a leader's
//!   sync like any WAL's committers do, and keeps every record. A volatile
//!   one ([`DecisionLog::volatile`]) is the map only and drops a record once
//!   every participant it binds has acknowledged it ([`forget`]): nothing can
//!   ask about it any more.
//! * **Rounds in flight.** Each coordinator of the deployment holds a
//!   [`Round`]: a slot of its own in which it publishes the gtid of the round
//!   it is driving, from before its first `Prepare` leaves until its
//!   decision is made (and, for a commit, forced). A round costs its
//!   coordinator two uncontended stores; only [`verdict`] reads the slots.
//!
//! [`verdict`](DecisionLog::verdict) applies [`recovery::verdict`] to them:
//! commit with a commit record, abort with no record once no round holds the
//! gtid, and no answer yet while one does. Abort records are accepted too
//! (a logged abort is distinguishable from a presumed one) but nothing
//! depends on them surviving, exactly as the protocol allows.
//!
//! A crash can tear the final record; [`DecisionLog::open`] reopens the file
//! by the WAL's one rule ([`wal::reopen`]) and keeps its whole records, so a
//! torn tail costs at most one *unforced* decision — forced ones were synced
//! before anyone acted on them.
//!
//! [`forget`]: DecisionLog::forget
//! [`verdict`]: DecisionLog::verdict

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use islands_storage::wal::{self, analyze, LogManager, LogPayload};
use islands_storage::{InstanceOptions, Lsn, TxnId};

use crate::{recovery, Gtid};

/// What a [`Round`] slot holds between rounds: gtids start at 1.
const IDLE: Gtid = 0;

/// One coordinator's round slot, alone on its cache line: its owner's
/// stores never contend with another coordinator's.
#[repr(align(64))]
struct Slot(AtomicU64);

/// A coordinator's slot among its decision log's rounds in flight (see the
/// module docs). Dropping it leaves the slot idle.
pub struct Round(Arc<Slot>);

impl Round {
    /// The round for `gtid` starts: call before its first `Prepare` leaves.
    pub fn open(&self, gtid: Gtid) {
        self.0 .0.store(gtid, Ordering::SeqCst);
    }

    /// The round is decided: call once its decision is made and, for a
    /// commit, forced.
    pub fn close(&self) {
        self.0 .0.store(IDLE, Ordering::SeqCst);
    }
}

impl Drop for Round {
    fn drop(&mut self) {
        self.close();
    }
}

/// A coordinator's decision log, durable or volatile (see module docs).
pub struct DecisionLog {
    /// `None` for a volatile log.
    wal: Option<Arc<LogManager>>,
    /// Verdicts, latest per gtid, each with the end LSN of its record (0
    /// for the ones `open` read back and for every volatile one).
    decisions: Mutex<HashMap<Gtid, (bool, Lsn)>>,
    /// Decisions ever forced here, forgotten or not (a reopened log counts
    /// what it read back).
    forced: AtomicU64,
    /// Every live [`Round`]'s slot.
    rounds: Mutex<Vec<Arc<Slot>>>,
}

impl DecisionLog {
    /// Open (creating if absent) the durable decision log at `path` and load
    /// every whole record; a torn trailing record is cut off, never an
    /// error. A file holding anything else, such as the 9-byte records this
    /// log used before it was a WAL, is an error and is left as it was.
    pub fn open(path: &Path) -> io::Result<DecisionLog> {
        let (device, prior) = wal::reopen(path).map_err(io::Error::other)?;
        let decisions = analyze(&prior, 0).map_err(io::Error::other)?.decisions;
        let threshold = InstanceOptions::default().flush_threshold;
        Ok(DecisionLog {
            wal: Some(LogManager::new(device, threshold, Duration::ZERO)),
            forced: AtomicU64::new(decisions.len() as u64),
            decisions: Mutex::new(decisions.into_iter().map(|(g, c)| (g, (c, 0))).collect()),
            rounds: Mutex::default(),
        })
    }

    /// A decision log that is a map only, for a deployment nothing restarts.
    pub fn volatile() -> DecisionLog {
        DecisionLog {
            wal: None,
            decisions: Mutex::default(),
            forced: AtomicU64::new(0),
            rounds: Mutex::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<Gtid, (bool, Lsn)>> {
        self.decisions.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn slots(&self) -> MutexGuard<'_, Vec<Arc<Slot>>> {
        self.rounds.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a decision before returning, durably for a durable log, so the
    /// caller may act on it (send `Decision` frames, answer clients) knowing
    /// every later [`verdict`](Self::verdict) agrees. Idempotent per gtid.
    ///
    /// A durable log syncs with no lock held, so concurrent forces share the
    /// sync. A verdict enters the map once durable, and only over an earlier
    /// record's: the map then agrees with a reopen, where the latest record
    /// for a gtid wins, whichever force finishes first.
    pub fn force(&self, gtid: Gtid, commit: bool) -> io::Result<()> {
        let lsn = match &self.wal {
            None => 0,
            Some(_) if self.logged(gtid) == Some(commit) => return Ok(()),
            Some(wal) => {
                let lsn = wal.append(TxnId(gtid), &LogPayload::Decision { gtid, commit });
                wal.commit_durable(lsn).map_err(io::Error::other)?;
                lsn
            }
        };
        let mut decisions = self.lock();
        let logged = decisions.entry(gtid).or_insert((commit, lsn));
        if logged.1 <= lsn {
            *logged = (commit, lsn);
        }
        drop(decisions);
        self.forced.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Every participant bound by `gtid`'s decision has acknowledged it. A
    /// volatile log drops the record; a durable one keeps answering from
    /// what its file holds.
    pub fn forget(&self, gtid: Gtid) {
        if self.wal.is_none() {
            self.lock().remove(&gtid);
        }
    }

    /// A slot for one coordinator's rounds.
    pub fn round(&self) -> Round {
        let slot = Arc::new(Slot(AtomicU64::new(IDLE)));
        let mut slots = self.slots();
        // A slot only this log still holds belongs to a dropped Round.
        slots.retain(|s| Arc::strong_count(s) > 1);
        slots.push(Arc::clone(&slot));
        Round(slot)
    }

    /// The coordinator's answer about `gtid` ([`recovery::verdict`]):
    /// `Some(commit)` is final, `None` means a coordinator still has the
    /// round undecided — ask again.
    pub fn verdict(&self, gtid: Gtid) -> Option<bool> {
        // Rounds before records: a round leaves its slot only once its
        // commit record is in the map.
        let held = |s: &Arc<Slot>| s.0.load(Ordering::SeqCst) == gtid;
        let undecided = gtid != IDLE && self.slots().iter().any(held);
        recovery::verdict(self.logged(gtid), undecided)
    }

    /// The record held for `gtid`, if any.
    fn logged(&self, gtid: Gtid) -> Option<bool> {
        self.lock().get(&gtid).map(|&(commit, _)| commit)
    }

    /// Decisions forced so far; never decreases.
    pub fn forced(&self) -> u64 {
        self.forced.load(Ordering::Relaxed)
    }

    /// The largest gtid a record is held for (0 for none).
    pub fn last_gtid(&self) -> Gtid {
        self.lock().keys().copied().max().unwrap_or(0)
    }

    /// Number of distinct gtids with a record held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no record is held.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_storage::wal::record::encoded_len;
    use std::path::PathBuf;

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
        assert_eq!(log.verdict(7), Some(true));
        assert_eq!(log.verdict(9), Some(false));
        assert_eq!(log.verdict(1234), Some(false));
        assert_eq!(log.len(), 2);
        assert_eq!((log.forced(), log.last_gtid()), (2, 9));
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
        assert_eq!(log.verdict(1), Some(true));
        assert_eq!(
            log.verdict(2),
            Some(false),
            "the torn decision was never acted on, so presumed abort holds"
        );
        // The reopened log keeps appending correctly after the tear.
        log.force(3, true).unwrap();
        let log2 = DecisionLog::open(&path).unwrap();
        assert_eq!(log2.verdict(3), Some(true));
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
        assert_eq!(log.verdict(5), Some(true));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verdicts_read_the_rounds_in_flight_then_the_records() {
        let log = DecisionLog::volatile();
        log.force(7, true).unwrap();
        log.force(9, false).unwrap();
        let (round, other) = (log.round(), log.round());
        // A record: commit, even while its round is still fanning out.
        round.open(10);
        log.force(10, true).unwrap();
        assert_eq!(log.verdict(10), Some(true));
        round.close();
        assert_eq!(log.verdict(7), Some(true));
        assert_eq!(log.verdict(9), Some(false), "a kept abort record");
        // No record, round undecided: no answer yet, whoever holds it.
        other.open(11);
        assert_eq!(log.verdict(11), None);
        // No record, round decided: presumed abort.
        other.close();
        assert_eq!(log.verdict(11), Some(false));
        // A gtid never issued: no round holds it, so presumed abort, even
        // with another round in flight.
        round.open(12);
        assert_eq!(log.verdict(1234), Some(false));
        assert_eq!(log.verdict(0), Some(false), "an idle slot holds no gtid");
        // A dropped coordinator's round is no longer in flight.
        drop(round);
        assert_eq!(log.verdict(12), Some(false));
        // A volatile log forgets a record once every ack is in; a forced
        // decision still counts.
        log.forget(10);
        assert_eq!((log.len(), log.forced()), (2, 3));
        assert_eq!(log.last_gtid(), 9);
    }

    #[test]
    fn a_durable_log_keeps_what_it_was_told_to_forget() {
        let path = temp_log("forget");
        let log = DecisionLog::open(&path).unwrap();
        log.force(7, true).unwrap();
        log.forget(7);
        assert_eq!(log.verdict(7), Some(true));
        let _ = std::fs::remove_file(&path);
    }
}
