//! Log analysis and logical redo.
//!
//! Recovery discipline (documented also in DESIGN.md): the store holds the
//! last checkpoint *snapshot* plus any pages stolen since (dirty evictions
//! behind the WAL barrier), and the log holds everything after the
//! snapshot. Recovery is logical and key-based:
//!
//! 1. **Replay** the resolved history forward, in one LSN-ordered pass:
//!    a committed transaction's operations at their own log positions
//!    (idempotent: inserts are insert-if-missing, updates set after-images),
//!    and an aborted transaction's before-images at the position of its
//!    `Abort` record. The rollback happened *there* in the old incarnation
//!    — before the transaction's locks were released — so any later
//!    committed write to the same row comes after it in the pass and
//!    survives. (Restoring the before-images is a no-op unless a stolen
//!    page carried the aborted write into the store.)
//! 2. **Undo** loser transactions — in flight at the crash, no outcome
//!    logged — in reverse LSN order using logged before-images (two-phase
//!    locking guarantees no committed write follows an unresolved loser
//!    write on the same key, so running this after the forward pass is
//!    safe).
//!
//! Two-phase commit (presumed abort):
//! * A participant transaction that logged `Prepare` but no `Commit`/`Abort`
//!   is **in doubt**: its effects are withheld and reported in
//!   [`LogAnalysis::in_doubt`]; the deployment layer resolves it against the
//!   coordinator's logged [`LogPayload::Decision`] and applies
//!   [`LogAnalysis::in_doubt_ops`] if the decision was commit.
//! * A coordinator with no logged decision for a gtid presumes abort.

use std::collections::{HashMap, HashSet};

use crate::error::Result;
use crate::wal::record::{decode, LogPayload};
use crate::{Lsn, TxnId};

/// A redo-able logical operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedoOp {
    Insert {
        table: u32,
        key: u64,
        data: Vec<u8>,
    },
    Update {
        table: u32,
        key: u64,
        after: Vec<u8>,
    },
}

/// An undo-able logical operation (for losers and aborted in-doubt txns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoOp {
    /// Restore a before-image.
    Revert {
        table: u32,
        key: u64,
        before: Vec<u8>,
    },
    /// Remove a row the loser inserted.
    Remove { table: u32, key: u64 },
}

/// One step of the forward replay pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOp {
    /// A committed transaction's operation, at the operation's LSN.
    Redo(RedoOp),
    /// One before-image of an aborted transaction, at its `Abort` record's
    /// LSN (a transaction's images appear newest first).
    Rollback(UndoOp),
}

/// Everything recovery needs to know about a log suffix.
#[derive(Debug, Default)]
pub struct LogAnalysis {
    pub committed: HashSet<TxnId>,
    pub aborted: HashSet<TxnId>,
    /// Prepared, no local outcome: gtid by transaction.
    pub in_doubt: HashMap<TxnId, u64>,
    /// Coordinator decisions found in this log: gtid → commit?
    pub decisions: HashMap<u64, bool>,
    /// The forward pass, in LSN order: committed work redone and aborted
    /// work rolled back where the log says each happened.
    pub replay: Vec<(Lsn, TxnId, ReplayOp)>,
    /// Undo ops of loser transactions (no logged outcome), in LSN order
    /// (apply in reverse, after the forward pass).
    pub undo: Vec<(Lsn, TxnId, UndoOp)>,
    /// Redo ops of in-doubt transactions (applied on a commit decision).
    pub in_doubt_ops: HashMap<TxnId, Vec<RedoOp>>,
    /// Undo ops of in-doubt transactions (applied on an abort decision),
    /// already reversed into application order.
    pub in_doubt_undo: HashMap<TxnId, Vec<UndoOp>>,
    /// LSN of the last checkpoint record seen, if any.
    pub last_checkpoint: Option<Lsn>,
    /// LSN where scanning stopped early because the log tail was torn or
    /// corrupt (a crash mid-flush); everything before it was analyzed.
    pub torn_tail: Option<Lsn>,
    pub records_scanned: u64,
}

/// Scan `log` starting at byte offset `from_lsn` (records must be aligned
/// with record boundaries, e.g. a checkpoint's `snapshot_lsn`).
///
/// Total over arbitrary byte prefixes: a torn or corrupt tail — the normal
/// residue of a crash mid-flush — ends the scan cleanly at the last whole
/// record (recorded in [`LogAnalysis::torn_tail`]) instead of erroring. The
/// write-ahead rule makes this safe: nothing past the torn record was ever
/// acknowledged durable.
pub fn analyze(log: &[u8], from_lsn: Lsn) -> Result<LogAnalysis> {
    let mut a = LogAnalysis::default();
    // ops per live txn until we know the outcome: (lsn, redo, undo).
    type PendingOp = (Lsn, RedoOp, UndoOp);
    let mut pending: HashMap<TxnId, Vec<PendingOp>> = HashMap::new();
    let mut prepared: HashMap<TxnId, u64> = HashMap::new();
    let mut lsn = from_lsn;
    while (lsn as usize) < log.len() {
        let (rec, used) = match decode(&log[lsn as usize..], lsn) {
            Ok(ok) => ok,
            Err(_) => {
                a.torn_tail = Some(lsn);
                break;
            }
        };
        a.records_scanned += 1;
        match rec.payload {
            LogPayload::Begin => {
                pending.entry(rec.txn).or_default();
            }
            LogPayload::Insert { table, key, data } => {
                pending.entry(rec.txn).or_default().push((
                    rec.lsn,
                    RedoOp::Insert { table, key, data },
                    UndoOp::Remove { table, key },
                ));
            }
            LogPayload::Update {
                table,
                key,
                before,
                after,
            } => {
                pending.entry(rec.txn).or_default().push((
                    rec.lsn,
                    RedoOp::Update { table, key, after },
                    UndoOp::Revert { table, key, before },
                ));
            }
            LogPayload::Commit => {
                a.committed.insert(rec.txn);
                prepared.remove(&rec.txn);
                for (l, op, _) in pending.remove(&rec.txn).unwrap_or_default() {
                    a.replay.push((l, rec.txn, ReplayOp::Redo(op)));
                }
            }
            LogPayload::Abort => {
                a.aborted.insert(rec.txn);
                prepared.remove(&rec.txn);
                // The rollback ran in memory right here, under the
                // transaction's locks; pages stolen before it may still
                // hold the aborted writes, so replay it at this position
                // (idempotent), newest image first. Deferring it to the
                // loser pass would run it after later committed writes to
                // the same rows were redone, and erase them.
                for (_, _, undo) in pending
                    .remove(&rec.txn)
                    .unwrap_or_default()
                    .into_iter()
                    .rev()
                {
                    a.replay.push((rec.lsn, rec.txn, ReplayOp::Rollback(undo)));
                }
            }
            LogPayload::Prepare { gtid } => {
                prepared.insert(rec.txn, gtid);
            }
            LogPayload::Decision { gtid, commit } => {
                a.decisions.insert(gtid, commit);
            }
            LogPayload::End => {}
            LogPayload::Checkpoint { .. } => {
                a.last_checkpoint = Some(rec.lsn);
            }
        }
        lsn += used as u64;
    }
    // Unresolved transactions: prepared ones are in doubt, the rest are
    // presumed aborted (loser transactions).
    for (txn, gtid) in prepared {
        a.in_doubt.insert(txn, gtid);
        let ops = pending.remove(&txn).unwrap_or_default();
        a.in_doubt_ops
            .insert(txn, ops.iter().map(|(_, r, _)| r.clone()).collect());
        a.in_doubt_undo
            .insert(txn, ops.into_iter().rev().map(|(_, _, u)| u).collect());
    }
    // Remaining pending transactions are losers: undo them.
    for (txn, ops) in pending {
        for (l, _, undo) in ops {
            a.undo.push((l, txn, undo));
        }
    }
    // Stable sorts: an aborted transaction's images share its Abort LSN and
    // must keep their newest-first order. Undo is applied in reverse.
    a.replay.sort_by_key(|&(l, _, _)| l);
    a.undo.sort_by_key(|&(l, _, _)| l);
    Ok(a)
}

/// Find the byte offset to start analysis from: the `snapshot_lsn` of the
/// last checkpoint record in `log`, or 0. Like [`analyze`], a torn tail
/// ends the scan at the last whole record instead of erroring.
pub fn find_redo_start(log: &[u8]) -> Result<Lsn> {
    let mut lsn = 0u64;
    let mut start = 0u64;
    while (lsn as usize) < log.len() {
        let Ok((rec, used)) = decode(&log[lsn as usize..], lsn) else {
            break;
        };
        if let LogPayload::Checkpoint { snapshot_lsn } = rec.payload {
            start = snapshot_lsn;
        }
        lsn += used as u64;
    }
    Ok(start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::record::encode;

    fn build(records: &[(u64, LogPayload)]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (txn, p) in records {
            encode(TxnId(*txn), p, &mut buf);
        }
        buf
    }

    fn ins(k: u64) -> LogPayload {
        LogPayload::Insert {
            table: 1,
            key: k,
            data: vec![k as u8],
        }
    }

    fn upd(k: u64, v: u8) -> LogPayload {
        LogPayload::Update {
            table: 1,
            key: k,
            before: vec![0],
            after: vec![v],
        }
    }

    #[test]
    fn committed_ops_are_redone_in_order() {
        let log = build(&[
            (1, LogPayload::Begin),
            (2, LogPayload::Begin),
            (1, ins(10)),
            (2, ins(20)),
            (1, upd(10, 7)),
            (1, LogPayload::Commit),
            (2, LogPayload::Commit),
        ]);
        let a = analyze(&log, 0).unwrap();
        assert_eq!(a.committed.len(), 2);
        assert_eq!(a.replay.len(), 3);
        // LSN order preserved across transactions.
        assert!(a.replay.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn loser_transactions_are_undone_not_redone() {
        let log = build(&[
            (1, LogPayload::Begin),
            (1, ins(10)),
            (1, upd(11, 4)),
            (2, LogPayload::Begin),
            (2, ins(20)),
            (2, LogPayload::Abort),
            // txn 1 never resolves: presumed abort.
        ]);
        let a = analyze(&log, 0).unwrap();
        assert!(a.aborted.contains(&TxnId(2)));
        assert!(!a.committed.contains(&TxnId(1)));
        assert!(a.in_doubt.is_empty());
        // Txn 2 aborted: its rollback (stolen pages may hold the insert) is
        // part of the forward pass. Txn 1 never resolved: a true loser.
        assert_eq!(
            a.replay
                .iter()
                .map(|(_, t, op)| (*t, op))
                .collect::<Vec<_>>(),
            vec![(
                TxnId(2),
                &ReplayOp::Rollback(UndoOp::Remove { table: 1, key: 20 })
            )]
        );
        assert!(a.undo.iter().all(|&(_, t, _)| t == TxnId(1)));
        // Undo for txn 1 includes removing the insert and reverting the
        // update.
        assert!(a
            .undo
            .iter()
            .any(|(_, t, u)| *t == TxnId(1) && matches!(u, UndoOp::Remove { key: 10, .. })));
        assert!(a
            .undo
            .iter()
            .any(|(_, t, u)| *t == TxnId(1) && matches!(u, UndoOp::Revert { key: 11, .. })));
    }

    #[test]
    fn prepared_without_outcome_is_in_doubt() {
        let log = build(&[
            (5, LogPayload::Begin),
            (5, upd(3, 9)),
            (5, LogPayload::Prepare { gtid: 77 }),
        ]);
        let a = analyze(&log, 0).unwrap();
        assert_eq!(a.in_doubt.get(&TxnId(5)), Some(&77));
        assert_eq!(
            a.in_doubt_ops.get(&TxnId(5)).unwrap(),
            &vec![RedoOp::Update {
                table: 1,
                key: 3,
                after: vec![9]
            }]
        );
        assert_eq!(
            a.in_doubt_undo.get(&TxnId(5)).unwrap(),
            &vec![UndoOp::Revert {
                table: 1,
                key: 3,
                before: vec![0]
            }]
        );
        assert!(a.replay.is_empty(), "in-doubt effects are withheld");
        assert!(a.undo.is_empty(), "in-doubt txns are not losers");
    }

    #[test]
    fn prepared_then_committed_is_normal_redo() {
        let log = build(&[
            (5, LogPayload::Begin),
            (5, upd(3, 9)),
            (5, LogPayload::Prepare { gtid: 77 }),
            (5, LogPayload::Commit),
            (5, LogPayload::End),
        ]);
        let a = analyze(&log, 0).unwrap();
        assert!(a.in_doubt.is_empty());
        assert_eq!(a.replay.len(), 1);
    }

    #[test]
    fn coordinator_decisions_collected() {
        let log = build(&[
            (
                9,
                LogPayload::Decision {
                    gtid: 42,
                    commit: true,
                },
            ),
            (
                9,
                LogPayload::Decision {
                    gtid: 43,
                    commit: false,
                },
            ),
        ]);
        let a = analyze(&log, 0).unwrap();
        assert_eq!(a.decisions.get(&42), Some(&true));
        assert_eq!(a.decisions.get(&43), Some(&false));
    }

    #[test]
    fn torn_tail_stops_cleanly_after_last_whole_record() {
        let mut log = build(&[
            (1, LogPayload::Begin),
            (1, ins(10)),
            (1, LogPayload::Commit),
            (2, LogPayload::Begin),
            (2, ins(20)),
        ]);
        let whole = log.len();
        // Tear mid-record: append half of a commit frame.
        let tail = build(&[(2, LogPayload::Commit)]);
        log.extend_from_slice(&tail[..tail.len() / 2]);
        let a = analyze(&log, 0).unwrap();
        assert_eq!(a.torn_tail, Some(whole as u64));
        assert!(a.committed.contains(&TxnId(1)));
        // Txn 2's commit never became durable: it is a loser, undone.
        assert!(!a.committed.contains(&TxnId(2)));
        assert!(a
            .undo
            .iter()
            .any(|(_, t, u)| *t == TxnId(2) && matches!(u, UndoOp::Remove { key: 20, .. })));
        assert_eq!(find_redo_start(&log).unwrap(), 0);
    }

    type Model = std::collections::HashMap<(u32, u64), Vec<u8>>;

    fn undo_model(model: &mut Model, op: &UndoOp) {
        match op {
            UndoOp::Revert { table, key, before } => {
                if model.contains_key(&(*table, *key)) {
                    model.insert((*table, *key), before.clone());
                }
            }
            UndoOp::Remove { table, key } => {
                model.remove(&(*table, *key));
            }
        }
    }

    /// Apply an analysis to a key→row model the way recovery applies it to
    /// the store: the forward pass in LSN order, then loser undo in reverse.
    fn apply_model(model: &mut Model, a: &LogAnalysis) {
        for (_, _, op) in &a.replay {
            match op {
                ReplayOp::Redo(RedoOp::Insert { table, key, data }) => {
                    model.entry((*table, *key)).or_insert_with(|| data.clone());
                }
                ReplayOp::Redo(RedoOp::Update { table, key, after }) => {
                    model.insert((*table, *key), after.clone());
                }
                ReplayOp::Rollback(undo) => undo_model(model, undo),
            }
        }
        for (_, _, op) in a.undo.iter().rev() {
            undo_model(model, op);
        }
    }

    #[test]
    fn commit_after_an_abort_on_the_same_row_survives_replay() {
        let t1 = LogPayload::Update {
            table: 1,
            key: 5,
            before: vec![0],
            after: vec![1],
        };
        let t2 = LogPayload::Update {
            table: 1,
            key: 5,
            before: vec![0],
            after: vec![2],
        };
        let log = build(&[
            (1, LogPayload::Begin),
            (1, t1),
            (1, LogPayload::Abort),
            (2, LogPayload::Begin),
            (2, t2),
            (2, LogPayload::Commit),
        ]);
        let a = analyze(&log, 0).unwrap();
        assert!(a.undo.is_empty(), "an aborted txn is not a loser");
        let mut model = Model::from([((1, 5), vec![0])]);
        apply_model(&mut model, &a);
        assert_eq!(model[&(1, 5)], vec![2], "T2's committed image must survive");
        // Same shape with inserts: the aborted insert's removal must not
        // take the later committed row with it.
        let log = build(&[
            (1, ins(9)),
            (1, LogPayload::Abort),
            (2, ins(9)),
            (2, LogPayload::Commit),
        ]);
        let mut model = Model::new();
        apply_model(&mut model, &analyze(&log, 0).unwrap());
        assert_eq!(model.get(&(1, 9)), Some(&vec![9]));
    }

    #[test]
    fn aborted_txn_rolls_back_newest_image_first() {
        let step = |before: u8, after: u8| LogPayload::Update {
            table: 1,
            key: 5,
            before: vec![before],
            after: vec![after],
        };
        // A stolen page carried the aborted txn's last write into the store.
        let log = build(&[(1, step(0, 1)), (1, step(1, 2)), (1, LogPayload::Abort)]);
        let mut model = Model::from([((1, 5), vec![2])]);
        apply_model(&mut model, &analyze(&log, 0).unwrap());
        assert_eq!(model[&(1, 5)], vec![0]);
    }

    proptest::proptest! {
        /// Analysis over any byte-truncated prefix of a well-formed log is
        /// total (no panic, no error) and replay is idempotent: applying the
        /// analysis twice leaves the model exactly as applying it once.
        #[test]
        fn truncated_prefix_analysis_is_total_and_idempotent(
            txns in proptest::collection::vec((1u64..6, 0u64..8, 0u8..4), 1..24),
            cut in 0usize..2048,
            flip in (0usize..2048, 0u8..=255),
        ) {
            let mut log = Vec::new();
            for (txn, key, kind) in txns {
                let payload = match kind {
                    0 => ins(key),
                    1 => upd(key, (key as u8).wrapping_add(1)),
                    2 => LogPayload::Commit,
                    _ => LogPayload::Prepare { gtid: key },
                };
                encode(TxnId(txn), &payload, &mut log);
            }
            log.truncate(cut.min(log.len()));
            // A flipped byte anywhere must still leave analysis total
            // (xor == 0 covers the unmutated case).
            let (at, xor) = flip;
            if !log.is_empty() {
                let at = at % log.len();
                log[at] ^= xor;
            }
            let a = analyze(&log, 0).unwrap();
            let mut once = std::collections::HashMap::new();
            apply_model(&mut once, &a);
            let mut twice = once.clone();
            // Replaying the same analysis again must be a no-op: redo is
            // insert-if-missing / set-after, undo reverts or removes.
            let a2 = analyze(&log, 0).unwrap();
            proptest::prop_assert_eq!(a.records_scanned, a2.records_scanned);
            proptest::prop_assert_eq!(a.torn_tail, a2.torn_tail);
            apply_model(&mut twice, &a2);
            proptest::prop_assert_eq!(once, twice);
        }
    }

    #[test]
    fn checkpoint_start_is_found() {
        let mut log = build(&[(1, LogPayload::Begin), (1, ins(1)), (1, LogPayload::Commit)]);
        let snapshot_lsn = log.len() as u64;
        let tail = build(&[
            (0, LogPayload::Checkpoint { snapshot_lsn }),
            (2, LogPayload::Begin),
            (2, ins(2)),
            (2, LogPayload::Commit),
        ]);
        log.extend_from_slice(&tail);
        let start = find_redo_start(&log).unwrap();
        assert_eq!(start, snapshot_lsn);
        let a = analyze(&log, start).unwrap();
        // Only txn 2's insert is redone; txn 1 is in the snapshot.
        assert_eq!(a.replay.len(), 1);
        assert_eq!(a.replay[0].1, TxnId(2));
    }
}
