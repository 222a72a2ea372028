//! Log record types and their wire encoding.
//!
//! Framing: `[total_len: u32][txn: u64][tag: u8][payload...]`, little endian.
//! A record's LSN is the byte offset of its first frame byte in the log
//! stream; `lsn + total_len` is the LSN that must be durable for the record
//! to be durable.

use bytes::{Buf, BufMut};

use crate::error::{Result, StorageError};
use crate::{Lsn, TxnId};

/// What happened, from the log's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogPayload {
    /// Transaction start (informational; recovery treats unfinished
    /// transactions as aborted — presumed abort).
    Begin,
    /// Row inserted into `table` with primary `key`.
    Insert {
        table: u32,
        key: u64,
        data: Vec<u8>,
    },
    /// Row `key` in `table` changed from `before` to `after` (physiological
    /// undo/redo images).
    Update {
        table: u32,
        key: u64,
        before: Vec<u8>,
        after: Vec<u8>,
    },
    Commit,
    Abort,
    /// Participant side of 2PC: this transaction is prepared for global
    /// transaction `gtid` and may no longer unilaterally abort. Forced.
    Prepare {
        gtid: u64,
    },
    /// Coordinator side of 2PC: the global decision for `gtid`. Forced
    /// before phase 2 begins (presumed abort: only commits are logged
    /// before the fact; an unlogged gtid means abort).
    Decision {
        gtid: u64,
        commit: bool,
    },
    /// Transaction fully resolved (participant acked / coordinator done).
    End,
    /// Checkpoint completed; everything before `snapshot_lsn` is reflected
    /// in the on-store snapshot.
    Checkpoint {
        snapshot_lsn: Lsn,
    },
}

const TAG_BEGIN: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_PREPARE: u8 = 6;
const TAG_DECISION: u8 = 7;
const TAG_END: u8 = 8;
const TAG_CHECKPOINT: u8 = 9;

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Byte offset of this record in the log stream.
    pub lsn: Lsn,
    pub txn: TxnId,
    pub payload: LogPayload,
}

impl LogRecord {
    /// LSN that must be durable for this record to be durable.
    pub fn end_lsn(&self) -> Lsn {
        self.lsn + encoded_len(&self.payload) as u64
    }
}

fn payload_body_len(p: &LogPayload) -> usize {
    match p {
        LogPayload::Begin | LogPayload::Commit | LogPayload::Abort | LogPayload::End => 0,
        LogPayload::Insert { data, .. } => 4 + 8 + 4 + data.len(),
        LogPayload::Update { before, after, .. } => 4 + 8 + 4 + before.len() + 4 + after.len(),
        LogPayload::Prepare { .. } => 8,
        LogPayload::Decision { .. } => 9,
        LogPayload::Checkpoint { .. } => 8,
    }
}

/// Total encoded size of a record with payload `p`.
pub fn encoded_len(p: &LogPayload) -> usize {
    4 + 8 + 1 + payload_body_len(p)
}

/// Append the encoding of `(txn, payload)` to `out`.
pub fn encode(txn: TxnId, payload: &LogPayload, out: &mut Vec<u8>) {
    let total = encoded_len(payload);
    out.reserve(total);
    out.put_u32_le(total as u32);
    out.put_u64_le(txn.0);
    match payload {
        LogPayload::Begin => out.put_u8(TAG_BEGIN),
        LogPayload::Insert { table, key, data } => {
            out.put_u8(TAG_INSERT);
            out.put_u32_le(*table);
            out.put_u64_le(*key);
            out.put_u32_le(data.len() as u32);
            out.put_slice(data);
        }
        LogPayload::Update {
            table,
            key,
            before,
            after,
        } => {
            out.put_u8(TAG_UPDATE);
            out.put_u32_le(*table);
            out.put_u64_le(*key);
            out.put_u32_le(before.len() as u32);
            out.put_slice(before);
            out.put_u32_le(after.len() as u32);
            out.put_slice(after);
        }
        LogPayload::Commit => out.put_u8(TAG_COMMIT),
        LogPayload::Abort => out.put_u8(TAG_ABORT),
        LogPayload::Prepare { gtid } => {
            out.put_u8(TAG_PREPARE);
            out.put_u64_le(*gtid);
        }
        LogPayload::Decision { gtid, commit } => {
            out.put_u8(TAG_DECISION);
            out.put_u64_le(*gtid);
            out.put_u8(*commit as u8);
        }
        LogPayload::End => out.put_u8(TAG_END),
        LogPayload::Checkpoint { snapshot_lsn } => {
            out.put_u8(TAG_CHECKPOINT);
            out.put_u64_le(*snapshot_lsn);
        }
    }
}

/// Check that `b` still holds `n` payload bytes (a torn or corrupt record
/// otherwise claims more bytes than its frame carries).
fn need(b: &[u8], n: usize, lsn: Lsn) -> Result<()> {
    if b.len() < n {
        return Err(StorageError::CorruptLog(format!(
            "truncated payload at lsn {lsn}"
        )));
    }
    Ok(())
}

/// Whether `rest`, bytes after the last whole record that do not decode,
/// is what a crash mid-flush leaves: a header cut short, a length field
/// running past the end, or zeros the file grew by before its data landed.
pub fn is_torn(rest: &[u8]) -> bool {
    rest.len() < 13
        || u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize > rest.len()
        || rest.iter().all(|&b| b == 0)
}

/// Decode one record starting at `lsn` from `buf`; returns the record and
/// the number of bytes consumed. Total: every malformed input — truncated
/// header, inner length fields pointing past the frame, unknown tag — is a
/// [`StorageError::CorruptLog`], never a panic, so recovery can treat a torn
/// log tail as end-of-log.
pub fn decode(buf: &[u8], lsn: Lsn) -> Result<(LogRecord, usize)> {
    if buf.len() < 13 {
        return Err(StorageError::CorruptLog(format!(
            "truncated header at lsn {lsn}"
        )));
    }
    let mut b = buf;
    let total = b.get_u32_le() as usize;
    if total < 13 || total > buf.len() {
        return Err(StorageError::CorruptLog(format!(
            "bad record length {total} at lsn {lsn}"
        )));
    }
    let txn = TxnId(b.get_u64_le());
    let tag = b.get_u8();
    // Parse the payload strictly inside this record's frame, so a corrupt
    // inner length can neither panic nor read into the next record.
    let mut b = &buf[13..total];
    let payload = match tag {
        TAG_BEGIN => LogPayload::Begin,
        TAG_INSERT => {
            need(b, 16, lsn)?;
            let table = b.get_u32_le();
            let key = b.get_u64_le();
            let n = b.get_u32_le() as usize;
            need(b, n, lsn)?;
            let data = b[..n].to_vec();
            LogPayload::Insert { table, key, data }
        }
        TAG_UPDATE => {
            need(b, 16, lsn)?;
            let table = b.get_u32_le();
            let key = b.get_u64_le();
            let nb = b.get_u32_le() as usize;
            need(b, nb, lsn)?;
            let before = b[..nb].to_vec();
            b.advance(nb);
            need(b, 4, lsn)?;
            let na = b.get_u32_le() as usize;
            need(b, na, lsn)?;
            let after = b[..na].to_vec();
            LogPayload::Update {
                table,
                key,
                before,
                after,
            }
        }
        TAG_COMMIT => LogPayload::Commit,
        TAG_ABORT => LogPayload::Abort,
        TAG_PREPARE => {
            need(b, 8, lsn)?;
            LogPayload::Prepare {
                gtid: b.get_u64_le(),
            }
        }
        TAG_DECISION => {
            need(b, 9, lsn)?;
            let gtid = b.get_u64_le();
            let commit = b.get_u8() != 0;
            LogPayload::Decision { gtid, commit }
        }
        TAG_END => LogPayload::End,
        TAG_CHECKPOINT => {
            need(b, 8, lsn)?;
            LogPayload::Checkpoint {
                snapshot_lsn: b.get_u64_le(),
            }
        }
        t => {
            return Err(StorageError::CorruptLog(format!(
                "unknown tag {t} at lsn {lsn}"
            )))
        }
    };
    Ok((LogRecord { lsn, txn, payload }, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(p: LogPayload) {
        let mut buf = Vec::new();
        encode(TxnId(77), &p, &mut buf);
        assert_eq!(buf.len(), encoded_len(&p));
        let (rec, used) = decode(&buf, 1000).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(rec.txn, TxnId(77));
        assert_eq!(rec.lsn, 1000);
        assert_eq!(rec.payload, p);
        assert_eq!(rec.end_lsn(), 1000 + buf.len() as u64);
    }

    #[test]
    fn all_payloads_round_trip() {
        round_trip(LogPayload::Begin);
        round_trip(LogPayload::Insert {
            table: 3,
            key: 42,
            data: vec![1, 2, 3, 4, 5],
        });
        round_trip(LogPayload::Update {
            table: 3,
            key: 42,
            before: vec![0; 100],
            after: vec![9; 100],
        });
        round_trip(LogPayload::Commit);
        round_trip(LogPayload::Abort);
        round_trip(LogPayload::Prepare { gtid: 0xDEAD });
        round_trip(LogPayload::Decision {
            gtid: 0xBEEF,
            commit: true,
        });
        round_trip(LogPayload::Decision {
            gtid: 0xBEEF,
            commit: false,
        });
        round_trip(LogPayload::End);
        round_trip(LogPayload::Checkpoint { snapshot_lsn: 512 });
    }

    #[test]
    fn stream_of_records_decodes_sequentially() {
        let mut buf = Vec::new();
        encode(TxnId(1), &LogPayload::Begin, &mut buf);
        encode(
            TxnId(1),
            &LogPayload::Insert {
                table: 1,
                key: 7,
                data: vec![7; 16],
            },
            &mut buf,
        );
        encode(TxnId(1), &LogPayload::Commit, &mut buf);
        let mut lsn = 0u64;
        let mut kinds = Vec::new();
        while (lsn as usize) < buf.len() {
            let (rec, used) = decode(&buf[lsn as usize..], lsn).unwrap();
            kinds.push(std::mem::discriminant(&rec.payload));
            lsn += used as u64;
        }
        assert_eq!(kinds.len(), 3);
    }

    #[test]
    fn corrupt_inputs_error() {
        assert!(matches!(
            decode(&[1, 2, 3], 0),
            Err(StorageError::CorruptLog(_))
        ));
        let mut buf = Vec::new();
        encode(TxnId(1), &LogPayload::Commit, &mut buf);
        buf[12] = 99; // unknown tag
        assert!(matches!(decode(&buf, 0), Err(StorageError::CorruptLog(_))));
        // Length larger than buffer.
        let mut buf2 = Vec::new();
        encode(TxnId(1), &LogPayload::Commit, &mut buf2);
        buf2[0] = 200;
        assert!(matches!(decode(&buf2, 0), Err(StorageError::CorruptLog(_))));
    }

    #[test]
    fn inner_length_past_frame_is_an_error_not_a_panic() {
        // An Insert whose data-length field claims more bytes than the frame
        // holds (a torn tail landing mid-payload).
        let mut buf = Vec::new();
        encode(
            TxnId(1),
            &LogPayload::Insert {
                table: 1,
                key: 7,
                data: vec![7; 4],
            },
            &mut buf,
        );
        buf[13 + 12] = 0xFF; // data length low byte → 255 > 4 remaining
        assert!(matches!(decode(&buf, 0), Err(StorageError::CorruptLog(_))));
        // Same for an Update's before/after images.
        let mut buf = Vec::new();
        encode(
            TxnId(1),
            &LogPayload::Update {
                table: 1,
                key: 7,
                before: vec![0; 4],
                after: vec![9; 4],
            },
            &mut buf,
        );
        buf[13 + 12] = 0xFF;
        assert!(matches!(decode(&buf, 0), Err(StorageError::CorruptLog(_))));
        // Fixed-size payloads truncated by a lying total_len.
        for p in [
            LogPayload::Prepare { gtid: 1 },
            LogPayload::Decision {
                gtid: 1,
                commit: true,
            },
            LogPayload::Checkpoint { snapshot_lsn: 1 },
        ] {
            let mut buf = Vec::new();
            encode(TxnId(1), &p, &mut buf);
            buf[0] = 13; // claim an empty payload
            assert!(matches!(decode(&buf, 0), Err(StorageError::CorruptLog(_))));
        }
    }
}
