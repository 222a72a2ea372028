//! The pure group-commit log buffer: LSN arithmetic, the durability
//! ratchet and the one group-commit policy, with no clock, lock or device in
//! it.
//!
//! The policy is leader/follower. A committer that needs an LSN durable asks
//! [`LogBuffer::force`]: the LSN is already durable, or a flush is in flight
//! and the committer waits for it, or nobody is flushing and the committer
//! leads — it writes the batch it is handed and gives it back with
//! [`LogBuffer::written`] (or [`LogBuffer::failed`]). An appender that fills
//! the buffer past `flush_threshold` asks [`LogBuffer::due`] and leads a
//! batch the same way. There is no timer: a group is whoever appended while
//! the previous leader was in the device.
//!
//! Two drivers run this policy, like `LockTable`'s: the served
//! [`LogManager`](crate::wal::native::LogManager) with a mutex, a condvar and
//! a real device, and the simulator (`islands-core`'s `simrt`) in simulated
//! time over a modelled log disk.

use crate::wal::record::{self, LogPayload, RowChange};
use crate::{Lsn, TxnId};

/// In-memory unflushed log tail and the flush in flight.
#[derive(Debug)]
pub struct LogBuffer {
    buf: Vec<u8>,
    /// The previous batch's allocation, handed back with the batch and
    /// swapped in by the next cut, so steady-state flushing allocates
    /// nothing.
    spare: Vec<u8>,
    /// LSN of `buf[0]`.
    base_lsn: Lsn,
    durable_lsn: Lsn,
    /// A leader holds a cut batch and has not handed it back yet.
    flushing: bool,
    flush_threshold: usize,
    flushes: u64,
}

/// Bytes a leader writes to the device and then hands back to the buffer.
#[derive(Debug)]
pub struct Batch {
    bytes: Vec<u8>,
    /// LSN just past the batch: durable once it is written.
    end: Lsn,
}

impl Batch {
    /// The record bytes to write, in stream order.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// What a committer needing an LSN durable does next.
#[derive(Debug)]
pub enum Force {
    /// The LSN is durable: return.
    Durable,
    /// A flush is in flight: wait for it to be handed back, then ask again.
    Wait,
    /// Nobody is flushing: write this batch, hand it back, then ask again.
    Lead(Batch),
}

impl LogBuffer {
    /// A buffer whose stream continues at `base_lsn`: 0 for a fresh log,
    /// or the length of the whole records a reopened log device already
    /// holds ([`reopen`](crate::wal::reopen)). Everything up to `base_lsn`
    /// is on the device, so it starts durable.
    pub fn new(flush_threshold: usize, base_lsn: Lsn) -> Self {
        LogBuffer {
            buf: Vec::with_capacity(flush_threshold * 2),
            spare: Vec::new(),
            base_lsn,
            durable_lsn: base_lsn,
            flushing: false,
            flush_threshold,
            flushes: 0,
        }
    }

    /// Append a record; returns the LSN that must become durable for the
    /// record to be durable (its end LSN).
    pub fn append(&mut self, txn: TxnId, payload: &LogPayload) -> Lsn {
        record::encode(txn, payload, &mut self.buf);
        self.end_lsn()
    }

    /// [`append`](Self::append) a row change from borrowed images.
    pub fn append_row(&mut self, txn: TxnId, row: RowChange<'_>) -> Lsn {
        record::encode_row(txn, row, &mut self.buf);
        self.end_lsn()
    }

    /// Current end of the log stream.
    pub fn end_lsn(&self) -> Lsn {
        self.base_lsn + self.buf.len() as u64
    }

    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }

    pub fn is_durable(&self, lsn: Lsn) -> bool {
        self.durable_lsn >= lsn
    }

    /// The group-commit decision for a committer that needs `lsn` durable.
    pub fn force(&mut self, lsn: Lsn) -> Force {
        if self.is_durable(lsn) {
            Force::Durable
        } else if self.flushing {
            Force::Wait
        } else {
            Force::Lead(self.cut())
        }
    }

    /// After an append: the batch to write now if the buffer holds at least
    /// `flush_threshold` bytes and no flush is in flight.
    pub fn due(&mut self) -> Option<Batch> {
        (!self.flushing && self.buf.len() >= self.flush_threshold).then(|| self.cut())
    }

    /// Everything buffered becomes the batch in flight. Appends continue at
    /// the right LSN meanwhile. With no flush in flight every earlier batch
    /// was handed back written, so a committer whose LSN is not durable
    /// finds its record here and the batch is never empty. Out of line:
    /// it runs once a batch, and inlined it fattens every `append` and
    /// `commit_durable` of the served log.
    #[inline(never)]
    fn cut(&mut self) -> Batch {
        self.flushing = true;
        self.flushes += 1;
        let bytes = std::mem::replace(&mut self.buf, std::mem::take(&mut self.spare));
        self.base_lsn += bytes.len() as u64;
        Batch {
            bytes,
            end: self.base_lsn,
        }
    }

    /// The leader wrote `batch` to the device: it is durable, and its
    /// allocation fills the next batch.
    pub fn written(&mut self, mut batch: Batch) {
        self.flushing = false;
        self.durable_lsn = self.durable_lsn.max(batch.end);
        batch.bytes.clear();
        self.spare = batch.bytes;
    }

    /// The leader's write failed: the batch is not durable and goes back in
    /// front of whatever was appended since, so the buffer still holds every
    /// byte past the durable LSN. Whether to try again is the driver's call
    /// (the served log poisons itself and never does).
    pub fn failed(&mut self, mut batch: Batch) {
        self.flushing = false;
        self.base_lsn -= batch.bytes.len() as u64;
        batch.bytes.append(&mut self.buf);
        self.spare = std::mem::replace(&mut self.buf, batch.bytes);
    }

    /// `(bytes appended, flush batches cut)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.end_lsn(), self.flushes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lead(lb: &mut LogBuffer, lsn: Lsn) -> Batch {
        match lb.force(lsn) {
            Force::Lead(batch) => batch,
            other => panic!("expected to lead, got {other:?}"),
        }
    }

    #[test]
    fn append_advances_lsn_by_encoded_len() {
        let mut lb = LogBuffer::new(1024, 0);
        let l1 = lb.append(TxnId(1), &LogPayload::Begin);
        let l2 = lb.append(TxnId(1), &LogPayload::Commit);
        assert_eq!(l1, record::encoded_len(&LogPayload::Begin) as u64);
        assert_eq!(l2, l1 + record::encoded_len(&LogPayload::Commit) as u64);
        assert_eq!(lb.end_lsn(), l2);
    }

    #[test]
    fn durability_ratchets_through_batches() {
        let mut lb = LogBuffer::new(1 << 10, 0);
        let l1 = lb.append(TxnId(1), &LogPayload::Commit);
        assert!(!lb.is_durable(l1));
        let batch = lead(&mut lb, l1);
        assert_eq!(batch.bytes().len() as u64, l1);

        // Appends during the flush in flight keep correct LSNs, and their
        // committers wait for it rather than lead a second one.
        let l2 = lb.append(TxnId(2), &LogPayload::Commit);
        assert_eq!(l2, 2 * l1);
        assert!(matches!(lb.force(l2), Force::Wait));
        lb.written(batch);
        assert!(lb.is_durable(l1));
        assert!(matches!(lb.force(l1), Force::Durable));

        let batch = lead(&mut lb, l2);
        assert_eq!(batch.bytes().len() as u64, l2 - l1);
        lb.written(batch);
        assert!(lb.is_durable(l2));
        assert_eq!(lb.stats(), (l2, 2));
    }

    #[test]
    fn a_failed_batch_comes_back_ahead_of_later_appends() {
        let mut lb = LogBuffer::new(1 << 10, 0);
        let mut stream = Vec::new();
        record::encode(TxnId(1), &LogPayload::Commit, &mut stream);
        record::encode(TxnId(2), &LogPayload::Abort, &mut stream);
        let l1 = lb.append(TxnId(1), &LogPayload::Commit);
        let batch = lead(&mut lb, l1);
        let l2 = lb.append(TxnId(2), &LogPayload::Abort);
        lb.failed(batch);
        assert_eq!(lb.durable_lsn(), 0);
        assert_eq!(lb.end_lsn(), l2);
        let retry = lead(&mut lb, l2);
        assert_eq!(retry.bytes(), &stream[..]);
        lb.written(retry);
        assert!(lb.is_durable(l2));
    }

    #[test]
    fn recycled_allocation_comes_back_two_batches_later() {
        let mut lb = LogBuffer::new(64, 0);
        let write = |lb: &mut LogBuffer, txn| {
            let lsn = lb.append(TxnId(txn), &LogPayload::Commit);
            let batch = lead(lb, lsn);
            let at = (batch.bytes.as_ptr(), batch.bytes.capacity());
            lb.written(batch);
            at
        };
        // The buffer and the spare alternate: the allocation cut as batch 1
        // is the buffer again after batch 2 is cut, and leaves as batch 3.
        let first = write(&mut lb, 1);
        write(&mut lb, 2);
        assert_eq!(write(&mut lb, 3), first);
    }

    #[test]
    fn a_batch_is_due_past_the_threshold_with_no_flush_in_flight() {
        let mut lb = LogBuffer::new(32, 0);
        assert!(lb.due().is_none());
        lb.append(TxnId(1), &LogPayload::Begin); // 13 bytes
        assert!(lb.due().is_none());
        lb.append(TxnId(1), &LogPayload::Begin);
        assert!(lb.due().is_none(), "26 bytes against a 32-byte threshold");
        let l3 = lb.append(TxnId(1), &LogPayload::Begin);
        let batch = lb.due().expect("39 bytes against a 32-byte threshold");
        for _ in 0..3 {
            lb.append(TxnId(2), &LogPayload::Begin);
        }
        assert!(lb.due().is_none(), "one flush in flight at a time");
        lb.written(batch);
        assert!(lb.is_durable(l3));
        assert!(lb.due().is_some());
    }
}
