//! Multi-step transaction plans: the generalized request model.
//!
//! [`TxnRequest`] describes one *batch* — N keys, one
//! operation kind, one table. That shape cannot express TPC-C: Payment
//! touches four tables with different operations per row, NewOrder inserts
//! into one table while updating another, and 60 % of Payments locate the
//! customer through a small range scan. A [`PlanRequest`] generalizes the
//! request model to an ordered list of [`PlanStep`]s, each naming its table,
//! key, operation, and (for range reads) a span — enough to express every
//! workload in the paper's evaluation while staying a flat, byte-codable
//! value a server can decode straight off a socket.
//!
//! ## Byte form
//!
//! Hand-rolled little-endian, mirroring the [`crate::codec`] conventions
//! (no serde in this workspace):
//!
//! ```text
//! class     u8   0 = Generic, 1 = NewOrder, 2 = Payment
//! multisite u8   0 = local, 1 = multisite
//! n_steps   u32  number of steps (bounded by MAX_STEPS_PER_PLAN)
//! steps     n_steps × 14 bytes:
//!   table   u32  table id (MICRO_TABLE, TPCC_*)
//!   key     u64  row key (global)
//!   op      u8   0 = Read, 1 = Update, 2 = Insert, 3 = RangeRead
//!   span    u8   0 for point ops; 1..=255 rows for RangeRead
//! ```
//!
//! Decoding is total: every byte slice yields a plan plus the bytes
//! consumed, or a typed [`CodecError`] — truncation is an error with
//! `needed > had`, never a panic, so the strict-prefix invariant the wire
//! property tests rely on holds for plans exactly as it does for batches.
//!
//! A full-size plan (4096 steps × 14 bytes + 6-byte header ≈ 56 KiB) fits
//! inside the server's 64 KiB frame cap with room for the frame header and
//! the 8-byte gtid of a [`PlanBranch`].

use crate::codec::{CodecError, MAX_KEYS_PER_REQUEST};
use crate::spec::{OpKind, TxnRequest};

/// Upper bound on steps per plan: a decoder-side guard against a hostile or
/// corrupt count causing a giant allocation, sized so a maximal plan still
/// fits one wire frame.
pub const MAX_STEPS_PER_PLAN: u32 = 4096;

// `TxnRequest::to_plan` is total only while every decodable batch fits a
// plan.
const _: () = assert!(MAX_KEYS_PER_REQUEST == MAX_STEPS_PER_PLAN);

/// Bytes in a plan header (`class`, `multisite`, `n_steps`).
const PLAN_HEADER: usize = 6;
/// Bytes per encoded step (`table`, `key`, `op`, `span`).
const STEP_LEN: usize = 14;

/// Table id of the microbenchmark table (`rows`).
pub const MICRO_TABLE: u32 = 0;
/// Table id of the TPC-C `warehouse` table.
pub const TPCC_WAREHOUSE: u32 = 1;
/// Table id of the TPC-C `district` table.
pub const TPCC_DISTRICT: u32 = 2;
/// Table id of the TPC-C `customer` table.
pub const TPCC_CUSTOMER: u32 = 3;
/// Table id of the TPC-C `history` table (append-only).
pub const TPCC_HISTORY: u32 = 4;
/// Table id of the TPC-C `order` table (append-only).
pub const TPCC_ORDER: u32 = 5;
/// Table id of the TPC-C `stock` table.
pub const TPCC_STOCK: u32 = 6;

/// What one plan step does to its row(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOp {
    /// Fetch the row at `key`.
    Read,
    /// Read-modify-write the row at `key` (audit counter +1).
    Update,
    /// Insert a fresh row at `key` (audit counter starts at 1).
    Insert,
    /// Read `span` consecutive rows starting at `key` — the dependent /
    /// range-ish access shape (TPC-C's customer-by-last-name scan).
    RangeRead,
}

impl StepOp {
    fn to_byte(self) -> u8 {
        match self {
            StepOp::Read => 0,
            StepOp::Update => 1,
            StepOp::Insert => 2,
            StepOp::RangeRead => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, CodecError> {
        match b {
            0 => Ok(StepOp::Read),
            1 => Ok(StepOp::Update),
            2 => Ok(StepOp::Insert),
            3 => Ok(StepOp::RangeRead),
            other => Err(CodecError::BadOp(other)),
        }
    }
}

/// One operation of a multi-step plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// Table id (one of the `MICRO_TABLE` / `TPCC_*` constants).
    pub table: u32,
    /// Row key, global across the deployment.
    pub key: u64,
    /// What to do at `key`.
    pub op: StepOp,
    /// Rows covered starting at `key`: `0` for point operations, `1..=255`
    /// for [`StepOp::RangeRead`].
    pub span: u8,
}

impl PlanStep {
    /// A point operation (span 0).
    pub fn point(table: u32, key: u64, op: StepOp) -> PlanStep {
        debug_assert!(op != StepOp::RangeRead, "range reads need a span");
        PlanStep {
            table,
            key,
            op,
            span: 0,
        }
    }

    /// A range read of `span` rows starting at `key`.
    pub fn range(table: u32, key: u64, span: u8) -> PlanStep {
        debug_assert!(span >= 1, "a range read covers at least one row");
        PlanStep {
            table,
            key,
            op: StepOp::RangeRead,
            span,
        }
    }

    /// Number of rows this step touches (1 for point ops, `span` for range
    /// reads).
    pub fn rows(&self) -> u64 {
        match self.op {
            StepOp::RangeRead => self.span as u64,
            _ => 1,
        }
    }

    /// Whether this step writes (updates or inserts).
    pub fn is_write(&self) -> bool {
        matches!(self.op, StepOp::Update | StepOp::Insert)
    }
}

/// Transaction class a plan belongs to, for per-class reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanClass {
    /// Anything that is not a named TPC-C transaction.
    Generic,
    /// TPC-C NewOrder.
    NewOrder,
    /// TPC-C Payment.
    Payment,
}

impl PlanClass {
    fn to_byte(self) -> u8 {
        match self {
            PlanClass::Generic => 0,
            PlanClass::NewOrder => 1,
            PlanClass::Payment => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, CodecError> {
        match b {
            0 => Ok(PlanClass::Generic),
            1 => Ok(PlanClass::NewOrder),
            2 => Ok(PlanClass::Payment),
            other => Err(CodecError::BadClass(other)),
        }
    }

    /// Stable report/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            PlanClass::Generic => "generic",
            PlanClass::NewOrder => "neworder",
            PlanClass::Payment => "payment",
        }
    }
}

/// A multi-step transaction: ordered steps over per-table key spaces.
///
/// The home site is whichever site owns `steps[0]`; `multisite` marks the
/// *logical* classification (remote-warehouse Payment, multisite micro
/// batch) independent of whether the deployment's grouping makes it
/// physically distributed — exactly like
/// [`TxnRequest::multisite`](crate::TxnRequest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRequest {
    /// Transaction class for per-class reporting.
    pub class: PlanClass,
    /// Logical multisite classification (see type docs).
    pub multisite: bool,
    /// Ordered operations; executed in sequence at each participant.
    pub steps: Vec<PlanStep>,
}

impl PlanRequest {
    /// Exact encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        PLAN_HEADER + STEP_LEN * self.steps.len()
    }

    /// Whether every step is a read (read-only plans skip 2PC phase 2).
    pub fn is_read_only(&self) -> bool {
        self.steps.iter().all(|s| !s.is_write())
    }

    /// Number of row writes a commit of this plan applies (updates plus
    /// inserts) — each adds exactly 1 to the deployment's audit sum.
    pub fn write_rows(&self) -> u64 {
        self.steps.iter().filter(|s| s.is_write()).count() as u64
    }

    /// Every `(table, key)` pair the plan touches, with range reads expanded
    /// — the conflict set a serial executor guards in-doubt branches with.
    pub fn conflict_keys(&self) -> Vec<(u32, u64)> {
        let mut out = Vec::with_capacity(self.steps.len());
        for s in &self.steps {
            for i in 0..s.rows() {
                out.push((s.table, s.key.wrapping_add(i)));
            }
        }
        out
    }

    /// Whether any row this plan touches (range reads expanded) is in
    /// `footprint`, a parked branch's [`conflict_keys`](Self::conflict_keys)
    /// — the same answer as intersecting the two key sets, without
    /// materializing this plan's.
    pub fn conflicts_with(&self, footprint: &[(u32, u64)]) -> bool {
        self.steps.iter().any(|s| {
            footprint
                .iter()
                .any(|&(table, key)| table == s.table && key.wrapping_sub(s.key) < s.rows())
        })
    }

    /// Append the byte form to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        debug_assert!(self.steps.len() <= MAX_STEPS_PER_PLAN as usize);
        buf.reserve(self.encoded_len());
        buf.push(self.class.to_byte());
        buf.push(self.multisite as u8);
        buf.extend_from_slice(&(self.steps.len() as u32).to_le_bytes());
        for s in &self.steps {
            debug_assert!(
                (s.op == StepOp::RangeRead) == (s.span > 0),
                "span is exclusively a range-read field"
            );
            buf.extend_from_slice(&s.table.to_le_bytes());
            buf.extend_from_slice(&s.key.to_le_bytes());
            buf.push(s.op.to_byte());
            buf.push(s.span);
        }
    }

    /// Decode a plan from the front of `bytes`; returns the plan and the
    /// number of bytes consumed.
    pub fn decode_from(bytes: &[u8]) -> Result<(Self, usize), CodecError> {
        if bytes.len() < PLAN_HEADER {
            return Err(CodecError::Truncated {
                needed: PLAN_HEADER,
                had: bytes.len(),
            });
        }
        let class = PlanClass::from_byte(bytes[0])?;
        let multisite = match bytes[1] {
            0 => false,
            1 => true,
            other => return Err(CodecError::BadFlag(other)),
        };
        let n = u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes"));
        if n > MAX_STEPS_PER_PLAN {
            return Err(CodecError::TooManySteps(n));
        }
        let total = PLAN_HEADER + STEP_LEN * n as usize;
        if bytes.len() < total {
            return Err(CodecError::Truncated {
                needed: total,
                had: bytes.len(),
            });
        }
        let mut steps = Vec::with_capacity(n as usize);
        for chunk in bytes[PLAN_HEADER..total].chunks_exact(STEP_LEN) {
            let table = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes"));
            let key = u64::from_le_bytes(chunk[4..12].try_into().expect("8 bytes"));
            let op = StepOp::from_byte(chunk[12])?;
            let span = chunk[13];
            // The span byte is meaningful only for range reads; anywhere
            // else a nonzero span is a corrupt or hostile frame. A zero-span
            // "range read" would silently read nothing, so that is rejected
            // too.
            if (op == StepOp::RangeRead) != (span > 0) {
                return Err(CodecError::BadSpan(span));
            }
            steps.push(PlanStep {
                table,
                key,
                op,
                span,
            });
        }
        Ok((
            PlanRequest {
                class,
                multisite,
                steps,
            },
            total,
        ))
    }
}

impl TxnRequest {
    /// Lower a microbenchmark batch onto the plan model: one point step per
    /// key on [`MICRO_TABLE`], in key order, same `multisite` flag. Every
    /// layer below the entry points executes, parks and routes only plans,
    /// so a batch becomes one on the first line of whatever accepts it.
    pub fn to_plan(&self) -> PlanRequest {
        let op = match self.kind {
            OpKind::Read => StepOp::Read,
            OpKind::Update => StepOp::Update,
        };
        PlanRequest {
            class: PlanClass::Generic,
            multisite: self.multisite,
            steps: self
                .keys
                .iter()
                .map(|&key| PlanStep::point(MICRO_TABLE, key, op))
                .collect(),
        }
    }
}

/// One participant's share of a distributed plan: the global transaction id
/// plus the steps this participant owns — the body of a 2PC `PreparePlan`
/// frame, mirroring [`crate::TxnBranch`] for batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanBranch {
    /// Global (distributed) transaction id, unique per 2PC attempt.
    pub gtid: u64,
    /// The steps this participant must execute and prepare.
    pub plan: PlanRequest,
}

impl PlanBranch {
    /// Exact encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + self.plan.encoded_len()
    }

    /// Append the byte form to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.gtid.to_le_bytes());
        self.plan.encode_into(buf);
    }

    /// Decode a branch from the front of `bytes`; returns the branch and the
    /// number of bytes consumed.
    pub fn decode_from(bytes: &[u8]) -> Result<(Self, usize), CodecError> {
        if bytes.len() < 8 {
            return Err(CodecError::Truncated {
                needed: 8,
                had: bytes.len(),
            });
        }
        let gtid = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let (plan, used) = PlanRequest::decode_from(&bytes[8..]).map_err(|e| match e {
            // Report shortfalls against the whole branch, not the embedded
            // plan, so `needed > had` stays true for the caller.
            CodecError::Truncated { needed, had } => CodecError::Truncated {
                needed: needed + 8,
                had: had + 8,
            },
            other => other,
        })?;
        Ok((PlanBranch { gtid, plan }, 8 + used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payment_like() -> PlanRequest {
        PlanRequest {
            class: PlanClass::Payment,
            multisite: true,
            steps: vec![
                PlanStep::point(TPCC_WAREHOUSE, 2, StepOp::Update),
                PlanStep::point(TPCC_DISTRICT, 23, StepOp::Update),
                PlanStep::range(TPCC_CUSTOMER, 99_000, 4),
                PlanStep::point(TPCC_CUSTOMER, 99_002, StepOp::Update),
                PlanStep::point(TPCC_HISTORY, (2 << 32) | 7, StepOp::Insert),
            ],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        for p in [
            payment_like(),
            PlanRequest {
                class: PlanClass::Generic,
                multisite: false,
                steps: vec![],
            },
            PlanRequest {
                class: PlanClass::NewOrder,
                multisite: false,
                steps: vec![
                    PlanStep::point(MICRO_TABLE, u64::MAX, StepOp::Read),
                    PlanStep::range(TPCC_STOCK, 0, 255),
                ],
            },
        ] {
            let mut buf = Vec::new();
            p.encode_into(&mut buf);
            assert_eq!(buf.len(), p.encoded_len());
            let (back, used) = PlanRequest::decode_from(&buf).unwrap();
            assert_eq!(back, p);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn trailing_bytes_are_left_alone() {
        let p = payment_like();
        let mut buf = Vec::new();
        p.encode_into(&mut buf);
        let used = buf.len();
        buf.extend_from_slice(&[0xAA; 9]);
        let (back, consumed) = PlanRequest::decode_from(&buf).unwrap();
        assert_eq!(back, p);
        assert_eq!(consumed, used);
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let p = payment_like();
        let mut buf = Vec::new();
        p.encode_into(&mut buf);
        for cut in 0..buf.len() {
            match PlanRequest::decode_from(&buf[..cut]) {
                Err(CodecError::Truncated { needed, had }) => {
                    assert_eq!(had, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_discriminants_are_rejected() {
        let mut buf = Vec::new();
        payment_like().encode_into(&mut buf);
        let mut bad_class = buf.clone();
        bad_class[0] = 9;
        assert_eq!(
            PlanRequest::decode_from(&bad_class),
            Err(CodecError::BadClass(9))
        );
        let mut bad_flag = buf.clone();
        bad_flag[1] = 2;
        assert_eq!(
            PlanRequest::decode_from(&bad_flag),
            Err(CodecError::BadFlag(2))
        );
        let mut bad_op = buf.clone();
        bad_op[PLAN_HEADER + 12] = 7;
        assert_eq!(PlanRequest::decode_from(&bad_op), Err(CodecError::BadOp(7)));
    }

    #[test]
    fn span_is_exclusively_a_range_read_field() {
        let mut buf = Vec::new();
        payment_like().encode_into(&mut buf);
        // Step 0 is a point update: give it a span.
        let mut nonzero_point = buf.clone();
        nonzero_point[PLAN_HEADER + 13] = 3;
        assert_eq!(
            PlanRequest::decode_from(&nonzero_point),
            Err(CodecError::BadSpan(3))
        );
        // Step 2 is the range read: zero its span.
        let mut zero_range = buf.clone();
        zero_range[PLAN_HEADER + 2 * STEP_LEN + 13] = 0;
        assert_eq!(
            PlanRequest::decode_from(&zero_range),
            Err(CodecError::BadSpan(0))
        );
    }

    #[test]
    fn hostile_step_count_is_rejected_before_allocation() {
        let mut buf = vec![0u8, 0u8];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            PlanRequest::decode_from(&buf),
            Err(CodecError::TooManySteps(u32::MAX))
        );
    }

    #[test]
    fn branch_round_trips_and_reports_truncation_against_whole_frame() {
        let branch = PlanBranch {
            gtid: 0xFACE_0042,
            plan: payment_like(),
        };
        let mut buf = Vec::new();
        branch.encode_into(&mut buf);
        assert_eq!(buf.len(), branch.encoded_len());
        let (back, used) = PlanBranch::decode_from(&buf).unwrap();
        assert_eq!(back, branch);
        assert_eq!(used, buf.len());
        for cut in 0..buf.len() {
            match PlanBranch::decode_from(&buf[..cut]) {
                Err(CodecError::Truncated { needed, had }) => {
                    assert_eq!(had, cut);
                    assert!(needed > cut, "needed {needed} at cut {cut}");
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn maximal_plan_fits_one_wire_frame() {
        // 4096 steps + header + branch gtid must stay under the server's
        // 64 KiB frame cap (the cap itself lives in islands-server; the
        // arithmetic here keeps the two from drifting apart silently).
        let max = PLAN_HEADER + STEP_LEN * MAX_STEPS_PER_PLAN as usize + 8;
        assert!(max <= 64 * 1024 - 5, "maximal plan branch over frame cap");
    }

    #[test]
    fn conflict_keys_expand_range_reads() {
        let p = payment_like();
        let keys = p.conflict_keys();
        assert_eq!(keys.len(), 8, "4 point rows + 4 scanned rows");
        assert!(keys.contains(&(TPCC_CUSTOMER, 99_003)));
        assert_eq!(p.write_rows(), 4);
        assert!(!p.is_read_only());
    }

    #[test]
    fn conflicts_with_agrees_with_the_materialized_footprint() {
        let parked = payment_like().conflict_keys();
        let touching = |table, key, span| PlanRequest {
            class: PlanClass::Generic,
            multisite: false,
            steps: vec![
                PlanStep::point(TPCC_STOCK, 1, StepOp::Read),
                PlanStep::range(table, key, span),
            ],
        };
        // A scan ending on the first scanned customer, one starting on the
        // last, and a wrapping one all hit; neighbours and other tables miss.
        for (plan, hit) in [
            (touching(TPCC_CUSTOMER, 98_998, 3), true),
            (touching(TPCC_CUSTOMER, 99_003, 2), true),
            (touching(TPCC_CUSTOMER, 98_990, 10), false),
            (touching(TPCC_CUSTOMER, 99_004, 255), false),
            (touching(TPCC_DISTRICT, 99_000, 4), false),
            (touching(TPCC_WAREHOUSE, u64::MAX, 4), true),
        ] {
            assert_eq!(plan.conflicts_with(&parked), hit, "{plan:?}");
            let keys = plan.conflict_keys();
            assert_eq!(keys.iter().any(|k| parked.contains(k)), hit, "{plan:?}");
        }
        assert!(!payment_like().conflicts_with(&[]));
    }
}
