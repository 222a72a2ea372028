//! One real partition: a storage instance, real threads, real 2PC branches.
//!
//! This is the engine half of the paper's prototype. A [`PartitionEngine`]
//! (2PL) or [`PartitionExecutor`] (serial, one mutex) owns one contiguous
//! share of the data and serves [`Session`]s: local plans commit here,
//! multisite branches are prepared, parked in-doubt and decided here, with
//! prepare and decision records forced to the instance's WAL. Both modes
//! park branches in the engine's one in-doubt table (`in_doubt`). Everything
//! that makes N of them a deployment — routing, the 2PC coordinator, the
//! transport, spawned or in-process — lives in `islands-server`.

use std::time::Duration;

pub mod engine;
pub mod executor;
mod in_doubt;
pub mod session;

pub use engine::{BranchOutcome, LockedSession, PartitionConfig, PartitionEngine, TpccPartition};
pub use executor::{EngineMode, ExecutorConfig, ExecutorSession, PartitionExecutor};
pub use session::{DecideOutcome, Engine, ExecError, Session};

/// Delay before the `retries`-th re-attempt of a contention-aborted
/// transaction: `None` for the first few attempts (just yield — the
/// conflicting lock holder is usually mid-commit), then exponential from
/// 1 µs, capped at 256 µs so a long queue of victims never sleeps past the
/// lock-wait scale it is trying to avoid.
pub fn contention_backoff_delay(retries: u32) -> Option<Duration> {
    const YIELD_ONLY: u32 = 4;
    const CAP_SHIFT: u32 = 8; // 2^8 us = 256 us
    if retries < YIELD_ONLY {
        return None;
    }
    Some(Duration::from_micros(
        1 << (retries - YIELD_ONLY).min(CAP_SHIFT),
    ))
}

/// Wait out one contention-abort retry. A bare `yield_now` per retry causes
/// retry storms under skew: every victim re-attacks the same hot key the
/// instant it is rescheduled, burning its whole retry budget while the
/// winner is still committing. Backing off exponentially (capped) spreads
/// the victims out instead.
pub fn contention_backoff(retries: u32) {
    match contention_backoff_delay(retries) {
        None => std::thread::yield_now(),
        Some(d) => std::thread::sleep(d),
    }
}

/// Little-endian audit counter from a row's first 8 bytes. Every table an
/// engine creates has `row_size >= 8` (asserted at load), so the slice below
/// is always in bounds.
pub(crate) fn audit_counter(row: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&row[..8]);
    u64::from_le_bytes(bytes)
}

/// The table name of the microbenchmark table.
pub const MICRO_TABLE_NAME: &str = "rows";

/// Result of one submitted transaction.
///
/// `committed == false` means the retry budget was exhausted by repeated
/// deadlock/timeout/2PC aborts — a well-formed request that simply lost; the
/// submitter decides whether to resubmit. Malformed requests (missing key,
/// unknown table) surface as `Err` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOutcome {
    pub committed: bool,
    /// Whether the (last) attempt ran two-phase commit.
    pub distributed: bool,
    /// Abort-and-retry rounds before the final outcome.
    pub retries: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_backoff_yields_then_escalates_and_caps() {
        // First attempts only yield: the conflicting holder is usually
        // mid-commit and a sleep would overshoot.
        for r in 0..4 {
            assert_eq!(contention_backoff_delay(r), None, "retry {r} must yield");
        }
        // Then exponential from 1 us...
        assert_eq!(contention_backoff_delay(4), Some(Duration::from_micros(1)));
        assert_eq!(contention_backoff_delay(5), Some(Duration::from_micros(2)));
        assert_eq!(contention_backoff_delay(8), Some(Duration::from_micros(16)));
        // ...monotone non-decreasing and capped at 256 us forever.
        let mut prev = Duration::ZERO;
        for r in 4..2_000 {
            let d = contention_backoff_delay(r).unwrap();
            assert!(d >= prev, "backoff regressed at retry {r}");
            assert!(d <= Duration::from_micros(256), "cap blown at retry {r}");
            prev = d;
        }
        assert_eq!(
            contention_backoff_delay(u32::MAX),
            Some(Duration::from_micros(256)),
            "no overflow at the extreme"
        );
    }
}
