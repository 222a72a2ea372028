//! Engine operation costs for the simulated runtime.
//!
//! Instruction-path lengths approximate Shore-MT's code paths and are
//! calibrated so the per-transaction costs of Figure 10 land in the right
//! range (a few µs per row; single-threaded instances ~40 % cheaper because
//! locking is skipped — Section 7.1.1) and so update transactions show the
//! logging-dominated intercept of Figure 10's bottom row. Converted to time
//! through `Calib::instr_ps` (≈ IPC 2), plus the memory-hierarchy charges
//! from `islands-memsim`.

use islands_net::IpcMechanism;
use islands_sim::disk::DiskParams;

/// Tunable cost constants (instruction counts unless noted).
#[derive(Debug, Clone)]
pub struct CostParams {
    /// Request dispatch/ingress per transaction (queue pop, admission).
    pub instr_dispatch: u64,
    /// Transaction begin bookkeeping.
    pub instr_begin: u64,
    /// Transaction finish bookkeeping (commit or abort path).
    pub instr_finish: u64,
    /// Index probe per row (excluding the per-node memory charges).
    pub instr_probe: u64,
    /// Row read from the heap page.
    pub instr_row_read: u64,
    /// Row update (apply + undo bookkeeping), excluding logging.
    pub instr_row_update: u64,
    /// Building + inserting one log record.
    pub instr_log_insert: u64,
    /// Lock manager acquire+release pair per row.
    pub instr_lock_pair: u64,
    /// Coordinator-side 2PC bookkeeping per participant.
    pub instr_2pc_coord: u64,
    /// Participant-side 2PC bookkeeping per transaction.
    pub instr_2pc_part: u64,

    /// Contended lock-table bucket lines per instance.
    pub lock_buckets: usize,
    /// Cache lines touched per row payload access.
    pub row_lines: u32,
    /// Cache lines of *shared engine state* (lock manager, latches, buffer
    /// pool hash) touched per row operation. Write-shared between an
    /// instance's workers: the more sockets an instance spans, the more of
    /// these turn into coherence misses — the stall gap of Figure 8.
    pub engine_lines_per_op: u32,

    /// Group-commit window (virtual time) for the simulated log flusher.
    pub group_window_ps: u64,
    /// Log device characteristics (memory-mapped by default, as in the
    /// paper's main experiments).
    pub log_disk: DiskParams,
    /// Extra bytes per log record beyond the row payload (headers, LSNs).
    pub log_record_overhead: u64,

    /// IPC mechanism between instances (Unix domain sockets, per Figure 6).
    pub mechanism: IpcMechanism,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            // Shore-MT's full execution path (dispatch, stored-procedure
            // shell, storage manager) retires tens of thousands of
            // instructions per row; these counts align simulated throughput
            // with the paper's Figures 9/12/13 axes.
            instr_dispatch: 10_000,
            instr_begin: 15_000,
            instr_finish: 14_000,
            instr_probe: 6_500,
            instr_row_read: 5_000,
            instr_row_update: 11_000,
            instr_log_insert: 6_000,
            instr_lock_pair: 9_000,
            instr_2pc_coord: 12_000,
            instr_2pc_part: 10_000,
            lock_buckets: 64,
            row_lines: 4,
            engine_lines_per_op: 64,
            group_window_ps: 10_000_000, // 10 us
            log_disk: DiskParams {
                // Memory-mapped log "disk": a flush is a kernel crossing +
                // memcpy; calibrated to give update transactions the
                // ~25-40 us commit-wait intercept of Figure 10 (bottom).
                access_ps: 22_000_000, // 22 us
                per_byte_ps: 120,
            },
            log_record_overhead: 64,
            mechanism: IpcMechanism::UnixSocket,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_self_consistent() {
        let c = CostParams::default();
        assert!(c.instr_row_update > c.instr_row_read);
        assert!(c.lock_buckets.is_power_of_two());
        assert!(c.group_window_ps < c.log_disk.access_ps);
        assert_eq!(c.mechanism, IpcMechanism::UnixSocket);
    }
}
