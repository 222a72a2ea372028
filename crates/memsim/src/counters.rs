//! Virtual performance counters.
//!
//! The paper profiles with VTune; our simulated machine keeps equivalent
//! counters so Figure 8 (IPC, stalled cycles, LLC sharing) and the Section
//! 7.2 QPI/IMC ratio can be regenerated from a run.

use std::cell::Cell;

use islands_hwtopo::CoreId;

const LINE_BYTES: u64 = 64;

/// Mutable per-core counters (interior mutability; single-threaded sim).
#[derive(Debug, Default)]
pub struct CoreCounters {
    pub instructions: Cell<u64>,
    /// Total virtual time charged to this core (compute + memory), ps.
    pub busy_ps: Cell<u64>,
    /// Portion of `busy_ps` spent waiting on memory beyond an L1 hit, ps.
    pub stall_ps: Cell<u64>,
    pub l1_hits: Cell<u64>,
    pub l2_hits: Cell<u64>,
    pub llc_hits: Cell<u64>,
    /// Accesses served from a *sibling core's* cache on the same socket
    /// (on-chip sharing; the paper's Figure 8, right).
    pub sibling_hits: Cell<u64>,
    /// Accesses served from a cache on a different socket.
    pub remote_cache_hits: Cell<u64>,
    pub dram_local: Cell<u64>,
    pub dram_remote: Cell<u64>,
    /// Contended-line transfers, by distance class.
    pub line_same_core: Cell<u64>,
    pub line_same_socket: Cell<u64>,
    pub line_cross_socket: Cell<u64>,
}

impl CoreCounters {
    pub fn record_instr(&self, n: u64, cost_ps: u64) {
        self.instructions.set(self.instructions.get() + n);
        self.busy_ps.set(self.busy_ps.get() + cost_ps);
    }

    pub fn record_mem(&self, cost_ps: u64, l1_ps: u64) {
        self.busy_ps.set(self.busy_ps.get() + cost_ps);
        self.stall_ps
            .set(self.stall_ps.get() + cost_ps.saturating_sub(l1_ps));
    }
}

/// All cores' counters plus the machine-level traffic counters.
#[derive(Debug)]
pub struct Counters {
    per_core: Vec<CoreCounters>,
    freq_khz: u64,
    /// Bytes moved across sockets (interconnect traffic).
    pub qpi_bytes: Cell<u64>,
    /// Bytes served from DRAM (memory-controller traffic).
    pub imc_bytes: Cell<u64>,
}

impl Counters {
    pub fn new(cores: usize, freq_khz: u64) -> Self {
        Counters {
            per_core: (0..cores).map(|_| CoreCounters::default()).collect(),
            freq_khz,
            qpi_bytes: Cell::new(0),
            imc_bytes: Cell::new(0),
        }
    }

    #[inline]
    pub fn core(&self, core: CoreId) -> &CoreCounters {
        &self.per_core[core.index()]
    }

    pub fn add_qpi(&self, lines: u64) {
        self.qpi_bytes
            .set(self.qpi_bytes.get() + lines * LINE_BYTES);
    }

    pub fn add_imc(&self, lines: u64) {
        self.imc_bytes
            .set(self.imc_bytes.get() + lines * LINE_BYTES);
    }

    /// Interconnect-to-memory traffic ratio; the paper reports 1.73 for
    /// shared-everything vs ~1.5 for shared-nothing on the octo-socket
    /// read-only workload (Section 7.2).
    pub fn qpi_imc_ratio(&self) -> f64 {
        let imc = self.imc_bytes.get();
        if imc == 0 {
            0.0
        } else {
            self.qpi_bytes.get() as f64 / imc as f64
        }
    }

    pub fn snapshot(&self, core: CoreId) -> CounterSnapshot {
        let c = self.core(core);
        CounterSnapshot {
            instructions: c.instructions.get(),
            busy_ps: c.busy_ps.get(),
            stall_ps: c.stall_ps.get(),
            l1_hits: c.l1_hits.get(),
            l2_hits: c.l2_hits.get(),
            llc_hits: c.llc_hits.get(),
            sibling_hits: c.sibling_hits.get(),
            remote_cache_hits: c.remote_cache_hits.get(),
            dram_local: c.dram_local.get(),
            dram_remote: c.dram_remote.get(),
            freq_khz: self.freq_khz,
        }
    }

    /// Aggregate snapshot over a set of cores.
    pub fn aggregate<'a>(&self, cores: impl IntoIterator<Item = &'a CoreId>) -> CounterSnapshot {
        let mut total = CounterSnapshot {
            freq_khz: self.freq_khz,
            ..Default::default()
        };
        for &c in cores {
            let s = self.snapshot(c);
            total.instructions += s.instructions;
            total.busy_ps += s.busy_ps;
            total.stall_ps += s.stall_ps;
            total.l1_hits += s.l1_hits;
            total.l2_hits += s.l2_hits;
            total.llc_hits += s.llc_hits;
            total.sibling_hits += s.sibling_hits;
            total.remote_cache_hits += s.remote_cache_hits;
            total.dram_local += s.dram_local;
            total.dram_remote += s.dram_remote;
        }
        total
    }
}

/// An immutable view of counters, with derived metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSnapshot {
    pub instructions: u64,
    pub busy_ps: u64,
    pub stall_ps: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub llc_hits: u64,
    pub sibling_hits: u64,
    pub remote_cache_hits: u64,
    pub dram_local: u64,
    pub dram_remote: u64,
    pub freq_khz: u64,
}

impl CounterSnapshot {
    /// Elapsed core cycles implied by busy time at the machine frequency.
    pub fn cycles(&self) -> f64 {
        // period_ps = 1e9 / freq_khz
        self.busy_ps as f64 * self.freq_khz as f64 / 1e9
    }

    /// Instructions per cycle (the paper's Figure 8, left).
    pub fn ipc(&self) -> f64 {
        let cy = self.cycles();
        if cy == 0.0 {
            0.0
        } else {
            self.instructions as f64 / cy
        }
    }

    /// Fraction of cycles stalled on memory (Figure 8, middle).
    pub fn stalled_frac(&self) -> f64 {
        if self.busy_ps == 0 {
            0.0
        } else {
            self.stall_ps as f64 / self.busy_ps as f64
        }
    }

    pub fn total_accesses(&self) -> u64 {
        self.l1_hits
            + self.l2_hits
            + self.llc_hits
            + self.sibling_hits
            + self.remote_cache_hits
            + self.dram_local
            + self.dram_remote
    }

    /// Fraction of accesses served by a sibling core's cache on the same
    /// socket (Figure 8, right: "sharing through LLC").
    pub fn sibling_share_frac(&self) -> f64 {
        let t = self.total_accesses();
        if t == 0 {
            0.0
        } else {
            self.sibling_hits as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_math() {
        let mut s = CounterSnapshot {
            freq_khz: 2_000_000, // 2 GHz -> 500 ps per cycle
            ..Default::default()
        };
        s.instructions = 1_000;
        s.busy_ps = 500 * 2_000; // 2000 cycles
        assert!((s.ipc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stall_fraction() {
        let c = CoreCounters::default();
        c.record_mem(100, 20);
        c.record_instr(10, 50);
        assert_eq!(c.busy_ps.get(), 150);
        assert_eq!(c.stall_ps.get(), 80);
    }

    #[test]
    fn qpi_imc_ratio() {
        let c = Counters::new(4, 2_000_000);
        c.add_qpi(173);
        c.add_imc(100);
        assert!((c.qpi_imc_ratio() - 1.73).abs() < 1e-9);
    }

    #[test]
    fn aggregate_sums_cores() {
        let c = Counters::new(4, 2_000_000);
        c.core(CoreId(0)).record_instr(10, 100);
        c.core(CoreId(2)).record_instr(5, 50);
        let cores = [CoreId(0), CoreId(1), CoreId(2)];
        let agg = c.aggregate(cores.iter());
        assert_eq!(agg.instructions, 15);
        assert_eq!(agg.busy_ps, 150);
    }
}
