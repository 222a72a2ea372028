//! Point-in-time registry snapshots: mergeable, wire-codable, JSON-able.
//!
//! A [`Snapshot`] is what a `StatsReply` frame carries, what `islands-top`
//! renders, and what `islands-sweep` merges across instances for its
//! per-cell breakdown. The byte codec is a fixed little-endian layout
//! (version-tagged, exact-length) so truncation or corruption is detected
//! rather than misread; the JSON form is the flat one-line `islands-obs/1`
//! schema that `islands_bench::jsonscan` can scan.

use crate::hist::{HistSnapshot, BUCKETS};
use crate::{BreakdownCategory, TxnClass, NCATS, NCLASSES};

/// Snapshot codec version (the first byte of the encoding). v2 added the
/// crash-recovery block: recoveries / in-doubt resolution counters and the
/// recovery-duration histogram.
pub const SNAPSHOT_VERSION: u8 = 2;

/// Exact encoded size: version + enabled flag + the u64 payload.
/// 2 gauges + 3 recovery counters + 2 txn counters + 2×5 phase cells +
/// 6 histograms of (count + sum + BUCKETS) u64s.
pub const ENCODED_LEN: usize = 2 + 8 * (2 + 3 + NCLASSES + NCLASSES * NCATS + 6 * (2 + BUCKETS));

/// The schema marker of the JSON line; [`Snapshot::json_line`] is the only
/// writer of that line.
const SCHEMA: &str = "islands-obs/1";

/// A copy of the whole registry at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub enabled: bool,
    pub queue_depth: u64,
    /// Prepared-but-undecided branches at snapshot time.
    pub in_doubt: u64,
    /// Nanoseconds per `[class][category]`.
    pub phase_ns: [[u64; NCATS]; NCLASSES],
    /// Completed transactions per class.
    pub txns: [u64; NCLASSES],
    /// Server-side handling latency per class.
    pub txn_us: [HistSnapshot; NCLASSES],
    pub prepare_us: HistSnapshot,
    pub decision_us: HistSnapshot,
    pub parked_us: HistSnapshot,
    /// Completed restart replays.
    pub recoveries: u64,
    /// Recovered in-doubt branches resolved to commit.
    pub in_doubt_commit: u64,
    /// Recovered in-doubt branches resolved to abort.
    pub in_doubt_abort: u64,
    /// Wall time of each restart replay.
    pub recovery_us: HistSnapshot,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            enabled: true,
            queue_depth: 0,
            in_doubt: 0,
            phase_ns: [[0; NCATS]; NCLASSES],
            txns: [0; NCLASSES],
            txn_us: [HistSnapshot::default(); NCLASSES],
            prepare_us: HistSnapshot::default(),
            decision_us: HistSnapshot::default(),
            parked_us: HistSnapshot::default(),
            recoveries: 0,
            in_doubt_commit: 0,
            in_doubt_abort: 0,
            recovery_us: HistSnapshot::default(),
        }
    }
}

impl Snapshot {
    /// Merge another instance's snapshot into this one (gauges add; an
    /// aggregated queue depth is the deployment-wide backlog).
    pub fn merge(&mut self, other: &Snapshot) {
        self.enabled = self.enabled || other.enabled;
        self.queue_depth += other.queue_depth;
        self.in_doubt += other.in_doubt;
        for (a, b) in self.txns.iter_mut().zip(other.txns.iter()) {
            *a += *b;
        }
        for (a, b) in self.txn_us.iter_mut().zip(other.txn_us.iter()) {
            a.merge(b);
        }
        for (ar, br) in self.phase_ns.iter_mut().zip(other.phase_ns.iter()) {
            for (a, b) in ar.iter_mut().zip(br.iter()) {
                *a += *b;
            }
        }
        self.prepare_us.merge(&other.prepare_us);
        self.decision_us.merge(&other.decision_us);
        self.parked_us.merge(&other.parked_us);
        self.recoveries += other.recoveries;
        self.in_doubt_commit += other.in_doubt_commit;
        self.in_doubt_abort += other.in_doubt_abort;
        self.recovery_us.merge(&other.recovery_us);
    }

    /// Total attributed nanoseconds for `cat` across both classes.
    pub fn cat_ns(&self, cat: BreakdownCategory) -> u64 {
        self.phase_ns.iter().map(|row| row[cat.index()]).sum()
    }

    /// Completed transactions across both classes.
    pub fn total_txns(&self) -> u64 {
        self.txns.iter().sum()
    }

    /// The Fig. 11 percentages (both classes combined): each category's
    /// share of all attributed time, summing to ~100 when any time was
    /// recorded.
    pub fn breakdown_pct(&self) -> [f64; NCATS] {
        let total: u64 = BreakdownCategory::ALL.iter().map(|&c| self.cat_ns(c)).sum();
        let mut out = [0.0; NCATS];
        if total == 0 {
            return out;
        }
        for cat in BreakdownCategory::ALL {
            out[cat.index()] = 100.0 * self.cat_ns(cat) as f64 / total as f64;
        }
        out
    }

    /// Per-transaction microseconds for each category (both classes).
    pub fn per_txn_us(&self) -> [f64; NCATS] {
        let n = self.total_txns().max(1) as f64;
        let mut out = [0.0; NCATS];
        for cat in BreakdownCategory::ALL {
            out[cat.index()] = self.cat_ns(cat) as f64 / n / 1_000.0;
        }
        out
    }

    // -- byte codec (StatsReply body) ---------------------------------------

    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(ENCODED_LEN);
        out.push(SNAPSHOT_VERSION);
        out.push(self.enabled as u8);
        let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        put(self.queue_depth);
        put(self.in_doubt);
        put(self.recoveries);
        put(self.in_doubt_commit);
        put(self.in_doubt_abort);
        for &t in &self.txns {
            put(t);
        }
        for row in &self.phase_ns {
            for &v in row {
                put(v);
            }
        }
        for h in self.hists() {
            put(h.count);
            put(h.sum_ns);
            for &b in &h.buckets {
                put(b);
            }
        }
    }

    fn hists(&self) -> [&HistSnapshot; 6] {
        [
            &self.txn_us[0],
            &self.txn_us[1],
            &self.prepare_us,
            &self.decision_us,
            &self.parked_us,
            &self.recovery_us,
        ]
    }

    /// Decode an encoded snapshot. Rejects wrong version, truncation, and
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, &'static str> {
        if bytes.len() != ENCODED_LEN {
            return Err("snapshot length mismatch");
        }
        if bytes[0] != SNAPSHOT_VERSION {
            return Err("unknown snapshot version");
        }
        if bytes[1] > 1 {
            return Err("bad enabled flag");
        }
        let enabled = bytes[1] == 1;
        let mut pos = 2usize;
        let mut take = || {
            let v = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap_or([0; 8]));
            pos += 8;
            v
        };
        let queue_depth = take();
        let in_doubt = take();
        let recoveries = take();
        let in_doubt_commit = take();
        let in_doubt_abort = take();
        let mut txns = [0u64; NCLASSES];
        for t in txns.iter_mut() {
            *t = take();
        }
        let mut phase_ns = [[0u64; NCATS]; NCLASSES];
        for row in phase_ns.iter_mut() {
            for v in row.iter_mut() {
                *v = take();
            }
        }
        let hist = |take: &mut dyn FnMut() -> u64| {
            let mut h = HistSnapshot {
                count: take(),
                sum_ns: take(),
                ..HistSnapshot::default()
            };
            for b in h.buckets.iter_mut() {
                *b = take();
            }
            h
        };
        let txn_local = hist(&mut take);
        let txn_multi = hist(&mut take);
        let prepare_us = hist(&mut take);
        let decision_us = hist(&mut take);
        let parked_us = hist(&mut take);
        let recovery_us = hist(&mut take);
        Ok(Snapshot {
            enabled,
            queue_depth,
            in_doubt,
            phase_ns,
            txns,
            txn_us: [txn_local, txn_multi],
            prepare_us,
            decision_us,
            parked_us,
            recoveries,
            in_doubt_commit,
            in_doubt_abort,
            recovery_us,
        })
    }

    // -- islands-obs/1 JSON -------------------------------------------------

    /// The one `islands-obs/1` line: the schema marker, then `identity`
    /// (comma-joined `"key":value` pairs saying whose snapshot this is),
    /// then [`json_fields`](Self::json_fields).
    pub fn json_line(&self, identity: &str) -> String {
        format!(
            "{{\"schema\":\"{SCHEMA}\",{identity},{}}}",
            self.json_fields()
        )
    }

    /// The snapshot's fields as a comma-joined JSON fragment (no braces).
    /// Flat unique keys, identity-free, so `jsonscan`'s first-occurrence
    /// field scanners work on any line that embeds them.
    pub fn json_fields(&self) -> String {
        let mut f = String::with_capacity(1024);
        let pct = self.breakdown_pct();
        let per_txn = self.per_txn_us();
        f.push_str(&format!(
            "\"obs_enabled\":{},\"queue_depth\":{},\"parked_now\":{}",
            self.enabled, self.queue_depth, self.in_doubt
        ));
        f.push_str(&format!(
            ",\"recoveries_total\":{},\"in_doubt_resolved_commit\":{},\"in_doubt_resolved_abort\":{}",
            self.recoveries, self.in_doubt_commit, self.in_doubt_abort
        ));
        for class in TxnClass::ALL {
            let ci = class.index();
            f.push_str(&format!(
                ",\"{0}_txns\":{1},\"{0}_p50_us\":{2},\"{0}_p99_us\":{3},\"{0}_mean_us\":{4:.1}",
                class.label(),
                self.txns[ci],
                self.txn_us[ci].percentile_us(50.0),
                self.txn_us[ci].percentile_us(99.0),
                self.txn_us[ci].mean_us(),
            ));
        }
        for cat in BreakdownCategory::ALL {
            f.push_str(&format!(
                ",\"{0}_ns\":{1},\"{0}_pct\":{2:.1},\"{0}_per_txn_us\":{3:.1}",
                cat.key(),
                self.cat_ns(cat),
                pct[cat.index()],
                per_txn[cat.index()],
            ));
        }
        for (name, h) in [
            ("prepare", &self.prepare_us),
            ("decision", &self.decision_us),
            ("parked", &self.parked_us),
            ("recovery", &self.recovery_us),
        ] {
            f.push_str(&format!(
                ",\"{0}_count\":{1},\"{0}_p50_us\":{2},\"{0}_p99_us\":{3}",
                name,
                h.count,
                h.percentile_us(50.0),
                h.percentile_us(99.0),
            ));
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_snapshot() -> Snapshot {
        let mut s = Snapshot {
            queue_depth: 3,
            in_doubt: 1,
            txns: [100, 25],
            recoveries: 2,
            in_doubt_commit: 4,
            in_doubt_abort: 3,
            ..Snapshot::default()
        };
        for (c, row) in s.phase_ns.iter_mut().enumerate() {
            for (k, v) in row.iter_mut().enumerate() {
                *v = ((c + 1) * (k + 7) * 1_000) as u64;
            }
        }
        for i in 0..50u64 {
            s.txn_us[0].merge(&one_sample(10_000 + i * 1_000));
            s.txn_us[1].merge(&one_sample(100_000 + i * 10_000));
        }
        s.prepare_us = one_sample(250_000);
        s.decision_us = one_sample(125_000);
        s.parked_us = one_sample(2_000_000);
        s.recovery_us = one_sample(4_000_000);
        s
    }

    fn one_sample(ns: u64) -> HistSnapshot {
        let h = crate::hist::Hist::new();
        h.record_ns(ns);
        h.snapshot()
    }

    #[test]
    fn codec_round_trips() {
        let s = busy_snapshot();
        let mut bytes = Vec::new();
        s.encode_into(&mut bytes);
        assert_eq!(bytes.len(), ENCODED_LEN);
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn codec_rejects_damage() {
        let s = busy_snapshot();
        let mut bytes = Vec::new();
        s.encode_into(&mut bytes);
        // Truncation at every prefix length must error, never panic.
        for cut in [0, 1, 2, 10, bytes.len() - 1] {
            assert!(Snapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Snapshot::decode(&long).is_err());
        // Wrong version.
        let mut wrong = bytes.clone();
        wrong[0] = 9;
        assert!(Snapshot::decode(&wrong).is_err());
        // Bad bool.
        let mut bad = bytes;
        bad[1] = 7;
        assert!(Snapshot::decode(&bad).is_err());
    }

    #[test]
    fn merge_sums_instances() {
        let a = busy_snapshot();
        let mut m = a.clone();
        m.merge(&a);
        assert_eq!(m.total_txns(), 2 * a.total_txns());
        assert_eq!(m.queue_depth, 6);
        assert_eq!(m.prepare_us.count, 2);
        for cat in BreakdownCategory::ALL {
            assert_eq!(m.cat_ns(cat), 2 * a.cat_ns(cat));
        }
    }

    #[test]
    fn breakdown_pct_partitions() {
        let s = busy_snapshot();
        let total: f64 = s.breakdown_pct().iter().sum();
        assert!((total - 100.0).abs() < 0.01, "sums to 100, got {total}");
        assert_eq!(Snapshot::default().breakdown_pct(), [0.0; NCATS]);
    }

    #[test]
    fn json_fields_carry_the_acceptance_signals() {
        let s = busy_snapshot();
        let json = s.json_line("\"instance\":3");
        assert!(json.starts_with("{\"schema\":\"islands-obs/1\",\"instance\":3,"));
        assert!(json.ends_with('}'));
        for key in [
            "\"local_txns\":100",
            "\"multisite_txns\":25",
            "\"execution_pct\":",
            "\"locking_pct\":",
            "\"logging_pct\":",
            "\"communication_pct\":",
            "\"management_pct\":",
            "\"prepare_count\":1",
            "\"decision_count\":1",
            "\"queue_depth\":3",
            "\"recoveries_total\":2",
            "\"in_doubt_resolved_commit\":4",
            "\"in_doubt_resolved_abort\":3",
            "\"recovery_count\":1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
