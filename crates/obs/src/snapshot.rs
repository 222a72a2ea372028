//! Point-in-time registry snapshots: mergeable, wire-codable, JSON-able.
//!
//! A [`Snapshot`] is the one stats encoding: what a `Stats` reply frame
//! carries, what an instance process prints as its heartbeat and drain
//! line, what `islands-top` renders, and what `islands-sweep` merges across
//! instances for its per-cell breakdown. The byte codec is a fixed
//! little-endian layout (version-tagged, exact-length) so truncation or
//! corruption is detected rather than misread; the JSON form is the flat
//! one-line `islands-obs/1` schema that `islands_bench::jsonscan` can scan.

use crate::hist::{HistSnapshot, BUCKETS};
use crate::{BreakdownCategory, TxnClass, NCATS, NCLASSES};

/// Snapshot codec version (the first byte of the encoding). v3 carries the
/// server's wire counters and the lock manager's counts; v2 added the
/// crash-recovery block.
pub const SNAPSHOT_VERSION: u8 = 3;

/// The named scalars of [`Snapshot::words`]: 8 wire counters, 2 gauges,
/// 3 recovery counters, 3 lock counters.
const SCALARS: usize = 16;

/// Every `u64` the codec carries: the named scalars, the per-class
/// transaction counts, the phase cells and 6 histograms of
/// (count + sum + BUCKETS).
const WORDS: usize = SCALARS + NCLASSES + NCLASSES * NCATS + 6 * (2 + BUCKETS);

/// Exact encoded size: version + enabled flag + the words.
pub const ENCODED_LEN: usize = 2 + 8 * WORDS;

/// The schema marker of the JSON line; [`Snapshot::json_line`] is the only
/// writer of that line.
const SCHEMA: &str = "islands-obs/1";

/// A copy of one registry at one instant, with what the engine it serves
/// knows filled in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Whether recording was on. A merge is enabled if any part was, so an
    /// empty (default) snapshot is not.
    pub enabled: bool,
    /// Connections accepted.
    pub connections: u64,
    /// Request frames answered.
    pub requests: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted (retry budget spent, or abort decisions).
    pub aborts: u64,
    /// Requests answered with an error reply.
    pub errors: u64,
    /// 2PC prepare frames answered.
    pub prepares: u64,
    /// 2PC decision frames answered.
    pub decisions: u64,
    /// Reserved, always 0: a branch whose connection closed undecided is no
    /// longer rolled back (it waits for the coordinator's verdict). Kept so
    /// the codec and its readers stay as they are.
    pub presumed_aborts: u64,
    /// Callers waiting for a serial partition.
    pub queue_depth: u64,
    /// Branches parked in the engine's in-doubt table at snapshot time,
    /// restart replay's included.
    pub in_doubt: u64,
    /// Lock acquisitions by the engine's lock manager.
    pub lock_acquires: u64,
    /// Lock requests that waited.
    pub lock_waits: u64,
    /// Lock requests wait-die killed.
    pub lock_dies: u64,
    /// Nanoseconds per `[class][category]`.
    pub phase_ns: [[u64; NCATS]; NCLASSES],
    /// Completed transactions per class.
    pub txns: [u64; NCLASSES],
    /// Server-side handling latency per class.
    pub txn_us: [HistSnapshot; NCLASSES],
    /// 2PC phase 1 latency.
    pub prepare_us: HistSnapshot,
    /// 2PC phase 2 latency.
    pub decision_us: HistSnapshot,
    /// How long decided branches sat parked.
    pub parked_us: HistSnapshot,
    /// Completed restart replays.
    pub recoveries: u64,
    /// Ownerless in-doubt branches (replayed, or left by a dead link)
    /// resolved to commit.
    pub in_doubt_commit: u64,
    /// Ownerless in-doubt branches resolved to abort.
    pub in_doubt_abort: u64,
    /// Wall time of each restart replay.
    pub recovery_us: HistSnapshot,
}

impl Snapshot {
    /// Every `u64` of the snapshot in codec order, the named scalars first
    /// under their JSON keys: the one list the codec, [`merge`](Self::merge)
    /// and the JSON line walk, so a new field is listed here and nowhere
    /// else.
    fn words(&mut self) -> Vec<(Option<&'static str>, &mut u64)> {
        let named: [(&'static str, &mut u64); SCALARS] = [
            ("connections", &mut self.connections),
            ("requests", &mut self.requests),
            ("commits", &mut self.commits),
            ("aborts", &mut self.aborts),
            ("errors", &mut self.errors),
            ("prepares", &mut self.prepares),
            ("decisions", &mut self.decisions),
            ("presumed_aborts", &mut self.presumed_aborts),
            ("queue_depth", &mut self.queue_depth),
            ("in_doubt", &mut self.in_doubt),
            ("recoveries_total", &mut self.recoveries),
            ("in_doubt_resolved_commit", &mut self.in_doubt_commit),
            ("in_doubt_resolved_abort", &mut self.in_doubt_abort),
            ("lock_acquires", &mut self.lock_acquires),
            ("lock_waits", &mut self.lock_waits),
            ("lock_dies", &mut self.lock_dies),
        ];
        let mut words: Vec<_> = named.into_iter().map(|(k, v)| (Some(k), v)).collect();
        words.extend(self.txns.iter_mut().map(|v| (None, v)));
        words.extend(self.phase_ns.iter_mut().flatten().map(|v| (None, v)));
        let hists = self.txn_us.iter_mut().chain([
            &mut self.prepare_us,
            &mut self.decision_us,
            &mut self.parked_us,
            &mut self.recovery_us,
        ]);
        for h in hists {
            let hist_words = [&mut h.count, &mut h.sum_ns].into_iter();
            words.extend(hist_words.chain(h.buckets.iter_mut()).map(|v| (None, v)));
        }
        words
    }

    /// Merge another instance's snapshot into this one: every word adds (an
    /// aggregated gauge is the deployment-wide level), and the merge is
    /// enabled if either side was.
    pub fn merge(&mut self, other: &Snapshot) {
        self.enabled |= other.enabled;
        let mut other = other.clone();
        for ((_, mine), (_, theirs)) in self.words().into_iter().zip(other.words()) {
            *mine += *theirs;
        }
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

    // -- byte codec (Stats reply body, heartbeat line) ----------------------

    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(ENCODED_LEN);
        out.push(SNAPSHOT_VERSION);
        out.push(self.enabled as u8);
        for (_, v) in self.clone().words() {
            out.extend_from_slice(&v.to_le_bytes());
        }
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
        let mut snap = Snapshot {
            enabled: bytes[1] == 1,
            ..Snapshot::default()
        };
        for ((_, v), le) in snap.words().into_iter().zip(bytes[2..].chunks_exact(8)) {
            *v = u64::from_le_bytes(le.try_into().unwrap_or([0; 8]));
        }
        Ok(snap)
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
        f.push_str(&format!("\"obs_enabled\":{}", self.enabled));
        for (key, v) in self.clone().words() {
            if let Some(key) = key {
                f.push_str(&format!(",\"{key}\":{v}"));
            }
        }
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
            connections: 2,
            commits: 120,
            prepares: 25,
            queue_depth: 3,
            in_doubt: 1,
            lock_acquires: 300,
            lock_dies: 5,
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
        assert_eq!((m.commits, m.lock_dies, m.in_doubt_abort), (240, 10, 6));
        assert_eq!(m.txn_us[1].count, 2 * a.txn_us[1].count);
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
            "\"in_doubt\":1",
            "\"commits\":120",
            "\"lock_acquires\":300",
            "\"recoveries_total\":2",
            "\"in_doubt_resolved_commit\":4",
            "\"in_doubt_resolved_abort\":3",
            "\"recovery_count\":1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
