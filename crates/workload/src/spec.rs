//! Microbenchmark specification and request generation.

use rand::Rng;

use crate::zipf::Zipf;

/// Read or update transactions (the paper's two microbenchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read-only: fetch each row.
    Read,
    /// Read-modify-write: bump each row's audit counter.
    Update,
}

impl OpKind {
    /// Stable report/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Read => "read-only",
            OpKind::Update => "update",
        }
    }
}

/// One microbenchmark configuration (one curve point in Figures 9–14).
#[derive(Debug, Clone)]
pub struct MicroSpec {
    /// Read-only or update transactions.
    pub kind: OpKind,
    /// Rows touched per transaction (`N`).
    pub rows_per_txn: usize,
    /// Fraction of transactions that are multisite, `0.0 ..= 1.0`.
    pub multisite_pct: f64,
    /// Zipfian skew factor for row selection (0 = uniform; Figure 13).
    pub skew: f64,
    /// How many **distinct logical sites** a multisite transaction touches
    /// (Figure 9's x-axis). `None` is the legacy model: remaining rows drawn
    /// uniformly from the whole range, so the touched-site count is whatever
    /// the draw produces. `Some(k)` spreads the transaction across exactly
    /// `k` sites — the home site plus `k - 1` distinct remotes, remaining
    /// rows assigned round-robin and drawn inside each site's range.
    pub multisite_sites: Option<usize>,
    /// Total rows in the database.
    pub total_rows: u64,
    /// Payload bytes per row.
    pub row_size: usize,
}

impl MicroSpec {
    /// The paper's default small dataset with uniform access.
    pub fn new(kind: OpKind, rows_per_txn: usize, multisite_pct: f64) -> Self {
        assert!((0.0..=1.0).contains(&multisite_pct));
        assert!(rows_per_txn >= 1);
        MicroSpec {
            kind,
            rows_per_txn,
            multisite_pct,
            skew: 0.0,
            multisite_sites: None,
            total_rows: crate::DEFAULT_ROWS,
            row_size: crate::DEFAULT_ROW_SIZE,
        }
    }

    /// Set the Zipfian skew factor (builder style).
    pub fn with_skew(mut self, skew: f64) -> Self {
        self.skew = skew;
        self
    }

    /// Pin multisite transactions to exactly `sites` distinct logical sites
    /// (Figure 9's transaction-size axis). Requires `2 <= sites` and, at
    /// generator construction, `sites <= n_sites` and
    /// `sites <= rows_per_txn`.
    pub fn with_sites(mut self, sites: usize) -> Self {
        assert!(sites >= 2, "a multisite transaction spans at least 2 sites");
        self.multisite_sites = Some(sites);
        self
    }

    /// Whether this spec can generate against `n_sites` logical sites —
    /// the **single source of truth** for the generation bounds.
    /// [`MicroGenerator::new`] asserts exactly this; CLIs call it up front
    /// to fail with a clean error instead of a worker panic.
    ///
    /// Every generation path rejects duplicate keys, so each range it
    /// draws from must hold enough *distinct* keys or the draw loop would
    /// spin forever. The smallest site has `total_rows / n_sites` keys
    /// (the last site only ever gets the remainder on top): local
    /// transactions put all `rows_per_txn` keys in one site; a `Some(k)`
    /// multisite spread round-robins at most `ceil(rows_per_txn / k)` keys
    /// into one site.
    pub fn check(&self, n_sites: u64) -> Result<(), String> {
        if n_sites < 1 || n_sites > self.total_rows {
            return Err(format!(
                "n_sites {n_sites} must be in 1..={} (total rows)",
                self.total_rows
            ));
        }
        if self.total_rows < self.rows_per_txn as u64 {
            return Err(format!(
                "{} rows per txn exceed the {}-row dataset",
                self.rows_per_txn, self.total_rows
            ));
        }
        let per = (self.total_rows / n_sites) as usize;
        if self.multisite_pct < 1.0 && per < self.rows_per_txn {
            return Err(format!(
                "a local transaction's {} rows exceed the smallest site's {per} keys \
                 ({} rows over {n_sites} sites)",
                self.rows_per_txn, self.total_rows
            ));
        }
        if let Some(k) = self.multisite_sites {
            if k < 2 {
                return Err("a multisite transaction spans at least 2 sites".into());
            }
            if k as u64 > n_sites {
                return Err(format!("cannot touch {k} distinct sites out of {n_sites}"));
            }
            if k > self.rows_per_txn {
                return Err(format!(
                    "{} rows cannot cover {k} distinct sites",
                    self.rows_per_txn
                ));
            }
            if per < self.rows_per_txn.div_ceil(k) {
                return Err(format!(
                    "spreading {} rows over {k} sites needs {} distinct keys per site \
                     but the smallest site has {per}",
                    self.rows_per_txn,
                    self.rows_per_txn.div_ceil(k)
                ));
            }
        }
        Ok(())
    }

    /// Set the dataset size in rows (builder style).
    pub fn with_rows(mut self, total_rows: u64) -> Self {
        self.total_rows = total_rows;
        self
    }
}

/// Rows per part under the even range partitioning — the one divisor
/// [`even_range`] and [`even_owner`] share, so loading and routing cannot
/// disagree at a boundary. `rows < parts` would leave parts empty; every
/// config that reaches here has rejected that shape already.
fn even_share(parts: usize, rows: u64) -> u64 {
    debug_assert!(
        parts >= 1 && rows >= parts as u64,
        "{rows} rows cannot partition across {parts} parts"
    );
    rows / parts as u64
}

/// Key range `[lo, hi)` of part `part` when `rows` keys are split evenly
/// over `parts`: a truncated share each, the remainder to the last. The
/// generator's logical sites, the simulator's site map, a deployment's
/// instances and the in-process cluster's loader all partition by this.
pub fn even_range(part: usize, parts: usize, rows: u64) -> (u64, u64) {
    let per = even_share(parts, rows);
    let lo = part as u64 * per;
    let hi = if part + 1 == parts { rows } else { lo + per };
    (lo, hi)
}

/// The part owning `key` under [`even_range`]. A key at or past `rows` lands
/// on the last part, whose engine rejects it with a typed error.
pub fn even_owner(key: u64, parts: usize, rows: u64) -> usize {
    ((key / even_share(parts, rows)) as usize).min(parts - 1)
}

/// A generated transaction request. The *home site* is the partition owning
/// `keys[0]`; a request is distributed iff any other key maps to a
/// different physical instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRequest {
    /// Operation applied to every key.
    pub kind: OpKind,
    /// Rows touched, home site's row first.
    pub keys: Vec<u64>,
    /// Whether this request was generated as a multisite transaction.
    pub multisite: bool,
}

/// Deterministic request stream for a [`MicroSpec`].
///
/// Generation model (paper Section 5.2): a transaction's first row is drawn
/// from the whole range (Zipfian under skew) and defines its home site
/// within the `n_sites` logical sites; **local** transactions draw their
/// remaining rows from the home site's range; **multisite** transactions
/// draw them from the whole range.
pub struct MicroGenerator {
    spec: MicroSpec,
    zipf: Zipf,
    n_sites: u64,
}

impl MicroGenerator {
    /// `n_sites` is the number of logical sites (the finest-grained
    /// partitioning used by any deployment under comparison; the paper uses
    /// one logical site per core).
    pub fn new(spec: MicroSpec, n_sites: u64) -> Self {
        if let Err(e) = spec.check(n_sites) {
            panic!("{e}");
        }
        let zipf = Zipf::new(spec.total_rows, spec.skew);
        MicroGenerator {
            spec,
            zipf,
            n_sites,
        }
    }

    /// The spec this generator draws from.
    pub fn spec(&self) -> &MicroSpec {
        &self.spec
    }

    /// Key range `[lo, hi)` of logical site `s`.
    pub fn site_range(&self, s: u64) -> (u64, u64) {
        even_range(s as usize, self.n_sites as usize, self.spec.total_rows)
    }

    /// Logical site owning `key`.
    pub fn site_of(&self, key: u64) -> u64 {
        even_owner(key, self.n_sites as usize, self.spec.total_rows) as u64
    }

    /// Generate the next request.
    pub fn next<R: Rng>(&self, rng: &mut R) -> TxnRequest {
        let multisite = rng.gen_bool(self.spec.multisite_pct);
        let n = self.spec.rows_per_txn;
        let mut keys = Vec::with_capacity(n);
        let first = self.zipf.sample(rng);
        keys.push(first);
        if multisite {
            if let Some(sites) = self.spec.multisite_sites {
                // Figure 9: exactly `sites` distinct sites — the home site
                // plus `sites - 1` distinct remotes chosen uniformly;
                // remaining rows round-robin over the site list, each drawn
                // inside its site's range with the distribution folded in.
                let home = self.site_of(first);
                let mut chosen = Vec::with_capacity(sites);
                chosen.push(home);
                while chosen.len() < sites {
                    let s = rng.gen_range(0..self.n_sites);
                    if !chosen.contains(&s) {
                        chosen.push(s);
                    }
                }
                while keys.len() < n {
                    let (lo, hi) = self.site_range(chosen[keys.len() % sites]);
                    let z = self.zipf.sample(rng);
                    let k = lo + z % (hi - lo);
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
            } else {
                // One local row + N-1 rows "chosen uniformly from the whole
                // data range" (skewed when the experiment says so).
                while keys.len() < n {
                    let k = self.zipf.sample(rng);
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
            }
        } else {
            // All rows in the home site, drawn with the same (possibly
            // skewed) distribution folded into the site's range, so hot
            // rows stay hot inside every partition.
            let (lo, hi) = self.site_range(self.site_of(first));
            while keys.len() < n {
                let z = self.zipf.sample(rng);
                let k = lo + z % (hi - lo);
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
        }
        TxnRequest {
            kind: self.spec.kind,
            keys,
            multisite,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn generator(multisite: f64, rows: usize) -> MicroGenerator {
        MicroGenerator::new(
            MicroSpec {
                kind: OpKind::Read,
                rows_per_txn: rows,
                multisite_pct: multisite,
                skew: 0.0,
                multisite_sites: None,
                total_rows: 24_000,
                row_size: 16,
            },
            24,
        )
    }

    #[test]
    fn local_requests_stay_in_home_site() {
        let g = generator(0.0, 10);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..500 {
            let req = g.next(&mut rng);
            assert!(!req.multisite);
            assert_eq!(req.keys.len(), 10);
            let home = g.site_of(req.keys[0]);
            for &k in &req.keys {
                assert_eq!(g.site_of(k), home, "key {k} escaped site {home}");
            }
        }
    }

    #[test]
    fn multisite_pct_is_respected() {
        let g = generator(0.3, 4);
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 20_000;
        let multi = (0..n).filter(|_| g.next(&mut rng).multisite).count();
        let frac = multi as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "{frac}");
    }

    #[test]
    fn keys_are_distinct_within_a_txn() {
        let g = generator(1.0, 8);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..500 {
            let mut keys = g.next(&mut rng).keys;
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 8);
        }
    }

    #[test]
    fn site_ranges_partition_the_keyspace() {
        let g = generator(0.0, 2);
        let mut covered = 0u64;
        for s in 0..24 {
            let (lo, hi) = g.site_range(s);
            assert_eq!(lo, covered);
            covered = hi;
            // site_of agrees at both ends.
            assert_eq!(g.site_of(lo), s);
            assert_eq!(g.site_of(hi - 1), s);
        }
        assert_eq!(covered, 24_000);
    }

    #[test]
    fn ranges_tile_the_keyspace() {
        let n = 4;
        let rows = 403; // deliberately not divisible
        let mut covered = 0u64;
        for i in 0..n {
            let (lo, hi) = even_range(i, n, rows);
            assert_eq!(lo, covered);
            covered = hi;
        }
        assert_eq!(covered, rows);
    }

    #[test]
    fn owner_of_agrees_with_range_of_for_every_key() {
        for (n, rows) in [(1usize, 10u64), (4, 403), (7, 100), (3, 3)] {
            for i in 0..n {
                let (lo, hi) = even_range(i, n, rows);
                for key in lo..hi {
                    assert_eq!(
                        even_owner(key, n, rows),
                        i,
                        "key {key} with {n} parts over {rows} rows"
                    );
                }
            }
            // Past the end clamps to the last part (which rejects it).
            assert_eq!(even_owner(rows + 7, n, rows), n - 1);
        }
    }

    #[test]
    fn sites_knob_touches_exactly_k_distinct_sites() {
        for k in [2usize, 3, 6] {
            let spec = MicroSpec {
                multisite_sites: Some(k),
                ..MicroSpec::new(OpKind::Update, 8, 1.0)
            };
            let spec = MicroSpec {
                total_rows: 24_000,
                ..spec
            };
            let g = MicroGenerator::new(spec, 24);
            let mut rng = SmallRng::seed_from_u64(7);
            for _ in 0..500 {
                let req = g.next(&mut rng);
                assert!(req.multisite);
                let mut sites: Vec<u64> = req.keys.iter().map(|&x| g.site_of(x)).collect();
                let home = sites[0];
                sites.sort_unstable();
                sites.dedup();
                assert_eq!(sites.len(), k, "{:?} must span exactly {k} sites", req.keys);
                assert!(sites.contains(&home), "home site must participate");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot touch")]
    fn sites_knob_rejects_more_sites_than_exist() {
        let spec = MicroSpec {
            total_rows: 24_000,
            ..MicroSpec::new(OpKind::Update, 8, 1.0).with_sites(8)
        };
        let _ = MicroGenerator::new(spec, 4);
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn sites_knob_rejects_more_sites_than_rows() {
        let spec = MicroSpec {
            total_rows: 24_000,
            ..MicroSpec::new(OpKind::Update, 2, 1.0).with_sites(4)
        };
        let _ = MicroGenerator::new(spec, 24);
    }

    #[test]
    #[should_panic(expected = "distinct keys per site")]
    fn sites_knob_rejects_sites_too_small_to_fill() {
        // Regression: 8 rows over 8 one-key sites cannot host 2 of a
        // 4-row transaction's keys — the duplicate-rejecting draw loop
        // used to spin forever instead of failing construction.
        let spec = MicroSpec {
            total_rows: 8,
            ..MicroSpec::new(OpKind::Update, 4, 1.0).with_sites(2)
        };
        let _ = MicroGenerator::new(spec, 8);
    }

    #[test]
    #[should_panic(expected = "local transaction")]
    fn local_path_rejects_sites_smaller_than_txn() {
        // Same hazard on the local path: all 4 rows must come from a
        // single 1-key site.
        let spec = MicroSpec {
            total_rows: 8,
            ..MicroSpec::new(OpKind::Update, 4, 0.5)
        };
        let _ = MicroGenerator::new(spec, 8);
    }

    #[test]
    fn skewed_generator_hits_hot_sites() {
        let spec = MicroSpec::new(OpKind::Update, 2, 0.0).with_skew(0.99);
        let spec = MicroSpec {
            total_rows: 24_000,
            ..spec
        };
        let g = MicroGenerator::new(spec, 24);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut per_site = vec![0u64; 24];
        for _ in 0..10_000 {
            let req = g.next(&mut rng);
            per_site[g.site_of(req.keys[0]) as usize] += 1;
        }
        assert!(
            per_site[0] > 5_000,
            "site 0 must be hot under 0.99 skew: {:?}",
            per_site
        );
    }
}
