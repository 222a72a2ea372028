//! Logical sites and their mapping onto physical instances.
//!
//! Following the paper (Section 4): the workload is defined over *logical
//! sites* (the finest partitioning, one per core); a deployment groups
//! whole logical sites into physical instances. A multisite transaction is
//! physically distributed only if its sites fall in different instances —
//! this is why coarse configurations execute fewer distributed
//! transactions.
//!
//! This module is the one place a `(table, key)` becomes an owner: the
//! simulator, a spawned deployment and the in-process cluster all route
//! through a [`SiteMap`] and split plans with [`split_plan_by_owner`]. The
//! even-range arithmetic itself lives beside the request generator
//! ([`even_range`] / [`even_owner`]), which draws keys by the same rule.

use std::collections::HashMap;

use islands_workload::plan::PlanRequest;
use islands_workload::{even_owner, even_range, tpcc};

/// Maps `(table, key)` to a logical site.
pub trait SiteMap {
    fn n_sites(&self) -> usize;
    fn site_of(&self, table: u32, key: u64) -> usize;
}

/// Contiguous range partitioning of a single keyspace (the microbenchmark
/// table): [`even_range`] per site, whatever the table id says. A key past
/// the end belongs to the last site, whose engine rejects it.
#[derive(Debug, Clone)]
pub struct RangeSites {
    pub total_rows: u64,
    pub n_sites: usize,
}

impl SiteMap for RangeSites {
    fn n_sites(&self) -> usize {
        self.n_sites
    }

    fn site_of(&self, _table: u32, key: u64) -> usize {
        even_owner(key, self.n_sites, self.total_rows)
    }
}

/// Warehouse partitioning for TPC-C-lite: warehouses are striped
/// contiguously over sites.
#[derive(Debug, Clone)]
pub struct WarehouseSites {
    pub warehouses: u64,
    pub n_sites: usize,
}

impl SiteMap for WarehouseSites {
    fn n_sites(&self) -> usize {
        self.n_sites
    }

    fn site_of(&self, table: u32, key: u64) -> usize {
        // History and order rows are homed where they are written; their
        // keys encode the warehouse in the high 32 bits.
        let w = match tpcc::warehouse_of_table(table, key) {
            Some(w) => w,
            None => panic!("unknown tpcc table {table}"),
        };
        debug_assert!(w < self.warehouses, "warehouse {w} out of range");
        ((w as u128 * self.n_sites as u128) / self.warehouses as u128) as usize
    }
}

/// Warehouse range `[lo, hi)` owned by `site` — the exact inverse of
/// [`WarehouseSites::site_of`]'s proportional mapping, so a deployment can
/// tell each instance which warehouses to load without double-owning or
/// orphaning any warehouse.
pub fn warehouse_range(warehouses: u64, n_sites: usize, site: usize) -> (u64, u64) {
    debug_assert!(site < n_sites);
    let n = n_sites as u128;
    let w = warehouses as u128;
    let lo = (site as u128 * w).div_ceil(n) as u64;
    let hi = ((site as u128 + 1) * w).div_ceil(n) as u64;
    (lo, hi)
}

/// The site map of one workload: what a deployment of either kind routes
/// by, statically dispatched.
#[derive(Debug, Clone)]
pub enum Sites {
    /// The microbenchmark table, by key range.
    Range(RangeSites),
    /// The TPC-C tables, by warehouse.
    Warehouse(WarehouseSites),
}

impl Sites {
    /// What `site` loads: its key range, or its warehouse range — the
    /// inverse of [`site_of`](SiteMap::site_of) either way.
    pub fn range_of(&self, site: usize) -> (u64, u64) {
        match self {
            Sites::Range(r) => even_range(site, r.n_sites, r.total_rows),
            Sites::Warehouse(w) => warehouse_range(w.warehouses, w.n_sites, site),
        }
    }
}

impl SiteMap for Sites {
    fn n_sites(&self) -> usize {
        match self {
            Sites::Range(r) => r.n_sites,
            Sites::Warehouse(w) => w.n_sites,
        }
    }

    fn site_of(&self, table: u32, key: u64) -> usize {
        match self {
            Sites::Range(r) => r.site_of(table, key),
            Sites::Warehouse(w) => w.site_of(table, key),
        }
    }
}

/// Physical instance owning logical `site` when `n_sites` are grouped into
/// `n_instances` contiguous blocks.
#[inline]
pub fn instance_of_site(site: usize, n_sites: usize, n_instances: usize) -> usize {
    debug_assert!(site < n_sites);
    (site * n_instances) / n_sites
}

/// Split a multi-step plan into per-instance branches, preserving step
/// order within each branch (`owner` maps `(table, key)` to an instance).
/// Returns the participants in first-touch order — the home instance, which
/// owns `steps[0]`, first — and each one's branch. Branches keep the plan's
/// class and are marked multisite, so a parked remote-Payment branch records
/// its class in each participant's stats.
pub fn split_plan_by_owner<F: Fn(u32, u64) -> usize>(
    plan: &PlanRequest,
    owner: F,
) -> (Vec<usize>, HashMap<usize, PlanRequest>) {
    let mut order = Vec::new();
    let mut branches: HashMap<usize, PlanRequest> = HashMap::new();
    for step in &plan.steps {
        let inst = owner(step.table, step.key);
        let branch = branches.entry(inst).or_insert_with(|| {
            order.push(inst);
            PlanRequest {
                class: plan.class,
                multisite: true,
                steps: Vec::new(),
            }
        });
        branch.steps.push(*step);
    }
    (order, branches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_workload::plan::{
        PlanClass, PlanStep, StepOp, MICRO_TABLE, TPCC_CUSTOMER, TPCC_DISTRICT, TPCC_HISTORY,
        TPCC_ORDER, TPCC_STOCK, TPCC_WAREHOUSE,
    };

    fn reads(keys: &[u64]) -> PlanRequest {
        PlanRequest {
            class: PlanClass::Generic,
            multisite: keys.len() > 1,
            steps: keys
                .iter()
                .map(|&k| PlanStep::point(MICRO_TABLE, k, StepOp::Read))
                .collect(),
        }
    }

    /// The instances `plan` touches, home first, when `sites` are grouped
    /// into `n_instances`.
    fn participants(plan: &PlanRequest, sites: &RangeSites, n_instances: usize) -> Vec<usize> {
        split_plan_by_owner(plan, |t, k| {
            instance_of_site(sites.site_of(t, k), sites.n_sites, n_instances)
        })
        .0
    }

    #[test]
    fn range_sites_are_contiguous_and_balanced() {
        let m = RangeSites {
            total_rows: 24_000,
            n_sites: 24,
        };
        let mut counts = [0u64; 24];
        for k in 0..24_000 {
            counts[m.site_of(0, k)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1000));
        // Contiguity: site is monotone in key.
        assert!(m.site_of(0, 0) <= m.site_of(0, 23_999));
    }

    #[test]
    fn instance_grouping_is_contiguous() {
        // 24 sites into 4 instances: sites 0..6 -> 0, 6..12 -> 1, ...
        for site in 0..24 {
            assert_eq!(instance_of_site(site, 24, 4), site / 6);
        }
        // Shared-everything: everything -> 0.
        for site in 0..24 {
            assert_eq!(instance_of_site(site, 24, 1), 0);
        }
        // Fine-grained: identity.
        for site in 0..24 {
            assert_eq!(instance_of_site(site, 24, 24), site);
        }
    }

    #[test]
    fn multisite_becomes_local_in_coarser_configs() {
        let sites = RangeSites {
            total_rows: 24_000,
            n_sites: 24,
        };
        // Keys in sites 0 and 1. Fine-grained: two participants; 4ISL: one.
        let plan = reads(&[10, 1_500]);
        assert_eq!(participants(&plan, &sites, 24).len(), 2);
        assert_eq!(participants(&plan, &sites, 4).len(), 1);
    }

    #[test]
    fn home_instance_is_first_participant() {
        let sites = RangeSites {
            total_rows: 1000,
            n_sites: 10,
        };
        // Sites 9, then 0.
        assert_eq!(participants(&reads(&[950, 10]), &sites, 10), vec![9, 0]);
    }

    #[test]
    fn site_maps_load_what_they_route() {
        // `range_of` is the inverse of `site_of` for both workloads, at a
        // shape where neither divides evenly.
        let range = Sites::Range(RangeSites {
            total_rows: 403,
            n_sites: 4,
        });
        let warehouse = Sites::Warehouse(WarehouseSites {
            warehouses: 7,
            n_sites: 3,
        });
        for (sites, table, total) in [(range, MICRO_TABLE, 403), (warehouse, TPCC_WAREHOUSE, 7)] {
            let mut covered = 0u64;
            for s in 0..sites.n_sites() {
                let (lo, hi) = sites.range_of(s);
                assert_eq!(lo, covered, "gap/overlap at site {s}");
                covered = hi;
                for k in lo..hi {
                    assert_eq!(sites.site_of(table, k), s);
                }
            }
            assert_eq!(covered, total);
        }
    }

    #[test]
    fn warehouse_sites_follow_warehouse() {
        let sites = WarehouseSites {
            warehouses: 24,
            n_sites: 24,
        };
        assert_eq!(sites.site_of(TPCC_WAREHOUSE, 7), 7);
        assert_eq!(sites.site_of(TPCC_DISTRICT, tpcc::district_key(7, 3)), 7);
        assert_eq!(
            sites.site_of(TPCC_CUSTOMER, tpcc::customer_key(7, 3, 100)),
            7
        );
        assert_eq!(sites.site_of(TPCC_HISTORY, (7u64 << 32) | 99), 7);
        assert_eq!(sites.site_of(TPCC_ORDER, (7u64 << 32) | 12), 7);
        assert_eq!(sites.site_of(TPCC_STOCK, tpcc::stock_key(7, 999)), 7);
    }

    #[test]
    fn warehouse_range_inverts_site_of_for_awkward_shapes() {
        for (warehouses, n_sites) in [(4u64, 2usize), (5, 2), (7, 3), (24, 24), (9, 4), (2, 2)] {
            let sites = WarehouseSites {
                warehouses,
                n_sites,
            };
            let mut covered = 0u64;
            for s in 0..n_sites {
                let (lo, hi) = warehouse_range(warehouses, n_sites, s);
                assert_eq!(lo, covered, "gap/overlap at site {s}");
                covered = hi;
                for w in lo..hi {
                    assert_eq!(
                        sites.site_of(TPCC_WAREHOUSE, w),
                        s,
                        "{warehouses}w/{n_sites}s: warehouse {w}"
                    );
                }
            }
            assert_eq!(covered, warehouses, "{warehouses}w/{n_sites}s");
        }
    }

    #[test]
    fn split_plan_follows_warehouses_not_raw_keys() {
        // 4 warehouses over 2 instances: w 0..2 -> 0, w 2..4 -> 1. A remote
        // Payment homed at w1 paying a w3 customer splits exactly at the
        // customer + history steps.
        let sites = WarehouseSites {
            warehouses: 4,
            n_sites: 2,
        };
        let plan = PlanRequest {
            class: PlanClass::Payment,
            multisite: true,
            steps: vec![
                PlanStep::point(TPCC_WAREHOUSE, 1, StepOp::Update),
                PlanStep::point(TPCC_DISTRICT, tpcc::district_key(1, 4), StepOp::Update),
                PlanStep::range(TPCC_CUSTOMER, tpcc::customer_key(3, 2, 16), 4),
                PlanStep::point(TPCC_CUSTOMER, tpcc::customer_key(3, 2, 17), StepOp::Update),
                PlanStep::point(TPCC_HISTORY, 1 << 32, StepOp::Insert),
            ],
        };
        let (order, branches) = split_plan_by_owner(&plan, |t, k| sites.site_of(t, k));
        assert_eq!(order, vec![0, 1], "home instance first");
        assert_eq!(branches[&0].steps.len(), 3, "W + D + history insert");
        assert_eq!(branches[&1].steps.len(), 2, "customer scan + update");
        assert!(branches.values().all(|b| b.multisite));
        assert!(branches.values().all(|b| b.class == PlanClass::Payment));
        // Step order within each branch is the plan's order.
        assert_eq!(branches[&1].steps[0].op, StepOp::RangeRead);
        assert_eq!(branches[&1].steps[1].op, StepOp::Update);
    }
}
