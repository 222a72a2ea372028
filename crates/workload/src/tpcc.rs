//! TPC-C-lite: the tables and the NewOrder/Payment transactions used by the
//! paper's Figures 3 and 7.
//!
//! Payment (TPC-C §2.5): increment `W_YTD` and `D_YTD`, update the
//! customer's balance, insert a history row. Under the standard mix, 15 %
//! of payments pay through a *remote* warehouse's customer — those become
//! distributed when partitioning by warehouse. The paper's Figure 7 uses a
//! "modified version … where all the requests are local", i.e. a 0 % remote
//! probability, making the workload perfectly partitionable. NewOrder
//! (TPC-C §2.4): read the warehouse and customer, bump the district's
//! next-order counter, update one stock row per order line, insert the
//! order — always homed at one warehouse here, so the multisite axis is
//! driven entirely by the remote-payment probability.
//!
//! Composite keys are packed into `u64`s so every table indexes by the same
//! key type as the storage engine:
//!
//! ```text
//! warehouse: w
//! district:  w * 10 + d                  (10 districts/warehouse)
//! customer:  (w * 10 + d) * 3000 + c     (3000 customers/district)
//! stock:     w * 1000 + s                (1000 stocked items/warehouse)
//! history:   (w << 32) | counter         (append-only, per-client counter)
//! order:     (w << 32) | counter         (append-only, per-client counter)
//! ```
//!
//! [`TpccGenerator`] turns these into multi-step [`PlanRequest`]s — the
//! generalized request shape a served deployment executes — with the
//! customer-by-last-name variant of Payment modeled as a dependent
//! [`StepOp::RangeRead`] over a small run of customer rows.

use rand::Rng;

use crate::plan::{
    PlanClass, PlanRequest, PlanStep, StepOp, TPCC_CUSTOMER, TPCC_DISTRICT, TPCC_HISTORY,
    TPCC_ORDER, TPCC_STOCK, TPCC_WAREHOUSE,
};

/// Districts per warehouse (TPC-C constant).
pub const DISTRICTS_PER_WAREHOUSE: u64 = 10;
/// Customers per district (TPC-C constant).
pub const CUSTOMERS_PER_DISTRICT: u64 = 3000;
/// Stocked items per warehouse (scaled down from TPC-C's 100 000 so a
/// multi-warehouse deployment loads in test time; contention behavior is
/// preserved because order lines still pick uniformly within it).
pub const STOCK_PER_WAREHOUSE: u64 = 1000;
/// Standard remote-payment probability.
pub const REMOTE_PAYMENT_PCT: f64 = 0.15;
/// Fraction of Payments that locate the customer by last name, modeled as a
/// dependent range read over a run of customer rows (TPC-C §2.5.1.2).
pub const PAYMENT_BY_NAME_PCT: f64 = 0.6;
/// Rows covered by the customer-by-last-name scan.
pub const PAYMENT_SCAN_SPAN: u8 = 4;
/// Minimum order lines per NewOrder (TPC-C constant).
pub const MIN_ORDER_LINES: u64 = 5;
/// Maximum order lines per NewOrder (TPC-C constant).
pub const MAX_ORDER_LINES: u64 = 15;

/// Warehouse table name in the storage catalog.
pub const T_WAREHOUSE: &str = "warehouse";
/// District table name in the storage catalog.
pub const T_DISTRICT: &str = "district";
/// Customer table name in the storage catalog.
pub const T_CUSTOMER: &str = "customer";
/// History table name in the storage catalog.
pub const T_HISTORY: &str = "history";
/// Order table name in the storage catalog.
pub const T_ORDER: &str = "order";
/// Stock table name in the storage catalog.
pub const T_STOCK: &str = "stock";

/// Warehouse payload bytes, approximating the TPC-C row width.
pub const WAREHOUSE_ROW: usize = 88;
/// District payload bytes, approximating the TPC-C row width.
pub const DISTRICT_ROW: usize = 88;
/// Customer payload bytes (trimmed from 655 to keep pages dense).
pub const CUSTOMER_ROW: usize = 240;
/// History payload bytes, approximating the TPC-C row width.
pub const HISTORY_ROW: usize = 46;
/// Order payload bytes (order header only; lines live in stock updates).
pub const ORDER_ROW: usize = 32;
/// Stock payload bytes (trimmed from 306 to keep pages dense).
pub const STOCK_ROW: usize = 64;

/// Packed district key: `w * 10 + d`.
#[inline]
pub fn district_key(w: u64, d: u64) -> u64 {
    w * DISTRICTS_PER_WAREHOUSE + d
}

/// Packed customer key: `(w * 10 + d) * 3000 + c`.
#[inline]
pub fn customer_key(w: u64, d: u64, c: u64) -> u64 {
    district_key(w, d) * CUSTOMERS_PER_DISTRICT + c
}

/// Packed stock key: `w * 1000 + s`.
#[inline]
pub fn stock_key(w: u64, s: u64) -> u64 {
    w * STOCK_PER_WAREHOUSE + s
}

/// Which warehouse a key of plan table `table` belongs to (the partitioning
/// function); `None` for ids that are not warehouse-partitioned (e.g. the
/// micro table).
pub fn warehouse_of_table(table: u32, key: u64) -> Option<u64> {
    match table {
        TPCC_WAREHOUSE => Some(key),
        TPCC_DISTRICT => Some(key / DISTRICTS_PER_WAREHOUSE),
        TPCC_CUSTOMER => Some(key / (DISTRICTS_PER_WAREHOUSE * CUSTOMERS_PER_DISTRICT)),
        TPCC_STOCK => Some(key / STOCK_PER_WAREHOUSE),
        TPCC_HISTORY | TPCC_ORDER => Some(key >> 32),
        _ => None,
    }
}

/// One Payment transaction's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Payment {
    /// Home warehouse (where the payment is made).
    pub w_id: u64,
    /// District of the home warehouse taking the payment.
    pub d_id: u64,
    /// Customer's warehouse; differs from `w_id` for remote payments.
    pub c_w_id: u64,
    /// Customer's district within `c_w_id`.
    pub c_d_id: u64,
    /// Customer number within the district.
    pub c_id: u64,
    /// Payment amount (cents; only its row-write side effect matters here).
    pub amount: u64,
}

impl Payment {
    /// A payment touching warehouses `{w_id, c_w_id}`; distributed iff they
    /// map to different instances.
    pub fn is_remote(&self) -> bool {
        self.w_id != self.c_w_id
    }

    /// Warehouses this transaction touches.
    pub fn warehouses(&self) -> Vec<u64> {
        if self.is_remote() {
            vec![self.w_id, self.c_w_id]
        } else {
            vec![self.w_id]
        }
    }

    /// The multi-step plan for this payment: update `W_YTD` and `D_YTD` at
    /// the home warehouse, optionally scan a run of customer rows (the
    /// by-last-name lookup — a dependent read in the *customer's* warehouse,
    /// so it rides inside the remote branch of a remote payment), update the
    /// customer's balance, insert a history row at home.
    ///
    /// `history_key` must be globally unique per committed attempt and
    /// belong to `w_id` (`(w_id << 32) | counter`); `by_name` selects the
    /// scan variant.
    pub fn plan(&self, history_key: u64, by_name: bool) -> PlanRequest {
        debug_assert_eq!(history_key >> 32, self.w_id, "history row homed at w_id");
        let mut steps = vec![
            PlanStep::point(TPCC_WAREHOUSE, self.w_id, StepOp::Update),
            PlanStep::point(
                TPCC_DISTRICT,
                district_key(self.w_id, self.d_id),
                StepOp::Update,
            ),
        ];
        let c_key = customer_key(self.c_w_id, self.c_d_id, self.c_id);
        if by_name {
            let span = PAYMENT_SCAN_SPAN as u64;
            let base = self
                .c_id
                .saturating_sub(self.c_id % span)
                .min(CUSTOMERS_PER_DISTRICT - span);
            steps.push(PlanStep::range(
                TPCC_CUSTOMER,
                customer_key(self.c_w_id, self.c_d_id, base),
                PAYMENT_SCAN_SPAN,
            ));
        }
        steps.push(PlanStep::point(TPCC_CUSTOMER, c_key, StepOp::Update));
        steps.push(PlanStep::point(TPCC_HISTORY, history_key, StepOp::Insert));
        PlanRequest {
            class: PlanClass::Payment,
            multisite: self.is_remote(),
            steps,
        }
    }
}

/// One NewOrder transaction's inputs. Always homed at a single warehouse:
/// the remote-stock variant is omitted, so TPC-C's multisite fraction is
/// carried entirely by remote Payments (see `docs/WORKLOADS.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct NewOrder {
    /// Home warehouse.
    pub w_id: u64,
    /// Ordering district.
    pub d_id: u64,
    /// Ordering customer within the district.
    pub c_id: u64,
    /// Stocked item slots (one per order line), each `< STOCK_PER_WAREHOUSE`.
    pub items: Vec<u64>,
}

impl NewOrder {
    /// The multi-step plan: read the warehouse (tax), bump the district's
    /// next-order counter (RMW), read the customer (discount), update one
    /// stock row per order line, insert the order header.
    ///
    /// `order_key` must be globally unique per committed attempt and belong
    /// to `w_id` (`(w_id << 32) | counter`).
    pub fn plan(&self, order_key: u64) -> PlanRequest {
        debug_assert_eq!(order_key >> 32, self.w_id, "order row homed at w_id");
        let mut steps = Vec::with_capacity(4 + self.items.len());
        steps.push(PlanStep::point(TPCC_WAREHOUSE, self.w_id, StepOp::Read));
        steps.push(PlanStep::point(
            TPCC_DISTRICT,
            district_key(self.w_id, self.d_id),
            StepOp::Update,
        ));
        steps.push(PlanStep::point(
            TPCC_CUSTOMER,
            customer_key(self.w_id, self.d_id, self.c_id),
            StepOp::Read,
        ));
        for &item in &self.items {
            steps.push(PlanStep::point(
                TPCC_STOCK,
                stock_key(self.w_id, item),
                StepOp::Update,
            ));
        }
        steps.push(PlanStep::point(TPCC_ORDER, order_key, StepOp::Insert));
        PlanRequest {
            class: PlanClass::NewOrder,
            multisite: false,
            steps,
        }
    }
}

/// Payment request generator.
pub struct PaymentGenerator {
    /// Number of warehouses in the deployment.
    pub warehouses: u64,
    /// Probability the customer belongs to a remote warehouse
    /// (0.15 standard; 0.0 = the paper's perfectly partitionable variant).
    pub remote_pct: f64,
}

impl PaymentGenerator {
    /// A generator over `warehouses` warehouses with the given remote
    /// probability; panics on out-of-range arguments.
    pub fn new(warehouses: u64, remote_pct: f64) -> Self {
        assert!(warehouses >= 1);
        assert!((0.0..=1.0).contains(&remote_pct));
        PaymentGenerator {
            warehouses,
            remote_pct,
        }
    }

    /// Next payment homed at warehouse `home_w`.
    pub fn next<R: Rng>(&self, rng: &mut R, home_w: u64) -> Payment {
        let d_id = rng.gen_range(0..DISTRICTS_PER_WAREHOUSE);
        let remote = self.warehouses > 1 && rng.gen_bool(self.remote_pct);
        let c_w_id = if remote {
            // Any warehouse but home.
            let mut w = rng.gen_range(0..self.warehouses - 1);
            if w >= home_w {
                w += 1;
            }
            w
        } else {
            home_w
        };
        Payment {
            w_id: home_w,
            d_id,
            c_w_id,
            c_d_id: rng.gen_range(0..DISTRICTS_PER_WAREHOUSE),
            c_id: rng.gen_range(0..CUSTOMERS_PER_DISTRICT),
            amount: rng.gen_range(1..=5000),
        }
    }
}

/// Scale description: warehouses and derived row counts.
#[derive(Debug, Clone, Copy)]
pub struct TpccScale {
    /// Number of warehouses (the TPC-C scale factor).
    pub warehouses: u64,
}

impl TpccScale {
    /// Rows in the warehouse table.
    pub fn warehouse_rows(&self) -> u64 {
        self.warehouses
    }
    /// Rows in the district table.
    pub fn district_rows(&self) -> u64 {
        self.warehouses * DISTRICTS_PER_WAREHOUSE
    }
    /// Rows in the customer table.
    pub fn customer_rows(&self) -> u64 {
        self.district_rows() * CUSTOMERS_PER_DISTRICT
    }
    /// Rows in the stock table.
    pub fn stock_rows(&self) -> u64 {
        self.warehouses * STOCK_PER_WAREHOUSE
    }
    /// Total rows loaded at startup (history and order start empty).
    pub fn loaded_rows(&self) -> u64 {
        self.warehouse_rows() + self.district_rows() + self.customer_rows() + self.stock_rows()
    }
}

/// The TPC-C workload shape a driver runs: scale plus remote probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpccSpec {
    /// Number of warehouses; warehouses are range-partitioned over the
    /// deployment's instances, so this is also the logical-site count.
    pub warehouses: u64,
    /// Probability a Payment pays through a remote warehouse's customer —
    /// the paper's multisite-percentage axis for TPC-C.
    pub remote_pct: f64,
}

impl TpccSpec {
    /// Validate against a deployment shape, mirroring `MicroSpec::check`:
    /// every instance must own at least one warehouse, and a nonzero remote
    /// probability needs somewhere remote to pay through.
    pub fn check(&self, n_instances: usize) -> Result<(), String> {
        if self.warehouses == 0 {
            return Err("tpcc needs at least one warehouse".into());
        }
        if !(0.0..=1.0).contains(&self.remote_pct) {
            return Err(format!("remote_pct {} outside [0, 1]", self.remote_pct));
        }
        if (self.warehouses as usize) < n_instances {
            return Err(format!(
                "{} warehouses cannot cover {} instances (each instance needs one)",
                self.warehouses, n_instances
            ));
        }
        if self.remote_pct > 0.0 && self.warehouses < 2 {
            return Err("remote payments need at least two warehouses".into());
        }
        Ok(())
    }

    /// Rows loaded at startup across the whole deployment.
    pub fn loaded_rows(&self) -> u64 {
        TpccScale {
            warehouses: self.warehouses,
        }
        .loaded_rows()
    }
}

/// Seeded TPC-C transaction-plan generator: a 50/50 NewOrder/Payment mix
/// (the two-transaction projection of the standard 45/43 mix), uniform home
/// warehouses, and per-client counters making history/order insert keys
/// globally unique.
pub struct TpccGenerator {
    spec: TpccSpec,
    pay: PaymentGenerator,
    client: u64,
    seq: u64,
}

impl TpccGenerator {
    /// A generator for driver client `client` (must be unique per concurrent
    /// client and `< 256` so insert keys cannot collide across clients).
    pub fn new(spec: TpccSpec, client: u64) -> Self {
        assert!(client < 256, "client id {client} does not fit the key tag");
        let pay = PaymentGenerator::new(spec.warehouses, spec.remote_pct);
        TpccGenerator {
            spec,
            pay,
            client,
            seq: 0,
        }
    }

    /// Globally unique append key homed at `w`: warehouse in the high 32
    /// bits, client tag and per-client sequence below. The 24-bit sequence
    /// wraps after 16M inserts per client — far beyond a bench run.
    fn append_key(&mut self, w: u64) -> u64 {
        self.seq = self.seq.wrapping_add(1);
        (w << 32) | (self.client << 24) | (self.seq & 0xFF_FFFF)
    }

    /// Next transaction plan.
    pub fn next<R: Rng>(&mut self, rng: &mut R) -> PlanRequest {
        let home = rng.gen_range(0..self.spec.warehouses);
        if rng.gen_bool(0.5) {
            let ol_cnt = rng.gen_range(MIN_ORDER_LINES..=MAX_ORDER_LINES);
            let order = NewOrder {
                w_id: home,
                d_id: rng.gen_range(0..DISTRICTS_PER_WAREHOUSE),
                c_id: rng.gen_range(0..CUSTOMERS_PER_DISTRICT),
                items: (0..ol_cnt)
                    .map(|_| rng.gen_range(0..STOCK_PER_WAREHOUSE))
                    .collect(),
            };
            let key = self.append_key(home);
            order.plan(key)
        } else {
            let p = self.pay.next(rng, home);
            let by_name = rng.gen_bool(PAYMENT_BY_NAME_PCT);
            let key = self.append_key(home);
            p.plan(key, by_name)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn key_packing_is_injective_and_partitionable() {
        let mut seen = std::collections::HashSet::new();
        for w in 0..4 {
            for d in 0..DISTRICTS_PER_WAREHOUSE {
                assert_eq!(
                    warehouse_of_table(TPCC_DISTRICT, district_key(w, d)),
                    Some(w)
                );
                for c in (0..CUSTOMERS_PER_DISTRICT).step_by(997) {
                    let k = customer_key(w, d, c);
                    assert!(seen.insert(k), "collision at {w},{d},{c}");
                    assert_eq!(warehouse_of_table(TPCC_CUSTOMER, k), Some(w));
                }
            }
        }
    }

    #[test]
    fn remote_pct_zero_is_perfectly_partitionable() {
        let g = PaymentGenerator::new(24, 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let p = g.next(&mut rng, 7);
            assert!(!p.is_remote());
            assert_eq!(p.warehouses(), vec![7]);
        }
    }

    #[test]
    fn standard_mix_is_about_15_percent_remote() {
        let g = PaymentGenerator::new(24, REMOTE_PAYMENT_PCT);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let remote = (0..n).filter(|_| g.next(&mut rng, 3).is_remote()).count();
        let frac = remote as f64 / n as f64;
        assert!((frac - 0.15).abs() < 0.02, "{frac}");
    }

    #[test]
    fn remote_customer_never_home() {
        let g = PaymentGenerator::new(8, 1.0);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let p = g.next(&mut rng, 5);
            assert_ne!(p.c_w_id, 5);
            assert!(p.c_w_id < 8);
        }
    }

    #[test]
    fn single_warehouse_cannot_be_remote() {
        let g = PaymentGenerator::new(1, 1.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let p = g.next(&mut rng, 0);
        assert!(!p.is_remote());
    }

    #[test]
    fn scale_math() {
        let s = TpccScale { warehouses: 24 };
        assert_eq!(s.district_rows(), 240);
        assert_eq!(s.customer_rows(), 720_000);
        assert_eq!(s.stock_rows(), 24_000);
    }

    #[test]
    fn every_tpcc_table_key_names_its_warehouse() {
        for (name, id, key) in [
            (T_WAREHOUSE, TPCC_WAREHOUSE, 7),
            (T_DISTRICT, TPCC_DISTRICT, district_key(7, 3)),
            (T_CUSTOMER, TPCC_CUSTOMER, customer_key(7, 3, 2999)),
            (T_STOCK, TPCC_STOCK, stock_key(7, 999)),
            (T_HISTORY, TPCC_HISTORY, (7 << 32) | 12345),
            (T_ORDER, TPCC_ORDER, (7 << 32) | 777),
        ] {
            assert_eq!(warehouse_of_table(id, key), Some(7), "{name}");
        }
        assert_eq!(warehouse_of_table(crate::plan::MICRO_TABLE, 5), None);
    }

    #[test]
    fn payment_plan_shape_and_partitioning() {
        let p = Payment {
            w_id: 1,
            d_id: 4,
            c_w_id: 3,
            c_d_id: 9,
            c_id: 2998,
            amount: 10,
        };
        let plan = p.plan((1 << 32) | 42, true);
        assert_eq!(plan.class, PlanClass::Payment);
        assert!(plan.multisite);
        assert_eq!(plan.steps.len(), 5);
        // The scan stays inside the customer's district even at its edge.
        let scan = plan.steps[2];
        assert_eq!(scan.op, StepOp::RangeRead);
        let last = scan.key + scan.span as u64 - 1;
        assert_eq!(warehouse_of_table(TPCC_CUSTOMER, last), Some(3));
        assert!(last < customer_key(3, 9, CUSTOMERS_PER_DISTRICT));
        // Home steps at warehouse 1, customer-side steps at warehouse 3.
        let homes: Vec<u64> = plan
            .steps
            .iter()
            .map(|s| warehouse_of_table(s.table, s.key).unwrap())
            .collect();
        assert_eq!(homes, vec![1, 1, 3, 3, 1]);
        assert_eq!(plan.write_rows(), 4);
        // Local, no-scan variant.
        let local = Payment { c_w_id: 1, ..p }.plan((1 << 32) | 43, false);
        assert!(!local.multisite);
        assert_eq!(local.steps.len(), 4);
    }

    #[test]
    fn neworder_plan_is_local_and_writes_lines_plus_two() {
        let o = NewOrder {
            w_id: 2,
            d_id: 0,
            c_id: 17,
            items: vec![5, 900, 5],
        };
        let plan = o.plan((2 << 32) | 9);
        assert_eq!(plan.class, PlanClass::NewOrder);
        assert!(!plan.multisite);
        assert_eq!(plan.steps.len(), 7);
        // district update + 3 stock updates + order insert
        assert_eq!(plan.write_rows(), 5);
        for s in &plan.steps {
            assert_eq!(warehouse_of_table(s.table, s.key), Some(2));
        }
    }

    #[test]
    fn generator_emits_valid_unique_plans() {
        let spec = TpccSpec {
            warehouses: 4,
            remote_pct: REMOTE_PAYMENT_PCT,
        };
        spec.check(4).unwrap();
        assert!(spec.check(5).is_err(), "more instances than warehouses");
        let mut g0 = TpccGenerator::new(spec, 0);
        let mut g1 = TpccGenerator::new(spec, 1);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut appends = std::collections::HashSet::new();
        let mut saw = (false, false, false);
        for _ in 0..500 {
            for g in [&mut g0, &mut g1] {
                let plan = g.next(&mut rng);
                match plan.class {
                    PlanClass::NewOrder => saw.0 = true,
                    PlanClass::Payment if plan.multisite => saw.1 = true,
                    PlanClass::Payment => saw.2 = true,
                    PlanClass::Generic => panic!("tpcc never emits generic plans"),
                }
                for s in &plan.steps {
                    let w = warehouse_of_table(s.table, s.key).expect("tpcc table");
                    assert!(w < spec.warehouses, "key outside scale: {s:?}");
                    if s.op == StepOp::Insert {
                        assert!(appends.insert((s.table, s.key)), "append collision {s:?}");
                    }
                }
            }
        }
        assert!(saw.0 && saw.1 && saw.2, "mix not exercised: {saw:?}");
    }
}
