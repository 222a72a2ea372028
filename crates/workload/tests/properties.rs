//! Property-based tests on workload generation invariants and the plan
//! codec (round trips, chunked reassembly, typed truncation failures).

use islands_workload::plan::MICRO_TABLE;
use islands_workload::{
    even_owner, even_range, CodecError, MicroGenerator, MicroSpec, OpKind, PlanBranch, PlanClass,
    PlanRequest, PlanStep, StepOp, TxnRequest, Zipf,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn plan_step() -> impl Strategy<Value = PlanStep> {
    prop_oneof![
        (
            0u32..8,
            any::<u64>(),
            prop_oneof![
                Just(StepOp::Read),
                Just(StepOp::Update),
                Just(StepOp::Insert)
            ],
        )
            .prop_map(|(table, key, op)| PlanStep::point(table, key, op)),
        (0u32..8, any::<u64>(), 1u8..=255)
            .prop_map(|(table, key, span)| PlanStep::range(table, key, span)),
    ]
}

fn plan_request() -> impl Strategy<Value = PlanRequest> {
    (
        prop_oneof![
            Just(PlanClass::Generic),
            Just(PlanClass::NewOrder),
            Just(PlanClass::Payment)
        ],
        any::<bool>(),
        prop::collection::vec(plan_step(), 0..24),
    )
        .prop_map(|(class, multisite, steps)| PlanRequest {
            class,
            multisite,
            steps,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zipf samples always stay in range, for any skew and size.
    #[test]
    fn zipf_stays_in_range(n in 1u64..100_000, theta in 0.0f64..=1.0, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// The degenerate sizes stay in range too: n = 1 must always yield 0
    /// (its eta term used to be NaN/inf), and tiny n must never round up to
    /// an out-of-range rank at any skew.
    #[test]
    fn zipf_tiny_n_stays_in_range(n in 1u64..8, theta in 0.0f64..=1.0, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..500 {
            let s = z.sample(&mut rng);
            prop_assert!(s < n, "sample {s} out of 0..{n} at theta {theta}");
            if n == 1 {
                prop_assert_eq!(s, 0);
            }
        }
    }

    /// Generated transactions always have the requested row count, distinct
    /// in-range keys, and local transactions never leave their home site.
    #[test]
    fn requests_are_well_formed(
        rows in 1usize..12,
        multisite in 0.0f64..=1.0,
        skew in 0.0f64..=1.0,
        sites in 1u64..32,
        seed in any::<u64>(),
    ) {
        let spec = MicroSpec {
            kind: OpKind::Update,
            rows_per_txn: rows,
            multisite_pct: multisite,
            skew,
            multisite_sites: None,
            total_rows: 24_000,
            row_size: 16,
        };
        let g = MicroGenerator::new(spec, sites);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            let req = g.next(&mut rng);
            prop_assert_eq!(req.keys.len(), rows);
            let mut k = req.keys.clone();
            k.sort_unstable();
            k.dedup();
            prop_assert_eq!(k.len(), rows, "keys must be distinct");
            prop_assert!(req.keys.iter().all(|&x| x < 24_000));
            if !req.multisite {
                let home = g.site_of(req.keys[0]);
                prop_assert!(req.keys.iter().all(|&x| g.site_of(x) == home));
            }
        }
    }

    /// With the Figure 9 sites knob pinned to `k`, every multisite
    /// transaction touches exactly `k` distinct logical sites (home
    /// included), at any skew, with distinct in-range keys.
    #[test]
    fn sites_knob_spreads_exactly_k_sites(
        k in 2u64..8,
        extra_rows in 0usize..6,
        skew in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let rows = k as usize + extra_rows; // rows_per_txn >= k
        let spec = MicroSpec {
            kind: OpKind::Update,
            rows_per_txn: rows,
            multisite_pct: 1.0,
            skew,
            multisite_sites: Some(k as usize),
            total_rows: 24_000,
            row_size: 16,
        };
        let g = MicroGenerator::new(spec, 24);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            let req = g.next(&mut rng);
            prop_assert_eq!(req.keys.len(), rows);
            let mut distinct = req.keys.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), rows, "keys must be distinct");
            prop_assert!(req.keys.iter().all(|&x| x < 24_000));
            let mut sites: Vec<u64> = req.keys.iter().map(|&x| g.site_of(x)).collect();
            let home = sites[0];
            sites.sort_unstable();
            sites.dedup();
            prop_assert_eq!(sites.len() as u64, k);
            prop_assert!(sites.contains(&home));
        }
    }

    /// Any plan survives an encode/decode round trip exactly, reports its
    /// encoded length truthfully, and leaves trailing bytes untouched.
    #[test]
    fn plans_round_trip(p in plan_request(), gtid in any::<u64>(), trailing in 0usize..9) {
        let mut buf = Vec::new();
        p.encode_into(&mut buf);
        prop_assert_eq!(buf.len(), p.encoded_len());
        buf.extend(std::iter::repeat_n(0xAAu8, trailing));
        let (back, used) = PlanRequest::decode_from(&buf).expect("valid plan");
        prop_assert_eq!(&back, &p);
        prop_assert_eq!(used, p.encoded_len());
        // The 2PC branch wrapper round-trips the same way.
        let branch = PlanBranch { gtid, plan: p };
        let mut bbuf = Vec::new();
        branch.encode_into(&mut bbuf);
        prop_assert_eq!(bbuf.len(), branch.encoded_len());
        let (bback, bused) = PlanBranch::decode_from(&bbuf).expect("valid branch");
        prop_assert_eq!(bback, branch);
        prop_assert_eq!(bused, bbuf.len());
    }

    /// A byte stream of back-to-back plans reassembles exactly under any
    /// chunked arrival: incomplete prefixes report `Truncated` with
    /// `needed > had` (never a panic, never a wrong plan), and every plan
    /// pops out once its final byte lands.
    #[test]
    fn plan_streams_reassemble_from_any_chunking(
        plans in prop::collection::vec(plan_request(), 1..8),
        chunk in 1usize..48,
    ) {
        let mut bytes = Vec::new();
        for p in &plans {
            p.encode_into(&mut bytes);
        }
        let mut buf: Vec<u8> = Vec::new();
        let mut decoded = Vec::new();
        for piece in bytes.chunks(chunk) {
            buf.extend_from_slice(piece);
            loop {
                match PlanRequest::decode_from(&buf) {
                    Ok((p, used)) => {
                        decoded.push(p);
                        buf.drain(..used);
                    }
                    Err(CodecError::Truncated { needed, had }) => {
                        prop_assert_eq!(had, buf.len());
                        prop_assert!(needed > had, "needed {needed} <= had {had}");
                        break;
                    }
                    Err(e) => prop_assert!(false, "unexpected error class {e:?}"),
                }
            }
        }
        prop_assert_eq!(decoded, plans);
        prop_assert_eq!(buf.len(), 0, "stream fully consumed");
    }

    /// Every strict prefix of a valid plan or branch encoding fails with the
    /// typed `Truncated` error pointing past the cut — the invariant the
    /// wire layer's framing relies on.
    #[test]
    fn plan_strict_prefixes_fail_typed(p in plan_request(), gtid in any::<u64>()) {
        let mut buf = Vec::new();
        p.encode_into(&mut buf);
        for cut in 0..buf.len() {
            match PlanRequest::decode_from(&buf[..cut]) {
                Err(CodecError::Truncated { needed, had }) => {
                    prop_assert_eq!(had, cut);
                    prop_assert!(needed > cut, "needed {needed} at cut {cut}");
                }
                other => prop_assert!(false, "cut {cut}: expected Truncated, got {other:?}"),
            }
        }
        let branch = PlanBranch { gtid, plan: p };
        let mut bbuf = Vec::new();
        branch.encode_into(&mut bbuf);
        for cut in 0..bbuf.len() {
            match PlanBranch::decode_from(&bbuf[..cut]) {
                Err(CodecError::Truncated { needed, had }) => {
                    prop_assert_eq!(had, cut);
                    prop_assert!(needed > cut, "branch needed {needed} at cut {cut}");
                }
                other => prop_assert!(false, "branch cut {cut}: got {other:?}"),
            }
        }
    }

    /// `to_plan` is the only logic between a micro batch and the plan path:
    /// one point step per key on the micro table, in key order, with the
    /// batch's kind, `multisite` flag and write count, and an encoding that
    /// decodes back to the same plan.
    #[test]
    fn lowering_a_batch_preserves_keys_kind_and_flags(
        update in any::<bool>(),
        keys in prop::collection::vec(any::<u64>(), 0..24),
        multisite in any::<bool>(),
    ) {
        let kind = if update { OpKind::Update } else { OpKind::Read };
        let req = TxnRequest { kind, keys, multisite };
        let plan = req.to_plan();
        prop_assert_eq!(plan.class, PlanClass::Generic);
        prop_assert_eq!(plan.multisite, multisite);
        let op = if update { StepOp::Update } else { StepOp::Read };
        let expected: Vec<PlanStep> =
            req.keys.iter().map(|&k| PlanStep::point(MICRO_TABLE, k, op)).collect();
        prop_assert_eq!(&plan.steps, &expected);
        prop_assert_eq!(plan.write_rows(), if update { req.keys.len() as u64 } else { 0 });
        prop_assert_eq!(plan.is_read_only(), !update || req.keys.is_empty());
        let mut buf = Vec::new();
        plan.encode_into(&mut buf);
        let (back, used) = PlanRequest::decode_from(&buf).expect("lowered plan decodes");
        prop_assert_eq!(back, plan);
        prop_assert_eq!(used, buf.len());
    }

    /// For every partitionable shape (rows >= parts), the range map and the
    /// ownership map are the same function: every key of part i's range is
    /// owned by i, and the ranges tile the keyspace with no part left empty.
    #[test]
    fn even_range_and_even_owner_agree(n in 1usize..24, extra in 0u64..2_000) {
        let rows = n as u64 + extra; // rows >= n by construction
        let mut covered = 0u64;
        for i in 0..n {
            let (lo, hi) = even_range(i, n, rows);
            prop_assert_eq!(lo, covered, "ranges must tile");
            prop_assert!(hi > lo, "part {} owns an empty range", i);
            // Endpoints and a sample of interior keys all route home.
            for key in [lo, (lo + hi) / 2, hi - 1] {
                prop_assert_eq!(
                    even_owner(key, n, rows), i,
                    "key {} with {} parts over {} rows", key, n, rows
                );
            }
            covered = hi;
        }
        prop_assert_eq!(covered, rows);
    }

    /// Site ranges tile the keyspace exactly.
    #[test]
    fn site_ranges_tile(sites in 1u64..64) {
        let spec = MicroSpec::new(OpKind::Read, 1, 0.0);
        let g = MicroGenerator::new(spec, sites);
        let mut covered = 0u64;
        for s in 0..sites {
            let (lo, hi) = g.site_range(s);
            prop_assert_eq!(lo, covered);
            prop_assert!(hi > lo);
            covered = hi;
        }
        prop_assert_eq!(covered, g.spec().total_rows);
    }
}
