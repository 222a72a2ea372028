//! Criterion microbenchmarks of the `workload::plan` byte codecs.
//!
//! Every request a served deployment processes passes through
//! [`PlanRequest`]'s encoder and decoder, and every wire-level 2PC branch
//! additionally through [`PlanBranch`]'s — so a regression here taxes the
//! whole serving stack. These benches pin the encode and decode costs of
//! both frame bodies (plus a full round trip) so `cargo bench` surfaces
//! codec regressions directly.

use criterion::{criterion_group, criterion_main, Criterion};
use islands_workload::{OpKind, PlanBranch, PlanRequest, TxnRequest};

/// A micro update batch as it reaches the wire: lowered to a plan.
fn request(keys: usize) -> PlanRequest {
    TxnRequest {
        kind: OpKind::Update,
        keys: (0..keys as u64).map(|k| k * 1_031).collect(),
        multisite: keys > 1,
    }
    .to_plan()
}

fn branch(keys: usize) -> PlanBranch {
    PlanBranch {
        gtid: 0xDEAD_BEEF,
        plan: request(keys),
    }
}

fn bench_request_encode(c: &mut Criterion) {
    for keys in [4usize, 64] {
        let req = request(keys);
        let mut buf = Vec::with_capacity(req.encoded_len());
        c.bench_function(&format!("codec_request_encode_{keys}keys"), |b| {
            b.iter(|| {
                buf.clear();
                req.encode_into(&mut buf);
                std::hint::black_box(buf.len())
            })
        });
    }
}

fn bench_request_decode(c: &mut Criterion) {
    for keys in [4usize, 64] {
        let req = request(keys);
        let mut buf = Vec::new();
        req.encode_into(&mut buf);
        c.bench_function(&format!("codec_request_decode_{keys}keys"), |b| {
            b.iter(|| std::hint::black_box(PlanRequest::decode_from(&buf).unwrap()))
        });
    }
}

fn bench_branch_round_trip(c: &mut Criterion) {
    let br = branch(4);
    let mut buf = Vec::with_capacity(br.encoded_len());
    c.bench_function("codec_branch_round_trip_4keys", |b| {
        b.iter(|| {
            buf.clear();
            br.encode_into(&mut buf);
            std::hint::black_box(PlanBranch::decode_from(&buf).unwrap())
        })
    });
}

criterion_group!(
    codec,
    bench_request_encode,
    bench_request_decode,
    bench_branch_round_trip
);
criterion_main!(codec);
