//! Criterion microbenchmarks of the observability hot path.
//!
//! The obs registry sits inside the serial executor's per-transaction loop,
//! so its primitives must cost nanoseconds, not microseconds: a counter
//! increment and a histogram record should each land under ~20 ns, and a
//! whole phase-span enter/exit (two `Instant::now()` calls plus the
//! thread-local stack) under ~100 ns. EXPERIMENTS.md records measured
//! numbers next to the `islands-sweep --no-obs` A/B overhead check.

use criterion::{criterion_group, criterion_main, Criterion};
use islands_obs::{metrics, BreakdownCategory, Counter, TxnClass};

fn bench_counter(c: &mut Criterion) {
    c.bench_function("obs_counter_inc", |b| {
        let counter = Counter::new();
        b.iter(|| counter.inc());
        std::hint::black_box(counter.get());
    });
}

fn bench_hist(c: &mut Criterion) {
    c.bench_function("obs_hist_record", |b| {
        let h = islands_obs::Hist::new();
        let mut ns = 1_000u64;
        b.iter(|| {
            ns = ns
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record_ns(std::hint::black_box(ns >> 40));
        });
        std::hint::black_box(h.snapshot().count);
    });
}

fn bench_phase_span(c: &mut Criterion) {
    islands_obs::set_txn_class(TxnClass::Local);
    c.bench_function("obs_phase_span", |b| {
        b.iter(|| {
            let span = islands_obs::enter(BreakdownCategory::XctExecution);
            std::hint::black_box(&span);
        })
    });
}

fn bench_record_txn(c: &mut Criterion) {
    c.bench_function("obs_record_txn", |b| {
        b.iter(|| metrics().record_txn(TxnClass::Local, std::hint::black_box(12_345)))
    });
}

fn bench_disabled_span(c: &mut Criterion) {
    // The `--no-obs` fast path: the gate check plus a no-op guard.
    islands_obs::set_enabled(false);
    c.bench_function("obs_phase_span_disabled", |b| {
        b.iter(|| {
            let span = islands_obs::enter(BreakdownCategory::Locking);
            std::hint::black_box(&span);
        })
    });
    islands_obs::set_enabled(true);
}

criterion_group!(
    benches,
    bench_counter,
    bench_hist,
    bench_phase_span,
    bench_record_txn,
    bench_disabled_span
);
criterion_main!(benches);
