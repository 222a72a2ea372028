//! Lock-free observability for running islands deployments.
//!
//! The paper's core diagnostic instrument is the per-transaction time
//! breakdown of Figure 11 (xct execution / locking / logging /
//! communication / xct management). This crate makes that breakdown — plus
//! latency histograms and queue/2PC gauges — available *online*, from a
//! live serving process, at a cost low enough for the serial-executor hot
//! loop:
//!
//! * [`Counter`] — a sharded relaxed-atomic counter: each thread increments
//!   its own cache-line-padded shard, reads sum all shards.
//! * [`Gauge`] — a single relaxed-atomic level (queue depths, in-flight).
//! * [`hist::Hist`] — a log-bucketed (HDR-style, 2 buckets per octave over
//!   1 µs – 10 s) latency histogram with mergeable snapshots.
//! * [`phase`] — scoped phase spans that partition wall time across the
//!   five Figure 11 categories per transaction class (local / multisite),
//!   with nesting: entering an inner phase pauses attribution to the outer
//!   one, so the categories sum to measured time instead of overlapping.
//! * [`Snapshot`] — a point-in-time copy of the whole registry: mergeable
//!   across instances, encodable for the `Stats` reply frame and the
//!   instance heartbeat, and printable as `islands-obs/1` JSON.
//!
//! Each served instance owns one [`Metrics`] registry, so what an instance
//! reports is its own and nobody else's. The server records its wire
//! counters into the registry it holds; code deeper down (engine phase
//! spans, the executor's queue, the in-doubt table) finds the thread's
//! *current* registry with [`with`] — the one a [`scope`] made current, or
//! a process default on threads no instance owns — so those
//! instrumentation points need no plumbing. Measurements sit behind one
//! process-wide relaxed [`enabled`] flag: when disabled (`--no-obs`), every
//! instrumentation site reduces to one relaxed load — no clock reads, no
//! atomic RMWs — while the wire counters keep counting.
//!
//! There are intentionally **no locks anywhere in this crate** (enforced by
//! `islands-check lint`): a metrics layer that can block is a metrics layer
//! that perturbs the system it observes.

#![forbid(unsafe_code)]

pub mod hist;
pub mod phase;
pub mod snapshot;

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

pub use hist::{Hist, HistSnapshot, BUCKETS};
pub use phase::{enter, set_txn_class, PhaseGuard};
pub use snapshot::Snapshot;

/// The five cost categories of the paper's Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakdownCategory {
    /// Row access work: index probes, reads, writes.
    XctExecution,
    /// Lock manager work and lock waits.
    Locking,
    /// Log inserts and commit-durability waits.
    Logging,
    /// Message send/receive and in-flight time.
    Communication,
    /// Begin/finish bookkeeping, 2PC state machines, dispatch.
    XctManagement,
}

impl BreakdownCategory {
    pub const ALL: [BreakdownCategory; 5] = [
        BreakdownCategory::XctExecution,
        BreakdownCategory::Locking,
        BreakdownCategory::Logging,
        BreakdownCategory::Communication,
        BreakdownCategory::XctManagement,
    ];

    pub fn label(self) -> &'static str {
        match self {
            BreakdownCategory::XctExecution => "xct execution",
            BreakdownCategory::Locking => "locking",
            BreakdownCategory::Logging => "logging",
            BreakdownCategory::Communication => "communication",
            BreakdownCategory::XctManagement => "xct management",
        }
    }

    /// Stable index into per-category arrays (and the snapshot codec).
    pub fn index(self) -> usize {
        match self {
            BreakdownCategory::XctExecution => 0,
            BreakdownCategory::Locking => 1,
            BreakdownCategory::Logging => 2,
            BreakdownCategory::Communication => 3,
            BreakdownCategory::XctManagement => 4,
        }
    }

    /// Short machine-readable key (JSON field stems).
    pub fn key(self) -> &'static str {
        match self {
            BreakdownCategory::XctExecution => "execution",
            BreakdownCategory::Locking => "locking",
            BreakdownCategory::Logging => "logging",
            BreakdownCategory::Communication => "communication",
            BreakdownCategory::XctManagement => "management",
        }
    }
}

/// Number of breakdown categories.
pub const NCATS: usize = 5;

/// The transaction classes the paper's served comparisons split on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnClass {
    /// Single-site: executes entirely on one instance.
    Local,
    /// Multisite: spans instances, coordinated by 2PC.
    Multisite,
}

impl TxnClass {
    pub const ALL: [TxnClass; 2] = [TxnClass::Local, TxnClass::Multisite];

    pub fn index(self) -> usize {
        match self {
            TxnClass::Local => 0,
            TxnClass::Multisite => 1,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            TxnClass::Local => "local",
            TxnClass::Multisite => "multisite",
        }
    }
}

/// Number of transaction classes.
pub const NCLASSES: usize = 2;

/// Shards per counter. Eight covers the thread counts a single instance
/// runs (sessions + executor) without false sharing mattering.
pub const NSHARDS: usize = 8;

/// One cache line so two shards never share one.
#[repr(align(64))]
struct Pad(AtomicU64);

impl Pad {
    const fn new() -> Self {
        Pad(AtomicU64::new(0))
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// This thread's home shard (assigned round-robin at first use).
#[inline]
fn shard() -> usize {
    thread_local! {
        static SHARD: usize = NEXT_SHARD.fetch_add(1, Relaxed) % NSHARDS;
    }
    SHARD.with(|s| *s)
}

/// A sharded relaxed-atomic counter: increments touch only the calling
/// thread's cache-line-padded shard, so the hot path never bounces a line
/// between executor threads. Reads sum all shards (approximate under
/// concurrent increments, exact once writers quiesce — fine for metrics).
pub struct Counter {
    shards: [Pad; NSHARDS],
}

impl Counter {
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // template for array init
        const ZERO: Pad = Pad::new();
        Counter {
            shards: [ZERO; NSHARDS],
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard()].0.fetch_add(n, Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Relaxed)).sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A level that moves both ways (queue depth, in-flight branches). Single
/// atomic: gauges are updated once per enqueue/dequeue, not per row.
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Saturating: a stray extra `dec` reads as zero, not u64::MAX.
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(1)));
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// One registry: every instrument a served instance records into. Each
/// instance and each server owns one ([`Metrics::new`] behind an `Arc`);
/// code that is handed no registry finds the thread's current one with
/// [`with`].
///
/// The seven wire counters are plain sharded [`Counter`]s the server
/// records into directly, whether or not recording is [`enabled`]: they
/// are the counts a drain is judged by, not measurements. Everything else
/// records only while enabled, except the restart replay record.
pub struct Metrics {
    /// Connections accepted.
    pub connections: Counter,
    /// Request frames of any kind answered.
    pub requests: Counter,
    /// Local commits and applied commit decisions.
    pub commits: Counter,
    /// Spent retry budgets and applied abort decisions.
    pub aborts: Counter,
    /// Malformed or unsatisfiable requests answered with an error reply.
    pub errors: Counter,
    /// 2PC prepare frames answered.
    pub prepares: Counter,
    /// 2PC decision frames answered.
    pub decisions: Counter,
    /// Nanoseconds attributed per `[class][category]` by phase spans.
    phase_ns: [[Counter; NCATS]; NCLASSES],
    /// Completed transactions per class (the breakdown's denominator).
    txns: [Counter; NCLASSES],
    /// End-to-end server-side handling latency per class.
    txn_us: [Hist; NCLASSES],
    /// Participant-side Prepare→Vote handling latency (2PC phase 1). On the
    /// coordinator side the same histogram records the full Prepare→Vote
    /// round trip.
    prepare_us: Hist,
    /// Participant-side Decision→Ack handling latency (2PC phase 2);
    /// coordinator side records the round trip.
    decision_us: Hist,
    /// How long prepared branches sat parked awaiting the decision.
    parked_us: Hist,
    /// Callers waiting for a serial partition (0 for the locked engine).
    pub queue_depth: Gauge,
    /// Completed restart replays (one per recovered instance incarnation).
    recoveries: Counter,
    /// Ownerless branches (replayed, or left by a dead link) resolved to
    /// commit.
    in_doubt_commit: Counter,
    /// Ownerless branches resolved to abort (including presumed abort).
    in_doubt_abort: Counter,
    /// Wall time of each restart replay (WAL scan + redo/undo + re-park).
    recovery_us: Hist,
}

impl Metrics {
    /// An empty registry.
    pub const fn new() -> Self {
        // Templates for array init (each use is a fresh copy, not a shared
        // atomic), hence the allow.
        #[allow(clippy::declare_interior_mutable_const)]
        const CTR: Counter = Counter::new();
        #[allow(clippy::declare_interior_mutable_const)]
        const ROW: [Counter; NCATS] = [CTR; NCATS];
        #[allow(clippy::declare_interior_mutable_const)]
        const H: Hist = Hist::new();
        Metrics {
            connections: CTR,
            requests: CTR,
            commits: CTR,
            aborts: CTR,
            errors: CTR,
            prepares: CTR,
            decisions: CTR,
            phase_ns: [ROW; NCLASSES],
            txns: [CTR; NCLASSES],
            txn_us: [H; NCLASSES],
            prepare_us: H,
            decision_us: H,
            parked_us: H,
            queue_depth: Gauge::new(),
            recoveries: CTR,
            in_doubt_commit: CTR,
            in_doubt_abort: CTR,
            recovery_us: H,
        }
    }

    /// Attribute `ns` of phase time directly (the span guards call this;
    /// use it yourself only for time measured out-of-band).
    #[inline]
    pub fn record_phase_ns(&self, class: TxnClass, cat: BreakdownCategory, ns: u64) {
        self.phase_ns[class.index()][cat.index()].add(ns);
    }

    /// One transaction of `class` finished after `ns` of server-side
    /// handling.
    #[inline]
    pub fn record_txn(&self, class: TxnClass, ns: u64) {
        if !enabled() {
            return;
        }
        self.txns[class.index()].inc();
        self.txn_us[class.index()].record_ns(ns);
    }

    /// Prepare→Vote latency: a participant's handling, or the
    /// coordinator's fan-out to last vote (a round trip, plus reading any
    /// acks the links owed from earlier rounds).
    #[inline]
    pub fn record_prepare(&self, ns: u64) {
        if enabled() {
            self.prepare_us.record_ns(ns);
        }
    }

    /// Decision phase: a participant's Decision→Ack handling, or the
    /// coordinator's decision force plus fan-out writes — not a round trip,
    /// the coordinator answers its caller without waiting for acks.
    #[inline]
    pub fn record_decision(&self, ns: u64) {
        if enabled() {
            self.decision_us.record_ns(ns);
        }
    }

    /// A parked 2PC branch was decided after waiting `ns`.
    #[inline]
    pub fn record_parked(&self, ns: u64) {
        if enabled() {
            self.parked_us.record_ns(ns);
        }
    }

    /// One instance finished its restart replay after `ns` of wall time.
    /// Recoveries are rare and always worth counting, so this records even
    /// when recording is disabled.
    pub fn record_recovery(&self, ns: u64) {
        self.recoveries.inc();
        self.recovery_us.record_ns(ns);
    }

    /// An ownerless in-doubt branch reached its outcome.
    pub fn record_in_doubt_resolved(&self, commit: bool) {
        if commit {
            self.in_doubt_commit.inc();
        } else {
            self.in_doubt_abort.inc();
        }
    }

    /// Point-in-time copy of everything (torn across concurrent writers by
    /// at most one in-flight transaction — fine for scraping). What only
    /// the engine knows — parked branches, lock-manager counts — is left
    /// zero for the engine to fill.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot {
            enabled: enabled(),
            connections: self.connections.get(),
            requests: self.requests.get(),
            commits: self.commits.get(),
            aborts: self.aborts.get(),
            errors: self.errors.get(),
            prepares: self.prepares.get(),
            decisions: self.decisions.get(),
            // Reserved: no instance presumes abort for a Yes vote.
            presumed_aborts: 0,
            queue_depth: self.queue_depth.get(),
            recoveries: self.recoveries.get(),
            in_doubt_commit: self.in_doubt_commit.get(),
            in_doubt_abort: self.in_doubt_abort.get(),
            prepare_us: self.prepare_us.snapshot(),
            decision_us: self.decision_us.snapshot(),
            parked_us: self.parked_us.snapshot(),
            recovery_us: self.recovery_us.snapshot(),
            ..Snapshot::default()
        };
        for class in TxnClass::ALL {
            let ci = class.index();
            snap.txns[ci] = self.txns[ci].get();
            snap.txn_us[ci] = self.txn_us[ci].snapshot();
            for cat in BreakdownCategory::ALL {
                snap.phase_ns[ci][cat.index()] = self.phase_ns[ci][cat.index()].get();
            }
        }
        snap
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// The one recording switch, for every registry in the process.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether recording is on (one relaxed load; every hot path checks this
/// first and does nothing else when off).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Master switch for the process (`--no-obs` plumbs to this). Disabling
/// stops *recording*; already accumulated values remain readable, and the
/// wire counters keep counting.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// The registry of threads no instance owns: a load generator's
/// coordinator side, a test's own thread.
static PROCESS: Metrics = Metrics::new();

thread_local! {
    /// The registry a [`Scope`] made current on this thread; `None` means
    /// [`PROCESS`].
    static CURRENT: RefCell<Option<Arc<Metrics>>> = const { RefCell::new(None) };
}

/// Run `f` on this thread's current registry: the one the innermost live
/// [`scope`] entered, else the process default. Never enter a scope inside
/// `f`.
#[inline]
pub fn with<R>(f: impl FnOnce(&Metrics) -> R) -> R {
    CURRENT.with(|current| f(current.borrow().as_deref().unwrap_or(&PROCESS)))
}

/// Make `metrics` this thread's current registry until the returned guard
/// drops, which restores the one before. Whatever a phase span has timed
/// up to the switch is billed to the registry it was timed under.
pub fn scope(metrics: &Arc<Metrics>) -> Scope {
    Scope {
        prev: swap(Some(Arc::clone(metrics))),
        _not_send: PhantomData,
    }
}

fn swap(next: Option<Arc<Metrics>>) -> Option<Arc<Metrics>> {
    phase::settle();
    CURRENT.with(|current| current.replace(next))
}

/// A live [`scope`]; dropping it restores the previous registry.
#[must_use = "a scope makes its registry current only while it is held"]
pub struct Scope {
    prev: Option<Arc<Metrics>>,
    /// Scopes must drop on the thread that entered them.
    _not_send: PhantomData<*const ()>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        swap(self.prev.take());
    }
}

/// `enabled` is process-wide, so tests that toggle it serialize through
/// this (libtest runs tests concurrently).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // extra dec must not wrap
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn registry_snapshot_reflects_recordings() {
        let _serial = crate::test_lock();
        let m = Metrics::new();
        m.record_txn(TxnClass::Multisite, 5_000_000); // 5 ms
        m.record_phase_ns(TxnClass::Multisite, BreakdownCategory::Logging, 1_000);
        m.record_prepare(2_000_000);
        m.record_decision(3_000_000);
        m.record_parked(10_000_000);
        m.commits.inc();
        let snap = m.snapshot();
        let mi = TxnClass::Multisite.index();
        assert_eq!(snap.txns[mi], 1);
        assert_eq!(snap.phase_ns[mi][BreakdownCategory::Logging.index()], 1_000);
        assert_eq!(snap.prepare_us.count, 1);
        assert_eq!(snap.decision_us.count, 1);
        assert_eq!(snap.parked_us.count, 1);
        assert_eq!(snap.commits, 1);
    }

    #[test]
    fn disabled_recording_drops_measurements_but_keeps_counting() {
        let _serial = crate::test_lock();
        let m = Metrics::new();
        set_enabled(false);
        m.record_txn(TxnClass::Local, 1_000);
        m.record_prepare(1_000);
        m.record_recovery(1_000);
        m.commits.inc();
        let snap = m.snapshot();
        set_enabled(true);
        assert!(!snap.enabled);
        assert_eq!((snap.txns[0], snap.prepare_us.count), (0, 0));
        assert_eq!((snap.recoveries, snap.commits), (1, 1));
    }

    #[test]
    fn scopes_nest_and_restore_the_process_default() {
        let (outer, inner) = (Arc::new(Metrics::new()), Arc::new(Metrics::new()));
        let recover = || with(|m| m.record_recovery(1));
        {
            let _outer = scope(&outer);
            recover();
            {
                let _inner = scope(&inner);
                recover();
                recover();
            }
            recover();
        }
        assert_eq!(outer.snapshot().recoveries, 2);
        assert_eq!(inner.snapshot().recoveries, 2);
        // Back on the process default: neither scoped registry moves.
        recover();
        assert_eq!(outer.snapshot().recoveries + inner.snapshot().recoveries, 4);
        // Another thread's scope is none of this thread's business.
        let _mine = scope(&outer);
        std::thread::scope(|s| {
            s.spawn(|| with(|m| m.record_recovery(1)));
        });
        assert_eq!(outer.snapshot().recoveries, 2);
    }

    #[test]
    fn category_indices_are_a_bijection() {
        for (i, cat) in BreakdownCategory::ALL.iter().enumerate() {
            assert_eq!(cat.index(), i);
        }
        for (i, class) in TxnClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }
}
