//! Scoped phase spans: partition wall time across Figure 11 categories.
//!
//! [`enter`] pushes a category onto a per-thread phase stack and returns a
//! guard; dropping the guard pops it. Time is attributed on every
//! transition (push and pop) to whichever category was on top, so nested
//! spans *pause* their parent instead of double-counting: a lock wait
//! inside row access bills Locking, not Locking *and* XctExecution. The
//! categories therefore sum to covered wall time and the Fig. 11
//! percentages are a true partition.
//!
//! Attribution lands in the thread's current registry ([`crate::with`])
//! under the thread's current transaction class ([`set_txn_class`]), which
//! the engine/executor sets before touching storage — storage-level spans
//! need no plumbing to know which instance they serve or whether the
//! transaction is local or multisite. A registry switch ([`crate::scope`])
//! settles the open span first, so each registry is billed the time spent
//! under it.
//!
//! Cost: two `Instant::now()` reads per span when enabled, one relaxed
//! load when disabled. Guards are `!Send`; the stack is thread-local.

use std::cell::Cell;
use std::marker::PhantomData;
use std::time::Instant;

use crate::{BreakdownCategory, TxnClass};

/// Deeper nesting than any real path (session → txn → op → lock/wal).
const MAX_DEPTH: usize = 8;

struct PhaseStack {
    depth: Cell<usize>,
    cats: [Cell<BreakdownCategory>; MAX_DEPTH],
    /// Instant of the last push/pop while the stack is non-empty.
    last: Cell<Instant>,
}

impl PhaseStack {
    fn attribute(&self, cat: BreakdownCategory, now: Instant) {
        let ns = now.duration_since(self.last.get()).as_nanos() as u64;
        if ns > 0 {
            crate::with(|m| m.record_phase_ns(CLASS.with(|c| c.get()), cat, ns));
        }
    }

    /// Returns whether the category was actually pushed.
    fn push(&self, cat: BreakdownCategory, now: Instant) -> bool {
        let d = self.depth.get();
        if d > 0 {
            self.attribute(self.cats[d - 1].get(), now);
        }
        self.last.set(now);
        if d >= MAX_DEPTH {
            return false; // keep attributing to the real top
        }
        self.cats[d].set(cat);
        self.depth.set(d + 1);
        true
    }

    fn pop(&self, now: Instant) {
        let d = self.depth.get();
        debug_assert!(d > 0, "phase pop without push");
        if d == 0 {
            return;
        }
        self.attribute(self.cats[d - 1].get(), now);
        self.last.set(now);
        self.depth.set(d - 1);
    }
}

thread_local! {
    static STACK: PhaseStack = PhaseStack {
        depth: Cell::new(0),
        cats: [const { Cell::new(BreakdownCategory::XctManagement) }; MAX_DEPTH],
        last: Cell::new(Instant::now()),
    };
    static CLASS: Cell<TxnClass> = const { Cell::new(TxnClass::Local) };
}

/// Bill the open span's time so far to the current registry and restart
/// its clock: what a registry switch does on either side of it.
pub(crate) fn settle() {
    STACK.with(|s| {
        let d = s.depth.get();
        if d > 0 {
            let now = Instant::now();
            s.attribute(s.cats[d - 1].get(), now);
            s.last.set(now);
        }
    });
}

/// Set the transaction class subsequent spans on this thread attribute to.
/// Engines call this once per transaction, before any storage work.
#[inline]
pub fn set_txn_class(class: TxnClass) {
    CLASS.with(|c| c.set(class));
}

/// The thread's current transaction class.
#[inline]
pub fn txn_class() -> TxnClass {
    CLASS.with(|c| c.get())
}

/// A live phase span; dropping it ends the phase.
#[must_use = "a phase span measures nothing unless it is held"]
pub struct PhaseGuard {
    pushed: bool,
    /// Guards must drop on the thread that created them.
    _not_send: PhantomData<*const ()>,
}

/// Begin a phase span for `cat`. Near-free when the registry is disabled.
#[inline]
pub fn enter(cat: BreakdownCategory) -> PhaseGuard {
    if !crate::enabled() {
        return PhaseGuard {
            pushed: false,
            _not_send: PhantomData,
        };
    }
    let now = Instant::now();
    let pushed = STACK.with(|s| s.push(cat, now));
    PhaseGuard {
        pushed,
        _not_send: PhantomData,
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if self.pushed {
            let now = Instant::now();
            STACK.with(|s| s.pop(now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BreakdownCategory as Cat;
    use crate::{scope, Metrics};
    use std::sync::Arc;

    fn phase_totals(m: &Metrics) -> [u64; crate::NCATS] {
        let snap = m.snapshot();
        let mut out = [0; crate::NCATS];
        for (i, v) in out.iter_mut().enumerate() {
            *v = snap.phase_ns[0][i] + snap.phase_ns[1][i];
        }
        out
    }

    #[test]
    fn nested_spans_pause_their_parent() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        set_txn_class(TxnClass::Local);
        let m = Arc::new(Metrics::new());
        let _scope = scope(&m);
        let spin = std::time::Duration::from_millis(5);
        let start = Instant::now();
        {
            let _exec = enter(Cat::XctExecution);
            while start.elapsed() < spin {}
            {
                let _lock = enter(Cat::Locking);
                let s2 = Instant::now();
                while s2.elapsed() < spin {}
            }
        }
        let totals = phase_totals(&m);
        let exec = totals[Cat::XctExecution.index()];
        let lock = totals[Cat::Locking.index()];
        let ms = 1_000_000u64;
        // Each phase owns its ~5 ms exclusively: neither sees the other's.
        assert!(exec >= 4 * ms && exec < 20 * ms, "exec {exec} ns");
        assert!(lock >= 4 * ms && lock < 20 * ms, "lock {lock} ns");
    }

    #[test]
    fn class_routes_attribution() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let m = Arc::new(Metrics::new());
        let _scope = scope(&m);
        set_txn_class(TxnClass::Multisite);
        {
            let _g = enter(Cat::Communication);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_txn_class(TxnClass::Local);
        let snap = m.snapshot();
        let ci = Cat::Communication.index();
        assert!(snap.phase_ns[TxnClass::Multisite.index()][ci] > 0);
        assert_eq!(snap.phase_ns[TxnClass::Local.index()][ci], 0);
    }

    #[test]
    fn a_registry_switch_bills_each_side_its_own_time() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let (outer, inner) = (Arc::new(Metrics::new()), Arc::new(Metrics::new()));
        let _outer = scope(&outer);
        let spin = |ms| {
            let start = Instant::now();
            while start.elapsed() < std::time::Duration::from_millis(ms) {}
        };
        {
            let _span = enter(Cat::XctManagement);
            spin(5);
            {
                let _inner = scope(&inner);
                spin(5);
            }
        }
        let ci = Cat::XctManagement.index();
        let ms = 1_000_000u64;
        for (who, m) in [("outer", &outer), ("inner", &inner)] {
            let ns = phase_totals(m)[ci];
            assert!(ns >= 4 * ms && ns < 20 * ms, "{who}: {ns} ns");
        }
    }

    #[test]
    fn disabled_spans_attribute_nothing() {
        let _serial = crate::test_lock();
        let m = Arc::new(Metrics::new());
        let _scope = scope(&m);
        crate::set_enabled(false);
        {
            let _g = enter(Cat::Logging);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        crate::set_enabled(true);
        assert_eq!(
            phase_totals(&m)[Cat::Logging.index()],
            0,
            "disabled span must not attribute"
        );
    }

    #[test]
    fn overflow_depth_keeps_counting_the_top() {
        crate::set_enabled(true);
        let mut guards = Vec::new();
        for _ in 0..(MAX_DEPTH + 3) {
            guards.push(enter(Cat::XctManagement));
        }
        // Unwinds without panicking or underflowing the stack.
        drop(guards);
        let _g = enter(Cat::XctExecution);
    }
}
