//! Async synchronization primitives for simulated tasks.
//!
//! All primitives are FIFO: waiters are served in arrival order, which keeps
//! simulations deterministic and models the queue-based fairness of the lock
//! and latch managers in Shore-MT-style engines.

use std::cell::{Ref, RefCell, RefMut};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// SimMutex
// ---------------------------------------------------------------------------

/// An async mutex with strict FIFO handoff.
///
/// Unlike an OS mutex, release hands the lock directly to the oldest waiter,
/// so convoy behavior under contention is modeled faithfully.
pub struct SimMutex<T> {
    inner: Rc<MutexInner<T>>,
}

impl<T> Clone for SimMutex<T> {
    fn clone(&self) -> Self {
        SimMutex {
            inner: Rc::clone(&self.inner),
        }
    }
}

struct MutexInner<T> {
    state: RefCell<MutexState>,
    value: RefCell<T>,
}

struct MutexState {
    locked: bool,
    next_ticket: u64,
    /// Ticket of the waiter the lock has been handed to (but which has not
    /// yet resumed).
    handoff: Option<u64>,
    queue: VecDeque<(u64, Waker)>,
    /// Total number of lock acquisitions that had to wait (contention stat).
    contended: u64,
    acquisitions: u64,
}

impl<T> SimMutex<T> {
    pub fn new(value: T) -> Self {
        SimMutex {
            inner: Rc::new(MutexInner {
                state: RefCell::new(MutexState {
                    locked: false,
                    next_ticket: 0,
                    handoff: None,
                    queue: VecDeque::new(),
                    contended: 0,
                    acquisitions: 0,
                }),
                value: RefCell::new(value),
            }),
        }
    }

    /// Acquire the lock, suspending in FIFO order if held.
    pub fn lock(&self) -> MutexLockFuture<T> {
        MutexLockFuture {
            mutex: self.clone(),
            ticket: None,
        }
    }

    /// Acquire only if free right now.
    pub fn try_lock(&self) -> Option<SimMutexGuard<T>> {
        let mut st = self.inner.state.borrow_mut();
        if !st.locked {
            st.locked = true;
            st.acquisitions += 1;
            drop(st);
            Some(SimMutexGuard {
                mutex: self.clone(),
            })
        } else {
            None
        }
    }

    /// Number of tasks currently queued for the lock.
    pub fn queue_len(&self) -> usize {
        self.inner.state.borrow().queue.len()
    }

    /// `(total acquisitions, acquisitions that waited)`.
    pub fn contention_stats(&self) -> (u64, u64) {
        let st = self.inner.state.borrow();
        (st.acquisitions, st.contended)
    }
}

/// Future returned by [`SimMutex::lock`].
pub struct MutexLockFuture<T> {
    mutex: SimMutex<T>,
    ticket: Option<u64>,
}

impl<T> Future for MutexLockFuture<T> {
    type Output = SimMutexGuard<T>;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mutex = self.mutex.clone();
        let mut st = mutex.inner.state.borrow_mut();
        match self.ticket {
            None => {
                if !st.locked {
                    st.locked = true;
                    st.acquisitions += 1;
                    drop(st);
                    Poll::Ready(SimMutexGuard { mutex })
                } else {
                    let t = st.next_ticket;
                    st.next_ticket += 1;
                    st.queue.push_back((t, cx.waker().clone()));
                    st.contended += 1;
                    st.acquisitions += 1;
                    self.ticket = Some(t);
                    Poll::Pending
                }
            }
            Some(t) => {
                if st.handoff == Some(t) {
                    st.handoff = None;
                    drop(st);
                    Poll::Ready(SimMutexGuard { mutex })
                } else {
                    // Refresh the stored waker in case the task was moved.
                    if let Some(entry) = st.queue.iter_mut().find(|(tk, _)| *tk == t) {
                        entry.1 = cx.waker().clone();
                    }
                    Poll::Pending
                }
            }
        }
    }
}

/// RAII guard for [`SimMutex`]; unlocks (with FIFO handoff) on drop.
pub struct SimMutexGuard<T> {
    mutex: SimMutex<T>,
}

impl<T> SimMutexGuard<T> {
    /// Borrow the protected value mutably. The borrow must not be held across
    /// an `.await` that other borrowers could interleave with — in practice,
    /// borrow, mutate, drop, then await.
    pub fn get(&self) -> RefMut<'_, T> {
        self.mutex.inner.value.borrow_mut()
    }

    pub fn get_ref(&self) -> Ref<'_, T> {
        self.mutex.inner.value.borrow()
    }
}

impl<T> Drop for SimMutexGuard<T> {
    fn drop(&mut self) {
        let mut st = self.mutex.inner.state.borrow_mut();
        debug_assert!(st.locked);
        if let Some((t, w)) = st.queue.pop_front() {
            st.handoff = Some(t);
            w.wake();
        } else {
            st.locked = false;
        }
    }
}

// ---------------------------------------------------------------------------
// Notify
// ---------------------------------------------------------------------------

/// A condition-variable-like wakeup primitive with FIFO waiters.
///
/// `notify_one`/`notify_all` wake tasks currently suspended in
/// [`Notify::notified`]. There is no stored permit: within the
/// single-threaded executor, checking a condition and then awaiting
/// `notified()` is atomic (no interleaving before the first poll), so the
/// classic lost-wakeup race cannot occur as long as callers re-check their
/// condition in a loop.
#[derive(Clone)]
pub struct Notify {
    inner: Rc<RefCell<NotifyState>>,
}

struct NotifyState {
    next_ticket: u64,
    waiting: VecDeque<(u64, Waker)>,
    fired: Vec<u64>,
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    pub fn new() -> Self {
        Notify {
            inner: Rc::new(RefCell::new(NotifyState {
                next_ticket: 0,
                waiting: VecDeque::new(),
                fired: Vec::new(),
            })),
        }
    }

    /// Wake the oldest waiter, if any.
    pub fn notify_one(&self) {
        let mut st = self.inner.borrow_mut();
        if let Some((t, w)) = st.waiting.pop_front() {
            st.fired.push(t);
            w.wake();
        }
    }

    /// Wake every current waiter.
    pub fn notify_all(&self) {
        let mut st = self.inner.borrow_mut();
        let drained: Vec<_> = st.waiting.drain(..).collect();
        for (t, w) in drained {
            st.fired.push(t);
            w.wake();
        }
    }

    pub fn waiters(&self) -> usize {
        self.inner.borrow().waiting.len()
    }

    /// Wait until notified (registers on first poll).
    pub fn notified(&self) -> Notified {
        Notified {
            notify: self.clone(),
            ticket: None,
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    notify: Notify,
    ticket: Option<u64>,
}

impl Future for Notified {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.notify.inner.borrow_mut();
        match self.ticket {
            None => {
                let t = st.next_ticket;
                st.next_ticket += 1;
                st.waiting.push_back((t, cx.waker().clone()));
                drop(st);
                self.ticket = Some(t);
                Poll::Pending
            }
            Some(t) => {
                if let Some(pos) = st.fired.iter().position(|&f| f == t) {
                    st.fired.swap_remove(pos);
                    Poll::Ready(())
                } else {
                    if let Some(entry) = st.waiting.iter_mut().find(|(tk, _)| *tk == t) {
                        entry.1 = cx.waker().clone();
                    }
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        if let Some(t) = self.ticket {
            let mut st = self.notify.inner.borrow_mut();
            if let Some(pos) = st.waiting.iter().position(|(tk, _)| *tk == t) {
                st.waiting.remove(pos);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

/// A one-shot broadcast flag: once [`Event::set`] is called, all current and
/// future [`Event::wait`]s complete immediately. Used for commit-durable
/// notifications and 2PC decision broadcast.
#[derive(Clone)]
pub struct Event {
    inner: Rc<RefCell<EventState>>,
}

struct EventState {
    fired: bool,
    waiters: Vec<Waker>,
}

impl Default for Event {
    fn default() -> Self {
        Self::new()
    }
}

impl Event {
    pub fn new() -> Self {
        Event {
            inner: Rc::new(RefCell::new(EventState {
                fired: false,
                waiters: Vec::new(),
            })),
        }
    }

    pub fn set(&self) {
        let mut st = self.inner.borrow_mut();
        st.fired = true;
        for w in st.waiters.drain(..) {
            w.wake();
        }
    }

    pub fn is_set(&self) -> bool {
        self.inner.borrow().fired
    }

    pub fn wait(&self) -> EventWait {
        EventWait {
            event: self.clone(),
        }
    }
}

/// Future returned by [`Event::wait`].
pub struct EventWait {
    event: Event,
}

impl Future for EventWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.event.inner.borrow_mut();
        if st.fired {
            Poll::Ready(())
        } else {
            st.waiters.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn mutex_provides_mutual_exclusion_and_fifo() {
        let sim = Sim::new();
        let m = SimMutex::new(Vec::<u32>::new());
        for i in 0..5u32 {
            let s = sim.clone();
            let m = m.clone();
            sim.spawn(async move {
                // Stagger arrival so the queue order is well defined.
                s.sleep(10 * (i as u64 + 1)).await;
                let g = m.lock().await;
                s.sleep(1_000).await; // hold across virtual time
                g.get().push(i);
            });
        }
        sim.run();
        let (acq, contended) = m.contention_stats();
        assert_eq!(acq, 5);
        assert_eq!(contended, 4, "all but the first acquisition waited");
        let g = m.try_lock().unwrap();
        assert_eq!(*g.get_ref(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mutex_try_lock() {
        let m = SimMutex::new(7u32);
        let g = m.try_lock().unwrap();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn notify_wakes_in_fifo_order() {
        let sim = Sim::new();
        let n = Notify::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let s = sim.clone();
            let n = n.clone();
            let l = Rc::clone(&log);
            sim.spawn(async move {
                s.sleep(i as u64 + 1).await;
                n.notified().await;
                l.borrow_mut().push(i);
            });
        }
        let s = sim.clone();
        let n2 = n.clone();
        sim.spawn(async move {
            s.sleep(100).await;
            n2.notify_one();
            s.sleep(100).await;
            n2.notify_all();
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn dropped_waiter_is_removed() {
        let sim = Sim::new();
        let n = Notify::new();
        {
            let fut = n.notified();
            drop(fut); // never polled: no ticket, nothing to remove
        }
        assert_eq!(n.waiters(), 0);
        // A polled-then-dropped waiter must unregister.
        let n2 = n.clone();
        let s = sim.clone();
        sim.spawn(async move {
            let w = n2.notified();
            // Race the waiter against a timeout; timeout wins, future drops.
            futures_select_timeout(&s, w, 50).await;
        });
        sim.run();
        assert_eq!(n.waiters(), 0);
    }

    /// Minimal select: waits on `fut` but gives up after `d` picoseconds.
    async fn futures_select_timeout(sim: &Sim, fut: Notified, d: u64) {
        use std::future::Future;
        use std::pin::pin;
        use std::task::Poll;
        let mut fut = pin!(fut);
        let mut sleep = pin!(sim.sleep(d));
        std::future::poll_fn(move |cx| {
            if fut.as_mut().poll(cx).is_ready() || sleep.as_mut().poll(cx).is_ready() {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
        .await;
    }

    #[test]
    fn event_broadcasts_to_current_and_future_waiters() {
        let sim = Sim::new();
        let e = Event::new();
        let count = Rc::new(Cell::new(0));
        for _ in 0..3 {
            let e = e.clone();
            let c = Rc::clone(&count);
            sim.spawn(async move {
                e.wait().await;
                c.set(c.get() + 1);
            });
        }
        let e2 = e.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(10).await;
            e2.set();
        });
        sim.run();
        assert_eq!(count.get(), 3);
        // Late waiter completes immediately.
        let c = Rc::clone(&count);
        let e3 = e.clone();
        sim.spawn(async move {
            e3.wait().await;
            c.set(c.get() + 1);
        });
        sim.run();
        assert_eq!(count.get(), 4);
    }
}
