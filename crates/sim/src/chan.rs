//! Message channels with per-message delivery latency.
//!
//! The shared-nothing configurations in the paper exchange messages between
//! database instances over IPC mechanisms whose cost depends on the
//! mechanism and on whether the endpoints share a socket (Figure 6).
//! [`Sender::send`] takes the latency for *that* message, so the transport
//! layer in `islands-net` can charge topology-dependent costs per hop.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::{Sim, SimTime};

/// Create an unbounded channel on `sim`. Messages sent with non-zero latency
/// become visible to the receiver only after that much virtual time.
pub fn channel<T>(sim: &Sim) -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(ChanInner {
        sim: sim.clone(),
        state: RefCell::new(ChanState {
            ready: VecDeque::new(),
            pending: BinaryHeap::new(),
            seq: 0,
            recv_waker: None,
            senders: 1,
        }),
    });
    (
        Sender {
            inner: Rc::clone(&inner),
        },
        Receiver { inner },
    )
}

struct ChanInner<T> {
    sim: Sim,
    state: RefCell<ChanState<T>>,
}

struct ChanState<T> {
    ready: VecDeque<T>,
    pending: BinaryHeap<Reverse<Pending<T>>>,
    seq: u64,
    recv_waker: Option<Waker>,
    senders: usize,
}

struct Pending<T> {
    arrival: u64,
    seq: u64,
    msg: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.arrival == other.arrival && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrival, self.seq).cmp(&(other.arrival, other.seq))
    }
}

impl<T> ChanState<T> {
    /// Move messages whose arrival time has passed into the ready queue.
    fn mature(&mut self, now: u64) {
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.arrival <= now {
                let Reverse(p) = self.pending.pop().unwrap();
                self.ready.push_back(p.msg);
            } else {
                break;
            }
        }
    }
}

/// Sending half; clone freely.
pub struct Sender<T> {
    inner: Rc<ChanInner<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.state.borrow_mut().senders += 1;
        Sender {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.inner.state.borrow_mut();
        st.senders -= 1;
        if st.senders == 0 {
            if let Some(w) = st.recv_waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Sender<T> {
    /// Send `msg`; the receiver can observe it `latency_ps` from now.
    pub fn send(&self, msg: T, latency_ps: u64) {
        let now = self.inner.sim.now().as_ps();
        let mut st = self.inner.state.borrow_mut();
        if latency_ps == 0 {
            st.ready.push_back(msg);
            if let Some(w) = st.recv_waker.take() {
                w.wake();
            }
        } else {
            let seq = st.seq;
            st.seq += 1;
            let arrival = now + latency_ps;
            st.pending.push(Reverse(Pending { arrival, seq, msg }));
            // If the receiver is parked, arrange a wake at arrival time.
            if let Some(w) = st.recv_waker.as_ref() {
                self.inner.sim.register_timer(SimTime(arrival), w.clone());
            }
        }
    }
}

/// Receiving half (single consumer).
pub struct Receiver<T> {
    inner: Rc<ChanInner<T>>,
}

impl<T> Receiver<T> {
    /// Await the next message; resolves to `None` once all senders are
    /// dropped and the channel is drained.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Non-blocking poll for an already-arrived message.
    pub fn try_recv(&self) -> Option<T> {
        let now = self.inner.sim.now().as_ps();
        let mut st = self.inner.state.borrow_mut();
        st.mature(now);
        st.ready.pop_front()
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let inner = &self.rx.inner;
        let now = inner.sim.now().as_ps();
        let mut st = inner.state.borrow_mut();
        st.mature(now);
        if let Some(msg) = st.ready.pop_front() {
            return Poll::Ready(Some(msg));
        }
        if st.senders == 0 && st.pending.is_empty() {
            return Poll::Ready(None);
        }
        st.recv_waker = Some(cx.waker().clone());
        // If something is in flight, make sure we wake when it lands.
        if let Some(Reverse(p)) = st.pending.peek() {
            inner
                .sim
                .register_timer(SimTime(p.arrival), cx.waker().clone());
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn zero_latency_delivery_is_immediate() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>(&sim);
        let got = Rc::new(Cell::new(0));
        let g = Rc::clone(&got);
        let s = sim.clone();
        sim.spawn(async move {
            let v = rx.recv().await.unwrap();
            g.set(v);
            assert_eq!(s.now(), SimTime(0));
        });
        tx.send(7, 0);
        sim.run();
        assert_eq!(got.get(), 7);
    }

    #[test]
    fn latency_delays_visibility() {
        let sim = Sim::new();
        let (tx, rx) = channel::<&'static str>(&sim);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let m = rx.recv().await.unwrap();
            (m, s.now().as_ps())
        });
        tx.send("hi", 5_000);
        sim.run();
        assert_eq!(h.try_take().unwrap(), ("hi", 5_000));
    }

    #[test]
    fn messages_arrive_in_arrival_time_order() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>(&sim);
        // Sent in one order, latencies invert arrival order.
        tx.send(1, 10_000);
        tx.send(2, 1_000);
        tx.send(3, 5_000);
        let h = sim.spawn(async move {
            let mut out = Vec::new();
            while let Some(v) = rx.recv().await {
                out.push(v);
            }
            out
        });
        drop(tx);
        sim.run();
        assert_eq!(h.try_take().unwrap(), vec![2, 3, 1]);
    }

    #[test]
    fn recv_returns_none_when_senders_gone() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>(&sim);
        let tx2 = tx.clone();
        tx.send(1, 0);
        drop(tx);
        drop(tx2);
        let h = sim.spawn(async move {
            let a = rx.recv().await;
            let b = rx.recv().await;
            (a, b)
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), (Some(1), None));
    }

    #[test]
    fn try_recv_only_sees_matured() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>(&sim);
        tx.send(9, 1_000);
        assert_eq!(rx.try_recv(), None);
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(2_000).await;
            rx.try_recv()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Some(9));
    }
}
