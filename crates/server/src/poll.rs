//! Poll, then park: the rule that decides whether a thread waiting for a
//! frame spins on its socket before it sleeps.
//!
//! A closed-loop frame — a session's next request after it flushed its
//! replies, a coordinator's reply to the frame it just sent — is usually
//! microseconds away, and sleeping in a blocking `read` for it costs a
//! sleep and a wake-up on another cpu, several times the socket copy. So a
//! connection that expects a frame first polls its socket for
//! [`POLL_WINDOW`] (`server::Conn`'s `read`) and parks in the blocking read
//! only when the window runs out.
//!
//! Polling pays only while every poller has a cpu of its own: a poller
//! queued ahead of a thread that has work delays that work. So a wait polls
//! only with a *poll slot* ([`Caller::may_poll`], the one place the rule is
//! applied). While the callers competing for cpus — the live sessions of one
//! server, the live `DeployClient`s of one `Deployment` — do not outnumber
//! the host's cpus, every wait gets one. Once they do, at most
//! [`budget`]`(cpus)` of them poll at once, counted by a CAS'd `polling`
//! count on their `Callers`; every other wait parks at once. A slot is given
//! back when its window runs out or its frame lands, never held across a
//! parked read. The live counts move at connect and close, never per
//! request.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use islands_hwtopo::HostTopology;

/// How long a wait for an expected frame polls before it parks.
pub(crate) const POLL_WINDOW: Duration = Duration::from_micros(50);

/// The caller rule: `callers` competing for `cpus` all poll while they do
/// not outnumber them.
pub(crate) fn polls(callers: usize, cpus: usize) -> bool {
    callers <= cpus
}

/// The poll slots `callers` that outnumber `cpus` share: half the cpus, at
/// least one. A closed-loop round trip alternates a waiter in one process
/// with a worker in its peer, so half the cpus poll while the other half
/// run the work being waited for.
pub(crate) fn budget(cpus: usize) -> usize {
    (cpus / 2).max(1)
}

/// Every online cpu of the host, detected once. Not the process's affinity
/// mask: a pinned instance sees one cpu, but its sessions compete with the
/// whole host's callers.
pub(crate) fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| HostTopology::detect().machine.total_cores() as usize)
}

/// The live callers of one server or one deployment.
#[derive(Debug, Default)]
pub(crate) struct Callers {
    live: AtomicUsize,
    /// Budgeted poll slots out now (see [`budget`]).
    polling: AtomicUsize,
}

impl Callers {
    /// Count one more caller until the returned registration drops.
    pub(crate) fn enter(self: &Arc<Self>) -> Arc<Caller> {
        self.live.fetch_add(1, Ordering::Relaxed);
        Arc::new(Caller {
            callers: Arc::clone(self),
        })
    }

    /// Callers registered now.
    pub(crate) fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Budgeted poll slots out now.
    #[cfg(test)]
    pub(crate) fn polling(&self) -> usize {
        self.polling.load(Ordering::Relaxed)
    }

    /// A poll slot for one wait of a caller competing for `cpus`, if the
    /// rule grants one.
    fn slot(&self, cpus: usize) -> Option<PollSlot<'_>> {
        if polls(self.live(), cpus) {
            return Some(PollSlot { budgeted: None });
        }
        let k = budget(cpus);
        self.polling
            .fetch_update(Ordering::Acquire, Ordering::Relaxed, |n| {
                (n < k).then_some(n + 1)
            })
            .ok()?;
        Some(PollSlot {
            budgeted: Some(&self.polling),
        })
    }
}

/// Leave to poll for one expected frame; dropping it ends the poll.
#[derive(Debug)]
pub(crate) struct PollSlot<'a> {
    /// The `polling` count this slot was taken from; `None` while callers
    /// do not outnumber the cpus and nothing is counted.
    budgeted: Option<&'a AtomicUsize>,
}

impl Drop for PollSlot<'_> {
    fn drop(&mut self) {
        if let Some(polling) = self.budgeted {
            polling.fetch_sub(1, Ordering::Release);
        }
    }
}

/// One counted caller, shared by the connections it waits on: a session's
/// one socket, or a `DeployClient`'s socket per instance. It leaves the
/// count when the last of them drops.
#[derive(Debug)]
pub(crate) struct Caller {
    callers: Arc<Callers>,
}

impl Caller {
    /// The slot this caller's wait for an expected frame polls in, if any;
    /// without one the wait parks at once.
    pub(crate) fn may_poll(&self) -> Option<PollSlot<'_>> {
        self.callers.slot(host_cpus())
    }
}

impl Drop for Caller {
    fn drop(&mut self) {
        self.callers.live.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn callers_poll_exactly_while_they_do_not_outnumber_the_cpus() {
        for cpus in 1..=8 {
            let k = budget(cpus);
            assert!((1..=cpus).contains(&k), "{k} slots for {cpus} cpus");
            assert!(polls(0, cpus));
            let callers = Arc::new(Callers::default());
            let mut registered = Vec::new();
            for live in 1..=2 * cpus {
                registered.push(callers.enter());
                assert_eq!(polls(live, cpus), live <= cpus, "{live} on {cpus}");
                if live <= cpus {
                    // Within the cpus every wait gets a slot, uncounted.
                    let slots: Vec<_> = (0..live).map(|_| callers.slot(cpus)).collect();
                    assert!(slots.iter().all(Option::is_some), "{live} on {cpus}");
                    assert_eq!(callers.polling(), 0);
                    continue;
                }
                // Beyond them, at most k slots are out at once...
                let slots: Vec<_> = (0..live).filter_map(|_| callers.slot(cpus)).collect();
                assert_eq!(slots.len(), k, "{live} callers on {cpus} cpus");
                assert!(callers.slot(cpus).is_none());
                assert_eq!(callers.polling(), k);
                // ...and a dropped slot is granted again.
                drop(slots);
                assert_eq!(callers.polling(), 0);
                let again = callers.slot(cpus);
                assert!(again.is_some());
                assert_eq!(callers.polling(), 1);
            }
        }
        // `tpcc_locked`'s four clients on a 2-cpu box poll one at a time;
        // the `micro_*` cells' two all poll.
        assert!(!polls(4, 2) && polls(2, 2));
        assert_eq!(budget(2), 1);
    }

    #[test]
    fn a_caller_counts_until_its_last_connection_drops() {
        let callers = Arc::new(Callers::default());
        let first = callers.enter();
        let shared = Arc::clone(&first);
        let second = callers.enter();
        assert_eq!(callers.live(), 2);
        assert!(first.may_poll().is_some(), "a lone wait always polls");
        drop(first);
        assert_eq!(callers.live(), 2, "one connection of the first is left");
        drop((shared, second));
        assert_eq!(callers.live(), 0);
    }
}
