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
//! queued ahead of a thread that has work delays that work. So a thread
//! polls only while the callers competing for cpus — the live sessions of
//! one server, the live `DeployClient`s of one `Deployment` — do not
//! outnumber the host's cpus ([`Caller::may_poll`], the one place the rule
//! is applied). The counts move at connect and close, never per request.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use islands_hwtopo::HostTopology;

/// How long a wait for an expected frame polls before it parks.
pub(crate) const POLL_WINDOW: Duration = Duration::from_micros(50);

/// The caller rule: `callers` competing for `cpus` poll only while they do
/// not outnumber them.
pub(crate) fn polls(callers: usize, cpus: usize) -> bool {
    callers <= cpus
}

/// Every online cpu of the host, detected once. Not the process's affinity
/// mask: a pinned instance sees one cpu, but its sessions compete with the
/// whole host's callers.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| HostTopology::detect().machine.total_cores() as usize)
}

/// The live callers of one server or one deployment.
#[derive(Debug, Default)]
pub(crate) struct Callers {
    live: AtomicUsize,
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
}

/// One counted caller, shared by the connections it waits on: a session's
/// one socket, or a `DeployClient`'s socket per instance. It leaves the
/// count when the last of them drops.
#[derive(Debug)]
pub(crate) struct Caller {
    callers: Arc<Callers>,
}

impl Caller {
    /// Whether this caller's wait for an expected frame polls first.
    pub(crate) fn may_poll(&self) -> bool {
        polls(self.callers.live(), host_cpus())
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
            for callers in 0..=2 * cpus {
                assert_eq!(polls(callers, cpus), callers <= cpus, "{callers} on {cpus}");
            }
        }
        // `tpcc_locked`'s four clients on a 2-cpu box never poll; the
        // `micro_*` cells' two do.
        assert!(!polls(4, 2) && polls(2, 2));
    }

    #[test]
    fn a_caller_counts_until_its_last_connection_drops() {
        let callers = Arc::new(Callers::default());
        let first = callers.enter();
        let shared = Arc::clone(&first);
        let second = callers.enter();
        assert_eq!(callers.live(), 2);
        assert_eq!(first.may_poll(), polls(2, host_cpus()));
        drop(first);
        assert_eq!(callers.live(), 2, "one connection of the first is left");
        drop((shared, second));
        assert_eq!(callers.live(), 0);
    }
}
