//! A partition's in-doubt table: every 2PC branch between its Yes vote and
//! the coordinator's verdict, in one map keyed by gtid, whichever engine
//! mode parked it, whichever session prepared it, and whether this
//! incarnation prepared it or restart replay rebuilt it: either way a
//! prepared [`TxnHandle`].
//!
//! * **Park.** A prepare reserves its gtid partition-wide before the branch
//!   runs, so a gtid already here is [`ExecError::DuplicateGtid`] before a
//!   second Prepare record can be written.
//! * **Guard.** A branch's locks guard its rows, replayed ones included
//!   (replay re-takes them). Only an engine built `single_threaded` takes
//!   no locks, so there each branch carries its `(table, key)` footprint
//!   instead. New work that touches a footprint aborts, as wait-die kills a
//!   newcomer. With no footprint parked the check is one load.
//! * **Decide.** Any session may decide any branch: the branch is un-parked,
//!   then [`TxnHandle::decide`] applied, its locks held until it ends. A
//!   gtid nobody parked gets the presumed-abort answer. Deciding is the only
//!   way out: the decision comes in a `Decision` frame, or from the
//!   coordinator's verdict when a resolver asks for it.
//! * **Disown.** A Yes vote binds: when the session that prepared a branch
//!   closes, the branch stays parked, holding its rows, with no owner —
//!   the kind of entry restart replay makes. The table's [`Bell`] rings so
//!   whoever settles ownerless branches wakes up. Dropping the table decides
//!   nothing either: every branch is left in doubt in the WAL
//!   ([`TxnHandle::leave_in_doubt`]) for the next incarnation to rebuild.
//!
//! The map's lock is held for an insert or a remove, never while a plan
//! runs or the WAL is forced. The table is what a stats snapshot counts as
//! `in_doubt`, and this is the one place the parked-time histogram moves.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use islands_dtxn::{Participant, Vote};
use islands_storage::{StorageError, TxnHandle};
use islands_workload::plan::PlanRequest;

use super::engine::BranchOutcome;
use super::session::{DecideOutcome, ExecError};

/// A fresh session id: the owner a branch is parked under until its
/// session closes ([`InDoubtTable::disown`]).
pub(crate) fn next_session_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

struct Entry {
    /// `None` while the prepare that reserved the gtid still runs.
    branch: Option<TxnHandle>,
    /// The session that prepared it; `None` once that session closed, and
    /// for a replayed branch.
    session: Option<u64>,
    participant: Participant,
    parked_at: Instant,
    /// `(table, key)` pairs the branch claims; empty when locks guard it.
    footprint: Vec<(u32, u64)>,
}

/// Rung each time parked branches lose their session, so whoever settles
/// ownerless branches can sleep while there are none.
#[derive(Default)]
pub struct Bell {
    rung: Mutex<u64>,
    ringing: Condvar,
}

impl Bell {
    fn count(&self) -> MutexGuard<'_, u64> {
        self.rung.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// How many times it has rung so far.
    pub fn rung(&self) -> u64 {
        *self.count()
    }

    /// Ring it: every waiter wakes.
    pub fn ring(&self) {
        *self.count() += 1;
        self.ringing.notify_all();
    }

    /// Wait until it has rung more than `seen` times in all, or `timeout`
    /// has passed.
    pub fn wait(&self, seen: u64, timeout: Option<Duration>) {
        let rung = self.count();
        let unrung = |rung: &mut u64| *rung == seen;
        // A poisoned count is still a count: either way, stop waiting.
        match timeout {
            None => drop(self.ringing.wait_while(rung, unrung)),
            Some(t) => drop(self.ringing.wait_timeout_while(rung, t, unrung)),
        }
    }
}

/// The in-doubt branches of one partition (see the module docs).
pub(crate) struct InDoubtTable {
    /// Whether branches carry footprints: the engine takes no locks.
    single_threaded: bool,
    entries: Mutex<HashMap<u64, Entry>>,
    /// Entries with a footprint: while zero, nothing is to be checked.
    guarded: AtomicUsize,
    /// Rung by [`disown`](Self::disown).
    pub(crate) bell: Arc<Bell>,
}

impl InDoubtTable {
    pub(crate) fn new(single_threaded: bool) -> Self {
        InDoubtTable {
            single_threaded,
            entries: Mutex::new(HashMap::new()),
            guarded: AtomicUsize::new(0),
            bell: Arc::default(),
        }
    }

    /// Poison-tolerant: a panicked session must not wedge resolution.
    fn map(&self) -> MutexGuard<'_, HashMap<u64, Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enter a branch that voted Yes, as `session`'s (`None` for one
    /// restart replay rebuilt). `footprint` is the rows it claims, asked
    /// for only when the engine takes no locks.
    pub(crate) fn insert(
        &self,
        gtid: u64,
        branch: TxnHandle,
        session: Option<u64>,
        footprint: impl FnOnce(&TxnHandle) -> Vec<(u32, u64)>,
    ) {
        let mut participant = Participant::new(gtid);
        participant.on_prepare(true, true);
        let footprint = if self.single_threaded {
            footprint(&branch)
        } else {
            Vec::new()
        };
        if !footprint.is_empty() {
            self.guarded.fetch_add(1, Ordering::Relaxed);
        }
        let entry = Entry {
            branch: Some(branch),
            session,
            participant,
            parked_at: Instant::now(),
            footprint,
        };
        self.map().insert(gtid, entry);
    }

    /// Run `prepare` as branch `gtid` of `session` and park it if it votes
    /// Yes, with `plan`'s footprint when the engine takes no locks.
    pub(crate) fn park(
        &self,
        session: u64,
        gtid: u64,
        plan: &PlanRequest,
        prepare: impl FnOnce() -> Result<BranchOutcome, StorageError>,
    ) -> Result<Vote, ExecError> {
        {
            let mut map = self.map();
            if map.contains_key(&gtid) {
                return Err(ExecError::DuplicateGtid(gtid));
            }
            let reserved = Entry {
                branch: None,
                session: Some(session),
                participant: Participant::new(gtid),
                parked_at: Instant::now(),
                footprint: Vec::new(),
            };
            map.insert(gtid, reserved);
        }
        let vote = match prepare() {
            Ok(BranchOutcome::Prepared(handle)) => {
                // Replaces the reservation: the gtid never leaves the map.
                self.insert(gtid, handle, Some(session), |_| plan.conflict_keys());
                return Ok(Vote::Yes);
            }
            Ok(BranchOutcome::ReadOnly) => Ok(Vote::ReadOnly),
            Ok(BranchOutcome::No) => Ok(Vote::No),
            Err(e) => Err(e.into()),
        };
        self.map().remove(&gtid);
        vote
    }

    /// Whether `plan` touches a row some parked footprint claims.
    pub(crate) fn blocks(&self, plan: &PlanRequest) -> bool {
        // Footprints are parked under the serial partition's lock, or by
        // replay before any session exists: a zero read is never stale.
        self.guarded.load(Ordering::Relaxed) != 0
            && self
                .map()
                .values()
                .any(|e| plan.conflicts_with(&e.footprint))
    }

    /// Leave the table with `commit` applied. `None` for a reservation. An
    /// ownerless branch's resolution is counted as such.
    fn settle(&self, mut entry: Entry, commit: bool) -> Option<Result<(), StorageError>> {
        let branch = entry.branch.take()?;
        if !entry.footprint.is_empty() {
            self.guarded.fetch_sub(1, Ordering::Relaxed);
        }
        islands_obs::with(|m| m.record_parked(entry.parked_at.elapsed().as_nanos() as u64));
        entry.participant.on_decision(commit);
        if entry.session.is_none() {
            islands_obs::with(|m| m.record_in_doubt_resolved(commit));
        }
        Some(branch.decide(commit))
    }

    /// Apply the coordinator's decision to branch `gtid`.
    pub(crate) fn decide(&self, gtid: u64, commit: bool) -> DecideOutcome {
        let parked = {
            let mut map = self.map();
            match map.get(&gtid) {
                Some(e) if e.branch.is_some() => map.remove(&gtid),
                _ => None,
            }
        };
        match parked.and_then(|entry| self.settle(entry, commit)) {
            Some(Ok(())) => DecideOutcome::Applied,
            Some(Err(e)) => DecideOutcome::Failed(e.to_string()),
            None if commit => DecideOutcome::UnknownCommit,
            None => DecideOutcome::AbortNoop,
        }
    }

    /// `session` closed: every branch it parked and nobody decided stays
    /// parked, owned by nobody, and the bell rings.
    pub(crate) fn disown(&self, session: u64) {
        let mut disowned = false;
        for entry in self.map().values_mut() {
            if entry.session == Some(session) {
                entry.session = None;
                disowned = true;
            }
        }
        if disowned {
            self.bell.ring();
        }
    }

    /// Gtids of every parked branch no session owns, sorted.
    pub(crate) fn ownerless(&self) -> Vec<u64> {
        let map = self.map();
        let ownerless = map
            .iter()
            .filter(|(_, e)| e.branch.is_some() && e.session.is_none());
        let mut gtids: Vec<u64> = ownerless.map(|(gtid, _)| *gtid).collect();
        gtids.sort_unstable();
        gtids
    }

    /// `f` over every parked branch, under the map's lock: no branch is
    /// parked or leaves while it runs.
    pub(crate) fn with_parked<T>(&self, f: impl FnOnce(&[&TxnHandle]) -> T) -> T {
        let map = self.map();
        let parked: Vec<&TxnHandle> = map.values().filter_map(|e| e.branch.as_ref()).collect();
        f(&parked)
    }

    /// How many branches are parked.
    pub(crate) fn parked(&self) -> usize {
        self.map().values().filter(|e| e.branch.is_some()).count()
    }
}

impl Drop for InDoubtTable {
    /// Every branch stays in doubt in the WAL, for the next incarnation.
    fn drop(&mut self) {
        let entries = std::mem::take(self.entries.get_mut().unwrap_or_else(|e| e.into_inner()));
        for branch in entries.into_values().filter_map(|e| e.branch) {
            let _ = branch.leave_in_doubt();
        }
    }
}
