//! A partition's in-doubt table: every 2PC branch between its Yes vote and
//! the coordinator's decision, in one map keyed by gtid, whichever engine
//! mode parked it, whichever session prepared it, and whether this
//! incarnation prepared it or restart replay re-parked it.
//!
//! * **Park.** A prepare reserves its gtid partition-wide before the branch
//!   runs, so a gtid already here is [`ExecError::DuplicateGtid`] before a
//!   second Prepare record can be written.
//! * **Guard.** A branch no lock guards carries its `(table, key)`
//!   footprint: every branch of an engine built `single_threaded`, and every
//!   replayed one (its locks died with the old incarnation). New work that
//!   touches a footprint aborts, as wait-die kills a newcomer. With no
//!   footprint parked the check is one load.
//! * **Decide.** Any session may decide any branch: the branch is un-parked,
//!   then the decision applied. A gtid nobody parked gets the presumed-abort
//!   answer.
//! * **Close.** A session's close presumes abort for the branches it
//!   prepared. Dropping the table does so for every live branch and leaves
//!   replayed ones in the WAL for the next incarnation to re-park.
//!
//! The map's lock is held for an insert or a remove, never while a plan
//! runs or the WAL is forced. The table is what a stats snapshot counts as
//! `in_doubt`, and this is the one place the parked-time histogram moves.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use islands_dtxn::{Participant, Vote};
use islands_storage::instance::InDoubt;
use islands_storage::{StorageError, StorageInstance, TxnHandle};
use islands_workload::plan::PlanRequest;

use super::engine::BranchOutcome;
use super::session::{DecideOutcome, ExecError};

/// A fresh session id, the scope [`InDoubtTable::close`] presumes abort in.
pub(crate) fn next_session_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

enum Branch {
    /// Prepared by this incarnation: the transaction, its locks and undo.
    Live(TxnHandle),
    /// Re-parked by restart replay: the redo and undo images the WAL kept.
    Replayed(InDoubt),
}

struct Entry {
    /// `None` while the prepare that reserved the gtid still runs.
    branch: Option<Branch>,
    /// The session that prepared it; `None` for a replayed branch, which
    /// only a decision settles.
    session: Option<u64>,
    participant: Participant,
    parked_at: Instant,
    /// `(table, key)` pairs the branch claims; empty when locks guard it.
    footprint: Vec<(u32, u64)>,
}

/// The in-doubt branches of one partition (see the module docs).
pub(crate) struct InDoubtTable {
    inst: Arc<StorageInstance>,
    entries: Mutex<HashMap<u64, Entry>>,
    /// Entries with a footprint: while zero, nothing is to be checked.
    guarded: AtomicUsize,
}

impl InDoubtTable {
    pub(crate) fn new(inst: Arc<StorageInstance>) -> Self {
        InDoubtTable {
            inst,
            entries: Mutex::new(HashMap::new()),
            guarded: AtomicUsize::new(0),
        }
    }

    /// Poison-tolerant: a panicked session must not wedge resolution.
    fn map(&self) -> MutexGuard<'_, HashMap<u64, Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enter a branch that voted Yes.
    fn insert(
        &self,
        map: &mut HashMap<u64, Entry>,
        gtid: u64,
        branch: Branch,
        session: Option<u64>,
        footprint: Vec<(u32, u64)>,
    ) {
        let mut participant = Participant::new(gtid);
        participant.on_prepare(true, true);
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
        map.insert(gtid, entry);
    }

    /// Park the branches restart replay surfaced, each with its footprint.
    pub(crate) fn park_replayed(&self, replayed: impl Iterator<Item = (Vec<(u32, u64)>, InDoubt)>) {
        let mut map = self.map();
        for (footprint, branch) in replayed {
            let gtid = branch.gtid;
            let branch = Branch::Replayed(branch);
            self.insert(&mut map, gtid, branch, None, footprint);
        }
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
        let prepared = prepare();
        let mut map = self.map();
        map.remove(&gtid);
        Ok(match prepared? {
            BranchOutcome::Prepared(handle) => {
                let footprint = if self.inst.opts.single_threaded {
                    plan.conflict_keys()
                } else {
                    Vec::new()
                };
                let branch = Branch::Live(handle);
                self.insert(&mut map, gtid, branch, Some(session), footprint);
                Vote::Yes
            }
            BranchOutcome::ReadOnly => Vote::ReadOnly,
            BranchOutcome::No => Vote::No,
        })
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

    /// Leave the table with `commit` applied. `None` for a reservation.
    fn settle(&self, mut entry: Entry, commit: bool) -> Option<Result<(), StorageError>> {
        let branch = entry.branch.take()?;
        if !entry.footprint.is_empty() {
            self.guarded.fetch_sub(1, Ordering::Relaxed);
        }
        islands_obs::with(|m| m.record_parked(entry.parked_at.elapsed().as_nanos() as u64));
        entry.participant.on_decision(commit);
        Some(match branch {
            Branch::Live(handle) => handle.decide(commit),
            Branch::Replayed(branch) => {
                islands_obs::with(|m| m.record_in_doubt_resolved(commit));
                self.inst.resolve_in_doubt(&branch, commit)
            }
        })
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

    /// Presume abort for every branch `session` prepared and nobody
    /// decided; returns how many that was.
    pub(crate) fn close(&self, session: u64) -> u64 {
        let orphaned: Vec<Entry> = self
            .map()
            .extract_if(|_, e| e.session == Some(session))
            .map(|(_, e)| e)
            .collect();
        let rolled_back = orphaned.into_iter().filter_map(|e| self.settle(e, false));
        rolled_back.count() as u64
    }

    /// Gtids of every parked branch, sorted.
    pub(crate) fn gtids(&self) -> Vec<u64> {
        let map = self.map();
        let parked = map.iter().filter(|(_, e)| e.branch.is_some());
        let mut gtids: Vec<u64> = parked.map(|(gtid, _)| *gtid).collect();
        gtids.sort_unstable();
        gtids
    }
}

impl Drop for InDoubtTable {
    fn drop(&mut self) {
        let entries = std::mem::take(self.entries.get_mut().unwrap_or_else(|e| e.into_inner()));
        for (_, entry) in entries {
            // A replayed branch stays in-doubt in the WAL, for the next
            // incarnation.
            if !matches!(entry.branch, Some(Branch::Replayed(_))) {
                let _ = self.settle(entry, false);
            }
        }
    }
}
