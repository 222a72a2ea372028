//! A deployment's coordinator: one socket per instance under the shared
//! router and 2PC driver (`coordinator::Coordination::submit`), with the
//! scripted-fault hooks on the way out.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use islands_workload::{even_owner, PlanRequest, TxnRequest};

use super::{Deployment, FaultPoint};
use crate::client::Client;
use crate::coordinator::{AckDebt, TwoPcLink};
use crate::poll::Caller;
use crate::wire::{Reply, Request};

/// Outcome of one request submitted through a [`DeployClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeployOutcome {
    pub committed: bool,
    /// Whether the request ran wire-level 2PC across instances.
    pub distributed: bool,
    /// Coordinator-side retry rounds (2PC aborts re-attempted).
    pub retries: u32,
    /// The abort was presumed after a participant failure rather than
    /// decided by votes.
    pub presumed_abort: bool,
}

/// What came back for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployReply {
    Outcome(DeployOutcome),
    /// A participant rejected the request as malformed/unsatisfiable.
    ServerError(String),
    /// The single owning instance is unreachable.
    InstanceDown(usize),
}

/// Split a multisite batch into per-instance branches, preserving key
/// order within each branch. Returns `(participants-in-first-touch-order,
/// branch-per-participant)`. Routing itself goes through
/// [`split_plan_by_owner`](super::split_plan_by_owner) (re-exported from
/// `core::partition`); this is the batch-shaped reference that split is
/// tested against.
pub fn split_by_owner(
    req: &TxnRequest,
    instances: usize,
    total_rows: u64,
) -> (Vec<usize>, HashMap<usize, TxnRequest>) {
    let mut order = Vec::new();
    let mut branches: HashMap<usize, TxnRequest> = HashMap::new();
    for &key in &req.keys {
        let owner = even_owner(key, instances, total_rows);
        let branch = branches.entry(owner).or_insert_with(|| {
            order.push(owner);
            TxnRequest {
                kind: req.kind,
                keys: Vec::new(),
                multisite: true,
            }
        });
        branch.keys.push(key);
    }
    (order, branches)
}

/// One coordinator: a connection to every instance plus the 2PC driver.
///
/// A 2PC submit returns when its `Decision` frames are written; the `Ack`s
/// are read by the next exchange on each link (any submit, an audit), or on
/// drop. Until then a *different* connection scraping a participant — an
/// [`audit_total`](Self::audit_total) from another client, a `Stats` probe
/// — can observe it a decision behind. Transactions cannot: on any
/// connection they wait (locked engine) or abort and retry (serial) behind
/// the parked branch until the decision, already in the socket, is applied.
pub struct DeployClient {
    deploy: Arc<Deployment>,
    /// This client in the deployment's live-client count, shared by every
    /// connection it opens: the caller its reply waits poll for.
    caller: Arc<Caller>,
    conns: Vec<Option<Client>>,
    /// The acks each connection is still owed (dropped with it).
    debt: AckDebt,
}

/// Total reconnect budget per [`DeployClient::conn`] call — long enough to
/// ride out an instance respawn, short enough that a permanently dead
/// instance still surfaces as [`DeployReply::InstanceDown`] promptly.
const RECONNECT_BUDGET: Duration = Duration::from_secs(1);

impl DeployClient {
    /// One connection to every instance of `deploy`.
    pub(super) fn connect(deploy: &Arc<Deployment>) -> io::Result<DeployClient> {
        let caller = deploy.callers.enter();
        let conns = (0..deploy.instances())
            .map(|i| {
                Client::connect_with_retry(&deploy.endpoint(i), Duration::from_secs(2))
                    .map(|c| Some(c.with_caller(Arc::clone(&caller))))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(DeployClient {
            debt: AckDebt::new(conns.len()),
            deploy: Arc::clone(deploy),
            caller,
            conns,
        })
    }

    fn conn(&mut self, i: usize) -> io::Result<&mut Client> {
        if self.conns[i].is_none() {
            // Reconnect with backoff: a raced submit that lands while
            // instance `i` restarts rides out the respawn instead of
            // failing on the first refused connect.
            let client = Client::connect_with_retry(&self.deploy.endpoint(i), RECONNECT_BUDGET)?;
            self.conns[i] = Some(client.with_caller(Arc::clone(&self.caller)));
        }
        self.conns[i]
            .as_mut()
            .ok_or_else(|| io::Error::other("connection slot empty after connect"))
    }

    /// Route one micro batch: lowered onto the plan path, like every other
    /// entry point that still accepts one.
    pub fn submit(&mut self, req: &TxnRequest) -> io::Result<DeployReply> {
        self.submit_plan(&req.to_plan())
    }

    /// Route one plan: if every step lives on one instance it goes straight
    /// to the owner as a `SubmitPlan` frame; a plan spanning instances (a
    /// multisite micro batch, a remote-warehouse Payment) runs wire-level
    /// 2PC with this client as coordinator.
    pub fn submit_plan(&mut self, plan: &PlanRequest) -> io::Result<DeployReply> {
        let deploy = Arc::clone(&self.deploy);
        deploy.coord.submit(self, plan, deploy.retry_limit)
    }

    /// Deployment-wide audit sum: every instance's committed-row-write total
    /// added up. The consistency check a TPC-C run ends with — the total
    /// must equal the sum of `write_rows()` over every committed plan (both
    /// branches of a committed remote Payment included). Each instance's
    /// scrape rides behind whatever acks its link owes, so the sum covers
    /// every transaction this client has been answered for.
    pub fn audit_total(&mut self) -> io::Result<u64> {
        let mut sum = 0u64;
        for i in 0..self.deploy.instances() {
            match self.exchange(i, &Request::Audit)? {
                Reply::AuditSum { sum: part } => sum += part,
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected AuditSum, instance {i} sent {other:?}"),
                    ))
                }
            }
        }
        Ok(sum)
    }
}

impl Drop for DeployClient {
    /// Read the acks still owed before the sockets close, so that whoever
    /// connects next finds every decision this client's callers were told
    /// about applied. A link that cannot pay is dropped like any other.
    fn drop(&mut self) {
        self.settle_all(self.conns.len());
    }
}

impl TwoPcLink for DeployClient {
    fn send(&mut self, to: usize, frame: &Request) -> io::Result<()> {
        // Scripted fault injection hooks: the kill lands exactly between
        // protocol steps.
        match frame {
            Request::Prepare(_) | Request::PreparePlan(_) => {
                self.deploy.maybe_fire_fault(FaultPoint::PrePrepare, to);
            }
            Request::Decision { .. } => {
                self.deploy
                    .maybe_fire_fault(FaultPoint::PostPreparePreDecision, to);
            }
            _ => {}
        }
        let timeout = match frame {
            // Unlike a vote (one execution attempt), a submit may burn the
            // instance's whole retry × lock-wait budget before answering.
            Request::Submit(_) | Request::SubmitPlan(_) => Some(self.deploy.submit_timeout),
            // A scan of every table is not a vote: no deadline.
            Request::Audit => None,
            _ => Some(self.deploy.vote_timeout),
        };
        let conn = self.conn(to)?;
        conn.set_read_timeout(timeout)?;
        let sent = conn.send_request(frame);
        if sent.is_ok() && matches!(frame, Request::Decision { .. }) {
            self.deploy
                .maybe_fire_fault(FaultPoint::PostDecisionPreAck, to);
        }
        sent
    }

    fn recv_frame(&mut self, from: usize) -> io::Result<Reply> {
        self.conns[from]
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "participant dead"))?
            .recv_reply()
    }

    fn disconnect(&mut self, to: usize) {
        self.conns[to] = None;
    }

    fn force_commit(&mut self, gtid: u64) {
        // Write-through BEFORE any Decision frame leaves: recovery must
        // reach the same verdict the live protocol acted on.
        self.deploy.coord.decisions.force(gtid, true);
    }

    fn forget(&mut self, gtid: u64) {
        self.deploy.coord.decisions.forget(gtid);
    }

    fn debt(&mut self) -> &mut AckDebt {
        &mut self.debt
    }
}

#[cfg(test)]
mod tests {
    use super::super::split_plan_by_owner;
    use super::*;
    use islands_workload::OpKind;

    proptest::proptest! {
        /// Routing a lowered batch is routing the batch: the plan split the
        /// client uses yields the participant order and per-branch keys of
        /// the batch-shaped reference split, each branch being that
        /// reference branch's own lowering.
        #[test]
        fn plan_split_of_a_lowered_batch_matches_the_batch_split(
            n in 1usize..9,
            extra in 0u64..500,
            update in proptest::any::<bool>(),
            picks in proptest::collection::vec(proptest::any::<u64>(), 0..12),
        ) {
            let rows = n as u64 + extra;
            let req = TxnRequest {
                kind: if update { OpKind::Update } else { OpKind::Read },
                keys: picks.iter().map(|k| k % rows).collect(),
                multisite: true,
            };
            let (order, branches) = split_by_owner(&req, n, rows);
            let (plan_order, plan_branches) =
                split_plan_by_owner(&req.to_plan(), |_, key| even_owner(key, n, rows));
            proptest::prop_assert_eq!(&plan_order, &order);
            proptest::prop_assert_eq!(plan_branches.len(), branches.len());
            for (owner, branch) in &branches {
                proptest::prop_assert_eq!(&plan_branches[owner], &branch.to_plan());
            }
        }
    }

    #[test]
    fn split_preserves_first_touch_order_and_key_order() {
        let req = TxnRequest {
            kind: OpKind::Update,
            keys: vec![350, 10, 360, 120],
            multisite: true,
        };
        let (order, branches) = split_by_owner(&req, 4, 400);
        assert_eq!(order, vec![3, 0, 1]);
        assert_eq!(branches[&3].keys, vec![350, 360]);
        assert_eq!(branches[&0].keys, vec![10]);
        assert_eq!(branches[&1].keys, vec![120]);
        assert!(branches.values().all(|b| b.multisite));
        assert!(branches.values().all(|b| b.kind == OpKind::Update));
    }
}
