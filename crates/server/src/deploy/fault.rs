//! Scripted fault injection: kill one instance, or drop the coordinator's
//! link to it, at an exact point of a 2PC exchange, so a drill hits the same
//! in-doubt window every run instead of whenever a signal happens to land.
//! `DeployClient`'s `send` is where the points are; `Deployment::arm_fault`
//! is how one is armed.

/// Where in the 2PC exchange a scripted fault strikes its victim (always
/// relative to the victim's own frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Before the victim's `Prepare` frame is sent: nothing durable exists
    /// on the victim; the transaction presumed-aborts.
    PrePrepare,
    /// After the victim voted Yes (its prepared branch is durable in its
    /// WAL), before its `Decision` frame is sent — the canonical in-doubt
    /// window.
    PostPreparePreDecision,
    /// Right after the victim's `Decision` frame was written. Nobody is
    /// waiting for the ack: the round answers its caller regardless, the
    /// victim may or may not have applied the frame, and the loss surfaces
    /// on the next exchange that tries to read what the link owes.
    PostDecisionPreAck,
    /// Where [`PostPreparePreDecision`](Self::PostPreparePreDecision)
    /// strikes, but the victim lives: its `Decision` frame fails to leave as
    /// on a reset connection and the coordinator drops the link. The
    /// victim's session closes with its Yes-voted branch parked, ownerless,
    /// until the resolver pass brings it the verdict.
    LinkLoss,
}

impl FaultPoint {
    /// Parse the CLI spelling (`pre-prepare`, `post-prepare`,
    /// `post-decision`, `link-loss`).
    pub fn parse(s: &str) -> Result<FaultPoint, String> {
        match s {
            "pre-prepare" => Ok(FaultPoint::PrePrepare),
            "post-prepare" => Ok(FaultPoint::PostPreparePreDecision),
            "post-decision" => Ok(FaultPoint::PostDecisionPreAck),
            "link-loss" => Ok(FaultPoint::LinkLoss),
            other => Err(format!(
                "fault point must be pre-prepare, post-prepare, post-decision, \
                 or link-loss; got {other}"
            )),
        }
    }

    /// The CLI spelling back (round-trips with [`parse`](Self::parse)).
    pub fn label(&self) -> &'static str {
        match self {
            FaultPoint::PrePrepare => "pre-prepare",
            FaultPoint::PostPreparePreDecision => "post-prepare",
            FaultPoint::PostDecisionPreAck => "post-decision",
            FaultPoint::LinkLoss => "link-loss",
        }
    }
}

/// One scripted fault: SIGKILL `victim` (or, for
/// [`FaultPoint::LinkLoss`], drop the link to it) the next time the
/// coordinator reaches `point` in a 2PC exchange involving it. Armed once via
/// [`Deployment::arm_fault`](super::Deployment::arm_fault); fires at most
/// once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub point: FaultPoint,
    pub victim: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_point_parse_round_trips_and_rejects_junk() {
        for point in [
            FaultPoint::PrePrepare,
            FaultPoint::PostPreparePreDecision,
            FaultPoint::PostDecisionPreAck,
            FaultPoint::LinkLoss,
        ] {
            assert_eq!(FaultPoint::parse(point.label()), Ok(point));
        }
        assert!(FaultPoint::parse("mid-prepare").is_err());
        assert!(FaultPoint::parse("").is_err());
    }
}
