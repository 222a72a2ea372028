//! The wire protocol: length-prefixed frames carrying typed messages.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! [len: u32 LE][payload: len bytes]      1 <= len <= MAX_FRAME
//! payload = [tag: u8][body...]
//! ```
//!
//! Client → server messages are [`Request`]s (submit a transaction, ping,
//! drain); server → client messages are [`Reply`]s (committed/aborted with
//! retry counts and server-side latency, protocol errors, pong, drain ack).
//! Bodies reuse the [`TxnRequest`] byte codec from `islands-workload`.
//!
//! The framing layer is streaming-friendly: [`FrameReader`] accumulates
//! bytes from a socket and yields complete payloads. An *incomplete* frame
//! is simply "not yet" (`Ok(None)`) — the connection waits for more bytes —
//! while a frame whose header declares more than [`MAX_FRAME`] bytes, a
//! zero-length frame, or a complete frame whose body fails to decode are
//! hard [`WireError`]s: no message boundary can be trusted after them.

use std::io::{self, Read};

use islands_dtxn::Vote;
use islands_obs::snapshot::{Snapshot, ENCODED_LEN as STATS_BODY_LEN};
use islands_workload::{CodecError, PlanBranch, PlanRequest, TxnBranch, TxnRequest};

/// Largest accepted frame payload. Large enough for a request touching
/// [`islands_workload::MAX_KEYS_PER_REQUEST`] rows with room to spare,
/// small enough that a hostile length field cannot balloon memory.
pub const MAX_FRAME: usize = 64 * 1024;

/// Bytes in the frame length prefix.
pub const FRAME_HEADER: usize = 4;

// Request tags (client -> server). 0x04/0x05 are the coordinator->participant
// half of wire-level 2PC.
const TAG_SUBMIT: u8 = 0x01;
const TAG_PING: u8 = 0x02;
const TAG_DRAIN: u8 = 0x03;
const TAG_PREPARE: u8 = 0x04;
const TAG_DECISION: u8 = 0x05;
const TAG_STATS_REQUEST: u8 = 0x06;
const TAG_SUBMIT_PLAN: u8 = 0x07;
const TAG_PREPARE_PLAN: u8 = 0x08;
const TAG_AUDIT: u8 = 0x09;
const TAG_RESOLVE_GTID: u8 = 0x0A;
// Reply tags (server -> client) have the high bit set. 0x86/0x87 are the
// participant->coordinator half of wire-level 2PC.
const TAG_COMMITTED: u8 = 0x81;
const TAG_ABORTED: u8 = 0x82;
const TAG_ERROR: u8 = 0x83;
const TAG_PONG: u8 = 0x84;
const TAG_DRAINING: u8 = 0x85;
const TAG_VOTE: u8 = 0x86;
const TAG_ACK: u8 = 0x87;
const TAG_STATS_REPLY: u8 = 0x88;
const TAG_AUDIT_REPLY: u8 = 0x89;
const TAG_RESOLVED: u8 = 0x8A;

// The verdict byte of a TAG_RESOLVED body is 0 (abort), 1 (commit) or this.
const RESOLVED_PENDING: u8 = 2;

// Vote bytes inside a TAG_VOTE body.
const VOTE_YES: u8 = 0;
const VOTE_NO: u8 = 1;
const VOTE_READ_ONLY: u8 = 2;

fn vote_to_byte(v: Vote) -> u8 {
    match v {
        Vote::Yes => VOTE_YES,
        Vote::No => VOTE_NO,
        Vote::ReadOnly => VOTE_READ_ONLY,
    }
}

fn vote_from_byte(b: u8) -> Option<Vote> {
    match b {
        VOTE_YES => Some(Vote::Yes),
        VOTE_NO => Some(Vote::No),
        VOTE_READ_ONLY => Some(Vote::ReadOnly),
        _ => None,
    }
}

/// Everything that can go wrong between bytes and messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame header declares `len` bytes, over [`MAX_FRAME`].
    Oversized { len: usize },
    /// Frame header declares zero bytes (no tag fits).
    EmptyFrame,
    /// Tag byte is not a known message of the expected direction.
    UnknownTag(u8),
    /// Message body ended early or had trailing garbage.
    BadBody { tag: u8, needed: usize, had: usize },
    /// The embedded transaction request failed to decode.
    Request(CodecError),
    /// Error-reply message was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})")
            }
            WireError::EmptyFrame => write!(f, "zero-length frame"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadBody { tag, needed, had } => write!(
                f,
                "message {tag:#04x}: body needs {needed} bytes, frame had {had}"
            ),
            WireError::Request(e) => write!(f, "embedded request: {e}"),
            WireError::BadUtf8 => write!(f, "error message is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Request(e)
    }
}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Client → server message. `Prepare` and `Decision` are spoken by a 2PC
/// coordinator to a participant instance: every server fronts one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run this micro batch to completion and report the outcome. The
    /// server lowers it to a plan on arrival: the same request as a
    /// [`Request::SubmitPlan`] of
    /// [`to_plan`](islands_workload::TxnRequest::to_plan).
    Submit(TxnRequest),
    /// Liveness / latency-floor probe.
    Ping,
    /// Ask the server to stop accepting connections and shut down once
    /// in-flight work has drained.
    Drain,
    /// 2PC phase 1 for a micro-batch branch, lowered on arrival like
    /// [`Request::Submit`]: the same request as a [`Request::PreparePlan`]
    /// of the lowered branch.
    Prepare(TxnBranch),
    /// 2PC phase 2: apply the coordinator's decision to the in-doubt branch
    /// and answer with [`Reply::Ack`]. An abort for an unknown gtid is
    /// acknowledged silently (presumed abort made it a no-op); a commit for
    /// an unknown gtid is a protocol error. The coordinator does not wait
    /// for the answer: whatever it sends next on this connection is
    /// executed after the decision and answered after the ack.
    Decision {
        /// Global transaction id the decision is for.
        gtid: u64,
        /// True to commit the prepared branch, false to roll it back.
        commit: bool,
    },
    /// Scrape the server's stats ([`Reply::Stats`]) without disturbing the
    /// run.
    Stats,
    /// Run this transaction plan (TPC-C NewOrder/Payment, a lowered micro
    /// batch, or any step list) to completion and report the outcome.
    SubmitPlan(PlanRequest),
    /// 2PC phase 1: execute this branch, force the prepare record, and
    /// answer with [`Reply::Vote`]. A Yes-voting participant parks the
    /// branch in-doubt — including the locks guarding its dependent reads —
    /// until the [`Request::Decision`] frame arrives; if the connection dies
    /// first, until the coordinator's verdict ([`Request::ResolveGtid`]).
    PreparePlan(PlanBranch),
    /// Scrape the audit sum (total committed row writes across every
    /// table) for consistency checks; answered with [`Reply::AuditSum`].
    Audit,
    /// A participant asks the coordinator for the fate of an ownerless
    /// in-doubt gtid (replayed, or left by a dead link); answered with
    /// [`Reply::Resolved`]. Under presumed abort a gtid with no record
    /// resolves to abort once no round of the coordinator's holds it.
    ResolveGtid {
        /// Global transaction id of the in-doubt branch.
        gtid: u64,
    },
}

/// Server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Transaction committed.
    Committed {
        /// Whether it ran two-phase commit across instances. Every server
        /// fronts one partition, which commits only what is local to it,
        /// so a server always answers `false`; the coordinator
        /// ([`DeployOutcome`](crate::DeployOutcome)) reports the 2PC.
        distributed: bool,
        /// Contention aborts retried server-side before the commit.
        retries: u32,
        /// Server-side execution time, microseconds.
        server_micros: u64,
    },
    /// Retry budget exhausted; the transaction did not commit.
    Aborted { retries: u32 },
    /// The request was malformed or unsatisfiable.
    Error { message: String },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Drain`]: shutdown is underway.
    Draining,
    /// Answer to [`Request::Prepare`]: the participant's phase-1 vote.
    Vote {
        /// Global transaction id the vote is for.
        gtid: u64,
        /// Yes (prepared, in-doubt), No (rolled back), or ReadOnly
        /// (released, skip phase 2).
        vote: Vote,
    },
    /// Answer to [`Request::Decision`]: the decision was applied (or was a
    /// presumed-abort no-op). It tells the coordinator nothing about the
    /// outcome — that was fixed when the decision was made — only that this
    /// participant will never ask about the gtid again, so the decision
    /// record may be dropped once every participant has said so. The
    /// coordinator reads it ahead of the reply to its next frame.
    Ack {
        /// Global transaction id the ack is for.
        gtid: u64,
    },
    /// Answer to [`Request::Stats`]: the server's registry snapshot — wire
    /// counters, phase breakdown, latency histograms, 2PC phase timings,
    /// gauges — with its engine's parked branches and lock counts.
    Stats(Box<Snapshot>),
    /// Answer to [`Request::Audit`]: the storage-level audit invariant.
    AuditSum {
        /// Sum of per-row audit counters over every table this instance
        /// serves — equals total committed row writes (updates + inserts).
        sum: u64,
    },
    /// Answer to [`Request::ResolveGtid`]: the coordinator's verdict for
    /// the in-doubt gtid (`islands_dtxn::verdict`).
    Resolved {
        /// Global transaction id the verdict is for.
        gtid: u64,
        /// `Some(true)` only when the decision log holds a forced commit;
        /// `Some(false)` for a logged abort and for presumed abort alike;
        /// `None` while a coordinator still has the round undecided — ask
        /// again later.
        commit: Option<bool>,
    },
}

/// Messages that can be framed and unframed.
pub trait WireMessage: Sized {
    /// Append `[tag][body]` to `buf`.
    fn encode_payload(&self, buf: &mut Vec<u8>);
    /// Decode from a complete frame payload.
    fn decode_payload(payload: &[u8]) -> Result<Self, WireError>;

    /// Append the full frame (`[len][tag][body]`) to `out`.
    fn encode_frame(&self, out: &mut Vec<u8>) {
        let header_at = out.len();
        out.extend_from_slice(&[0u8; FRAME_HEADER]);
        self.encode_payload(out);
        let len = out.len() - header_at - FRAME_HEADER;
        debug_assert!(len <= MAX_FRAME, "outgoing frame over MAX_FRAME");
        out[header_at..header_at + FRAME_HEADER].copy_from_slice(&(len as u32).to_le_bytes());
    }
}

fn need(tag: u8, body: &[u8], n: usize) -> Result<(), WireError> {
    if body.len() < n {
        return Err(WireError::BadBody {
            tag,
            needed: n,
            had: body.len(),
        });
    }
    Ok(())
}

fn exactly(tag: u8, body: &[u8], n: usize) -> Result<(), WireError> {
    if body.len() != n {
        return Err(WireError::BadBody {
            tag,
            needed: n,
            had: body.len(),
        });
    }
    Ok(())
}

/// Little-endian u64 from the first 8 bytes of `b`. Callers have already
/// length-checked the body via [`need`]/[`exactly`].
fn u64_le(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// Little-endian u32 from the first 4 bytes of `b` (length pre-checked).
fn u32_le(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

impl WireMessage for Request {
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Submit(req) => {
                buf.push(TAG_SUBMIT);
                req.encode_into(buf);
            }
            Request::Ping => buf.push(TAG_PING),
            Request::Drain => buf.push(TAG_DRAIN),
            Request::Prepare(branch) => {
                buf.push(TAG_PREPARE);
                branch.encode_into(buf);
            }
            Request::Decision { gtid, commit } => {
                buf.push(TAG_DECISION);
                buf.extend_from_slice(&gtid.to_le_bytes());
                buf.push(*commit as u8);
            }
            Request::Stats => buf.push(TAG_STATS_REQUEST),
            Request::SubmitPlan(plan) => {
                buf.push(TAG_SUBMIT_PLAN);
                plan.encode_into(buf);
            }
            Request::PreparePlan(branch) => {
                buf.push(TAG_PREPARE_PLAN);
                branch.encode_into(buf);
            }
            Request::Audit => buf.push(TAG_AUDIT),
            Request::ResolveGtid { gtid } => {
                buf.push(TAG_RESOLVE_GTID);
                buf.extend_from_slice(&gtid.to_le_bytes());
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, WireError> {
        let (&tag, body) = payload.split_first().ok_or(WireError::EmptyFrame)?;
        match tag {
            TAG_SUBMIT => {
                let (req, used) = TxnRequest::decode_from(body)?;
                exactly(tag, body, used)?;
                Ok(Request::Submit(req))
            }
            TAG_PING => {
                exactly(tag, body, 0)?;
                Ok(Request::Ping)
            }
            TAG_DRAIN => {
                exactly(tag, body, 0)?;
                Ok(Request::Drain)
            }
            TAG_PREPARE => {
                let (branch, used) = TxnBranch::decode_from(body)?;
                exactly(tag, body, used)?;
                Ok(Request::Prepare(branch))
            }
            TAG_DECISION => {
                exactly(tag, body, 9)?;
                let commit = match body[8] {
                    0 => false,
                    1 => true,
                    _ => {
                        return Err(WireError::BadBody {
                            tag,
                            needed: 9,
                            had: body.len(),
                        })
                    }
                };
                Ok(Request::Decision {
                    gtid: u64_le(body),
                    commit,
                })
            }
            TAG_STATS_REQUEST => {
                exactly(tag, body, 0)?;
                Ok(Request::Stats)
            }
            TAG_SUBMIT_PLAN => {
                let (plan, used) = PlanRequest::decode_from(body)?;
                exactly(tag, body, used)?;
                Ok(Request::SubmitPlan(plan))
            }
            TAG_PREPARE_PLAN => {
                let (branch, used) = PlanBranch::decode_from(body)?;
                exactly(tag, body, used)?;
                Ok(Request::PreparePlan(branch))
            }
            TAG_AUDIT => {
                exactly(tag, body, 0)?;
                Ok(Request::Audit)
            }
            TAG_RESOLVE_GTID => {
                exactly(tag, body, 8)?;
                Ok(Request::ResolveGtid { gtid: u64_le(body) })
            }
            other => Err(WireError::UnknownTag(other)),
        }
    }
}

impl WireMessage for Reply {
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Committed {
                distributed,
                retries,
                server_micros,
            } => {
                buf.push(TAG_COMMITTED);
                buf.push(*distributed as u8);
                buf.extend_from_slice(&retries.to_le_bytes());
                buf.extend_from_slice(&server_micros.to_le_bytes());
            }
            Reply::Aborted { retries } => {
                buf.push(TAG_ABORTED);
                buf.extend_from_slice(&retries.to_le_bytes());
            }
            Reply::Error { message } => {
                buf.push(TAG_ERROR);
                // Truncate at a char boundary so the frame stays bounded.
                let mut msg = message.as_str();
                if msg.len() > MAX_FRAME - 16 {
                    let mut cut = MAX_FRAME - 16;
                    while !msg.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    msg = &msg[..cut];
                }
                buf.extend_from_slice(msg.as_bytes());
            }
            Reply::Pong => buf.push(TAG_PONG),
            Reply::Draining => buf.push(TAG_DRAINING),
            Reply::Vote { gtid, vote } => {
                buf.push(TAG_VOTE);
                buf.extend_from_slice(&gtid.to_le_bytes());
                buf.push(vote_to_byte(*vote));
            }
            Reply::Ack { gtid } => {
                buf.push(TAG_ACK);
                buf.extend_from_slice(&gtid.to_le_bytes());
            }
            Reply::Stats(snap) => {
                buf.push(TAG_STATS_REPLY);
                snap.encode_into(buf);
            }
            Reply::AuditSum { sum } => {
                buf.push(TAG_AUDIT_REPLY);
                buf.extend_from_slice(&sum.to_le_bytes());
            }
            Reply::Resolved { gtid, commit } => {
                buf.push(TAG_RESOLVED);
                buf.extend_from_slice(&gtid.to_le_bytes());
                buf.push(commit.map_or(RESOLVED_PENDING, u8::from));
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, WireError> {
        let (&tag, body) = payload.split_first().ok_or(WireError::EmptyFrame)?;
        match tag {
            TAG_COMMITTED => {
                exactly(tag, body, 13)?;
                let distributed = match body[0] {
                    0 => false,
                    1 => true,
                    _ => {
                        return Err(WireError::BadBody {
                            tag,
                            needed: 13,
                            had: body.len(),
                        })
                    }
                };
                Ok(Reply::Committed {
                    distributed,
                    retries: u32_le(&body[1..5]),
                    server_micros: u64_le(&body[5..13]),
                })
            }
            TAG_ABORTED => {
                exactly(tag, body, 4)?;
                Ok(Reply::Aborted {
                    retries: u32_le(body),
                })
            }
            TAG_ERROR => {
                need(tag, body, 0)?;
                Ok(Reply::Error {
                    message: std::str::from_utf8(body)
                        .map_err(|_| WireError::BadUtf8)?
                        .to_owned(),
                })
            }
            TAG_PONG => {
                exactly(tag, body, 0)?;
                Ok(Reply::Pong)
            }
            TAG_DRAINING => {
                exactly(tag, body, 0)?;
                Ok(Reply::Draining)
            }
            TAG_VOTE => {
                exactly(tag, body, 9)?;
                let vote = vote_from_byte(body[8]).ok_or(WireError::BadBody {
                    tag,
                    needed: 9,
                    had: body.len(),
                })?;
                Ok(Reply::Vote {
                    gtid: u64_le(body),
                    vote,
                })
            }
            TAG_ACK => {
                exactly(tag, body, 8)?;
                Ok(Reply::Ack { gtid: u64_le(body) })
            }
            TAG_STATS_REPLY => {
                exactly(tag, body, STATS_BODY_LEN)?;
                let snap = Snapshot::decode(body).map_err(|_| WireError::BadBody {
                    tag,
                    needed: STATS_BODY_LEN,
                    had: body.len(),
                })?;
                Ok(Reply::Stats(Box::new(snap)))
            }
            TAG_AUDIT_REPLY => {
                exactly(tag, body, 8)?;
                Ok(Reply::AuditSum { sum: u64_le(body) })
            }
            TAG_RESOLVED => {
                exactly(tag, body, 9)?;
                let commit = match body[8] {
                    0 => Some(false),
                    1 => Some(true),
                    RESOLVED_PENDING => None,
                    _ => {
                        return Err(WireError::BadBody {
                            tag,
                            needed: 9,
                            had: body.len(),
                        })
                    }
                };
                Ok(Reply::Resolved {
                    gtid: u64_le(body),
                    commit,
                })
            }
            other => Err(WireError::UnknownTag(other)),
        }
    }
}

/// Incremental frame assembler over a byte stream.
///
/// Feed it socket reads with [`fill_from`](Self::fill_from); pop complete
/// payloads with [`next_payload`](Self::next_payload). Bytes of incomplete
/// frames stay buffered across calls, so request pipelining falls out for
/// free: however many frames one `read` returns, each is yielded in order.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    start: usize,
    /// Reusable landing area for socket reads: zeroed once here, never
    /// re-zeroed — `fill_from` runs on every wait for a frame, and a wait
    /// that polls (a session after it flushed its replies, a deployment
    /// client after it sent a frame) comes right back for the next one, so a
    /// fresh `resize(.., 0)` per fill would memset 16 KiB per frame.
    scratch: Box<[u8]>,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            scratch: vec![0u8; 16 * 1024].into_boxed_slice(),
        }
    }
}

impl FrameReader {
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Append bytes directly (tests, non-socket transports).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One `read` from `r` into the buffer. Returns the byte count (0 means
    /// EOF). `WouldBlock`/timeouts surface as `Err` for the caller to
    /// interpret.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        self.compact();
        let n = r.read(&mut self.scratch)?;
        self.buf.extend_from_slice(&self.scratch[..n]);
        Ok(n)
    }

    /// Pop the next complete frame payload, `Ok(None)` if more bytes are
    /// needed, or a [`WireError`] if the stream is unrecoverable
    /// (oversized/empty frame).
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = u32_le(avail) as usize;
        if len == 0 {
            return Err(WireError::EmptyFrame);
        }
        if len > MAX_FRAME {
            return Err(WireError::Oversized { len });
        }
        if avail.len() < FRAME_HEADER + len {
            return Ok(None);
        }
        let payload = avail[FRAME_HEADER..FRAME_HEADER + len].to_vec();
        self.start += FRAME_HEADER + len;
        self.compact();
        Ok(Some(payload))
    }

    /// Pop and decode the next complete message.
    pub fn next_message<M: WireMessage>(&mut self) -> Result<Option<M>, WireError> {
        match self.next_payload()? {
            Some(p) => M::decode_payload(&p).map(Some),
            None => Ok(None),
        }
    }

    fn compact(&mut self) {
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 32 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_workload::OpKind;

    fn submit(keys: &[u64]) -> Request {
        Request::Submit(TxnRequest {
            kind: OpKind::Update,
            keys: keys.to_vec(),
            multisite: keys.len() > 1,
        })
    }

    fn sample_plan() -> PlanRequest {
        use islands_workload::plan::{PlanClass, PlanStep, StepOp, TPCC_CUSTOMER, TPCC_WAREHOUSE};
        PlanRequest {
            class: PlanClass::Payment,
            multisite: true,
            steps: vec![
                PlanStep::point(TPCC_WAREHOUSE, 3, StepOp::Update),
                PlanStep::range(TPCC_CUSTOMER, 900, 4),
            ],
        }
    }

    #[test]
    fn requests_round_trip() {
        for r in [
            submit(&[1, 2, 3]),
            Request::Ping,
            Request::Drain,
            Request::Prepare(TxnBranch {
                gtid: 42,
                req: TxnRequest {
                    kind: OpKind::Update,
                    keys: vec![9, 10],
                    multisite: true,
                },
            }),
            Request::Decision {
                gtid: u64::MAX,
                commit: true,
            },
            Request::Decision {
                gtid: 7,
                commit: false,
            },
            Request::SubmitPlan(sample_plan()),
            Request::PreparePlan(PlanBranch {
                gtid: 314,
                plan: sample_plan(),
            }),
            Request::Audit,
            Request::ResolveGtid { gtid: 0xDEAD_BEEF },
        ] {
            let mut frame = Vec::new();
            r.encode_frame(&mut frame);
            let mut rd = FrameReader::new();
            rd.extend(&frame);
            assert_eq!(rd.next_message::<Request>().unwrap(), Some(r));
            assert_eq!(rd.buffered(), 0);
        }
    }

    #[test]
    fn replies_round_trip() {
        for r in [
            Reply::Committed {
                distributed: true,
                retries: 3,
                server_micros: 123_456,
            },
            Reply::Aborted { retries: 17 },
            Reply::Error {
                message: "no such key".into(),
            },
            Reply::Pong,
            Reply::Draining,
            Reply::Vote {
                gtid: 99,
                vote: Vote::Yes,
            },
            Reply::Vote {
                gtid: 1,
                vote: Vote::No,
            },
            Reply::Vote {
                gtid: 2,
                vote: Vote::ReadOnly,
            },
            Reply::Ack { gtid: 1 << 60 },
            Reply::AuditSum { sum: u64::MAX - 7 },
            Reply::Resolved {
                gtid: 55,
                commit: Some(true),
            },
            Reply::Resolved {
                gtid: 56,
                commit: Some(false),
            },
            Reply::Resolved {
                gtid: 57,
                commit: None,
            },
        ] {
            let mut frame = Vec::new();
            r.encode_frame(&mut frame);
            let payload = &frame[FRAME_HEADER..];
            assert_eq!(Reply::decode_payload(payload).unwrap(), r);
        }
    }

    #[test]
    fn bad_vote_and_decision_bytes_are_rejected() {
        let mut frame = Vec::new();
        Reply::Vote {
            gtid: 5,
            vote: Vote::Yes,
        }
        .encode_frame(&mut frame);
        let mut payload = frame[FRAME_HEADER..].to_vec();
        *payload.last_mut().unwrap() = 9; // not a vote byte
        assert!(matches!(
            Reply::decode_payload(&payload),
            Err(WireError::BadBody { .. })
        ));

        let mut frame = Vec::new();
        Request::Decision {
            gtid: 5,
            commit: true,
        }
        .encode_frame(&mut frame);
        let mut payload = frame[FRAME_HEADER..].to_vec();
        *payload.last_mut().unwrap() = 2; // not a bool
        assert!(matches!(
            Request::decode_payload(&payload),
            Err(WireError::BadBody { .. })
        ));

        let mut frame = Vec::new();
        Reply::Resolved {
            gtid: 5,
            commit: Some(false),
        }
        .encode_frame(&mut frame);
        let mut payload = frame[FRAME_HEADER..].to_vec();
        *payload.last_mut().unwrap() = 3; // not a verdict
        assert!(matches!(
            Reply::decode_payload(&payload),
            Err(WireError::BadBody { .. })
        ));
    }

    #[test]
    fn pipelined_frames_pop_in_order() {
        let mut bytes = Vec::new();
        submit(&[1]).encode_frame(&mut bytes);
        Request::Ping.encode_frame(&mut bytes);
        submit(&[2, 9]).encode_frame(&mut bytes);
        let mut rd = FrameReader::new();
        // Deliver in awkward 3-byte chunks: framing must reassemble.
        for chunk in bytes.chunks(3) {
            rd.extend(chunk);
        }
        assert_eq!(rd.next_message::<Request>().unwrap(), Some(submit(&[1])));
        assert_eq!(rd.next_message::<Request>().unwrap(), Some(Request::Ping));
        assert_eq!(rd.next_message::<Request>().unwrap(), Some(submit(&[2, 9])));
        assert_eq!(rd.next_message::<Request>().unwrap(), None);
    }

    #[test]
    fn incomplete_frame_is_not_an_error() {
        let mut frame = Vec::new();
        submit(&[1, 2]).encode_frame(&mut frame);
        let mut rd = FrameReader::new();
        rd.extend(&frame[..frame.len() - 1]);
        assert_eq!(rd.next_payload().unwrap(), None);
        rd.extend(&frame[frame.len() - 1..]);
        assert!(rd.next_payload().unwrap().is_some());
    }

    #[test]
    fn oversized_and_empty_frames_are_fatal() {
        let mut rd = FrameReader::new();
        rd.extend(&((MAX_FRAME as u32) + 1).to_le_bytes());
        assert_eq!(
            rd.next_payload(),
            Err(WireError::Oversized { len: MAX_FRAME + 1 })
        );
        let mut rd = FrameReader::new();
        rd.extend(&0u32.to_le_bytes());
        assert_eq!(rd.next_payload(), Err(WireError::EmptyFrame));
    }

    #[test]
    fn unknown_tags_and_trailing_garbage_rejected() {
        assert_eq!(
            Request::decode_payload(&[0x77]),
            Err(WireError::UnknownTag(0x77))
        );
        assert_eq!(
            Request::decode_payload(&[TAG_PING, 0xFF]),
            Err(WireError::BadBody {
                tag: TAG_PING,
                needed: 0,
                had: 1
            })
        );
        // A submit body with bytes beyond the encoded request is a framing
        // bug, not silently ignored.
        let mut payload = Vec::new();
        submit(&[4]).encode_payload(&mut payload);
        payload.push(0);
        assert!(matches!(
            Request::decode_payload(&payload),
            Err(WireError::BadBody { .. })
        ));
    }
}
