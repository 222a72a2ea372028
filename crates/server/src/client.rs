//! Blocking client library: one connection per [`Client`].
//!
//! [`Client`] is one connection speaking the wire protocol: submit a
//! transaction and wait ([`submit_plan`](Client::submit_plan)), or ship a
//! whole pipeline of requests in one write and collect the replies in order
//! ([`submit_pipelined`](Client::submit_pipelined)) — the server runs
//! what arrives together back-to-back and answers it in one write.

use std::io::{self, Write};
use std::time::{Duration, Instant};

use islands_workload::{PlanRequest, TxnRequest};

use crate::server::{Conn, Endpoint};
use crate::wire::{FrameReader, Reply, Request, WireMessage};

/// First pause of [`Client::connect_with_retry`]; each later one doubles.
const RETRY_PAUSE_START: Duration = Duration::from_millis(1);
/// Where the doubling stops: 1 → 2 → … → 64 ms, then 64 ms per attempt.
const RETRY_PAUSE_CAP: Duration = Duration::from_millis(64);

/// One blocking connection to a served deployment.
pub struct Client {
    conn: Conn,
    reader: FrameReader,
    scratch: Vec<u8>,
    /// The read timeout currently armed on the socket.
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connect to `endpoint` (TCP connections enable `TCP_NODELAY`).
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        Ok(Client {
            conn: Conn::connect(endpoint)?,
            reader: FrameReader::new(),
            scratch: Vec::new(),
            read_timeout: None,
        })
    }

    /// Connect, retrying while the endpoint refuses or does not exist yet —
    /// a just-spawned server, an instance mid-restart. The first attempt is
    /// immediate, later ones wait out a capped doubling pause, and the last
    /// error is returned once `budget` is spent.
    pub fn connect_with_retry(endpoint: &Endpoint, budget: Duration) -> io::Result<Self> {
        let deadline = Instant::now() + budget;
        let mut pause = RETRY_PAUSE_START;
        loop {
            match Client::connect(endpoint) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => {
                    std::thread::sleep(pause);
                    pause = (pause * 2).min(RETRY_PAUSE_CAP);
                }
            }
        }
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        loop {
            match self.reader.next_message::<Reply>() {
                Ok(Some(reply)) => return Ok(reply),
                Ok(None) => {
                    if self.reader.fill_from(&mut self.conn)? == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection mid-reply",
                        ));
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn send(&mut self, requests: &[Request]) -> io::Result<()> {
        self.scratch.clear();
        for r in requests {
            r.encode_frame(&mut self.scratch);
        }
        self.conn.write_all(&self.scratch)?;
        self.conn.flush()
    }

    /// Submit one transaction and wait for its outcome.
    pub fn submit(&mut self, txn: &TxnRequest) -> io::Result<Reply> {
        self.send(std::slice::from_ref(&Request::Submit(txn.clone())))?;
        self.read_reply()
    }

    /// Ship one raw request without waiting for the reply. Lower-level than
    /// [`submit`](Self::submit): a 2PC coordinator uses this to fan a
    /// `Prepare` out to every participant before collecting any votes, and
    /// to write a `Decision` whose `Ack` it will only read — still in
    /// request order — ahead of the reply to whatever it sends next.
    pub fn send_request(&mut self, request: &Request) -> io::Result<()> {
        self.send(std::slice::from_ref(request))
    }

    /// Read the next reply frame (replies arrive in request order).
    pub fn recv_reply(&mut self) -> io::Result<Reply> {
        self.read_reply()
    }

    /// Bound how long [`recv_reply`](Self::recv_reply) blocks, from now
    /// until the next call (a `setsockopt` only when the value changes).
    /// `None` waits forever. A timed-out read surfaces as
    /// `WouldBlock`/`TimedOut`; the coordinator treats that as a participant
    /// failure (presumed abort).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        if self.read_timeout != timeout {
            self.conn.set_read_timeout(timeout)?;
            self.read_timeout = timeout;
        }
        Ok(())
    }

    /// Pipeline many transactions in one write; replies come back in
    /// submission order.
    pub fn submit_pipelined(&mut self, txns: &[TxnRequest]) -> io::Result<Vec<Reply>> {
        let requests: Vec<Request> = txns.iter().cloned().map(Request::Submit).collect();
        self.send(&requests)?;
        (0..txns.len()).map(|_| self.read_reply()).collect()
    }

    /// Submit one multi-step transaction plan and wait for its outcome.
    pub fn submit_plan(&mut self, plan: &PlanRequest) -> io::Result<Reply> {
        self.send(std::slice::from_ref(&Request::SubmitPlan(plan.clone())))?;
        self.read_reply()
    }

    /// Scrape the instance's audit sum (total committed row writes across
    /// every table it serves). Non-disruptive, like [`stats`](Self::stats).
    pub fn audit(&mut self) -> io::Result<u64> {
        self.send(&[Request::Audit])?;
        match self.read_reply()? {
            Reply::AuditSum { sum } => Ok(sum),
            other => Err(unexpected("AuditSum", &other)),
        }
    }

    /// Round-trip latency floor: send a ping, time the pong.
    pub fn ping(&mut self) -> io::Result<Duration> {
        let start = Instant::now();
        self.send(&[Request::Ping])?;
        match self.read_reply()? {
            Reply::Pong => Ok(start.elapsed()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Scrape the server's live stats: wire counters plus the instance
    /// process's observability snapshot. Non-disruptive — the run continues.
    pub fn stats(&mut self) -> io::Result<(crate::ServerStats, islands_obs::Snapshot)> {
        self.send(&[Request::Stats])?;
        match self.read_reply()? {
            Reply::Stats { server, obs } => Ok((server, *obs)),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Ask the server to drain and wait for the acknowledgment.
    pub fn drain_server(&mut self) -> io::Result<()> {
        self.send(&[Request::Drain])?;
        match self.read_reply()? {
            Reply::Draining => Ok(()),
            other => Err(unexpected("Draining", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Reply) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected {wanted}, server sent {got:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixListener;

    #[test]
    fn connect_with_retry_waits_out_a_late_binding_listener() {
        let sock = std::env::temp_dir().join(format!(
            "islands-backoff-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&sock);

        // Nothing listens and nothing will: the budget must bound the wait.
        let endpoint = Endpoint::Uds(sock.clone());
        assert!(Client::connect_with_retry(&endpoint, Duration::from_millis(50)).is_err());

        // A listener that binds late — the restart window — must be reached
        // by a connect that starts before the bind.
        let binder = {
            let sock = sock.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                let listener = UnixListener::bind(&sock).unwrap();
                let _ = listener.accept();
            })
        };
        assert!(
            Client::connect_with_retry(&endpoint, Duration::from_secs(5)).is_ok(),
            "backoff must outlast a 100ms bind delay"
        );
        binder.join().unwrap();
        let _ = std::fs::remove_file(&sock);
    }
}
