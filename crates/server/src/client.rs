//! Blocking client library: one connection per [`Client`].
//!
//! [`Client`] is one connection speaking the wire protocol: submit a
//! transaction and wait ([`submit_plan`](Client::submit_plan)), or ship a
//! whole pipeline of requests in one write and collect the replies in order
//! ([`submit_pipelined`](Client::submit_pipelined)) — the server runs
//! what arrives together back-to-back and answers it in one write.
//!
//! A bare client always sleeps in `read` for its reply. A
//! [`DeployClient`](crate::DeployClient)'s links poll for it first while the
//! deployment's live clients do not outnumber the host's cpus (`poll.rs`).

use std::io::{self, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_workload::{PlanRequest, TxnRequest};

use crate::poll::Caller;
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

    /// Poll for replies on behalf of `caller` (see `poll.rs`).
    pub(crate) fn with_caller(mut self, caller: Arc<Caller>) -> Client {
        self.conn.set_caller(caller);
        self
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
    /// until the next call (a `setsockopt` only when the value changes);
    /// a read that polls first waits at most one 50 µs poll window longer.
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

    /// Scrape the server's live stats: its snapshot, and the wire counters
    /// in it. Non-disruptive — the run continues.
    pub fn stats(&mut self) -> io::Result<(crate::ServerStats, islands_obs::Snapshot)> {
        self.send(&[Request::Stats])?;
        match self.read_reply()? {
            Reply::Stats(snap) => Ok(((&*snap).into(), *snap)),
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
    use crate::poll::{Callers, POLL_WINDOW};
    use crate::server::{Backend, Server, ServerConfig};
    use islands_core::native::{PartitionConfig, PartitionEngine};
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

    fn temp_sock(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "islands-{tag}-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    /// A client that polls: the one caller of its own count, which no host
    /// outnumbers.
    fn polling(client: Client) -> Client {
        client.with_caller(Arc::new(Callers::default()).enter())
    }

    #[test]
    fn a_polling_read_on_a_silent_peer_times_out_at_its_deadline() {
        // The coordinator's vote-timeout path to presumed abort: a
        // participant that accepts and never answers. Polling first must
        // neither cut the armed timeout short nor stretch it by more than
        // the window.
        const TIMEOUT: Duration = Duration::from_millis(100);
        // A socket timeout counts kernel ticks, and the first may be partial.
        const TICK: Duration = Duration::from_millis(10);
        // Scheduling slack on a loaded host.
        const SLACK: Duration = Duration::from_millis(100);
        let sock = temp_sock("silent");
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock).unwrap();
        let mut client = polling(Client::connect(&Endpoint::Uds(sock.clone())).unwrap());
        let (_silent, _) = listener.accept().unwrap();
        client.set_read_timeout(Some(TIMEOUT)).unwrap();
        for _ in 0..3 {
            client.send_request(&Request::Ping).unwrap();
            let started = Instant::now();
            let err = client.recv_reply().unwrap_err();
            let waited = started.elapsed();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "{err}"
            );
            assert!(waited + TICK >= TIMEOUT, "gave up after {waited:?}");
            assert!(waited <= TIMEOUT + POLL_WINDOW + SLACK, "waited {waited:?}");
        }
        let _ = std::fs::remove_file(&sock);
    }

    #[test]
    fn replies_that_overflow_the_socket_buffer_all_arrive_in_order() {
        // The whole pipeline goes out before anything is read: more Pings
        // than one 16 KiB read takes, so the session's wait after its first
        // flush polls and finds bytes, which leaves its socket nonblocking;
        // then Stats requests whose replies overflow the socket buffer. A
        // Stats reply counts the requests decoded before it, which pins the
        // order.
        let engine = PartitionEngine::build(&PartitionConfig {
            lo: 0,
            hi: 10,
            row_size: 16,
            buffer_frames: 64,
            ..Default::default()
        })
        .unwrap();
        let handle = Server::spawn_backend(
            Backend::Partition(Arc::new(engine)),
            Endpoint::Uds(temp_sock("overflow")),
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = Client::connect(handle.endpoint()).unwrap();
        let requests: Vec<Request> = (0..4_000)
            .map(|i| {
                if i < 3_500 {
                    Request::Ping
                } else {
                    Request::Stats
                }
            })
            .collect();
        client.send(&requests).unwrap();
        // Let the session fill the buffer before anything drains it.
        std::thread::sleep(Duration::from_millis(50));
        for (i, request) in requests.iter().enumerate() {
            match (request, client.recv_reply().unwrap()) {
                (Request::Ping, Reply::Pong) => {}
                (Request::Stats, Reply::Stats(snap)) => {
                    assert_eq!(snap.requests, i as u64 + 1, "reply {i} out of order")
                }
                (_, other) => panic!("reply {i} to {request:?}: {other:?}"),
            }
        }
        client.drain_server().unwrap();
        handle.join().unwrap();
    }
}
