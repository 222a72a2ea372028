//! Blocking client library: single connections and a connection pool.
//!
//! [`Client`] is one connection speaking the wire protocol: submit a
//! transaction and wait ([`submit`](Client::submit)), or ship a whole
//! pipeline of requests in one write and collect the replies in order
//! ([`submit_pipelined`](Client::submit_pipelined)) — the server runs
//! what arrives together back-to-back and answers it in one write.
//!
//! [`ClientPool`] is a small checkout/checkin pool for sharing connections
//! across threads; a connection that hits an I/O error is discarded rather
//! than returned, so the pool never hands out a stream with undrained
//! replies on it.

use std::io::{self, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use islands_workload::{PlanRequest, TxnRequest};

use crate::server::{Conn, Endpoint};
use crate::wire::{FrameReader, Reply, Request, WireMessage};

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

    /// Connect, retrying for up to `timeout` while the endpoint refuses or
    /// does not exist yet — for racing a just-spawned server.
    pub fn connect_with_retry(endpoint: &Endpoint, timeout: Duration) -> io::Result<Self> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(endpoint) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
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

/// Checkout/checkin pool of [`Client`] connections to one endpoint.
///
/// Connections are created lazily up to no particular cap — the pool's job
/// is reuse, not admission control. [`get`](ClientPool::get) hands out a
/// [`PooledClient`] guard that returns the connection on drop unless it was
/// [`discard`](PooledClient::discard)ed (or observed an error via the
/// `submit` helpers, which discard automatically).
pub struct ClientPool {
    endpoint: Endpoint,
    idle: Mutex<Vec<Client>>,
}

impl ClientPool {
    pub fn new(endpoint: Endpoint) -> Self {
        ClientPool {
            endpoint,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Endpoint this pool connects to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Number of idle pooled connections.
    pub fn idle_count(&self) -> usize {
        self.idle_guard().len()
    }

    /// The idle list survives a holder's panic structurally intact (it only
    /// ever sees `push`/`pop` of plain connections), so recover from mutex
    /// poisoning instead of cascading the panic into every later caller.
    fn idle_guard(&self) -> std::sync::MutexGuard<'_, Vec<Client>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Check out an idle connection or open a new one.
    pub fn get(&self) -> io::Result<PooledClient<'_>> {
        let reused = self.idle_guard().pop();
        let client = match reused {
            Some(c) => c,
            None => Client::connect(&self.endpoint)?,
        };
        Ok(PooledClient {
            pool: self,
            client: Some(client),
        })
    }

    /// Convenience: check out, submit, check in (discarding on error).
    pub fn submit(&self, txn: &TxnRequest) -> io::Result<Reply> {
        let mut c = self.get()?;
        match c.submit(txn) {
            Ok(reply) => Ok(reply),
            Err(e) => {
                c.discard();
                Err(e)
            }
        }
    }

    fn put_back(&self, client: Client) {
        self.idle_guard().push(client);
    }
}

/// RAII guard over a pooled connection.
pub struct PooledClient<'a> {
    pool: &'a ClientPool,
    client: Option<Client>,
}

impl PooledClient<'_> {
    /// Drop the connection instead of returning it to the pool (use after
    /// any I/O error: the stream may hold half-read replies).
    pub fn discard(&mut self) {
        self.client = None;
    }
}

impl std::ops::Deref for PooledClient<'_> {
    type Target = Client;
    fn deref(&self) -> &Client {
        match self.client.as_ref() {
            Some(c) => c,
            // `discard` is the guard's final use in every caller; getting
            // here is a bug in this module, not a runtime condition.
            None => unreachable!("pooled client used after discard"),
        }
    }
}

impl std::ops::DerefMut for PooledClient<'_> {
    fn deref_mut(&mut self) -> &mut Client {
        match self.client.as_mut() {
            Some(c) => c,
            None => unreachable!("pooled client used after discard"),
        }
    }
}

impl Drop for PooledClient<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.client.take() {
            self.pool.put_back(c);
        }
    }
}
