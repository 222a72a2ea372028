//! The served deployment: acceptor, per-connection sessions, drain.
//!
//! [`Server::spawn_backend`] binds a Unix-domain-socket or TCP endpoint in
//! front of one partition — a [`Backend`] — and returns a handle. An
//! acceptor thread hands each connection to its own session thread: the
//! paper's shared-nothing processes talk over exactly these transports, and
//! a deployment child is one such server. Routing and 2PC coordination live
//! with the caller ([`DeployClient`](crate::DeployClient)), never behind a
//! socket.
//!
//! A connection is one [`PartitionSession`] on the partition's engine, opened
//! when the connection opens. Every Submit / Prepare / Decision frame is one
//! engine call, whichever engine mode (`answer` — which is also how the
//! in-process cluster's instances answer the frames their coordinator hands
//! them by direct call): a submit runs the local plan within the server's
//! retry budget, a prepare parks its branch under the connection's session,
//! a decision applies to whichever branch it names. A [`PlanRequest`] is the
//! only shape that crosses that call: the batch frames ([`Request::Submit`],
//! [`Request::Prepare`]) are lowered with
//! [`TxnRequest::to_plan`](islands_workload::TxnRequest::to_plan) as they
//! arrive. When the connection ends — clean close, protocol error, drain —
//! the session is dropped, and a branch it prepared that nobody decided
//! stays parked, ownerless, holding its rows: its Yes vote binds, so only a
//! `Decision` on another connection or the coordinator's verdict, asked for
//! by a resolver pass, ends it.
//!
//! Sessions **pipeline without waiting**: every complete frame already
//! buffered on the socket (up to `MAX_BATCH`) is decoded
//! into one batch, the batch runs back-to-back, and all replies are flushed
//! in a single write — one syscall amortized over whatever a pipelining
//! client shipped together. A session executes what has arrived and never
//! waits for what has not: a closed-loop client's lone request runs the
//! moment it is read. Once its replies are flushed, a session's wait for
//! the next request polls the socket briefly before it parks in a blocking
//! read, while it holds a poll slot — always while the server's live
//! sessions do not outnumber the host's cpus, within a budget once they do
//! (`poll.rs`); that wait never holds back a frame that has arrived.
//!
//! **Drain**: a [`Request::Drain`] (or [`ServerHandle::initiate_shutdown`])
//! raises the shared shutdown flag and connects to the server's own
//! endpoint once: the acceptor sleeps in `accept` and that connection is its
//! wake-up call. It stops accepting, sessions finish the batch in flight,
//! flush, and exit at their next poll tick, and [`ServerHandle::join`]
//! returns the final counters once every thread is gone.
//!
//! **Stats**: every server owns one `islands_obs` registry. A session
//! records its wire counters into it and makes it the thread's current
//! registry for its life, so the engine's own records (phase spans, the
//! callers waiting for a serial partition's turn, parked branches) land
//! there too. A [`Request::Stats`] is answered with that registry's
//! snapshot, the engine's in-doubt table and lock counts filled in.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_core::native::{
    DecideOutcome, EngineMode, PartitionConfig, PartitionEngine, PartitionSession,
};
use islands_obs::{BreakdownCategory, Metrics, Snapshot, TxnClass};
use islands_storage::StorageError;
use islands_workload::PlanRequest;

use crate::poll::{Caller, Callers, POLL_WINDOW};
use crate::wire::{FrameReader, Reply, Request, WireMessage};

/// Where a server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix domain socket at this path.
    Uds(PathBuf),
    /// TCP socket (use port 0 to bind an ephemeral port; the handle reports
    /// the resolved address).
    Tcp(SocketAddr),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Uds(p) => write!(f, "uds:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl Endpoint {
    /// Parse the [`Display`](std::fmt::Display) form back: `uds:PATH` or
    /// `tcp:HOST:PORT`. Deployment orchestrators round-trip endpoints
    /// through child process command lines and `READY` hand-shake lines.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("uds:") {
            Ok(Endpoint::Uds(path.into()))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Ok(Endpoint::Tcp(
                addr.parse()
                    .map_err(|e| format!("bad address {addr}: {e}"))?,
            ))
        } else {
            Err(format!("endpoint must be uds:PATH or tcp:ADDR, got {s}"))
        }
    }
}

/// Largest request batch one session executes between flushes.
const MAX_BATCH: usize = 64;

/// How often an idle session looks for a shutdown; also the upper bound on
/// how long a drain waits for idle sessions.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// What a served deployment can be told.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Server-side retry budget per submitted transaction.
    pub retry_limit: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { retry_limit: 64 }
    }
}

/// What a server fronts: one partition of a shared-nothing deployment.
/// Local submissions commit there; [`Request::Prepare`] /
/// [`Request::Decision`] frames drive participant-side 2PC. Both variants
/// hold the one engine type, and how it runs — locked, or serial with its
/// callers taking turns — is how it was built (`single_threaded`). The
/// second variant is kept for `benchmark/`, goes with ROADMAP item 1.
#[derive(Clone)]
pub enum Backend {
    /// A partition, locked or serial.
    Partition(Arc<PartitionEngine>),
    /// The same: the name a serial partition was served under.
    Executor(Arc<PartitionEngine>),
}

impl Backend {
    /// The engine behind this backend.
    pub(crate) fn engine(&self) -> &Arc<PartitionEngine> {
        match self {
            Backend::Partition(engine) | Backend::Executor(engine) => engine,
        }
    }
}

/// One served instance: an engine, and the registry that is its stats.
#[derive(Clone)]
pub(crate) struct Instance {
    pub(crate) engine: Arc<PartitionEngine>,
    pub(crate) metrics: Arc<Metrics>,
}

impl Instance {
    /// Build and load one partition instance in `mode` inside a registry of
    /// its own, so what the build records (a restart replay) is the
    /// instance's: what a deployment child serves, and what the in-process
    /// cluster holds N of. The one place a mode becomes an engine: serial
    /// is `single_threaded`, whatever `partition` says.
    pub(crate) fn build(
        mode: EngineMode,
        partition: PartitionConfig,
    ) -> Result<Self, StorageError> {
        let metrics = Arc::new(Metrics::new());
        let _scope = islands_obs::scope(&metrics);
        let engine = PartitionEngine::build(&PartitionConfig {
            single_threaded: mode == EngineMode::Serial,
            ..partition
        })?;
        Ok(Instance {
            engine: Arc::new(engine),
            metrics,
        })
    }

    /// The instance's stats now.
    pub(crate) fn snapshot(&self) -> Snapshot {
        snapshot(&self.metrics, &self.engine)
    }

    /// Bind `endpoint` and serve this instance until drained.
    pub(crate) fn serve(
        self,
        endpoint: &Endpoint,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let Instance { engine, metrics } = self;
        let served = Arc::clone(&engine);
        let session: Arc<SessionFn> = Arc::new(move |conn, shutdown, metrics| {
            session(conn, &served, config.retry_limit, shutdown, metrics)
        });
        serve(endpoint, metrics, Some(engine), session)
    }
}

/// `metrics`' snapshot, with what `engine` knows filled in.
///
/// The engine is read before the registry: a decided branch has its
/// resolution recorded before it leaves the in-doubt table, so a snapshot
/// that finds it gone also counts how it was resolved.
pub(crate) fn snapshot(metrics: &Metrics, engine: &PartitionEngine) -> Snapshot {
    let mut snap = Snapshot::default();
    engine.observe(&mut snap);
    snap.merge(&metrics.snapshot());
    snap
}

/// A server's wire counters: the part of its [`Snapshot`] a client
/// checks a drain by.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests of any kind decoded.
    pub requests: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions that exhausted their retry budget.
    pub aborts: u64,
    /// Malformed or unsatisfiable requests answered with an error reply.
    pub errors: u64,
    /// 2PC prepare frames processed (partition backends).
    pub prepares: u64,
    /// 2PC decision frames processed (partition backends).
    pub decisions: u64,
    /// Reserved: instances no longer roll back a branch whose coordinator's
    /// connection died (a Yes vote binds), so this stays 0. The stats codec
    /// and the benchmark package still carry it.
    pub presumed_aborts: u64,
    /// Gauge: branches currently prepared and awaiting a decision, those
    /// restart replay re-parked included. Must be zero after a clean drain
    /// — anything else is a leaked in-doubt transaction still holding
    /// locks.
    pub in_doubt: u64,
}

impl From<&Snapshot> for ServerStats {
    fn from(snap: &Snapshot) -> Self {
        ServerStats {
            connections: snap.connections,
            requests: snap.requests,
            commits: snap.commits,
            aborts: snap.aborts,
            errors: snap.errors,
            prepares: snap.prepares,
            decisions: snap.decisions,
            presumed_aborts: snap.presumed_aborts,
            in_doubt: snap.in_doubt,
        }
    }
}

impl ServerStats {
    /// Add another instance's counters into this one — the deployment-wide
    /// totals a scraper's `SUM` row shows (`in_doubt` is a gauge, but the
    /// sum of gauges is the deployment-wide backlog, so plain addition is
    /// the right aggregation for every field).
    pub fn absorb(&mut self, other: &ServerStats) {
        self.connections += other.connections;
        self.requests += other.requests;
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.errors += other.errors;
        self.prepares += other.prepares;
        self.decisions += other.decisions;
        self.presumed_aborts += other.presumed_aborts;
        self.in_doubt += other.in_doubt;
    }
}

enum Listener {
    Uds(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Uds(path) => {
                // A stale socket file from a dead server would make bind
                // fail; remove it only if nothing is listening there.
                if path.exists() && UnixStream::connect(path).is_err() {
                    let _ = std::fs::remove_file(path);
                }
                Ok(Listener::Uds(UnixListener::bind(path)?, path.clone()))
            }
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
        }
    }

    fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Uds(_, path) => Ok(Endpoint::Uds(path.clone())),
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?)),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Uds(l, _) => Ok(Conn::new(Stream::Uds(l.accept()?.0))),
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::new(Stream::Tcp(s)))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected socket, transport-erased.
enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_nonblocking(on),
            Stream::Tcp(s) => s.set_nonblocking(on),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
}

/// One connection, either end: a socket whose reads poll, then park.
///
/// Every write tells the connection a frame is due back within microseconds
/// — the reply to what a client sent, the next request of a closed-loop
/// client a session just answered — so the reads that wait for it poll
/// first (see [`crate::poll`]). The socket stays nonblocking across polls;
/// it is switched back only to park: for the blocking `read` once a window
/// runs out, and for a `write` the peer's full buffer refuses.
pub(crate) struct Conn {
    stream: Stream,
    /// The socket's mode, so a steady polling loop costs no `ioctl`.
    nonblocking: bool,
    /// A write went out and no poll window has run out since.
    expecting: bool,
    /// Whose wait this is, for the poll budget; `None` never polls.
    caller: Option<Arc<Caller>>,
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        Conn {
            stream,
            nonblocking: false,
            expecting: false,
            caller: None,
        }
    }

    pub(crate) fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Uds(path) => Ok(Conn::new(Stream::Uds(UnixStream::connect(path)?))),
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(Conn::new(Stream::Tcp(s)))
            }
        }
    }

    /// Let this connection's waits poll on behalf of `caller`.
    pub(crate) fn set_caller(&mut self, caller: Arc<Caller>) {
        self.caller = Some(caller);
    }

    /// Bound how long a parked read blocks. A polling read waits at most
    /// [`POLL_WINDOW`] longer.
    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        switch_mode(&self.stream, &mut self.nonblocking, on)
    }
}

/// Put `stream` in blocking or nonblocking mode; `mode` caches the current
/// one so a steady loop costs no `ioctl`. Apart from [`Conn`] so a read can
/// switch it while holding a poll slot borrowed from the caller.
fn switch_mode(stream: &Stream, mode: &mut bool, on: bool) -> io::Result<()> {
    if *mode != on {
        stream.set_nonblocking(on)?;
        *mode = on;
    }
    Ok(())
}

impl Read for Conn {
    /// Poll, then park: an expected frame is polled for with nonblocking
    /// reads and `yield_now` for [`POLL_WINDOW`] while the caller holds a
    /// poll slot; otherwise, or once the window runs out and the slot is
    /// given back, one blocking read under the armed timeout.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let slot = match &self.caller {
            Some(caller) if self.expecting => caller.may_poll(),
            _ => None,
        };
        if let Some(_slot) = slot {
            switch_mode(&self.stream, &mut self.nonblocking, true)?;
            let window_ends = Instant::now() + POLL_WINDOW;
            loop {
                match self.stream.read(buf) {
                    Err(e)
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                    got => return got,
                }
                if Instant::now() >= window_ends {
                    break;
                }
                std::thread::yield_now();
            }
            self.expecting = false;
        }
        switch_mode(&self.stream, &mut self.nonblocking, false)?;
        self.stream.read(buf)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            match self.stream.write(buf) {
                Ok(n) => {
                    self.expecting = true;
                    return Ok(n);
                }
                // A full peer buffer: park in a blocking write rather than
                // fail the caller's `write_all` and drop the connection.
                Err(e) if e.kind() == ErrorKind::WouldBlock && self.nonblocking => {
                    self.set_nonblocking(false)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sockets buffer nothing in user space.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Handle to a running server. Dropping the handle does **not** stop the
/// server; call [`initiate_shutdown`](Self::initiate_shutdown) +
/// [`join`](Self::join) (or have a client send [`Request::Drain`]).
pub struct ServerHandle {
    shutdown: Arc<Shutdown>,
    metrics: Arc<Metrics>,
    /// What the server fronts, if anything (the coordinator's resolver
    /// fronts nothing).
    engine: Option<Arc<PartitionEngine>>,
    acceptor: Option<std::thread::JoinHandle<io::Result<()>>>,
}

/// The drain flag, and the way raising it reaches an acceptor that sleeps in
/// `accept` until somebody connects.
pub(crate) struct Shutdown {
    raised: AtomicBool,
    /// The server's own resolved endpoint.
    endpoint: Endpoint,
}

impl Shutdown {
    fn raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Raise the flag; whoever raises it first also wakes the acceptor with
    /// a connection it accepts, finds the flag up, and drops.
    fn raise(&self) {
        if !self.raised.swap(true, Ordering::SeqCst) {
            let _ = Conn::connect(&self.endpoint);
        }
    }
}

/// Namespace for [`Server::spawn_backend`].
pub struct Server;

impl Server {
    /// Bind `endpoint` and serve `backend` until drained, with a registry
    /// of the server's own.
    pub fn spawn_backend(
        backend: Backend,
        endpoint: Endpoint,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let instance = Instance {
            engine: Arc::clone(backend.engine()),
            metrics: Arc::new(Metrics::new()),
        };
        instance.serve(&endpoint, config)
    }
}

/// What [`serve`] runs on a thread per accepted connection, with the
/// server's registry.
pub(crate) type SessionFn = dyn Fn(Conn, &Shutdown, &Metrics) -> io::Result<()> + Send + Sync;

/// Bind `endpoint` and run `session` on every accepted connection until
/// drained: the acceptor, the drain and the session bookkeeping everything
/// served here shares — an [`Instance`], and the coordinator's resolver,
/// which fronts nothing (`engine: None`).
pub(crate) fn serve(
    endpoint: &Endpoint,
    metrics: Arc<Metrics>,
    engine: Option<Arc<PartitionEngine>>,
    session: Arc<SessionFn>,
) -> io::Result<ServerHandle> {
    let listener = Listener::bind(endpoint)?;
    let shutdown = Arc::new(Shutdown {
        raised: AtomicBool::new(false),
        endpoint: listener.local_endpoint()?,
    });
    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let metrics = Arc::clone(&metrics);
        std::thread::Builder::new()
            .name("islands-acceptor".into())
            .spawn(move || accept_loop(listener, session, shutdown, metrics))?
    };
    Ok(ServerHandle {
        shutdown,
        metrics,
        engine,
        acceptor: Some(acceptor),
    })
}

impl ServerHandle {
    /// The resolved endpoint (actual TCP port when bound to port 0).
    pub fn endpoint(&self) -> &Endpoint {
        &self.shutdown.endpoint
    }

    /// The server's wire counters now.
    pub fn stats(&self) -> ServerStats {
        let snap = match &self.engine {
            Some(engine) => snapshot(&self.metrics, engine),
            None => self.metrics.snapshot(),
        };
        ServerStats::from(&snap)
    }

    /// Begin a drain, as if a client had sent [`Request::Drain`].
    pub fn initiate_shutdown(&self) {
        self.shutdown.raise();
    }

    /// Wait for the acceptor and every session to exit; returns the final
    /// counters. Call after a drain was initiated (by a client or
    /// [`initiate_shutdown`](Self::initiate_shutdown)) or this blocks until
    /// one happens.
    pub fn join(mut self) -> io::Result<ServerStats> {
        if let Some(h) = self.acceptor.take() {
            h.join()
                .map_err(|_| io::Error::other("acceptor thread panicked"))??;
        }
        Ok(self.stats())
    }
}

/// How many session handles may accumulate before a push forces a prune.
/// Small enough that the handle list stays O(live sessions), large enough
/// that a busy accept loop is not scanning the list on every connection.
const SESSION_PRUNE_WATERMARK: usize = 64;

/// Bookkeeping for spawned session threads.
///
/// Finished handles are pruned whenever a spawn finds the list at the
/// watermark, so the list stays O(live sessions) under connection churn
/// instead of growing by one `JoinHandle` per connection ever accepted.
struct SessionSet {
    handles: Vec<std::thread::JoinHandle<()>>,
    /// The live sessions: the callers whose waits the poll rule weighs. A
    /// session leaves the count when its connection drops.
    callers: Arc<Callers>,
}

impl SessionSet {
    fn new() -> Self {
        SessionSet {
            handles: Vec::new(),
            callers: Arc::default(),
        }
    }

    /// Run `serve` over `conn` on a session thread of its own, counted live
    /// for as long as it holds the connection.
    fn spawn(
        &mut self,
        mut conn: Conn,
        serve: impl FnOnce(Conn) + Send + 'static,
    ) -> io::Result<()> {
        conn.set_caller(self.callers.enter());
        let handle = std::thread::Builder::new()
            .name("islands-session".into())
            .spawn(move || serve(conn))?;
        if self.handles.len() >= SESSION_PRUNE_WATERMARK {
            self.prune();
        }
        self.handles.push(handle);
        Ok(())
    }

    fn prune(&mut self) {
        self.handles.retain(|h| !h.is_finished());
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.handles.len()
    }

    fn join_all(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Accept connections, one session thread each, until a drain. The thread
/// sleeps in `accept` between connections — no poll, no wake-ups on the
/// cpus its sessions run on — and [`Shutdown::raise`] connects to wake it.
fn accept_loop(
    listener: Listener,
    session: Arc<SessionFn>,
    shutdown: Arc<Shutdown>,
    metrics: Arc<Metrics>,
) -> io::Result<()> {
    let mut sessions = SessionSet::new();
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if shutdown.raised() {
            // The drain's wake-up call, or a client that raced it.
            break;
        }
        metrics.connections.inc();
        let session = Arc::clone(&session);
        let shutdown = Arc::clone(&shutdown);
        let metrics = Arc::clone(&metrics);
        sessions.spawn(conn, move |conn| {
            // The server's registry is the thread's for its life, so what
            // the engine records under this session lands there.
            let _scope = islands_obs::scope(&metrics);
            // Per-connection errors end that session only.
            let _ = session(conn, &shutdown, &metrics);
        })?;
    }
    // Drain: stop accepting (listener drops below), let sessions finish.
    drop(listener);
    sessions.join_all();
    Ok(())
}

/// Serve one connection of `engine` until it closes, errors fatally, or a
/// drain lands.
fn session(
    conn: Conn,
    engine: &Arc<PartitionEngine>,
    retry_limit: u32,
    shutdown: &Shutdown,
    metrics: &Metrics,
) -> io::Result<()> {
    // Whatever this connection prepared and nobody decided outlives it,
    // ownerless (see `PartitionSession`).
    let session = engine.session();
    session_loop(conn, shutdown, metrics, |req| {
        answer(&session, retry_limit, req, metrics)
    })
}

/// One connection's read–answer–flush loop, whatever `answer` does with a
/// frame. A [`Reply::Draining`] answer raises the shutdown once it is
/// flushed.
pub(crate) fn session_loop(
    mut conn: Conn,
    shutdown: &Shutdown,
    metrics: &Metrics,
    mut answer: impl FnMut(&Request) -> Reply,
) -> io::Result<()> {
    let mut reader = FrameReader::new();
    let mut batch: Vec<Request> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    conn.set_read_timeout(Some(POLL_INTERVAL))?;
    'conn: loop {
        // Gather a batch: everything already buffered, up to MAX_BATCH. A
        // wire error anywhere is fatal for the connection, but only after
        // the requests decoded before it have been executed and answered —
        // otherwise a pipelining client would hang waiting for replies the
        // server silently dropped.
        batch.clear();
        let mut pending_err: Option<crate::wire::WireError> = None;
        {
            // Frame decode is wire work (Fig. 11 "communication"); the
            // blocking/polling *waits* for bytes below stay unattributed so
            // an idle connection does not inflate the category.
            let _wire = islands_obs::enter(BreakdownCategory::Communication);
            loop {
                match reader.next_message::<Request>() {
                    Ok(Some(req)) => {
                        batch.push(req);
                        if batch.len() >= MAX_BATCH {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        pending_err = Some(e);
                        break;
                    }
                }
            }
        }

        if batch.is_empty() && pending_err.is_none() {
            // Idle: wait for more bytes. Right after a flush the wait polls
            // first, since a closed-loop client's next frame is moments
            // away; a parked read is bounded by the poll timeout.
            match reader.fill_from(&mut conn) {
                Ok(0) => return Ok(()), // client hung up
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if shutdown.raised() {
                        return Ok(()); // drained while idle
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            continue;
        }

        // Execute the batch back-to-back, then flush all replies at once.
        out.clear();
        let mut drain_after_flush = false;
        for req in &batch {
            let reply = answer(req);
            drain_after_flush |= matches!(reply, Reply::Draining);
            reply.encode_frame(&mut out);
        }
        {
            let _wire = islands_obs::enter(BreakdownCategory::Communication);
            conn.write_all(&out)?;
            conn.flush()?;
        }
        if let Some(e) = pending_err {
            // Framing is broken past this point: report and hang up.
            out.clear();
            Reply::Error {
                message: format!("protocol error: {e}"),
            }
            .encode_frame(&mut out);
            metrics.errors.inc();
            let _ = conn.write_all(&out);
            return Ok(());
        }
        if drain_after_flush {
            shutdown.raise();
            break 'conn;
        }
        if shutdown.raised() {
            // A drain landed elsewhere while this batch ran: the in-flight
            // work is answered, so this session exits even though its client
            // may still be sending.
            break 'conn;
        }
    }
    Ok(())
}

/// Answer one request frame on `session`'s partition: the whole mapping
/// from frames to engine calls and back, `metrics`' counters included. A
/// local submit retries contention within `retry_limit`; a prepare is
/// parked under `session`. A socket session calls it per decoded frame;
/// the in-process cluster's coordinator calls it directly, which is what
/// makes its function call the message. A partition commits
/// only what is local to it, so a committed submit is always
/// `Reply::Committed { distributed: false, .. }`: whether a transaction
/// was distributed is its coordinator's to report. [`Request::Drain`] is
/// only acknowledged here — stopping is up to whoever owns the connection
/// (a socket session stops on the [`Reply::Draining`] it flushes).
pub(crate) fn answer(
    session: &PartitionSession,
    retry_limit: u32,
    req: &Request,
    metrics: &Metrics,
) -> Reply {
    let engine = session.engine();
    metrics.requests.inc();
    let reply = match req {
        Request::Ping => Reply::Pong,
        Request::Drain => Reply::Draining,
        Request::Stats => Reply::Stats(Box::new(snapshot(metrics, engine))),
        Request::Submit(txn) => handle_submit(engine, &txn.to_plan(), retry_limit, metrics),
        Request::SubmitPlan(plan) => handle_submit(engine, plan, retry_limit, metrics),
        Request::Prepare(branch) => {
            handle_prepare(session, branch.gtid, &branch.req.to_plan(), metrics)
        }
        Request::PreparePlan(branch) => handle_prepare(session, branch.gtid, &branch.plan, metrics),
        Request::Decision { gtid, commit } => handle_decision(engine, *gtid, *commit, metrics),
        // Outcome resolution is the coordinator's job (it owns the decision
        // log); an instance server has no authority to answer, and presuming
        // abort here would let a misdirected query contradict a forced
        // commit.
        Request::ResolveGtid { gtid } => Reply::Error {
            message: format!(
                "gtid {gtid} resolution is answered by the coordinator, \
                 not an instance server"
            ),
        },
        Request::Audit => match engine.audit_sum() {
            Ok(sum) => Reply::AuditSum { sum },
            Err(e) => Reply::Error {
                message: e.to_string(),
            },
        },
    };
    // Malformed or unsatisfiable, whichever arm said so.
    if matches!(reply, Reply::Error { .. }) {
        metrics.errors.inc();
    }
    reply
}

/// Run one local transaction on the engine and map its outcome:
/// committed/aborted with retry counts, or the typed error's message for a
/// plan the engine can never satisfy.
fn handle_submit(
    engine: &PartitionEngine,
    plan: &PlanRequest,
    retry_limit: u32,
    metrics: &Metrics,
) -> Reply {
    let class = if plan.multisite {
        TxnClass::Multisite
    } else {
        TxnClass::Local
    };
    islands_obs::set_txn_class(class);
    let started = Instant::now();
    let reply = match engine.submit_plan_local(plan, retry_limit) {
        Ok(outcome) if outcome.committed => {
            metrics.commits.inc();
            Reply::Committed {
                distributed: outcome.distributed,
                retries: outcome.retries,
                server_micros: started.elapsed().as_micros() as u64,
            }
        }
        Ok(outcome) => {
            metrics.aborts.inc();
            Reply::Aborted {
                retries: outcome.retries,
            }
        }
        Err(e) => Reply::Error {
            message: e.to_string(),
        },
    };
    metrics.record_txn(class, started.elapsed().as_nanos() as u64);
    reply
}

/// 2PC phase 1: the engine executes the branch, forces the prepare record
/// and votes; a Yes vote leaves the branch parked in the partition's
/// in-doubt table under `session` (dependent reads and all), so this side
/// only relays the vote.
fn handle_prepare(
    session: &PartitionSession,
    gtid: u64,
    plan: &PlanRequest,
    metrics: &Metrics,
) -> Reply {
    metrics.prepares.inc();
    islands_obs::set_txn_class(TxnClass::Multisite);
    let started = Instant::now();
    let reply = match session.prepare_plan(gtid, plan) {
        Ok(vote) => Reply::Vote { gtid, vote },
        // Misrouted branch, duplicate gtid: the coordinator has a bug;
        // answer with the typed error instead of a vote.
        Err(e) => Reply::Error {
            message: e.to_string(),
        },
    };
    metrics.record_prepare(started.elapsed().as_nanos() as u64);
    reply
}

/// 2PC phase 2: apply the coordinator's decision to the in-doubt branch.
/// Abort decisions for unknown gtids are acknowledged — under presumed
/// abort the branch may already have been rolled back (or never prepared
/// here at all), and aborting nothing is the decreed outcome.
fn handle_decision(engine: &PartitionEngine, gtid: u64, commit: bool, metrics: &Metrics) -> Reply {
    metrics.decisions.inc();
    islands_obs::set_txn_class(TxnClass::Multisite);
    let started = Instant::now();
    let reply = match engine.decide(gtid, commit) {
        Ok(DecideOutcome::Applied) => {
            if commit {
                metrics.commits.inc();
            } else {
                metrics.aborts.inc();
            }
            Reply::Ack { gtid }
        }
        Ok(DecideOutcome::AbortNoop) => Reply::Ack { gtid },
        Ok(DecideOutcome::UnknownCommit) => Reply::Error {
            message: format!("commit decision for unknown gtid {gtid}"),
        },
        Ok(DecideOutcome::Failed(message)) => Reply::Error {
            message: format!("decision for gtid {gtid} failed: {message}"),
        },
        Err(e) => Reply::Error {
            message: e.to_string(),
        },
    };
    metrics.record_decision(started.elapsed().as_nanos() as u64);
    reply
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_set_stays_bounded_under_sustained_churn() {
        // Regression: a server accepting connections back-to-back used to
        // accumulate one JoinHandle per connection forever. Pushing past the
        // watermark must prune finished handles itself. The live-session
        // count the poll rule reads must come back down with them.
        let mut set = SessionSet::new();
        let (release, held) = std::sync::mpsc::channel::<()>();
        let (conn, _peer) = UnixStream::pair().expect("socket pair");
        set.spawn(Conn::new(Stream::Uds(conn)), move |_conn| {
            let _ = held.recv();
        })
        .expect("spawn held session");
        for i in 0..1_000 {
            let (conn, _peer) = UnixStream::pair().expect("socket pair");
            set.spawn(Conn::new(Stream::Uds(conn)), drop)
                .expect("spawn trivial session");
            // The session "finishes" before the next accept, as in
            // connect/close churn; wait so the prune sees it finished.
            while !set.handles.last().is_some_and(|h| h.is_finished()) {
                std::thread::yield_now();
            }
            assert!(
                set.len() <= SESSION_PRUNE_WATERMARK + 1,
                "handle list grew to {} after {} churned sessions",
                set.len(),
                i + 1,
            );
            assert_eq!(set.callers.live(), 1, "only the held session is live");
        }
        drop(release);
        let callers = Arc::clone(&set.callers);
        set.join_all();
        assert_eq!(callers.live(), 0, "every session left the count");
    }

    #[test]
    fn a_write_the_peer_cannot_take_yet_parks_instead_of_failing() {
        // A polled read leaves the socket nonblocking; a reply bigger than
        // the peer's buffer must then wait for the peer, not surface as
        // `WouldBlock` out of `write_all` and drop the connection.
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        let mut conn = Conn::new(Stream::Uds(ours));
        conn.set_nonblocking(true).expect("nonblocking");
        let sent: Vec<u8> = (0..4 << 20).map(|i: u32| (i % 251) as u8).collect();
        let reader = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let (mut theirs, mut got) = (theirs, Vec::new());
            theirs.read_to_end(&mut got).map(|_| got)
        });
        conn.write_all(&sent)
            .expect("write_all parks on a full buffer");
        assert!(!conn.nonblocking, "the full buffer switched it to blocking");
        drop(conn);
        assert!(reader.join().expect("reader").expect("read") == sent);
    }

    #[test]
    fn a_wait_denied_a_poll_slot_parks_and_its_frame_still_wakes_it() {
        // One more caller than the host has cpus: they share the budget.
        let cpus = crate::poll::host_cpus();
        let callers = Arc::new(Callers::default());
        let crowd: Vec<_> = (0..=cpus).map(|_| callers.enter()).collect();
        let (ours, mut theirs) = UnixStream::pair().expect("socket pair");
        let mut conn = Conn::new(Stream::Uds(ours));
        conn.set_caller(Arc::clone(&crowd[0]));
        let mut got = [0u8; 1];

        // The others hold every slot, so this wait parks at once and its
        // frame still lands.
        let held: Vec<_> = crowd[1..].iter().filter_map(|c| c.may_poll()).collect();
        assert_eq!(held.len(), crate::poll::budget(cpus));
        conn.write_all(b"?").expect("send");
        let peer = std::thread::spawn(move || {
            theirs.read_exact(&mut [0u8; 1])?;
            std::thread::sleep(Duration::from_millis(20));
            theirs.write_all(b"!").map(|()| theirs)
        });
        conn.read_exact(&mut got).expect("woken by its frame");
        assert_eq!(&got, b"!");
        assert!(!conn.nonblocking, "denied a slot, it never polled");
        drop(held);
        let mut theirs = peer.join().expect("peer").expect("peer io");

        // With a slot free the wait polls its window out, gives the slot
        // back and parks: nothing stays taken while the read is parked.
        conn.write_all(b"?").expect("send");
        let (started, reading) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            started.send(()).expect("signal");
            conn.read_exact(&mut got).map(|()| (got, conn))
        });
        theirs.read_exact(&mut [0u8; 1]).expect("request");
        reading.recv().expect("reader started");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(callers.polling(), 0, "a parked read holds no slot");
        theirs.write_all(b"!").expect("reply");
        let (got, conn) = reader.join().expect("reader").expect("woken by its frame");
        assert_eq!(&got, b"!");
        assert!(!conn.nonblocking, "it parked after its window");
    }

    #[test]
    fn a_drain_landing_while_the_only_session_polls_is_joined_promptly() {
        let sock = std::env::temp_dir().join(format!(
            "islands-poll-drain-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ));
        let session: Arc<SessionFn> = Arc::new(|conn, shutdown, metrics| {
            session_loop(conn, shutdown, metrics, |_| Reply::Pong)
        });
        let handle = serve(&Endpoint::Uds(sock), Arc::default(), None, session).expect("serve");
        let mut client = crate::Client::connect(handle.endpoint()).expect("connect");
        // The pong is flushed, so the session is polling for the next frame.
        client.ping().expect("ping");
        let started = Instant::now();
        handle.initiate_shutdown();
        handle.join().expect("join");
        // Scheduling slack on a loaded host.
        let bound = POLL_INTERVAL + POLL_WINDOW + Duration::from_millis(100);
        assert!(
            started.elapsed() < bound,
            "join took {:?}",
            started.elapsed()
        );
    }
}
