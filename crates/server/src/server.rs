//! The served deployment: acceptor, per-connection sessions, drain.
//!
//! [`Server::spawn_backend`] binds a Unix-domain-socket or TCP endpoint in
//! front of a [`Backend`] and returns a handle. An acceptor thread hands
//! each connection to its own session thread — the paper's shared-nothing
//! processes talk over exactly these transports, so a served [`Cluster`]
//! is the in-process deployment plus a real IPC boundary.
//!
//! A connection is one engine [`Session`]: the session thread mints it from
//! the backend's [`Engine`] when the connection opens and every Submit /
//! Prepare / Decision frame is one call on it, whatever the backend
//! (`answer` — which is also how the in-process cluster's instances answer
//! the frames their coordinator hands them by direct call). A
//! [`PlanRequest`] is the only shape that crosses that call: the batch
//! frames ([`Request::Submit`], [`Request::Prepare`]) are lowered with
//! [`TxnRequest::to_plan`](islands_workload::TxnRequest::to_plan) as they
//! arrive. When the connection ends — clean close, protocol error, drain —
//! closing the session presumes abort for every branch it prepared that
//! nobody decided: the coordinator spoke on this connection and is gone.
//!
//! Sessions **pipeline without waiting**: every complete frame already
//! buffered on the socket (up to `MAX_BATCH`) is decoded
//! into one batch, the batch runs back-to-back, and all replies are flushed
//! in a single write — one syscall amortized over whatever a pipelining
//! client shipped together. A session executes what has arrived and never
//! waits for what has not: a closed-loop client's lone request runs the
//! moment it is read. Once its replies are flushed, a session's wait for
//! the next request polls the socket briefly before it parks in a blocking
//! read, while the server's live sessions do not outnumber the host's cpus
//! (`poll.rs`); that wait never holds back a frame that has arrived.
//!
//! **Drain**: a [`Request::Drain`] (or [`ServerHandle::initiate_shutdown`])
//! raises the shared shutdown flag and connects to the server's own
//! endpoint once: the acceptor sleeps in `accept` and that connection is its
//! wake-up call. It stops accepting, sessions finish the batch in flight,
//! flush, and exit at their next poll tick, and [`ServerHandle::join`]
//! returns the final counters once every thread is gone.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_core::native::{
    DecideOutcome, Engine, EngineMode, ExecutorConfig, PartitionConfig, PartitionEngine,
    PartitionExecutor, Session,
};
use islands_obs::{BreakdownCategory, TxnClass};
use islands_storage::StorageError;
use islands_workload::PlanRequest;

use crate::cluster::Cluster;
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

/// What a server fronts: a whole in-process cluster, or one partition of a
/// multi-process shared-nothing deployment.
#[derive(Clone)]
pub enum Backend {
    /// The embeddable deployment: routing and 2PC happen inside this
    /// process, over the cluster's own partition instances; the wire carries
    /// only submissions.
    Cluster(Arc<Cluster>),
    /// One shared-nothing instance. Local submissions commit here;
    /// [`Request::Prepare`]/[`Request::Decision`] frames drive participant-
    /// side 2PC, with presumed abort when a coordinator connection dies.
    Partition(Arc<PartitionEngine>),
    /// One shared-nothing instance in **serial executor** mode: sessions
    /// take turns on the partition — each request runs on its session
    /// thread under the partition's one lock — so the local fast path runs
    /// with no lock-table acquisition.
    Executor(Arc<PartitionExecutor>),
}

impl Backend {
    /// Build and load one partition instance in `mode`: what a deployment
    /// child serves, and what the in-process cluster holds N of.
    pub fn build(mode: EngineMode, partition: PartitionConfig) -> Result<Backend, StorageError> {
        Ok(match mode {
            EngineMode::Locked => Backend::Partition(Arc::new(PartitionEngine::build(&partition)?)),
            EngineMode::Serial => {
                Backend::Executor(Arc::new(PartitionExecutor::spawn(ExecutorConfig {
                    partition,
                })?))
            }
        })
    }

    /// The engine surface behind this backend: the one place the variants
    /// are told apart.
    pub(crate) fn engine(&self) -> &dyn Engine {
        match self {
            Backend::Cluster(cluster) => &**cluster,
            Backend::Partition(engine) => &**engine,
            Backend::Executor(executor) => &**executor,
        }
    }
}

/// Monotonic counters, updated by sessions, readable any time.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    errors: AtomicU64,
    prepares: AtomicU64,
    decisions: AtomicU64,
    presumed_aborts: AtomicU64,
}

impl Counters {
    /// A session closed and rolled back `aborted` branches nobody decided.
    pub(crate) fn presumed_abort(&self, aborted: u64) {
        self.presumed_aborts.fetch_add(aborted, Ordering::Relaxed);
    }

    /// The counters, with `engine`'s parked branches as the `in_doubt`
    /// gauge (none where nothing parks branches).
    pub(crate) fn snapshot(&self, engine: Option<&dyn Engine>) -> ServerStats {
        let parked = engine.and_then(|e| e.recovered_gtids().ok());
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            prepares: self.prepares.load(Ordering::Relaxed),
            decisions: self.decisions.load(Ordering::Relaxed),
            presumed_aborts: self.presumed_aborts.load(Ordering::Relaxed),
            in_doubt: parked.map_or(0, |gtids| gtids.len() as u64),
        }
    }
}

/// Cloneable, read-only view of a running server's counters.
///
/// [`ServerHandle::join`] consumes the handle, so anything that wants to
/// keep reporting stats while another thread blocks in `join` — the
/// deployment children's `STATS` heartbeat printer, for one — mints a probe
/// first and reads through it.
#[derive(Clone)]
pub struct StatsProbe {
    counters: Arc<Counters>,
    /// What the server fronts, if it parks branches.
    backend: Option<Backend>,
}

impl StatsProbe {
    /// Current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.counters
            .snapshot(self.backend.as_ref().map(Backend::engine))
    }
}

/// Snapshot of a server's counters.
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
    /// In-doubt branches rolled back because their coordinator's connection
    /// died without a decision (the presumed-abort rule, applied live).
    pub presumed_aborts: u64,
    /// Gauge: branches currently prepared and awaiting a decision, those
    /// restart replay re-parked included. Must be zero after a clean drain
    /// — anything else is a leaked in-doubt transaction still holding
    /// locks.
    pub in_doubt: u64,
}

impl ServerStats {
    /// The counters' names, in [`slots`](Self::slots) order: the keys of the
    /// `STATS` line.
    const NAMES: [&'static str; 9] = [
        "connections",
        "requests",
        "commits",
        "aborts",
        "errors",
        "prepares",
        "decisions",
        "presumed_aborts",
        "in_doubt",
    ];

    /// Every counter, in declaration order — the one list the line format,
    /// the wire format and [`absorb`](Self::absorb) walk.
    pub(crate) fn slots(&mut self) -> [&mut u64; 9] {
        [
            &mut self.connections,
            &mut self.requests,
            &mut self.commits,
            &mut self.aborts,
            &mut self.errors,
            &mut self.prepares,
            &mut self.decisions,
            &mut self.presumed_aborts,
            &mut self.in_doubt,
        ]
    }

    /// The counters as one `STATS k=v ...` line: what an instance process
    /// prints on stdout as its heartbeat and as its last word at drain.
    pub fn to_line(mut self) -> String {
        let pairs = Self::NAMES.iter().zip(self.slots());
        pairs.fold(String::from("STATS"), |line, (name, v)| {
            format!("{line} {name}={v}")
        })
    }

    /// Parse [`to_line`](Self::to_line)'s form back; `None` for any other
    /// line. A key this build has no field for is skipped, not fatal: a
    /// newer child may print more than an older parent reads.
    pub fn from_line(line: &str) -> Option<ServerStats> {
        let mut stats = ServerStats::default();
        for pair in line.strip_prefix("STATS ")?.split_whitespace() {
            let (k, v) = pair.split_once('=')?;
            let v: u64 = v.parse().ok()?;
            if let Some(at) = Self::NAMES.iter().position(|name| *name == k) {
                *stats.slots()[at] = v;
            }
        }
        Some(stats)
    }

    /// Add another instance's counters into this one — the deployment-wide
    /// totals a scraper's `SUM` row shows (`in_doubt` is a gauge, but the
    /// sum of gauges is the deployment-wide backlog, so plain addition is
    /// the right aggregation for every field).
    pub fn absorb(&mut self, other: &ServerStats) {
        let mut other = *other;
        for (mine, theirs) in self.slots().into_iter().zip(other.slots()) {
            *mine += *theirs;
        }
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
    /// Whose wait this is, for the caller rule; `None` never polls.
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
        if self.nonblocking != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }
}

impl Read for Conn {
    /// Poll, then park: an expected frame is polled for with nonblocking
    /// reads and `yield_now` for [`POLL_WINDOW`] while the caller may poll;
    /// otherwise, or once the window runs out, one blocking read under the
    /// armed timeout.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.expecting && self.caller.as_ref().is_some_and(|c| c.may_poll()) {
            self.set_nonblocking(true)?;
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
        self.set_nonblocking(false)?;
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
    probe: StatsProbe,
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

/// Namespace for [`Server::spawn`].
pub struct Server;

impl Server {
    /// Bind `endpoint` and serve `cluster` until drained.
    pub fn spawn(
        cluster: Arc<Cluster>,
        endpoint: Endpoint,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        Self::spawn_backend(Backend::Cluster(cluster), endpoint, config)
    }

    /// Bind `endpoint` and serve `backend` until drained.
    pub fn spawn_backend(
        backend: Backend,
        endpoint: Endpoint,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let parks = Some(backend.clone());
        let session: Arc<SessionFn> = Arc::new(move |conn, shutdown, counters| {
            session(conn, &backend, config.retry_limit, shutdown, counters)
        });
        serve(&endpoint, parks, session)
    }
}

/// What [`serve`] runs on a thread per accepted connection.
pub(crate) type SessionFn = dyn Fn(Conn, &Shutdown, &Counters) -> io::Result<()> + Send + Sync;

/// Bind `endpoint` and run `session` on every accepted connection until
/// drained: the acceptor, the drain and the session bookkeeping everything
/// served here shares — an instance's [`Backend`], and the coordinator's
/// resolver, which parks nothing (`backend: None`).
pub(crate) fn serve(
    endpoint: &Endpoint,
    backend: Option<Backend>,
    session: Arc<SessionFn>,
) -> io::Result<ServerHandle> {
    let listener = Listener::bind(endpoint)?;
    let shutdown = Arc::new(Shutdown {
        raised: AtomicBool::new(false),
        endpoint: listener.local_endpoint()?,
    });
    let counters = Arc::new(Counters::default());
    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let counters = Arc::clone(&counters);
        std::thread::Builder::new()
            .name("islands-acceptor".into())
            .spawn(move || accept_loop(listener, session, shutdown, counters))?
    };
    Ok(ServerHandle {
        shutdown,
        probe: StatsProbe { counters, backend },
        acceptor: Some(acceptor),
    })
}

impl ServerHandle {
    /// The resolved endpoint (actual TCP port when bound to port 0).
    pub fn endpoint(&self) -> &Endpoint {
        &self.shutdown.endpoint
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.probe.stats()
    }

    /// Mint a [`StatsProbe`] that outlives this handle (usable while a
    /// sibling thread blocks in [`join`](Self::join)).
    pub fn probe(&self) -> StatsProbe {
        self.probe.clone()
    }

    /// Whether a drain/shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.raised()
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
    counters: Arc<Counters>,
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
        counters.connections.fetch_add(1, Ordering::Relaxed);
        let session = Arc::clone(&session);
        let shutdown = Arc::clone(&shutdown);
        let counters = Arc::clone(&counters);
        sessions.spawn(conn, move |conn| {
            // Per-connection errors end that session only.
            let _ = session(conn, &shutdown, &counters);
        })?;
    }
    // Drain: stop accepting (listener drops below), let sessions finish.
    drop(listener);
    sessions.join_all();
    Ok(())
}

/// Serve one connection of `backend` until it closes, errors fatally, or a
/// drain lands.
fn session(
    conn: Conn,
    backend: &Backend,
    retry_limit: u32,
    shutdown: &Shutdown,
    counters: &Counters,
) -> io::Result<()> {
    let engine = backend.engine();
    let mut session = engine.session(retry_limit);
    let result = session_loop(conn, shutdown, counters, |req| {
        answer(engine, &mut *session, req, counters)
    });
    // Presumed abort: whatever this connection prepared and nobody decided
    // has lost its coordinator (see `Session::close`).
    counters.presumed_abort(session.close());
    result
}

/// One connection's read–answer–flush loop, whatever `answer` does with a
/// frame. A [`Reply::Draining`] answer raises the shutdown once it is
/// flushed.
pub(crate) fn session_loop(
    mut conn: Conn,
    shutdown: &Shutdown,
    counters: &Counters,
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
            counters.errors.fetch_add(1, Ordering::Relaxed);
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

/// Answer one request frame from `session`: the whole mapping from frames to
/// engine calls and back, counters included. A socket session calls it per
/// decoded frame; the in-process cluster's coordinator calls it directly,
/// which is what makes its function call the message. [`Request::Drain`] is
/// only acknowledged here — stopping is up to whoever owns the connection
/// (a socket session stops on the [`Reply::Draining`] it flushes).
pub(crate) fn answer(
    engine: &dyn Engine,
    session: &mut dyn Session,
    req: &Request,
    counters: &Counters,
) -> Reply {
    counters.requests.fetch_add(1, Ordering::Relaxed);
    let reply = match req {
        Request::Ping => Reply::Pong,
        Request::Drain => Reply::Draining,
        Request::Stats => Reply::Stats {
            server: counters.snapshot(Some(engine)),
            obs: Box::new(islands_obs::metrics().snapshot()),
        },
        Request::Submit(txn) => handle_submit(session, &txn.to_plan(), counters),
        Request::SubmitPlan(plan) => handle_submit(session, plan, counters),
        Request::Prepare(branch) => {
            handle_prepare(session, branch.gtid, &branch.req.to_plan(), counters)
        }
        Request::PreparePlan(branch) => {
            handle_prepare(session, branch.gtid, &branch.plan, counters)
        }
        Request::Decision { gtid, commit } => handle_decision(session, *gtid, *commit, counters),
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
        counters.errors.fetch_add(1, Ordering::Relaxed);
    }
    reply
}

/// Run one local transaction through the session and map its outcome:
/// committed/aborted with retry counts, or the typed error's message for a
/// plan the engine can never satisfy.
fn handle_submit(session: &mut dyn Session, plan: &PlanRequest, counters: &Counters) -> Reply {
    let class = if plan.multisite {
        TxnClass::Multisite
    } else {
        TxnClass::Local
    };
    islands_obs::set_txn_class(class);
    let started = Instant::now();
    let reply = match session.submit(plan) {
        Ok(outcome) if outcome.committed => {
            counters.commits.fetch_add(1, Ordering::Relaxed);
            Reply::Committed {
                distributed: outcome.distributed,
                retries: outcome.retries,
                server_micros: started.elapsed().as_micros() as u64,
            }
        }
        Ok(outcome) => {
            counters.aborts.fetch_add(1, Ordering::Relaxed);
            Reply::Aborted {
                retries: outcome.retries,
            }
        }
        Err(e) => Reply::Error {
            message: e.to_string(),
        },
    };
    islands_obs::metrics().record_txn(class, started.elapsed().as_nanos() as u64);
    reply
}

/// 2PC phase 1: the session executes the branch, forces the prepare record
/// and votes; a Yes vote leaves the branch parked in the partition's
/// in-doubt table (dependent reads and all), so this side only relays the
/// vote.
fn handle_prepare(
    session: &mut dyn Session,
    gtid: u64,
    plan: &PlanRequest,
    counters: &Counters,
) -> Reply {
    counters.prepares.fetch_add(1, Ordering::Relaxed);
    islands_obs::set_txn_class(TxnClass::Multisite);
    let started = Instant::now();
    let reply = match session.prepare(gtid, plan) {
        Ok(vote) => Reply::Vote { gtid, vote },
        // Misrouted branch, duplicate gtid: the coordinator has a bug;
        // answer with the typed error instead of a vote.
        Err(e) => Reply::Error {
            message: e.to_string(),
        },
    };
    islands_obs::metrics().record_prepare(started.elapsed().as_nanos() as u64);
    reply
}

/// 2PC phase 2: apply the coordinator's decision to the in-doubt branch.
/// Abort decisions for unknown gtids are acknowledged — under presumed
/// abort the branch may already have been rolled back (or never prepared
/// here at all), and aborting nothing is the decreed outcome.
fn handle_decision(
    session: &mut dyn Session,
    gtid: u64,
    commit: bool,
    counters: &Counters,
) -> Reply {
    counters.decisions.fetch_add(1, Ordering::Relaxed);
    islands_obs::set_txn_class(TxnClass::Multisite);
    let started = Instant::now();
    let reply = match session.decide(gtid, commit) {
        Ok(DecideOutcome::Applied) => {
            if commit {
                counters.commits.fetch_add(1, Ordering::Relaxed);
            } else {
                counters.aborts.fetch_add(1, Ordering::Relaxed);
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
    islands_obs::metrics().record_decision(started.elapsed().as_nanos() as u64);
    reply
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_line_round_trips() {
        let stats = ServerStats {
            connections: 4,
            requests: 31,
            commits: 10,
            aborts: 2,
            errors: 1,
            prepares: 7,
            decisions: 6,
            presumed_aborts: 1,
            in_doubt: 3,
        };
        assert_eq!(ServerStats::from_line(&stats.to_line()), Some(stats));
        assert_eq!(ServerStats::from_line("STATS commits=nope"), None);
        assert_eq!(ServerStats::from_line("READY uds:/tmp/x.sock"), None);
        // Heartbeats from a newer child may carry keys this parent has no
        // slot for; they are skipped, not fatal.
        let tolerant = ServerStats::from_line("STATS commits=3 p99_us=412 in_doubt=1").unwrap();
        assert_eq!((tolerant.commits, tolerant.in_doubt), (3, 1));
    }

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
    fn a_drain_landing_while_the_only_session_polls_is_joined_promptly() {
        let sock = std::env::temp_dir().join(format!(
            "islands-poll-drain-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ));
        let session: Arc<SessionFn> = Arc::new(|conn, shutdown, counters| {
            session_loop(conn, shutdown, counters, |_| Reply::Pong)
        });
        let handle = serve(&Endpoint::Uds(sock), None, session).expect("serve");
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
