//! `refrint-serve`: a dependency-free HTTP simulation service.
//!
//! The rest of the workspace runs one simulation per process invocation;
//! this crate keeps a simulator resident and serves many clients from it,
//! which is where the PR 3 throughput work starts to pay off at scale. It
//! is built entirely on `std` — `TcpListener`, `sync_channel`, threads —
//! matching the workspace's offline, no-external-dependency constraint.
//! The crate is a library only: `refrint-cli serve` runs it, and its
//! command-line client, `serve-client`, lives in `refrint-cli` with the
//! other front ends.
//!
//! # API
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /run` | one simulation (builder-style params); body is byte-identical to `refrint-cli run --format json` |
//! | `POST /sweep` | an experiment sweep; body is byte-identical to `refrint-cli sweep --format json` |
//! | `GET /jobs/<id>` | job status document |
//! | `GET /jobs/<id>/result` | the job's result bytes (202 while pending) |
//! | `GET /jobs/<id>/trace` | OTLP-shaped span tree (fleet-stitched on a coordinator) |
//! | `GET /healthz` | liveness + uptime |
//! | `GET /metrics` | Prometheus text counters |
//! | `GET /backends` | coordinator mode: the backend pool and its health |
//! | `POST /backends` | coordinator mode: register a backend (`{"addr":"host:port"}`) |
//! | `POST /shutdown` | graceful shutdown (also triggered by SIGTERM) |
//!
//! # Architecture
//!
//! ```text
//!  accept loop ──► handler pool ──► bounded MPSC job queue
//!      │                 │ cache hit? ◄── result cache (canonical key)
//!      ▼                 ▼                        ▲
//!  shutdown flag    sync waiters ◄── condvar ── worker pool (simulates)
//! ```
//!
//! Every thread is named and joined at shutdown. The handler pool holds at
//! most `max_connections` threads, started only when no handler is idle
//! and reused most-recently-idle first; beyond `max_connections` open
//! connections the accept loop answers `503 over_capacity` itself. Every
//! request is validated before it is queued (typed 4xx errors, never a
//! dropped connection), the queue is bounded (`503 queue_full` beyond
//! capacity), and results are cached under a canonical key derived from
//! the validated configuration — an identical request is answered with the
//! very same bytes without simulating again.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod api;
pub mod client;
pub mod coordinator;
pub mod disk_cache;
pub mod http;
pub mod jobs;
pub mod metrics;

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use refrint_engine::json::{emit, escape, num, parse, Value};
use refrint_obs::log::{Level, LogFormat, Logger};
use refrint_obs::otlp;
use refrint_obs::span::{RequestTrace, StageSpan, TraceContext};

use crate::api::{ApiError, SubmitMode, ValidatedRequest};
use crate::client::Timeouts;
use crate::coordinator::{Coordinator, CoordinatorOptions, DispatchEnv};
use crate::http::{elapsed_nanos, HttpError, Request, Response};
use crate::jobs::{Job, JobOutput, JobStatus, JobWork, ResultStore, SharedJobs};
use crate::metrics::Metrics;

/// Points whose backend span trees are fetched and stitched into a
/// coordinator's `/jobs/<id>/trace` (bounded like the dispatch-span cap,
/// so a huge sweep cannot balloon its trace document).
const MAX_STITCHED_POINTS: usize = 64;

/// How long `GET /jobs/<id>/trace` waits for a finished job's trace. The
/// connection handler attaches it right after writing the response, so
/// the wait is normally microseconds.
const TRACE_ATTACH_WAIT: Duration = Duration::from_secs(1);

/// SIGTERM handling. On unix the handler is installed via the libc
/// `signal` symbol (already linked by `std`). glibc's `signal` sets
/// `SA_RESTART` and the signal may land on any thread, so a blocking
/// `accept` is never interrupted by it: besides raising the flag, the
/// handler writes one byte to a socket pair, and a waker thread blocked on
/// the other end self-connects to every listener in its accept loop.
/// Elsewhere the flag simply never fires and `POST /shutdown` is the only
/// trigger.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sigterm {
    use std::io::Read;
    use std::net::SocketAddr;
    use std::os::unix::io::IntoRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
    use std::sync::{Mutex, Once, PoisonError};

    static TERM: AtomicBool = AtomicBool::new(false);
    /// The write end of the waker's socket pair (never closed); -1 until
    /// installed.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);
    /// Wake addresses of the listeners currently in their accept loop.
    static LISTENERS: Mutex<Vec<SocketAddr>> = Mutex::new(Vec::new());
    static INSTALL: Once = Once::new();

    extern "C" fn on_term(_signum: i32) {
        // An atomic swap and at most one write(2), both async-signal-safe.
        // Only the first SIGTERM writes, so the write never meets a full
        // buffer (and never touches errno).
        if !TERM.swap(true, Ordering::SeqCst) {
            let fd = WAKE_FD.load(Ordering::SeqCst);
            if fd >= 0 {
                let byte = 1u8;
                // SAFETY: `fd` is the socket pair's write end, which
                // `install` leaks so it stays open for the process's
                // lifetime, and the buffer is one readable byte.
                unsafe {
                    write(fd, std::ptr::addr_of!(byte).cast(), 1);
                }
            }
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn write(fd: i32, buf: *const std::ffi::c_void, count: usize) -> isize;
    }

    pub fn install() {
        INSTALL.call_once(|| {
            const SIGTERM: i32 = 15;
            let (mut wakes, handler_end) = UnixStream::pair().expect("creating a socket pair");
            WAKE_FD.store(handler_end.into_raw_fd(), Ordering::SeqCst);
            std::thread::Builder::new()
                .name("refrint-sigterm-waker".into())
                .spawn(move || {
                    if wakes.read_exact(&mut [0u8; 1]).is_ok() {
                        let listeners = LISTENERS.lock().unwrap_or_else(PoisonError::into_inner);
                        for &addr in listeners.iter() {
                            super::wake(addr);
                        }
                    }
                })
                .expect("spawning the SIGTERM waker thread succeeds");
            // SAFETY: `on_term` is an `extern "C" fn(i32)` that only does
            // async-signal-safe work, and `WAKE_FD` is set before it can
            // run.
            unsafe {
                signal(SIGTERM, on_term);
            }
        });
    }

    pub fn requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }

    /// Registers a listener about to block in `accept`. Registration comes
    /// before the loop's first flag check, so a SIGTERM either is seen by
    /// that check or finds the listener here.
    pub fn register(addr: SocketAddr) {
        LISTENERS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(addr);
    }

    pub fn unregister(addr: SocketAddr) {
        let mut listeners = LISTENERS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = listeners.iter().position(|&a| a == addr) {
            listeners.swap_remove(i);
        }
    }
}

#[cfg(not(unix))]
mod sigterm {
    use std::net::SocketAddr;

    pub fn install() {}

    pub fn requested() -> bool {
        false
    }

    pub fn register(_addr: SocketAddr) {}

    pub fn unregister(_addr: SocketAddr) {}
}

/// Installs the SIGTERM handler so a terminated server drains its queue
/// and exits cleanly. A no-op on non-unix platforms. Idempotent.
pub fn install_sigterm_handler() {
    sigterm::install();
}

/// How long a synchronous request waits for its job before returning
/// `503 timeout` (the job keeps running; poll `/jobs/<id>`).
const REQUEST_DEADLINE: Duration = Duration::from_secs(120);

/// Completed jobs retained for `/jobs/<id>` polling.
const RETAINED_JOBS: usize = 256;

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Simulation worker threads (the pool size).
    pub workers: usize,
    /// Bound of the job queue; submissions beyond it get `503 queue_full`.
    pub queue_capacity: usize,
    /// Results retained in the LRU cache.
    pub cache_capacity: usize,
    /// Hard limit on request body size (bytes).
    pub max_body_bytes: usize,
    /// Socket read timeout (slowloris guard).
    pub read_timeout: Duration,
    /// Concurrent connections beyond this are answered `503` immediately
    /// by the accept thread; also the cap of the connection handler pool.
    pub max_connections: usize,
    /// Directory trace workloads are served from (`"trace": "name.rft"`).
    pub trace_dir: Option<PathBuf>,
    /// Structured-log line format (stderr).
    pub log_format: LogFormat,
    /// Minimum level logged. The library default is [`Level::Error`]
    /// (quiet); the CLI raises it from `REFRINT_LOG`.
    pub log_level: Level,
    /// Coordinator mode: instead of simulating locally, split jobs into
    /// point-level `POST /run` requests and dispatch them to this pool of
    /// backend servers (see [`coordinator`]).
    pub coordinator: Option<CoordinatorOptions>,
    /// Directory of the persistent result cache; `None` disables it.
    pub disk_cache_dir: Option<PathBuf>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism().map_or(2, usize::from);
        ServerOptions {
            workers: parallelism.clamp(1, 4),
            queue_capacity: 64,
            cache_capacity: 128,
            max_body_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(10),
            max_connections: 64,
            trace_dir: None,
            log_format: LogFormat::Text,
            log_level: Level::Error,
            coordinator: None,
            disk_cache_dir: None,
        }
    }
}

/// A submitted job's work item, enqueue instant and inbound trace
/// context, held in the work map until a worker claims it.
type PendingWork = (JobWork, Instant, Option<TraceContext>);

/// Shared state of a running server.
#[derive(Debug)]
struct ServerState {
    options: ServerOptions,
    jobs: SharedJobs,
    work: Mutex<HashMap<String, PendingWork>>,
    store: ResultStore,
    metrics: Metrics,
    logger: Logger,
    queue: Mutex<Option<SyncSender<String>>>,
    shutdown: AtomicBool,
    /// Where a self-connect reaches the listener (see [`wake`]).
    wake_addr: SocketAddr,
    /// Connections admitted and not yet answered (at most
    /// `max_connections`); the drain waits on `connections_closed` for it
    /// to reach zero.
    active_connections: Mutex<usize>,
    connections_closed: Condvar,
    /// The threads that serve admitted connections.
    handlers: Mutex<HandlerPool>,
    next_job: AtomicU64,
    coordinator: Option<Coordinator>,
}

impl ServerState {
    fn next_job_id(&self) -> String {
        format!("j{:08x}", self.next_job.fetch_add(1, Ordering::Relaxed))
    }

    /// Raises the shutdown flag and wakes the accept loop (once).
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            wake(self.wake_addr);
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || sigterm::requested()
    }
}

/// A connection slot: decrements the active-connection count when the
/// handler releases it or exits, even by panic, and signals the drain.
struct ConnectionGuard(Arc<ServerState>);

impl ConnectionGuard {
    /// Takes a slot for a new connection, or `None` when
    /// `max_connections` are already taken.
    fn admit(state: &Arc<ServerState>) -> Option<ConnectionGuard> {
        let mut active = state
            .active_connections
            .lock()
            .expect("connection count lock");
        if *active >= state.options.max_connections {
            return None;
        }
        *active += 1;
        Some(ConnectionGuard(Arc::clone(state)))
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        *self
            .0
            .active_connections
            .lock()
            .expect("connection count lock") -= 1;
        self.0.connections_closed.notify_all();
    }
}

/// An admitted connection on its way to a handler: the socket (shared so
/// the drain can shut it down under a blocked read), the instant `accept`
/// returned it, where its `accept` stage starts, and its slot.
struct Accepted {
    stream: Arc<TcpStream>,
    at: Instant,
    slot: ConnectionGuard,
}

/// The connection handlers: at most `max_connections` named threads
/// (`refrint-conn-<i>`), started one at a time, and only when a connection
/// finds no handler idle and every handler holding an unanswered one. The
/// handler that went idle most recently gets the next connection, so a
/// light load keeps reusing as many threads (and stacks) as it has
/// requests in flight, however large the cap. A connection that finds a
/// handler still finishing a connection it has already answered waits in
/// `waiting`, and a finished handler takes the oldest waiting connection
/// first.
#[derive(Default)]
struct HandlerPool {
    handlers: Vec<Handler>,
    /// Indices of idle handlers, the most recently idle last.
    idle: Vec<usize>,
    waiting: VecDeque<Accepted>,
    /// Set by the drain; a handler that sees it exits.
    closed: bool,
}

/// One handler thread as the pool sees it.
struct Handler {
    thread: Option<JoinHandle<()>>,
    /// Wakes this handler, idle, when `next` is filled or the pool closes.
    /// Waited on with the pool's lock.
    wake: Arc<Condvar>,
    /// The connection handed to this handler while it was idle.
    next: Option<Accepted>,
    /// The socket being served, for the drain to shut down.
    serving: Option<Arc<TcpStream>>,
}

impl std::fmt::Debug for HandlerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandlerPool")
            .field("handlers", &self.handlers.len())
            .finish_non_exhaustive()
    }
}

/// Hands an admitted connection to the most recently idle handler, else to
/// a new handler while admitted connections outnumber handlers, else to the
/// waiting queue. Only the accept thread calls this, so only it starts
/// handlers.
fn dispatch(state: &Arc<ServerState>, conn: Accepted) {
    let mut pool = state.handlers.lock().expect("handler pool lock");
    if let Some(i) = pool.idle.pop() {
        let handler = &mut pool.handlers[i];
        handler.next = Some(conn);
        handler.wake.notify_one();
        return;
    }
    // With no handler idle and at least as many handlers as admitted
    // connections, some handler has answered and freed its slot, and
    // takes the oldest waiting connection next. Admission caps the count
    // at `max_connections`, and with it the pool.
    let admitted = *state
        .active_connections
        .lock()
        .expect("connection count lock");
    if pool.handlers.len() >= admitted {
        pool.waiting.push_back(conn);
        return;
    }
    let i = pool.handlers.len();
    let wake = Arc::new(Condvar::new());
    let serving = Some(Arc::clone(&conn.stream));
    let thread = {
        let state = Arc::clone(state);
        let wake = Arc::clone(&wake);
        std::thread::Builder::new()
            .name(format!("refrint-conn-{i}"))
            .spawn(move || handler_loop(&state, i, &wake, conn))
            .expect("spawning a connection handler succeeds")
    };
    pool.handlers.push(Handler {
        thread: Some(thread),
        wake,
        next: None,
        serving,
    });
}

/// Handler `i`: serves `conn`, then the oldest waiting connection, or goes
/// idle until [`dispatch`] hands it one; exits once the pool is closed. A
/// panic ends its request, not the handler, so the pool keeps its size.
fn handler_loop(state: &Arc<ServerState>, i: usize, wake: &Condvar, mut conn: Accepted) {
    loop {
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| handle_connection(state, conn)));
        let mut pool = state.handlers.lock().expect("handler pool lock");
        pool.handlers[i].serving = None;
        conn = match pool.waiting.pop_front() {
            Some(waiting) if !pool.closed => waiting,
            _ => {
                pool.idle.push(i);
                loop {
                    if pool.closed {
                        return;
                    }
                    if let Some(next) = pool.handlers[i].next.take() {
                        break next;
                    }
                    pool = wake.wait(pool).expect("handler pool lock");
                }
            }
        };
        pool.handlers[i].serving = Some(Arc::clone(&conn.stream));
    }
}

impl HandlerPool {
    /// Closes the pool and returns every handler thread for the drain to
    /// join. Sockets still being served are shut down, which ends a
    /// handler's blocked read at once instead of after `read_timeout`;
    /// connections no handler took are dropped.
    fn close(&mut self) -> Vec<JoinHandle<()>> {
        self.closed = true;
        self.waiting.clear();
        self.handlers
            .iter_mut()
            .filter_map(|handler| {
                handler.next = None;
                if let Some(stream) = &handler.serving {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
                handler.wake.notify_one();
                handler.thread.take()
            })
            .collect()
    }
}

/// How long a refused socket may stay open for its client to read the
/// `503` and close first; the handlers' post-response drain allows the
/// same.
const REFUSED_LINGER: Duration = Duration::from_millis(500);

/// Answers a connection beyond `max_connections` with `503 over_capacity`
/// on the accept thread, and never blocks there: the socket is made
/// non-blocking, and the response fits its empty send buffer. The socket
/// is then kept in `refused` instead of being closed (see [`reap`]).
fn refuse(
    state: &ServerState,
    stream: TcpStream,
    at: Instant,
    refused: &mut Vec<(TcpStream, Instant)>,
) {
    state.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
    state.metrics.http_errors.fetch_add(1, Ordering::Relaxed);
    let response: Response = ApiError::new(
        503,
        "over_capacity",
        format!(
            "more than {} concurrent connections; retry shortly",
            state.options.max_connections
        ),
    )
    .into();
    let _ = stream.set_nonblocking(true);
    response.write(&stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    state
        .metrics
        .record_request_micros(elapsed_nanos(at) / 1_000);
    state.logger.info("over_capacity", &[]);
    if refused.len() >= state.options.max_connections.max(1) {
        refused.remove(0);
    }
    refused.push((stream, at));
}

/// Closes the refused sockets whose clients have closed, or that have
/// lingered past [`REFUSED_LINGER`], without blocking. Their request bytes
/// are read and discarded first: closing a socket with unread bytes sends
/// an RST, which can destroy the `503` before the client reads it.
fn reap(refused: &mut Vec<(TcpStream, Instant)>) {
    refused.retain(|(stream, at)| at.elapsed() < REFUSED_LINGER && !peer_closed(stream));
}

/// Whether the peer has closed `stream` (non-blocking), reading and
/// discarding a bounded amount of what it sent.
fn peer_closed(mut stream: &TcpStream) -> bool {
    let mut sink = [0u8; 8 * 1024];
    for _ in 0..8 {
        match stream.read(&mut sink) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
    false
}

/// Where a self-connect reaches a listener bound to `bound`: the same
/// address, with an unspecified IP (`0.0.0.0`, `[::]`) replaced by
/// loopback of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// Unblocks an accept loop by connecting to it: the loop rechecks the
/// shutdown flags after every `accept` and drops this connection.
/// Best-effort: a listener that is already closed needs no wake.
fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// The simulation service: a bound listener plus its worker pool.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and starts the worker pool (the accept loop starts
    /// with [`Server::run`] or [`Server::spawn`]). Pass port 0 for an
    /// ephemeral port, then read it back with [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// Any socket error from binding.
    pub fn bind(addr: impl ToSocketAddrs, options: ServerOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let wake_addr = wake_addr(listener.local_addr()?);
        let (tx, rx) = std::sync::mpsc::sync_channel::<String>(options.queue_capacity.max(1));
        let worker_count = options.workers.max(1);
        let store = ResultStore::open(
            options.cache_capacity,
            options.disk_cache_dir.as_deref(),
            Logger::to_stderr(options.log_level, options.log_format),
        )?;
        let coordinator = options
            .coordinator
            .clone()
            .map(|opts| Coordinator::new(opts, options.log_level, options.log_format))
            .transpose()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.reason))?;
        let state = Arc::new(ServerState {
            jobs: SharedJobs::new(RETAINED_JOBS),
            work: Mutex::new(HashMap::new()),
            store,
            metrics: Metrics::new(),
            logger: Logger::to_stderr(options.log_level, options.log_format),
            queue: Mutex::new(Some(tx)),
            shutdown: AtomicBool::new(false),
            wake_addr,
            active_connections: Mutex::new(0),
            connections_closed: Condvar::new(),
            handlers: Mutex::new(HandlerPool::default()),
            next_job: AtomicU64::new(1),
            coordinator,
            options,
        });
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..worker_count)
            .map(|i| {
                let state = Arc::clone(&state);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("refrint-worker-{i}"))
                    .spawn(move || worker_loop(&state, &rx))
                    .expect("spawning a worker thread succeeds")
            })
            .collect();
        Ok(Server {
            listener,
            state,
            workers,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Any socket error from reading the local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `POST /shutdown` or SIGTERM, then drains: queued jobs
    /// finish, workers join, in-flight connections get a grace period, and
    /// every connection handler joins.
    ///
    /// # Errors
    ///
    /// Any socket error from the accept loop, returned after the drain.
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            state,
            workers,
        } = self;
        sigterm::register(state.wake_addr);
        let accepted = accept_loop(&listener, &state);
        sigterm::unregister(state.wake_addr);

        // Graceful drain, also after an accept error. Close the listener
        // first so clients connecting mid-drain are refused immediately
        // instead of handshaking into a backlog nobody will ever read.
        // Then close the queue (workers finish what is queued and exit),
        // join the workers, give in-flight connections a moment to write
        // their responses, and close and join the handler pool.
        state.logger.info("drain_start", &[]);
        drop(listener);
        state.queue.lock().expect("queue lock").take();
        for worker in workers {
            let _ = worker.join();
        }
        let active = state
            .active_connections
            .lock()
            .expect("connection count lock");
        let _ = state
            .connections_closed
            .wait_timeout_while(active, Duration::from_secs(5), |n| *n > 0)
            .expect("connection count lock");
        let handlers = state.handlers.lock().expect("handler pool lock").close();
        for handler in handlers {
            let _ = handler.join();
        }
        state.logger.info("drain_done", &[]);
        accepted
    }

    /// Runs the server on a background thread; the returned handle stops
    /// it. Intended for tests and embedding.
    ///
    /// # Errors
    ///
    /// Any socket error from reading the local address.
    pub fn spawn(self) -> io::Result<RunningServer> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let thread = std::thread::Builder::new()
            .name("refrint-serve-accept".into())
            .spawn(move || self.run())
            .expect("spawning the accept thread succeeds");
        Ok(RunningServer {
            addr,
            state,
            thread: Some(thread),
        })
    }
}

/// Accepts connections until a shutdown is requested, handing each to the
/// handler pool ([`dispatch`]); beyond `max_connections` it answers
/// `503 over_capacity` itself ([`refuse`]) and starts no thread. `accept`
/// blocks; [`ServerState::request_shutdown`] and the SIGTERM waker unblock
/// it with a self-connect, which is dropped here.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) -> io::Result<()> {
    let mut refused = Vec::new();
    while !state.shutting_down() {
        match listener.accept() {
            Ok(_) if state.shutting_down() => break,
            Ok((stream, _peer)) => {
                let at = Instant::now();
                match ConnectionGuard::admit(state) {
                    Some(slot) => dispatch(
                        state,
                        Accepted {
                            stream: Arc::new(stream),
                            at,
                            slot,
                        },
                    ),
                    None => refuse(state, stream, at, &mut refused),
                }
                reap(&mut refused);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Handle to a [`Server`] running on a background thread.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl RunningServer {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the drain to complete.
    pub fn shutdown(mut self) {
        self.state.request_shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.state.request_shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn worker_loop(state: &Arc<ServerState>, rx: &Arc<Mutex<Receiver<String>>>) {
    loop {
        let id = {
            let rx = rx.lock().expect("worker queue lock");
            match rx.recv() {
                Ok(id) => id,
                Err(_) => return, // queue closed: drain complete
            }
        };
        state.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        state
            .jobs
            .table
            .lock()
            .expect("job table lock")
            .set_status(&id, JobStatus::Running);
        let entry = state.work.lock().expect("work map lock").remove(&id);
        let Some((work, enqueued_at, trace, cache_key)) = entry.map(|(w, at, t)| {
            let key = state
                .jobs
                .table
                .lock()
                .expect("job table lock")
                .get(&id)
                .map(|j| j.cache_key.clone())
                .unwrap_or_default();
            (w, at, t, key)
        }) else {
            continue;
        };
        let queue_nanos = elapsed_nanos(enqueued_at);
        state.logger.debug(
            "job_claimed",
            &[
                ("job", id.clone()),
                ("kind", work.kind().to_owned()),
                ("queue_ms", format!("{:.3}", queue_nanos as f64 / 1e6)),
            ],
        );
        state.metrics.workers_busy.fetch_add(1, Ordering::Relaxed);
        let execute_started = Instant::now();
        let mut output = match &state.coordinator {
            Some(coordinator) => coordinator.execute(
                &work,
                &DispatchEnv {
                    store: &state.store,
                    trace: trace.as_ref(),
                },
            ),
            None => jobs::execute(&work),
        };
        output.queue_nanos = queue_nanos;
        output.execute_nanos = elapsed_nanos(execute_started);
        state.metrics.workers_busy.fetch_sub(1, Ordering::Relaxed);
        let ok = output.status == 200;
        state.metrics.record_job(
            ok,
            output.refs,
            output.sim_seconds,
            &output.subsystem_cycles,
        );
        // The queue_wait/execute stage histograms are fed here, from the
        // worker, so sync and async submissions are counted exactly once.
        state
            .metrics
            .record_stage_micros("queue_wait", queue_nanos / 1_000);
        state
            .metrics
            .record_stage_micros("execute", output.execute_nanos / 1_000);
        state.logger.info(
            "job_done",
            &[
                ("job", id.clone()),
                ("kind", work.kind().to_owned()),
                ("status", output.status.to_string()),
                (
                    "execute_ms",
                    format!("{:.3}", output.execute_nanos as f64 / 1e6),
                ),
            ],
        );
        if ok && !cache_key.is_empty() {
            state.store.put(&cache_key, Arc::clone(&output.body));
        }
        state.jobs.finish(&id, output);
    }
}

/// Per-request tracing state threaded through routing: the trace context
/// (inbound `traceparent` or minted from the canonical cache key), the
/// lifecycle stages recorded so far on a contiguous nanosecond timeline,
/// and the job the request resolved to, if any.
#[derive(Debug, Default)]
struct RequestCtx {
    trace: Option<TraceContext>,
    stages: Vec<StageSpan>,
    cursor: u64,
    job_id: Option<String>,
    cache: Option<&'static str>,
}

impl RequestCtx {
    /// Appends a stage of `dur_nanos` at the current cursor.
    fn stage(&mut self, name: &'static str, dur_nanos: u64) {
        self.stages.push(StageSpan {
            name,
            start_nanos: self.cursor,
            dur_nanos,
        });
        self.cursor += dur_nanos;
    }
}

fn handle_connection(state: &Arc<ServerState>, conn: Accepted) {
    let Accepted {
        stream,
        at: started,
        slot,
    } = conn;
    let mut ctx = RequestCtx::default();
    ctx.stage("accept", elapsed_nanos(started));
    let _ = stream.set_read_timeout(Some(state.options.read_timeout));
    let _ = stream.set_write_timeout(Some(state.options.read_timeout));
    state.metrics.http_requests.fetch_add(1, Ordering::Relaxed);

    let mut method = "-".to_owned();
    let mut path = "-".to_owned();
    // Set when the request is rejected while the client may still be
    // sending it; an incomplete one has ended in EOF or a read timeout.
    let mut cut_short = false;
    let response = match http::read_request(&stream, state.options.max_body_bytes) {
        Ok(request) => {
            method.clone_from(&request.method);
            path.clone_from(&request.path);
            ctx.stage("parse", request.head_nanos);
            ctx.stage("read_body", request.body_nanos);
            ctx.trace = request
                .header("traceparent")
                .and_then(TraceContext::parse_traceparent);
            route(state, &request, &mut ctx)
        }
        Err(e) => {
            cut_short = !matches!(e, HttpError::Incomplete(_));
            error_response(&e)
        }
    };
    if response.status >= 400 {
        state.metrics.http_errors.fetch_add(1, Ordering::Relaxed);
    }
    let write_started = Instant::now();
    response.write(&stream);
    ctx.stage("write", elapsed_nanos(write_started));
    // Latency includes routing and (for sync submissions) the simulation
    // itself — the duration a client actually experienced.
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    state.metrics.record_request_micros(micros);
    for stage in &ctx.stages {
        state
            .metrics
            .record_stage_micros(stage.name, stage.dur_nanos / 1_000);
    }
    let total_nanos = elapsed_nanos(started);
    let trace_id = ctx
        .trace
        .as_ref()
        .map_or_else(|| "-".to_owned(), |t| t.trace_id.clone());
    if let (Some(context), Some(job_id)) = (ctx.trace, ctx.job_id.as_ref()) {
        // Attached after the response is written so the trace includes the
        // `write` stage; `/jobs/<id>/trace` answers 202 until then.
        state.jobs.set_trace(
            job_id,
            RequestTrace {
                context,
                stages: ctx.stages,
                total_nanos,
            },
        );
    }
    if state.logger.enabled(Level::Info) {
        state.logger.info(
            "request",
            &[
                ("method", method),
                ("path", path),
                ("status", response.status.to_string()),
                ("duration_ms", format!("{:.3}", total_nanos as f64 / 1e6)),
                ("trace_id", trace_id),
                ("job", ctx.job_id.unwrap_or_else(|| "-".to_owned())),
                ("cache", ctx.cache.unwrap_or("-").to_owned()),
            ],
        );
    }
    // Signal end-of-response. The slot is freed first: a client reconnects
    // as soon as it sees the end of the response, and must not find its
    // old connection still counted.
    drop(slot);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Dropping a socket with request bytes still unread (e.g. an over-limit
    // body rejected before it was read) can RST the connection and destroy
    // the response we just wrote before the peer reads it. A client that
    // has stopped sending, with nothing left unread, is closed at once,
    // which frees the handler for the next connection; otherwise discard
    // briefly and boundedly.
    if !cut_short && nothing_unread(&stream) {
        return;
    }
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 8 * 1024];
    let mut drained = 0usize;
    while let Ok(n) = (&*stream).read(&mut sink) {
        if n == 0 {
            break;
        }
        drained += n;
        if drained > 4 * 1024 * 1024 {
            break;
        }
    }
}

/// Whether `stream` has nothing to read right now, or its peer has closed
/// it. Leaves the socket non-blocking.
fn nothing_unread(mut stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    match stream.read(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => e.kind() == io::ErrorKind::WouldBlock,
    }
}

fn error_response(e: &HttpError) -> Response {
    Response::json(
        e.status(),
        ApiError::new(e.status(), e.kind(), e.reason()).body(),
    )
}

impl From<ApiError> for Response {
    fn from(e: ApiError) -> Self {
        Response::json(e.status, e.body())
    }
}

fn route(state: &Arc<ServerState>, request: &Request, ctx: &mut RequestCtx) -> Response {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match path {
        "/healthz" => match method {
            "GET" => Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"uptime_seconds\":{}}}\n",
                    num(state.metrics.uptime_seconds())
                ),
            ),
            _ => method_not_allowed("GET"),
        },
        "/metrics" => match method {
            "GET" => {
                let mut doc = state.metrics.render(&state.store.disk_counters);
                if let Some(coordinator) = &state.coordinator {
                    doc.push_str(&coordinator.render_metrics());
                }
                Response::text(200, doc)
            }
            _ => method_not_allowed("GET"),
        },
        "/backends" => backends_endpoint(state, method, &request.body),
        "/shutdown" => match method {
            "POST" => {
                state.request_shutdown();
                Response::json(200, "{\"status\":\"shutting_down\"}\n".to_owned())
            }
            _ => method_not_allowed("POST"),
        },
        "/run" | "/sweep" => match method {
            "POST" => submit_endpoint(state, path, &request.body, ctx),
            _ => method_not_allowed("POST"),
        },
        _ if path.starts_with("/jobs/") => match method {
            "GET" => jobs_endpoint(state, path),
            _ => method_not_allowed("GET"),
        },
        other => ApiError::new(404, "not_found", format!("no such endpoint `{other}`")).into(),
    }
}

fn backends_endpoint(state: &Arc<ServerState>, method: &str, body: &[u8]) -> Response {
    let Some(coordinator) = &state.coordinator else {
        return ApiError::new(
            404,
            "not_found",
            "this server is not a coordinator; start it with --coordinator",
        )
        .into();
    };
    match method {
        "GET" => Response::json(200, coordinator.backends_doc()),
        "POST" => {
            let parsed = std::str::from_utf8(body)
                .ok()
                .and_then(|text| refrint_engine::json::parse(text).ok());
            let Some(addr) = parsed
                .as_ref()
                .and_then(|root| root.get("addr"))
                .and_then(|v| v.as_str().map(str::to_owned))
            else {
                return ApiError::new(
                    400,
                    "bad_json",
                    "expected a JSON body like {\"addr\":\"host:port\"}",
                )
                .into();
            };
            match coordinator.register(&addr, true) {
                Ok(resolved) => Response::json(
                    200,
                    format!("{{\"status\":\"registered\",\"addr\":\"{resolved}\"}}\n"),
                ),
                Err(e) => e.into(),
            }
        }
        _ => method_not_allowed("GET, POST"),
    }
}

fn method_not_allowed(allowed: &str) -> Response {
    Response::from(ApiError::new(
        405,
        "method_not_allowed",
        format!("this endpoint only accepts {allowed}"),
    ))
    .with_header("Allow", allowed)
}

fn submit_endpoint(
    state: &Arc<ServerState>,
    path: &str,
    body: &[u8],
    ctx: &mut RequestCtx,
) -> Response {
    let validate_started = Instant::now();
    let parsed = (|| {
        let Ok(text) = std::str::from_utf8(body) else {
            return Err(ApiError::new(400, "bad_json", "request body is not UTF-8"));
        };
        let root = refrint_engine::json::parse(text)
            .map_err(|e| ApiError::new(400, "bad_json", e.to_string()))?;
        let trace_dir = state.options.trace_dir.as_deref();
        match path {
            "/run" => api::parse_run_request(&root, trace_dir),
            _ => api::parse_sweep_request(&root, trace_dir),
        }
    })();
    ctx.stage("validate", elapsed_nanos(validate_started));
    match parsed {
        Ok(request) => submit(state, request, ctx),
        Err(e) => e.into(),
    }
}

fn submit(state: &Arc<ServerState>, request: ValidatedRequest, ctx: &mut RequestCtx) -> Response {
    let ValidatedRequest {
        work,
        cache_key,
        mode,
    } = request;

    // A request that arrived without (a valid) `traceparent` gets a trace
    // id minted deterministically from the canonical cache key — which
    // carries the seed — so identical requests are identically traceable.
    if ctx.trace.is_none() {
        ctx.trace = Some(TraceContext::mint(&cache_key));
    }

    // Cache first: identical requests are answered with the same bytes.
    let lookup_started = Instant::now();
    let cached = state.store.get(&cache_key);
    ctx.stage("cache_lookup", elapsed_nanos(lookup_started));
    if let Some(body) = cached {
        state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        ctx.cache = Some("hit");
        // Register an already-finished job for hits in both modes, so
        // `/jobs/<id>` polling and `/jobs/<id>/trace` work uniformly
        // across hits and misses. Not counted as a submission: no worker
        // ever ran.
        let id = state.next_job_id();
        let job = Job {
            id: id.clone(),
            kind: work.kind(),
            cache_key,
            status: JobStatus::Done,
            output: Some(JobOutput::from_bytes(200, body.clone())),
            cached: true,
            trace: None,
        };
        let doc = job.status_doc();
        state.jobs.table.lock().expect("job table lock").insert(job);
        ctx.job_id = Some(id.clone());
        return match mode {
            SubmitMode::Sync => Response::json(200, body.as_ref().clone())
                .with_header("X-Refrint-Cache", "hit")
                .with_header("X-Refrint-Job", id),
            SubmitMode::Async => Response::json(202, doc)
                .with_header("X-Refrint-Cache", "hit")
                .with_header("X-Refrint-Job", id),
        };
    }
    state.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    ctx.cache = Some("miss");

    if state.shutting_down() {
        return ApiError::new(
            503,
            "shutting_down",
            "the server is draining; retry elsewhere",
        )
        .into();
    }

    // Register the job, then enqueue its id through the bounded queue.
    let id = state.next_job_id();
    let job = Job {
        id: id.clone(),
        kind: work.kind(),
        cache_key,
        status: JobStatus::Queued,
        output: None,
        cached: false,
        trace: None,
    };
    let doc = job.status_doc();
    state.jobs.table.lock().expect("job table lock").insert(job);
    state
        .work
        .lock()
        .expect("work map lock")
        .insert(id.clone(), (work, Instant::now(), ctx.trace.clone()));

    let sender = state.queue.lock().expect("queue lock").clone();
    // The gauge goes up before the send so a worker that claims the job
    // immediately never decrements past zero.
    state.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
    let enqueued = match sender {
        Some(tx) => tx.try_send(id.clone()),
        None => Err(TrySendError::Disconnected(id.clone())),
    };
    if let Err(e) = enqueued {
        state.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        state.jobs.table.lock().expect("job table lock").remove(&id);
        state.work.lock().expect("work map lock").remove(&id);
        return match e {
            TrySendError::Full(_) => ApiError::new(
                503,
                "queue_full",
                format!(
                    "the job queue is at its {}-job capacity; retry shortly",
                    state.options.queue_capacity
                ),
            )
            .into(),
            TrySendError::Disconnected(_) => ApiError::new(
                503,
                "shutting_down",
                "the server is draining; retry elsewhere",
            )
            .into(),
        };
    }
    state.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    ctx.job_id = Some(id.clone());

    match mode {
        SubmitMode::Async => Response::json(202, doc)
            .with_header("X-Refrint-Cache", "miss")
            .with_header("X-Refrint-Job", id),
        SubmitMode::Sync => match state.jobs.wait_for(&id, REQUEST_DEADLINE) {
            Some(output) => Response::json(output.status, output.body.as_ref().clone())
                .with_header("X-Refrint-Cache", "miss")
                .with_header("X-Refrint-Job", id),
            None => ApiError::new(
                503,
                "timeout",
                format!(
                    "job {id} did not finish within {}s; poll GET /jobs/{id}",
                    REQUEST_DEADLINE.as_secs()
                ),
            )
            .into(),
        },
    }
}

enum JobView {
    Status,
    Result,
    Trace,
}

fn jobs_endpoint(state: &Arc<ServerState>, path: &str) -> Response {
    let rest = &path["/jobs/".len()..];
    let (id, view) = if let Some(id) = rest.strip_suffix("/result") {
        (id, JobView::Result)
    } else if let Some(id) = rest.strip_suffix("/trace") {
        (id, JobView::Trace)
    } else {
        (rest, JobView::Status)
    };
    let job = match view {
        JobView::Trace => state.jobs.traced(id, TRACE_ATTACH_WAIT),
        _ => state
            .jobs
            .table
            .lock()
            .expect("job table lock")
            .get(id)
            .cloned(),
    };
    let Some(job) = job else {
        return ApiError::new(404, "not_found", format!("no job `{}`", escape(id))).into();
    };
    match view {
        JobView::Result => match &job.output {
            Some(output) => Response::json(output.status, output.body.as_ref().clone())
                .with_header("X-Refrint-Cache", if job.cached { "hit" } else { "miss" }),
            None => Response::json(202, job.status_doc()),
        },
        JobView::Trace => trace_response(&job),
        JobView::Status => Response::json(200, job.status_doc()),
    }
}

/// Builds the OTLP-shaped `/jobs/<id>/trace` document for a finished,
/// trace-carrying job. 202 (the status document) while the job is still
/// queued or running, or if its trace was not attached within
/// [`TRACE_ATTACH_WAIT`].
fn trace_response(job: &Job) -> Response {
    let Some(trace) = &job.trace else {
        return Response::json(202, job.status_doc());
    };
    let mut trace = trace.clone();
    // The worker's queue-wait/execute timings live in the job output, not
    // in the connection handler's stage record (for async submissions they
    // happen long after the response was written). Splice them in here.
    if !job.cached {
        if let Some(output) = &job.output {
            for (name, dur) in [
                ("queue_wait", output.queue_nanos),
                ("execute", output.execute_nanos),
            ] {
                if !trace.has_stage(name) {
                    let start_nanos = trace.last_stage_end();
                    trace.stages.push(StageSpan {
                        name,
                        start_nanos,
                        dur_nanos: dur,
                    });
                }
            }
        }
    }
    let extra = [
        ("refrint.job".to_owned(), job.id.clone()),
        ("refrint.job_kind".to_owned(), job.kind.to_owned()),
        ("refrint.job_cached".to_owned(), job.cached.to_string()),
        (
            "refrint.job_status".to_owned(),
            job.status.label().to_owned(),
        ),
    ];
    let output = job.output.as_ref().filter(|_| !job.cached);
    let sim = output.and_then(|o| {
        o.obs
            .as_ref()
            .map(|obs| (obs.as_ref(), o.config_label.as_str(), o.workload.as_str()))
    });
    let dispatch = job
        .output
        .as_ref()
        .map_or(&[] as &[_], |o| o.dispatch.as_slice());
    let points = job
        .output
        .as_ref()
        .map_or(&[] as &[_], |o| o.points.as_slice());
    let mut body = if points.is_empty() {
        emit(&otlp::request_document(&trace, &extra, sim, dispatch))
    } else {
        // A fanned-out job: fetch each point's span tree from the backend
        // that ran it and stitch the subtrees under deterministic per-point
        // anchor spans.
        let subtrees = collect_subtrees(points);
        emit(&otlp::fleet_request_document(
            &trace, &extra, dispatch, &subtrees,
        ))
    };
    body.push('\n');
    Response::json(200, body)
}

/// Fetches each dispatched point's backend span tree, bounded and
/// best-effort: a cache-served point or an unreachable backend is stitched
/// as an anchor-only span.
fn collect_subtrees(points: &[jobs::PointOutcome]) -> Vec<otlp::BackendSubtree> {
    points
        .iter()
        .take(MAX_STITCHED_POINTS)
        .map(|p| {
            let document = p
                .backend_job
                .as_deref()
                .and_then(|job| fetch_backend_trace(&p.node, job));
            otlp::BackendSubtree {
                point_index: p.index,
                label: p.label.clone(),
                node: p.node.clone(),
                backend_job: p.backend_job.clone(),
                start_nanos: p.start_nanos,
                dur_nanos: p.dur_nanos,
                document,
            }
        })
        .collect()
}

/// Fetches one backend's `GET /jobs/<id>/trace` document. The backend
/// job has finished, so the backend waits for its trace to be attached
/// rather than answering 202.
fn fetch_backend_trace(node: &str, job: &str) -> Option<Value> {
    let addr: SocketAddr = node.parse().ok()?;
    let answer = client::request_with_timeouts(
        addr,
        "GET",
        &format!("/jobs/{job}/trace"),
        None,
        &[],
        Timeouts {
            connect: Duration::from_millis(500),
            read: Duration::from_secs(2),
            write: Duration::from_millis(500),
        },
    )
    .ok()
    .filter(|r| r.status == 200)?;
    parse(&answer.body_str()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn start(options: ServerOptions) -> RunningServer {
        Server::bind("127.0.0.1:0", options)
            .expect("bind an ephemeral port")
            .spawn()
            .expect("spawn the accept loop")
    }

    #[test]
    fn health_metrics_and_404_routes() {
        let server = start(ServerOptions::default());
        let addr = server.addr();
        let health = client::get(addr, "/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body_str().contains("\"status\":\"ok\""));
        let metrics = client::get(addr, "/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        assert!(metrics.body_str().contains("refrint_http_requests_total"));
        for path in ["/nope", "/metrics/history", "/jobs/j00000001/progress"] {
            let missing = client::get(addr, path).unwrap();
            assert_eq!(missing.status, 404, "{path}");
            let body = parse(&missing.body_str()).expect("a JSON error body");
            let kind = body.get("error").and_then(|e| e.get("kind"));
            assert_eq!(kind.and_then(Value::as_str), Some("not_found"), "{path}");
        }
        let wrong_method = client::get(addr, "/run").unwrap();
        assert_eq!(wrong_method.status, 405);
        assert_eq!(wrong_method.header("Allow"), Some("POST"));
        server.shutdown();
    }

    #[test]
    fn run_misses_then_hits_the_cache_with_identical_bytes() {
        let server = start(ServerOptions::default());
        let addr = server.addr();
        let body = "{\"app\": \"lu\", \"refs\": 400, \"cores\": 2}";
        let first = client::post(addr, "/run", body.as_bytes()).unwrap();
        assert_eq!(first.status, 200, "{}", first.body_str());
        assert_eq!(first.header("X-Refrint-Cache"), Some("miss"));
        let second = client::post(addr, "/run", body.as_bytes()).unwrap();
        assert_eq!(second.status, 200);
        assert_eq!(second.header("X-Refrint-Cache"), Some("hit"));
        assert_eq!(first.body, second.body, "cache must return identical bytes");
        let metrics = client::get(addr, "/metrics").unwrap();
        assert!(metrics.body_str().contains("refrint_cache_hits_total 1"));
        server.shutdown();
    }

    #[test]
    fn async_jobs_complete_and_serve_their_result() {
        let server = start(ServerOptions::default());
        let addr = server.addr();
        let body = "{\"app\": \"fft\", \"refs\": 400, \"cores\": 2, \"mode\": \"async\"}";
        let accepted = client::post(addr, "/run", body.as_bytes()).unwrap();
        assert_eq!(accepted.status, 202, "{}", accepted.body_str());
        let id = accepted.header("X-Refrint-Job").unwrap().to_owned();
        let mut result = None;
        for _ in 0..200 {
            let r = client::get(addr, &format!("/jobs/{id}/result")).unwrap();
            if r.status != 202 {
                result = Some(r);
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let result = result.expect("job finishes");
        assert_eq!(result.status, 200);
        assert!(result.body_str().contains("\"workload\":\"fft\""));
        let status = client::get(addr, &format!("/jobs/{id}")).unwrap();
        assert!(status.body_str().contains("\"status\":\"done\""));
        let missing = client::get(addr, "/jobs/j9999/result").unwrap();
        assert_eq!(missing.status, 404);
        server.shutdown();
    }

    #[test]
    fn shutdown_endpoint_stops_the_server() {
        let server = start(ServerOptions::default());
        let addr = server.addr();
        let bye = client::post(addr, "/shutdown", b"").unwrap();
        assert_eq!(bye.status, 200);
        server.shutdown(); // joins; must not hang
                           // The port is released: a new bind to the same address succeeds
                           // (retry a few times for TIME_WAIT-free reuse on the OS's pace).
        let mut rebound = false;
        for _ in 0..50 {
            if TcpListener::bind(addr).is_ok() {
                rebound = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(rebound, "the listener must be closed after shutdown");
    }

    #[test]
    fn idle_shutdown_and_post_shutdown_return_within_a_second() {
        let server = start(ServerOptions::default());
        let began = Instant::now();
        server.shutdown();
        let took = began.elapsed();
        assert!(took < Duration::from_secs(1), "idle shutdown took {took:?}");

        let server = start(ServerOptions::default());
        let began = Instant::now();
        let bye = client::post(server.addr(), "/shutdown", b"").unwrap();
        assert_eq!(bye.status, 200);
        // The flag is already raised, so this join only returns if the
        // endpoint's own wake ended the accept loop.
        server.shutdown();
        let took = began.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "POST /shutdown took {took:?}"
        );
    }

    /// A client reconnects the moment it sees the end of a response; its
    /// previous connection must no longer count against the limit.
    #[test]
    fn a_closed_loop_client_at_the_connection_limit_is_never_refused() {
        let server = start(ServerOptions {
            max_connections: 1,
            ..ServerOptions::default()
        });
        let addr = server.addr();
        for _ in 0..300 {
            let health = client::get(addr, "/healthz").unwrap();
            assert_eq!(health.status, 200, "{}", health.body_str());
        }
        server.shutdown();
    }

    /// Each request opens a fresh connection, so any wait between a
    /// connection arriving and the accept loop taking it is paid per
    /// request (a 15 ms poll sleep made this ≥ 3 s).
    #[test]
    fn sequential_fresh_connections_pay_no_accept_floor() {
        let server = start(ServerOptions::default());
        let addr = server.addr();
        let began = Instant::now();
        for _ in 0..200 {
            assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
        }
        let took = began.elapsed();
        server.shutdown();
        assert!(
            took < Duration::from_millis(1500),
            "200 sequential GET /healthz took {took:?}"
        );
    }
}
