//! The long-lived socket front-end: NDJSON over TCP/Unix sockets, plus a
//! minimal HTTP/1.1 mode — served by a non-blocking readiness loop.
//!
//! [`Listener`] turns the batch engine into an actual network service.
//! Every connection speaks exactly the stdin protocol of `busytime-cli
//! serve`: NDJSON request records in, one response line per record, in
//! input order — followed by one [`BatchSummary`] JSON line once the
//! client half-closes its write side. All connections share the
//! process-wide [`SharedFeatureCache`] and solution cache, and submit
//! their solves to one persistent [`busytime_core::pool::Executor`] — by
//! default the process-wide `Executor::global`, sized via `--workers` /
//! `BUSYTIME_WORKERS`. The worker budget is therefore a true *process*
//! cap: no matter how many connections are live, at most `workers` solver
//! threads run at once.
//!
//! # The readiness loop
//!
//! Connections are *not* served thread-per-connection. A small fixed set
//! of I/O reactor threads ([`ListenConfig::io_threads`], default 2) each
//! run an epoll-backed poll loop (the vendored `polling` shim): reactor 0
//! owns the accept socket and deals new connections round-robin across
//! the set, and every reactor owns the full life of the connections dealt
//! to it — reading request bytes, parsing, writing responses back. Reads
//! feed a per-connection session machine (the engine `serve` drives too);
//! the machine's runner jobs solve records on the shared executor and
//! post completions back through a wakeable mailbox, so the reactor never
//! blocks and never solves, and the executor workers never touch a
//! socket. 500 idle keep-alive connections therefore cost 500 registered
//! file descriptors and `io_threads` threads — not 500 threads.
//!
//! Back-pressure is a bounded per-connection outbox
//! ([`ListenConfig::outbox_limit`]): when a client stops reading its
//! responses the outbox fills, the reactor suspends read interest (and
//! the machine stops parsing new records) until the backlog drains below
//! half, and a client that stays wedged past
//! [`ListenConfig::write_timeout`] is aborted. Idle cuts
//! ([`ListenConfig::conn_idle_timeout`]) and the listener-wide
//! [`ListenConfig::idle_timeout`] ride a timer wheel inside the poll
//! loop. At-capacity rejections are plain outbox writes on the reactor —
//! an overload floods structured error lines, never threads.
//!
//! The HTTP mode ([`ListenMode::Http`]) serves `POST /solve` (NDJSON
//! batch body in, response lines plus summary out as
//! `application/x-ndjson`) and `GET /healthz`, with `Content-Length`
//! bodies and keep-alive, parsed incrementally from the same readiness
//! loop.
//!
//! Shutdown is graceful by construction: cancelling
//! [`Listener::shutdown_token`] (the CLI wires SIGINT/SIGTERM to it)
//! stops the accept loop, cuts in-flight solves at their next cooperative
//! checkpoint through the session-token tree, lets every connection
//! answer the records it already parsed, write its summary and close, and
//! then returns the aggregate [`ListenReport`]. An optional idle timeout
//! triggers the same drain when no connection has been active for the
//! configured duration.
//!
//! ```no_run
//! use std::sync::Arc;
//! use busytime_core::solve::SolverRegistry;
//! use busytime_server::listener::{ListenConfig, ListenMode, Listener};
//!
//! let registry = Arc::new(SolverRegistry::with_defaults());
//! let mode = ListenMode::Tcp("127.0.0.1:0".into());
//! let listener = Listener::bind(&mode, registry, ListenConfig::default()).unwrap();
//! eprintln!("listening on {}", listener.endpoint());
//! let report = listener.run().unwrap(); // until shutdown_token fires
//! eprintln!("served {} connections", report.connections);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use busytime_core::cancel::CancelToken;
use busytime_core::memo::SolutionCache;
use busytime_core::pool::Executor;
use busytime_core::solve::{SolverRegistry, REPORT_SCHEMA_VERSION};
use busytime_instances::json;
use polling::{Event, Interest, Poller, RawFd, Waker};

use crate::engine::{
    lock_ignoring_poison, BatchSummary, ServeConfig, ServeError, SharedFeatureCache,
};
use crate::http::{
    parse_http_head, write_http_response, HttpError, HttpRequest, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use crate::machine::{SessionContext, SessionMachine};
use crate::protocol::error_line;

/// Which endpoint (and wire protocol) the listener serves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListenMode {
    /// NDJSON over a TCP socket; the string is a `bind` address like
    /// `127.0.0.1:7171` (`:0` picks an ephemeral port — read it back via
    /// [`Listener::local_addr`]).
    Tcp(String),
    /// NDJSON over a Unix-domain socket at the given path. The path is
    /// removed when the listener shuts down.
    Unix(PathBuf),
    /// Minimal HTTP/1.1 over TCP: `POST /solve` (NDJSON body in, NDJSON
    /// body out) and `GET /healthz`.
    Http(String),
}

/// Where per-connection summaries go as connections close.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConnLog {
    /// No per-connection logging.
    Quiet,
    /// One human-readable line per connection on stderr (the default).
    #[default]
    Text,
    /// One [`BatchSummary::to_json_line`] per connection on stderr.
    Json,
}

/// Listener configuration on top of the per-session [`ServeConfig`].
#[derive(Clone, Debug)]
pub struct ListenConfig {
    /// The batch-engine configuration every connection's session runs
    /// under (workers, default solver, chunking, error policy, and the
    /// batch-default deadline that acts as the request timeout).
    pub serve: ServeConfig,
    /// Concurrent-connection cap (`0` = 64). Connections beyond the cap
    /// are answered with a structured at-capacity error (HTTP 503 in HTTP
    /// mode) and closed — a plain outbox write on the reactor, never a
    /// thread.
    pub max_conns: usize,
    /// I/O reactor threads running the readiness loop (`0` = 2). Reactor
    /// 0 owns the accept socket; connections are dealt round-robin. This
    /// bounds socket-handling threads, not solver parallelism — solves
    /// always run on the executor's workers.
    pub io_threads: usize,
    /// Per-connection outbox cap in bytes (`0` = 256 KiB). Past the cap
    /// the reactor suspends the connection's read interest and its
    /// session stops parsing new records (completions already dispatched
    /// still land, so the backlog overshoots by at most one wave of
    /// responses); reads resume once the client drains the backlog below
    /// half. The executor is never blocked by a slow reader.
    pub outbox_limit: usize,
    /// Shut the listener down once no connection has been active for this
    /// long (`None` = serve until the shutdown token fires).
    pub idle_timeout: Option<Duration>,
    /// Cut a single connection that has sent no byte for this long while
    /// the server owes it nothing (`None` = let clients idle forever).
    /// The cut is polite: the session treats it as the client's
    /// end-of-batch, answers what it has, writes its summary and closes.
    /// Without this, `max_conns` silent connections would hold their
    /// capacity slots indefinitely.
    pub conn_idle_timeout: Option<Duration>,
    /// Retained for configuration compatibility with the former blocking
    /// front-end, where it set the socket read timeout that paced
    /// shutdown polling. The readiness loop needs no read timeout — it
    /// reacts to readable sockets and polls the shutdown token at a fixed
    /// granularity — so the value no longer changes behavior.
    pub read_timeout: Duration,
    /// How long a connection's pending responses may sit unsendable
    /// (default one minute) — no write progress for this long aborts the
    /// connection. The bounded outbox keeps a stalled reader from
    /// costing more than [`ListenConfig::outbox_limit`] bytes in the
    /// meantime; this timeout reclaims the capacity slot itself.
    pub write_timeout: Duration,
    /// Per-connection summary logging.
    pub log: ConnLog,
    /// An identity for this listener when it serves as one backend of a
    /// sharded fleet (`--shard-id`). Reported in the `/healthz` body and
    /// tagged onto every per-connection log line so a merged stderr stream
    /// stays attributable.
    pub shard_id: Option<String>,
}

impl Default for ListenConfig {
    fn default() -> Self {
        ListenConfig {
            serve: ServeConfig::default(),
            max_conns: 0,
            io_threads: 0,
            outbox_limit: 0,
            idle_timeout: None,
            conn_idle_timeout: None,
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(60),
            log: ConnLog::default(),
            shard_id: None,
        }
    }
}

/// Aggregate statistics over a listener's lifetime, returned by
/// [`Listener::run`] after the drain completes.
#[derive(Clone, Debug, Default)]
pub struct ListenReport {
    /// Connections accepted and served to completion (including ones that
    /// ended in a transport error mid-batch).
    pub connections: usize,
    /// Connections refused at the [`ListenConfig::max_conns`] cap.
    pub rejected: usize,
    /// Records processed across connections that completed their batch.
    /// A connection whose transport died mid-batch counts in
    /// `connections` but its partial batch is not aggregated (its session
    /// never produced a summary).
    pub records: usize,
    /// Records solved across completed connections.
    pub solved: usize,
    /// Records answered with an error line across completed connections.
    pub errors: usize,
    /// Deadline hits across completed connections.
    pub deadline_hits: usize,
    /// One-shot `GET` health probes answered on an NDJSON endpoint. Kept
    /// out of `connections` so a router polling `/healthz` twice a second
    /// does not swamp the count of batches actually served.
    pub health_probes: usize,
}

impl ListenReport {
    fn absorb(&mut self, summary: &BatchSummary) {
        self.records += summary.records;
        self.solved += summary.solved;
        self.errors += summary.errors;
        self.deadline_hits += summary.deadline_hits;
    }
}

impl std::fmt::Display for ListenReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "listener: {} connections ({} rejected) | {} records ({} solved, {} errors) | \
             deadline hits: {}",
            self.connections,
            self.rejected,
            self.records,
            self.solved,
            self.errors,
            self.deadline_hits,
        )?;
        if self.health_probes > 0 {
            write!(f, " | health probes: {}", self.health_probes)?;
        }
        Ok(())
    }
}

/// One accepted connection, abstracted over the socket family.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        // accepted sockets do not inherit the acceptor's non-blocking
        // flag on Linux — it must be set per connection
        match self {
            Conn::Tcp(s) => s.set_nonblocking(true),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(true),
        }
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Unix(s) => s.as_raw_fd(),
        }
    }

    #[cfg(not(unix))]
    fn raw_fd(&self) -> RawFd {
        // the poller itself is Unsupported off Unix; this is never polled
        -1
    }

    /// Half-close: the client sees EOF after the summary line, while its
    /// own pending writes still drain.
    fn shutdown_write(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
        };
    }

    fn peer(&self) -> String {
        match self {
            Conn::Tcp(s) => s
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| String::from("tcp-peer")),
            #[cfg(unix)]
            Conn::Unix(_) => String::from("unix-peer"),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The bound socket, abstracted over the socket family.
enum Acceptor {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Acceptor {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Acceptor::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Acceptor::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        match self {
            Acceptor::Tcp(l) => l.as_raw_fd(),
            Acceptor::Unix(l, _) => l.as_raw_fd(),
        }
    }

    #[cfg(not(unix))]
    fn raw_fd(&self) -> RawFd {
        -1
    }
}

/// A long-lived front-end accepting batch-solve connections; see the
/// [module docs](self) for the reactor design and shutdown contract.
pub struct Listener {
    acceptor: Acceptor,
    http: bool,
    registry: Arc<SolverRegistry>,
    config: ListenConfig,
    shutdown: CancelToken,
    cache: SharedFeatureCache,
    solutions: SolutionCache,
    /// `None` = resolve [`Executor::global`] lazily in [`Listener::run`] —
    /// binding with a pinned pool must not materialize the global one.
    executor: Option<Executor>,
}

impl Listener {
    /// Binds `mode`'s endpoint and prepares (but does not start) the
    /// readiness loop. The socket is open once this returns — clients may
    /// connect and will be served as soon as [`Listener::run`] starts.
    pub fn bind(
        mode: &ListenMode,
        registry: Arc<SolverRegistry>,
        config: ListenConfig,
    ) -> std::io::Result<Listener> {
        let (acceptor, http) = match mode {
            ListenMode::Tcp(addr) => (Acceptor::Tcp(bind_tcp(addr)?), false),
            ListenMode::Http(addr) => (Acceptor::Tcp(bind_tcp(addr)?), true),
            #[cfg(unix)]
            ListenMode::Unix(path) => {
                let listener = UnixListener::bind(path).map_err(|e| {
                    std::io::Error::new(
                        e.kind(),
                        format!(
                            "{}: {e} (a stale socket file from an unclean \
                             shutdown must be removed first)",
                            path.display()
                        ),
                    )
                })?;
                listener.set_nonblocking(true)?;
                (Acceptor::Unix(listener, path.clone()), false)
            }
            #[cfg(not(unix))]
            ListenMode::Unix(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix-domain sockets are not available on this platform",
                ))
            }
        };
        let solutions = SolutionCache::new(config.serve.solution_cache);
        Ok(Listener {
            acceptor,
            http,
            registry,
            config,
            shutdown: CancelToken::never(),
            cache: SharedFeatureCache::new(),
            solutions,
            executor: None,
        })
    }

    /// Runs every connection's solves on `executor` instead of the
    /// process-wide [`Executor::global`] — tests pin exact worker budgets
    /// this way, and embedders running several listeners can give each its
    /// own pool.
    pub fn executor(mut self, executor: Executor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// The actually-bound TCP address (resolves `:0` ephemeral ports);
    /// `None` for Unix-domain endpoints.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.acceptor {
            Acceptor::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Acceptor::Unix(..) => None,
        }
    }

    /// A URL-ish description of the bound endpoint, e.g.
    /// `tcp://127.0.0.1:7171`, `http://127.0.0.1:8080` or
    /// `unix:///run/busytime.sock`.
    pub fn endpoint(&self) -> String {
        match &self.acceptor {
            Acceptor::Tcp(l) => {
                let scheme = if self.http { "http" } else { "tcp" };
                match l.local_addr() {
                    Ok(addr) => format!("{scheme}://{addr}"),
                    Err(_) => format!("{scheme}://?"),
                }
            }
            #[cfg(unix)]
            Acceptor::Unix(_, path) => format!("unix://{}", path.display()),
        }
    }

    /// The shutdown token: cancel it (from a signal handler thread, a
    /// supervisor, a test) to drain and stop the listener.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// The cross-connection feature cache (shared with every session this
    /// listener spawns) — exposed so embedders can pre-warm or share it
    /// wider than one listener.
    pub fn feature_cache(&self) -> SharedFeatureCache {
        self.cache.clone()
    }

    /// The cross-connection [`SolutionCache`] (shared with every session
    /// this listener spawns, sized by [`ServeConfig::solution_cache`]) — a
    /// record solved on one connection is a cache hit on the next.
    /// Exposed so embedders can pre-warm it or share it wider than one
    /// listener.
    pub fn solution_cache(&self) -> SolutionCache {
        self.solutions.clone()
    }

    /// Runs the readiness loop until the shutdown token fires or the idle
    /// timeout elapses, then drains every live connection and returns the
    /// aggregate report.
    pub fn run(self) -> std::io::Result<ListenReport> {
        let Listener {
            acceptor,
            http,
            registry,
            config,
            shutdown,
            cache,
            solutions,
            executor,
        } = self;
        let max_conns = if config.max_conns == 0 {
            DEFAULT_MAX_CONNS
        } else {
            config.max_conns
        };
        let io_threads = if config.io_threads == 0 {
            DEFAULT_IO_THREADS
        } else {
            config.io_threads
        };
        let outbox_limit = if config.outbox_limit == 0 {
            DEFAULT_OUTBOX_LIMIT
        } else {
            config.outbox_limit
        };
        let ctx = Arc::new(SessionContext {
            registry,
            config: config.serve.clone(),
            cache,
            solutions,
            executor: executor.unwrap_or_else(Executor::global),
            cancel: shutdown,
        });
        let shared = Arc::new(ListenShared {
            ctx,
            config,
            http,
            max_conns,
            io_threads,
            outbox_limit,
            active: AtomicUsize::new(0),
            open: AtomicUsize::new(0),
            outbox_bytes: AtomicUsize::new(0),
            report: Mutex::new(ListenReport::default()),
            last_activity: Mutex::new(Instant::now()),
            started: Instant::now(),
        });

        // every reactor gets its poller and wakeable mailbox up front, so
        // the acceptor can deal connections (and executor workers can post
        // completion wakes) before a reactor has even scheduled
        let mut pollers = Vec::with_capacity(io_threads);
        let mut mailboxes = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let poller = Poller::new()?;
            let waker = Waker::new(&poller, KEY_WAKER)?;
            mailboxes.push(Arc::new(Mailbox {
                waker,
                post: Mutex::new(Post::default()),
            }));
            pollers.push(poller);
        }
        #[cfg(unix)]
        let unix_path = match &acceptor {
            Acceptor::Unix(_, path) => Some(path.clone()),
            Acceptor::Tcp(_) => None,
        };
        pollers[0].add(acceptor.raw_fd(), KEY_ACCEPT, Interest::READ)?;

        let mut threads = Vec::new();
        let mut rest = pollers.split_off(1);
        for (offset, poller) in rest.drain(..).enumerate() {
            let index = offset + 1;
            let reactor = Reactor::new(
                Arc::clone(&shared),
                poller,
                Arc::clone(&mailboxes[index]),
                mailboxes.clone(),
                index,
                None,
            );
            threads.push(
                std::thread::Builder::new()
                    .name(format!("busytime-io-{index}"))
                    .spawn(move || reactor.run())?,
            );
        }
        let poller0 = pollers.pop().expect("reactor 0's poller");
        let reactor0 = Reactor::new(
            Arc::clone(&shared),
            poller0,
            Arc::clone(&mailboxes[0]),
            mailboxes.clone(),
            0,
            Some(acceptor),
        );
        let mut fatal = reactor0.run();
        // reactor 0 only exits once the token fired and its own drain
        // finished; nudge the sibling loops so theirs is prompt too
        for mailbox in &mailboxes[1..] {
            let _ = mailbox.waker.wake();
        }
        for handle in threads {
            match handle.join() {
                Ok(Some(e)) => {
                    fatal.get_or_insert(e);
                }
                Ok(None) => {}
                Err(_) => {
                    fatal.get_or_insert_with(|| std::io::Error::other("an I/O reactor panicked"));
                }
            }
        }
        #[cfg(unix)]
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(&path);
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(lock_ignoring_poison(&shared.report).clone()),
        }
    }
}

fn bind_tcp(addr: &str) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{addr}: {e}")))?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

// ---------------------------------------------------------------------------
// The readiness loop
// ---------------------------------------------------------------------------

/// Poller key of each reactor's wake eventfd.
const KEY_WAKER: usize = 0;
/// Poller key of the accept socket (reactor 0 only).
const KEY_ACCEPT: usize = 1;
/// First poller key handed to connections.
const FIRST_CONN_KEY: usize = 2;
/// Default [`ListenConfig::max_conns`].
const DEFAULT_MAX_CONNS: usize = 64;
/// Default [`ListenConfig::io_threads`].
const DEFAULT_IO_THREADS: usize = 2;
/// Default [`ListenConfig::outbox_limit`].
const DEFAULT_OUTBOX_LIMIT: usize = 256 * 1024;
/// Per-service read cap: a firehose connection yields the reactor after
/// this many bytes (level-triggered polling re-reports it immediately).
const READ_BUDGET: usize = 64 * 1024;
/// How long a finished connection lingers half-closed, draining the
/// client's trailing bytes, so the close is a FIN and the summary line
/// survives in flight — the event-driven stand-in for the old bounded
/// `drain_briefly` reads. An EOF from the client short-circuits it.
const LINGER: Duration = Duration::from_millis(150);
/// Upper bound on one poll wait: the cadence at which reactors notice the
/// shutdown token and the listener-wide idle timeout.
const POLL_GRANULARITY: Duration = Duration::from_millis(20);
/// Simultaneously-open polite rejections per reactor; past this a connect
/// flood is being shed and further connections are dropped outright —
/// overload must not mint unbounded connection state (it already cannot
/// mint threads).
const REJECT_BACKLOG_CAP: usize = 1024;
/// `expect` message for writes into a `Vec<u8>` outbox.
const VEC_WRITE: &str = "writing to a Vec cannot fail";

/// Everything the reactors share: the sessions' [`SessionContext`], the
/// listener configuration and the cross-reactor gauges behind `/healthz`
/// and the final [`ListenReport`].
struct ListenShared {
    ctx: Arc<SessionContext>,
    config: ListenConfig,
    http: bool,
    max_conns: usize,
    io_threads: usize,
    outbox_limit: usize,
    /// Connections holding a capacity slot (everything but rejections).
    active: AtomicUsize,
    /// Every socket registered with a reactor, rejections included — the
    /// `/healthz` `open_connections` gauge.
    open: AtomicUsize,
    /// Total bytes queued in connection outboxes, fleet-wide — the
    /// `/healthz` back-pressure gauge.
    outbox_bytes: AtomicUsize,
    report: Mutex<ListenReport>,
    last_activity: Mutex<Instant>,
    /// When the listener started serving, for the `/healthz` uptime field.
    started: Instant,
}

impl ListenShared {
    fn shutdown(&self) -> &CancelToken {
        &self.ctx.cancel
    }

    fn executor(&self) -> &Executor {
        &self.ctx.executor
    }
}

/// A reactor's cross-thread inbox: the acceptor deals fresh connections
/// in, executor workers post the keys of connections whose sessions have
/// new completions, and either post rings the eventfd to wake the poll
/// loop.
struct Mailbox {
    waker: Waker,
    post: Mutex<Post>,
}

#[derive(Default)]
struct Post {
    conns: Vec<(Conn, usize)>,
    dirty: Vec<usize>,
}

impl Mailbox {
    fn post_conn(&self, conn: Conn, conn_id: usize) {
        lock_ignoring_poison(&self.post).conns.push((conn, conn_id));
        let _ = self.waker.wake();
    }

    fn post_dirty(&self, key: usize) {
        lock_ignoring_poison(&self.post).dirty.push(key);
        let _ = self.waker.wake();
    }

    fn take(&self) -> (Vec<(Conn, usize)>, Vec<usize>) {
        let mut post = lock_ignoring_poison(&self.post);
        (
            std::mem::take(&mut post.conns),
            std::mem::take(&mut post.dirty),
        )
    }
}

/// Milliseconds per timer-wheel bucket.
const TIMER_TICK_MS: u64 = 8;

/// A coarse slotted timer wheel over the reactor's clock: deadlines land
/// in [`TIMER_TICK_MS`] buckets keyed by tick index, and entries carry
/// the connection's timer generation, so a superseded deadline is simply
/// ignored when its bucket fires (lazy cancellation — rescheduling never
/// searches the wheel).
struct TimerWheel {
    base: Instant,
    slots: BTreeMap<u64, Vec<(usize, u64)>>,
}

impl TimerWheel {
    fn new() -> TimerWheel {
        TimerWheel {
            base: Instant::now(),
            slots: BTreeMap::new(),
        }
    }

    /// The bucket `when` lands in, rounded up so a bucket never fires
    /// before its deadlines.
    fn tick_of(&self, when: Instant) -> u64 {
        let ms = when.saturating_duration_since(self.base).as_millis() as u64;
        ms / TIMER_TICK_MS + 1
    }

    fn schedule(&mut self, tick: u64, key: usize, generation: u64) {
        self.slots.entry(tick).or_default().push((key, generation));
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.slots
            .keys()
            .next()
            .map(|tick| self.base + Duration::from_millis(tick * TIMER_TICK_MS))
    }

    fn pop_due(&mut self, now: Instant) -> Vec<(usize, u64)> {
        let now_tick = now.saturating_duration_since(self.base).as_millis() as u64 / TIMER_TICK_MS;
        let later = self.slots.split_off(&(now_tick + 1));
        std::mem::replace(&mut self.slots, later)
            .into_values()
            .flatten()
            .collect()
    }
}

/// How a connection is counted in the [`ListenReport`] when it closes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tally {
    /// A real client connection (batch served, or died trying).
    Conn,
    /// A one-shot `GET /healthz` probe on an NDJSON endpoint — counted
    /// separately, never as a connection.
    Probe,
    /// An at-capacity rejection — counted at accept time, not at close.
    Reject,
}

/// What protocol state a connection is in.
enum Kind {
    /// NDJSON endpoints sniff the first bytes: an HTTP `GET ` opener
    /// means a health probe (a router, `curl`) reached the NDJSON port
    /// and gets the one-shot `/healthz` answer; anything else (including
    /// the sniffed bytes themselves) feeds the batch session unchanged.
    Sniff(Vec<u8>),
    /// An NDJSON batch session in progress.
    Ndjson(Box<SessionMachine>),
    /// An HTTP/1.1 connection (requests parsed incrementally).
    Http(Box<HttpConn>),
    /// Terminal: flush the outbox, half-close, linger briefly to drain
    /// the client's trailing bytes, then close.
    Flush,
}

/// One registered connection owned by a reactor.
struct ConnState {
    conn: Conn,
    conn_id: usize,
    peer: String,
    kind: Kind,
    tally: Tally,
    /// Bytes owed to the client; `sent` of them are already written.
    outbox: Vec<u8>,
    sent: usize,
    /// This connection's contribution to [`ListenShared::outbox_bytes`].
    gauge: usize,
    /// The (read, write) interest currently registered with the poller.
    interest: (bool, bool),
    /// Reads stopped because the outbox is over the cap (back-pressure).
    read_suspended: bool,
    /// We half-closed our write side (the summary is fully flushed).
    half_closed: bool,
    /// The client half-closed (or was idle-cut, which is treated the
    /// same: a polite end-of-batch).
    peer_eof: bool,
    /// The session's summary, recorded into the report once the outbox
    /// flush completes — mirroring the blocking front-end, which counted
    /// a summary only after a successful flush.
    summary: Option<BatchSummary>,
    /// When the client last sent a byte (the conn-idle clock; refreshed
    /// while the server owes the connection work, so a slow solve is
    /// never mistaken for a quiet client).
    last_byte: Instant,
    /// When a write last made progress (the write-timeout clock).
    last_write_progress: Instant,
    /// Set at half-close: when the post-close drain gives up on a client
    /// that neither reads nor closes.
    linger_until: Option<Instant>,
    /// Lazy-cancellation generation for this connection's wheel entries.
    timer_gen: u64,
    /// The wheel bucket currently scheduled, to avoid re-inserting an
    /// unchanged deadline on every service.
    timer_tick: Option<u64>,
}

impl ConnState {
    fn pending(&self) -> usize {
        self.outbox.len() - self.sent
    }

    /// The server still owes this connection answers — an idle wire does
    /// not mean an idle session.
    fn has_work(&self) -> bool {
        match &self.kind {
            Kind::Ndjson(machine) => machine.has_inflight(),
            Kind::Http(http) => matches!(http.state, HttpState::Solving { .. }),
            Kind::Sniff(_) | Kind::Flush => false,
        }
    }
}

/// An HTTP/1.1 connection's incremental parse state.
struct HttpConn {
    /// Raw bytes not yet consumed by the current state.
    buf: Vec<u8>,
    state: HttpState,
}

impl HttpConn {
    fn new() -> HttpConn {
        HttpConn {
            buf: Vec::new(),
            state: HttpState::Head,
        }
    }
}

enum HttpState {
    /// Waiting for (the rest of) a request head.
    Head,
    /// Collecting a `Content-Length` body. `discard` bodies (on
    /// `GET /healthz`) are drained so keep-alive framing survives.
    Body {
        request: HttpRequest,
        body: Vec<u8>,
        discard: bool,
        keep_alive: bool,
    },
    /// A `POST /solve` batch on the executor; the machine's output
    /// accumulates in `response` until the summary lands.
    Solving {
        machine: Box<SessionMachine>,
        keep_alive: bool,
        response: Vec<u8>,
    },
}

/// What [`step_conn`] decided about a connection.
enum Step {
    Keep,
    /// Close now; `Some(reason)` logs an `aborted:` line for real
    /// connections.
    Close(Option<String>),
}

/// What [`step_http`] decided about an HTTP connection.
enum HttpStep {
    /// Waiting on more bytes or on executor completions.
    Wait,
    /// The connection is done (response written, or a clean end); flush
    /// and close.
    Finish,
    /// A transport-grade failure; close and log.
    Abort(String),
}

/// One I/O thread of the listener: an epoll loop owning a share of the
/// connections. Reactor 0 additionally owns the accept socket and deals
/// new connections round-robin across the set.
struct Reactor {
    shared: Arc<ListenShared>,
    poller: Poller,
    mailbox: Arc<Mailbox>,
    /// Every reactor's mailbox, indexed by reactor; the acceptor's
    /// dealing table.
    peers: Vec<Arc<Mailbox>>,
    index: usize,
    acceptor: Option<Acceptor>,
    conns: HashMap<usize, ConnState>,
    timers: TimerWheel,
    next_key: usize,
    /// Served-connection ids (reactor 0 only, like the blocking accept
    /// loop's counter).
    conn_seq: usize,
    /// Round-robin cursor over `peers` (reactor 0 only).
    rr: usize,
    rejects_open: usize,
    draining: bool,
    fatal: Option<std::io::Error>,
}

impl Reactor {
    fn new(
        shared: Arc<ListenShared>,
        poller: Poller,
        mailbox: Arc<Mailbox>,
        peers: Vec<Arc<Mailbox>>,
        index: usize,
        acceptor: Option<Acceptor>,
    ) -> Reactor {
        Reactor {
            shared,
            poller,
            mailbox,
            peers,
            index,
            acceptor,
            conns: HashMap::new(),
            timers: TimerWheel::new(),
            next_key: FIRST_CONN_KEY,
            conn_seq: 0,
            rr: 0,
            rejects_open: 0,
            draining: false,
            fatal: None,
        }
    }

    fn run(mut self) -> Option<std::io::Error> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.shutdown().is_cancelled() && !self.draining {
                self.draining = true;
                if let Some(acceptor) = &self.acceptor {
                    let _ = self.poller.delete(acceptor.raw_fd());
                }
                // every live session gets its polite end-of-batch: answer
                // what was parsed, summarize, flush, close
                let keys: Vec<usize> = self.conns.keys().copied().collect();
                for key in keys {
                    self.service(key);
                }
            }
            let (new_conns, dirty) = self.mailbox.take();
            for (conn, conn_id) in new_conns {
                // a connection that raced the drain still gets served the
                // polite way — service() under `draining` finishes it
                let kind = if self.shared.http {
                    Kind::Http(Box::new(HttpConn::new()))
                } else {
                    Kind::Sniff(Vec::new())
                };
                if let Some(key) = self.register(conn, conn_id, kind, Tally::Conn, Vec::new()) {
                    self.service(key);
                }
            }
            for key in dirty {
                self.service(key);
            }
            if self.draining && self.conns.is_empty() {
                break;
            }
            let now = Instant::now();
            for (key, generation) in self.timers.pop_due(now) {
                let live = self.conns.get_mut(&key).is_some_and(|state| {
                    if state.timer_gen == generation {
                        state.timer_tick = None;
                        true
                    } else {
                        false
                    }
                });
                if live {
                    self.service(key);
                }
            }
            if !self.draining && self.acceptor.is_some() {
                if let Some(idle) = self.shared.config.idle_timeout {
                    let quiet = self.shared.active.load(Ordering::SeqCst) == 0
                        && lock_ignoring_poison(&self.shared.last_activity).elapsed() >= idle;
                    if quiet {
                        self.shared.shutdown().cancel();
                        continue;
                    }
                }
            }
            let mut timeout = POLL_GRANULARITY;
            if let Some(next) = self.timers.next_deadline() {
                timeout = timeout.min(next.saturating_duration_since(now));
            }
            events.clear();
            match self
                .poller
                .wait(&mut events, Some(timeout.max(Duration::from_millis(1))))
            {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // the poller itself is broken: shed every connection
                    // and stop; run() surfaces the error after the other
                    // reactors drain
                    self.fatal.get_or_insert(e);
                    self.shared.shutdown().cancel();
                    let keys: Vec<usize> = self.conns.keys().copied().collect();
                    for key in keys {
                        self.close_conn(key, None);
                    }
                    break;
                }
            }
            for event in &events {
                match event.key {
                    KEY_WAKER => self.mailbox.waker.drain(),
                    KEY_ACCEPT => self.accept_some(),
                    key => self.service(key),
                }
            }
        }
        self.fatal
    }

    /// Accepts until the socket would block (reactor 0 only).
    fn accept_some(&mut self) {
        if self.draining {
            return;
        }
        // moved out for the duration of the loop so accepting can call
        // &mut self methods (register/service) between accepts
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        loop {
            match acceptor.accept() {
                Ok(conn) => {
                    *lock_ignoring_poison(&self.shared.last_activity) = Instant::now();
                    let _ = conn.set_nonblocking();
                    if self.shared.active.load(Ordering::SeqCst) >= self.shared.max_conns {
                        lock_ignoring_poison(&self.shared.report).rejected += 1;
                        if self.rejects_open >= REJECT_BACKLOG_CAP {
                            continue; // shed outright
                        }
                        let outbox = rejection_bytes(self.shared.http, self.shared.max_conns);
                        if let Some(key) =
                            self.register(conn, 0, Kind::Flush, Tally::Reject, outbox)
                        {
                            self.service(key);
                        }
                        continue;
                    }
                    self.conn_seq += 1;
                    let conn_id = self.conn_seq;
                    self.shared.active.fetch_add(1, Ordering::SeqCst);
                    let target = self.rr % self.shared.io_threads;
                    self.rr += 1;
                    if target == self.index {
                        let kind = if self.shared.http {
                            Kind::Http(Box::new(HttpConn::new()))
                        } else {
                            Kind::Sniff(Vec::new())
                        };
                        if let Some(key) =
                            self.register(conn, conn_id, kind, Tally::Conn, Vec::new())
                        {
                            self.service(key);
                        }
                    } else {
                        self.peers[target].post_conn(conn, conn_id);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // transient per-connection accept failures (the peer reset
                // before we got to it) must not take the server down
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    self.fatal.get_or_insert(e);
                    self.shared.shutdown().cancel();
                    break;
                }
            }
        }
        self.acceptor = Some(acceptor);
    }

    /// Registers a connection with the poller and the connection map.
    /// Returns `None` (dropping the socket, releasing any capacity slot)
    /// if the poller refuses the fd.
    fn register(
        &mut self,
        conn: Conn,
        conn_id: usize,
        kind: Kind,
        tally: Tally,
        outbox: Vec<u8>,
    ) -> Option<usize> {
        let key = self.next_key;
        self.next_key += 1;
        if self.poller.add(conn.raw_fd(), key, Interest::READ).is_err() {
            if tally != Tally::Reject {
                *lock_ignoring_poison(&self.shared.last_activity) = Instant::now();
                self.shared.active.fetch_sub(1, Ordering::SeqCst);
            }
            return None;
        }
        let now = Instant::now();
        let peer = conn.peer();
        self.conns.insert(
            key,
            ConnState {
                conn,
                conn_id,
                peer,
                kind,
                tally,
                outbox,
                sent: 0,
                gauge: 0,
                interest: (true, false),
                read_suspended: false,
                half_closed: false,
                peer_eof: false,
                summary: None,
                last_byte: now,
                last_write_progress: now,
                linger_until: None,
                timer_gen: 0,
                timer_tick: None,
            },
        );
        self.shared.open.fetch_add(1, Ordering::SeqCst);
        if tally == Tally::Reject {
            self.rejects_open += 1;
        }
        Some(key)
    }

    /// Drives one connection as far as it can go without blocking, then
    /// refreshes its poller interest and timer-wheel deadline.
    fn service(&mut self, key: usize) {
        let Some(state) = self.conns.get_mut(&key) else {
            return;
        };
        match step_conn(&self.shared, &self.mailbox, key, state, self.draining) {
            Step::Close(abort) => self.close_conn(key, abort),
            Step::Keep => {
                let pending = state.pending();
                match pending.cmp(&state.gauge) {
                    std::cmp::Ordering::Greater => {
                        self.shared
                            .outbox_bytes
                            .fetch_add(pending - state.gauge, Ordering::SeqCst);
                    }
                    std::cmp::Ordering::Less => {
                        self.shared
                            .outbox_bytes
                            .fetch_sub(state.gauge - pending, Ordering::SeqCst);
                    }
                    std::cmp::Ordering::Equal => {}
                }
                state.gauge = pending;
                // back-pressure: reads stop past the outbox cap, resume
                // once the client drains it below half
                if matches!(state.kind, Kind::Flush) {
                    state.read_suspended = false;
                } else if pending > self.shared.outbox_limit {
                    state.read_suspended = true;
                } else if pending <= self.shared.outbox_limit / 2 {
                    state.read_suspended = false;
                }
                let want = (
                    !state.read_suspended && !state.peer_eof,
                    pending > 0 && !state.half_closed,
                );
                if want != state.interest
                    && self
                        .poller
                        .modify(state.conn.raw_fd(), key, interest_of(want))
                        .is_ok()
                {
                    state.interest = want;
                }
                match conn_deadline(&self.shared, state) {
                    Some(when) => {
                        let tick = self.timers.tick_of(when);
                        if state.timer_tick != Some(tick) {
                            state.timer_gen += 1;
                            state.timer_tick = Some(tick);
                            self.timers.schedule(tick, key, state.timer_gen);
                        }
                    }
                    None => {
                        if state.timer_tick.is_some() {
                            state.timer_gen += 1;
                            state.timer_tick = None;
                        }
                    }
                }
            }
        }
    }

    /// Deregisters and drops a connection, settling its report entry:
    /// connections count once at close, probes count separately, and
    /// rejections were counted at accept.
    fn close_conn(&mut self, key: usize, abort: Option<String>) {
        let Some(mut state) = self.conns.remove(&key) else {
            return;
        };
        // best-effort: an aborting batch may still hold answered lines
        // (the blocking front-end's dropped BufWriter flushed the same way)
        if !state.half_closed {
            let _ = flush_outbox(&mut state);
        }
        let _ = self.poller.delete(state.conn.raw_fd());
        if state.gauge > 0 {
            self.shared
                .outbox_bytes
                .fetch_sub(state.gauge, Ordering::SeqCst);
        }
        self.shared.open.fetch_sub(1, Ordering::SeqCst);
        match state.tally {
            Tally::Reject => {
                self.rejects_open -= 1;
                return;
            }
            Tally::Probe => {
                lock_ignoring_poison(&self.shared.report).health_probes += 1;
            }
            Tally::Conn => {
                lock_ignoring_poison(&self.shared.report).connections += 1;
                match abort {
                    Some(reason) => log_line(
                        self.shared.config.log,
                        format!(
                            "conn {}{} ({}): aborted: {reason}",
                            state.conn_id,
                            shard_tag(&self.shared.config),
                            state.peer
                        ),
                    ),
                    None => {
                        // normally recorded at half-close; this is the
                        // close-raced-the-flush path
                        if let Some(summary) = state.summary.take() {
                            record_summary(&self.shared, state.conn_id, &state.peer, &summary);
                        }
                    }
                }
            }
        }
        *lock_ignoring_poison(&self.shared.last_activity) = Instant::now();
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn interest_of((read, write): (bool, bool)) -> Interest {
    match (read, write) {
        (true, true) => Interest::BOTH,
        (true, false) => Interest::READ,
        (false, true) => Interest::WRITE,
        (false, false) => Interest::NONE,
    }
}

/// The next instant at which this connection needs attention with no help
/// from the wire: a stalled writer's abort, a quiet client's idle cut, or
/// the end of the post-close linger.
fn conn_deadline(shared: &ListenShared, state: &ConnState) -> Option<Instant> {
    let mut deadline: Option<Instant> = None;
    if state.pending() > 0 && !state.half_closed {
        deadline = min_deadline(
            deadline,
            state.last_write_progress + shared.config.write_timeout,
        );
    }
    if let Some(idle) = shared.config.conn_idle_timeout {
        if idle_eligible(state) {
            deadline = min_deadline(deadline, state.last_byte + idle);
        }
    }
    if let Some(linger) = state.linger_until {
        deadline = min_deadline(deadline, linger);
    }
    deadline
}

fn min_deadline(current: Option<Instant>, candidate: Instant) -> Option<Instant> {
    Some(match current {
        Some(existing) if existing <= candidate => existing,
        _ => candidate,
    })
}

/// The conn-idle clock only runs while the connection is wholly quiet:
/// nothing owed to the client, nothing in flight for it, and the client
/// not yet done. (A flushing connection is governed by the write timeout
/// and the linger instead.)
fn idle_eligible(state: &ConnState) -> bool {
    !state.peer_eof
        && !matches!(state.kind, Kind::Flush)
        && state.pending() == 0
        && !state.has_work()
}

/// Drives one connection: read, enforce deadlines, advance the protocol
/// state machine, flush, and settle the endgame (half-close → linger →
/// close). Never blocks.
fn step_conn(
    shared: &ListenShared,
    mailbox: &Arc<Mailbox>,
    key: usize,
    state: &mut ConnState,
    draining: bool,
) -> Step {
    let now = Instant::now();

    // -- read --------------------------------------------------------------
    if !state.read_suspended && !state.peer_eof {
        let mut scratch = [0u8; 8192];
        let mut budget = READ_BUDGET;
        loop {
            if budget == 0 {
                break; // level-triggered polling re-reports the rest
            }
            match state.conn.read(&mut scratch) {
                Ok(0) => {
                    state.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    state.last_byte = now;
                    match &mut state.kind {
                        Kind::Sniff(buf) => buf.extend_from_slice(&scratch[..n]),
                        Kind::Ndjson(machine) => machine.feed(&scratch[..n]),
                        Kind::Http(http) => http.buf.extend_from_slice(&scratch[..n]),
                        Kind::Flush => {} // trailing bytes drain into the void
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    return Step::Close(match state.kind {
                        Kind::Flush => None, // response already settled
                        _ => Some(format!("io: {e}")),
                    });
                }
            }
        }
    }

    // -- deadlines ---------------------------------------------------------
    if state.pending() > 0
        && !state.half_closed
        && now.duration_since(state.last_write_progress) >= shared.config.write_timeout
    {
        return Step::Close(match state.tally {
            Tally::Conn => Some(String::from(
                "io: write timed out; the client stopped reading its responses",
            )),
            _ => None,
        });
    }
    if let Some(idle) = shared.config.conn_idle_timeout {
        if idle_eligible(state) && !draining && now.duration_since(state.last_byte) >= idle {
            // a polite end-of-batch, exactly like a client half-close
            state.peer_eof = true;
        }
    }

    // -- protocol + write --------------------------------------------------
    loop {
        let mut pump_gated = false;
        loop {
            match std::mem::replace(&mut state.kind, Kind::Flush) {
                Kind::Sniff(buf) => {
                    let decide =
                        buf.len() >= 4 || buf.contains(&b'\n') || state.peer_eof || draining;
                    if !decide {
                        state.kind = Kind::Sniff(buf);
                        break;
                    }
                    if buf.starts_with(b"GET ") {
                        state.tally = Tally::Probe;
                        let body = healthz_body(shared);
                        write_http_response(
                            &mut state.outbox,
                            "200 OK",
                            "application/json",
                            body.as_bytes(),
                            false,
                        )
                        .expect(VEC_WRITE);
                        // kind stays Flush
                    } else {
                        let mut machine = new_machine(shared, mailbox, key);
                        machine.feed(&buf);
                        state.kind = Kind::Ndjson(machine);
                    }
                }
                Kind::Ndjson(mut machine) => {
                    if state.peer_eof || draining {
                        machine.finish_input();
                    }
                    let allow_parse = state.outbox.len() - state.sent <= shared.outbox_limit;
                    pump_gated = !allow_parse;
                    machine.pump(&mut state.outbox, allow_parse);
                    if !machine.is_done() {
                        state.kind = Kind::Ndjson(machine);
                        break;
                    }
                    let summary = match machine.take_result() {
                        Ok(summary) => summary,
                        Err(failure) => return Step::Close(Some(failure.to_string())),
                    };
                    state
                        .outbox
                        .extend_from_slice(format!("{}\n", summary.to_json_line()).as_bytes());
                    state.summary = Some(summary);
                    // kind stays Flush
                }
                Kind::Http(mut http) => {
                    let outcome = step_http(
                        shared,
                        mailbox,
                        key,
                        &mut http,
                        &mut state.outbox,
                        state.peer_eof,
                        draining,
                        state.conn_id,
                        &state.peer,
                    );
                    match outcome {
                        HttpStep::Wait => {
                            state.kind = Kind::Http(http);
                            break;
                        }
                        HttpStep::Finish => {} // kind stays Flush
                        HttpStep::Abort(reason) => return Step::Close(Some(reason)),
                    }
                }
                Kind::Flush => break,
            }
        }

        // a session with answers in flight is not an idle client
        if state.has_work() || state.pending() > 0 {
            state.last_byte = now;
        }

        if !state.half_closed {
            if let Err(e) = flush_outbox(state) {
                return Step::Close(match state.tally {
                    Tally::Conn => Some(format!("io: {e}")),
                    _ => None,
                });
            }
        }

        // a flush that reopened the parse gate must re-pump the machine:
        // a gated pump with nothing in flight gets no completion
        // notification, so stopping here would strand its buffered input
        // for good
        if pump_gated
            && state.pending() <= shared.outbox_limit
            && matches!(state.kind, Kind::Ndjson(_))
        {
            continue;
        }
        break;
    }

    // -- endgame -----------------------------------------------------------
    if matches!(state.kind, Kind::Flush) && state.pending() == 0 {
        if !state.half_closed {
            state.conn.shutdown_write();
            state.half_closed = true;
            state.linger_until = Some(now + LINGER);
            // the whole batch reached the socket: now (and only now) it
            // counts, exactly as the blocking front-end recorded a
            // summary only after a successful flush
            if state.tally == Tally::Conn {
                if let Some(summary) = state.summary.take() {
                    record_summary(shared, state.conn_id, &state.peer, &summary);
                }
            }
        }
        if state.peer_eof || state.linger_until.is_some_and(|until| now >= until) {
            return Step::Close(None);
        }
    }
    Step::Keep
}

/// Advances an HTTP connection's request state machine as far as the
/// buffered bytes allow: parse heads, collect bodies, run `POST /solve`
/// batches through a [`SessionMachine`], emit responses into the outbox,
/// and loop for pipelined keep-alive requests.
#[allow(clippy::too_many_arguments)]
fn step_http(
    shared: &ListenShared,
    mailbox: &Arc<Mailbox>,
    key: usize,
    http: &mut HttpConn,
    outbox: &mut Vec<u8>,
    peer_eof: bool,
    draining: bool,
    conn_id: usize,
    peer: &str,
) -> HttpStep {
    loop {
        match &mut http.state {
            HttpState::Head => {
                let Some(head) = take_head(&mut http.buf) else {
                    if http.buf.len() > MAX_HEAD_BYTES {
                        respond_http_error(outbox, "400 Bad Request", "request head too large");
                        return HttpStep::Finish;
                    }
                    if draining {
                        // the shutdown drain between (or inside) requests
                        // is a clean goodbye, as in the blocking loop
                        return HttpStep::Finish;
                    }
                    if peer_eof {
                        if http.buf.iter().all(|b| matches!(b, b'\r' | b'\n')) {
                            return HttpStep::Finish; // clean close between requests
                        }
                        respond_http_error(outbox, "400 Bad Request", "truncated request head");
                        return HttpStep::Finish;
                    }
                    return HttpStep::Wait;
                };
                let request = match parse_http_head(&head) {
                    Ok(request) => request,
                    Err(HttpError::Malformed(reason)) => {
                        respond_http_error(outbox, "400 Bad Request", &reason);
                        return HttpStep::Finish;
                    }
                    Err(HttpError::Io(e)) => return HttpStep::Abort(format!("io: {e}")),
                };
                let keep_alive = request.keep_alive && !shared.shutdown().is_cancelled();
                match (request.method.as_str(), request.path.as_str()) {
                    ("GET", "/healthz") => match request.content_length {
                        // a body on a probe is unusual but legal; leaving
                        // it unread would corrupt the next request on a
                        // keep-alive connection, so drain it (or give up
                        // on keep-alive when it is unreasonably large)
                        None | Some(0) => {
                            respond_healthz(shared, outbox, keep_alive);
                            if !keep_alive {
                                return HttpStep::Finish;
                            }
                        }
                        Some(length) if length <= MAX_HEAD_BYTES => {
                            http.state = HttpState::Body {
                                request,
                                body: Vec::new(),
                                discard: true,
                                keep_alive,
                            };
                        }
                        Some(_) => {
                            respond_healthz(shared, outbox, false);
                            return HttpStep::Finish;
                        }
                    },
                    ("POST", "/solve") => {
                        let Some(length) = request.content_length else {
                            respond_http_error(
                                outbox,
                                "411 Length Required",
                                "POST /solve needs a Content-Length body",
                            );
                            return HttpStep::Finish;
                        };
                        if length > MAX_BODY_BYTES {
                            respond_http_error(
                                outbox,
                                "413 Content Too Large",
                                "batch body too large",
                            );
                            return HttpStep::Finish;
                        }
                        http.state = HttpState::Body {
                            request,
                            body: Vec::new(),
                            discard: false,
                            keep_alive,
                        };
                    }
                    (_, "/healthz") | (_, "/solve") => {
                        respond_http_error(
                            outbox,
                            "405 Method Not Allowed",
                            "use GET /healthz or POST /solve",
                        );
                        return HttpStep::Finish;
                    }
                    _ => {
                        respond_http_error(
                            outbox,
                            "404 Not Found",
                            "unknown path; this server has /healthz and /solve",
                        );
                        return HttpStep::Finish;
                    }
                }
            }
            HttpState::Body {
                request,
                body,
                discard,
                keep_alive,
            } => {
                let length = request.content_length.unwrap_or(0);
                let take = (length - body.len()).min(http.buf.len());
                body.extend_from_slice(&http.buf[..take]);
                http.buf.drain(..take);
                if body.len() < length {
                    if draining {
                        return HttpStep::Finish; // clean drain mid-body
                    }
                    if peer_eof {
                        return HttpStep::Abort(String::from(
                            "io: connection closed before the full request body arrived",
                        ));
                    }
                    return HttpStep::Wait;
                }
                if *discard {
                    let ka = *keep_alive;
                    respond_healthz(shared, outbox, ka);
                    http.state = HttpState::Head;
                    if !ka {
                        return HttpStep::Finish;
                    }
                } else {
                    let mut machine = new_machine(shared, mailbox, key);
                    machine.feed(body);
                    machine.finish_input();
                    http.state = HttpState::Solving {
                        machine,
                        keep_alive: *keep_alive,
                        response: Vec::new(),
                    };
                }
            }
            HttpState::Solving {
                machine,
                keep_alive,
                response,
            } => {
                machine.pump(response, true);
                if !machine.is_done() {
                    return HttpStep::Wait;
                }
                let summary = match machine.take_result() {
                    Ok(summary) => summary,
                    Err(failure @ ServeError::FailFast { .. }) => {
                        let cause = failure.to_string();
                        let body = format!("{{\"error\": {cause:?}}}\n");
                        write_http_response(
                            outbox,
                            "422 Unprocessable Entity",
                            "application/json",
                            body.as_bytes(),
                            false,
                        )
                        .expect(VEC_WRITE);
                        return HttpStep::Finish;
                    }
                    Err(failure) => return HttpStep::Abort(failure.to_string()),
                };
                response.extend_from_slice(format!("{}\n", summary.to_json_line()).as_bytes());
                let ka = *keep_alive;
                write_http_response(outbox, "200 OK", "application/x-ndjson", response, ka)
                    .expect(VEC_WRITE);
                record_summary(shared, conn_id, peer, &summary);
                http.state = HttpState::Head;
                if !ka {
                    return HttpStep::Finish;
                }
            }
        }
    }
}

/// Takes one complete request head (leading blank lines tolerated, the
/// terminator consumed) off the front of `buf`, or `None` if the
/// terminator has not arrived yet.
fn take_head(buf: &mut Vec<u8>) -> Option<Vec<u8>> {
    let start = buf
        .iter()
        .position(|b| !matches!(b, b'\r' | b'\n'))
        .unwrap_or(buf.len());
    let mut i = start;
    while i < buf.len() {
        if buf[i] == b'\n' {
            let rest = &buf[i + 1..];
            if rest.starts_with(b"\r\n") {
                let head = buf[start..=i].to_vec();
                buf.drain(..i + 3);
                return Some(head);
            }
            if rest.starts_with(b"\n") {
                let head = buf[start..=i].to_vec();
                buf.drain(..i + 2);
                return Some(head);
            }
            if rest.is_empty() {
                break; // possibly mid-terminator; wait for more bytes
            }
        }
        i += 1;
    }
    None
}

/// Writes the outbox's unsent tail until the socket would block.
fn flush_outbox(state: &mut ConnState) -> std::io::Result<()> {
    while state.sent < state.outbox.len() {
        match state.conn.write(&state.outbox[state.sent..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => {
                state.sent += n;
                state.last_write_progress = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    if state.sent == state.outbox.len() {
        state.outbox.clear();
        state.sent = 0;
    } else if state.sent > 64 * 1024 {
        // keep a long-lived slow drain from pinning the written prefix
        state.outbox.drain(..state.sent);
        state.sent = 0;
    }
    Ok(())
}

/// A fresh [`SessionMachine`] whose completion wakes post `key` to this
/// reactor's mailbox.
fn new_machine(shared: &ListenShared, mailbox: &Arc<Mailbox>, key: usize) -> Box<SessionMachine> {
    let mailbox = Arc::clone(mailbox);
    let notify: Arc<dyn Fn() + Send + Sync> = Arc::new(move || mailbox.post_dirty(key));
    Box::new(SessionMachine::new(Arc::clone(&shared.ctx), notify))
}

/// The prefilled outbox of an at-capacity rejection.
fn rejection_bytes(http: bool, max_conns: usize) -> Vec<u8> {
    let message = format!("server at capacity ({max_conns} connections); retry later");
    if http {
        let mut outbox = Vec::new();
        let body = format!("{{\"error\": {message:?}}}\n");
        write_http_response(
            &mut outbox,
            "503 Service Unavailable",
            "application/json",
            body.as_bytes(),
            false,
        )
        .expect(VEC_WRITE);
        outbox
    } else {
        format!("{}\n", error_line(0, None, &message)).into_bytes()
    }
}

fn respond_healthz(shared: &ListenShared, outbox: &mut Vec<u8>, keep_alive: bool) {
    let body = healthz_body(shared);
    write_http_response(
        outbox,
        "200 OK",
        "application/json",
        body.as_bytes(),
        keep_alive,
    )
    .expect(VEC_WRITE);
}

fn respond_http_error(outbox: &mut Vec<u8>, status: &str, reason: &str) {
    let body = format!("{{\"error\": {reason:?}}}\n");
    write_http_response(outbox, status, "application/json", body.as_bytes(), false)
        .expect(VEC_WRITE);
}

/// ` [shard-id]` when this listener has one, empty otherwise — spliced
/// into log lines so a fleet's merged stderr stays attributable.
fn shard_tag(config: &ListenConfig) -> String {
    match &config.shard_id {
        Some(id) => format!(" [{id}]"),
        None => String::new(),
    }
}

/// The `/healthz` body: the honest process-wide capacity picture (worker
/// budget, pool load, connection and outbox gauges) plus the listener's
/// age, solution-cache effectiveness and (when sharded) identity.
fn healthz_body(shared: &ListenShared) -> String {
    let shard = match &shared.config.shard_id {
        Some(id) => {
            let mut quoted = String::new();
            json::write_string(&mut quoted, id);
            quoted
        }
        None => String::from("null"),
    };
    let cache = shared.ctx.solutions.stats();
    // one coherent snapshot: `busy_workers` is clamped to `workers`, so a
    // scrape racing a pool transition never reports more busy workers than
    // exist (the gauge dashboards divide these two)
    let pool = shared.executor().stats();
    format!(
        "{{\"schema_version\": {REPORT_SCHEMA_VERSION}, \"status\": \"ok\", \
         \"workers\": {}, \"busy_workers\": {}, \"queue_depth\": {}, \
         \"active_connections\": {}, \"uptime_ms\": {}, \
         \"open_connections\": {}, \"io_threads\": {}, \"outbox_bytes\": {}, \
         \"solution_cache\": {{\"entries\": {}, \"capacity\": {}, \
         \"hit_rate\": {:.4}, \"warm_starts\": {}}}, \"shard_id\": {shard}}}\n",
        pool.workers,
        pool.busy,
        pool.queued,
        shared.active.load(Ordering::SeqCst),
        shared.started.elapsed().as_millis(),
        shared.open.load(Ordering::SeqCst),
        shared.io_threads,
        shared.outbox_bytes.load(Ordering::SeqCst),
        cache.entries,
        cache.capacity,
        cache.hit_rate(),
        cache.warm_starts,
    )
}

fn record_summary(shared: &ListenShared, conn_id: usize, peer: &str, summary: &BatchSummary) {
    lock_ignoring_poison(&shared.report).absorb(summary);
    match shared.config.log {
        ConnLog::Quiet => {}
        ConnLog::Text => {
            let pool = shared.executor().stats();
            log_line(
                shared.config.log,
                format!(
                    "conn {conn_id}{} ({peer}): {} records ({} solved, {} errors), {} deadline \
                     hits | pool {}/{} busy, {} queued",
                    shard_tag(&shared.config),
                    summary.records,
                    summary.solved,
                    summary.errors,
                    summary.deadline_hits,
                    pool.busy,
                    pool.workers,
                    pool.queued,
                ),
            )
        }
        ConnLog::Json => log_line(shared.config.log, summary.to_json_line()),
    }
}

fn log_line(log: ConnLog, line: String) {
    if log != ConnLog::Quiet {
        eprintln!("{line}");
    }
}
