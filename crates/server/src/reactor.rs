//! The readiness reactor: the epoll threads that serve every connection of
//! `listen` and `route`.
//!
//! One driver, two strategies. The reactor owns the sockets; a
//! [`Service`] says what the process does with a batch (the listener
//! solves it, the router fans it out to shards), and a [`Session`] is one
//! connection's batch as the reactor drives it. [`run`] is the whole
//! loop: binding is [`Endpoint::bind`], the rest happens on the reactor
//! threads.
//!
//! # The readiness loop
//!
//! Connections are *not* served thread-per-connection. A small fixed set
//! of I/O reactor threads ([`ListenConfig::io_threads`], default 2) each
//! run an epoll-backed poll loop (the vendored `polling` shim): reactor 0
//! owns the accept socket and deals new connections round-robin across
//! the set, and every reactor owns the full life of the connections dealt
//! to it — reading request bytes, feeding them to the connection's
//! session, writing its answers back. A listener session advances on
//! executor workers and calls its [`Notify`] when it has news, which posts
//! a wake to the owning reactor's mailbox. A routed session advances on
//! the reactor itself: it registers its shard streams as [`Sources`]
//! under its connection's poller key, so a shard's answer services the
//! connection just as client bytes do, and its timers ride
//! [`Session::deadline`]. A reactor never solves. Its one blocking call is
//! the router's connect to a shard: bounded by the connect timeout, made
//! only for a shard the router believes healthy, and a failure demotes
//! that shard at once, so an unreachable shard stalls a reactor at most
//! once per demotion (a refused connect returns at once). 500 idle
//! keep-alive connections therefore cost 500 registered file descriptors
//! and `io_threads` threads — not 500 threads.
//!
//! Back-pressure is a bounded per-connection outbox
//! ([`ListenConfig::outbox_limit`]): when a client stops reading its
//! responses the outbox fills, the reactor suspends read interest (and
//! asks the session to take no new records) until the backlog drains
//! below half, and a client that stays wedged past
//! [`ListenConfig::write_timeout`] is aborted. Idle cuts
//! ([`ListenConfig::conn_idle_timeout`]) and the process-wide
//! [`ListenConfig::idle_timeout`] ride a timer wheel inside the poll loop.
//! At-capacity rejections are plain outbox writes on the reactor — an
//! overload floods structured error lines, never threads.
//!
//! NDJSON endpoints sniff the first bytes of a connection: an HTTP `GET `
//! opener is a health probe and gets the one-shot `/healthz` answer. The
//! HTTP mode serves `POST /solve` (NDJSON batch body in, answers plus the
//! summary out as `application/x-ndjson`) and `GET /healthz`, with
//! `Content-Length` bodies and keep-alive, parsed incrementally from the
//! same loop. Every HTTP error answer closes the connection.
//!
//! Shutdown is graceful by construction: once the shutdown token fires the
//! accept socket closes, every session gets its end of input, answers what
//! it already took, and its summary goes out as the trailer before the
//! connection closes; [`run`] returns once every connection is gone.

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
use polling::{Event, Poller, RawFd, Waker};

use crate::engine::{lock_ignoring_poison, BatchSummary, ServeError};
use crate::http::{
    parse_http_head, write_http_response, HttpRequest, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use crate::listener::{ListenConfig, ListenMode};
use crate::protocol::error_line;

/// Wakes the reactor that owns a session's connection. Called from
/// whatever thread advances the session; it must be cheap and must not
/// block.
pub type Notify = Arc<dyn Fn() + Send + Sync>;

pub use polling::Interest;

/// A session's own sockets on its connection's reactor: a stream watched
/// here reports under the connection's poller key, so its readiness
/// services the connection just as client bytes or a [`Notify`] wake do.
/// Polling is level-triggered, so a session must read what it watches for
/// reads or stop watching it, and must unwatch a stream before closing it.
pub struct Sources {
    mailbox: Arc<Mailbox>,
    key: usize,
}

impl Sources {
    /// Moves `stream`'s registration from `was` to `want`; `None` is
    /// unregistered.
    pub fn watch(
        &self,
        stream: &TcpStream,
        was: Option<Interest>,
        want: Option<Interest>,
    ) -> std::io::Result<()> {
        let (poller, fd) = (&self.mailbox.poller, fd_of(stream));
        match (was, want) {
            (None, None) => Ok(()),
            (None, Some(interest)) => poller.add(fd, self.key, interest),
            (Some(_), Some(interest)) => poller.modify(fd, self.key, interest),
            (Some(_), None) => poller.delete(fd),
        }
    }
}

/// One connection's batch, as the reactor drives it. The reactor feeds it
/// the bytes it reads, pumps its answers into the connection's outbox, and
/// appends the summary [`Session::take_result`] hands back as the trailer.
pub trait Session: Send + 'static {
    /// Buffers bytes read from the client. Ignored after
    /// [`Session::finish_input`].
    fn feed(&mut self, bytes: &[u8]);
    /// Marks the client's end of batch: EOF, half-close, idle cut, or a
    /// shutdown drain.
    fn finish_input(&mut self);
    /// Appends the answers that are ready, in input order, to `out`,
    /// without blocking. `allow_parse = false` means the outbox is over
    /// its cap: the session should make no new work for it until a pump
    /// allows it again.
    fn pump(&mut self, out: &mut Vec<u8>, allow_parse: bool);
    /// The batch is over: fully answered, or aborted.
    fn is_done(&self) -> bool;
    /// The session still owes answers: an idle wire does not mean an idle
    /// session.
    fn has_inflight(&self) -> bool;
    /// Once [`Session::is_done`]: the batch summary, or why the batch
    /// aborted.
    fn take_result(&mut self) -> Result<BatchSummary, ServeError>;
    /// When the session next needs a pump with no help from its sockets or
    /// its [`Notify`]. It joins the connection's timer-wheel deadline.
    fn deadline(&self) -> Option<Instant> {
        None
    }
}

/// What differs between the processes the reactor serves.
pub trait Service: Send + Sync + 'static {
    /// One connection's batch.
    type Session: Session;
    /// Who is at capacity, in the rejection message: `server` or `router`.
    const NOUN: &'static str;
    /// Starts a session; `notify` wakes the connection's reactor, and
    /// `sources` registers the session's own sockets with it.
    fn open(&self, notify: Notify, sources: Sources) -> Self::Session;
    /// The `/healthz` body, around the reactor's gauges.
    fn healthz(&self, gauges: &Gauges) -> String;
    /// A batch's answers and trailer went out: count it and log it.
    fn settle(&self, conn_id: usize, peer: &str, session: &Self::Session, summary: &BatchSummary);
    /// A connection ended on a failure; `reason` says which.
    fn abort(&self, conn_id: usize, peer: &str, reason: &str);
}

/// The reactor's `/healthz` gauges. Displays as the JSON fields every
/// health body carries: `active_connections`, `uptime_ms`,
/// `open_connections`, `io_threads` and `outbox_bytes`.
pub struct Gauges {
    active: usize,
    uptime_ms: u128,
    open: usize,
    io_threads: usize,
    outbox_bytes: usize,
}

impl std::fmt::Display for Gauges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "\"active_connections\": {}, \"uptime_ms\": {}, \"open_connections\": {}, \
             \"io_threads\": {}, \"outbox_bytes\": {}",
            self.active, self.uptime_ms, self.open, self.io_threads, self.outbox_bytes
        )
    }
}

/// What the reactor counts over a run. The service counts what the
/// sessions did.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Connections served to completion, or to a transport error.
    pub connections: usize,
    /// Connections refused at the [`ListenConfig::max_conns`] cap.
    pub rejected: usize,
    /// One-shot `GET` health probes answered on an NDJSON endpoint.
    pub health_probes: usize,
}

/// A socket's descriptor, as the poller keys it.
#[cfg(unix)]
fn fd_of(socket: &impl std::os::fd::AsRawFd) -> RawFd {
    socket.as_raw_fd()
}

/// The poller itself is Unsupported off Unix: nothing is ever polled.
#[cfg(not(unix))]
fn fd_of<T>(_: &T) -> RawFd {
    -1
}

/// One accepted connection, abstracted over the socket family.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn prepare(&self) -> std::io::Result<()> {
        // accepted sockets do not inherit the acceptor's non-blocking
        // flag on Linux — it must be set per connection. Nagle is off: a
        // shard's next answer would otherwise wait for the router's
        // delayed ACK of the one before, and stall the in-order fan-in
        match self {
            Conn::Tcp(s) => s.set_nonblocking(true).and_then(|()| s.set_nodelay(true)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(true),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Conn::Tcp(s) => fd_of(s),
            #[cfg(unix)]
            Conn::Unix(s) => fd_of(s),
        }
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

    fn raw_fd(&self) -> RawFd {
        match self {
            Acceptor::Tcp(l) => fd_of(l),
            #[cfg(unix)]
            Acceptor::Unix(l, _) => fd_of(l),
        }
    }
}

/// A bound endpoint, ready for [`run`]: the socket of a [`ListenMode`]
/// and whether it speaks HTTP.
pub struct Endpoint {
    acceptor: Acceptor,
    http: bool,
}

impl Endpoint {
    /// Binds `mode`'s socket. It is open once this returns: clients may
    /// connect and are served once [`run`] starts.
    pub fn bind(mode: &ListenMode) -> std::io::Result<Endpoint> {
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
        Ok(Endpoint { acceptor, http })
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

    /// A URL-ish description of the endpoint, e.g. `tcp://127.0.0.1:7171`,
    /// `http://127.0.0.1:8080` or `unix:///run/busytime.sock`.
    pub fn url(&self) -> String {
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
}

fn bind_tcp(addr: &str) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{addr}: {e}")))?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// Serves `endpoint` for `service` until `shutdown` fires or
/// [`ListenConfig::idle_timeout`] elapses, drains every connection, and
/// returns what the reactor counted. Of `config` only the socket fields
/// apply: `max_conns`, `io_threads`, `outbox_limit`, `idle_timeout`,
/// `conn_idle_timeout` and `write_timeout`. A Unix socket file is removed
/// on the way out.
pub fn run<S: Service>(
    endpoint: Endpoint,
    service: Arc<S>,
    config: &ListenConfig,
    shutdown: CancelToken,
) -> std::io::Result<Counts> {
    let or_default = |value: usize, default: usize| if value == 0 { default } else { value };
    let io_threads = or_default(config.io_threads, DEFAULT_IO_THREADS);
    let shared = Arc::new(Shared {
        service,
        config: config.clone(),
        shutdown,
        http: endpoint.http,
        max_conns: or_default(config.max_conns, DEFAULT_MAX_CONNS),
        io_threads,
        outbox_limit: or_default(config.outbox_limit, DEFAULT_OUTBOX_LIMIT),
        active: AtomicUsize::new(0),
        open: AtomicUsize::new(0),
        outbox_bytes: AtomicUsize::new(0),
        counts: Mutex::default(),
        last_activity: Mutex::new(Instant::now()),
        started: Instant::now(),
    });

    // every reactor gets its poller and wakeable mailbox up front, so the
    // acceptor can deal connections (and sessions can post wakes) before a
    // reactor has even scheduled
    let mut mailboxes = Vec::with_capacity(io_threads);
    for _ in 0..io_threads {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, KEY_WAKER)?;
        mailboxes.push(Arc::new(Mailbox {
            poller,
            waker,
            post: Mutex::new(Post::default()),
        }));
    }
    #[cfg(unix)]
    let unix_path = match &endpoint.acceptor {
        Acceptor::Unix(_, path) => Some(path.clone()),
        Acceptor::Tcp(_) => None,
    };
    mailboxes[0]
        .poller
        .add(endpoint.acceptor.raw_fd(), KEY_ACCEPT, Interest::READ)?;

    let mut threads = Vec::new();
    for index in 1..io_threads {
        let reactor = Reactor::new(&shared, &mailboxes, index, None);
        threads.push(
            std::thread::Builder::new()
                .name(format!("busytime-io-{index}"))
                .spawn(move || reactor.run())?,
        );
    }
    let reactor0 = Reactor::new(&shared, &mailboxes, 0, Some(endpoint.acceptor));
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
        None => Ok(*lock_ignoring_poison(&shared.counts)),
    }
}

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
/// survives in flight. An EOF from the client short-circuits it.
const LINGER: Duration = Duration::from_millis(150);
/// Upper bound on one poll wait: the cadence at which reactors notice the
/// shutdown token and the process-wide idle timeout.
const POLL_GRANULARITY: Duration = Duration::from_millis(20);
/// Simultaneously-open polite rejections per reactor; past this a connect
/// flood is being shed and further connections are dropped outright —
/// overload must not mint unbounded connection state (it already cannot
/// mint threads).
const REJECT_BACKLOG_CAP: usize = 1024;
/// `expect` message for writes into a `Vec<u8>` outbox.
const VEC_WRITE: &str = "writing to a Vec cannot fail";

/// Everything the reactors share: the service, the socket configuration
/// and the cross-reactor gauges behind `/healthz` and the final
/// [`Counts`].
struct Shared<S: Service> {
    service: Arc<S>,
    config: ListenConfig,
    shutdown: CancelToken,
    http: bool,
    max_conns: usize,
    io_threads: usize,
    outbox_limit: usize,
    /// Connections holding a capacity slot (everything but rejections).
    active: AtomicUsize,
    /// Every socket registered with a reactor, rejections included — the
    /// `/healthz` `open_connections` gauge.
    open: AtomicUsize,
    /// Total bytes queued in connection outboxes, process-wide — the
    /// `/healthz` back-pressure gauge.
    outbox_bytes: AtomicUsize,
    counts: Mutex<Counts>,
    last_activity: Mutex<Instant>,
    /// When the reactor started serving, for the `/healthz` uptime field.
    started: Instant,
}

impl<S: Service> Shared<S> {
    fn healthz(&self) -> String {
        self.service.healthz(&Gauges {
            active: self.active.load(Ordering::SeqCst),
            uptime_ms: self.started.elapsed().as_millis(),
            open: self.open.load(Ordering::SeqCst),
            io_threads: self.io_threads,
            outbox_bytes: self.outbox_bytes.load(Ordering::SeqCst),
        })
    }

    /// A fresh session whose wakes post `key` to `mailbox`, and whose
    /// own sockets report under `key` on the mailbox's poller.
    fn open(&self, mailbox: &Arc<Mailbox>, key: usize) -> Box<S::Session> {
        let sources = Sources {
            mailbox: Arc::clone(mailbox),
            key,
        };
        let mailbox = Arc::clone(mailbox);
        let notify: Notify = Arc::new(move || mailbox.post_dirty(key));
        Box::new(self.service.open(notify, sources))
    }
}

/// A reactor's shareable half: its poller, on which sessions register
/// their own sockets, and its cross-thread inbox: the acceptor deals fresh
/// connections in, sessions post the keys of connections that have news,
/// and either post rings the eventfd to wake the poll loop.
struct Mailbox {
    poller: Poller,
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

/// How a connection is counted in the [`Counts`] when it closes.
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
enum Kind<T> {
    /// NDJSON endpoints sniff the first bytes: an HTTP `GET ` opener
    /// means a health probe (a router, `curl`) reached the NDJSON port
    /// and gets the one-shot `/healthz` answer; anything else (including
    /// the sniffed bytes themselves) feeds the batch session unchanged.
    Sniff(Vec<u8>),
    /// An NDJSON batch session in progress.
    Ndjson(Box<T>),
    /// An HTTP/1.1 connection (requests parsed incrementally).
    Http(Box<HttpConn<T>>),
    /// Terminal: flush the outbox, half-close, linger briefly to drain
    /// the client's trailing bytes, then close.
    Flush,
}

/// One registered connection owned by a reactor.
struct ConnState<T> {
    conn: Conn,
    conn_id: usize,
    peer: String,
    kind: Kind<T>,
    tally: Tally,
    /// Bytes owed to the client; `sent` of them are already written.
    outbox: Vec<u8>,
    sent: usize,
    /// This connection's contribution to [`Shared::outbox_bytes`].
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
    /// A finished NDJSON session and its summary, settled once the
    /// outbox flush completes: a batch counts only after its trailer
    /// reached the socket.
    finished: Option<(Box<T>, BatchSummary)>,
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

impl<T: Session> ConnState<T> {
    fn pending(&self) -> usize {
        self.outbox.len() - self.sent
    }

    /// The server still owes this connection answers — an idle wire does
    /// not mean an idle session.
    fn has_work(&self) -> bool {
        match &self.kind {
            Kind::Ndjson(session) => session.has_inflight(),
            Kind::Http(http) => matches!(http.state, HttpState::Solving { .. }),
            Kind::Sniff(_) | Kind::Flush => false,
        }
    }

    /// The live session's own deadline, if it has one.
    fn session_deadline(&self) -> Option<Instant> {
        match &self.kind {
            Kind::Ndjson(session) => session.deadline(),
            Kind::Http(http) => match &http.state {
                HttpState::Solving { session, .. } => session.deadline(),
                _ => None,
            },
            Kind::Sniff(_) | Kind::Flush => None,
        }
    }
}

/// An HTTP/1.1 connection's incremental parse state.
struct HttpConn<T> {
    /// Raw bytes not yet consumed by the current state.
    buf: Vec<u8>,
    state: HttpState<T>,
}

enum HttpState<T> {
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
    /// A `POST /solve` batch in a session; its answers accumulate in
    /// `response` until the summary lands.
    Solving {
        session: Box<T>,
        keep_alive: bool,
        response: Vec<u8>,
    },
}

/// What [`step_conn`] decided about a connection.
enum Step {
    Keep,
    /// Close now; `Some(reason)` reports an abort for real connections.
    Close(Option<String>),
}

/// What [`step_http`] decided about an HTTP connection.
enum HttpStep {
    /// Waiting on more bytes or on the session.
    Wait,
    /// The connection is done (response written, or a clean end); flush
    /// and close.
    Finish,
    /// A transport-grade failure; close and report.
    Abort(String),
}

/// One I/O thread: an epoll loop owning a share of the connections.
/// Reactor 0 additionally owns the accept socket and deals new
/// connections round-robin across the set.
struct Reactor<S: Service> {
    shared: Arc<Shared<S>>,
    mailbox: Arc<Mailbox>,
    /// Every reactor's mailbox, indexed by reactor; the acceptor's
    /// dealing table.
    peers: Vec<Arc<Mailbox>>,
    index: usize,
    acceptor: Option<Acceptor>,
    conns: HashMap<usize, ConnState<S::Session>>,
    timers: TimerWheel,
    next_key: usize,
    /// Served-connection ids (reactor 0 only).
    conn_seq: usize,
    /// Round-robin cursor over `peers` (reactor 0 only).
    rr: usize,
    rejects_open: usize,
    draining: bool,
    fatal: Option<std::io::Error>,
}

impl<S: Service> Reactor<S> {
    fn new(
        shared: &Arc<Shared<S>>,
        peers: &[Arc<Mailbox>],
        index: usize,
        acceptor: Option<Acceptor>,
    ) -> Reactor<S> {
        Reactor {
            shared: Arc::clone(shared),
            mailbox: Arc::clone(&peers[index]),
            peers: peers.to_vec(),
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
            if self.shared.shutdown.is_cancelled() && !self.draining {
                self.draining = true;
                if let Some(acceptor) = &self.acceptor {
                    let _ = self.mailbox.poller.delete(acceptor.raw_fd());
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
                self.admit(conn, conn_id);
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
                        self.shared.shutdown.cancel();
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
                .mailbox
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
                    self.shared.shutdown.cancel();
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
                    let _ = conn.prepare();
                    if self.shared.active.load(Ordering::SeqCst) >= self.shared.max_conns {
                        lock_ignoring_poison(&self.shared.counts).rejected += 1;
                        if self.rejects_open >= REJECT_BACKLOG_CAP {
                            continue; // shed outright
                        }
                        let outbox =
                            rejection_bytes(self.shared.http, S::NOUN, self.shared.max_conns);
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
                        self.admit(conn, conn_id);
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
                    self.shared.shutdown.cancel();
                    break;
                }
            }
        }
        self.acceptor = Some(acceptor);
    }

    /// Registers a connection that holds a capacity slot and serves it.
    fn admit(&mut self, conn: Conn, conn_id: usize) {
        let kind = if self.shared.http {
            Kind::Http(Box::new(HttpConn {
                buf: Vec::new(),
                state: HttpState::Head,
            }))
        } else {
            Kind::Sniff(Vec::new())
        };
        if let Some(key) = self.register(conn, conn_id, kind, Tally::Conn, Vec::new()) {
            self.service(key);
        }
    }

    /// Registers a connection with the poller and the connection map.
    /// Returns `None` (dropping the socket, releasing any capacity slot)
    /// if the poller refuses the fd.
    fn register(
        &mut self,
        conn: Conn,
        conn_id: usize,
        kind: Kind<S::Session>,
        tally: Tally,
        outbox: Vec<u8>,
    ) -> Option<usize> {
        let key = self.next_key;
        self.next_key += 1;
        let added = self.mailbox.poller.add(conn.raw_fd(), key, Interest::READ);
        if added.is_err() {
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
                finished: None,
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
                        .mailbox
                        .poller
                        .modify(state.conn.raw_fd(), key, interest_of(want))
                        .is_ok()
                {
                    state.interest = want;
                }
                match conn_deadline(&self.shared.config, state) {
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

    /// Deregisters and drops a connection, settling its count:
    /// connections count once at close, probes count separately, and
    /// rejections were counted at accept.
    fn close_conn(&mut self, key: usize, abort: Option<String>) {
        let Some(mut state) = self.conns.remove(&key) else {
            return;
        };
        // best-effort: an aborting batch may still hold answered lines
        if !state.half_closed {
            let _ = flush_outbox(&mut state);
        }
        let _ = self.mailbox.poller.delete(state.conn.raw_fd());
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
            Tally::Probe => lock_ignoring_poison(&self.shared.counts).health_probes += 1,
            Tally::Conn => {
                lock_ignoring_poison(&self.shared.counts).connections += 1;
                match abort {
                    Some(reason) => self
                        .shared
                        .service
                        .abort(state.conn_id, &state.peer, &reason),
                    // normally settled at half-close; this is the
                    // close-raced-the-flush path
                    None => settle(&self.shared, &mut state),
                }
            }
        }
        *lock_ignoring_poison(&self.shared.last_activity) = Instant::now();
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Hands a finished NDJSON session to the service, once.
fn settle<S: Service>(shared: &Shared<S>, state: &mut ConnState<S::Session>) {
    if let Some((session, summary)) = state.finished.take() {
        shared
            .service
            .settle(state.conn_id, &state.peer, &session, &summary);
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
/// from the wire: a stalled writer's abort, a quiet client's idle cut, the
/// end of the post-close linger, or the session's own deadline.
fn conn_deadline<T: Session>(config: &ListenConfig, state: &ConnState<T>) -> Option<Instant> {
    let mut deadline = state.session_deadline();
    if state.pending() > 0 && !state.half_closed {
        deadline = min_deadline(deadline, state.last_write_progress + config.write_timeout);
    }
    if let Some(idle) = config.conn_idle_timeout {
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
fn idle_eligible<T: Session>(state: &ConnState<T>) -> bool {
    !state.peer_eof
        && !matches!(state.kind, Kind::Flush)
        && state.pending() == 0
        && !state.has_work()
}

/// Drives one connection: read, enforce deadlines, advance the protocol
/// state machine, flush, and settle the endgame (half-close → linger →
/// close). Never blocks.
fn step_conn<S: Service>(
    shared: &Shared<S>,
    mailbox: &Arc<Mailbox>,
    key: usize,
    state: &mut ConnState<S::Session>,
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
                        Kind::Ndjson(session) => session.feed(&scratch[..n]),
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
                        respond_healthz(shared, &mut state.outbox, false);
                        // kind stays Flush
                    } else {
                        let mut session = shared.open(mailbox, key);
                        session.feed(&buf);
                        state.kind = Kind::Ndjson(session);
                    }
                }
                Kind::Ndjson(mut session) => {
                    if state.peer_eof || draining {
                        session.finish_input();
                    }
                    let allow_parse = state.outbox.len() - state.sent <= shared.outbox_limit;
                    pump_gated = !allow_parse;
                    session.pump(&mut state.outbox, allow_parse);
                    if !session.is_done() {
                        state.kind = Kind::Ndjson(session);
                        break;
                    }
                    let summary = match session.take_result() {
                        Ok(summary) => summary,
                        Err(failure) => return Step::Close(Some(failure.to_string())),
                    };
                    state
                        .outbox
                        .extend_from_slice(format!("{}\n", summary.to_json_line()).as_bytes());
                    state.finished = Some((session, summary));
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

        // a flush that reopened the parse gate must re-pump the session:
        // a gated pump with nothing in flight gets no wake, so stopping
        // here would strand its buffered input for good
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
            // counts
            settle(shared, state);
        }
        if state.peer_eof || state.linger_until.is_some_and(|until| now >= until) {
            return Step::Close(None);
        }
    }
    Step::Keep
}

/// Advances an HTTP connection's request state machine as far as the
/// buffered bytes allow: parse heads, collect bodies, run `POST /solve`
/// batches through a session, emit responses into the outbox, and loop
/// for pipelined keep-alive requests.
#[allow(clippy::too_many_arguments)]
fn step_http<S: Service>(
    shared: &Shared<S>,
    mailbox: &Arc<Mailbox>,
    key: usize,
    http: &mut HttpConn<S::Session>,
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
                        // is a clean goodbye
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
                    Err(reason) => {
                        respond_http_error(outbox, "400 Bad Request", &reason);
                        return HttpStep::Finish;
                    }
                };
                let keep_alive = request.keep_alive && !shared.shutdown.is_cancelled();
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
                    let mut session = shared.open(mailbox, key);
                    session.feed(body);
                    session.finish_input();
                    http.state = HttpState::Solving {
                        session,
                        keep_alive: *keep_alive,
                        response: Vec::new(),
                    };
                }
            }
            HttpState::Solving {
                session,
                keep_alive,
                response,
            } => {
                session.pump(response, true);
                if !session.is_done() {
                    return HttpStep::Wait;
                }
                let summary = match session.take_result() {
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
                shared.service.settle(conn_id, peer, session, &summary);
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
fn flush_outbox<T>(state: &mut ConnState<T>) -> std::io::Result<()> {
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

/// The prefilled outbox of an at-capacity rejection.
fn rejection_bytes(http: bool, noun: &str, max_conns: usize) -> Vec<u8> {
    let message = format!("{noun} at capacity ({max_conns} connections); retry later");
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

fn respond_healthz<S: Service>(shared: &Shared<S>, outbox: &mut Vec<u8>, keep_alive: bool) {
    let body = shared.healthz();
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
