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
//! Connections are *not* served thread-per-connection. A fixed set of
//! [`IO_THREADS`] I/O reactor threads each run an epoll-backed poll loop
//! (the vendored `polling` shim): reactor 0 owns the accept socket and
//! deals new connections round-robin across the set, and every reactor owns
//! the full life of the connections dealt to it — reading request bytes
//! into the connection's line framer, pumping its session, writing its
//! answers back. A listener session advances on executor workers and calls
//! its [`Notify`] when it has news, which posts a wake to the owning
//! reactor's mailbox. A routed session advances on the reactor itself: it
//! registers its shard streams as [`Sources`] under its connection's poller
//! key, so a shard's answer services the connection just as client bytes
//! do, and its timers ride [`Session::deadline`]. A reactor never solves.
//! Its one blocking call is the router's connect to a shard: bounded by the
//! connect timeout, made only for a shard the router believes healthy, and
//! a failure demotes that shard at once, so an unreachable shard stalls a
//! reactor at most once per demotion (a refused connect returns at once).
//! 500 idle keep-alive connections therefore cost 500 registered file
//! descriptors and [`IO_THREADS`] threads — not 500 threads.
//!
//! # One wire
//!
//! Every socket served here is a [`Wire`]: a client connection, and a
//! routed session's shard stream alike. It holds the bytes owed to its
//! peer, reads within a budget, writes until the socket would block, runs
//! the one stall clock ([`WRITE_TIMEOUT`] from the first blocked write
//! while bytes are owed), and keeps the interest the poller watches it
//! with.
//!
//! # One line framer, one batch arm
//!
//! Whoever reads the bytes frames them: each NDJSON connection and each
//! `POST /solve` body gets one [`Lines`], and a [`Session`] pulls whole
//! lines from it only when it can take them, so no session keeps input
//! bytes or line rules of its own. An HTTP request is framed whole: it is
//! dispatched only once its head and its whole `Content-Length` body (at
//! most [`MAX_BODY_BYTES`]) are buffered, so a batch's waves do not depend
//! on how the reads split it. A `POST /solve` batch then runs in the same
//! arm as an NDJSON connection's — a session over its framer — with its
//! answers collected in the response instead of the outbox; only the
//! completion differs: the trailer and a half-close, or a 200 (a 422 for a
//! FailFast abort) and then the next request.
//!
//! # Two gates
//!
//! Back-pressure is two fixed bounds per connection, one in each
//! direction. The outbox ([`OUTBOX_LIMIT`]): when a client stops reading
//! its responses the outbox fills, the reactor suspends read interest (and
//! asks the session to take no new records) until the backlog drains
//! below half, and a client that stays wedged past [`WRITE_TIMEOUT`] is
//! aborted. The input: while the framer holds a complete line the session
//! has not taken and more than [`INPUT_LIMIT`] bytes, the reactor reads
//! nothing more, so a client that writes faster than its records are
//! answered waits in its own socket. A partial line never stops reads, so
//! a long record still streams in. On HTTP the same bound holds for the
//! bytes buffered beyond the request being collected — pipelined requests
//! waiting behind a `POST /solve` that is still answering; the body being
//! collected is exempt, since it must arrive whole. At-capacity
//! rejections are plain outbox writes on the reactor — an overload floods
//! structured error lines, never threads.
//!
//! Each connection's next deadline — the write timeout, an idle cut
//! ([`ListenConfig::conn_idle_timeout`]), the post-close linger or its
//! session's own — is one `(deadline, key)` entry in an ordered set the
//! poll loop waits on; the process-wide [`ListenConfig::idle_timeout`] is
//! checked on every turn of the loop.
//!
//! NDJSON endpoints sniff the first bytes of a connection: an HTTP `GET `
//! opener is a health probe and gets the one-shot `/healthz` answer. The
//! HTTP mode serves `POST /solve` (NDJSON batch body in, answers plus the
//! summary out as `application/x-ndjson`) and `GET /healthz`, with
//! `Content-Length` bodies and keep-alive. Every HTTP error answer closes
//! the connection.
//!
//! Shutdown is graceful by construction: once the shutdown token fires the
//! accept socket closes, every session gets its end of input, answers what
//! it already took, and its summary goes out as the trailer before the
//! connection closes; [`run`] returns once every connection is gone.

use std::collections::{BTreeSet, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use busytime_core::cancel::CancelToken;
use busytime_instances::json;
use polling::{Event, Interest, Poller, RawFd, Waker};

use crate::engine::{lock_ignoring_poison, BatchSummary, ServeError};
use crate::http::{
    find_head, parse_http_head, write_http_response, HttpRequest, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use crate::lines::Lines;
use crate::listener::{ListenConfig, ListenMode};
use crate::protocol::error_line;

/// Wakes the reactor that owns a session's connection. Called from
/// whatever thread advances the session; it must be cheap and must not
/// block.
pub type Notify = Arc<dyn Fn() + Send + Sync>;

/// A session's own sockets on its connection's reactor: a wire watched
/// here reports under the connection's poller key, so its readiness
/// services the connection just as client bytes or a [`Notify`] wake do.
/// Polling is level-triggered, so a session must read what it watches for
/// reads or stop watching it, and must unwatch a wire before closing it.
pub struct Sources {
    mailbox: Arc<Mailbox>,
    key: usize,
}

impl Sources {
    /// Watches `wire`: for reads while `reading`, for writes while it owes
    /// bytes, and not at all when neither.
    pub fn watch(&self, wire: &mut Wire, reading: bool) -> std::io::Result<()> {
        wire.watch(&self.mailbox.poller, self.key, reading)
    }

    /// Stops watching `wire`.
    pub fn unwatch(&self, wire: &mut Wire) {
        wire.unwatch(&self.mailbox.poller);
    }
}

/// A stream socket a [`Wire`] can own: TCP or Unix-domain.
pub trait Socket: Read + Write + Send {
    /// Makes the socket nonblocking, with Nagle off on TCP.
    fn prepare(&self) -> std::io::Result<()>;
    /// The descriptor the poller watches.
    fn fd(&self) -> RawFd;
    /// Half-closes the write side: the peer reads EOF once the bytes
    /// already written drain.
    fn shutdown_write(&self) -> std::io::Result<()>;
    /// Who is at the other end, for log lines.
    fn peer(&self) -> String;
}

impl Socket for TcpStream {
    fn prepare(&self) -> std::io::Result<()> {
        // accepted sockets do not inherit the acceptor's non-blocking
        // flag on Linux. Nagle is off: a shard's next answer would
        // otherwise wait for the router's delayed ACK of the one before,
        // and stall the in-order fan-in
        self.set_nonblocking(true)?;
        self.set_nodelay(true)
    }

    fn fd(&self) -> RawFd {
        fd_of(self)
    }

    fn shutdown_write(&self) -> std::io::Result<()> {
        self.shutdown(Shutdown::Write)
    }

    fn peer(&self) -> String {
        self.peer_addr()
            .map_or_else(|_| String::from("tcp-peer"), |a| a.to_string())
    }
}

#[cfg(unix)]
impl Socket for UnixStream {
    fn prepare(&self) -> std::io::Result<()> {
        self.set_nonblocking(true)
    }

    fn fd(&self) -> RawFd {
        fd_of(self)
    }

    fn shutdown_write(&self) -> std::io::Result<()> {
        self.shutdown(Shutdown::Write)
    }

    fn peer(&self) -> String {
        String::from("unix-peer")
    }
}

/// One nonblocking socket, served: the bytes owed to its peer, one read
/// within a budget, one write until the socket would block, the stall
/// clock of those writes, and the interest the poller watches it with.
pub struct Wire {
    socket: Box<dyn Socket>,
    /// Bytes owed to the peer; `sent` of them are written.
    out: Vec<u8>,
    sent: usize,
    /// Since when the bytes owed have been unsendable.
    stalled: Option<Instant>,
    /// The interest registered with a poller; `None` is unregistered.
    watched: Option<Interest>,
    half_closed: bool,
}

impl Wire {
    /// Serves `socket`, made nonblocking.
    pub fn new(socket: Box<dyn Socket>) -> std::io::Result<Wire> {
        socket.prepare()?;
        Ok(Wire {
            socket,
            out: Vec::new(),
            sent: 0,
            stalled: None,
            watched: None,
            half_closed: false,
        })
    }

    /// Where bytes owed to the peer are queued. Append only.
    pub fn out(&mut self) -> &mut Vec<u8> {
        &mut self.out
    }

    /// Bytes queued and not yet written.
    pub fn owed(&self) -> usize {
        self.out.len() - self.sent
    }

    /// Reads into `sink` until the socket would block or `budget` bytes
    /// came (level-triggered polling re-reports the rest). `Ok(true)` once
    /// the peer has ended its side.
    pub fn read(&mut self, budget: usize, mut sink: impl FnMut(&[u8])) -> std::io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let mut left = budget;
        while left > 0 {
            match self.socket.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    sink(&chunk[..n]);
                    left = left.saturating_sub(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Writes the bytes owed until the socket would block. The first
    /// blocked write starts the stall clock, and any progress stops it.
    pub fn flush(&mut self) -> std::io::Result<()> {
        while self.sent < self.out.len() {
            match self.socket.write(&self.out[self.sent..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.sent += n;
                    self.stalled = None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.stalled.get_or_insert_with(Instant::now);
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        } else if self.sent > 64 * 1024 {
            // keep a long-lived slow drain from pinning the written prefix
            self.out.drain(..self.sent);
            self.sent = 0;
        }
        Ok(())
    }

    /// When stalled writes reach [`WRITE_TIMEOUT`]: from then on the peer
    /// counts as gone.
    pub fn deadline(&self) -> Option<Instant> {
        self.stalled.map(|since| since + WRITE_TIMEOUT)
    }

    /// Restarts the stall clock, for an owner that stopped reading its
    /// peer and so stalls it itself.
    pub fn restart_stall_clock(&mut self) {
        self.stalled = None;
    }

    /// Half-closes the write side, once.
    pub fn half_close(&mut self) {
        if !self.half_closed {
            let _ = self.socket.shutdown_write();
            self.half_closed = true;
        }
    }

    /// Whether [`Wire::half_close`] was called.
    pub fn half_closed(&self) -> bool {
        self.half_closed
    }

    /// Registers the interest the wire needs under `key`: readable while
    /// `reading`, writable while it owes bytes, and unregistered when
    /// neither (the poller reports a hangup even with no interest, and
    /// nobody would serve it). A refused change keeps the old interest.
    fn watch(&mut self, poller: &Poller, key: usize, reading: bool) -> std::io::Result<()> {
        let writable = self.owed() > 0;
        let want = (reading || writable).then_some(Interest {
            readable: reading,
            writable,
        });
        let fd = self.socket.fd();
        match (self.watched, want) {
            (was, want) if was == want => {}
            (None, Some(interest)) => poller.add(fd, key, interest)?,
            (Some(_), Some(interest)) => poller.modify(fd, key, interest)?,
            (_, None) => poller.delete(fd)?,
        }
        self.watched = want;
        Ok(())
    }

    fn unwatch(&mut self, poller: &Poller) {
        if self.watched.take().is_some() {
            let _ = poller.delete(self.socket.fd());
        }
    }
}

/// One connection's batch, as the reactor drives it. The reactor frames
/// the bytes it reads into the connection's [`Lines`], pumps the session's
/// answers into the connection's outbox, and appends the summary
/// [`Session::take_result`] hands back as the trailer.
pub trait Session: Send + 'static {
    /// Takes the lines it can take off `input`, and appends the answers
    /// that are ready, in input order, to `out`, without blocking.
    /// `allow_parse = false` means the outbox is over its cap: the session
    /// should take no line and make no new work for it until a pump allows
    /// it again.
    fn pump(&mut self, input: &mut Lines, out: &mut Vec<u8>, allow_parse: bool);
    /// The batch is over: fully answered, or aborted.
    fn is_done(&self) -> bool;
    /// The session still owes answers: an idle wire does not mean an idle
    /// session.
    fn has_inflight(&self) -> bool;
    /// Once [`Session::is_done`]: the batch summary, or why the batch
    /// aborted.
    fn take_result(&mut self) -> Result<BatchSummary, ServeError>;
    /// When the session next needs a pump with no help from its sockets or
    /// its [`Notify`]. It joins the connection's deadline.
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
    outbox_bytes: usize,
}

impl std::fmt::Display for Gauges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "\"active_connections\": {}, \"uptime_ms\": {}, \"open_connections\": {}, \
             \"io_threads\": {IO_THREADS}, \"outbox_bytes\": {}",
            self.active, self.uptime_ms, self.open, self.outbox_bytes
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

/// The bound socket, abstracted over the socket family.
enum Acceptor {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Acceptor {
    fn accept(&self) -> std::io::Result<Box<dyn Socket>> {
        match self {
            Acceptor::Tcp(l) => Ok(Box::new(l.accept()?.0)),
            #[cfg(unix)]
            Acceptor::Unix(l, _) => Ok(Box::new(l.accept()?.0)),
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
/// apply: `max_conns`, `idle_timeout` and `conn_idle_timeout`. A Unix
/// socket file is removed on the way out.
pub fn run<S: Service>(
    endpoint: Endpoint,
    service: Arc<S>,
    config: &ListenConfig,
    shutdown: CancelToken,
) -> std::io::Result<Counts> {
    let shared = Arc::new(Shared {
        service,
        config: config.clone(),
        shutdown,
        http: endpoint.http,
        max_conns: match config.max_conns {
            0 => DEFAULT_MAX_CONNS,
            n => n,
        },
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
    let mut mailboxes = Vec::with_capacity(IO_THREADS);
    for _ in 0..IO_THREADS {
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
    for index in 1..IO_THREADS {
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
/// The I/O reactor threads running the readiness loop. Reactor 0 owns the
/// accept socket; connections are dealt round-robin. This bounds
/// socket-handling threads, not solver parallelism — solves always run on
/// the executor's workers.
pub const IO_THREADS: usize = 2;
/// How many bytes of client input a connection holds ahead of its session:
/// past it, with a complete line the session has not taken, the reactor
/// stops reading the connection. The router holds at most this many
/// unwritten request bytes per routed batch.
pub const INPUT_LIMIT: usize = 256 * 1024;
/// How many bytes of answers a connection's outbox holds before the
/// reactor stops reading the connection and its session stops taking new
/// records; reads resume once the client drains it below half. One cap in
/// each direction: equal to [`INPUT_LIMIT`].
pub const OUTBOX_LIMIT: usize = INPUT_LIMIT;
/// How long a wire's owed bytes may sit unsendable: a connection stalled
/// this long is aborted. The bounded outbox keeps a stalled reader from
/// costing more than its cap meanwhile; this reclaims the capacity slot
/// itself.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(60);
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

/// Everything the reactors share: the service, the socket configuration
/// and the cross-reactor gauges behind `/healthz` and the final
/// [`Counts`].
struct Shared<S: Service> {
    service: Arc<S>,
    config: ListenConfig,
    shutdown: CancelToken,
    http: bool,
    max_conns: usize,
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
    conns: Vec<(Wire, usize)>,
    dirty: Vec<usize>,
}

impl Mailbox {
    fn post_conn(&self, wire: Wire, conn_id: usize) {
        lock_ignoring_poison(&self.post).conns.push((wire, conn_id));
        let _ = self.waker.wake();
    }

    fn post_dirty(&self, key: usize) {
        lock_ignoring_poison(&self.post).dirty.push(key);
        let _ = self.waker.wake();
    }

    fn take(&self) -> (Vec<(Wire, usize)>, Vec<usize>) {
        let mut post = lock_ignoring_poison(&self.post);
        (
            std::mem::take(&mut post.conns),
            std::mem::take(&mut post.dirty),
        )
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
    /// the sniffed bytes themselves) is the batch's input.
    Sniff(Vec<u8>),
    /// A batch in progress: its session, its input, and for a
    /// `POST /solve` the HTTP connection it answers.
    Batch(Box<T>, Lines, Option<HttpConn>),
    /// An HTTP/1.1 connection waiting for a whole request.
    Http(HttpConn),
    /// Terminal: flush the outbox, half-close, linger briefly to drain
    /// the client's trailing bytes, then close.
    Flush,
}

/// An HTTP/1.1 connection's framing, kept across its requests.
#[derive(Default)]
struct HttpConn {
    /// Bytes read and not yet dispatched: the request being collected and
    /// the ones pipelined behind it.
    buf: Vec<u8>,
    /// The request being collected, head and whole body, once its head has
    /// arrived: the input gate counts only the bytes of `buf` past it.
    need: usize,
    /// Whether the connection stays open after the `POST /solve` being
    /// answered.
    keep_alive: bool,
    /// That batch's answers so far.
    response: Vec<u8>,
}

/// One registered connection owned by a reactor.
struct ConnState<T> {
    wire: Wire,
    conn_id: usize,
    peer: String,
    kind: Kind<T>,
    tally: Tally,
    /// This connection's contribution to [`Shared::outbox_bytes`].
    gauge: usize,
    /// Reads stopped because the outbox is over the cap (back-pressure).
    read_suspended: bool,
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
    /// Set at half-close: when the post-close drain gives up on a client
    /// that neither reads nor closes.
    linger_until: Option<Instant>,
    /// The deadline this connection has in [`Reactor::timers`].
    timer: Option<Instant>,
}

impl<T: Session> ConnState<T> {
    /// Whether the reactor reads this connection now: not after the
    /// client's end, not while the outbox is over its cap, and not while
    /// the framer holds a complete line and more than [`INPUT_LIMIT`] (or
    /// more than that of pipelined HTTP requests waits).
    fn reads(&mut self) -> bool {
        let input_full = match &mut self.kind {
            Kind::Batch(_, lines, None) => lines.held() > INPUT_LIMIT && lines.has_line(),
            Kind::Batch(_, _, Some(http)) | Kind::Http(http) => {
                http.buf.len() > http.need + INPUT_LIMIT
            }
            Kind::Sniff(_) | Kind::Flush => false,
        };
        !self.read_suspended && !self.peer_eof && !input_full
    }

    /// The server still owes this connection answers — an idle wire does
    /// not mean an idle session.
    fn has_work(&self) -> bool {
        matches!(&self.kind, Kind::Batch(session, ..) if session.has_inflight())
    }

    /// The live session's own deadline, if it has one.
    fn session_deadline(&self) -> Option<Instant> {
        match &self.kind {
            Kind::Batch(session, ..) => session.deadline(),
            _ => None,
        }
    }
}

/// What [`step_conn`] decided about a connection.
enum Step {
    Keep,
    /// Close now; `Some(reason)` reports an abort for real connections.
    Close(Option<String>),
}

/// What [`step_http`] decided about an HTTP connection. An `Err` from it
/// is the status and reason of the error answer it closes with.
enum HttpStep {
    /// Waiting on more bytes.
    Wait,
    /// The connection is done (response written, or a clean end); flush
    /// and close.
    Finish,
    /// A transport-grade failure; close and report.
    Abort(String),
    /// A whole `POST /solve` body, to answer as a batch.
    Solve(Vec<u8>),
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
    /// Every connection's next deadline, soonest first.
    timers: BTreeSet<(Instant, usize)>,
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
            timers: BTreeSet::new(),
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
            for (wire, conn_id) in new_conns {
                // a connection that raced the drain still gets served the
                // polite way — service() under `draining` finishes it
                self.admit(wire, conn_id);
            }
            for key in dirty {
                self.service(key);
            }
            if self.draining && self.conns.is_empty() {
                break;
            }
            let now = Instant::now();
            let later = self.timers.split_off(&(now, usize::MAX));
            for (_, key) in std::mem::replace(&mut self.timers, later) {
                if let Some(state) = self.conns.get_mut(&key) {
                    state.timer = None;
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
            if let Some((next, _)) = self.timers.first() {
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
                Ok(socket) => {
                    *lock_ignoring_poison(&self.shared.last_activity) = Instant::now();
                    // a socket that cannot be made nonblocking is dropped
                    // before it takes a slot
                    let Ok(mut wire) = Wire::new(socket) else {
                        continue;
                    };
                    if self.shared.active.load(Ordering::SeqCst) >= self.shared.max_conns {
                        lock_ignoring_poison(&self.shared.counts).rejected += 1;
                        if self.rejects_open >= REJECT_BACKLOG_CAP {
                            continue; // shed outright
                        }
                        let rejection =
                            rejection_bytes(self.shared.http, S::NOUN, self.shared.max_conns);
                        wire.out().extend_from_slice(&rejection);
                        if let Some(key) = self.register(wire, 0, Kind::Flush, Tally::Reject) {
                            self.service(key);
                        }
                        continue;
                    }
                    self.conn_seq += 1;
                    let conn_id = self.conn_seq;
                    self.shared.active.fetch_add(1, Ordering::SeqCst);
                    let target = self.rr % IO_THREADS;
                    self.rr += 1;
                    if target == self.index {
                        self.admit(wire, conn_id);
                    } else {
                        self.peers[target].post_conn(wire, conn_id);
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
    fn admit(&mut self, wire: Wire, conn_id: usize) {
        let kind = if self.shared.http {
            Kind::Http(HttpConn::default())
        } else {
            Kind::Sniff(Vec::new())
        };
        if let Some(key) = self.register(wire, conn_id, kind, Tally::Conn) {
            self.service(key);
        }
    }

    /// Registers a connection with the poller and the connection map.
    /// Returns `None` (dropping the socket, releasing any capacity slot)
    /// if the poller refuses the fd.
    fn register(
        &mut self,
        mut wire: Wire,
        conn_id: usize,
        kind: Kind<S::Session>,
        tally: Tally,
    ) -> Option<usize> {
        let key = self.next_key;
        self.next_key += 1;
        if wire.watch(&self.mailbox.poller, key, true).is_err() {
            if tally != Tally::Reject {
                *lock_ignoring_poison(&self.shared.last_activity) = Instant::now();
                self.shared.active.fetch_sub(1, Ordering::SeqCst);
            }
            return None;
        }
        let peer = wire.socket.peer();
        self.conns.insert(
            key,
            ConnState {
                wire,
                conn_id,
                peer,
                kind,
                tally,
                gauge: 0,
                read_suspended: false,
                peer_eof: false,
                finished: None,
                last_byte: Instant::now(),
                linger_until: None,
                timer: None,
            },
        );
        self.shared.open.fetch_add(1, Ordering::SeqCst);
        if tally == Tally::Reject {
            self.rejects_open += 1;
        }
        Some(key)
    }

    /// Drives one connection as far as it can go without blocking, then
    /// refreshes its poller interest and its deadline.
    fn service(&mut self, key: usize) {
        let Some(state) = self.conns.get_mut(&key) else {
            return;
        };
        match step_conn(&self.shared, &self.mailbox, key, state, self.draining) {
            Step::Close(abort) => self.close_conn(key, abort),
            Step::Keep => {
                let pending = state.wire.owed();
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
                } else if pending > OUTBOX_LIMIT {
                    state.read_suspended = true;
                } else if pending <= OUTBOX_LIMIT / 2 {
                    state.read_suspended = false;
                }
                let reads = state.reads();
                let _ = state.wire.watch(&self.mailbox.poller, key, reads);
                let when = conn_deadline(&self.shared.config, state);
                if when != state.timer {
                    if let Some(old) = std::mem::replace(&mut state.timer, when) {
                        self.timers.remove(&(old, key));
                    }
                    if let Some(new) = when {
                        self.timers.insert((new, key));
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
        if let Some(when) = state.timer {
            self.timers.remove(&(when, key));
        }
        // best-effort: an aborting batch may still hold answered lines
        let _ = state.wire.flush();
        state.wire.unwatch(&self.mailbox.poller);
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

/// The next instant at which this connection needs attention with no help
/// from the wire: a stalled writer's abort, a quiet client's idle cut, the
/// end of the post-close linger, or the session's own deadline.
fn conn_deadline<T: Session>(config: &ListenConfig, state: &ConnState<T>) -> Option<Instant> {
    let idle = config
        .conn_idle_timeout
        .filter(|_| idle_eligible(state))
        .map(|idle| state.last_byte + idle);
    [
        state.session_deadline(),
        state.wire.deadline(),
        idle,
        state.linger_until,
    ]
    .into_iter()
    .flatten()
    .min()
}

/// The conn-idle clock only runs while the connection is wholly quiet:
/// nothing owed to the client, nothing in flight for it, and the client
/// not yet done. (A flushing connection is governed by the write timeout
/// and the linger instead.)
fn idle_eligible<T: Session>(state: &ConnState<T>) -> bool {
    !state.peer_eof
        && !matches!(state.kind, Kind::Flush)
        && state.wire.owed() == 0
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
    if state.reads() {
        let (kind, last_byte) = (&mut state.kind, &mut state.last_byte);
        let read = state.wire.read(READ_BUDGET, |bytes| {
            *last_byte = now;
            match kind {
                Kind::Sniff(buf)
                | Kind::Http(HttpConn { buf, .. })
                | Kind::Batch(_, _, Some(HttpConn { buf, .. })) => buf.extend_from_slice(bytes),
                Kind::Batch(_, lines, None) => lines.push(bytes),
                Kind::Flush => {} // trailing bytes drain into the void
            }
        });
        match read {
            Ok(ended) => state.peer_eof |= ended,
            Err(e) => {
                return Step::Close(match state.kind {
                    Kind::Flush => None, // response already settled
                    _ => Some(format!("io: {e}")),
                });
            }
        }
    }

    // -- deadlines ---------------------------------------------------------
    if state.wire.deadline().is_some_and(|stall| now >= stall) {
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
                        respond_healthz(shared, state.wire.out(), false);
                        // kind stays Flush
                    } else {
                        let mut lines = Lines::new(shared.shutdown.clone());
                        lines.push(&buf);
                        state.kind = Kind::Batch(shared.open(mailbox, key), lines, None);
                    }
                }
                Kind::Http(mut http) => {
                    let outbox = state.wire.out();
                    match step_http(shared, &mut http, outbox, state.peer_eof, draining) {
                        Ok(HttpStep::Wait) => {
                            state.kind = Kind::Http(http);
                            break;
                        }
                        Ok(HttpStep::Finish) => {} // kind stays Flush
                        Ok(HttpStep::Abort(reason)) => return Step::Close(Some(reason)),
                        Ok(HttpStep::Solve(body)) => {
                            let lines = Lines::whole(body, shared.shutdown.clone());
                            state.kind = Kind::Batch(shared.open(mailbox, key), lines, Some(http));
                        }
                        Err((status, reason)) => http_error(outbox, status, &reason),
                    }
                }
                Kind::Batch(mut session, mut lines, mut http) => {
                    if state.peer_eof || draining {
                        lines.end();
                    }
                    // an HTTP batch answers into its response, which no
                    // gate bounds
                    let allow_parse = http.is_some() || state.wire.owed() <= OUTBOX_LIMIT;
                    pump_gated = !allow_parse;
                    let out = match &mut http {
                        Some(http) => &mut http.response,
                        None => state.wire.out(),
                    };
                    session.pump(&mut lines, out, allow_parse);
                    if !session.is_done() {
                        state.kind = Kind::Batch(session, lines, http);
                        break;
                    }
                    let summary = match session.take_result() {
                        Ok(summary) => summary,
                        Err(failure @ ServeError::FailFast { .. }) if http.is_some() => {
                            let cause = failure.to_string();
                            http_error(state.wire.out(), "422 Unprocessable Entity", &cause);
                            continue; // kind stays Flush
                        }
                        Err(failure) => return Step::Close(Some(failure.to_string())),
                    };
                    let trailer = format!("{}\n", summary.to_json_line());
                    match http {
                        // the trailer, then a half-close; the batch counts
                        // once it is written
                        None => {
                            state.wire.out().extend_from_slice(trailer.as_bytes());
                            state.finished = Some((session, summary));
                        }
                        // one response, then the next request
                        Some(mut http) => {
                            http.response.extend_from_slice(trailer.as_bytes());
                            let (body, keep_alive) = (&http.response, http.keep_alive);
                            let ndjson = "application/x-ndjson";
                            write_http_response(
                                state.wire.out(),
                                "200 OK",
                                ndjson,
                                body,
                                keep_alive,
                            );
                            http.response.clear();
                            shared
                                .service
                                .settle(state.conn_id, &state.peer, &session, &summary);
                            if keep_alive {
                                state.kind = Kind::Http(http);
                            }
                        }
                    }
                }
                Kind::Flush => break,
            }
        }

        // a session with answers in flight is not an idle client
        if state.has_work() || state.wire.owed() > 0 {
            state.last_byte = now;
        }

        if let Err(e) = state.wire.flush() {
            return Step::Close(match state.tally {
                Tally::Conn => Some(format!("io: {e}")),
                _ => None,
            });
        }

        // a flush that reopened the parse gate must re-pump the session:
        // a gated pump with nothing in flight gets no wake, so stopping
        // here would strand its buffered input for good
        if pump_gated && state.wire.owed() <= OUTBOX_LIMIT && matches!(state.kind, Kind::Batch(..))
        {
            continue;
        }
        break;
    }

    // -- endgame -----------------------------------------------------------
    if matches!(state.kind, Kind::Flush) && state.wire.owed() == 0 {
        if !state.wire.half_closed() {
            state.wire.half_close();
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

/// Dispatches an HTTP connection's buffered requests, each once its head
/// and whole body are in: `GET /healthz` answers at once, and a
/// `POST /solve` body is handed back to run as a batch. Loops for
/// pipelined keep-alive requests.
fn step_http<S: Service>(
    shared: &Shared<S>,
    http: &mut HttpConn,
    outbox: &mut Vec<u8>,
    peer_eof: bool,
    draining: bool,
) -> Result<HttpStep, (&'static str, String)> {
    loop {
        http.need = 0;
        let Some((head, body_at)) = find_head(&http.buf) else {
            let blank = http.buf.iter().all(|b| matches!(b, b'\r' | b'\n'));
            return if http.buf.len() > MAX_HEAD_BYTES {
                Err(("400 Bad Request", "request head too large".into()))
            } else if draining || (peer_eof && blank) {
                // the shutdown drain, or a clean close between requests
                Ok(HttpStep::Finish)
            } else if peer_eof {
                Err(("400 Bad Request", "truncated request head".into()))
            } else {
                Ok(HttpStep::Wait)
            };
        };
        let request =
            parse_http_head(&http.buf[head]).map_err(|reason| ("400 Bad Request", reason))?;
        let solve = route(&request).map_err(|(status, reason)| (status, reason.into()))?;
        let length = request.content_length.unwrap_or(0);
        let keep_alive = request.keep_alive && !shared.shutdown.is_cancelled();
        if !solve && length > MAX_HEAD_BYTES {
            // a probe's body too large to read through for keep-alive
            respond_healthz(shared, outbox, false);
            return Ok(HttpStep::Finish);
        }
        http.need = body_at + length;
        if http.buf.len() < http.need {
            return Ok(if draining {
                HttpStep::Finish // clean drain mid-body
            } else if peer_eof {
                HttpStep::Abort(String::from(
                    "io: connection closed before the full request body arrived",
                ))
            } else {
                HttpStep::Wait
            });
        }
        // the body keeps the buffer it arrived in; only the pipelined bytes
        // behind it move
        let rest = http.buf.split_off(http.need);
        let mut body = std::mem::replace(&mut http.buf, rest);
        body.drain(..body_at);
        http.need = 0;
        if solve {
            http.keep_alive = keep_alive;
            return Ok(HttpStep::Solve(body));
        }
        // a probe's body is read through, so keep-alive framing survives
        respond_healthz(shared, outbox, keep_alive);
        if !keep_alive {
            return Ok(HttpStep::Finish);
        }
    }
}

/// The route table: `Ok(true)` for a `POST /solve` batch, `Ok(false)` for
/// a `GET /healthz` probe, or the status and reason of the error answer.
fn route(request: &HttpRequest) -> Result<bool, (&'static str, &'static str)> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Ok(false),
        ("POST", "/solve") => match request.content_length {
            None => Err((
                "411 Length Required",
                "POST /solve needs a Content-Length body",
            )),
            Some(length) if length > MAX_BODY_BYTES => {
                Err(("413 Content Too Large", "batch body too large"))
            }
            Some(_) => Ok(true),
        },
        (_, "/healthz" | "/solve") => {
            Err(("405 Method Not Allowed", "use GET /healthz or POST /solve"))
        }
        _ => Err((
            "404 Not Found",
            "unknown path; this server has /healthz and /solve",
        )),
    }
}

/// The prefilled outbox of an at-capacity rejection.
fn rejection_bytes(http: bool, noun: &str, max_conns: usize) -> Vec<u8> {
    let message = format!("{noun} at capacity ({max_conns} connections); retry later");
    if http {
        let mut outbox = Vec::new();
        http_error(&mut outbox, "503 Service Unavailable", &message);
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
    );
}

/// Writes an error answer, a JSON `{"error": reason}` body, that closes
/// the connection.
fn http_error(outbox: &mut Vec<u8>, status: &str, reason: &str) {
    let mut body = String::from("{\"error\": ");
    json::write_string(&mut body, reason);
    body.push_str("}\n");
    write_http_response(outbox, status, "application/json", body.as_bytes(), false);
}
