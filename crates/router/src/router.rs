//! The router front-end: accept client batches on one endpoint, fan
//! records out across the shard fleet, fan responses back **in input
//! order**, and merge the shards' summary trailers into one.
//!
//! The wire contract is exactly the listener's: NDJSON in, one response
//! line per record in input order, one [`BatchSummary`] trailer line per
//! connection, `GET /healthz` answered on the same port (sniffed on
//! NDJSON endpoints, routed in `--http` mode). A client cannot tell a
//! router from a single `listen` process — except that the trailer's
//! `workers` field now sums the fleet.
//!
//! Ordering is restored per connection by a sequence number assigned at
//! dispatch: shard responses are restamped with the client's original
//! `line` via [`reline_output`] (no re-parse, no re-serialize) and held
//! in a small reorder buffer until every earlier record has answered.
//!
//! Failure model: a broken shard write or a shard that dies mid-batch
//! orphans its unanswered records; orphans are re-dispatched to a healthy
//! shard with their original `line` stamps, so the client still sees every
//! record answered exactly once, in order. Only when no healthy shard
//! remains does a record answer as a structured error line.
//!
//! Connections are served by the listener's [readiness
//! reactor](busytime_server::reactor): accepting, sniffing, health probes,
//! HTTP framing, capacity rejections, the bounded outbox and the drain
//! cost no thread, exactly as on `listen`. The router is the reactor's
//! routing [`Service`]: a connection's batch runs the fan-out/fan-in
//! engine below on one session thread, which reads the bytes the reactor
//! feeds it through a pipe and answers into a buffer the reactor drains
//! when woken. Each shard stream the session opens adds one reader thread,
//! scoped to the batch.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use busytime_core::cancel::CancelToken;
use busytime_core::solve::REPORT_SCHEMA_VERSION;
use busytime_instances::json::{self, Value};
use busytime_server::protocol::error_line;
use busytime_server::reactor::{self, Endpoint, Gauges, Notify, Service, Session};
use busytime_server::{reline_output, BatchSummary, ListenConfig, ListenMode, ServeError};

use crate::shard::{connect, lock, pick, ShardState};

/// Router configuration. [`Default`] is ready for production use.
#[derive(Clone, Debug)]
pub struct RouteConfig {
    /// Max concurrent client connections (`0` = 64). Beyond it, new
    /// connections get a polite structured rejection.
    pub max_conns: usize,
    /// Pin each client connection to one shard instead of balancing
    /// per record. Sticky mode keeps a shard's solution cache hot for a
    /// client that re-sends similar instances; per-record mode (default)
    /// spreads one big batch across the whole fleet.
    pub sticky: bool,
    /// How often the background prober refreshes every shard's
    /// `/healthz` snapshot.
    pub probe_interval: Duration,
    /// Per-probe budget (connect + request + response).
    pub probe_timeout: Duration,
    /// Budget for opening a shard connection on the dispatch path.
    pub connect_timeout: Duration,
    /// Read timeout on shard streams: the cadence at which a shard reader
    /// notices shutdown and starts its drain budget. Client reads need
    /// none; the reactor reacts to readable sockets.
    pub read_timeout: Duration,
    /// Write timeout towards shards, and the longest a client's outbox
    /// may make no write progress before the connection is aborted: a
    /// peer that stops reading for this long is treated as gone.
    pub write_timeout: Duration,
    /// How many times an orphaned record may chase a new shard after the
    /// client's batch is fully read before answering as an error.
    pub retry_rounds: usize,
    /// Suppress per-connection stderr log lines.
    pub quiet: bool,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            max_conns: 0,
            sticky: false,
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(60),
            retry_rounds: 3,
            quiet: false,
        }
    }
}

/// Aggregate statistics over a router's lifetime, returned by
/// [`Router::run`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteReport {
    /// Client connections served (health probes not included).
    pub connections: usize,
    /// Connections rejected at capacity.
    pub rejected: usize,
    /// Records dispatched to shards.
    pub records: usize,
    /// Records re-dispatched after a shard broke under them.
    pub retried: usize,
    /// Records answered with a router-side error because no healthy shard
    /// remained.
    pub failed: usize,
    /// One-shot `GET /healthz` probes answered on the NDJSON endpoint.
    pub health_probes: usize,
}

impl std::fmt::Display for RouteReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "router: {} connections ({} rejected) | {} records routed ({} retried, {} failed)",
            self.connections, self.rejected, self.records, self.retried, self.failed,
        )?;
        if self.health_probes > 0 {
            write!(f, " | health probes: {}", self.health_probes)?;
        }
        Ok(())
    }
}

/// Answer bytes a routed session may queue ahead of the reactor's pump;
/// past this its writers wait, so the outbox overshoots its cap by at
/// most this much.
const PIPE_CAP: usize = 64 * 1024;

/// How long a shard reader keeps draining responses after shutdown is
/// signalled — in-flight solves finish cooperatively on the shard, and
/// cutting their answers off here would orphan records for no reason.
const SHARD_DRAIN_BUDGET: Duration = Duration::from_secs(10);

/// The shard-routing front-end; see the [module docs](self) for the wire
/// and failure contracts.
pub struct Router {
    endpoint: Endpoint,
    shards: Vec<Arc<ShardState>>,
    config: RouteConfig,
    shutdown: CancelToken,
}

impl Router {
    /// Binds `mode`'s endpoint in front of `shards`. The socket is open
    /// once this returns; clients are served once [`Router::run`] starts.
    pub fn bind(
        mode: &ListenMode,
        shards: Vec<Arc<ShardState>>,
        config: RouteConfig,
    ) -> std::io::Result<Router> {
        if shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one shard",
            ));
        }
        Ok(Router {
            endpoint: Endpoint::bind(mode)?,
            shards,
            config,
            shutdown: CancelToken::never(),
        })
    }

    /// The actually-bound TCP address (resolves `:0` ephemeral ports);
    /// `None` for Unix-domain endpoints.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.endpoint.local_addr()
    }

    /// A URL-ish description of the bound endpoint.
    pub fn endpoint(&self) -> String {
        self.endpoint.url()
    }

    /// The shutdown token: cancel it (from a signal handler thread, a
    /// supervisor, a test) to drain and stop the router.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// Accepts and routes connections until the shutdown token fires,
    /// then drains every live connection, joins every session thread and
    /// returns the aggregate report. The caller's thread runs reactor 0;
    /// a background prober keeps every shard's health snapshot fresh for
    /// the whole run.
    pub fn run(self) -> std::io::Result<RouteReport> {
        let service = Arc::new(RouteService {
            shards: self.shards,
            config: self.config,
            shutdown: self.shutdown.clone(),
            report: Mutex::default(),
            sessions: Mutex::default(),
        });
        let prober = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || run_prober(&service))
        };
        let limits = ListenConfig {
            max_conns: service.config.max_conns,
            write_timeout: service.config.write_timeout,
            ..ListenConfig::default()
        };
        let counts = reactor::run(self.endpoint, Arc::clone(&service), &limits, self.shutdown);
        service.shutdown.cancel();
        for handle in std::mem::take(&mut *lock(&service.sessions)) {
            let _ = handle.join();
        }
        let _ = prober.join();
        let counts = counts?;
        let mut report = lock(&service.report).clone();
        report.connections = counts.connections;
        report.rejected = counts.rejected;
        report.health_probes = counts.health_probes;
        Ok(report)
    }
}

/// The background health loop: one `/healthz` round trip per shard per
/// interval. A spawned shard that has not reported an address yet is
/// skipped without charging its failure streak — not-born-yet is not
/// unhealthy.
fn run_prober(service: &RouteService) {
    while !service.shutdown.is_cancelled() {
        for shard in &service.shards {
            if service.shutdown.is_cancelled() {
                return;
            }
            if shard.addr().is_empty() {
                continue;
            }
            let _ = shard.check(service.config.probe_timeout);
        }
        let mut slept = Duration::ZERO;
        while slept < service.config.probe_interval && !service.shutdown.is_cancelled() {
            let slice = Duration::from_millis(25).min(service.config.probe_interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// The router as the reactor's [`Service`]: every session routes one
/// batch across the fleet on its own thread.
struct RouteService {
    shards: Vec<Arc<ShardState>>,
    config: RouteConfig,
    shutdown: CancelToken,
    report: Mutex<RouteReport>,
    /// Session threads not known to have finished; [`Router::run`] joins
    /// them all.
    sessions: Mutex<Vec<JoinHandle<()>>>,
}

impl RouteService {
    fn log(&self, line: String) {
        if !self.config.quiet {
            eprintln!("{line}");
        }
    }
}

impl Service for RouteService {
    type Session = RouteSession;
    const NOUN: &'static str = "router";

    fn open(&self, notify: Notify) -> RouteSession {
        let pipe = Arc::new(Pipe {
            state: Mutex::default(),
            stir: Condvar::new(),
            notify,
        });
        let (theirs, shards) = (Arc::clone(&pipe), self.shards.clone());
        let (config, shutdown) = (self.config.clone(), self.shutdown.clone());
        let handle = std::thread::spawn(move || {
            // a panic must still end the session, or its connection (and
            // the drain) would wait for it forever
            let done = catch_unwind(AssertUnwindSafe(|| {
                route_session(&theirs, &shards, &config, &shutdown)
            }));
            lock(&theirs.state).done = Some(done);
            (theirs.notify)();
        });
        let mut sessions = lock(&self.sessions);
        sessions.retain(|session| !session.is_finished());
        sessions.push(handle);
        RouteSession {
            pipe,
            end: None,
            stats: None,
        }
    }

    /// Fleet-level status plus the summed capacity picture from the
    /// latest shard snapshots, around the router's own reactor gauges.
    fn healthz(&self, gauges: &Gauges) -> String {
        let healthy = self.shards.iter().filter(|s| s.is_healthy()).count();
        let status = if healthy == self.shards.len() {
            "ok"
        } else if healthy > 0 {
            "degraded"
        } else {
            "down"
        };
        let (mut workers, mut busy, mut queue) = (0usize, 0usize, 0usize);
        for shard in &self.shards {
            if let Some(snap) = shard.snapshot() {
                workers += snap.workers;
                busy += snap.busy_workers;
                queue += snap.queue_depth;
            }
        }
        format!(
            "{{\"schema_version\": {REPORT_SCHEMA_VERSION}, \"status\": \"{status}\", \
             \"role\": \"router\", \"shards\": {}, \"healthy_shards\": {healthy}, \
             \"workers\": {workers}, \"busy_workers\": {busy}, \"queue_depth\": {queue}, \
             {gauges}}}\n",
            self.shards.len(),
        )
    }

    fn settle(&self, conn_id: usize, peer: &str, session: &RouteSession, _: &BatchSummary) {
        let Some(stats) = &session.stats else { return };
        {
            let mut report = lock(&self.report);
            report.records += stats.records;
            report.retried += stats.retried;
            report.failed += stats.failed;
        }
        self.log(format!(
            "conn {conn_id} ({peer}): {} records routed ({} retried, {} failed) \
             across {} healthy shards",
            stats.records,
            stats.retried,
            stats.failed,
            self.shards.iter().filter(|s| s.is_healthy()).count(),
        ));
    }

    fn abort(&self, conn_id: usize, peer: &str, reason: &str) {
        self.log(format!("conn {conn_id} ({peer}): aborted: {reason}"));
    }
}

// ---------------------------------------------------------------------------
// The thread-backed session: a pipe between the reactor and
// `route_session`
// ---------------------------------------------------------------------------

/// The byte pipe between the reactor and one session thread.
struct Pipe {
    state: Mutex<PipeState>,
    /// Wakes the session's threads: input arrived or ended, answers may
    /// flow again, the session was dropped, or a shard reader orphaned
    /// records.
    stir: Condvar,
    /// Wakes the reactor: answers arrived, or the batch ended.
    notify: Notify,
}

#[derive(Default)]
struct PipeState {
    /// Client bytes fed and not yet read by the session thread.
    input: Vec<u8>,
    /// The client's end of batch.
    eof: bool,
    /// The reactor dropped the session: input ends, answers are
    /// discarded.
    gone: bool,
    /// Orphans wait for re-dispatch; the session thread's blocked read
    /// returns so it can take them.
    stirred: bool,
    /// Answer lines not yet pumped into the reactor's outbox.
    output: Vec<u8>,
    /// The reactor's outbox is over its cap: answers wait in their
    /// writers.
    held: bool,
    /// The session thread's end: its counters and the merged trailer, or
    /// its panic.
    done: Option<std::thread::Result<(SessionStats, BatchSummary)>>,
}

impl Pipe {
    /// Changes the state under the lock, then wakes every waiter to
    /// re-check it.
    fn update(&self, change: impl FnOnce(&mut PipeState)) {
        change(&mut lock(&self.state));
        self.stir.notify_all();
    }
}

/// One connection's routed batch, as the reactor sees it: the session
/// thread reads what [`Session::feed`] hands it and answers through the
/// pipe.
struct RouteSession {
    pipe: Arc<Pipe>,
    /// How the session thread ended, once pumped out of the pipe.
    end: Option<Result<BatchSummary, ServeError>>,
    /// The session thread's counters, read by [`Service::settle`].
    stats: Option<SessionStats>,
}

impl Session for RouteSession {
    fn feed(&mut self, bytes: &[u8]) {
        self.pipe.update(|state| {
            if !state.eof {
                state.input.extend_from_slice(bytes);
            }
        });
    }

    fn finish_input(&mut self) {
        self.pipe.update(|state| state.eof = true);
    }

    /// `allow_parse = false` holds the next answer back in its writer, as
    /// does a full pipe. The shard reader that writes it stalls, and
    /// back-pressure reaches the shards and the dispatcher, as through a
    /// slow client socket.
    fn pump(&mut self, out: &mut Vec<u8>, allow_parse: bool) {
        let mut state = lock(&self.pipe.state);
        if allow_parse && (state.held || state.output.len() >= PIPE_CAP) {
            self.pipe.stir.notify_all();
        }
        out.append(&mut state.output);
        state.held = !allow_parse;
        if let Some(done) = state.done.take() {
            self.end = Some(match done {
                Ok((stats, trailer)) => {
                    self.stats = Some(stats);
                    Ok(trailer)
                }
                Err(_) => Err(ServeError::Io(std::io::Error::other(
                    "the routing session panicked",
                ))),
            });
        }
    }

    fn is_done(&self) -> bool {
        self.end.is_some()
    }

    /// Busy until the batch ends: the router cuts no idle connection.
    fn has_inflight(&self) -> bool {
        self.end.is_none()
    }

    fn take_result(&mut self) -> Result<BatchSummary, ServeError> {
        self.end.take().expect("a finished session has an end")
    }
}

impl Drop for RouteSession {
    /// The client is gone (or the write timeout fired): the session
    /// thread sees its input end and its answers are discarded, as a
    /// client that stopped reading always was.
    fn drop(&mut self) {
        self.pipe.update(|state| {
            state.gone = true;
            state.output.clear();
        });
    }
}

/// The session thread's end of the client input.
struct PipeReader<'a> {
    pipe: &'a Pipe,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.read(out)?;
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PipeReader<'_> {
    /// Blocks until the reactor feeds bytes or ends the input. Fails with
    /// `WouldBlock` when a shard reader stirred the pipe and with
    /// `BrokenPipe` once the session is dropped.
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            let mut state = lock(&self.pipe.state);
            loop {
                if state.gone {
                    return Err(std::io::ErrorKind::BrokenPipe.into());
                }
                if !state.input.is_empty() || state.eof {
                    break;
                }
                if std::mem::take(&mut state.stirred) {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                state = self
                    .pipe
                    .stir
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            std::mem::swap(&mut self.buf, &mut state.input);
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The session thread's answer sink: each flushed line goes to the
/// reactor in one piece.
struct PipeWriter<'a> {
    pipe: &'a Pipe,
    line: Vec<u8>,
}

impl Write for PipeWriter<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.line.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut state = lock(&self.pipe.state);
        while (state.held || state.output.len() >= PIPE_CAP) && !state.gone {
            state = self
                .pipe
                .stir
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.gone {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        // a non-empty output already has a wake on its way
        let wake = state.output.is_empty();
        state.output.append(&mut self.line);
        drop(state);
        if wake {
            (self.pipe.notify)();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The routed batch session: fan-out, in-order fan-in, orphan retry,
// merged trailer
// ---------------------------------------------------------------------------

/// Per-session counters bubbled up into the [`RouteReport`].
#[derive(Clone, Debug, Default)]
struct SessionStats {
    records: usize,
    retried: usize,
    failed: usize,
}

/// One client record in flight: its fan-in slot, its original input line
/// (for restamping), and the raw bytes to (re)send.
#[derive(Clone, Debug)]
struct Pending {
    /// 0-based dispatch order — the fan-in emission key.
    seq: usize,
    /// 1-based client input line — what the response must be stamped
    /// with, wherever it is solved.
    orig_line: usize,
    /// The record's id, for router-side error lines.
    id: Option<String>,
    /// The record line as received (no trailing newline).
    raw: String,
}

/// The reorder buffer: responses arrive tagged with their dispatch `seq`
/// and are flushed to the client strictly in `seq` order.
struct Fanin<W: Write> {
    next: usize,
    ready: BTreeMap<usize, String>,
    writer: W,
    /// The client stopped reading (write error); responses are still
    /// consumed in order so the session drains, just not written.
    client_gone: bool,
}

impl<W: Write> Fanin<W> {
    fn new(writer: W) -> Self {
        Fanin {
            next: 0,
            ready: BTreeMap::new(),
            writer,
            client_gone: false,
        }
    }

    /// Stages one response and flushes the contiguous prefix.
    fn push(&mut self, seq: usize, text: String) {
        self.ready.insert(seq, text);
        while let Some(text) = self.ready.remove(&self.next) {
            if !self.client_gone {
                let wrote = writeln!(self.writer, "{text}").and_then(|_| self.writer.flush());
                if wrote.is_err() {
                    self.client_gone = true;
                }
            }
            self.next += 1;
        }
    }

    /// Defensive hole-fill: any dispatched seq that never produced a
    /// response (a bug or an unwinnable race, not a normal path) answers
    /// as a structured error so the client never counts short.
    fn finish(&mut self, total: usize, meta: &[(usize, Option<String>)]) -> usize {
        let mut holes = 0;
        for (seq, (orig_line, id)) in meta.iter().enumerate().take(total).skip(self.next) {
            self.ready.entry(seq).or_insert_with(|| {
                holes += 1;
                error_line(*orig_line, id.as_deref(), "record lost in routing")
            });
        }
        if total > self.next {
            // re-run the contiguous flush from wherever it stalled
            let restart = self.ready.remove(&self.next);
            if let Some(text) = restart {
                self.push(self.next, text);
            }
        }
        holes
    }
}

/// The cross-thread state of one routed session, passed by copy into
/// scoped reader threads.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    shards: &'a [Arc<ShardState>],
    config: &'a RouteConfig,
    shutdown: &'a CancelToken,
    /// Per-shard queues of dispatched-but-unanswered records, in send
    /// order (a shard answers in order, so the front is always the record
    /// its next response belongs to).
    pendings: &'a [Mutex<VecDeque<Pending>>],
    fanin: &'a Mutex<Fanin<PipeWriter<'a>>>,
    /// Records reclaimed from dead shards awaiting re-dispatch.
    orphans: &'a Mutex<Vec<Pending>>,
    /// Summary trailers collected from shards, merged at session end.
    trailers: &'a Mutex<Vec<BatchSummary>>,
    /// Answer counts from shards that died before sending a trailer, so
    /// the merged trailer still accounts for every record.
    untallied: &'a Mutex<Untallied>,
    /// The client pipe; a shard reader that orphans records stirs it.
    pipe: &'a Pipe,
}

#[derive(Default)]
struct Untallied {
    answered: usize,
    answered_ok: usize,
}

/// Routes one client batch: reads records off the pipe, fans them out
/// across healthy shards, restores input order on the way back, retries
/// orphans, and returns the session's counters with one merged
/// [`BatchSummary`] trailer. Never fails — every failure mode degrades to
/// structured error lines on the wire.
fn route_session(
    pipe: &Pipe,
    shards: &[Arc<ShardState>],
    config: &RouteConfig,
    shutdown: &CancelToken,
) -> (SessionStats, BatchSummary) {
    let started = Instant::now();
    let mut stats = SessionStats::default();
    let mut client = PipeReader {
        pipe,
        buf: Vec::new(),
        pos: 0,
    };
    let fanin = Mutex::new(Fanin::new(PipeWriter {
        pipe,
        line: Vec::new(),
    }));
    let pendings: Vec<Mutex<VecDeque<Pending>>> = (0..shards.len())
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    let orphans = Mutex::new(Vec::new());
    let trailers = Mutex::new(Vec::new());
    let untallied = Mutex::new(Untallied::default());
    let ctx = Ctx {
        shards,
        config,
        shutdown,
        pendings: &pendings,
        fanin: &fanin,
        orphans: &orphans,
        trailers: &trailers,
        untallied: &untallied,
        pipe,
    };

    // (orig_line, id) per seq, for hole-filling after the threads join
    let mut seq_meta: Vec<(usize, Option<String>)> = Vec::new();

    std::thread::scope(|scope| {
        let mut streams: Vec<Option<TcpStream>> = (0..shards.len()).map(|_| None).collect();
        let mut pinned: Option<usize> = None;
        let mut orig_line = 0usize;
        let mut buf = Vec::new();
        let mut take_record =
            |buf: &[u8],
             streams: &mut [Option<TcpStream>],
             pinned: &mut Option<usize>,
             stats: &mut SessionStats,
             seq_meta: &mut Vec<(usize, Option<String>)>| {
                orig_line += 1;
                let text = String::from_utf8_lossy(buf);
                let text = text.trim();
                if text.is_empty() {
                    // blank lines consume a line number but produce no
                    // response — mirroring the listener's engine exactly
                    return;
                }
                let seq = seq_meta.len();
                let id = extract_id(text);
                seq_meta.push((orig_line, id.clone()));
                stats.records += 1;
                let pending = Pending {
                    seq,
                    orig_line,
                    id,
                    raw: text.to_string(),
                };
                dispatch(scope, ctx, pending, streams, pinned, stats);
            };
        loop {
            // a shard may have died since the last record: reclaim its
            // orphans onto healthy shards before (not after) blocking on
            // the client again
            drain_orphans(scope, ctx, &mut streams, &mut pinned, &mut stats);
            match client.read_until(b'\n', &mut buf) {
                Ok(0) => {
                    // a final unterminated line is a record, unless a
                    // drain ended the input
                    if !buf.is_empty() && !shutdown.is_cancelled() {
                        take_record(&buf, &mut streams, &mut pinned, &mut stats, &mut seq_meta);
                    }
                    break;
                }
                Ok(_) => {
                    if buf.ends_with(b"\n") {
                        take_record(&buf, &mut streams, &mut pinned, &mut stats, &mut seq_meta);
                        buf.clear();
                    }
                    // no trailing newline = EOF mid-line; the next read
                    // returns Ok(0) and the partial line is taken there
                }
                // stirred: orphans wait for the top of the loop
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if shutdown.is_cancelled() {
                        break;
                    }
                }
                Err(_) => break, // the session was dropped
            }
        }
        // client EOF: half-close every shard stream so each shard ends
        // its batch, answers its tail, sends its trailer and closes —
        // which is what makes the reader threads return
        for stream in streams.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Write);
        }
    });

    // shard readers have all joined; whatever they swept into `orphans`
    // gets retry_rounds chances on whichever shards remain healthy
    let mut leftovers: Vec<Pending> = std::mem::take(&mut *lock(&orphans));
    leftovers.sort_by_key(|p| p.seq);
    let mut queue: VecDeque<Pending> = leftovers.into();
    for _ in 0..config.retry_rounds {
        if queue.is_empty() {
            break;
        }
        let Some(shard) = pick(shards) else { break };
        stats.retried += queue.len();
        retry_batch(&shard, &mut queue, ctx);
    }
    for p in queue {
        stats.failed += 1;
        lock(&fanin).push(
            p.seq,
            error_line(
                p.orig_line,
                p.id.as_deref(),
                "no healthy shard available to solve this record",
            ),
        );
    }

    let holes = lock(&fanin).finish(seq_meta.len(), &seq_meta);
    stats.failed += holes;

    // the merged trailer: the shards' trailers folded together, plus a
    // base accounting for records no shard trailer covers (router-side
    // errors, and answers from shards that died before their trailer)
    let tally = std::mem::take(&mut *lock(&untallied));
    let mut merged = BatchSummary {
        records: stats.failed + tally.answered,
        solved: tally.answered_ok,
        errors: stats.failed + (tally.answered - tally.answered_ok),
        total_cost: 0,
        total_lower_bound: 0,
        aggregate_gap: BatchSummary::aggregate_gap(0, 0),
        wall: started.elapsed(),
        throughput: 0.0,
        solved_per_s: 0.0,
        p50_solve: Duration::ZERO,
        p99_solve: Duration::ZERO,
        solution_cache_hits: 0,
        solution_cache_misses: 0,
        workers: 0,
        deadline_hits: 0,
    };
    for trailer in lock(&trailers).iter() {
        merged.merge(trailer);
    }
    (stats, merged)
}

/// Pulls the record id out of a raw request line, if it parses at all —
/// best-effort, for router-side error lines only; shards do their own
/// parsing.
fn extract_id(text: &str) -> Option<String> {
    match json::parse(text) {
        Ok(Value::Object(fields)) => fields.iter().find_map(|(k, v)| {
            if k == "id" {
                v.as_str().map(str::to_string)
            } else {
                None
            }
        }),
        _ => None,
    }
}

/// Re-dispatches everything reclaimed from dead shards so far.
fn drain_orphans<'scope, 'a: 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    ctx: Ctx<'a>,
    streams: &mut [Option<TcpStream>],
    pinned: &mut Option<usize>,
    stats: &mut SessionStats,
) {
    let mut reclaimed: Vec<Pending> = std::mem::take(&mut *lock(ctx.orphans));
    if reclaimed.is_empty() {
        return;
    }
    reclaimed.sort_by_key(|p| p.seq);
    for pending in reclaimed {
        stats.retried += 1;
        dispatch(scope, ctx, pending, streams, pinned, stats);
    }
}

/// Sends one record to the least-loaded healthy shard (or the pinned one
/// in sticky mode), opening the shard stream and its reader thread
/// lazily. On a broken write the record is reclaimed and retried on
/// another shard; with no healthy shard it answers as an error line.
fn dispatch<'scope, 'a: 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    ctx: Ctx<'a>,
    pending: Pending,
    streams: &mut [Option<TcpStream>],
    pinned: &mut Option<usize>,
    stats: &mut SessionStats,
) {
    loop {
        let shard = if ctx.config.sticky {
            match pinned
                .map(|i| &ctx.shards[i])
                .filter(|s| s.is_healthy())
                .cloned()
            {
                Some(shard) => shard,
                None => match pick(ctx.shards) {
                    Some(shard) => {
                        *pinned = Some(shard.index);
                        shard
                    }
                    None => return fail_record(ctx, pending, stats),
                },
            }
        } else {
            match pick(ctx.shards) {
                Some(shard) => shard,
                None => return fail_record(ctx, pending, stats),
            }
        };
        let i = shard.index;
        if streams[i].is_none() {
            match open_shard_stream(scope, ctx, &shard) {
                Ok(stream) => streams[i] = Some(stream),
                Err(_) => {
                    shard.mark_broken();
                    continue; // pick() will skip it now
                }
            }
        }
        // enqueue BEFORE writing: the reader thread must be able to match
        // the shard's response (or sweep the record on shard death) from
        // the moment any byte of it may be on the wire
        lock(&ctx.pendings[i]).push_back(pending.clone());
        shard.note_dispatched();
        let wrote = {
            let stream = streams[i].as_mut().expect("stream opened above");
            writeln!(stream, "{}", pending.raw).and_then(|_| stream.flush())
        };
        match wrote {
            Ok(()) => return,
            Err(_) => {
                shard.mark_broken();
                if let Some(stream) = streams[i].take() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                // reclaim our own entry by seq; if it is already gone the
                // reader thread swept it into `orphans` first, and the
                // orphan path owns the retry — retrying here too would
                // answer the record twice
                let reclaimed = {
                    let mut queue = lock(&ctx.pendings[i]);
                    match queue.iter().rposition(|p| p.seq == pending.seq) {
                        Some(pos) => {
                            queue.remove(pos);
                            true
                        }
                        None => false,
                    }
                };
                if !reclaimed {
                    return;
                }
                shard.note_answered();
                stats.retried += 1;
                // a dead pinned shard releases the pin; the next pick
                // re-pins the connection
                if *pinned == Some(i) {
                    *pinned = None;
                }
            }
        }
    }
}

fn fail_record(ctx: Ctx<'_>, pending: Pending, stats: &mut SessionStats) {
    stats.failed += 1;
    lock(ctx.fanin).push(
        pending.seq,
        error_line(
            pending.orig_line,
            pending.id.as_deref(),
            "no healthy shard available to solve this record",
        ),
    );
}

/// Connects to a shard and spawns its response-reader thread. The
/// returned stream is the write half; the reader owns a clone.
fn open_shard_stream<'scope, 'a: 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    ctx: Ctx<'a>,
    shard: &Arc<ShardState>,
) -> std::io::Result<TcpStream> {
    let stream = connect(&shard.addr(), ctx.config.connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(ctx.config.read_timeout))?;
    stream.set_write_timeout(Some(ctx.config.write_timeout))?;
    let read_half = stream.try_clone()?;
    let shard = Arc::clone(shard);
    scope.spawn(move || {
        let i = shard.index;
        let got_trailer = pump_shard_responses(read_half, &shard, &ctx.pendings[i], ctx);
        // sweep: anything still pending on this shard when its stream
        // ended will never be answered by it — orphan for re-dispatch
        let leftovers: Vec<Pending> = lock(&ctx.pendings[i]).drain(..).collect();
        if !leftovers.is_empty() {
            shard.mark_broken();
            for _ in &leftovers {
                shard.note_answered();
            }
            lock(ctx.orphans).extend(leftovers);
            // the session thread may be blocked on a quiet client
            ctx.pipe.update(|state| state.stirred = true);
        } else if !got_trailer {
            // answered everything it was sent but closed without a
            // trailer — still suspect
            shard.mark_broken();
        }
    });
    Ok(stream)
}

/// Reads one shard stream to EOF: response lines are matched to the
/// front of the shard's pending queue (shards answer in order), restamped
/// with the client's original line number, and staged into the fan-in;
/// the trailer is collected for the merge. Returns whether a trailer
/// arrived (the shard finished its batch cleanly).
fn pump_shard_responses(
    stream: TcpStream,
    shard: &ShardState,
    queue: &Mutex<VecDeque<Pending>>,
    ctx: Ctx<'_>,
) -> bool {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let mut got_trailer = false;
    let mut answered = 0usize;
    let mut answered_ok = 0usize;
    let mut cancelled_at: Option<Instant> = None;
    let mut take_line = |buf: &[u8], got_trailer: &mut bool| {
        let text = String::from_utf8_lossy(buf);
        let text = text.trim_end_matches(['\n', '\r']);
        if text.trim().is_empty() {
            return;
        }
        // match and pop under one lock: a concurrent write-failure
        // reclaim must not swap the front between the peek and the pop
        let matched = {
            let mut pending = lock(queue);
            match pending.front() {
                Some(front) => match reline_output(text, front.orig_line) {
                    Some(relined) => {
                        let front = pending.pop_front().expect("front observed above");
                        Some((front.seq, relined))
                    }
                    None => None,
                },
                None => None,
            }
        };
        if let Some((seq, relined)) = matched {
            shard.note_answered();
            answered += 1;
            if relined.ok {
                answered_ok += 1;
            }
            lock(ctx.fanin).push(seq, relined.text);
            return;
        }
        if let Ok(summary) = BatchSummary::from_json_line(text) {
            lock(ctx.trailers).push(summary);
            *got_trailer = true;
        }
        // anything else (free-text noise) is dropped: the wire contract
        // promises responses and a trailer, nothing more
    };
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                if !buf.is_empty() {
                    take_line(&buf, &mut got_trailer);
                }
                break;
            }
            Ok(_) => {
                if buf.ends_with(b"\n") {
                    take_line(&buf, &mut got_trailer);
                    buf.clear();
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                // after shutdown the shard still gets a drain budget to
                // answer in-flight records before the reader gives up
                if ctx.shutdown.is_cancelled() {
                    let since = cancelled_at.get_or_insert_with(Instant::now);
                    if since.elapsed() >= SHARD_DRAIN_BUDGET {
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }
    if !got_trailer && answered > 0 {
        // the shard died after answering some records: without its
        // trailer those answers would vanish from the merged accounting
        let mut tally = lock(ctx.untallied);
        tally.answered += answered;
        tally.answered_ok += answered_ok;
    }
    got_trailer
}

/// One retry round: sends every queued orphan to `shard` as a fresh
/// batch and pumps the answers back. Writing and reading run
/// concurrently (a large orphan batch must not deadlock on full socket
/// buffers). Unanswered records stay in `queue` for the next round.
fn retry_batch(shard: &Arc<ShardState>, queue: &mut VecDeque<Pending>, ctx: Ctx<'_>) {
    let stream = match connect(&shard.addr(), ctx.config.connect_timeout) {
        Ok(stream) => stream,
        Err(_) => {
            shard.mark_broken();
            return;
        }
    };
    if stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(ctx.config.read_timeout))
            .is_err()
        || stream
            .set_write_timeout(Some(ctx.config.write_timeout))
            .is_err()
    {
        shard.mark_broken();
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(half) => half,
        Err(_) => {
            shard.mark_broken();
            return;
        }
    };
    let raws: Vec<String> = queue.iter().map(|p| p.raw.clone()).collect();
    for _ in &raws {
        shard.note_dispatched();
    }
    let pending = Mutex::new(std::mem::take(queue));
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut writer = BufWriter::new(write_half);
            for raw in &raws {
                if writeln!(writer, "{raw}").is_err() {
                    break;
                }
            }
            let _ = writer.flush();
            let _ = writer.get_ref().shutdown(Shutdown::Write);
        });
        pump_shard_responses(stream, shard, &pending, ctx);
    });
    let leftovers = pending
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if !leftovers.is_empty() {
        shard.mark_broken();
        for _ in &leftovers {
            shard.note_answered();
        }
    }
    *queue = leftovers;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanin_flushes_only_contiguous_prefixes() {
        let mut out = Vec::new();
        let mut fanin = Fanin::new(&mut out);
        fanin.push(2, "third".to_string());
        fanin.push(1, "second".to_string());
        assert!(fanin.writer.is_empty(), "nothing emits before seq 0 lands");
        fanin.push(0, "first".to_string());
        assert_eq!(
            String::from_utf8(fanin.writer.clone()).unwrap(),
            "first\nsecond\nthird\n"
        );
        assert_eq!(fanin.next, 3);
    }

    #[test]
    fn fanin_finish_fills_holes_with_error_lines() {
        let mut out = Vec::new();
        let mut fanin = Fanin::new(&mut out);
        fanin.push(0, "first".to_string());
        fanin.push(2, "third".to_string());
        let meta = vec![(1, None), (5, Some("b".to_string())), (9, None)];
        let holes = fanin.finish(3, &meta);
        assert_eq!(holes, 1);
        let text = String::from_utf8(fanin.writer.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "first");
        assert!(
            lines[1].contains("\"line\": 5"),
            "hole keeps its line: {}",
            lines[1]
        );
        assert!(lines[1].contains("\"id\": \"b\""));
        assert!(lines[1].contains("record lost in routing"));
        assert_eq!(lines[2], "third");
    }

    #[test]
    fn extract_id_is_best_effort() {
        assert_eq!(
            extract_id(r#"{"id": "abc", "instance": {"g": 1, "jobs": []}}"#),
            Some("abc".to_string())
        );
        assert_eq!(extract_id(r#"{"instance": {}}"#), None);
        assert_eq!(extract_id("not json"), None);
        assert_eq!(
            extract_id(r#"{"id": 7}"#),
            None,
            "non-string ids are ignored"
        );
    }

    #[test]
    fn route_report_display_matches_grep_contract() {
        let mut report = RouteReport {
            connections: 2,
            rejected: 0,
            records: 16,
            retried: 3,
            failed: 0,
            health_probes: 0,
        };
        assert_eq!(
            report.to_string(),
            "router: 2 connections (0 rejected) | 16 records routed (3 retried, 0 failed)"
        );
        report.health_probes = 4;
        assert!(report.to_string().ends_with("| health probes: 4"));
    }
}
