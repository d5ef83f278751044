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
//! Request lines are forwarded verbatim: the router takes each client line
//! off the connection's [`Lines`] framer and writes its bytes to a shard
//! as they arrived, so a shard answers a routed line exactly as it answers
//! the same line sent to it directly. The router decodes a line only to
//! find the `id` of an error line it writes itself. Shard answers are
//! framed by one [`Lines`] per shard stream.
//!
//! Ordering is restored per connection by a sequence number assigned at
//! dispatch: shard responses are restamped with the client's original
//! `line` via [`reline_output`] (no re-parse, no re-serialize) and held
//! in a small reorder buffer until every earlier record has answered.
//!
//! Back-pressure: a routed batch takes no client line while it holds more
//! than [`INPUT_LIMIT`] bytes for its client — requests its shard streams
//! have not written yet, and answers waiting in the reorder buffer on an
//! earlier one. A shard that stops reading, or one slow record holding up
//! the in-order fan-in, therefore stops the router reading its client, as
//! the reactor's input gate does on `listen`.
//!
//! Failure model: a shard stream that breaks, ends early or makes no write
//! progress for the write timeout orphans its unanswered records; orphans
//! are re-dispatched to a healthy shard with their original `line` stamps,
//! so the client still sees every record answered exactly once, in order.
//! A record is re-dispatched at most three times. Only when no
//! healthy shard remains, or a record has spent its retries, does it
//! answer as a structured error line.
//!
//! Connections are served by the listener's [readiness
//! reactor](busytime_server::reactor): accepting, sniffing, health probes,
//! HTTP framing, capacity rejections, the bounded outbox and the drain
//! cost no thread, exactly as on `listen`. The router is the reactor's
//! routing [`Service`]: a connection's batch is a `RouteMachine`, one
//! single-threaded session that owns its shard streams as nonblocking
//! sockets watched by the connection's reactor. Fan-out, in-order fan-in,
//! orphan retry and the trailer merge all run there, so a routed batch
//! costs no thread either; the router's own threads are the prober and,
//! in `--spawn` mode, the shard monitors.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use busytime_core::cancel::CancelToken;
use busytime_core::solve::REPORT_SCHEMA_VERSION;
use busytime_instances::json::{self, Value};
use busytime_server::protocol::error_line;
use busytime_server::reactor::{
    self, Endpoint, Gauges, Interest, Notify, Service, Session, Sources, INPUT_LIMIT, WRITE_TIMEOUT,
};
use busytime_server::{reline_output, BatchSummary, Lines, ListenConfig, ListenMode, ServeError};

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
    /// Suppress per-connection stderr log lines.
    pub quiet: bool,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            max_conns: 0,
            sticky: false,
            probe_interval: Duration::from_millis(500),
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
    /// Records the router answered itself with an error line: no healthy
    /// shard remained, or the record spent its re-dispatches.
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

/// Budget of one `/healthz` probe: connect, request and response.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// Budget of opening a shard stream, the one blocking call a routed
/// session makes on its reactor thread.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// How many times one record may be re-dispatched after shards broke
/// under it before it answers as an error.
const MAX_RETRIES: usize = 3;

/// How long a session keeps waiting for shard answers after shutdown is
/// signalled — in-flight solves finish cooperatively on the shard, and
/// cutting their answers off here would orphan records for no reason.
const SHARD_DRAIN_BUDGET: Duration = Duration::from_secs(10);

/// Bytes one pump reads off one shard stream; level-triggered polling
/// re-reports the rest. It bounds how far past its cap one pump can push a
/// client's outbox.
const LINK_READ_BUDGET: usize = 32 * 1024;

/// The router-side error of a record no shard could take.
const NO_SHARD: &str = "no healthy shard available to solve this record";

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
    /// then drains every live connection and returns the aggregate
    /// report. The caller's thread runs reactor 0; a background prober
    /// keeps every shard's health snapshot fresh for the whole run.
    pub fn run(self) -> std::io::Result<RouteReport> {
        let service = Arc::new(RouteService {
            shards: self.shards,
            config: self.config,
            shutdown: self.shutdown.clone(),
            report: Mutex::default(),
        });
        let prober = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || run_prober(&service))
        };
        let limits = ListenConfig {
            max_conns: service.config.max_conns,
            ..ListenConfig::default()
        };
        let counts = reactor::run(self.endpoint, Arc::clone(&service), &limits, self.shutdown);
        service.shutdown.cancel();
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
            let _ = shard.check(PROBE_TIMEOUT);
        }
        let mut slept = Duration::ZERO;
        while slept < service.config.probe_interval && !service.shutdown.is_cancelled() {
            let slice = Duration::from_millis(25).min(service.config.probe_interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// The router as the reactor's [`Service`]: every session is a
/// [`RouteMachine`] over the fleet.
struct RouteService {
    shards: Vec<Arc<ShardState>>,
    config: RouteConfig,
    shutdown: CancelToken,
    report: Mutex<RouteReport>,
}

impl RouteService {
    fn log(&self, line: String) {
        if !self.config.quiet {
            eprintln!("{line}");
        }
    }
}

impl Service for RouteService {
    type Session = RouteMachine;
    const NOUN: &'static str = "router";

    /// Shard answers wake the reactor through the watched streams, so the
    /// machine needs no `notify`.
    fn open(&self, _: Notify, sources: Sources) -> RouteMachine {
        RouteMachine {
            shards: self.shards.clone(),
            sticky: self.config.sticky,
            shutdown: self.shutdown.clone(),
            sources,
            records: HashMap::new(),
            next_seq: 0,
            fanin: Fanin::new(Vec::new()),
            links: Vec::new(),
            pinned: None,
            orphans: Vec::new(),
            trailers: Vec::new(),
            untallied: (0, 0),
            stats: SessionStats::default(),
            started: Instant::now(),
            drain_until: None,
            end: None,
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

    fn settle(&self, conn_id: usize, peer: &str, session: &RouteMachine, _: &BatchSummary) {
        let stats = &session.stats;
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
// The routed batch: fan-out, in-order fan-in, orphan retry, merged trailer
// ---------------------------------------------------------------------------

/// Per-session counters bubbled up into the [`RouteReport`].
#[derive(Clone, Debug, Default)]
struct SessionStats {
    records: usize,
    retried: usize,
    failed: usize,
}

/// One client record not yet answered.
#[derive(Debug)]
struct Pending {
    /// 1-based client input line — what the response must be stamped
    /// with, wherever it is solved.
    orig_line: usize,
    /// The record line as received (newline included); its id is read
    /// only if the router answers it with an error line.
    raw: Vec<u8>,
    /// Re-dispatches so far.
    retries: usize,
}

/// The reorder buffer: responses arrive tagged with their dispatch `seq`
/// and are flushed to the client strictly in `seq` order.
struct Fanin<W: Write> {
    next: usize,
    ready: BTreeMap<usize, String>,
    /// Bytes staged in `ready`: answers waiting on an earlier one.
    held: usize,
    writer: W,
}

impl<W: Write> Fanin<W> {
    fn new(writer: W) -> Self {
        Fanin {
            next: 0,
            ready: BTreeMap::new(),
            held: 0,
            writer,
        }
    }

    /// Stages one response and flushes the contiguous prefix.
    fn push(&mut self, seq: usize, text: String) {
        self.held += text.len();
        self.ready.insert(seq, text);
        while let Some(text) = self.ready.remove(&self.next) {
            self.held -= text.len();
            // the writer is an in-memory buffer
            let _ = writeln!(self.writer, "{text}");
            self.next += 1;
        }
    }

    /// Defensive hole-fill: any dispatched seq that never produced a
    /// response (a bug, not a normal path) answers as a structured error
    /// so the client never counts short.
    fn finish(&mut self, total: usize, meta: &[(usize, Option<String>)]) -> usize {
        let mut holes = 0;
        for (seq, (orig_line, id)) in meta.iter().enumerate().take(total) {
            // a hole's push can flush the seqs after it
            if seq >= self.next && !self.ready.contains_key(&seq) {
                holes += 1;
                let line = error_line(*orig_line, id.as_deref(), "record lost in routing");
                self.push(seq, line);
            }
        }
        holes
    }
}

/// One shard stream of a routed batch: a nonblocking socket watched by
/// the connection's reactor.
struct Link {
    shard: Arc<ShardState>,
    stream: TcpStream,
    /// Dispatched and unanswered seqs in send order: a shard answers in
    /// order, so the front is the record its next response line answers.
    pending: VecDeque<usize>,
    /// Request bytes queued for the shard; `sent` of them are written.
    out: Vec<u8>,
    sent: usize,
    /// Since when writes have blocked while the session reads answers.
    stalled: Option<Instant>,
    /// The shard's answers, framed; they end with the stream.
    answers: Lines,
    /// Answers taken, for the merged trailer if the shard dies before
    /// sending its own.
    answered: usize,
    answered_ok: usize,
    got_trailer: bool,
    /// The stream is half-closed: the shard ends this batch, answers its
    /// tail, sends its trailer and closes.
    half_closed: bool,
    /// The interest the reactor watches the stream with.
    watched: Option<Interest>,
}

impl Link {
    fn open(shard: Arc<ShardState>) -> std::io::Result<Link> {
        let stream = connect(&shard.addr(), CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Link {
            shard,
            stream,
            pending: VecDeque::new(),
            out: Vec::new(),
            sent: 0,
            stalled: None,
            answers: Lines::new(CancelToken::never()),
            answered: 0,
            answered_ok: 0,
            got_trailer: false,
            half_closed: false,
            watched: None,
        })
    }

    /// Reads up to [`LINK_READ_BUDGET`] bytes; `false` once the stream
    /// has ended, which ends its answers.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        let mut budget = LINK_READ_BUDGET;
        while budget > 0 {
            match self.stream.read(&mut chunk) {
                Ok(n) if n > 0 => {
                    self.answers.push(&chunk[..n]);
                    budget = budget.saturating_sub(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                _ => {
                    self.answers.end();
                    return false;
                }
            }
        }
        true
    }

    /// Request bytes queued and not yet written.
    fn unwritten(&self) -> usize {
        self.out.len() - self.sent
    }

    /// Writes queued requests until the socket would block; `false` once
    /// the stream is broken, or has blocked for [`WRITE_TIMEOUT`] while
    /// the session read its answers. A session that reads nothing stalls
    /// its shards itself, so that clock restarts.
    fn flush(&mut self, now: Instant, reading: bool) -> bool {
        if !reading {
            self.stalled = None;
        }
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.sent += n;
                    self.stalled = None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let since = *self.stalled.get_or_insert(now);
                    return now.duration_since(since) < WRITE_TIMEOUT;
                }
                Err(_) => return false,
            }
        }
        self.out.clear();
        self.sent = 0;
        true
    }

    /// Watches for answers while the session reads them and for
    /// writability while requests wait. A stream it does not read is not
    /// watched at all: the poller reports a hangup even with no interest,
    /// and nobody would serve it. `false` if the reactor refused.
    fn watch(&mut self, sources: &Sources, reading: bool) -> bool {
        let want = match (reading, self.unwritten() > 0) {
            (false, false) => None,
            (readable, writable) => Some(Interest { readable, writable }),
        };
        let was = std::mem::replace(&mut self.watched, want);
        was == want || sources.watch(&self.stream, was, want).is_ok()
    }
}

/// One connection's routed batch, pumped by its reactor: client lines go
/// out to shard streams as they are taken, answers come back in input
/// order, orphans are re-dispatched on the same path, and the shards'
/// trailers merge into one once every stream has ended.
struct RouteMachine {
    shards: Vec<Arc<ShardState>>,
    sticky: bool,
    shutdown: CancelToken,
    sources: Sources,
    /// Unanswered records by dispatch seq.
    records: HashMap<usize, Pending>,
    next_seq: usize,
    fanin: Fanin<Vec<u8>>,
    links: Vec<Link>,
    /// The shard a sticky connection is pinned to.
    pinned: Option<usize>,
    /// Seqs reclaimed from ended links, awaiting re-dispatch.
    orphans: Vec<usize>,
    /// Summary trailers collected from shards, merged at the end.
    trailers: Vec<BatchSummary>,
    /// (answered, answered ok) on streams that ended without a trailer,
    /// so the merged trailer still accounts for every record.
    untallied: (usize, usize),
    stats: SessionStats,
    started: Instant,
    /// Set once shutdown is seen: when the drain stops waiting for shards.
    drain_until: Option<Instant>,
    /// The merged trailer, once the batch is over.
    end: Option<BatchSummary>,
}

impl RouteMachine {
    /// Bytes the batch holds for its client: requests its links have not
    /// written yet, and answers waiting in the fan-in on an earlier one.
    fn held(&self) -> usize {
        self.links.iter().map(Link::unwritten).sum::<usize>() + self.fanin.held
    }

    /// Takes the client's lines while [`RouteMachine::held`] stays within
    /// [`INPUT_LIMIT`]; each is a record, dispatched at once. Returns
    /// whether that gate stopped it.
    fn take_lines(&mut self, input: &mut Lines) -> bool {
        while self.held() <= INPUT_LIMIT {
            let Some(line) = input.next_line() else {
                return false;
            };
            let seq = self.next_seq;
            let pending = Pending {
                orig_line: line.number,
                raw: line.bytes.to_vec(),
                retries: 0,
            };
            self.records.insert(seq, pending);
            self.next_seq += 1;
            self.stats.records += 1;
            self.dispatch(seq);
        }
        true
    }

    /// Sends record `seq` to the least-loaded healthy shard, or the pinned
    /// one in sticky mode, over a stream that is still open for requests.
    /// A shard that refuses the connect is demoted at once; with no
    /// healthy shard left the record answers as an error line.
    fn dispatch(&mut self, seq: usize) {
        loop {
            let pinned = self.pinned.map(|i| &self.shards[i]);
            let shard = match pinned.filter(|s| s.is_healthy()) {
                Some(shard) => Arc::clone(shard),
                None => match pick(&self.shards) {
                    Some(shard) => shard,
                    None => return self.fail(seq),
                },
            };
            if self.sticky {
                self.pinned = Some(shard.index);
            }
            let open = self
                .links
                .iter()
                .position(|l| l.shard.index == shard.index && !l.half_closed);
            let i = match open {
                Some(i) => i,
                None => match Link::open(Arc::clone(&shard)) {
                    Ok(link) => {
                        self.links.push(link);
                        self.links.len() - 1
                    }
                    Err(_) => {
                        shard.mark_broken();
                        continue; // pick() will skip it now
                    }
                },
            };
            let (link, raw) = (&mut self.links[i], &self.records[&seq].raw);
            link.out.extend_from_slice(raw);
            link.pending.push_back(seq);
            shard.note_dispatched();
            return;
        }
    }

    /// Answers record `seq` with the router-side error line.
    fn fail(&mut self, seq: usize) {
        let pending = self.records.remove(&seq).expect("failed unanswered");
        let id = extract_id(&pending.raw);
        self.stats.failed += 1;
        let line = error_line(pending.orig_line, id.as_deref(), NO_SHARD);
        self.fanin.push(seq, line);
    }

    /// Re-dispatches every orphan in input order, within its retry cap and
    /// the shutdown drain budget.
    fn redispatch(&mut self, spent: bool) {
        let mut orphans = std::mem::take(&mut self.orphans);
        orphans.sort_unstable();
        for seq in orphans {
            let pending = self.records.get_mut(&seq).expect("orphans are unanswered");
            if spent || pending.retries == MAX_RETRIES {
                self.fail(seq);
                continue;
            }
            pending.retries += 1;
            self.stats.retried += 1;
            self.dispatch(seq);
        }
    }

    /// Reads link `i` and takes the answer lines it has: an answer to the
    /// front of its queue is restamped and staged in the fan-in, a trailer
    /// is kept for the merge, and anything else (free-text noise) is
    /// dropped — the wire contract promises responses and a trailer,
    /// nothing more. `false` once the stream has ended.
    fn read_link(&mut self, i: usize) -> bool {
        let link = &mut self.links[i];
        let open = link.fill();
        while let Some(line) = link.answers.next_line() {
            let text = String::from_utf8_lossy(line.bytes);
            let text = text.trim_end_matches(['\n', '\r']);
            let front = link.pending.front().copied();
            let relined = front.and_then(|seq| reline_output(text, self.records[&seq].orig_line));
            if let (Some(seq), Some(relined)) = (front, relined) {
                link.pending.pop_front();
                link.shard.note_answered();
                link.answered += 1;
                link.answered_ok += usize::from(relined.ok);
                self.records.remove(&seq);
                self.fanin.push(seq, relined.text);
            } else if let Ok(summary) = BatchSummary::from_json_line(text) {
                self.trailers.push(summary);
                link.got_trailer = true;
            }
        }
        open
    }

    /// Ends link `i`: its unanswered records become orphans. A shard that
    /// left records unanswered, or ended without its trailer, is demoted
    /// at once.
    fn close_link(&mut self, i: usize) {
        let link = self.links.swap_remove(i);
        let _ = self.sources.watch(&link.stream, link.watched, None);
        if !link.got_trailer {
            // without its trailer these answers would vanish from the
            // merged accounting
            self.untallied.0 += link.answered;
            self.untallied.1 += link.answered_ok;
        }
        if !link.pending.is_empty() || !link.got_trailer {
            link.shard.mark_broken();
        }
        for seq in link.pending {
            link.shard.note_answered();
            self.orphans.push(seq);
        }
    }

    /// Writes every link's requests and refreshes what the reactor
    /// watches. A link that broke, stalled, or outlived the shutdown drain
    /// budget is closed. Once the client's input is all taken, a link whose
    /// requests are all written is half-closed.
    fn flush_links(&mut self, now: Instant, reading: bool, spent: bool, input_done: bool) {
        let mut i = 0;
        while i < self.links.len() {
            let link = &mut self.links[i];
            if spent || !link.flush(now, reading) || !link.watch(&self.sources, reading) {
                self.close_link(i);
                continue;
            }
            if input_done && link.out.is_empty() && !link.half_closed {
                let _ = link.stream.shutdown(Shutdown::Write);
                link.half_closed = true;
            }
            i += 1;
        }
    }

    /// The batch is over: fill any hole, then merge the shards' trailers
    /// over a base that accounts for the records no shard trailer covers
    /// (router-side errors, and answers from shards that died before their
    /// trailer).
    fn finish(&mut self) {
        if self.fanin.next < self.next_seq {
            let meta: Vec<(usize, Option<String>)> = (0..self.next_seq)
                .map(|seq| match self.records.get(&seq) {
                    Some(p) => (p.orig_line, extract_id(&p.raw)),
                    None => (0, None),
                })
                .collect();
            self.stats.failed += self.fanin.finish(self.next_seq, &meta);
        }
        let (answered, answered_ok) = self.untallied;
        let mut merged = BatchSummary {
            records: self.stats.failed + answered,
            solved: answered_ok,
            errors: self.stats.failed + (answered - answered_ok),
            total_cost: 0,
            total_lower_bound: 0,
            aggregate_gap: BatchSummary::aggregate_gap(0, 0),
            wall: self.started.elapsed(),
            throughput: 0.0,
            solved_per_s: 0.0,
            p50_solve: Duration::ZERO,
            p99_solve: Duration::ZERO,
            solution_cache_hits: 0,
            solution_cache_misses: 0,
            workers: 0,
            deadline_hits: 0,
        };
        for trailer in &self.trailers {
            merged.merge(trailer);
        }
        self.end = Some(merged);
    }
}

impl Session for RouteMachine {
    /// Reads the shard streams, dispatches the client's new lines, writes
    /// the requests, re-dispatches orphans until none is left, and emits
    /// the answers that are ready in input order. `allow_parse = false`
    /// takes no client line and reads no shard stream (nor watches one for
    /// reading), so a slow client stalls its shards, as a slow socket
    /// would.
    fn pump(&mut self, input: &mut Lines, out: &mut Vec<u8>, allow_parse: bool) {
        let now = Instant::now();
        if self.drain_until.is_none() && self.shutdown.is_cancelled() {
            self.drain_until = Some(now + SHARD_DRAIN_BUDGET);
        }
        let spent = self.drain_until.is_some_and(|until| now >= until);
        if allow_parse {
            let mut i = 0;
            while i < self.links.len() {
                if self.read_link(i) {
                    i += 1;
                } else {
                    self.close_link(i);
                }
            }
        }
        loop {
            // orphans go out before (not after) the client's next lines
            self.redispatch(spent);
            let gated = allow_parse && self.take_lines(input);
            self.flush_links(now, allow_parse, spent, input.is_done());
            // a flush that closed a link made orphans, and one that wrote
            // the backlog under the gate lets the client's next lines in
            if self.orphans.is_empty() && !(gated && self.held() <= INPUT_LIMIT) {
                break;
            }
        }
        if self.end.is_none() && input.is_done() && self.links.is_empty() {
            self.finish();
        }
        out.append(&mut self.fanin.writer);
    }

    fn is_done(&self) -> bool {
        self.end.is_some()
    }

    /// Busy until the batch ends: the router cuts no idle connection.
    fn has_inflight(&self) -> bool {
        self.end.is_none()
    }

    fn take_result(&mut self) -> Result<BatchSummary, ServeError> {
        Ok(self.end.take().expect("a finished session has an end"))
    }

    /// A stalled shard write's timeout, or the end of the shutdown drain.
    fn deadline(&self) -> Option<Instant> {
        let stalls = self.links.iter().filter_map(|l| l.stalled);
        let stalls = stalls.map(|since| since + WRITE_TIMEOUT);
        let drain = self.drain_until.filter(|_| !self.links.is_empty());
        stalls.chain(drain).min()
    }
}

impl Drop for RouteMachine {
    /// The client is gone, or the batch is over: every record still on a
    /// shard stream is settled, and the streams close.
    fn drop(&mut self) {
        for link in &self.links {
            let _ = self.sources.watch(&link.stream, link.watched, None);
            for _ in &link.pending {
                link.shard.note_answered();
            }
        }
    }
}

/// Pulls the record id out of a raw request line, if it parses at all —
/// best-effort, for router-side error lines only; shards do their own
/// parsing.
fn extract_id(raw: &[u8]) -> Option<String> {
    match json::parse(std::str::from_utf8(raw).ok()?) {
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
            extract_id(b"{\"id\": \"abc\", \"instance\": {\"g\": 1, \"jobs\": []}}\r\n"),
            Some("abc".to_string())
        );
        assert_eq!(extract_id(br#"{"instance": {}}"#), None);
        assert_eq!(extract_id(b"not json"), None);
        assert_eq!(extract_id(b"{\"id\": \"caf\xc3\xa9\xff\"}\n"), None);
        assert_eq!(
            extract_id(br#"{"id": 7}"#),
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
