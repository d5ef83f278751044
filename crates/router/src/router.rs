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
//! The client's trailer merges one trailer per shard stream: the first
//! trailer-shaped line a stream carries after its answers (a later one is
//! dropped like free text), folded in with [`BatchSummary::merge`] as the
//! stream ends. A stream that ends without one adds the answers it carried
//! instead. Counts add, the wall is the longest — the router's own or a
//! shard's — and both rates are the merged counts over that wall, so no
//! rate a shard reports reaches the client.
//!
//! Request lines are forwarded verbatim: the router takes each client line
//! off the connection's [`Lines`] framer and writes its bytes to a shard
//! as they arrived, so a shard answers a routed line exactly as it answers
//! the same line sent to it directly. The router decodes a line only to
//! find the `id` of an error line it writes itself. Shard answers are
//! framed by one [`Lines`] per shard stream.
//!
//! Ordering is restored per connection by the session's [`Ledger`]: each
//! record is opened there as its line is taken, shard responses are
//! restamped with the client's original `line` via [`reline_output`] (no
//! re-parse, no re-serialize), answer their record in the ledger, and
//! leave it once every earlier record has answered.
//!
//! Back-pressure: a routed batch takes no client line while it holds more
//! than [`INPUT_LIMIT`] bytes for its client — requests its shard streams
//! have not written yet, and answers waiting in the ledger on an earlier
//! one. A shard that stops reading, or one slow record holding up the
//! in-order fan-in, therefore stops the router reading its client, as the
//! reactor's input gate does on `listen`.
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
//! single-threaded session that owns its shard streams, each a reactor
//! [`Wire`] watched by the connection's reactor — the same nonblocking
//! reads, writes and stall clock as a client connection's. Fan-out,
//! in-order fan-in, orphan retry and the trailer merge all run there, so a
//! routed batch costs no thread either; the router's own threads are the
//! prober and, in `--spawn` mode, the shard monitors.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use busytime_core::cancel::CancelToken;
use busytime_core::solve::REPORT_SCHEMA_VERSION;
use busytime_instances::json;
use busytime_server::protocol::error_line;
use busytime_server::reactor::{
    self, Endpoint, Gauges, Notify, Service, Session, Sources, Wire, INPUT_LIMIT,
};
use busytime_server::{
    reline_output, BatchSummary, Ledger, Lines, ListenConfig, ListenMode, ServeError,
};

use crate::shard::{connect, lock, pick, ShardState};
use crate::spawn::sleep_cancellably;

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

/// Budget of each step of a `/healthz` probe: the connect, the request
/// write, and each read of the answer.
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

/// The router-side error of a record still unanswered when its batch ended
/// (a bug, not a normal path): the client never counts short.
const LOST: &str = "record lost in routing";

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
    loop {
        for shard in &service.shards {
            if service.shutdown.is_cancelled() {
                return;
            }
            if !shard.addr().is_empty() {
                let _ = shard.check(PROBE_TIMEOUT);
            }
        }
        if !sleep_cancellably(&service.shutdown, service.config.probe_interval) {
            return;
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
            ledger: Ledger::default(),
            parked: 0,
            answers: Vec::new(),
            links: Vec::new(),
            pinned: None,
            orphans: Vec::new(),
            tally: BatchSummary::new(0),
            counts: RouteReport::default(),
            started: Instant::now(),
            drain_until: None,
            done: false,
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
        let counts = &session.counts;
        {
            let mut report = lock(&self.report);
            report.records += counts.records;
            report.retried += counts.retried;
            report.failed += counts.failed;
        }
        self.log(format!(
            "conn {conn_id} ({peer}): {} records routed ({} retried, {} failed) \
             across {} healthy shards",
            counts.records,
            counts.retried,
            counts.failed,
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

/// One client record in the session's ledger.
#[derive(Debug)]
struct Pending {
    /// 1-based client input line — what the response must be stamped
    /// with, wherever it is solved.
    orig_line: usize,
    /// The record line as received (newline included), until the record
    /// is answered; its id is read only if the router answers it with an
    /// error line.
    raw: Vec<u8>,
    /// Re-dispatches so far.
    retries: usize,
}

/// One shard stream of a routed batch: a [`Wire`] watched by the
/// connection's reactor.
struct Link {
    shard: Arc<ShardState>,
    /// Requests go out here; the stream's stall clock runs while the
    /// session reads its answers.
    wire: Wire,
    /// Dispatched and unanswered ledger seqs in send order: a shard answers
    /// in order, so the front is the record its next response line answers.
    pending: VecDeque<usize>,
    /// The shard's answers, framed; they end with the stream.
    answers: Lines,
    /// Answers taken, for the merged trailer if the shard dies before
    /// sending its own.
    answered: usize,
    answered_ok: usize,
    /// The shard's trailer: the first trailer-shaped line after its
    /// answers. A later one is dropped like free text.
    trailer: Option<BatchSummary>,
}

impl Link {
    fn open(shard: Arc<ShardState>) -> std::io::Result<Link> {
        let stream = connect(&shard.addr(), CONNECT_TIMEOUT)?;
        Ok(Link {
            shard,
            wire: Wire::new(Box::new(stream))?,
            pending: VecDeque::new(),
            answers: Lines::new(CancelToken::never()),
            answered: 0,
            answered_ok: 0,
            trailer: None,
        })
    }
}

/// One connection's routed batch, pumped by its reactor: client lines go
/// out to shard streams as they are taken, answers come back in input
/// order, orphans are re-dispatched on the same path, and each shard's
/// trailer merges into the batch's one as its stream ends.
struct RouteMachine {
    shards: Vec<Arc<ShardState>>,
    sticky: bool,
    shutdown: CancelToken,
    sources: Sources,
    /// Every record not yet sent to the client, in input order.
    ledger: Ledger<Pending, String>,
    /// Bytes of the answers in the ledger, waiting on an earlier one.
    parked: usize,
    /// Answers released in input order, for the next pump's `out`.
    answers: Vec<u8>,
    links: Vec<Link>,
    /// The shard a sticky connection is pinned to.
    pinned: Option<usize>,
    /// Seqs reclaimed from ended links, awaiting re-dispatch.
    orphans: Vec<usize>,
    /// The batch's summary: each shard's trailer merged as its stream
    /// ends, the answers of streams that ended without one, and the
    /// records the router answered itself.
    tally: BatchSummary,
    /// This batch's share of the [`RouteReport`].
    counts: RouteReport,
    started: Instant,
    /// Set once shutdown is seen: when the drain stops waiting for shards.
    drain_until: Option<Instant>,
    /// Every stream has ended and `tally` is closed: the batch is over.
    done: bool,
}

impl RouteMachine {
    /// Bytes the batch holds for its client: requests its links have not
    /// written yet, and answers waiting in the ledger on an earlier one.
    fn held(&self) -> usize {
        self.links.iter().map(|l| l.wire.owed()).sum::<usize>() + self.parked
    }

    /// Takes the client's lines while [`RouteMachine::held`] stays within
    /// [`INPUT_LIMIT`]; each is a record, dispatched at once. Returns
    /// whether that gate stopped it.
    fn take_lines(&mut self, input: &mut Lines) -> bool {
        while self.held() <= INPUT_LIMIT {
            let Some(line) = input.next_line() else {
                return false;
            };
            let seq = self.ledger.open(Pending {
                orig_line: line.number,
                raw: line.bytes.to_vec(),
                retries: 0,
            });
            self.counts.records += 1;
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
                    None => return self.fail(seq, NO_SHARD),
                },
            };
            if self.sticky {
                self.pinned = Some(shard.index);
            }
            let open = self
                .links
                .iter()
                .position(|l| l.shard.index == shard.index && !l.wire.half_closed());
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
            let raw = &self.ledger.get(seq).expect("dispatched unanswered").raw;
            let link = &mut self.links[i];
            link.wire.out().extend_from_slice(raw);
            link.pending.push_back(seq);
            shard.note_dispatched();
            return;
        }
    }

    /// Answers record `seq` and releases the ledger's answered prefix to
    /// the client. The record's request bytes are dropped at once: only a
    /// waiting record is dispatched or failed, and the input gate counts
    /// the answer it waits with, not them.
    fn answer(&mut self, seq: usize, text: String) {
        if let Some(pending) = self.ledger.get_mut(seq) {
            pending.raw = Vec::new();
        }
        let len = text.len();
        if self.ledger.answer(seq, text) {
            self.parked += len;
        }
        while let Some((_, text)) = self.ledger.take() {
            self.parked -= text.len();
            self.answers.extend_from_slice(text.as_bytes());
            self.answers.push(b'\n');
        }
    }

    /// Answers record `seq` with a router-side error line, from its own
    /// line number and bytes.
    fn fail(&mut self, seq: usize, error: &str) {
        let pending = self.ledger.get(seq).expect("failed unanswered");
        let line = error_line(
            pending.orig_line,
            extract_id(&pending.raw).as_deref(),
            error,
        );
        self.counts.failed += 1;
        self.tally.records += 1;
        self.tally.errors += 1;
        self.answer(seq, line);
    }

    /// Re-dispatches every orphan in input order, within its retry cap and
    /// the shutdown drain budget.
    fn redispatch(&mut self, spent: bool) {
        let mut orphans = std::mem::take(&mut self.orphans);
        orphans.sort_unstable();
        for seq in orphans {
            let pending = self.ledger.get_mut(seq).expect("orphans are unanswered");
            if spent || pending.retries == MAX_RETRIES {
                self.fail(seq, NO_SHARD);
                continue;
            }
            pending.retries += 1;
            self.counts.retried += 1;
            self.dispatch(seq);
        }
    }

    /// Reads up to [`LINK_READ_BUDGET`] bytes off link `i` and takes the
    /// answer lines it has: an answer to the front of its queue is
    /// restamped and answers its record, the first trailer is kept for the
    /// merge, and anything else (free-text noise, a second trailer) is
    /// dropped — the wire contract promises responses and a trailer,
    /// nothing more. `false` once the stream has ended.
    fn read_link(&mut self, i: usize) -> bool {
        let link = &mut self.links[i];
        let open = matches!(
            link.wire
                .read(LINK_READ_BUDGET, |bytes| link.answers.push(bytes)),
            Ok(false)
        );
        if !open {
            link.answers.end();
        }
        loop {
            let link = &mut self.links[i];
            let Some(line) = link.answers.next_line() else {
                return open;
            };
            let text = String::from_utf8_lossy(line.bytes);
            let text = text.trim_end_matches(['\n', '\r']);
            let front = link.pending.front().copied();
            let relined =
                front.and_then(|seq| reline_output(text, self.ledger.get(seq)?.orig_line));
            if let (Some(seq), Some(relined)) = (front, relined) {
                link.pending.pop_front();
                link.shard.note_answered();
                link.answered += 1;
                link.answered_ok += usize::from(relined.ok);
                self.answer(seq, relined.text);
            } else if link.trailer.is_none() {
                link.trailer = BatchSummary::from_json_line(text).ok();
            }
        }
    }

    /// Ends link `i`: its trailer merges into the tally, and its
    /// unanswered records become orphans. A shard that left records
    /// unanswered, or ended without its trailer, is demoted at once.
    fn close_link(&mut self, i: usize) {
        let mut link = self.links.swap_remove(i);
        self.sources.unwatch(&mut link.wire);
        match &link.trailer {
            Some(trailer) => self.tally.merge(trailer),
            // without its trailer these answers would vanish from the
            // merged accounting
            None => {
                self.tally.records += link.answered;
                self.tally.solved += link.answered_ok;
                self.tally.errors += link.answered - link.answered_ok;
            }
        }
        if !link.pending.is_empty() || link.trailer.is_none() {
            link.shard.mark_broken();
        }
        for seq in link.pending {
            link.shard.note_answered();
            self.orphans.push(seq);
        }
    }

    /// Writes every link's requests and refreshes what the reactor
    /// watches: a link's answers while the session reads them, its
    /// requests while they wait. A link that broke, stalled for the write
    /// timeout while the session read its answers, or outlived the shutdown
    /// drain budget is closed. A session that reads nothing stalls its
    /// shards itself, so their stall clocks restart. Once the client's
    /// input is all taken, a link whose requests are all written is
    /// half-closed.
    fn flush_links(&mut self, now: Instant, reading: bool, spent: bool, input_done: bool) {
        let mut i = 0;
        while i < self.links.len() {
            let wire = &mut self.links[i].wire;
            if !reading {
                wire.restart_stall_clock();
            }
            let broken = spent
                || wire.flush().is_err()
                || wire.deadline().is_some_and(|stall| now >= stall)
                || self.sources.watch(wire, reading).is_err();
            if broken {
                self.close_link(i);
                continue;
            }
            if input_done && wire.owed() == 0 {
                wire.half_close();
            }
            i += 1;
        }
    }

    /// The batch is over: answer any record still waiting as lost, and
    /// close the tally over the longest wall, the router's own or a
    /// shard's.
    fn finish(&mut self) {
        let holes: Vec<usize> = self.ledger.waiting().map(|(seq, _)| seq).collect();
        for seq in holes {
            self.fail(seq, LOST);
        }
        let wall = self.tally.wall.max(self.started.elapsed());
        self.tally.set_wall(wall);
        self.done = true;
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
        if !self.done && input.is_done() && self.links.is_empty() {
            self.finish();
        }
        out.append(&mut self.answers);
    }

    fn is_done(&self) -> bool {
        self.done
    }

    /// Busy until the batch ends: the router cuts no idle connection.
    fn has_inflight(&self) -> bool {
        !self.done
    }

    fn take_result(&mut self) -> Result<BatchSummary, ServeError> {
        Ok(self.tally.clone())
    }

    /// A stalled shard write's timeout, or the end of the shutdown drain.
    fn deadline(&self) -> Option<Instant> {
        let stalls = self.links.iter().filter_map(|l| l.wire.deadline());
        let drain = self.drain_until.filter(|_| !self.links.is_empty());
        stalls.chain(drain).min()
    }
}

impl Drop for RouteMachine {
    /// The client is gone, or the batch is over: every record still on a
    /// shard stream is settled, and the streams close.
    fn drop(&mut self) {
        for link in &mut self.links {
            self.sources.unwatch(&mut link.wire);
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
    let record = json::parse(std::str::from_utf8(raw).ok()?).ok()?;
    Some(record.get("id")?.as_str()?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

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
