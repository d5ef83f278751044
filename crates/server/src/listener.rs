//! The long-lived socket front-end: NDJSON over TCP/Unix sockets, plus a
//! minimal HTTP/1.1 mode, served by the [readiness reactor](crate::reactor).
//!
//! [`Listener`] turns the batch engine into an actual network service.
//! Every connection speaks exactly the stdin protocol of `busytime-cli
//! serve`: NDJSON request records in, one response line per record, in
//! input order — followed by one [`BatchSummary`] JSON line once the
//! client half-closes its write side. All connections share one
//! [`SolutionCache`] and submit their solves to one persistent
//! [`busytime_core::pool::Executor`] — by
//! default the process-wide `Executor::global`, sized via `--workers` /
//! `BUSYTIME_WORKERS`. The worker budget is therefore a true *process*
//! cap: no matter how many connections are live, at most `workers` solver
//! threads run at once.
//!
//! The listener is the reactor's solving [`Service`]: each connection's
//! session is the session machine `serve` drives too, whose runner jobs
//! solve records on the shared executor and wake the reactor as
//! completions land, so the executor workers never touch a socket. The
//! [`crate::reactor`] docs cover the readiness loop, the bounded outbox,
//! the timers, the HTTP mode and the drain.
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

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use busytime_core::cancel::CancelToken;
use busytime_core::memo::SolutionCache;
use busytime_core::pool::Executor;
use busytime_core::solve::{SolverRegistry, REPORT_SCHEMA_VERSION};
use busytime_instances::json;

use crate::engine::{lock_ignoring_poison, BatchSummary, ServeConfig};
use crate::machine::{SessionContext, SessionMachine};
use crate::reactor::{self, Endpoint, Gauges, Notify, Service, Sources};

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
#[derive(Clone, Debug, Default)]
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
    /// half. The executor is never blocked by a slow reader. Input has its
    /// own fixed bound beside this one,
    /// [`INPUT_LIMIT`](crate::reactor::INPUT_LIMIT): a client that writes
    /// faster than its records are answered stops being read.
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
    /// Per-connection summary logging.
    pub log: ConnLog,
    /// An identity for this listener when it serves as one backend of a
    /// sharded fleet (`--shard-id`). Reported in the `/healthz` body and
    /// tagged onto every per-connection log line so a merged stderr stream
    /// stays attributable.
    pub shard_id: Option<String>,
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

/// A long-lived front-end accepting batch-solve connections; see the
/// [module docs](self) for the shutdown contract.
pub struct Listener {
    endpoint: Endpoint,
    registry: Arc<SolverRegistry>,
    config: ListenConfig,
    shutdown: CancelToken,
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
        let solutions = SolutionCache::new(config.serve.solution_cache);
        Ok(Listener {
            endpoint: Endpoint::bind(mode)?,
            registry,
            config,
            shutdown: CancelToken::never(),
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
        self.endpoint.local_addr()
    }

    /// A URL-ish description of the bound endpoint, e.g.
    /// `tcp://127.0.0.1:7171`, `http://127.0.0.1:8080` or
    /// `unix:///run/busytime.sock`.
    pub fn endpoint(&self) -> String {
        self.endpoint.url()
    }

    /// The shutdown token: cancel it (from a signal handler thread, a
    /// supervisor, a test) to drain and stop the listener.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
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
        let ctx = Arc::new(SessionContext {
            registry: self.registry,
            config: self.config.serve.clone(),
            solutions: self.solutions,
            executor: self.executor.unwrap_or_else(Executor::global),
            cancel: self.shutdown.clone(),
        });
        let service = Arc::new(ListenService {
            ctx,
            config: self.config.clone(),
            report: Mutex::default(),
        });
        let counts = reactor::run(
            self.endpoint,
            Arc::clone(&service),
            &self.config,
            self.shutdown,
        )?;
        let mut report = lock_ignoring_poison(&service.report).clone();
        report.connections = counts.connections;
        report.rejected = counts.rejected;
        report.health_probes = counts.health_probes;
        Ok(report)
    }
}

/// The listener as the reactor's [`Service`]: every session is a
/// [`SessionMachine`] over one shared context.
struct ListenService {
    ctx: Arc<SessionContext>,
    config: ListenConfig,
    report: Mutex<ListenReport>,
}

impl Service for ListenService {
    type Session = SessionMachine;
    const NOUN: &'static str = "server";

    fn open(&self, notify: Notify, _: Sources) -> SessionMachine {
        SessionMachine::new(Arc::clone(&self.ctx), notify)
    }

    /// The honest process-wide capacity picture (worker budget, pool
    /// load, connection and outbox gauges) plus the listener's age,
    /// solution-cache effectiveness and (when sharded) identity.
    fn healthz(&self, gauges: &Gauges) -> String {
        let shard = match &self.config.shard_id {
            Some(id) => {
                let mut quoted = String::new();
                json::write_string(&mut quoted, id);
                quoted
            }
            None => String::from("null"),
        };
        let cache = self.ctx.solutions.stats();
        // one coherent snapshot: `busy_workers` is clamped to `workers`, so
        // a scrape racing a pool transition never reports more busy workers
        // than exist (the gauge dashboards divide these two)
        let pool = self.ctx.executor.stats();
        format!(
            "{{\"schema_version\": {REPORT_SCHEMA_VERSION}, \"status\": \"ok\", \
             \"workers\": {}, \"busy_workers\": {}, \"queue_depth\": {}, {gauges}, \
             \"solution_cache\": {{\"entries\": {}, \"capacity\": {}, \
             \"hit_rate\": {:.4}, \"warm_starts\": {}}}, \"shard_id\": {shard}}}\n",
            pool.workers,
            pool.busy,
            pool.queued,
            cache.entries,
            cache.capacity,
            cache.hit_rate(),
            cache.warm_starts,
        )
    }

    fn settle(&self, conn_id: usize, peer: &str, _: &SessionMachine, summary: &BatchSummary) {
        lock_ignoring_poison(&self.report).absorb(summary);
        match self.config.log {
            ConnLog::Quiet => {}
            ConnLog::Text => {
                let pool = self.ctx.executor.stats();
                eprintln!(
                    "conn {conn_id}{} ({peer}): {} records ({} solved, {} errors), {} deadline \
                     hits | pool {}/{} busy, {} queued",
                    shard_tag(&self.config),
                    summary.records,
                    summary.solved,
                    summary.errors,
                    summary.deadline_hits,
                    pool.busy,
                    pool.workers,
                    pool.queued,
                );
            }
            ConnLog::Json => eprintln!("{}", summary.to_json_line()),
        }
    }

    fn abort(&self, conn_id: usize, peer: &str, reason: &str) {
        if self.config.log != ConnLog::Quiet {
            eprintln!(
                "conn {conn_id}{} ({peer}): aborted: {reason}",
                shard_tag(&self.config)
            );
        }
    }
}

/// ` [shard-id]` when this listener has one, empty otherwise — spliced
/// into log lines so a fleet's merged stderr stays attributable.
fn shard_tag(config: &ListenConfig) -> String {
    match &config.shard_id {
        Some(id) => format!(" [{id}]"),
        None => String::new(),
    }
}
