#![warn(missing_docs)]

//! `busytime-server` — the batched NDJSON solve server over the solver
//! registry.
//!
//! The workspace's serving story: fleets of independent busy-time
//! instances (optical-network provisioning waves, VM-consolidation
//! tickers, experiment sweeps) arrive continuously and must be solved at
//! throughput, not one `SolveRequest` at a time. This crate turns the
//! unified pipeline of [`busytime_core::solve`] into a batch engine:
//!
//! * [`protocol`] — the NDJSON wire format: one `SolveRequest`-shaped
//!   record per input line (instance inline or by
//!   [`busytime_instances::GeneratorSpec`]), one response line per record,
//!   in input order, every line stamped with the stable `schema_version`.
//! * [`engine`] — the one session engine and its blocking driver
//!   [`engine::BatchSession`] over any `BufRead`/`Write` pair
//!   ([`engine::serve`] is the stdin-shaped wrapper): records parse in
//!   waves, solution-cache hits answer at parse time, and the rest solve
//!   on the persistent process-wide [`busytime_core::pool::Executor`],
//!   each through one `SolveRequest` pipeline that detects its features
//!   once. A [`engine::BatchSummary`] (throughput + solved/s, p50/p99
//!   solve latency, aggregate gap, solution-cache hits, deadline hits)
//!   comes back once the batch drains.
//! * [`lines`] — the NDJSON line framer: line numbers, blank lines, the
//!   final unterminated line and the drain's partial line, in one place
//!   for every driver that reads a batch's bytes.
//! * [`reactor`] — the readiness loop behind every socket connection of
//!   `listen` and `route`: epoll I/O threads, sniffed health probes,
//!   incremental HTTP/1.1 framing, the bounded outbox, timers, capacity
//!   rejections and the drain, generic over a [`reactor::Service`] that
//!   opens one [`reactor::Session`] per batch.
//! * [`listener`] — the long-lived socket front-end: NDJSON over TCP or
//!   Unix-domain sockets plus a minimal HTTP/1.1 `POST /solve` +
//!   `GET /healthz` mode, the same session engine driven per connection
//!   by the reactor, all of them multiplexed onto the *one* process-wide
//!   executor (so `--workers` bounds total solver parallelism no matter
//!   how many connections are live), the solution cache shared across
//!   connections, per-connection summary trailer lines, and graceful drain
//!   on shutdown/idle-timeout.
//! * [`http`] — the minimal HTTP/1.1 plumbing behind the reactor's HTTP
//!   mode and health endpoint, including the client-side response reader
//!   and [`http::parse_healthz`] decoder that `busytime-router` uses to
//!   probe and score backend shards.
//!
//! The CLI front-ends are `busytime-cli serve` (stdin → stdout),
//! `busytime-cli batch FILE`, and `busytime-cli listen`
//! (`--tcp ADDR | --unix PATH | --http ADDR`):
//!
//! ```text
//! $ echo '{"instance": {"g": 2, "jobs": [[0, 4], [1, 5], [6, 9]]}}' \
//!     | busytime-cli serve --workers 4
//! {"schema_version": 1, "line": 1, "id": null, "ok": true, "report": {…}}
//! ```
//!
//! Library use mirrors that:
//!
//! ```
//! use busytime_core::solve::SolverRegistry;
//! use busytime_server::{serve, ServeConfig};
//!
//! let input = r#"{"id": "a", "instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}}"#;
//! let mut out = Vec::new();
//! let registry = SolverRegistry::with_defaults();
//! let summary = serve(input.as_bytes(), &mut out, &registry, &ServeConfig::default()).unwrap();
//! assert_eq!(summary.solved, 1);
//! assert!(String::from_utf8(out).unwrap().contains("\"ok\": true"));
//! ```

pub mod engine;
pub mod http;
pub mod lines;
pub mod listener;
mod machine;
pub mod protocol;
pub mod reactor;

pub use engine::{
    serve, BatchSession, BatchSummary, ErrorPolicy, ServeConfig, ServeError, DEFAULT_SOLUTION_CACHE,
};
pub use http::{parse_healthz, HealthSnapshot};
pub use lines::{Line, Lines};
pub use listener::{ConnLog, ListenConfig, ListenMode, ListenReport, Listener};
pub use protocol::{
    parse_output_line, reline_output, BatchRecord, OutputLine, RecordInput, RelinedOutput,
    ReportSummary,
};
