#![warn(missing_docs)]

//! `busytime` — facade crate for the busy-time scheduling workspace.
//!
//! A faithful, production-grade reproduction of Flammini, Monaco,
//! Moscardelli, Shachnai, Shalom, Tamir, Zaks: *Minimizing total busy time
//! in parallel scheduling with application to optical networks* (Theoretical
//! Computer Science 411 (2010) 3553–3562; preliminary version IPDPS 2009).
//!
//! # Solving an instance
//!
//! The front door is the unified solve pipeline of
//! [`busytime_core::solve`]: build a [`SolveRequest`], pick a solver by
//! registry name (or let the `auto` portfolio detect the instance's
//! structure and dispatch the best-guaranteed algorithm), and read
//! everything — schedule, cost, lower bound, approximation gap, per-phase
//! timings — off the returned [`SolveReport`]:
//!
//! ```
//! use busytime::{Instance, SolveRequest};
//!
//! let inst = Instance::from_pairs([(0, 4), (1, 5), (6, 9)], 2);
//! // `auto` detects structure (this family is a proper one) and dispatches;
//! // FirstFit is always raced as the safety net.
//! let report = SolveRequest::new(&inst).solver("auto").solve().unwrap();
//! assert!(report.gap >= 1.0);
//! println!("{}", report.summary());
//!
//! // any registered solver is one string away:
//! let ff = SolveRequest::new(&inst).solver("first-fit").solve().unwrap();
//! assert!(ff.cost >= report.lower_bound);
//! ```
//!
//! [`full_registry`] extends the default registry with the size-guarded
//! exact solvers of [`busytime_exact`]; pass it to
//! [`SolveRequest::solve_with`] when exact optima are wanted:
//!
//! ```
//! use busytime::{full_registry, Instance, SolveRequest};
//!
//! let inst = Instance::from_pairs([(0, 4), (1, 5), (6, 9)], 2);
//! let reg = full_registry();
//! let opt = SolveRequest::new(&inst).solver("exact").solve_with(&reg).unwrap();
//! assert_eq!(opt.gap, 1.0);
//! ```
//!
//! Solves are *interruptible*: [`SolveRequest::deadline`] arms a
//! cooperative [`busytime_core::CancelToken`] that every solver loop
//! polls, so even an exact solve near its size guard returns its best
//! incumbent within the deadline, flagged
//! [`SolveReport::deadline_hit`] — see the "Deadlines & interruption"
//! section of the README and the per-record `deadline_ms` field of the
//! serving protocol.
//!
//! The bare [`busytime_core::algo::Scheduler`] trait remains the low-level
//! extension point: implement it, then register a factory
//! ([`SolverRegistry::register`]) or pass a boxed instance via
//! [`SolveRequest::scheduler`].
//!
//! # Sub-crates
//!
//! * [`interval`] — time model, closed intervals, overlap profiles.
//! * [`graph`] — interval graphs, coloring, matching, max-flow, b-matching.
//! * [`core`] — instances, schedules, lower bounds, the paper's algorithms,
//!   and the [`core::solve`](mod@busytime_core::solve) pipeline.
//! * [`exact`] — exact optimum for small instances (branch-and-bound / DP).
//! * [`optical`] — the optical-network application of Section 4.
//! * [`instances`] — workload generators, including the paper's lower-bound
//!   constructions.
//! * [`lab`] — the experiment harness reproducing every figure/claim.
//! * [`server`] — the batched NDJSON solve server over the registry.
//! * [`router`] — the cross-process shard router: N `listen` backends
//!   served as one endpoint (`busytime-cli route`).
//!
//! # Serving
//!
//! Fleets of independent instances are solved at throughput through the
//! batch engine of [`server`]: NDJSON in (one `SolveRequest`-shaped record
//! per line, instance inline or by generator spec), one report line per
//! record in input order, solved on the persistent process-wide
//! [`core::pool::Executor`]. A repeated instance is answered from the
//! solution cache without a solve. From a shell:
//!
//! ```text
//! $ echo '{"instance": {"g": 2, "jobs": [[0, 4], [1, 5], [6, 9]]}}' \
//!     | busytime-cli serve --workers 4
//! {"schema_version": 1, "line": 1, "id": null, "ok": true, "report": {…}}
//! ```
//!
//! The same engine runs as a long-lived network service through
//! [`server::listener`] — `busytime-cli listen --tcp ADDR` (NDJSON over
//! TCP; also `--unix PATH`, and `--http ADDR` for a minimal HTTP/1.1
//! `POST /solve` + `GET /healthz` mode). Each connection drives the same
//! session engine as [`server::BatchSession`], all multiplexed onto the
//! *one* process-wide executor (`--workers` is a true process cap,
//! whatever the connection count), each ending with a
//! [`server::BatchSummary`] trailer line; one
//! [`core::SolutionCache`] is shared across connections; per-record
//! `deadline_ms` budgets act
//! as request timeouts; and SIGINT/SIGTERM drain in-flight batches before
//! exiting.
//!
//! To scale past one process, `busytime-cli route` puts the [`router`] in
//! front of N `listen` shards (pre-started via `--shards A,B,…` or
//! spawned and supervised via `--spawn N`): same wire protocol, responses
//! still in input order, one merged trailer per connection.
//!
//! From Rust:
//!
//! ```
//! use busytime::server::{serve, ServeConfig};
//!
//! let input = r#"{"generator": {"family": "uniform", "n": 30, "seed": 7}}"#;
//! let mut out = Vec::new();
//! let summary = serve(
//!     input.as_bytes(),
//!     &mut out,
//!     &busytime::full_registry(),
//!     &ServeConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(summary.solved, 1);
//! assert!(summary.aggregate_gap >= 1.0);
//! assert_eq!(summary.deadline_hits, 0);
//! ```
//!
//! See the repository README for a guided tour and `examples/` for runnable
//! entry points.

pub use busytime_core as core;
pub use busytime_exact as exact;
pub use busytime_graph as graph;
pub use busytime_instances as instances;
pub use busytime_interval as interval;
pub use busytime_lab as lab;
pub use busytime_optical as optical;
pub use busytime_router as router;
pub use busytime_server as server;

pub use busytime_core::solve::{
    Auto, InstanceFeatures, SolveError, SolveReport, SolveRequest, SolverRegistry,
};
pub use busytime_core::{Instance, Schedule};
pub use busytime_interval::Interval;

/// The complete solver registry: every algorithm and baseline of
/// [`busytime_core`] plus the size-guarded exact solvers of
/// [`busytime_exact`] (`exact-bb`, `exact-dp`, alias `exact`).
pub fn full_registry() -> SolverRegistry {
    let mut registry = SolverRegistry::with_defaults();
    busytime_exact::register(&mut registry);
    registry
}
