//! The batch solve engine: NDJSON in, NDJSON out, a worker pool in the
//! middle.
//!
//! One session engine serves every entry point: a resumable session
//! machine (the private `machine` module) parses request lines into
//! records, answers solution-cache hits at parse time, solves the rest on
//! the process-wide [`busytime_core::pool::Executor`], and emits exactly
//! one response line per request line, in input order. Two drivers run it:
//!
//! * [`BatchSession`], the blocking driver over any `BufRead`/`Write`
//!   pair — stdin/stdout ([`serve`] is the thin wrapper), a file, or an
//!   embedder's stream;
//! * the [`crate::listener`] reactors, which frame socket bytes into lines
//!   as they arrive and never block.
//!
//! Every session submits to the same persistent worker pool, so concurrent
//! sessions share one worker budget instead of multiplying it.
//!
//! The session's one cache is the *solution* cache
//! ([`busytime_core::SolutionCache`]): before a record is dispatched to the
//! executor at all, the session looks its canonical instance + solve
//! fingerprint up and, on a hit, streams the cached validated report
//! (assignment remapped to the record's own job order, `cached: true`)
//! without occupying a worker. Misses are solved as usual — the solve
//! pipeline detects the instance's features itself — and written back;
//! exact solves additionally ask the cache for a near-match warm start
//! ([`busytime_core::solve::WARM_EDIT_BUDGET`]). Per-record `cache` policies
//! (`off`/`read`/`write`/`readwrite`) gate both directions, and the
//! [`crate::listener`] shares one cache handle across connections.
//!
//! Deadlines: each record's budget (its `deadline_ms`, else the batch
//! default) arms a [`busytime_core::CancelToken`] when a worker picks the
//! record up, and the token rides through the solve pipeline into every
//! solver loop, so one pathological record can no longer pin a worker for
//! seconds. The same clock judges the record: it is a deadline hit, counted
//! in [`BatchSummary::deadline_hits`], exactly when its solve ran past its
//! budget, so a solver that misses its cooperative check is counted too.
//!
//! Sessions are also *interruptible*: [`BatchSession::cancel`] installs a
//! session token that parents every record's deadline token, cutting
//! in-flight solves at their next cooperative checkpoint, and ends the
//! session's input, so a drain answers the lines already read and then
//! summarizes.

use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use busytime_core::cancel::CancelToken;
use busytime_core::memo::SolutionCache;
use busytime_core::pool::Executor;
use busytime_core::solve::{SolveOptions, SolverRegistry, REPORT_SCHEMA_VERSION};
use busytime_instances::json::{self, JsonError, Value};

use crate::lines::Lines;
use crate::machine::{SessionContext, SessionMachine};
use crate::reactor::Session;

/// What the engine does when a line fails to parse or solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// Emit a structured error line for the failed record and keep going
    /// (the default — a batch is many independent instances).
    #[default]
    KeepGoing,
    /// Stop at the first failure; [`serve`] returns
    /// [`ServeError::FailFast`]. Lines before the failure are already
    /// written.
    FailFast,
}

/// Engine configuration. A session's width is its executor's worker
/// budget: [`Executor::global`], sized via `--workers` /
/// `BUSYTIME_WORKERS`, unless [`BatchSession::executor`] installs another
/// instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Registry key used when a record names no solver.
    pub default_solver: String,
    /// Failure handling.
    pub error_policy: ErrorPolicy,
    /// Records per parse wave (`0` = sized from the worker count): the
    /// session parses the next wave only once every solve of the current
    /// one has completed, and the blocking driver writes and flushes once
    /// per wave. Smaller waves stream answers earlier; larger waves pay the
    /// wave barrier less often.
    pub chunk_size: usize,
    /// Capacity of the session's [`SolutionCache`] (validated reports,
    /// LRU-evicted); `0` disables solution caching entirely.
    pub solution_cache: usize,
    /// Base options for every record (per-record fields override).
    pub base_options: SolveOptions,
}

/// Default [`ServeConfig::solution_cache`] capacity: validated reports are
/// small (an assignment vector plus scalars), so a few thousand entries
/// cost megabytes at most.
pub const DEFAULT_SOLUTION_CACHE: usize = 1024;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            default_solver: "auto".to_string(),
            error_policy: ErrorPolicy::KeepGoing,
            chunk_size: 0,
            solution_cache: DEFAULT_SOLUTION_CACHE,
            base_options: SolveOptions::default(),
        }
    }
}

/// Why [`serve`] aborted.
#[derive(Debug)]
pub enum ServeError {
    /// Reading input or writing output failed.
    Io(std::io::Error),
    /// A record failed under [`ErrorPolicy::FailFast`].
    FailFast {
        /// 1-based input line of the failed record.
        line: usize,
        /// The record's id, when it parsed far enough to have one.
        id: Option<String>,
        /// Human-readable cause.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::FailFast { line, id, message } => match id {
                Some(id) => write!(f, "line {line} (id {id}): {message}"),
                None => write!(f, "line {line}: {message}"),
            },
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Aggregate statistics over one served batch.
#[derive(Clone, Debug)]
pub struct BatchSummary {
    /// Records processed (blank input lines are skipped and not counted).
    pub records: usize,
    /// Records solved successfully.
    pub solved: usize,
    /// Records answered with an error line.
    pub errors: usize,
    /// Summed busy time over solved records.
    pub total_cost: i64,
    /// Summed certified lower bounds over solved records.
    pub total_lower_bound: i64,
    /// `total_cost / total_lower_bound`. When the bound sum is 0 this is
    /// `1.0` only if the cost sum is also 0 (vacuously optimal — an empty
    /// or all-error batch); a positive cost over a zero bound reports
    /// [`f64::INFINITY`] (`null` in [`BatchSummary::to_json_line`]) rather
    /// than silently claiming optimality.
    pub aggregate_gap: f64,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Records *processed* per wall-clock second (solved and error records
    /// alike — an error answer is still work done and an answer streamed).
    pub throughput: f64,
    /// Records *solved* per wall-clock second. An error-heavy batch keeps
    /// an honest `throughput` while this field exposes the useful yield.
    pub solved_per_s: f64,
    /// Median per-record solve latency.
    pub p50_solve: Duration,
    /// 99th-percentile per-record solve latency.
    pub p99_solve: Duration,
    /// Solution-cache hits: records answered straight from the memo
    /// (validated cached report, assignment remapped to the record's job
    /// order) without dispatching a solve. Excluded from
    /// `p50_solve`/`p99_solve` — a lookup is not a solve latency.
    pub solution_cache_hits: usize,
    /// Solution-cache lookups that missed: records solved fresh under a
    /// read-enabled cache policy. Records with caching off (policy or a
    /// disabled cache) count in neither solution-cache statistic.
    pub solution_cache_misses: usize,
    /// The session's effective solve width: how many of the process-wide
    /// executor's workers its solves could occupy at once.
    pub workers: usize,
    /// Records whose solve ran past its deadline budget, on the clock that
    /// armed the record's token when a worker picked it up: a cut solve,
    /// an `Infeasible` refusal that came back too late, or a solver that
    /// ignored its token. A record cut by a session *shutdown drain* still
    /// answers `deadline_hit: true` on its response line (the solve was cut
    /// and the assignment is an incumbent) but is not counted here — this
    /// statistic describes deadlines, not drains. Counted records are
    /// excluded from `p50_solve`/`p99_solve`, which describe unaffected
    /// records only.
    pub deadline_hits: usize,
}

/// The longest time a trailer may state, in milliseconds (about 31
/// years): past any batch, and far enough inside [`Duration`]'s range that
/// [`BatchSummary::merge`]'s weighted mean cannot overflow it.
const MAX_TRAILER_MS: f64 = 1e12;

impl BatchSummary {
    /// A summary with nothing counted yet, of a batch solved `workers`
    /// wide: the tally a session counts its records into, and the base the
    /// router merges its shards' trailers over.
    pub fn new(workers: usize) -> BatchSummary {
        BatchSummary {
            records: 0,
            solved: 0,
            errors: 0,
            total_cost: 0,
            total_lower_bound: 0,
            aggregate_gap: 1.0,
            wall: Duration::ZERO,
            throughput: 0.0,
            solved_per_s: 0.0,
            p50_solve: Duration::ZERO,
            p99_solve: Duration::ZERO,
            solution_cache_hits: 0,
            solution_cache_misses: 0,
            workers,
            deadline_hits: 0,
        }
    }

    /// Closes a session's tally after `wall`: the rates, the gap, and the
    /// percentiles of `latencies` (the unaffected solves).
    pub(crate) fn close(&mut self, wall: Duration, latencies: &mut [Duration]) {
        latencies.sort_unstable();
        self.set_wall(wall);
        self.aggregate_gap = Self::aggregate_gap(self.total_cost, self.total_lower_bound);
        self.p50_solve = percentile(latencies, 50.0);
        self.p99_solve = percentile(latencies, 99.0);
    }

    /// Sets the wall-clock time, and both rates from it: records and
    /// solved records per second of `wall` (`0` over no time).
    pub fn set_wall(&mut self, wall: Duration) {
        let seconds = wall.as_secs_f64();
        let per_second = |n: usize| {
            if seconds > 0.0 {
                n as f64 / seconds
            } else {
                0.0
            }
        };
        self.wall = wall;
        self.throughput = per_second(self.records);
        self.solved_per_s = per_second(self.solved);
    }

    /// The aggregate gap for the given cost/bound sums: their ratio when
    /// the bound sum is positive, `1.0` when both sums are zero (vacuously
    /// optimal), and [`f64::INFINITY`] when a positive cost rides over a
    /// zero bound — a summary must not claim optimality it cannot certify.
    pub fn aggregate_gap(total_cost: i64, total_lower_bound: i64) -> f64 {
        if total_lower_bound > 0 {
            total_cost as f64 / total_lower_bound as f64
        } else if total_cost == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    }

    /// One summary JSON line (no trailing newline), for machine consumers.
    /// A non-finite [`BatchSummary::aggregate_gap`] serializes as `null`.
    pub fn to_json_line(&self) -> String {
        let gap = if self.aggregate_gap.is_finite() {
            format!("{:.6}", self.aggregate_gap)
        } else {
            String::from("null")
        };
        format!(
            "{{\"schema_version\": {REPORT_SCHEMA_VERSION}, \"records\": {}, \"solved\": {}, \
             \"errors\": {}, \"total_cost\": {}, \"total_lower_bound\": {}, \
             \"aggregate_gap\": {gap}, \"wall_ms\": {:.3}, \"throughput_per_s\": {:.3}, \
             \"solved_per_s\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"solution_cache_hits\": {}, \"solution_cache_misses\": {}, \"workers\": {}, \
             \"deadline_hits\": {}}}",
            self.records,
            self.solved,
            self.errors,
            self.total_cost,
            self.total_lower_bound,
            self.wall.as_secs_f64() * 1e3,
            self.throughput,
            self.solved_per_s,
            self.p50_solve.as_secs_f64() * 1e3,
            self.p99_solve.as_secs_f64() * 1e3,
            self.solution_cache_hits,
            self.solution_cache_misses,
            self.workers,
            self.deadline_hits,
        )
    }

    /// Parses a line written by [`BatchSummary::to_json_line`] back into a
    /// summary — how the shard router recognizes and collects each
    /// backend's trailer before merging. Distinguishing shape: a summary
    /// line carries `records` and never `line` (every per-record response
    /// line carries `line`). Numeric fields absent from an older
    /// producer's line default to zero; a `null` `aggregate_gap`
    /// round-trips to [`f64::INFINITY`]. A number that is not finite, and a
    /// time past about 31 years, make the line no summary.
    pub fn from_json_line(line: &str) -> Result<BatchSummary, JsonError> {
        let value = json::parse(line.trim())?;
        if value.get("line").is_some() {
            return Err(JsonError(
                "not a batch summary: carries a `line` field".into(),
            ));
        }
        if value.get("records").is_none() {
            return Err(JsonError("not a batch summary: no `records` field".into()));
        }
        let count = |key: &str| -> Result<usize, JsonError> {
            match value.get(key) {
                None => Ok(0),
                Some(v) => v
                    .as_i64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| JsonError(format!("summary `{key}` is not a count"))),
            }
        };
        let int = |key: &str| -> Result<i64, JsonError> {
            match value.get(key) {
                None => Ok(0),
                Some(v) => v
                    .as_i64()
                    .ok_or_else(|| JsonError(format!("summary `{key}` is not an integer"))),
            }
        };
        let num = |key: &str| -> Result<f64, JsonError> {
            match value.get(key) {
                None => Ok(0.0),
                Some(Value::Int(n)) => Ok(*n as f64),
                Some(Value::Number(n)) if n.is_finite() => Ok(*n),
                Some(_) => Err(JsonError(format!("summary `{key}` is not a number"))),
            }
        };
        let millis = |key: &str| -> Result<Duration, JsonError> {
            match num(key)? {
                ms if ms <= MAX_TRAILER_MS => Ok(Duration::from_secs_f64(ms.max(0.0) / 1e3)),
                _ => Err(JsonError(format!("summary `{key}` is out of range"))),
            }
        };
        let total_cost = int("total_cost")?;
        let total_lower_bound = int("total_lower_bound")?;
        let aggregate_gap = match value.get("aggregate_gap") {
            Some(Value::Null) => f64::INFINITY,
            Some(_) => num("aggregate_gap")?,
            None => Self::aggregate_gap(total_cost, total_lower_bound),
        };
        Ok(BatchSummary {
            records: count("records")?,
            solved: count("solved")?,
            errors: count("errors")?,
            total_cost,
            total_lower_bound,
            aggregate_gap,
            wall: millis("wall_ms")?,
            throughput: num("throughput_per_s")?,
            solved_per_s: num("solved_per_s")?,
            p50_solve: millis("p50_ms")?,
            p99_solve: millis("p99_ms")?,
            solution_cache_hits: count("solution_cache_hits")?,
            solution_cache_misses: count("solution_cache_misses")?,
            workers: count("workers")?,
            deadline_hits: count("deadline_hits")?,
        })
    }

    /// Folds another batch's summary into this one — the aggregation the
    /// shard router uses to merge per-shard trailers into the one trailer
    /// its client sees.
    ///
    /// Counts and sums (`records`, `solved`, `errors`, costs, bounds,
    /// cache statistics, `workers`, `deadline_hits`) add. `wall` takes the
    /// max (shards solve concurrently, not one after another), and both
    /// rates and `aggregate_gap` are recomputed from the merged counts,
    /// exactly what one undivided batch over the same records would have
    /// reported: the rates are records and solved records over that wall
    /// ([`BatchSummary::set_wall`]), so no rate a shard reports can make
    /// them non-finite, and a positive cost sum over a zero bound sum
    /// stays [`f64::INFINITY`].
    ///
    /// The latency percentiles cannot be recombined exactly without the
    /// per-record samples, so they are approximated: `p50_solve` is the
    /// solved-weighted mean of the two medians (always between them), and
    /// `p99_solve` takes the max (conservative — the merged tail is never
    /// reported better than the worst shard's).
    pub fn merge(&mut self, other: &BatchSummary) {
        let (a, b) = (self.solved, other.solved);
        if a + b > 0 {
            self.p50_solve = Duration::from_secs_f64(
                (self.p50_solve.as_secs_f64() * a as f64
                    + other.p50_solve.as_secs_f64() * b as f64)
                    / (a + b) as f64,
            );
        }
        self.p99_solve = self.p99_solve.max(other.p99_solve);
        self.records += other.records;
        self.solved += other.solved;
        self.errors += other.errors;
        self.total_cost += other.total_cost;
        self.total_lower_bound += other.total_lower_bound;
        self.aggregate_gap = Self::aggregate_gap(self.total_cost, self.total_lower_bound);
        self.set_wall(self.wall.max(other.wall));
        self.solution_cache_hits += other.solution_cache_hits;
        self.solution_cache_misses += other.solution_cache_misses;
        self.workers += other.workers;
        self.deadline_hits += other.deadline_hits;
    }
}

impl std::fmt::Display for BatchSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "batch: {} records ({} solved, {} errors) in {:.2} s | {:.0} rec/s \
             ({:.0} solved/s) | {} workers",
            self.records,
            self.solved,
            self.errors,
            self.wall.as_secs_f64(),
            self.throughput,
            self.solved_per_s,
            self.workers,
        )?;
        write!(
            f,
            "solve latency: p50 {:.2} ms, p99 {:.2} ms (unaffected records) | \
             aggregate gap ≤ {:.3} | deadline hits: {} | \
             solution cache: {} hits / {} misses",
            self.p50_solve.as_secs_f64() * 1e3,
            self.p99_solve.as_secs_f64() * 1e3,
            self.aggregate_gap,
            self.deadline_hits,
            self.solution_cache_hits,
            self.solution_cache_misses,
        )
    }
}

/// Lock tolerating poisoning, for mutexes whose contents are always valid
/// (caches, counters, clocks): one thread that panicked mid-access must
/// not cascade into every other session of a long-lived server.
pub(crate) fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The nearest-rank `pct`-th percentile of an ascending sample.
fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One batch session over a `BufRead`/`Write` pair: the blocking driver of
/// the session engine (see the [module docs](self)).
///
/// [`BatchSession::run`] reads one wave of request lines
/// ([`ServeConfig::chunk_size`] records) into its line framer, hands them
/// to a session machine, blocks until the wave's solves have completed,
/// writes and flushes the wave's answers in input order, and repeats
/// until the input ends. The machine does all parsing, caching, dispatch
/// and settling, so the answers are the bytes the [`crate::listener`]
/// sends for the same records.
/// [`serve`] wraps one session with a private solution cache around
/// stdin-style streams.
///
/// Drain contract: once the token installed by [`BatchSession::cancel`]
/// fires, the session reads nothing more, answers every line it already
/// read (those solves are cut), and returns its summary.
///
/// The driving thread blocks while the executor's workers solve, so a
/// session must not run on one of its own executor's workers.
pub struct BatchSession<'a> {
    registry: &'a SolverRegistry,
    config: &'a ServeConfig,
    solutions: SolutionCache,
    cancel: CancelToken,
    /// `None` = resolve [`Executor::global`] lazily at [`BatchSession::run`]
    /// time — building a session with a pinned pool must not materialize
    /// the process-wide one as a side effect.
    executor: Option<Executor>,
}

impl<'a> BatchSession<'a> {
    /// A session over `registry`/`config` with a private solution cache,
    /// no cancellation (runs to EOF), and the process-wide
    /// [`Executor::global`] as its pool.
    pub fn new(registry: &'a SolverRegistry, config: &'a ServeConfig) -> Self {
        BatchSession {
            registry,
            config,
            solutions: SolutionCache::new(config.solution_cache),
            cancel: CancelToken::never(),
            executor: None,
        }
    }

    /// Submits this session's solves to `executor` instead of the global
    /// pool — tests pin exact worker budgets this way, and embedders can
    /// isolate a session from the process pool.
    pub fn executor(mut self, executor: Executor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Installs `cancel` as the session token. Once it fires the session
    /// drains: in-flight solves are cut at their next cooperative
    /// checkpoint (the token parents every record's deadline token), no
    /// further input is read, every line already read is answered, and
    /// `run` returns its summary. The token is checked between line reads;
    /// a read that blocks is not interrupted, and a read error (a timeout
    /// included) ends the session as [`ServeError::Io`].
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Streams one response line per request line from `input` to `out`,
    /// returning the session's summary once the input ends (or the session
    /// token fires). Under [`ErrorPolicy::FailFast`] the first failed
    /// record aborts with [`ServeError::FailFast`] (lines before it are
    /// already written).
    pub fn run<R: BufRead, W: Write>(
        &self,
        mut input: R,
        mut out: W,
    ) -> Result<BatchSummary, ServeError> {
        let ctx = SessionContext {
            registry: Arc::new(self.registry.clone()),
            config: self.config.clone(),
            solutions: self.solutions.clone(),
            executor: self.executor.clone().unwrap_or_else(Executor::global),
            cancel: self.cancel.clone(),
        };
        let mut machine = SessionMachine::new(Arc::new(ctx), Arc::new(|| {}));
        let mut lines = Lines::new(self.cancel.clone());
        let mut answers = Vec::new();
        while !machine.is_done() {
            let mut records = 0;
            while records < machine.wave_size() && !lines.is_ended() {
                if self.cancel.is_cancelled() {
                    lines.end();
                    break;
                }
                records += usize::from(lines.read_line(&mut input)?);
            }
            machine.pump(&mut lines, &mut answers, true);
            while machine.has_inflight() {
                machine.wait();
                machine.pump(&mut lines, &mut answers, true);
            }
            out.write_all(&answers)?;
            out.flush()?;
            answers.clear();
        }
        machine.take_result()
    }
}

/// Streams one response line per request line from `input` to `out` — one
/// [`BatchSession`] with a private cache, run to EOF.
///
/// Returns the batch summary on success; under
/// [`ErrorPolicy::FailFast`] the first failed record aborts the batch with
/// [`ServeError::FailFast`] (lines before it are already written).
pub fn serve<R: BufRead, W: Write>(
    input: R,
    out: W,
    registry: &SolverRegistry,
    config: &ServeConfig,
) -> Result<BatchSummary, ServeError> {
    BatchSession::new(registry, config).run(input, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use busytime_core::algo::{Scheduler, SchedulerError};
    use busytime_core::{Instance, Schedule};
    use std::borrow::Cow;

    fn run(input: &str, config: &ServeConfig) -> (Vec<String>, BatchSummary) {
        run_with(&SolverRegistry::with_defaults(), input, config)
    }

    fn run_with(
        registry: &SolverRegistry,
        input: &str,
        config: &ServeConfig,
    ) -> (Vec<String>, BatchSummary) {
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, registry, config).unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_string).collect(), summary)
    }

    /// A solver that is *genuinely* infeasible, instantly — it never
    /// consults its token, so any `Infeasible` it returns has nothing to
    /// do with deadlines.
    struct Refuser;

    impl Scheduler for Refuser {
        fn name(&self) -> Cow<'static, str> {
            Cow::Borrowed("Refuser")
        }
        fn schedule_with(
            &self,
            _inst: &Instance,
            _cancel: &CancelToken,
        ) -> Result<Schedule, SchedulerError> {
            Err(SchedulerError::Infeasible {
                scheduler: "Refuser".into(),
                budget: "refuses every instance on principle".into(),
            })
        }
    }

    fn registry_with_refuser() -> SolverRegistry {
        let mut registry = SolverRegistry::with_defaults();
        registry.register(
            "refuser",
            "always refuses with Infeasible (test stub)",
            None,
            Box::new(|_| Box::new(Refuser)),
        );
        registry
    }

    #[test]
    fn solves_and_counts() {
        let input = concat!(
            r#"{"id": "a", "instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}}"#,
            "\n",
            r#"{"id": "b", "generator": {"family": "uniform", "n": 20, "seed": 1}}"#,
            "\n",
        );
        let (lines, summary) = run(input, &ServeConfig::default());
        assert_eq!(lines.len(), 2);
        assert_eq!(summary.records, 2);
        assert_eq!(summary.solved, 2);
        assert_eq!(summary.errors, 0);
        assert!(summary.total_cost >= summary.total_lower_bound);
        assert!(summary.aggregate_gap >= 1.0);
        assert!(summary.throughput > 0.0);
    }

    #[test]
    fn repeated_records_hit_the_solution_cache() {
        // chunk_size 1 so the first record's solve lands in the cache
        // before the later records are parsed
        let line = r#"{"instance": {"g": 2, "jobs": [[0, 4], [1, 5], [6, 9]]}}"#;
        let permuted = r#"{"instance": {"g": 2, "jobs": [[6, 9], [0, 4], [1, 5]]}}"#;
        let input = format!("{line}\n{line}\n{permuted}\n");
        let config = ServeConfig {
            chunk_size: 1,
            ..ServeConfig::default()
        };
        let (lines, summary) = run(&input, &config);
        assert_eq!(summary.solved, 3);
        assert_eq!(summary.solution_cache_misses, 1);
        assert_eq!(summary.solution_cache_hits, 2);
        assert!(lines[0].contains("\"cached\": false"), "{}", lines[0]);
        assert!(lines[1].contains("\"cached\": true"), "{}", lines[1]);
        // the hit is the original response verbatim, modulo the line stamp
        // and the `cached` provenance flag
        assert_eq!(
            lines[1]
                .replace("\"line\": 2", "\"line\": 1")
                .replace("\"cached\": true", "\"cached\": false"),
            lines[0]
        );
        // the permuted record hits too (canonical identity), with its
        // assignment remapped into its own job order
        assert!(lines[2].contains("\"cached\": true"), "{}", lines[2]);
        assert!(lines[2].contains("\"ok\": true"), "{}", lines[2]);
    }

    #[test]
    fn cache_off_policy_bypasses_the_solution_cache() {
        let fill = r#"{"instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}}"#;
        let off = r#"{"instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}, "cache": "off"}"#;
        let input = format!("{fill}\n{off}\n");
        let config = ServeConfig {
            chunk_size: 1,
            ..ServeConfig::default()
        };
        let (lines, summary) = run(&input, &config);
        assert_eq!(summary.solved, 2);
        // the off record neither read the cache (no hit despite the
        // identical fill record) nor counted as a miss
        assert_eq!(summary.solution_cache_hits, 0);
        assert_eq!(summary.solution_cache_misses, 1);
        assert!(lines[1].contains("\"cached\": false"), "{}", lines[1]);
    }

    #[test]
    fn zero_capacity_disables_the_solution_cache() {
        let line = r#"{"instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}}"#;
        let input = format!("{line}\n{line}\n");
        let config = ServeConfig {
            chunk_size: 1,
            solution_cache: 0,
            ..ServeConfig::default()
        };
        let (lines, summary) = run(&input, &config);
        assert_eq!(summary.solution_cache_hits, 0);
        assert_eq!(summary.solution_cache_misses, 0);
        assert!(lines[1].contains("\"cached\": false"), "{}", lines[1]);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let input = concat!(
            "\n",
            r#"{"instance": {"g": 2, "jobs": [[0, 3]]}}"#,
            "\n\n   \n",
        );
        let (lines, summary) = run(input, &ServeConfig::default());
        assert_eq!(lines.len(), 1);
        assert_eq!(summary.records, 1);
        // the response still names the physical input line
        assert!(lines[0].contains("\"line\": 2"), "{}", lines[0]);
    }

    #[test]
    fn invalid_utf8_line_is_a_record_error_not_a_stream_error() {
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(br#"{"instance": {"g": 2, "jobs": [[0, 3]]}}"#);
        input.extend_from_slice(b"\n\xff\xfe broken bytes\n");
        input.extend_from_slice(br#"{"instance": {"g": 2, "jobs": [[1, 4]]}}"#);
        input.extend_from_slice(b"\n");
        let registry = SolverRegistry::with_defaults();
        let mut out = Vec::new();
        let summary = serve(
            input.as_slice(),
            &mut out,
            &registry,
            &ServeConfig::default(),
        )
        .unwrap();
        assert_eq!(summary.records, 3);
        assert_eq!(summary.solved, 2);
        assert_eq!(summary.errors, 1);
        let text = String::from_utf8(out).unwrap();
        let middle = text.lines().nth(1).unwrap();
        assert!(middle.contains("\"ok\": false"), "{middle}");
        assert!(middle.contains("UTF-8"), "{middle}");
    }

    #[test]
    fn fail_fast_aborts_on_first_bad_line() {
        let input = concat!(
            r#"{"instance": {"g": 2, "jobs": [[0, 3]]}}"#,
            "\n",
            "garbage\n",
            r#"{"instance": {"g": 2, "jobs": [[0, 3]]}}"#,
            "\n",
        );
        let registry = SolverRegistry::with_defaults();
        let mut out = Vec::new();
        let config = ServeConfig {
            error_policy: ErrorPolicy::FailFast,
            ..ServeConfig::default()
        };
        let err = serve(input.as_bytes(), &mut out, &registry, &config).unwrap_err();
        match err {
            ServeError::FailFast { line, .. } => assert_eq!(line, 2),
            other => panic!("expected FailFast, got {other:?}"),
        }
        // the good line before the failure was already streamed
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn unknown_solver_becomes_error_line_under_keep_going() {
        let input = concat!(
            r#"{"id": "bad", "instance": {"g": 2, "jobs": [[0, 3]]}, "solver": "martian"}"#,
            "\n",
        );
        let (lines, summary) = run(input, &ServeConfig::default());
        assert_eq!(summary.errors, 1);
        assert!(lines[0].contains("\"ok\": false"));
        assert!(lines[0].contains("martian"));
    }

    #[test]
    fn summary_json_line_is_single_line() {
        let (_, summary) = run("", &ServeConfig::default());
        assert_eq!(summary.records, 0);
        let json = summary.to_json_line();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"records\": 0"));
        assert!(json.contains("\"deadline_hits\": 0"));
        assert!(json.contains("\"solved_per_s\": "));
    }

    #[test]
    fn infeasible_refusal_under_generous_deadline_is_not_a_deadline_hit() {
        // regression: an instantly-infeasible record used to count as a
        // deadline hit whenever the batch carried *any* deadline budget
        let registry = registry_with_refuser();
        let input = concat!(
            r#"{"id": "no", "instance": {"g": 2, "jobs": [[0, 4]]}, "solver": "refuser"}"#,
            "\n",
            r#"{"id": "yes", "instance": {"g": 2, "jobs": [[0, 4]]}}"#,
            "\n",
        );
        let config = ServeConfig {
            base_options: SolveOptions {
                deadline: Some(Duration::from_secs(600)),
                ..SolveOptions::default()
            },
            ..ServeConfig::default()
        };
        let (lines, summary) = run_with(&registry, input, &config);
        assert_eq!(summary.records, 2);
        assert_eq!(summary.solved, 1);
        assert_eq!(summary.errors, 1);
        assert_eq!(
            summary.deadline_hits, 0,
            "a genuine instant refusal must not be counted as a deadline hit"
        );
        assert!(lines[0].contains("\"ok\": false"), "{}", lines[0]);
    }

    #[test]
    fn infeasible_refusal_with_expired_deadline_still_counts() {
        // the complementary direction: `Infeasible` returned under an
        // *expired* budget is a cut with no incumbent — a real hit
        let registry = registry_with_refuser();
        let input = concat!(
            r#"{"id": "cut", "instance": {"g": 2, "jobs": [[0, 4]]}, "solver": "refuser", "deadline_ms": 0}"#,
            "\n",
        );
        let (lines, summary) = run_with(&registry, input, &ServeConfig::default());
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.deadline_hits, 1);
        assert!(lines[0].contains("\"ok\": false"), "{}", lines[0]);
    }

    /// A solver that poisons the *session* token mid-solve (standing in
    /// for a SIGINT arriving while the record is on a worker), then
    /// finishes with a feasible FirstFit schedule.
    struct Drainer {
        session: CancelToken,
    }

    impl Scheduler for Drainer {
        fn name(&self) -> Cow<'static, str> {
            Cow::Borrowed("Drainer")
        }
        fn schedule_with(
            &self,
            inst: &Instance,
            _cancel: &CancelToken,
        ) -> Result<Schedule, SchedulerError> {
            self.session.cancel();
            busytime_core::algo::FirstFit::paper().schedule_with(inst, &CancelToken::never())
        }
    }

    #[test]
    fn shutdown_drain_cuts_flag_the_report_but_not_deadline_hits() {
        // regression companion to the Infeasible fix: a record cut by the
        // session shutdown token (no deadline configured anywhere) must
        // answer deadline_hit: true (the solve *was* cut) without
        // inflating the summary's deadline_hits. It also pins the drain
        // contract: the record read alongside the drainer is still
        // answered, and nothing after the token fired is read.
        let session = CancelToken::never();
        let mut registry = SolverRegistry::with_defaults();
        let handle = session.clone();
        registry.register(
            "drainer",
            "poisons the session token mid-solve (test stub)",
            None,
            Box::new(move |_| {
                Box::new(Drainer {
                    session: handle.clone(),
                })
            }),
        );
        let input = concat!(
            r#"{"id": "drained", "instance": {"g": 2, "jobs": [[0, 4]]}, "solver": "drainer"}"#,
            "\n",
            r#"{"id": "second", "instance": {"g": 2, "jobs": [[1, 5]]}}"#,
            "\n",
            r#"{"id": "unread", "instance": {"g": 2, "jobs": [[2, 6]]}}"#,
            "\n",
        );
        let config = ServeConfig {
            chunk_size: 2,
            ..ServeConfig::default()
        };
        let mut out = Vec::new();
        let summary = BatchSession::new(&registry, &config)
            .cancel(session)
            .run(input.as_bytes(), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(summary.solved, 2);
        assert!(
            text.contains("\"deadline_hit\": true"),
            "the cut must still be visible on the response line: {text}"
        );
        assert_eq!(
            summary.deadline_hits, 0,
            "a shutdown drain is not a deadline hit"
        );
        // the second record was read with the drainer's wave and is
        // answered; the third is never read, and the trailer is the
        // caller's to write
        assert_eq!(summary.records, 2);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[1].contains("\"id\": \"second\""), "{}", lines[1]);
        assert!(lines[1].contains("\"ok\": true"), "{}", lines[1]);
    }

    #[test]
    fn aggregate_gap_does_not_claim_optimality_over_a_zero_bound() {
        // regression: positive cost over a zero bound summarized as 1.0
        assert_eq!(BatchSummary::aggregate_gap(0, 0), 1.0);
        assert_eq!(BatchSummary::aggregate_gap(10, 5), 2.0);
        assert!(BatchSummary::aggregate_gap(10, 0).is_infinite());

        let (_, mut summary) = run("", &ServeConfig::default());
        summary.total_cost = 10;
        summary.aggregate_gap = BatchSummary::aggregate_gap(10, 0);
        let json = summary.to_json_line();
        assert!(
            json.contains("\"aggregate_gap\": null"),
            "non-finite gap must serialize as null: {json}"
        );
    }

    #[test]
    fn throughput_counts_processed_records_not_just_solved() {
        // regression: an error-heavy batch reported near-zero throughput
        // despite answering every record
        let input = concat!(
            r#"{"instance": {"g": 2, "jobs": [[0, 4]]}}"#,
            "\n",
            "garbage\n",
            "also garbage\n",
        );
        let (_, summary) = run(input, &ServeConfig::default());
        assert_eq!(summary.records, 3);
        assert_eq!(summary.solved, 1);
        let wall = summary.wall.as_secs_f64();
        assert!(
            (summary.throughput * wall - 3.0).abs() < 1e-6,
            "throughput must cover all {} records: {} rec/s over {} s",
            summary.records,
            summary.throughput,
            wall
        );
        assert!(
            (summary.solved_per_s * wall - 1.0).abs() < 1e-6,
            "solved_per_s must cover the solved record only"
        );
    }

    #[test]
    fn session_runs_on_a_provided_executor() {
        let registry = SolverRegistry::with_defaults();
        let config = ServeConfig::default();
        let executor = busytime_core::pool::Executor::new(1);
        let input = concat!(r#"{"instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}}"#, "\n");
        let mut out = Vec::new();
        let summary = BatchSession::new(&registry, &config)
            .executor(executor)
            .run(input.as_bytes(), &mut out)
            .unwrap();
        assert_eq!(summary.solved, 1);
        assert_eq!(
            summary.workers, 1,
            "effective width must be the provided executor's budget"
        );
    }

    #[test]
    fn cancelled_session_stops_reading_at_the_next_chunk() {
        let registry = SolverRegistry::with_defaults();
        let config = ServeConfig {
            chunk_size: 1,
            ..ServeConfig::default()
        };
        let token = CancelToken::never();
        token.cancel();
        let input = concat!(
            r#"{"instance": {"g": 2, "jobs": [[0, 4]]}}"#,
            "\n",
            r#"{"instance": {"g": 2, "jobs": [[1, 5]]}}"#,
            "\n",
        );
        let mut out = Vec::new();
        let summary = BatchSession::new(&registry, &config)
            .cancel(token)
            .run(input.as_bytes(), &mut out)
            .unwrap();
        assert_eq!(
            summary.records, 0,
            "a pre-cancelled session must drain without reading records"
        );
        assert!(out.is_empty());
    }

    #[test]
    fn record_deadline_cuts_and_is_counted() {
        // deadline_ms: 0 expires before any solver work: the portfolio
        // returns its cheapest incumbent, flagged, and the summary counts
        // the hit while keeping the latency stats clean of it
        let input = concat!(
            r#"{"id": "cut", "instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}, "deadline_ms": 0}"#,
            "\n",
            r#"{"id": "free", "instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}}"#,
            "\n",
        );
        let (lines, summary) = run(input, &ServeConfig::default());
        assert_eq!(summary.solved, 2);
        assert_eq!(summary.deadline_hits, 1);
        assert!(lines[0].contains("\"deadline_hit\": true"), "{}", lines[0]);
        assert!(lines[1].contains("\"deadline_hit\": false"), "{}", lines[1]);
        match crate::protocol::parse_output_line(&lines[0]).unwrap() {
            crate::protocol::OutputLine::Report { report, .. } => {
                assert!(report.deadline_hit);
                assert_eq!(report.assignment.len(), 2);
            }
            other => panic!("expected report line, got {other:?}"),
        }
    }

    #[test]
    fn batch_level_deadline_applies_to_every_record() {
        let input = concat!(
            r#"{"instance": {"g": 2, "jobs": [[0, 4]]}}"#,
            "\n",
            r#"{"instance": {"g": 2, "jobs": [[1, 5]]}}"#,
            "\n",
        );
        let config = ServeConfig {
            base_options: SolveOptions {
                deadline: Some(Duration::ZERO),
                ..SolveOptions::default()
            },
            ..ServeConfig::default()
        };
        let (lines, summary) = run(input, &config);
        assert_eq!(summary.deadline_hits, 2);
        for line in &lines {
            assert!(line.contains("\"deadline_hit\": true"), "{line}");
        }
    }

    /// A solver that ignores its token: it sleeps 100 ms, then schedules.
    struct Sleeper;

    impl Scheduler for Sleeper {
        fn name(&self) -> Cow<'static, str> {
            Cow::Borrowed("Sleeper")
        }
        fn schedule_with(
            &self,
            inst: &Instance,
            _cancel: &CancelToken,
        ) -> Result<Schedule, SchedulerError> {
            std::thread::sleep(Duration::from_millis(100));
            busytime_core::algo::FirstFit::paper().schedule_with(inst, &CancelToken::never())
        }
    }

    #[test]
    fn a_solver_that_ignores_its_token_is_judged_by_the_runner_clock() {
        let mut registry = SolverRegistry::with_defaults();
        registry.register(
            "sleeper",
            "sleeps 100 ms whatever its token says (test stub)",
            None,
            Box::new(|_| Box::new(Sleeper)),
        );
        let input = concat!(
            r#"{"id": "slow", "instance": {"g": 2, "jobs": [[0, 4]]}, "solver": "sleeper", "deadline_ms": 5}"#,
            "\n",
            r#"{"id": "plain", "instance": {"g": 2, "jobs": [[1, 5]]}}"#,
            "\n",
        );
        let (lines, summary) = run_with(&registry, input, &ServeConfig::default());
        assert!(lines[0].contains("\"ok\": true"), "{}", lines[0]);
        assert!(lines[0].contains("\"deadline_hit\": true"), "{}", lines[0]);
        assert!(lines[1].contains("\"deadline_hit\": false"), "{}", lines[1]);
        assert_eq!(summary.solved, 2);
        assert_eq!(summary.deadline_hits, 1);
        // the overrun stays out of the percentiles, which see the plain
        // record only
        assert!(
            summary.p50_solve < Duration::from_millis(100),
            "{summary:?}"
        );
        assert!(
            summary.p99_solve < Duration::from_millis(100),
            "{summary:?}"
        );
    }

    #[test]
    fn record_deadline_overrides_batch_default() {
        // batch default of 0 would cut everything; the record's generous
        // per-record deadline_ms must win
        let input = concat!(
            r#"{"instance": {"g": 2, "jobs": [[0, 4]]}, "deadline_ms": 60000}"#,
            "\n",
        );
        let config = ServeConfig {
            base_options: SolveOptions {
                deadline: Some(Duration::ZERO),
                ..SolveOptions::default()
            },
            ..ServeConfig::default()
        };
        let (lines, summary) = run(input, &config);
        assert_eq!(summary.deadline_hits, 0);
        assert!(lines[0].contains("\"deadline_hit\": false"), "{}", lines[0]);
    }

    /// A shard-shaped summary built from an explicit latency sample set,
    /// the way a real per-shard batch computes its percentiles.
    fn shard_summary(samples_ms: &[u64], cost: i64, bound: i64) -> BatchSummary {
        let mut sorted: Vec<Duration> = samples_ms
            .iter()
            .map(|&ms| Duration::from_millis(ms))
            .collect();
        sorted.sort();
        let wall = Duration::from_millis(samples_ms.iter().sum::<u64>().max(1));
        let solved = sorted.len();
        BatchSummary {
            records: solved,
            solved,
            errors: 0,
            total_cost: cost,
            total_lower_bound: bound,
            aggregate_gap: BatchSummary::aggregate_gap(cost, bound),
            wall,
            throughput: solved as f64 / wall.as_secs_f64(),
            solved_per_s: solved as f64 / wall.as_secs_f64(),
            p50_solve: percentile(&sorted, 50.0),
            p99_solve: percentile(&sorted, 99.0),
            solution_cache_hits: 0,
            solution_cache_misses: 0,
            workers: 1,
            deadline_hits: 0,
        }
    }

    #[test]
    fn merge_recombines_percentiles_from_per_shard_samples() {
        // a fast shard and a slow shard, percentiles computed from real
        // sample sets by the same `percentile` the engine uses
        let fast = shard_summary(&[1, 2, 3, 4, 5], 10, 10);
        let slow = shard_summary(&[40, 50, 60], 30, 15);
        let (p50_fast, p50_slow) = (fast.p50_solve, slow.p50_solve);
        let p99_worst = fast.p99_solve.max(slow.p99_solve);

        let mut merged = fast.clone();
        merged.merge(&slow);

        assert_eq!(merged.records, 8);
        assert_eq!(merged.solved, 8);
        // the weighted-mean median always lands between the shard medians
        assert!(merged.p50_solve > p50_fast, "{merged:?}");
        assert!(merged.p50_solve < p50_slow, "{merged:?}");
        // exact: (3*5 + 50*3) / 8
        let expect = (p50_fast.as_secs_f64() * 5.0 + p50_slow.as_secs_f64() * 3.0) / 8.0;
        assert!((merged.p50_solve.as_secs_f64() - expect).abs() < 1e-9);
        // the merged tail is the worst shard's tail, never better
        assert_eq!(merged.p99_solve, p99_worst);
        // wall is concurrent (max), not sequential (sum)
        assert_eq!(merged.wall, fast.wall.max(slow.wall));
        // gap recomputed from the sums: (10+30)/(10+15)
        assert!((merged.aggregate_gap - 40.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn merge_propagates_infinite_gap_and_null_round_trips() {
        // one shard certified nothing (bound 0, positive cost): its gap is
        // infinite, and the merged bound sum stays 0 — the merged summary
        // must not claim a finite gap it cannot certify
        let certified_nothing = shard_summary(&[2], 7, 0);
        assert!(certified_nothing.aggregate_gap.is_infinite());
        let mut merged = shard_summary(&[1], 0, 0);
        merged.merge(&certified_nothing);
        assert!(merged.aggregate_gap.is_infinite(), "{merged:?}");

        // ... and the wire form survives the round trip: infinity is
        // `null` on the wire and comes back as infinity
        let line = merged.to_json_line();
        assert!(line.contains("\"aggregate_gap\": null"), "{line}");
        let back = BatchSummary::from_json_line(&line).unwrap();
        assert!(back.aggregate_gap.is_infinite());
        assert_eq!(back.records, merged.records);

        // a *positive* bound on the other side makes the recomputed gap
        // finite again — exactly what one undivided batch would report
        let mut merged = shard_summary(&[1], 10, 20);
        merged.merge(&certified_nothing);
        assert!((merged.aggregate_gap - 17.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts_and_rates() {
        let mut a = shard_summary(&[10, 10], 8, 8);
        a.deadline_hits = 1;
        a.errors = 1;
        a.records += 1; // the error record
        let mut b = shard_summary(&[20], 5, 5);
        b.deadline_hits = 2;

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.deadline_hits, 3);
        assert_eq!(merged.errors, 1);
        assert_eq!(merged.records, 4);
        assert_eq!(merged.workers, 2);
        // the rates are the merged counts over the merged (longest) wall
        let wall = merged.wall.as_secs_f64();
        assert!((merged.solved_per_s - merged.solved as f64 / wall).abs() < 1e-9);
        assert!((merged.throughput - merged.records as f64 / wall).abs() < 1e-9);
    }

    #[test]
    fn summary_json_line_round_trips() {
        let (_, summary) = run(
            "{\"instance\": {\"g\": 2, \"jobs\": [[0, 4], [1, 5]]}}\n",
            &ServeConfig::default(),
        );
        let back = BatchSummary::from_json_line(&summary.to_json_line()).unwrap();
        assert_eq!(back.records, summary.records);
        assert_eq!(back.solved, summary.solved);
        assert_eq!(back.total_cost, summary.total_cost);
        assert_eq!(back.total_lower_bound, summary.total_lower_bound);
        assert_eq!(back.workers, summary.workers);
        assert_eq!(back.solution_cache_hits, summary.solution_cache_hits);
        assert_eq!(back.solution_cache_misses, summary.solution_cache_misses);
        assert!((back.aggregate_gap - summary.aggregate_gap).abs() < 1e-5);
        assert!((back.wall.as_secs_f64() - summary.wall.as_secs_f64()).abs() < 1e-3);

        // response lines and junk must be rejected, never mis-merged
        assert!(BatchSummary::from_json_line(
            "{\"schema_version\": 1, \"line\": 3, \"id\": null, \"ok\": true}"
        )
        .is_err());
        assert!(BatchSummary::from_json_line("{\"status\": \"ok\"}").is_err());
        assert!(BatchSummary::from_json_line("not json").is_err());
        // so must times no `Duration` holds: past its range, and infinite
        // (`1e999` parses as infinity)
        for time in ["\"wall_ms\": 1e300", "\"p99_ms\": 1e999"] {
            let line = format!("{{\"schema_version\": 1, \"records\": 1, \"errors\": 1, {time}}}");
            assert!(BatchSummary::from_json_line(&line).is_err(), "{line}");
        }
    }
}
