//! The session engine: one resumable state machine behind every serving
//! path.
//!
//! [`SessionMachine`] is the only code that turns request lines into
//! answers. It is *fed* raw bytes (`feed`), parses them into records,
//! prepares each one (solution-cache consultation included), hands the
//! solves to the shared [`Executor`], receives completions through an
//! inbox, and, *pumped* (`pump`), settles the answers and emits response
//! lines in input order into whatever buffer its driver keeps. It never
//! blocks on a transport and never writes the [`BatchSummary`] trailer;
//! its driver decides where the summary goes.
//!
//! Two drivers run it:
//!
//! * [`crate::engine::BatchSession`], the blocking driver behind `serve`,
//!   `batch` and the benches: it reads one wave of lines from a `BufRead`,
//!   feeds them, parks in [`SessionMachine::wait`] until the wave has
//!   completed, then writes and flushes the wave's answers.
//! * the [`crate::reactor`] threads, through the [`Session`] trait, for
//!   `listen`: they feed socket bytes as they arrive and pump again
//!   whenever a completion's `notify` wakes the poll loop, so the I/O
//!   thread never blocks and never solves.
//!
//! # Waves
//!
//! Records are parsed in *waves* of at most the chunk size
//! ([`crate::ServeConfig::chunk_size`]), and the next wave is parsed only
//! once every solve of the current one has completed. Solution-cache hits
//! and misses therefore do not depend on timing: a record repeated after a
//! completed wave is a lookup hit, and each copy of an instance repeated
//! within one wave is a miss that is solved.
//!
//! # Runner chains
//!
//! A wave's solves go into the session's run queue. At most `width` runner
//! jobs serve it on the executor: each pops a record, solves it through the
//! [`SolveRequest`] pipeline, posts the completion and notifies the driver.
//! A runner keeps going while no other submission's job waits on the
//! executor; otherwise it requeues itself at the back of the pool's queue
//! (the pool's yield rule), so concurrent sessions share the workers at
//! record granularity. The queue and the runner count sit under one lock,
//! so a chain cannot end while work is being queued behind it.
//!
//! Feature detection is the pipeline's `detect` phase, so it runs after the
//! record's budget is armed: its time counts toward the record's
//! `deadline_ms`, its reported `detect` phase and the summary's p50/p99.
//!
//! Lines are consumed by advancing a cursor over the input buffer; the
//! consumed prefix is compacted away once per wave, so a batch that
//! arrives in one piece costs time linear in its size.
//!
//! # Drain contract
//!
//! When the shutdown token fires, the machine still parses and answers
//! every newline-terminated line it has been fed — including lines that
//! arrived while an earlier wave was in flight. Their records run under
//! children of the cancelled token, so they come back cut, and every one
//! of them is counted in the summary. Only a trailing partial line (no
//! newline yet) is dropped. Bytes fed after
//! [`SessionMachine::finish_input`] are ignored, so a drain always ends.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use busytime_core::algo::SchedulerError;
use busytime_core::cancel::CancelToken;
use busytime_core::memo::{CachePolicy, CanonicalInstance, SolutionCache, SolveFingerprint};
use busytime_core::pool::Executor;
use busytime_core::solve::{SolveError, SolverRegistry, WARM_EDIT_BUDGET};
use busytime_core::{Instance, SolveReport, SolveRequest};

use crate::engine::{
    lock_ignoring_poison, percentile, BatchSummary, ErrorPolicy, ServeConfig, ServeError,
};
use crate::protocol::{error_line, report_line, BatchRecord};
use crate::reactor::{Notify, Session};

/// Everything the machines of one driver share: the registry, the engine
/// configuration, the solution cache, the executor and the shutdown token.
/// The listener builds one per listener and hands it to every connection's
/// machine; [`crate::engine::BatchSession`] builds one per run.
pub(crate) struct SessionContext {
    pub(crate) registry: Arc<SolverRegistry>,
    pub(crate) config: ServeConfig,
    pub(crate) solutions: SolutionCache,
    pub(crate) executor: Executor,
    /// The shutdown token: once it fires the machine answers its buffered
    /// complete lines and finishes (see the [module docs](self)), and
    /// every record token is armed as a child of it so a drain cuts
    /// in-flight and later solves cooperatively.
    pub(crate) cancel: CancelToken,
}

/// One prepared (parsed and cache-consulted) record, ready to solve.
struct SolveItem {
    record: BatchRecord,
    inst: Instance,
    /// Canonical (order-invariant) form of `inst`, computed once at parse
    /// time: the solution-cache key.
    canon: CanonicalInstance,
    /// The record's effective cache policy (`record.cache`, defaulting to
    /// read-write).
    policy: CachePolicy,
    /// Solution-cache identity of this solve (canonical solver key, seed,
    /// decompose). `None` when the solution cache is out of play for this
    /// record — disabled cache, `cache: "off"`, or a `max_jobs` refusal —
    /// so the solve neither looks up nor writes back.
    fingerprint: Option<SolveFingerprint>,
    /// A solution-cache hit, resolved at parse time: the cached report
    /// (assignment already remapped to this record's job order,
    /// `cached: true`). Hit records never reach the executor.
    hit: Option<SolveReport>,
    /// Effective solve budget: the record's `deadline_ms`, else the
    /// batch-level default. Armed onto the record's token when a runner
    /// picks the record up, so the clock starts at pickup, not when the
    /// wave was queued.
    budget: Option<Duration>,
}

/// What one solve hands back.
struct Outcome {
    result: Result<SolveReport, SolveError>,
    /// The record's *own deadline chain* had expired by the time the
    /// solver returned — the signal that separates "`Infeasible` because
    /// the budget ran out" from "genuinely infeasible, refused instantly".
    deadline_expired: bool,
    /// Wall-clock time from arming the record's token to the end of its
    /// solve, write-back included.
    elapsed: Duration,
    /// The record had a budget and `elapsed` exceeded it — the runner's
    /// own clock, so it holds even when the solver never polled its token.
    over_deadline: bool,
}

/// Running per-record statistics, frozen into the [`BatchSummary`] once
/// the session ends.
#[derive(Default)]
struct SessionStats {
    records: usize,
    solved: usize,
    errors: usize,
    total_cost: i64,
    total_lower_bound: i64,
    solution_cache_hits: usize,
    solution_cache_misses: usize,
    deadline_hits: usize,
    /// Latencies of unaffected solves only: budget cuts, drain cuts and
    /// solution-cache hits stay out of the percentiles.
    latencies: Vec<Duration>,
}

impl SessionStats {
    /// Freezes the running counts into the batch's [`BatchSummary`].
    fn summarize(mut self, wall: Duration, workers: usize) -> BatchSummary {
        self.latencies.sort_unstable();
        let per_second = |n: usize| {
            if wall.as_secs_f64() > 0.0 {
                n as f64 / wall.as_secs_f64()
            } else {
                0.0
            }
        };
        BatchSummary {
            records: self.records,
            solved: self.solved,
            errors: self.errors,
            total_cost: self.total_cost,
            total_lower_bound: self.total_lower_bound,
            aggregate_gap: BatchSummary::aggregate_gap(self.total_cost, self.total_lower_bound),
            throughput: per_second(self.records),
            solved_per_s: per_second(self.solved),
            wall,
            p50_solve: percentile(&self.latencies, 50.0),
            p99_solve: percentile(&self.latencies, 99.0),
            solution_cache_hits: self.solution_cache_hits,
            solution_cache_misses: self.solution_cache_misses,
            workers,
            deadline_hits: self.deadline_hits,
        }
    }
}

/// Builds the [`SolveItem`] for one parsed record: canonical instance,
/// cache policy, solve fingerprint, deadline budget, and the parse-time
/// solution-cache consultation (counted into `stats`).
fn prepare_record(
    record: BatchRecord,
    ctx: &SessionContext,
    stats: &mut SessionStats,
) -> SolveItem {
    let config = &ctx.config;
    let inst = record.instance();
    let budget = record
        .deadline_ms
        .map(Duration::from_millis)
        .or(config.base_options.deadline);
    let canon = CanonicalInstance::of(&inst);
    let policy = record.cache.unwrap_or_default();
    // the solution cache only sees records it could legitimately answer:
    // caching enabled, and not a record the pipeline would refuse on
    // `max_jobs` before solving
    let effective = record.apply_overrides(config.base_options.clone());
    let fingerprint = if !ctx.solutions.is_disabled()
        && policy != CachePolicy::Off
        && effective.max_jobs.is_none_or(|cap| inst.len() <= cap)
    {
        let named = record.solver.as_deref().unwrap_or(&config.default_solver);
        let solver = ctx
            .registry
            .get(named)
            .map(|e| e.key().to_string())
            .unwrap_or_else(|| named.to_string());
        Some(SolveFingerprint {
            solver,
            seed: effective.seed,
            decompose: effective.decompose,
        })
    } else {
        None
    };
    // consult the solution cache *before* dispatch: a hit is answered at
    // lookup speed and never costs a worker
    let mut hit = None;
    if let Some(fp) = &fingerprint {
        if policy.read_enabled() {
            match ctx.solutions.lookup(&canon, fp) {
                Some(report) => {
                    stats.solution_cache_hits += 1;
                    hit = Some(report);
                }
                None => stats.solution_cache_misses += 1,
            }
        }
    }
    SolveItem {
        record,
        inst,
        canon,
        policy,
        fingerprint,
        hit,
        budget,
    }
}

/// The runner side of one record: the solve (detection included) under a
/// child of the session token armed with the record's budget, then the
/// solution-cache write-back.
fn solve_item(ctx: &SessionContext, item: SolveItem) -> Outcome {
    let config = &ctx.config;
    let token = match item.budget {
        Some(budget) => ctx.cancel.child_after(budget),
        None => ctx.cancel.child(),
    };
    let started = Instant::now();
    // the record token is the single deadline authority here: clear the
    // option so the pipeline does not re-arm a second (later) deadline on
    // top of it
    let mut options = item.record.apply_overrides(config.base_options.clone());
    options.deadline = None;
    // a read-enabled exact solve that missed the cache may still
    // warm-start from a cached near match (same jobs up to a small edit
    // budget)
    if let Some(fp) = &item.fingerprint {
        if item.policy.read_enabled() && fp.solver.starts_with("exact") {
            options.warm_start = ctx.solutions.warm_hint(&item.canon, WARM_EDIT_BUDGET);
        }
    }
    let result = SolveRequest::new(&item.inst)
        .options(options)
        .solver(
            item.record
                .solver
                .as_deref()
                .unwrap_or(&config.default_solver),
        )
        .cancel(token.clone())
        .solve_with(&ctx.registry);
    // the cache itself refuses cut or truncated reports and re-validates
    // before storing
    if let (Some(fp), Ok(report)) = (&item.fingerprint, &result) {
        if item.policy.write_enabled() {
            ctx.solutions.insert(&item.canon, fp, report);
        }
    }
    // deadlines never un-expire, so sampling after the solve is exact; the
    // session token carries no deadline of its own, so a shutdown drain
    // does not masquerade as a budget expiry
    let deadline_expired = token.remaining().is_some_and(|r| r.is_zero());
    let elapsed = started.elapsed();
    Outcome {
        result,
        deadline_expired,
        elapsed,
        over_deadline: item.budget.is_some_and(|b| elapsed > b),
    }
}

/// Settles an unparseable line (or a solve that panicked) in input order:
/// the error line to stream, or the [`ServeError::FailFast`] abort under
/// that policy.
fn settle_bad(
    line: usize,
    id: Option<&str>,
    message: &str,
    policy: ErrorPolicy,
    stats: &mut SessionStats,
) -> Result<String, ServeError> {
    if policy == ErrorPolicy::FailFast {
        return Err(ServeError::FailFast {
            line,
            id: id.map(str::to_string),
            message: message.to_string(),
        });
    }
    stats.errors += 1;
    Ok(error_line(line, id, message))
}

/// Settles a record answered from the solution cache at parse time. Not a
/// solve, so it joins neither the deadline statistics nor the latency
/// percentiles.
fn settle_hit(
    line: usize,
    id: Option<&str>,
    report: &SolveReport,
    stats: &mut SessionStats,
) -> String {
    stats.solved += 1;
    stats.total_cost += report.cost;
    stats.total_lower_bound += report.lower_bound;
    report_line(line, id, report)
}

/// Settles one completed solve in input order: counts it, classifies the
/// deadline hit, and returns the response line to stream (or the
/// [`ServeError::FailFast`] abort).
///
/// A record is a deadline hit only when its *budget* cut the solve: the
/// runner's clock caught the solve over budget, or the deadline chain had
/// actually expired when a flagged report / `Infeasible` refusal came
/// back. A report flagged because the *session* token was poisoned
/// (shutdown drain) is a cut solve but not a deadline hit, and an instant,
/// genuine refusal under a generous budget is an error, not a hit.
fn settle_outcome(
    line: usize,
    id: Option<&str>,
    outcome: &Outcome,
    policy: ErrorPolicy,
    stats: &mut SessionStats,
) -> Result<String, ServeError> {
    let hit = outcome.over_deadline
        || (outcome.deadline_expired
            && match &outcome.result {
                Ok(report) => report.deadline_hit,
                Err(SolveError::Scheduler(SchedulerError::Infeasible { .. })) => true,
                Err(_) => false,
            });
    if hit {
        stats.deadline_hits += 1;
    }
    match &outcome.result {
        Ok(report) => {
            stats.solved += 1;
            stats.total_cost += report.cost;
            stats.total_lower_bound += report.lower_bound;
            if !hit && !report.deadline_hit {
                // p50/p99 describe unaffected records only: budget cuts
                // land in deadline_hits, and a shutdown-drain cut (flagged
                // but not a hit) must not skew the percentiles low either
                stats.latencies.push(outcome.elapsed);
            }
            Ok(report_line(line, id, report))
        }
        Err(e) => {
            if policy == ErrorPolicy::FailFast {
                return Err(ServeError::FailFast {
                    line,
                    id: id.map(str::to_string),
                    message: e.to_string(),
                });
            }
            stats.errors += 1;
            Ok(error_line(line, id, &e.to_string()))
        }
    }
}

/// One finished record, posted by a runner into the machine's inbox.
struct Completion {
    seq: usize,
    answer: Answer,
}

/// How one input-order slot will be (or was) answered.
enum Answer {
    /// The line failed to parse, or its solve panicked.
    Bad(String),
    /// Answered from the solution cache at parse time.
    Hit(SolveReport),
    /// A completed solve.
    Solved(Outcome),
}

enum SlotState {
    /// Queued for or on a runner; a [`Completion`] will fill it.
    InFlight,
    /// Answer known; drains once every earlier slot has drained.
    Ready(Box<Answer>),
}

/// One record's input-order slot.
struct Slot {
    line: usize,
    id: Option<String>,
    state: SlotState,
}

/// The session's run queue (see [runner chains](self#runner-chains)).
#[derive(Default)]
struct RunQueue {
    /// Solves waiting for a runner, in input order, with their slot seqs.
    items: VecDeque<(usize, Box<SolveItem>)>,
    /// Runner jobs alive: solving a record or queued on the executor.
    runners: usize,
    /// Runner jobs queued on the executor and not yet started: the part of
    /// the pool's queue depth a runner must not yield to.
    queued: usize,
}

#[derive(Default)]
struct Inbox {
    done: Vec<Completion>,
    /// How many completions a blocked [`SessionMachine::wait`] needs; `0`
    /// while nobody waits.
    awaited: usize,
}

/// What a machine shares with its runner jobs.
struct Shared {
    ctx: Arc<SessionContext>,
    run: Mutex<RunQueue>,
    inbox: Mutex<Inbox>,
    /// Signalled once the inbox holds every completion `wait` needs.
    arrived: Condvar,
    /// The driver's wakeup, called after every posted completion.
    notify: Notify,
}

impl Shared {
    fn post(&self, completion: Completion) {
        let mut inbox = lock_ignoring_poison(&self.inbox);
        inbox.done.push(completion);
        if inbox.done.len() == inbox.awaited {
            self.arrived.notify_one();
        }
        drop(inbox);
        (self.notify)();
    }
}

/// One runner job: solves queued records until the run queue is empty, or
/// requeues itself behind another submission's job.
fn run_chain(shared: Arc<Shared>) {
    let mut run = lock_ignoring_poison(&shared.run);
    run.queued -= 1;
    while let Some((seq, item)) = run.items.pop_front() {
        drop(run);
        // a panicking solver answers its own record with an error line
        // instead of leaving the session waiting for it forever
        let answer = match catch_unwind(AssertUnwindSafe(|| solve_item(&shared.ctx, *item))) {
            Ok(outcome) => Answer::Solved(outcome),
            Err(_) => Answer::Bad(String::from("solver panicked")),
        };
        shared.post(Completion { seq, answer });
        run = lock_ignoring_poison(&shared.run);
        // the pool's yield rule: another submission's job waits when the
        // pool queues more jobs than this session's own runners
        if !run.items.is_empty() && shared.ctx.executor.queue_depth() > run.queued {
            run.queued += 1;
            drop(run);
            let executor = shared.ctx.executor.clone();
            executor.spawn(move || run_chain(shared));
            return;
        }
    }
    run.runners -= 1;
}

/// A resumable batch session: feed bytes in, pump response bytes out, in
/// input order; see the [module docs](self).
pub(crate) struct SessionMachine {
    shared: Arc<Shared>,
    /// Input bytes; `inbuf[consumed..]` is still unparsed.
    inbuf: Vec<u8>,
    /// The consume cursor: end of the last line taken off `inbuf`.
    consumed: usize,
    /// Where the newline scan over `inbuf` resumes (`≥ consumed`).
    scanned: usize,
    line_no: usize,
    /// `finish_input` was called: the client's end of batch.
    eof: bool,
    /// FailFast latch: the batch is aborted and no further answers stream.
    failed: Option<ServeError>,
    /// Input-order slots awaiting drain; `base_seq` is the front's seq.
    slots: VecDeque<Slot>,
    base_seq: usize,
    next_seq: usize,
    /// Solves queued or running whose completions have not been drained.
    inflight: usize,
    width: usize,
    chunk_size: usize,
    stats: SessionStats,
    started: Instant,
    summary: Option<BatchSummary>,
}

impl SessionMachine {
    /// A machine over the shared context. `notify` is invoked from
    /// executor workers whenever a completion lands in the inbox — it must
    /// be cheap and non-blocking (the listener posts a wake to the owning
    /// poll loop).
    pub(crate) fn new(ctx: Arc<SessionContext>, notify: Notify) -> Self {
        // the session's share of the executor budget, never more than it
        let width = match ctx.config.workers {
            0 => ctx.executor.workers(),
            cap => cap.min(ctx.executor.workers()),
        };
        let chunk_size = match ctx.config.chunk_size {
            0 => (width * 32).clamp(64, 1024),
            size => size,
        };
        SessionMachine {
            shared: Arc::new(Shared {
                ctx,
                run: Mutex::default(),
                inbox: Mutex::default(),
                arrived: Condvar::new(),
                notify,
            }),
            inbuf: Vec::new(),
            consumed: 0,
            scanned: 0,
            line_no: 0,
            eof: false,
            failed: None,
            slots: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            inflight: 0,
            width,
            chunk_size,
            stats: SessionStats::default(),
            started: Instant::now(),
            summary: None,
        }
    }

    /// Records per wave.
    pub(crate) fn wave_size(&self) -> usize {
        self.chunk_size
    }

    /// Blocks until every in-flight record's completion is in the inbox:
    /// the blocking driver's one wakeup per wave.
    pub(crate) fn wait(&self) {
        let mut inbox = lock_ignoring_poison(&self.shared.inbox);
        inbox.awaited = self.inflight;
        while inbox.done.len() < self.inflight {
            inbox = self
                .shared
                .arrived
                .wait(inbox)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inbox.awaited = 0;
    }

    /// Moves posted completions into their slots.
    fn drain_inbox(&mut self) {
        let completions = std::mem::take(&mut lock_ignoring_poison(&self.shared.inbox).done);
        for Completion { seq, answer } in completions {
            // completions for slots cleared by a FailFast abort are stale
            if seq < self.base_seq {
                continue;
            }
            let slot = &mut self.slots[seq - self.base_seq];
            debug_assert!(matches!(slot.state, SlotState::InFlight));
            slot.state = SlotState::Ready(Box::new(answer));
            self.inflight -= 1;
        }
    }

    /// Streams the contiguous ready prefix, settling each answer into the
    /// session statistics.
    fn drain_ready(&mut self, out: &mut Vec<u8>) -> bool {
        let mut any = false;
        while matches!(
            self.slots.front().map(|s| &s.state),
            Some(SlotState::Ready(_))
        ) {
            let slot = self.slots.pop_front().expect("checked front");
            self.base_seq += 1;
            let SlotState::Ready(answer) = slot.state else {
                unreachable!("front checked Ready");
            };
            let policy = self.shared.ctx.config.error_policy;
            let id = slot.id.as_deref();
            let settled = match *answer {
                Answer::Bad(message) => {
                    settle_bad(slot.line, id, &message, policy, &mut self.stats)
                }
                Answer::Hit(report) => Ok(settle_hit(slot.line, id, &report, &mut self.stats)),
                Answer::Solved(outcome) => {
                    settle_outcome(slot.line, id, &outcome, policy, &mut self.stats)
                }
            };
            match settled {
                Ok(line) => {
                    out.extend_from_slice(line.as_bytes());
                    out.push(b'\n');
                    any = true;
                }
                Err(e) => {
                    self.fail(e);
                    break;
                }
            }
        }
        any
    }

    /// Aborts the batch: later slots never answer, queued solves are
    /// dropped, and completions still in flight are dropped as stale when
    /// they arrive.
    fn fail(&mut self, error: ServeError) {
        self.failed = Some(error);
        self.slots.clear();
        lock_ignoring_poison(&self.shared.run).items.clear();
        self.base_seq = self.next_seq;
        self.inflight = 0;
    }

    /// A new wave may parse once the current one has fully completed.
    /// (Completed means answered by the runners, not yet drained to the
    /// client: write-backs have happened, so parse-time lookups see them.)
    /// A fired shutdown token does not stop parsing: the drain answers
    /// every buffered complete line.
    fn can_parse(&self) -> bool {
        self.failed.is_none() && self.summary.is_none() && self.inflight == 0
    }

    /// The end (one past the newline) of the next complete line in
    /// `inbuf`, resuming the newline scan where it last stopped.
    fn complete_line_end(&mut self) -> Option<usize> {
        match self.inbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(at) => Some(self.scanned + at + 1),
            None => {
                self.scanned = self.inbuf.len();
                None
            }
        }
    }

    /// Takes the next line off `inbuf` by advancing the consume cursor: a
    /// complete line, or the final unterminated line at EOF (dropped
    /// instead once the shutdown token fired).
    fn take_line(&mut self) -> Option<Range<usize>> {
        let start = self.consumed;
        let end = match self.complete_line_end() {
            Some(end) => end,
            None if self.eof
                && start < self.inbuf.len()
                && !self.shared.ctx.cancel.is_cancelled() =>
            {
                self.inbuf.len()
            }
            None => return None,
        };
        self.consumed = end;
        self.scanned = end;
        Some(start..end)
    }

    /// Parses up to one wave of buffered records into new slots: bad lines
    /// and solution-cache hits are ready at once, solves go to the run
    /// queue.
    fn parse_wave(&mut self) -> bool {
        let ctx = Arc::clone(&self.shared.ctx);
        let mut records = 0;
        let mut solves: Vec<(usize, Box<SolveItem>)> = Vec::new();
        while records < self.chunk_size {
            let Some(range) = self.take_line() else { break };
            self.line_no += 1;
            let parsed = std::str::from_utf8(&self.inbuf[range])
                .map_err(|e| format!("line is not valid UTF-8: {e}"))
                .and_then(|line| {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        return Ok(None); // blank lines are not records
                    }
                    BatchRecord::parse(trimmed)
                        .map(Some)
                        .map_err(|e| e.to_string())
                });
            // under FailFast no point parsing past the abort point; records
            // before it still stream
            let abort = parsed.is_err() && ctx.config.error_policy == ErrorPolicy::FailFast;
            let (id, state) = match parsed {
                Ok(None) => continue,
                Ok(Some(record)) => {
                    let mut item = prepare_record(record, &ctx, &mut self.stats);
                    let id = item.record.id.clone();
                    match item.hit.take() {
                        Some(report) => (id, SlotState::Ready(Box::new(Answer::Hit(report)))),
                        None => {
                            solves.push((self.next_seq, Box::new(item)));
                            (id, SlotState::InFlight)
                        }
                    }
                }
                Err(message) => (None, SlotState::Ready(Box::new(Answer::Bad(message)))),
            };
            records += 1;
            self.stats.records += 1;
            self.slots.push_back(Slot {
                line: self.line_no,
                id,
                state,
            });
            self.next_seq += 1;
            if abort {
                break;
            }
        }
        // compact the consumed prefix once per wave, not once per line
        self.inbuf.drain(..self.consumed);
        self.scanned -= self.consumed;
        self.consumed = 0;
        self.submit(solves);
        records > 0
    }

    /// Queues a wave's solves and tops the session's runners up to its
    /// width.
    fn submit(&mut self, solves: Vec<(usize, Box<SolveItem>)>) {
        self.inflight += solves.len();
        let start = {
            let mut run = lock_ignoring_poison(&self.shared.run);
            run.items.extend(solves);
            let start = self.width.saturating_sub(run.runners).min(run.items.len());
            run.runners += start;
            run.queued += start;
            start
        };
        for _ in 0..start {
            let shared = Arc::clone(&self.shared);
            self.shared.ctx.executor.spawn(move || run_chain(shared));
        }
    }

    /// Records the summary once the input has ended (or, after the
    /// shutdown token fired, no complete line is left) and every slot has
    /// drained.
    fn maybe_summarize(&mut self) {
        if self.is_done() {
            return;
        }
        let input_done = if self.shared.ctx.cancel.is_cancelled() {
            self.complete_line_end().is_none()
        } else {
            self.eof && self.consumed == self.inbuf.len()
        };
        if !input_done || !self.slots.is_empty() || self.inflight > 0 {
            return;
        }
        let stats = std::mem::take(&mut self.stats);
        self.summary = Some(stats.summarize(self.started.elapsed(), self.width));
    }
}

impl Session for SessionMachine {
    /// Buffers freshly-read bytes; `pump` parses and dispatches them.
    fn feed(&mut self, bytes: &[u8]) {
        if !self.eof {
            self.inbuf.extend_from_slice(bytes);
        }
    }

    /// Buffered complete lines — and a final unterminated one, unless the
    /// shutdown token fired — are still parsed and answered.
    fn finish_input(&mut self) {
        self.eof = true;
    }

    /// Drains completions, emits ready answers (in input order) into
    /// `out`, parses and dispatches the next wave when the current one is
    /// complete, and records the summary once everything is answered.
    /// `allow_parse = false` suspends parsing while completions still
    /// drain.
    fn pump(&mut self, out: &mut Vec<u8>, allow_parse: bool) {
        self.drain_inbox();
        loop {
            let mut progressed = self.drain_ready(out);
            if allow_parse && self.can_parse() {
                progressed |= self.parse_wave();
            }
            if !progressed {
                break;
            }
        }
        self.maybe_summarize();
    }

    fn is_done(&self) -> bool {
        self.summary.is_some() || self.failed.is_some()
    }

    /// Records whose answers have not come back yet.
    fn has_inflight(&self) -> bool {
        self.inflight > 0
    }

    /// The summary, or why the batch aborted ([`ErrorPolicy::FailFast`]).
    fn take_result(&mut self) -> Result<BatchSummary, ServeError> {
        match self.failed.take() {
            Some(failure) => Err(failure),
            None => Ok(self
                .summary
                .take()
                .expect("a finished machine has a summary")),
        }
    }
}

impl Drop for SessionMachine {
    /// A machine dropped mid-batch (a closed connection) leaves its queued
    /// solves unsolved; runners finish only the records they hold.
    fn drop(&mut self) {
        lock_ignoring_poison(&self.shared.run).items.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;
    use std::time::Duration;

    use busytime_core::algo::{FirstFit, Scheduler, SchedulerError};
    use busytime_core::{Instance, Schedule};

    use super::*;
    use crate::protocol::{parse_output_line, OutputLine};

    /// Holds its worker until its token is cut (at most 10 s), so a wave
    /// stays in flight until the test cancels the session.
    struct Hold;

    impl Scheduler for Hold {
        fn name(&self) -> Cow<'static, str> {
            Cow::Borrowed("Hold")
        }

        fn schedule_with(
            &self,
            inst: &Instance,
            cancel: &CancelToken,
        ) -> Result<Schedule, SchedulerError> {
            let started = Instant::now();
            while !cancel.is_cancelled() && started.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
            FirstFit::paper().schedule_with(inst, &CancelToken::never())
        }
    }

    fn machine(cancel: &CancelToken) -> SessionMachine {
        machine_on(cancel, Executor::new(1), Arc::new(|| {}))
    }

    fn machine_on(
        cancel: &CancelToken,
        executor: Executor,
        notify: Arc<dyn Fn() + Send + Sync>,
    ) -> SessionMachine {
        let mut registry = SolverRegistry::with_defaults();
        registry.register(
            "hold",
            "holds a worker until cut (test stub)",
            None,
            Box::new(|_| Box::new(Hold)),
        );
        let config = ServeConfig::default();
        let ctx = SessionContext {
            registry: Arc::new(registry),
            solutions: SolutionCache::new(config.solution_cache),
            config,
            executor,
            cancel: cancel.clone(),
        };
        SessionMachine::new(Arc::new(ctx), notify)
    }

    fn record(id: &str, solver: &str) -> String {
        format!(
            r#"{{"id": "{id}", "instance": {{"g": 2, "jobs": [[0, 4], [1, 5]]}}, "solver": "{solver}"}}"#
        )
    }

    /// Pumps until the machine finishes (completions land from the
    /// executor asynchronously), appends the summary trailer the way the
    /// listener does, and returns everything emitted.
    fn pump_to_done(machine: &mut SessionMachine, mut out: Vec<u8>) -> Vec<String> {
        let started = Instant::now();
        while !machine.is_done() {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "never finished"
            );
            machine.pump(&mut out, true);
            std::thread::sleep(Duration::from_millis(1));
        }
        let summary = machine.take_result().unwrap();
        out.extend_from_slice(format!("{}\n", summary.to_json_line()).as_bytes());
        let text = String::from_utf8(out).unwrap();
        text.lines().map(str::to_owned).collect()
    }

    fn report_id(line: &str) -> Option<String> {
        match parse_output_line(line).unwrap() {
            OutputLine::Report { id, .. } => id,
            other => panic!("expected a report line, got {other:?}"),
        }
    }

    #[test]
    fn drain_answers_every_buffered_line_and_drops_a_trailing_partial() {
        let cancel = CancelToken::never();
        let mut m = machine(&cancel);
        let mut out = Vec::new();
        m.feed(format!("{}\n", record("a", "hold")).as_bytes());
        m.pump(&mut out, true);
        assert!(m.has_inflight(), "the first wave is on the executor");
        // lines arriving while that wave is in flight stay buffered
        let late = format!(
            "{}\n{}\n{{\"id\": \"partial\"",
            record("b", "hold"),
            record("c", "first-fit")
        );
        m.feed(late.as_bytes());
        m.pump(&mut out, true);
        assert!(out.is_empty());

        cancel.cancel();
        let lines = pump_to_done(&mut m, out);
        assert_eq!(lines.len(), 4, "three answers plus the trailer: {lines:?}");
        for (line, id) in lines.iter().zip(["a", "b", "c"]) {
            assert_eq!(report_id(line).as_deref(), Some(id), "{line}");
            assert!(line.contains("\"deadline_hit\": true"), "{line}");
        }
        assert!(lines[3].contains("\"records\": 3"), "{}", lines[3]);
    }

    #[test]
    fn split_lines_and_a_final_unterminated_line_are_answered() {
        let mut m = machine(&CancelToken::never());
        let mut out = Vec::new();
        let a = format!("{}\n", record("a", "first-fit"));
        let (head, tail) = a.as_bytes().split_at(20);
        m.feed(head);
        m.pump(&mut out, true);
        assert!(
            out.is_empty() && !m.has_inflight(),
            "half a line is no record"
        );
        m.feed(tail);
        m.feed(record("b", "first-fit").as_bytes()); // no trailing newline
        m.finish_input();
        // input after the end of batch is not part of it
        m.feed(format!("{}\n", record("late", "first-fit")).as_bytes());
        let lines = pump_to_done(&mut m, out);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert_eq!(report_id(&lines[0]).as_deref(), Some("a"));
        assert_eq!(report_id(&lines[1]).as_deref(), Some("b"));
        assert!(lines[2].contains("\"records\": 2"), "{}", lines[2]);
    }

    #[test]
    fn runners_yield_to_another_session_between_records() {
        // one worker, two sessions: A queues six records that each hold
        // the worker for 20 ms, then B queues one quick record. A's runner
        // must requeue behind B's after a record, so B finishes long
        // before A's backlog; a runner that never yields makes B wait for
        // all six.
        let executor = Executor::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let tagged = |tag: &'static str| -> Arc<dyn Fn() + Send + Sync> {
            let order = Arc::clone(&order);
            Arc::new(move || lock_ignoring_poison(&order).push(tag))
        };
        let cancel = CancelToken::never();
        let mut a = machine_on(&cancel, executor.clone(), tagged("a"));
        let mut b = machine_on(&cancel, executor, tagged("b"));
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for i in 0..6 {
            a.feed(
                format!(
                    r#"{{"id": "a{i}", "instance": {{"g": 2, "jobs": [[0, 4], [1, 5]]}}, "solver": "hold", "deadline_ms": 20}}"#
                )
                .as_bytes(),
            );
            a.feed(b"\n");
        }
        a.finish_input();
        a.pump(&mut out_a, true);
        b.feed(format!("{}\n", record("b", "first-fit")).as_bytes());
        b.finish_input();
        b.pump(&mut out_b, true);
        let lines_a = pump_to_done(&mut a, out_a);
        let lines_b = pump_to_done(&mut b, out_b);
        assert_eq!((lines_a.len(), lines_b.len()), (7, 2));

        let order = lock_ignoring_poison(&order).clone();
        assert_eq!(order.len(), 7, "{order:?}");
        let b_at = order.iter().position(|&t| t == "b").expect("b answered");
        assert!(
            b_at < 4,
            "b must finish before a's fourth answer, got {order:?}"
        );
    }
}
