//! The session engine: one resumable state machine behind every serving
//! path.
//!
//! [`SessionMachine`] is the only code that turns request lines into
//! answers. It *pulls* whole lines from its driver's [`Lines`] framer,
//! only when it can take them, parses them into records, prepares each
//! one (solution-cache consultation included), hands the solves to the
//! shared [`Executor`], receives completions through an inbox, and,
//! *pumped* (`pump`), settles the answers and emits response
//! lines in input order into whatever buffer its driver keeps. It never
//! blocks on a transport and never writes the [`BatchSummary`] trailer;
//! its driver decides where the summary goes.
//!
//! Two drivers run it:
//!
//! * [`crate::engine::BatchSession`], the blocking driver behind `serve`,
//!   `batch` and the benches: it reads one wave of lines from a `BufRead`
//!   into its framer, parks in [`SessionMachine::wait`] until the wave has
//!   completed, then writes and flushes the wave's answers.
//! * the [`crate::reactor`] threads, through the [`Session`] trait, for
//!   `listen`: they push socket bytes into the connection's framer as they
//!   arrive and pump again whenever a completion's `notify` wakes the poll
//!   loop, so the I/O thread never blocks and never solves. Lines the
//!   machine has not taken stay in the framer, where the reactor bounds
//!   them.
//!
//! # One ledger, one settle, one clock
//!
//! Every record is opened in the session's [`Ledger`] as its line is
//! parsed. An unparseable line and a solution-cache hit are answered at
//! once; a solve is answered when its completion is drained from the inbox.
//! The answered prefix leaves the ledger in input order, and each answer
//! goes through one settle step that counts it straight into the
//! [`BatchSummary`] the session returns and applies
//! [`ErrorPolicy::FailFast`].
//!
//! A record's effective [`SolveOptions`] are computed once, when it is
//! prepared. Its deadline budget arms the record's token when a runner
//! picks it up, and the same clock judges it: the record is a deadline hit
//! exactly when its solve ran past its budget, whether the solver polled
//! its token or not.
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
//! # Drain contract
//!
//! The framer's: when the shutdown token fires, the machine still takes
//! and answers every complete line its framer holds — including lines that
//! arrived while an earlier wave was in flight — and finishes once none is
//! left. Their records run under children of the cancelled token, so they
//! come back cut, and every one of them is counted in the summary. The
//! [`crate::lines`] docs give the rest of the line rules.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use busytime_core::cancel::CancelToken;
use busytime_core::memo::{CachePolicy, CanonicalInstance, SolutionCache, SolveFingerprint};
use busytime_core::pool::Executor;
use busytime_core::solve::{SolveError, SolveOptions, SolverRegistry, WARM_EDIT_BUDGET};
use busytime_core::{Instance, SolveReport, SolveRequest};

use crate::engine::{lock_ignoring_poison, BatchSummary, ErrorPolicy, ServeConfig, ServeError};
use crate::ledger::Ledger;
use crate::lines::Lines;
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
    /// The shutdown token: once it fires the machine answers the complete
    /// lines its framer holds and finishes (see the [module docs](self)), and
    /// every record token is armed as a child of it so a drain cuts
    /// in-flight and later solves cooperatively.
    pub(crate) cancel: CancelToken,
}

/// One prepared (parsed and cache-consulted) record, ready to solve.
struct SolveItem {
    record: BatchRecord,
    inst: Instance,
    /// The record's effective options: the batch's base options with the
    /// record's overrides folded in, once. Their `deadline` is the budget
    /// the runner arms at pickup.
    options: SolveOptions,
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
}

/// What one solve hands back.
struct Outcome {
    result: Result<SolveReport, SolveError>,
    /// Time from arming the record's token to the end of its solve,
    /// write-back included.
    elapsed: Duration,
    /// The record had a budget and `elapsed` ran past it: the deadline
    /// verdict, on the clock that armed the token.
    over_budget: bool,
}

/// Builds the [`SolveItem`] for one parsed record: effective options,
/// canonical instance, cache policy, solve fingerprint, and the parse-time
/// solution-cache consultation (counted into `tally`).
fn prepare_record(
    record: BatchRecord,
    ctx: &SessionContext,
    tally: &mut BatchSummary,
) -> SolveItem {
    let config = &ctx.config;
    let inst = record.instance();
    let options = record.apply_overrides(config.base_options.clone());
    let canon = CanonicalInstance::of(&inst);
    let policy = record.cache.unwrap_or_default();
    // the solution cache only sees records it could legitimately answer:
    // caching enabled, and not a record the pipeline would refuse on
    // `max_jobs` before solving
    let fingerprint = if !ctx.solutions.is_disabled()
        && policy != CachePolicy::Off
        && options.max_jobs.is_none_or(|cap| inst.len() <= cap)
    {
        let named = record.solver.as_deref().unwrap_or(&config.default_solver);
        let solver = ctx
            .registry
            .get(named)
            .map(|e| e.key().to_string())
            .unwrap_or_else(|| named.to_string());
        Some(SolveFingerprint {
            solver,
            seed: options.seed,
            decompose: options.decompose,
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
                    tally.solution_cache_hits += 1;
                    hit = Some(report);
                }
                None => tally.solution_cache_misses += 1,
            }
        }
    }
    SolveItem {
        record,
        inst,
        options,
        canon,
        policy,
        fingerprint,
        hit,
    }
}

/// The runner side of one record: the solve (detection included) under a
/// child of the session token armed with the record's budget, then the
/// solution-cache write-back.
fn solve_item(ctx: &SessionContext, item: SolveItem) -> Outcome {
    let SolveItem {
        record,
        inst,
        mut options,
        canon,
        policy,
        fingerprint,
        ..
    } = item;
    // the record token is the one deadline: armed here, at pickup, on the
    // clock that judges the record below; the pipeline arms none of its own
    let budget = options.deadline.take();
    let started = Instant::now();
    let token = match budget.and_then(|b| started.checked_add(b)) {
        Some(deadline) => ctx.cancel.child_until(deadline),
        None => ctx.cancel.child(),
    };
    // a read-enabled exact solve that missed the cache may still
    // warm-start from a cached near match (same jobs up to a small edit
    // budget)
    if let Some(fp) = &fingerprint {
        if policy.read_enabled() && fp.solver.starts_with("exact") {
            options.warm_start = ctx.solutions.warm_hint(&canon, WARM_EDIT_BUDGET);
        }
    }
    let solver = record
        .solver
        .as_deref()
        .unwrap_or(&ctx.config.default_solver);
    let result = SolveRequest::new(&inst)
        .options(options)
        .solver(solver)
        .cancel(token)
        .solve_with(&ctx.registry);
    // the cache itself refuses cut or truncated reports and re-validates
    // before storing
    if let (Some(fp), Ok(report)) = (&fingerprint, &result) {
        if policy.write_enabled() {
            ctx.solutions.insert(&canon, fp, report);
        }
    }
    let elapsed = started.elapsed();
    Outcome {
        result,
        elapsed,
        over_budget: budget.is_some_and(|b| elapsed > b),
    }
}

/// One finished record, posted by a runner into the machine's inbox.
struct Completion {
    seq: usize,
    answer: Answer,
}

/// How one record is answered.
enum Answer {
    /// The line failed to parse, or its solve panicked.
    Bad(String),
    /// Answered from the solution cache at parse time.
    Hit(SolveReport),
    /// A completed solve.
    Solved(Outcome),
}

/// The session's run queue (see [runner chains](self#runner-chains)).
#[derive(Default)]
struct RunQueue {
    /// Solves waiting for a runner, in input order, with their ledger seqs.
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

/// A resumable batch session: pull lines in, pump response bytes out, in
/// input order; see the [module docs](self).
pub(crate) struct SessionMachine {
    shared: Arc<Shared>,
    /// FailFast latch: the batch is aborted and no further answers stream.
    failed: Option<ServeError>,
    /// Every record not yet settled, by input line and id.
    ledger: Ledger<(usize, Option<String>), Answer>,
    width: usize,
    chunk_size: usize,
    /// The summary the session returns, counted as answers settle.
    tally: BatchSummary,
    /// Solve latencies of the unaffected records: budget cuts, drain cuts
    /// and solution-cache hits stay out of the percentiles.
    latencies: Vec<Duration>,
    started: Instant,
    /// Every record is answered and the tally is closed.
    done: bool,
}

impl SessionMachine {
    /// A machine over the shared context, as wide as its executor.
    /// `notify` is invoked from executor workers whenever a completion
    /// lands in the inbox — it must be cheap and non-blocking (the listener
    /// posts a wake to the owning poll loop).
    pub(crate) fn new(ctx: Arc<SessionContext>, notify: Notify) -> Self {
        let width = ctx.executor.workers();
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
            failed: None,
            ledger: Ledger::default(),
            width,
            chunk_size,
            tally: BatchSummary::new(width),
            latencies: Vec::new(),
            started: Instant::now(),
            done: false,
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
        inbox.awaited = self.ledger.unanswered();
        while inbox.done.len() < inbox.awaited {
            inbox = self
                .shared
                .arrived
                .wait(inbox)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inbox.awaited = 0;
    }

    /// Answers the records whose completions were posted. A completion
    /// for a record a FailFast abort dropped is stale, and the ledger
    /// drops it.
    fn drain_inbox(&mut self) {
        let completions = std::mem::take(&mut lock_ignoring_poison(&self.shared.inbox).done);
        for Completion { seq, answer } in completions {
            self.ledger.answer(seq, answer);
        }
    }

    /// Streams the ledger's answered prefix, settling each answer.
    fn drain_ready(&mut self, out: &mut Vec<u8>) -> bool {
        let mut any = false;
        while let Some(((line, id), answer)) = self.ledger.take() {
            match self.settle(line, id.as_deref(), answer) {
                Ok(text) => {
                    out.extend_from_slice(text.as_bytes());
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

    /// Settles one answer in input order: counts it into the tally and
    /// renders its response line, or turns a failed record into the
    /// batch's abort under [`ErrorPolicy::FailFast`].
    ///
    /// A solve is a deadline hit when it ran past its budget (see
    /// [`Outcome::over_budget`]); a cache hit or a bad line is no solve.
    /// Only a solve that neither ran past its budget nor came back cut (a
    /// shutdown drain cuts without a hit) joins the latency percentiles.
    fn settle(
        &mut self,
        line: usize,
        id: Option<&str>,
        answer: Answer,
    ) -> Result<String, ServeError> {
        let report = match answer {
            Answer::Bad(message) => Err(message),
            Answer::Hit(report) => Ok(report),
            Answer::Solved(outcome) => {
                self.tally.deadline_hits += usize::from(outcome.over_budget);
                if let Ok(report) = &outcome.result {
                    if !outcome.over_budget && !report.deadline_hit {
                        self.latencies.push(outcome.elapsed);
                    }
                }
                outcome.result.map_err(|e| e.to_string())
            }
        };
        match report {
            Ok(report) => {
                self.tally.solved += 1;
                self.tally.total_cost += report.cost;
                self.tally.total_lower_bound += report.lower_bound;
                Ok(report_line(line, id, &report))
            }
            Err(message) if self.shared.ctx.config.error_policy == ErrorPolicy::FailFast => {
                Err(ServeError::FailFast {
                    line,
                    id: id.map(str::to_string),
                    message,
                })
            }
            Err(message) => {
                self.tally.errors += 1;
                Ok(error_line(line, id, &message))
            }
        }
    }

    /// Aborts the batch: later records never answer, queued solves are
    /// dropped, and completions still in flight are dropped as stale when
    /// they arrive.
    fn fail(&mut self, error: ServeError) {
        self.failed = Some(error);
        self.ledger.clear();
        lock_ignoring_poison(&self.shared.run).items.clear();
    }

    /// A new wave may parse once the current one has fully completed.
    /// (Completed means answered by the runners, not yet drained to the
    /// client: write-backs have happened, so parse-time lookups see them.)
    /// A fired shutdown token does not stop parsing: the drain answers
    /// every complete line the framer holds.
    fn can_parse(&self) -> bool {
        self.failed.is_none() && !self.done && self.ledger.unanswered() == 0
    }

    /// Parses up to one wave of records off `input` into the ledger: bad
    /// lines and solution-cache hits are answered at once, solves go to the
    /// run queue.
    fn parse_wave(&mut self, input: &mut Lines) -> bool {
        let ctx = Arc::clone(&self.shared.ctx);
        let mut records = 0;
        let mut solves: Vec<(usize, Box<SolveItem>)> = Vec::new();
        while records < self.chunk_size {
            let Some(line) = input.next_line() else { break };
            let parsed = std::str::from_utf8(line.bytes)
                .map_err(|e| format!("line is not valid UTF-8: {e}"))
                .and_then(|text| BatchRecord::parse(text.trim()).map_err(|e| e.to_string()));
            // under FailFast no point parsing past the abort point; records
            // before it still stream
            let abort = parsed.is_err() && ctx.config.error_policy == ErrorPolicy::FailFast;
            records += 1;
            self.tally.records += 1;
            match parsed {
                Ok(record) => {
                    let mut item = prepare_record(record, &ctx, &mut self.tally);
                    let seq = self.ledger.open((line.number, item.record.id.clone()));
                    match item.hit.take() {
                        Some(report) => {
                            self.ledger.answer(seq, Answer::Hit(report));
                        }
                        None => solves.push((seq, Box::new(item))),
                    }
                }
                Err(message) => {
                    let seq = self.ledger.open((line.number, None));
                    self.ledger.answer(seq, Answer::Bad(message));
                }
            }
            if abort {
                break;
            }
        }
        self.submit(solves);
        records > 0
    }

    /// Queues a wave's solves and tops the session's runners up to its
    /// width.
    fn submit(&mut self, solves: Vec<(usize, Box<SolveItem>)>) {
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

    /// Closes the tally once the input is over and every record has
    /// drained.
    fn maybe_close(&mut self, input: &mut Lines) {
        if self.is_done() || !self.ledger.is_empty() || !input.is_done() {
            return;
        }
        self.tally
            .close(self.started.elapsed(), &mut self.latencies);
        self.done = true;
    }
}

impl Session for SessionMachine {
    /// Drains completions, emits ready answers (in input order) into
    /// `out`, takes and dispatches the next wave off `input` when the
    /// current one is complete, and closes the summary once everything is
    /// answered. `allow_parse = false` takes no line while completions
    /// still drain.
    fn pump(&mut self, input: &mut Lines, out: &mut Vec<u8>, allow_parse: bool) {
        self.drain_inbox();
        loop {
            let mut progressed = self.drain_ready(out);
            if allow_parse && self.can_parse() {
                progressed |= self.parse_wave(input);
            }
            if !progressed {
                break;
            }
        }
        self.maybe_close(input);
    }

    fn is_done(&self) -> bool {
        self.done || self.failed.is_some()
    }

    /// Records whose answers have not come back yet.
    fn has_inflight(&self) -> bool {
        self.ledger.unanswered() > 0
    }

    /// The summary, or why the batch aborted ([`ErrorPolicy::FailFast`]).
    fn take_result(&mut self) -> Result<BatchSummary, ServeError> {
        match self.failed.take() {
            Some(failure) => Err(failure),
            None => Ok(self.tally.clone()),
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
    fn pump_to_done(
        machine: &mut SessionMachine,
        input: &mut Lines,
        mut out: Vec<u8>,
    ) -> Vec<String> {
        let started = Instant::now();
        while !machine.is_done() {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "never finished"
            );
            machine.pump(input, &mut out, true);
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
        let mut input = Lines::new(cancel.clone());
        let mut out = Vec::new();
        input.push(format!("{}\n", record("a", "hold")).as_bytes());
        m.pump(&mut input, &mut out, true);
        assert!(m.has_inflight(), "the first wave is on the executor");
        // lines arriving while that wave is in flight stay buffered
        let late = format!(
            "{}\n{}\n{{\"id\": \"partial\"",
            record("b", "hold"),
            record("c", "first-fit")
        );
        input.push(late.as_bytes());
        m.pump(&mut input, &mut out, true);
        assert!(out.is_empty());

        cancel.cancel();
        let lines = pump_to_done(&mut m, &mut input, out);
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
        let mut input = Lines::new(CancelToken::never());
        let mut out = Vec::new();
        let a = format!("{}\n", record("a", "first-fit"));
        let (head, tail) = a.as_bytes().split_at(20);
        input.push(head);
        m.pump(&mut input, &mut out, true);
        assert!(
            out.is_empty() && !m.has_inflight(),
            "half a line is no record"
        );
        input.push(tail);
        input.push(record("b", "first-fit").as_bytes()); // no trailing newline
        input.end();
        // input after the end of batch is not part of it
        input.push(format!("{}\n", record("late", "first-fit")).as_bytes());
        let lines = pump_to_done(&mut m, &mut input, out);
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
        let (mut in_a, mut in_b) = (Lines::new(cancel.clone()), Lines::new(cancel.clone()));
        for i in 0..6 {
            in_a.push(
                format!(
                    r#"{{"id": "a{i}", "instance": {{"g": 2, "jobs": [[0, 4], [1, 5]]}}, "solver": "hold", "deadline_ms": 20}}"#
                )
                .as_bytes(),
            );
            in_a.push(b"\n");
        }
        in_a.end();
        a.pump(&mut in_a, &mut out_a, true);
        in_b.push(format!("{}\n", record("b", "first-fit")).as_bytes());
        in_b.end();
        b.pump(&mut in_b, &mut out_b, true);
        let lines_a = pump_to_done(&mut a, &mut in_a, out_a);
        let lines_b = pump_to_done(&mut b, &mut in_b, out_b);
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
