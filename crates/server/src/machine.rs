//! The resumable per-connection session state machine behind the
//! event-driven [`crate::listener`].
//!
//! [`SessionMachine`] is the non-blocking counterpart of
//! [`crate::engine::BatchSession`]: instead of owning a `BufRead`/`Write`
//! pair and blocking on it, the machine is *fed* raw socket bytes as they
//! arrive (`feed`), dispatches parsed records onto the shared
//! [`Executor`] as fire-and-forget jobs, receives completions through a
//! wakeable inbox, and *pumped* (`pump`) emits response bytes in input
//! order into whatever outbox the caller maintains. The I/O thread that
//! drives it never blocks and never solves; the executor workers that
//! solve never touch the socket.
//!
//! Record semantics are identical to the blocking engine by construction:
//! both paths share [`crate::engine`]'s `prepare_record` (parse-time
//! solution-cache consultation), `solve_prepared` (the worker-side solve,
//! warm starts and write-back included) and `settle_*` helpers (in-order
//! accounting, deadline classification, latency exclusions). Records are
//! parsed in *waves* of at most the engine chunk size, and the next wave
//! is parsed only once the current wave's dispatches have all completed —
//! which preserves the blocking engine's cross-record solution-cache
//! behavior (a record repeated after a completed wave is a lookup hit) and
//! its per-wave feature-cache accounting (duplicates within a wave count
//! one miss plus hits).
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
//! of them is counted in the summary trailer. Only a trailing partial
//! line (no newline yet) is dropped. Bytes fed after
//! [`SessionMachine::finish_input`] are ignored, so a drain always ends.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use busytime_core::cancel::CancelToken;
use busytime_core::memo::SolutionCache;
use busytime_core::pool::{DeadlineOutcome, Executor};
use busytime_core::solve::SolverRegistry;
use busytime_core::InstanceFeatures;

use crate::engine::{
    effective_chunk_size, effective_width, lock_ignoring_poison, prepare_record, settle_bad,
    settle_hit, settle_outcome, solve_prepared, BatchSummary, ErrorPolicy, RecordResult,
    ServeConfig, ServeError, SessionStats, SharedFeatureCache, SolveItem,
};
use crate::protocol::BatchRecord;

/// Everything the machines of one listener share: the registry, the
/// engine configuration, both caches, the executor and the shutdown
/// token. One of these is built per listener and handed to every
/// connection's machine as an `Arc`.
pub(crate) struct SessionContext {
    pub(crate) registry: Arc<SolverRegistry>,
    pub(crate) config: ServeConfig,
    pub(crate) cache: SharedFeatureCache,
    pub(crate) solutions: SolutionCache,
    pub(crate) executor: Executor,
    /// The listener's shutdown token: once it fires the machine answers
    /// its buffered complete lines and finishes (see the
    /// [module docs](self)), and every record token is armed as a child of
    /// it so a drain cuts in-flight and later solves cooperatively.
    pub(crate) cancel: CancelToken,
}

/// One completed solve, posted by an executor worker into the machine's
/// inbox.
struct Completion {
    seq: usize,
    outcome: DeadlineOutcome<RecordResult>,
}

/// How one input-order slot will be (or was) answered.
enum Answer {
    /// The line failed to parse.
    Bad(String),
    /// Answered from the solution cache at parse time.
    Hit(busytime_core::SolveReport),
    /// A completed dispatch.
    Solved(DeadlineOutcome<RecordResult>),
}

enum SlotState {
    /// Parsed and prepared, waiting for a dispatch slot under the
    /// session's width cap.
    Queued(Box<SolveItem>),
    /// On (or queued behind) the executor; a [`Completion`] will fill it.
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

/// A resumable batch session over one connection: feed bytes in, pump
/// response bytes out, in input order; see the [module docs](self).
pub(crate) struct SessionMachine {
    ctx: Arc<SessionContext>,
    /// Completions posted by executor workers; drained by `pump`.
    inbox: Arc<Mutex<Vec<Completion>>>,
    /// Called by workers after posting a completion — the listener's hook
    /// to wake the poll loop that owns this machine.
    notify: Arc<dyn Fn() + Send + Sync>,
    /// Input bytes; `inbuf[consumed..]` is still unparsed.
    inbuf: Vec<u8>,
    /// The consume cursor: end of the last line taken off `inbuf`.
    consumed: usize,
    /// Where the newline scan over `inbuf` resumes (`≥ consumed`).
    scanned: usize,
    line_no: usize,
    /// `finish_input` was called: the client's end of batch.
    eof: bool,
    /// FailFast (or a future fatal) latch: the batch is aborted, no
    /// further answers stream, and the connection should be cut.
    failed: Option<ServeError>,
    /// Input-order slots awaiting drain; `base_seq` is the front's seq.
    slots: VecDeque<Slot>,
    base_seq: usize,
    next_seq: usize,
    /// Seqs parsed but not yet dispatched (width cap back-pressure).
    queue: VecDeque<usize>,
    inflight: usize,
    width: usize,
    chunk_size: usize,
    stats: SessionStats,
    started: Instant,
    summary: Option<BatchSummary>,
}

impl SessionMachine {
    /// A machine over the listener's shared context. `notify` is invoked
    /// from executor workers whenever a completion lands in the inbox —
    /// it must be cheap and non-blocking (the listener posts a wake to
    /// the owning poll loop).
    pub(crate) fn new(ctx: Arc<SessionContext>, notify: Arc<dyn Fn() + Send + Sync>) -> Self {
        let width = effective_width(&ctx.config, &ctx.executor);
        let chunk_size = effective_chunk_size(&ctx.config, width);
        SessionMachine {
            ctx,
            inbox: Arc::new(Mutex::new(Vec::new())),
            notify,
            inbuf: Vec::new(),
            consumed: 0,
            scanned: 0,
            line_no: 0,
            eof: false,
            failed: None,
            slots: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            queue: VecDeque::new(),
            inflight: 0,
            width,
            chunk_size,
            stats: SessionStats::default(),
            started: Instant::now(),
            summary: None,
        }
    }

    /// Buffers freshly-read socket bytes. Call `pump` afterwards to parse
    /// and dispatch them. Ignored after [`SessionMachine::finish_input`].
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if !self.eof {
            self.inbuf.extend_from_slice(bytes);
        }
    }

    /// Marks the client's end of batch (half-close, idle cut, or the
    /// listener's shutdown drain). Buffered complete lines — and a final
    /// unterminated one, unless the shutdown token fired — are still
    /// parsed and answered.
    pub(crate) fn finish_input(&mut self) {
        self.eof = true;
    }

    /// The batch is fully answered: summary emitted (or the batch
    /// aborted), nothing in flight.
    pub(crate) fn is_done(&self) -> bool {
        self.summary.is_some() || self.failed.is_some()
    }

    /// Records dispatched (or queued for dispatch) whose answers have not
    /// come back yet — the signal that an idle wire does not mean an idle
    /// session.
    pub(crate) fn has_inflight(&self) -> bool {
        self.inflight > 0 || !self.queue.is_empty()
    }

    /// The batch summary, once the session finished cleanly.
    pub(crate) fn summary(&self) -> Option<&BatchSummary> {
        self.summary.as_ref()
    }

    /// Why the batch aborted, when it did ([`ErrorPolicy::FailFast`]).
    pub(crate) fn failure(&self) -> Option<&ServeError> {
        self.failed.as_ref()
    }

    /// Drives the machine as far as it can go without blocking: drains
    /// worker completions, emits ready answers (in input order) into
    /// `out`, parses and dispatches the next wave when the current one is
    /// complete, and appends the summary line once everything is
    /// answered. `allow_parse = false` suspends parsing (outbox
    /// back-pressure) while completions still drain.
    ///
    /// Returns `true` when bytes were appended to `out`.
    pub(crate) fn pump(&mut self, out: &mut Vec<u8>, allow_parse: bool) -> bool {
        let before = out.len();
        self.drain_inbox();
        loop {
            let mut progressed = self.drain_ready(out);
            if allow_parse && self.can_parse() {
                progressed |= self.parse_wave();
            }
            progressed |= self.dispatch_some();
            if !progressed {
                break;
            }
        }
        self.maybe_summarize(out);
        out.len() > before
    }

    /// Moves posted completions into their slots.
    fn drain_inbox(&mut self) {
        let completions = std::mem::take(&mut *lock_ignoring_poison(&self.inbox));
        for Completion { seq, outcome } in completions {
            // completions for slots cleared by a FailFast abort are stale
            if seq < self.base_seq {
                continue;
            }
            let slot = &mut self.slots[seq - self.base_seq];
            debug_assert!(matches!(slot.state, SlotState::InFlight));
            slot.state = SlotState::Ready(Box::new(Answer::Solved(outcome)));
            self.inflight -= 1;
        }
    }

    /// Streams the contiguous ready prefix, settling each answer into the
    /// shared statistics exactly as the blocking engine does at write
    /// time.
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
            let policy = self.ctx.config.error_policy;
            let settled = match *answer {
                Answer::Bad(message) => settle_bad(slot.line, &message, policy, &mut self.stats),
                Answer::Hit(report) => Ok(settle_hit(
                    slot.line,
                    slot.id.as_deref(),
                    &report,
                    &mut self.stats,
                )),
                Answer::Solved(outcome) => settle_outcome(
                    slot.line,
                    slot.id.as_deref(),
                    &outcome,
                    policy,
                    &mut self.stats,
                ),
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

    /// Aborts the batch: later slots never answer (matching the blocking
    /// engine, which returns mid-stream), and completions still in flight
    /// are dropped as stale when they arrive.
    fn fail(&mut self, error: ServeError) {
        self.failed = Some(error);
        self.slots.clear();
        self.queue.clear();
        self.base_seq = self.next_seq;
        self.inflight = 0;
    }

    /// A new wave may parse once the current one has fully completed —
    /// the window in which the blocking engine would be between chunks.
    /// (Completed means answered by the workers, not yet drained to the
    /// client: write-backs have happened, so parse-time lookups stay
    /// equivalent.) A fired shutdown token does not stop parsing: the
    /// drain answers every buffered complete line.
    fn can_parse(&self) -> bool {
        self.failed.is_none()
            && self.summary.is_none()
            && self.inflight == 0
            && self.queue.is_empty()
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
    /// instead once the shutdown token fired), like the blocking engine's
    /// `next_line`.
    fn take_line(&mut self) -> Option<Range<usize>> {
        let start = self.consumed;
        let end = match self.complete_line_end() {
            Some(end) => end,
            None if self.eof && start < self.inbuf.len() && !self.ctx.cancel.is_cancelled() => {
                self.inbuf.len()
            }
            None => return None,
        };
        self.consumed = end;
        self.scanned = end;
        Some(start..end)
    }

    /// Parses up to one chunk of buffered records into new slots: bad
    /// lines and solution-cache hits become `Ready` immediately, solves
    /// are queued for dispatch. Runs the wave's feature-cache accounting
    /// the way the blocking engine's batched detection pass counts it.
    fn parse_wave(&mut self) -> bool {
        let mut wave: Vec<usize> = Vec::new();
        while wave.len() < self.chunk_size {
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
            match parsed {
                Ok(None) => continue,
                Ok(Some(record)) => {
                    self.stats.records += 1;
                    let item = prepare_record(
                        record,
                        self.line_no,
                        &self.ctx.registry,
                        &self.ctx.config,
                        &self.ctx.solutions,
                        &mut self.stats,
                    );
                    wave.push(self.push_slot(item));
                }
                Err(message) => {
                    self.stats.records += 1;
                    self.slots.push_back(Slot {
                        line: self.line_no,
                        id: None,
                        state: SlotState::Ready(Box::new(Answer::Bad(message))),
                    });
                    self.next_seq += 1;
                    wave.push(self.next_seq - 1);
                    if self.ctx.config.error_policy == ErrorPolicy::FailFast {
                        // no point parsing past the abort point; records
                        // before it still stream
                        break;
                    }
                }
            }
        }
        // compact the consumed prefix once per wave, not once per line
        self.inbuf.drain(..self.consumed);
        self.scanned -= self.consumed;
        self.consumed = 0;
        if wave.is_empty() {
            return false;
        }
        // the wave's feature-cache accounting, counted at parse time the
        // way the blocking engine's batched detection pass counts it: a
        // shared-cache hit per already-known instance, one miss per
        // distinct fresh instance, hits for duplicates within the wave
        let mut fresh: Vec<busytime_core::memo::CanonicalInstance> = Vec::new();
        for &seq in &wave {
            let slot = &mut self.slots[seq - self.base_seq];
            let SlotState::Queued(item) = &mut slot.state else {
                continue;
            };
            if item.hit.is_some() {
                continue;
            }
            if let Some(features) = self.ctx.cache.lookup(&item.canon) {
                self.stats.cache_hits += 1;
                item.features = Some(features);
            } else if fresh.contains(&item.canon) {
                self.stats.cache_hits += 1; // repeated within this wave
            } else {
                fresh.push(item.canon.clone());
            }
        }
        self.stats.cache_misses += fresh.len();
        true
    }

    /// Appends a slot for a prepared record: cache hits are `Ready` at
    /// once (they never reach the executor), solves join the dispatch
    /// queue. Returns the slot's seq.
    fn push_slot(&mut self, mut item: SolveItem) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        let line = item.line;
        let id = item.record.id.clone();
        let state = match item.hit.take() {
            Some(report) => SlotState::Ready(Box::new(Answer::Hit(report))),
            None => {
                self.queue.push_back(seq);
                SlotState::Queued(Box::new(item))
            }
        };
        self.slots.push_back(Slot { line, id, state });
        seq
    }

    /// Spawns queued records onto the executor up to the session's width
    /// cap — the event-driven analogue of the blocking engine's
    /// `par_map_deadline_under(width, ..)` fairness: one session cannot
    /// occupy more than its share of workers no matter how many records
    /// it has parsed.
    fn dispatch_some(&mut self) -> bool {
        let mut any = false;
        while self.inflight < self.width {
            let Some(seq) = self.queue.pop_front() else {
                break;
            };
            let slot = &mut self.slots[seq - self.base_seq];
            let state = std::mem::replace(&mut slot.state, SlotState::InFlight);
            let SlotState::Queued(item) = state else {
                unreachable!("queued seqs hold Queued slots");
            };
            self.inflight += 1;
            any = true;
            let ctx = Arc::clone(&self.ctx);
            let inbox = Arc::clone(&self.inbox);
            let notify = Arc::clone(&self.notify);
            let executor = ctx.executor.clone();
            executor.spawn(move || {
                let mut item = item;
                // feature detection runs worker-side, before the record's
                // budget is armed — detection time is charged to the
                // batch, never to the record, exactly as the blocking
                // engine's separate detection pass does. The shared cache
                // still deduplicates across records and connections.
                if item.features.is_none() {
                    item.features = Some(match ctx.cache.lookup(&item.canon) {
                        Some(features) => features,
                        None => {
                            let features = InstanceFeatures::detect(&item.inst);
                            ctx.cache.insert(item.canon.clone(), features.clone());
                            features
                        }
                    });
                }
                // arm the record's budget at pickup (a child of the
                // session token, so a shutdown drain cuts it too)
                let token = match item.budget {
                    Some(budget) => ctx.cancel.child_after(budget),
                    None => ctx.cancel.child(),
                };
                let solve_started = Instant::now();
                let result =
                    solve_prepared(&item, &ctx.registry, &ctx.config, &ctx.solutions, &token);
                let elapsed = solve_started.elapsed();
                let outcome = DeadlineOutcome {
                    result,
                    elapsed,
                    // the dispatching clock is the enforcement of last
                    // resort for uncooperative solves, exactly like the
                    // deadline pool's own stamp
                    over_deadline: item.budget.is_some_and(|b| elapsed > b),
                };
                lock_ignoring_poison(&inbox).push(Completion { seq, outcome });
                notify();
            });
        }
        any
    }

    /// Emits the summary line once the input has ended (or, after the
    /// shutdown token fired, no complete line is left) and every slot has
    /// drained.
    fn maybe_summarize(&mut self, out: &mut Vec<u8>) {
        if self.summary.is_some() || self.failed.is_some() {
            return;
        }
        let input_done = if self.ctx.cancel.is_cancelled() {
            self.complete_line_end().is_none()
        } else {
            self.eof && self.consumed == self.inbuf.len()
        };
        if !input_done || !self.slots.is_empty() || !self.queue.is_empty() || self.inflight > 0 {
            return;
        }
        let summary = std::mem::take(&mut self.stats).summarize(self.started.elapsed(), self.width);
        out.extend_from_slice(summary.to_json_line().as_bytes());
        out.push(b'\n');
        self.summary = Some(summary);
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
            cache: SharedFeatureCache::new(),
            executor: Executor::new(1),
            cancel: cancel.clone(),
        };
        SessionMachine::new(Arc::new(ctx), Arc::new(|| {}))
    }

    fn record(id: &str, solver: &str) -> String {
        format!(
            r#"{{"id": "{id}", "instance": {{"g": 2, "jobs": [[0, 4], [1, 5]]}}, "solver": "{solver}"}}"#
        )
    }

    /// Pumps until the machine finishes (completions land from the
    /// executor asynchronously) and returns everything it emitted.
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
}
