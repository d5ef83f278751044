//! The shared parallel executor: one persistent, process-wide worker pool.
//!
//! Every layer that fans independent work over cores — the experiment
//! harness (`busytime-lab`), the batch solve server (`busytime-server`) and
//! its socket listener — submits to the same [`Executor`]: a long-lived
//! pool of exactly [`Executor::workers`] OS threads fed by an MPMC
//! injection queue of boxed jobs. The process therefore has *one* worker
//! budget: a listener serving many connections multiplexes all of their
//! solve chunks over the same `W` threads instead of spawning `W` threads
//! per call, so total solver parallelism is bounded by `W` regardless of
//! how many batches are in flight.
//!
//! [`Executor::global`] is the lazy process-wide instance (sized by the
//! `BUSYTIME_WORKERS` environment variable, or every available core);
//! [`Executor::configure_global`] lets a CLI size it from `--workers`
//! before first use. Constructed instances ([`Executor::new`]) carry their
//! own threads and shut them down on drop — tests use those to pin exact
//! budgets.
//!
//! Batches preserve the scoped-thread contract they replaced: work is
//! distributed over a shared atomic cursor (balancing heavily skewed item
//! costs, e.g. exact solving next to first-fit), results are written into
//! pre-allocated slots so output order matches input order, and a panic in
//! any item re-raises as a `"worker panicked"` panic on the submitting
//! thread once the batch has settled. Between items a batch task yields
//! its worker whenever another submission's job is queued — more jobs wait
//! in the pool than the batch's own queued tasks — so concurrent batches
//! (coflow-style arrivals on different connections) share the budget at
//! item granularity instead of head-of-line blocking, while a lone batch
//! never requeues itself behind its own sibling task. A batch submitted
//! *from* one of the same pool's workers (nested parallelism) runs inline
//! on that worker — the thread is already part of the budget, and queuing
//! would deadlock a saturated pool; submitting to a *different* pool
//! queues normally, since that pool's budget is independent.
//!
//! Not every caller can park a thread on a batch. [`Executor::spawn`] is
//! the nonblocking submission path: it queues one fire-and-forget job and
//! returns immediately. The serving layer's session engine submits all of
//! its solves this way: a session queues a wave's records and spawns up to
//! its width of runner jobs, each of which solves records one at a time,
//! posts every completion to the session's inbox, and requeues itself
//! behind other submissions' jobs (the same yield rule as batch tasks), so
//! a reactor thread goes straight back to `epoll_wait` and a connection
//! flood cannot out-schedule the batch paths.
//!
//! # Fork–join over one instance
//!
//! One instance forks at exactly one place: `Decomposed` solving its
//! connected components concurrently. The paper's w.l.o.g. preprocessing
//! (Section 1.4) splits an instance into components whose optima add up,
//! so they are independent work. The components go out through
//! [`Executor::par_map_with`] and inherit the batch contract:
//!
//! * **Determinism** — results come back in component order, so the merged
//!   schedule is the sequential one at every width.
//! * **Nesting** — a fork from one of the pool's own workers runs inline on
//!   that worker, so a solve already running *on* the pool (a saturated
//!   batch) stays sequential instead of deadlocking or thrashing the
//!   budget.
//! * **Panic containment** — a panic in any component re-raises once as
//!   `"worker panicked"` on the submitting thread after the fork settles.
//!
//! Kernels below the component level (sorts, sweeps, bound passes) never
//! fork. The [`intra`] module carries the per-solve activation: a
//! thread-local `(executor, width)` context the solve pipeline enters when
//! a request's parallel policy resolves to on.
//!
//! [`Executor::par_map_deadline_under`] is the deadline-enforcing variant
//! for a caller that parks on a batch of budgeted items; the benchmark
//! tracer's queue-wait probe (`perfbench/harness`) calls it. The serving
//! layer does not: its session runners apply the same rule themselves,
//! arming each record's token at pickup and judging the record on that
//! clock, and that is the only deadline verdict a served record gets.
//!
//! Each item gets a per-item [`CancelToken`], a child of a caller-owned
//! parent, armed when a worker picks the item up (so queue time never
//! counts against a record's budget), and the pool stamps every completion
//! with its elapsed time and an `over_deadline` verdict. The verdict is the
//! pool's *own* clock comparison, independent of the item's cooperation —
//! a solver that misses (or lacks) its cooperative check is still reported
//! as over-deadline. Cancelling the parent poisons the tokens of queued,
//! not-yet-picked-up items, so they cut at pickup instead of waiting out
//! their budgets.
//!
//! ```
//! use busytime_core::pool::Executor;
//!
//! let executor = Executor::new(2); // its own 2-thread budget
//! let squares = executor.par_map(&[1u64, 2, 3], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9]);
//! assert_eq!(executor.workers(), 2);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;

/// The worker count a sizing of `0` resolves to: every available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// A queued unit of work. Batch tasks catch their own panics, so jobs never
/// unwind into the worker loop.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// The identity (its `ExecInner` address) of the pool this thread
    /// works for, `0` on non-worker threads. A nested batch submission to
    /// the *same* pool detects it and runs inline instead of deadlocking a
    /// saturated queue; a submission to a *different* pool queues normally
    /// — that pool's workers are independent, so its budget and width
    /// still apply.
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

/// Lock tolerating poisoning: queue and completion state stay structurally
/// valid across a panic (batch tasks catch item panics anyway), and one
/// poisoned batch must not wedge the process-wide pool.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Shared pool state: the injection queue plus the stats counters the
/// serving layer reports.
struct ExecInner {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    workers: usize,
    /// Workers currently running a job.
    busy: AtomicUsize,
    /// Jobs pushed but not yet picked up (the queue depth, maintained as an
    /// atomic so batch tasks can poll it without taking the queue lock).
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// Continuations batch tasks have requeued (the yield rule's test probe).
    #[cfg(test)]
    continuations: AtomicUsize,
}

impl ExecInner {
    fn push(&self, job: Job) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        lock(&self.queue).push_back(job);
        self.available.notify_one();
    }
}

fn worker_loop(inner: Arc<ExecInner>) {
    WORKER_OF.set(Arc::as_ptr(&inner) as usize);
    loop {
        let job = {
            let mut queue = lock(&inner.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    inner.pending.fetch_sub(1, Ordering::SeqCst);
                    break job;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        inner.busy.fetch_add(1, Ordering::SeqCst);
        // batch tasks catch item panics themselves; this outer catch is the
        // last line of defense so a stray unwind can never kill a worker
        // and silently shrink the process budget
        let _ = catch_unwind(AssertUnwindSafe(job));
        inner.busy.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Owns the worker threads on behalf of every [`Executor`] clone: when the
/// last handle drops, the workers are told to stop and joined. A worker's
/// own loop holds only [`ExecInner`], but a job it runs may own handles (a
/// session runner reaches one through its session's context), so the last
/// handle can drop on one of the pool's own workers. That worker is not
/// joined — a thread cannot join itself — and exits on its own once the
/// job returns and the queue is empty.
struct ShutdownGuard {
    inner: Arc<ExecInner>,
    /// Written once at construction, drained only in `Drop` (which has
    /// exclusive access) — no lock needed.
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        // the store must happen under the queue mutex: a worker checks the
        // flag and parks on the condvar atomically while holding that
        // mutex, so a store outside it could land between a worker's check
        // and its park — the notify would target no waiter, and the join
        // below would hang on a worker that never wakes
        {
            let _queue = lock(&self.inner.queue);
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        // every batch blocks its submitter until completion, so at this
        // point no batch is in flight and the queue is empty — the join is
        // prompt. Dropping the calling worker's own handle detaches it.
        let me = std::thread::current().id();
        for handle in self.handles.drain(..) {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

/// The process-wide executor (see the [module docs](self)): a fixed worker
/// budget, an injection queue, and order-preserving batch submission.
///
/// Clones are cheap handles onto the same pool; the worker threads stop
/// when the last handle drops. [`Executor::global`] hands out handles to
/// the one lazy process-wide instance.
#[derive(Clone)]
pub struct Executor {
    inner: Arc<ExecInner>,
    _guard: Arc<ShutdownGuard>,
}

static GLOBAL: OnceLock<Executor> = OnceLock::new();

impl Executor {
    /// A pool of exactly `workers` threads (`0` = [`default_workers`],
    /// clamped to at least one).
    pub fn new(workers: usize) -> Executor {
        let workers = if workers == 0 {
            default_workers()
        } else {
            workers
        }
        .max(1);
        let inner = Arc::new(ExecInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            workers,
            busy: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            #[cfg(test)]
            continuations: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("busytime-worker-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor {
            _guard: Arc::new(ShutdownGuard {
                inner: Arc::clone(&inner),
                handles,
            }),
            inner,
        }
    }

    /// A handle onto the process-wide executor, created on first use. Its
    /// size is [`Executor::configure_global`]'s, if called first; else the
    /// `BUSYTIME_WORKERS` environment variable (when set to a positive
    /// integer); else [`default_workers`]. The global pool lives for the
    /// rest of the process.
    pub fn global() -> Executor {
        GLOBAL
            .get_or_init(|| {
                let workers = std::env::var("BUSYTIME_WORKERS")
                    .ok()
                    .and_then(|raw| raw.trim().parse::<usize>().ok())
                    .unwrap_or(0);
                Executor::new(workers)
            })
            .clone()
    }

    /// Sizes the global executor before first use (`busytime-cli` calls
    /// this from `--workers`, making the flag a true process cap). Returns
    /// `false` when the global pool already exists — the existing size
    /// stays, because live batches may already depend on it.
    pub fn configure_global(workers: usize) -> bool {
        if GLOBAL.get().is_some() {
            return false;
        }
        GLOBAL.set(Executor::new(workers)).is_ok()
    }

    /// The pool's worker budget: the number of threads it owns, which
    /// bounds process-wide parallelism over all concurrent batches.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Workers currently running a job (`0..=workers`).
    pub fn busy_workers(&self) -> usize {
        self.inner
            .busy
            .load(Ordering::SeqCst)
            .min(self.inner.workers)
    }

    /// Jobs queued but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.pending.load(Ordering::SeqCst)
    }

    /// One coherent stats snapshot for `/healthz` and logs. The counters
    /// are sampled together and `busy` is clamped to the worker budget, so
    /// a reader never observes the impossible `busy > workers` even while
    /// fork–join bursts are moving the counters between loads.
    pub fn stats(&self) -> PoolStats {
        let workers = self.inner.workers;
        PoolStats {
            workers,
            busy: self.inner.busy.load(Ordering::SeqCst).min(workers),
            queued: self.inner.pending.load(Ordering::SeqCst),
        }
    }

    /// Workers not currently running a job — the idle budget the auto
    /// parallel policy checks before forking one instance's work.
    pub fn idle_workers(&self) -> usize {
        let stats = self.stats();
        stats.workers - stats.busy
    }

    /// Queues one fire-and-forget job and returns immediately.
    ///
    /// This is the submission path for callers that must never block —
    /// the serving layer's session runners go to the pool this way and
    /// their drivers learn of completion through the session's inbox,
    /// unlike the [`Executor::par_map`] family, which parks the
    /// submitting thread until the whole batch settles. The
    /// job shares the same worker budget, fairness queue, and stats
    /// counters as batch items; a panic inside it is caught by the
    /// worker (the pool never shrinks) but is otherwise unobservable,
    /// so jobs that can fail should report through their own channel.
    ///
    /// Called from one of the pool's own workers, the job is queued (not
    /// run inline): `spawn` never executes `job` on the calling thread.
    /// Unlike a nested batch, a queued fire-and-forget job cannot
    /// deadlock its submitter — nothing blocks on it.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.inner.push(Box::new(job));
    }

    /// Applies `f` to every item over the full worker budget; results are
    /// returned in input order. Deterministic as long as `f` is.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_with(0, items, f)
    }

    /// [`Executor::par_map`] with a width cap: at most `width` of the
    /// pool's workers serve this batch at any moment (`0` = the full
    /// budget; always clamped to the budget and the item count). The cap
    /// bounds one batch's *share*; the pool's thread count never changes.
    ///
    /// A panic in any invocation of `f` is re-raised as a
    /// `"worker panicked"` panic on the calling thread once the batch has
    /// settled.
    pub fn par_map_with<T, R, F>(&self, width: usize, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run_batch(width, items.len(), |i| f(&items[i]))
    }

    /// Deadline-enforcing [`Executor::par_map_with`] under a caller-owned
    /// `parent` token. `budget_of` names each item's time budget (`None` =
    /// unbounded); a fresh child of `parent` armed with that budget is
    /// handed to `f` when a worker picks the item up, and every completion
    /// is stamped with its elapsed time and the pool's `over_deadline`
    /// verdict. Results are returned in input order; the panic contract
    /// matches [`Executor::par_map_with`].
    ///
    /// Cancelling `parent` (a listener draining on SIGINT, a session torn
    /// down mid-batch) cuts every in-flight solve at its next cooperative
    /// checkpoint — and every *queued* item at pickup — while each item's
    /// own budget still expires independently. The `over_deadline` verdict
    /// stays a pure budget comparison — a parent cancellation does not
    /// flag items as over their deadline.
    pub fn par_map_deadline_under<T, R, B, F>(
        &self,
        width: usize,
        parent: &CancelToken,
        items: &[T],
        budget_of: B,
        f: F,
    ) -> Vec<DeadlineOutcome<R>>
    where
        T: Sync,
        R: Send,
        B: Fn(&T) -> Option<Duration> + Sync,
        F: Fn(&T, &CancelToken) -> R + Sync,
    {
        self.run_batch(width, items.len(), |i| {
            let item = &items[i];
            let budget = budget_of(item);
            let token = match budget {
                Some(b) => parent.child_after(b),
                None => parent.child(),
            };
            let started = Instant::now();
            let result = f(item, &token);
            let elapsed = started.elapsed();
            DeadlineOutcome {
                result,
                elapsed,
                over_deadline: budget.is_some_and(|b| elapsed > b),
            }
        })
    }

    /// The batch engine: `job(i)` for every `i < n`, at most `width`
    /// workers at a time, results in index order.
    fn run_batch<R, F>(&self, width: usize, n: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if WORKER_OF.get() == Arc::as_ptr(&self.inner) as usize {
            // nested submission from one of this pool's own workers: the
            // thread is already part of the budget, so run inline —
            // queuing and blocking here would deadlock a saturated pool.
            // (A worker of a *different* pool falls through and queues:
            // that pool's budget is independent and its workers are free
            // to serve this batch.)
            return run_sequential(n, &job);
        }
        let width = if width == 0 {
            self.inner.workers
        } else {
            width
        }
        .min(self.inner.workers)
        .min(n)
        .max(1);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let state = BatchState {
            cursor: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            n,
            job,
            slots: &slots,
        };
        let completion = Arc::new(Completion {
            status: Mutex::new(Status {
                live_tasks: width,
                panicked: false,
            }),
            done: Condvar::new(),
        });
        for _ in 0..width {
            // SAFETY: see `make_task` — this call blocks below until every
            // task (and every continuation it spawned) has finished, so
            // `state` and `slots` outlive all uses of the erased pointer.
            let task = unsafe { make_task(&self.inner, &state, &completion) };
            state.queued.fetch_add(1, Ordering::Relaxed);
            self.inner.push(task);
        }
        let panicked = {
            let mut status = lock(&completion.status);
            while status.live_tasks > 0 {
                status = completion
                    .done
                    .wait(status)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            status.panicked
        };
        if panicked {
            panic!("worker panicked");
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("all slots filled")
            })
            .collect()
    }
}

/// The inline path shared by tiny pools and nested submissions; same panic
/// contract as the queued path.
fn run_sequential<R, F>(n: usize, job: &F) -> Vec<R>
where
    F: Fn(usize) -> R,
{
    catch_unwind(AssertUnwindSafe(|| (0..n).map(job).collect()))
        .unwrap_or_else(|_| panic!("worker panicked"))
}

/// A coherent snapshot of a pool's load, from [`Executor::stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Workers currently running a job; always `≤ workers`.
    pub busy: usize,
    /// Jobs queued but not yet picked up by a worker.
    pub queued: usize,
}

/// One batch's shared state, allocated on the submitting thread's stack
/// and reached from tasks through a lifetime-erased pointer.
struct BatchState<'a, R, F> {
    cursor: AtomicUsize,
    /// This batch's tasks pushed but not yet started — the part of the
    /// pool's queue depth a task must not yield to.
    queued: AtomicUsize,
    n: usize,
    job: F,
    slots: &'a [Mutex<Option<R>>],
}

struct Status {
    /// Tasks (or their queued continuations) still outstanding; the
    /// submitting thread wakes when this reaches zero.
    live_tasks: usize,
    panicked: bool,
}

/// Completion channel between batch tasks and the submitting thread. Held
/// in an `Arc` so the final notify races nothing: the stack-allocated
/// [`BatchState`] is last touched *before* the final decrement, and the
/// `Arc` keeps this signaling state alive past the caller's return.
struct Completion {
    status: Mutex<Status>,
    done: Condvar,
}

/// A raw pointer that may cross threads; the batch protocol (submitter
/// blocks until all tasks finish) guarantees the pointee outlives it.
struct SendPtr<T>(*const T);
unsafe impl<T: Sync> Send for SendPtr<T> {}

/// Boxes one batch task for the injection queue.
///
/// # Safety
///
/// The returned job captures a pointer to `state`, which lives on the
/// submitting thread's stack. The caller must block until the batch's
/// `live_tasks` count reaches zero before `state` (or the slots it
/// references) is dropped; every task touches `state` only before its
/// final `finish_task` decrement, and a task that requeues a continuation
/// does not decrement, so the count cannot reach zero while any queued
/// continuation still holds the pointer.
unsafe fn make_task<R, F>(
    exec: &Arc<ExecInner>,
    state: &BatchState<'_, R, F>,
    completion: &Arc<Completion>,
) -> Job
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let exec = Arc::clone(exec);
    let completion = Arc::clone(completion);
    let state = SendPtr(state as *const BatchState<'_, R, F>);
    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
        // move the whole `SendPtr` (edition-2021 closures would otherwise
        // capture only the raw-pointer field, sidestepping its Send bound)
        let state = state;
        // SAFETY: the submitter is still blocked on `completion` (this
        // task has not decremented `live_tasks` yet), so the pointee is
        // alive.
        let state = unsafe { &*state.0 };
        run_task(&exec, state, &completion);
    });
    // SAFETY: lifetime erasure only — layout is identical, and the batch
    // protocol above guarantees the borrows outlive the job.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(task) }
}

fn run_task<R, F>(exec: &Arc<ExecInner>, state: &BatchState<'_, R, F>, completion: &Arc<Completion>)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    state.queued.fetch_sub(1, Ordering::Relaxed);
    loop {
        let i = state.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= state.n {
            return finish_task(completion, false);
        }
        match catch_unwind(AssertUnwindSafe(|| (state.job)(i))) {
            Ok(result) => *lock(&state.slots[i]) = Some(result),
            // the scoped-thread contract, preserved: the panicking
            // "worker" stops, sibling tasks finish the cursor, and the
            // submitter re-raises "worker panicked" once the batch settles
            Err(_) => return finish_task(completion, true),
        }
        // cooperative yield: when another submission's job is waiting
        // (the queue holds more than this batch's own queued tasks) and
        // this batch still has items, requeue a continuation at the back
        // of the line so concurrent batches share the budget at item
        // granularity. The counts are a heuristic that publishes no data,
        // so Relaxed keeps the reads free on the hot path; a stale read
        // costs at most one early or late yield.
        if state.cursor.load(Ordering::Relaxed) < state.n
            && exec.pending.load(Ordering::Relaxed) > state.queued.load(Ordering::Relaxed)
        {
            // SAFETY: same protocol as `make_task` — `live_tasks` is not
            // decremented on this path, so the submitter keeps waiting
            // while the continuation holds the pointer.
            let continuation = unsafe { make_task(exec, state, completion) };
            state.queued.fetch_add(1, Ordering::Relaxed);
            #[cfg(test)]
            exec.continuations.fetch_add(1, Ordering::Relaxed);
            exec.push(continuation);
            return;
        }
    }
}

fn finish_task(completion: &Completion, panicked: bool) {
    let mut status = lock(&completion.status);
    status.live_tasks -= 1;
    if panicked {
        status.panicked = true;
    }
    if status.live_tasks == 0 {
        completion.done.notify_all();
    }
}

/// One completed item of [`Executor::par_map_deadline_under`]: the result
/// plus the pool's own timing verdict.
#[derive(Clone, Debug)]
pub struct DeadlineOutcome<R> {
    /// What `f` returned.
    pub result: R,
    /// Wall-clock time from worker pickup to completion.
    pub elapsed: Duration,
    /// True iff the item had a budget and `elapsed` exceeded it — measured
    /// by the pool, so it holds even when the item never polled its token.
    pub over_deadline: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = Executor::new(2).par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let executor = Executor::new(2);
        let empty: Vec<u32> = vec![];
        assert!(executor.par_map(&empty, |&x| x).is_empty());
        assert_eq!(executor.par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn fixed_width_caps_agree() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        let executor = Executor::new(4);
        for workers in [0, 1, 2, 4, 8, 200] {
            assert_eq!(executor.par_map_with(workers, &items, |&x| x + 1), expect);
        }
    }

    #[test]
    fn uneven_work_is_balanced() {
        // items with wildly different costs still all complete
        let items: Vec<usize> = (0..64).collect();
        let out = Executor::new(4).par_map_with(4, &items, |&i| {
            let mut acc = 0u64;
            for k in 0..(i * 1000) as u64 {
                acc = acc.wrapping_add(k.wrapping_mul(2654435761));
            }
            (i, acc)
        });
        for (i, (j, _)) in out.iter().enumerate() {
            assert_eq!(i, *j);
        }
    }

    #[test]
    fn instance_executor_bounds_concurrency_across_batches() {
        // three submitters race batches onto a 2-worker pool: at no moment
        // may more than 2 items run — the process-budget contract the
        // listener relies on
        let executor = Executor::new(2);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let submitters: Vec<_> = (0..3)
            .map(|_| {
                let executor = executor.clone();
                let live = Arc::clone(&live);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    let items: Vec<u32> = (0..8).collect();
                    executor.par_map(&items, |&x| {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(3));
                        live.fetch_sub(1, Ordering::SeqCst);
                        x
                    })
                })
            })
            .collect();
        for submitter in submitters {
            let out = submitter.join().unwrap();
            assert_eq!(out, (0..8).collect::<Vec<u32>>());
        }
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "2-worker pool ran {} items at once",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn nested_par_map_on_a_worker_runs_inline() {
        // a batch item submitting its own batch must not deadlock even on
        // a single-worker pool: the nested call runs inline on the worker
        let executor = Executor::new(1);
        let items = vec![1u32, 2, 3];
        let out = executor.par_map(&items, |&x| {
            let inner = executor.par_map(&[x], |&y| y * 2);
            inner[0]
        });
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn spawn_runs_without_blocking_the_submitter() {
        let executor = Executor::new(1);
        let (send, recv) = std::sync::mpsc::channel::<u32>();
        // a spawned job may itself spawn (completion-callback style)
        // without deadlocking the single worker
        let nested_exec = executor.clone();
        let nested_send = send.clone();
        executor.spawn(move || {
            nested_exec.spawn(move || {
                let _ = nested_send.send(2);
            });
            let _ = send.send(1);
        });
        let mut got: Vec<u32> = (0..2)
            .map(|_| recv.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn spawn_shares_the_batch_worker_budget() {
        // spawned jobs and batch items drain through the same two
        // workers: at no point may three run concurrently
        let executor = Executor::new(2);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (send, recv) = std::sync::mpsc::channel::<()>();
        for _ in 0..8 {
            let live = Arc::clone(&live);
            let peak = Arc::clone(&peak);
            let send = send.clone();
            executor.spawn(move || {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(3));
                live.fetch_sub(1, Ordering::SeqCst);
                let _ = send.send(());
            });
        }
        let items: Vec<u32> = (0..8).collect();
        let out = executor.par_map(&items, |&x| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(3));
            live.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out, items);
        for _ in 0..8 {
            recv.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "2-worker pool ran {} jobs at once",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn batches_yield_only_to_other_submissions() {
        // a lone batch: the second worker parks on a gate, so the batch's
        // second task stays queued while the first runs every item — it
        // must not trade places with its own sibling after each item
        let executor = Executor::new(2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (parked, is_parked) = std::sync::mpsc::channel::<()>();
        let worker_gate = Arc::clone(&gate);
        executor.spawn(move || {
            let _ = parked.send(());
            let (open, opened) = &*worker_gate;
            let mut open = lock(open);
            while !*open {
                open = opened.wait(open).unwrap();
            }
        });
        is_parked.recv_timeout(Duration::from_secs(5)).unwrap();
        let items: Vec<u32> = (0..64).collect();
        let done = AtomicUsize::new(0);
        let out = executor.par_map_with(2, &items, |&x| {
            if done.fetch_add(1, Ordering::SeqCst) + 1 == items.len() {
                let (open, opened) = &*gate;
                *lock(open) = true;
                opened.notify_all();
            }
            x
        });
        assert_eq!(out, items);
        assert_eq!(executor.inner.continuations.load(Ordering::SeqCst), 0);

        // another submission's job does make a running batch yield
        let executor = Executor::new(1);
        let (ran, has_run) = std::sync::mpsc::channel::<()>();
        let spawner = executor.clone();
        let out = executor.par_map(&items, |&x| {
            if x == 0 {
                let ran = ran.clone();
                spawner.spawn(move || {
                    let _ = ran.send(());
                });
            }
            x
        });
        assert_eq!(out, items);
        has_run.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(executor.inner.continuations.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stats_settle_to_idle() {
        let executor = Executor::new(2);
        assert_eq!(executor.workers(), 2);
        let items: Vec<u32> = (0..32).collect();
        let _ = executor.par_map(&items, |&x| x);
        assert_eq!(executor.queue_depth(), 0);
        // the last worker decrements `busy` just after releasing the
        // batch, so allow it a moment
        let started = Instant::now();
        while executor.busy_workers() != 0 && started.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(executor.busy_workers(), 0);
    }

    #[test]
    fn nested_submission_to_a_different_pool_uses_that_pool() {
        // a job on pool A submitting to pool B must run on B's workers
        // (width 2 here), not inline-sequential on A's worker — verified
        // by both items observing each other running concurrently
        let a = Executor::new(1);
        let b = Executor::new(2);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let out = a.par_map(&[()], |_| {
            b.par_map(&[0u32, 1], |&x| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // stay live (bounded) until the sibling item overlaps;
                // only B's two workers can make that happen — the inline
                // path would run the items one after the other and peak
                // would stay 1
                let waited = Instant::now();
                while peak.load(Ordering::SeqCst) < 2 && waited.elapsed() < Duration::from_secs(5) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                live.fetch_sub(1, Ordering::SeqCst);
                x
            })
        });
        assert_eq!(out, vec![vec![0, 1]]);
        assert_eq!(
            peak.load(Ordering::SeqCst),
            2,
            "cross-pool nested batch must run on the target pool's workers"
        );
    }

    #[test]
    fn dropping_an_executor_joins_its_workers_promptly() {
        // regression for a lost shutdown wakeup: the drop-time flag store
        // must be ordered with the workers' check-then-park (both under
        // the queue mutex), or a worker can park right past the only
        // notify and the drop hangs in join
        for _ in 0..50 {
            let executor = Executor::new(2);
            let _ = executor.par_map(&[1u32, 2, 3], |&x| x);
            drop(executor);
        }
    }

    #[test]
    fn last_handle_dropped_by_a_job_does_not_join_its_own_worker() {
        // the job owns the only handle left once the test drops its own,
        // so the pool shuts down from inside one of its workers
        let executor = Executor::new(2);
        let last = executor.clone();
        let (go_send, go_recv) = std::sync::mpsc::channel::<()>();
        let (done_send, done_recv) = std::sync::mpsc::channel::<bool>();
        executor.spawn(move || {
            go_recv.recv().unwrap();
            let dropped = catch_unwind(AssertUnwindSafe(move || drop(last)));
            let _ = done_send.send(dropped.is_ok());
        });
        drop(executor);
        go_send.send(()).unwrap();
        let dropped = done_recv
            .recv_timeout(Duration::from_secs(5))
            .expect("the job never signalled after dropping the last handle");
        assert!(dropped, "dropping the last handle panicked on a worker");
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        // a panic fails its batch but must not kill pool threads — the
        // process budget cannot silently shrink
        let executor = Executor::new(1);
        let exec = executor.clone();
        let result = catch_unwind(AssertUnwindSafe(move || {
            exec.par_map(&[1u32], |_| -> u32 { panic!("boom") })
        }));
        assert!(result.is_err());
        assert_eq!(executor.par_map(&[2u32], |&x| x + 1), vec![3]);
    }

    #[test]
    fn deadline_outcomes_keep_order_and_stamp_budgets() {
        let items: Vec<u64> = (0..40).collect();
        let out = Executor::new(4).par_map_deadline_under(
            4,
            &CancelToken::never(),
            &items,
            |&x| (x % 2 == 0).then_some(Duration::from_secs(3600)),
            |&x, token| {
                assert_eq!(token.deadline().is_some(), x % 2 == 0);
                x * 3
            },
        );
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.result, i as u64 * 3);
            assert!(!o.over_deadline, "generous budget flagged on item {i}");
        }
    }

    #[test]
    fn uncooperative_item_is_still_flagged_over_deadline() {
        // the closure ignores its token entirely and sleeps past the
        // budget: the pool's own clock must catch it
        let items = vec![0u32, 1];
        let out = Executor::new(2).par_map_deadline_under(
            2,
            &CancelToken::never(),
            &items,
            |&x| (x == 1).then_some(Duration::from_millis(1)),
            |&x, _token| {
                if x == 1 {
                    std::thread::sleep(Duration::from_millis(15));
                }
                x
            },
        );
        assert!(!out[0].over_deadline);
        assert!(out[1].over_deadline);
        assert!(out[1].elapsed >= Duration::from_millis(15));
    }

    #[test]
    fn cancelled_parent_cuts_every_item_token() {
        // listener shutdown drain: per-item tokens are children of the
        // session token, so a poisoned parent is visible at pickup even
        // when the item carries a generous (or no) budget — and the
        // poison alone never counts as over_deadline
        let parent = CancelToken::never();
        parent.cancel();
        let items = vec![0u32, 1];
        let out = Executor::new(2).par_map_deadline_under(
            2,
            &parent,
            &items,
            |&x| (x == 1).then_some(Duration::from_secs(3600)),
            |_, token| token.is_cancelled(),
        );
        assert!(out[0].result && out[1].result);
        assert!(!out[0].over_deadline && !out[1].over_deadline);
    }

    #[test]
    fn zero_budget_token_arrives_expired() {
        let items = vec![()];
        let out = Executor::new(1).par_map_deadline_under(
            1,
            &CancelToken::never(),
            &items,
            |_| Some(Duration::ZERO),
            |_, token| token.is_cancelled(),
        );
        assert!(out[0].result, "token must already be expired at pickup");
        assert!(out[0].over_deadline);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn propagates_panics() {
        let items = vec![1u32, 2, 3, 4];
        let _ = Executor::new(2).par_map(&items, |&x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn propagates_panics_single_width() {
        let items = vec![1u32, 2, 3];
        let _ = Executor::new(2).par_map_with(1, &items, |&x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn deadline_item_cancel_does_not_poison_parent_or_siblings() {
        let parent = CancelToken::never();
        let items: Vec<u32> = (0..8).collect();
        let out = Executor::new(2).par_map_deadline_under(
            2,
            &parent,
            &items,
            |_| None,
            |&x, token| {
                if x == 0 {
                    token.cancel(); // the first item poisons only itself
                }
                token.is_cancelled()
            },
        );
        assert!(!parent.is_cancelled());
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.result, i == 0, "item {i}");
        }
    }

    #[test]
    fn nested_fork_join_on_a_worker_runs_inline() {
        // a solve running *on* the pool (saturated batch) that enters a
        // context and forks its components must stay on its own worker,
        // not queue behind the saturated pool
        let executor = Executor::new(2);
        let out = executor.par_map(&[0u64, 1], |&x| {
            let _ctx = intra::enter(&executor, 2);
            let (exec, width) = intra::active().expect("a 2-lane context is live");
            let worker = std::thread::current().id();
            let forked =
                exec.par_map_with(width, &[x, x + 10], |&y| (y, std::thread::current().id()));
            assert!(forked.iter().all(|&(_, ran_on)| ran_on == worker));
            forked.iter().map(|&(y, _)| y).sum::<u64>()
        });
        assert_eq!(out, vec![10, 12]);
    }

    #[test]
    fn stats_snapshot_is_clamped_and_coherent() {
        let executor = Executor::new(2);
        let stats = executor.stats();
        assert_eq!(
            stats,
            PoolStats {
                workers: 2,
                busy: 0,
                queued: 0
            }
        );
        let items: Vec<u32> = (0..64).collect();
        let _ = executor.par_map(&items, |&x| {
            let snap = executor.stats();
            assert!(snap.busy <= snap.workers, "busy {snap:?} over budget");
            x
        });
        assert!(executor.idle_workers() <= 2);
    }

    #[test]
    fn intra_context_stacks_and_restores() {
        let width = || intra::active().map_or(1, |(_, width)| width);
        assert_eq!(width(), 1);
        let outer = Executor::new(4);
        {
            let _outer_guard = intra::enter(&outer, 4);
            assert_eq!(width(), 4);
            {
                let _inner_guard = intra::enter(&outer, 2);
                assert_eq!(width(), 2);
            }
            assert_eq!(width(), 4);
            // width below 2 (or clamped below 2) is inert
            let _inert = intra::enter(&outer, 1);
            assert_eq!(width(), 4);
            let one = Executor::new(1);
            let _clamped = intra::enter(&one, 8);
            assert_eq!(width(), 4);
        }
        assert_eq!(width(), 1);
    }
}

pub mod intra {
    //! Per-solve activation of intra-instance parallelism.
    //!
    //! The solve pipeline [`enter`]s a thread-local `(executor, width)`
    //! context when a request's parallel policy resolves to on.
    //! `Decomposed` consults [`active`] and, when a context is live and the
    //! instance has at least two connected components, solves them
    //! concurrently over that executor. Nothing else forks.
    //!
    //! The context is a per-thread stack: nested [`enter`]s shadow the
    //! outer context, the [`IntraGuard`] restores it on drop (including
    //! during unwinding), and worker threads of the pool itself never see
    //! the submitter's context — a component solve that decomposes again
    //! therefore stays sequential instead of over-forking.

    use std::cell::RefCell;

    use super::Executor;

    /// Instances below this job count never trigger the `auto` parallel
    /// policy — fork–join overhead would dominate.
    pub const JOB_THRESHOLD: usize = 8192;

    struct Ctx {
        exec: Executor,
        width: usize,
    }

    thread_local! {
        static CTX: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII guard from [`enter`]: restores the previous context on drop.
    #[must_use = "the context ends when the guard drops"]
    pub struct IntraGuard {
        pushed: bool,
    }

    impl Drop for IntraGuard {
        fn drop(&mut self) {
            if self.pushed {
                CTX.with(|ctx| {
                    ctx.borrow_mut().pop();
                });
            }
        }
    }

    /// Enters a `width`-lane intra-parallelism context on `exec` for the
    /// current thread. A width below 2 (after clamping to the pool's
    /// worker budget) yields an inert guard and the solve stays
    /// sequential, so callers can pass their resolved policy width
    /// unconditionally.
    pub fn enter(exec: &Executor, width: usize) -> IntraGuard {
        let width = width.min(exec.workers());
        if width < 2 {
            return IntraGuard { pushed: false };
        }
        CTX.with(|ctx| {
            ctx.borrow_mut().push(Ctx {
                exec: exec.clone(),
                width,
            });
        });
        IntraGuard { pushed: true }
    }

    /// The innermost live context, if any: `(executor, width)` with
    /// `width ≥ 2`.
    pub fn active() -> Option<(Executor, usize)> {
        CTX.with(|ctx| ctx.borrow().last().map(|c| (c.exec.clone(), c.width)))
    }
}

pub mod scratch {
    //! Per-thread scratch arenas: reset-not-freed buffers reused across
    //! records by the threads that solve them.
    //!
    //! The solve hot path repeats the same small allocations for every
    //! record: an id permutation and a pair vector per FirstFit solve, a
    //! delta vector per clique bound, the sorted job order of an instance
    //! view. Each solving thread instead holds one [`Arena`] in a
    //! `thread_local`, cleared between uses but never shrunk, so
    //! steady-state batch traffic runs these paths allocation-free.
    //! Sibling scratch for the interval sweeps lives in
    //! `busytime_interval::family` (this crate sits above it in the
    //! dependency order).
    //!
    //! Access is always through [`with`], which tolerates reentrancy (a
    //! nested call sees a fresh arena instead of a borrow panic), so
    //! holding the arena across a callback is safe, just wasteful.

    use std::cell::RefCell;

    /// The per-thread buffer set. All buffers start empty; users must
    /// `clear()` before use (contents of a previous user are otherwise
    /// still present) and leave whatever capacity they grew for the next
    /// record.
    #[derive(Default)]
    pub struct Arena {
        /// Job-id staging (scheduler orderings, permutations).
        pub ids: Vec<usize>,
        /// Coordinate staging (sorted deltas, keys).
        pub keys: Vec<i64>,
        /// Interval-pair staging (FirstFit's per-group saturated ranges).
        pub pairs: Vec<(i64, i64)>,
        /// `(start, end, id)` staging: an instance view's sorted order.
        pub jobs: Vec<(i64, i64, usize)>,
    }

    thread_local! {
        static ARENA: RefCell<Arena> = RefCell::new(Arena::default());
    }

    /// Runs `f` with the calling thread's arena. Reentrant calls get a
    /// fresh (empty, unpooled) arena rather than panicking.
    pub fn with<R>(f: impl FnOnce(&mut Arena) -> R) -> R {
        ARENA.with(|arena| match arena.try_borrow_mut() {
            Ok(mut arena) => f(&mut arena),
            Err(_) => f(&mut Arena::default()),
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn arena_keeps_capacity_across_uses() {
            with(|arena| {
                arena.ids.clear();
                arena.ids.extend(0..128);
            });
            let cap = with(|arena| arena.ids.capacity());
            assert!(cap >= 128);
            with(|arena| {
                arena.ids.clear();
                assert!(arena.ids.capacity() >= 128);
            });
        }

        #[test]
        fn reentrant_with_gets_fresh_arena() {
            with(|outer| {
                outer.keys.push(7);
                with(|inner| {
                    assert!(inner.keys.is_empty());
                    inner.keys.push(9);
                });
                assert_eq!(outer.keys, vec![7]);
            });
        }
    }
}
