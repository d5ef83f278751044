//! The unified solve pipeline: one stable entry point over every solver.
//!
//! The paper gives a *family* of algorithms whose guarantees depend on
//! instance structure; callers should not have to hand-pick concrete types
//! and rediscover that structure themselves. This module packages the whole
//! flow behind two types:
//!
//! * [`SolveRequest`] — a builder holding the instance, a solver selection
//!   (registry key, or a custom boxed [`Scheduler`]) and options:
//!   component decomposition, validation level, seed, the size budget,
//!   and a hard per-solve [`SolveRequest::deadline`] enforced inside
//!   solver loops through a [`crate::cancel::CancelToken`].
//! * [`SolveReport`] — the rich result: schedule, cost, the best lower
//!   bound of [`crate::bounds`], the approximation gap, detected
//!   [`InstanceFeatures`], wall-clock per-phase timings, and the resolved
//!   solver name; deadline-cut solves come back flagged
//!   [`SolveReport::deadline_hit`] with the phase they were cut in.
//!   Renders as text ([`std::fmt::Display`]) and JSON
//!   ([`SolveReport::to_json`]).
//!
//! Solvers are looked up in a [`SolverRegistry`] (string key → factory), so
//! serving layers select algorithms dynamically; [`Auto`] is the portfolio
//! entry that dispatches on detected structure. The bare [`Scheduler`]
//! trait remains the low-level extension point — anything implementing it
//! can be registered or passed directly.
//!
//! One solve computes each structural fact once. The pipeline builds one
//! [`crate::view::InstanceView`]: a single `(start, end, id)` sort with
//! the connected components as ranges of it. The `detect` phase combines
//! the components' features, [`Decomposed`] hands each component to the
//! solver through [`Scheduler::schedule_part`], [`Auto`] reads each
//! component's features and lower bound off the view and returns the
//! winning arm's cost, the `bound` phase sums the components' bounds, and
//! the report reuses the race's cost. Validation alone stays independent
//! of the view: [`Schedule::validate`] re-derives everything from the
//! instance.
//!
//! ```
//! use busytime_core::{Instance, solve::SolveRequest};
//!
//! let inst = Instance::from_pairs([(0, 4), (1, 5), (6, 9)], 2);
//! let report = SolveRequest::new(&inst).solver("auto").solve().unwrap();
//! assert!(report.gap >= 1.0);
//! report.schedule.validate(&inst).unwrap();
//! ```

mod auto;
mod features;
mod registry;

pub use auto::{Auto, AutoChoice};
pub use features::InstanceFeatures;
pub use registry::{owned_name, SolverEntry, SolverFactory, SolverRegistry};

use std::time::{Duration, Instant};

use crate::algo::{Decomposed, Scheduler, SchedulerError};
use crate::cancel::CancelToken;
use crate::instance::Instance;
use crate::memo::WarmStart;
use crate::schedule::{Schedule, ScheduleViolation};
use crate::view::InstanceView;

/// The near-match edit budget serving layers pass to
/// [`crate::memo::SolutionCache::warm_hint`] on a miss: cached entries whose
/// job multiset differs by at most this many insertions/deletions may seed
/// the exact solver's incumbent.
pub const WARM_EDIT_BUDGET: usize = 2;

/// How much checking [`SolveRequest::solve`] performs on the produced
/// schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValidationLevel {
    /// Trust the solver; no validation phase.
    Skip,
    /// Run [`Schedule::validate`] (feasibility, dense ids, capacity).
    #[default]
    Basic,
    /// [`ValidationLevel::Basic`] plus internal-consistency checks
    /// (cost is never below the certified lower bound).
    Strict,
}

/// Solver selection inside a [`SolveRequest`].
enum SolverChoice {
    /// Look up this key in the registry at solve time.
    Named(String),
    /// Use this caller-supplied scheduler directly.
    Custom(Box<dyn Scheduler + Send + Sync>),
}

/// When a solve forks one instance's work across the global executor.
///
/// The only fork is component dispatch: under a live context
/// [`Decomposed`] solves the instance's connected components concurrently.
/// Every other phase runs sequentially whatever the policy. Results are
/// identical either way, because components come back in component order
/// (see [`crate::pool`]'s fork–join contract), so the policy trades
/// wall-clock time only. The pipeline records the resolved width in the
/// schedule phase's detail when a fork was active.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ParallelPolicy {
    /// Fork iff the instance has at least
    /// [`crate::pool::intra::JOB_THRESHOLD`] jobs *and* the global
    /// executor has at least two idle workers — so single large solves
    /// accelerate while solves already running inside a saturated batch
    /// (whose workers are busy by definition) stay sequential and do not
    /// thrash the budget.
    #[default]
    Auto,
    /// Always enter the intra-parallelism context at the executor's full
    /// width (still inert on a single-worker executor, and nested
    /// submissions from pool workers always degrade to inline execution).
    On,
    /// Never fork; components are solved one after another.
    Off,
}

impl ParallelPolicy {
    /// Parses the wire/CLI spelling (`auto` | `on` | `off`).
    pub fn parse(raw: &str) -> Option<ParallelPolicy> {
        match raw {
            "auto" => Some(ParallelPolicy::Auto),
            "on" => Some(ParallelPolicy::On),
            "off" => Some(ParallelPolicy::Off),
            _ => None,
        }
    }

    /// The canonical spelling accepted by [`ParallelPolicy::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            ParallelPolicy::Auto => "auto",
            ParallelPolicy::On => "on",
            ParallelPolicy::Off => "off",
        }
    }
}

/// Options shared by every solver factory and the solve pipeline. Time
/// has one bound, the hard `deadline` (or a caller's [`CancelToken`]):
/// there is no soft budget beside it.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Solve connected components independently and merge (the paper's
    /// w.l.o.g. preprocessing, Section 1.4; lossless). Default `true`.
    pub decompose: bool,
    /// Post-solve checking. Default [`ValidationLevel::Basic`].
    pub validation: ValidationLevel,
    /// Seed consumed by randomized solvers (`random-fit`,
    /// `first-fit-seeded`). Default 0.
    pub seed: u64,
    /// Refuse instances with more jobs than this before scheduling.
    pub max_jobs: Option<usize>,
    /// Hard per-solve deadline, enforced *inside* solver loops through a
    /// [`CancelToken`]: on expiry the solver stops at its next cooperative
    /// checkpoint and the report comes back flagged `deadline_hit` with the
    /// solver's incumbent schedule, or the solve fails with
    /// [`SchedulerError::Infeasible`] when the solver held no incumbent. A
    /// cut solve skips the validation phase.
    pub deadline: Option<Duration>,
    /// A machine-grouping hint from a cached near-match solution,
    /// consumed by solvers that accept a starting incumbent (currently
    /// `exact-bb`); other solvers ignore it. Usually a serving layer's
    /// [`crate::memo::SolutionCache::warm_hint`] rather than set by hand.
    pub warm_start: Option<WarmStart>,
    /// Intra-instance parallelism policy (default
    /// [`ParallelPolicy::Auto`]). Deliberately excluded from the
    /// solution-cache fingerprint: the fork–join layer is deterministic,
    /// so parallel and sequential solves of one instance are
    /// interchangeable cache entries.
    pub parallel: ParallelPolicy,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            decompose: true,
            validation: ValidationLevel::Basic,
            seed: 0,
            max_jobs: None,
            deadline: None,
            warm_start: None,
            parallel: ParallelPolicy::Auto,
        }
    }
}

/// Why a solve failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The requested solver key is not in the registry.
    UnknownSolver {
        /// The key that failed to resolve.
        requested: String,
        /// All canonical keys the registry offers.
        available: Vec<String>,
    },
    /// The solver itself refused or failed.
    Scheduler(SchedulerError),
    /// The produced schedule failed validation — a solver bug.
    Validation(ScheduleViolation),
    /// The instance exceeds the request's size budget.
    BudgetExceeded {
        /// Jobs in the instance.
        jobs: usize,
        /// The configured cap.
        max_jobs: usize,
    },
    /// Strict validation found a cost below the certified lower bound —
    /// an internal inconsistency in cost accounting or bounds.
    CostBelowBound {
        /// The (impossible) reported cost.
        cost: i64,
        /// The certified lower bound it undercuts.
        lower_bound: i64,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::UnknownSolver {
                requested,
                available,
            } => {
                write!(
                    f,
                    "unknown solver `{requested}`; available: {}",
                    available.join(", ")
                )
            }
            SolveError::Scheduler(e) => write!(f, "{e}"),
            SolveError::Validation(v) => write!(f, "invalid schedule produced: {v}"),
            SolveError::BudgetExceeded { jobs, max_jobs } => {
                write!(f, "instance has {jobs} jobs, over the budget of {max_jobs}")
            }
            SolveError::CostBelowBound { cost, lower_bound } => {
                write!(f, "cost {cost} below certified lower bound {lower_bound}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<SchedulerError> for SolveError {
    fn from(e: SchedulerError) -> Self {
        SolveError::Scheduler(e)
    }
}

/// One timed pipeline phase inside a [`SolveReport`].
#[derive(Clone, Debug)]
pub struct PhaseStat {
    /// Phase name (`detect`, `build`, `schedule`, `bound`, `validate`).
    pub name: &'static str,
    /// Wall-clock duration of the phase.
    pub duration: Duration,
    /// Human-readable detail (e.g. which specialist `auto` dispatched to).
    pub detail: String,
}

/// The result of a solve: schedule plus everything a serving layer or
/// experiment table needs, computed once.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The solver selection as requested (registry key or custom name).
    pub requested: String,
    /// The resolved name of the scheduler that actually ran.
    pub solver: String,
    /// The portfolio decision for the instance *as a whole*, when the
    /// `auto` solver was requested (computed with [`Auto`]'s default
    /// cutoffs). With component decomposition on (the default), `Auto`
    /// re-decides per connected component, so individual components of a
    /// disconnected instance may dispatch differently; the build phase's
    /// detail notes when that can happen.
    pub auto_choice: Option<AutoChoice>,
    /// The produced schedule (validated per the request's
    /// [`ValidationLevel`]).
    pub schedule: Schedule,
    /// Total busy time of the schedule — the objective.
    pub cost: i64,
    /// Machines used.
    pub machines: usize,
    /// The strongest lower bound of [`crate::bounds::best_lower_bound`].
    pub lower_bound: i64,
    /// `cost / lower_bound` — an upper bound on the true approximation
    /// ratio achieved. When the bound is 0 this is `1.0` only if the cost
    /// is also 0 (empty instances); a positive cost over a zero bound is
    /// [`f64::INFINITY`] (JSON `null`) rather than a false optimality
    /// claim.
    pub gap: f64,
    /// Detected structure of the instance.
    pub features: InstanceFeatures,
    /// Per-phase wall-clock stats, in execution order.
    pub phases: Vec<PhaseStat>,
    /// Total wall-clock time of the pipeline.
    pub total: Duration,
    /// True iff the request's deadline (or an externally supplied
    /// [`CancelToken`]) expired before the pipeline finished: the schedule
    /// is the solver's incumbent — feasible but with no optimality or
    /// approximation certificate beyond its reported `gap`.
    pub deadline_hit: bool,
    /// The pipeline phase during which the deadline expiry was first
    /// observed (`Some` iff `deadline_hit`).
    pub cut_phase: Option<&'static str>,
    /// True iff this report was served from a
    /// [`crate::memo::SolutionCache`] rather than solved fresh (the
    /// assignment is remapped to the caller's job order; everything else is
    /// the original solve verbatim).
    pub cached: bool,
    /// True iff the solve started from a near-match warm-start hint
    /// ([`SolveOptions::warm_start`]) — set whenever a hint was attached.
    pub warm_started: bool,
}

/// Version stamp emitted in every report JSON document (the
/// `schema_version` field). Consumers of recorded report lines should
/// accept unknown fields, so additive protocol evolution does not bump
/// this; only a breaking change (renamed/retyped field) does.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

impl SolveReport {
    /// One line suitable for logs: solver, cost, machines, gap.
    pub fn summary(&self) -> String {
        format!(
            "{}: cost {} on {} machines | LB {} | gap ≤ {:.3} | {:.1} ms",
            self.solver,
            self.cost,
            self.machines,
            self.lower_bound,
            self.gap,
            self.total.as_secs_f64() * 1e3,
        )
    }

    /// Serializes the full report (sans assignment) plus the machine
    /// assignment as multi-line, human-diffable JSON. The document starts
    /// with a stable [`REPORT_SCHEMA_VERSION`] stamp; parsers should
    /// tolerate unknown fields so the format can grow additively.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// Serializes the same document as [`SolveReport::to_json`] onto a
    /// single line (no embedded newlines, no trailing newline) — the shape
    /// the NDJSON serving protocol streams, one report per input line.
    pub fn to_json_line(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, pretty: bool) -> String {
        fn esc(out: &mut String, s: &str) {
            out.push('"');
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        let sep = if pretty { ",\n  " } else { ", " };
        let mut out = String::from(if pretty { "{\n  " } else { "{" });
        out.push_str(&format!("\"schema_version\": {REPORT_SCHEMA_VERSION}"));
        out.push_str(sep);
        out.push_str("\"requested\": ");
        esc(&mut out, &self.requested);
        out.push_str(sep);
        out.push_str("\"solver\": ");
        esc(&mut out, &self.solver);
        out.push_str(sep);
        out.push_str("\"auto_choice\": ");
        match self.auto_choice {
            Some(c) => esc(&mut out, c.solver_key()),
            None => out.push_str("null"),
        }
        let gap = if self.gap.is_finite() {
            format!("{:.6}", self.gap)
        } else {
            // f64 infinities have no JSON literal; consumers parse null
            // back as infinity
            String::from("null")
        };
        out.push_str(&format!(
            "{sep}\"cost\": {}{sep}\"machines\": {}{sep}\"lower_bound\": {}{sep}\"gap\": {gap}",
            self.cost, self.machines, self.lower_bound
        ));
        let f = &self.features;
        out.push_str(&format!(
            "{sep}\"features\": {{\"jobs\": {}, \"g\": {}, \"proper\": {}, \"clique\": {}, \
             \"components\": {}, \"max_overlap\": {}, \"min_len\": {}, \"max_len\": {}, \
             \"span\": {}, \"total_len\": {}}}",
            f.jobs,
            f.g,
            f.proper,
            f.clique,
            f.components,
            f.max_overlap,
            f.min_len,
            f.max_len,
            f.span,
            f.total_len
        ));
        out.push_str(sep);
        out.push_str("\"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ms\": {}, \"detail\": ",
                p.name,
                ms(p.duration)
            ));
            esc(&mut out, &p.detail);
            out.push('}');
        }
        // `budget_exhausted` is a fixed `false`: no option sets it any more,
        // and the key stays so every answer keeps its bytes
        out.push_str(&format!(
            "]{sep}\"total_ms\": {}{sep}\"budget_exhausted\": false{sep}\"deadline_hit\": {}\
             {sep}\"cached\": {}{sep}\"warm_started\": {}",
            ms(self.total),
            self.deadline_hit,
            self.cached,
            self.warm_started
        ));
        out.push_str(sep);
        out.push_str("\"cut_phase\": ");
        match self.cut_phase {
            Some(phase) => esc(&mut out, phase),
            None => out.push_str("null"),
        }
        out.push_str(sep);
        out.push_str("\"assignment\": [");
        for (i, m) in self.schedule.assignment().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&m.to_string());
        }
        out.push_str(if pretty { "]\n}\n" } else { "]}" });
        out
    }
}

impl std::fmt::Display for SolveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "solver:      {} (requested: {})",
            self.solver, self.requested
        )?;
        if let Some(choice) = self.auto_choice {
            if self.features.components > 1 {
                writeln!(
                    f,
                    "auto chose:  {choice} (whole-instance decision; components decided independently)"
                )?;
            } else {
                writeln!(f, "auto chose:  {choice}")?;
            }
        }
        writeln!(
            f,
            "cost:        {} on {} machines",
            self.cost, self.machines
        )?;
        writeln!(
            f,
            "lower bound: {}  (gap ≤ {:.3})",
            self.lower_bound, self.gap
        )?;
        writeln!(
            f,
            "features:    n={} g={} proper={} clique={} components={} ω={} lengths=[{},{}]",
            self.features.jobs,
            self.features.g,
            self.features.proper,
            self.features.clique,
            self.features.components,
            self.features.max_overlap,
            self.features.min_len,
            self.features.max_len
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "phase {:<9} {:>9.3} ms  {}",
                p.name,
                p.duration.as_secs_f64() * 1e3,
                p.detail
            )?;
        }
        write!(f, "total:       {:.3} ms", self.total.as_secs_f64() * 1e3)?;
        if let Some(phase) = self.cut_phase {
            write!(f, "  (deadline hit in {phase}; incumbent returned)")?;
        }
        if self.cached {
            write!(f, "  (served from solution cache)")?;
        }
        if self.warm_started {
            write!(f, "  (warm-started from a cached near match)")?;
        }
        Ok(())
    }
}

/// Builder for one solve: instance + solver selection + options.
///
/// See the [module docs](self) for the full picture; the quick path is
/// `SolveRequest::new(&inst).solve()`, which runs the `auto` portfolio
/// with default options against the default registry.
pub struct SolveRequest<'a> {
    inst: &'a Instance,
    choice: SolverChoice,
    options: SolveOptions,
    precomputed: Option<InstanceFeatures>,
    cancel: Option<CancelToken>,
}

impl<'a> SolveRequest<'a> {
    /// A request for `inst` with the `auto` portfolio and default options.
    pub fn new(inst: &'a Instance) -> Self {
        SolveRequest {
            inst,
            choice: SolverChoice::Named("auto".to_string()),
            options: SolveOptions::default(),
            precomputed: None,
            cancel: None,
        }
    }

    /// Selects a solver by registry key (canonical name or alias).
    pub fn solver(mut self, key: impl Into<String>) -> Self {
        self.choice = SolverChoice::Named(key.into());
        self
    }

    /// Uses a caller-supplied scheduler instead of a registry lookup (the
    /// low-level [`Scheduler`] extension point). `Send + Sync` because the
    /// pipeline may share the scheduler across executor workers when
    /// solving components in parallel; schedulers are stateless values, so
    /// the bound is free in practice.
    pub fn scheduler(mut self, scheduler: Box<dyn Scheduler + Send + Sync>) -> Self {
        self.choice = SolverChoice::Custom(scheduler);
        self
    }

    /// Sets the intra-instance parallelism policy (default
    /// [`ParallelPolicy::Auto`]).
    pub fn parallel(mut self, policy: ParallelPolicy) -> Self {
        self.options.parallel = policy;
        self
    }

    /// Toggles component decomposition (default on).
    pub fn decompose(mut self, on: bool) -> Self {
        self.options.decompose = on;
        self
    }

    /// Sets the validation level (default [`ValidationLevel::Basic`]).
    pub fn validation(mut self, level: ValidationLevel) -> Self {
        self.options.validation = level;
        self
    }

    /// Sets the seed for randomized solvers.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Refuses instances with more than `n` jobs.
    pub fn max_jobs(mut self, n: usize) -> Self {
        self.options.max_jobs = Some(n);
        self
    }

    /// Sets a hard per-solve deadline, enforced *inside* solver loops: the
    /// pipeline hands every solver a [`CancelToken`] expiring `deadline`
    /// from the start of the solve, solvers poll it at branch/DP-row/sweep
    /// granularity, and on expiry the report carries the solver's incumbent
    /// schedule flagged [`SolveReport::deadline_hit`] (with the phase it
    /// was cut in) — or the solve fails with
    /// [`SchedulerError::Infeasible`] when the solver held no incumbent.
    ///
    /// ```
    /// use busytime_core::{Instance, solve::SolveRequest};
    /// use std::time::Duration;
    ///
    /// let inst = Instance::from_pairs([(0, 4), (1, 5), (6, 9)], 2);
    /// // an already-expired deadline still yields a feasible schedule —
    /// // the portfolio returns its cheapest incumbent and flags the report
    /// let report = SolveRequest::new(&inst)
    ///     .deadline(Duration::ZERO)
    ///     .solve()
    ///     .unwrap();
    /// assert!(report.deadline_hit);
    /// assert!(report.cut_phase.is_some());
    /// report.schedule.validate(&inst).unwrap();
    /// ```
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.options.deadline = Some(deadline);
        self
    }

    /// Attaches an externally owned [`CancelToken`] (e.g. a serving pool's
    /// per-record token). The solve observes it alongside any
    /// [`SolveRequest::deadline`]: whichever expires or is cancelled first
    /// cuts the solve.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Replaces all options at once.
    pub fn options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// Supplies a machine-grouping warm-start hint
    /// ([`SolveOptions::warm_start`]).
    pub fn warm_start(mut self, warm: WarmStart) -> Self {
        self.options.warm_start = Some(warm);
        self
    }

    /// Supplies already-detected features for this instance, skipping the
    /// detect phase (its `PhaseStat` is recorded as `cached`).
    ///
    /// The caller must have obtained `features` from
    /// [`InstanceFeatures::detect`] on an equal instance; stale features
    /// would mis-dispatch the `auto` portfolio.
    pub fn features(mut self, features: InstanceFeatures) -> Self {
        self.precomputed = Some(features);
        self
    }

    /// Runs against the default registry ([`SolverRegistry::with_defaults`]).
    pub fn solve(self) -> Result<SolveReport, SolveError> {
        let registry = SolverRegistry::with_defaults();
        self.solve_with(&registry)
    }

    /// Runs against a caller-provided registry (e.g. one extended with the
    /// exact solvers of `busytime-exact`).
    pub fn solve_with(self, registry: &SolverRegistry) -> Result<SolveReport, SolveError> {
        let SolveRequest {
            inst,
            choice,
            options,
            precomputed,
            cancel,
        } = self;
        let started = Instant::now();
        let mut phases: Vec<PhaseStat> = Vec::new();

        if let Some(max) = options.max_jobs {
            if inst.len() > max {
                return Err(SolveError::BudgetExceeded {
                    jobs: inst.len(),
                    max_jobs: max,
                });
            }
        }

        // intra-instance parallelism: resolve the policy to a fork width
        // and hold the context open for the whole pipeline, so the
        // schedule phase's component dispatch can fork. Off never touches
        // the global executor (it may not exist yet).
        let intra_width = match options.parallel {
            ParallelPolicy::Off => 1,
            ParallelPolicy::On => crate::pool::Executor::global().workers(),
            ParallelPolicy::Auto => {
                if inst.len() >= crate::pool::intra::JOB_THRESHOLD {
                    crate::pool::Executor::global().idle_workers()
                } else {
                    1
                }
            }
        };
        let _intra = (intra_width >= 2)
            .then(|| crate::pool::intra::enter(&crate::pool::Executor::global(), intra_width));

        // the cooperative token every solver loop polls: the caller's
        // token (if any), tightened by the request's own deadline
        let token = match (cancel, options.deadline) {
            (Some(outer), Some(deadline)) => outer.child_after(deadline),
            (Some(outer), None) => outer,
            (None, Some(deadline)) => CancelToken::after(deadline),
            (None, None) => CancelToken::never(),
        };
        // the first phase after which the token is observed expired — the
        // phase the solve was "cut in"
        let mut cut_phase: Option<&'static str> = None;

        // detect — the view sorts the jobs once, and every later phase
        // reads its components, features and bounds; with precomputed
        // features the sort waits for the first phase that needs it
        let t = Instant::now();
        let cached = precomputed.is_some();
        let view = match precomputed {
            Some(f) => InstanceView::with_features(inst, f),
            None => InstanceView::new(inst),
        };
        let features = view.whole().features().clone();
        phases.push(PhaseStat {
            name: "detect",
            duration: t.elapsed(),
            detail: format!(
                "{}proper={} clique={} components={} width={:?}",
                if cached { "cached; " } else { "" },
                features.proper,
                features.clique,
                features.components,
                features.length_width()
            ),
        });
        if cut_phase.is_none() && token.is_cancelled() {
            cut_phase = Some("detect");
        }

        // build
        let t = Instant::now();
        let (requested, base): (String, Box<dyn Scheduler + Send + Sync>) = match choice {
            SolverChoice::Named(key) => {
                let solver = registry.build(&key, &options)?;
                (key, solver)
            }
            SolverChoice::Custom(s) => (owned_name(&*s), s),
        };
        let is_auto =
            registry.get(&requested).is_some_and(|e| e.key() == "auto") || base.name() == "Auto";
        let auto_choice = is_auto.then(|| Auto::new().decide(&features));
        let solver_name = owned_name(&*base);
        let solver: Box<dyn Scheduler + Send + Sync> = if options.decompose {
            Box::new(Decomposed::new(base))
        } else {
            base
        };
        // With decomposition on, Auto re-decides per connected component, so
        // the whole-instance decision recorded here may be refined per
        // component (see the `auto_choice` field docs).
        let multi_component = options.decompose && features.components > 1;
        phases.push(PhaseStat {
            name: "build",
            duration: t.elapsed(),
            detail: match auto_choice {
                Some(choice) if multi_component => format!(
                    "{solver_name} (whole-instance dispatch {choice}; {} components decided independently)",
                    features.components
                ),
                Some(choice) => format!("{solver_name} (dispatching to {choice})"),
                None => solver_name.clone(),
            },
        });
        if cut_phase.is_none() && token.is_cancelled() {
            cut_phase = Some("build");
        }

        // schedule — the token rides along into every solver loop
        let t = Instant::now();
        let (schedule, cost) = solver.schedule_part(view.whole(), &token)?;
        phases.push(PhaseStat {
            name: "schedule",
            duration: t.elapsed(),
            detail: if intra_width >= 2 {
                format!(
                    "{} machines (parallel width {intra_width})",
                    schedule.machine_count()
                )
            } else {
                format!("{} machines", schedule.machine_count())
            },
        });
        if cut_phase.is_none() && token.is_cancelled() {
            cut_phase = Some("schedule");
        }

        // bound
        let t = Instant::now();
        let lower_bound = view.whole().lower_bound();
        phases.push(PhaseStat {
            name: "bound",
            duration: t.elapsed(),
            detail: "best_lower_bound (component + clique δ)".to_string(),
        });
        if cut_phase.is_none() && token.is_cancelled() {
            cut_phase = Some("bound");
        }

        // the solver's own cost when it computed one (the `auto` race
        // does), else one sweep over the schedule
        let cost = cost.unwrap_or_else(|| schedule.cost(inst));
        // a zero bound is only vacuously optimal when the cost is zero
        // too (empty / all-zero-length instances); a positive cost over a
        // zero bound must not claim gap 1.0 (it serializes as JSON null)
        let gap = if lower_bound > 0 {
            cost as f64 / lower_bound as f64
        } else if cost == 0 {
            1.0
        } else {
            f64::INFINITY
        };

        // validate — skipped once the deadline has expired (a cut record
        // should leave the pipeline promptly; callers that need certainty
        // re-validate the incumbent themselves)
        if options.validation != ValidationLevel::Skip && cut_phase.is_none() {
            let t = Instant::now();
            schedule.validate(inst).map_err(SolveError::Validation)?;
            if options.validation == ValidationLevel::Strict && cost < lower_bound {
                return Err(SolveError::CostBelowBound { cost, lower_bound });
            }
            phases.push(PhaseStat {
                name: "validate",
                duration: t.elapsed(),
                detail: format!("{:?}", options.validation),
            });
            if cut_phase.is_none() && token.is_cancelled() {
                cut_phase = Some("validate");
            }
        }

        Ok(SolveReport {
            requested,
            solver: solver_name,
            auto_choice,
            machines: schedule.machine_count(),
            schedule,
            cost,
            lower_bound,
            gap,
            features,
            phases,
            total: started.elapsed(),
            deadline_hit: cut_phase.is_some(),
            cut_phase,
            cached: false,
            warm_started: options.warm_start.is_some(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::FirstFit;

    fn inst() -> Instance {
        Instance::from_pairs([(0, 4), (1, 5), (6, 9), (100, 104)], 2)
    }

    #[test]
    fn default_request_runs_auto() {
        let inst = inst();
        let report = SolveRequest::new(&inst).solve().unwrap();
        assert_eq!(report.requested, "auto");
        assert!(report.auto_choice.is_some());
        assert!(report.gap >= 1.0);
        assert!(report.cost >= report.lower_bound);
        report.schedule.validate(&inst).unwrap();
        assert!(report.phases.iter().any(|p| p.name == "schedule"));
    }

    #[test]
    fn named_solver_resolves() {
        let inst = inst();
        let report = SolveRequest::new(&inst)
            .solver("first-fit")
            .solve()
            .unwrap();
        assert_eq!(report.requested, "first-fit");
        assert!(report.solver.starts_with("FirstFit"));
        assert!(report.auto_choice.is_none());
    }

    #[test]
    fn alias_resolves() {
        let inst = inst();
        let report = SolveRequest::new(&inst).solver("firstfit").solve().unwrap();
        assert!(report.solver.starts_with("FirstFit"));
    }

    #[test]
    fn unknown_solver_errors() {
        let inst = inst();
        let err = SolveRequest::new(&inst).solver("nope").solve().unwrap_err();
        assert!(matches!(err, SolveError::UnknownSolver { .. }));
    }

    #[test]
    fn custom_scheduler_is_accepted() {
        let inst = inst();
        let report = SolveRequest::new(&inst)
            .scheduler(Box::new(FirstFit::paper()))
            .solve()
            .unwrap();
        assert!(report.solver.starts_with("FirstFit"));
    }

    #[test]
    fn decompose_toggle_preserves_cost_for_first_fit() {
        let inst = inst();
        let on = SolveRequest::new(&inst)
            .solver("first-fit")
            .solve()
            .unwrap();
        let off = SolveRequest::new(&inst)
            .solver("first-fit")
            .decompose(false)
            .solve()
            .unwrap();
        assert_eq!(on.cost, off.cost);
    }

    #[test]
    fn max_jobs_budget_refuses() {
        let inst = inst();
        let err = SolveRequest::new(&inst).max_jobs(2).solve().unwrap_err();
        assert!(matches!(
            err,
            SolveError::BudgetExceeded {
                jobs: 4,
                max_jobs: 2
            }
        ));
    }

    #[test]
    fn strict_validation_passes_on_honest_solvers() {
        let inst = inst();
        let report = SolveRequest::new(&inst)
            .validation(ValidationLevel::Strict)
            .solve()
            .unwrap();
        assert!(report.phases.iter().any(|p| p.name == "validate"));
    }

    #[test]
    fn empty_instance_reports_gap_one() {
        let empty = Instance::new(vec![], 3);
        let report = SolveRequest::new(&empty).solve().unwrap();
        assert_eq!(report.cost, 0);
        assert_eq!(report.lower_bound, 0);
        assert_eq!(report.gap, 1.0);
        assert_eq!(report.machines, 0);
    }

    #[test]
    fn report_renders_text_and_json() {
        let inst = inst();
        let report = SolveRequest::new(&inst).solve().unwrap();
        let text = report.to_string();
        assert!(text.contains("lower bound"));
        assert!(report.summary().contains("cost"));
        let json = report.to_json();
        assert!(json.contains("\"solver\""));
        assert!(json.contains("\"assignment\""));
        assert!(json.contains("\"auto_choice\""));
    }

    #[test]
    fn non_finite_gap_serializes_as_json_null() {
        // a positive cost over a zero certified bound must not serialize
        // as a finite (optimality-claiming) gap — and `inf` is not a JSON
        // token, so the wire form is null
        let inst = inst();
        let mut report = SolveRequest::new(&inst).solve().unwrap();
        assert!(report
            .to_json_line()
            .contains(&format!("\"gap\": {:.6}", report.gap)));
        report.gap = f64::INFINITY;
        let line = report.to_json_line();
        assert!(line.contains("\"gap\": null"), "{line}");
        assert!(!line.contains("inf"), "{line}");
    }

    #[test]
    fn json_line_is_single_line_with_schema_version() {
        let inst = inst();
        let report = SolveRequest::new(&inst).solve().unwrap();
        let line = report.to_json_line();
        assert!(!line.contains('\n'), "NDJSON line embeds a newline: {line}");
        assert!(line.starts_with(&format!("{{\"schema_version\": {REPORT_SCHEMA_VERSION}")));
        // the pretty document carries the same stamp
        assert!(report
            .to_json()
            .contains(&format!("\"schema_version\": {REPORT_SCHEMA_VERSION}")));
    }

    #[test]
    fn precomputed_features_skip_detection() {
        let inst = inst();
        let features = InstanceFeatures::detect(&inst);
        let report = SolveRequest::new(&inst)
            .features(features.clone())
            .solve()
            .unwrap();
        assert_eq!(report.features, features);
        let detect = report
            .phases
            .iter()
            .find(|p| p.name == "detect")
            .expect("detect phase recorded");
        assert!(detect.detail.starts_with("cached; "), "{}", detect.detail);
        // dispatch still works off the injected features
        assert!(report.auto_choice.is_some());
        report.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn expired_deadline_flags_report_with_cut_phase() {
        let inst = inst();
        let report = SolveRequest::new(&inst)
            .deadline(Duration::ZERO)
            .solve()
            .unwrap();
        assert!(report.deadline_hit);
        assert_eq!(report.cut_phase, Some("detect"));
        // validation is skipped on cut solves, but the incumbent is valid
        assert!(!report.phases.iter().any(|p| p.name == "validate"));
        report.schedule.validate(&inst).unwrap();
        let json = report.to_json_line();
        assert!(json.contains("\"deadline_hit\": true"), "{json}");
        assert!(json.contains("\"cut_phase\": \"detect\""), "{json}");
    }

    #[test]
    fn generous_deadline_leaves_report_unflagged() {
        let inst = inst();
        let report = SolveRequest::new(&inst)
            .deadline(Duration::from_secs(3600))
            .solve()
            .unwrap();
        assert!(!report.deadline_hit);
        assert_eq!(report.cut_phase, None);
        assert!(report.to_json().contains("\"cut_phase\": null"));
    }

    #[test]
    fn external_cancel_token_cuts_the_solve() {
        let inst = inst();
        let token = CancelToken::never();
        token.cancel();
        let report = SolveRequest::new(&inst).cancel(token).solve().unwrap();
        assert!(report.deadline_hit);
        report.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn caller_token_is_tightened_not_replaced_by_deadline() {
        let inst = inst();
        let outer = CancelToken::never();
        let report = SolveRequest::new(&inst)
            .cancel(outer.clone())
            .deadline(Duration::from_secs(3600))
            .solve()
            .unwrap();
        assert!(!report.deadline_hit);
        // cancelling the outer token after the solve must not have been
        // visible during it — and the request's child never poisons it
        assert!(!outer.is_cancelled());
    }

    #[test]
    fn seed_reaches_seeded_solvers() {
        let inst = inst();
        let report = SolveRequest::new(&inst)
            .solver("random-fit")
            .seed(7)
            .solve()
            .unwrap();
        assert_eq!(report.solver, "RandomFit[seed7]");
    }
}
