//! The scheduling algorithms of the paper, plus baselines and extensions.
//!
//! All algorithms implement [`Scheduler`]; every produced [`Schedule`] passes
//! [`Schedule::validate`]. Approximation guarantees (checked empirically in
//! `busytime-lab` and, on small instances, against the exact solver of
//! `busytime-exact`):
//!
//! * [`FirstFit`] — 4-approximation on general instances (Theorem 2.1);
//!   there are instances forcing ratio ≥ 3 − ε (Theorem 2.4).
//! * [`NextFitProper`] — 2-approximation on proper families (Theorem 3.1).
//! * [`BoundedLength`] — (2+ε)-approximation when lengths lie in `[1, d]`
//!   with integral starts (Theorem 3.2); in the integral tick model the
//!   busy-length grid is exact, so the factor is 2 relative to the best
//!   segment-respecting solution (Lemma 3.3 supplies the remaining 2).
//! * [`CliqueScheduler`] — 2-approximation when all jobs pairwise overlap
//!   (Theorem A.1).
//! * [`MinMachines`] — optimizes machine *count* (⌈ω/g⌉, optimal; the
//!   polynomially solvable objective contrasted in Section 1.1), used as a
//!   busy-time baseline.

mod baselines;
mod bounded_length;
mod clique;
pub mod demand;
mod first_fit;
mod guess_match;
mod next_fit_proper;

pub use baselines::{BestFit, MinMachines, NextFitArrival, RandomFit};
pub use bounded_length::BoundedLength;
pub use clique::CliqueScheduler;
pub use first_fit::{FirstFit, SortOrder, TieBreak};
pub use guess_match::GuessMatch;
pub use next_fit_proper::NextFitProper;

use std::borrow::Cow;

use crate::cancel::CancelToken;
use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::view::{InstanceView, Part};

/// Why a scheduler declined an instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedulerError {
    /// The instance is outside the class the algorithm is defined for
    /// (e.g. the clique algorithm on a non-clique).
    UnsupportedInstance {
        /// The scheduler that refused.
        scheduler: String,
        /// Human-readable reason.
        reason: String,
    },
    /// The instance exceeds the size limits of an exhaustive solver.
    TooLarge {
        /// The scheduler that refused.
        scheduler: String,
        /// Human-readable limit description.
        limit: String,
    },
    /// No feasible schedule exists within the solver's resource budget
    /// (time, machines, or cost cap). Reserved for budgeted solvers; the
    /// paper's algorithms always succeed on instances in their class.
    Infeasible {
        /// The scheduler that gave up.
        scheduler: String,
        /// The budget that was exhausted.
        budget: String,
    },
}

impl std::fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerError::UnsupportedInstance { scheduler, reason } => {
                write!(f, "{scheduler}: unsupported instance: {reason}")
            }
            SchedulerError::TooLarge { scheduler, limit } => {
                write!(f, "{scheduler}: instance too large: {limit}")
            }
            SchedulerError::Infeasible { scheduler, budget } => {
                write!(
                    f,
                    "{scheduler}: no feasible schedule within budget: {budget}"
                )
            }
        }
    }
}

impl std::error::Error for SchedulerError {}

/// A busy-time scheduling algorithm.
///
/// Every solver loop is written against a [`CancelToken`]: implementations
/// of [`Scheduler::schedule_with`] poll [`CancelToken::is_cancelled`] at
/// the granularity of their inner loop (per branch, per DP row, per sweep
/// segment) and, on expiry, return their best incumbent schedule — or
/// [`SchedulerError::Infeasible`] when they hold nothing feasible yet.
/// Polynomial-time solvers whose whole run fits comfortably inside any
/// realistic deadline may ignore the token.
pub trait Scheduler {
    /// Human-readable name including parameterization (used in experiment
    /// tables and solver registries).
    ///
    /// Returns a `Cow` so the common case — a fixed, static name — does not
    /// allocate on every dispatch; parameterized schedulers return an owned
    /// string.
    fn name(&self) -> Cow<'static, str>;

    /// Produces a feasible schedule for `inst`, checking `cancel`
    /// cooperatively. On cancellation/expiry the solver stops early and
    /// returns its incumbent (a feasible, possibly suboptimal schedule) or
    /// [`SchedulerError::Infeasible`] when it has no incumbent; errors for
    /// instances outside the algorithm's class or size limits are
    /// unchanged.
    fn schedule_with(
        &self,
        inst: &Instance,
        cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError>;

    /// Produces a feasible schedule for `inst` with no deadline
    /// ([`CancelToken::never`]) — the convenience entry point for direct
    /// calls.
    fn schedule(&self, inst: &Instance) -> Result<Schedule, SchedulerError> {
        self.schedule_with(inst, &CancelToken::never())
    }

    /// Schedules one part of a prepared [`InstanceView`], reading whatever
    /// structure the view already holds, and returns the schedule of
    /// [`Part::instance`] with its cost when the scheduler computed that
    /// cost anyway. Defaults to [`Scheduler::schedule_with`], with no cost.
    fn schedule_part(&self, part: Part<'_>, cancel: &CancelToken) -> Costed {
        Ok((self.schedule_with(part.instance(), cancel)?, None))
    }
}

/// What [`Scheduler::schedule_part`] returns: a schedule, with its cost
/// when already known.
pub type Costed = Result<(Schedule, Option<i64>), SchedulerError>;

impl<S: Scheduler + ?Sized> Scheduler for &S {
    fn name(&self) -> Cow<'static, str> {
        (**self).name()
    }
    fn schedule_with(
        &self,
        inst: &Instance,
        cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        (**self).schedule_with(inst, cancel)
    }
    fn schedule(&self, inst: &Instance) -> Result<Schedule, SchedulerError> {
        (**self).schedule(inst)
    }
    fn schedule_part(&self, part: Part<'_>, cancel: &CancelToken) -> Costed {
        (**self).schedule_part(part, cancel)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> Cow<'static, str> {
        (**self).name()
    }
    fn schedule_with(
        &self,
        inst: &Instance,
        cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        (**self).schedule_with(inst, cancel)
    }
    fn schedule(&self, inst: &Instance) -> Result<Schedule, SchedulerError> {
        (**self).schedule(inst)
    }
    fn schedule_part(&self, part: Part<'_>, cancel: &CancelToken) -> Costed {
        (**self).schedule_part(part, cancel)
    }
}

/// Runs `inner` independently on every connected component of the instance
/// and merges the results — the paper's w.l.o.g. preprocessing (Section 1.4).
/// Lossless for the busy-time objective.
#[derive(Clone, Debug)]
pub struct Decomposed<S> {
    /// The scheduler applied per component.
    pub inner: S,
}

impl<S: Scheduler> Decomposed<S> {
    /// Wraps a scheduler with component decomposition.
    pub fn new(inner: S) -> Self {
        Decomposed { inner }
    }
}

impl<S: Scheduler + Sync> Scheduler for Decomposed<S> {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("Decomposed({})", self.inner.name()))
    }

    /// Builds an [`InstanceView`] of `inst` and decomposes it; see
    /// [`Scheduler::schedule_part`] below.
    fn schedule_with(
        &self,
        inst: &Instance,
        cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        Ok(self
            .schedule_part(InstanceView::new(inst).whole(), cancel)?
            .0)
    }

    /// Every component runs under its **own child** of `cancel`: a cut
    /// parent (deadline, session teardown) reaches every component at its
    /// next cooperative check, while a component poisoning its own token
    /// (a budget race loser inside the inner solver) never cuts its
    /// siblings. When an intra-parallelism context is live
    /// ([`crate::pool::intra`]) and the instance has at least two
    /// components, the components are solved concurrently on the context's
    /// executor — dispatched largest-first so the fork's critical path is
    /// one big component, with results merged (and the first error
    /// surfaced) in original component order, so the outcome is identical
    /// to the sequential pass. The cost is the components' sum (no machine
    /// spans two), known when every component's is.
    fn schedule_part(&self, part: Part<'_>, cancel: &CancelToken) -> Costed {
        let view = part.view();
        let count = view.component_count();
        if count == 1 || !part.is_whole() {
            return self.inner.schedule_part(part, &cancel.child());
        }
        // children minted before dispatch, in component order, so cancel
        // semantics do not depend on scheduling
        let tokens: Vec<CancelToken> = (0..count).map(|_| cancel.child()).collect();
        let solve = |i: usize| self.inner.schedule_part(view.component(i), &tokens[i]);
        let solved = match crate::pool::intra::active() {
            Some((exec, width)) if count >= 2 => {
                let mut order: Vec<usize> = (0..count).collect();
                order.sort_by_key(|&i| std::cmp::Reverse(view.component(i).sorted_jobs().len()));
                let mut ran = exec.par_map_with(width, &order, |&i| (i, solve(i)));
                ran.sort_unstable_by_key(|&(i, _)| i);
                ran.into_iter()
                    .map(|(_, result)| result)
                    .collect::<Result<Vec<_>, _>>()?
            }
            _ => (0..count).map(solve).collect::<Result<Vec<_>, _>>()?,
        };
        let mut raw = vec![0usize; part.instance().len()];
        let (mut offset, mut cost) = (0usize, Some(0i64));
        for ((schedule, known), comp) in solved.iter().zip(view.components()) {
            let ids = comp.ids().expect("a component of a disconnected instance");
            for (local, &orig) in ids.iter().enumerate() {
                raw[orig] = offset + schedule.machine_of(local);
            }
            offset += schedule.machine_count();
            cost = cost.zip(*known).map(|(sum, c)| sum + c);
        }
        Ok((Schedule::from_assignment(raw), cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposed_matches_inner_on_connected() {
        let inst = Instance::from_pairs([(0, 4), (2, 6), (3, 8)], 2);
        let inner = FirstFit::paper();
        let direct = inner.schedule(&inst).unwrap();
        let decomposed = Decomposed::new(FirstFit::paper()).schedule(&inst).unwrap();
        assert_eq!(direct.cost(&inst), decomposed.cost(&inst));
    }

    #[test]
    fn decomposed_never_mixes_components() {
        let inst = Instance::from_pairs([(0, 2), (100, 102), (1, 3), (101, 103)], 4);
        let sched = Decomposed::new(FirstFit::paper()).schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
        // jobs 0,2 form one component; 1,3 the other
        assert_ne!(sched.machine_of(0), sched.machine_of(1));
        assert_eq!(sched.machine_of(0), sched.machine_of(2));
    }

    /// Records each per-component token's state at entry; optionally
    /// poisons that token to simulate a component giving up on itself.
    struct TokenProbe {
        seen: std::sync::Mutex<Vec<bool>>,
        poison_own: bool,
    }

    impl TokenProbe {
        fn new(poison_own: bool) -> Self {
            TokenProbe {
                seen: std::sync::Mutex::new(Vec::new()),
                poison_own,
            }
        }
    }

    impl Scheduler for TokenProbe {
        fn name(&self) -> Cow<'static, str> {
            Cow::Borrowed("TokenProbe")
        }
        fn schedule_with(
            &self,
            inst: &Instance,
            cancel: &CancelToken,
        ) -> Result<Schedule, SchedulerError> {
            self.seen.lock().unwrap().push(cancel.is_cancelled());
            if self.poison_own {
                cancel.cancel();
            }
            FirstFit::paper().schedule_with(inst, &CancelToken::never())
        }
    }

    fn three_components() -> Instance {
        Instance::from_pairs([(0, 2), (100, 102), (200, 202)], 2)
    }

    #[test]
    fn decomposed_children_observe_a_cancelled_parent() {
        for parallel in [false, true] {
            let executor = crate::pool::Executor::new(2);
            let _ctx = parallel.then(|| crate::pool::intra::enter(&executor, 2));
            let parent = CancelToken::never();
            parent.cancel();
            let probe = TokenProbe::new(false);
            let _ = Decomposed::new(&probe).schedule_with(&three_components(), &parent);
            let seen = probe.seen.lock().unwrap();
            assert_eq!(seen.len(), 3, "parallel={parallel}");
            assert!(
                seen.iter().all(|&cancelled| cancelled),
                "parallel={parallel}: a cut parent must reach every component"
            );
        }
    }

    #[test]
    fn decomposed_component_poison_spares_parent_and_siblings() {
        for parallel in [false, true] {
            let executor = crate::pool::Executor::new(2);
            let _ctx = parallel.then(|| crate::pool::intra::enter(&executor, 2));
            let inst = three_components();
            let parent = CancelToken::never();
            let probe = TokenProbe::new(true); // every component poisons its own token
            let sched = Decomposed::new(&probe)
                .schedule_with(&inst, &parent)
                .unwrap();
            sched.validate(&inst).unwrap();
            assert!(
                !parent.is_cancelled(),
                "parallel={parallel}: a component's own cancel must not poison the parent"
            );
            let seen = probe.seen.lock().unwrap();
            assert_eq!(seen.len(), 3, "parallel={parallel}");
            assert!(
                seen.iter().all(|&cancelled| !cancelled),
                "parallel={parallel}: siblings must each get a fresh child token"
            );
        }
    }

    #[test]
    fn parallel_decomposition_matches_sequential_assignment() {
        // pseudorandom many-component instance: the parallel path must
        // merge to exactly the sequential assignment
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        let mut pairs = Vec::new();
        for comp in 0..40i64 {
            let base = comp * 1000;
            for _ in 0..(1 + next() % 6) {
                let s = base + (next() % 20) as i64;
                pairs.push((s, s + 1 + (next() % 10) as i64));
            }
        }
        let inst = Instance::from_pairs(pairs, 2);
        let sequential = Decomposed::new(FirstFit::paper()).schedule(&inst).unwrap();
        let executor = crate::pool::Executor::new(4);
        let _ctx = crate::pool::intra::enter(&executor, 4);
        let parallel = Decomposed::new(FirstFit::paper()).schedule(&inst).unwrap();
        assert_eq!(sequential.assignment(), parallel.assignment());
    }

    #[test]
    fn error_display() {
        let e = SchedulerError::UnsupportedInstance {
            scheduler: "Clique".into(),
            reason: "no common point".into(),
        };
        assert!(e.to_string().contains("Clique"));
        let e = SchedulerError::TooLarge {
            scheduler: "GuessMatch".into(),
            limit: "n ≤ 6".into(),
        };
        assert!(e.to_string().contains("too large"));
        let e = SchedulerError::Infeasible {
            scheduler: "Budgeted".into(),
            budget: "10ms".into(),
        };
        assert!(e.to_string().contains("within budget"));
    }

    #[test]
    fn names_do_not_allocate_for_static_schedulers() {
        assert!(matches!(MinMachines.name(), Cow::Borrowed("MinMachines")));
        assert!(matches!(BestFit.name(), Cow::Borrowed("BestFit")));
    }
}
