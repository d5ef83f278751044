//! The `Auto` portfolio scheduler: structure-conditional dispatch.
//!
//! Related work (Chang–Khuller–Mukherjee, *LP Rounding and Combinatorial
//! Algorithms for Minimizing Active and Busy Time*) frames the paper's
//! algorithms as a portfolio of structure-conditional solvers; `Auto` makes
//! that operational. It reads the instance's class ([`InstanceFeatures`])
//! and lower bound off the solve's [`InstanceView`], races the specialist
//! with the best guarantee for that class against the [`FirstFit::paper`]
//! general-purpose fallback and returns whichever schedule is cheaper,
//! with its cost. The arms are raced under child
//! [`CancelToken`]s: a specialist finishing with a certified-optimal
//! schedule cancels the fallback arm (no wasted FirstFit run), and a
//! portfolio-level deadline cuts both arms. The result is never worse than
//! FirstFit — the fallback is only skipped when the specialist is provably
//! optimal — while inheriting the specialist's 2- or (2+ε)-approximation
//! whenever the structure allows one.

use std::borrow::Cow;

use crate::algo::{
    BoundedLength, CliqueScheduler, Costed, FirstFit, NextFitProper, Scheduler, SchedulerError,
};
use crate::cancel::CancelToken;
use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::solve::InstanceFeatures;
use crate::view::{InstanceView, Part};

/// Which specialist [`Auto`] dispatches to for an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AutoChoice {
    /// Pairwise-overlapping family → [`CliqueScheduler`] (2-approx,
    /// Thm A.1).
    Clique,
    /// Proper family → [`NextFitProper`] (2-approx, Thm 3.1).
    Proper,
    /// Lengths in `[1, d]` for small `d` → [`BoundedLength`] ((2+ε)-approx,
    /// Thm 3.2).
    BoundedLength,
    /// No special structure → [`FirstFit`] alone (4-approx, Thm 2.1).
    General,
}

impl AutoChoice {
    /// The registry key of the chosen specialist.
    pub fn solver_key(self) -> &'static str {
        match self {
            AutoChoice::Clique => "clique",
            AutoChoice::Proper => "next-fit-proper",
            AutoChoice::BoundedLength => "bounded-length",
            AutoChoice::General => "first-fit",
        }
    }
}

impl std::fmt::Display for AutoChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.solver_key())
    }
}

/// Portfolio scheduler dispatching on detected instance structure, with a
/// [`FirstFit`] safety net.
///
/// ```
/// use busytime_core::{Instance, solve::Auto, algo::Scheduler};
/// // a proper family: Auto dispatches to NextFitProper
/// let inst = Instance::from_pairs([(0, 3), (1, 4), (2, 5), (9, 12)], 2);
/// let sched = Auto::new().schedule(&inst).unwrap();
/// sched.validate(&inst).unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct Auto {
    /// Maximum normalized length width `d` (see
    /// [`InstanceFeatures::length_width`]) up to which
    /// [`BoundedLength`] is preferred over plain [`FirstFit`]. The
    /// (2+ε) guarantee holds for any finite `d`, but the segmentation
    /// machinery only pays off while `d` is small.
    pub max_bounded_width: i64,
}

impl Default for Auto {
    fn default() -> Self {
        Auto::new()
    }
}

impl Auto {
    /// The default portfolio (bounded-length dispatch up to `d = 8`).
    pub fn new() -> Self {
        Auto {
            max_bounded_width: 8,
        }
    }

    /// Overrides the bounded-length dispatch cutoff.
    pub fn with_max_bounded_width(mut self, d: i64) -> Self {
        self.max_bounded_width = d;
        self
    }

    /// The dispatch decision for an instance with the given features —
    /// pure, cheap, and unit-testable without running any scheduler.
    ///
    /// Priority order mirrors guarantee strength on each class: cliques
    /// (2-approx with the δ-bound certificate), proper families (2-approx),
    /// bounded lengths ((2+ε)-approx), then the general 4-approx.
    pub fn decide(&self, features: &InstanceFeatures) -> AutoChoice {
        if features.jobs == 0 {
            return AutoChoice::General;
        }
        if features.clique {
            AutoChoice::Clique
        } else if features.proper {
            AutoChoice::Proper
        } else if matches!(features.length_width(), Some(d) if d <= self.max_bounded_width) {
            AutoChoice::BoundedLength
        } else {
            AutoChoice::General
        }
    }

    fn specialist(&self, choice: AutoChoice) -> Option<Box<dyn Scheduler>> {
        match choice {
            AutoChoice::Clique => Some(Box::new(CliqueScheduler::new())),
            AutoChoice::Proper => Some(Box::new(NextFitProper::new())),
            AutoChoice::BoundedLength => Some(Box::new(BoundedLength::first_fit())),
            AutoChoice::General => None,
        }
    }
}

impl Scheduler for Auto {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("Auto")
    }

    /// Builds an [`InstanceView`] of `inst` and runs the portfolio race on
    /// it; see [`Scheduler::schedule_part`] below.
    fn schedule_with(
        &self,
        inst: &Instance,
        cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        Ok(self
            .schedule_part(InstanceView::new(inst).whole(), cancel)?
            .0)
    }

    /// Reads the part's class and bound off the view, races the matching
    /// specialist against the FirstFit fallback and returns the cheaper
    /// schedule (the specialist wins ties) with its cost. The arms share
    /// the portfolio's [`CancelToken`] through per-arm children: a
    /// specialist that finishes with a *provably optimal* schedule (cost
    /// equal to the certified lower bound) cancels the fallback arm
    /// instead of letting it run to completion, and an expired portfolio
    /// token makes the specialist's incumbent the final answer without
    /// starting the fallback. Never fails on a valid instance: a
    /// specialist error — class disagreement, or a cut exhaustive segment
    /// with no incumbent — falls back to FirstFit instead of surfacing.
    fn schedule_part(&self, part: Part<'_>, cancel: &CancelToken) -> Costed {
        self.race(part, cancel).map(|(solved, _)| solved)
    }
}

impl Auto {
    /// The portfolio race behind [`Scheduler::schedule_part`]; also reports
    /// whether the fallback arm was skipped (decided race or expired
    /// portfolio token), which the short-circuit tests assert on.
    fn race(&self, part: Part<'_>, cancel: &CancelToken) -> Result<Raced, SchedulerError> {
        let inst = part.instance();
        let fallback_arm = cancel.child();
        let spec = self
            .specialist(self.decide(part.features()))
            .and_then(|specialist| specialist.schedule_with(inst, &cancel.child()).ok());
        let Some(spec) = spec else {
            // no specialist for this class, or it refused: FirstFit alone
            return Ok((
                (FirstFit::paper().schedule_with(inst, cancel)?, None),
                false,
            ));
        };
        if fallback_arm.is_cancelled() {
            // the portfolio deadline expired while the specialist ran —
            // its result is the incumbent; no bound needed
            return Ok(((spec, None), true));
        }
        let spec_cost = spec.cost(inst);
        // Certification uses the same bound as the report's gap (`gap ==
        // 1.0` ⇔ cost == best_lower_bound), so the two never disagree; the
        // view computes it once, and the bound phase reads it back.
        if spec_cost <= part.lower_bound() {
            // certified optimal: the race is decided, cancel the losing
            // arm rather than running FirstFit to completion
            fallback_arm.cancel();
            return Ok(((spec, Some(spec_cost)), true));
        }
        let fallback = FirstFit::paper().schedule_with(inst, &fallback_arm)?;
        let fallback_cost = fallback.cost(inst);
        if spec_cost <= fallback_cost {
            Ok(((spec, Some(spec_cost)), false))
        } else {
            Ok(((fallback, Some(fallback_cost)), false))
        }
    }
}

/// A race's schedule with its cost, and whether the fallback was skipped.
type Raced = ((Schedule, Option<i64>), bool);

#[cfg(test)]
mod tests {
    use super::*;

    fn features(pairs: &[(i64, i64)], g: u32) -> InstanceFeatures {
        InstanceFeatures::detect(&Instance::from_pairs(pairs.iter().copied(), g))
    }

    #[test]
    fn decides_clique_before_proper() {
        // pairwise overlapping AND proper: the clique algorithm's δ-bound
        // certificate wins the tie
        let f = features(&[(0, 3), (1, 4), (2, 5)], 2);
        assert!(f.clique && f.proper);
        assert_eq!(Auto::new().decide(&f), AutoChoice::Clique);
    }

    #[test]
    fn decides_proper_on_proper_non_clique() {
        let f = features(&[(0, 3), (2, 5), (4, 7), (6, 9)], 2);
        assert!(!f.clique && f.proper);
        assert_eq!(Auto::new().decide(&f), AutoChoice::Proper);
    }

    #[test]
    fn decides_bounded_on_short_jobs_with_containment() {
        // containment breaks properness; disjoint far pair breaks clique;
        // lengths in [1, 2] keep the bounded class
        let f = features(&[(0, 2), (1, 2), (100, 101)], 2);
        assert!(!f.clique && !f.proper);
        assert_eq!(Auto::new().decide(&f), AutoChoice::BoundedLength);
    }

    #[test]
    fn decides_general_on_wide_lengths() {
        let f = features(&[(0, 1), (0, 100), (200, 201)], 2);
        assert_eq!(Auto::new().decide(&f), AutoChoice::General);
        // and on point jobs (outside the bounded class)
        let f = features(&[(0, 0), (0, 9), (20, 21)], 2);
        assert_eq!(Auto::new().decide(&f), AutoChoice::General);
    }

    #[test]
    fn cutoff_is_configurable() {
        let f = features(&[(0, 1), (0, 100), (200, 201)], 2);
        let generous = Auto::new().with_max_bounded_width(1_000);
        assert_eq!(generous.decide(&f), AutoChoice::BoundedLength);
    }

    #[test]
    fn schedules_empty_instance() {
        let inst = Instance::new(vec![], 3);
        let sched = Auto::new().schedule(&inst).unwrap();
        assert_eq!(sched.machine_count(), 0);
    }

    #[test]
    fn never_costlier_than_first_fit_on_specialist_classes() {
        for pairs in [
            vec![(0i64, 4i64), (1, 5), (2, 6), (3, 7)],    // clique
            vec![(0, 3), (2, 5), (4, 7), (6, 9), (8, 11)], // proper
            vec![(0, 2), (1, 2), (10, 12), (11, 12), (20, 22)], // bounded
        ] {
            let inst = Instance::from_pairs(pairs, 2);
            let auto = Auto::new().schedule(&inst).unwrap();
            let ff = FirstFit::paper().schedule(&inst).unwrap();
            auto.validate(&inst).unwrap();
            assert!(auto.cost(&inst) <= ff.cost(&inst));
        }
    }

    #[test]
    fn optimal_specialist_short_circuits_the_fallback_arm() {
        // 4 identical jobs, g = 2: the clique specialist hits the δ-bound
        // exactly (cost 20 = lower bound), so the FirstFit arm is cancelled
        let inst = Instance::from_pairs([(0, 10); 4], 2);
        let view = InstanceView::new(&inst);
        let ((sched, cost), skipped) = Auto::new()
            .race(view.whole(), &CancelToken::never())
            .unwrap();
        assert!(skipped, "provably optimal specialist must cancel the race");
        assert_eq!(sched.cost(&inst), 20);
        assert_eq!(cost, Some(20));
    }

    #[test]
    fn undecided_race_still_runs_both_arms() {
        // no specialist certificate here: bounded-length dispatch with a
        // strictly positive gap keeps the fallback arm alive
        let inst = Instance::from_pairs([(0, 2), (1, 2), (100, 101)], 2);
        let view = InstanceView::new(&inst);
        let ((sched, cost), skipped) = Auto::new()
            .race(view.whole(), &CancelToken::never())
            .unwrap();
        sched.validate(&inst).unwrap();
        assert_eq!(cost, Some(sched.cost(&inst)));
        if sched.cost(&inst) > crate::bounds::best_lower_bound(&inst) {
            assert!(!skipped, "an undecided race must not skip the fallback");
        }
    }

    #[test]
    fn expired_token_returns_valid_schedule_from_every_dispatch() {
        let expired = CancelToken::after(std::time::Duration::ZERO);
        for pairs in [
            vec![(0i64, 4i64), (1, 5), (2, 6), (3, 7)],    // clique
            vec![(0, 3), (2, 5), (4, 7), (6, 9), (8, 11)], // proper
            vec![(0, 2), (1, 2), (10, 12), (11, 12)],      // bounded
            vec![(0, 1), (0, 100), (200, 201)],            // general
        ] {
            let inst = Instance::from_pairs(pairs, 2);
            let sched = Auto::new().schedule_with(&inst, &expired).unwrap();
            sched.validate(&inst).unwrap();
        }
    }

    #[test]
    fn choice_keys_match_registry() {
        assert_eq!(AutoChoice::Clique.solver_key(), "clique");
        assert_eq!(AutoChoice::Proper.solver_key(), "next-fit-proper");
        assert_eq!(AutoChoice::BoundedLength.solver_key(), "bounded-length");
        assert_eq!(AutoChoice::General.solver_key(), "first-fit");
    }
}
