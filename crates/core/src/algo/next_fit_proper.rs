//! The Greedy (NextFit) algorithm for proper interval families
//! (Section 3.1): a 2-approximation when no job is properly contained in
//! another.
//!
//! 1. Sort the jobs by start time (for proper families this equals the order
//!    by completion time).
//! 2. Scan in order, assigning each job to the *currently filled* machine
//!    unless doing so would create a `(g+1)`-clique there, in which case a
//!    new machine is opened (and becomes the currently filled one).
//!
//! Theorem 3.1 proves `ALG ≤ OPT + span(J) ≤ 2·OPT` on proper families via
//! two claims checkable on any run (see [`crate::verify`]): at every time
//! `t`, `N_t ≥ (M^A_t − 2)g + 2` and hence `M^O_t ≥ M^A_t − 1`.
//!
//! On *non-proper* input the algorithm still emits a feasible schedule (the
//! capacity gate is exact, not clique-counting), but the 2-approximation
//! guarantee does not apply; [`NextFitProper::strict`] makes such input an
//! error instead.

use std::borrow::Cow;

use busytime_interval::OverlapProfile;

use crate::algo::{Scheduler, SchedulerError};
use crate::cancel::CancelToken;
use crate::instance::Instance;
use crate::schedule::Schedule;

/// The Greedy/NextFit scheduler of Section 3.1.
#[derive(Clone, Copy, Debug, Default)]
pub struct NextFitProper {
    /// When true, refuse instances that are not proper interval families
    /// instead of scheduling them heuristically.
    pub require_proper: bool,
}

impl NextFitProper {
    /// Permissive configuration: schedules any instance (guarantee only on
    /// proper families).
    pub fn new() -> Self {
        NextFitProper {
            require_proper: false,
        }
    }

    /// Strict configuration: errors on non-proper instances.
    pub fn strict() -> Self {
        NextFitProper {
            require_proper: true,
        }
    }
}

impl Scheduler for NextFitProper {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("NextFitProper")
    }

    fn schedule_with(
        &self,
        inst: &Instance,
        _cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        if self.require_proper && !inst.is_proper() {
            return Err(SchedulerError::UnsupportedInstance {
                scheduler: self.name().into_owned(),
                reason: String::from("instance is not a proper interval family"),
            });
        }
        let g = inst.g();
        let mut order: Vec<usize> = (0..inst.len()).collect();
        order.sort_by_key(|&i| (inst.job(i).start, inst.job(i).end));
        let mut raw = vec![0usize; inst.len()];
        // only the currently filled machine is ever tested again
        let mut current = OverlapProfile::new();
        let mut machine = 0usize;
        let mut opened = false;
        for id in order {
            let iv = inst.job(id);
            if opened && !current.can_add(&iv, g) {
                machine += 1;
                current = OverlapProfile::new();
            }
            current.add(&iv);
            raw[id] = machine;
            opened = true;
        }
        if !opened {
            return Ok(Schedule::from_assignment(Vec::new()));
        }
        Ok(Schedule::from_assignment(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;

    #[test]
    fn staircase_fills_machines_in_waves() {
        // proper staircase, g = 2: jobs 0,1 on machine 0; job 2 overlaps both
        // at t=2 → new machine
        let inst = Instance::from_pairs([(0, 2), (1, 3), (2, 4)], 2);
        assert!(inst.is_proper());
        let sched = NextFitProper::new().schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
        assert_eq!(sched.machine_of(0), sched.machine_of(1));
        assert_ne!(sched.machine_of(0), sched.machine_of(2));
    }

    #[test]
    fn disjoint_jobs_stay_on_one_machine() {
        let inst = Instance::from_pairs([(0, 1), (2, 3), (4, 5)], 1);
        let sched = NextFitProper::new().schedule(&inst).unwrap();
        assert_eq!(sched.machine_count(), 1);
        assert_eq!(sched.cost(&inst), 3);
    }

    #[test]
    fn two_approx_against_lower_bound_on_dense_proper() {
        // 12 unit jobs sliding by 1, g = 3
        let inst = Instance::from_pairs((0..12).map(|i| (i, i + 4)), 3);
        assert!(inst.is_proper());
        let sched = NextFitProper::new().schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
        assert!(sched.cost(&inst) <= 2 * bounds::lower_bound(&inst));
    }

    #[test]
    fn strict_rejects_nested() {
        let inst = Instance::from_pairs([(0, 10), (2, 4)], 2);
        let err = NextFitProper::strict().schedule(&inst).unwrap_err();
        assert!(matches!(err, SchedulerError::UnsupportedInstance { .. }));
        // permissive still yields a feasible schedule
        let sched = NextFitProper::new().schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 2);
        let sched = NextFitProper::new().schedule(&inst).unwrap();
        assert_eq!(sched.machine_count(), 0);
    }

    #[test]
    fn never_looks_back_at_earlier_machines() {
        // NextFit semantics: once machine 0 is left, later fitting jobs do
        // NOT return to it (unlike FirstFit)
        let inst = Instance::from_pairs([(0, 2), (1, 3), (2, 4), (10, 12)], 2);
        let sched = NextFitProper::new().schedule(&inst).unwrap();
        // job 3 is far right and would fit machine 0, but lands on the
        // current machine (machine of job 2)
        assert_eq!(sched.machine_of(3), sched.machine_of(2));
    }

    #[test]
    fn feasible_on_non_proper_input() {
        let inst = Instance::from_pairs([(0, 20), (1, 2), (3, 4), (5, 6), (2, 18)], 2);
        let sched = NextFitProper::new().schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
    }
}
