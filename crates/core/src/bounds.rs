//! Lower bounds on the optimum (Observation 1.1).
//!
//! For any instance `J` with parallelism `g`:
//!
//! * **parallelism bound** — `OPT(J) ≥ len(J) / g`: no machine can achieve
//!   parallelism above `g`;
//! * **span bound** — `OPT(J) ≥ span(J)`: whenever any job is active, at
//!   least one machine is busy.
//!
//! With integral tick coordinates every schedule cost is an integer, so the
//! parallelism bound tightens to `⌈len(J) / g⌉`. Applying both bounds per
//! connected component and summing ([`component_lower_bound`]) dominates
//! both global bounds and is what experiments report as "LB".
//!
//! The per-component bounds aggregate over each component's sorted jobs
//! in a [`crate::view::InstanceView`] (one sort per instance) instead of
//! materializing a cloned sub-[`Instance`] per component, and the δ-bound
//! sorts its deltas in a per-thread scratch vector
//! ([`crate::pool::scratch`]) — on the serving hot path both run
//! allocation-free. A solve's bound phase and the `auto` portfolio's
//! optimality certificate read the same view, so the bound is computed
//! once per solve.

use crate::instance::{Instance, JobId};
use crate::pool::scratch;
use crate::view::InstanceView;

/// `⌈len(J) / g⌉` — the parallelism bound of Observation 1.1, rounded up
/// (schedule costs are integral in the tick model).
pub fn parallelism_bound(inst: &Instance) -> i64 {
    let len = inst.total_len();
    let g = i64::from(inst.g());
    len.div_euclid(g) + i64::from(len.rem_euclid(g) != 0)
}

/// `span(J)` — the span bound of Observation 1.1.
pub fn span_bound(inst: &Instance) -> i64 {
    inst.span()
}

/// `max(parallelism bound, span bound)` on the whole instance.
///
/// ```
/// use busytime_core::{bounds, Instance};
/// // six copies of [0, 10] at g = 2: parallelism forces ≥ 30 busy ticks
/// let inst = Instance::from_pairs([(0, 10); 6], 2);
/// assert_eq!(bounds::lower_bound(&inst), 30);
/// ```
pub fn lower_bound(inst: &Instance) -> i64 {
    parallelism_bound(inst).max(span_bound(inst))
}

/// Per-component refinement: `Σ_components max(⌈len/g⌉, span)`.
///
/// Since machines never profitably span multiple components (an optimal
/// solution splits them at no cost), the optimum separates per component and
/// the bounds add up. Always ≥ [`lower_bound`].
pub fn component_lower_bound(inst: &Instance) -> i64 {
    let g = i64::from(inst.g());
    let view = InstanceView::new(inst);
    view.components()
        .map(|c| base_bound(c.sorted_jobs(), g))
        .sum()
}

/// `max(⌈len/g⌉, span)` over one component's sorted jobs.
fn base_bound(comp: &[(i64, i64, JobId)], g: i64) -> i64 {
    let len: i64 = comp.iter().map(|&(s, e, _)| e - s).sum();
    // one connected component: its span is reach − leftmost start
    let reach = comp.iter().map(|&(_, e, _)| e).max().unwrap_or(0);
    let span = comp.first().map_or(0, |&(s, _, _)| reach - s);
    let parallelism = len.div_euclid(g) + i64::from(len.rem_euclid(g) != 0);
    parallelism.max(span)
}

/// The δ-bound for clique instances, extracted from the proof of
/// Theorem A.1 (Claim 4).
///
/// For a pairwise-overlapping family with common point `t`, let
/// `δ_j = max(t − s_j, c_j − t)` and sort `δ` non-increasingly. Any solution
/// uses machines `M_1, M_2, …` whose `i`-th largest per-machine maximum δ is
/// at least `δ_{(i−1)·g}` (the algorithm's δ-chunking minimizes those
/// maxima), and each machine's busy time is at least its maximum δ. Hence
///
/// `OPT(C) ≥ Σ_{i ≥ 0} δ_{i·g}`  (0-based indices into the sorted order).
///
/// Returns `None` when the instance is not a clique (the bound is only
/// valid there). On cliques this can strictly dominate both Observation 1.1
/// bounds — see the tests.
pub fn clique_delta_bound(inst: &Instance) -> Option<i64> {
    let t = busytime_interval::relations::common_point(inst.jobs())?;
    Some(scratch::with(|arena| {
        let deltas = &mut arena.keys;
        deltas.clear();
        deltas.extend(inst.jobs().iter().map(|iv| (t - iv.start).max(iv.end - t)));
        deltas.sort_unstable_by_key(|&d| std::cmp::Reverse(d));
        deltas.iter().step_by(inst.g() as usize).sum()
    }))
}

/// The δ-bound over one component's sorted jobs, or `None` when the
/// component is not a clique. Sorted by `(start, end)`, the latest start
/// is the last job's.
fn delta_bound(comp: &[(i64, i64, JobId)], g: u32) -> Option<i64> {
    let t = comp.last()?.0;
    let earliest_end = comp.iter().map(|&(_, e, _)| e).min()?;
    if t > earliest_end {
        return None;
    }
    Some(scratch::with(|arena| {
        let deltas = &mut arena.keys;
        deltas.clear();
        deltas.extend(comp.iter().map(|&(s, e, _)| (t - s).max(e - t)));
        deltas.sort_unstable_by_key(|&d| std::cmp::Reverse(d));
        deltas.iter().step_by(g as usize).sum()
    }))
}

/// [`best_lower_bound`] of one component given as its sorted jobs: the
/// component bound, improved by the δ-bound when the component is a
/// clique.
pub(crate) fn component_bound(comp: &[(i64, i64, JobId)], g: u32) -> i64 {
    let base = base_bound(comp, i64::from(g));
    delta_bound(comp, g).map_or(base, |d| base.max(d))
}

/// The strongest bound this crate offers: the component bound, improved by
/// the δ-bound on components that are cliques.
pub fn best_lower_bound(inst: &Instance) -> i64 {
    InstanceView::new(inst).whole().lower_bound()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_bound_rounds_up() {
        // len = 7, g = 2 → ⌈3.5⌉ = 4
        let inst = Instance::from_pairs([(0, 3), (0, 4)], 2);
        assert_eq!(parallelism_bound(&inst), 4);
        // len = 8, g = 2 → 4 exactly
        let even = Instance::from_pairs([(0, 4), (0, 4)], 2);
        assert_eq!(parallelism_bound(&even), 4);
    }

    #[test]
    fn span_bound_is_union_measure() {
        let inst = Instance::from_pairs([(0, 3), (5, 9)], 4);
        assert_eq!(span_bound(&inst), 7);
    }

    #[test]
    fn lower_bound_takes_max() {
        // many parallel long jobs: parallelism bound dominates
        let stack = Instance::from_pairs([(0, 10); 6], 2);
        assert_eq!(span_bound(&stack), 10);
        assert_eq!(parallelism_bound(&stack), 30);
        assert_eq!(lower_bound(&stack), 30);
        // disjoint jobs with huge g: span bound dominates
        let chain = Instance::from_pairs([(0, 2), (3, 5), (6, 8)], 10);
        assert_eq!(lower_bound(&chain), 6);
    }

    #[test]
    fn component_bound_dominates_global() {
        // two far-apart dense components: per-component parallelism bounds
        // add up to more than either global bound
        let inst = Instance::from_pairs(
            [
                (0, 10),
                (0, 10),
                (0, 10),
                (100, 110),
                (100, 110),
                (100, 110),
            ],
            2,
        );
        assert_eq!(lower_bound(&inst), 30); // global parallelism: 60/2
        assert_eq!(component_lower_bound(&inst), 30); // 15 + 15
                                                      // mixed: one sparse + one dense component
        let mixed = Instance::from_pairs([(0, 10), (100, 110), (100, 110), (100, 110)], 3);
        // global: span 20, parallelism ⌈40/3⌉ = 14 → 20
        assert_eq!(lower_bound(&mixed), 20);
        // per component: max(10, ⌈10/3⌉) + max(10, 10) = 20
        assert_eq!(component_lower_bound(&mixed), 20);
        assert!(component_lower_bound(&mixed) >= lower_bound(&mixed));
    }

    #[test]
    fn empty_instance_bounds() {
        let inst = Instance::new(vec![], 3);
        assert_eq!(parallelism_bound(&inst), 0);
        assert_eq!(span_bound(&inst), 0);
        assert_eq!(component_lower_bound(&inst), 0);
    }

    #[test]
    fn delta_bound_only_on_cliques() {
        let not_clique = Instance::from_pairs([(0, 1), (5, 6)], 2);
        assert_eq!(clique_delta_bound(&not_clique), None);
        let clique = Instance::from_pairs([(0, 4), (2, 6)], 2);
        assert!(clique_delta_bound(&clique).is_some());
    }

    #[test]
    fn delta_bound_dominates_on_lopsided_cliques() {
        // three long jobs + one short, g = 2: δ-bound 20 > max(span 10, ⌈31/2⌉ 16)
        let inst = Instance::from_pairs([(0, 10), (0, 10), (0, 10), (0, 1)], 2);
        assert_eq!(clique_delta_bound(&inst), Some(20));
        assert_eq!(lower_bound(&inst), 16);
        assert_eq!(best_lower_bound(&inst), 20);
        // and 20 is attainable: {10,10} + {10,1} → 10 + 10
    }

    #[test]
    fn delta_bound_on_tight_family_matches_opt() {
        // g lefts [−L,0], g rights [0,L]: δ all equal L → δ-bound = 2L = OPT
        let inst =
            Instance::from_pairs([(-50, 0), (0, 50), (-50, 0), (0, 50), (-50, 0), (0, 50)], 3);
        assert_eq!(clique_delta_bound(&inst), Some(100));
        assert_eq!(best_lower_bound(&inst), 100);
    }

    #[test]
    fn best_bound_never_below_component_bound() {
        let inst = Instance::from_pairs([(0, 10), (2, 12), (100, 110)], 2);
        assert!(best_lower_bound(&inst) >= component_lower_bound(&inst));
    }

    #[test]
    fn sweep_bounds_match_materializing_route() {
        // per-component aggregation over sorted pair slices must agree with
        // the old route that cloned a sub-Instance per component
        let cases = [
            Instance::from_pairs([(0, 10), (2, 12), (100, 110)], 2),
            Instance::from_pairs([(0, 10), (0, 10), (0, 10), (0, 1)], 2),
            Instance::from_pairs([(0, 1), (1, 2), (3, 5), (4, 6), (50, 54)], 3),
            Instance::from_pairs([(-50, 0), (0, 50), (-50, 0), (0, 50)], 3),
            Instance::from_pairs([(0, 0), (0, 0), (5, 5)], 1),
            Instance::new(vec![], 4),
            // several components, some of them cliques, ids interleaved
            Instance::from_pairs(
                [
                    (50, 60),
                    (0, 10),
                    (52, 58),
                    (2, 8),
                    (30, 31),
                    (5, 6),
                    (55, 70),
                ],
                2,
            ),
            Instance::from_pairs([(0, 3), (9, 9), (1, 4), (9, 9), (-7, -2), (2, 5)], 3),
        ];
        for inst in &cases {
            let component_ref: i64 = inst
                .components()
                .iter()
                .map(|(sub, _)| lower_bound(sub))
                .sum();
            let best_ref: i64 = inst
                .components()
                .iter()
                .map(|(sub, _)| {
                    let base = lower_bound(sub);
                    clique_delta_bound(sub).map_or(base, |d| base.max(d))
                })
                .sum();
            assert_eq!(component_lower_bound(inst), component_ref, "{inst:?}");
            assert_eq!(best_lower_bound(inst), best_ref, "{inst:?}");
        }
    }

    #[test]
    fn g1_bounds_meet_at_len() {
        // at g = 1 every feasible schedule costs exactly len(J)
        let inst = Instance::from_pairs([(0, 5), (2, 8), (9, 12)], 1);
        assert_eq!(parallelism_bound(&inst), inst.total_len());
        assert!(lower_bound(&inst) >= inst.total_len());
    }
}
