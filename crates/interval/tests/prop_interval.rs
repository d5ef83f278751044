//! Property-based tests for the interval substrate: the algebra that the
//! paper's Definitions 1.1–1.2 and Observation 1.1 rely on.

use busytime_interval::{span, sweep, total_len, Interval, IntervalSet, OverlapProfile};
use proptest::prelude::*;

fn arb_interval() -> impl Strategy<Value = Interval> {
    (-1_000i64..1_000, 0i64..200).prop_map(|(s, l)| Interval::with_len(s, l))
}

fn arb_family(max_n: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(arb_interval(), 0..max_n)
}

/// The capacity gates answer exactly as gating on `max_in` directly, for
/// every probe in `probes`, `g` in 1..=4 and `w` in 1..=g.
fn gates_match_max_in(profile: &OverlapProfile, probes: &[Interval]) -> TestCaseResult {
    for probe in probes {
        let m = profile.max_in(probe);
        for g in 1..=4 {
            prop_assert_eq!(profile.can_add(probe, g), m < g);
            for w in 1..=g {
                prop_assert_eq!(profile.can_add_weighted(probe, w, g), m + w <= g);
            }
        }
    }
    Ok(())
}

proptest! {
    /// Definition 1.2: span(I) ≤ len(I) always.
    #[test]
    fn span_at_most_len(family in arb_family(40)) {
        prop_assert!(span(&family) <= total_len(&family));
    }

    /// span is monotone under adding intervals.
    #[test]
    fn span_monotone(family in arb_family(40), extra in arb_interval()) {
        let before = span(&family);
        let mut bigger = family.clone();
        bigger.push(extra);
        prop_assert!(span(&bigger) >= before);
    }

    /// span never exceeds the hull length and reaches it for connected families.
    #[test]
    fn span_vs_hull(family in arb_family(40)) {
        if let Some(h) = busytime_interval::hull(&family) {
            prop_assert!(span(&family) <= h.len());
            if sweep::connected_components(&family).len() == 1 {
                prop_assert_eq!(span(&family), h.len());
            }
        }
    }

    /// IntervalSet invariants: sorted, pairwise non-touching components.
    #[test]
    fn interval_set_normalized(family in arb_family(40)) {
        let set = IntervalSet::from_intervals(family.iter().copied());
        let comps = set.components();
        for w in comps.windows(2) {
            prop_assert!(w[0].end < w[1].start, "components must not touch: {:?}", w);
        }
        // every input interval is covered
        for ivl in &family {
            prop_assert!(set.contains_interval(ivl));
        }
    }

    /// Incremental insert builds the same set as batch construction.
    #[test]
    fn insert_matches_batch(family in arb_family(40)) {
        let batch = IntervalSet::from_intervals(family.iter().copied());
        let mut inc = IntervalSet::new();
        for ivl in &family {
            inc.insert(*ivl);
        }
        prop_assert_eq!(batch, inc);
    }

    /// The dynamic profile agrees with the static sweep on max overlap.
    #[test]
    fn profile_matches_sweep(family in arb_family(30)) {
        let mut profile = OverlapProfile::new();
        for ivl in &family {
            profile.add(ivl);
        }
        let static_max = sweep::max_overlap(&family);
        if let Some(h) = busytime_interval::hull(&family) {
            prop_assert_eq!(profile.max_in(&h) as usize, static_max);
        } else {
            prop_assert_eq!(static_max, 0);
        }
    }

    /// The profile's busy measure equals the span of the added family.
    #[test]
    fn profile_busy_measure_is_span(family in arb_family(30)) {
        let mut profile = OverlapProfile::new();
        for ivl in &family {
            profile.add(ivl);
        }
        prop_assert_eq!(profile.busy_measure(), span(&family));
    }

    /// Adding then removing every interval restores the empty profile, and
    /// the capacity gates agree with `max_in` after every step.
    #[test]
    fn profile_add_remove_roundtrip(family in arb_family(30)) {
        let mut profile = OverlapProfile::new();
        for ivl in &family {
            profile.add(ivl);
            gates_match_max_in(&profile, &family)?;
        }
        for ivl in &family {
            profile.remove(ivl);
            gates_match_max_in(&profile, &family)?;
        }
        prop_assert!(profile.is_empty());
        prop_assert_eq!(profile.busy_measure(), 0);
        if let Some(h) = busytime_interval::hull(&family) {
            prop_assert_eq!(profile.max_in(&h), 0);
        }
    }

    /// count_at agrees with a naive per-point count.
    #[test]
    fn profile_count_at_naive(family in arb_family(20), t in -1_200i64..1_200) {
        let mut profile = OverlapProfile::new();
        for ivl in &family {
            profile.add(ivl);
        }
        let naive = family.iter().filter(|ivl| ivl.contains_time(t)).count() as u32;
        prop_assert_eq!(profile.count_at(t), naive);
    }

    /// Connected components partition the index set and are pairwise
    /// non-overlapping across components.
    #[test]
    fn components_partition(family in arb_family(30)) {
        let comps = sweep::connected_components(&family);
        let mut seen = vec![false; family.len()];
        for comp in &comps {
            for &i in comp {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
        // intervals in different components never overlap
        for (a, comp_a) in comps.iter().enumerate() {
            for comp_b in comps.iter().skip(a + 1) {
                for &i in comp_a {
                    for &j in comp_b {
                        prop_assert!(!family[i].overlaps(&family[j]));
                    }
                }
            }
        }
    }

    /// Pairwise overlap implies a common point (Helly property used by the
    /// clique algorithm of the Appendix).
    #[test]
    fn helly_property(family in arb_family(12)) {
        let pairwise = family
            .iter()
            .enumerate()
            .all(|(i, a)| family.iter().skip(i + 1).all(|b| a.overlaps(b)));
        if pairwise && !family.is_empty() {
            prop_assert!(busytime_interval::relations::common_point(&family).is_some());
        }
    }
}
