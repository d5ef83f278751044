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

/// 150–220 intervals over a range of 10 000 ticks: hundreds of distinct
/// endpoints, so a profile of all of them holds more than the 256 steps of
/// a flat vector.
fn arb_wide_family() -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(
        (-5_000i64..5_000, 0i64..300).prop_map(|(s, l)| Interval::with_len(s, l)),
        150..220,
    )
}

/// Maximum count over `probe`, by a static sweep of `live` clipped to it.
fn swept_max_in(live: &[Interval], probe: &Interval) -> u32 {
    let clipped: Vec<Interval> = live
        .iter()
        .filter_map(|ivl| ivl.intersection(probe))
        .collect();
    sweep::max_overlap(&clipped) as u32
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

proptest! {
    // every case runs a few hundred profile operations, each checked
    // against a static sweep
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adding then removing every interval restores the empty profile, and
    /// the capacity gates agree with `max_in` after every step. The family
    /// spreads 150–220 intervals over a wide range, so the profile outgrows
    /// one flat vector (256 steps) and splits into blocks; the removes run in
    /// a shuffled order, crossing block boundaries and merging blocks again,
    /// and `max_in` is checked against a static sweep of the live intervals
    /// throughout.
    #[test]
    fn profile_add_remove_roundtrip(family in arb_wide_family(), seed in 0u64..1_000) {
        let mut profile = OverlapProfile::new();
        let probes: Vec<Interval> = family.iter().step_by(24).copied().collect();
        for (i, ivl) in family.iter().enumerate() {
            profile.add(ivl);
            gates_match_max_in(&profile, &probes)?;
            prop_assert_eq!(profile.max_in(ivl), swept_max_in(&family[..=i], ivl));
        }
        for probe in &probes {
            let wide = Interval::new(probe.start - 700, probe.end + 700);
            prop_assert_eq!(profile.max_in(&wide), swept_max_in(&family, &wide));
        }
        prop_assert!(profile.step_count() > 256, "the profile never left its flat vector");
        let mut live = family.clone();
        let mut state = seed;
        while !live.is_empty() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let victim = live.swap_remove((state >> 33) as usize % live.len());
            profile.remove(&victim);
            gates_match_max_in(&profile, &probes)?;
            prop_assert_eq!(profile.max_in(&victim), swept_max_in(&live, &victim));
            let wide = Interval::new(victim.start - 700, victim.end + 700);
            prop_assert_eq!(profile.max_in(&wide), swept_max_in(&live, &wide));
            prop_assert_eq!(profile.busy_measure(), span(&live));
            let t = victim.start;
            let naive = live.iter().filter(|ivl| ivl.contains_time(t)).count() as u32;
            prop_assert_eq!(profile.count_at(t), naive);
        }
        prop_assert!(profile.is_empty());
        prop_assert_eq!(profile.busy_measure(), 0);
        prop_assert_eq!(profile.step_count(), 0);
        if let Some(h) = busytime_interval::hull(&family) {
            prop_assert_eq!(profile.max_in(&h), 0);
        }
    }
}
