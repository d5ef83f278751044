//! [`OverlapProfile`]: an incrementally maintained step function of
//! active-interval counts with range-max queries.
//!
//! A machine in the busy-time scheduling problem may run at most `g` jobs at
//! any instant. FirstFit must therefore answer, per candidate machine,
//! *"would adding job `J` push the count above `g` anywhere on `J`?"* —
//! a range-max query over the machine's current count profile, followed by a
//! range-increment when the job is placed. This type supports both in
//! `O(log n + k)` where `k` is the number of profile steps inside the range,
//! and answers the feasibility question in `O(1)` whenever the machine is
//! clearly below `g` everywhere or provably saturated where `J` lies.

use crate::interval::Interval;

/// Dynamic count profile over doubled coordinates (see
/// [`Interval::dkey_lo`]): a step function `count: ℝ → ℕ` that is zero
/// outside the tracked region.
///
/// Representation: a sorted vector of `(key, count)` steps; `(k, c)` means
/// the count is `c` on `[k, k')` where `k'` is the next key (and the final
/// entry is always zero). Counts before the first key are zero. The flat
/// vector keeps the scheduler's inner-loop range-max a binary search plus a
/// contiguous scan, and mutation is an in-place splice — no per-node
/// allocation under add/remove churn, unlike the `BTreeMap` representation
/// this replaced (kept verbatim as the comparator in `bench_interval`).
///
/// Two summaries, each kept up to date in `O(1)` per update, let
/// [`OverlapProfile::can_add`] and [`OverlapProfile::can_add_weighted`]
/// answer before the range scan:
///
/// * **peak** — an upper bound on the count anywhere. Adds keep it exact
///   (the maximum of the old peak and the highest count the add creates);
///   removes leave it as a bound. When `peak + w ≤ g` the job fits.
/// * **saturated-run witness** `(lo, hi, v)` — a doubled-coordinate range
///   `[lo, hi)` on which every count is at least `v`. An add whose highest
///   run reaches `v` makes that run the witness; a remove that overlaps
///   `[lo, hi)` lowers `v` by one. When `v + w > g` and the job meets
///   `[lo, hi)`, it does not fit.
///
/// Every other query falls through to [`OverlapProfile::max_in`], so the
/// answers are exactly those of gating with `max_in(iv) + w ≤ g`. On a
/// saturated machine (FirstFit on a clique, where every earlier machine is
/// full at the common point) the test costs two compares instead of two
/// binary searches and a scan.
///
/// ```
/// use busytime_interval::{Interval, OverlapProfile};
/// let mut machine = OverlapProfile::new();
/// machine.add(&Interval::new(0, 10));
/// machine.add(&Interval::new(5, 15));
/// // a third job over the doubly-covered region busts parallelism g = 2…
/// assert!(!machine.can_add(&Interval::new(7, 8), 2));
/// // …but fits where only one job is active
/// assert!(machine.can_add(&Interval::new(11, 20), 2));
/// assert_eq!(machine.busy_measure(), 15);
/// ```
#[derive(Clone, Debug, Default)]
pub struct OverlapProfile {
    /// Steps sorted by strictly increasing key.
    steps: Vec<(i64, u32)>,
    /// Number of intervals currently contributing to the profile.
    len: usize,
    /// Upper bound on every count (exact until the first remove).
    peak: u32,
    /// `(lo, hi, v)`: every count on the doubled range `[lo, hi)` is ≥ `v`.
    witness: (i64, i64, u32),
}

impl OverlapProfile {
    /// An empty profile (count 0 everywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of intervals added minus removed.
    pub fn interval_count(&self) -> usize {
        self.len
    }

    /// True iff the profile is identically zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of internal steps (diagnostic; proportional to memory).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Index of the first step with key strictly greater than `dkey`.
    fn upper_bound(&self, dkey: i64) -> usize {
        self.steps.partition_point(|&(k, _)| k <= dkey)
    }

    /// Count at doubled coordinate `dkey`.
    fn value_at(&self, dkey: i64) -> u32 {
        match self.upper_bound(dkey) {
            0 => 0,
            idx => self.steps[idx - 1].1,
        }
    }

    /// Count of active intervals at time `t` (a real tick).
    pub fn count_at(&self, t: i64) -> u32 {
        self.value_at(2 * t)
    }

    /// Maximum count over the closed interval `iv`: one binary search for
    /// the entry step, then a scan that stops at the first step at or past
    /// the interval's end (scheduler ranges cover a few steps, where that
    /// scan is cheaper than a second binary search for the end).
    pub fn max_in(&self, iv: &Interval) -> u32 {
        let hi = iv.dkey_hi();
        let from = self.upper_bound(iv.dkey_lo());
        let entry = match from {
            0 => 0,
            idx => self.steps[idx - 1].1,
        };
        self.steps[from..]
            .iter()
            .take_while(|&&(k, _)| k < hi)
            .map(|&(_, c)| c)
            .fold(entry, u32::max)
    }

    /// True iff after adding `iv` every point of `iv` would have count ≤ `g`;
    /// i.e. the current max over `iv` is at most `g − 1`.
    #[inline]
    pub fn can_add(&self, iv: &Interval, g: u32) -> bool {
        debug_assert!(g >= 1);
        self.can_add_weighted(iv, 1, g)
    }

    /// Ensures a step boundary exists exactly at `dkey`; returns its index.
    fn ensure_boundary(&mut self, dkey: i64) -> usize {
        let idx = self.upper_bound(dkey);
        if idx > 0 && self.steps[idx - 1].0 == dkey {
            return idx - 1;
        }
        let value = if idx == 0 { 0 } else { self.steps[idx - 1].1 };
        self.steps.insert(idx, (dkey, value));
        idx
    }

    /// Adds a closed interval: count += 1 on `iv`.
    pub fn add(&mut self, iv: &Interval) {
        self.add_weighted(iv, 1);
    }

    /// Adds a closed interval with weight `w`: count += w on `iv`. Used by
    /// the capacitated-demand extension where a job consumes `w ≤ g` units
    /// of a machine's parallelism.
    pub fn add_weighted(&mut self, iv: &Interval, w: u32) {
        let lo_idx = self.ensure_boundary(iv.dkey_lo());
        let hi_idx = self.ensure_boundary(iv.dkey_hi());
        // the highest run this add creates: its count and the step indices
        // (relative to `lo_idx`) of its first maximal occurrence
        let (mut top, mut run_lo, mut run_hi) = (0, 0, 0);
        for (i, step) in self.steps[lo_idx..hi_idx].iter_mut().enumerate() {
            step.1 = step.1.saturating_add(w);
            if step.1 > top {
                (top, run_lo, run_hi) = (step.1, i, i + 1);
            } else if step.1 == top && run_hi == i {
                run_hi = i + 1;
            }
        }
        self.peak = self.peak.max(top);
        if top >= self.witness.2 {
            self.witness = (
                self.steps[lo_idx + run_lo].0,
                self.steps[lo_idx + run_hi].0,
                top,
            );
        }
        self.len += 1;
    }

    /// True iff adding `iv` with weight `w` keeps the count ≤ `g` everywhere
    /// on `iv` — exactly `max_in(iv) + w ≤ g`, answered from the peak bound
    /// or the saturated-run witness whenever either decides it.
    #[inline]
    pub fn can_add_weighted(&self, iv: &Interval, w: u32, g: u32) -> bool {
        if self.peak.saturating_add(w) <= g {
            return true;
        }
        let (lo, hi, v) = self.witness;
        if v.saturating_add(w) > g && iv.dkey_lo() < hi && lo < iv.dkey_hi() {
            return false;
        }
        self.max_in(iv).saturating_add(w) <= g
    }

    /// Removes a previously added interval: count −= 1 on `iv`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the interval was not previously added —
    /// i.e. if any count in the range is already zero.
    pub fn remove(&mut self, iv: &Interval) {
        let lo_idx = self.ensure_boundary(iv.dkey_lo());
        let hi_idx = self.ensure_boundary(iv.dkey_hi());
        for step in &mut self.steps[lo_idx..hi_idx] {
            debug_assert!(step.1 > 0, "removing an interval that was never added");
            step.1 = step.1.saturating_sub(1);
        }
        self.len = self.len.saturating_sub(1);
        let (lo, hi, v) = &mut self.witness;
        if iv.dkey_lo() < *hi && *lo < iv.dkey_hi() {
            *v = v.saturating_sub(1);
        }
        self.compact(lo_idx, hi_idx);
    }

    /// Drops redundant boundaries in the index window `[from, to]` (equal
    /// consecutive values and leading zeros) with one in-place shift, to
    /// bound memory under churn.
    fn compact(&mut self, from: usize, to: usize) {
        let to = to.min(self.steps.len().saturating_sub(1));
        let mut write = from;
        for read in from..=to {
            let prev = if write == 0 {
                0
            } else {
                self.steps[write - 1].1
            };
            if self.steps[read].1 != prev {
                self.steps[write] = self.steps[read];
                write += 1;
            }
        }
        if write <= to {
            self.steps.drain(write..=to);
        }
    }

    /// Total measure (in ticks) where the count is at least one — the
    /// machine's *busy time* if this profile tracks its jobs. Computed from
    /// doubled coordinates: a doubled cell `[2t, 2t+1)` contributes measure 0
    /// (it is the point `t`), while `[2t+1, 2t+2)` contributes 0 too — only
    /// whole-tick spans count, so we convert by halving rounded down.
    pub fn busy_measure(&self) -> i64 {
        let mut total = 0i64;
        for pair in self.steps.windows(2) {
            if pair[0].1 > 0 {
                total += dkey_range_measure(pair[0].0, pair[1].0);
            }
        }
        total
    }
}

/// Measure (in ticks) of the doubled half-open range `[lo, hi)`.
///
/// Doubled coordinates place the point `t` at cell `2t` and the open gap
/// `(t, t+1)` at cell `2t + 1`; each gap cell has measure 1, each point cell
/// measure 0. Hence the measure is the number of odd cells in `[lo, hi)`.
fn dkey_range_measure(lo: i64, hi: i64) -> i64 {
    debug_assert!(lo <= hi);
    // f(x) = #odd integers below x (up to a constant); works for negatives
    // because div_euclid floors: f(hi) − f(lo) = #odd integers in [lo, hi).
    let f = |x: i64| x.div_euclid(2);
    f(hi) - f(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: i64, c: i64) -> Interval {
        Interval::new(s, c)
    }

    #[test]
    fn empty_profile() {
        let p = OverlapProfile::new();
        assert!(p.is_empty());
        assert_eq!(p.count_at(0), 0);
        assert_eq!(p.max_in(&iv(-100, 100)), 0);
        assert!(p.can_add(&iv(0, 1), 1));
    }

    #[test]
    fn single_interval_counts() {
        let mut p = OverlapProfile::new();
        p.add(&iv(2, 5));
        assert_eq!(p.count_at(1), 0);
        assert_eq!(p.count_at(2), 1);
        assert_eq!(p.count_at(5), 1);
        assert_eq!(p.count_at(6), 0);
        assert_eq!(p.max_in(&iv(0, 10)), 1);
        assert_eq!(p.interval_count(), 1);
    }

    #[test]
    fn endpoint_touch_counts_two() {
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 1));
        p.add(&iv(1, 2));
        assert_eq!(p.count_at(1), 2);
        assert_eq!(p.max_in(&iv(0, 2)), 2);
        assert_eq!(p.max_in(&iv(0, 0)), 1);
        // can_add with g = 2 must fail anywhere covering t = 1
        assert!(!p.can_add(&iv(1, 1), 2));
        assert!(p.can_add(&iv(2, 3), 2));
    }

    #[test]
    fn capacity_gate_matches_paper_semantics() {
        // g = 2: a machine with two active jobs at some t of J rejects J
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 10));
        assert!(p.can_add(&iv(5, 15), 2));
        p.add(&iv(5, 15));
        assert!(!p.can_add(&iv(7, 8), 2)); // inside both
        assert!(p.can_add(&iv(11, 20), 2)); // overlaps only one
    }

    #[test]
    fn add_then_remove_restores() {
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 4));
        p.add(&iv(2, 6));
        p.remove(&iv(0, 4));
        assert_eq!(p.count_at(1), 0);
        assert_eq!(p.count_at(3), 1);
        p.remove(&iv(2, 6));
        assert!(p.is_empty());
        assert_eq!(p.max_in(&iv(-10, 10)), 0);
        // after compaction the vector should not grow unboundedly
        assert_eq!(p.step_count(), 0);
    }

    #[test]
    fn busy_measure_union_semantics() {
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 3));
        p.add(&iv(1, 4)); // union [0,4] measure 4
        assert_eq!(p.busy_measure(), 4);
        p.add(&iv(10, 12)); // + measure 2
        assert_eq!(p.busy_measure(), 6);
        p.remove(&iv(1, 4));
        assert_eq!(p.busy_measure(), 5);
    }

    #[test]
    fn busy_measure_touching() {
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 1));
        p.add(&iv(1, 2));
        assert_eq!(p.busy_measure(), 2);
    }

    #[test]
    fn busy_measure_point_job_is_zero() {
        let mut p = OverlapProfile::new();
        p.add(&iv(5, 5));
        assert_eq!(p.busy_measure(), 0);
        assert_eq!(p.count_at(5), 1);
    }

    #[test]
    fn max_in_partial_ranges() {
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 2));
        p.add(&iv(1, 3));
        p.add(&iv(2, 4));
        assert_eq!(p.max_in(&iv(0, 0)), 1);
        assert_eq!(p.max_in(&iv(1, 1)), 2);
        assert_eq!(p.max_in(&iv(2, 2)), 3);
        assert_eq!(p.max_in(&iv(3, 4)), 2);
        assert_eq!(p.max_in(&iv(4, 4)), 1);
        assert_eq!(p.max_in(&iv(5, 9)), 0);
    }

    #[test]
    fn interleaved_add_remove_stress() {
        let mut p = OverlapProfile::new();
        let jobs: Vec<Interval> = (0..50).map(|i| iv(i, i + 10)).collect();
        for j in &jobs {
            p.add(j);
        }
        assert_eq!(p.max_in(&iv(0, 60)), 11); // closed intervals: 11 share a point
        for j in jobs.iter().step_by(2) {
            p.remove(j);
        }
        assert_eq!(p.interval_count(), 25);
        // counts halve roughly; max with every second interval of length 10 is 6
        assert_eq!(p.max_in(&iv(0, 60)), 6);
    }

    /// The `BTreeMap`-backed reference implementation the flat vector
    /// replaced; the stress test below checks behavioural equality under
    /// random churn.
    #[derive(Default)]
    struct MapProfile {
        steps: std::collections::BTreeMap<i64, u32>,
    }

    impl MapProfile {
        fn value_at(&self, dkey: i64) -> u32 {
            self.steps.range(..=dkey).next_back().map_or(0, |(_, &c)| c)
        }

        fn ensure_boundary(&mut self, dkey: i64) {
            if !self.steps.contains_key(&dkey) {
                let v = self.value_at(dkey);
                self.steps.insert(dkey, v);
            }
        }

        fn add(&mut self, iv: &Interval) {
            self.ensure_boundary(iv.dkey_lo());
            self.ensure_boundary(iv.dkey_hi());
            for (_, c) in self.steps.range_mut(iv.dkey_lo()..iv.dkey_hi()) {
                *c += 1;
            }
        }

        fn remove(&mut self, iv: &Interval) {
            self.ensure_boundary(iv.dkey_lo());
            self.ensure_boundary(iv.dkey_hi());
            for (_, c) in self.steps.range_mut(iv.dkey_lo()..iv.dkey_hi()) {
                *c = c.saturating_sub(1);
            }
            let keys: Vec<i64> = self
                .steps
                .range(iv.dkey_lo()..=iv.dkey_hi())
                .map(|(&k, _)| k)
                .collect();
            for k in keys {
                let v = self.steps[&k];
                let prev = self.steps.range(..k).next_back().map_or(0, |(_, &c)| c);
                if prev == v {
                    self.steps.remove(&k);
                }
            }
        }

        fn max_in(&self, iv: &Interval) -> u32 {
            let entry = self.value_at(iv.dkey_lo());
            self.steps
                .range(iv.dkey_lo() + 1..iv.dkey_hi())
                .map(|(_, &c)| c)
                .fold(entry, u32::max)
        }
    }

    /// Both capacity gates answer exactly as gating on `max_in` does, for
    /// `g` in 1..=4 and around the probe's and the profile's maxima (the
    /// peak bound goes stale after removes; the witness is lowered by them).
    fn assert_gates_match_max_in(p: &OverlapProfile, probe: &Interval) {
        let m = p.max_in(probe);
        let peak = p.max_in(&iv(-1_000, 1_000));
        for g in [1, 2, 3, 4, m.max(1), m + 1, peak.max(1), peak + 1] {
            assert_eq!(p.can_add(probe, g), m < g, "g = {g}, probe {probe:?}");
            for w in 1..=g {
                assert_eq!(p.can_add_weighted(probe, w, g), m + w <= g);
            }
        }
    }

    #[test]
    fn vec_profile_matches_btreemap_reference_under_churn() {
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut vec_p = OverlapProfile::new();
        let mut map_p = MapProfile::default();
        let mut live: Vec<Interval> = Vec::new();
        for _ in 0..500 {
            let s = (next() % 40) as i64 - 20;
            let probe = iv(s, s + (next() % 12) as i64);
            if !live.is_empty() && next() % 3 == 0 {
                let victim = live.swap_remove((next() % live.len() as u64) as usize);
                vec_p.remove(&victim);
                map_p.remove(&victim);
            } else {
                vec_p.add(&probe);
                map_p.add(&probe);
                live.push(probe);
            }
            assert_eq!(vec_p.max_in(&probe), map_p.max_in(&probe));
            assert_gates_match_max_in(&vec_p, &probe);
            assert_eq!(vec_p.count_at(s), map_p.value_at(2 * s));
            assert_eq!(vec_p.interval_count(), live.len());
        }
    }
}
