//! Fused sweep statistics over a whole interval family.
//!
//! [`FamilyScan::sorted`] computes every aggregate the solve pipeline's
//! feature detector needs — clique number, span, component count, the
//! proper/clique class predicates and the length statistics — in linear
//! passes over `(start, end)` pairs the caller sorted once, plus one sort
//! of end keys, instead of the six independent sorting passes the naive
//! per-predicate route takes (`is_proper`, `is_clique`,
//! `connected_components`, `max_overlap`, `span`, and the length scans
//! each re-sorted or re-scanned the family). `busytime_core`'s instance
//! view owns that one sort and runs the sweep per connected component.

/// Aggregate statistics of an interval family, computed in one fused
/// sweep by [`FamilyScan::sorted`].
///
/// Field semantics match the naive single-purpose routines exactly:
/// `max_overlap` is [`crate::sweep::max_overlap`], `span` is
/// [`crate::span`], `components` is the length of
/// [`crate::sweep::connected_components`], `proper` is
/// [`crate::relations::is_proper`] and `clique` is
/// [`crate::relations::is_clique`] (vacuously `true` when empty).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FamilyScan {
    /// Number of intervals scanned.
    pub len: usize,
    /// Maximum number of simultaneously active intervals (clique number ω).
    pub max_overlap: usize,
    /// Measure of the union of the family.
    pub span: i64,
    /// Number of connected components of the interval graph.
    pub components: usize,
    /// True iff no interval is properly contained in another.
    pub proper: bool,
    /// True iff all intervals share a common point (vacuously for empty).
    pub clique: bool,
    /// Minimum interval length (0 when empty).
    pub min_len: i64,
    /// Maximum interval length (0 when empty).
    pub max_len: i64,
    /// Summed interval lengths.
    pub total_len: i64,
}

impl FamilyScan {
    /// The sweep over a family given as `(start, end)` pairs **sorted
    /// ascending**: one end-key sort in `ends` (cleared first) for the
    /// clique number, and linear passes for the rest.
    pub fn sorted<I>(pairs: I, ends: &mut Vec<i64>) -> FamilyScan
    where
        I: Iterator<Item = (i64, i64)> + Clone,
    {
        // Linear pass: length stats, the Helly clique test (`max start ≤
        // min end`), properness, and components and span, which share one
        // reach sweep: a gap in coverage is exactly a component boundary
        // (closed intervals touching at a point both connect and merge
        // measure-contiguously).
        let mut scan = FamilyScan {
            len: 0,
            max_overlap: 0,
            span: 0,
            components: 0,
            proper: true,
            clique: true,
            min_len: i64::MAX,
            max_len: i64::MIN,
            total_len: 0,
        };
        let mut max_start = i64::MIN;
        let mut min_end = i64::MAX;
        let (mut run_start, mut reach) = (0i64, 0i64);
        let mut prev: Option<(i64, i64)> = None;
        ends.clear();
        for (s, e) in pairs.clone() {
            let len = e - s;
            scan.len += 1;
            scan.min_len = scan.min_len.min(len);
            scan.max_len = scan.max_len.max(len);
            scan.total_len += len;
            max_start = max_start.max(s);
            min_end = min_end.min(e);
            // sorted by (start, end), distinct neighbours must be strictly
            // increasing in both coordinates
            if let Some(p) = prev {
                scan.proper &= p == (s, e) || (p.0 < s && p.1 < e);
            }
            prev = Some((s, e));
            if scan.components == 0 || s > reach {
                if scan.components > 0 {
                    scan.span += reach - run_start;
                }
                scan.components += 1;
                (run_start, reach) = (s, e);
            } else {
                reach = reach.max(e);
            }
            ends.push(2 * e + 1);
        }
        if scan.len == 0 {
            (scan.min_len, scan.max_len) = (0, 0);
            return scan;
        }
        scan.span += reach - run_start;
        scan.clique = max_start <= min_end;
        ends.sort_unstable();

        // Clique number by two pointers: active count at the i-th start
        // (ascending) is (i + 1) − #{ends below it}; the maximum over all
        // starts is ω. Start keys are even, end keys odd (the doubled keys
        // of `Interval::dkey_lo`/`dkey_hi`), so strict comparison is exact.
        let mut closed = 0usize;
        for (i, (s, _)) in pairs.enumerate() {
            while closed < ends.len() && ends[closed] < 2 * s {
                closed += 1;
            }
            scan.max_overlap = scan.max_overlap.max(i + 1 - closed);
        }
        scan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::{relations, span, sweep, total_len};

    fn iv(s: i64, c: i64) -> Interval {
        Interval::new(s, c)
    }

    /// The fused sweep over a freshly sorted copy of `intervals`.
    fn scan(intervals: &[Interval]) -> FamilyScan {
        let mut pairs: Vec<(i64, i64)> = intervals.iter().map(|iv| (iv.start, iv.end)).collect();
        pairs.sort_unstable();
        FamilyScan::sorted(pairs.into_iter(), &mut Vec::new())
    }

    /// The naive multi-pass route the fused scan replaces.
    fn naive(intervals: &[Interval]) -> FamilyScan {
        FamilyScan {
            len: intervals.len(),
            max_overlap: sweep::max_overlap(intervals),
            span: span(intervals),
            components: sweep::connected_components(intervals).len(),
            proper: relations::is_proper(intervals),
            clique: relations::is_clique(intervals),
            min_len: intervals.iter().map(Interval::len).min().unwrap_or(0),
            max_len: intervals.iter().map(Interval::len).max().unwrap_or(0),
            total_len: total_len(intervals),
        }
    }

    #[test]
    fn empty_family() {
        let scan = scan(&[]);
        assert_eq!(scan, naive(&[]));
        assert!(scan.proper);
        assert!(scan.clique);
        assert_eq!(scan.components, 0);
    }

    #[test]
    fn matches_naive_on_crafted_families() {
        let families: Vec<Vec<Interval>> = vec![
            vec![iv(0, 5)],
            vec![iv(0, 1), iv(1, 2)],                       // endpoint touch
            vec![iv(0, 10), iv(2, 5)],                      // nesting
            vec![iv(0, 2), iv(1, 3), iv(2, 4)],             // proper staircase
            vec![iv(0, 2), iv(0, 2), iv(1, 3)],             // duplicates
            vec![iv(0, 2), iv(100, 109)],                   // two components
            vec![iv(0, 0), iv(0, 5), iv(5, 5)],             // point jobs
            vec![iv(-50, 0), iv(0, 50), iv(-50, 0)],        // negative coords
            vec![iv(0, 4), iv(2, 6), iv(3, 5), iv(20, 21)], // mixed
        ];
        for family in &families {
            assert_eq!(scan(family), naive(family), "family {family:?}");
        }
    }

    #[test]
    fn matches_naive_on_pseudorandom_families() {
        // SplitMix64-driven families of varied shapes
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for round in 0..200 {
            let n = (next() % 40) as usize;
            let family: Vec<Interval> = (0..n)
                .map(|_| {
                    let s = (next() % 64) as i64 - 32;
                    let len = (next() % 16) as i64;
                    iv(s, s + len)
                })
                .collect();
            assert_eq!(scan(&family), naive(&family), "round {round}: {family:?}");
        }
    }
}
