//! Fused sort+sweep statistics over a whole interval family.
//!
//! [`FamilyScan::scan`] computes every aggregate the solve pipeline's
//! feature detector needs — clique number, span, component count, the
//! proper/clique class predicates and the length statistics — from **one**
//! sort of `(start, end)` pairs plus one sort of end keys, instead of the
//! six independent sorting passes the naive per-predicate route takes
//! (`is_proper`, `is_clique`, `connected_components`, `max_overlap`,
//! `span`, and the length scans each re-sorted or re-scanned the family).
//!
//! [`for_each_component`] exposes the same single-sort sweep as a visitor
//! over per-component `(start, end)` slices, so lower bounds can aggregate
//! per component without materializing sub-instances.
//!
//! Both entry points stage their sort buffers in a per-thread scratch
//! arena that is reset, not freed, between calls — on a worker thread
//! serving batched records the sorts run allocation-free after warm-up.

use std::cell::RefCell;

use crate::interval::Interval;

/// Aggregate statistics of an interval family, computed in one fused
/// sweep by [`FamilyScan::scan`].
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

/// Reusable sort buffers, one set per thread (reset, not freed).
#[derive(Default)]
struct ScanBufs {
    pairs: Vec<(i64, i64)>,
    ends: Vec<i64>,
}

thread_local! {
    static BUFS: RefCell<ScanBufs> = RefCell::new(ScanBufs::default());
}

/// Runs `f` with the thread's scratch buffers; a reentrant call (possible
/// only if a visitor closure calls back into this module) falls back to
/// fresh buffers instead of panicking on the borrow.
fn with_bufs<R>(f: impl FnOnce(&mut ScanBufs) -> R) -> R {
    BUFS.with(|bufs| match bufs.try_borrow_mut() {
        Ok(mut bufs) => f(&mut bufs),
        Err(_) => f(&mut ScanBufs::default()),
    })
}

impl FamilyScan {
    /// Scans `intervals` in one fused pass: one `(start, end)` sort (for
    /// proper / components / span), one end-key sort (for the clique
    /// number, via a two-pointer merge), and linear passes for the rest.
    pub fn scan(intervals: &[Interval]) -> FamilyScan {
        if intervals.is_empty() {
            return FamilyScan {
                len: 0,
                max_overlap: 0,
                span: 0,
                components: 0,
                proper: true,
                clique: true,
                min_len: 0,
                max_len: 0,
                total_len: 0,
            };
        }
        // Linear pass: length stats and the Helly clique test
        // (`max start ≤ min end`).
        let mut min_len = i64::MAX;
        let mut max_len = i64::MIN;
        let mut total_len = 0i64;
        let mut max_start = i64::MIN;
        let mut min_end = i64::MAX;
        for iv in intervals {
            let len = iv.len();
            min_len = min_len.min(len);
            max_len = max_len.max(len);
            total_len += len;
            max_start = max_start.max(iv.start);
            min_end = min_end.min(iv.end);
        }

        with_bufs(|bufs| {
            bufs.pairs.clear();
            bufs.pairs
                .extend(intervals.iter().map(|iv| (iv.start, iv.end)));
            bufs.pairs.sort_unstable();
            bufs.ends.clear();
            bufs.ends.extend(intervals.iter().map(Interval::dkey_hi));
            bufs.ends.sort_unstable();

            // Proper: sorted by (start, end), distinct neighbours must be
            // strictly increasing in both coordinates.
            let proper = bufs
                .pairs
                .windows(2)
                .all(|w| w[0] == w[1] || (w[0].0 < w[1].0 && w[0].1 < w[1].1));

            // Components and span share one reach sweep: a gap in coverage
            // is exactly a component boundary (closed intervals touching at
            // a point both connect and merge measure-contiguously).
            let mut components = 0usize;
            let mut span = 0i64;
            let mut run_start = 0i64;
            let mut reach = 0i64;
            for &(s, e) in &bufs.pairs {
                if components == 0 || s > reach {
                    if components > 0 {
                        span += reach - run_start;
                    }
                    components += 1;
                    run_start = s;
                    reach = e;
                } else {
                    reach = reach.max(e);
                }
            }
            span += reach - run_start;

            // Clique number by two pointers: active count at the i-th start
            // (ascending) is (i + 1) − #{ends below it}; the maximum over
            // all starts is ω. Start keys are even, end keys odd, so strict
            // comparison is exact.
            let mut max_overlap = 0usize;
            let mut closed = 0usize;
            for (i, &(s, _)) in bufs.pairs.iter().enumerate() {
                let lo = 2 * s;
                while closed < bufs.ends.len() && bufs.ends[closed] < lo {
                    closed += 1;
                }
                max_overlap = max_overlap.max(i + 1 - closed);
            }

            FamilyScan {
                len: intervals.len(),
                max_overlap,
                span,
                components,
                proper,
                clique: max_start <= min_end,
                min_len,
                max_len,
                total_len,
            }
        })
    }
}

/// Visits each connected component of the family as a slice of
/// `(start, end)` pairs **sorted by `(start, end)`**, components ordered by
/// leftmost start. One sort, no sub-family materialization; original ids
/// are not preserved (use [`crate::sweep::connected_components`] when ids
/// matter).
pub fn for_each_component(intervals: &[Interval], mut f: impl FnMut(&[(i64, i64)])) {
    if intervals.is_empty() {
        return;
    }
    with_bufs(|bufs| {
        bufs.pairs.clear();
        bufs.pairs
            .extend(intervals.iter().map(|iv| (iv.start, iv.end)));
        bufs.pairs.sort_unstable();
        let mut from = 0usize;
        let mut reach = bufs.pairs[0].1;
        for i in 1..bufs.pairs.len() {
            let (s, e) = bufs.pairs[i];
            if s > reach {
                f(&bufs.pairs[from..i]);
                from = i;
                reach = e;
            } else {
                reach = reach.max(e);
            }
        }
        f(&bufs.pairs[from..]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{relations, span, sweep, total_len};

    fn iv(s: i64, c: i64) -> Interval {
        Interval::new(s, c)
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
        let scan = FamilyScan::scan(&[]);
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
            assert_eq!(FamilyScan::scan(family), naive(family), "family {family:?}");
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
            assert_eq!(
                FamilyScan::scan(&family),
                naive(&family),
                "round {round}: {family:?}"
            );
        }
    }

    #[test]
    fn component_visitor_matches_id_based_decomposition() {
        let family = [iv(0, 2), iv(1, 4), iv(6, 8), iv(8, 9), iv(20, 21)];
        let mut seen: Vec<Vec<(i64, i64)>> = Vec::new();
        for_each_component(&family, |comp| seen.push(comp.to_vec()));
        let expected: Vec<Vec<(i64, i64)>> = sweep::connected_components(&family)
            .iter()
            .map(|ids| {
                let mut pairs: Vec<(i64, i64)> = ids
                    .iter()
                    .map(|&i| (family[i].start, family[i].end))
                    .collect();
                pairs.sort_unstable();
                pairs
            })
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn component_visitor_empty_family() {
        let mut calls = 0;
        for_each_component(&[], |_| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn reentrant_scan_inside_visitor() {
        // a visitor that re-enters the module must not panic on the
        // thread-local borrow
        let family = [iv(0, 2), iv(10, 12)];
        let mut inner = Vec::new();
        for_each_component(&family, |comp| {
            let sub: Vec<Interval> = comp.iter().map(|&(s, e)| iv(s, e)).collect();
            inner.push(FamilyScan::scan(&sub).max_overlap);
        });
        assert_eq!(inner, vec![1, 1]);
    }
}
