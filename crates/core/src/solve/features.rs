//! Structural feature detection for instances.
//!
//! The paper's algorithms are *structure-conditional*: their guarantees hold
//! on specific instance classes (proper families §3.1, bounded lengths
//! §3.2, cliques Appendix A). [`InstanceFeatures`] measures every class
//! membership the portfolio cares about in one pass per connected
//! component, so dispatch logic ([`crate::solve::Auto`]) and reports
//! ([`crate::solve::SolveReport`]) share a single, cheap (`O(n log n)`)
//! detection step: a solve's [`crate::view::InstanceView`] sorts the jobs
//! once, runs one fused [`FamilyScan::sorted`] sweep per component, and
//! combines the components' features into the instance's.

use busytime_interval::FamilyScan;

use crate::instance::Instance;
use crate::view::InstanceView;

/// Structural facts about an instance, as detected by
/// [`InstanceFeatures::detect`].
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceFeatures {
    /// Number of jobs `n`.
    pub jobs: usize,
    /// Parallelism parameter `g`.
    pub g: u32,
    /// No job properly contains another (§3.1's proper families).
    pub proper: bool,
    /// All jobs share a common time point (the Appendix's cliques).
    pub clique: bool,
    /// Number of connected components of the interval graph.
    pub components: usize,
    /// Clique number ω — the maximum number of simultaneously active jobs.
    pub max_overlap: usize,
    /// Minimum job length (0 for an empty instance; point jobs have
    /// length 0).
    pub min_len: i64,
    /// Maximum job length (0 for an empty instance).
    pub max_len: i64,
    /// `span(J)` — measure of the union of all jobs.
    pub span: i64,
    /// `len(J)` — summed job lengths.
    pub total_len: i64,
}

impl InstanceFeatures {
    /// Runs every detector on `inst`: the features of a fresh
    /// [`InstanceView`].
    pub fn detect(inst: &Instance) -> Self {
        InstanceView::new(inst).whole().features().clone()
    }

    /// The features of a family with parallelism `g` from its fused scan.
    pub(crate) fn from_scan(scan: &FamilyScan, g: u32) -> Self {
        InstanceFeatures {
            jobs: scan.len,
            g,
            proper: scan.proper,
            clique: scan.len > 0 && scan.clique,
            components: scan.components,
            max_overlap: scan.max_overlap,
            min_len: scan.min_len,
            max_len: scan.max_len,
            span: scan.span,
            total_len: scan.total_len,
        }
    }

    /// The features of a disconnected instance from those of its
    /// components. Components are pairwise disjoint and far apart, so no
    /// job contains another across them and no point meets two of them:
    /// properness is the conjunction, and two or more are no clique.
    pub(crate) fn combine<'f>(mut parts: impl Iterator<Item = &'f InstanceFeatures>) -> Self {
        let mut all = parts.next().expect("at least one component").clone();
        for f in parts {
            all.jobs += f.jobs;
            all.proper &= f.proper;
            all.clique = false;
            all.components += f.components;
            all.max_overlap = all.max_overlap.max(f.max_overlap);
            all.min_len = all.min_len.min(f.min_len);
            all.max_len = all.max_len.max(f.max_len);
            all.span += f.span;
            all.total_len += f.total_len;
        }
        all
    }

    /// True iff the interval graph is connected (or empty).
    pub fn connected(&self) -> bool {
        self.components <= 1
    }

    /// The normalized length width `d = max_len / min_len`, the parameter
    /// of §3.2's Bounded_Length precondition "lengths in `[1, d]`"
    /// (after scaling the shortest length to 1).
    ///
    /// `None` when some job has length 0 (point jobs are outside the class)
    /// or the instance is empty.
    pub fn length_width(&self) -> Option<i64> {
        if self.jobs == 0 || self.min_len < 1 {
            None
        } else {
            Some(
                self.max_len.div_euclid(self.min_len)
                    + i64::from(self.max_len.rem_euclid(self.min_len) != 0),
            )
        }
    }

    /// `⌈ω/g⌉` — the optimal machine *count* (Section 1.1), a cheap hint
    /// for sizing machine pools.
    pub fn min_machines(&self) -> usize {
        if self.jobs == 0 {
            0
        } else {
            self.max_overlap.div_ceil(self.g as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_proper_family() {
        let inst = Instance::from_pairs([(0, 3), (1, 4), (2, 5)], 2);
        let f = InstanceFeatures::detect(&inst);
        assert!(f.proper);
        assert!(f.clique); // all share point 2
        assert!(f.connected());
        assert_eq!(f.max_overlap, 3);
        assert_eq!(f.length_width(), Some(1));
    }

    #[test]
    fn detects_clique_with_containment() {
        let inst = Instance::from_pairs([(0, 10), (4, 6)], 2);
        let f = InstanceFeatures::detect(&inst);
        assert!(f.clique);
        assert!(!f.proper); // [4,6] ⊂ [0,10]
        assert_eq!(f.length_width(), Some(5));
    }

    #[test]
    fn detects_disconnected_general_family() {
        let inst = Instance::from_pairs([(0, 2), (100, 109)], 3);
        let f = InstanceFeatures::detect(&inst);
        assert!(!f.clique);
        assert_eq!(f.components, 2);
        assert_eq!(f.min_len, 2);
        assert_eq!(f.max_len, 9);
        assert_eq!(f.length_width(), Some(5)); // ⌈9/2⌉
    }

    #[test]
    fn point_jobs_have_no_length_width() {
        let inst = Instance::from_pairs([(0, 0), (0, 5)], 2);
        assert_eq!(InstanceFeatures::detect(&inst).length_width(), None);
    }

    #[test]
    fn empty_instance() {
        let f = InstanceFeatures::detect(&Instance::new(vec![], 4));
        assert!(!f.clique);
        assert!(f.proper); // vacuously
        assert_eq!(f.length_width(), None);
        assert_eq!(f.min_machines(), 0);
    }

    #[test]
    fn min_machines_rounds_up() {
        let inst = Instance::from_pairs([(0, 4); 5], 2);
        assert_eq!(InstanceFeatures::detect(&inst).min_machines(), 3);
    }

    #[test]
    fn fused_scan_matches_per_predicate_detection() {
        // the fused sweep must agree with the single-purpose instance
        // predicates it replaced, field for field
        let cases = [
            Instance::from_pairs([(0, 3), (1, 4), (2, 5)], 2),
            Instance::from_pairs([(0, 10), (4, 6)], 2),
            Instance::from_pairs([(0, 2), (100, 109)], 3),
            Instance::from_pairs([(0, 0), (0, 5), (5, 5), (5, 9)], 1),
            Instance::from_pairs([(0, 1), (1, 2), (2, 3), (10, 11)], 4),
            Instance::new(vec![], 2),
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
            let f = InstanceFeatures::detect(inst);
            assert_eq!(f.proper, inst.is_proper());
            assert_eq!(f.clique, !inst.is_empty() && inst.is_clique());
            assert_eq!(f.components, inst.components().len());
            assert_eq!(f.max_overlap, inst.max_overlap());
            assert_eq!(f.min_len, inst.min_len());
            assert_eq!(f.max_len, inst.max_len());
            assert_eq!(f.span, inst.span());
            assert_eq!(f.total_len, inst.total_len());
        }
    }
}
