//! A prepared view of one instance: its structure, computed once per solve.
//!
//! The paper solves each connected component on its own (Section 1.4), and
//! the `auto` portfolio needs each component's class and lower bound. An
//! [`InstanceView`] sorts the jobs once by `(start, end, id)` and holds the
//! components as ranges of that order. Each part's [`InstanceFeatures`],
//! lower bound and (for a component of a disconnected instance)
//! sub-instance are computed the first time they are asked for, so
//! detection, [`crate::algo::Decomposed`], the portfolio race, the bound
//! phase and the report all read one set of facts.
//! [`InstanceFeatures::detect`] and [`crate::bounds::best_lower_bound`]
//! are thin wrappers over a fresh view.
//!
//! The sort buffer comes from the thread's scratch arena
//! ([`crate::pool::scratch`]) and returns there when the view drops, and a
//! connected instance is its own (borrowed) component, so the view of a
//! small connected serving record allocates nothing once the arena has
//! warmed up.

use std::ops::Range;
use std::sync::OnceLock;

use busytime_interval::{FamilyScan, Interval};

use crate::bounds;
use crate::instance::{Instance, JobId};
use crate::pool::scratch;
use crate::solve::InstanceFeatures;

/// Facts of one part, each computed on first use.
#[derive(Default)]
struct Facts {
    features: OnceLock<InstanceFeatures>,
    bound: OnceLock<i64>,
}

/// One component of a disconnected instance.
#[derive(Default)]
struct Component {
    range: Range<usize>,
    facts: Facts,
    /// The component as its own instance, jobs in ascending original id
    /// (solvers break ties by job order), with those ids.
    sub: OnceLock<(Instance, Vec<JobId>)>,
}

/// The sorted order and its component split.
struct Layout {
    /// `(start, end, id)` of every job, ascending.
    sorted: Vec<(i64, i64, JobId)>,
    /// Empty when the instance has at most one component.
    comps: Vec<Component>,
}

/// The structure of one instance, computed on first use and shared by
/// every stage of a solve. See the [module docs](self).
pub struct InstanceView<'a> {
    inst: &'a Instance,
    layout: OnceLock<Layout>,
    whole: Facts,
}

/// The whole instance, or one connected component of it, as seen through
/// an [`InstanceView`].
#[derive(Clone, Copy)]
pub struct Part<'v> {
    view: &'v InstanceView<'v>,
    /// `None` for the whole instance, which is also its sole component.
    comp: Option<usize>,
}

impl<'a> InstanceView<'a> {
    /// A view of `inst`; nothing is computed until asked for.
    pub fn new(inst: &'a Instance) -> Self {
        InstanceView {
            inst,
            layout: OnceLock::new(),
            whole: Facts::default(),
        }
    }

    /// A view whose whole-instance features are already known (passed in
    /// through [`crate::SolveRequest::features`]). `features` must come
    /// from [`InstanceFeatures::detect`] on an equal instance.
    pub fn with_features(inst: &'a Instance, features: InstanceFeatures) -> Self {
        let view = InstanceView::new(inst);
        let _ = view.whole.features.set(features);
        view
    }

    fn layout(&self) -> &Layout {
        self.layout.get_or_init(|| {
            let mut sorted = scratch::with(|arena| std::mem::take(&mut arena.jobs));
            sorted.clear();
            let jobs = self.inst.jobs().iter().enumerate();
            sorted.extend(jobs.map(|(id, iv)| (iv.start, iv.end, id)));
            sorted.sort_unstable();
            // a gap in coverage is exactly a component boundary
            let mut comps = Vec::new();
            let (mut from, mut reach) = (0usize, i64::MIN);
            for (i, &(s, e, _)) in sorted.iter().enumerate() {
                if i > from && s > reach {
                    let range = from..i;
                    comps.push(Component {
                        range,
                        ..Component::default()
                    });
                    from = i;
                }
                reach = if i == from { e } else { reach.max(e) };
            }
            if !comps.is_empty() {
                let range = from..sorted.len();
                comps.push(Component {
                    range,
                    ..Component::default()
                });
            }
            Layout { sorted, comps }
        })
    }

    /// Number of connected components of the interval graph.
    pub(crate) fn component_count(&self) -> usize {
        let layout = self.layout();
        // a connected instance keeps no component records
        if layout.comps.is_empty() {
            usize::from(!layout.sorted.is_empty())
        } else {
            layout.comps.len()
        }
    }

    /// The whole instance as a part.
    pub fn whole(&self) -> Part<'_> {
        Part {
            view: self,
            comp: None,
        }
    }

    /// Component `i`, in order of leftmost start. A connected instance's
    /// only component is the whole instance.
    pub(crate) fn component(&self, i: usize) -> Part<'_> {
        let comp = (!self.layout().comps.is_empty()).then_some(i);
        Part { view: self, comp }
    }

    /// Every component, in order of leftmost start.
    pub(crate) fn components(&self) -> impl Iterator<Item = Part<'_>> {
        (0..self.component_count()).map(|i| self.component(i))
    }
}

impl Drop for InstanceView<'_> {
    fn drop(&mut self) {
        if let Some(Layout { sorted, .. }) = self.layout.take() {
            scratch::with(|arena| {
                if sorted.capacity() > arena.jobs.capacity() {
                    arena.jobs = sorted;
                }
            });
        }
    }
}

impl<'v> Part<'v> {
    /// The view this part belongs to.
    pub(crate) fn view(&self) -> &'v InstanceView<'v> {
        self.view
    }

    /// True for the whole instance (a connected instance's sole component
    /// included), false for a component of a disconnected one.
    pub(crate) fn is_whole(&self) -> bool {
        self.comp.is_none()
    }

    /// The part as an instance: the viewed instance itself for the whole,
    /// else the component's own sub-instance, its jobs in ascending
    /// original id.
    pub fn instance(&self) -> &'v Instance {
        self.sub().map_or(self.view.inst, |(sub, _)| sub)
    }

    /// The original [`JobId`] of each of [`Part::instance`]'s jobs, or
    /// `None` for the whole instance (the identity).
    pub(crate) fn ids(&self) -> Option<&'v [JobId]> {
        self.sub().map(|(_, ids)| &ids[..])
    }

    /// The part's jobs as `(start, end, id)`, sorted ascending.
    pub(crate) fn sorted_jobs(&self) -> &'v [(i64, i64, JobId)] {
        let layout = self.view.layout();
        match self.comp {
            Some(i) => &layout.sorted[layout.comps[i].range.clone()],
            None => &layout.sorted,
        }
    }

    /// The part's [`InstanceFeatures`]: one [`FamilyScan::sorted`] sweep
    /// per component, combined for a disconnected whole.
    pub fn features(&self) -> &'v InstanceFeatures {
        self.facts().features.get_or_init(|| {
            if self.is_split() {
                return InstanceFeatures::combine(self.view.components().map(|c| c.features()));
            }
            let pairs = self.sorted_jobs().iter().map(|&(s, e, _)| (s, e));
            let scan = scratch::with(|arena| FamilyScan::sorted(pairs, &mut arena.keys));
            InstanceFeatures::from_scan(&scan, self.view.inst.g())
        })
    }

    /// The part's lower bound, [`crate::bounds::best_lower_bound`] of
    /// [`Part::instance`]: summed over components for a disconnected whole.
    pub fn lower_bound(&self) -> i64 {
        *self.facts().bound.get_or_init(|| {
            if self.is_split() {
                return self.view.components().map(|c| c.lower_bound()).sum();
            }
            bounds::component_bound(self.sorted_jobs(), self.view.inst.g())
        })
    }

    /// True for the whole of a disconnected instance.
    fn is_split(&self) -> bool {
        self.is_whole() && !self.view.layout().comps.is_empty()
    }

    fn facts(&self) -> &'v Facts {
        self.comp
            .map_or(&self.view.whole, |i| &self.view.layout().comps[i].facts)
    }

    fn sub(&self) -> Option<&'v (Instance, Vec<JobId>)> {
        let i = self.comp?;
        Some(self.view.layout().comps[i].sub.get_or_init(|| {
            let mut ids: Vec<JobId> = self.sorted_jobs().iter().map(|&(.., id)| id).collect();
            ids.sort_unstable();
            let jobs: Vec<Interval> = ids.iter().map(|&id| self.view.inst.job(id)).collect();
            (Instance::new(jobs, self.view.inst.g()), ids)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busytime_interval::sweep;

    #[test]
    fn components_match_id_based_decomposition() {
        let inst = Instance::from_pairs([(0, 2), (20, 21), (1, 4), (6, 8), (8, 9)], 2);
        let view = InstanceView::new(&inst);
        let expected = sweep::connected_components(inst.jobs());
        assert_eq!(view.component_count(), expected.len());
        for (part, ids) in view.components().zip(&expected) {
            assert_eq!(part.ids(), Some(&ids[..]));
            assert_eq!(part.instance(), &inst.restrict(ids));
            assert_eq!(part.sorted_jobs().len(), ids.len());
        }
    }

    #[test]
    fn connected_instance_is_its_own_borrowed_component() {
        let inst = Instance::from_pairs([(0, 4), (2, 6), (5, 9)], 2);
        let view = InstanceView::new(&inst);
        assert_eq!(view.component_count(), 1);
        let part = view.component(0);
        assert!(part.is_whole());
        assert!(std::ptr::eq(part.instance(), &inst));
        assert_eq!(part.ids(), None);
    }

    #[test]
    fn empty_instance_has_no_components() {
        let inst = Instance::new(vec![], 3);
        let view = InstanceView::new(&inst);
        assert_eq!(view.component_count(), 0);
        assert_eq!(view.components().count(), 0);
        assert_eq!(view.whole().lower_bound(), 0);
        assert_eq!(view.whole().features().jobs, 0);
    }

    #[test]
    fn seeded_features_are_not_recomputed() {
        let inst = Instance::from_pairs([(0, 4), (2, 6)], 2);
        let mut seeded = InstanceFeatures::detect(&inst);
        seeded.max_overlap = 99; // a marker: a recomputation would reset it
        let view = InstanceView::with_features(&inst, seeded);
        assert_eq!(view.component(0).features().max_overlap, 99);
    }
}
