//! Algorithm FirstFit (Section 2.1): the 4-approximation for general
//! instances.
//!
//! 1. Sort the jobs in non-increasing order of length.
//! 2. Assign each job to the *first* (lowest-indexed) machine that can
//!    process it — i.e. that runs at most `g − 1` jobs at every `t ∈ J` —
//!    opening a new machine when none fits.
//!
//! The paper's analysis (Theorems 2.1, 2.4, 2.5) places the approximation
//! ratio between 3 and 4. Ties between equal-length jobs are broken by a
//! configurable [`TieBreak`]; Theorem 2.4's lower-bound family exploits an
//! adversarial tie order, realized here by [`TieBreak::Input`] plus a
//! crafted input permutation (see `busytime-instances::adversarial`).
//! [`SortOrder`] variants other than [`SortOrder::LongestFirst`] exist for
//! the ablation experiment (E11) and carry **no** approximation guarantee.
//!
//! # Cost of a placement
//!
//! Each machine is one bare [`OverlapProfile`]; its test
//! `can_add(J, g) == (max_in(J) < g)` is the paper's rule, answered in
//! `O(1)` when the machine's peak or saturated-run witness decides it, and
//! an add costs what [`OverlapProfile`] documents (a flat splice up to 256
//! steps, a splice inside one block of at most 64 past that).
//!
//! The machines are searched in fixed groups of 32. Every full group keeps
//! the intersection of its machines' saturated-run witnesses — a range on
//! which each of them already runs `g` jobs — and a job that meets that
//! range skips the whole group without testing a machine. FirstFit never
//! removes a job, so a machine stays full on its witness range, and every
//! machine of a skipped group would have refused the job: the placement is
//! still the lowest-indexed fitting machine, exactly as a linear scan finds
//! it. With `m` machines a placement costs `m / 32` range checks plus the
//! tests inside the groups it does not skip, plus one summary refresh of
//! 32 witnesses when the chosen machine sits in a full group. On a clique
//! (every machine full at the common point) that is `O(m / 32)` instead of
//! `O(m)`. Below 32 machines there is no full group and the search is the
//! plain scan.

use std::borrow::Cow;

use busytime_interval::{Interval, OverlapProfile};

use crate::algo::{Scheduler, SchedulerError};
use crate::cancel::CancelToken;
use crate::instance::Instance;
use crate::schedule::Schedule;

/// Machines per search group; only full groups are ever skipped.
const GROUP: usize = 32;

/// The summary of a group with no common saturated range: no doubled range
/// `[lo, hi)` with `lo = i64::MAX` can meet a job.
const NO_RANGE: (i64, i64) = (i64::MAX, i64::MIN);

/// Primary ordering of jobs before the greedy pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortOrder {
    /// Non-increasing length — the paper's algorithm.
    LongestFirst,
    /// Non-decreasing length — ablation only.
    ShortestFirst,
    /// Input order, no sorting — ablation only.
    Arrival,
}

/// Secondary ordering among equal-length jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TieBreak {
    /// Stable: preserve input order (lets callers hand-craft adversarial
    /// orders, as Theorem 2.4 requires).
    Input,
    /// Earliest start first.
    EarliestStart,
    /// Deterministic pseudo-random shuffle with the given seed.
    Seeded(u64),
}

/// The FirstFit scheduler.
///
/// ```
/// use busytime_core::{algo::{FirstFit, Scheduler}, Instance};
/// // three mutually overlapping jobs, g = 2: one must open a second machine
/// let inst = Instance::from_pairs([(0, 10), (1, 11), (2, 12)], 2);
/// let schedule = FirstFit::paper().schedule(&inst).unwrap();
/// assert_eq!(schedule.machine_count(), 2);
/// assert_eq!(schedule.cost(&inst), 11 + 10); // [0,11] and [2,12]
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FirstFit {
    /// Primary sort of the greedy pass.
    pub order: SortOrder,
    /// Tie-break among equal primary keys.
    pub tie: TieBreak,
}

impl FirstFit {
    /// The algorithm exactly as in Section 2.1: longest job first, input
    /// order among ties.
    pub fn paper() -> Self {
        FirstFit {
            order: SortOrder::LongestFirst,
            tie: TieBreak::Input,
        }
    }

    /// Longest-first with a seeded random tie-break (for averaging out
    /// adversarial orders in experiments).
    pub fn seeded(seed: u64) -> Self {
        FirstFit {
            order: SortOrder::LongestFirst,
            tie: TieBreak::Seeded(seed),
        }
    }

    /// The processing order of job ids this configuration induces.
    pub fn job_order(&self, inst: &Instance) -> Vec<usize> {
        let mut ids = Vec::new();
        self.job_order_into(inst, &mut ids);
        ids
    }

    /// [`FirstFit::job_order`] into a caller-supplied buffer (cleared
    /// first) — the greedy pass stages its order in per-thread scratch so
    /// batched solves allocate no order vector per record.
    fn job_order_into(&self, inst: &Instance, ids: &mut Vec<usize>) {
        ids.clear();
        ids.extend(0..inst.len());
        if let TieBreak::Seeded(seed) = self.tie {
            shuffle(ids, seed);
        }
        if let TieBreak::EarliestStart = self.tie {
            ids.sort_by_key(|&i| inst.job(i).start);
        }
        match self.order {
            SortOrder::LongestFirst => ids.sort_by_key(|&i| std::cmp::Reverse(inst.job(i).len())),
            SortOrder::ShortestFirst => ids.sort_by_key(|&i| inst.job(i).len()),
            SortOrder::Arrival => {}
        }
    }
}

impl Scheduler for FirstFit {
    fn name(&self) -> Cow<'static, str> {
        let order = match self.order {
            SortOrder::LongestFirst => "longest",
            SortOrder::ShortestFirst => "shortest",
            SortOrder::Arrival => "arrival",
        };
        let tie = match self.tie {
            TieBreak::Input => String::from("input"),
            TieBreak::EarliestStart => String::from("earliest"),
            TieBreak::Seeded(s) => format!("seed{s}"),
        };
        Cow::Owned(format!("FirstFit[{order},{tie}]"))
    }

    fn schedule_with(
        &self,
        inst: &Instance,
        _cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        let g = inst.g();
        let mut machines: Vec<OverlapProfile> = Vec::new();
        let mut raw = vec![0usize; inst.len()];
        crate::pool::scratch::with(|arena| {
            // `full[k]`: the range on which every machine of full group `k`
            // is saturated (see the module docs)
            let (order, full) = (&mut arena.ids, &mut arena.pairs);
            full.clear();
            self.job_order_into(inst, order);
            for &id in order.iter() {
                let iv = inst.job(id);
                let slot = first_fitting(&machines, full, &iv, g).unwrap_or_else(|| {
                    machines.push(OverlapProfile::new());
                    machines.len() - 1
                });
                machines[slot].add(&iv);
                raw[id] = slot;
                let group = slot / GROUP;
                if group < machines.len() / GROUP {
                    let range = saturated_range(&machines[group * GROUP..][..GROUP], g);
                    match full.get_mut(group) {
                        Some(summary) => *summary = range,
                        None => full.push(range),
                    }
                }
            }
        });
        Ok(Schedule::from_assignment(raw))
    }
}

/// The lowest-indexed machine that can take `iv`: full groups whose
/// saturated range `iv` meets are skipped whole, the others and the
/// trailing partial group are scanned machine by machine.
fn first_fitting(
    machines: &[OverlapProfile],
    full: &[(i64, i64)],
    iv: &Interval,
    g: u32,
) -> Option<usize> {
    let (lo, hi) = (iv.dkey_lo(), iv.dkey_hi());
    let fits = |base: usize, group: &[OverlapProfile]| {
        group
            .iter()
            .position(|m| m.can_add(iv, g))
            .map(|i| base + i)
    };
    for (k, &(full_lo, full_hi)) in full.iter().enumerate() {
        if lo < full_hi && full_lo < hi {
            continue;
        }
        if let Some(slot) = fits(k * GROUP, &machines[k * GROUP..][..GROUP]) {
            return Some(slot);
        }
    }
    let rest = full.len() * GROUP;
    fits(rest, &machines[rest..])
}

/// The doubled range on which every machine of `group` runs `g` jobs: the
/// intersection of their saturated-run witnesses, or [`NO_RANGE`] when some
/// machine is not saturated or the witnesses do not all meet.
fn saturated_range(group: &[OverlapProfile], g: u32) -> (i64, i64) {
    let (mut lo, mut hi) = (i64::MIN, i64::MAX);
    for machine in group {
        let (w_lo, w_hi, v) = machine.saturated_run();
        (lo, hi) = (lo.max(w_lo), hi.min(w_hi));
        if v < g || lo >= hi {
            return NO_RANGE;
        }
    }
    (lo, hi)
}

/// Fisher–Yates with a SplitMix64 stream — deterministic, dependency-free.
fn shuffle(ids: &mut [usize], seed: u64) {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..ids.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;

    #[test]
    fn longest_first_order() {
        let inst = Instance::from_pairs([(0, 1), (0, 5), (0, 3)], 2);
        let order = FirstFit::paper().job_order(&inst);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn stable_ties_preserve_input() {
        let inst = Instance::from_pairs([(0, 2), (5, 7), (10, 12)], 2);
        let order = FirstFit::paper().job_order(&inst);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn disjoint_jobs_share_one_machine() {
        // FirstFit packs non-overlapping jobs onto machine 0
        let inst = Instance::from_pairs([(0, 2), (3, 5), (6, 8)], 1);
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        assert_eq!(sched.machine_count(), 1);
        assert_eq!(sched.cost(&inst), 6);
    }

    #[test]
    fn capacity_forces_second_machine() {
        let inst = Instance::from_pairs([(0, 10), (0, 10), (0, 10)], 2);
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
        assert_eq!(sched.machine_count(), 2);
        assert_eq!(sched.cost(&inst), 20);
    }

    #[test]
    fn respects_four_opt_via_lower_bound() {
        let inst = Instance::from_pairs(
            [(0, 6), (1, 7), (2, 9), (4, 11), (5, 12), (8, 14), (10, 15)],
            2,
        );
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
        assert!(sched.cost(&inst) <= 4 * bounds::lower_bound(&inst));
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 3);
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        assert_eq!(sched.machine_count(), 0);
        assert_eq!(sched.cost(&inst), 0);
    }

    #[test]
    fn seeded_shuffle_is_deterministic() {
        let inst = Instance::from_pairs([(0, 2); 10], 2);
        let a = FirstFit::seeded(42).job_order(&inst);
        let b = FirstFit::seeded(42).job_order(&inst);
        let c = FirstFit::seeded(43).job_order(&inst);
        assert_eq!(a, b);
        assert_ne!(a, c); // overwhelmingly likely for 10! orders
    }

    #[test]
    fn ablation_orders_differ() {
        let inst = Instance::from_pairs([(0, 1), (0, 5), (0, 3)], 2);
        let shortest = FirstFit {
            order: SortOrder::ShortestFirst,
            tie: TieBreak::Input,
        };
        assert_eq!(shortest.job_order(&inst), vec![0, 2, 1]);
        let arrival = FirstFit {
            order: SortOrder::Arrival,
            tie: TieBreak::Input,
        };
        assert_eq!(arrival.job_order(&inst), vec![0, 1, 2]);
    }

    #[test]
    fn earliest_start_tiebreak() {
        // equal lengths: order by start
        let inst = Instance::from_pairs([(5, 7), (0, 2), (3, 5)], 2);
        let ff = FirstFit {
            order: SortOrder::LongestFirst,
            tie: TieBreak::EarliestStart,
        };
        assert_eq!(ff.job_order(&inst), vec![1, 2, 0]);
    }

    #[test]
    fn first_fit_prefers_lowest_index() {
        // two disjoint machines could host the third job; FirstFit picks 0
        let inst = Instance::from_pairs([(0, 4), (10, 14), (20, 24)], 1);
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        assert_eq!(sched.machine_count(), 1);
    }

    #[test]
    fn names_reflect_parameters() {
        assert_eq!(FirstFit::paper().name(), "FirstFit[longest,input]");
        assert_eq!(FirstFit::seeded(7).name(), "FirstFit[longest,seed7]");
    }
}
