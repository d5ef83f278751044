//! [`MachineLoad`]: a machine's jobs, count profile and busy set, kept
//! together for the baseline schedulers (`NextFitArrival`, `BestFit`,
//! `RandomFit`) and `exact-bb`. The paper's FirstFit and NextFitProper only
//! ever ask the capacity question, so they keep one bare [`OverlapProfile`]
//! per machine instead.

use busytime_interval::{Interval, IntervalSet, OverlapProfile};

use crate::instance::JobId;

/// The running state of one machine while a scheduler assigns jobs: which
/// jobs it holds, its count profile (for the capacity gate) and its busy set
/// (for cost accounting).
///
/// The paper's feasibility rule (Section 2.1): job `J` fits machine `M_i`
/// under parallelism `g` iff at every `t ∈ J`, `M_i` currently processes at
/// most `g − 1` jobs — exactly [`MachineLoad::can_fit`].
#[derive(Clone, Debug, Default)]
pub struct MachineLoad {
    jobs: Vec<JobId>,
    profile: OverlapProfile,
    busy: IntervalSet,
}

impl MachineLoad {
    /// An empty machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Job ids assigned so far, in assignment order.
    pub fn jobs(&self) -> &[JobId] {
        &self.jobs
    }

    /// Number of jobs assigned.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// True iff no job is assigned.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// True iff `iv` can be added without exceeding parallelism `g`
    /// anywhere on `iv`.
    pub fn can_fit(&self, iv: &Interval, g: u32) -> bool {
        self.profile.can_add(iv, g)
    }

    /// Assigns a job (unchecked against `g`; callers gate with
    /// [`MachineLoad::can_fit`] first — some baselines deliberately skip it).
    pub fn push(&mut self, id: JobId, iv: &Interval) {
        self.jobs.push(id);
        self.profile.add(iv);
        self.busy.insert(*iv);
    }

    /// Current busy time (measure of the union of assigned jobs — the
    /// machine's `span(J_i)`, its cost in the objective).
    pub fn busy_time(&self) -> i64 {
        self.busy.measure()
    }

    /// The busy period as a set of maximal intervals.
    pub fn busy_set(&self) -> &IntervalSet {
        &self.busy
    }

    /// How much the busy time would grow if `iv` were added (the BestFit
    /// baseline's scoring function).
    pub fn busy_increase(&self, iv: &Interval) -> i64 {
        let mut grown = self.busy.clone();
        grown.insert(*iv);
        grown.measure() - self.busy.measure()
    }

    /// Number of assigned jobs active at time `t`.
    pub fn active_at(&self, t: i64) -> u32 {
        self.profile.count_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: i64, c: i64) -> Interval {
        Interval::new(s, c)
    }

    #[test]
    fn capacity_gate() {
        let mut m = MachineLoad::new();
        assert!(m.can_fit(&iv(0, 10), 1));
        m.push(0, &iv(0, 10));
        assert!(!m.can_fit(&iv(5, 15), 1));
        assert!(m.can_fit(&iv(5, 15), 2));
        m.push(1, &iv(5, 15));
        assert!(!m.can_fit(&iv(7, 8), 2));
        assert!(m.can_fit(&iv(11, 20), 2)); // only one job active on [11,15]
    }

    #[test]
    fn busy_time_union() {
        let mut m = MachineLoad::new();
        m.push(0, &iv(0, 4));
        m.push(1, &iv(2, 6));
        assert_eq!(m.busy_time(), 6);
        m.push(2, &iv(10, 11));
        assert_eq!(m.busy_time(), 7); // gap (6,10) costs nothing
        assert_eq!(m.busy_set().component_count(), 2);
    }

    #[test]
    fn busy_increase_scoring() {
        let mut m = MachineLoad::new();
        m.push(0, &iv(0, 4));
        assert_eq!(m.busy_increase(&iv(2, 6)), 2);
        assert_eq!(m.busy_increase(&iv(1, 3)), 0);
        assert_eq!(m.busy_increase(&iv(10, 13)), 3);
        // scoring must not mutate
        assert_eq!(m.busy_time(), 4);
    }

    #[test]
    fn active_counts() {
        let mut m = MachineLoad::new();
        m.push(0, &iv(0, 2));
        m.push(1, &iv(1, 3));
        assert_eq!(m.active_at(0), 1);
        assert_eq!(m.active_at(1), 2);
        assert_eq!(m.active_at(3), 1);
        assert_eq!(m.active_at(4), 0);
    }

    #[test]
    fn endpoint_touch_blocks_at_g1() {
        let mut m = MachineLoad::new();
        m.push(0, &iv(0, 5));
        // [5,9] touches at t=5: with g = 1 it must not fit
        assert!(!m.can_fit(&iv(5, 9), 1));
        assert!(m.can_fit(&iv(6, 9), 1));
    }
}
