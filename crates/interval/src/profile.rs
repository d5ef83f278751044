//! [`OverlapProfile`]: an incrementally maintained step function of
//! active-interval counts with range-max queries.
//!
//! A machine in the busy-time scheduling problem may run at most `g` jobs at
//! any instant. FirstFit must therefore answer, per candidate machine,
//! *"would adding job `J` push the count above `g` anywhere on `J`?"* —
//! a range-max query over the machine's current count profile, followed by a
//! range-increment when the job is placed.
//!
//! Costs, for a profile of `n` steps of which `k` lie inside the range:
//!
//! * **Up to 256 steps** the profile is one flat sorted vector. A query is
//!   a binary search plus a scan of the `k` steps; an add also inserts its
//!   two boundaries, each shifting up to `n` steps (at most 4 KiB).
//! * **Past 256 steps** it splits into blocks of 32–64 steps, each carrying
//!   its first key and its maximum. An add finds its block by a binary
//!   search over the blocks, so a boundary insert moves at most one block
//!   (`O(log n + 64 + k)` instead of `O(n)`), and a query takes every block
//!   its range covers whole by that block's maximum (`O(log n + 64 + k/32)`).
//! * **The capacity test** [`OverlapProfile::can_add`] answers in `O(1)`
//!   whenever the machine is clearly below `g` everywhere or provably
//!   saturated where `J` lies, and otherwise falls through to the range
//!   query. Either way `can_add(J, g) == (max_in(J) < g)`.

use crate::interval::Interval;

/// The flat vector holds at most this many steps; one more splits it into
/// blocks. A blocked query pays a second level of search on every call
/// (about 20–30 ns more per query on profiles of a few hundred steps),
/// which only the cheaper inserts of a long profile repay: FirstFit queries
/// up to every machine per placement but adds to only one, and below this
/// size a flat insert moves at most 4 KiB.
const FLAT_MAX: usize = 256;

/// A block holds at most this many steps; one more splits it into halves.
const BLOCK_MAX: usize = 64;

/// A block that a remove leaves with fewer steps than this merges into a
/// neighbour (splitting again past [`BLOCK_MAX`]). It sits well below the
/// halves a split leaves, so a profile hovering around the split size does
/// not split and merge on alternate operations.
const BLOCK_MERGE: usize = 16;

/// Dynamic count profile over doubled coordinates (see
/// [`Interval::dkey_lo`]): a step function `count: ℝ → ℕ` that is zero
/// outside the tracked region.
///
/// Representation: sorted `(key, count)` steps; `(k, c)` means the count is
/// `c` on `[k, k')` where `k'` is the next key (and the final entry is
/// always zero). Counts before the first key are zero. The steps live in one
/// flat vector until there are more than 256 of them; then the vector
/// splits into blocks of 32–64 steps, each with its first key and its
/// maximum count (and a last block left after removes becomes the flat
/// vector again). Mutation is an in-place splice inside the vector or one block —
/// no per-node allocation under add/remove churn, unlike the `BTreeMap`
/// representation this replaced (kept verbatim as the comparator in
/// `bench_interval`).
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
    /// Every step while there are at most [`FLAT_MAX`]; empty once the
    /// profile is blocked.
    flat: Vec<(i64, u32)>,
    /// The steps in blocks, in key order; empty while the profile is flat.
    blocks: Vec<Block>,
    /// Number of intervals currently contributing to the profile.
    len: usize,
    /// Upper bound on every count (exact until the first remove).
    peak: u32,
    /// `(lo, hi, v)`: every count on the doubled range `[lo, hi)` is ≥ `v`.
    witness: (i64, i64, u32),
}

/// A run of consecutive steps, sorted by strictly increasing key.
#[derive(Clone, Debug, Default)]
struct Block {
    /// Key of the first step, kept beside the steps so locating a block
    /// reads only the block summaries. Not read for the first block, which
    /// holds every key before the second.
    first: i64,
    /// Largest count among the steps.
    max: u32,
    steps: Vec<(i64, u32)>,
}

impl Block {
    /// A block holding a copy of `steps`.
    fn new(steps: &[(i64, u32)]) -> Block {
        let mut block = Block {
            steps: Vec::with_capacity(BLOCK_MAX + 1),
            ..Block::default()
        };
        block.steps.extend_from_slice(steps);
        block.refresh();
        block
    }

    /// Recomputes the first key and the maximum from the steps.
    fn refresh(&mut self) {
        if let Some(&(key, _)) = self.steps.first() {
            self.first = key;
        }
        self.max = self.steps.iter().map(|&(_, c)| c).max().unwrap_or(0);
    }

    /// Moves the steps from index `at` on into a new block.
    fn split_off(&mut self, at: usize) -> Block {
        let upper = Block::new(&self.steps[at..]);
        self.steps.truncate(at);
        self.refresh();
        upper
    }
}

/// Index of the first step with key strictly greater than `dkey`.
fn upper_bound(steps: &[(i64, u32)], dkey: i64) -> usize {
    steps.partition_point(|&(k, _)| k <= dkey)
}

/// Maximum count on the doubled range `[lo, hi)` that `steps` see: the
/// count entering at `lo` and every step inside. One binary search for the
/// entry step, then a scan that stops at the first step at or past `hi`
/// (scheduler ranges cover a few steps, where that scan is cheaper than a
/// second binary search for the end).
fn scan_max(steps: &[(i64, u32)], lo: i64, hi: i64) -> u32 {
    let from = upper_bound(steps, lo);
    let entry = match from {
        0 => 0,
        idx => steps[idx - 1].1,
    };
    steps[from..]
        .iter()
        .take_while(|&&(k, _)| k < hi)
        .map(|&(_, c)| c)
        .fold(entry, u32::max)
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
        self.flat.len() + self.blocks.iter().map(|blk| blk.steps.len()).sum::<usize>()
    }

    /// The saturated-run witness `(lo, hi, v)`: every count on the doubled
    /// range `[lo, hi)` (see [`Interval::dkey_lo`]) is at least `v`. It
    /// only ever moves to a run at least as high, and only a remove
    /// overlapping it lowers `v`, so under adds alone a profile with
    /// `v ≥ g` stays full at parallelism `g` on `[lo, hi)` for good.
    pub fn saturated_run(&self) -> (i64, i64, u32) {
        self.witness
    }

    /// Every step in key order.
    fn steps(&self) -> impl Iterator<Item = &(i64, u32)> {
        self.flat
            .iter()
            .chain(self.blocks.iter().flat_map(|blk| &blk.steps))
    }

    /// The steps of chunk `b`: the flat vector while flat, else block `b`.
    fn chunk(&self, b: usize) -> &[(i64, u32)] {
        if self.blocks.is_empty() {
            &self.flat
        } else {
            &self.blocks[b].steps
        }
    }

    fn chunk_mut(&mut self, b: usize) -> &mut Vec<(i64, u32)> {
        if self.blocks.is_empty() {
            &mut self.flat
        } else {
            &mut self.blocks[b].steps
        }
    }

    /// The chunk holding `dkey`: the last block whose first key is at most
    /// `dkey`, with the first block taking every key before the second
    /// (and `0` while flat).
    fn chunk_of(&self, dkey: i64) -> usize {
        self.blocks
            .get(1..)
            .map_or(0, |rest| rest.partition_point(|blk| blk.first <= dkey))
    }

    /// Count at doubled coordinate `dkey`.
    fn value_at(&self, dkey: i64) -> u32 {
        let steps = self.chunk(self.chunk_of(dkey));
        match upper_bound(steps, dkey) {
            0 => 0,
            idx => steps[idx - 1].1,
        }
    }

    /// Count of active intervals at time `t` (a real tick).
    pub fn count_at(&self, t: i64) -> u32 {
        self.value_at(2 * t)
    }

    /// Maximum count over the closed interval `iv`: a scan of the flat
    /// vector, or of the block holding its start, then every later block it
    /// covers whole by that block's maximum and a scan of the block holding
    /// its end.
    pub fn max_in(&self, iv: &Interval) -> u32 {
        let (lo, hi) = (iv.dkey_lo(), iv.dkey_hi());
        if self.blocks.is_empty() {
            return scan_max(&self.flat, lo, hi);
        }
        let b = self.chunk_of(lo);
        let mut max = scan_max(&self.blocks[b].steps, lo, hi);
        // blocks after `b` start past `lo`; one lies wholly before `hi`
        // when the block after it starts at or before `hi`
        let later = &self.blocks[b + 1..];
        for (j, blk) in later.iter().enumerate() {
            if blk.first >= hi {
                break;
            }
            match later.get(j + 1) {
                Some(next) if next.first <= hi => max = max.max(blk.max),
                _ => return max.max(scan_max(&blk.steps, lo, hi)),
            }
        }
        max
    }

    /// True iff after adding `iv` every point of `iv` would have count ≤ `g`;
    /// i.e. the current max over `iv` is at most `g − 1`.
    #[inline]
    pub fn can_add(&self, iv: &Interval, g: u32) -> bool {
        debug_assert!(g >= 1);
        self.can_add_weighted(iv, 1, g)
    }

    /// Ensures a step boundary exists exactly at `dkey`; returns its
    /// `(chunk, index)`. An insert that overfills the flat vector or a
    /// block splits it.
    fn ensure_boundary(&mut self, dkey: i64) -> (usize, usize) {
        let b = self.chunk_of(dkey);
        let steps = self.chunk_mut(b);
        let idx = upper_bound(steps, dkey);
        if idx > 0 && steps[idx - 1].0 == dkey {
            return (b, idx - 1);
        }
        // the copied count is already in the block (or is the zero before
        // every step), so the block's maximum stands
        let value = if idx == 0 { 0 } else { steps[idx - 1].1 };
        steps.insert(idx, (dkey, value));
        if steps.len() <= BLOCK_MAX {
            return (b, idx);
        }
        self.split(b, idx)
    }

    /// After an insert at `(b, idx)`: splits a flat vector past
    /// [`FLAT_MAX`] steps into blocks of about 48, or a block past
    /// [`BLOCK_MAX`] into halves; returns where the inserted step now is.
    fn split(&mut self, b: usize, idx: usize) -> (usize, usize) {
        if self.blocks.is_empty() {
            if self.flat.len() <= FLAT_MAX {
                return (0, idx);
            }
            let count = self.flat.len().div_ceil(BLOCK_MAX * 3 / 4);
            let size = self.flat.len().div_ceil(count);
            self.blocks = self.flat.chunks(size).map(Block::new).collect();
            self.flat = Vec::new();
            return (idx / size, idx % size);
        }
        let blk = &mut self.blocks[b];
        let mid = blk.steps.len() / 2;
        let upper = blk.split_off(mid);
        self.blocks.insert(b + 1, upper);
        if idx < mid {
            (b, idx)
        } else {
            (b + 1, idx - mid)
        }
    }

    /// Adds a closed interval: count += 1 on `iv`.
    pub fn add(&mut self, iv: &Interval) {
        self.add_weighted(iv, 1);
    }

    /// Adds a closed interval with weight `w`: count += w on `iv`. Used by
    /// the capacitated-demand extension where a job consumes `w ≤ g` units
    /// of a machine's parallelism.
    pub fn add_weighted(&mut self, iv: &Interval, w: u32) {
        let (lo, hi) = (iv.dkey_lo(), iv.dkey_hi());
        // `hi` first: only `lo`'s position is needed afterwards, and an
        // insert that splits a block can move the other boundary's
        self.ensure_boundary(hi);
        let (mut b, mut from) = self.ensure_boundary(lo);
        // the highest run this add creates: its count and its first maximal
        // occurrence `[run_lo, run_hi)`, still open while `open`
        let (mut top, mut run_lo, mut run_hi, mut open) = (0, lo, hi, false);
        loop {
            let (mut block_top, mut at_hi) = (0, false);
            for step in &mut self.chunk_mut(b)[from..] {
                if step.0 >= hi {
                    at_hi = true;
                    break;
                }
                step.1 = step.1.saturating_add(w);
                block_top = block_top.max(step.1);
                if step.1 > top {
                    (top, run_lo, run_hi, open) = (step.1, step.0, hi, true);
                } else if open && step.1 < top {
                    (run_hi, open) = (step.0, false);
                }
            }
            if let Some(blk) = self.blocks.get_mut(b) {
                blk.max = blk.max.max(block_top);
            }
            if at_hi {
                break;
            }
            (b, from) = (b + 1, 0);
        }
        self.peak = self.peak.max(top);
        if top >= self.witness.2 {
            self.witness = (run_lo, run_hi, top);
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
        let (lo, hi) = (iv.dkey_lo(), iv.dkey_hi());
        self.ensure_boundary(hi);
        let (first, mut from) = self.ensure_boundary(lo);
        // the count just before `lo`
        let mut prev = match (first, from) {
            (0, 0) => 0,
            (b, 0) => self.chunk(b - 1).last().map_or(0, |&(_, c)| c),
            (b, i) => self.chunk(b)[i - 1].1,
        };
        // chunk by chunk: decrement `[lo, hi)`, and drop the steps in
        // `[lo, hi]` that now repeat their predecessor's count (leading
        // zeros included) with one in-place shift, to bound memory under
        // churn
        let mut b = first;
        loop {
            let steps = self.chunk_mut(b);
            let (mut write, mut read, mut at_hi) = (from, from, false);
            while let Some(&(key, count)) = steps.get(read) {
                let count = if key < hi {
                    debug_assert!(count > 0, "removing an interval that was never added");
                    count.saturating_sub(1)
                } else {
                    count
                };
                if count != prev {
                    steps[write] = (key, count);
                    write += 1;
                }
                prev = count;
                read += 1;
                if key == hi {
                    at_hi = true;
                    break;
                }
            }
            steps.drain(write..read);
            if let Some(blk) = self.blocks.get_mut(b) {
                blk.refresh();
            }
            if at_hi {
                break;
            }
            (b, from) = (b + 1, 0);
        }
        // from the last touched block down, so merges keep indices valid
        for touched in (first..=b).rev() {
            self.rebalance(touched);
        }
        self.len = self.len.saturating_sub(1);
        let (w_lo, w_hi, v) = &mut self.witness;
        if lo < *w_hi && *w_lo < hi {
            *v = v.saturating_sub(1);
        }
    }

    /// Merges block `b` into a neighbour when it holds fewer than
    /// [`BLOCK_MERGE`] steps (an emptied block included), splitting the
    /// merged block again when it exceeds [`BLOCK_MAX`]. A last remaining
    /// block becomes the flat vector again.
    fn rebalance(&mut self, b: usize) {
        if self.blocks.len() < 2 || self.blocks[b].steps.len() >= BLOCK_MERGE {
            return;
        }
        // merge blocks `left` and `left + 1`
        let left = if b + 1 < self.blocks.len() { b } else { b - 1 };
        let right = self.blocks.remove(left + 1);
        let blk = &mut self.blocks[left];
        blk.steps.extend(right.steps);
        if blk.steps.len() > BLOCK_MAX {
            let upper = blk.split_off(blk.steps.len() / 2);
            self.blocks.insert(left + 1, upper);
        } else {
            blk.refresh();
            if self.blocks.len() == 1 {
                self.flat = std::mem::take(&mut self.blocks[0].steps);
                self.blocks.clear();
            }
        }
    }

    /// Total measure (in ticks) where the count is at least one — the
    /// machine's *busy time* if this profile tracks its jobs. Computed from
    /// doubled coordinates: a doubled cell `[2t, 2t+1)` contributes measure 0
    /// (it is the point `t`), while `[2t+1, 2t+2)` contributes 0 too — only
    /// whole-tick spans count, so we convert by halving rounded down.
    pub fn busy_measure(&self) -> i64 {
        let mut total = 0i64;
        let mut prev = (0, 0);
        for &(key, count) in self.steps() {
            if prev.1 > 0 {
                total += dkey_range_measure(prev.0, key);
            }
            prev = (key, count);
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

    /// The block structure is sound: steps strictly increase across
    /// blocks, a profile is either flat or split into at least two blocks,
    /// every block is non-empty and holds at most `BLOCK_MAX` steps, and
    /// its first key (read from the second block on) and maximum are its
    /// own.
    fn assert_blocks_consistent(p: &OverlapProfile) {
        let keys: Vec<i64> = p.steps().map(|s| s.0).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");
        assert!(p.flat.len() <= FLAT_MAX);
        assert!(p.flat.is_empty() || p.blocks.is_empty());
        assert_ne!(p.blocks.len(), 1, "a lone block stays flat");
        for (b, blk) in p.blocks.iter().enumerate() {
            assert!(!blk.steps.is_empty() && blk.steps.len() <= BLOCK_MAX);
            if b > 0 {
                assert_eq!(blk.first, blk.steps[0].0);
            }
            assert_eq!(Some(blk.max), blk.steps.iter().map(|s| s.1).max());
        }
    }

    /// Flat and blocked storage both match the `BTreeMap` reference step for
    /// step: the profile grows past many blocks (adds outnumber removes),
    /// then shrinks back to one (removes outnumber adds), so boundary
    /// inserts split blocks and removes cross block boundaries and merge
    /// them again.
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
        let (mut most_blocks, mut merged) = (0, false);
        for op in 0..3_000 {
            let s = (next() % 4_000) as i64 - 2_000;
            let probe = iv(s, s + (next() % 120) as i64);
            // removes: one op in four while growing, three in four after
            let remove_odds = if op < 1_500 { 1 } else { 3 };
            if !live.is_empty() && next() % 4 < remove_odds {
                let victim = live.swap_remove((next() % live.len() as u64) as usize);
                vec_p.remove(&victim);
                map_p.remove(&victim);
            } else {
                vec_p.add(&probe);
                map_p.add(&probe);
                live.push(probe);
            }
            assert_eq!(vec_p.max_in(&probe), map_p.max_in(&probe));
            let wide = iv(s - 500, s + 500);
            assert_eq!(vec_p.max_in(&wide), map_p.max_in(&wide));
            assert_gates_match_max_in(&vec_p, &probe);
            assert_eq!(vec_p.count_at(s), map_p.value_at(2 * s));
            assert_eq!(vec_p.interval_count(), live.len());
            assert_eq!(vec_p.step_count(), map_p.steps.len());
            assert_blocks_consistent(&vec_p);
            merged |= vec_p.blocks.len() < most_blocks;
            most_blocks = most_blocks.max(vec_p.blocks.len());
        }
        assert!(most_blocks >= 8, "the profile never grew past a few blocks");
        assert!(merged, "no remove ever merged a block");
        for victim in live.drain(..) {
            vec_p.remove(&victim);
            map_p.remove(&victim);
            assert_eq!(vec_p.step_count(), map_p.steps.len());
            assert_blocks_consistent(&vec_p);
        }
        assert!(vec_p.is_empty());
        assert_eq!((vec_p.step_count(), vec_p.blocks.len()), (0, 0));
    }

    #[test]
    fn blocked_profile_busy_measure_and_counts() {
        // 200 disjoint unit jobs: 400 steps, several blocks
        let mut p = OverlapProfile::new();
        for i in 0..200 {
            p.add(&iv(3 * i, 3 * i + 1));
        }
        assert!(p.blocks.len() >= 6);
        assert_blocks_consistent(&p);
        assert_eq!(p.busy_measure(), 200);
        assert_eq!(p.max_in(&iv(-10, 1_000)), 1);
        assert_eq!(p.count_at(301), 1);
        assert_eq!(p.count_at(302), 0);
        // one long job over all of them: every block's maximum rises
        p.add(&iv(0, 600));
        assert_eq!(p.max_in(&iv(-10, 1_000)), 2);
        assert_eq!(p.max_in(&iv(302, 302)), 1);
        assert_eq!(p.busy_measure(), 600);
        assert!(!p.can_add(&iv(450, 460), 2));
        assert!(p.can_add(&iv(602, 700), 2));
        assert_blocks_consistent(&p);
    }
}
