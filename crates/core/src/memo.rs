//! Canonical instance hashing and the process-wide solution memo.
//!
//! Production traffic is heavily repetitive: the same request instance —
//! possibly with its jobs listed in a different order — arrives again and
//! again. Since machines are interchangeable and jobs carry no identity
//! beyond their interval, the busy-time problem is fully determined by the
//! *multiset* of job intervals plus the parallelism parameter `g`. This
//! module exploits that in three layers:
//!
//! * [`CanonicalInstance`] — an order/ID-invariant normal form (jobs sorted
//!   by `(start, end)`, plus the permutation back to the caller's order)
//!   with a stable 64-bit [`CanonicalInstance::hash`]. Two instances get the
//!   same canonical form iff they are the same multiset of intervals with
//!   the same `g`.
//! * [`SolutionCache`] — a shared (clone-and-send) true-LRU memo from
//!   canonical instance + solver-relevant options ([`SolveFingerprint`]) to
//!   a validated [`SolveReport`]. Repeat records are served at lookup
//!   speed; the stored assignment is kept in canonical order and remapped
//!   to each caller's job order on the way out, so permuted-identical
//!   instances all hit the same entry.
//! * near-match warm starts — [`SolutionCache::warm_hint`] finds a cached
//!   entry whose job multiset differs from the query by at most a small
//!   edit budget and packages its machine grouping as a [`WarmStart`] hint.
//!   `exact-bb` seeds its incumbent from the hint, so the cache accelerates
//!   even misses.
//!
//! Invalidation is LRU-only: entries are never invalidated by content
//! (solves are deterministic for a given fingerprint), only evicted when
//! the cache is full. Reports that were cut by a deadline or budget are
//! never inserted, and every insert re-validates the schedule against the
//! canonical instance — a cache hit is always a feasible, clean solve.
//!
//! # Caveats
//!
//! The canonical hash deliberately ignores job *order* and *ids*: callers
//! that attach meaning to job order beyond the interval itself (none in
//! this workspace) must not share a cache. The hash is a full 64-bit
//! content hash but collisions are still resolved by comparing the job
//! vectors, never trusted blindly.

use std::collections::{BTreeMap, HashMap};
use std::str::FromStr;
use std::sync::{Arc, Mutex, MutexGuard};

use busytime_interval::Interval;

use crate::instance::Instance;
use crate::schedule::{MachineId, Schedule};
use crate::solve::SolveReport;

/// Per-record cache participation, carried on the wire as
/// `"cache": "off" | "read" | "write" | "readwrite"`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Bypass the cache entirely: no lookup, no insert, no warm start.
    Off,
    /// Serve from the cache when possible but never insert.
    Read,
    /// Insert the solve result but never serve a cached one.
    Write,
    /// Full participation (the default).
    #[default]
    ReadWrite,
}

impl CachePolicy {
    /// True when lookups (and warm-start hints) are allowed.
    pub fn read_enabled(self) -> bool {
        matches!(self, CachePolicy::Read | CachePolicy::ReadWrite)
    }

    /// True when the solve result may be inserted.
    pub fn write_enabled(self) -> bool {
        matches!(self, CachePolicy::Write | CachePolicy::ReadWrite)
    }

    /// The wire spelling (`off`/`read`/`write`/`readwrite`).
    pub fn as_str(self) -> &'static str {
        match self {
            CachePolicy::Off => "off",
            CachePolicy::Read => "read",
            CachePolicy::Write => "write",
            CachePolicy::ReadWrite => "readwrite",
        }
    }
}

impl FromStr for CachePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(CachePolicy::Off),
            "read" => Ok(CachePolicy::Read),
            "write" => Ok(CachePolicy::Write),
            "readwrite" => Ok(CachePolicy::ReadWrite),
            other => Err(format!(
                "unknown cache policy `{other}` (expected off, read, write or readwrite)"
            )),
        }
    }
}

/// The order/ID-invariant normal form of an [`Instance`]: jobs sorted by
/// `(start, end)`, plus the permutation mapping canonical positions back to
/// the original job ids.
#[derive(Clone, Debug)]
pub struct CanonicalInstance {
    jobs: Vec<Interval>,
    g: u32,
    /// `perm[k]` = original job id of the k-th canonical job.
    perm: Vec<usize>,
    hash: u64,
}

/// Two canonical forms are equal when they describe the same job multiset
/// under the same `g` — the permutation back to the *caller's* job order is
/// a view, not part of the identity (that is the whole point of the normal
/// form: permuted-identical instances compare equal here).
impl PartialEq for CanonicalInstance {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.g == other.g && self.jobs == other.jobs
    }
}

impl Eq for CanonicalInstance {}

impl CanonicalInstance {
    /// Normalizes `inst`: a stable sort of job ids by `(start, end)`.
    pub fn of(inst: &Instance) -> Self {
        // (start, end, original id) triples with distinct ascending ids:
        // an unstable sort of the triples reproduces the stable order
        // exactly
        let mut keyed: Vec<(i64, i64, usize)> = inst
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, iv)| (iv.start, iv.end, i))
            .collect();
        keyed.sort_unstable();
        let perm: Vec<usize> = keyed.iter().map(|&(_, _, i)| i).collect();
        let jobs: Vec<Interval> = perm.iter().map(|&i| inst.job(i)).collect();
        let hash = hash_content(&jobs, inst.g());
        CanonicalInstance {
            jobs,
            g: inst.g(),
            perm,
            hash,
        }
    }

    /// The sorted job multiset.
    pub fn jobs(&self) -> &[Interval] {
        &self.jobs
    }

    /// The parallelism parameter.
    pub fn g(&self) -> u32 {
        self.g
    }

    /// Jobs in the instance.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the instance has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The stable 64-bit content hash of `(jobs, g)`. Equal for any two
    /// permutations of the same instance; process- and platform-stable
    /// (FNV-1a over the sorted coordinates, no randomized hasher state).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Rebuilds the canonical instance (jobs in canonical order) — the
    /// instance cache entries are validated against.
    pub fn to_instance(&self) -> Instance {
        Instance::new(self.jobs.clone(), self.g)
    }

    /// Maps an assignment over canonical positions back to the original
    /// job order: `out[original_id] = canonical_assign[k]` where `k` is the
    /// canonical position of that job.
    pub fn assignment_to_original(&self, canonical_assign: &[MachineId]) -> Vec<MachineId> {
        debug_assert_eq!(canonical_assign.len(), self.perm.len());
        let mut out = vec![0; canonical_assign.len()];
        for (k, &orig) in self.perm.iter().enumerate() {
            out[orig] = canonical_assign[k];
        }
        out
    }

    /// Maps an assignment over original job ids into canonical order.
    pub fn assignment_to_canonical(&self, original_assign: &[MachineId]) -> Vec<MachineId> {
        debug_assert_eq!(original_assign.len(), self.perm.len());
        self.perm
            .iter()
            .map(|&orig| original_assign[orig])
            .collect()
    }
}

/// FNV-1a over the sorted job coordinates and `g` — deterministic across
/// processes and platforms, unlike `DefaultHasher`.
fn hash_content(sorted_jobs: &[Interval], g: u32) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(sorted_jobs.len() as u64);
    h.write_u64(u64::from(g));
    for iv in sorted_jobs {
        h.write_u64(iv.start as u64);
        h.write_u64(iv.end as u64);
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The solver-relevant slice of the solve options: two cached solves are
/// interchangeable only when these match. Deadlines and validation levels
/// are deliberately excluded — entries are validated at insert time and
/// never store cut solves, so any caller-side checking level is satisfied
/// by a hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveFingerprint {
    /// The canonical registry key of the requested solver (aliases
    /// resolved), or the custom scheduler's name.
    pub solver: String,
    /// The seed consumed by randomized solvers.
    pub seed: u64,
    /// Whether component decomposition was on.
    pub decompose: bool,
}

impl SolveFingerprint {
    fn hash_into(&self, h: &mut Fnv) {
        h.write_u64(self.solver.len() as u64);
        for byte in self.solver.as_bytes() {
            h.write_u64(u64::from(*byte));
        }
        h.write_u64(self.seed);
        h.write_u64(u64::from(self.decompose));
    }
}

/// A machine-grouping hint extracted from a cached near-match solution:
/// for each distinct interval, the cached machine labels of its
/// occurrences (in canonical occurrence order). Cheap to clone (shared).
///
/// Consumers (currently `exact-bb`) rebuild a candidate schedule by
/// grouping hinted jobs that carry the same label onto one machine and
/// first-fitting everything else, then adopt it as the starting incumbent
/// when it beats the approximation warm starts. Equal intervals always
/// overlap, hence always share a connected component — so a hint built
/// from the whole instance stays coherent under component decomposition.
#[derive(Clone, Debug, Default)]
pub struct WarmStart {
    hints: Arc<HashMap<Interval, Vec<usize>>>,
}

impl WarmStart {
    /// The cached machine labels for occurrences of `iv`, if any.
    pub fn labels(&self, iv: &Interval) -> Option<&[usize]> {
        self.hints.get(iv).map(Vec::as_slice)
    }

    /// Distinct intervals carrying hints.
    pub fn len(&self) -> usize {
        self.hints.len()
    }

    /// True when the hint carries no information.
    pub fn is_empty(&self) -> bool {
        self.hints.is_empty()
    }
}

/// Point-in-time counters for `/healthz` and logs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries.
    pub entries: usize,
    /// Configured capacity (0 = disabled).
    pub capacity: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Near-match warm-start hints handed out.
    pub warm_starts: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when no lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    id: u64,
    hash: u64,
    jobs: Vec<Interval>,
    g: u32,
    fingerprint: SolveFingerprint,
    /// Assignment in canonical order; everything else verbatim.
    report: SolveReport,
    tick: u64,
}

struct Inner {
    capacity: usize,
    tick: u64,
    next_id: u64,
    entries: HashMap<u64, Entry>,
    /// content hash → entry ids (collisions resolved by equality scan)
    buckets: HashMap<u64, Vec<u64>>,
    /// LRU order: tick → entry id (oldest first)
    order: BTreeMap<u64, u64>,
    hits: u64,
    misses: u64,
    warm_starts: u64,
}

/// How many (most recently used) entries [`SolutionCache::warm_hint`]
/// examines before giving up — keeps the near-match scan O(1)-ish on a
/// full cache.
const WARM_SCAN_LIMIT: usize = 256;

/// A process-wide LRU memo of validated [`SolveReport`]s keyed by
/// [`CanonicalInstance`] + [`SolveFingerprint`]. Clones share one cache
/// (`Arc<Mutex<…>>`), so a server hands one handle to every session; a
/// capacity of 0 disables it entirely (every operation is a no-op).
///
/// ```
/// use busytime_core::memo::{CanonicalInstance, SolutionCache, SolveFingerprint};
/// use busytime_core::{Instance, SolveRequest};
///
/// let cache = SolutionCache::new(16);
/// let inst = Instance::from_pairs([(0, 4), (1, 5)], 2);
/// let fp = SolveFingerprint { solver: "first-fit".into(), seed: 0, decompose: true };
/// let canon = CanonicalInstance::of(&inst);
/// assert!(cache.lookup(&canon, &fp).is_none());
/// let report = SolveRequest::new(&inst).solver("first-fit").solve().unwrap();
/// cache.insert(&canon, &fp, &report);
/// // a permuted copy of the instance hits the same entry
/// let permuted = Instance::from_pairs([(1, 5), (0, 4)], 2);
/// let hit = cache
///     .lookup(&CanonicalInstance::of(&permuted), &fp)
///     .expect("permuted instance hits");
/// assert!(hit.cached);
/// hit.schedule.validate(&permuted).unwrap();
/// ```
#[derive(Clone)]
pub struct SolutionCache {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for SolutionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SolutionCache")
            .field("entries", &stats.entries)
            .field("capacity", &stats.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("warm_starts", &stats.warm_starts)
            .finish()
    }
}

impl SolutionCache {
    /// A cache holding at most `capacity` reports (LRU eviction); 0
    /// disables the cache.
    pub fn new(capacity: usize) -> Self {
        SolutionCache {
            inner: Arc::new(Mutex::new(Inner {
                capacity,
                tick: 0,
                next_id: 0,
                entries: HashMap::new(),
                buckets: HashMap::new(),
                order: BTreeMap::new(),
                hits: 0,
                misses: 0,
                warm_starts: 0,
            })),
        }
    }

    /// True when the capacity is 0 and every operation is a no-op.
    pub fn is_disabled(&self) -> bool {
        self.lock().capacity == 0
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // a poisoned cache only means another thread panicked mid-update;
        // the structure itself is still coherent (no partial states span
        // an unwind point)
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up a solve for this exact canonical instance + fingerprint.
    /// On a hit, returns the stored report with the assignment remapped to
    /// the caller's job order and `cached: true`; counts a miss otherwise.
    pub fn lookup(&self, canon: &CanonicalInstance, fp: &SolveFingerprint) -> Option<SolveReport> {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return None;
        }
        let key = entry_key(canon, fp);
        match inner.find_and_touch(key, canon, fp) {
            Some(mut report) => {
                inner.hits += 1;
                drop(inner);
                let assign = canon.assignment_to_original(report.schedule.assignment());
                report.schedule = Schedule::from_assignment(assign);
                report.cached = true;
                Some(report)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts a finished solve. Only clean reports are accepted: not
    /// deadline-cut, and the schedule (remapped to canonical order) must
    /// validate against the canonical instance — so a later hit can skip
    /// validation at any level.
    pub fn insert(&self, canon: &CanonicalInstance, fp: &SolveFingerprint, report: &SolveReport) {
        if report.deadline_hit || report.schedule.assignment().len() != canon.len() {
            return;
        }
        let canonical_assign = canon.assignment_to_canonical(report.schedule.assignment());
        let schedule = Schedule::from_assignment(canonical_assign);
        if schedule.validate(&canon.to_instance()).is_err() {
            return;
        }
        let mut stored = report.clone();
        stored.schedule = schedule;
        stored.cached = false;

        let mut inner = self.lock();
        if inner.capacity == 0 {
            return;
        }
        let key = entry_key(canon, fp);
        inner.insert(key, canon, fp, stored);
    }

    /// Finds a cached entry whose job multiset is within `edit_budget`
    /// insertions/deletions of `canon` (same `g`) and packages its machine
    /// grouping as a [`WarmStart`]. Scans at most 256 of the most recently
    /// used entries. Counts toward [`CacheStats::warm_starts`] when a hint
    /// is produced.
    pub fn warm_hint(&self, canon: &CanonicalInstance, edit_budget: usize) -> Option<WarmStart> {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return None;
        }
        let mut best: Option<(usize, u64)> = None;
        for (_, &id) in inner.order.iter().rev().take(WARM_SCAN_LIMIT) {
            let entry = &inner.entries[&id];
            if entry.g != canon.g() {
                continue;
            }
            let n_diff = entry.jobs.len().abs_diff(canon.len());
            if n_diff > edit_budget {
                continue;
            }
            if let Some(dist) = multiset_distance(&entry.jobs, canon.jobs(), edit_budget) {
                if best.is_none_or(|(d, _)| dist < d) {
                    best = Some((dist, id));
                    if dist == 0 {
                        break;
                    }
                }
            }
        }
        let (_, id) = best?;
        let entry = &inner.entries[&id];
        let mut hints: HashMap<Interval, Vec<usize>> = HashMap::new();
        for (iv, &machine) in entry.jobs.iter().zip(entry.report.schedule.assignment()) {
            hints.entry(*iv).or_default().push(machine);
        }
        inner.warm_starts += 1;
        Some(WarmStart {
            hints: Arc::new(hints),
        })
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.entries.len(),
            capacity: inner.capacity,
            hits: inner.hits,
            misses: inner.misses,
            warm_starts: inner.warm_starts,
        }
    }
}

/// The combined hash an entry is bucketed under: canonical content hash
/// mixed with the fingerprint.
fn entry_key(canon: &CanonicalInstance, fp: &SolveFingerprint) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(canon.hash());
    fp.hash_into(&mut h);
    h.finish()
}

/// Symmetric difference of two sorted interval multisets, or `None` when
/// it exceeds `budget` (early exit — a merge walk, no allocation).
fn multiset_distance(a: &[Interval], b: &[Interval], budget: usize) -> Option<usize> {
    let (mut i, mut j, mut dist) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match (a[i].start, a[i].end).cmp(&(b[j].start, b[j].end)) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                dist += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                dist += 1;
            }
        }
        if dist > budget {
            return None;
        }
    }
    dist += (a.len() - i) + (b.len() - j);
    (dist <= budget).then_some(dist)
}

impl Inner {
    fn find_and_touch(
        &mut self,
        key: u64,
        canon: &CanonicalInstance,
        fp: &SolveFingerprint,
    ) -> Option<SolveReport> {
        let ids = self.buckets.get(&key)?;
        let id = *ids.iter().find(|id| {
            let e = &self.entries[id];
            e.g == canon.g() && e.jobs == canon.jobs() && &e.fingerprint == fp
        })?;
        self.touch(id);
        Some(self.entries[&id].report.clone())
    }

    fn touch(&mut self, id: u64) {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(&id).expect("touched entry exists");
        self.order.remove(&entry.tick);
        entry.tick = tick;
        self.order.insert(tick, id);
    }

    fn insert(
        &mut self,
        key: u64,
        canon: &CanonicalInstance,
        fp: &SolveFingerprint,
        report: SolveReport,
    ) {
        // a duplicate insert refreshes the existing entry instead of
        // storing a twin
        if let Some(ids) = self.buckets.get(&key) {
            if let Some(&id) = ids.iter().find(|id| {
                let e = &self.entries[id];
                e.g == canon.g() && e.jobs == canon.jobs() && &e.fingerprint == fp
            }) {
                self.touch(id);
                self.entries.get_mut(&id).expect("entry exists").report = report;
                return;
            }
        }
        while self.entries.len() >= self.capacity {
            let (&oldest_tick, &oldest_id) = self
                .order
                .iter()
                .next()
                .expect("non-empty cache has an order entry");
            self.order.remove(&oldest_tick);
            let evicted = self
                .entries
                .remove(&oldest_id)
                .expect("evicted entry exists");
            if let Some(ids) = self.buckets.get_mut(&evicted.hash) {
                ids.retain(|&id| id != oldest_id);
                if ids.is_empty() {
                    self.buckets.remove(&evicted.hash);
                }
            }
        }
        self.tick += 1;
        self.next_id += 1;
        let id = self.next_id;
        self.buckets.entry(key).or_default().push(id);
        self.order.insert(self.tick, id);
        self.entries.insert(
            id,
            Entry {
                id,
                hash: key,
                jobs: canon.jobs().to_vec(),
                g: canon.g(),
                fingerprint: fp.clone(),
                report,
                tick: self.tick,
            },
        );
        debug_assert!(self.entries.len() <= self.capacity);
        debug_assert!(self.entries.values().all(|e| e.id <= self.next_id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::SolveRequest;

    fn report_for(inst: &Instance, solver: &str) -> SolveReport {
        SolveRequest::new(inst).solver(solver).solve().unwrap()
    }

    fn fp(solver: &str) -> SolveFingerprint {
        SolveFingerprint {
            solver: solver.to_string(),
            seed: 0,
            decompose: true,
        }
    }

    fn hash(inst: &Instance) -> u64 {
        CanonicalInstance::of(inst).hash()
    }

    #[test]
    fn canonical_hash_is_permutation_invariant() {
        let a = Instance::from_pairs([(0, 4), (1, 5), (6, 9)], 2);
        let b = Instance::from_pairs([(6, 9), (0, 4), (1, 5)], 2);
        assert_eq!(hash(&a), hash(&b));
        // equality ignores the per-caller permutation: permuted-identical
        // instances share one canonical form
        assert_eq!(CanonicalInstance::of(&a), CanonicalInstance::of(&b));
        assert_ne!(
            CanonicalInstance::of(&a),
            CanonicalInstance::of(&Instance::from_pairs([(0, 4), (1, 5), (6, 9)], 3))
        );
    }

    #[test]
    fn canonical_hash_distinguishes_g_and_jobs() {
        let a = Instance::from_pairs([(0, 4), (1, 5)], 2);
        let g3 = Instance::from_pairs([(0, 4), (1, 5)], 3);
        let other = Instance::from_pairs([(0, 4), (1, 6)], 2);
        assert_ne!(hash(&a), hash(&g3));
        assert_ne!(hash(&a), hash(&other));
    }

    #[test]
    fn assignment_remap_round_trips() {
        let inst = Instance::from_pairs([(6, 9), (0, 4), (1, 5)], 2);
        let canon = CanonicalInstance::of(&inst);
        let original = vec![2usize, 0, 1];
        let canonical = canon.assignment_to_canonical(&original);
        // canonical order is (0,4), (1,5), (6,9) = original ids 1, 2, 0
        assert_eq!(canonical, vec![0, 1, 2]);
        assert_eq!(canon.assignment_to_original(&canonical), original);
    }

    #[test]
    fn hit_returns_valid_remapped_schedule() {
        let cache = SolutionCache::new(8);
        let inst = Instance::from_pairs([(0, 4), (1, 5), (6, 9), (6, 9)], 2);
        let report = report_for(&inst, "first-fit");
        cache.insert(&CanonicalInstance::of(&inst), &fp("first-fit"), &report);
        let permuted = Instance::from_pairs([(6, 9), (1, 5), (6, 9), (0, 4)], 2);
        let hit = cache
            .lookup(&CanonicalInstance::of(&permuted), &fp("first-fit"))
            .expect("permutation hits");
        assert!(hit.cached);
        assert_eq!(hit.cost, report.cost);
        hit.schedule.validate(&permuted).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
    }

    #[test]
    fn fingerprint_separates_solvers_and_seeds() {
        let cache = SolutionCache::new(8);
        let inst = Instance::from_pairs([(0, 4), (1, 5)], 2);
        let canon = CanonicalInstance::of(&inst);
        cache.insert(&canon, &fp("first-fit"), &report_for(&inst, "first-fit"));
        assert!(cache.lookup(&canon, &fp("best-fit")).is_none());
        let seeded = SolveFingerprint {
            seed: 7,
            ..fp("first-fit")
        };
        assert!(cache.lookup(&canon, &seeded).is_none());
        assert!(cache.lookup(&canon, &fp("first-fit")).is_some());
    }

    #[test]
    fn cut_reports_are_refused() {
        let cache = SolutionCache::new(8);
        let inst = Instance::from_pairs([(0, 4), (1, 5)], 2);
        let canon = CanonicalInstance::of(&inst);
        let mut report = report_for(&inst, "first-fit");
        report.deadline_hit = true;
        cache.insert(&canon, &fp("first-fit"), &report);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = SolutionCache::new(2);
        let instances: Vec<Instance> = (0..3)
            .map(|i| Instance::from_pairs([(i, i + 4), (i + 1, i + 5)], 2))
            .collect();
        for inst in &instances {
            cache.insert(
                &CanonicalInstance::of(inst),
                &fp("first-fit"),
                &report_for(inst, "first-fit"),
            );
        }
        assert_eq!(cache.stats().entries, 2);
        // 0 was evicted; 1 and 2 remain
        assert!(cache
            .lookup(&CanonicalInstance::of(&instances[0]), &fp("first-fit"))
            .is_none());
        assert!(cache
            .lookup(&CanonicalInstance::of(&instances[1]), &fp("first-fit"))
            .is_some());
        // touching 1 makes 2 the eviction candidate
        cache.insert(
            &CanonicalInstance::of(&instances[0]),
            &fp("first-fit"),
            &report_for(&instances[0], "first-fit"),
        );
        assert!(cache
            .lookup(&CanonicalInstance::of(&instances[2]), &fp("first-fit"))
            .is_none());
        assert!(cache
            .lookup(&CanonicalInstance::of(&instances[1]), &fp("first-fit"))
            .is_some());
    }

    #[test]
    fn duplicate_insert_refreshes_instead_of_duplicating() {
        // two sessions can race miss → solve → insert on one instance: the
        // second insert must refresh the entry (report and recency), not
        // store a twin that spends a capacity slot
        let cache = SolutionCache::new(3);
        let canons: Vec<CanonicalInstance> = (0..4)
            .map(|i| CanonicalInstance::of(&Instance::from_pairs([(i, i + 4)], 2)))
            .collect();
        let report = |i: usize| report_for(&canons[i].to_instance(), "first-fit");
        cache.insert(&canons[0], &fp("first-fit"), &report(0));
        cache.insert(&canons[1], &fp("first-fit"), &report(1));
        let mut newer = report(0);
        newer.requested = "newer".into();
        cache.insert(&canons[0], &fp("first-fit"), &newer);
        assert_eq!(cache.stats().entries, 2);
        // the refresh made entry 1 the least recently used
        cache.insert(&canons[2], &fp("first-fit"), &report(2));
        cache.insert(&canons[3], &fp("first-fit"), &report(3));
        assert!(cache.lookup(&canons[1], &fp("first-fit")).is_none());
        let hit = cache
            .lookup(&canons[0], &fp("first-fit"))
            .expect("refreshed");
        assert_eq!(hit.requested, "newer");
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = SolutionCache::new(0);
        assert!(cache.is_disabled());
        let inst = Instance::from_pairs([(0, 4)], 2);
        let canon = CanonicalInstance::of(&inst);
        cache.insert(&canon, &fp("first-fit"), &report_for(&inst, "first-fit"));
        assert!(cache.lookup(&canon, &fp("first-fit")).is_none());
        assert!(cache.warm_hint(&canon, 2).is_none());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (0, 0, 0));
    }

    #[test]
    fn warm_hint_matches_within_edit_budget() {
        let cache = SolutionCache::new(8);
        let inst = Instance::from_pairs([(0, 4), (0, 4), (10, 14), (10, 14)], 2);
        cache.insert(
            &CanonicalInstance::of(&inst),
            &fp("first-fit"),
            &report_for(&inst, "first-fit"),
        );
        // one job added: within budget 1
        let neighbor = Instance::from_pairs([(0, 4), (0, 4), (10, 14), (10, 14), (20, 24)], 2);
        let warm = cache
            .warm_hint(&CanonicalInstance::of(&neighbor), 1)
            .expect("±1 job neighbor warm-starts");
        assert_eq!(
            warm.labels(&Interval::new(0, 4)).map(<[usize]>::len),
            Some(2)
        );
        assert!(warm.labels(&Interval::new(20, 24)).is_none());
        // three jobs away: outside budget 1
        let far = Instance::from_pairs([(50, 54)], 2);
        assert!(cache.warm_hint(&CanonicalInstance::of(&far), 1).is_none());
        assert_eq!(cache.stats().warm_starts, 1);
    }

    #[test]
    fn multiset_distance_walk() {
        let a = [Interval::new(0, 4), Interval::new(1, 5)];
        let b = [Interval::new(0, 4), Interval::new(2, 6)];
        assert_eq!(multiset_distance(&a, &a, 0), Some(0));
        assert_eq!(multiset_distance(&a, &b, 2), Some(2));
        assert_eq!(multiset_distance(&a, &b, 1), None);
        assert_eq!(multiset_distance(&a, &[], 2), Some(2));
    }
}
