//! Interval-substrate hot paths:
//!
//! * `profile/vec` — [`OverlapProfile`] under FirstFit-shaped churn (add /
//!   range-max / remove);
//! * `family/fused-scan` vs `family/per-predicate` — one [`FamilyScan`]
//!   sort+sweep vs the per-predicate detectors it fused (one sort each for
//!   proper / clique / components / overlap / span), paired so the
//!   committed baseline shows the win.
//!
//! Every iteration replays a deterministic ~1k-operation workload, so the
//! single-iteration smoke estimates in `BENCH_BASELINE.json` stay
//! milliseconds-scale and meaningful under the perf gate.

use std::hint::black_box;

use busytime_bench::config;
use busytime_interval::{relations, span, sweep, total_len, FamilyScan, Interval, OverlapProfile};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Deterministic SplitMix64 stream for workload generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One profile operation of the churn workload.
enum Op {
    Add(Interval),
    Remove(Interval),
    MaxIn(Interval),
}

/// A FirstFit-shaped operation mix: mostly feasibility probes, a third
/// adds, occasional removes of a live interval.
fn churn_workload(ops: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mut live: Vec<Interval> = Vec::new();
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops {
        let s = (rng.next() % 2_000) as i64 - 1_000;
        let iv = Interval::new(s, s + (rng.next() % 50) as i64);
        match rng.next() % 4 {
            0 if !live.is_empty() => {
                let victim = live.swap_remove((rng.next() % live.len() as u64) as usize);
                out.push(Op::Remove(victim));
            }
            0 | 1 => {
                live.push(iv);
                out.push(Op::Add(iv));
            }
            _ => out.push(Op::MaxIn(iv)),
        }
    }
    out
}

fn bench_profile(c: &mut Criterion) {
    let ops = churn_workload(1_000, 42);

    let mut group = c.benchmark_group("profile");
    group.throughput(Throughput::Elements(ops.len() as u64));

    group.bench_with_input(BenchmarkId::new("vec", "1k-churn"), &ops, |b, ops| {
        b.iter(|| {
            let mut p = OverlapProfile::new();
            let mut acc = 0u64;
            for op in ops {
                match op {
                    Op::Add(iv) => p.add(iv),
                    Op::Remove(iv) => p.remove(iv),
                    Op::MaxIn(iv) => acc += u64::from(p.max_in(iv)),
                }
            }
            black_box(acc)
        })
    });

    group.finish();
}

/// Every aggregate [`FamilyScan`] fuses, computed the pre-PR-8 way: one
/// sort (or sweep) per predicate.
#[allow(clippy::type_complexity)]
fn per_predicate(family: &[Interval]) -> (bool, bool, usize, usize, i64, i64, i64, i64) {
    (
        relations::is_proper(family),
        relations::is_clique(family),
        sweep::connected_components(family).len(),
        sweep::max_overlap(family),
        family.iter().map(Interval::len).min().unwrap_or(0),
        family.iter().map(Interval::len).max().unwrap_or(0),
        span(family),
        total_len(family),
    )
}

fn bench_family(c: &mut Criterion) {
    let mut rng = Rng(7);
    let family: Vec<Interval> = (0..1_000)
        .map(|_| {
            let s = (rng.next() % 10_000) as i64;
            Interval::new(s, s + 1 + (rng.next() % 100) as i64)
        })
        .collect();

    // the fused scan: one (start, end) sort, then the sweep, over buffers
    // reused across iterations
    let (mut pairs, mut ends) = (Vec::new(), Vec::new());
    let mut fused = |family: &[Interval]| {
        pairs.clear();
        pairs.extend(family.iter().map(|iv| (iv.start, iv.end)));
        pairs.sort_unstable();
        FamilyScan::sorted(pairs.iter().copied(), &mut ends)
    };

    // sanity outside the timing loop: the fused scan agrees
    let scan = fused(&family);
    let reference = per_predicate(&family);
    assert_eq!(
        (
            scan.proper,
            scan.clique,
            scan.components,
            scan.max_overlap,
            scan.min_len,
            scan.max_len,
            scan.span,
            scan.total_len
        ),
        reference,
        "fused scan must agree with the per-predicate detectors"
    );

    let mut group = c.benchmark_group("family");
    group.throughput(Throughput::Elements(family.len() as u64));

    group.bench_with_input(
        BenchmarkId::new("fused-scan", "1k"),
        &family,
        |b, family| b.iter(|| black_box(fused(black_box(family)))),
    );

    group.bench_with_input(
        BenchmarkId::new("per-predicate", "1k"),
        &family,
        |b, family| b.iter(|| black_box(per_predicate(black_box(family)))),
    );

    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_profile, bench_family
}
criterion_main!(benches);
