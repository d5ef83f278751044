//! Intra-instance fork–join: one large many-component solve, sequential
//! vs. inside fork–join contexts of widths 1, 2 and 4.
//!
//! The instance is disjoint fully-overlapping clusters of equal size, so
//! the schedule phase decomposes into balanced fat components and
//! component dispatch, the only place one instance forks, has real work to
//! spread. (The `intra-smoke` CI fixture,
//! `tests/fixtures/intra_many_components.json`, uses random rather than
//! clique clusters, so that each component still costs milliseconds under
//! FirstFit once a clique's saturated machines are skipped in groups.)
//! The `1w` context is inert by contract — its cost over `seq` is the
//! overhead of consulting the thread-local context, which must stay
//! within budget noise. On multi-core hosts the wider contexts solve the
//! same instance faster. Determinism is asserted outside the timing loops:
//! every width must render the byte-identical report.

use std::hint::black_box;

use busytime_bench::config;
use busytime_core::pool::{intra, Executor};
use busytime_core::solve::ParallelPolicy;
use busytime_core::{Instance, SolveRequest};
use busytime_interval::Interval;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Disjoint fully-overlapping clusters: `clusters` components of `per`
/// jobs each, every job in a cluster containing the cluster's midpoint
/// (deterministic splitmix jitter, no RNG dependency).
fn clustered(clusters: usize, per: usize) -> Instance {
    let mut state = 7u64;
    let mut jitter = |range: i64| -> i64 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z >> 33) as i64 % range
    };
    let mut jobs = Vec::with_capacity(clusters * per);
    for c in 0..clusters as i64 {
        let base = c * 1200;
        for _ in 0..per {
            let s = base + jitter(100);
            let e = base + 900 + jitter(100);
            jobs.push(Interval::new(s, e));
        }
    }
    Instance::new(jobs, 2)
}

/// The report rendered with wall-clock-only fields cleared — the
/// determinism oracle shared with the `prop_core` property tests.
fn timeless_json(inst: &Instance) -> String {
    let mut report = SolveRequest::new(inst)
        .solver("first-fit")
        .parallel(ParallelPolicy::Off)
        .solve()
        .unwrap();
    report.phases.clear();
    report.total = std::time::Duration::ZERO;
    report.to_json_line()
}

fn bench(c: &mut Criterion) {
    let inst = clustered(8, 1200);

    // sanity outside the timing loop: forked solves are byte-identical
    let sequential = timeless_json(&inst);
    for width in [2usize, 4] {
        let exec = Executor::new(width);
        let _ctx = intra::enter(&exec, width);
        assert_eq!(
            timeless_json(&inst),
            sequential,
            "fork–join at width {width} must be invisible in the report"
        );
    }

    let mut group = c.benchmark_group("intra");
    group.throughput(Throughput::Elements(inst.len() as u64));

    group.bench_with_input(BenchmarkId::new("solve", "seq"), &inst, |b, inst| {
        b.iter(|| timeless_json(black_box(inst)))
    });
    for width in [1usize, 2, 4] {
        let exec = Executor::new(width);
        group.bench_with_input(
            BenchmarkId::new("solve", format!("{width}w")),
            &inst,
            |b, inst| {
                let _ctx = intra::enter(&exec, width);
                b.iter(|| timeless_json(black_box(inst)))
            },
        );
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
