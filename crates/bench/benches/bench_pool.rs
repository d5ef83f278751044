//! Executor submission overhead: one batch of 10k trivial jobs through the
//! persistent [`busytime_core::pool::Executor`].
//!
//! Per-item work is a few nanoseconds of arithmetic, so the measurement is
//! almost pure submission/coordination overhead: queuing `width` boxed
//! tasks onto long-lived workers, the shared cursor, and the wake-up of
//! the parked submitter. The executor is pinned to 2 workers so the bench
//! id, and the work it names, are the same on every host.

use std::hint::black_box;

use busytime_bench::config;
use busytime_core::pool::Executor;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn trivial(x: &u64) -> u64 {
    x.wrapping_mul(2654435761).rotate_left(13)
}

fn bench(c: &mut Criterion) {
    let n = 10_000u64;
    let items: Vec<u64> = (0..n).collect();
    let executor = Executor::new(2);

    // sanity outside the timing loop: the executor path is transparent
    assert_eq!(
        executor.par_map(&items, trivial),
        items.iter().map(trivial).collect::<Vec<_>>(),
        "executor path must be transparent"
    );

    let mut group = c.benchmark_group("pool");
    group.throughput(Throughput::Elements(n));
    group.bench_with_input(
        BenchmarkId::new("executor", "2w-10k"),
        &items,
        |b, items| b.iter(|| executor.par_map(black_box(items), trivial)),
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
