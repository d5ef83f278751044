//! Batch-server throughput: a 1k-instance NDJSON batch driven through
//! `busytime_server::serve` end to end (parse → batched feature detection
//! → worker-pool solve → streamed report lines) at 1, 4 and 8 workers.
//!
//! The interesting read is the worker scaling: per-record solves are
//! independent, so on a multi-core host 4 workers should clear the batch
//! well over 2x faster than 1 (the acceptance bar for the serving
//! tentpole). Each row pins its own `Executor::new(workers)` so the row
//! really runs that many threads — the process-global pool (sized by the
//! host's core count) would otherwise clamp the width. Report lines are
//! written to `io::sink`, so the measurement is compute, not terminal IO.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use busytime_core::pool::Executor;
use busytime_core::solve::SolverRegistry;
use busytime_server::{BatchSession, ServeConfig};

const BATCH: usize = 1000;

fn batch_input() -> String {
    let mut input = String::with_capacity(BATCH * 64);
    for i in 0..BATCH {
        // distinct seeds: every record is a fresh instance (no solution-cache
        // shortcut), sizes staggered so worker stealing has skew to balance
        let n = 20 + (i % 5) * 10;
        input.push_str(&format!(
            "{{\"id\": \"b{i}\", \"generator\": {{\"family\": \"uniform\", \"n\": {n}, \"seed\": {i}}}}}\n"
        ));
    }
    input
}

fn bench_server_throughput(c: &mut Criterion) {
    let input = batch_input();
    let registry = SolverRegistry::with_defaults();
    let config = ServeConfig::default();
    let mut group = c.benchmark_group("server_1k_batch");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.sample_size(10);
    for workers in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                let executor = Executor::new(workers);
                b.iter(|| {
                    let summary = BatchSession::new(&registry, &config)
                        .executor(executor.clone())
                        .run(input.as_bytes(), std::io::sink())
                        .unwrap();
                    assert_eq!(summary.solved, BATCH);
                    summary.total_cost
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_server_throughput);
criterion_main!(benches);
