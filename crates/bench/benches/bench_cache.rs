//! Solution-cache payoff: the same repeated-instance NDJSON batch driven
//! through `BatchSession` with the process-wide `SolutionCache` enabled
//! vs disabled.
//!
//! The batch cycles 400 records over 8 distinct generator seeds, so with
//! the cache on only the first occurrence of each instance pays for a
//! solve — the other 392 records are served from the LRU at lookup speed
//! (canonical-hash probe + assignment remap). The interesting read is the
//! on/off ratio: hit records skip the whole solve pipeline (detection
//! included) and the executor, so `on` should clear the batch several
//! times faster than `off`. The `distinct`/`distinct-off` pair runs 400
//! all-distinct records with and without the cache, pinning down the
//! overhead a miss-only workload pays for the bookkeeping — canonical
//! hashing plus validate-on-insert, a few percent of the solve cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use busytime_core::solve::SolverRegistry;
use busytime_server::{BatchSession, ServeConfig};

const BATCH: usize = 400;
const DISTINCT: usize = 8;

fn batch_input(distinct: usize) -> String {
    let mut input = String::with_capacity(BATCH * 64);
    for i in 0..BATCH {
        let seed = i % distinct;
        input.push_str(&format!(
            "{{\"id\": \"c{i}\", \"generator\": {{\"family\": \"uniform\", \"n\": 40, \"seed\": {seed}}}}}\n"
        ));
    }
    input
}

fn bench_solution_cache(c: &mut Criterion) {
    let registry = SolverRegistry::with_defaults();
    let mut group = c.benchmark_group("solution_cache_400_batch");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.sample_size(10);

    let rows: [(&str, String, usize); 4] = [
        ("off", batch_input(DISTINCT), 0),
        ("on", batch_input(DISTINCT), 1024),
        ("distinct", batch_input(BATCH), 1024),
        ("distinct-off", batch_input(BATCH), 0),
    ];
    for (name, input, capacity) in rows {
        group.bench_with_input(BenchmarkId::from_parameter(name), &capacity, |b, &cap| {
            let config = ServeConfig {
                solution_cache: cap,
                ..ServeConfig::default()
            };
            b.iter(|| {
                // fresh session per iteration: the cache starts cold, so
                // every measured pass pays the same miss-then-hit pattern
                let summary = BatchSession::new(&registry, &config)
                    .run(input.as_bytes(), std::io::sink())
                    .unwrap();
                assert_eq!(summary.solved, BATCH);
                summary.total_cost
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solution_cache);
criterion_main!(benches);
