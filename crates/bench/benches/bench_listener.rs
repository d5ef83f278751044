//! Socket front-end costs under the readiness-loop listener: connection
//! churn (a full TCP lifecycle — connect, one record, trailer, close —
//! per iteration) and concurrent-batch throughput (four clients driving
//! 64-record batches at once through two reactor threads).
//!
//! Every record names the same generator spec, so after the warm-up
//! solve each response is a solution-cache hit and the measurement is
//! the transport layer itself — accept, sniff, NDJSON parse, outbox
//! write-back, connection teardown — not solver time. Churn is the
//! number that regresses if per-connection setup grows state or
//! syscalls; the concurrent batch is the one that regresses if the
//! reactors serialize against each other or against the executor.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use busytime_core::cancel::CancelToken;
use busytime_core::solve::SolverRegistry;
use busytime_server::{ConnLog, ListenConfig, ListenMode, ListenReport, Listener};

/// One cache-friendly record: constant generator spec, caller-chosen id.
fn record(id: &str) -> String {
    format!(
        "{{\"id\": \"{id}\", \"generator\": {{\"family\": \"uniform\", \
         \"n\": 40, \"g\": 4, \"seed\": 1}}, \"solver\": \"first-fit\"}}\n"
    )
}

struct Server {
    addr: SocketAddr,
    shutdown: CancelToken,
    handle: std::thread::JoinHandle<std::io::Result<ListenReport>>,
}

impl Server {
    fn start() -> Server {
        let config = ListenConfig {
            log: ConnLog::Quiet,
            ..ListenConfig::default()
        };
        let mode = ListenMode::Tcp("127.0.0.1:0".to_string());
        let registry = Arc::new(SolverRegistry::with_defaults());
        let listener = Listener::bind(&mode, registry, config).unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = listener.shutdown_token();
        let handle = std::thread::spawn(move || listener.run());
        Server {
            addr,
            shutdown,
            handle,
        }
    }

    fn stop(self) {
        self.shutdown.cancel();
        self.handle.join().unwrap().unwrap();
    }
}

/// Connect, send `count` records, half-close, and read every response
/// line plus the summary trailer back. Returns the line count.
fn round_trip(addr: SocketAddr, count: usize) -> usize {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut batch = String::with_capacity(count * 96);
    for i in 0..count {
        batch.push_str(&record(&format!("r{i}")));
    }
    stream.write_all(batch.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let reader = BufReader::new(stream);
    let lines = reader.lines().map(Result::unwrap).count();
    assert_eq!(lines, count + 1, "responses + trailer");
    lines
}

fn bench_listener(c: &mut Criterion) {
    let server = Server::start();
    // one cold solve; everything the benches send afterwards is a
    // solution-cache hit, so they time transport rather than the solver
    round_trip(server.addr, 1);

    let mut group = c.benchmark_group("listener");
    group.sample_size(10);

    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::from_parameter("conn-churn"), |b| {
        b.iter(|| round_trip(server.addr, 1))
    });

    const CLIENTS: usize = 4;
    const BATCH: usize = 64;
    group.throughput(Throughput::Elements((CLIENTS * BATCH) as u64));
    group.bench_function(BenchmarkId::from_parameter("batch-4x64"), |b| {
        b.iter(|| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let addr = server.addr;
                    std::thread::spawn(move || round_trip(addr, BATCH))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>()
        })
    });
    group.finish();

    server.stop();
}

criterion_group!(benches, bench_listener);
criterion_main!(benches);
