//! End-to-end coverage of the shard router over in-process listeners:
//! in-order fan-in across skewed shards, the additive-capacity speedup,
//! shard death mid-batch (retry on the survivor, no drops, no
//! duplicates), all-shards-down degradation, sticky pinning, the
//! sniffed fleet health endpoint, and HTTP framing on one connection.

use std::borrow::Cow;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use busytime_core::algo::{FirstFit, Scheduler, SchedulerError};
use busytime_core::cancel::CancelToken;
use busytime_core::pool::Executor;
use busytime_core::solve::SolverRegistry;
use busytime_core::{Instance, Schedule};
use busytime_router::{RouteConfig, RouteReport, Router, ShardState};
use busytime_server::{
    parse_output_line, ConnLog, ListenConfig, ListenMode, ListenReport, Listener, OutputLine,
};

/// A solver that sleeps `hold` before delegating to FirstFit — the knob
/// that makes per-shard latency visible and skewable in these tests.
struct Nap {
    hold: Duration,
}

impl Scheduler for Nap {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("Nap")
    }

    fn schedule_with(
        &self,
        inst: &Instance,
        cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        let started = Instant::now();
        while started.elapsed() < self.hold && !cancel.is_cancelled() {
            std::thread::sleep(Duration::from_millis(1));
        }
        FirstFit::paper().schedule_with(inst, &CancelToken::never())
    }
}

fn nap_registry(hold: Duration) -> SolverRegistry {
    let mut registry = SolverRegistry::with_defaults();
    registry.register(
        "nap",
        "sleeps, then first-fit (test stub)",
        None,
        Box::new(move |_| Box::new(Nap { hold })),
    );
    registry
}

fn record(id: &str) -> String {
    format!(
        r#"{{"id": "{id}", "instance": {{"g": 2, "jobs": [[0, 4], [1, 5]]}}, "solver": "nap"}}"#
    )
}

/// One in-process shard: a real listener on an ephemeral port with its
/// own 1-worker executor and a `nap` solver of the given latency.
struct Shard {
    addr: SocketAddr,
    shutdown: CancelToken,
    handle: std::thread::JoinHandle<std::io::Result<ListenReport>>,
}

fn start_shard(nap: Duration, workers: usize, shard_id: &str) -> Shard {
    start_shard_with(nap_registry(nap), workers, shard_id)
}

/// [`start_shard`] over any registry.
fn start_shard_with(registry: SolverRegistry, workers: usize, shard_id: &str) -> Shard {
    let config = ListenConfig {
        log: ConnLog::Quiet,
        shard_id: Some(shard_id.to_string()),
        ..ListenConfig::default()
    };
    let mode = ListenMode::Tcp("127.0.0.1:0".to_string());
    let listener = Listener::bind(&mode, Arc::new(registry), config)
        .unwrap()
        .executor(Executor::new(workers));
    let addr = listener.local_addr().unwrap();
    let shutdown = listener.shutdown_token();
    let handle = std::thread::spawn(move || listener.run());
    Shard {
        addr,
        shutdown,
        handle,
    }
}

impl Shard {
    fn stop(self) -> ListenReport {
        self.shutdown.cancel();
        self.handle.join().unwrap().unwrap()
    }
}

/// The router under test, on its own ephemeral port.
struct Front {
    addr: SocketAddr,
    shutdown: CancelToken,
    handle: std::thread::JoinHandle<std::io::Result<RouteReport>>,
}

fn quiet_route_config() -> RouteConfig {
    RouteConfig {
        quiet: true,
        probe_interval: Duration::from_millis(100),
        ..RouteConfig::default()
    }
}

fn start_router(shards: Vec<Arc<ShardState>>, config: RouteConfig) -> Front {
    let mode = ListenMode::Tcp("127.0.0.1:0".to_string());
    let router = Router::bind(&mode, shards, config).unwrap();
    let addr = router.local_addr().unwrap();
    let shutdown = router.shutdown_token();
    let handle = std::thread::spawn(move || router.run());
    Front {
        addr,
        shutdown,
        handle,
    }
}

impl Front {
    fn stop(self) -> RouteReport {
        self.shutdown.cancel();
        self.handle.join().unwrap().unwrap()
    }
}

/// [`start_router`] on an HTTP endpoint.
fn start_http_router(shards: Vec<Arc<ShardState>>) -> Front {
    let mode = ListenMode::Http("127.0.0.1:0".to_string());
    let router = Router::bind(&mode, shards, quiet_route_config()).unwrap();
    let addr = router.local_addr().unwrap();
    let shutdown = router.shutdown_token();
    let handle = std::thread::spawn(move || router.run());
    Front {
        addr,
        shutdown,
        handle,
    }
}

/// One NDJSON client connection with blocking line reads (generous
/// timeout so a hung router fails the test instead of wedging it).
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        self.stream.flush().unwrap();
    }

    /// Half-close the write side; the router answers the batch, appends
    /// the merged trailer, and closes.
    fn finish(&mut self) {
        self.stream.shutdown(Shutdown::Write).unwrap();
    }

    fn read_to_end(&mut self) -> Vec<String> {
        let mut rest = String::new();
        self.reader.read_to_string(&mut rest).unwrap();
        rest.lines().map(str::to_string).collect()
    }
}

/// Sends `ids` as one batch and returns all response lines (trailer
/// included, as the last line).
fn run_batch(addr: SocketAddr, ids: &[String]) -> Vec<String> {
    run_batch_of(addr, ids, record)
}

/// [`run_batch`] over records built by `make`.
fn run_batch_of(addr: SocketAddr, ids: &[String], make: fn(&str) -> String) -> Vec<String> {
    let mut client = Client::connect(addr);
    for id in ids {
        client.send(&make(id));
    }
    client.finish();
    client.read_to_end()
}

/// A [`record`] that bypasses the solution cache, so every copy of the
/// one instance really solves.
fn uncached_record(id: &str) -> String {
    format!(
        r#"{{"id": "{id}", "instance": {{"g": 2, "jobs": [[0, 4], [1, 5]]}}, "solver": "nap", "cache": "off"}}"#
    )
}

/// Asserts the first `n` lines are in-order responses answering lines
/// `1..=n` with each id exactly once, and returns the trailer line.
fn assert_ordered_batch(lines: &[String], ids: &[String]) -> String {
    assert_eq!(
        lines.len(),
        ids.len() + 1,
        "one response per record plus the trailer: {lines:#?}"
    );
    let mut seen = HashSet::new();
    for (i, line) in lines[..ids.len()].iter().enumerate() {
        let parsed = parse_output_line(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        assert_eq!(parsed.line(), i + 1, "responses in input order: {line}");
        match parsed {
            OutputLine::Report { id, .. } => {
                let id = id.expect("ids echoed");
                assert_eq!(id, ids[i], "each line answers its own record");
                assert!(seen.insert(id), "no duplicated answers: {line}");
            }
            OutputLine::Error { .. } => panic!("unexpected error line: {line}"),
        }
    }
    lines[ids.len()].clone()
}

#[test]
fn responses_stay_in_input_order_across_skewed_shards() {
    // shard 0 is 25x slower than shard 1: late answers from the slow
    // shard force the fan-in to hold the fast shard's answers back
    let slow = start_shard(Duration::from_millis(25), 1, "slow");
    let fast = start_shard(Duration::from_millis(1), 1, "fast");
    let shards = vec![
        ShardState::new(0, slow.addr.to_string()),
        ShardState::new(1, fast.addr.to_string()),
    ];
    let front = start_router(shards, quiet_route_config());

    let ids: Vec<String> = (0..12).map(|i| format!("r-{i}")).collect();
    let lines = run_batch(front.addr, &ids);
    let trailer = assert_ordered_batch(&lines, &ids);
    assert!(trailer.contains("\"records\": 12"), "{trailer}");
    assert!(trailer.contains("\"solved\": 12"), "{trailer}");
    assert!(
        !trailer.contains("\"line\""),
        "the trailer is a summary, not a response: {trailer}"
    );

    let report = front.stop();
    assert_eq!(report.connections, 1);
    assert_eq!(report.records, 12);
    assert_eq!(report.failed, 0);
    // both shards actually served (the slow one was not starved out)
    let slow_report = slow.stop();
    let fast_report = fast.stop();
    assert_eq!(slow_report.records + fast_report.records, 12);
    assert!(
        slow_report.records > 0,
        "slow shard served part of the batch"
    );
    assert!(
        fast_report.records > 0,
        "fast shard served part of the batch"
    );
}

#[test]
fn merged_trailer_sums_solution_cache_counts_across_shards() {
    // two shards, two batches of one identical instance: the first batch
    // fills each shard's solution cache, the second is served from it, and
    // the router's merged trailer must report the *summed* per-shard
    // counts
    let a = start_shard(Duration::from_millis(5), 1, "a");
    let b = start_shard(Duration::from_millis(5), 1, "b");
    let shards = vec![
        ShardState::new(0, a.addr.to_string()),
        ShardState::new(1, b.addr.to_string()),
    ];
    let front = start_router(shards, quiet_route_config());

    let counts = |trailer: &str| {
        let summary = busytime_server::BatchSummary::from_json_line(trailer).unwrap();
        (summary.solution_cache_hits, summary.solution_cache_misses)
    };

    let ids: Vec<String> = (0..6).map(|i| format!("fill-{i}")).collect();
    let lines = run_batch(front.addr, &ids);
    let trailer = assert_ordered_batch(&lines, &ids);
    let (hits, misses) = counts(&trailer);
    assert_eq!(
        hits + misses,
        6,
        "every record consults the cache: {trailer}"
    );

    // repeats of an instance every shard has now solved: each shard
    // answers its share from its cache, at worst missing once per shard
    // (a shard the first batch never reached)
    let ids: Vec<String> = (0..6).map(|i| format!("hit-{i}")).collect();
    let lines = run_batch(front.addr, &ids);
    let trailer = assert_ordered_batch(&lines, &ids);
    let (hits, misses) = counts(&trailer);
    assert_eq!(hits + misses, 6, "{trailer}");
    assert!(hits >= 4, "warm shards serve repeats from cache: {trailer}");

    front.stop();
    a.stop();
    b.stop();
}

#[test]
fn two_one_worker_shards_beat_one_through_the_router() {
    // the additive-capacity claim: 8 records of ~40ms on one 1-worker
    // shard cost >= 320ms serialized; the same batch through a router
    // over TWO 1-worker shards must be strictly faster. The records are
    // copies of one instance, so they bypass the solution cache — else
    // the solo leg answers most of them from cache
    let nap = Duration::from_millis(40);
    let ids: Vec<String> = (0..8).map(|i| format!("p-{i}")).collect();

    let solo = start_shard(nap, 1, "solo");
    let started = Instant::now();
    let shards = vec![ShardState::new(0, solo.addr.to_string())];
    let front = start_router(shards, quiet_route_config());
    let lines = run_batch_of(front.addr, &ids, uncached_record);
    let solo_elapsed = started.elapsed();
    assert_ordered_batch(&lines, &ids);
    front.stop();
    solo.stop();

    let a = start_shard(nap, 1, "a");
    let b = start_shard(nap, 1, "b");
    let started = Instant::now();
    let shards = vec![
        ShardState::new(0, a.addr.to_string()),
        ShardState::new(1, b.addr.to_string()),
    ];
    let front = start_router(shards, quiet_route_config());
    let lines = run_batch_of(front.addr, &ids, uncached_record);
    let dual_elapsed = started.elapsed();
    assert_ordered_batch(&lines, &ids);
    front.stop();
    let served_a = a.stop().records;
    let served_b = b.stop().records;
    assert_eq!(served_a + served_b, 8);
    assert!(
        dual_elapsed < solo_elapsed,
        "two shards must beat one: dual {dual_elapsed:?} vs solo {solo_elapsed:?}"
    );
}

#[test]
fn shard_death_mid_batch_retries_on_the_survivor() {
    // shard 0 is a stub that accepts one connection, reads a single
    // record, then drops everything without answering — the worst-timed
    // death. Its records must be re-dispatched to the survivor with
    // their original line stamps.
    let stub = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let stub_addr = stub.local_addr().unwrap();
    let stub_thread = std::thread::spawn(move || {
        // the background prober may connect first (HTTP healthz probes);
        // shrug those off and keep accepting until the record dispatch
        // connection shows up, so the death is always record-holding
        loop {
            let (conn, _) = stub.accept().unwrap();
            let mut reader = BufReader::new(conn);
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            if !line.starts_with("GET ") {
                break;
            }
        }
        // conn and listener drop here: EOF towards the router, refused
        // connects afterwards
    });
    let survivor = start_shard(Duration::from_millis(5), 1, "survivor");
    let shards = vec![
        ShardState::new(0, stub_addr.to_string()),
        ShardState::new(1, survivor.addr.to_string()),
    ];
    let front = start_router(shards, quiet_route_config());

    let ids: Vec<String> = (0..8).map(|i| format!("k-{i}")).collect();
    let lines = run_batch(front.addr, &ids);
    let trailer = assert_ordered_batch(&lines, &ids);
    assert!(trailer.contains("\"records\": 8"), "{trailer}");

    let report = front.stop();
    assert_eq!(report.records, 8);
    assert!(report.retried >= 1, "the stub's record was re-dispatched");
    assert_eq!(report.failed, 0);
    stub_thread.join().unwrap();
    assert_eq!(
        survivor.stop().records,
        8,
        "the survivor answered everything"
    );
}

#[test]
fn an_orphan_is_retried_while_its_client_waits_for_the_answer() {
    // as above, but the client sends one record at a time and waits for
    // each answer: when the stub dies, the session is blocked on a quiet
    // client, and the orphan must still be re-dispatched
    let stub = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let stub_addr = stub.local_addr().unwrap();
    let stub_thread = std::thread::spawn(move || loop {
        let (conn, _) = stub.accept().unwrap();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        if !line.starts_with("GET ") {
            break;
        }
    });
    let survivor = start_shard(Duration::from_millis(5), 1, "survivor");
    let shards = vec![
        ShardState::new(0, stub_addr.to_string()),
        ShardState::new(1, survivor.addr.to_string()),
    ];
    let front = start_router(shards, quiet_route_config());

    let mut client = Client::connect(front.addr);
    let ids: Vec<String> = (0..4).map(|i| format!("w-{i}")).collect();
    let mut lines = Vec::new();
    for id in &ids {
        client.send(&record(id));
        let mut line = String::new();
        client.reader.read_line(&mut line).unwrap();
        lines.push(line.trim_end().to_string());
    }
    client.finish();
    lines.extend(client.read_to_end());
    let trailer = assert_ordered_batch(&lines, &ids);
    assert!(trailer.contains("\"records\": 4"), "{trailer}");

    let report = front.stop();
    assert!(report.retried >= 1, "the stub's record was re-dispatched");
    assert_eq!(report.failed, 0);
    stub_thread.join().unwrap();
    survivor.stop();
}

#[test]
fn records_orphaned_after_the_client_finished_are_retried_on_the_survivor() {
    // shard 0 is a stub that reads its share of the batch until the
    // router half-closes the stream, then closes without answering. The
    // router half-closes only after the client's end of batch, so every
    // orphan appears after it and must still reach the survivor.
    let stub = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let stub_addr = stub.local_addr().unwrap();
    let stub_thread = std::thread::spawn(move || loop {
        let (conn, _) = stub.accept().unwrap();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        if !line.starts_with("GET ") {
            // the record stream: read to the half-close, answer nothing
            return 1 + reader.lines().count();
        }
    });
    let survivor = start_shard(Duration::from_millis(5), 1, "survivor");
    let shards = vec![
        ShardState::new(0, stub_addr.to_string()),
        ShardState::new(1, survivor.addr.to_string()),
    ];
    let front = start_router(shards, quiet_route_config());

    let ids: Vec<String> = (0..8).map(|i| format!("late-{i}")).collect();
    let lines = run_batch(front.addr, &ids);
    let trailer = assert_ordered_batch(&lines, &ids);
    assert!(trailer.contains("\"records\": 8"), "{trailer}");

    let report = front.stop();
    let swallowed = stub_thread.join().unwrap();
    assert_eq!(report.records, 8);
    assert!(
        report.retried >= swallowed,
        "{} retried for {swallowed} swallowed records",
        report.retried
    );
    assert_eq!(report.failed, 0);
    assert_eq!(
        survivor.stop().records,
        8,
        "the survivor answered everything"
    );
}

/// The `outbox_bytes` gauge off the router's `/healthz`.
fn outbox_bytes(addr: SocketAddr) -> usize {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (_, body) = response.split_once("\r\n\r\n").unwrap();
    busytime_server::parse_healthz(body).unwrap().outbox_bytes
}

#[test]
fn a_slow_reader_holds_routed_answers_near_the_outbox_cap() {
    let a = start_shard(Duration::ZERO, 1, "a");
    let b = start_shard(Duration::ZERO, 1, "b");
    let shards = vec![
        ShardState::new(0, a.addr.to_string()),
        ShardState::new(1, b.addr.to_string()),
    ];
    let front = start_router(shards, quiet_route_config());

    // several MB of answers to a client that reads nothing for a while:
    // the router holds them back instead of buffering the batch
    let ids: Vec<String> = (0..6000).map(|i| format!("slow-{i}")).collect();
    let batch: String = ids.iter().map(|id| record(id) + "\n").collect();
    let mut client = Client::connect(front.addr);
    let mut sender = client.stream.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        sender.write_all(batch.as_bytes()).unwrap();
        sender.shutdown(Shutdown::Write).unwrap();
    });
    let started = Instant::now();
    let mut peak = 0;
    while started.elapsed() < Duration::from_secs(2) {
        peak = peak.max(outbox_bytes(front.addr));
        std::thread::sleep(Duration::from_millis(50));
    }
    // the 256 KiB cap, plus at most one read budget per shard stream
    // (32 KiB each) pumped just before the gate closes
    assert!(peak < 512 * 1024, "outbox peaked at {peak} bytes");

    let lines = client.read_to_end();
    writer.join().unwrap();
    assert_ordered_batch(&lines, &ids);
    front.stop();
    a.stop();
    b.stop();
}

#[test]
fn all_shards_down_degrades_to_structured_errors_without_hanging() {
    // two bound-then-dropped ports: connects are refused immediately
    let dead_addr = |_| {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let shards = vec![
        ShardState::new(0, dead_addr(0)),
        ShardState::new(1, dead_addr(1)),
    ];
    let front = start_router(shards, quiet_route_config());

    let mut client = Client::connect(front.addr);
    for i in 0..3 {
        client.send(&record(&format!("d-{i}")));
    }
    client.finish();
    let lines = client.read_to_end();
    assert_eq!(
        lines.len(),
        4,
        "three error lines plus the trailer: {lines:#?}"
    );
    for (i, line) in lines[..3].iter().enumerate() {
        match parse_output_line(line).unwrap() {
            OutputLine::Error { line: l, id, error } => {
                assert_eq!(l, i + 1, "error lines keep input order");
                assert_eq!(id.as_deref(), Some(format!("d-{i}").as_str()));
                assert!(error.contains("no healthy shard"), "{error}");
            }
            other => panic!("expected error line, got {other:?}"),
        }
    }
    assert!(lines[3].contains("\"records\": 3"), "{}", lines[3]);
    assert!(lines[3].contains("\"errors\": 3"), "{}", lines[3]);

    let report = front.stop();
    assert_eq!(report.failed, 3);
}

#[test]
fn sticky_mode_pins_a_connection_to_one_shard() {
    let a = start_shard(Duration::from_millis(1), 1, "a");
    let b = start_shard(Duration::from_millis(1), 1, "b");
    let shards = vec![
        ShardState::new(0, a.addr.to_string()),
        ShardState::new(1, b.addr.to_string()),
    ];
    let config = RouteConfig {
        sticky: true,
        ..quiet_route_config()
    };
    let front = start_router(shards, config);

    let ids: Vec<String> = (0..6).map(|i| format!("s-{i}")).collect();
    let lines = run_batch(front.addr, &ids);
    assert_ordered_batch(&lines, &ids);
    front.stop();

    let mut served = [a.stop().records, b.stop().records];
    served.sort_unstable();
    assert_eq!(
        served,
        [0, 6],
        "sticky mode keeps the whole connection on one shard"
    );
}

#[test]
fn health_probe_on_the_ndjson_endpoint_reports_the_fleet() {
    let a = start_shard(Duration::from_millis(1), 1, "a");
    let b = start_shard(Duration::from_millis(1), 1, "b");
    let shards = vec![
        ShardState::new(0, a.addr.to_string()),
        ShardState::new(1, b.addr.to_string()),
    ];
    let front = start_router(shards, quiet_route_config());

    let mut stream = TcpStream::connect(front.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("\"role\": \"router\""), "{response}");
    assert!(response.contains("\"shards\": 2"), "{response}");

    let report = front.stop();
    assert_eq!(report.health_probes, 1, "a probe is not a connection");
    assert_eq!(report.connections, 0);
    a.stop();
    b.stop();
}

/// Reads until the router closes the connection or `wait` passes without
/// a byte. Returns what arrived and whether the connection closed.
fn read_until_close(stream: &mut TcpStream, wait: Duration) -> (String, bool) {
    stream.set_read_timeout(Some(wait)).unwrap();
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    let closed = loop {
        match stream.read(&mut chunk) {
            Ok(0) => break true,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(_) => break false,
        }
    };
    (String::from_utf8(bytes).unwrap(), closed)
}

/// Splits one `Content-Length` response off the front of `raw`:
/// (head, body, rest).
fn split_response(raw: &str) -> (&str, &str, &str) {
    let (head, rest) = raw.split_once("\r\n\r\n").expect("a response head");
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .expect("a Content-Length header")
        .parse()
        .unwrap();
    (head, &rest[..length], &rest[length..])
}

#[test]
fn http_error_answer_closes_instead_of_parsing_the_body_as_a_request() {
    let a = start_shard(Duration::from_millis(1), 1, "a");
    let shards = vec![ShardState::new(0, a.addr.to_string())];
    let front = start_http_router(shards);

    // an unknown path with a 5-byte body, then a probe on the same
    // connection: the body must not be read as the next request
    let mut stream = TcpStream::connect(front.addr).unwrap();
    stream
        .write_all(
            b"GET /nope HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello\
              GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
    let (response, closed) = read_until_close(&mut stream, Duration::from_secs(5));
    assert!(closed, "an error answer closes the connection: {response}");
    assert_eq!(
        response.matches("HTTP/1.1 ").count(),
        1,
        "exactly one response: {response}"
    );
    let (head, body, rest) = split_response(&response);
    assert!(head.starts_with("HTTP/1.1 404 Not Found"), "{head}");
    assert!(head.contains("Connection: close"), "{head}");
    assert!(body.contains("unknown path"), "{body}");
    assert!(rest.is_empty(), "nothing after the 404: {rest:?}");

    front.stop();
    a.stop();
}

#[test]
fn http_keep_alive_serves_a_batch_then_the_fleet_health() {
    let a = start_shard(Duration::from_millis(1), 1, "a");
    let b = start_shard(Duration::from_millis(1), 1, "b");
    let shards = vec![
        ShardState::new(0, a.addr.to_string()),
        ShardState::new(1, b.addr.to_string()),
    ];
    let front = start_http_router(shards);

    let ids: Vec<String> = (0..2).map(|i| format!("ka-{i}")).collect();
    let batch: String = ids.iter().map(|id| record(id) + "\n").collect();
    let mut stream = TcpStream::connect(front.addr).unwrap();
    write!(
        stream,
        "POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{batch}\
         GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        batch.len()
    )
    .unwrap();
    let (response, closed) = read_until_close(&mut stream, Duration::from_secs(30));
    assert!(closed, "the probe asked for a close: {response}");

    let (head, body, rest) = split_response(&response);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    let lines: Vec<String> = body.lines().map(str::to_string).collect();
    let trailer = assert_ordered_batch(&lines, &ids);
    assert!(trailer.contains("\"records\": 2"), "{trailer}");

    let (head, body, rest) = split_response(rest);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(body.contains("\"role\": \"router\""), "{body}");
    assert!(body.contains("\"shards\": 2"), "{body}");
    assert!(rest.is_empty(), "{rest:?}");

    let report = front.stop();
    assert_eq!(report.connections, 1);
    assert_eq!(report.records, 2);
    a.stop();
    b.stop();
}

/// Holds its worker until `release` is set (or its token is cut).
struct Latch {
    release: Arc<AtomicBool>,
}

impl Scheduler for Latch {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("Latch")
    }

    fn schedule_with(
        &self,
        inst: &Instance,
        cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        while !self.release.load(Ordering::SeqCst) && !cancel.is_cancelled() {
            std::thread::sleep(Duration::from_millis(1));
        }
        FirstFit::paper().schedule_with(inst, &CancelToken::never())
    }
}

/// Writes `make(0)`, `make(1)`, … as lines, reading nothing, until a
/// write would block for half a second (the server stopped reading, not
/// just fell behind) or more than `cap` bytes went in. Returns the bytes
/// that went in, the records begun, and the unwritten tail of the last
/// one; the socket's write timeout is cleared again.
fn write_until_blocked(
    stream: &TcpStream,
    cap: usize,
    make: impl Fn(usize) -> String,
) -> (usize, usize, Vec<u8>) {
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let (mut sent, mut records, mut tail) = (0, 0, Vec::new());
    while sent <= cap {
        if tail.is_empty() {
            tail = (make(records) + "\n").into_bytes();
            records += 1;
        }
        match (&*stream).write(&tail) {
            Ok(n) => {
                sent += n;
                tail.drain(..n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) => panic!("write failed: {e}"),
        }
    }
    stream.set_write_timeout(None).unwrap();
    (sent, records, tail)
}

/// A shard that stops reading stops the router reading its client: the
/// only shard's only worker is held, so its own input gate closes, the
/// router's unwritten requests reach their bound, and a client that reads
/// nothing hits `WouldBlock` within a bound. Once the hold ends every
/// record that went in is answered once, in order.
#[test]
fn a_shard_that_stops_reading_stops_the_router_reading_its_client() {
    let release = Arc::new(AtomicBool::new(false));
    let mut registry = SolverRegistry::with_defaults();
    let latch = Arc::clone(&release);
    registry.register(
        "latch",
        "holds a worker until released (test stub)",
        None,
        Box::new(move |_| {
            Box::new(Latch {
                release: latch.clone(),
            })
        }),
    );
    let shard = start_shard_with(registry, 1, "held");
    let front = start_router(
        vec![ShardState::new(0, shard.addr.to_string())],
        quiet_route_config(),
    );
    let mut client = Client::connect(front.addr);
    // a small record padded with trailing blanks to 4 KiB, so megabytes
    // of input are a few thousand records
    let make = |i: usize| match i {
        0 => r#"{"id": "r-0", "instance": {"g": 2, "jobs": [[0, 4]]}, "solver": "latch"}"#.into(),
        i => format!(
            r#"{{"id": "r-{i}", "instance": {{"g": 2, "jobs": [[0, 4], [1, 5]]}}}}{:4000}"#,
            ""
        ),
    };
    let cap = 32 << 20;
    let (sent, records, tail) = write_until_blocked(&client.stream, cap, make);
    release.store(true, Ordering::SeqCst);
    assert!(
        sent <= cap,
        "{sent} bytes went in without the socket blocking"
    );

    let mut writer = client.stream.try_clone().unwrap();
    let finisher = std::thread::spawn(move || {
        writer.write_all(&tail).unwrap();
        writer.shutdown(Shutdown::Write).unwrap();
    });
    let lines = client.read_to_end();
    finisher.join().unwrap();
    let ids: Vec<String> = (0..records).map(|i| format!("r-{i}")).collect();
    let trailer = assert_ordered_batch(&lines, &ids);
    assert!(
        trailer.contains(&format!("\"records\": {records},")),
        "{trailer}"
    );
    let report = front.stop();
    assert_eq!((report.records, report.failed), (records, 0));
    shard.stop();
}
