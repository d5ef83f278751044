//! Integration coverage of the socket front-end: concurrent NDJSON
//! connections with per-connection in-order responses, the HTTP mode (its
//! JSON error bodies, and whole-request framing of a body past the input
//! bound), a connection killed mid-batch, deadlines over the wire,
//! capacity rejection, executor saturation (the process-wide worker
//! budget), and graceful shutdown drain.

use std::borrow::Cow;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use busytime_core::algo::{FirstFit, Scheduler, SchedulerError};
use busytime_core::cancel::CancelToken;
use busytime_core::pool::Executor;
use busytime_core::solve::SolverRegistry;
use busytime_core::{Instance, Schedule};
use busytime_instances::json::{self, Value};
use busytime_server::{
    parse_output_line, ConnLog, ErrorPolicy, ListenConfig, ListenMode, ListenReport, Listener,
    OutputLine, ServeConfig,
};

/// A listener running on a background thread, on an ephemeral port.
struct Server {
    addr: SocketAddr,
    shutdown: CancelToken,
    handle: std::thread::JoinHandle<std::io::Result<ListenReport>>,
}

fn quiet_config() -> ListenConfig {
    ListenConfig {
        log: ConnLog::Quiet,
        ..ListenConfig::default()
    }
}

fn start(mode: fn(String) -> ListenMode, config: ListenConfig) -> Server {
    let mode = mode("127.0.0.1:0".to_string());
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

/// [`start`] with a custom registry and a pinned executor — the harness
/// for the process-wide-budget tests.
fn start_on(executor: Executor, registry: SolverRegistry, config: ListenConfig) -> Server {
    let mode = ListenMode::Tcp("127.0.0.1:0".to_string());
    let listener = Listener::bind(&mode, Arc::new(registry), config)
        .unwrap()
        .executor(executor);
    let addr = listener.local_addr().unwrap();
    let shutdown = listener.shutdown_token();
    let handle = std::thread::spawn(move || listener.run());
    Server {
        addr,
        shutdown,
        handle,
    }
}

/// A solver that holds its worker for `hold` (polling its token, so a
/// drain cuts it early) while counting how many of itself run at once —
/// the probe for the process-wide worker budget.
struct Gate {
    live: Arc<AtomicUsize>,
    peak: Arc<AtomicUsize>,
    hold: Duration,
}

impl Scheduler for Gate {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("Gate")
    }

    fn schedule_with(
        &self,
        inst: &Instance,
        cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        let started = Instant::now();
        while started.elapsed() < self.hold && !cancel.is_cancelled() {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.live.fetch_sub(1, Ordering::SeqCst);
        FirstFit::paper().schedule_with(inst, &CancelToken::never())
    }
}

fn gate_registry(
    live: &Arc<AtomicUsize>,
    peak: &Arc<AtomicUsize>,
    hold: Duration,
) -> SolverRegistry {
    let mut registry = SolverRegistry::with_defaults();
    let live = Arc::clone(live);
    let peak = Arc::clone(peak);
    registry.register(
        "gate",
        "holds a worker, counting concurrency (test stub)",
        None,
        Box::new(move |_| {
            Box::new(Gate {
                live: live.clone(),
                peak: peak.clone(),
                hold,
            })
        }),
    );
    registry
}

fn gate_record(id: &str) -> String {
    format!(
        r#"{{"id": "{id}", "instance": {{"g": 2, "jobs": [[0, 4], [1, 5]]}}, "solver": "gate"}}"#
    )
}

impl Server {
    fn stop(self) -> ListenReport {
        self.shutdown.cancel();
        self.handle.join().unwrap().unwrap()
    }
}

/// One NDJSON client connection with blocking line reads (generous
/// timeout so a hung server fails the test instead of wedging it).
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

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "connection closed before expected line");
        line.trim_end().to_string()
    }

    /// Half-close the write side; the server answers the batch, appends
    /// its summary line, and closes.
    fn finish(&mut self) {
        self.stream.shutdown(Shutdown::Write).unwrap();
    }

    fn read_to_end(&mut self) -> Vec<String> {
        let mut rest = String::new();
        self.reader.read_to_string(&mut rest).unwrap();
        rest.lines().map(str::to_string).collect()
    }
}

fn record(id: &str) -> String {
    format!(r#"{{"id": "{id}", "instance": {{"g": 2, "jobs": [[0, 4], [1, 5]]}}}}"#)
}

fn assert_report_id(line: &str, want: &str) {
    match parse_output_line(line).unwrap() {
        OutputLine::Report { id, .. } => assert_eq!(id.as_deref(), Some(want), "{line}"),
        other => panic!("expected report line for {want}, got {other:?}"),
    }
}

#[test]
fn concurrent_connections_get_interleaved_in_order_service() {
    let server = start(ListenMode::Tcp, quiet_config());
    let mut a = Client::connect(server.addr);
    let mut b = Client::connect(server.addr);

    // both connections are live at once and get served without closing:
    // the sessions flush partial chunks on their read-timeout polls
    a.send(&record("a-1"));
    a.send(&record("a-2"));
    b.send(&record("b-1"));
    assert_report_id(&a.read_line(), "a-1");
    assert_report_id(&a.read_line(), "a-2");
    assert_report_id(&b.read_line(), "b-1");

    // interleave another round the other way
    b.send(&record("b-2"));
    a.send(&record("a-3"));
    assert_report_id(&b.read_line(), "b-2");
    assert_report_id(&a.read_line(), "a-3");

    // per-connection summary trailers count each connection's own batch
    a.finish();
    let a_rest = a.read_to_end();
    assert_eq!(a_rest.len(), 1, "exactly the summary after half-close");
    assert!(a_rest[0].contains("\"records\": 3"), "{}", a_rest[0]);
    b.finish();
    let b_rest = b.read_to_end();
    assert!(b_rest[0].contains("\"records\": 2"), "{}", b_rest[0]);

    let report = server.stop();
    assert_eq!(report.connections, 2);
    assert_eq!(report.records, 5);
    assert_eq!(report.solved, 5);
    assert_eq!(report.rejected, 0);
}

#[test]
fn responses_stay_in_input_order_within_a_connection() {
    let server = start(ListenMode::Tcp, quiet_config());
    let mut client = Client::connect(server.addr);
    for i in 0..40 {
        client.send(&record(&format!("r-{i}")));
    }
    client.finish();
    let lines = client.read_to_end();
    assert_eq!(lines.len(), 41, "40 responses + summary");
    for (i, line) in lines[..40].iter().enumerate() {
        let parsed = parse_output_line(line).unwrap();
        assert_eq!(parsed.line(), i + 1, "{line}");
        assert_report_id(line, &format!("r-{i}"));
    }
    server.stop();
}

#[test]
fn http_solve_round_trip_and_healthz() {
    let server = start(ListenMode::Http, quiet_config());

    // POST /solve: NDJSON body in, response lines + summary out
    let body = format!("{}\n{}\n", record("h-1"), record("h-2"));
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "POST /solve HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, payload) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("application/x-ndjson"), "{head}");
    let lines: Vec<&str> = payload.lines().collect();
    assert_eq!(lines.len(), 3, "2 responses + summary: {payload}");
    assert_report_id(lines[0], "h-1");
    assert_report_id(lines[1], "h-2");
    assert!(lines[2].contains("\"records\": 2"), "{}", lines[2]);

    // GET /healthz answers a liveness probe
    let mut probe = TcpStream::connect(server.addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        probe,
        "GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut health = String::new();
    probe.read_to_string(&mut health).unwrap();
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.contains("\"status\": \"ok\""), "{health}");
    // the probe reports solution-cache effectiveness: h-1 filled an entry,
    // the identical h-2 (same body) was a lookup
    assert!(
        health.contains("\"solution_cache\": {\"entries\": 1"),
        "{health}"
    );
    assert!(health.contains("\"warm_starts\": 0"), "{health}");

    // unknown paths answer 404 without wedging the server
    let mut lost = TcpStream::connect(server.addr).unwrap();
    lost.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(lost, "GET /nope HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut missing = String::new();
    lost.read_to_string(&mut missing).unwrap();
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    let report = server.stop();
    assert_eq!(report.records, 2);
    assert_eq!(report.solved, 2);
}

#[test]
fn solution_cache_serves_repeats_across_connections() {
    let server = start(ListenMode::Tcp, quiet_config());

    // first connection: a fresh solve fills the shared solution cache
    let mut warm = Client::connect(server.addr);
    warm.send(&record("fill"));
    warm.finish();
    let lines = warm.read_to_end();
    assert!(lines[0].contains("\"cached\": false"), "{}", lines[0]);
    let trailer = lines.last().unwrap();
    assert!(trailer.contains("\"solution_cache_hits\": 0"), "{trailer}");
    assert!(
        trailer.contains("\"solution_cache_misses\": 1"),
        "{trailer}"
    );

    // second connection, same instance: answered from the cache
    let mut repeat = Client::connect(server.addr);
    repeat.send(&record("hit"));
    repeat.finish();
    let lines = repeat.read_to_end();
    assert!(lines[0].contains("\"cached\": true"), "{}", lines[0]);
    assert_report_id(&lines[0], "hit");
    let trailer = lines.last().unwrap();
    assert!(trailer.contains("\"solution_cache_hits\": 1"), "{trailer}");
    assert!(
        trailer.contains("\"solution_cache_misses\": 0"),
        "{trailer}"
    );

    // a record opting out still solves fresh on a warm cache
    let mut opt_out = Client::connect(server.addr);
    opt_out
        .send(r#"{"id": "off", "instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}, "cache": "off"}"#);
    opt_out.finish();
    let lines = opt_out.read_to_end();
    assert!(lines[0].contains("\"cached\": false"), "{}", lines[0]);

    server.stop();
}

#[test]
fn killed_connection_leaves_the_server_serving_others() {
    let server = start(ListenMode::Tcp, quiet_config());

    // the victim sends a record plus a partial line, then vanishes
    // without half-closing — the server must not let that take anything
    // else down
    {
        let mut victim = Client::connect(server.addr);
        victim.send(&record("doomed"));
        victim
            .stream
            .write_all(br#"{"id": "torn", "instance"#)
            .unwrap();
        victim.stream.flush().unwrap();
        // dropped here: full close, mid-batch
    }

    let mut survivor = Client::connect(server.addr);
    survivor.send(&record("alive"));
    assert_report_id(&survivor.read_line(), "alive");
    survivor.finish();
    let rest = survivor.read_to_end();
    assert!(rest[0].contains("\"records\": 1"), "{}", rest[0]);

    let report = server.stop();
    assert_eq!(report.connections, 2, "the killed connection still counts");
    assert!(report.solved >= 1);
}

#[test]
fn deadline_ms_is_honored_over_the_socket() {
    let server = start(ListenMode::Tcp, quiet_config());
    let mut client = Client::connect(server.addr);
    client
        .send(r#"{"id": "cut", "instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}, "deadline_ms": 0}"#);
    client.send(&record("free"));
    client.finish();
    let lines = client.read_to_end();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"deadline_hit\": true"), "{}", lines[0]);
    assert!(lines[1].contains("\"deadline_hit\": false"), "{}", lines[1]);
    assert!(lines[2].contains("\"deadline_hits\": 1"), "{}", lines[2]);

    let report = server.stop();
    assert_eq!(report.deadline_hits, 1);
}

#[test]
fn capacity_cap_rejects_politely() {
    let config = ListenConfig {
        max_conns: 1,
        ..quiet_config()
    };
    let server = start(ListenMode::Tcp, config);

    // occupy the single slot (a served record proves the slot is active)
    let mut holder = Client::connect(server.addr);
    holder.send(&record("held"));
    assert_report_id(&holder.read_line(), "held");

    // the second connection is answered with a structured error and closed
    let mut refused = Client::connect(server.addr);
    let line = refused.read_line();
    assert!(line.contains("\"ok\": false"), "{line}");
    assert!(line.contains("capacity"), "{line}");
    assert!(refused.read_to_end().is_empty());

    holder.finish();
    let rest = holder.read_to_end();
    assert!(rest[0].contains("\"records\": 1"), "{}", rest[0]);

    let report = server.stop();
    assert_eq!(report.connections, 1);
    assert_eq!(report.rejected, 1);
}

#[test]
fn shutdown_drains_an_inflight_connection() {
    let server = start(ListenMode::Tcp, quiet_config());
    let mut client = Client::connect(server.addr);
    client.send(&record("draining"));
    // the record is answered via the partial-chunk flush even though the
    // client never half-closes...
    assert_report_id(&client.read_line(), "draining");
    // ...and shutdown makes the open connection summarize and close
    server.shutdown.cancel();
    let rest = client.read_to_end();
    assert_eq!(rest.len(), 1, "summary then EOF: {rest:?}");
    assert!(rest[0].contains("\"records\": 1"), "{}", rest[0]);

    let report = server.handle.join().unwrap().unwrap();
    assert_eq!(report.connections, 1);
    assert_eq!(report.records, 1);
}

#[test]
fn pending_records_flush_even_with_a_partial_line_buffered() {
    // regression: a complete record followed by the *start* of the next
    // one in the same burst must not block the first record's response —
    // the partial line is carried while the pending chunk dispatches
    let server = start(ListenMode::Tcp, quiet_config());
    let mut client = Client::connect(server.addr);
    client
        .stream
        .write_all(format!("{}\n{{\"id\": \"torn", record("whole")).as_bytes())
        .unwrap();
    client.stream.flush().unwrap();
    assert_report_id(&client.read_line(), "whole");

    // ...and the carried fragment still completes into a served record
    client
        .stream
        .write_all(b"\", \"instance\": {\"g\": 2, \"jobs\": [[0, 3]]}}\n")
        .unwrap();
    client.stream.flush().unwrap();
    assert_report_id(&client.read_line(), "torn");
    client.finish();
    let rest = client.read_to_end();
    assert!(rest[0].contains("\"records\": 2"), "{}", rest[0]);
    server.stop();
}

#[test]
fn silent_connection_is_cut_by_the_conn_idle_timeout() {
    let config = ListenConfig {
        conn_idle_timeout: Some(Duration::from_millis(150)),
        ..quiet_config()
    };
    let server = start(ListenMode::Tcp, config);
    let mut mute = Client::connect(server.addr);
    // send nothing at all: the idle cut must treat this as end-of-batch,
    // summarize zero records and free the capacity slot
    let lines = mute.read_to_end();
    assert_eq!(lines.len(), 1, "empty summary then EOF: {lines:?}");
    assert!(lines[0].contains("\"records\": 0"), "{}", lines[0]);

    // the slot is free again: a real client still gets served
    let mut live = Client::connect(server.addr);
    live.send(&record("after"));
    assert_report_id(&live.read_line(), "after");
    live.finish();
    live.read_to_end();

    let report = server.stop();
    assert_eq!(report.connections, 2);
}

#[test]
fn http_keep_alive_survives_a_probe_with_a_body() {
    let server = start(ListenMode::Http, quiet_config());
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // a GET with a body is unusual but legal; the server must drain it so
    // the follow-up request on the same connection parses cleanly
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\nblobGET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut both = String::new();
    stream.read_to_string(&mut both).unwrap();
    let ok_count = both.matches("HTTP/1.1 200 OK").count();
    assert_eq!(
        ok_count, 2,
        "both keep-alive requests must answer 200: {both}"
    );
    server.stop();
}

/// A FailFast `POST /solve` answers 422 with a JSON error body whatever
/// characters the failed record's id holds.
#[test]
fn fail_fast_http_error_body_is_json() {
    let config = ListenConfig {
        serve: ServeConfig {
            error_policy: ErrorPolicy::FailFast,
            ..ServeConfig::default()
        },
        ..quiet_config()
    };
    let server = start(ListenMode::Http, config);
    let body = r#"{"id": "a\u0001b", "instance": {"g": 2, "jobs": [[0, 4]]}, "solver": "martian"}"#;
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, payload) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 422"), "{head}");
    let value = json::parse(payload.trim()).unwrap_or_else(|e| panic!("{payload}: {e:?}"));
    let error = value.get("error").and_then(Value::as_str);
    assert!(error.is_some_and(|e| e.contains("id a\u{1}b")), "{payload}");
    server.stop();
}

/// A `POST /solve` body past the input bound is read whole: the gate
/// counts only the bytes beyond the request being collected. A request
/// pipelined behind it is answered after it.
#[test]
fn a_large_http_body_is_exempt_from_the_input_gate() {
    let server = start(ListenMode::Http, quiet_config());
    let ids: Vec<String> = (0..256).map(|i| format!("big-{i}")).collect();
    let body: String = ids.iter().map(|id| padded_record(id) + "\n").collect();
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // a gate that counted the body would stop reading it for good
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    for piece in body.as_bytes().chunks(4096) {
        stream.write_all(piece).unwrap();
    }
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();

    let (head, rest) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .expect("a Content-Length header")
        .parse()
        .unwrap();
    let (payload, health) = rest.split_at(length);
    let lines: Vec<&str> = payload.lines().collect();
    assert_eq!(
        lines.len(),
        ids.len() + 1,
        "one answer per record + summary"
    );
    for (i, line) in lines[..ids.len()].iter().enumerate() {
        assert_eq!(parse_output_line(line).unwrap().line(), i + 1, "{line}");
        assert_report_id(line, &ids[i]);
    }
    let trailer = lines[ids.len()];
    assert!(trailer.contains("\"records\": 256,"), "{trailer}");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.contains("\"status\": \"ok\""), "{health}");
    server.stop();
}

#[test]
fn oversized_http_head_is_rejected_not_buffered() {
    let server = start(ListenMode::Http, quiet_config());
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // a newline-free flood: the head cap must cut it off rather than
    // buffering the stream without bound
    let flood = vec![b'x'; 64 * 1024];
    // the server may close mid-send once the cap trips; that's the point
    let _ = stream.write_all(&flood);
    let _ = stream.flush();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 400") && response.contains("too large"),
        "{response}"
    );
    server.stop();
}

#[test]
fn idle_timeout_stops_a_quiet_listener() {
    let config = ListenConfig {
        idle_timeout: Some(Duration::from_millis(120)),
        ..quiet_config()
    };
    let server = start(ListenMode::Tcp, config);
    // one served connection resets the idle clock; after it closes the
    // listener winds itself down without any shutdown signal
    let mut client = Client::connect(server.addr);
    client.send(&record("only"));
    client.finish();
    let lines = client.read_to_end();
    assert_eq!(lines.len(), 2);
    let report = server.handle.join().unwrap().unwrap();
    assert_eq!(report.connections, 1);
}

#[test]
fn executor_caps_process_wide_parallelism_across_connections() {
    // more connections than workers: a pinned 2-worker executor must
    // bound *total* live solver threads at 2 no matter how many
    // connections are in flight, while every connection still gets its
    // responses in input order
    let live = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let registry = gate_registry(&live, &peak, Duration::from_millis(40));
    let server = start_on(Executor::new(2), registry, quiet_config());

    let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(server.addr)).collect();
    for (c, client) in clients.iter_mut().enumerate() {
        for r in 0..3 {
            client.send(&gate_record(&format!("c{c}-r{r}")));
        }
        client.finish();
    }
    for (c, client) in clients.iter_mut().enumerate() {
        let lines = client.read_to_end();
        assert_eq!(lines.len(), 4, "3 responses + summary: {lines:?}");
        for (r, line) in lines[..3].iter().enumerate() {
            assert_report_id(line, &format!("c{c}-r{r}"));
        }
        assert!(lines[3].contains("\"records\": 3"), "{}", lines[3]);
    }
    assert!(
        peak.load(Ordering::SeqCst) <= 2,
        "2-worker budget ran {} solves at once",
        peak.load(Ordering::SeqCst)
    );
    assert_eq!(live.load(Ordering::SeqCst), 0);

    let report = server.stop();
    assert_eq!(report.connections, 4);
    assert_eq!(report.records, 12);
    assert_eq!(report.solved, 12);
}

#[test]
fn shutdown_drain_cuts_records_still_queued_on_the_executor() {
    // a single worker and a batch of slow records: once the first solve
    // is on the worker, SIGINT-style shutdown must cut it cooperatively
    // and poison the tokens of the records still queued, so the whole
    // batch answers promptly (flagged) instead of waiting out every hold
    let live = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    // 2 s per record uncancelled — six of them would hold the drain for
    // 12 s; the cut must finish far inside that
    let registry = gate_registry(&live, &peak, Duration::from_secs(2));
    let server = start_on(Executor::new(1), registry, quiet_config());

    let mut client = Client::connect(server.addr);
    for r in 0..6 {
        client.send(&gate_record(&format!("q-{r}")));
    }
    let started = Instant::now();
    // wait until the first record is actually on the worker, then drain
    while live.load(Ordering::SeqCst) == 0 && started.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(live.load(Ordering::SeqCst) > 0, "no solve ever started");
    server.shutdown.cancel();

    let lines = client.read_to_end();
    let drained_in = started.elapsed();
    assert_eq!(lines.len(), 7, "6 responses + summary: {lines:?}");
    for (r, line) in lines[..6].iter().enumerate() {
        assert_report_id(line, &format!("q-{r}"));
        assert!(
            line.contains("\"deadline_hit\": true"),
            "record q-{r} must answer as cut: {line}"
        );
    }
    assert!(lines[6].contains("\"records\": 6"), "{}", lines[6]);
    assert!(
        drained_in < Duration::from_secs(8),
        "drain took {drained_in:?}; queued records were not cut"
    );

    let report = server.handle.join().unwrap().unwrap();
    assert_eq!(report.connections, 1);
    assert_eq!(report.records, 6);
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip_and_cleanup() {
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!(
        "busytime-listener-test-{}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let registry = Arc::new(SolverRegistry::with_defaults());
    let listener =
        Listener::bind(&ListenMode::Unix(path.clone()), registry, quiet_config()).unwrap();
    assert!(listener.local_addr().is_none());
    assert_eq!(listener.endpoint(), format!("unix://{}", path.display()));
    let shutdown = listener.shutdown_token();
    let handle = std::thread::spawn(move || listener.run());

    let mut stream = UnixStream::connect(&path).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(record("ux").as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let lines: Vec<&str> = response.lines().collect();
    assert_eq!(lines.len(), 2);
    assert_report_id(lines[0], "ux");
    assert!(lines[1].contains("\"records\": 1"), "{}", lines[1]);

    shutdown.cancel();
    let report = handle.join().unwrap().unwrap();
    assert_eq!(report.connections, 1);
    assert!(
        !path.exists(),
        "socket path must be removed on clean shutdown"
    );
}

/// Kernel-reported thread count of this test process.
#[cfg(target_os = "linux")]
fn os_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

/// A connect flood far past `--max-conns` answers every extra connection
/// with a structured rejection without spawning a single thread: the
/// rejections are prefilled outboxes flushed by the reactors themselves.
#[cfg(target_os = "linux")]
#[test]
fn rejection_flood_spawns_no_threads() {
    let config = ListenConfig {
        max_conns: 4,
        ..quiet_config()
    };
    let server = start(ListenMode::Tcp, config);

    // fill the four slots (a served record proves each slot is active)
    let mut holders: Vec<Client> = (0..4).map(|_| Client::connect(server.addr)).collect();
    for (i, holder) in holders.iter_mut().enumerate() {
        holder.send(&record(&format!("hold-{i}")));
        assert_report_id(&holder.read_line(), &format!("hold-{i}"));
    }

    let before = os_thread_count();
    let flood: Vec<Client> = (0..100).map(|_| Client::connect(server.addr)).collect();
    // let the reactor accept and reject the whole flood, then sample the
    // thread count while all 100 rejections are (or were) in flight
    std::thread::sleep(Duration::from_millis(150));
    let during = os_thread_count();
    assert!(
        during <= before + 2,
        "rejections must not cost threads: {before} before the flood, {during} during \
         (thread-per-rejection would add dozens)"
    );

    for mut refused in flood {
        let line = refused.read_line();
        assert!(line.contains("\"ok\": false"), "{line}");
        assert!(line.contains("capacity"), "{line}");
        assert!(refused.read_to_end().is_empty(), "error line then EOF");
    }

    for holder in &mut holders {
        holder.finish();
        let rest = holder.read_to_end();
        assert!(rest[0].contains("\"records\": 1"), "{}", rest[0]);
    }
    let report = server.stop();
    assert_eq!(report.connections, 4);
    assert_eq!(report.rejected, 100);
}

/// Clamps a socket's kernel receive buffer (disabling autotuning, which
/// on loopback balloons into the tens of megabytes and would absorb any
/// realistic response volume before back-pressure could bite).
#[cfg(target_os = "linux")]
fn clamp_recv_buffer(stream: &std::net::TcpStream, bytes: i32) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            &bytes as *const i32 as *const std::ffi::c_void,
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
}

/// A client that stops reading caps its per-connection outbox and gets
/// its socket reads suspended — without wedging the executor or any
/// other connection — and still receives every response, in order, once
/// it resumes.
#[cfg(target_os = "linux")]
#[test]
fn slow_reader_backpressure_suspends_reads_not_the_executor() {
    let config = ListenConfig { ..quiet_config() };
    let server = start(ListenMode::Tcp, config);

    // pre-warm the shared solution cache with the one instance the flood
    // uses, so the flood's responses come at lookup speed, not solve speed
    let warm_record = r#"{"id": "warm", "generator": {"family": "uniform", "n": 2500, "g": 4, "seed": 7}, "solver": "first-fit"}"#;
    let mut warm = Client::connect(server.addr);
    warm.send(warm_record);
    assert_report_id(&warm.read_line(), "warm");
    warm.finish();
    warm.read_to_end();

    // tiny generator records with 2500-entry assignments: ~6 MB of
    // responses against a clamped ~16 KiB receive buffer (every record
    // is a solution-cache hit, so the responses pile up far faster than
    // the stalled client drains them)
    let mut slow = Client::connect(server.addr);
    clamp_recv_buffer(&slow.stream, 16 * 1024);
    for i in 0..720 {
        slow.send(&format!(
            r#"{{"id": "big-{i}", "generator": {{"family": "uniform", "n": 2500, "g": 4, "seed": 7}}, "solver": "first-fit"}}"#
        ));
    }
    slow.finish();
    // ...and deliberately read nothing yet

    // the stalled connection must not block the executor: fresh
    // connections keep getting solved end to end
    for i in 0..3 {
        let mut brisk = Client::connect(server.addr);
        brisk.send(&record(&format!("brisk-{i}")));
        assert_report_id(&brisk.read_line(), &format!("brisk-{i}"));
        brisk.finish();
        brisk.read_to_end();
    }

    // the healthz gauges see the parked bytes once the kernel buffers
    // fill (solve speed varies wildly across build profiles, so poll)
    let deadline = Instant::now() + Duration::from_secs(60);
    let snapshot = loop {
        let mut probe = Client::connect(server.addr);
        probe
            .stream
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        probe.reader.read_to_string(&mut response).unwrap();
        let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
        let snapshot = busytime_server::parse_healthz(body).unwrap();
        if snapshot.outbox_bytes > 0 || Instant::now() >= deadline {
            break snapshot;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(
        snapshot.outbox_bytes > 0,
        "responses must be parked in the outbox while the client stalls: {snapshot:?}"
    );
    assert!(snapshot.io_threads > 0, "{snapshot:?}");
    assert!(snapshot.open_connections > 0, "{snapshot:?}");

    // resume reading: all 720 responses arrive, in input order, then the
    // summary trailer — nothing was dropped under back-pressure
    let lines = slow.read_to_end();
    assert_eq!(lines.len(), 721, "720 responses + summary");
    for (i, line) in lines[..720].iter().enumerate() {
        assert_report_id(line, &format!("big-{i}"));
    }
    assert!(lines[720].contains("\"records\": 720"), "{}", lines[720]);

    let report = server.stop();
    assert_eq!(report.connections, 5);
    assert_eq!(report.records, 724);
    assert!(report.health_probes >= 1, "{report:?}");
}

/// The `/healthz` pool gauges come from one coherent executor snapshot:
/// no scrape may ever report more busy workers than the pool has, even
/// while solves grab and release workers under the probe — and the gauges
/// must actually move while solvers hold workers (a snapshot that always
/// reads zero would pass the clamp vacuously).
#[test]
fn healthz_pool_gauges_stay_clamped_under_load() {
    let live = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let registry = gate_registry(&live, &peak, Duration::from_millis(400));
    let server = start_on(Executor::new(2), registry, quiet_config());

    let mut client = Client::connect(server.addr);
    for i in 0..6 {
        client.send(&gate_record(&format!("g-{i}")));
    }
    client.finish();

    let mut saw_busy = false;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let mut probe = Client::connect(server.addr);
        probe
            .stream
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        probe.reader.read_to_string(&mut response).unwrap();
        let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
        let snapshot = busytime_server::parse_healthz(body).unwrap();
        assert_eq!(snapshot.workers, 2, "{snapshot:?}");
        assert!(
            snapshot.busy_workers <= snapshot.workers,
            "scrape reported more busy workers than exist: {snapshot:?}"
        );
        saw_busy |= snapshot.busy_workers > 0;
        if saw_busy && live.load(Ordering::SeqCst) == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(saw_busy, "no scrape caught the pool busy");

    let lines = client.read_to_end();
    assert_eq!(lines.len(), 7, "6 responses + summary");
    server.stop();
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

/// The default registry plus a `latch` solver released by `release`.
fn latch_registry(release: &Arc<AtomicBool>) -> SolverRegistry {
    let mut registry = SolverRegistry::with_defaults();
    let release = Arc::clone(release);
    registry.register(
        "latch",
        "holds a worker until released (test stub)",
        None,
        Box::new(move |_| {
            Box::new(Latch {
                release: release.clone(),
            })
        }),
    );
    registry
}

/// A small record padded with trailing blanks to 4 KiB, so megabytes of
/// input are a few thousand records.
fn padded_record(id: &str) -> String {
    format!("{:<4095}", record(id))
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

/// A client that writes records faster than they are answered stops being
/// read: behind one record that holds the only worker, a writer that
/// reads nothing hits `WouldBlock` within a bound, and once the hold ends
/// every record that went in is answered once, in order.
#[test]
fn a_writer_behind_a_held_worker_is_stopped_not_buffered() {
    let release = Arc::new(AtomicBool::new(false));
    let registry = latch_registry(&release);
    let server = start_on(Executor::new(1), registry, quiet_config());
    let mut client = Client::connect(server.addr);
    let make = |i: usize| match i {
        0 => r#"{"id": "r-0", "instance": {"g": 2, "jobs": [[0, 4]]}, "solver": "latch"}"#.into(),
        i => padded_record(&format!("r-{i}")),
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
    assert_eq!(lines.len(), records + 1, "one answer per record + summary");
    for (i, line) in lines[..records].iter().enumerate() {
        assert_report_id(line, &format!("r-{i}"));
    }
    let trailer = &lines[records];
    assert!(
        trailer.contains(&format!("\"records\": {records},")),
        "{trailer}"
    );
    server.stop();
}

/// Pipelined HTTP requests wait behind a `POST /solve` that is still
/// answering, within the same bound: the server stops reading them.
#[test]
fn pipelined_http_bytes_behind_a_held_solve_are_bounded() {
    let release = Arc::new(AtomicBool::new(false));
    let registry = latch_registry(&release);
    let mode = ListenMode::Http("127.0.0.1:0".to_string());
    let listener = Listener::bind(&mode, Arc::new(registry), quiet_config())
        .unwrap()
        .executor(Executor::new(1));
    let server = Server {
        addr: listener.local_addr().unwrap(),
        shutdown: listener.shutdown_token(),
        handle: std::thread::spawn(move || listener.run()),
    };
    let mut client = Client::connect(server.addr);
    let body = r#"{"id": "held", "instance": {"g": 2, "jobs": [[0, 4]]}, "solver": "latch"}"#;
    write!(
        client.stream,
        "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    // garbage where the next request head should be: the connection ends
    // with a 400 once the solve has answered
    let cap = 32 << 20;
    let (sent, _, _) = write_until_blocked(&client.stream, cap, |_| "x".repeat(4095));
    release.store(true, Ordering::SeqCst);
    assert!(
        sent <= cap,
        "{sent} bytes went in without the socket blocking"
    );
    client.finish();
    let mut response = String::new();
    client.reader.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("\"id\": \"held\""), "{response}");
    server.stop();
}
