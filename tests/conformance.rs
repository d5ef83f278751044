//! Conformance across entry points: one corpus through a direct
//! `SolveRequest` per record, the library `serve`, an in-process `Listener`
//! over TCP, a Unix socket and HTTP `POST /solve`, and a `Router` over TCP
//! and HTTP in front of two in-process shards must produce the same
//! response bytes (timing fields dropped) and the same trailer counts.
//!
//! Every instance in the corpus is distinct, so no answer depends on how
//! the listener's reads happen to split the input into waves: each solve
//! is one cache miss on every path.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use busytime::core::solve::{SolveOptions, SolveRequest};
use busytime::full_registry;
use busytime::instances::Family;
use busytime::router::{RouteConfig, Router, ShardState};
use busytime::server::protocol::report_line;
use busytime::server::{
    serve, BatchRecord, BatchSummary, ConnLog, ListenConfig, ListenMode, Listener, ServeConfig,
};

mod common;
use common::strip_host_dependent;

/// One record per generator family, a few inline instances, a malformed
/// and a blank line, a record cut by `deadline_ms: 0`, a 12-job `exact-bb`
/// record and a `cache: "off"` record.
fn corpus() -> String {
    let mut lines: Vec<String> = Family::all()
        .iter()
        .enumerate()
        .map(|(i, family)| {
            format!(
                r#"{{"id": "gen-{name}", "generator": {{"family": "{name}", "n": {n}, "g": 3, "seed": {seed}}}}}"#,
                name = family.name(),
                n = 20 + 4 * i,
                seed = 11 + i,
            )
        })
        .collect();
    lines.extend(
        [
            r#"{"id": "inline-a", "instance": {"g": 2, "jobs": [[0, 4], [1, 5], [6, 9]]}}"#,
            r#"{"id": "inline-b", "instance": {"g": 3, "jobs": [[0, 10], [2, 3], [2, 8], [5, 12], [9, 11]]}, "solver": "first-fit"}"#,
            "",
            r#"{"id": "broken", "instance": {"g": 2, "jobs": [[0, 4]"#,
            r#"{"id": "cut", "instance": {"g": 2, "jobs": [[0, 7], [3, 9]]}, "deadline_ms": 0}"#,
            r#"{"id": "exact", "instance": {"g": 3, "jobs": [[0, 5], [1, 6], [2, 8], [3, 7], [4, 9], [6, 11], [7, 12], [8, 14], [10, 13], [11, 16], [12, 17], [15, 18]]}, "solver": "exact-bb"}"#,
            r#"{"id": "uncached", "instance": {"g": 2, "jobs": [[0, 3], [2, 6], [5, 8], [7, 10]]}, "cache": "off"}"#,
        ]
        .map(String::from),
    );
    lines.join("\n") + "\n"
}

/// Starts an in-process listener in `mode` on an ephemeral port, runs
/// `exchange` against its address, then drains it.
fn with_listener(
    mode: ListenMode,
    exchange: impl FnOnce(std::net::SocketAddr) -> String,
) -> String {
    let config = ListenConfig {
        log: ConnLog::Quiet,
        ..ListenConfig::default()
    };
    let listener = Listener::bind(&mode, Arc::new(full_registry()), config).unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = listener.shutdown_token();
    let handle = std::thread::spawn(move || listener.run());
    let response = exchange(addr);
    shutdown.cancel();
    handle.join().unwrap().unwrap();
    response
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

/// Response lines plus the parsed trailer of a listener's answer.
fn split_trailer(body: &str) -> (Vec<String>, BatchSummary) {
    let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
    let trailer = lines.pop().expect("a trailer line");
    (lines, BatchSummary::from_json_line(&trailer).unwrap())
}

/// The trailer fields that must agree across entry points.
fn counts(s: &BatchSummary) -> [i64; 8] {
    [
        s.records as i64,
        s.solved as i64,
        s.errors as i64,
        s.deadline_hits as i64,
        s.total_cost,
        s.total_lower_bound,
        s.solution_cache_hits as i64,
        s.solution_cache_misses as i64,
    ]
}

#[test]
fn serve_tcp_and_http_answer_with_the_same_bytes() {
    let input = corpus();

    let mut out = Vec::new();
    let summary = serve(
        input.as_bytes(),
        &mut out,
        &full_registry(),
        &ServeConfig::default(),
    )
    .unwrap();
    let served: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    // the corpus covers what it claims: one malformed line, one deadline
    // cut, a solved exact record, and no answer for the blank line
    assert_eq!(served.len(), Family::all().len() + 6);
    assert_eq!((summary.errors, summary.deadline_hits), (1, 1));
    assert!(served[served.len() - 2].contains("\"requested\": \"exact-bb\""));
    assert!(served[served.len() - 2].contains("\"ok\": true"));

    // the library answers every record that parses with the served bytes:
    // a direct `SolveRequest` under the record's solver, overrides and
    // deadline (`apply_overrides` carries `deadline_ms` as the deadline)
    let registry = full_registry();
    let records = input
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let mut compared = 0;
    for ((index, raw), served_line) in records.zip(&served) {
        let Ok(record) = BatchRecord::parse(raw) else {
            continue;
        };
        let inst = record.instance();
        let report = SolveRequest::new(&inst)
            .solver(record.solver.as_deref().unwrap_or("auto"))
            .options(record.apply_overrides(SolveOptions::default()))
            .solve_with(&registry)
            .expect("every corpus record that parses solves");
        let line = index + 1;
        let direct = report_line(line, record.id.as_deref(), &report);
        assert_eq!(
            strip_host_dependent(&direct),
            strip_host_dependent(served_line),
            "library answer differs from serve on line {line}"
        );
        compared += 1;
    }
    assert_eq!(
        compared,
        served.len() - 1,
        "every record but the malformed one"
    );

    let tcp = with_listener(ListenMode::Tcp("127.0.0.1:0".into()), |addr| {
        let mut stream = connect(addr);
        stream.write_all(input.as_bytes()).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        body
    });
    let http = with_listener(ListenMode::Http("127.0.0.1:0".into()), |addr| {
        let mut stream = connect(addr);
        write!(
            stream,
            "POST /solve HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{input}",
            input.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        body.to_string()
    });

    let expected: Vec<String> = served.iter().map(|l| strip_host_dependent(l)).collect();
    for (name, body) in [("tcp", &tcp), ("http", &http)] {
        let (lines, trailer) = split_trailer(body);
        let lines: Vec<String> = lines.iter().map(|l| strip_host_dependent(l)).collect();
        assert_eq!(lines, expected, "{name} response lines differ from serve");
        assert_eq!(
            counts(&trailer),
            counts(&summary),
            "{name} trailer counts differ from serve"
        );
    }
}

/// Sends `input` as one NDJSON batch over a TCP connection and returns
/// everything the server answers until it closes.
fn ndjson_over_tcp(addr: std::net::SocketAddr, input: &[u8]) -> String {
    let mut stream = connect(addr);
    stream.write_all(input).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();
    body
}

/// Sends `input` as one `POST /solve` and returns the response body.
fn http_solve(addr: std::net::SocketAddr, input: &str) -> String {
    let mut stream = connect(addr);
    write!(
        stream,
        "POST /solve HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{input}",
        input.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    body.to_string()
}

/// Starts a router in `mode` in front of two fresh in-process shards, runs
/// `exchange` against the router's address, then drains router and
/// shards. Fresh shards keep every solve a cache miss.
fn with_router(mode: ListenMode, exchange: impl FnOnce(std::net::SocketAddr) -> String) -> String {
    let config = ListenConfig {
        log: ConnLog::Quiet,
        ..ListenConfig::default()
    };
    let mut shards = Vec::new();
    let mut states = Vec::new();
    for index in 0..2 {
        let shard = Listener::bind(
            &ListenMode::Tcp("127.0.0.1:0".into()),
            Arc::new(full_registry()),
            config.clone(),
        )
        .unwrap();
        states.push(ShardState::new(
            index,
            shard.local_addr().unwrap().to_string(),
        ));
        let shutdown = shard.shutdown_token();
        shards.push((shutdown, std::thread::spawn(move || shard.run())));
    }
    let config = RouteConfig {
        quiet: true,
        ..RouteConfig::default()
    };
    let router = Router::bind(&mode, states, config).unwrap();
    let addr = router.local_addr().unwrap();
    let shutdown = router.shutdown_token();
    let handle = std::thread::spawn(move || router.run());
    let response = exchange(addr);
    shutdown.cancel();
    handle.join().unwrap().unwrap();
    for (shutdown, handle) in shards {
        shutdown.cancel();
        handle.join().unwrap().unwrap();
    }
    response
}

#[test]
fn route_and_unix_answer_with_the_same_bytes_as_serve() {
    let input = corpus();
    let mut out = Vec::new();
    let summary = serve(
        input.as_bytes(),
        &mut out,
        &full_registry(),
        &ServeConfig::default(),
    )
    .unwrap();
    let expected: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(strip_host_dependent)
        .collect();

    let mut bodies = vec![
        (
            "route over tcp",
            with_router(ListenMode::Tcp("127.0.0.1:0".into()), |addr| {
                ndjson_over_tcp(addr, input.as_bytes())
            }),
        ),
        (
            "route over http",
            with_router(ListenMode::Http("127.0.0.1:0".into()), |addr| {
                http_solve(addr, &input)
            }),
        ),
    ];
    #[cfg(unix)]
    {
        use std::os::unix::net::UnixStream;

        let path =
            std::env::temp_dir().join(format!("busytime-conformance-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = ListenConfig {
            log: ConnLog::Quiet,
            ..ListenConfig::default()
        };
        let listener = Listener::bind(
            &ListenMode::Unix(path.clone()),
            Arc::new(full_registry()),
            config,
        )
        .unwrap();
        let shutdown = listener.shutdown_token();
        let handle = std::thread::spawn(move || listener.run());
        let mut stream = UnixStream::connect(&path).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream.write_all(input.as_bytes()).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        shutdown.cancel();
        handle.join().unwrap().unwrap();
        bodies.push(("listen over unix", body));
    }

    for (name, body) in &bodies {
        let (lines, trailer) = split_trailer(body);
        let lines: Vec<String> = lines.iter().map(|l| strip_host_dependent(l)).collect();
        assert_eq!(lines, expected, "{name} response lines differ from serve");
        assert_eq!(
            counts(&trailer),
            counts(&summary),
            "{name} trailer counts differ from serve"
        );
    }
}

#[test]
fn hostile_bytes_answer_with_the_same_bytes_everywhere() {
    // a line that is not UTF-8, a record whose id holds a byte that is not
    // UTF-8, and a CRLF-terminated record: every entry point frames and
    // decodes them alike
    let mut input = b"\xff\xfe broken bytes\n".to_vec();
    input.extend_from_slice(
        b"{\"id\": \"caf\xc3\xa9\xff\", \"instance\": {\"g\": 2, \"jobs\": [[0, 4]]}}\n",
    );
    input.extend_from_slice(
        b"{\"id\": \"crlf\", \"instance\": {\"g\": 2, \"jobs\": [[0, 4], [1, 5]]}}\r\n",
    );
    let mut out = Vec::new();
    let summary = serve(
        input.as_slice(),
        &mut out,
        &full_registry(),
        &ServeConfig::default(),
    )
    .unwrap();
    let expected: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(strip_host_dependent)
        .collect();
    assert_eq!((summary.records, summary.errors), (3, 2));
    for line in &expected[..2] {
        assert!(line.contains("line is not valid UTF-8"), "{line}");
    }

    let bodies = [
        (
            "listen over tcp",
            with_listener(ListenMode::Tcp("127.0.0.1:0".into()), |addr| {
                ndjson_over_tcp(addr, &input)
            }),
        ),
        (
            "route over tcp",
            with_router(ListenMode::Tcp("127.0.0.1:0".into()), |addr| {
                ndjson_over_tcp(addr, &input)
            }),
        ),
    ];
    for (name, body) in &bodies {
        let (lines, trailer) = split_trailer(body);
        let lines: Vec<String> = lines.iter().map(|l| strip_host_dependent(l)).collect();
        assert_eq!(lines, expected, "{name} response lines differ from serve");
        assert_eq!(
            counts(&trailer),
            counts(&summary),
            "{name} trailer counts differ from serve"
        );
    }
}
