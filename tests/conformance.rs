//! Conformance across entry points: one corpus through the library
//! `serve`, an in-process `Listener` over TCP, and HTTP `POST /solve` must
//! produce the same response bytes (timing fields dropped) and the same
//! trailer counts.
//!
//! Every instance in the corpus is distinct, so no answer depends on how
//! the listener's reads happen to split the input into waves: each solve
//! is one cache miss on every path.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use busytime::full_registry;
use busytime::instances::Family;
use busytime::server::{
    serve, BatchSummary, ConnLog, ListenConfig, ListenMode, Listener, ServeConfig,
};

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

/// `line` without its timing fields: `total_ms` and each phase's `ms`.
fn strip_timing(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    loop {
        let next = ["\"total_ms\": ", "\"ms\": "]
            .iter()
            .filter_map(|key| rest.find(key).map(|at| (at, key.len())))
            .min();
        let Some((at, len)) = next else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..at]);
        rest = rest[at + len..].trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
        rest = rest.strip_prefix(", ").unwrap_or(rest);
    }
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
fn counts(s: &BatchSummary) -> [i64; 10] {
    [
        s.records as i64,
        s.solved as i64,
        s.errors as i64,
        s.deadline_hits as i64,
        s.total_cost,
        s.total_lower_bound,
        s.cache_hits as i64,
        s.cache_misses as i64,
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

    let expected: Vec<String> = served.iter().map(|l| strip_timing(l)).collect();
    for (name, body) in [("tcp", &tcp), ("http", &http)] {
        let (lines, trailer) = split_trailer(body);
        let lines: Vec<String> = lines.iter().map(|l| strip_timing(l)).collect();
        assert_eq!(lines, expected, "{name} response lines differ from serve");
        assert_eq!(
            counts(&trailer),
            counts(&summary),
            "{name} trailer counts differ from serve"
        );
    }
}
