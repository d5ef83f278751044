//! Minimal HTTP/1.1 plumbing shared by the listener and the shard router.
//!
//! The reactor's HTTP mode ([`crate::listener::ListenMode::Http`], on both
//! `listen` and `route`) and the router's health probes speak the same
//! deliberately small dialect: `Content-Length` bodies, keep-alive,
//! nothing else. [`find_head`] is the one head finder, and it frames both
//! directions: the reactor's requests (it collects each request's whole
//! body itself) and the answer a router's probe reads to the end of its
//! stream. The rest is the request-head parser, the response writer and
//! the [`parse_healthz`] decoder the router scores backends with.

use std::ops::Range;

use busytime_instances::json::{self, JsonError, Value};

/// Upper bound on a request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a `POST /solve` body.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// One parsed request head.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    /// The request method (`GET`, `POST`, ...).
    pub method: String,
    /// The request path (`/healthz`, `/solve`, ...).
    pub path: String,
    /// The declared `Content-Length`, when one was sent.
    pub content_length: Option<usize>,
    /// Whether the connection should be kept open after the response.
    pub keep_alive: bool,
}

/// Parses a complete request head (request line + headers) into an
/// [`HttpRequest`]. A head this dialect does not accept fails with a
/// human-readable reason suitable for a 400 body.
pub fn parse_http_head(head: &[u8]) -> Result<HttpRequest, String> {
    let text = std::str::from_utf8(head).map_err(|_| "request head is not valid UTF-8")?;
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m, p, v),
        _ => return Err(format!("malformed request line: {request_line:?}")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol version {version:?}"));
    }
    let mut content_length = None;
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err("Transfer-Encoding is not supported; send a Content-Length body".into());
        }
    }
    Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        content_length,
        keep_alive,
    })
}

/// Appends one complete response (status line, the three headers this
/// dialect uses, body) to `out`.
pub fn write_http_response(
    out: &mut Vec<u8>,
    status: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
}

/// Finds the complete message head at the front of `buf` (leading blank
/// lines tolerated): the head's bytes, and where its body starts. `None`
/// until the terminator has arrived.
pub fn find_head(buf: &[u8]) -> Option<(Range<usize>, usize)> {
    let start = buf
        .iter()
        .position(|b| !matches!(b, b'\r' | b'\n'))
        .unwrap_or(buf.len());
    let mut i = start;
    while i < buf.len() {
        if buf[i] == b'\n' {
            let rest = &buf[i + 1..];
            if rest.starts_with(b"\r\n") {
                return Some((start..i + 1, i + 3));
            }
            if rest.starts_with(b"\n") {
                return Some((start..i + 1, i + 2));
            }
            if rest.is_empty() {
                break; // possibly mid-terminator; wait for more bytes
            }
        }
        i += 1;
    }
    None
}

/// One shard's health, as reported by its `GET /healthz` body.
///
/// The `uptime_ms` and `shard_id` fields are additive (new in the router
/// PR); [`parse_healthz`] tolerates bodies from older listeners that lack
/// them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// The backend's process-wide worker budget.
    pub workers: usize,
    /// Workers busy solving right now.
    pub busy_workers: usize,
    /// Solve jobs queued behind the busy workers.
    pub queue_depth: usize,
    /// Live client connections on the backend.
    pub active_connections: usize,
    /// Milliseconds since the backend started listening.
    pub uptime_ms: u64,
    /// Sockets currently registered with the backend's I/O reactors
    /// (includes connections still flushing a rejection). Additive (new
    /// in the readiness-loop PR); `0` for older listeners.
    pub open_connections: usize,
    /// The backend's reactor thread count. Additive; `0` for older
    /// listeners.
    pub io_threads: usize,
    /// Bytes buffered in per-connection outboxes waiting for slow
    /// clients, summed across connections. Additive; `0` for older
    /// listeners.
    pub outbox_bytes: usize,
    /// The backend's `--shard-id`, when it was started with one.
    pub shard_id: Option<String>,
}

/// Decodes a `GET /healthz` body into a [`HealthSnapshot`].
pub fn parse_healthz(body: &str) -> Result<HealthSnapshot, JsonError> {
    let value = json::parse(body.trim())?;
    let count = |key: &str| -> Result<usize, JsonError> {
        match value.get(key) {
            None => Ok(0),
            Some(v) => v
                .as_i64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| JsonError(format!("healthz `{key}` is not a count"))),
        }
    };
    if value.get("status").is_none() {
        return Err(JsonError("not a healthz body: no `status` field".into()));
    }
    let shard_id = match value.get("shard_id") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| JsonError("healthz `shard_id` is not a string".into()))?
                .to_string(),
        ),
    };
    Ok(HealthSnapshot {
        workers: count("workers")?,
        busy_workers: count("busy_workers")?,
        queue_depth: count("queue_depth")?,
        active_connections: count("active_connections")?,
        uptime_ms: count("uptime_ms")? as u64,
        open_connections: count("open_connections")?,
        io_threads: count("io_threads")?,
        outbox_bytes: count("outbox_bytes")?,
        shard_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(text: &str) -> HttpRequest {
        parse_http_head(text.as_bytes()).ok().unwrap()
    }

    #[test]
    fn parses_request_heads() {
        let get = head("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(get.method, "GET");
        assert_eq!(get.path, "/healthz");
        assert!(get.keep_alive);
        assert_eq!(get.content_length, None);

        let post = head("POST /solve HTTP/1.1\r\nContent-Length: 42\r\nConnection: close\r\n\r\n");
        assert_eq!(post.method, "POST");
        assert_eq!(post.content_length, Some(42));
        assert!(!post.keep_alive);

        let old = head("GET /healthz HTTP/1.0\r\n\r\n");
        assert!(!old.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn rejects_malformed_heads() {
        for bad in [
            "GET\r\n\r\n",
            "GET /healthz SPDY/3\r\n\r\n",
            "POST /solve HTTP/1.1\r\nContent-Length: many\r\n\r\n",
            "POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(
                parse_http_head(bad.as_bytes()).is_err(),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn parses_healthz_bodies_old_and_new() {
        // a pre-router listener body: no uptime_ms / shard_id
        let old = parse_healthz(
            "{\"schema_version\": 1, \"status\": \"ok\", \"workers\": 4, \
             \"busy_workers\": 1, \"queue_depth\": 7, \"active_connections\": 2}",
        )
        .unwrap();
        assert_eq!(old.workers, 4);
        assert_eq!(old.busy_workers, 1);
        assert_eq!(old.queue_depth, 7);
        assert_eq!(old.active_connections, 2);
        assert_eq!(old.uptime_ms, 0);
        assert_eq!(old.shard_id, None);

        let new = parse_healthz(
            "{\"schema_version\": 1, \"status\": \"ok\", \"workers\": 2, \
             \"busy_workers\": 0, \"queue_depth\": 0, \"active_connections\": 0, \
             \"uptime_ms\": 1234, \"shard_id\": \"shard-1\"}",
        )
        .unwrap();
        assert_eq!(new.uptime_ms, 1234);
        assert_eq!(new.shard_id.as_deref(), Some("shard-1"));
        assert_eq!(new.open_connections, 0, "absent gauge defaults to 0");

        // a readiness-loop listener body: reactor gauges present
        let reactor = parse_healthz(
            "{\"schema_version\": 1, \"status\": \"ok\", \"workers\": 2, \
             \"busy_workers\": 0, \"queue_depth\": 0, \"active_connections\": 3, \
             \"uptime_ms\": 10, \"open_connections\": 5, \"io_threads\": 2, \
             \"outbox_bytes\": 4096, \"shard_id\": null}",
        )
        .unwrap();
        assert_eq!(reactor.open_connections, 5);
        assert_eq!(reactor.io_threads, 2);
        assert_eq!(reactor.outbox_bytes, 4096);

        assert!(parse_healthz("{\"workers\": 1}").is_err(), "no status");
        assert!(parse_healthz("nope").is_err());
    }
}
