//! Minimal HTTP/1.1 plumbing shared by the listener and the shard router.
//!
//! The listener's HTTP mode ([`crate::listener::ListenMode::Http`]) and the
//! router's health probes both speak the same deliberately small dialect:
//! `Content-Length` bodies, keep-alive, nothing else. This module holds the
//! server-side head/body helpers the listener always had, plus the
//! client-side response reader and the [`parse_healthz`] decoder the router
//! uses to score backends.

use std::io::{BufRead, Read, Write};

use busytime_core::cancel::CancelToken;
use busytime_instances::json::{self, JsonError, Value};

/// Upper bound on a request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a `POST /solve` body.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Upper bound on a client-read response body ([`read_http_response`]);
/// health bodies are tiny, so anything past this is a protocol error.
const MAX_CLIENT_BODY_BYTES: usize = 1024 * 1024;

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

/// Why a request head could not be served.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire were not a request this dialect accepts; the
    /// string is a human-readable reason suitable for a 400 body.
    Malformed(String),
    /// The transport failed underneath the parse.
    Io(std::io::Error),
}

/// Reads one request head (request line + headers). `Ok(None)` = the
/// client closed between requests, or the shutdown token fired while the
/// connection was idle.
pub fn read_http_head<R: BufRead>(
    reader: &mut R,
    shutdown: &CancelToken,
) -> Result<Option<HttpRequest>, HttpError> {
    let mut head = Vec::new();
    // hard-bound the whole head read: `read_until` only returns at a
    // delimiter or EOF, so without this `Take` a newline-free stream would
    // grow `head` without limit before the size check below could ever run
    let mut limited = reader.by_ref().take(MAX_HEAD_BYTES as u64 + 1);
    loop {
        match limited.read_until(b'\n', &mut head) {
            Ok(0) => {
                return if head.is_empty() {
                    Ok(None)
                } else if head.len() > MAX_HEAD_BYTES {
                    Err(HttpError::Malformed("request head too large".into()))
                } else {
                    Err(HttpError::Malformed("truncated request head".into()))
                };
            }
            Ok(_) => {
                if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                    break;
                }
                if head.len()
                    == head
                        .iter()
                        .take_while(|&&b| b == b'\r' || b == b'\n')
                        .count()
                {
                    // tolerate leading blank lines between pipelined
                    // requests (RFC 9112 §2.2)
                    head.clear();
                    continue;
                }
                if head.len() > MAX_HEAD_BYTES {
                    return Err(HttpError::Malformed("request head too large".into()));
                }
                // single-line head ("GET /healthz HTTP/1.1\r\n") still
                // needs its terminating blank line; keep reading
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.is_cancelled() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    parse_http_head(&head).map(Some)
}

/// Parses a complete request head (request line + headers) into an
/// [`HttpRequest`].
pub fn parse_http_head(head: &[u8]) -> Result<HttpRequest, HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("request head is not valid UTF-8".into()))?;
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m, p, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "malformed request line: {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol version {version:?}"
        )));
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
                    .map_err(|_| HttpError::Malformed(format!("bad Content-Length {value:?}")))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed(
                "Transfer-Encoding is not supported; send a Content-Length body".into(),
            ));
        }
    }
    Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        content_length,
        keep_alive,
    })
}

/// Reads exactly `length` body bytes, polling the shutdown token across
/// read timeouts. `Ok(None)` = shutdown fired mid-body.
pub fn read_http_body<R: BufRead>(
    reader: &mut R,
    length: usize,
    shutdown: &CancelToken,
) -> std::io::Result<Option<Vec<u8>>> {
    // grow with the bytes that actually arrive — allocating the claimed
    // Content-Length up front would let a header alone (64 half-open
    // requests × 64 MiB claims) pin gigabytes without sending a byte
    let mut body = Vec::with_capacity(length.min(64 * 1024));
    let mut chunk = [0u8; 64 * 1024];
    while body.len() < length {
        let want = (length - body.len()).min(chunk.len());
        match reader.read(&mut chunk[..want]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("body ended after {} of {length} bytes", body.len()),
                ));
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.is_cancelled() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(body))
}

/// Writes one complete response (status line, the three headers this
/// dialect uses, body) and flushes.
pub fn write_http_response<W: Write>(
    writer: &mut W,
    status: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    writer.write_all(body)?;
    writer.flush()
}

/// One response as a client sees it: the status code plus the body bytes.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// The numeric status code off the status line.
    pub status: u16,
    /// The body, complete per `Content-Length` (or read to EOF without one).
    pub body: Vec<u8>,
}

/// Reads one response off a connection this process opened (the router
/// probing a shard's `/healthz`): status line, headers, then the body per
/// `Content-Length` — or to EOF when the server sent none and closed.
/// Socket timeouts surface as errors; the caller's probe timeout is the
/// retry policy.
pub fn read_http_response<R: BufRead>(reader: &mut R) -> std::io::Result<HttpResponse> {
    let malformed = |reason: String| std::io::Error::new(std::io::ErrorKind::InvalidData, reason);
    let mut head = Vec::new();
    let mut limited = reader.by_ref().take(MAX_HEAD_BYTES as u64 + 1);
    loop {
        match limited.read_until(b'\n', &mut head) {
            Ok(0) => return Err(malformed("truncated response head".into())),
            Ok(_) => {
                if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                    break;
                }
                if head.len() > MAX_HEAD_BYTES {
                    return Err(malformed("response head too large".into()));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let text = std::str::from_utf8(&head)
        .map_err(|_| malformed("response head is not valid UTF-8".into()))?;
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let status_line = lines
        .next()
        .ok_or_else(|| malformed("empty response".into()))?;
    let status = status_line
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| malformed(format!("malformed status line: {status_line:?}")))?;
    let mut content_length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse::<usize>().ok();
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(length) if length > MAX_CLIENT_BODY_BYTES => {
            return Err(malformed(format!("response body too large ({length} B)")));
        }
        Some(length) => {
            body.resize(length, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader
                .by_ref()
                .take(MAX_CLIENT_BODY_BYTES as u64)
                .read_to_end(&mut body)?;
        }
    }
    Ok(HttpResponse { status, body })
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
    fn reads_responses_with_and_without_length() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length: 5\r\nConnection: close\r\n\r\nhellotrailing";
        let mut reader = &wire[..];
        let response = read_http_response(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"hello");

        let wire = b"HTTP/1.1 503 Service Unavailable\r\n\r\nbusy";
        let mut reader = &wire[..];
        let response = read_http_response(&mut reader).unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(response.body, b"busy");

        let mut reader = &b"not http at all\r\n\r\n"[..];
        assert!(read_http_response(&mut reader).is_err());
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
