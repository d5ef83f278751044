//! One backend shard as the router sees it: its address, its health, and
//! the load score the dispatcher balances on.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use busytime_server::http::{find_head, parse_healthz, HealthSnapshot};

/// Consecutive failed `/healthz` probes before a shard is demoted to
/// unhealthy. A single missed probe (a GC-ish pause, a dropped packet)
/// must not evict a backend that is mid-batch; a broken pipe observed on
/// the dispatch path demotes immediately via [`ShardState::mark_broken`].
pub const UNHEALTHY_AFTER: usize = 2;

/// Bytes a probe reads at most: a health answer is under 1 KiB.
const PROBE_CAP: u64 = 64 * 1024;

/// One backend `listen` process: address, health, in-flight load, and the
/// last health snapshot the prober got out of it.
#[derive(Debug)]
pub struct ShardState {
    /// Stable 0-based slot in the fleet (`shard-{index}` in spawn mode).
    pub index: usize,
    /// `host:port`; empty until a spawned shard reports its banner.
    addr: Mutex<String>,
    /// Optimistically true from birth: a shard is assumed good until a
    /// dispatch breaks on it or [`UNHEALTHY_AFTER`] probes fail.
    healthy: AtomicBool,
    probe_failures: AtomicUsize,
    /// Records dispatched to this shard and not yet answered (or
    /// reclaimed) — the load signal that exists even before the first
    /// health snapshot does.
    in_flight: AtomicUsize,
    last: Mutex<Option<HealthSnapshot>>,
}

impl ShardState {
    /// A shard at `addr` (may be empty for a spawned shard that has not
    /// bound yet), healthy until proven otherwise.
    pub fn new(index: usize, addr: impl Into<String>) -> Arc<ShardState> {
        Arc::new(ShardState {
            index,
            addr: Mutex::new(addr.into()),
            healthy: AtomicBool::new(true),
            probe_failures: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            last: Mutex::new(None),
        })
    }

    /// The shard's current address (empty = not bound yet).
    pub fn addr(&self) -> String {
        lock(&self.addr).clone()
    }

    /// (Re)binds the shard's address — a spawned child reported its
    /// banner — and marks it healthy: a fresh process starts clean no
    /// matter how its predecessor died.
    pub fn set_addr(&self, addr: &str) {
        *lock(&self.addr) = addr.to_string();
        *lock(&self.last) = None;
        self.probe_failures.store(0, Ordering::SeqCst);
        self.healthy.store(true, Ordering::SeqCst);
    }

    /// Healthy and addressable: eligible for dispatch.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst) && !lock(&self.addr).is_empty()
    }

    /// Demotes the shard immediately — a dispatch write or response read
    /// broke on it; no probe quorum needed.
    pub fn mark_broken(&self) {
        self.probe_failures
            .store(UNHEALTHY_AFTER.max(1), Ordering::SeqCst);
        self.healthy.store(false, Ordering::SeqCst);
    }

    /// A record was written to this shard.
    pub fn note_dispatched(&self) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// A previously dispatched record was answered or reclaimed.
    pub fn note_answered(&self) {
        // saturating: a restarted shard must never underflow the counter
        let _ = self
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
    }

    /// The last health snapshot the prober obtained, if any.
    pub fn snapshot(&self) -> Option<HealthSnapshot> {
        lock(&self.last).clone()
    }

    /// The load score the dispatcher minimizes: outstanding work
    /// (router-side in-flight plus the shard's own busy workers and queue)
    /// per worker. Before the first probe lands only the router-side
    /// in-flight count is known, which is exactly the round-robin-ish
    /// signal wanted at cold start.
    pub fn load_score(&self) -> f64 {
        let in_flight = self.in_flight.load(Ordering::SeqCst);
        match &*lock(&self.last) {
            Some(snap) => {
                (in_flight + snap.busy_workers + snap.queue_depth) as f64
                    / snap.workers.max(1) as f64
            }
            None => in_flight as f64,
        }
    }

    /// One synchronous `GET /healthz` round trip, updating the health
    /// state: success resets the failure streak (reviving a demoted
    /// shard), failure counts toward [`UNHEALTHY_AFTER`].
    pub fn check(&self, timeout: Duration) -> std::io::Result<HealthSnapshot> {
        match self.probe(timeout) {
            Ok(snapshot) => {
                *lock(&self.last) = Some(snapshot.clone());
                self.probe_failures.store(0, Ordering::SeqCst);
                self.healthy.store(true, Ordering::SeqCst);
                Ok(snapshot)
            }
            Err(e) => {
                let failures = self.probe_failures.fetch_add(1, Ordering::SeqCst) + 1;
                if failures >= UNHEALTHY_AFTER {
                    self.healthy.store(false, Ordering::SeqCst);
                }
                Err(e)
            }
        }
    }

    /// One `GET /healthz … Connection: close` over a fresh connection.
    /// Every `listen` half-closes right after that answer, so the probe
    /// reads to the end of the stream (at most [`PROBE_CAP`] bytes, each
    /// read within `timeout`), frames it with [`find_head`], and decodes
    /// the body of an `HTTP/1.1 200` answer. A peer that keeps the socket
    /// open fails at the timeout.
    fn probe(&self, timeout: Duration) -> std::io::Result<HealthSnapshot> {
        let mut stream = connect(&self.addr(), timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: shard\r\nConnection: close\r\n\r\n")?;
        let mut answer = Vec::new();
        stream.take(PROBE_CAP).read_to_end(&mut answer)?;
        let invalid = |reason: &str| std::io::Error::new(ErrorKind::InvalidData, reason);
        let (head, body_at) = find_head(&answer).ok_or_else(|| invalid("truncated healthz"))?;
        if !answer[head].starts_with(b"HTTP/1.1 200 ") {
            return Err(invalid("healthz did not answer 200"));
        }
        let body = std::str::from_utf8(&answer[body_at..])
            .map_err(|_| invalid("healthz body is not UTF-8"))?;
        parse_healthz(body).map_err(|e| invalid(&e.to_string()))
    }
}

/// The healthy shard with the lowest load score, if any shard is healthy.
pub fn pick(shards: &[Arc<ShardState>]) -> Option<Arc<ShardState>> {
    shards
        .iter()
        .filter(|s| s.is_healthy())
        .min_by(|a, b| {
            a.load_score()
                .partial_cmp(&b.load_score())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .cloned()
}

/// Connects with a timeout, resolving `addr` first. `to_socket_addrs` is
/// how `TcpStream::connect` itself resolves, so behavior matches plain
/// connect — just bounded.
pub(crate) fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    if addr.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "shard has not reported an address yet",
        ));
    }
    let resolved: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let mut last_err = None;
    for candidate in resolved {
        match TcpStream::connect_timeout(&candidate, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{addr}: no addresses resolved"),
        )
    }))
}

pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_failures_demote_after_quorum_and_success_revives() {
        // a bound-then-dropped port: connects are refused immediately
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let shard = ShardState::new(0, format!("127.0.0.1:{port}"));
        assert!(shard.is_healthy(), "optimistic at birth");

        let timeout = Duration::from_millis(200);
        assert!(shard.check(timeout).is_err());
        assert!(shard.is_healthy(), "one miss is not a quorum");
        assert!(shard.check(timeout).is_err());
        assert!(!shard.is_healthy(), "two misses demote");

        // a re-bind (spawn-mode restart) starts the shard clean
        shard.set_addr(&format!("127.0.0.1:{port}"));
        assert!(shard.is_healthy());
    }

    #[test]
    fn pick_prefers_low_load_and_skips_broken() {
        let a = ShardState::new(0, "127.0.0.1:1");
        let b = ShardState::new(1, "127.0.0.1:2");
        a.note_dispatched();
        a.note_dispatched();
        b.note_dispatched();
        let picked = pick(&[Arc::clone(&a), Arc::clone(&b)]).unwrap();
        assert_eq!(picked.index, 1, "less loaded shard wins");

        b.mark_broken();
        let picked = pick(&[Arc::clone(&a), Arc::clone(&b)]).unwrap();
        assert_eq!(picked.index, 0, "broken shard is skipped");

        a.mark_broken();
        assert!(pick(&[a, b]).is_none(), "no healthy shard");

        let unbound = ShardState::new(2, "");
        assert!(!unbound.is_healthy(), "no address = not dispatchable");
    }

    #[test]
    fn load_score_ignores_the_reactor_gauges() {
        // a readiness-loop listener reports open_connections / io_threads /
        // outbox_bytes; the dispatch score must keep ranking on solver
        // pressure (busy + queue per worker), not on idle socket counts
        let shard = ShardState::new(0, "127.0.0.1:1");
        let snap = parse_healthz(
            "{\"schema_version\": 1, \"status\": \"ok\", \"workers\": 4, \
             \"busy_workers\": 2, \"queue_depth\": 2, \"active_connections\": 1, \
             \"uptime_ms\": 5, \"open_connections\": 900, \"io_threads\": 2, \
             \"outbox_bytes\": 1048576}",
        )
        .unwrap();
        assert_eq!(snap.open_connections, 900);
        assert_eq!(snap.io_threads, 2);
        assert_eq!(snap.outbox_bytes, 1048576);
        *lock(&shard.last) = Some(snap);
        assert!(
            (shard.load_score() - 1.0).abs() < 1e-9,
            "(0 in-flight + 2 busy + 2 queued) / 4 workers = 1.0, got {}",
            shard.load_score()
        );
    }
}
