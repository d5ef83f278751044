//! Spawn mode: the router launches and supervises its own local shard
//! fleet (`busytime-cli route --spawn N`).
//!
//! Each shard slot gets a monitor thread that spawns the child process,
//! forwards its stderr line by line under a `[shard-k]` prefix, learns
//! the shard's ephemeral address from its `listening on tcp://…` banner,
//! and restarts the child with exponential backoff when it dies. On
//! shutdown the whole tree drains: every child gets a SIGINT (the same
//! graceful-drain signal an operator would send), and
//! [`ShardFleet::shutdown_and_wait`] joins every monitor after its child
//! has exited.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use busytime_core::cancel::CancelToken;

use crate::shard::{lock, ShardState};

/// Initial restart backoff after a shard child dies.
const BACKOFF_FLOOR: Duration = Duration::from_millis(200);
/// Backoff ceiling: a shard that keeps crashing retries this often.
const BACKOFF_CEIL: Duration = Duration::from_secs(5);
/// A child that survived this long resets the backoff — it was working,
/// whatever killed it was not a crash loop.
const BACKOFF_RESET_AFTER: Duration = Duration::from_secs(10);

/// A supervised fleet of local shard processes, one per
/// [`ShardState`] slot handed to [`ShardFleet::launch`].
pub struct ShardFleet {
    monitors: Vec<std::thread::JoinHandle<()>>,
    children: Vec<Arc<Mutex<Option<Child>>>>,
    shards: Vec<Arc<ShardState>>,
    shutdown: CancelToken,
}

impl ShardFleet {
    /// Spawns one supervised child per shard. `build` produces the
    /// command for a given shard index (it is called again on every
    /// restart); the fleet nulls the child's stdin/stdout and pipes its
    /// stderr for banner detection and prefixed forwarding. Cancelling
    /// `shutdown` stops all restarts and drains the fleet.
    pub fn launch(
        shards: Vec<Arc<ShardState>>,
        shutdown: CancelToken,
        build: impl Fn(usize) -> Command + Send + Sync + 'static,
    ) -> ShardFleet {
        let build = Arc::new(build);
        let mut monitors = Vec::with_capacity(shards.len());
        let mut children = Vec::with_capacity(shards.len());
        for shard in &shards {
            let slot: Arc<Mutex<Option<Child>>> = Arc::new(Mutex::new(None));
            children.push(Arc::clone(&slot));
            let shard = Arc::clone(shard);
            let shutdown = shutdown.clone();
            let build = Arc::clone(&build);
            monitors.push(std::thread::spawn(move || {
                monitor_shard(&shard, &shutdown, &*build, &slot);
            }));
        }
        ShardFleet {
            monitors,
            children,
            shards,
            shutdown,
        }
    }

    /// Blocks until every shard has reported an address (its child's
    /// banner arrived) or `timeout` elapses.
    pub fn wait_ready(&self, timeout: Duration) -> std::io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shards.iter().all(|s| !s.addr().is_empty()) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                let missing: Vec<String> = self
                    .shards
                    .iter()
                    .filter(|s| s.addr().is_empty())
                    .map(|s| format!("shard-{}", s.index))
                    .collect();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "{} did not report an address within {timeout:?}",
                        missing.join(", ")
                    ),
                ));
            }
            if self.shutdown.is_cancelled() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "shutdown before the fleet was ready",
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Graceful whole-tree drain: cancels the shutdown token (stopping
    /// restarts), asks every live child to stop (SIGINT on unix — the
    /// same drain an operator's Ctrl-C delivers — a hard kill
    /// elsewhere), and joins every monitor after its child has exited.
    pub fn shutdown_and_wait(self) {
        self.shutdown.cancel();
        for slot in &self.children {
            if let Some(child) = lock(slot).as_mut() {
                request_stop(child);
            }
        }
        for monitor in self.monitors {
            let _ = monitor.join();
        }
    }
}

fn monitor_shard(
    shard: &ShardState,
    shutdown: &CancelToken,
    build: &(dyn Fn(usize) -> Command + Send + Sync),
    slot: &Mutex<Option<Child>>,
) {
    let index = shard.index;
    let mut backoff = BACKOFF_FLOOR;
    while !shutdown.is_cancelled() {
        let born = Instant::now();
        let mut command = build(index);
        command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = match command.spawn() {
            Ok(child) => child,
            Err(e) => {
                eprintln!("[shard-{index}] spawn failed: {e}");
                if !sleep_cancellably(shutdown, backoff) {
                    return;
                }
                backoff = (backoff * 2).min(BACKOFF_CEIL);
                continue;
            }
        };
        let stderr = child.stderr.take();
        *lock(slot) = Some(child);
        // a shutdown signalled between the loop check and the store above
        // would miss this child: re-check now that it is visible
        if shutdown.is_cancelled() {
            if let Some(mut child) = lock(slot).take() {
                request_stop(&mut child);
                let _ = child.wait();
            }
            return;
        }
        if let Some(stderr) = stderr {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = parse_banner(&line) {
                    shard.set_addr(&addr);
                }
                eprintln!("[shard-{index}] {line}");
            }
        }
        // stderr EOF: the child exited (or is exiting); reap it
        let status = lock(slot).take().and_then(|mut child| child.wait().ok());
        shard.mark_broken();
        if shutdown.is_cancelled() {
            return;
        }
        let verdict = status
            .map(|s| s.to_string())
            .unwrap_or_else(|| String::from("unknown status"));
        eprintln!("[shard-{index}] exited ({verdict}); restarting in {backoff:?}");
        if born.elapsed() >= BACKOFF_RESET_AFTER {
            backoff = BACKOFF_FLOOR;
        }
        if !sleep_cancellably(shutdown, backoff) {
            return;
        }
        backoff = (backoff * 2).min(BACKOFF_CEIL);
    }
}

/// Sleeps `total` in short slices; `false` means shutdown fired first.
pub(crate) fn sleep_cancellably(shutdown: &CancelToken, total: Duration) -> bool {
    let mut slept = Duration::ZERO;
    while slept < total {
        if shutdown.is_cancelled() {
            return false;
        }
        let slice = Duration::from_millis(25).min(total - slept);
        std::thread::sleep(slice);
        slept += slice;
    }
    !shutdown.is_cancelled()
}

/// Pulls the bound address out of a shard's startup banner
/// (`listening on tcp://127.0.0.1:41373 (2 workers process-wide)`).
fn parse_banner(line: &str) -> Option<String> {
    let rest = line.split_once("listening on tcp://")?.1;
    let addr: String = rest
        .chars()
        .take_while(|c| !c.is_whitespace() && *c != '(')
        .collect();
    if addr.is_empty() {
        None
    } else {
        Some(addr)
    }
}

/// Asks a child to stop: SIGINT on unix (the graceful drain path every
/// listener already implements for Ctrl-C), a hard kill elsewhere.
fn request_stop(child: &mut Child) {
    #[cfg(unix)]
    {
        // the libc std already links against; no crate dependency needed
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGINT: i32 = 2;
        unsafe {
            kill(child.id() as i32, SIGINT);
        }
    }
    #[cfg(not(unix))]
    {
        let _ = child.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_parsing_extracts_the_bound_address() {
        assert_eq!(
            parse_banner("listening on tcp://127.0.0.1:41373 (2 workers process-wide)"),
            Some("127.0.0.1:41373".to_string())
        );
        assert_eq!(
            parse_banner("listening on tcp://[::1]:9000 (1 workers process-wide)"),
            Some("[::1]:9000".to_string())
        );
        assert_eq!(parse_banner("conn 1 (peer): 4 records"), None);
        assert_eq!(
            parse_banner("listening on unix:///tmp/x.sock (2 workers)"),
            None
        );
    }

    #[cfg(unix)]
    #[test]
    fn fleet_spawns_restarts_and_drains() {
        // a fake shard: prints a listener-shaped banner with a unique
        // port, then sleeps until signalled. `exec` matters: the process
        // must BE the sleep (not its parent) so SIGINT both kills it and
        // closes the monitored stderr pipe.
        let shards = vec![ShardState::new(0, ""), ShardState::new(1, "")];
        let shutdown = CancelToken::never();
        let fleet = ShardFleet::launch(shards.clone(), shutdown.clone(), |index| {
            let mut command = Command::new("sh");
            command.arg("-c").arg(format!(
                "echo 'listening on tcp://127.0.0.1:{} (1 workers process-wide)' >&2; exec sleep 30",
                40000 + index
            ));
            command
        });
        fleet
            .wait_ready(Duration::from_secs(10))
            .expect("both banners arrive");
        assert_eq!(shards[0].addr(), "127.0.0.1:40000");
        assert_eq!(shards[1].addr(), "127.0.0.1:40001");
        fleet.shutdown_and_wait();
    }

    #[cfg(unix)]
    #[test]
    fn fleet_restarts_a_dead_shard() {
        // first run: banner, then exit immediately (the monitor must reap
        // it and mark the shard broken). Restarted run: banner, then stay
        // alive — the shard must come back healthy and remain so.
        let flag = std::env::temp_dir().join(format!(
            "busytime-fleet-restart-{}.flag",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&flag);
        let script = format!(
            "echo 'listening on tcp://127.0.0.1:45678 (1 workers process-wide)' >&2; \
             if [ -e '{f}' ]; then exec sleep 30; else touch '{f}'; fi",
            f = flag.display()
        );
        let shards = vec![ShardState::new(0, "")];
        let shutdown = CancelToken::never();
        let fleet = ShardFleet::launch(shards.clone(), shutdown.clone(), move |_| {
            let mut command = Command::new("sh");
            command.arg("-c").arg(script.clone());
            command
        });
        fleet
            .wait_ready(Duration::from_secs(10))
            .expect("first banner");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut saw_broken = false;
        let mut revived = false;
        while Instant::now() < deadline {
            if !shards[0].is_healthy() {
                saw_broken = true;
            } else if saw_broken {
                revived = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(saw_broken, "a dead child demotes its shard");
        assert!(revived, "a restarted child's banner revives its shard");
        fleet.shutdown_and_wait();
        let _ = std::fs::remove_file(&flag);
    }
}
