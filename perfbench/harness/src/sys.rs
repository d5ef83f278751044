//! Process plumbing: spawning the CLI, signals, `/proc` readings and the
//! hygiene check that nothing the benchmark started outlives it.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage`: two timevals, then fourteen `long` counters of
/// which only the first (`ru_maxrss`, KiB) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

// the C library std already links against; no crate dependency needed
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const RUSAGE_CHILDREN: i32 = -1;

/// Sends SIGINT to `pid`.
fn sigint(pid: u32) {
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    unsafe {
        kill(pid as i32, SIGINT);
    }
}

/// Sends SIGKILL to `pid` (last resort after a failed drain).
fn sigkill(pid: u32) {
    // SAFETY: as in `sigint`.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}

/// CPU seconds (user + system) of every child this process has waited
/// for. (Its `ru_maxrss` is no peak-memory figure for them: a child
/// spawned with `CLONE_VM` reports this process's resident set from
/// before its `exec`.)
pub fn children_cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, correctly laid out `struct rusage` that
    // getrusage(2) fills in place.
    unsafe {
        getrusage(RUSAGE_CHILDREN, &mut usage);
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// `(state, ppid, utime + stime ticks)` from `/proc/PID/stat`.
fn proc_stat(pid: u32) -> Option<(char, u32, u64)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // the command name may hold spaces; fields resume after its `)`
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let state = fields.first()?.chars().next()?;
    let ppid = fields.get(1)?.parse().ok()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((state, ppid, utime + stime))
}

/// True while `pid` exists and is not a zombie.
fn alive(pid: u32) -> bool {
    matches!(proc_stat(pid), Some((state, _, _)) if state != 'Z')
}

/// The live children of `pid`.
fn children(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| matches!(proc_stat(p), Some((state, ppid, _)) if ppid == pid && state != 'Z'))
        .collect()
}

/// CPU seconds (user + system) `pid` has used so far, at the kernel's
/// 100 Hz tick.
pub fn cpu_seconds(pid: u32) -> f64 {
    proc_stat(pid).map_or(0.0, |(_, _, ticks)| ticks as f64 / 100.0)
}

/// Peak resident set of a live process, in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Waits for `child` at most `limit`; `None` when it is still running.
fn wait_timeout(child: &mut Child, limit: Duration) -> Option<ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        if let Ok(Some(status)) = child.try_wait() {
            return Some(status);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One finished CLI invocation.
pub struct Finished {
    /// Spawn to exit.
    pub wall: Duration,
    /// Everything it wrote to stdout.
    pub stdout: String,
    /// Its peak resident set (`VmHWM`, MiB, a high-water mark), sampled
    /// every 10 ms while it ran; 0 for a process too short to be sampled.
    pub peak_rss_mb: f64,
}

/// Runs `cli ARGS`, capturing stdout, and times it from spawn to exit.
/// A second thread samples its peak resident set while it runs. A
/// non-zero exit or a run over `limit` is an error.
pub fn run_cli(cli: &Path, args: &[&str], limit: Duration) -> Result<Finished, String> {
    let started = Instant::now();
    let mut child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
    let pid = child.id();
    let exited = AtomicBool::new(false);
    let mut stdout = String::new();
    let (read, status, wall, peak_rss_mb) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak: f64 = 0.0;
            while !exited.load(Ordering::SeqCst) {
                peak = peak.max(peak_rss_mb(pid));
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let read = child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_string(&mut stdout);
        let status = wait_timeout(&mut child, limit);
        let wall = started.elapsed();
        exited.store(true, Ordering::SeqCst);
        (
            read,
            status,
            wall,
            sampler.join().expect("sampler thread panicked"),
        )
    });
    let Some(status) = status else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!(
            "busytime-cli {} ran over {limit:?}",
            args.join(" ")
        ));
    };
    read.map_err(|e| format!("reading busytime-cli output: {e}"))?;
    if !status.success() {
        return Err(format!(
            "busytime-cli {} exited with {status}",
            args.join(" ")
        ));
    }
    Ok(Finished {
        wall,
        stdout,
        peak_rss_mb,
    })
}

/// A running `listen` or `route` process.
pub struct Server {
    child: Child,
    /// The bound `host:port`, read off the start-up banner.
    pub addr: String,
    log: PathBuf,
}

impl Server {
    /// Spawns `cli ARGS` with stderr to `log` and waits for its banner
    /// (`listening on ADDR` or `routing on ADDR`).
    pub fn start(cli: &Path, args: &[&str], log: &Path) -> Result<Server, String> {
        let file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let started = Instant::now();
        let mut child = Command::new(cli)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // only a complete line: the banner may arrive in several writes
            let banner = text.split_inclusive('\n').find_map(|l| {
                let l = l.strip_suffix('\n')?;
                l.strip_prefix("listening on ")
                    .or_else(|| l.strip_prefix("routing on "))
            });
            if let Some(rest) = banner {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                let addr = addr.strip_prefix("tcp://").unwrap_or(addr).to_string();
                return Ok(Server {
                    child,
                    addr,
                    log: log.to_path_buf(),
                });
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "busytime-cli {} exited with {status} before its banner: {text}",
                    args.join(" ")
                ));
            }
            if started.elapsed() > Duration::from_secs(30) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("busytime-cli {} printed no banner", args.join(" ")));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The server's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server process plus its live children (a router's shards).
    pub fn tree(&self) -> Vec<u32> {
        let mut pids = vec![self.pid()];
        pids.extend(children(self.pid()));
        pids
    }

    /// Sends SIGINT and waits for a clean drain: exit code 0 within
    /// `limit`, and none of `tree` (the pids sampled while it ran) still
    /// alive afterwards. Anything else is an error; stragglers are killed.
    pub fn stop(mut self, tree: &[u32], limit: Duration) -> Result<(), String> {
        sigint(self.pid());
        let status = wait_timeout(&mut self.child, limit);
        let mut problems = Vec::new();
        match status {
            Some(s) if s.success() => {}
            Some(s) => problems.push(format!("server exited with {s}")),
            None => {
                let _ = self.child.kill();
                let _ = self.child.wait();
                problems.push(format!("server did not drain within {limit:?}"));
            }
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        for &pid in tree.iter().filter(|&&p| p != self.child.id()) {
            while alive(pid) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if alive(pid) {
                sigkill(pid);
                problems.push(format!("process {pid} outlived its server"));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            let log = std::fs::read_to_string(&self.log).unwrap_or_default();
            Err(format!("{}; server log:\n{log}", problems.join("; ")))
        }
    }
}

impl Drop for Server {
    /// A server dropped without `stop` (an error cut the run short) is
    /// killed with its children, so nothing outlives the run.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            for pid in children(self.pid()) {
                sigkill(pid);
            }
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `nproc`, CPU model and kernel release of this host.
pub fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!("nproc={nproc} cpu=\"{cpu}\" kernel={kernel}")
}
