//! The open-loop side: the online record mix and one NDJSON connection
//! driven on a Poisson schedule by two threads, a sender that writes each
//! record at its due time and a reader that stamps each answer.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use busytime_core::Instance;
use busytime_instances::json::{self, Value};

use crate::gen::{edited, exact_instance, shuffled, small_instance, Class, Record};
use crate::rng::Rng;
use crate::stats;

/// The online offered rates, rec/s, frozen from the default seed on a
/// 2-core host: a sixth and a third of the highest ladder rate meeting the
/// limit (about 2400 rec/s; `--saturate` shows the deep-queue rate, about
/// 3700). At a third and two thirds, `high` sits where the 2-worker
/// listener's per-wave barrier amplifies every host hiccup, and the p50
/// of one seed varied 3x between runs.
pub const RATE_LOW: f64 = 400.0;
pub const RATE_HIGH: f64 = 800.0;

/// The server command line of an online workload: `listen` with two
/// workers, or `route` over two spawned one-worker shards.
pub fn server_args(routed: bool) -> &'static [&'static str] {
    if routed {
        &[
            "route",
            "--tcp",
            "127.0.0.1:0",
            "--spawn",
            "2",
            "--spawn-workers",
            "1",
            "--quiet",
        ]
    } else {
        &[
            "listen",
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--quiet",
        ]
    }
}

/// Distinct instances in the hot set.
pub const HOT_SET: usize = 32;
/// Exact instances sent in the warm-up pass (the first warm-start bases).
pub const WARM_EXACT: usize = 8;
/// Share of hot repeats, cold records and exact records in the mix.
pub const MIX: (f64, f64, f64) = (0.6, 0.3, 0.1);
/// Share of exact records that edit an earlier exact instance.
pub const EDIT_SHARE: f64 = 0.4;

/// The seeded online record stream.
pub struct Mix {
    rng: Rng,
    hot: Vec<Instance>,
    /// Fresh exact instances sent so far: the bases edits start from
    /// (never an edit itself, so edits stay within one job of 12).
    exact: Vec<Instance>,
    next_id: usize,
}

impl Mix {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Mix {
        let mut rng = Rng::new(seed, 3);
        let hot = (0..HOT_SET).map(|_| small_instance(&mut rng)).collect();
        Mix {
            rng,
            hot,
            exact: Vec::new(),
            next_id: 0,
        }
    }

    fn record(&mut self, inst: Instance, class: Class) -> Record {
        self.next_id += 1;
        Record {
            id: format!("o{}", self.next_id),
            inst,
            class,
        }
    }

    /// The warm-up pass: every hot instance once, plus the first exact
    /// instances.
    pub fn warmup(&mut self) -> Vec<Record> {
        let mut out = Vec::with_capacity(HOT_SET + WARM_EXACT);
        for k in 0..HOT_SET {
            let inst = shuffled(&self.hot[k], &mut self.rng);
            out.push(self.record(inst, Class::Hot(k)));
        }
        for _ in 0..WARM_EXACT {
            let inst = exact_instance(&mut self.rng);
            self.exact.push(inst.clone());
            out.push(self.record(inst, Class::Exact));
        }
        out
    }

    /// The next record of the mix.
    pub fn draw(&mut self) -> Record {
        let u = self.rng.unit();
        if u < MIX.0 {
            let k = self.rng.range(0, HOT_SET as i64 - 1) as usize;
            let inst = shuffled(&self.hot[k], &mut self.rng);
            self.record(inst, Class::Hot(k))
        } else if u < MIX.0 + MIX.1 {
            let inst = small_instance(&mut self.rng);
            self.record(inst, Class::Cold)
        } else if !self.exact.is_empty() && self.rng.unit() < EDIT_SHARE {
            let base = self.rng.range(0, self.exact.len() as i64 - 1) as usize;
            let inst = edited(&self.exact[base], &mut self.rng);
            self.record(inst, Class::Edit)
        } else {
            let inst = exact_instance(&mut self.rng);
            self.exact.push(inst.clone());
            self.record(inst, Class::Exact)
        }
    }

    /// `count` records of the mix offered at `rate` rec/s.
    pub fn step(&mut self, name: &str, rate: f64, count: usize) -> Step {
        let records = (0..count).map(|_| self.draw()).collect();
        Step::poisson(name, rate, records, &mut self.rng)
    }
}

impl Step {
    /// `records` offered at `rate` rec/s with Poisson arrivals.
    pub fn poisson(name: &str, rate: f64, records: Vec<Record>, rng: &mut Rng) -> Step {
        let mut at = 0.0;
        let offsets = records
            .iter()
            .map(|_| {
                at += rng.exp(1.0 / rate);
                at
            })
            .collect();
        Step {
            name: name.to_string(),
            rate,
            records,
            offsets,
        }
    }
}

/// One fixed-rate step of the schedule.
pub struct Step {
    /// `low`, `high`, `ladder-1`, …
    pub name: String,
    /// Offered rate, rec/s.
    pub rate: f64,
    /// The records, in send order.
    pub records: Vec<Record>,
    /// Due time of each record, seconds after the step starts.
    pub offsets: Vec<f64>,
}

/// What one step measured.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// Step name.
    pub name: String,
    /// Offered rate, rec/s.
    pub rate: f64,
    /// Index of the step's first record in the session.
    pub first: usize,
    /// Per record: due time to answer line, ms.
    pub latency_ms: Vec<f64>,
    /// Per record: how late the generator sent it, ms.
    pub lateness_ms: Vec<f64>,
    /// Records due but unanswered at the step's midpoint and at its end.
    pub backlog: (usize, usize),
    /// First due time to last answer.
    pub wall: Duration,
}

impl StepResult {
    /// Latency quantile with failed records (`failed[i]` for the
    /// session's record `i`) counted as missing every limit.
    pub fn latency(&self, q: f64, failed: &[bool]) -> f64 {
        let values: Vec<f64> = self
            .latency_ms
            .iter()
            .enumerate()
            .map(|(k, &ms)| {
                if failed.get(self.first + k).copied().unwrap_or(true) {
                    f64::INFINITY
                } else {
                    ms
                }
            })
            .collect();
        stats::quantile(&values, q)
    }

    /// Failed records among this step's.
    pub fn failures(&self, failed: &[bool]) -> usize {
        (0..self.latency_ms.len())
            .filter(|k| failed.get(self.first + k).copied().unwrap_or(true))
            .count()
    }

    /// True when the unanswered backlog grew over the step.
    pub fn backlog_grew(&self) -> bool {
        let n = self.latency_ms.len();
        self.backlog.1 > self.backlog.0 + (n / 50).max(5)
    }
}

/// One long-lived NDJSON connection and everything sent and received on
/// it.
pub struct Session {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Every record sent, in order.
    pub records: Vec<Record>,
    /// Every answer line received, in order.
    pub answers: Vec<String>,
}

impl Session {
    /// Connects to `addr`.
    pub fn open(addr: &str) -> Result<Session, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = writer.try_clone().map_err(|e| e.to_string())?;
        read_half
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(Session {
            writer,
            reader: BufReader::new(read_half),
            records: Vec::new(),
            answers: Vec::new(),
        })
    }

    fn read_answer(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading answers: {e}")),
        }
    }

    /// Sends `records` back to back and waits for all their answers
    /// (the closed-loop warm-up pass).
    pub fn burst(&mut self, records: Vec<Record>) -> Result<(), String> {
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(r.line().as_bytes());
            bytes.push(b'\n');
        }
        self.writer.write_all(&bytes).map_err(|e| e.to_string())?;
        for _ in 0..records.len() {
            let answer = self.read_answer()?;
            self.answers.push(answer);
        }
        self.records.extend(records);
        Ok(())
    }

    /// Runs one open-loop step. `between` runs on the sender thread after
    /// each send and then every millisecond until the last answer is in
    /// (the traced run samples `/healthz` there).
    pub fn step(
        &mut self,
        step: Step,
        between: &mut (dyn FnMut() + Send),
    ) -> Result<StepResult, String> {
        let answered = AtomicBool::new(false);
        let n = step.records.len();
        let lines: Vec<Vec<u8>> = step
            .records
            .iter()
            .map(|r| {
                let mut bytes = r.line().into_bytes();
                bytes.push(b'\n');
                bytes
            })
            .collect();
        let t0 = Instant::now() + Duration::from_millis(2);
        let dues: Vec<Instant> = step
            .offsets
            .iter()
            .map(|&s| t0 + Duration::from_secs_f64(s))
            .collect();
        let mut arrivals: Vec<Instant> = Vec::with_capacity(n);
        let mut texts: Vec<String> = Vec::with_capacity(n);
        let writer = &mut self.writer;
        let sent = std::thread::scope(|scope| -> Result<Vec<Instant>, String> {
            let sender = scope.spawn(|| -> Result<Vec<Instant>, String> {
                let mut sent = Vec::with_capacity(n);
                for (line, &due) in lines.iter().zip(&dues) {
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    writer
                        .write_all(line)
                        .map_err(|e| format!("sending: {e}"))?;
                    sent.push(Instant::now());
                    between();
                }
                while !answered.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                    between();
                }
                Ok(sent)
            });
            let mut read_error = None;
            for _ in 0..n {
                let mut line = String::new();
                match self.reader.read_line(&mut line) {
                    Ok(0) => {
                        read_error = Some("server closed the connection".to_string());
                        break;
                    }
                    Ok(_) => {
                        arrivals.push(Instant::now());
                        texts.push(line.trim_end().to_string());
                    }
                    Err(e) => {
                        read_error = Some(format!("reading answers: {e}"));
                        break;
                    }
                }
            }
            answered.store(true, Ordering::SeqCst);
            let sent = sender.join().expect("sender thread panicked")?;
            match read_error {
                Some(e) => Err(e),
                None => Ok(sent),
            }
        })?;
        let first = self.records.len();
        let backlog_at = |t: Instant| {
            dues.iter()
                .zip(&arrivals)
                .filter(|&(&due, &arrival)| due <= t && arrival > t)
                .count()
        };
        let result = StepResult {
            name: step.name,
            rate: step.rate,
            first,
            latency_ms: dues
                .iter()
                .zip(&arrivals)
                .map(|(&due, &arrival)| ms(arrival.saturating_duration_since(due)))
                .collect(),
            lateness_ms: dues
                .iter()
                .zip(&sent)
                .map(|(&due, &s)| ms(s.saturating_duration_since(due)))
                .collect(),
            backlog: (backlog_at(dues[n / 2]), backlog_at(dues[n - 1])),
            wall: arrivals[n - 1].saturating_duration_since(t0),
        };
        self.records.extend(step.records);
        self.answers.extend(texts);
        Ok(result)
    }

    /// Half-closes the connection and reads the session trailer.
    pub fn finish(mut self) -> Result<String, String> {
        self.writer
            .shutdown(Shutdown::Write)
            .map_err(|e| e.to_string())?;
        let mut rest = String::new();
        self.reader
            .read_to_string(&mut rest)
            .map_err(|e| format!("reading the trailer: {e}"))?;
        Ok(rest.trim().to_string())
    }
}

/// Milliseconds in `d`.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One `GET /healthz` on the NDJSON port (answered one-shot, then
/// closed): the parsed body.
pub fn healthz(addr: &str) -> Result<Value, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .ok_or("healthz answer has no body")?;
    json::parse(body.trim()).map_err(|e| e.to_string())
}
