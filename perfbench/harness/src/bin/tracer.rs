//! `tracer`: the traced per-layer run of one workload.
//!
//! It replays the workload's generated records in this process through
//! the library's public calls, one span per call (name, start, end,
//! parent, record), keeps the spans in memory and writes them to
//! `WORK/trace-WORKLOAD.ndjson` at the end. It times the layers the
//! replay does not pass through on the same records, then drives a live
//! `listen` and a live `route` with them, sampling `/healthz` on a second
//! connection. Prints the per-layer metrics.
//!
//! ```text
//! tracer --workload batch-small --seed 1 --cli target/release/busytime-cli --work /tmp/perfbench
//! ```

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use busytime_core::algo::{Decomposed, Scheduler};
use busytime_core::cancel::CancelToken;
use busytime_core::memo::{CanonicalInstance, SolutionCache, SolveFingerprint};
use busytime_core::pool::Executor;
use busytime_core::solve::{ParallelPolicy, SolveOptions, SolverRegistry, WARM_EDIT_BUDGET};
use busytime_core::{bounds, InstanceFeatures, SolveReport, SolveRequest};
use busytime_instances::io::read_instance;
use busytime_instances::json::{self, Value};
use busytime_server::protocol::{report_line, BatchRecord};
use busytime_server::{BatchSession, ServeConfig, DEFAULT_SOLUTION_CACHE};

use perfbench::gen::{self, Class, Record};
use perfbench::online::{healthz, server_args, Mix, Session, Step, RATE_HIGH};
use perfbench::report::Outcome;
use perfbench::rng::Rng;
use perfbench::stats::{mean, median, quantile};
use perfbench::sys::{self, run_cli, Server};
use perfbench::verify::{check_stream, Oracle};
use perfbench::Args;

/// Records in the live drive at most.
const DRIVE_RECORDS: usize = 1600;
/// Exact records the `exact.*` figures are measured on at least.
const EXACT_RECORDS: usize = 200;
/// Records per dispatch wave in the queue-wait probe.
const WAVE: usize = 64;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tracer: {e}");
            return ExitCode::from(2);
        }
    };
    // a 2-worker pool, as the servers get, before anything touches it
    Executor::configure_global(2);
    match run(&args) {
        Ok(outcome) => {
            let header = format!(
                "perfbench trace workload={} seed={} smoke={} {} {}",
                args.workload,
                args.seed,
                args.smoke,
                args.host,
                sys::host()
            );
            if outcome.print(&header) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("tracer: {e}");
            ExitCode::from(2)
        }
    }
}

fn full_registry() -> SolverRegistry {
    let mut registry = SolverRegistry::with_defaults();
    busytime_exact::register(&mut registry);
    registry
}

/// The workload's records, as `loadgen` generates them.
fn workload_records(args: &Args) -> Vec<Record> {
    let n = if args.smoke { 200 } else { 4000 };
    match args.workload.as_str() {
        "batch-small" => gen::batch_records(args.seed, n),
        "solve-large" => gen::large_set(args.seed, if args.smoke { 0.6 } else { 1.0 })
            .into_iter()
            .enumerate()
            .map(|(i, (name, inst))| Record {
                id: format!("l{i}-{name}"),
                inst,
                class: Class::Large,
            })
            .collect(),
        _ => {
            let mut mix = Mix::new(args.seed);
            let mut records = mix.warmup();
            records.extend((0..n).map(|_| mix.draw()));
            records
        }
    }
}

/// The exact records the `exact.*` figures use: the workload's own, or the
/// online mix's for a workload that sends none.
fn exact_records(args: &Args, records: &[Record]) -> Vec<Record> {
    let own: Vec<Record> = records.iter().filter(|r| r.is_exact()).cloned().collect();
    if !own.is_empty() {
        return own;
    }
    let mut mix = Mix::new(args.seed);
    let mut exact: Vec<Record> = mix.warmup().into_iter().filter(Record::is_exact).collect();
    let want = if args.smoke { 20 } else { EXACT_RECORDS };
    while exact.len() < want {
        let r = mix.draw();
        if r.is_exact() {
            exact.push(r);
        }
    }
    exact
}

/// One span: a call into one layer on behalf of one record.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    record: usize,
}

/// The span recorder. Off, it only runs the closures, which gives the
/// untraced replay `trace.overhead_share` compares against.
struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    fn new(on: bool) -> Trace {
        Trace {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside span `name` of `record`; spans opened inside `f`
    /// are its children.
    fn span<R>(&mut self, name: &'static str, record: usize, f: impl FnOnce(&mut Trace) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            record,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Durations (µs) of the spans named `name` whose record passes `keep`.
    fn durations_us(&self, name: &str, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.record))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Total self time (ms) per span name: duration minus the part its
    /// children cover.
    fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - child) as f64 / 1e6;
        }
        out
    }

    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"record\": {}}}\n",
                s.name, s.start_ns, s.end_ns, s.record
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What one replay counted at the layer boundaries.
#[derive(Default)]
struct Counts {
    lookups: usize,
    hits: Vec<usize>,
    fast_path: usize,
    exact_misses: usize,
    warm_hints: usize,
    exact_answers: usize,
    cuts: usize,
}

/// Replays `records` through parse → canonicalize → cache lookup →
/// (warm hint → detect → solve → insert) → render, as the servers do per
/// record. `shards` caches take the records in turn (the routed split).
fn replay(
    records: &[Record],
    registry: &SolverRegistry,
    shards: usize,
    trace: &mut Trace,
) -> Result<(Vec<SolveReport>, Counts, Duration), String> {
    let caches: Vec<SolutionCache> = (0..shards)
        .map(|_| SolutionCache::new(DEFAULT_SOLUTION_CACHE))
        .collect();
    let mut counts = Counts::default();
    let mut reports = Vec::with_capacity(records.len());
    let lines: Vec<String> = records.iter().map(Record::line).collect();
    let started = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let cache = &caches[i % shards];
        let report = trace.span("record", i, |t| -> Result<SolveReport, String> {
            let parsed = t
                .span("protocol.parse", i, |_| BatchRecord::parse(line))
                .map_err(|e| e.to_string())?;
            let inst = parsed.instance();
            let key = parsed.solver.clone().unwrap_or_else(|| "auto".to_string());
            let fp = SolveFingerprint {
                solver: registry
                    .get(&key)
                    .map_or_else(|| key.clone(), |e| e.key().to_string()),
                seed: 0,
                decompose: true,
            };
            let canon = t.span("memo.canon", i, |_| CanonicalInstance::of(&inst));
            counts.lookups += 1;
            if let Some(hit) = t.span("memo.lookup", i, |_| cache.lookup(&canon, &fp)) {
                counts.hits.push(i);
                return Ok(hit);
            }
            let exact = fp.solver.starts_with("exact");
            let hint = if exact {
                counts.exact_misses += 1;
                t.span("memo.warm_hint", i, |_| {
                    cache.warm_hint(&canon, WARM_EDIT_BUDGET)
                })
            } else {
                None
            };
            counts.warm_hints += usize::from(hint.is_some());
            let features = t.span("features.detect", i, |_| InstanceFeatures::detect(&inst));
            let mut request = SolveRequest::new(&inst)
                .options(parsed.apply_overrides(SolveOptions::default()))
                .solver(key)
                .features(features);
            if let Some(hint) = hint {
                request = request.warm_start(hint);
            }
            let report = t
                .span("solve.pipeline", i, |_| request.solve_with(registry))
                .map_err(|e| e.to_string())?;
            if exact {
                counts.exact_answers += 1;
                counts.cuts += usize::from(report.deadline_hit);
            }
            t.span("memo.insert", i, |_| cache.insert(&canon, &fp, &report));
            Ok(report)
        })?;
        let id = records[i].id.as_str();
        black_box(trace.span("protocol.render", i, |_| {
            report_line(i + 1, Some(id), &report)
        }));
        reports.push(report);
    }
    let wall = started.elapsed();
    counts.fast_path = lines
        .iter()
        .filter(|l| BatchRecord::parse_fast(l).is_some())
        .count();
    Ok((reports, counts, wall))
}

/// Milliseconds each call of `f` takes, one call per item.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> Vec<f64> {
    items
        .iter()
        .map(|item| {
            let t = Instant::now();
            f(item);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn solver_key(record: &Record) -> &'static str {
    if record.is_exact() {
        "exact-bb"
    } else {
        "auto"
    }
}

/// `exact.cold_ms`, `exact.warm_ms` and `exact.cut_share`: every exact
/// record solved without a hint, and again with the warm hint a cache of
/// the earlier ones offers (when it offers one).
fn exact_figures(exact: &[Record], registry: &SolverRegistry) -> Result<(f64, f64, f64), String> {
    let cache = SolutionCache::new(DEFAULT_SOLUTION_CACHE);
    let (mut cold, mut warm, mut cuts) = (Vec::new(), Vec::new(), 0usize);
    let options = SolveOptions {
        deadline: Some(Duration::from_millis(gen::EXACT_DEADLINE_MS)),
        ..SolveOptions::default()
    };
    for r in exact {
        let canon = CanonicalInstance::of(&r.inst);
        let fp = SolveFingerprint {
            solver: "exact-bb".to_string(),
            seed: 0,
            decompose: true,
        };
        let hint = cache.warm_hint(&canon, WARM_EDIT_BUDGET);
        let t = Instant::now();
        let report = SolveRequest::new(&r.inst)
            .options(options.clone())
            .solver("exact-bb")
            .solve_with(registry)
            .map_err(|e| e.to_string())?;
        cold.push(t.elapsed().as_secs_f64() * 1e3);
        cuts += usize::from(report.deadline_hit);
        if let Some(hint) = hint {
            let t = Instant::now();
            SolveRequest::new(&r.inst)
                .options(options.clone())
                .solver("exact-bb")
                .warm_start(hint)
                .solve_with(registry)
                .map_err(|e| e.to_string())?;
            warm.push(t.elapsed().as_secs_f64() * 1e3);
        }
        cache.insert(&canon, &fp, &report);
    }
    let warm_ms = if warm.is_empty() { 0.0 } else { median(&warm) };
    Ok((median(&cold), warm_ms, cuts as f64 / exact.len() as f64))
}

/// Mean submission-to-pickup wait (ms) of records dispatched in waves of
/// `WAVE` on a 2-worker executor, stamped inside the pool's closure.
fn queue_wait_ms(records: &[Record], registry: &SolverRegistry) -> f64 {
    let exec = Executor::new(2);
    let mut waits = Vec::new();
    for wave in records.chunks(WAVE) {
        let submitted = Instant::now();
        let outcomes = exec.par_map_deadline_under(
            2,
            &CancelToken::never(),
            wave,
            |_| None,
            |r, token| {
                let wait = submitted.elapsed();
                let _ = SolveRequest::new(&r.inst)
                    .solver(solver_key(r))
                    .cancel(token.clone())
                    .solve_with(registry);
                wait
            },
        );
        waits.extend(outcomes.into_iter().map(|o| o.result.as_secs_f64() * 1e3));
    }
    mean(&waits)
}

/// `BatchSession::run` over the records at executor width `width`: the
/// median wall (ms) of three runs.
fn session_ms(input: &str, registry: &SolverRegistry, width: usize) -> Result<f64, String> {
    let config = ServeConfig::default();
    let mut walls = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        BatchSession::new(registry, &config)
            .executor(Executor::new(width))
            .run(input.as_bytes(), std::io::sink())
            .map_err(|e| e.to_string())?;
        walls.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&walls))
}

/// Wall (ms) of one solve of the workload's largest instance at
/// `ParallelPolicy::Off` over that at `Auto` (medians of three each).
fn intra_speedup(records: &[Record], registry: &SolverRegistry) -> Result<f64, String> {
    let largest = records
        .iter()
        .max_by_key(|r| r.inst.len())
        .ok_or("no records")?;
    let mut walls = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (k, policy) in [ParallelPolicy::Off, ParallelPolicy::Auto]
            .into_iter()
            .enumerate()
        {
            let t = Instant::now();
            SolveRequest::new(&largest.inst)
                .solver(solver_key(largest))
                .parallel(policy)
                .solve_with(registry)
                .map_err(|e| e.to_string())?;
            walls[k].push(t.elapsed().as_secs_f64());
        }
    }
    Ok(median(&walls[0]) / median(&walls[1]))
}

/// What one live server probe measured.
struct Live {
    hit_rtt_us: f64,
    cpu_per_record_us: f64,
    cpu_per_wall: f64,
    busy_share: f64,
    queue_depth_p99: f64,
    outbox_bytes_max: f64,
    cache_hit_share: f64,
    records: usize,
    failed: usize,
    problems: Vec<String>,
}

fn count(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_i64).unwrap_or(0) as f64
}

/// Starts `listen` (or `route`), warms it with the first records, probes
/// the round trip of one cache hit at a time on the idle server, then
/// offers the rest at `RATE_HIGH` while the sender thread samples
/// `/healthz` on a second connection every 10 ms.
fn live(args: &Args, records: &[Record], routed: bool) -> Result<Live, String> {
    let log = args.work.join(if routed {
        "trace-route.log"
    } else {
        "trace-listen.log"
    });
    let server = Server::start(&args.cli, server_args(routed), &log)?;
    let mut session = Session::open(&server.addr)?;
    let warm_n = records.len().min(32);
    let warm: Vec<Record> = records[..warm_n].to_vec();
    session.burst(warm.clone())?;

    let mut rng = Rng::new(args.seed, 9);
    let mut rtts = Vec::new();
    for k in 0..30 {
        let base = &warm[k % warm.len()];
        let probe = Record {
            id: format!("probe{k}"),
            inst: gen::shuffled(&base.inst, &mut rng),
            class: base.class,
        };
        let t = Instant::now();
        session.burst(vec![probe])?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let drive_n = if args.smoke { 100 } else { DRIVE_RECORDS };
    let drive: Vec<Record> = records[warm_n..].iter().take(drive_n).cloned().collect();
    let drive = if drive.is_empty() {
        warm.clone()
    } else {
        drive
    };
    let step = Step::poisson("drive", RATE_HIGH, drive, &mut rng);
    let tree = server.tree();
    let cpu_before: f64 = tree.iter().map(|&p| sys::cpu_seconds(p)).sum();
    let addr = server.addr.clone();
    let mut samples: Vec<Value> = Vec::new();
    let mut last = Instant::now() - Duration::from_secs(1);
    let mut sample = || {
        if last.elapsed() >= Duration::from_millis(10) {
            last = Instant::now();
            if let Ok(v) = healthz(&addr) {
                samples.push(v);
            }
        }
    };
    let result = session.step(step, &mut sample)?;
    let tree = server.tree();
    let cpu_after: f64 = tree.iter().map(|&p| sys::cpu_seconds(p)).sum();
    let records_sent = session.records.clone();
    let answers = session.answers.clone();
    let trailer = session.finish()?;
    let mut problems = Vec::new();
    if let Err(e) = server.stop(&tree, Duration::from_secs(15)) {
        problems.push(e);
    }
    let verdict = check_stream(&records_sent, &answers, 1, &Oracle::default());
    for (i, reason) in verdict.failures.iter().take(5) {
        eprintln!("tracer: live record {} failed: {reason}", i + 1);
    }
    let trailer = json::parse(&trailer).map_err(|e| format!("trailer: {e}"))?;
    let (hits, misses) = (
        count(&trailer, "solution_cache_hits"),
        count(&trailer, "solution_cache_misses"),
    );
    let busy: Vec<f64> = samples
        .iter()
        .map(|v| count(v, "busy_workers") / count(v, "workers").max(1.0))
        .collect();
    let depth: Vec<f64> = samples.iter().map(|v| count(v, "queue_depth")).collect();
    let outbox = samples
        .iter()
        .map(|v| count(v, "outbox_bytes"))
        .fold(0.0, f64::max);
    Ok(Live {
        hit_rtt_us: median(&rtts),
        cpu_per_record_us: cpu_after / records_sent.len() as f64 * 1e6,
        cpu_per_wall: (cpu_after - cpu_before) / result.wall.as_secs_f64(),
        busy_share: if busy.is_empty() { 0.0 } else { mean(&busy) },
        queue_depth_p99: if depth.is_empty() {
            0.0
        } else {
            quantile(&depth, 0.99)
        },
        outbox_bytes_max: outbox,
        cache_hit_share: hits / (hits + misses).max(1.0),
        records: records_sent.len(),
        failed: verdict.failures.len(),
        problems,
    })
}

/// CPU seconds ÷ wall seconds of the CLI process(es) doing the
/// workload's unit of work: one `solve` per large instance, or one
/// `batch` over the records.
fn process_cpu_per_wall(args: &Args, records: &[Record]) -> Result<f64, String> {
    let limit = Duration::from_secs(60);
    let cpu_before = sys::children_cpu_seconds();
    let mut wall = 0.0;
    if args.workload == "solve-large" {
        for r in records {
            let path = args.work.join(format!("trace-{}.json", r.id));
            std::fs::write(&path, gen::instance_file(&r.id, &r.inst)).map_err(|e| e.to_string())?;
            let path = path.to_str().ok_or("work path is not UTF-8")?;
            wall += run_cli(&args.cli, &["solve", "--input", path, "--json"], limit)?
                .wall
                .as_secs_f64();
        }
    } else {
        let path = args.work.join("trace-batch.ndjson");
        let text: String = records.iter().map(|r| r.line() + "\n").collect();
        std::fs::write(&path, text).map_err(|e| e.to_string())?;
        let path = path.to_str().ok_or("work path is not UTF-8")?;
        wall += run_cli(
            &args.cli,
            &["batch", path, "--workers", "2", "--quiet"],
            limit,
        )?
        .wall
        .as_secs_f64();
    }
    Ok((sys::children_cpu_seconds() - cpu_before) / wall)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let registry = full_registry();
    let records = workload_records(args);
    let shards = if args.workload == "online-routed" {
        2
    } else {
        1
    };
    let mut outcome = Outcome::default();

    // the replay: one warm-up round, then untraced and traced in turn;
    // the last traced one is kept
    let mut walls = [Vec::new(), Vec::new()];
    let mut kept = None;
    for round in 0..7 {
        let on = round % 2 == 0 && round > 0;
        let mut trace = Trace::new(on);
        let (reports, counts, wall) = replay(&records, &registry, shards, &mut trace)?;
        if round > 0 {
            walls[usize::from(on)].push(wall.as_secs_f64());
        }
        if on {
            kept = Some((trace, reports, counts));
        }
    }
    let (trace, reports, counts) = kept.expect("a traced round ran");
    trace.write(&args.work.join(format!("trace-{}.ndjson", args.workload)))?;
    let overhead = (median(&walls[1]) - median(&walls[0])) / median(&walls[0]);
    let hit_set: std::collections::HashSet<usize> = counts.hits.iter().copied().collect();
    let all = |_: usize| true;

    // layers the replay does not pass through, on the same records
    let sample: Vec<&Record> = records.iter().take(1000).collect();
    let schedule_ms = time_each(&sample, |r| {
        let options = SolveOptions::default();
        let solver = registry
            .build(solver_key(r), &options)
            .expect("registered solver");
        black_box(
            Decomposed::new(solver)
                .schedule_with(&r.inst, &CancelToken::never())
                .ok(),
        );
    });
    let bound_ms = time_each(&sample, |r| {
        black_box(bounds::best_lower_bound(&r.inst));
    });
    let validate_ms: Vec<f64> = records
        .iter()
        .zip(&reports)
        .take(1000)
        .map(|(r, report)| {
            let t = Instant::now();
            black_box(report.schedule.validate(&r.inst).is_ok());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mut read_ms = Vec::new();
    for (k, r) in records.iter().take(100).enumerate() {
        let path = args.work.join(format!("trace-read-{k}.json"));
        std::fs::write(&path, gen::instance_file(&r.id, &r.inst)).map_err(|e| e.to_string())?;
        let t = Instant::now();
        black_box(read_instance(&path).map_err(|e| e.to_string())?);
        read_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let (exact_cold, exact_warm, cut_share) =
        exact_figures(&exact_records(args, &records), &registry)?;
    let queue_wait = queue_wait_ms(&records[..records.len().min(2000)], &registry);
    let input: String = records.iter().map(|r| r.line() + "\n").collect();
    let session_w1 = session_ms(&input, &registry, 1)?;
    let session_w2 = session_ms(&input, &registry, 2)?;
    let replayed_ms: f64 = trace.durations_us("record", all).iter().sum::<f64>() / 1e3;
    let speedup = intra_speedup(&records, &registry)?;

    // the live servers and the CLI itself
    let cli_ms: Vec<f64> = (0..20)
        .map(|_| run_cli(&args.cli, &["solvers"], Duration::from_secs(30)))
        .map(|r| r.map(|f| f.wall.as_secs_f64() * 1e3))
        .collect::<Result<_, _>>()?;
    let listen = live(args, &records, false)?;
    let route = live(args, &records, true)?;
    let cpu_per_wall = if args.workload.starts_with("online") {
        listen.cpu_per_wall
    } else {
        process_cpu_per_wall(args, &records)?
    };

    for (name, ms) in trace.self_ms() {
        outcome.detail(&format!("self_ms.{name}"), ms, "ms");
    }
    outcome.detail("replay.untraced_ms", median(&walls[0]) * 1e3, "ms");
    outcome.detail("replay.traced_ms", median(&walls[1]) * 1e3, "ms");
    outcome.detail("spans", trace.spans.len() as f64, "count");
    outcome.attempted = records.len() + listen.records + route.records;
    outcome.failed = listen.failed + route.failed;
    outcome.problems.extend(listen.problems.iter().cloned());
    outcome.problems.extend(route.problems.iter().cloned());

    let m = &mut outcome;
    m.metric("cli.start_ms", median(&cli_ms), "ms");
    m.metric("instances.read_ms", median(&read_ms), "ms");
    m.metric(
        "protocol.parse_us",
        median(&trace.durations_us("protocol.parse", all)),
        "us",
    );
    m.metric(
        "protocol.fast_path_share",
        counts.fast_path as f64 / records.len() as f64,
        "fraction",
    );
    m.metric(
        "protocol.render_us",
        median(&trace.durations_us("protocol.render", all)),
        "us",
    );
    m.metric(
        "memo.canon_us",
        median(&trace.durations_us("memo.canon", all)),
        "us",
    );
    let inserts = trace.durations_us("memo.insert", all);
    m.metric(
        "memo.insert_us",
        if inserts.is_empty() {
            0.0
        } else {
            median(&inserts)
        },
        "us",
    );
    let hits = trace.durations_us("memo.lookup", |i| hit_set.contains(&i));
    m.metric(
        "memo.hit_us",
        if hits.is_empty() { 0.0 } else { median(&hits) },
        "us",
    );
    m.metric(
        "memo.hit_share",
        counts.hits.len() as f64 / counts.lookups as f64,
        "fraction",
    );
    m.metric(
        "memo.warm_share",
        counts.warm_hints as f64 / counts.exact_misses.max(1) as f64,
        "fraction",
    );
    let detect = trace.durations_us("features.detect", all);
    m.metric(
        "features.detect_us",
        if detect.is_empty() {
            0.0
        } else {
            median(&detect)
        },
        "us",
    );
    let pipeline = trace.durations_us("solve.pipeline", all);
    m.metric(
        "solve.pipeline_ms",
        if pipeline.is_empty() {
            0.0
        } else {
            median(&pipeline) / 1e3
        },
        "ms",
    );
    m.metric("algo.schedule_ms", median(&schedule_ms), "ms");
    m.metric("bounds.lower_bound_ms", median(&bound_ms), "ms");
    m.metric("verify.validate_ms", median(&validate_ms), "ms");
    m.metric("exact.cold_ms", exact_cold, "ms");
    m.metric("exact.warm_ms", exact_warm, "ms");
    m.metric(
        "exact.cut_share",
        if counts.exact_answers > 0 {
            counts.cuts as f64 / counts.exact_answers as f64
        } else {
            cut_share
        },
        "fraction",
    );
    m.metric("pool.queue_wait_ms", queue_wait, "ms");
    m.metric("pool.busy_share", listen.busy_share, "fraction");
    m.metric("pool.queue_depth_p99", listen.queue_depth_p99, "count");
    m.metric("intra.cpu_per_wall", cpu_per_wall, "ratio");
    m.metric("intra.speedup", speedup, "ratio");
    m.metric("engine.session_ms_w1", session_w1, "ms");
    m.metric("engine.session_ms_w2", session_w2, "ms");
    m.metric(
        "engine.self_share",
        1.0 - replayed_ms / session_w1,
        "fraction",
    );
    m.metric("listener.hit_rtt_us", listen.hit_rtt_us, "us");
    m.metric(
        "listener.outbox_bytes_max",
        listen.outbox_bytes_max,
        "bytes",
    );
    m.metric("listener.cpu_per_record_us", listen.cpu_per_record_us, "us");
    m.metric("router.hit_rtt_us", route.hit_rtt_us, "us");
    m.metric("router.cache_hit_share", route.cache_hit_share, "fraction");
    m.metric("router.cpu_per_record_us", route.cpu_per_record_us, "us");
    m.metric("trace.overhead_share", overhead, "fraction");
    Ok(outcome)
}
