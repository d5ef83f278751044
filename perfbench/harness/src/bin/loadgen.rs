//! `loadgen`: drives the real `busytime-cli` through one workload, re-checks
//! every answer and prints the end-to-end metrics.
//!
//! ```text
//! loadgen --workload batch-small --seed 1 --seconds 12 \
//!         --cli target/release/busytime-cli --work /tmp/perfbench [--smoke]
//! loadgen --saturate --seed 1 --cli … --work …   # re-measure the online rates
//! ```
//!
//! Exit status: 0 for a valid run, 1 when any answer failed or the run
//! was invalid (the JSON line still prints), 2 when the run could not be
//! carried out (nothing prints on stdout).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::gen::{self, Record};
use perfbench::online::{self, server_args, Mix, Session, StepResult, RATE_HIGH, RATE_LOW};
use perfbench::report::Outcome;
use perfbench::stats::{beyond, median, quantile};
use perfbench::sys::{self, run_cli, Server};
use perfbench::verify::{check_report, check_stream, strip_timings, Oracle, Verdict};
use perfbench::Args;

/// Records per `batch-small` invocation: far more distinct records than
/// the solution cache's 1024 entries.
const BATCH_RECORDS: usize = 4000;
/// `batch-small` invocations per run at least: 41 put 10 beyond p75.
const BATCH_MIN_RUNS: usize = 41;
const BATCH_TAIL: f64 = 0.75;
/// `solve-large` solves per run at least: 210 put 10 beyond p95.
const SOLVE_MIN_RUNS: usize = 210;
const SOLVE_TAIL: f64 = 0.95;
/// Set-ups per run; `setup_s` is their median.
const SETUPS_OFFLINE: usize = 7;
const SETUPS_ONLINE: usize = 5;

/// Ladder: rates `RATE_HIGH · LADDER_STEP^k`, k = 1..=LADDER_MAX.
const LADDER_STEP: f64 = 1.15;
const LADDER_MAX: usize = 9;
/// Records per online step or sub-step: 1000 put 10 beyond p99.
const STEP_RECORDS: usize = 1000;
/// The p99 latency limit of `max_rps_at_slo`, ms.
const SLO_P99_MS: f64 = 25.0;
/// Generator lateness beyond which a run is invalid, ms.
const LATE_P99_MS: f64 = 25.0;
const LATE_MAX_MS: f64 = 250.0;

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let saturate = argv.iter().any(|a| a == "--saturate");
    if saturate {
        argv.retain(|a| a != "--saturate");
        argv.extend(["--workload".into(), "online-mixed".into()]);
    }
    let args = match Args::parse(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    if saturate {
        return match saturation(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("loadgen: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = match args.workload.as_str() {
        "batch-small" => batch_small(&args),
        "solve-large" => solve_large(&args),
        "online-mixed" => online_run(&args, false),
        _ => online_run(&args, true),
    };
    match outcome {
        Ok(outcome) => {
            let header = format!(
                "perfbench workload={} seed={} seconds={} smoke={} {} {}",
                args.workload,
                args.seed,
                args.seconds,
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
            eprintln!("loadgen: {e}");
            ExitCode::from(2)
        }
    }
}

fn write_lines(path: &Path, records: &[Record]) -> Result<(), String> {
    let mut text = String::new();
    for r in records {
        text.push_str(&r.line());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

/// Median of `n` timed set-ups.
fn median_setup(
    n: usize,
    mut once: impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    let mut walls = Vec::with_capacity(n);
    for _ in 0..n {
        walls.push(once()?);
    }
    Ok(median(&secs(&walls)))
}

/// Prints the first failures to stderr and records them as problems.
fn report_failures(
    outcome: &mut Outcome,
    what: &str,
    failures: &[(usize, String)],
    records: &[Record],
) {
    for (i, reason) in failures.iter().take(5) {
        let line = records.get(*i).map(Record::line).unwrap_or_default();
        let shown: String = line.chars().take(300).collect();
        eprintln!(
            "perfbench: {what}: record {} failed: {reason}\n  record: {shown}",
            i + 1
        );
    }
    outcome.failed += failures.len();
}

/// `batch-small`: closed loop, one client. `busytime-cli batch FILE
/// --workers 2` over `BATCH_RECORDS` distinct small records, timed from
/// spawn to exit, repeated for the run.
fn batch_small(args: &Args) -> Result<Outcome, String> {
    let n = if args.smoke { 200 } else { BATCH_RECORDS };
    let records = gen::batch_records(args.seed, n);
    let oracle = Oracle::build(&records);
    let file = args.work.join("batch-small.ndjson");
    write_lines(&file, &records)?;
    let tiny = args.work.join("batch-setup.ndjson");
    write_lines(&tiny, &records[..8])?;
    let file = file.to_str().ok_or("work path is not UTF-8")?;
    let tiny = tiny.to_str().ok_or("work path is not UTF-8")?;
    let limit = Duration::from_secs(60);

    let mut outcome = Outcome::default();
    let setup = median_setup(SETUPS_OFFLINE, || {
        Ok(run_cli(
            &args.cli,
            &["batch", tiny, "--workers", "2", "--quiet"],
            limit,
        )?
        .wall)
    })?;

    let (min_runs, budget) = if args.smoke {
        (2, 0.0)
    } else {
        (BATCH_MIN_RUNS, args.seconds)
    };
    let mut walls: Vec<Duration> = Vec::new();
    let mut peak_mb: f64 = 0.0;
    let cpu_before = sys::children_cpu_seconds();
    // the first invocation's answers are checked in full; a later one
    // that matches them line for line (timings aside) inherits the check,
    // anything else is checked in full again
    let mut verified: Option<(Verdict, Vec<String>)> = None;
    while walls.len() < min_runs || walls.iter().sum::<Duration>().as_secs_f64() < budget {
        let run = run_cli(
            &args.cli,
            &["batch", file, "--workers", "2", "--quiet"],
            limit,
        )?;
        walls.push(run.wall);
        peak_mb = peak_mb.max(run.peak_rss_mb);
        outcome.attempted += records.len();
        let stripped: Vec<String> = run.stdout.lines().map(strip_timings).collect();
        if verified
            .as_ref()
            .is_some_and(|(_, reference)| *reference == stripped)
        {
            continue;
        }
        let answers: Vec<&str> = run.stdout.lines().collect();
        let verdict = check_stream(&records, &answers, 1, &oracle);
        if answers.len() != records.len() {
            outcome.problems.push(format!(
                "{} answer lines for {} records",
                answers.len(),
                records.len()
            ));
        }
        report_failures(&mut outcome, "batch-small", &verdict.failures, &records);
        if verified.is_none() {
            verified = Some((verdict, stripped));
        }
    }
    let (verdict, _) = verified.expect("at least one invocation");
    let cpu_s = sys::children_cpu_seconds() - cpu_before;
    let wall_s = secs(&walls);
    let rates: Vec<f64> = wall_s.iter().map(|w| n as f64 / w).collect();

    outcome.detail("records_per_batch", n as f64, "count");
    outcome.detail("batches", walls.len() as f64, "count");
    outcome.detail("oracle_instances", oracle.len() as f64, "count");
    outcome.detail("cpu_per_wall", cpu_s / wall_s.iter().sum::<f64>(), "ratio");
    outcome.detail("throughput_rps.q1", quantile(&rates, 0.25), "rec/s");
    outcome.detail("throughput_rps.q3", quantile(&rates, 0.75), "rec/s");
    outcome.detail(
        "failed_share",
        outcome.failed as f64 / outcome.attempted as f64,
        "fraction",
    );
    outcome.detail("tail_rank", BATCH_TAIL * 100.0, "percentile");
    outcome.detail(
        "tail_beyond",
        beyond(walls.len(), BATCH_TAIL) as f64,
        "count",
    );
    outcome.metric("setup_s", setup, "s");
    outcome.metric("throughput_rps", median(&rates), "rec/s");
    outcome.metric("p50_ms", median(&wall_s) * 1e3, "ms");
    outcome.metric("tail_ms", quantile(&wall_s, BATCH_TAIL) * 1e3, "ms");
    outcome.metric(
        "aggregate_gap",
        verdict.total_cost() as f64 / verdict.total_lower_bound() as f64,
        "ratio",
    );
    outcome.metric("peak_rss_mb", peak_mb, "MB");
    Ok(outcome)
}

/// `solve-large`: closed loop, one `busytime-cli solve --input FILE
/// --json` at a time, round-robin over the five instances of
/// `gen::large_set`, all above the fork threshold.
fn solve_large(args: &Args) -> Result<Outcome, String> {
    let set = gen::large_set(args.seed, if args.smoke { 0.6 } else { 1.0 });
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    for (name, inst) in &set {
        let path = args.work.join(format!("large-{name}.json"));
        std::fs::write(&path, gen::instance_file(name, inst))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        files.push((name.clone(), path));
    }
    let tiny = args.work.join("solve-setup.json");
    let small = gen::batch_records(args.seed, 1);
    std::fs::write(&tiny, gen::instance_file("setup", &small[0].inst))
        .map_err(|e| format!("{}: {e}", tiny.display()))?;
    let tiny = tiny.to_str().ok_or("work path is not UTF-8")?;
    let limit = Duration::from_secs(60);
    let oracle = Oracle::default();

    let mut outcome = Outcome::default();
    let setup = median_setup(SETUPS_OFFLINE, || {
        Ok(run_cli(&args.cli, &["solve", "--input", tiny, "--json"], limit)?.wall)
    })?;

    let (min_runs, budget) = if args.smoke {
        (set.len(), 0.0)
    } else {
        (SOLVE_MIN_RUNS, args.seconds)
    };
    let mut walls: Vec<Duration> = Vec::new();
    let (mut cost, mut bound) = (0i64, 0i64);
    let mut peak_mb: f64 = 0.0;
    let cpu_before = sys::children_cpu_seconds();
    while walls.len() < min_runs || walls.iter().sum::<Duration>().as_secs_f64() < budget {
        let k = walls.len() % set.len();
        let path = files[k].1.to_str().ok_or("work path is not UTF-8")?;
        let run = run_cli(&args.cli, &["solve", "--input", path, "--json"], limit)?;
        walls.push(run.wall);
        peak_mb = peak_mb.max(run.peak_rss_mb);
        outcome.attempted += 1;
        let checked = busytime_instances::json::parse(&run.stdout)
            .map_err(|e| e.to_string())
            .and_then(|report| check_report(&set[k].1, &report, false, &oracle));
        match checked {
            Ok(c) if walls.len() <= set.len() => {
                cost += c.cost;
                bound += c.lower_bound;
            }
            Ok(_) => {}
            Err(reason) => {
                eprintln!("perfbench: solve-large: {} failed: {reason}", files[k].0);
                outcome.failed += 1;
            }
        }
    }
    let cpu_s = sys::children_cpu_seconds() - cpu_before;
    let wall_s = secs(&walls);
    let total: f64 = wall_s.iter().sum();
    for (k, (name, _)) in files.iter().enumerate() {
        let mine: Vec<f64> = wall_s.iter().skip(k).step_by(set.len()).copied().collect();
        outcome.detail(&format!("p50_ms.{name}"), median(&mine) * 1e3, "ms");
    }
    outcome.detail("solves", walls.len() as f64, "count");
    outcome.detail("cpu_per_wall", cpu_s / total, "ratio");
    outcome.detail(
        "failed_share",
        outcome.failed as f64 / outcome.attempted as f64,
        "fraction",
    );
    outcome.detail("tail_rank", SOLVE_TAIL * 100.0, "percentile");
    outcome.detail(
        "tail_beyond",
        beyond(walls.len(), SOLVE_TAIL) as f64,
        "count",
    );
    outcome.metric("setup_s", setup, "s");
    outcome.metric("throughput_rps", walls.len() as f64 / total, "rec/s");
    outcome.metric("p50_ms", median(&wall_s) * 1e3, "ms");
    outcome.metric("tail_ms", quantile(&wall_s, SOLVE_TAIL) * 1e3, "ms");
    outcome.metric("aggregate_gap", cost as f64 / bound as f64, "ratio");
    outcome.metric("peak_rss_mb", peak_mb, "MB");
    Ok(outcome)
}

/// Spawns the server and runs the warm-up pass on a fresh connection:
/// the set-up a client pays before the first measured record.
fn setup_online(
    args: &Args,
    routed: bool,
    warm: &[Record],
    trial: usize,
) -> Result<(Server, Session, Duration), String> {
    let started = Instant::now();
    let log = args.work.join(format!("server-{trial}.log"));
    let server = Server::start(&args.cli, server_args(routed), &log)?;
    let mut session = Session::open(&server.addr)?;
    session.burst(warm.to_vec())?;
    Ok((server, session, started.elapsed()))
}

/// Sub-steps of `STEP_RECORDS` records for a step taking `share` of the
/// run at `rate`.
fn sub_steps(args: &Args, rate: f64, share: f64) -> usize {
    ((rate * args.seconds * share / STEP_RECORDS as f64).round() as usize).max(1)
}

/// The median over a step's sub-steps of one latency quantile.
fn step_latency(steps: &[StepResult], group: &str, q: f64, failed: &[bool]) -> f64 {
    let values: Vec<f64> = steps
        .iter()
        .filter(|s| s.name.split('#').next() == Some(group))
        .map(|s| s.latency(q, failed))
        .collect();
    median(&values)
}

/// `online-mixed` / `online-routed`: open loop on one long-lived NDJSON
/// connection, Poisson arrivals at `low`, `high`, then an ascending ladder.
/// `low` and `high` run as sub-steps of `STEP_RECORDS` records and report
/// medians over them, so one host hiccup moves one sub-step, not the run.
fn online_run(args: &Args, routed: bool) -> Result<Outcome, String> {
    let mut mix = Mix::new(args.seed);
    let warm = mix.warmup();
    let per_step = if args.smoke { 60 } else { STEP_RECORDS };
    let mut plan: Vec<online::Step> = Vec::new();
    for (group, rate, share) in [("low", RATE_LOW, 0.3), ("high", RATE_HIGH, 0.3)] {
        for k in 1..=sub_steps(args, rate, share) {
            plan.push(mix.step(&format!("{group}#{k}"), rate, per_step));
        }
    }
    let ladder_max = if args.smoke { 2 } else { LADDER_MAX };
    let ladder: Vec<online::Step> = (1..=ladder_max)
        .map(|k| {
            let rate = RATE_HIGH * LADDER_STEP.powi(k as i32);
            mix.step(&format!("ladder-{k}"), rate, per_step)
        })
        .collect();
    let oracle = Oracle::build(
        warm.iter()
            .chain(plan.iter().flat_map(|s| &s.records))
            .chain(ladder.iter().flat_map(|s| &s.records)),
    );

    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut live = None;
    for trial in 0..SETUPS_ONLINE {
        let (server, session, took) = setup_online(args, routed, &warm, trial)?;
        setups.push(took.as_secs_f64());
        if trial + 1 < SETUPS_ONLINE {
            let tree = server.tree();
            session.finish()?;
            if let Err(e) = server.stop(&tree, Duration::from_secs(15)) {
                outcome.problems.push(e);
            }
        } else {
            live = Some((server, session));
        }
    }
    let (server, mut session) = live.expect("the last set-up stays live");

    let mut steps: Vec<StepResult> = Vec::new();
    let mut idle = || {};
    for step in plan {
        steps.push(session.step(step, &mut idle)?);
    }
    for step in ladder {
        let result = session.step(step, &mut idle)?;
        // the first rung over the limit ends the ladder (checked again
        // with failures once the answers are verified)
        let over = result.latency(0.99, &[]) > SLO_P99_MS || result.backlog_grew();
        steps.push(result);
        if over {
            break;
        }
    }
    let tree = server.tree();
    let peak_mb: f64 = tree.iter().map(|&p| sys::peak_rss_mb(p)).sum();
    let cpu_s: f64 = tree.iter().map(|&p| sys::cpu_seconds(p)).sum();
    let records = std::mem::take(&mut session.records);
    let answers = std::mem::take(&mut session.answers);
    let trailer = session.finish()?;
    if let Err(e) = server.stop(&tree, Duration::from_secs(15)) {
        outcome.problems.push(e);
    }

    let verdict = check_stream(&records, &answers, 1, &oracle);
    if answers.len() != records.len() {
        outcome.problems.push(format!(
            "{} answer lines for {} records",
            answers.len(),
            records.len()
        ));
    }
    let workload = if routed {
        "online-routed"
    } else {
        "online-mixed"
    };
    report_failures(&mut outcome, workload, &verdict.failures, &records);
    outcome.attempted = records.len();
    let mut failed = vec![false; records.len()];
    for (i, _) in &verdict.failures {
        failed[*i] = true;
    }

    let meets = |s: &StepResult| {
        s.latency(0.99, &failed) <= SLO_P99_MS && s.failures(&failed) == 0 && !s.backlog_grew()
    };
    for s in &steps {
        let late_p99 = quantile(&s.lateness_ms, 0.99);
        let late_max = s.lateness_ms.iter().copied().fold(0.0, f64::max);
        outcome.detail(&format!("{}.rate", s.name), s.rate, "rec/s");
        outcome.detail(&format!("{}.p50", s.name), s.latency(0.5, &failed), "ms");
        outcome.detail(&format!("{}.p99", s.name), s.latency(0.99, &failed), "ms");
        outcome.detail(&format!("{}.late_p99", s.name), late_p99, "ms");
        outcome.detail(&format!("{}.late_max", s.name), late_max, "ms");
        outcome.detail(
            &format!("{}.backlog_end", s.name),
            s.backlog.1 as f64,
            "count",
        );
        if late_p99 > LATE_P99_MS || late_max > LATE_MAX_MS {
            outcome.problems.push(format!(
                "generator ran late in step {} (p99 {late_p99:.2} ms, max {late_max:.1} ms)",
                s.name
            ));
        }
    }
    let max_rps = max_rate_at_slo(&steps, &failed, &meets);
    outcome.detail(
        "p50_ms_at_low",
        step_latency(&steps, "low", 0.5, &failed),
        "ms",
    );
    outcome.detail(
        "p99_ms_at_low",
        step_latency(&steps, "low", 0.99, &failed),
        "ms",
    );
    outcome.detail(
        "p50_ms_at_high",
        step_latency(&steps, "high", 0.5, &failed),
        "ms",
    );
    outcome.detail(
        "p99_ms_at_high",
        step_latency(&steps, "high", 0.99, &failed),
        "ms",
    );
    outcome.detail("max_rps_at_slo", max_rps, "rec/s");
    outcome.detail(
        "failed_share",
        outcome.failed as f64 / outcome.attempted as f64,
        "fraction",
    );
    outcome.detail(
        "cached_share",
        verdict.count(|c| c.cached) as f64 / records.len() as f64,
        "fraction",
    );
    outcome.detail(
        "warm_started",
        verdict.count(|c| c.warm_started) as f64,
        "count",
    );
    outcome.detail(
        "deadline_hits",
        verdict.count(|c| c.deadline_hit) as f64,
        "count",
    );
    outcome.detail(
        "cpu_per_record_us",
        cpu_s / records.len() as f64 * 1e6,
        "us",
    );
    outcome.detail("oracle_instances", oracle.len() as f64, "count");
    eprintln!("perfbench: trailer {trailer}");
    outcome.metric("setup_s", median(&setups), "s");
    outcome.metric("throughput_rps", max_rps, "rec/s");
    outcome.metric("p50_ms", step_latency(&steps, "high", 0.5, &failed), "ms");
    outcome.metric("tail_ms", step_latency(&steps, "high", 0.99, &failed), "ms");
    outcome.metric(
        "aggregate_gap",
        verdict.total_cost() as f64 / verdict.total_lower_bound() as f64,
        "ratio",
    );
    outcome.metric("peak_rss_mb", peak_mb, "MB");
    Ok(outcome)
}

/// `max_rps_at_slo`: the highest offered rate among `steps` that meets the
/// limit, refined toward the next rung by where the p99 crosses
/// `SLO_P99_MS` (linear in rate), so the figure moves with the system
/// instead of jumping a whole rung.
fn max_rate_at_slo(
    steps: &[StepResult],
    failed: &[bool],
    meets: &dyn Fn(&StepResult) -> bool,
) -> f64 {
    let Some(best) = steps
        .iter()
        .filter(|s| meets(s))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
    else {
        return 0.0;
    };
    let next_fail = steps
        .iter()
        .filter(|s| s.rate > best.rate && !meets(s))
        .min_by(|a, b| a.rate.total_cmp(&b.rate));
    let Some(fail) = next_fail else {
        return best.rate;
    };
    let (p_ok, p_fail) = (best.latency(0.99, failed), fail.latency(0.99, failed));
    let frac = if p_fail.is_finite() && p_fail > p_ok {
        ((SLO_P99_MS - p_ok) / (p_fail - p_ok)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    best.rate + (fail.rate - best.rate) * frac
}

/// `--saturate`: offers the online mix far above capacity on a 2-worker
/// `listen` and prints the rate it answers at (the deep-queue saturation
/// rate `RATE_LOW` and `RATE_HIGH` are compared against).
fn saturation(args: &Args) -> Result<(), String> {
    let mut mix = Mix::new(args.seed);
    let warm = mix.warmup();
    let (server, mut session, _) = setup_online(args, false, &warm, 0)?;
    for round in 0..3 {
        let step = mix.step("flood", 50_000.0, 3000);
        let result = session.step(step, &mut || {})?;
        println!(
            "round {round}: {} records answered in {:.3} s = {:.0} rec/s",
            result.latency_ms.len(),
            result.wall.as_secs_f64(),
            result.latency_ms.len() as f64 / result.wall.as_secs_f64()
        );
    }
    let tree = server.tree();
    session.finish()?;
    server.stop(&tree, Duration::from_secs(15))
}
