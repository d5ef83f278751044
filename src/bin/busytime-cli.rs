//! `busytime-cli` — generate, solve and inspect busy-time scheduling
//! instances from the command line.
//!
//! Solving goes through the unified pipeline of `busytime_core::solve`:
//! any solver in the registry (including the exact ones) is reachable by
//! name, and results are emitted as a full `SolveReport` — cost, lower
//! bound, approximation gap, detected instance features and per-phase
//! timings — as text or JSON.
//!
//! ```text
//! busytime-cli generate --family uniform --n 40 --g 3 --seed 7 --out inst.json
//! busytime-cli solve --input inst.json --solver auto --gantt
//! busytime-cli solve --input inst.json --solver exact --json
//! busytime-cli solvers
//! busytime-cli bounds --input inst.json
//! busytime-cli compare --input inst.json
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use busytime::core::solve::{ParallelPolicy, ValidationLevel};
use busytime::core::{bounds, render};
use busytime::instances::io::{read_instance, write_instance, InstanceFile};
use busytime::instances::{Family, GeneratorSpec};
use busytime::router::{RouteConfig, Router, ShardFleet, ShardState};
use busytime::server::{
    serve, ConnLog, ErrorPolicy, ListenConfig, ListenMode, Listener, ServeConfig,
    DEFAULT_SOLUTION_CACHE,
};
use busytime::{full_registry, Instance, SolveRequest};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(takes) = options_of(command) else {
        eprintln!("error: unknown command '{command}'");
        return ExitCode::FAILURE;
    };
    // `batch` takes its input file as a positional argument
    let (positional, rest) = match rest.split_first() {
        Some((p, more)) if command == "batch" && !p.starts_with("--") => (Some(p.clone()), more),
        _ => (None, rest),
    };
    let opts = match parse_opts(command, &takes, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&opts),
        "solve" => cmd_solve(&opts),
        "serve" => cmd_serve(&opts, None),
        "listen" => cmd_listen(&opts),
        "route" => cmd_route(&opts),
        "batch" => match positional.or_else(|| opts.get("input").cloned()) {
            Some(file) => cmd_serve(&opts, Some(&file)),
            None => Err("batch requires an input FILE".to_string()),
        },
        "solvers" => cmd_solvers(),
        "bounds" => cmd_bounds(&opts),
        "compare" => cmd_compare(&opts),
        // help, -h, --help
        _ => {
            emit_line(USAGE);
            return ExitCode::SUCCESS;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
busytime-cli — busy-time scheduling (Flammini et al., TCS 2010)

commands:
  generate --family F [--n N] [--g G] [--seed S] [--d D] --out FILE
           F ∈ uniform | proper | clique | bounded | laminar | fig4 | shifts
  solve    --input FILE [--solver NAME] [--json] [--gantt] [--out FILE]
           [--seed S] [--no-decompose] [--validation skip|basic|strict]
           [--deadline-ms MS]   hard solve deadline; cut solves return the
           solver's incumbent flagged `deadline_hit`
           [--parallel auto|on|off]  fork one solve across idle workers
           (deterministic: same report either way; default auto)
           NAME: any registry entry (see `solvers`); default `auto`
  serve    batch solve server: NDJSON records on stdin, one report line per
           record on stdout (input order), summary on stderr
           [--workers N] [--solver NAME] [--chunk N] [--quiet]
           [--fail-fast | --keep-going] [--summary-json]
           [--parallel auto|on|off]  per-record intra-solve fork default (a
           record's `parallel` field overrides it)
           [--deadline-ms MS]   per-record deadline default (a record's own
           `deadline_ms` field overrides it)
           [--solution-cache N] capacity of the validated-solution cache
           (repeat records answer `cached: true` at lookup speed; a
           record's `cache` field opts out); [--no-cache] disables it
  batch    FILE                (like `serve`, reading records from FILE)
  listen   long-lived batch solve service over a socket; one NDJSON batch
           per connection (response lines in input order, then one summary
           line after the client half-closes)
           --tcp ADDR | --unix PATH | --http ADDR   (exactly one; `--http`
           serves POST /solve + GET /healthz; tcp `:0` picks a free port,
           printed as `listening on ...` on stderr)
           [--max-conns N] [--idle-timeout-ms MS] [--conn-idle-timeout-ms MS]
           (two readiness-loop reactor threads multiplex every connection;
           a connection costs a poller slot, not a thread; past 256 KiB of
           unread answers the listener stops reading that connection until
           the client drains them)
           [--workers N]        process-wide worker budget shared by every
           connection (also via BUSYTIME_WORKERS; default: all cores;
           0 is rejected — it would leave no worker at all)
           [--shard-id ID]      tag /healthz and connection logs (the
           router's --spawn mode sets this on its children)
           [--solver NAME] [--chunk N] [--fail-fast | --keep-going]
           [--quiet] [--parallel auto|on|off]
           [--deadline-ms MS]   per-record request timeout default
           [--solution-cache N | --no-cache]   one solution cache shared by
           every connection (/healthz reports its hit rate)
           SIGINT/SIGTERM drain in-flight batches, then exit cleanly
  route    shard router: N `listen` backends behind one endpoint speaking
           the same protocol — records fan out across the fleet, responses
           come back in input order, one merged summary trailer per
           connection, GET /healthz reports the whole fleet
           --tcp ADDR | --unix PATH | --http ADDR   (exactly one)
           --shards A,B,…       pre-started backend addresses, or
           --spawn N            launch + supervise N local shards
           (crashed shards restart with backoff; in-flight records retry
           on a healthy shard; SIGINT drains the whole tree)
           [--spawn-workers N]  worker budget per spawned shard
           [--workers N]        checked like everywhere (0 is refused); the
           router itself solves nothing
           [--sticky]           pin each connection to one shard
           [--probe-interval-ms MS]   how often a prober sends each shard
           `GET /healthz` (default 500) and reads the answer to the end of
           the stream; two failed probes in a row demote a shard
           [--max-conns N] [--quiet]
           [--solver NAME] [--deadline-ms MS] [--parallel auto|on|off]
           forwarded to spawned shards
           [--solution-cache N | --no-cache]   forwarded to spawned shards
           (each shard caches its own solutions; trailers merge hit counts)
  solvers  list every registered solver with its guarantee
  bounds   --input FILE
  compare  --input FILE        (all registered solvers side by side)";

/// Options every serving command takes (`serve`, `batch`, `listen` and
/// `route`, which forwards all but `--workers` to the shards it spawns).
/// A trailing `=` marks an option that takes a value.
const SERVING_OPTIONS: &[&str] = &[
    "workers=",
    "solver=",
    "deadline-ms=",
    "parallel=",
    "solution-cache=",
    "no-cache",
    "quiet",
];
/// The batch engine's own options: `serve`, `batch` and `listen`.
const ENGINE_OPTIONS: &[&str] = &["chunk=", "fail-fast", "keep-going"];
/// The endpoint options of `listen` and `route`.
const ENDPOINT_OPTIONS: &[&str] = &["tcp=", "unix=", "http=", "max-conns="];

/// The options `command` takes, as its usage text names them, or `None`
/// for an unknown command.
fn options_of(command: &str) -> Option<Vec<&'static str>> {
    let lists: &[&[&str]] = match command {
        "generate" => &[&["family=", "n=", "g=", "seed=", "d=", "out="]],
        "solve" => &[&[
            "input=",
            "solver=",
            "json",
            "gantt",
            "out=",
            "seed=",
            "no-decompose",
            "validation=",
            "deadline-ms=",
            "parallel=",
        ]],
        "serve" => &[SERVING_OPTIONS, ENGINE_OPTIONS, &["summary-json"]],
        "batch" => &[SERVING_OPTIONS, ENGINE_OPTIONS, &["summary-json", "input="]],
        "listen" => &[
            SERVING_OPTIONS,
            ENGINE_OPTIONS,
            ENDPOINT_OPTIONS,
            &["idle-timeout-ms=", "conn-idle-timeout-ms=", "shard-id="],
        ],
        // `--workers` is checked for 0 here too, though the router solves
        // nothing itself
        "route" => &[
            SERVING_OPTIONS,
            ENDPOINT_OPTIONS,
            &[
                "shards=",
                "spawn=",
                "spawn-workers=",
                "sticky",
                "probe-interval-ms=",
            ],
        ],
        "bounds" | "compare" => &[&["input="]],
        "solvers" | "help" | "--help" | "-h" => &[],
        _ => return None,
    };
    Some(lists.concat())
}

/// Writes to stdout, tolerating a closed pipe (`busytime-cli ... | head`
/// must exit cleanly, not panic on EPIPE the way `println!` does).
fn emit(s: impl AsRef<str>) {
    use std::io::Write;
    let _ = std::io::stdout().write_all(s.as_ref().as_bytes());
}

fn emit_line(s: impl AsRef<str>) {
    emit(s.as_ref());
    emit("\n");
}

/// Reads `args` against the options `command` takes (`takes`, from
/// [`options_of`]); any other option is a usage error.
fn parse_opts(
    command: &str,
    takes: &[&str],
    args: &[String],
) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --option, got '{key}'"));
        };
        let value = if takes.contains(&name) {
            String::from("true")
        } else if takes.iter().any(|o| o.strip_suffix('=') == Some(name)) {
            it.next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone()
        } else {
            return Err(format!("{command} does not take --{name}"));
        };
        opts.insert(name.to_string(), value);
    }
    Ok(opts)
}

fn get_num<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key}: cannot parse '{raw}'")),
    }
}

fn opt_num<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    match opts.get(key) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("--{key}: cannot parse '{raw}'")),
    }
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), String> {
    let family: Family = opts
        .get("family")
        .ok_or("generate requires --family")?
        .parse()?;
    let mut spec = GeneratorSpec::new(family);
    spec.n = get_num(opts, "n", spec.n)?;
    spec.g = get_num(opts, "g", spec.g)?;
    spec.seed = get_num(opts, "seed", spec.seed)?;
    spec.d = get_num(opts, "d", spec.d)?;
    let inst = spec.generate();
    let out = PathBuf::from(opts.get("out").ok_or("generate requires --out")?);
    let file = InstanceFile::new(format!("{family}-{}", spec.n), spec.describe(), &inst);
    write_instance(&out, &file).map_err(|e| e.to_string())?;
    emit_line(format!(
        "wrote {} ({} jobs, g = {}, span {}, len {})",
        out.display(),
        inst.len(),
        inst.g(),
        inst.span(),
        inst.total_len()
    ));
    Ok(())
}

fn load(opts: &HashMap<String, String>) -> Result<Instance, String> {
    let input = opts.get("input").ok_or("missing --input FILE")?;
    let file = read_instance(&PathBuf::from(input)).map_err(|e| e.to_string())?;
    Ok(file.to_instance())
}

fn cmd_solve(opts: &HashMap<String, String>) -> Result<(), String> {
    let inst = load(opts)?;
    let solver = opts.get("solver").map(String::as_str).unwrap_or("auto");
    let validation = match opts.get("validation").map(String::as_str) {
        None | Some("basic") => ValidationLevel::Basic,
        Some("skip") => ValidationLevel::Skip,
        Some("strict") => ValidationLevel::Strict,
        Some(other) => return Err(format!("--validation: unknown level '{other}'")),
    };
    let registry = full_registry();
    let mut request = SolveRequest::new(&inst)
        .solver(solver)
        .seed(get_num(opts, "seed", 0u64)?)
        .decompose(!opts.contains_key("no-decompose"))
        .validation(validation)
        .parallel(parallel_policy(opts)?);
    if let Some(ms) = opt_num::<u64>(opts, "deadline-ms")? {
        request = request.deadline(std::time::Duration::from_millis(ms));
    }
    let report = request.solve_with(&registry).map_err(|e| e.to_string())?;
    if opts.contains_key("json") {
        emit(report.to_json());
    } else {
        emit_line(report.to_string());
    }
    if opts.contains_key("gantt") {
        emit(render::gantt(&inst, &report.schedule, 100, 24));
    }
    if let Some(out) = opts.get("out") {
        let file = busytime::instances::io::ScheduleFile::new(
            report.solver.clone(),
            &report.schedule,
            &inst,
        );
        let json = busytime::instances::io::schedule_to_json(&file);
        std::fs::write(out, json).map_err(|e| e.to_string())?;
        emit_line(format!("schedule written to {out}"));
    }
    Ok(())
}

/// `--workers 0` (or `BUSYTIME_WORKERS=0`) would size the process-wide
/// executor to zero — every solve would queue forever. Reject it up front
/// with a usage error; `0` is not a "default" spelling anywhere (omitting
/// the flag is how you ask for all cores).
fn reject_zero_workers(opts: &HashMap<String, String>) -> Result<(), String> {
    if opts.get("workers").is_some() && get_num(opts, "workers", 1usize)? == 0 {
        return Err("--workers 0 would leave no worker to run a solve; \
             use a positive count, or omit the flag for all cores"
            .to_string());
    }
    if let Ok(raw) = std::env::var("BUSYTIME_WORKERS") {
        if raw.trim().parse::<usize>() == Ok(0) {
            return Err("BUSYTIME_WORKERS=0 would leave no worker to run a solve; \
                 set a positive count, or unset it for all cores"
                .to_string());
        }
    }
    Ok(())
}

/// Parses `--parallel auto|on|off` — the intra-instance fork policy — with
/// the same usage-error posture as `--workers 0`: an unknown spelling is a
/// flag error up front, not a per-record failure later.
fn parallel_policy(opts: &HashMap<String, String>) -> Result<ParallelPolicy, String> {
    match opts.get("parallel") {
        None => Ok(ParallelPolicy::Auto),
        Some(raw) => ParallelPolicy::parse(raw).ok_or_else(|| {
            format!("--parallel: unknown policy '{raw}' (expected auto, on or off)")
        }),
    }
}

/// The effective solution-cache capacity: `--no-cache` wins, then
/// `--solution-cache N` (`0` also disables), then the engine default.
fn solution_cache_capacity(opts: &HashMap<String, String>) -> Result<usize, String> {
    if opts.contains_key("no-cache") && opts.contains_key("solution-cache") {
        return Err("--no-cache and --solution-cache are mutually exclusive".to_string());
    }
    if opts.contains_key("no-cache") {
        return Ok(0);
    }
    get_num(opts, "solution-cache", DEFAULT_SOLUTION_CACHE)
}

/// The batch-engine configuration shared by `serve`, `batch` and `listen`.
fn serve_config(opts: &HashMap<String, String>) -> Result<ServeConfig, String> {
    if opts.contains_key("fail-fast") && opts.contains_key("keep-going") {
        return Err("--fail-fast and --keep-going are mutually exclusive".to_string());
    }
    reject_zero_workers(opts)?;
    let workers = get_num(opts, "workers", 0usize)?;
    if workers > 0 {
        // size the process-wide executor before its first use: `--workers`
        // is a true process cap, shared by every connection/batch, not a
        // per-connection figure
        busytime::core::pool::Executor::configure_global(workers);
    }
    let mut config = ServeConfig {
        default_solver: opts
            .get("solver")
            .cloned()
            .unwrap_or_else(|| "auto".to_string()),
        error_policy: if opts.contains_key("fail-fast") {
            ErrorPolicy::FailFast
        } else {
            ErrorPolicy::KeepGoing
        },
        chunk_size: get_num(opts, "chunk", 0usize)?,
        solution_cache: solution_cache_capacity(opts)?,
        ..ServeConfig::default()
    };
    if let Some(ms) = opt_num::<u64>(opts, "deadline-ms")? {
        config.base_options.deadline = Some(std::time::Duration::from_millis(ms));
    }
    config.base_options.parallel = parallel_policy(opts)?;
    Ok(config)
}

/// `serve` (stdin) and `batch FILE` (file input) share this driver: stream
/// NDJSON records through the batch engine, reports to stdout, summary to
/// stderr.
fn cmd_serve(opts: &HashMap<String, String>, input: Option<&str>) -> Result<(), String> {
    let config = serve_config(opts)?;
    let registry = full_registry();
    let stdout = std::io::stdout().lock();
    let out = std::io::BufWriter::new(stdout);
    let summary = match input {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            serve(std::io::BufReader::new(file), out, &registry, &config)
        }
        None => serve(std::io::stdin().lock(), out, &registry, &config),
    };
    let summary = match summary {
        Ok(summary) => summary,
        // the consumer hung up mid-stream (`busytime-cli serve | head`);
        // for a streaming producer that is a clean early stop, not an error
        Err(busytime::server::ServeError::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            return Ok(());
        }
        Err(e) => return Err(e.to_string()),
    };
    if opts.contains_key("summary-json") {
        eprintln!("{}", summary.to_json_line());
    } else if !opts.contains_key("quiet") {
        eprintln!("{summary}");
    }
    Ok(())
}

/// The one endpoint `command` (`listen` or `route`) serves: exactly one of
/// `--tcp ADDR`, `--unix PATH` and `--http ADDR`.
fn listen_mode(opts: &HashMap<String, String>, command: &str) -> Result<ListenMode, String> {
    let mut modes: Vec<ListenMode> = Vec::new();
    if let Some(addr) = opts.get("tcp") {
        modes.push(ListenMode::Tcp(addr.clone()));
    }
    if let Some(path) = opts.get("unix") {
        modes.push(ListenMode::Unix(PathBuf::from(path)));
    }
    if let Some(addr) = opts.get("http") {
        modes.push(ListenMode::Http(addr.clone()));
    }
    match modes.len() {
        1 => Ok(modes.remove(0)),
        0 => Err(format!(
            "{command} needs exactly one of --tcp ADDR, --unix PATH, --http ADDR"
        )),
        _ => Err("--tcp, --unix and --http are mutually exclusive".into()),
    }
}

/// `listen`: a long-lived socket/HTTP front-end over the same batch
/// engine, drained gracefully on SIGINT/SIGTERM or idle timeout.
fn cmd_listen(opts: &HashMap<String, String>) -> Result<(), String> {
    let mode = listen_mode(opts, "listen")?;
    let mut config = ListenConfig {
        serve: serve_config(opts)?,
        max_conns: get_num(opts, "max-conns", 0usize)?,
        log: if opts.contains_key("quiet") {
            ConnLog::Quiet
        } else {
            ConnLog::Text
        },
        shard_id: opts.get("shard-id").cloned(),
        ..ListenConfig::default()
    };
    if let Some(ms) = opt_num::<u64>(opts, "idle-timeout-ms")? {
        config.idle_timeout = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(ms) = opt_num::<u64>(opts, "conn-idle-timeout-ms")? {
        config.conn_idle_timeout = Some(std::time::Duration::from_millis(ms));
    }
    let quiet = opts.contains_key("quiet");
    let listener = Listener::bind(&mode, std::sync::Arc::new(full_registry()), config)
        .map_err(|e| e.to_string())?;
    // the bound endpoint resolves ephemeral ports; clients (and the CI
    // smoke job) read it off stderr. The worker figure is the honest one:
    // the process-wide executor budget shared by every connection.
    let executor = busytime::core::pool::Executor::global();
    eprintln!(
        "listening on {} ({} workers process-wide)",
        listener.endpoint(),
        executor.workers()
    );
    install_shutdown_signals(listener.shutdown_token());
    let report = listener.run().map_err(|e| e.to_string())?;
    if !quiet {
        eprintln!("{report}");
    }
    Ok(())
}

/// `route`: the shard router — N `listen` backends behind one endpoint
/// speaking the same wire protocol. Backends are either pre-started
/// (`--shards A,B,…`) or spawned and supervised locally (`--spawn N`).
fn cmd_route(opts: &HashMap<String, String>) -> Result<(), String> {
    reject_zero_workers(opts)?;
    // validated here (not just in the shards) so a bad combination fails
    // before any child process spawns
    solution_cache_capacity(opts)?;
    parallel_policy(opts)?;
    let mode = listen_mode(opts, "route")?;
    let spawn: usize = get_num(opts, "spawn", 0usize)?;
    let spawn_workers = opt_num::<usize>(opts, "spawn-workers")?;
    if spawn_workers == Some(0) {
        return Err("--spawn-workers 0 would leave every shard with no worker; \
             use a positive count, or omit the flag for all cores"
            .to_string());
    }
    if spawn == 0 && spawn_workers.is_some() {
        return Err("--spawn-workers only makes sense with --spawn N".into());
    }
    let states: Vec<_> = match (opts.get("shards"), spawn) {
        (Some(_), n) if n > 0 => {
            return Err("--shards and --spawn are mutually exclusive".into());
        }
        (Some(list), _) => {
            let addrs: Vec<&str> = list
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .collect();
            if addrs.is_empty() {
                return Err("--shards needs at least one ADDR".into());
            }
            addrs
                .iter()
                .enumerate()
                .map(|(i, a)| ShardState::new(i, *a))
                .collect()
        }
        (None, 0) => return Err("route needs --shards A,B,… or --spawn N".into()),
        // spawn mode: addresses arrive later, from the children's banners
        (None, n) => (0..n).map(|i| ShardState::new(i, "")).collect(),
    };
    let n_shards = states.len();
    let sticky = opts.contains_key("sticky");
    let quiet = opts.contains_key("quiet");
    let mut config = RouteConfig {
        max_conns: get_num(opts, "max-conns", 0usize)?,
        sticky,
        quiet,
        ..RouteConfig::default()
    };
    if let Some(ms) = opt_num::<u64>(opts, "probe-interval-ms")? {
        config.probe_interval = std::time::Duration::from_millis(ms);
    }
    let router = Router::bind(&mode, states.clone(), config).map_err(|e| e.to_string())?;
    let token = router.shutdown_token();
    install_shutdown_signals(token.clone());
    let fleet = if spawn > 0 {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let solver = opts.get("solver").cloned();
        let deadline = opts.get("deadline-ms").cloned();
        let parallel = opts.get("parallel").cloned();
        let no_cache = opts.contains_key("no-cache");
        let solution_cache = opts.get("solution-cache").cloned();
        let fleet = ShardFleet::launch(states, token.clone(), move |index| {
            let mut command = std::process::Command::new(&exe);
            command
                .arg("listen")
                .arg("--tcp")
                .arg("127.0.0.1:0")
                .arg("--shard-id")
                .arg(format!("shard-{index}"));
            if let Some(workers) = spawn_workers {
                command.arg("--workers").arg(workers.to_string());
            }
            if let Some(solver) = &solver {
                command.arg("--solver").arg(solver);
            }
            if let Some(ms) = &deadline {
                command.arg("--deadline-ms").arg(ms);
            }
            if let Some(policy) = &parallel {
                command.arg("--parallel").arg(policy);
            }
            if no_cache {
                command.arg("--no-cache");
            } else if let Some(cap) = &solution_cache {
                command.arg("--solution-cache").arg(cap);
            }
            if quiet {
                command.arg("--quiet");
            }
            command
        });
        // every child must report its banner before the router advertises
        // itself, or the first client races shard discovery
        if let Err(e) = fleet.wait_ready(std::time::Duration::from_secs(30)) {
            fleet.shutdown_and_wait();
            return Err(e.to_string());
        }
        Some(fleet)
    } else {
        None
    };
    eprintln!(
        "routing on {} ({} shards, {})",
        router.endpoint(),
        n_shards,
        if sticky { "sticky" } else { "per-record" }
    );
    let report = router.run().map_err(|e| e.to_string());
    if let Some(fleet) = fleet {
        fleet.shutdown_and_wait();
    }
    let report = report?;
    if !quiet {
        eprintln!("{report}");
    }
    Ok(())
}

/// Wires SIGINT/SIGTERM to the listener's shutdown token: the handler only
/// flips an atomic (async-signal-safe), and a watcher thread turns the
/// flip into a token cancellation the accept loop observes within its
/// polling interval.
#[cfg(unix)]
fn install_shutdown_signals(token: busytime::core::cancel::CancelToken) {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    // the libc std already links against; no crate dependency needed
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            token.cancel();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

#[cfg(not(unix))]
fn install_shutdown_signals(_token: busytime::core::cancel::CancelToken) {
    // no signal story off unix; the idle timeout (or killing the process)
    // remains the way to stop the listener
}

fn cmd_solvers() -> Result<(), String> {
    emit(full_registry().describe());
    Ok(())
}

fn cmd_bounds(opts: &HashMap<String, String>) -> Result<(), String> {
    let inst = load(opts)?;
    emit_line(format!("jobs: {}, g: {}", inst.len(), inst.g()));
    emit_line(format!(
        "span bound (Obs 1.1):        {}",
        bounds::span_bound(&inst)
    ));
    emit_line(format!(
        "parallelism bound (Obs 1.1): {}",
        bounds::parallelism_bound(&inst)
    ));
    emit_line(format!(
        "component bound:             {}",
        bounds::component_lower_bound(&inst)
    ));
    if let Some(delta) = bounds::clique_delta_bound(&inst) {
        emit_line(format!("clique δ-bound (Thm A.1):    {delta}"));
    }
    emit_line(format!(
        "best lower bound:            {}",
        bounds::best_lower_bound(&inst)
    ));
    Ok(())
}

fn cmd_compare(opts: &HashMap<String, String>) -> Result<(), String> {
    let inst = load(opts)?;
    let registry = full_registry();
    emit_line(format!(
        "{:<28} {:>10} {:>8} {:>9} {:>10}",
        "solver", "cost", "machines", "gap", "ms"
    ));
    // exhaustive solvers decompose per component, so their per-component
    // size guards never trip on large many-component instances — gate them
    // on total size here to keep `compare` interactive
    const EXACT_COMPARE_LIMIT: usize = 24;
    for entry in registry.entries() {
        let key = entry.key().to_string();
        let request = SolveRequest::new(&inst).solver(&key);
        let request = if key.starts_with("exact") {
            request.max_jobs(EXACT_COMPARE_LIMIT)
        } else {
            request
        };
        match request.solve_with(&registry) {
            Ok(report) => emit_line(format!(
                "{:<28} {:>10} {:>8} {:>8.3}x {:>10.2}",
                format!("{key} ({})", report.solver),
                report.cost,
                report.machines,
                report.gap,
                report.total.as_secs_f64() * 1e3,
            )),
            Err(e) => emit_line(format!("{key:<28} {e}")),
        }
    }
    Ok(())
}
