//! Seeded benchmark harness for `busytime-cli`.
//!
//! The library holds what both binaries share: the seeded input
//! generators ([`gen`]), the answer verifier ([`verify`]), order
//! statistics ([`stats`]), process plumbing ([`sys`]) and the result
//! printer ([`report`]). `loadgen` drives the real CLI and prints the
//! end-to-end metrics; `tracer` replays the same inputs through the
//! library's public calls and prints the per-layer metrics.

pub mod gen;
pub mod online;
pub mod report;
pub mod rng;
pub mod stats;
pub mod sys;
pub mod verify;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "batch-small",
    "solve-large",
    "online-mixed",
    "online-routed",
];

/// Command-line options shared by both binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    /// Path of the `busytime-cli` binary under test.
    pub cli: std::path::PathBuf,
    /// Directory for input files and other run-time scratch.
    pub work: std::path::PathBuf,
    /// Tiny sizes: every code path in seconds.
    pub smoke: bool,
    /// Host and source description printed with the result.
    pub host: String,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --cli PATH --work DIR
    /// [--smoke] [--host TEXT]`.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            cli: std::path::PathBuf::new(),
            work: std::path::PathBuf::new(),
            smoke: false,
            host: String::from("unknown"),
        };
        let mut it = argv;
        while let Some(key) = it.next() {
            if key == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            match key.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| "bad --seed".to_string())?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| "bad --seconds".to_string())?
                }
                "--cli" => args.cli = value.into(),
                "--work" => args.work = value.into(),
                "--host" => args.host = value,
                other => return Err(format!("unknown option {other}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !args.cli.is_file() {
            return Err(format!("--cli {} is not a file", args.cli.display()));
        }
        if args.work.as_os_str().is_empty() {
            return Err("--work DIR is required".into());
        }
        std::fs::create_dir_all(&args.work).map_err(|e| format!("--work: {e}"))?;
        Ok(args)
    }
}
