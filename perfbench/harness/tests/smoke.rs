//! The benchmark's own test: smoke runs of every workload print every
//! metric `BENCHMARK.json` names with its unit, the traced run prints
//! every per-layer metric, and the verifier fails tampered answers.
//!
//! It drives a built CLI: `BUSYTIME_CLI=PATH`, or the repository's
//! `target/release/busytime-cli` (`cargo build --release --bin
//! busytime-cli` at the repository root). Run with
//! `cargo test --release --manifest-path perfbench/harness/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use busytime_instances::json::{self, Value};
use perfbench::gen;
use perfbench::verify::{check_stream, Oracle};

fn cli() -> PathBuf {
    let path = std::env::var_os("BUSYTIME_CLI").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/release/busytime-cli"),
        PathBuf::from,
    );
    assert!(
        path.is_file(),
        "no CLI at {}: build it with `cargo build --release --bin busytime-cli` or set BUSYTIME_CLI",
        path.display()
    );
    path
}

fn work(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let value = json::parse(&text).expect("BENCHMARK.json parses");
    value
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Runs one harness binary in smoke mode; returns its stdout.
fn smoke(bin: &str, workload: &str) -> String {
    let out = Command::new(bin)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .arg("--cli")
        .arg(cli())
        .arg("--work")
        .arg(work(&format!(
            "{workload}-{}",
            bin.rsplit('/').next().unwrap_or(bin)
        )))
        .output()
        .expect("run harness");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{bin} --workload {workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Asserts the text lines and the final JSON object carry every metric.
fn assert_metrics(stdout: &str, json_metrics: &[(String, String)], text_only: &[(&str, &str)]) {
    let last = stdout.lines().last().expect("output");
    let result = json::parse(last).expect("last line is JSON");
    assert!(
        matches!(result.get("correct"), Some(Value::Bool(true))),
        "{last}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_i64),
        Some(0),
        "{last}"
    );
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in json_metrics {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing: {last}"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(m.get("value").is_some(), "{name} has no value");
    }
    let text_metrics = json_metrics
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .chain(text_only.iter().copied());
    for (name, unit) in text_metrics {
        let printed = stdout.lines().any(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            words.first() == Some(&name) && words.last() == Some(&unit)
        });
        assert!(printed, "{name} [{unit}] not printed:\n{stdout}");
    }
}

#[test]
fn smoke_runs_print_every_end_to_end_metric() {
    let end_to_end = declared("end_to_end");
    for workload in perfbench::WORKLOADS {
        let online = workload.starts_with("online");
        let text_only: &[(&str, &str)] = if online {
            &[
                ("p50_ms_at_low", "ms"),
                ("p99_ms_at_low", "ms"),
                ("p50_ms_at_high", "ms"),
                ("p99_ms_at_high", "ms"),
                ("max_rps_at_slo", "rec/s"),
                ("failed_share", "fraction"),
            ]
        } else {
            &[("failed_share", "fraction")]
        };
        let stdout = smoke(env!("CARGO_BIN_EXE_loadgen"), workload);
        assert_metrics(&stdout, &end_to_end, text_only);
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let per_layer = declared("per_layer");
    for workload in perfbench::WORKLOADS {
        let stdout = smoke(env!("CARGO_BIN_EXE_tracer"), workload);
        assert_metrics(&stdout, &per_layer, &[]);
    }
}

#[test]
fn tampered_answers_count_as_failed() {
    let records = gen::batch_records(5, 30);
    let oracle = Oracle::build(&records);
    let input = work("tamper").join("records.ndjson");
    let text: String = records.iter().map(|r| r.line() + "\n").collect();
    std::fs::write(&input, text).expect("write records");
    let out = Command::new(cli())
        .arg("batch")
        .arg(&input)
        .args(["--workers", "2", "--quiet"])
        .output()
        .expect("run busytime-cli batch");
    assert!(out.status.success());
    let answers: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(str::to_string)
        .collect();
    assert!(check_stream(&records, &answers, 1, &oracle)
        .failures
        .is_empty());

    // one answer's assignment moved onto a single machine
    let k = answers
        .iter()
        .position(|a| !a.contains("\"machines\": 1,"))
        .expect("an answer on several machines");
    let mut changed = answers.clone();
    let start = changed[k].find("\"assignment\": [").expect("assignment") + 15;
    let end = start + changed[k][start..].find(']').expect("closing bracket");
    let zeros = vec!["0"; records[k].inst.len()].join(", ");
    changed[k].replace_range(start..end, &zeros);
    let verdict = check_stream(&records, &changed, 1, &oracle);
    assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
    assert_eq!(verdict.failures[0].0, k);

    // one answer line dropped
    let mut dropped = answers.clone();
    dropped.remove(7);
    let verdict = check_stream(&records, &dropped, 1, &oracle);
    assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
    assert_eq!(verdict.failures[0].0, 7);
}
