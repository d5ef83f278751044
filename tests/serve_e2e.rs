//! End-to-end coverage of the serving front-end: `busytime-cli serve`
//! (stdin → stdout NDJSON streaming) and `busytime-cli batch FILE`.

use std::io::Write;
use std::process::{Command, Stdio};

use busytime::server::{parse_output_line, OutputLine};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_busytime-cli"))
}

fn serve_stdin(args: &[&str], input: &str) -> std::process::Output {
    let mut child = cli()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

#[test]
fn serve_streams_one_line_per_record_in_order() {
    let mut input = String::new();
    for i in 0..25 {
        input.push_str(&format!(
            "{{\"id\": \"r{i}\", \"generator\": {{\"family\": \"uniform\", \"n\": {}, \"seed\": {i}}}}}\n",
            10 + i
        ));
    }
    let out = serve_stdin(&["serve", "--workers", "4"], &input);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 25);
    for (i, line) in lines.iter().enumerate() {
        match parse_output_line(line).unwrap() {
            OutputLine::Report { line: no, id, .. } => {
                assert_eq!(no, i + 1);
                assert_eq!(id.as_deref(), Some(format!("r{i}").as_str()));
            }
            other => panic!("expected report line: {other:?}"),
        }
    }
    // summary lands on stderr, never on the NDJSON stream
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("25 records"), "{stderr}");
    assert!(stderr.contains("p50"), "{stderr}");
}

#[test]
fn serve_keeps_going_past_bad_lines_and_fail_fast_stops() {
    let input = concat!(
        r#"{"instance": {"g": 2, "jobs": [[0, 3]]}}"#,
        "\n",
        "garbage\n",
        r#"{"instance": {"g": 2, "jobs": [[1, 7]]}}"#,
        "\n",
    );
    // default: keep going, structured error record in place
    let out = serve_stdin(&["serve", "--quiet"], input);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 3);
    assert!(stdout.lines().nth(1).unwrap().contains("\"ok\": false"));

    // --fail-fast: nonzero exit naming the offending line
    let out = serve_stdin(&["serve", "--quiet", "--fail-fast"], input);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn serve_empty_input_emits_nothing_and_succeeds() {
    let out = serve_stdin(&["serve", "--summary-json"], "");
    assert!(out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("\"records\": 0"), "{stderr}");
}

#[test]
fn batch_reads_records_from_file() {
    let dir = std::env::temp_dir().join(format!("busytime_batch_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("batch.ndjson");
    std::fs::write(
        &path,
        concat!(
            r#"{"id": "f1", "instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}, "solver": "first-fit"}"#,
            "\n",
            r#"{"id": "f2", "generator": {"family": "clique", "n": 12, "seed": 5}}"#,
            "\n",
        ),
    )
    .unwrap();
    let out = cli()
        .args(["batch", path.to_str().unwrap(), "--workers", "2", "--quiet"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let ids: Vec<String> = stdout
        .lines()
        .map(|l| match parse_output_line(l).unwrap() {
            OutputLine::Report { id, .. } => id.unwrap(),
            other => panic!("expected report line: {other:?}"),
        })
        .collect();
    assert_eq!(ids, ["f1", "f2"]);
    std::fs::remove_file(&path).ok();

    // a missing file is a graceful error, not a panic
    let bad = cli()
        .args(["batch", "/nonexistent/x.ndjson"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

#[test]
fn an_option_the_command_does_not_take_is_a_usage_error() {
    // `--verbose` is no option of `serve`: it must not swallow `--quiet`
    // as its value and serve the batch anyway. The child may exit before
    // it reads stdin, so a failed write is no failure here.
    let mut child = cli()
        .args(["serve", "--verbose", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let record = "{\"instance\": {\"g\": 2, \"jobs\": [[0, 4]]}}\n";
    let _ = child.stdin.take().unwrap().write_all(record.as_bytes());
    let out = child.wait_with_output().unwrap();
    assert_usage_error(&out, "serve", "--verbose");

    // `solve` spells its deadline `--deadline-ms`: `--deadline 5` must not
    // solve with no deadline at all
    let dir = std::env::temp_dir().join(format!("busytime_usage_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("inst.json");
    let generate = cli()
        .args(["generate", "--family", "uniform", "--n", "8", "--seed", "1"])
        .args(["--out", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(generate.status.success());
    let out = cli()
        .args(["solve", "--input", path.to_str().unwrap()])
        .args(["--deadline", "5", "--json"])
        .output()
        .unwrap();
    assert_usage_error(&out, "solve", "--deadline");
    std::fs::remove_dir_all(&dir).ok();
}

/// `out` is a usage error (exit 2) whose first line names `option`.
fn assert_usage_error(out: &std::process::Output, command: &str, option: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{command} {option}: {stderr}");
    assert!(out.stdout.is_empty(), "{command} {option} printed answers");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.ends_with(&format!(" {option}")), "{first}");
}
