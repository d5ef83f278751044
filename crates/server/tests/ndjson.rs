//! NDJSON protocol coverage: golden round-trips, malformed-line error
//! records, input-order preservation under a wide worker pool, and the
//! empty-batch edge case.

use busytime_core::pool::Executor;
use busytime_core::solve::SolverRegistry;
use busytime_instances::json;
use busytime_server::{
    parse_output_line, serve, BatchSession, BatchSummary, ErrorPolicy, OutputLine, ServeConfig,
};

fn run(input: &str, config: &ServeConfig) -> (Vec<String>, BatchSummary) {
    let registry = SolverRegistry::with_defaults();
    let mut out = Vec::new();
    let summary = serve(input.as_bytes(), &mut out, &registry, config).unwrap();
    let text = String::from_utf8(out).unwrap();
    (text.lines().map(str::to_string).collect(), summary)
}

fn run_on(executor: Executor, input: &str, config: &ServeConfig) -> (Vec<String>, BatchSummary) {
    let registry = SolverRegistry::with_defaults();
    let mut out = Vec::new();
    let summary = BatchSession::new(&registry, config)
        .executor(executor)
        .run(input.as_bytes(), &mut out)
        .unwrap();
    let text = String::from_utf8(out).unwrap();
    (text.lines().map(str::to_string).collect(), summary)
}

/// Golden round-trip: a fixed request line must keep producing a report
/// line with these exact solved values (the instance and solver are
/// deterministic). If the protocol gains fields this test still passes —
/// the parser ignores unknown fields by design.
#[test]
fn golden_request_to_report_round_trip() {
    // three jobs, g = 2: [0,4] and [1,5] share machine 0; the paper's
    // FirstFit opens machine 1 for the disjoint [6,9]. Busy time is
    // 5 + 3 = 8 either way.
    let request = r#"{"id": "golden-1", "instance": {"g": 2, "jobs": [[0, 4], [1, 5], [6, 9]]}, "solver": "first-fit"}"#;
    let (lines, summary) = run(&format!("{request}\n"), &ServeConfig::default());
    assert_eq!(lines.len(), 1);
    assert_eq!(summary.solved, 1);

    // the line is strict JSON and parses through the tolerant reader
    json::parse(&lines[0]).expect("response line is valid JSON");
    match parse_output_line(&lines[0]).unwrap() {
        OutputLine::Report { line, id, report } => {
            assert_eq!(line, 1);
            assert_eq!(id.as_deref(), Some("golden-1"));
            assert!(report.solver.starts_with("FirstFit"));
            assert_eq!(report.cost, 8);
            assert_eq!(report.machines, 2);
            assert_eq!(report.assignment, vec![0, 0, 1]);
            assert!(report.gap >= 1.0);
        }
        other => panic!("expected a report line, got {other:?}"),
    }

    // golden line recorded under schema_version 1: stays parseable even
    // with fields this build has never heard of
    let recorded = r#"{"schema_version": 1, "line": 1, "id": "golden-1", "ok": true, "shard": 3, "report": {"schema_version": 1, "solver": "FirstFit[paper]", "cost": 8, "machines": 2, "lower_bound": 8, "gap": 1.0, "assignment": [0, 0, 1], "queue_ms": 0.2}}"#;
    match parse_output_line(recorded).unwrap() {
        OutputLine::Report { report, .. } => {
            assert_eq!(report.cost, 8);
            assert_eq!(report.assignment, vec![0, 0, 1]);
        }
        other => panic!("expected a report line, got {other:?}"),
    }
}

#[test]
fn malformed_line_yields_structured_error_record() {
    let input = concat!(
        r#"{"id": "ok-1", "instance": {"g": 2, "jobs": [[0, 3]]}}"#,
        "\n",
        "{this is not json\n",
        r#"{"instance": {"g": 2, "jobs": [[5, 2]]}}"#,
        "\n",
        r#"{"id": "ok-2", "instance": {"g": 2, "jobs": [[0, 3]]}}"#,
        "\n",
    );
    let (lines, summary) = run(input, &ServeConfig::default());
    assert_eq!(lines.len(), 4, "one response line per input line");
    assert_eq!(summary.solved, 2);
    assert_eq!(summary.errors, 2);

    // every line (including errors) is machine-parseable and in order
    for (i, line) in lines.iter().enumerate() {
        let parsed = parse_output_line(line)
            .unwrap_or_else(|e| panic!("line {} unparseable: {e}\n{line}", i + 1));
        assert_eq!(parsed.line(), i + 1);
    }
    match parse_output_line(&lines[1]).unwrap() {
        OutputLine::Error { error, id, .. } => {
            assert!(id.is_none());
            assert!(error.starts_with("json:"), "unexpected cause: {error}");
        }
        other => panic!("expected an error line, got {other:?}"),
    }
    match parse_output_line(&lines[2]).unwrap() {
        OutputLine::Error { error, .. } => {
            assert!(error.contains("start after end"), "{error}");
        }
        other => panic!("expected an error line, got {other:?}"),
    }
}

#[test]
fn input_order_is_preserved_under_eight_workers() {
    // 200 distinct instances with wildly skewed solve costs (size ramps
    // up), several parse errors sprinkled in, chunk size forced small so
    // the batch spans many dispatch waves
    let mut input = String::new();
    for i in 0..200 {
        if i % 41 == 7 {
            input.push_str("broken line\n");
        } else {
            let n = 5 + (i % 37) * 4;
            input.push_str(&format!(
                "{{\"id\": \"rec-{i}\", \"generator\": {{\"family\": \"uniform\", \"n\": {n}, \"seed\": {i}}}}}\n"
            ));
        }
    }
    let config = ServeConfig {
        chunk_size: 16,
        ..ServeConfig::default()
    };
    // a pinned 8-worker executor: the width must not be clamped below 8
    // by whatever budget the host machine's global pool happens to have
    let executor = busytime_core::pool::Executor::new(8);
    let (lines, summary) = run_on(executor, &input, &config);
    assert_eq!(lines.len(), 200);
    assert_eq!(summary.records, 200);
    assert_eq!(summary.workers, 8);
    assert_eq!(summary.solved + summary.errors, 200);
    for (i, line) in lines.iter().enumerate() {
        let parsed = parse_output_line(line).unwrap();
        assert_eq!(parsed.line(), i + 1, "line {} out of order", i + 1);
        match parsed {
            OutputLine::Report { id, .. } => {
                assert_eq!(id.as_deref(), Some(format!("rec-{i}").as_str()));
            }
            OutputLine::Error { .. } => assert_eq!(i % 41, 7),
        }
    }
}

#[test]
fn worker_counts_agree_on_results() {
    // the same batch solved with 1 and 8 workers must stream identical
    // cost/assignment data (timings differ, summaries agree on totals)
    let mut input = String::new();
    for i in 0..40 {
        input.push_str(&format!(
            "{{\"generator\": {{\"family\": \"proper\", \"n\": 24, \"seed\": {i}}}}}\n"
        ));
    }
    let config = ServeConfig::default();
    let (lines1, summary1) = run_on(Executor::new(1), &input, &config);
    let (lines8, summary8) = run_on(Executor::new(8), &input, &config);
    assert_eq!(summary1.total_cost, summary8.total_cost);
    assert_eq!(summary1.total_lower_bound, summary8.total_lower_bound);
    for (a, b) in lines1.iter().zip(&lines8) {
        let (pa, pb) = (parse_output_line(a).unwrap(), parse_output_line(b).unwrap());
        match (pa, pb) {
            (OutputLine::Report { report: ra, .. }, OutputLine::Report { report: rb, .. }) => {
                assert_eq!(ra.cost, rb.cost);
                assert_eq!(ra.assignment, rb.assignment);
            }
            other => panic!("mismatched line kinds: {other:?}"),
        }
    }
}

#[test]
fn empty_batch_streams_nothing_and_summarizes_zero() {
    for input in ["", "\n\n\n", "   \n\t\n"] {
        let (lines, summary) = run(input, &ServeConfig::default());
        assert!(lines.is_empty(), "streamed lines for empty batch");
        assert_eq!(summary.records, 0);
        assert_eq!(summary.solved, 0);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.aggregate_gap, 1.0);
        assert_eq!(summary.p50_solve, std::time::Duration::ZERO);
        assert_eq!(summary.p99_solve, std::time::Duration::ZERO);
        // the summary line itself still renders
        assert!(summary.to_json_line().contains("\"records\": 0"));
    }
}

#[test]
fn fail_fast_reports_offending_line_and_id() {
    let input = concat!(
        r#"{"id": "fine", "instance": {"g": 2, "jobs": [[0, 3]]}}"#,
        "\n",
        r#"{"id": "doomed", "instance": {"g": 2, "jobs": [[0, 3]]}, "solver": "martian"}"#,
        "\n",
    );
    let registry = SolverRegistry::with_defaults();
    let mut out = Vec::new();
    let config = ServeConfig {
        error_policy: ErrorPolicy::FailFast,
        ..ServeConfig::default()
    };
    let err = serve(input.as_bytes(), &mut out, &registry, &config).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("line 2"), "{message}");
    assert!(message.contains("doomed"), "{message}");
    assert!(message.contains("martian"), "{message}");
}

#[test]
fn deadline_ms_round_trips_through_the_wire() {
    // pre-deadline golden line (no deadline_hit field): parses as false
    let recorded = r#"{"schema_version": 1, "line": 1, "id": "old", "ok": true, "report": {"schema_version": 1, "solver": "FirstFit[paper]", "cost": 8, "machines": 2, "lower_bound": 8, "gap": 1.0, "assignment": [0, 0, 1]}}"#;
    match parse_output_line(recorded).unwrap() {
        OutputLine::Report { report, .. } => assert!(!report.deadline_hit),
        other => panic!("expected a report line, got {other:?}"),
    }

    // a live record cut by `deadline_ms: 0` round-trips flagged, with a
    // full incumbent assignment, and the summary counts the hit
    let input = concat!(
        r#"{"id": "cut", "instance": {"g": 2, "jobs": [[0, 4], [1, 5], [6, 9]]}, "deadline_ms": 0}"#,
        "\n",
    );
    let (lines, summary) = run(input, &ServeConfig::default());
    assert_eq!(summary.deadline_hits, 1);
    match parse_output_line(&lines[0]).unwrap() {
        OutputLine::Report { report, id, .. } => {
            assert_eq!(id.as_deref(), Some("cut"));
            assert!(report.deadline_hit);
            assert_eq!(report.assignment.len(), 3);
            assert!(report.cost >= report.lower_bound);
        }
        other => panic!("expected a report line, got {other:?}"),
    }
    assert!(summary.to_json_line().contains("\"deadline_hits\": 1"));
}
