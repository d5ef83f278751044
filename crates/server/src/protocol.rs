//! The NDJSON wire protocol: one JSON record per line, in and out.
//!
//! # Request lines
//!
//! Each input line is a `SolveRequest`-shaped object. The instance comes
//! either inline or by generator spec — exactly one of the two:
//!
//! ```json
//! {"id": "a", "instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}, "solver": "auto"}
//! {"id": "b", "generator": {"family": "uniform", "n": 100, "seed": 7}}
//! ```
//!
//! Optional fields (`id`, `solver`, `seed`, `decompose`, `validation`,
//! `max_jobs`, `deadline_ms`, `cache`, `parallel`) default to the server's
//! configuration; unknown fields are ignored, so clients may stamp their
//! own metadata onto request lines.
//!
//! `cache` controls the record's participation in the server's solution
//! cache: `"off"` bypasses it entirely, `"read"` may be served from it
//! but never inserts, `"write"` inserts but never reads, and
//! `"readwrite"` (the default) does both. Reports served from the cache
//! carry `"cached": true`; solves whose incumbent was seeded from a
//! cached near match carry `"warm_started": true`.
//!
//! `parallel` is the record's intra-instance parallelism policy
//! (`"auto"` / `"on"` / `"off"`): whether the solve may fork its own
//! kernels across the executor's idle workers. The fork–join layer is
//! deterministic, so the policy trades wall-clock time only — reports are
//! byte-identical either way.
//!
//! `deadline_ms` is the record's hard solve deadline, counted from the
//! moment a pool worker picks the record up: the solver is cut at its next
//! cooperative checkpoint and the embedded report carries
//! `deadline_hit: true` with the solver's incumbent schedule (or the
//! record fails with an `Infeasible` error line when the solver held no
//! incumbent). A record-level value overrides the server's
//! `--deadline-ms` batch default. `deadline_ms: 0` means "no speculative
//! work at all" — the cheapest feasible answer, immediately.
//!
//! # Response lines
//!
//! Exactly one line per input line, in input order. Every line carries the
//! stable `schema_version` stamp, the 1-based input `line`, the echoed
//! `id` (or `null`), and `ok`:
//!
//! ```json
//! {"schema_version": 1, "line": 1, "id": "a", "ok": true, "report": {…}}
//! {"schema_version": 1, "line": 2, "id": null, "ok": false, "error": "…"}
//! ```
//!
//! The embedded `report` object is [`SolveReport::to_json_line`].
//! [`parse_output_line`] reads response lines back (for golden tests and
//! downstream tooling) and tolerates unknown fields, so recorded lines
//! keep parsing as the protocol grows additively.

use busytime_core::memo::CachePolicy;
use busytime_core::solve::{ParallelPolicy, SolveOptions, ValidationLevel, REPORT_SCHEMA_VERSION};
use busytime_core::{Instance, SolveReport};
use busytime_instances::json::{self, JsonError, Value};
use busytime_instances::GeneratorSpec;
use busytime_interval::Interval;

/// Where a record's instance comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum RecordInput {
    /// Jobs and `g` inline on the request line.
    Inline(Instance),
    /// A deterministic generator spec to materialize.
    Generated(GeneratorSpec),
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchRecord {
    /// Client-chosen identifier, echoed on the response line.
    pub id: Option<String>,
    /// The instance, inline or by description.
    pub input: RecordInput,
    /// Registry key override (server default when absent).
    pub solver: Option<String>,
    /// Seed override for randomized solvers.
    pub seed: Option<u64>,
    /// Component-decomposition override.
    pub decompose: Option<bool>,
    /// Validation-level override (`"skip"` / `"basic"` / `"strict"`).
    pub validation: Option<ValidationLevel>,
    /// Per-record size budget.
    pub max_jobs: Option<usize>,
    /// Per-record hard solve deadline in milliseconds (overrides the
    /// batch-level default).
    pub deadline_ms: Option<u64>,
    /// Solution-cache participation (`"off"`/`"read"`/`"write"`/
    /// `"readwrite"`); the server default — [`CachePolicy::ReadWrite`] —
    /// when absent.
    pub cache: Option<CachePolicy>,
    /// Intra-instance parallelism override (`"auto"`/`"on"`/`"off"`); the
    /// server default when absent.
    pub parallel: Option<ParallelPolicy>,
}

impl BatchRecord {
    /// Parses one request line: the zero-copy fast path when the line is
    /// simple enough ([`BatchRecord::parse_fast`]), the [`Value`]-tree
    /// parser otherwise. The two agree byte for byte on every line — the
    /// fast path declines (rather than erring) on anything it cannot
    /// prove it handles identically.
    pub fn parse(line: &str) -> Result<BatchRecord, JsonError> {
        match Self::parse_fast(line) {
            Some(record) => Ok(record),
            None => Self::parse_owned(line),
        }
    }

    /// Zero-copy parse of a request line. Resolves the hot fields (`id`,
    /// `solver`, `deadline_ms`, `cache`, inline `instance` arrays, …) with
    /// borrowing cursors ([`json::scan`]) and never builds a [`Value`]
    /// tree. Returns `None` — *never* an error — whenever the line needs
    /// the owned parser: escape sequences, `generator` records,
    /// non-integer numbers, unknown object-valued fields, or any shape
    /// [`BatchRecord::parse_owned`] would reject. Public so differential
    /// tests and benches can pin the fast path against the owned one.
    pub fn parse_fast(line: &str) -> Option<BatchRecord> {
        use json::scan;

        /// Top-level key budget: lines stamping more client metadata than
        /// this take the owned path (the dup-key check is a linear scan
        /// over a fixed array — keep it cheap).
        const MAX_KEYS: usize = 24;

        let mut id = None;
        let mut input: Option<RecordInput> = None;
        let mut solver = None;
        let mut seed: Option<u64> = None;
        let mut decompose = None;
        let mut validation = None;
        let mut max_jobs: Option<usize> = None;
        let mut deadline_ms: Option<u64> = None;
        let mut cache = None;
        let mut parallel = None;

        let start = scan::skip_ws(line, 0);
        let end = scan::object::<MAX_KEYS>(line, start, |key, pos| match key {
            "id" => {
                if let Some(p) = scan::literal(line, pos, "null") {
                    return Some(p); // null id means no id
                }
                let (v, p) = scan::string_borrowed(line, pos)?;
                id = Some(v.to_string());
                Some(p)
            }
            "instance" => {
                let (inst, p) = fast_inline_instance(line, pos)?;
                input = Some(RecordInput::Inline(inst));
                Some(p)
            }
            "solver" => {
                // null `solver` is an owned-parser error — decline
                let (v, p) = scan::string_borrowed(line, pos)?;
                solver = Some(v.to_string());
                Some(p)
            }
            "seed" => fast_opt_int(line, pos).map(|(v, p)| {
                seed = v;
                p
            }),
            "max_jobs" => fast_opt_int(line, pos).map(|(v, p)| {
                max_jobs = v;
                p
            }),
            "deadline_ms" => fast_opt_int(line, pos).map(|(v, p)| {
                deadline_ms = v;
                p
            }),
            "decompose" => {
                if let Some(p) = scan::literal(line, pos, "null") {
                    Some(p)
                } else if let Some(p) = scan::literal(line, pos, "true") {
                    decompose = Some(true);
                    Some(p)
                } else {
                    let p = scan::literal(line, pos, "false")?;
                    decompose = Some(false);
                    Some(p)
                }
            }
            "validation" => {
                let (v, p) = scan::string_borrowed(line, pos)?;
                validation = Some(match v {
                    "skip" => ValidationLevel::Skip,
                    "basic" => ValidationLevel::Basic,
                    "strict" => ValidationLevel::Strict,
                    _ => return None,
                });
                Some(p)
            }
            "cache" => {
                if let Some(p) = scan::literal(line, pos, "null") {
                    return Some(p); // null cache means server default
                }
                let (v, p) = scan::string_borrowed(line, pos)?;
                cache = Some(v.parse::<CachePolicy>().ok()?);
                Some(p)
            }
            "parallel" => {
                if let Some(p) = scan::literal(line, pos, "null") {
                    return Some(p); // null parallel means server default
                }
                let (v, p) = scan::string_borrowed(line, pos)?;
                parallel = Some(ParallelPolicy::parse(v)?);
                Some(p)
            }
            // unknown client metadata — and `generator` records, whose
            // object value makes the skip decline
            _ => scan::skip_simple_value(line, pos, 8),
        })?;
        if scan::skip_ws(line, end) != line.len() {
            return None; // trailing garbage is an owned-parser error
        }
        Some(BatchRecord {
            id,
            input: input?,
            solver,
            seed,
            decompose,
            validation,
            max_jobs,
            deadline_ms,
            cache,
            parallel,
        })
    }

    /// Parses one request line through the owned [`Value`]-tree parser —
    /// the semantic reference [`BatchRecord::parse_fast`] must agree with.
    pub fn parse_owned(line: &str) -> Result<BatchRecord, JsonError> {
        let value = json::parse(line)?;
        let id = match value.get("id") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| JsonError("field `id` must be a string".into()))?
                    .to_string(),
            ),
        };
        let input = match (value.get("instance"), value.get("generator")) {
            (Some(_), Some(_)) => {
                return Err(JsonError(
                    "record has both `instance` and `generator`; provide exactly one".into(),
                ))
            }
            (Some(inst), None) => RecordInput::Inline(parse_inline_instance(inst)?),
            (None, Some(spec)) => RecordInput::Generated(GeneratorSpec::from_value(spec)?),
            (None, None) => {
                return Err(JsonError(
                    "record needs an `instance` or a `generator`".into(),
                ))
            }
        };
        let solver = match value.get("solver") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| JsonError("field `solver` must be a string".into()))?
                    .to_string(),
            ),
        };
        let validation = match value.get("validation") {
            None => None,
            Some(v) => Some(parse_validation(v.as_str().ok_or_else(|| {
                JsonError("field `validation` must be a string".into())
            })?)?),
        };
        let cache = match value.get("cache") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| JsonError("field `cache` must be a string".into()))?
                    .parse::<CachePolicy>()
                    .map_err(JsonError)?,
            ),
        };
        let parallel = match value.get("parallel") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let raw = v
                    .as_str()
                    .ok_or_else(|| JsonError("field `parallel` must be a string".into()))?;
                Some(ParallelPolicy::parse(raw).ok_or_else(|| {
                    JsonError(format!(
                        "unknown parallel policy '{raw}' (expected auto, on or off)"
                    ))
                })?)
            }
        };
        Ok(BatchRecord {
            id,
            input,
            solver,
            seed: json::opt_int(&value, "seed")?,
            decompose: opt_bool(&value, "decompose")?,
            validation,
            max_jobs: json::opt_int(&value, "max_jobs")?,
            deadline_ms: json::opt_int(&value, "deadline_ms")?,
            cache,
            parallel,
        })
    }

    /// Materializes the record's instance (generates when described by
    /// spec). Equal inputs materialize equal instances, which is what the
    /// server's solution cache keys on.
    pub fn instance(&self) -> Instance {
        match &self.input {
            RecordInput::Inline(inst) => inst.clone(),
            RecordInput::Generated(spec) => spec.generate(),
        }
    }

    /// Folds this record's overrides into a base [`SolveOptions`].
    pub fn apply_overrides(&self, mut options: SolveOptions) -> SolveOptions {
        if let Some(seed) = self.seed {
            options.seed = seed;
        }
        if let Some(decompose) = self.decompose {
            options.decompose = decompose;
        }
        if let Some(validation) = self.validation {
            options.validation = validation;
        }
        if let Some(max_jobs) = self.max_jobs {
            options.max_jobs = Some(max_jobs);
        }
        if let Some(ms) = self.deadline_ms {
            options.deadline = Some(std::time::Duration::from_millis(ms));
        }
        if let Some(parallel) = self.parallel {
            options.parallel = parallel;
        }
        options
    }
}

fn parse_validation(s: &str) -> Result<ValidationLevel, JsonError> {
    match s {
        "skip" => Ok(ValidationLevel::Skip),
        "basic" => Ok(ValidationLevel::Basic),
        "strict" => Ok(ValidationLevel::Strict),
        other => Err(JsonError(format!(
            "unknown validation level '{other}' (expected skip, basic or strict)"
        ))),
    }
}

fn parse_inline_instance(value: &Value) -> Result<Instance, JsonError> {
    let g_raw = value
        .field("g")?
        .as_i64()
        .ok_or_else(|| JsonError("field `g` must be an integer".into()))?;
    let g = u32::try_from(g_raw).map_err(|_| JsonError("field `g` out of range".into()))?;
    if g == 0 {
        return Err(JsonError("field `g` must be at least 1".into()));
    }
    let jobs = value
        .field("jobs")?
        .as_array()
        .ok_or_else(|| JsonError("field `jobs` must be an array".into()))?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| JsonError("each job must be a `[start, end]` pair".into()))?;
            match (pair[0].as_i64(), pair[1].as_i64()) {
                (Some(s), Some(c)) if s <= c => Ok(Interval::new(s, c)),
                (Some(s), Some(c)) => {
                    Err(JsonError(format!("job `[{s}, {c}]` has start after end")))
                }
                _ => Err(JsonError("job endpoints must be integers".into())),
            }
        })
        .collect::<Result<Vec<Interval>, _>>()?;
    Ok(Instance::new(jobs, g))
}

/// Zero-copy read of an optional integer field value: `null` is absent,
/// a strict integer converts or declines (the owned parser turns
/// out-of-range values into errors — those must go through it).
fn fast_opt_int<T: TryFrom<i64>>(line: &str, pos: usize) -> Option<(Option<T>, usize)> {
    use json::scan;
    if let Some(p) = scan::literal(line, pos, "null") {
        return Some((None, p));
    }
    let (n, p) = scan::int_strict(line, pos)?;
    T::try_from(n).ok().map(|v| (Some(v), p))
}

/// Zero-copy read of an inline `{"g": …, "jobs": [[s, c], …]}` object.
/// Declines on anything [`parse_inline_instance`] would reject (`g`
/// missing/0/out-of-range, malformed pairs, `start > end`) and on float
/// endpoints, which only the owned parser can normalize.
fn fast_inline_instance(line: &str, pos: usize) -> Option<(Instance, usize)> {
    use json::scan;
    let (mut g, mut jobs) = (None, None);
    let end = scan::object::<8>(line, pos, |key, pos| match key {
        "g" => scan::positive_u32(line, pos).map(|read| scan::store(&mut g, read)),
        "jobs" => {
            scan::job_pairs(line, pos, Interval::new).map(|read| scan::store(&mut jobs, read))
        }
        _ => scan::skip_simple_value(line, pos, 8),
    })?;
    Some((Instance::new(jobs?, g?), end))
}

fn opt_bool(value: &Value, key: &str) -> Result<Option<bool>, JsonError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(JsonError(format!("field `{key}` must be a boolean"))),
    }
}

fn line_prefix(out: &mut String, line: usize, id: Option<&str>, ok: bool) {
    out.push_str(&format!(
        "{{\"schema_version\": {REPORT_SCHEMA_VERSION}, \"line\": {line}, \"id\": "
    ));
    match id {
        Some(id) => json::write_string(out, id),
        None => out.push_str("null"),
    }
    out.push_str(&format!(", \"ok\": {ok}"));
}

/// Renders a successful response line (no trailing newline).
pub fn report_line(line: usize, id: Option<&str>, report: &SolveReport) -> String {
    let mut out = String::new();
    line_prefix(&mut out, line, id, true);
    out.push_str(", \"report\": ");
    out.push_str(&report.to_json_line());
    out.push('}');
    out
}

/// Renders a structured error response line (no trailing newline).
pub fn error_line(line: usize, id: Option<&str>, error: &str) -> String {
    let mut out = String::new();
    line_prefix(&mut out, line, id, false);
    out.push_str(", \"error\": ");
    json::write_string(&mut out, error);
    out.push('}');
    out
}

/// A response line restamped by [`reline_output`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelinedOutput {
    /// The response line with its `line` field rewritten.
    pub text: String,
    /// The line's `ok` flag, read positionally off the stable prefix.
    pub ok: bool,
}

/// Rewrites the `line` number of a response line without parsing (or
/// re-serializing) the full JSON — the restamp the shard router applies
/// when it forwards a backend's answer under the client's original input
/// numbering.
///
/// Returns `None` when `text` does not open with the exact prefix every
/// response line carries (`{"schema_version": N, "line": L, "id": …,
/// "ok": …`) — which is also how the router tells a per-record response
/// apart from a [`crate::engine::BatchSummary`] trailer, whose line has
/// no `line` field. The `id` is skipped structurally (escapes honored),
/// never substring-matched, so an adversarial id cannot spoof the `ok`
/// flag.
pub fn reline_output(text: &str, line: usize) -> Option<RelinedOutput> {
    let rest = text.strip_prefix("{\"schema_version\": ")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if digits == 0 {
        return None;
    }
    let rest = rest[digits..].strip_prefix(", \"line\": ")?;
    let old_start = text.len() - rest.len();
    let old_digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if old_digits == 0 {
        return None;
    }
    let tail = &rest[old_digits..];
    let after_id = tail.strip_prefix(", \"id\": ").and_then(|after_key| {
        after_key
            .strip_prefix("null")
            .or_else(|| skip_json_string(after_key))
    })?;
    let ok = if after_id.starts_with(", \"ok\": true") {
        true
    } else if after_id.starts_with(", \"ok\": false") {
        false
    } else {
        return None;
    };
    let mut out = String::with_capacity(text.len() + 20);
    out.push_str(&text[..old_start]);
    out.push_str(&line.to_string());
    out.push_str(tail);
    Some(RelinedOutput { text: out, ok })
}

/// Skips one JSON string literal at the start of `s` (honoring `\"` and
/// other backslash escapes), returning the rest after the closing quote.
fn skip_json_string(s: &str) -> Option<&str> {
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'"') {
        return None;
    }
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&s[i + 1..]),
            _ => i += 1,
        }
    }
    None
}

/// The fields of an embedded report a protocol consumer relies on.
///
/// Deliberately a summary, not a full [`SolveReport`]: response lines may
/// grow fields this type does not know about (and golden lines recorded
/// under older servers may lack fields newer ones emit), so only the
/// stable core is materialized.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportSummary {
    /// The resolved scheduler name.
    pub solver: String,
    /// Total busy time.
    pub cost: i64,
    /// Machines used.
    pub machines: i64,
    /// Certified lower bound.
    pub lower_bound: i64,
    /// `cost / lower_bound`.
    pub gap: f64,
    /// True iff the record's deadline cut the solve and the assignment is
    /// the solver's incumbent. Absent on lines recorded by pre-deadline
    /// servers; parsed as `false` then.
    pub deadline_hit: bool,
    /// True iff the report was served from the solution cache. Absent on
    /// lines recorded by pre-cache servers; parsed as `false` then.
    pub cached: bool,
    /// True iff the solve was warm-started from a cached near match.
    /// Absent on older lines; parsed as `false` then.
    pub warm_started: bool,
    /// Machine of each job.
    pub assignment: Vec<usize>,
}

/// One parsed response line.
#[derive(Clone, Debug, PartialEq)]
pub enum OutputLine {
    /// A solved record.
    Report {
        /// 1-based input line number.
        line: usize,
        /// Echoed record id.
        id: Option<String>,
        /// The embedded report summary.
        report: ReportSummary,
    },
    /// A failed record.
    Error {
        /// 1-based input line number.
        line: usize,
        /// Echoed record id (when the line parsed far enough to have one).
        id: Option<String>,
        /// Human-readable cause.
        error: String,
    },
}

impl OutputLine {
    /// The 1-based input line number this response answers.
    pub fn line(&self) -> usize {
        match self {
            OutputLine::Report { line, .. } | OutputLine::Error { line, .. } => *line,
        }
    }
}

/// Parses a response line, ignoring unknown fields (forward and backward
/// compatible across additive protocol growth).
pub fn parse_output_line(input: &str) -> Result<OutputLine, JsonError> {
    let value = json::parse(input)?;
    let line = value
        .field("line")?
        .as_i64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| JsonError("field `line` must be a non-negative integer".into()))?;
    let id = match value.get("id") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| JsonError("field `id` must be a string".into()))?
                .to_string(),
        ),
    };
    let ok = match value.field("ok")? {
        Value::Bool(b) => *b,
        _ => return Err(JsonError("field `ok` must be a boolean".into())),
    };
    if !ok {
        let error = value
            .field("error")?
            .as_str()
            .ok_or_else(|| JsonError("field `error` must be a string".into()))?
            .to_string();
        return Ok(OutputLine::Error { line, id, error });
    }
    let report = value.field("report")?;
    let int = |key: &str| -> Result<i64, JsonError> {
        report
            .field(key)?
            .as_i64()
            .ok_or_else(|| JsonError(format!("report field `{key}` must be an integer")))
    };
    let gap = match report.field("gap")? {
        Value::Int(n) => *n as f64,
        Value::Number(n) => *n,
        // a non-finite gap (positive cost over a zero certified bound)
        // serializes as null; parse it back as the infinity it stands for
        Value::Null => f64::INFINITY,
        _ => return Err(JsonError("report field `gap` must be a number".into())),
    };
    let assignment = report
        .field("assignment")?
        .as_array()
        .ok_or_else(|| JsonError("report field `assignment` must be an array".into()))?
        .iter()
        .map(|v| {
            v.as_i64()
                .and_then(|m| usize::try_from(m).ok())
                .ok_or_else(|| JsonError("machine ids must be non-negative integers".into()))
        })
        .collect::<Result<Vec<usize>, _>>()?;
    Ok(OutputLine::Report {
        line,
        id,
        report: ReportSummary {
            solver: report
                .field("solver")?
                .as_str()
                .ok_or_else(|| JsonError("report field `solver` must be a string".into()))?
                .to_string(),
            cost: int("cost")?,
            machines: int("machines")?,
            lower_bound: int("lower_bound")?,
            gap,
            deadline_hit: matches!(report.get("deadline_hit"), Some(Value::Bool(true))),
            cached: matches!(report.get("cached"), Some(Value::Bool(true))),
            warm_started: matches!(report.get("warm_started"), Some(Value::Bool(true))),
            assignment,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use busytime_core::SolveRequest;

    #[test]
    fn parses_inline_record_with_overrides() {
        let rec = BatchRecord::parse(
            r#"{"id": "x", "instance": {"g": 2, "jobs": [[0, 4], [1, 5]]},
               "solver": "first-fit", "seed": 9, "decompose": false,
               "validation": "strict", "max_jobs": 10, "deadline_ms": 250,
               "parallel": "off", "client_tag": "ignored"}"#,
        )
        .unwrap();
        assert_eq!(rec.id.as_deref(), Some("x"));
        assert_eq!(rec.solver.as_deref(), Some("first-fit"));
        assert_eq!(rec.instance().len(), 2);
        assert_eq!(rec.deadline_ms, Some(250));
        assert_eq!(rec.parallel, Some(ParallelPolicy::Off));
        let opts = rec.apply_overrides(SolveOptions::default());
        assert_eq!(opts.seed, 9);
        assert!(!opts.decompose);
        assert_eq!(opts.validation, ValidationLevel::Strict);
        assert_eq!(opts.max_jobs, Some(10));
        assert_eq!(opts.deadline, Some(std::time::Duration::from_millis(250)));
        assert_eq!(opts.parallel, ParallelPolicy::Off);
    }

    #[test]
    fn parses_generator_record() {
        let rec = BatchRecord::parse(r#"{"generator": {"family": "proper", "n": 12, "seed": 3}}"#)
            .unwrap();
        assert!(rec.id.is_none());
        let inst = rec.instance();
        assert_eq!(inst.len(), 12);
        // determinism: same record, same instance
        assert_eq!(inst, rec.instance());
    }

    #[test]
    fn rejects_shapeless_records() {
        for bad in [
            r#"{"id": "a"}"#,
            r#"{"instance": {"g": 2, "jobs": []}, "generator": {"family": "uniform"}}"#,
            r#"{"instance": {"g": 0, "jobs": []}}"#,
            r#"{"instance": {"g": 2, "jobs": [[4, 0]]}}"#,
            r#"{"instance": {"g": 2, "jobs": [[0, 4]]}, "validation": "paranoid"}"#,
            r#"{"instance": {"g": 2, "jobs": [[0, 4]]}, "parallel": "sideways"}"#,
            r#"not json at all"#,
        ] {
            assert!(BatchRecord::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn response_lines_round_trip() {
        let inst = Instance::from_pairs([(0, 4), (1, 5), (6, 9)], 2);
        let report = SolveRequest::new(&inst).solve().unwrap();
        let line = report_line(3, Some("abc"), &report);
        assert!(!line.contains('\n'));
        match parse_output_line(&line).unwrap() {
            OutputLine::Report {
                line,
                id,
                report: summary,
            } => {
                assert_eq!(line, 3);
                assert_eq!(id.as_deref(), Some("abc"));
                assert_eq!(summary.cost, report.cost);
                assert_eq!(summary.lower_bound, report.lower_bound);
                assert_eq!(summary.assignment.len(), inst.len());
            }
            other => panic!("expected report line, got {other:?}"),
        }

        let err = error_line(7, None, "json: bad \"line\"");
        match parse_output_line(&err).unwrap() {
            OutputLine::Error { line, id, error } => {
                assert_eq!(line, 7);
                assert!(id.is_none());
                assert!(error.contains("bad \"line\""));
            }
            other => panic!("expected error line, got {other:?}"),
        }
    }

    #[test]
    fn output_parser_tolerates_null_gap() {
        let inst = Instance::from_pairs([(0, 4)], 2);
        let report = SolveRequest::new(&inst).solve().unwrap();
        let line = report_line(1, None, &report);
        let gap_field = format!("\"gap\": {:.6}", report.gap);
        assert!(line.contains(&gap_field), "{line}");
        let nulled = line.replacen(&gap_field, "\"gap\": null", 1);
        match parse_output_line(&nulled).unwrap() {
            OutputLine::Report { report, .. } => assert!(report.gap.is_infinite()),
            other => panic!("expected report line, got {other:?}"),
        }
    }

    #[test]
    fn reline_restamps_without_reparsing() {
        let inst = Instance::from_pairs([(0, 4), (1, 5)], 2);
        let report = SolveRequest::new(&inst).solve().unwrap();
        let original = report_line(42, Some("abc"), &report);
        let relined = reline_output(&original, 7).unwrap();
        assert!(relined.ok);
        assert!(relined.text.starts_with(&format!(
            "{{\"schema_version\": {REPORT_SCHEMA_VERSION}, \"line\": 7, \"id\": \"abc\""
        )));
        // nothing but the line number changed
        match parse_output_line(&relined.text).unwrap() {
            OutputLine::Report {
                line,
                id,
                report: parsed,
            } => {
                assert_eq!(line, 7);
                assert_eq!(id.as_deref(), Some("abc"));
                assert_eq!(parsed.cost, report.cost);
            }
            other => panic!("expected report line, got {other:?}"),
        }

        let err = error_line(3, None, "boom");
        let relined = reline_output(&err, 11).unwrap();
        assert!(!relined.ok);
        assert_eq!(parse_output_line(&relined.text).unwrap().line(), 11);
    }

    #[test]
    fn reline_rejects_trailers_and_spoofed_ids() {
        // a batch-summary trailer has no `line` field: not a response line
        assert!(
            reline_output("{\"schema_version\": 1, \"records\": 3, \"solved\": 3}", 1).is_none()
        );
        assert!(reline_output("free text", 1).is_none());

        // an id crafted to *contain* the ok-prefix must not fool the
        // positional scan: the real flag after the string wins
        let tricky = error_line(1, Some("x\", \"ok\": true"), "nope");
        let relined = reline_output(&tricky, 9).unwrap();
        assert!(!relined.ok, "spoofed id flipped the ok flag: {tricky}");
        match parse_output_line(&relined.text).unwrap() {
            OutputLine::Error { line, id, .. } => {
                assert_eq!(line, 9);
                assert_eq!(id.as_deref(), Some("x\", \"ok\": true"));
            }
            other => panic!("expected error line, got {other:?}"),
        }
    }

    #[test]
    fn output_parser_tolerates_unknown_fields() {
        let inst = Instance::from_pairs([(0, 4)], 2);
        let report = SolveRequest::new(&inst).solve().unwrap();
        let line = report_line(1, None, &report);
        // a future server stamps extra fields at both nesting levels
        let extended = line
            .replacen(
                "{\"schema_version\"",
                "{\"future\": [1, 2], \"schema_version\"",
                1,
            )
            .replacen("\"report\": {", "\"report\": {\"queue_ms\": 0.5, ", 1);
        let parsed = parse_output_line(&extended).unwrap();
        assert_eq!(parsed.line(), 1);
    }
}
