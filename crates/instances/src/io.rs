//! JSON import/export of instances and schedules.

use std::io::{BufWriter, Write};
use std::path::Path;

use busytime_core::{Instance, Schedule};
use busytime_interval::Interval;

use crate::json::{self, JsonError, Value};

/// A named, self-describing instance file.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceFile {
    /// Dataset name.
    pub name: String,
    /// Free-form provenance note (generator, parameters, seed).
    pub comment: String,
    /// Parallelism parameter.
    pub g: u32,
    /// Jobs as `[start, end]` pairs.
    pub jobs: Vec<(i64, i64)>,
}

impl InstanceFile {
    /// Wraps an instance with metadata.
    pub fn new(name: impl Into<String>, comment: impl Into<String>, inst: &Instance) -> Self {
        InstanceFile {
            name: name.into(),
            comment: comment.into(),
            g: inst.g(),
            jobs: inst.jobs().iter().map(|j| (j.start, j.end)).collect(),
        }
    }

    /// Reconstructs the instance.
    pub fn to_instance(&self) -> Instance {
        Instance::new(
            self.jobs
                .iter()
                .map(|&(s, c)| Interval::new(s, c))
                .collect(),
            self.g,
        )
    }
}

/// Serializes an instance (with metadata) to pretty JSON.
pub fn instance_to_json(file: &InstanceFile) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"name\": ");
    json::write_string(&mut out, &file.name);
    out.push_str(",\n  \"comment\": ");
    json::write_string(&mut out, &file.comment);
    out.push_str(&format!(",\n  \"g\": {},\n  \"jobs\": [", file.g));
    for (i, (s, c)) in file.jobs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    [{s}, {c}]"));
    }
    if !file.jobs.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Serializes a schedule export to pretty JSON.
pub fn schedule_to_json(file: &ScheduleFile) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"algorithm\": ");
    json::write_string(&mut out, &file.algorithm);
    out.push_str(",\n  \"assignment\": [");
    for (i, m) in file.assignment.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&m.to_string());
    }
    out.push_str(&format!("],\n  \"cost\": {}\n}}\n", file.cost));
    out
}

fn int_field<T: TryFrom<i64>>(value: &Value, key: &str) -> Result<T, JsonError> {
    let raw = value
        .field(key)?
        .as_i64()
        .ok_or_else(|| JsonError(format!("field `{key}` must be an integer")))?;
    T::try_from(raw).map_err(|_| JsonError(format!("field `{key}` out of range")))
}

fn str_field(value: &Value, key: &str) -> Result<String, JsonError> {
    Ok(value
        .field(key)?
        .as_str()
        .ok_or_else(|| JsonError(format!("field `{key}` must be a string")))?
        .to_string())
}

/// Parses a schedule export from JSON.
pub fn schedule_from_json(input: &str) -> Result<ScheduleFile, JsonError> {
    let value = json::parse(input)?;
    let assignment = value
        .field("assignment")?
        .as_array()
        .ok_or_else(|| JsonError("field `assignment` must be an array".into()))?
        .iter()
        .map(|v| {
            v.as_i64()
                .and_then(|m| usize::try_from(m).ok())
                .ok_or_else(|| JsonError("machine ids must be non-negative integers".into()))
        })
        .collect::<Result<Vec<usize>, _>>()?;
    Ok(ScheduleFile {
        algorithm: str_field(&value, "algorithm")?,
        assignment,
        cost: int_field(&value, "cost")?,
    })
}

/// Parses an instance file from JSON: the zero-copy scanner first, and
/// the owned parser for whatever it declines (so every error message is
/// the owned parser's).
pub fn instance_from_json(input: &str) -> Result<InstanceFile, JsonError> {
    match scan_instance_file(input) {
        Some(file) => Ok(file),
        None => parse_instance_file(input),
    }
}

/// Reads an instance file without building a [`Value`] tree, with the
/// [`json::scan`] primitives. Declines (`None`) on anything the owned
/// parser might read differently or reject: escaped strings, float or
/// out-of-range numbers, object-valued fields, duplicate or missing keys,
/// more than eight keys, `g: 0`, `start > end` and trailing characters.
fn scan_instance_file(input: &str) -> Option<InstanceFile> {
    use json::scan::{self, store};
    let (mut name, mut comment, mut g, mut jobs) = (None, None, None, None);
    let end = scan::object::<8>(input, scan::skip_ws(input, 0), |key, pos| match key {
        "name" => scan::string_borrowed(input, pos).map(|read| store(&mut name, read)),
        "comment" => scan::string_borrowed(input, pos).map(|read| store(&mut comment, read)),
        "g" => scan::positive_u32(input, pos).map(|read| store(&mut g, read)),
        "jobs" => scan::job_pairs(input, pos, |s, c| (s, c)).map(|read| store(&mut jobs, read)),
        _ => scan::skip_simple_value(input, pos, 8),
    })?;
    if scan::skip_ws(input, end) != input.len() {
        return None;
    }
    let (name, comment) = (name?.to_string(), comment?.to_string());
    Some(InstanceFile {
        name,
        comment,
        g: g?,
        jobs: jobs?,
    })
}

/// The owned route of [`instance_from_json`]: a [`Value`] tree, then
/// field by field.
fn parse_instance_file(input: &str) -> Result<InstanceFile, JsonError> {
    let value = json::parse(input)?;
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
                (Some(s), Some(c)) if s <= c => Ok((s, c)),
                (Some(s), Some(c)) => {
                    Err(JsonError(format!("job `[{s}, {c}]` has start after end")))
                }
                _ => Err(JsonError("job endpoints must be integers".into())),
            }
        })
        .collect::<Result<Vec<(i64, i64)>, _>>()?;
    let g: u32 = int_field(&value, "g")?;
    if g == 0 {
        return Err(JsonError("field `g` must be at least 1".into()));
    }
    Ok(InstanceFile {
        name: str_field(&value, "name")?,
        comment: str_field(&value, "comment")?,
        g,
        jobs,
    })
}

/// Writes an instance file to disk (buffered).
pub fn write_instance(path: &Path, file: &InstanceFile) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    w.write_all(instance_to_json(file).as_bytes())?;
    w.flush()
}

/// Reads an instance file from disk in one read, with no buffered copy.
pub fn read_instance(path: &Path) -> std::io::Result<InstanceFile> {
    let text = std::fs::read_to_string(path)?;
    instance_from_json(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// A schedule export: assignment plus the cost it was computed with, so
/// downstream tooling can cross-check.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleFile {
    /// Producing algorithm.
    pub algorithm: String,
    /// Machine of each job.
    pub assignment: Vec<usize>,
    /// Total busy time claimed by the producer.
    pub cost: i64,
}

impl ScheduleFile {
    /// Wraps a schedule with provenance.
    pub fn new(algorithm: impl Into<String>, sched: &Schedule, inst: &Instance) -> Self {
        ScheduleFile {
            algorithm: algorithm.into(),
            assignment: sched.assignment().to_vec(),
            cost: sched.cost(inst),
        }
    }

    /// Reconstructs the schedule and verifies the recorded cost against the
    /// instance; errors on mismatch (tamper/rot detection).
    pub fn to_schedule(&self, inst: &Instance) -> Result<Schedule, String> {
        let sched = Schedule::from_assignment(self.assignment.clone());
        let actual = sched.cost(inst);
        if actual != self.cost {
            return Err(format!(
                "recorded cost {} does not match recomputed {actual}",
                self.cost
            ));
        }
        Ok(sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{uniform, LengthDist};

    #[test]
    fn json_roundtrip() {
        let inst = uniform(30, 50, LengthDist::Uniform(1, 10), 3, 1);
        let file = InstanceFile::new("test", "uniform n=30 seed=1", &inst);
        let json = instance_to_json(&file);
        let back = instance_from_json(&json).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.to_instance(), inst);
    }

    #[test]
    fn disk_roundtrip() {
        let inst = uniform(10, 20, LengthDist::Fixed(3), 2, 2);
        let file = InstanceFile::new("disk", "fixed", &inst);
        let dir = std::env::temp_dir().join("busytime_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json");
        write_instance(&path, &file).unwrap();
        let back = read_instance(&path).unwrap();
        assert_eq!(back, file);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scanner_agrees_with_owned_parser() {
        // (input, whether the zero-copy scanner reads it itself): either
        // way, the result must be the owned parser's, error text included
        let rows: [(&str, bool); 16] = [
            (
                r#"{"name": "a", "comment": "b", "g": 2, "jobs": [[0, 4], [1, 5]]}"#,
                true,
            ),
            (
                r#"{"jobs": [[-3, 0]], "g": 1, "comment": "", "name": "x"}"#,
                true,
            ),
            (r#"  {"name":"a","comment":"b","g":2,"jobs":[]}  "#, true),
            (
                r#"{"name": "a", "comment": "b", "g": 2, "jobs": [], "x": [1, "y", null]}"#,
                true,
            ),
            (
                r#"{"name": "a\"q", "comment": "b", "g": 2, "jobs": [[0, 1]]}"#,
                false,
            ),
            (
                r#"{"name": "a", "comment": "tab\tnl\n", "g": 2, "jobs": []}"#,
                false,
            ),
            (
                r#"{"name": "a", "comment": "b", "g": 2, "jobs": [[0, 4.0], [1e3, 2000]]}"#,
                false,
            ),
            (
                r#"{"name": "a", "comment": "b", "g": 2.0, "jobs": [[0, 1]]}"#,
                false,
            ),
            (
                r#"{"name": "a", "comment": "b", "g": 2, "g": 3, "jobs": []}"#,
                false,
            ),
            (r#"{"name": "a", "comment": "b", "jobs": [[0, 1]]}"#, false),
            (
                r#"{"name": "a", "comment": "b", "g": 0, "jobs": [[0, 1]]}"#,
                false,
            ),
            (
                r#"{"name": "a", "comment": "b", "g": 2, "jobs": [[5, 1]]}"#,
                false,
            ),
            (
                r#"{"name": "a", "comment": "b", "g": 2, "jobs": []} x"#,
                false,
            ),
            (
                r#"{"name": "a", "comment": "b", "g": 2, "jobs": [], "meta": {"k": 1}}"#,
                false,
            ),
            (
                r#"{"name": "a", "comment": "b", "g": 2, "jobs": [[0, 1, 2]]}"#,
                false,
            ),
            (
                r#"{"name": "a", "comment": "b", "g": -1, "jobs": []}"#,
                false,
            ),
        ];
        for (input, fast) in rows {
            assert_eq!(scan_instance_file(input).is_some(), fast, "{input}");
            assert_eq!(
                instance_from_json(input),
                parse_instance_file(input),
                "{input}"
            );
        }
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(instance_from_json("{not json").is_err());
        assert!(instance_from_json("{\"name\":\"x\"}").is_err());
    }

    #[test]
    fn schedule_roundtrip_and_tamper_detection() {
        use busytime_core::algo::{FirstFit, Scheduler};
        let inst = uniform(20, 30, LengthDist::Uniform(1, 8), 2, 3);
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        let mut file = ScheduleFile::new("FirstFit", &sched, &inst);
        assert_eq!(
            file.to_schedule(&inst).unwrap().assignment(),
            sched.assignment()
        );
        file.cost += 1; // tamper
        assert!(file.to_schedule(&inst).is_err());
    }
}
