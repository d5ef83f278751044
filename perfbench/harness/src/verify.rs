//! Re-checks every answer against the record that asked for it.
//!
//! Per record: exactly one answer, in order, with its `id` echoed; the
//! assignment is a feasible schedule of the record's own instance
//! (`verify::check_schedule`); `Schedule::cost` recomputes to the reported
//! cost and the machine count matches; `lower_bound ≤ cost`. Repeats of a
//! hot instance must report the first answer's bound and solver, and a
//! cache hit the cost of an earlier solve of that instance.
//! Where every component has at most [`ORACLE_MAX_JOBS`] jobs, an
//! `exact-dp` optimum computed once per run checks `OPT ≤ cost`, `cost ==
//! OPT` for exact answers, `cost ≤ 4·OPT` for portfolio answers (FirstFit
//! is always raced, Thm 2.1) and `cost ≤ 2·OPT` when the instance is proper
//! (the portfolio dispatches the Thm 3.1 greedy or the clique 2-approx).

use std::collections::HashMap;

use busytime_core::verify::check_schedule;
use busytime_core::{Instance, Schedule};
use busytime_exact::ExactDp;
use busytime_instances::json::{self, Value};

use crate::gen::{Class, Record};

/// Largest component the `exact-dp` oracle is run on.
pub const ORACLE_MAX_JOBS: usize = 12;

/// The order- and id-free identity of an instance.
type Key = (u32, Vec<(i64, i64)>);

fn key(inst: &Instance) -> Key {
    let mut jobs: Vec<(i64, i64)> = inst.jobs().iter().map(|iv| (iv.start, iv.end)).collect();
    jobs.sort_unstable();
    (inst.g(), jobs)
}

/// Exact optima of the run's small instances, computed before any timing.
#[derive(Default)]
pub struct Oracle {
    opt: HashMap<Key, i64>,
}

impl Oracle {
    /// Solves every distinct instance among `records` whose components
    /// all have at most [`ORACLE_MAX_JOBS`] jobs.
    pub fn build<'a>(records: impl IntoIterator<Item = &'a Record>) -> Oracle {
        let dp = ExactDp::new();
        let mut opt = HashMap::new();
        for record in records {
            let k = key(&record.inst);
            if opt.contains_key(&k) {
                continue;
            }
            let small = record
                .inst
                .components()
                .iter()
                .all(|(c, _)| c.len() <= ORACLE_MAX_JOBS);
            if small {
                let value = dp
                    .opt_value(&record.inst)
                    .expect("exact-dp solves components within its size guard");
                opt.insert(k, value);
            }
        }
        Oracle { opt }
    }

    /// The optimum of `inst`, when the oracle covers it.
    pub fn opt(&self, inst: &Instance) -> Option<i64> {
        self.opt.get(&key(inst)).copied()
    }

    /// Instances covered.
    pub fn len(&self) -> usize {
        self.opt.len()
    }

    /// True when no instance is covered.
    pub fn is_empty(&self) -> bool {
        self.opt.is_empty()
    }
}

/// The checked facts of one report.
#[derive(Clone, Debug, PartialEq)]
pub struct Checked {
    /// Reported (and recomputed) busy time.
    pub cost: i64,
    /// Reported lower bound.
    pub lower_bound: i64,
    /// Resolved solver name.
    pub solver: String,
    /// Served from the solution cache.
    pub cached: bool,
    /// Warm-started from a near match.
    pub warm_started: bool,
    /// Cut by its deadline.
    pub deadline_hit: bool,
}

/// Checks one embedded report object against `inst`.
pub fn check_report(
    inst: &Instance,
    report: &Value,
    exact: bool,
    oracle: &Oracle,
) -> Result<Checked, String> {
    let int = |k: &str| {
        report
            .get(k)
            .and_then(Value::as_i64)
            .ok_or_else(|| format!("report field `{k}` missing"))
    };
    let flag = |k: &str| matches!(report.get(k), Some(Value::Bool(true)));
    let solver = report
        .get("solver")
        .and_then(Value::as_str)
        .ok_or("report field `solver` missing")?
        .to_string();
    let assignment = report
        .get("assignment")
        .and_then(Value::as_array)
        .ok_or("report field `assignment` missing")?
        .iter()
        .map(|v| v.as_i64().and_then(|m| usize::try_from(m).ok()))
        .collect::<Option<Vec<usize>>>()
        .ok_or("assignment holds a non-machine value")?;
    if assignment.len() != inst.len() {
        return Err(format!(
            "assignment has {} entries for {} jobs",
            assignment.len(),
            inst.len()
        ));
    }
    let schedule = Schedule::from_assignment(assignment);
    check_schedule(inst, &schedule).map_err(|v| format!("infeasible schedule: {v}"))?;
    let (cost, lower_bound) = (int("cost")?, int("lower_bound")?);
    let recomputed = schedule.cost(inst);
    if recomputed != cost {
        return Err(format!(
            "reported cost {cost}, assignment costs {recomputed}"
        ));
    }
    if int("machines")? != schedule.machine_count() as i64 {
        return Err(format!(
            "reported {} machines, assignment uses {}",
            int("machines")?,
            schedule.machine_count()
        ));
    }
    if lower_bound > cost {
        return Err(format!("lower bound {lower_bound} above cost {cost}"));
    }
    if let Some(opt) = oracle.opt(inst) {
        if opt > cost {
            return Err(format!("cost {cost} below the optimum {opt}"));
        }
        if lower_bound > opt {
            return Err(format!("lower bound {lower_bound} above the optimum {opt}"));
        }
        let cut = flag("deadline_hit");
        if exact && !cut && cost != opt {
            return Err(format!("exact answer costs {cost}, optimum is {opt}"));
        }
        if solver == "Auto" && cost > 4 * opt {
            return Err(format!("cost {cost} above 4·OPT = {} (Thm 2.1)", 4 * opt));
        }
        if solver == "Auto" && inst.is_proper() && cost > 2 * opt {
            return Err(format!("cost {cost} above 2·OPT = {} (Thm 3.1)", 2 * opt));
        }
    }
    Ok(Checked {
        cost,
        lower_bound,
        solver,
        cached: flag("cached"),
        warm_started: flag("warm_started"),
        deadline_hit: flag("deadline_hit"),
    })
}

/// `line` with the values of its timing fields (every key ending in `ms`)
/// cut out: two answers to one record that differ only in timings compare
/// equal, so a repeat run can be checked against a verified one.
pub fn strip_timings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(pos) = rest.find("ms\": ") {
        let (head, tail) = rest.split_at(pos + "ms\": ".len());
        out.push_str(head);
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    out.push_str(rest);
    out
}

/// The verdict over one stream of answers.
#[derive(Debug, Default)]
pub struct Verdict {
    /// `(record index, reason)` of every failed record.
    pub failures: Vec<(usize, String)>,
    /// Per record: its checked answer, `None` when it failed.
    pub answers: Vec<Option<Checked>>,
}

impl Verdict {
    /// Σ cost over verified answers.
    pub fn total_cost(&self) -> i64 {
        self.answers.iter().flatten().map(|c| c.cost).sum()
    }

    /// Σ lower bound over verified answers.
    pub fn total_lower_bound(&self) -> i64 {
        self.answers.iter().flatten().map(|c| c.lower_bound).sum()
    }

    /// Answers with the given property.
    pub fn count(&self, pred: impl Fn(&Checked) -> bool) -> usize {
        self.answers.iter().flatten().filter(|c| pred(c)).count()
    }
}

/// Checks a protocol answer stream against `records`, record `i` being
/// input line `first_line + i`. Each record needs exactly one answer
/// carrying its line number, answers in input order, with the record's
/// `id` echoed, `ok: true` and a report that passes [`check_report`]. A
/// missing, repeated or out-of-order answer fails only its own record.
/// Lines without a `line` field (a session trailer) are ignored.
pub fn check_stream<S: AsRef<str>>(
    records: &[Record],
    answers: &[S],
    first_line: usize,
    oracle: &Oracle,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut by_line: HashMap<usize, Result<Value, String>> = HashMap::new();
    let mut last_line = 0;
    for text in answers {
        let Ok(value) = json::parse(text.as_ref()) else {
            continue;
        };
        let Some(line) = value.get("line").and_then(Value::as_i64) else {
            continue;
        };
        let line = line as usize;
        let entry = if by_line.contains_key(&line) {
            Err(format!("line {line} answered twice"))
        } else if line <= last_line {
            Err(format!("line {line} answered after line {last_line}"))
        } else {
            Ok(value)
        };
        last_line = last_line.max(line);
        by_line.insert(line, entry);
    }
    // per hot instance: the first answer, and the costs of fresh solves
    let mut hot_seen: HashMap<usize, (Option<Checked>, Vec<i64>)> = HashMap::new();
    for (i, record) in records.iter().enumerate() {
        let result = by_line
            .remove(&(first_line + i))
            .unwrap_or_else(|| Err("no answer".to_string()))
            .and_then(|value| check_answer(record, &value, oracle));
        let result = result.and_then(|checked| match record.class {
            Class::Hot(k) => check_repeat(hot_seen.entry(k).or_default(), checked),
            _ => Ok(checked),
        });
        match result {
            Ok(checked) => verdict.answers.push(Some(checked)),
            Err(reason) => {
                verdict.answers.push(None);
                verdict.failures.push((i, reason));
            }
        }
    }
    verdict
}

/// A repeat of a hot instance keeps the first answer's lower bound and
/// solver. Its cost may differ only on a fresh solve: the solvers break
/// ties by job order, and every send shuffles the jobs (a router's other
/// shard solves its first copy afresh). A cache hit must reproduce the
/// cost of an earlier fresh solve.
fn check_repeat(
    seen: &mut (Option<Checked>, Vec<i64>),
    checked: Checked,
) -> Result<Checked, String> {
    let (first, fresh_costs) = seen;
    let first = first.get_or_insert_with(|| checked.clone());
    if (first.lower_bound, &first.solver) != (checked.lower_bound, &checked.solver) {
        return Err(format!(
            "hot repeat answered bound {} by {}, first answer: bound {} by {}",
            checked.lower_bound, checked.solver, first.lower_bound, first.solver
        ));
    }
    if !checked.cached {
        fresh_costs.push(checked.cost);
    } else if !fresh_costs.contains(&checked.cost) {
        return Err(format!(
            "cache hit answered cost {}, earlier solves cost {fresh_costs:?}",
            checked.cost
        ));
    }
    Ok(checked)
}

fn check_answer(record: &Record, value: &Value, oracle: &Oracle) -> Result<Checked, String> {
    if value.get("id").and_then(Value::as_str) != Some(record.id.as_str()) {
        return Err(format!("answer echoes id {:?}", value.get("id")));
    }
    if !matches!(value.get("ok"), Some(Value::Bool(true))) {
        let error = value.get("error").and_then(Value::as_str).unwrap_or("?");
        return Err(format!("error answer: {error}"));
    }
    let report = value.get("report").ok_or("answer has no report")?;
    check_report(&record.inst, report, record.is_exact(), oracle)
}
