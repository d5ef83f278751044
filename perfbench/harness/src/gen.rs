//! Seeded inputs. Every instance the program sees is generated here from
//! the run's seed and sent inline; nothing is read from the repository.

use busytime_core::Instance;
use busytime_instances::{Family, GeneratorSpec};
use busytime_interval::Interval;

use crate::rng::Rng;

/// The `deadline_ms` guard on exact records: far above their solve times
/// (a few ms), so it never cuts a healthy solve.
pub const EXACT_DEADLINE_MS: u64 = 2000;

/// Which traffic class a record belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A distinct small record, solved by `auto`.
    Cold,
    /// A repeat of hot-set entry `k`, its jobs shuffled on every send.
    Hot(usize),
    /// A fresh dense `exact-bb` record.
    Exact,
    /// An `exact-bb` record one job removed or replaced from an earlier
    /// exact record.
    Edit,
    /// One of the large `solve-large` instances.
    Large,
}

/// One request: an inline instance plus the fields the benchmark sets.
#[derive(Clone, Debug)]
pub struct Record {
    /// Echoed on the answer line.
    pub id: String,
    /// The instance, in the job order sent on the wire.
    pub inst: Instance,
    /// The traffic class.
    pub class: Class,
}

impl Record {
    /// True for records sent with `"solver": "exact-bb"`.
    pub fn is_exact(&self) -> bool {
        matches!(self.class, Class::Exact | Class::Edit)
    }

    /// The NDJSON request line (no trailing newline).
    pub fn line(&self) -> String {
        let mut out = String::with_capacity(48 + 14 * self.inst.len());
        out.push_str("{\"id\": \"");
        out.push_str(&self.id);
        out.push_str("\", ");
        if self.is_exact() {
            out.push_str(&format!(
                "\"solver\": \"exact-bb\", \"deadline_ms\": {EXACT_DEADLINE_MS}, "
            ));
        }
        out.push_str("\"instance\": ");
        push_instance(&mut out, &self.inst);
        out.push('}');
        out
    }
}

/// Appends `"g": G, "jobs": [[s, e], …]`.
fn push_fields(out: &mut String, inst: &Instance) {
    out.push_str(&format!("\"g\": {}, \"jobs\": [", inst.g()));
    for (i, iv) in inst.jobs().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("[{}, {}]", iv.start, iv.end));
    }
    out.push(']');
}

/// Appends the inline `{"g": G, "jobs": [[s, e], …]}` object.
fn push_instance(out: &mut String, inst: &Instance) {
    out.push('{');
    push_fields(out, inst);
    out.push('}');
}

/// An instance file as `busytime-cli solve --input` reads it.
pub fn instance_file(name: &str, inst: &Instance) -> String {
    let mut out = format!("{{\"name\": \"{name}\", \"comment\": \"perfbench\", ");
    push_fields(&mut out, inst);
    out.push('}');
    out
}

/// The same instance with its jobs in a fresh random order.
pub fn shuffled(inst: &Instance, rng: &mut Rng) -> Instance {
    let mut jobs = inst.jobs().to_vec();
    rng.shuffle(&mut jobs);
    Instance::new(jobs, inst.g())
}

/// A small record instance: 20–60 jobs from one of the program's named
/// generator families (each equally likely), shuffled and shifted to a
/// random start below 2000, so that families whose shape ignores the seed
/// (`fig4`) still give distinct instances. The shift stays small: starts
/// near 2^20 made a 4000-record batch about 10% slower (median of five
/// runs each). A family that yields fewer jobs than drawn is repeated side
/// by side until the draw is met.
pub fn small_instance(rng: &mut Rng) -> Instance {
    let families = Family::all();
    let family = families[rng.range(0, families.len() as i64 - 1) as usize];
    let n = rng.range(20, 60) as usize;
    let g = rng.range(2, 4) as u32;
    let mut jobs: Vec<Interval> = Vec::with_capacity(n);
    let mut next_start = rng.range(0, 2000);
    while jobs.len() < n {
        let spec = GeneratorSpec {
            family,
            n,
            g,
            seed: rng.next_u64(),
            d: rng.range(2, 6),
        };
        let part = spec.generate();
        let offset = next_start - part.jobs().iter().map(|iv| iv.start).min().unwrap_or(0);
        jobs.extend(
            part.jobs()
                .iter()
                .map(|iv| Interval::new(iv.start + offset, iv.end + offset)),
        );
        next_start = jobs.iter().map(|iv| iv.end).max().unwrap_or(next_start) + 5;
    }
    jobs.truncate(n);
    rng.shuffle(&mut jobs);
    Instance::new(jobs, g)
}

/// One job of a dense exact instance: long jobs starting in a short
/// window, so the instance is one component the search must work on.
fn dense_job(rng: &mut Rng) -> Interval {
    let start = rng.range(0, 20);
    Interval::new(start, start + rng.range(20, 40))
}

/// A dense 12-job instance for `exact-bb` (`g = 3`). A solve takes about
/// 1–7 ms (2-core host, release build): this shape keeps the tail light,
/// where sparser ones reach 15–90 ms on a few instances and make the
/// latency tail a draw of which instances a seed picked.
pub fn exact_instance(rng: &mut Rng) -> Instance {
    Instance::new((0..12).map(|_| dense_job(rng)).collect(), 3)
}

/// `base` with one job removed, or one job replaced by a fresh one: one
/// or two insertions/deletions away, within the warm-start tier's budget
/// (`WARM_EDIT_BUDGET` = 2), but a different instance. No edit adds a
/// job: a 13th dense job makes a solve up to ten times slower.
pub fn edited(base: &Instance, rng: &mut Rng) -> Instance {
    let mut jobs = base.jobs().to_vec();
    let k = rng.range(0, jobs.len() as i64 - 1) as usize;
    if rng.unit() < 0.5 {
        jobs.remove(k);
    } else {
        jobs[k] = dense_job(rng);
    }
    rng.shuffle(&mut jobs);
    Instance::new(jobs, base.g())
}

/// `clusters` disjoint, fully overlapping clusters of `per` jobs each
/// (`g = 2`), the shape of `tests/fixtures/intra_many_components.json`.
fn clusters(clusters: i64, per: usize, rng: &mut Rng) -> Instance {
    let mut jobs = Vec::with_capacity(clusters as usize * per);
    for c in 0..clusters {
        let base = c * 2000;
        for _ in 0..per {
            jobs.push(Interval::new(
                base + rng.range(0, 100),
                base + rng.range(900, 990),
            ));
        }
    }
    rng.shuffle(&mut jobs);
    Instance::new(jobs, 2)
}

/// The `solve-large` set: five instances above the fork threshold
/// (`pool::intra::JOB_THRESHOLD` = 8192 jobs): two many-component cluster
/// shapes and connected-or-not `uniform`, `proper` and `bounded` ones. An
/// odd count keeps the median solve time inside one instance's cluster of
/// times rather than in the gap between two. `scale` shrinks them for
/// smoke runs.
pub fn large_set(seed: u64, scale: f64) -> Vec<(String, Instance)> {
    let mut rng = Rng::new(seed, 4);
    let n = |full: usize| ((full as f64 * scale) as usize).max(64);
    let mut set = vec![
        ("cluster-12".to_string(), clusters(12, n(1200), &mut rng)),
        ("cluster-6".to_string(), clusters(6, n(2400), &mut rng)),
    ];
    for (family, d) in [
        (Family::Uniform, 4),
        (Family::Proper, 4),
        (Family::Bounded, 4),
    ] {
        let spec = GeneratorSpec {
            family,
            n: n(16000),
            g: 3,
            seed: rng.next_u64(),
            d,
        };
        set.push((
            family.name().to_string(),
            shuffled(&spec.generate(), &mut rng),
        ));
    }
    set
}

/// `n` distinct small records (`batch-small`).
pub fn batch_records(seed: u64, n: usize) -> Vec<Record> {
    let mut rng = Rng::new(seed, 1);
    (0..n)
        .map(|i| Record {
            id: format!("b{i}"),
            inst: small_instance(&mut rng),
            class: Class::Cold,
        })
        .collect()
}
