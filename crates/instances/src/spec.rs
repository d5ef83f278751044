//! Declarative generator specs: name a family and its parameters, get the
//! deterministic instance they describe.
//!
//! Both front-ends that accept "an instance by description" share this
//! type: the CLI's `generate` command and the NDJSON serving protocol of
//! `busytime-server`, whose records may carry a `generator` object instead
//! of inline jobs. A spec is tiny and hashable, so repeated records
//! naming the same spec produce equal instances (and hit the server's
//! solution cache).

use busytime_core::Instance;

use crate::json::{self, JsonError, Value};

/// The generator families reachable by name.
///
/// One variant per generator module this crate exposes through the
/// by-description front-ends; see each module for the class it produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// [`crate::random::uniform`] — general instances, uniform starts.
    Uniform,
    /// [`crate::proper::random_proper`] — proper families (§3.1).
    Proper,
    /// [`crate::clique::random_clique`] — pairwise-overlapping families.
    Clique,
    /// [`crate::bounded::random_bounded`] — lengths in `[1, d]` (§3.2).
    Bounded,
    /// [`crate::laminar::random_laminar`] — nested/disjoint families.
    Laminar,
    /// [`crate::adversarial::fig4`] — the Figure 4 lower-bound family.
    Fig4,
    /// [`crate::workload::shifts`] — shift-structured VM workloads.
    Shifts,
}

impl Family {
    /// The canonical lowercase name (`uniform`, `proper`, …).
    pub fn name(self) -> &'static str {
        match self {
            Family::Uniform => "uniform",
            Family::Proper => "proper",
            Family::Clique => "clique",
            Family::Bounded => "bounded",
            Family::Laminar => "laminar",
            Family::Fig4 => "fig4",
            Family::Shifts => "shifts",
        }
    }

    /// Every family, in name order.
    pub fn all() -> &'static [Family] {
        &[
            Family::Bounded,
            Family::Clique,
            Family::Fig4,
            Family::Laminar,
            Family::Proper,
            Family::Shifts,
            Family::Uniform,
        ]
    }
}

impl std::str::FromStr for Family {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Family::all()
            .iter()
            .copied()
            .find(|f| f.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Family::all().iter().map(|f| f.name()).collect();
                format!(
                    "unknown family '{s}' (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic instance description: family plus parameters.
///
/// `generate` is a pure function of the spec, so equal specs always yield
/// equal instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GeneratorSpec {
    /// Which generator to run.
    pub family: Family,
    /// Number of jobs (interpretation is per-family; `fig4` derives its
    /// size from `g`, `laminar`/`shifts` treat `n` as a scale knob).
    pub n: usize,
    /// Parallelism parameter `g`.
    pub g: u32,
    /// RNG seed (every generator is deterministic given its seed).
    pub seed: u64,
    /// Length-width parameter `d`, used by the `bounded` family only.
    pub d: i64,
}

impl GeneratorSpec {
    /// A spec with this crate's default parameters (`n = 40`, `g = 3`,
    /// `seed = 0`, `d = 4` — the CLI `generate` defaults).
    pub fn new(family: Family) -> Self {
        GeneratorSpec {
            family,
            n: 40,
            g: 3,
            seed: 0,
            d: 4,
        }
    }

    /// Parses a spec from a JSON object like
    /// `{"family": "uniform", "n": 100, "g": 4, "seed": 7}`.
    ///
    /// `family` is required; every other field defaults as in
    /// [`GeneratorSpec::new`]. Unknown fields are ignored (the serving
    /// protocol is forward-compatible).
    pub fn from_value(value: &Value) -> Result<Self, JsonError> {
        let family: Family = value
            .field("family")?
            .as_str()
            .ok_or_else(|| JsonError("field `family` must be a string".into()))?
            .parse()
            .map_err(JsonError)?;
        let mut spec = GeneratorSpec::new(family);
        spec.n = json::opt_int(value, "n")?.unwrap_or(spec.n);
        spec.g = json::opt_int(value, "g")?.unwrap_or(spec.g);
        spec.seed = json::opt_int(value, "seed")?.unwrap_or(spec.seed);
        spec.d = json::opt_int(value, "d")?.unwrap_or(spec.d);
        if spec.g == 0 {
            return Err(JsonError("field `g` must be at least 1".into()));
        }
        Ok(spec)
    }

    /// Runs the described generator.
    pub fn generate(&self) -> Instance {
        let GeneratorSpec {
            family,
            n,
            g,
            seed,
            d,
        } = *self;
        match family {
            Family::Uniform => crate::random::uniform(
                n,
                (n as i64).max(8),
                crate::random::LengthDist::Uniform(2, 40),
                g,
                seed,
            ),
            Family::Proper => crate::proper::random_proper(n, 3, 12, 6, g, seed),
            Family::Clique => crate::clique::random_clique(n, 100, 60, g, seed),
            Family::Bounded => crate::bounded::random_bounded(n, (2 * n) as i64, d, g, seed),
            Family::Laminar => crate::laminar::random_laminar((8 * n) as i64, 4, 3, g, seed),
            Family::Fig4 => crate::adversarial::fig4(g.max(2), 1000, 10).instance,
            Family::Shifts => crate::workload::shifts(6, n.div_ceil(6), 100, 20, g, seed),
        }
    }

    /// A provenance one-liner (`family=uniform n=40 g=3 seed=0`), the
    /// comment the CLI records in generated instance files.
    pub fn describe(&self) -> String {
        format!(
            "family={} n={} g={} seed={}",
            self.family, self.n, self.g, self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn every_family_generates_nonempty() {
        for &family in Family::all() {
            let inst = GeneratorSpec::new(family).generate();
            assert!(!inst.is_empty(), "{family} generated an empty instance");
            assert!(inst.g() >= 1);
        }
    }

    #[test]
    fn equal_specs_generate_equal_instances() {
        let a = GeneratorSpec {
            family: Family::Uniform,
            n: 60,
            g: 4,
            seed: 9,
            d: 4,
        };
        assert_eq!(a.generate(), a.generate());
    }

    #[test]
    fn parses_with_defaults_and_ignores_unknown_fields() {
        let v = parse(r#"{"family": "proper", "seed": 5, "future_knob": true}"#).unwrap();
        let spec = GeneratorSpec::from_value(&v).unwrap();
        assert_eq!(spec.family, Family::Proper);
        assert_eq!(spec.seed, 5);
        assert_eq!(spec.n, 40);
        assert_eq!(spec.g, 3);
    }

    #[test]
    fn rejects_bad_specs() {
        for bad in [
            r#"{"n": 10}"#,
            r#"{"family": "martian"}"#,
            r#"{"family": "uniform", "g": 0}"#,
            r#"{"family": "uniform", "n": -3}"#,
        ] {
            let v = parse(bad).unwrap();
            assert!(GeneratorSpec::from_value(&v).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn family_names_round_trip() {
        for &family in Family::all() {
            assert_eq!(family.name().parse::<Family>().unwrap(), family);
        }
        assert!("nope".parse::<Family>().is_err());
    }
}
