//! Golden regression tests: fixed seeds must keep producing the exact same
//! costs forever. Any intentional algorithm change must update these
//! numbers consciously (they are cheap to recompute but deliberate to
//! change).
//!
//! The recorded values are tied to the generator stream of the vendored
//! `rand` stand-in (SplitMix64, see `vendor/README.md`), which guarantees a
//! stable stream across platforms and releases — the original values from
//! the crates.io `StdRng` stream were re-recorded when the workspace
//! switched to the vendored RNG.

use busytime::core::algo::{
    BestFit, CliqueScheduler, FirstFit, MinMachines, NextFitArrival, NextFitProper, Scheduler,
};
use busytime::exact::{ExactBB, ExactDp};
use busytime::instances::clique::random_clique;
use busytime::instances::random::{uniform, LengthDist};

mod common;
use common::strip_host_dependent;

fn golden_instance() -> busytime::Instance {
    uniform(64, 120, LengthDist::Uniform(3, 40), 3, 0xBEEF)
}

#[test]
fn golden_costs_general() {
    let inst = golden_instance();
    let cases: Vec<(Box<dyn Scheduler>, &str)> = vec![
        (Box::new(FirstFit::paper()), "FirstFit"),
        (Box::new(NextFitProper::new()), "NextFitProper"),
        (Box::new(NextFitArrival), "NextFitArrival"),
        (Box::new(BestFit), "BestFit"),
        (Box::new(MinMachines), "MinMachines"),
    ];
    let costs: Vec<i64> = cases
        .iter()
        .map(|(s, _)| {
            let sched = s.schedule(&inst).unwrap();
            sched.validate(&inst).unwrap();
            sched.cost(&inst)
        })
        .collect();
    // recorded once from a verified run; see module docs before editing
    let expected: Vec<i64> = vec![559, 642, 823, 551, 599];
    assert_eq!(
        costs,
        expected,
        "golden costs drifted for {:?}",
        cases.iter().map(|(_, n)| *n).collect::<Vec<_>>()
    );
}

#[test]
fn golden_exact_small() {
    let inst = uniform(12, 30, LengthDist::Uniform(2, 12), 2, 0xF00D);
    let bb = ExactBB::new().opt_value(&inst).unwrap();
    let dp = ExactDp::new().opt_value(&inst).unwrap();
    assert_eq!(bb, dp);
    assert_eq!(bb, 45, "exact optimum drifted");
}

#[test]
fn golden_clique() {
    let inst = random_clique(24, 100, 50, 3, 0xCAFE);
    let sched = CliqueScheduler::new().schedule(&inst).unwrap();
    sched.validate(&inst).unwrap();
    assert_eq!(sched.cost(&inst), 485, "clique algorithm cost drifted");
}

/// FNV-1a over the bytes: a stable, dependency-free digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Inline SplitMix64, so the corpus below does not depend on any
/// generator module.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The report corpus: every generator family at two sizes, a 12-cluster
/// many-component instance, and hand-made edge shapes.
fn report_corpus() -> Vec<(String, busytime::Instance)> {
    use busytime::instances::spec::{Family, GeneratorSpec};
    use busytime::Instance;
    let mut corpus = Vec::new();
    for &family in Family::all() {
        // `fig4` sizes itself from `g`, so the larger size also raises `g`
        for (n, g) in [(24, 3), (300, 4)] {
            let mut spec = GeneratorSpec::new(family);
            spec.n = n;
            spec.g = g;
            spec.seed = 0x5EED + n as u64;
            corpus.push((format!("{family}-{n}"), spec.generate()));
        }
    }
    let mut state = 0xC1u64;
    let mut clusters = Vec::new();
    for cluster in 0..12i64 {
        for _ in 0..(20 + splitmix(&mut state) % 20) {
            let s = cluster * 10_000 + (splitmix(&mut state) % 400) as i64;
            clusters.push((s, s + 50 + (splitmix(&mut state) % 300) as i64));
        }
    }
    corpus.push(("clusters-12".into(), Instance::from_pairs(clusters, 2)));
    let edges = [
        ("points", vec![(0, 0), (0, 0), (3, 3), (0, 5), (5, 5)], 2),
        ("duplicates", vec![(2, 9); 7], 3),
        (
            "touching",
            vec![(0, 4), (4, 8), (8, 12), (20, 24), (24, 30)],
            1,
        ),
        (
            "negative",
            vec![(-40, -10), (-25, 0), (-5, 5), (-100, -90)],
            2,
        ),
        ("empty", vec![], 3),
    ];
    for (name, pairs, g) in edges {
        corpus.push((name.to_string(), Instance::from_pairs(pairs, g)));
    }
    corpus
}

/// Pins the full report bytes (timing aside) of every entry path the
/// pipeline has: lower bound, `auto_choice`, features, phase details and
/// assignments, per solver, with decomposition, the fork and an expired
/// deadline each toggled. A refused solve pins its error message.
#[test]
fn golden_report_digests() {
    use busytime::core::solve::{ParallelPolicy, SolveRequest, SolverRegistry};
    use std::time::Duration;
    let registry = SolverRegistry::with_defaults();
    let solvers = [
        "auto",
        "first-fit",
        "next-fit-proper",
        "bounded-length",
        "clique",
    ];
    let mut got = Vec::new();
    for (name, inst) in report_corpus() {
        let mut text = String::new();
        for solver in solvers {
            for decompose in [true, false] {
                for parallel in [ParallelPolicy::On, ParallelPolicy::Off] {
                    for deadline in [None, Some(Duration::ZERO)] {
                        let mut request = SolveRequest::new(&inst)
                            .solver(solver)
                            .decompose(decompose)
                            .parallel(parallel);
                        if let Some(d) = deadline {
                            request = request.deadline(d);
                        }
                        match request.solve_with(&registry) {
                            Ok(report) => {
                                text.push_str(&strip_host_dependent(&report.to_json_line()))
                            }
                            Err(e) => text.push_str(&format!("error: {e}")),
                        }
                        text.push('\n');
                    }
                }
            }
        }
        got.push((name, fnv1a(text.as_bytes())));
    }
    // recorded once from a verified run; see module docs before editing
    let expected: &[(&str, u64)] = &[
        ("bounded-24", 0x53317f736732a459),
        ("bounded-300", 0x7a94801294e70049),
        ("clique-24", 0x8fdcda93c90c9295),
        ("clique-300", 0xc5bd856932239e81),
        ("fig4-24", 0xfccbe86ac529863d),
        ("fig4-300", 0x79fa63ca03f4b4e5),
        ("laminar-24", 0xf8f68a3e908e139d),
        ("laminar-300", 0x8e03d330d5a489e1),
        ("proper-24", 0x7fb439e422e24665),
        ("proper-300", 0x16ee9d48d64626d5),
        ("shifts-24", 0x57d232fce056ebad),
        ("shifts-300", 0x6d89a0234c603427),
        ("uniform-24", 0x3c1a201647dd0e95),
        ("uniform-300", 0xd0ae442874dc7ced),
        ("clusters-12", 0x643b8df78aea5001),
        ("points", 0xa2f5a5864fa7be85),
        ("duplicates", 0xf70012819c020fd9),
        ("touching", 0xad0f0502143f9b0d),
        ("negative", 0x557aa329f755cf25),
        ("empty", 0x6c5cf02c45bd98d1),
    ];
    let table: String = got
        .iter()
        .map(|(name, digest)| format!("        (\"{name}\", {digest:#018x}),\n"))
        .collect();
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(got, expected, "report digests drifted; now:\n{table}");
}
