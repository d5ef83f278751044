//! Property tests for the unified solve pipeline: portfolio dominance,
//! registry round-trips, and report invariants.

use busytime_core::algo::{BoundedLength, CliqueScheduler, FirstFit, NextFitProper, Scheduler};
use busytime_core::solve::{
    Auto, AutoChoice, InstanceFeatures, ParallelPolicy, SolveOptions, SolveRequest, SolverRegistry,
    ValidationLevel,
};
use busytime_core::{bounds, Instance, Schedule};
use proptest::prelude::*;

fn arb_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((0i64..120, 0i64..40), 1..max_n),
        1u32..5,
    )
        .prop_map(|(pairs, g)| Instance::from_pairs(pairs.into_iter().map(|(s, l)| (s, s + l)), g))
}

fn arb_clique_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    // every job contains the point 100
    (
        proptest::collection::vec((0i64..=100, 100i64..140), 1..max_n),
        1u32..5,
    )
        .prop_map(|(pairs, g)| Instance::from_pairs(pairs, g))
}

/// Up to six far-apart clusters (each may split further), jobs shuffled
/// across clusters so every component's ids interleave with the others'.
fn arb_many_components() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((0i64..6, 0i64..40, 0i64..25, 0u32..1000), 1..60),
        1u32..4,
    )
        .prop_map(|(mut jobs, g)| {
            jobs.sort_by_key(|&(_, _, _, key)| key);
            let pairs = jobs.into_iter().map(|(cluster, s, len, _)| {
                let s = cluster * 1000 + s;
                (s, s + len)
            });
            Instance::from_pairs(pairs, g)
        })
}

/// `auto` with decomposition, the route it took before solves shared one
/// instance view: `Instance::components()` clones each component, and
/// each component is detected, bounded and raced on its own.
fn reference_auto(inst: &Instance) -> (Schedule, i64) {
    let mut raw = vec![0usize; inst.len()];
    let (mut offset, mut bound) = (0usize, 0i64);
    for (sub, ids) in inst.components() {
        let features = InstanceFeatures::detect(&sub);
        let lower_bound = bounds::best_lower_bound(&sub);
        bound += lower_bound;
        let specialist: Option<Box<dyn Scheduler>> = match Auto::new().decide(&features) {
            AutoChoice::Clique => Some(Box::new(CliqueScheduler::new())),
            AutoChoice::Proper => Some(Box::new(NextFitProper::new())),
            AutoChoice::BoundedLength => Some(Box::new(BoundedLength::first_fit())),
            AutoChoice::General => None,
        };
        let fallback = || FirstFit::paper().schedule(&sub).unwrap();
        let sched = match specialist.map(|s| s.schedule(&sub)) {
            Some(Ok(spec)) if spec.cost(&sub) <= lower_bound => spec,
            Some(Ok(spec)) => {
                let ff = fallback();
                if spec.cost(&sub) <= ff.cost(&sub) {
                    spec
                } else {
                    ff
                }
            }
            _ => fallback(),
        };
        for (local, &orig) in ids.iter().enumerate() {
            raw[orig] = offset + sched.machine_of(local);
        }
        offset += sched.machine_count();
    }
    (Schedule::from_assignment(raw), bound)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The instance view changes no answer: on many-component instances,
    /// `auto`'s assignment, bound, features and cost equal the reference
    /// route's, sequential or forked.
    #[test]
    fn view_matches_component_route(inst in arb_many_components()) {
        let (expected, bound) = reference_auto(&inst);
        for parallel in [ParallelPolicy::Off, ParallelPolicy::On] {
            let report = SolveRequest::new(&inst).solver("auto").parallel(parallel).solve().unwrap();
            prop_assert_eq!(&report.schedule, &expected);
            prop_assert_eq!(report.cost, expected.cost(&inst));
            prop_assert_eq!(report.lower_bound, bound);
            prop_assert_eq!(&report.features, &InstanceFeatures::detect(&inst));
        }
    }

    /// (a) The `Auto` portfolio never returns a schedule costlier than
    /// `FirstFit::paper()` — FirstFit is its built-in safety net.
    #[test]
    fn auto_never_costlier_than_first_fit(inst in arb_instance(40)) {
        let auto = busytime_core::Auto::new().schedule(&inst).unwrap();
        let ff = FirstFit::paper().schedule(&inst).unwrap();
        auto.validate(&inst).unwrap();
        prop_assert!(auto.cost(&inst) <= ff.cost(&inst),
            "auto {} > first-fit {}", auto.cost(&inst), ff.cost(&inst));
    }

    /// (a') The same dominance holds end-to-end through the pipeline with
    /// its default preprocessing (both requests share the decomposition
    /// setting, so the comparison is like-for-like).
    #[test]
    fn auto_request_never_costlier_than_first_fit_request(inst in arb_instance(30)) {
        let auto = SolveRequest::new(&inst).solver("auto").solve().unwrap();
        let ff = SolveRequest::new(&inst).solver("first-fit").solve().unwrap();
        prop_assert!(auto.cost <= ff.cost);
    }

    /// (b) Registry round-trip: every listed name resolves, builds,
    /// schedules and validates. Small clique instances are accepted by
    /// every registered solver (no class restriction excludes them, and
    /// `guess-match`'s n ≤ 6 size guard is respected).
    #[test]
    fn registry_round_trips_every_name(inst in arb_clique_instance(7)) {
        let registry = SolverRegistry::with_defaults();
        let options = SolveOptions::default();
        for name in registry.names() {
            let entry = registry.get(name);
            prop_assert!(entry.is_some(), "listed name `{name}` did not resolve");
            let solver = entry.unwrap().build(&options);
            match solver.schedule(&inst) {
                Ok(sched) => prop_assert_eq!(sched.validate(&inst), Ok(()),
                    "`{}` produced an invalid schedule", name),
                Err(e) => prop_assert!(false, "`{}` refused a clique instance: {e}", name),
            }
        }
    }

    /// (c) `SolveReport.gap ≥ 1` whenever the lower bound is positive, for
    /// every registered solver that accepts the instance.
    #[test]
    fn gap_at_least_one_when_bound_positive(inst in arb_instance(25)) {
        let registry = SolverRegistry::with_defaults();
        for name in registry.names() {
            let report = match SolveRequest::new(&inst).solver(name).solve_with(&registry) {
                Ok(r) => r,
                Err(_) => continue, // class-restricted solver refused; fine
            };
            if report.lower_bound > 0 {
                prop_assert!(report.gap >= 1.0,
                    "`{}` reported gap {} < 1 with LB {}", name, report.gap, report.lower_bound);
            }
            prop_assert!(report.cost >= report.lower_bound);
        }
    }

    /// The report's lower bound matches the bounds module (single source of
    /// truth, no drift between the pipeline and `bounds`), and its cost —
    /// carried from the `auto` race when it computed one — is the
    /// schedule's.
    #[test]
    fn report_bound_matches_bounds_module(inst in arb_instance(30)) {
        for solver in ["first-fit", "auto"] {
            for decompose in [true, false] {
                let report = SolveRequest::new(&inst)
                    .solver(solver)
                    .decompose(decompose)
                    .solve()
                    .unwrap();
                prop_assert_eq!(report.lower_bound, bounds::best_lower_bound(&inst));
                prop_assert_eq!(report.cost, report.schedule.cost(&inst));
            }
        }
    }

    /// Strict validation accepts every honest solver on every instance.
    #[test]
    fn strict_validation_always_passes(inst in arb_instance(25)) {
        let report = SolveRequest::new(&inst)
            .solver("auto")
            .validation(ValidationLevel::Strict)
            .solve()
            .unwrap();
        prop_assert!(report.cost >= report.lower_bound);
    }

    /// (d) The deadline contract, for *every* registered solver: an
    /// already-expired deadline (`deadline_ms: 0` on the wire) returns
    /// within one pool tick — operationally, well under a second even on a
    /// loaded CI box — and whatever comes back is either a feasible,
    /// `check_schedule`-passing incumbent flagged `deadline_hit`, or an
    /// honest refusal (`Infeasible` from a solver with no incumbent, or a
    /// class/size refusal predating any search).
    #[test]
    fn zero_deadline_returns_fast_with_checkable_incumbent(inst in arb_instance(30)) {
        let registry = SolverRegistry::with_defaults();
        for name in registry.names() {
            let started = std::time::Instant::now();
            let result = SolveRequest::new(&inst)
                .solver(name)
                .deadline(std::time::Duration::ZERO)
                .solve_with(&registry);
            let elapsed = started.elapsed();
            prop_assert!(elapsed < std::time::Duration::from_secs(1),
                "`{}` held an expired token for {elapsed:?}", name);
            // an Err is an honest refusal; holding the worker is not
            if let Ok(report) = result {
                prop_assert!(report.deadline_hit,
                    "`{}` finished under an expired deadline unflagged", name);
                prop_assert!(report.cut_phase.is_some());
                prop_assert_eq!(
                    busytime_core::verify::check_schedule(&inst, &report.schedule),
                    Ok(()),
                    "`{}` returned an infeasible incumbent", name);
            }
        }
    }

    /// (e) A generous deadline changes nothing: same cost as the undeadlined
    /// request, no flag.
    #[test]
    fn generous_deadline_is_a_no_op(inst in arb_instance(30)) {
        let plain = SolveRequest::new(&inst).solver("first-fit").solve().unwrap();
        let budgeted = SolveRequest::new(&inst)
            .solver("first-fit")
            .deadline(std::time::Duration::from_secs(3600))
            .solve()
            .unwrap();
        prop_assert!(!budgeted.deadline_hit);
        prop_assert_eq!(budgeted.cost, plain.cost);
    }
}
