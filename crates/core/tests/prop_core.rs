//! Property-based tests: every algorithm on random instances must produce
//! feasible schedules respecting the paper's bounds and structure.

use busytime_core::algo::{
    BestFit, BoundedLength, CliqueScheduler, Decomposed, FirstFit, MinMachines, NextFitArrival,
    NextFitProper, RandomFit, Scheduler,
};
use busytime_core::{bounds, verify, Instance, Schedule};
use busytime_interval::{Interval, OverlapProfile};
use proptest::prelude::*;

fn arb_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((0i64..200, 1i64..60), 1..max_n),
        1u32..6,
    )
        .prop_map(|(pairs, g)| {
            Instance::new(
                pairs
                    .into_iter()
                    .map(|(s, l)| Interval::with_len(s, l))
                    .collect(),
                g,
            )
        })
}

fn arb_clique_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    // all jobs contain the point 100
    (
        proptest::collection::vec((0i64..=100, 100i64..200), 1..max_n),
        1u32..6,
    )
        .prop_map(|(pairs, g)| {
            Instance::new(
                pairs
                    .into_iter()
                    .map(|(s, c)| Interval::new(s, c))
                    .collect(),
                g,
            )
        })
}

/// 100–300 jobs that all contain the point 1 000: at `g ≤ 4` FirstFit
/// opens at least 25 machines, and at `g = 1` every job opens one.
fn arb_big_clique_jobs() -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(
        (0i64..=1_000, 1_000i64..2_000).prop_map(|(s, c)| Interval::new(s, c)),
        100..300,
    )
}

/// 300–500 short jobs over a horizon of about 20 000: most of them are
/// disjoint, so the first machine collects well over 128 jobs and its
/// profile outgrows the 256 steps of a flat vector.
fn arb_sparse_jobs() -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(
        (0i64..20_000, 1i64..80).prop_map(|(s, l)| Interval::with_len(s, l)),
        300..500,
    )
}

/// FirstFit as Section 2.1 states it, gating every machine with a direct
/// range-max (`max_in(J) < g`) instead of [`OverlapProfile::can_add`].
fn first_fit_by_max_in(inst: &Instance) -> Schedule {
    let mut machines: Vec<OverlapProfile> = Vec::new();
    let mut raw = vec![0usize; inst.len()];
    for id in FirstFit::paper().job_order(inst) {
        let iv = inst.job(id);
        let slot = match machines.iter().position(|m| m.max_in(&iv) < inst.g()) {
            Some(slot) => slot,
            None => {
                machines.push(OverlapProfile::new());
                machines.len() - 1
            }
        };
        machines[slot].add(&iv);
        raw[id] = slot;
    }
    Schedule::from_assignment(raw)
}

fn arb_proper_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    // sorted starts paired with sorted ends yields a proper family
    (
        proptest::collection::vec((0i64..100, 1i64..30), 1..max_n),
        1u32..5,
    )
        .prop_map(|(seeds, g)| {
            // strictly increasing starts AND ends → proper family
            let mut starts: Vec<i64> = seeds.iter().map(|&(s, _)| s).collect();
            starts.sort_unstable();
            for (i, s) in starts.iter_mut().enumerate() {
                *s += i as i64; // break ties, keep order
            }
            let mut jobs: Vec<Interval> = Vec::with_capacity(seeds.len());
            let mut prev_end = i64::MIN;
            for (i, &(_, l)) in seeds.iter().enumerate() {
                let end = (starts[i] + l).max(prev_end + 1).max(starts[i]);
                jobs.push(Interval::new(starts[i], end));
                prev_end = end;
            }
            Instance::new(jobs, g)
        })
}

proptest! {
    /// All general-purpose schedulers produce feasible schedules and never
    /// beat the lower bound.
    #[test]
    fn schedulers_feasible_and_bounded(inst in arb_instance(40)) {
        let lb = bounds::lower_bound(&inst);
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(FirstFit::paper()),
            Box::new(FirstFit::seeded(7)),
            Box::new(NextFitProper::new()),
            Box::new(NextFitArrival),
            Box::new(BestFit),
            Box::new(RandomFit::new(3)),
            Box::new(MinMachines),
            Box::new(Decomposed::new(FirstFit::paper())),
        ];
        for s in schedulers {
            let sched = s.schedule(&inst).unwrap();
            prop_assert_eq!(sched.validate(&inst), Ok(()), "{} infeasible", s.name());
            prop_assert!(sched.cost(&inst) >= lb, "{} beat the lower bound", s.name());
        }
    }

    /// FirstFit respects its 4-approximation cap (vs the lower bound, which
    /// is ≤ OPT, so this is implied by — and weaker than — Theorem 2.1;
    /// violations would disprove the theorem).
    #[test]
    fn first_fit_within_4x(inst in arb_instance(50)) {
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        prop_assert!(sched.cost(&inst) <= 4 * bounds::component_lower_bound(&inst).max(1));
    }

    /// FirstFit's O(1) peak and saturated-run answers, its skipping of
    /// whole saturated machine groups and its blocked profiles change no
    /// assignment: it places every job exactly where gating each machine
    /// with `max_in` does. The inputs reach each path: small general and
    /// clique instances (flat profiles, no full group), cliques of 100–300
    /// jobs (several full groups of 32 machines, all saturated at the
    /// common point) and sparse instances of 300–500 jobs (one machine
    /// takes most of them, so its profile splits into blocks).
    #[test]
    fn first_fit_matches_max_in_gating(
        general in arb_instance(40),
        clique in arb_clique_instance(40),
        big_clique in arb_big_clique_jobs(),
        sparse in arb_sparse_jobs(),
        sparse_g in 1u32..=8,
    ) {
        for jobs in [general.jobs(), clique.jobs(), &big_clique] {
            for g in 1..=4 {
                let inst = Instance::new(jobs.to_vec(), g);
                let sched = FirstFit::paper().schedule(&inst).unwrap();
                prop_assert_eq!(sched, first_fit_by_max_in(&inst));
            }
        }
        let inst = Instance::new(sparse, sparse_g);
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        prop_assert_eq!(sched, first_fit_by_max_in(&inst));
    }

    /// Observation 2.2 and Lemma 2.3 hold on every FirstFit run.
    #[test]
    fn first_fit_structure(inst in arb_instance(35)) {
        let ff = FirstFit::paper();
        let sched = ff.schedule(&inst).unwrap();
        let order = ff.job_order(&inst);
        prop_assert_eq!(verify::observation_2_2(&inst, &sched, &order), Ok(()));
        prop_assert_eq!(verify::lemma_2_3(&inst, &sched), Ok(()));
    }

    /// Greedy on proper families: Claim 1 of Theorem 3.1 holds and the cost
    /// is within 2× of the lower bound.
    #[test]
    fn greedy_proper_structure(inst in arb_proper_instance(40)) {
        prop_assert!(inst.is_proper());
        let sched = NextFitProper::strict().schedule(&inst).unwrap();
        prop_assert_eq!(sched.validate(&inst), Ok(()));
        prop_assert_eq!(verify::theorem_3_1_claims(&inst, &sched), Ok(()));
        prop_assert!(sched.cost(&inst) <= 2 * bounds::lower_bound(&inst));
    }

    /// The clique algorithm stays within 2× of the lower bound on cliques.
    #[test]
    fn clique_within_2x(inst in arb_clique_instance(30)) {
        prop_assert!(inst.is_clique());
        let sched = CliqueScheduler::new().schedule(&inst).unwrap();
        prop_assert_eq!(sched.validate(&inst), Ok(()));
        prop_assert!(sched.cost(&inst) <= 2 * bounds::lower_bound(&inst));
    }

    /// At g = 1 every feasible schedule costs exactly len(J).
    #[test]
    fn g1_cost_is_total_len(pairs in proptest::collection::vec((0i64..100, 1i64..30), 1..30)) {
        let inst = Instance::new(
            pairs.into_iter().map(|(s, l)| Interval::with_len(s, l)).collect(),
            1,
        );
        for s in [
            FirstFit::paper().schedule(&inst).unwrap(),
            NextFitProper::new().schedule(&inst).unwrap(),
            BestFit.schedule(&inst).unwrap(),
        ] {
            prop_assert_eq!(s.cost(&inst), inst.total_len());
        }
    }

    /// MinMachines always attains the machine-count optimum ⌈ω/g⌉ and no
    /// scheduler goes below it.
    #[test]
    fn machine_count_floor(inst in arb_instance(40)) {
        let omega = inst.max_overlap();
        let floor = omega.div_ceil(inst.g() as usize);
        let mm = MinMachines.schedule(&inst).unwrap();
        prop_assert_eq!(mm.machine_count(), floor);
        for s in [
            FirstFit::paper().schedule(&inst).unwrap(),
            BestFit.schedule(&inst).unwrap(),
        ] {
            prop_assert!(s.machine_count() >= floor);
        }
    }

    /// normalize_contiguous preserves cost and produces hull == cost.
    #[test]
    fn normalization_invariants(inst in arb_instance(40)) {
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        let norm = sched.normalize_contiguous(&inst);
        prop_assert_eq!(norm.validate(&inst), Ok(()));
        prop_assert_eq!(norm.cost(&inst), sched.cost(&inst));
        prop_assert_eq!(norm.hull_cost(&inst), norm.cost(&inst));
        prop_assert!(sched.hull_cost(&inst) >= sched.cost(&inst));
    }

    /// Decomposition never changes FirstFit's per-component costs: the merged
    /// cost equals the sum over components.
    #[test]
    fn decomposition_cost_additivity(inst in arb_instance(40)) {
        let merged = Decomposed::new(FirstFit::paper()).schedule(&inst).unwrap();
        let sum: i64 = inst
            .components()
            .iter()
            .map(|(sub, _)| FirstFit::paper().schedule(sub).unwrap().cost(sub))
            .sum();
        prop_assert_eq!(merged.cost(&inst), sum);
    }

    /// BoundedLength segmentation: feasible, segment-disjoint machines, and
    /// within 2× of a per-segment-optimal schedule's reach (checked loosely
    /// via the lower bound and the FirstFit inner solver's 4×).
    #[test]
    fn bounded_length_segments(inst in arb_instance(40)) {
        let bl = BoundedLength::first_fit();
        let sched = bl.schedule(&inst).unwrap();
        prop_assert_eq!(sched.validate(&inst), Ok(()));
        let d = bl.effective_width(&inst);
        // machines never mix segments
        let segments = bl.segments(&inst);
        let mut seg_of_job = vec![0usize; inst.len()];
        for (si, ids) in segments.iter().enumerate() {
            for &id in ids {
                seg_of_job[id] = si;
            }
        }
        for a in 0..inst.len() {
            for b in (a + 1)..inst.len() {
                if sched.machine_of(a) == sched.machine_of(b) {
                    prop_assert_eq!(seg_of_job[a], seg_of_job[b]);
                }
            }
        }
        prop_assert!(d >= inst.max_len());
    }
}

proptest! {
    /// The canonical content hash (the solution cache key) is
    /// invariant under any permutation of the job list, the canonical
    /// forms compare equal, and remapping a canonical assignment back to
    /// the shuffled order round-trips through a valid schedule.
    #[test]
    fn canonical_hash_is_permutation_invariant(
        inst in arb_instance(30),
        seed in 0u64..1_000,
    ) {
        use busytime_core::memo::CanonicalInstance;

        // deterministic Fisher–Yates driven by the proptest-drawn seed
        let mut order: Vec<usize> = (0..inst.len()).collect();
        let mut state = seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let shuffled = Instance::new(
            order.iter().map(|&i| inst.job(i)).collect(),
            inst.g(),
        );
        let (canon, twin) = (CanonicalInstance::of(&inst), CanonicalInstance::of(&shuffled));
        prop_assert_eq!(canon.hash(), twin.hash());
        prop_assert_eq!(&canon, &twin);

        // a schedule computed on the original maps through canonical form
        // into a valid schedule of the shuffled copy
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        let canonical_assign = canon.assignment_to_canonical(sched.assignment());
        let shuffled_assign = twin.assignment_to_original(&canonical_assign);
        let remapped = busytime_core::Schedule::from_assignment(shuffled_assign);
        prop_assert_eq!(remapped.validate(&shuffled), Ok(()));
        prop_assert_eq!(remapped.cost(&shuffled), sched.cost(&inst));
    }

    /// The canonical hash discriminates: nudging one job's end, or bumping
    /// `g`, changes the key (so permuted repeats hit, edits do not).
    #[test]
    fn canonical_hash_discriminates_edits(inst in arb_instance(30), pick in 0usize..64) {
        use busytime_core::memo::CanonicalInstance;

        let hash = |inst: &Instance| CanonicalInstance::of(inst).hash();
        let mut jobs: Vec<Interval> = inst.jobs().to_vec();
        let k = pick % jobs.len();
        jobs[k] = Interval::new(jobs[k].start, jobs[k].end + 1);
        let nudged = Instance::new(jobs, inst.g());
        prop_assert_ne!(hash(&inst), hash(&nudged));

        let regeared = Instance::new(inst.jobs().to_vec(), inst.g() + 1);
        prop_assert_ne!(hash(&inst), hash(&regeared));
    }
}

/// Renders a report with its wall-clock-only fields (phase timings, total)
/// cleared: everything left is required to be deterministic, so parallel
/// and sequential solves must agree on it byte for byte.
fn timeless_json(mut report: busytime_core::SolveReport) -> String {
    report.phases.clear();
    report.total = std::time::Duration::ZERO;
    report.to_json_line()
}

proptest! {
    /// The fork–join contract, end to end: one instance solved with the
    /// kernels forced sequential and solved inside fork–join contexts of
    /// widths 1, 2 and 4 renders byte-identical `SolveReport` JSON (modulo
    /// the cleared wall-clock fields) — parallelism trades time only,
    /// never the answer.
    #[test]
    fn parallel_and_sequential_reports_are_byte_identical(
        inst in arb_instance(40),
        seed in 0u64..100,
    ) {
        use busytime_core::pool::{intra, Executor};
        use busytime_core::solve::ParallelPolicy;
        use busytime_core::SolveRequest;

        // `Off` keeps the pipeline from entering its own context; the
        // test pins the width by entering one around the solve
        let sequential = timeless_json(
            SolveRequest::new(&inst)
                .seed(seed)
                .parallel(ParallelPolicy::Off)
                .solve()
                .unwrap(),
        );
        for width in [1usize, 2, 4] {
            let exec = Executor::new(width);
            let _ctx = intra::enter(&exec, width);
            let forked = timeless_json(
                SolveRequest::new(&inst)
                    .seed(seed)
                    .parallel(ParallelPolicy::Off)
                    .solve()
                    .unwrap(),
            );
            prop_assert_eq!(&forked, &sequential, "width {} diverged", width);
        }
    }

    /// An already-expired deadline cuts the solve at its first cooperative
    /// checkpoint — under fork–join exactly as it does sequentially: the
    /// incumbent is feasible, flagged `deadline_hit`, and byte-identical
    /// to the sequential cut (chunk cancellation never corrupts or
    /// reorders the merged result).
    #[test]
    fn zero_deadline_cut_is_stable_under_fork_join(inst in arb_instance(40)) {
        use busytime_core::pool::{intra, Executor};
        use busytime_core::solve::ParallelPolicy;
        use busytime_core::SolveRequest;

        let cut = || {
            SolveRequest::new(&inst)
                .deadline(std::time::Duration::ZERO)
                .parallel(ParallelPolicy::Off)
                .solve()
                .unwrap()
        };
        let sequential = cut();
        prop_assert!(sequential.deadline_hit);
        prop_assert_eq!(sequential.schedule.validate(&inst), Ok(()));
        let sequential = timeless_json(sequential);
        for width in [2usize, 4] {
            let exec = Executor::new(width);
            let _ctx = intra::enter(&exec, width);
            let forked = cut();
            prop_assert!(forked.deadline_hit);
            prop_assert_eq!(forked.schedule.validate(&inst), Ok(()));
            prop_assert_eq!(timeless_json(forked), sequential.clone(), "width {}", width);
        }
    }
}
