//! E9: the optical grooming application (Section 4.2).

use busytime_core::algo::{FirstFit, MinMachines, NextFitProper};
use busytime_instances::optical::{hotspot_lightpaths, random_lightpaths};
use busytime_optical::reduction::{
    instance_of_lightpaths, schedule_cost_equals_twice_regenerators,
};
use busytime_optical::solvers::{regenerator_lower_bound, GroomingSolver};
use busytime_optical::PathNetwork;

use crate::table::fmt_ratio;
use busytime_core::pool::Executor;

use crate::{RatioStats, Scale, Table};

/// E9 — Section 4.2: regenerator minimization through the reduction.
///
/// For every configuration the reduction's cost identity
/// (busy time = 2 × regenerators) is asserted, and the busy-time-aware
/// FirstFit grooming is compared against the wavelength-minimizing baseline
/// and the lower bound — the "who wins" shape the paper's motivation
/// predicts: grooming-aware assignment saves regenerators, increasingly so
/// for larger `g`.
pub fn e9_grooming(scale: Scale) -> Table {
    let seeds: u64 = scale.pick(4, 20);
    let nodes = scale.pick(120usize, 400);
    let n_paths = scale.pick(150usize, 1_200);
    let mut table = Table::new(
        "E9 (§4.2): regenerator minimization on path networks",
        &[
            "workload",
            "g",
            "FF regs/LB",
            "MinWL regs/LB",
            "FF wavelengths",
            "MinWL wavelengths",
            "identity holds",
        ],
    );
    for &(label, hotspot) in &[("uniform", false), ("hotspot", true)] {
        for &g in &[1u32, 2, 4, 8, 16] {
            let cells: Vec<(f64, f64, usize, usize, bool)> =
                Executor::global().par_map(&(0..seeds).collect::<Vec<u64>>(), |&seed| {
                    let net = PathNetwork::new(nodes);
                    let paths = if hotspot {
                        hotspot_lightpaths(&net, n_paths, nodes / 2, 0.6, 16, seed)
                    } else {
                        random_lightpaths(&net, n_paths, 16, seed)
                    };
                    let lb = regenerator_lower_bound(&paths, g).max(1);
                    let ff = GroomingSolver::new(FirstFit::paper())
                        .solve(&paths, g)
                        .unwrap();
                    let mm = GroomingSolver::new(MinMachines).solve(&paths, g).unwrap();
                    // identity check on the FirstFit grooming
                    let (busy, regs) =
                        schedule_cost_equals_twice_regenerators(&paths, &ff.grooming, g);
                    let identity = busy == 2 * regs as i64 && regs == ff.regenerators;
                    (
                        ff.regenerators as f64 / lb as f64,
                        mm.regenerators as f64 / lb as f64,
                        ff.wavelengths,
                        mm.wavelengths,
                        identity,
                    )
                });
            let mut ff_stats = RatioStats::new();
            let mut mm_stats = RatioStats::new();
            let mut ff_wl = 0usize;
            let mut mm_wl = 0usize;
            let mut identity_all = true;
            for (ffr, mmr, fw, mw, id) in &cells {
                ff_stats.push(*ffr);
                mm_stats.push(*mmr);
                ff_wl += fw;
                mm_wl += mw;
                identity_all &= id;
            }
            assert!(identity_all, "reduction identity broke for {label}, g={g}");
            table.push_row(vec![
                label.into(),
                g.to_string(),
                fmt_ratio(ff_stats.mean()),
                fmt_ratio(mm_stats.mean()),
                format!("{:.1}", ff_wl as f64 / cells.len() as f64),
                format!("{:.1}", mm_wl as f64 / cells.len() as f64),
                identity_all.to_string(),
            ]);
        }
    }
    table
}

/// E14 (extension) — grooming on **ring** topologies via the cut solver:
/// cut at the least-loaded edge, color crossing arcs with the paper's
/// clique algorithm, the rest with FirstFit on the unrolled path. Compared
/// against one-wavelength-per-arc (no grooming) and per-g monotonicity.
pub fn e14_ring(scale: Scale) -> Table {
    use busytime_optical::ring::{ring_regenerator_count, CutSolver, RingArc, RingNetwork};
    let seeds: u64 = scale.pick(4, 20);
    let nodes = scale.pick(24usize, 64);
    let n_arcs = scale.pick(60usize, 400);
    let mut table = Table::new(
        "E14 (extension): ring grooming via cut + clique/FirstFit",
        &[
            "g",
            "cut regs (mean)",
            "no-grooming regs (mean)",
            "saving",
            "crossing arcs (mean)",
        ],
    );
    for &g in &[1u32, 2, 4, 8] {
        let cells: Vec<(usize, usize, usize)> =
            Executor::global().par_map(&(0..seeds).collect::<Vec<u64>>(), |&seed| {
                let net = RingNetwork::new(nodes);
                // deterministic arcs: mixed hop lengths, some wrapping
                let mut state = seed;
                let mut next = move || {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                };
                let arcs: Vec<RingArc> = (0..n_arcs)
                    .map(|_| {
                        let from = (next() as usize) % nodes;
                        let hops = 1 + (next() as usize) % (nodes / 3);
                        RingArc::new(from, (from + hops) % nodes)
                    })
                    .collect();
                let solved = CutSolver::new(FirstFit::paper())
                    .solve(&net, &arcs, g)
                    .expect("cut solver always succeeds");
                let trivial =
                    busytime_optical::Grooming::from_wavelengths((0..arcs.len()).collect());
                let trivial_regs = ring_regenerator_count(&net, &arcs, &trivial, g);
                (solved.regenerators, trivial_regs, solved.crossing_arcs)
            });
        let count = cells.len();
        let (mut cut, mut triv, mut cross) = (0usize, 0usize, 0usize);
        for (c, t, x) in cells {
            assert!(c <= t, "grooming must not cost more than no grooming");
            cut += c;
            triv += t;
            cross += x;
        }
        table.push_row(vec![
            g.to_string(),
            format!("{:.1}", cut as f64 / count as f64),
            format!("{:.1}", triv as f64 / count as f64),
            format!("{:.1}%", 100.0 * (1.0 - cut as f64 / triv.max(1) as f64)),
            format!("{:.1}", cross as f64 / count as f64),
        ]);
    }
    table
}

/// Companion check used by integration tests: on *proper* lightpath sets
/// (no path contained in another) the Greedy algorithm gives the 2-approx
/// of result (iii) in Section 4.2.
pub fn proper_lightpaths_two_approx(seed: u64) -> (usize, usize) {
    let net = PathNetwork::new(200);
    // staircase lightpaths are proper
    let paths: Vec<busytime_optical::Lightpath> = (0..80)
        .map(|i| {
            busytime_optical::Lightpath::new(i + (seed as usize % 7), i + 10 + (seed as usize % 7))
        })
        .filter(|p| net.contains(p))
        .collect();
    let g = 3;
    let inst = instance_of_lightpaths(&paths, g);
    assert!(inst.is_proper());
    let greedy = GroomingSolver::new(NextFitProper::strict())
        .solve(&paths, g)
        .unwrap();
    let lb = regenerator_lower_bound(&paths, g);
    (greedy.regenerators, lb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_quick_shapes() {
        let t = e9_grooming(Scale::Quick);
        assert_eq!(t.len(), 10);
        for row in &t.rows {
            assert_eq!(row[6], "true");
            let ff: f64 = row[2].parse().unwrap();
            let mm: f64 = row[3].parse().unwrap();
            // FirstFit (4-approx through the reduction) never above 4×LB;
            // and never loses badly to the wavelength minimizer
            assert!(ff <= 4.0, "{row:?}");
            assert!(ff <= mm + 0.25, "grooming-aware should win: {row:?}");
        }
    }

    #[test]
    fn proper_lightpath_greedy_within_two() {
        for seed in 0..5 {
            let (regs, lb) = proper_lightpaths_two_approx(seed);
            assert!(regs <= 2 * lb.max(1));
        }
    }
}
