//! E8/E13: lower-bound sanity and the machine-count objective.

use busytime_core::algo::{FirstFit, MinMachines, Scheduler};
use busytime_core::{bounds, Instance};
use busytime_exact::ExactBB;
use busytime_instances::bounded::random_bounded;
use busytime_instances::clique::random_clique;
use busytime_instances::laminar::random_laminar;
use busytime_instances::proper::random_proper;
use busytime_instances::random::{uniform, LengthDist};
use busytime_instances::workload::{on_demand, shifts};

use crate::table::fmt_ratio;
use busytime_core::pool::Executor;

use crate::{RatioStats, Scale, Table};

fn generator_zoo(seed: u64, scale: Scale) -> Vec<(&'static str, Instance)> {
    let n = scale.pick(60usize, 400);
    vec![
        (
            "uniform",
            uniform(n, n as i64, LengthDist::Uniform(2, 40), 3, seed),
        ),
        ("proper", random_proper(n, 3, 12, 6, 3, seed)),
        ("clique", random_clique(n.min(80), 500, 200, 4, seed)),
        ("bounded d=4", random_bounded(n, n as i64, 4, 2, seed)),
        ("laminar", random_laminar(2_000, 4, 3, 2, seed)),
        ("on-demand", on_demand(n, 3.0, 25.0, 4, seed)),
        ("shifts", shifts(6, n / 6, 80, 15, 4, seed)),
    ]
}

/// E8 — Observation 1.1: on every generator family, the lower bound never
/// exceeds the cost of any schedule, and for small instances never exceeds
/// the exact OPT. Reports the bound's tightness (OPT/LB or cost/LB).
pub fn e8_lower_bounds(scale: Scale) -> Table {
    let seeds: u64 = scale.pick(4, 20);
    let mut table = Table::new(
        "E8 (Obs 1.1): lower-bound sanity and tightness per workload family",
        &[
            "family",
            "seeds",
            "LB ≤ cost always",
            "cost/LB mean",
            "cost/LB max",
            "LB ≤ OPT (n≤12)",
        ],
    );
    let family_count = generator_zoo(0, scale).len();
    for idx in 0..family_count {
        let cells: Vec<(bool, f64, bool)> =
            Executor::global().par_map(&(0..seeds).collect::<Vec<u64>>(), |&seed| {
                let (_, inst) = generator_zoo(seed, scale).swap_remove(idx);
                let lb = bounds::component_lower_bound(&inst);
                let cost = FirstFit::paper().schedule(&inst).unwrap().cost(&inst);
                let sound = lb <= cost;
                // exact check on a truncated prefix instance
                let small = inst.restrict(&(0..inst.len().min(12)).collect::<Vec<_>>());
                let small_lb = bounds::component_lower_bound(&small);
                let opt_ok = match ExactBB::new().opt_value(&small) {
                    Ok(opt) => small_lb <= opt,
                    Err(_) => true,
                };
                (sound, cost as f64 / lb.max(1) as f64, opt_ok)
            });
        let name = generator_zoo(0, scale)[idx].0;
        let mut stats = RatioStats::new();
        let mut sound_all = true;
        let mut opt_all = true;
        for (sound, ratio, opt_ok) in cells {
            sound_all &= sound;
            opt_all &= opt_ok;
            stats.push(ratio);
        }
        assert!(sound_all, "lower bound exceeded a real cost for {name}");
        assert!(opt_all, "lower bound exceeded OPT for {name}");
        table.push_row(vec![
            name.into(),
            seeds.to_string(),
            sound_all.to_string(),
            fmt_ratio(stats.mean()),
            fmt_ratio(stats.max),
            opt_all.to_string(),
        ]);
    }
    table
}

/// E13 — Section 1.1's contrast objective: minimizing the *number of
/// machines* is polynomial (color optimally, pack `g` classes per machine:
/// `⌈ω/g⌉` machines). Verifies the count is the optimum and reports the
/// busy-time premium that machine-minimization pays vs FirstFit.
pub fn e13_machine_count(scale: Scale) -> Table {
    let seeds: u64 = scale.pick(5, 25);
    let n = scale.pick(120usize, 600);
    let mut table = Table::new(
        "E13 (§1.1): machine-count objective (MinMachines) vs busy time",
        &[
            "g",
            "machines = ⌈ω/g⌉",
            "MinMachines busy/LB",
            "FirstFit busy/LB",
            "FF machines (mean)",
        ],
    );
    for &g in &[2u32, 4, 8] {
        let cells: Vec<(bool, f64, f64, usize)> =
            Executor::global().par_map(&(0..seeds).collect::<Vec<u64>>(), |&seed| {
                let inst = uniform(n, n as i64 / 2, LengthDist::Uniform(4, 60), g, seed);
                let lb = bounds::component_lower_bound(&inst).max(1);
                let mm = MinMachines.schedule(&inst).unwrap();
                let ff = FirstFit::paper().schedule(&inst).unwrap();
                let count_optimal = mm.machine_count() == inst.max_overlap().div_ceil(g as usize);
                (
                    count_optimal,
                    mm.cost(&inst) as f64 / lb as f64,
                    ff.cost(&inst) as f64 / lb as f64,
                    ff.machine_count(),
                )
            });
        let mut mm_stats = RatioStats::new();
        let mut ff_stats = RatioStats::new();
        let mut counts_ok = true;
        let mut ff_machines = 0usize;
        for (ok, mm_ratio, ff_ratio, ffm) in &cells {
            counts_ok &= ok;
            mm_stats.push(*mm_ratio);
            ff_stats.push(*ff_ratio);
            ff_machines += ffm;
        }
        assert!(counts_ok, "MinMachines missed the machine-count optimum");
        table.push_row(vec![
            g.to_string(),
            counts_ok.to_string(),
            fmt_ratio(mm_stats.mean()),
            fmt_ratio(ff_stats.mean()),
            format!("{:.1}", ff_machines as f64 / cells.len() as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_quick() {
        let t = e8_lower_bounds(Scale::Quick);
        assert_eq!(t.len(), 7);
        for row in &t.rows {
            assert_eq!(row[2], "true");
            assert_eq!(row[5], "true");
            let mean: f64 = row[3].parse().unwrap();
            assert!(mean >= 1.0);
        }
    }

    #[test]
    fn e13_quick() {
        let t = e13_machine_count(Scale::Quick);
        for row in &t.rows {
            assert_eq!(row[1], "true");
            // busy-time-aware FirstFit never pays more than MinMachines here
            let mm: f64 = row[2].parse().unwrap();
            let ff: f64 = row[3].parse().unwrap();
            assert!(ff <= mm + 0.75, "FF should be competitive: {row:?}");
        }
    }
}
