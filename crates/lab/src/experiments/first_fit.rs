//! E1/E2/E3/E11: the FirstFit experiments (Section 2).

use busytime_core::algo::{FirstFit, Scheduler, SortOrder, TieBreak};
use busytime_core::solve::SolveReport;
use busytime_core::{bounds, Instance};
use busytime_instances::adversarial::fig4;
use busytime_instances::random::{uniform, LengthDist};

use crate::solve::solve_cell;
use crate::table::fmt_ratio;
use busytime_core::pool::Executor;

use crate::{RatioStats, Scale, Table};

/// E1 — Theorem 2.1: FirstFit/OPT on random instances (exact OPT for small
/// `n`; the component lower bound as the OPT proxy for large `n`). The
/// theorem asserts the ratio never exceeds 4.
pub fn e1_first_fit_vs_opt(scale: Scale) -> Table {
    let seeds: u64 = scale.pick(6, 40);
    let mut table = Table::new(
        "E1 (Thm 2.1): FirstFit vs OPT on uniform random instances",
        &[
            "n",
            "g",
            "baseline",
            "seeds",
            "ratio min",
            "ratio mean",
            "ratio max",
            "cap",
        ],
    );
    // small instances: exact OPT by branch-and-bound; both costs come out
    // of the unified pipeline as SolveReports
    for &(n, g) in &[(8usize, 2u32), (10, 2), (12, 3), (14, 3), (16, 5)] {
        let cells: Vec<(i64, i64)> =
            Executor::global().par_map(&(0..seeds).collect::<Vec<u64>>(), |&seed| {
                let inst = uniform(
                    n,
                    3 * n as i64,
                    LengthDist::Uniform(2, 2 * n as i64),
                    g,
                    seed,
                );
                let ff = solve_cell(&inst, "first-fit").cost;
                let opt = solve_cell(&inst, "exact-bb").cost;
                (ff, opt)
            });
        let mut stats = RatioStats::new();
        for (ff, opt) in cells {
            assert!(ff <= 4 * opt, "Theorem 2.1 violated: FF={ff} OPT={opt}");
            stats.push_fraction(ff, opt);
        }
        table.push_row(vec![
            n.to_string(),
            g.to_string(),
            "exact OPT".into(),
            seeds.to_string(),
            fmt_ratio(stats.min),
            fmt_ratio(stats.mean()),
            fmt_ratio(stats.max),
            "4.000".into(),
        ]);
    }
    // large instances: lower bound as OPT proxy (ratio is an upper bound on
    // the true ratio); one SolveReport carries both cost and certified LB
    let big_n = scale.pick(2_000usize, 20_000);
    for &g in &[2u32, 4, 16] {
        let cells: Vec<(i64, i64)> =
            Executor::global().par_map(&(0..seeds.min(10)).collect::<Vec<u64>>(), |&seed| {
                let inst = uniform(
                    big_n,
                    big_n as i64 / 4,
                    LengthDist::Uniform(4, 200),
                    g,
                    seed,
                );
                let report = solve_cell(&inst, "first-fit");
                (report.cost, report.lower_bound)
            });
        let mut stats = RatioStats::new();
        for (ff, lb) in cells {
            assert!(ff <= 4 * lb, "FF exceeded 4×LB: FF={ff} LB={lb}");
            stats.push_fraction(ff, lb);
        }
        table.push_row(vec![
            big_n.to_string(),
            g.to_string(),
            "LB (Obs 1.1)".into(),
            seeds.min(10).to_string(),
            fmt_ratio(stats.min),
            fmt_ratio(stats.mean()),
            fmt_ratio(stats.max),
            "4.000".into(),
        ]);
    }
    table
}

/// E2 — Theorem 2.4 / Figure 4: the adversarial family. Measured FirstFit
/// cost must equal the construction's prediction `g(3·unit − 2·eps)` and the
/// ratio `g(3−2ε′)/(g+1)` must march towards 3.
pub fn e2_fig4_sweep(scale: Scale) -> Table {
    let gs: Vec<u32> = scale.pick(
        vec![2, 3, 4, 6, 8],
        vec![2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64],
    );
    let unit = 1_000i64;
    let eps = 10i64; // ε′ = 0.01 units
    let mut table = Table::new(
        "E2 (Thm 2.4, Fig. 4): FirstFit on the adversarial family (unit=1000, eps=10)",
        &[
            "g",
            "jobs",
            "FF measured",
            "FF predicted",
            "OPT (analytic)",
            "ratio",
            "limit 3-2eps'",
        ],
    );
    let rows: Vec<(u32, usize, i64, i64, i64)> = Executor::global().par_map(&gs, |&g| {
        let fam = fig4(g, unit, eps);
        let sched = FirstFit::paper().schedule(&fam.instance).unwrap();
        sched.validate(&fam.instance).unwrap();
        (
            g,
            fam.instance.len(),
            sched.cost(&fam.instance),
            fam.first_fit,
            fam.opt,
        )
    });
    for (g, jobs, measured, predicted, opt) in rows {
        assert_eq!(
            measured, predicted,
            "FirstFit escaped the Fig. 4 trap at g={g}"
        );
        table.push_row(vec![
            g.to_string(),
            jobs.to_string(),
            measured.to_string(),
            predicted.to_string(),
            opt.to_string(),
            fmt_ratio(measured as f64 / opt as f64),
            fmt_ratio(3.0 - 2.0 * (eps as f64 / unit as f64)),
        ]);
    }
    table
}

/// E3 — Theorem 2.5: the FirstFit ratio band `[3, 4]`. Reports the largest
/// ratio any experiment observed (the Fig. 4 family) against both ends.
pub fn e3_ratio_band(scale: Scale) -> Table {
    let g_max = scale.pick(16u32, 96);
    let unit = 1_000i64;
    let mut table = Table::new(
        "E3 (Thm 2.5): the FirstFit approximation band",
        &[
            "family",
            "largest measured ratio",
            "lower end (Thm 2.4)",
            "upper end (Thm 2.1)",
        ],
    );
    // adversarial family with shrinking eps pushes the measured ratio up
    let mut worst: f64 = 0.0;
    for &eps in &[50i64, 20, 10, 4, 2] {
        let fam = fig4(g_max, unit, eps);
        let cost = FirstFit::paper()
            .schedule(&fam.instance)
            .unwrap()
            .cost(&fam.instance);
        worst = worst.max(cost as f64 / fam.opt as f64);
    }
    table.push_row(vec![
        format!("fig4(g={g_max}, eps→2)"),
        fmt_ratio(worst),
        "3.000 (asymptotic)".into(),
        "4.000".into(),
    ]);
    assert!(worst < 4.0, "ratio above the proven cap");
    assert!(worst > 2.5, "adversarial family lost its bite");
    table
}

/// E11 — ablation: what the paper's *longest-first* sort buys. Runs
/// FirstFit with each sort order on dense random instances and on the
/// Fig. 4 family; longest-first is the only one with a guarantee, and the
/// arrival/shortest orders visibly degrade.
pub fn e11_sort_ablation(scale: Scale) -> Table {
    let seeds: u64 = scale.pick(5, 30);
    let n = scale.pick(200usize, 1_000);
    let variants: Vec<(&str, FirstFit)> = vec![
        (
            "longest (paper)",
            FirstFit {
                order: SortOrder::LongestFirst,
                tie: TieBreak::Input,
            },
        ),
        (
            "shortest",
            FirstFit {
                order: SortOrder::ShortestFirst,
                tie: TieBreak::Input,
            },
        ),
        (
            "arrival",
            FirstFit {
                order: SortOrder::Arrival,
                tie: TieBreak::Input,
            },
        ),
        ("longest+seeded ties", FirstFit::seeded(1)),
    ];
    let mut table = Table::new(
        "E11 (ablation): FirstFit sort order vs cost (ratio to Obs 1.1 LB)",
        &[
            "order",
            "dense random mean",
            "dense random max",
            "fig4(g=8) ratio",
        ],
    );
    for (label, ff) in variants {
        let cells: Vec<f64> =
            Executor::global().par_map(&(0..seeds).collect::<Vec<u64>>(), |&seed| {
                let inst = uniform(n, n as i64 / 3, LengthDist::Uniform(4, 120), 3, seed);
                let cost = ff.schedule(&inst).unwrap().cost(&inst);
                cost as f64 / bounds::component_lower_bound(&inst) as f64
            });
        let stats = RatioStats::from_iter(cells);
        let fam = fig4(8, 1_000, 10);
        let fig_cost = ff.schedule(&fam.instance).unwrap().cost(&fam.instance);
        table.push_row(vec![
            label.into(),
            fmt_ratio(stats.mean()),
            fmt_ratio(stats.max),
            fmt_ratio(fig_cost as f64 / fam.opt as f64),
        ]);
    }
    table
}

/// Helper shared with E8: one FirstFit [`SolveReport`] carrying the cost
/// and the certified lower bound together (no separate bound recomputation).
pub fn first_fit_report(inst: &Instance) -> SolveReport {
    solve_cell(inst, "first-fit")
}

/// Back-compat shim over [`first_fit_report`].
pub fn first_fit_cost_and_bound(inst: &Instance) -> (i64, i64) {
    let report = first_fit_report(inst);
    (report.cost, report.lower_bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_quick_runs_and_respects_cap() {
        let t = e1_first_fit_vs_opt(Scale::Quick);
        assert!(t.len() >= 5);
        for row in &t.rows {
            let max: f64 = row[6].parse().unwrap();
            assert!(max <= 4.0);
        }
    }

    #[test]
    fn e2_quick_matches_predictions() {
        let t = e2_fig4_sweep(Scale::Quick);
        assert_eq!(t.len(), 5);
        // ratio column is monotone increasing in g
        let ratios: Vec<f64> = t.rows.iter().map(|r| r[5].parse().unwrap()).collect();
        assert!(ratios.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn e3_band_within_proof() {
        let t = e3_ratio_band(Scale::Quick);
        let worst: f64 = t.rows[0][1].parse().unwrap();
        assert!(worst > 2.5 && worst < 4.0);
    }

    #[test]
    fn e11_paper_order_wins_on_fig4() {
        let t = e11_sort_ablation(Scale::Quick);
        // the longest-first row is first; on fig4 all orders are trapped or
        // worse, so its random-instance mean must be sane (≥ 1)
        let mean: f64 = t.rows[0][1].parse().unwrap();
        assert!(mean >= 1.0);
    }
}
