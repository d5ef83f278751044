//! E4/E5/E6/E7: the special-case algorithms (Section 3 and the Appendix).

use busytime_core::algo::{
    BoundedLength, CliqueScheduler, FirstFit, GuessMatch, NextFitProper, Scheduler,
};
use busytime_core::verify;
use busytime_exact::ExactBB;
use busytime_instances::adversarial::{clique_tight, ranked_shift};
use busytime_instances::bounded::random_bounded;
use busytime_instances::clique::random_clique;
use busytime_instances::proper::random_proper;

use crate::table::fmt_ratio;
use busytime_core::pool::Executor;

use crate::{RatioStats, Scale, Table};

/// E4 — Theorem 3.1: the Greedy (NextFit) algorithm on proper families.
/// Ratio vs exact OPT must stay ≤ 2; the proof's Claim 1 is checked on every
/// run, and the tighter inner inequality `ALG ≤ OPT + span` as well.
pub fn e4_greedy_proper(scale: Scale) -> Table {
    let seeds: u64 = scale.pick(8, 50);
    let mut table = Table::new(
        "E4 (Thm 3.1): Greedy on proper families vs exact OPT",
        &[
            "n",
            "g",
            "seeds",
            "ratio mean",
            "ratio max",
            "ALG ≤ OPT+span",
            "Claim 1",
            "cap",
        ],
    );
    for &(n, g) in &[(8usize, 2u32), (10, 2), (12, 3), (14, 4)] {
        let cells: Vec<(i64, i64, i64, bool)> =
            Executor::global().par_map(&(0..seeds).collect::<Vec<u64>>(), |&seed| {
                let inst = random_proper(n, 3, 8, 5, g, seed);
                let sched = NextFitProper::strict().schedule(&inst).unwrap();
                let alg = sched.cost(&inst);
                let opt = ExactBB::new().opt_value(&inst).unwrap();
                let claim1 = verify::theorem_3_1_claims(&inst, &sched).is_ok();
                (alg, opt, inst.span(), claim1)
            });
        let mut stats = RatioStats::new();
        let mut inner_ok = true;
        let mut claims_ok = true;
        for (alg, opt, span, claim1) in cells {
            assert!(alg <= 2 * opt, "Theorem 3.1 violated: ALG={alg} OPT={opt}");
            inner_ok &= alg <= opt + span;
            claims_ok &= claim1;
            stats.push_fraction(alg, opt);
        }
        table.push_row(vec![
            n.to_string(),
            g.to_string(),
            seeds.to_string(),
            fmt_ratio(stats.mean()),
            fmt_ratio(stats.max),
            inner_ok.to_string(),
            claims_ok.to_string(),
            "2.000".into(),
        ]);
    }
    table
}

/// E5 — the ranked-shift remark closing Section 3.1: a *proper* family on
/// which FirstFit stays near ratio 3 while the Greedy algorithm is optimal.
pub fn e5_ranked_shift(scale: Scale) -> Table {
    let gs: Vec<u32> = scale.pick(vec![2, 3, 4], vec![2, 3, 4, 5, 6, 8]);
    let mut table = Table::new(
        "E5 (§3.1 remark): ranked-shift proper family — FirstFit vs Greedy",
        &["g", "OPT", "FirstFit", "FF ratio", "Greedy", "Greedy ratio"],
    );
    let rows: Vec<(u32, i64, i64, i64)> = Executor::global().par_map(&gs, |&g| {
        let eps = i64::from(g * (g - 1)) + 8;
        let unit = 50 * eps;
        let fam = ranked_shift(g, unit, eps);
        assert!(fam.instance.is_proper());
        let ff = FirstFit::paper()
            .schedule(&fam.instance)
            .unwrap()
            .cost(&fam.instance);
        let greedy = NextFitProper::strict()
            .schedule(&fam.instance)
            .unwrap()
            .cost(&fam.instance);
        assert_eq!(ff, fam.first_fit, "FirstFit escaped at g={g}");
        assert_eq!(greedy, fam.opt, "Greedy missed the optimum at g={g}");
        (g, fam.opt, ff, greedy)
    });
    for (g, opt, ff, greedy) in rows {
        table.push_row(vec![
            g.to_string(),
            opt.to_string(),
            ff.to_string(),
            fmt_ratio(ff as f64 / opt as f64),
            greedy.to_string(),
            fmt_ratio(greedy as f64 / opt as f64),
        ]);
    }
    table
}

/// E6 — Theorem 3.2 + Lemma 3.3: Bounded_Length with an exact per-segment
/// solver vs the global exact optimum. The segmentation loses at most a
/// factor 2 (Lemma 3.3); the per-segment solver here is exact, so the
/// overall ratio must stay ≤ 2. The literal guess-and-b-match solver is
/// cross-validated against the exact segment solver on the smallest sizes.
pub fn e6_bounded_length(scale: Scale) -> Table {
    let seeds: u64 = scale.pick(8, 40);
    let mut table = Table::new(
        "E6 (Thm 3.2 + Lemma 3.3): Bounded_Length(exact segments) vs global OPT",
        &[
            "n",
            "d",
            "g",
            "seeds",
            "ratio mean",
            "ratio max",
            "cap",
            "guess-match agrees",
        ],
    );
    for &(n, d, g) in &[(8usize, 2i64, 2u32), (10, 3, 2), (12, 3, 3), (14, 4, 3)] {
        let cells: Vec<(i64, i64, bool)> =
            Executor::global().par_map(&(0..seeds).collect::<Vec<u64>>(), |&seed| {
                let inst = random_bounded(n, (2 * n) as i64, d, g, seed);
                let segmented = BoundedLength::with_solver(ExactBB::new())
                    .with_width(d)
                    .schedule(&inst)
                    .unwrap();
                segmented.validate(&inst).unwrap();
                let opt = ExactBB::new().opt_value(&inst).unwrap();
                // cross-validate the literal guess+b-matching solver on the
                // smallest segments
                let gm_agrees = if n <= 10 {
                    let gm = BoundedLength::with_solver(GuessMatch::new())
                        .with_width(d)
                        .schedule(&inst);
                    match gm {
                        Ok(s) => s.cost(&inst) == segmented.cost(&inst),
                        Err(_) => true, // segment too large for the guard
                    }
                } else {
                    true
                };
                (segmented.cost(&inst), opt, gm_agrees)
            });
        let mut stats = RatioStats::new();
        let mut gm_all = true;
        for (seg, opt, gm) in cells {
            assert!(seg <= 2 * opt, "Lemma 3.3 violated: seg={seg} OPT={opt}");
            gm_all &= gm;
            stats.push_fraction(seg, opt);
        }
        table.push_row(vec![
            n.to_string(),
            d.to_string(),
            g.to_string(),
            seeds.to_string(),
            fmt_ratio(stats.mean()),
            fmt_ratio(stats.max),
            "2.000".into(),
            gm_all.to_string(),
        ]);
    }
    table
}

/// E7 — Theorem A.1 / Figure 5: the clique algorithm. Random cliques vs
/// exact OPT stay ≤ 2; the tight family reaches the factor exactly.
pub fn e7_clique(scale: Scale) -> Table {
    let seeds: u64 = scale.pick(10, 60);
    let mut table = Table::new(
        "E7 (Thm A.1, Fig. 5): clique algorithm vs exact OPT",
        &["family", "n", "g", "ratio mean", "ratio max", "cap"],
    );
    for &(n, g) in &[(8usize, 2u32), (10, 3), (12, 4)] {
        let cells: Vec<(i64, i64)> =
            Executor::global().par_map(&(0..seeds).collect::<Vec<u64>>(), |&seed| {
                let inst = random_clique(n, 100, 40, g, seed);
                let alg = CliqueScheduler::new().schedule(&inst).unwrap().cost(&inst);
                let opt = ExactBB::new().opt_value(&inst).unwrap();
                (alg, opt)
            });
        let mut stats = RatioStats::new();
        for (alg, opt) in cells {
            assert!(alg <= 2 * opt, "Theorem A.1 violated: ALG={alg} OPT={opt}");
            stats.push_fraction(alg, opt);
        }
        table.push_row(vec![
            "random clique".into(),
            n.to_string(),
            g.to_string(),
            fmt_ratio(stats.mean()),
            fmt_ratio(stats.max),
            "2.000".into(),
        ]);
    }
    // tight family: ratio exactly 2 for every g
    for &g in &[2u32, 3, 4, 6] {
        let inst = clique_tight(g, 100);
        let alg = CliqueScheduler::new().schedule(&inst).unwrap().cost(&inst);
        let opt = ExactBB::new().opt_value(&inst).unwrap();
        assert_eq!(alg, 2 * opt, "tight family must hit the factor exactly");
        table.push_row(vec![
            "tight (alternating sides)".into(),
            (2 * g).to_string(),
            g.to_string(),
            fmt_ratio(alg as f64 / opt as f64),
            fmt_ratio(alg as f64 / opt as f64),
            "2.000".into(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_quick() {
        let t = e4_greedy_proper(Scale::Quick);
        for row in &t.rows {
            assert_eq!(row[5], "true", "inner inequality failed: {row:?}");
            assert_eq!(row[6], "true", "Claim 1 failed: {row:?}");
            let max: f64 = row[4].parse().unwrap();
            assert!(max <= 2.0);
        }
    }

    #[test]
    fn e5_quick_separation() {
        let t = e5_ranked_shift(Scale::Quick);
        for row in &t.rows {
            let ff: f64 = row[3].parse().unwrap();
            let greedy: f64 = row[5].parse().unwrap();
            assert!(ff > 1.5, "FirstFit should be trapped: {row:?}");
            assert_eq!(greedy, 1.0, "Greedy should be optimal: {row:?}");
        }
    }

    #[test]
    fn e6_quick() {
        let t = e6_bounded_length(Scale::Quick);
        for row in &t.rows {
            let max: f64 = row[5].parse().unwrap();
            assert!(max <= 2.0);
            assert_eq!(row[7], "true", "guess-match disagreed: {row:?}");
        }
    }

    #[test]
    fn e7_quick_tight_rows_hit_two() {
        let t = e7_clique(Scale::Quick);
        let tight_rows: Vec<_> = t
            .rows
            .iter()
            .filter(|r| r[0].starts_with("tight"))
            .collect();
        assert_eq!(tight_rows.len(), 4);
        for row in tight_rows {
            assert_eq!(row[4], "2.000");
        }
    }
}
