//! Experiments T1, F1–F6 and T2: the measurement-study artifacts.

use crate::analysis::Analysis;
use crate::output::{render_cdf_summary, rows_csv, series_csv, Series};
use geosocial_core::burstiness::burstiness;
use geosocial_core::incentives::{correlation_table, CHECKIN_TYPES, FEATURES};
use geosocial_core::missing::{missing_by_category, top_poi_missing_ratios};
use geosocial_core::validate::{
    checkin_inter_arrivals, honest_inter_arrivals, validate, visit_inter_arrivals,
};
use geosocial_stats::Ecdf;

/// Output of one experiment: a text report plus optional CSV files.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutput {
    /// Experiment id (file-name stem, e.g. "fig1").
    pub id: String,
    /// Human-readable report.
    pub text: String,
    /// `(file stem suffix, csv contents)` pairs.
    pub csv: Vec<(String, String)>,
}

/// Table 1: dataset statistics for both cohorts.
pub fn table1(a: &Analysis) -> ExperimentOutput {
    let p = a.scenario.primary.stats();
    let b = a.scenario.baseline.stats();
    let text = format!(
        "Table 1 — dataset statistics (paper: Primary 244 users / 14.2 d / 14K checkins / 31K visits / 2.6M GPS; Baseline 47 / 20.8 / 665 / 6.3K / 558K)\n\
         Primary : {p}\n\
         Baseline: {b}\n"
    );
    let csv = format!(
        "dataset,users,avg_days,checkins,visits,gps_points\n\
         Primary,{},{:.1},{},{},{}\nBaseline,{},{:.1},{},{},{}\n",
        p.users,
        p.avg_days_per_user,
        p.checkins,
        p.visits,
        p.gps_points,
        b.users,
        b.avg_days_per_user,
        b.checkins,
        b.visits,
        b.gps_points,
    );
    ExperimentOutput { id: "table1".into(), text, csv: vec![("".into(), csv)] }
}

/// Figure 1: the matching Venn — honest / extraneous / missing counts.
pub fn fig1(a: &Analysis) -> ExperimentOutput {
    let o = &a.outcome;
    let text = format!(
        "Figure 1 — matching results (paper: honest 3525, extraneous 10772 (75%), missing 27310 (89%))\n\
         checkins={} visits={}\n\
         honest={} ({:.1}% of checkins)\n\
         extraneous={} ({:.1}% of checkins)\n\
         missing={} ({:.1}% of visits)\n\
         visit coverage={:.1}% (paper: ~10%)\n",
        o.total_checkins,
        o.total_visits,
        o.honest.len(),
        100.0 * o.honest.len() as f64 / o.total_checkins.max(1) as f64,
        o.extraneous.len(),
        100.0 * o.extraneous_ratio(),
        o.missing.len(),
        100.0 * o.missing_ratio(),
        100.0 * o.coverage_ratio(),
    );
    let csv = format!(
        "class,count,share\nhonest,{},{:.4}\nextraneous,{},{:.4}\nmissing,{},{:.4}\n",
        o.honest.len(),
        1.0 - o.extraneous_ratio(),
        o.extraneous.len(),
        o.extraneous_ratio(),
        o.missing.len(),
        o.missing_ratio(),
    );
    ExperimentOutput { id: "fig1".into(), text, csv: vec![("".into(), csv)] }
}

/// Figure 2: inter-arrival CDFs of the five traces, plus the KS validation.
pub fn fig2(a: &Analysis) -> ExperimentOutput {
    let min = 60.0;
    let all_p: Vec<f64> =
        checkin_inter_arrivals(&a.scenario.primary).iter().map(|s| s / min).collect();
    let honest: Vec<f64> =
        honest_inter_arrivals(&a.scenario.primary, &a.outcome).iter().map(|s| s / min).collect();
    let all_b: Vec<f64> =
        checkin_inter_arrivals(&a.scenario.baseline).iter().map(|s| s / min).collect();
    let gps_p: Vec<f64> =
        visit_inter_arrivals(&a.scenario.primary).iter().map(|s| s / min).collect();
    let gps_b: Vec<f64> =
        visit_inter_arrivals(&a.scenario.baseline).iter().map(|s| s / min).collect();
    let grid = Ecdf::log_grid(0.1, 10_000.0, 60);
    let series: Vec<Series> = [
        ("All Checkin Primary", &all_p),
        ("GPS Primary", &gps_p),
        ("GPS Baseline", &gps_b),
        ("Honest Primary", &honest),
        ("All Checkin Baseline", &all_b),
    ]
    .iter()
    .filter_map(|(l, s)| Series::cdf(l, s, &grid))
    .collect();

    let mut text = String::from(
        "Figure 2 — inter-arrival time CDFs (minutes). Paper: GPS curves coincide; honest-primary coincides with baseline checkins; all-checkin-primary deviates.\n",
    );
    for (label, s) in [
        ("All Checkin, Primary", &all_p),
        ("Honest, Primary", &honest),
        ("All Checkin, Baseline", &all_b),
        ("GPS, Primary", &gps_p),
        ("GPS, Baseline", &gps_b),
    ] {
        text.push_str(&render_cdf_summary(label, s, "min"));
    }
    if let Some(report) = validate(&a.scenario.primary, &a.scenario.baseline, &a.outcome) {
        text.push_str(&format!(
            "KS honest-vs-baseline = {:.3} | KS all-vs-baseline = {:.3} | KS gps-vs-gps = {:.3}\n",
            report.honest_vs_baseline.statistic,
            report.all_vs_baseline.statistic,
            report.gps_vs_gps.statistic,
        ));
    }
    // The paper's four omitted metrics ("led to the same conclusions").
    if let Some(five) = geosocial_core::metrics::five_metric_validation(
        &a.scenario.primary,
        &a.scenario.baseline,
        &a.outcome,
    ) {
        text.push_str(&five.render());
    }
    ExperimentOutput { id: "fig2".into(), text, csv: vec![("".into(), series_csv(&series))] }
}

/// Figure 3: CDF of the missing-checkin share held by each user's top-n POIs.
pub fn fig3(a: &Analysis) -> ExperimentOutput {
    let ratios = top_poi_missing_ratios(&a.scenario.primary, &a.outcome, 5);
    let grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
    let series: Vec<Series> = ratios
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Series::cdf(&format!("Top-{}", i + 1), r, &grid))
        .collect();
    let mut text = String::from(
        "Figure 3 — share of missing checkins at top-n most-visited POIs (paper: top-5 holds >50% for ~60% of users).\n",
    );
    for (i, r) in ratios.iter().enumerate() {
        text.push_str(&render_cdf_summary(&format!("Top-{}", i + 1), r, ""));
    }
    if let Some(e) = Ecdf::new(ratios[4].clone()) {
        let frac_over_half = 1.0 - e.eval(0.5);
        text.push_str(&format!(
            "users with top-5 share > 50%: {:.0}% (paper: ~60%)\n",
            frac_over_half * 100.0
        ));
    }
    ExperimentOutput { id: "fig3".into(), text, csv: vec![("".into(), series_csv(&series))] }
}

/// Figure 4: missing checkins by POI category.
pub fn fig4(a: &Analysis) -> ExperimentOutput {
    let b = missing_by_category(&a.scenario.primary, &a.outcome);
    let rows: Vec<(String, f64)> =
        b.rows().into_iter().map(|(c, f)| (c.label().to_string(), f * 100.0)).collect();
    let mut text = String::from(
        "Figure 4 — missing checkins by POI category, % (paper: Professional, Shop, Food lead).\n",
    );
    for (label, pct) in &rows {
        text.push_str(&format!("  {label:<13} {pct:5.1}%\n"));
    }
    text.push_str(&format!("  (unsnapped visits excluded: {})\n", b.unsnapped));
    ExperimentOutput {
        id: "fig4".into(),
        text,
        csv: vec![("".into(), rows_csv(("category", "percent"), &rows))],
    }
}

/// Table 2: Pearson correlations of checkin-type ratios vs profile features.
pub fn table2(a: &Analysis) -> ExperimentOutput {
    let t = correlation_table(&a.scenario.primary, &a.compositions);
    let mut text = format!(
        "Table 2 — correlation of per-user checkin-type ratio with profile features (n={} users).\n\
         Paper: Remote×Badges=0.49, Superfluous×Mayors=0.34, Honest all-negative (Badges −0.42, Ckin/Day −0.40).\n\n{}\nSpearman (rank) companion:\n{}",
        t.n_users,
        t.render(),
        t.render_spearman()
    );
    let mut csv = String::from("type");
    for f in FEATURES {
        csv.push(',');
        csv.push_str(f);
    }
    csv.push('\n');
    for (r, row) in t.values.iter().enumerate() {
        csv.push_str(CHECKIN_TYPES[r]);
        for v in row {
            match v {
                Some(x) => csv.push_str(&format!(",{x:.4}")),
                None => csv.push(','),
            }
        }
        csv.push('\n');
    }
    // 95% bootstrap intervals on the cells the paper's argument leans on.
    for (label, row, col) in [
        ("Remote x Badges", 1usize, 1usize),
        ("Superfluous x Mayors", 0, 2),
        ("Honest x Badges", 3, 1),
        ("Honest x Ckin/Day", 3, 3),
    ] {
        if let Some(ci) = geosocial_core::incentives::correlation_ci(
            &a.scenario.primary,
            &a.compositions,
            row,
            col,
            500,
            20130101,
        ) {
            text.push_str(&format!(
                "95% CI {label}: [{:.2}, {:.2}]{}\n",
                ci.lo,
                ci.hi,
                if ci.excludes_zero() { " (excludes 0)" } else { "" }
            ));
        }
    }
    text.push('\n');
    ExperimentOutput { id: "table2".into(), text, csv: vec![("".into(), csv)] }
}

/// Figure 5: CDF of each user's extraneous-checkin ratio, overall and by type.
pub fn fig5(a: &Analysis) -> ExperimentOutput {
    use geosocial_core::classify::ExtraneousKind;
    let active: Vec<_> = a.compositions.iter().filter(|c| c.total > 0).collect();
    let all: Vec<f64> = active.iter().map(|c| c.extraneous_ratio()).collect();
    let sup: Vec<f64> = active.iter().map(|c| c.kind_ratio(ExtraneousKind::Superfluous)).collect();
    let rem: Vec<f64> = active.iter().map(|c| c.kind_ratio(ExtraneousKind::Remote)).collect();
    let dri: Vec<f64> = active.iter().map(|c| c.kind_ratio(ExtraneousKind::Driveby)).collect();
    let grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
    let series: Vec<Series> =
        [("Driveby", &dri), ("Superfluous", &sup), ("Remote", &rem), ("All Extraneous", &all)]
            .iter()
            .filter_map(|(l, s)| Series::cdf(l, s, &grid))
            .collect();
    let mut text = String::from(
        "Figure 5 — per-user extraneous ratio CDFs (paper: nearly all users have extraneous checkins; top 20% of users are ≥80% extraneous).\n",
    );
    for (l, s) in [("All", &all), ("Remote", &rem), ("Superfluous", &sup), ("Driveby", &dri)] {
        text.push_str(&render_cdf_summary(l, s, ""));
    }
    let widespread = all.iter().filter(|&&r| r > 0.0).count() as f64 / all.len().max(1) as f64;
    text.push_str(&format!("users with any extraneous checkin: {:.0}%\n", widespread * 100.0));
    ExperimentOutput { id: "fig5".into(), text, csv: vec![("".into(), series_csv(&series))] }
}

/// Figure 6: burstiness — inter-arrival CDFs per checkin class.
pub fn fig6(a: &Analysis) -> ExperimentOutput {
    let b = burstiness(&a.scenario.primary, &a.outcome, &a.classify_config);
    let minute = 60.0;
    let grid = Ecdf::log_grid(0.1, 10_000.0, 60);
    let series: Vec<Series> = b
        .rows()
        .iter()
        .filter_map(|(label, s)| {
            let mins: Vec<f64> = s.iter().map(|g| g / minute).collect();
            Series::cdf(label, &mins, &grid)
        })
        .collect();
    let mut text = String::from(
        "Figure 6 — inter-arrival CDF per checkin type (paper: ~35% of extraneous arrive within 1 min; honest median >10 min).\n",
    );
    for (label, s) in b.rows() {
        let mins: Vec<f64> = s.iter().map(|g| g / minute).collect();
        text.push_str(&render_cdf_summary(label, &mins, "min"));
    }
    let extr: Vec<f64> = b.superfluous.iter().chain(&b.remote).chain(&b.driveby).copied().collect();
    let within_1m = geosocial_core::burstiness::BurstinessSamples::fraction_within(&extr, 60.0);
    text.push_str(&format!(
        "extraneous checkins arriving within 1 min: {:.0}% (paper: 35%)\n",
        within_1m * 100.0
    ));
    // Goh–Barabási burstiness coefficient per class (B=0 Poisson, B→1 bursty).
    for (label, s) in b.rows() {
        if let Some(coeff) = geosocial_stats::burstiness_coefficient(s) {
            text.push_str(&format!("burstiness B({label}) = {coeff:.2}\n"));
        }
    }
    ExperimentOutput { id: "fig6".into(), text, csv: vec![("".into(), series_csv(&series))] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosocial_checkin::scenario::ScenarioConfig;

    fn analysis() -> Analysis {
        Analysis::run(&ScenarioConfig::small(10, 7), 5)
    }

    #[test]
    fn every_figure_renders_text_and_csv() {
        let a = analysis();
        for out in
            [table1(&a), fig1(&a), fig2(&a), fig3(&a), fig4(&a), table2(&a), fig5(&a), fig6(&a)]
        {
            assert!(!out.text.is_empty(), "{} text empty", out.id);
            assert!(!out.csv.is_empty(), "{} csv missing", out.id);
            for (suffix, csv) in &out.csv {
                assert!(csv.lines().count() >= 2, "{}{} csv too short", out.id, suffix);
            }
        }
    }

    #[test]
    fn fig1_counts_reconcile() {
        let a = analysis();
        let out = fig1(&a);
        assert!(out.text.contains(&format!("honest={}", a.outcome.honest.len())));
    }
}
