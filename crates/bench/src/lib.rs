//! # sc-bench — figure regeneration and micro-benchmarks
//!
//! One binary per evaluation figure (`src/bin/fig05_…` through
//! `fig16_…`) regenerates the corresponding series of the paper:
//!
//! ```text
//! DITA_SCALE=paper cargo run --release -p sc-bench --bin fig09_tasks_bk
//! ```
//!
//! Without `DITA_SCALE=paper` the binaries run the 10×-reduced profiles
//! (minutes instead of hours). Each binary prints the series as aligned
//! tables and writes a CSV next to the repository root under `results/`.
//!
//! Criterion micro-benches live in `benches/` (MCMF, RRR/RPO, LDA,
//! willingness, end-to-end assignment, plus the ablation benches listed
//! in `DESIGN.md`).

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

use sc_core::DitaConfig;
use sc_influence::RpoParams;
use sc_sim::{
    render_table, to_csv, AblationPoint, ComparisonPoint, ExperimentRunner, ExperimentScale,
    SweepAxis,
};
use std::path::PathBuf;

/// Which Table II axis a figure sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisSel {
    /// |S| sweep.
    Tasks,
    /// |W| sweep.
    Workers,
    /// φ sweep.
    ValidTime,
    /// r sweep.
    Radius,
}

impl AxisSel {
    fn resolve(self, scale: ExperimentScale) -> SweepAxis {
        match self {
            AxisSel::Tasks => scale.tasks_axis(),
            AxisSel::Workers => scale.workers_axis(),
            AxisSel::ValidTime => scale.valid_time_axis(),
            AxisSel::Radius => scale.radius_axis(),
        }
    }
}

/// DITA configuration appropriate for the scale.
pub fn config_for(scale: ExperimentScale) -> DitaConfig {
    match scale {
        ExperimentScale::Paper => DitaConfig::default(),
        ExperimentScale::Small => DitaConfig {
            n_topics: 12,
            lda_sweeps: 25,
            infer_sweeps: 10,
            rpo: RpoParams {
                max_sets: 30_000,
                ..Default::default()
            },
            seed: 0xD17A,
            ..Default::default()
        },
    }
}

/// Builds the trained runner for a dataset family at the env scale.
///
/// The sampling thread budget comes from `DITA_THREADS` (unset/`0` =
/// one shard per core); results are bit-identical at any setting.
pub fn runner_for(family: &str) -> (ExperimentRunner, ExperimentScale) {
    let scale = ExperimentScale::from_env();
    let threads = sc_influence::Parallelism::from_env();
    let profile = scale.profile(family);
    eprintln!(
        "[sc-bench] dataset {} ({} workers, {} venues), scale {:?}, threads {} — training DITA…",
        profile.name, profile.n_workers, profile.n_venues, scale, threads
    );
    // Sweep points run one after another, so each algorithm's `cpu_ms`
    // is timed without contention; `threads` still governs training.
    let runner = ExperimentRunner::with_threads(&profile, 0xBEEF, config_for(scale), threads)
        .sweep_threads(sc_influence::Parallelism::Single)
        .days(scale.n_days());
    let stats = runner.pipeline().model().rpo_stats();
    eprintln!(
        "[sc-bench] RPO pool: {} sets (rounds {}, σ_lb {:.2}, capped {}, \
         search {:.0} ms + top-up {:.0} ms, thread budget {})",
        stats.n_sets,
        stats.rounds,
        stats.sigma_lower_bound,
        stats.capped,
        stats.search_ms,
        stats.topup_ms,
        stats.threads
    );
    (runner, scale)
}

fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

fn write_results(name: &str, csv: &str) {
    let path = results_dir().join(format!("{name}.csv"));
    std::fs::write(&path, csv).expect("write results csv");
    println!("\n[results written to {}]", path.display());
}

/// Runs and prints a comparison figure (Figures 9–16): the five
/// algorithms over one axis, all five metrics.
pub fn comparison_figure(fig: &str, family: &str, axis_sel: AxisSel, caption: &str) {
    let (runner, scale) = runner_for(family);
    let axis = axis_sel.resolve(scale);
    let defaults = scale.defaults();
    let points = runner.run_comparison(&axis, &defaults);
    print_comparison(fig, caption, &axis, &points);
    write_results(&format!("{fig}_{family}"), &comparison_csv(&axis, &points));
}

/// Runs and prints an ablation figure (Figures 5–8): AI of the four IA
/// variants over one axis.
pub fn ablation_figure(fig: &str, family: &str, axis_sel: AxisSel, caption: &str) {
    let (runner, scale) = runner_for(family);
    let axis = axis_sel.resolve(scale);
    let defaults = scale.defaults();
    let points = runner.run_ablation(&axis, &defaults);
    print_ablation(fig, caption, &axis, &points);
    write_results(&format!("{fig}_{family}"), &ablation_csv(&axis, &points));
}

/// Prints every metric of a comparison sweep as an `x × algorithm` table.
fn print_comparison(fig: &str, caption: &str, axis: &SweepAxis, points: &[ComparisonPoint]) {
    println!("== {fig}: {caption} ==");
    type MetricGetter = fn(&sc_sim::MetricsRow) -> f64;
    let metrics: [(&str, MetricGetter); 5] = [
        ("CPU time (ms)", |r| r.cpu_ms),
        ("assigned tasks", |r| r.assigned),
        ("Average Influence (AI)", |r| r.ai),
        ("Average Propagation (AP)", |r| r.ap),
        ("travel cost (km)", |r| r.travel_km),
    ];
    for (metric_name, get) in metrics {
        println!("\n-- {metric_name} --");
        let algo_names: Vec<String> = points
            .first()
            .map(|p| p.rows.iter().map(|r| r.algorithm.clone()).collect())
            .unwrap_or_default();
        let mut headers: Vec<&str> = vec![axis.name()];
        for name in &algo_names {
            headers.push(name);
        }
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                let mut row = vec![format_x(p.x)];
                for r in &p.rows {
                    row.push(format!("{:.4}", get(r)));
                }
                row
            })
            .collect();
        print!("{}", render_table(&headers, &rows));
    }
}

fn print_ablation(fig: &str, caption: &str, axis: &SweepAxis, points: &[AblationPoint]) {
    println!("== {fig}: {caption} ==");
    println!("\n-- Average Influence (AI) --");
    let variant_names: Vec<String> = points
        .first()
        .map(|p| p.ai.iter().map(|(l, _)| l.clone()).collect())
        .unwrap_or_default();
    let mut headers: Vec<&str> = vec![axis.name()];
    for name in &variant_names {
        headers.push(name);
    }
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![format_x(p.x)];
            for (_, ai) in &p.ai {
                row.push(format!("{ai:.4}"));
            }
            row
        })
        .collect();
    print!("{}", render_table(&headers, &rows));
}

/// Flat CSV of a comparison sweep.
pub fn comparison_csv(axis: &SweepAxis, points: &[ComparisonPoint]) -> String {
    let headers = [
        axis.name(),
        "algorithm",
        "cpu_ms",
        "assigned",
        "ai",
        "ap",
        "travel_km",
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .flat_map(|p| {
            p.rows.iter().map(move |r| {
                vec![
                    format_x(p.x),
                    r.algorithm.clone(),
                    format!("{:.6}", r.cpu_ms),
                    format!("{:.3}", r.assigned),
                    format!("{:.6}", r.ai),
                    format!("{:.6}", r.ap),
                    format!("{:.6}", r.travel_km),
                ]
            })
        })
        .collect();
    to_csv(&headers, &rows)
}

/// Flat CSV of an ablation sweep.
pub fn ablation_csv(axis: &SweepAxis, points: &[AblationPoint]) -> String {
    let headers = [axis.name(), "variant", "ai"];
    let rows: Vec<Vec<String>> = points
        .iter()
        .flat_map(|p| {
            p.ai.iter()
                .map(move |(label, ai)| vec![format_x(p.x), label.clone(), format!("{ai:.6}")])
        })
        .collect();
    to_csv(&headers, &rows)
}

fn format_x(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x as i64)
    } else {
        format!("{x:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_sim::{AblationPoint, ComparisonPoint, MetricsRow, SweepAxis};

    fn point(x: f64) -> ComparisonPoint {
        ComparisonPoint {
            x,
            rows: vec![MetricsRow {
                algorithm: "IA".into(),
                cpu_ms: 1.5,
                assigned: 10.0,
                ai: 0.25,
                ap: 3.0,
                travel_km: 4.5,
            }],
        }
    }

    #[test]
    fn comparison_csv_has_row_per_algorithm_and_point() {
        let axis = SweepAxis::Tasks(vec![100, 200]);
        let csv = comparison_csv(&axis, &[point(100.0), point(200.0)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 data rows");
        assert!(lines[0].starts_with("|S|,algorithm,"));
        assert!(lines[1].starts_with("100,IA,"));
        assert!(lines[2].starts_with("200,IA,"));
    }

    #[test]
    fn ablation_csv_flattens_variants() {
        let axis = SweepAxis::RadiusKm(vec![5.0]);
        let points = vec![AblationPoint {
            x: 5.0,
            ai: vec![("IA".into(), 0.2), ("IA-WP".into(), 0.1)],
        }];
        let csv = ablation_csv(&axis, &points);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("IA,0.2"));
        assert!(lines[2].contains("IA-WP,0.1"));
    }

    #[test]
    fn format_x_drops_trailing_zero_for_integers() {
        assert_eq!(format_x(1500.0), "1500");
        assert_eq!(format_x(2.5), "2.5");
    }

    #[test]
    fn config_scales_with_experiment_scale() {
        let small = config_for(sc_sim::ExperimentScale::Small);
        let paper = config_for(sc_sim::ExperimentScale::Paper);
        assert!(small.n_topics < paper.n_topics);
        assert_eq!(paper.n_topics, 50);
    }
}
