//! # sc-bench — figure regeneration and perf binaries
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
//! The perf binaries (`bench_pool`, `bench_scale`) each write one
//! committed `BENCH_<name>.json` at the repository root through
//! [`write_artifact`]. Their sizes are fixed in the source; the one
//! override left is `DITA_SCALE_WORKERS` (`bench_scale`'s 10⁶-worker
//! run). The serving engine is measured by servebench (`servebench/`).
//!
//! Every environment override is read through [`env_or`]: an unset
//! variable keeps its default, and a value that does not parse stops
//! the binary with a message naming the variable and the value.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

use sc_core::DitaConfig;
use sc_influence::RpoParams;
use sc_sim::{
    render_table, to_csv, AblationPoint, ComparisonPoint, ExperimentRunner, ExperimentScale,
    SweepAxis,
};
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

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

/// The sweep scale `DITA_SCALE` names: `paper` or `small` in any
/// letter case, small when unset.
pub fn scale_from_env() -> ExperimentScale {
    env_or("DITA_SCALE", ExperimentScale::Small)
}

/// Builds the trained runner for a dataset family at the env scale.
///
/// The sampling thread budget comes from `DITA_THREADS` (unset/`0` =
/// one shard per core); results are bit-identical at any setting.
pub fn runner_for(family: &str) -> (ExperimentRunner, ExperimentScale) {
    let scale = scale_from_env();
    let threads = match env_or("DITA_THREADS", 0) {
        0 => sc_influence::Parallelism::Auto,
        n => sc_influence::Parallelism::Fixed(n),
    };
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

/// The repository root, two levels above this crate.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn results_dir() -> PathBuf {
    let dir = repo_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Environment variable `key` parsed as a `T`, or `default` when it is
/// unset. A value that does not parse stops the binary with a message
/// that names the variable and the value.
pub fn env_or<T: FromStr>(key: &str, default: T) -> T
where
    T::Err: Display,
{
    let value = std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
    parse_env(key, value.as_deref(), default).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(1)
    })
}

/// [`env_or`]'s reading of `value`, the variable's value if it is set.
fn parse_env<T: FromStr>(key: &str, value: Option<&str>, default: T) -> Result<T, String>
where
    T::Err: Display,
{
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|e| format!("{key}={v:?} does not parse: {e}")),
    }
}

/// The threads the host offers (1 when it cannot tell).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes a perf binary's report to `BENCH_<name>.json` at the
/// repository root, prints it on stdout, and names the file on stderr.
pub fn write_artifact(name: &str, json: &str) {
    let path = repo_root().join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("{json}");
    eprintln!("[bench_{name}] written to {}", path.display());
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
    fn unset_overrides_keep_their_default_and_bad_ones_are_refused_by_name() {
        assert_eq!(parse_env("DITA_SCALE_WORKERS", None, 7usize), Ok(7));
        assert_eq!(
            parse_env("DITA_SCALE_WORKERS", Some("1000000"), 7usize),
            Ok(1_000_000)
        );
        assert_eq!(
            parse_env("DITA_SCALE", Some("Paper"), ExperimentScale::Small),
            Ok(ExperimentScale::Paper)
        );
        for (key, value) in [
            ("DITA_SCALE_WORKERS", "1e6"),
            ("DITA_SCALE_WORKERS", "1_000_000"),
            ("DITA_SCALE_WORKERS", ""),
            ("DITA_THREADS", "four"),
        ] {
            let err = parse_env(key, Some(value), 0usize).unwrap_err();
            assert!(
                err.contains(key) && err.contains(&format!("{value:?}")),
                "{err}"
            );
        }
        let err = parse_env("DITA_SCALE", Some("medium"), ExperimentScale::Small).unwrap_err();
        assert!(err.contains("DITA_SCALE=\"medium\""), "{err}");
    }

    #[test]
    fn config_scales_with_experiment_scale() {
        let small = config_for(sc_sim::ExperimentScale::Small);
        let paper = config_for(sc_sim::ExperimentScale::Paper);
        assert!(small.n_topics < paper.n_topics);
        assert_eq!(paper.n_topics, 50);
    }
}
