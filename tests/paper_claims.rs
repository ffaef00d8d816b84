//! Qualitative claims of the paper's evaluation (Section V-B), checked
//! on the small synthetic profiles with fixed seeds. These are the
//! *shapes* the reproduction must preserve — who wins on which metric
//! and how metrics move along the Table II sweeps.

use dita::core::DitaConfig;
use dita::datagen::DatasetProfile;
use dita::influence::RpoParams;
use dita::sim::{ComparisonPoint, ExperimentRunner, MetricsRow, SweepAxis, SweepValues};

fn runner_on(profile: DatasetProfile, seed: u64) -> ExperimentRunner {
    let config = DitaConfig {
        n_topics: 8,
        lda_sweeps: 15,
        infer_sweeps: 8,
        rpo: RpoParams {
            max_sets: 10_000,
            ..Default::default()
        },
        seed,
        ..Default::default()
    };
    ExperimentRunner::new(&profile, seed, config).days(3)
}

fn runner(seed: u64) -> ExperimentRunner {
    runner_on(DatasetProfile::brightkite_small(), seed)
}

fn defaults() -> SweepValues {
    SweepValues {
        n_tasks: 120,
        n_workers: 100,
        options: Default::default(),
    }
}

fn row<'a>(rows: &'a [MetricsRow], name: &str) -> &'a MetricsRow {
    rows.iter().find(|r| r.algorithm == name).unwrap()
}

/// Evaluations behind each `cpu_ms` a timing claim compares.
const TIMING_REPS: usize = 9;

/// The comparison sweep over `axis` with every `cpu_ms` replaced by its
/// median over [`TIMING_REPS`] evaluations on the one trained runner.
/// A single wall-clock reading stretches whenever the host is busy; the
/// median moves only when most of the readings do. The other metrics
/// are deterministic, so the first evaluation's values stand.
fn median_timed(r: &ExperimentRunner, axis: &SweepAxis) -> Vec<ComparisonPoint> {
    let runs: Vec<Vec<ComparisonPoint>> = (0..TIMING_REPS)
        .map(|_| r.run_comparison(axis, &defaults()))
        .collect();
    let mut points = runs[0].clone();
    for (p, point) in points.iter_mut().enumerate() {
        for (a, row) in point.rows.iter_mut().enumerate() {
            let mut ms: Vec<f64> = runs.iter().map(|run| run[p].rows[a].cpu_ms).collect();
            ms.sort_by(f64::total_cmp);
            row.cpu_ms = ms[TIMING_REPS / 2];
        }
    }
    points
}

#[test]
fn influence_aware_beats_mta_on_ai_and_ap() {
    // Paper: "the AI and AP of MTA are lower than for the other
    // approaches" (Figures 9–16 discussion).
    let r = runner(101);
    let points = r.run_comparison(&SweepAxis::Tasks(vec![120]), &defaults());
    let rows = &points[0].rows;
    let mta = row(rows, "MTA");
    for name in ["IA", "EIA", "DIA", "MI"] {
        let alg = row(rows, name);
        assert!(
            alg.ai >= mta.ai,
            "{name} AI {} should be >= MTA {}",
            alg.ai,
            mta.ai
        );
        assert!(
            alg.ap >= mta.ap * 0.95,
            "{name} AP {} should not fall below MTA {}",
            alg.ap,
            mta.ap
        );
    }
    assert!(
        row(rows, "IA").ai > mta.ai,
        "IA must strictly improve AI over MTA"
    );
}

#[test]
fn dia_minimizes_travel_cost() {
    // Paper: "DIA yields the smallest average travel costs".
    let r = runner(103);
    let points = r.run_comparison(&SweepAxis::Tasks(vec![120]), &defaults());
    let rows = &points[0].rows;
    let dia = row(rows, "DIA").travel_km;
    for name in ["MTA", "IA", "EIA", "MI"] {
        assert!(
            dia <= row(rows, name).travel_km + 1e-9,
            "DIA travel {dia} must be the minimum (vs {name} {})",
            row(rows, name).travel_km
        );
    }
}

#[test]
fn mi_trades_cardinality_for_influence() {
    // Paper: "MI has the smallest number of assigned tasks while it has
    // the largest Average Influence".
    let r = runner(107);
    let points = r.run_comparison(&SweepAxis::Tasks(vec![120]), &defaults());
    let rows = &points[0].rows;
    let mi = row(rows, "MI");
    for name in ["MTA", "IA", "EIA", "DIA"] {
        assert!(
            mi.assigned <= row(rows, name).assigned,
            "MI assigns at most as many tasks as {name}"
        );
    }
    // MI's AI must at least match the best flow-based AI.
    let best_flow_ai = ["MTA", "IA", "EIA", "DIA"]
        .iter()
        .map(|n| row(rows, n).ai)
        .fold(f64::MIN, f64::max);
    assert!(
        mi.ai >= best_flow_ai * 0.95,
        "MI AI {} should be at the top (best flow {})",
        mi.ai,
        best_flow_ai
    );
}

#[test]
fn mta_is_fastest() {
    // Paper: "the time cost of MTA is the lowest" (it skips the
    // cost-minimization entirely). Compares `median_timed` medians.
    let r = runner(109);
    let points = median_timed(&r, &SweepAxis::Tasks(vec![160]));
    let rows = &points[0].rows;
    let mta = row(rows, "MTA").cpu_ms;
    for name in ["IA", "EIA"] {
        assert!(
            mta <= row(rows, name).cpu_ms,
            "MTA {mta} ms should undercut {name} {} ms",
            row(rows, name).cpu_ms
        );
    }
}

#[test]
fn more_workers_mean_more_assignments() {
    // Paper Figures 11–12(b): assigned tasks grow with |W|.
    let r = runner(113);
    let axis = SweepAxis::Workers(vec![40, 160]);
    let points = r.run_comparison(&axis, &defaults());
    for name in ["MTA", "IA", "EIA", "DIA"] {
        let lo = row(&points[0].rows, name).assigned;
        let hi = row(&points[1].rows, name).assigned;
        assert!(
            hi > lo,
            "{name}: assigned should grow with |W| ({lo} -> {hi})"
        );
    }
}

#[test]
fn longer_valid_time_means_more_assignments() {
    // Paper Figures 13–14(b): assigned tasks grow with φ (workers can
    // reach farther tasks before expiry).
    let r = runner(127);
    let axis = SweepAxis::ValidHours(vec![1.0, 6.0]);
    let points = r.run_comparison(&axis, &defaults());
    for name in ["MTA", "IA"] {
        let lo = row(&points[0].rows, name).assigned;
        let hi = row(&points[1].rows, name).assigned;
        assert!(hi >= lo, "{name}: assigned should not shrink with φ");
    }
    // Travel cost also grows with φ (paper Figures 13–14(e)).
    let t_lo = row(&points[0].rows, "IA").travel_km;
    let t_hi = row(&points[1].rows, "IA").travel_km;
    assert!(
        t_hi > t_lo,
        "longer φ admits longer trips ({t_lo} -> {t_hi})"
    );
}

#[test]
fn larger_radius_means_more_assignments_and_travel() {
    // Paper Figures 15–16: both |A| and travel cost increase with r.
    let r = runner(131);
    let axis = SweepAxis::RadiusKm(vec![5.0, 25.0]);
    let points = r.run_comparison(&axis, &defaults());
    for name in ["MTA", "IA"] {
        let lo = row(&points[0].rows, name);
        let hi = row(&points[1].rows, name);
        assert!(hi.assigned >= lo.assigned, "{name}: assigned grows with r");
        assert!(hi.travel_km > lo.travel_km, "{name}: travel grows with r");
    }
}

#[test]
fn cpu_time_grows_with_instance_size() {
    // Paper Figures 9–10(a): CPU time increases in |S| for every method.
    // Compares `median_timed` medians.
    let r = runner(137);
    let points = median_timed(&r, &SweepAxis::Tasks(vec![40, 200]));
    for name in ["IA", "EIA", "DIA"] {
        let lo = row(&points[0].rows, name).cpu_ms;
        let hi = row(&points[1].rows, name).cpu_ms;
        assert!(
            hi > lo,
            "{name}: CPU should grow with |S| ({lo:.3} -> {hi:.3} ms)"
        );
    }
}

#[test]
fn claims_hold_on_the_foursquare_profile_too() {
    // The paper shows every shape on both datasets; spot-check the three
    // headline orderings on FS.
    let r = runner_on(DatasetProfile::foursquare_small(), 211);
    let points = r.run_comparison(&SweepAxis::Tasks(vec![120]), &defaults());
    let rows = &points[0].rows;
    let mta = row(rows, "MTA");
    let ia = row(rows, "IA");
    let dia = row(rows, "DIA");
    let mi = row(rows, "MI");
    assert!(ia.ai > mta.ai, "FS: IA must beat MTA on AI");
    for name in ["MTA", "IA", "EIA", "MI"] {
        assert!(
            dia.travel_km <= row(rows, name).travel_km + 1e-9,
            "FS: DIA travel"
        );
    }
    assert!(mi.assigned <= ia.assigned, "FS: MI assigns no more than IA");
}

#[test]
fn flow_cardinality_is_identical_across_flow_algorithms() {
    // Documented deviation #3 of EXPERIMENTS.md: our MTA/IA/EIA/DIA all
    // solve max-flow on the same eligibility graph, so |A| is provably
    // equal. Pin that as a regression guard.
    let r = runner(149);
    let points = r.run_comparison(&SweepAxis::RadiusKm(vec![10.0, 25.0]), &defaults());
    for p in &points {
        let a = row(&p.rows, "MTA").assigned;
        for name in ["IA", "EIA", "DIA"] {
            assert_eq!(row(&p.rows, name).assigned, a, "r = {}", p.x);
        }
    }
}

#[test]
fn full_influence_model_wins_the_ablation() {
    // Paper Figures 5–8: IA (all three factors) achieves the largest AI.
    let r = runner(139);
    let points = r.run_ablation(&SweepAxis::Tasks(vec![120]), &defaults());
    let ai: std::collections::HashMap<_, _> = points[0].ai.iter().cloned().collect();
    let full = ai["IA"];
    for variant in ["IA-WP", "IA-AP", "IA-AW"] {
        assert!(
            full >= ai[variant] * 0.999,
            "full model AI {full} must not lose to {variant} ({})",
            ai[variant]
        );
    }
}
