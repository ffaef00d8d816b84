//! The experiment harness: trains DITA once per dataset, then sweeps one
//! Table II parameter and measures every algorithm (paper Section V-B).

use crate::metrics::{MetricsAccumulator, MetricsRow};
use crate::sweep::{SweepAxis, SweepValues};
use sc_assign::{run_scored, score_pairs, AlgorithmKind, AssignInput, EligibilityMatrix};
use sc_core::{
    DitaBuilder, DitaConfig, DitaPipeline, InfluenceScorer, InfluenceVariant, Parallelism,
};
use sc_datagen::{DatasetProfile, SyntheticDataset};
use sc_types::Assignment;
use std::time::Instant;

/// One sweep point of a comparison experiment (Figures 9–16).
#[derive(Debug, Clone)]
pub struct ComparisonPoint {
    /// The sweep-axis value (|S|, |W|, φ or r).
    pub x: f64,
    /// Metrics per algorithm (MTA, IA, EIA, DIA, MI).
    pub rows: Vec<MetricsRow>,
}

/// One sweep point of an ablation experiment (Figures 5–8).
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// The sweep-axis value.
    pub x: f64,
    /// `(variant label, Average Influence)` per variant.
    pub ai: Vec<(String, f64)>,
}

/// Trains a pipeline on a synthetic dataset and runs sweeps on it.
pub struct ExperimentRunner {
    dataset: SyntheticDataset,
    pipeline: DitaPipeline,
    n_days: usize,
    /// Thread budget for the sweep phase (parallel point evaluation;
    /// sequential by default).
    sweep_threads: Parallelism,
}

impl ExperimentRunner {
    /// Generates the dataset (deterministic in `seed`), trains the DITA
    /// pipeline, and prepares the runner.
    pub fn new(profile: &DatasetProfile, seed: u64, config: DitaConfig) -> Self {
        let dataset = SyntheticDataset::generate(profile, seed);
        let pipeline = DitaBuilder::new()
            .config(config)
            .build(&dataset.social, &dataset.histories)
            .expect("pipeline training cannot fail on a valid profile");
        ExperimentRunner {
            dataset,
            pipeline,
            n_days: 4,
            sweep_threads: Parallelism::Single,
        }
    }

    /// Like [`ExperimentRunner::new`] with an explicit thread budget
    /// governing **both** phases: RRR-pool sampling during training and
    /// sweep-point evaluation in [`ExperimentRunner::run_comparison`] /
    /// [`ExperimentRunner::run_ablation`]. Metrics are bit-identical at
    /// any budget — sampling is seeded per set index and sweep points
    /// merge in axis order — so sweeps stay comparable across machines
    /// and thread counts.
    pub fn with_threads(
        profile: &DatasetProfile,
        seed: u64,
        mut config: DitaConfig,
        threads: Parallelism,
    ) -> Self {
        config.rpo.threads = threads;
        let mut runner = Self::new(profile, seed, config);
        runner.sweep_threads = threads;
        runner
    }

    /// Overrides the number of simulated days averaged per point.
    #[must_use]
    pub fn days(mut self, n_days: usize) -> Self {
        self.n_days = n_days.max(1);
        self
    }

    /// Overrides the sweep-phase thread budget only (training keeps
    /// its own [`DitaConfig::threads`] setting). The default,
    /// [`Parallelism::Single`], evaluates points on the calling
    /// thread, which keeps `cpu_ms` free of contention.
    #[must_use]
    pub fn sweep_threads(mut self, threads: Parallelism) -> Self {
        self.sweep_threads = threads;
        self
    }

    /// The generated dataset.
    pub fn dataset(&self) -> &SyntheticDataset {
        &self.dataset
    }

    /// The trained pipeline.
    pub fn pipeline(&self) -> &DitaPipeline {
        &self.pipeline
    }

    /// Runs the five comparison algorithms over a sweep. Per point and
    /// day: build the instance, compute eligibility and warm the
    /// influence cache once (shared by all algorithms, as in the DITA
    /// framework), then time each algorithm's assignment step.
    ///
    /// Points are distributed over the
    /// [`ExperimentRunner::sweep_threads`] budget: chunked into at most
    /// `budget` contiguous shards — never one OS thread per point — and
    /// merged in axis order, so counts, influence, propagation, and
    /// travel metrics are bit-identical at any budget. `cpu_ms` is
    /// noisier under contention; keep the budget at 1 when timing
    /// fidelity matters.
    pub fn run_comparison(&self, axis: &SweepAxis, defaults: &SweepValues) -> Vec<ComparisonPoint> {
        let xs = axis.values();
        sc_stats::par::map_chunked(xs.len(), self.sweep_threads.resolve(), |i| {
            self.comparison_point(xs[i], axis, defaults)
        })
    }

    /// One sweep point of the comparison experiment.
    fn comparison_point(
        &self,
        x: f64,
        axis: &SweepAxis,
        defaults: &SweepValues,
    ) -> ComparisonPoint {
        let algorithms = AlgorithmKind::COMPARISON;
        let values = axis.apply(x, defaults);
        let mut accs: Vec<MetricsAccumulator> = algorithms
            .iter()
            .map(|_| MetricsAccumulator::new())
            .collect();

        for day in 0..self.n_days {
            let day_inst = self.dataset.instance_for_day(
                day,
                values.n_tasks,
                values.n_workers,
                values.options,
            );
            let matrix = EligibilityMatrix::build(&day_inst.instance);
            let scorer = self.pipeline.scorer();
            // Fill the per-task cache up front so each timing measures
            // the assignment step, not the shared influence-model
            // evaluation. One thread: sweep points already run in
            // parallel on the outer scheduler.
            scorer.warm_eligible(&day_inst.instance, &matrix, 1);
            let entropies = self.pipeline.model().task_entropies(&day_inst.task_venues);

            for (ai_idx, &kind) in algorithms.iter().enumerate() {
                let input = AssignInput::new(&day_inst.instance, &scorer).with_entropy(&entropies);
                let start = Instant::now();
                let influences = score_pairs(&input, &matrix);
                let (assignment, _) = run_scored(kind, &input, &matrix, &influences);
                let cpu_ms = start.elapsed().as_secs_f64() * 1e3;
                self.record(&mut accs[ai_idx], cpu_ms, &assignment);
            }
        }

        ComparisonPoint {
            x,
            rows: algorithms
                .iter()
                .zip(accs.iter())
                .map(|(kind, acc)| acc.finish(kind.to_string()))
                .collect(),
        }
    }

    /// Runs the IA ablation variants over a sweep, reporting AI
    /// (Figures 5–8: IA, IA-WP, IA-AP, IA-AW). Points are distributed
    /// over the [`ExperimentRunner::sweep_threads`] budget as in
    /// [`ExperimentRunner::run_comparison`]; results are bit-identical
    /// at any budget.
    pub fn run_ablation(&self, axis: &SweepAxis, defaults: &SweepValues) -> Vec<AblationPoint> {
        let xs = axis.values();
        sc_stats::par::map_chunked(xs.len(), self.sweep_threads.resolve(), |i| {
            self.ablation_point(xs[i], axis, defaults)
        })
    }

    /// One sweep point of the ablation experiment.
    fn ablation_point(&self, x: f64, axis: &SweepAxis, defaults: &SweepValues) -> AblationPoint {
        let values = axis.apply(x, defaults);
        let mut sums = vec![0.0f64; InfluenceVariant::ALL.len()];
        for day in 0..self.n_days {
            let day_inst = self.dataset.instance_for_day(
                day,
                values.n_tasks,
                values.n_workers,
                values.options,
            );
            let matrix = EligibilityMatrix::build(&day_inst.instance);
            // AI is always evaluated under the *full* influence
            // definition so the variants are comparable — a variant
            // only changes which pairs get chosen, not the yardstick.
            let full_scorer = self.pipeline.scorer();
            for (vi, &variant) in InfluenceVariant::ALL.iter().enumerate() {
                let scorer = self.pipeline.scorer_variant(variant);
                let input = AssignInput::new(&day_inst.instance, &scorer);
                let influences = score_pairs(&input, &matrix);
                let (assignment, _) = run_scored(AlgorithmKind::Ia, &input, &matrix, &influences);
                sums[vi] += self.full_ai(&assignment, &day_inst.instance, &full_scorer);
            }
        }
        AblationPoint {
            x,
            ai: InfluenceVariant::ALL
                .iter()
                .zip(sums.iter())
                .map(|(v, s)| (v.label().to_string(), s / self.n_days as f64))
                .collect(),
        }
    }

    fn record(&self, acc: &mut MetricsAccumulator, cpu_ms: f64, assignment: &Assignment) {
        acc.push(
            cpu_ms,
            assignment.len(),
            assignment.average_influence(),
            self.pipeline.average_propagation(assignment),
            assignment.average_travel_km(),
        );
    }

    /// Re-scores an assignment under the full influence definition
    /// (variant runs optimized a reduced score, whose magnitudes are not
    /// comparable across variants).
    fn full_ai(
        &self,
        assignment: &Assignment,
        instance: &sc_types::Instance,
        full_scorer: &InfluenceScorer<'_>,
    ) -> f64 {
        if assignment.is_empty() {
            return 0.0;
        }
        let by_id: std::collections::HashMap<_, _> =
            instance.tasks.iter().map(|t| (t.id, t)).collect();
        let total: f64 = assignment
            .pairs()
            .iter()
            .map(|p| full_scorer.score(p.worker, by_id[&p.task]))
            .sum();
        total / assignment.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_influence::RpoParams;

    fn tiny_runner() -> ExperimentRunner {
        let mut profile = DatasetProfile::brightkite_small();
        profile.n_workers = 120;
        profile.n_venues = 120;
        profile.checkins_per_worker = 12;
        let config = DitaConfig {
            n_topics: 6,
            lda_sweeps: 15,
            infer_sweeps: 8,
            rpo: RpoParams {
                max_sets: 5_000,
                ..Default::default()
            },
            seed: 5,
            ..Default::default()
        };
        ExperimentRunner::new(&profile, 9, config).days(2)
    }

    #[test]
    fn comparison_sweep_produces_all_series() {
        let runner = tiny_runner();
        let axis = SweepAxis::Tasks(vec![20, 40]);
        let defaults = SweepValues {
            n_tasks: 30,
            n_workers: 40,
            options: Default::default(),
        };
        let points = runner.run_comparison(&axis, &defaults);
        assert_eq!(points.len(), 2);
        for point in &points {
            assert_eq!(point.rows.len(), 5);
            let names: Vec<&str> = point.rows.iter().map(|r| r.algorithm.as_str()).collect();
            assert_eq!(names, vec!["MTA", "IA", "EIA", "DIA", "MI"]);
            for row in &point.rows {
                assert!(row.cpu_ms >= 0.0);
                assert!(row.assigned >= 0.0);
                assert!(row.ai >= 0.0);
                assert!(row.travel_km >= 0.0);
            }
        }
        // More tasks => more assignments for the flow algorithms.
        let mta0 = &points[0].rows[0];
        let mta1 = &points[1].rows[0];
        assert!(mta1.assigned >= mta0.assigned);
    }

    #[test]
    fn flow_algorithms_share_max_cardinality() {
        let runner = tiny_runner();
        let axis = SweepAxis::Tasks(vec![40]);
        let defaults = SweepValues {
            n_tasks: 40,
            n_workers: 60,
            options: Default::default(),
        };
        let point = &runner.run_comparison(&axis, &defaults)[0];
        let by_name = |n: &str| {
            point
                .rows
                .iter()
                .find(|r| r.algorithm == n)
                .unwrap()
                .assigned
        };
        // MTA, IA, DIA solve the same max-flow; EIA too (entropy only
        // reweights); MI may assign fewer.
        assert_eq!(by_name("MTA"), by_name("IA"));
        assert_eq!(by_name("IA"), by_name("DIA"));
        assert_eq!(by_name("IA"), by_name("EIA"));
        assert!(by_name("MI") <= by_name("IA"));
    }

    #[test]
    fn ablation_sweep_reports_four_variants() {
        let runner = tiny_runner();
        let axis = SweepAxis::Workers(vec![30, 60]);
        let defaults = SweepValues {
            n_tasks: 30,
            n_workers: 40,
            options: Default::default(),
        };
        let points = runner.run_ablation(&axis, &defaults);
        assert_eq!(points.len(), 2);
        for p in &points {
            let labels: Vec<&str> = p.ai.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(labels, vec!["IA", "IA-WP", "IA-AP", "IA-AW"]);
            for (_, ai) in &p.ai {
                assert!(*ai >= 0.0 && ai.is_finite());
            }
        }
    }

    #[test]
    fn parallel_sweep_respects_thread_budget() {
        // Six sweep points on a budget of two: the chunked scheduler
        // must evaluate them on at most two worker threads (previously
        // it spawned one OS thread per point unconditionally). Verified
        // via the shared chunking plan: one contiguous shard per worker
        // thread, never more shards than the budget.
        let budget = 2usize;
        let points = 6usize;
        let bounds = sc_stats::par::chunk_bounds(points, budget);
        assert_eq!(bounds.len(), budget, "at most one shard per budget slot");
        assert_eq!(bounds, vec![(0, 3), (3, 6)]);

        // And the runner wired through it produces sequential-identical
        // metrics at that budget.
        let runner = tiny_runner();
        let axis = SweepAxis::Tasks(vec![10, 15, 20, 25, 30, 35]);
        let defaults = SweepValues {
            n_tasks: 20,
            n_workers: 30,
            options: Default::default(),
        };
        let seq = runner.run_comparison(&axis, &defaults);
        let runner = runner.sweep_threads(Parallelism::Fixed(budget));
        let par = runner.run_comparison(&axis, &defaults);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.x, b.x);
            for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
                assert_eq!(ra.assigned, rb.assigned);
                assert_eq!(ra.ai, rb.ai);
            }
        }
    }

    #[test]
    fn parallel_ablation_matches_sequential() {
        let runner = tiny_runner();
        let axis = SweepAxis::Workers(vec![20, 30, 40]);
        let defaults = SweepValues {
            n_tasks: 25,
            n_workers: 30,
            options: Default::default(),
        };
        let seq = runner.run_ablation(&axis, &defaults);
        let runner = runner.sweep_threads(Parallelism::Fixed(2));
        let par = runner.run_ablation(&axis, &defaults);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.ai, b.ai, "ablation metrics must merge deterministically");
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let runner = tiny_runner();
        let axis = SweepAxis::Tasks(vec![20, 35, 50]);
        let defaults = SweepValues {
            n_tasks: 30,
            n_workers: 40,
            options: Default::default(),
        };
        let seq = runner.run_comparison(&axis, &defaults);
        let runner = runner.sweep_threads(Parallelism::Fixed(2));
        let par = runner.run_comparison(&axis, &defaults);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.x, b.x, "point order preserved");
            for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
                assert_eq!(ra.algorithm, rb.algorithm);
                assert_eq!(ra.assigned, rb.assigned);
                assert!((ra.ai - rb.ai).abs() < 1e-12);
                assert!((ra.ap - rb.ap).abs() < 1e-12);
                assert!((ra.travel_km - rb.travel_km).abs() < 1e-12);
                // cpu_ms intentionally not compared (timing noise).
            }
        }
    }

    #[test]
    fn thread_budget_does_not_change_metrics() {
        // The RRR pool is bit-identical at any thread count, so every
        // downstream metric must match exactly between budgets.
        let mut profile = DatasetProfile::brightkite_small();
        profile.n_workers = 80;
        profile.n_venues = 80;
        profile.checkins_per_worker = 10;
        let config = DitaConfig {
            n_topics: 5,
            lda_sweeps: 10,
            infer_sweeps: 6,
            rpo: RpoParams {
                max_sets: 4_000,
                ..Default::default()
            },
            seed: 3,
            ..Default::default()
        };
        let single =
            ExperimentRunner::with_threads(&profile, 9, config, Parallelism::Single).days(1);
        let four =
            ExperimentRunner::with_threads(&profile, 9, config, Parallelism::Fixed(4)).days(1);
        assert_eq!(
            single.pipeline().model().pool().fingerprint(),
            four.pipeline().model().pool().fingerprint(),
            "training pools must be bit-identical"
        );
        let axis = SweepAxis::Tasks(vec![20]);
        let defaults = SweepValues {
            n_tasks: 20,
            n_workers: 30,
            options: Default::default(),
        };
        let a = single.run_comparison(&axis, &defaults);
        let b = four.run_comparison(&axis, &defaults);
        for (pa, pb) in a.iter().zip(b.iter()) {
            for (ra, rb) in pa.rows.iter().zip(pb.rows.iter()) {
                assert_eq!(ra.assigned, rb.assigned, "{}", ra.algorithm);
                assert_eq!(ra.ai, rb.ai);
                assert_eq!(ra.ap, rb.ap);
                assert_eq!(ra.travel_km, rb.travel_km);
            }
        }
    }

    /// FNV-1a, fed in pieces.
    struct Fnv1a(u64);

    impl Fnv1a {
        fn new() -> Self {
            Fnv1a(0xcbf2_9ce4_8422_2325)
        }

        fn eat(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn eat_f64(&mut self, v: f64) {
            self.eat(&v.to_bits().to_le_bytes());
        }
    }

    /// The figure values themselves, not only their orderings: every
    /// comparison row over two sweep points (all fields but `cpu_ms`,
    /// `f64`s as bits) and every ablation `(label, ai)` pair hash to
    /// recorded fingerprints. A moved figure value fails here by name.
    #[test]
    fn figure_values_match_the_recorded_fingerprints() {
        let runner = tiny_runner();
        let defaults = SweepValues {
            n_tasks: 30,
            n_workers: 40,
            options: Default::default(),
        };
        let mut comparison = Fnv1a::new();
        for point in runner.run_comparison(&SweepAxis::Tasks(vec![20, 40]), &defaults) {
            comparison.eat_f64(point.x);
            for row in &point.rows {
                comparison.eat(row.algorithm.as_bytes());
                for v in [row.assigned, row.ai, row.ap, row.travel_km] {
                    comparison.eat_f64(v);
                }
            }
        }
        let mut ablation = Fnv1a::new();
        for point in runner.run_ablation(&SweepAxis::Workers(vec![30, 60]), &defaults) {
            ablation.eat_f64(point.x);
            for (label, ai) in &point.ai {
                ablation.eat(label.as_bytes());
                ablation.eat_f64(*ai);
            }
        }
        assert_eq!(
            comparison.0, 0xaa64_c30e_af89_7802,
            "comparison figure values moved"
        );
        assert_eq!(
            ablation.0, 0x7031_d71a_d0c6_9dca,
            "ablation figure values moved"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let runner = tiny_runner();
        let axis = SweepAxis::Tasks(vec![25]);
        let defaults = SweepValues {
            n_tasks: 25,
            n_workers: 30,
            options: Default::default(),
        };
        let a = runner.run_comparison(&axis, &defaults);
        let b = runner.run_comparison(&axis, &defaults);
        for (pa, pb) in a.iter().zip(b.iter()) {
            for (ra, rb) in pa.rows.iter().zip(pb.rows.iter()) {
                assert_eq!(ra.assigned, rb.assigned, "{}", ra.algorithm);
                assert!((ra.ai - rb.ai).abs() < 1e-12);
                assert!((ra.travel_km - rb.travel_km).abs() < 1e-12);
            }
        }
    }
}
