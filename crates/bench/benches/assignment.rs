//! End-to-end per-instance assignment benchmarks: the CPU-time metric of
//! the paper's comparison figures, per algorithm, at a fixed instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sc_assign::{run_scored, score_pairs, AlgorithmKind, AssignInput, EligibilityMatrix};
use sc_core::{DitaBuilder, DitaConfig};
use sc_datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use sc_influence::RpoParams;
use std::hint::black_box;

fn setup() -> (SyntheticDataset, sc_core::DitaPipeline) {
    let mut profile = DatasetProfile::brightkite_small();
    profile.n_workers = 600;
    profile.n_venues = 600;
    let dataset = SyntheticDataset::generate(&profile, 21);
    let pipeline = DitaBuilder::new()
        .config(DitaConfig {
            n_topics: 12,
            lda_sweeps: 20,
            infer_sweeps: 10,
            rpo: RpoParams {
                max_sets: 20_000,
                ..Default::default()
            },
            seed: 1,
            ..Default::default()
        })
        .build(&dataset.social, &dataset.histories)
        .expect("training");
    (dataset, pipeline)
}

fn bench_algorithms(c: &mut Criterion) {
    let (dataset, pipeline) = setup();
    let day = dataset.instance_for_day(0, 150, 120, InstanceOptions::default());
    let matrix = EligibilityMatrix::build(&day.instance);
    let scorer = pipeline.scorer();
    let entropies = pipeline.model().task_entropies(&day.task_venues);
    // Warm the per-task caches so the benchmark isolates assignment time.
    scorer.warm_eligible(&day.instance, &matrix, 1);

    let mut group = c.benchmark_group("assignment_per_instance");
    for kind in AlgorithmKind::COMPARISON {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.to_string()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let input = AssignInput::new(&day.instance, &scorer).with_entropy(&entropies);
                    let influences = score_pairs(&input, &matrix);
                    black_box(run_scored(kind, &input, &matrix, &influences))
                });
            },
        );
    }
    group.finish();
}

fn bench_eligibility(c: &mut Criterion) {
    let (dataset, _) = setup();
    let mut group = c.benchmark_group("eligibility_matrix");
    for &(s, w) in &[(100usize, 80usize), (300, 240)] {
        let day = dataset.instance_for_day(0, s, w, InstanceOptions::default());
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("S{s}_W{w}")),
            &day,
            |b, day| {
                b.iter(|| black_box(EligibilityMatrix::build(&day.instance)));
            },
        );
    }
    group.finish();
}

fn bench_influence_scoring(c: &mut Criterion) {
    let (dataset, pipeline) = setup();
    let day = dataset.instance_for_day(1, 150, 120, InstanceOptions::default());
    let matrix = EligibilityMatrix::build(&day.instance);
    c.bench_function("influence_score_all_pairs_cold", |b| {
        b.iter(|| {
            pipeline.scorer_cache().clear(); // cold: every entry is recomputed
            let scorer = pipeline.scorer();
            let mut acc = 0.0;
            for pair in matrix.pairs() {
                let w = &day.instance.workers[pair.worker_idx as usize];
                let t = &day.instance.tasks[pair.task_idx as usize];
                acc += scorer.score(w.id, t);
            }
            black_box(acc)
        });
    });
}

criterion_group!(
    benches,
    bench_algorithms,
    bench_eligibility,
    bench_influence_scoring
);
criterion_main!(benches);
