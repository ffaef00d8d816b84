//! Ablation benches for the design choices called out in DESIGN.md §5:
//!
//! * `rrr_pool_vs_perworker` — one shared RRR pool versus re-running
//!   Algorithm 1's sampling for every source worker.
//! * `mcmf_cost_repr` — raw `f64` costs versus integer-quantized costs
//!   (quantization changes search patterns and tie behaviour).
//! * `grid_cell_size` — eligibility query cost versus grid granularity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_datagen::{generate_social_edges, DatasetProfile, InstanceOptions, SyntheticDataset};
use sc_graph::MinCostMaxFlow;
use sc_influence::{PropagationModel, RrrPool, SocialNetwork};
use sc_spatial::GridIndex;
use sc_types::Location;
use std::hint::black_box;

fn bench_rrr_pool_vs_perworker(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let n = 800;
    let edges = generate_social_edges(n, 4, &mut rng);
    let net = SocialNetwork::from_undirected_edges(n, &edges);
    let n_sets = 8_000;
    let n_sources = 20; // candidate workers scored per task batch

    let mut group = c.benchmark_group("rrr_pool_vs_perworker");
    group.sample_size(10);
    group.bench_function("shared_pool_once", |b| {
        b.iter(|| {
            // Pinned to one thread so timings compare across machines.
            let pool =
                RrrPool::generate_sharded(&net, n_sets, PropagationModel::WeightedCascade, 2, 1);
            let mut acc = 0.0;
            for w in 0..n_sources {
                acc += pool.total_propagation(w);
            }
            black_box(acc)
        });
    });
    group.bench_function("per_worker_regeneration", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for w in 0..n_sources {
                // Algorithm 1 run per source worker: fresh sampling each time.
                let pool = RrrPool::generate_sharded(
                    &net,
                    n_sets,
                    PropagationModel::WeightedCascade,
                    3 + w as u64,
                    1,
                );
                acc += pool.total_propagation(w);
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn assignment_edges(n: usize, degree: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .flat_map(|w| {
            let mut rng2 = SmallRng::seed_from_u64(seed ^ (w as u64) << 17);
            (0..degree)
                .map(move |_| {
                    (
                        w,
                        rng2.random_range(0..n),
                        1.0 / (rng2.random::<f64>() * 4.0 + 1.0),
                    )
                })
                .collect::<Vec<_>>()
        })
        .inspect(|_| {
            let _ = rng.random::<u8>();
        })
        .collect()
}

fn solve(n: usize, edges: &[(usize, usize, f64)], quantize: bool) -> f64 {
    let (s, t) = (2 * n, 2 * n + 1);
    let mut g = MinCostMaxFlow::new(2 * n + 2);
    for w in 0..n {
        g.add_edge(s, w, 1, 0.0);
    }
    for task in 0..n {
        g.add_edge(n + task, t, 1, 0.0);
    }
    for &(w, task, cost) in edges {
        let cost = if quantize {
            (cost * 10_000.0).round() / 10_000.0
        } else {
            cost
        };
        g.add_edge(w, n + task, 1, cost);
    }
    g.run(s, t).cost
}

fn bench_mcmf_cost_repr(c: &mut Criterion) {
    let n = 150;
    let edges = assignment_edges(n, 8, 9);
    let mut group = c.benchmark_group("mcmf_cost_repr");
    group.sample_size(10);
    group.bench_function("f64_raw", |b| {
        b.iter(|| black_box(solve(n, &edges, false)));
    });
    group.bench_function("quantized_1e4", |b| {
        b.iter(|| black_box(solve(n, &edges, true)));
    });
    group.finish();
}

fn bench_grid_cell_size(c: &mut Criterion) {
    let data = SyntheticDataset::generate(&DatasetProfile::brightkite_small(), 31);
    let day = data.instance_for_day(0, 300, 200, InstanceOptions::default());
    let task_locs: Vec<Location> = day.instance.tasks.iter().map(|t| t.location).collect();

    let mut group = c.benchmark_group("grid_cell_size");
    for &cell in &[1.0f64, 5.0, 12.5, 50.0] {
        group.bench_with_input(BenchmarkId::from_parameter(cell), &cell, |b, &cell| {
            let grid = GridIndex::build(&task_locs, cell);
            b.iter(|| {
                let mut acc = 0usize;
                for w in &day.instance.workers {
                    acc += grid.count_within(&w.location, w.radius_km);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rrr_pool_vs_perworker,
    bench_mcmf_cost_repr,
    bench_grid_cell_size
);
criterion_main!(benches);
