//! Min-cost max-flow micro-benchmarks — the per-instance kernel of every
//! influence-aware algorithm (paper Section IV-A).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sc_graph::{Dinic, MinCostMaxFlow};
use std::hint::black_box;

/// Random bipartite assignment instance: `n` workers, `n` tasks,
/// `degree` candidate tasks per worker (a worker may draw a task twice,
/// which makes parallel edges).
fn random_instance(n: usize, degree: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n * degree);
    for w in 0..n {
        for _ in 0..degree {
            let t = rng.random_range(0..n);
            let cost = 1.0 / (rng.random::<f64>() * 5.0 + 1.0);
            edges.push((w, t, cost));
        }
    }
    edges
}

fn mcmf_solve(n: usize, edges: &[(usize, usize, f64)]) -> (i64, f64) {
    let mut g = MinCostMaxFlow::new(n, n);
    for &(w, task, c) in edges {
        g.add_edge(w, task, c);
    }
    let r = g.run();
    (r.flow, r.cost)
}

fn dinic_solve(n: usize, edges: &[(usize, usize, f64)]) -> i64 {
    let (s, t) = (2 * n, 2 * n + 1);
    let mut g = Dinic::new(2 * n + 2);
    for w in 0..n {
        g.add_edge(s, w, 1);
    }
    for task in 0..n {
        g.add_edge(n + task, t, 1);
    }
    for &(w, task, _) in edges {
        g.add_edge(w, n + task, 1);
    }
    g.max_flow(s, t)
}

fn bench_mcmf_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcmf_assignment_graph");
    group.sample_size(20);
    for &n in &[50usize, 150, 400] {
        let edges = random_instance(n, 8, 42);
        group.bench_with_input(BenchmarkId::new("mcmf", n), &n, |b, &n| {
            b.iter(|| black_box(mcmf_solve(n, &edges)));
        });
        group.bench_with_input(BenchmarkId::new("dinic_maxflow", n), &n, |b, &n| {
            b.iter(|| black_box(dinic_solve(n, &edges)));
        });
    }
    group.finish();
}

fn bench_mcmf_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcmf_edge_density");
    group.sample_size(20);
    for &degree in &[4usize, 16, 32] {
        let edges = random_instance(150, degree, 7);
        group.bench_with_input(BenchmarkId::from_parameter(degree), &degree, |b, _| {
            b.iter(|| black_box(mcmf_solve(150, &edges)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mcmf_scaling, bench_mcmf_density);
criterion_main!(benches);
