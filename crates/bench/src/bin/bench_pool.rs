//! Pool-generation throughput across thread counts → `BENCH_pool.json`.
//!
//! Times [`RrrPool::generate_sharded`] at 1/2/4/8 threads on a synthetic
//! social network, verifies the pools are bit-identical (the engine's
//! core guarantee), and writes the measurements to `BENCH_pool.json` at
//! the repository root so successive PRs can track the sampling engine's
//! perf trajectory.
//!
//! ```text
//! cargo run --release -p sc-bench --bin bench_pool
//! ```
//!
//! Every rep times each thread count once, in turn, so drift on a
//! shared host falls on all of them alike. A thread count's `wall_ms`
//! is the median of its reps, with their median absolute deviation
//! (`wall_ms_mad`) beside it, and its speedup is the 1-thread median
//! over its own: one draw is no measurement on a noisy host.
//!
//! Speedups are only meaningful on a multi-core host; the JSON records
//! `host_threads` so a 1-core CI run is not misread as a regression.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_bench::{host_threads, write_artifact};
use sc_datagen::generate_social_edges;
use sc_influence::{RrrPool, SocialNetwork};
use std::time::Instant;

/// Thread counts timed, in the order each rep runs them.
const THREADS: [usize; 4] = [1, 2, 4, 8];

struct Run {
    threads: usize,
    /// Median wall time of the reps, ms.
    wall_ms: f64,
    /// Median absolute deviation of the reps from `wall_ms`, ms.
    wall_ms_mad: f64,
}

/// The median of `xs`, which it sorts; `xs` holds an odd count.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let n_workers: usize = 20_000;
    let n_sets: usize = 200_000;
    let reps: usize = 9;
    let master_seed = 0xD17A_0001u64;

    eprintln!("[bench_pool] building network: {n_workers} workers, avg degree 4…");
    let mut rng = SmallRng::seed_from_u64(7);
    let edges = generate_social_edges(n_workers, 4, &mut rng);
    let net = SocialNetwork::from_undirected_edges(n_workers, &edges);

    // Untimed, the 1-thread pool warms the allocator and page cache and
    // gives the fingerprint every timed pool must equal.
    let fingerprint = RrrPool::generate_sharded(&net, n_sets, master_seed, 1).fingerprint();

    let mut wall_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); THREADS.len()];
    for _ in 0..reps {
        for (wall, &threads) in wall_ms.iter_mut().zip(&THREADS) {
            let t0 = Instant::now();
            let pool = RrrPool::generate_sharded(&net, n_sets, master_seed, threads);
            wall.push(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                pool.fingerprint(),
                fingerprint,
                "the pool at {threads} threads diverged — determinism guarantee broken"
            );
        }
    }
    let runs: Vec<Run> = THREADS
        .iter()
        .zip(&mut wall_ms)
        .map(|(&threads, wall)| {
            let mid = median(wall);
            let mut dev: Vec<f64> = wall.iter().map(|ms| (ms - mid).abs()).collect();
            let run = Run {
                threads,
                wall_ms: mid,
                wall_ms_mad: median(&mut dev),
            };
            eprintln!(
                "[bench_pool] {threads} thread(s): median {mid:.1} ms, MAD {:.1} ms ({:.0} sets/s)",
                run.wall_ms_mad,
                n_sets as f64 / (mid / 1e3)
            );
            run
        })
        .collect();

    let single_ms = runs[0].wall_ms;
    let host_threads = host_threads();
    let run_rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"wall_ms\": {:.3}, \"wall_ms_mad\": {:.3}, \"sets_per_sec\": {:.0}, \"speedup_vs_single\": {:.3}}}",
                r.threads,
                r.wall_ms,
                r.wall_ms_mad,
                n_sets as f64 / (r.wall_ms / 1e3),
                single_ms / r.wall_ms
            )
        })
        .collect();
    let json = format!
("{{\n  \"bench\": \"rrr_pool_generation\",\n  \"n_workers\": {n_workers},\n  \"n_edges\": {},\n  \"n_sets\": {n_sets},\n  \"reps\": {reps},\n  \"host_threads\": {host_threads},\n  \"master_seed\": {master_seed},\n  \"fingerprint\": \"{fingerprint:#018x}\",\n  \"identical_across_threads\": true,\n  \"runs\": [\n{}\n  ]\n}}\n",
        net.n_edges(),
        run_rows.join(",\n")
    );

    write_artifact("pool", &json);
}
