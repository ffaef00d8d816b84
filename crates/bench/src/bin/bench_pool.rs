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
//! Speedups are only meaningful on a multi-core host; the JSON records
//! `host_threads` so a 1-core CI run is not misread as a regression.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_bench::{host_threads, write_artifact};
use sc_datagen::generate_social_edges;
use sc_influence::{RrrPool, SocialNetwork};
use std::time::Instant;

struct Run {
    threads: usize,
    wall_ms: f64,
    fingerprint: u64,
}

fn main() {
    let n_workers: usize = 20_000;
    let n_sets: usize = 200_000;
    let reps: usize = 3;
    let master_seed = 0xD17A_0001u64;

    eprintln!("[bench_pool] building network: {n_workers} workers, avg degree 4…");
    let mut rng = SmallRng::seed_from_u64(7);
    let edges = generate_social_edges(n_workers, 4, &mut rng);
    let net = SocialNetwork::from_undirected_edges(n_workers, &edges);

    // Warm the allocator and page cache outside the timed region.
    let _ = RrrPool::generate_sharded(&net, n_sets / 10, master_seed, 1);

    let mut runs: Vec<Run> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let mut best = f64::INFINITY;
        let mut fingerprint = 0u64;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let pool = RrrPool::generate_sharded(&net, n_sets, master_seed, threads);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            best = best.min(ms);
            fingerprint = pool.fingerprint();
        }
        eprintln!(
            "[bench_pool] {threads} thread(s): {best:.1} ms ({:.0} sets/s)",
            n_sets as f64 / (best / 1e3)
        );
        runs.push(Run {
            threads,
            wall_ms: best,
            fingerprint,
        });
    }

    let identical = runs.iter().all(|r| r.fingerprint == runs[0].fingerprint);
    assert!(
        identical,
        "pools diverged across thread counts — determinism guarantee broken"
    );

    let single_ms = runs[0].wall_ms;
    let host_threads = host_threads();
    let run_rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"wall_ms\": {:.3}, \"sets_per_sec\": {:.0}, \"speedup_vs_single\": {:.3}}}",
                r.threads,
                r.wall_ms,
                n_sets as f64 / (r.wall_ms / 1e3),
                single_ms / r.wall_ms
            )
        })
        .collect();
    let json = format!
("{{\n  \"bench\": \"rrr_pool_generation\",\n  \"n_workers\": {n_workers},\n  \"n_edges\": {},\n  \"n_sets\": {n_sets},\n  \"reps\": {reps},\n  \"host_threads\": {host_threads},\n  \"master_seed\": {master_seed},\n  \"fingerprint\": \"{:#018x}\",\n  \"identical_across_threads\": {identical},\n  \"runs\": [\n{}\n  ]\n}}\n",
        net.n_edges(),
        runs[0].fingerprint,
        run_rows.join(",\n")
    );

    write_artifact("pool", &json);
}
