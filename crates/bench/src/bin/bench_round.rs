//! Warm vs cold scorer cache across thread counts → `BENCH_round.json`.
//!
//! Every online round builds its eligibility matrix from scratch, then
//! warms the scorer cache, scores the eligible pairs, and solves. This
//! binary measures the one thing carried across rounds — the
//! pipeline's persistent content-keyed scorer cache
//! (`OnlineConfig::incremental`, mode `incremental`) — against a cache
//! cleared before every round (`--no-incremental`, mode `cold`), per
//! thread budget.
//!
//! One pipeline is trained once; per `(mode, threads)` cell a clone is
//! re-budgeted via [`sc_core::DitaPipeline::set_threads`] (no retrain)
//! and driven through an identical scripted arrival stream with a
//! frozen pool, timing only the rounds. [`sc_sim::RoundReport`] carries
//! the per-phase wall split (eligibility / cache warm / pair scan /
//! solve) and the cache telemetry, so the JSON shows *where* the reuse
//! pays. The binary asserts:
//!
//! * every cell's reports equal the single-thread cold run
//!   report-for-report (the determinism contract across both axes);
//! * every incremental round after the first hits the cache;
//! * steady-state (round ≥ 1) incremental rounds are at least 2×
//!   faster than cold rounds at the same thread count — enforced at
//!   1 thread, where the speedup is purely algorithmic and so
//!   host-independent;
//! * on a host with ≥ 4 cores, 4 cold threads still deliver a ≥ 2×
//!   intra-round parallel speedup from the sharded scoring passes.
//!
//! A second grid times the **flow solver** on a contested workload —
//! cohort barely above the task demand, wide eligibility radius —
//! where nearly every augmentation reroutes earlier assignments, at 1
//! and 4 threads. The solver is successive shortest paths specialized
//! to the bipartite network of paper Figure 4: a pass seeds every task
//! from its cheapest still-free worker edge and never visits a free
//! worker, so it costs `O(tasks + wavefront)` rather than a rescan of
//! every free worker's edges. The solve is sequential (one augmenting
//! path per search pass) while the scoring that feeds it shards, so
//! the grid asserts byte-identical reports across the two thread
//! budgets.
//!
//! ```text
//! cargo run --release -p sc-bench --bin bench_round
//! DITA_BENCH_VENUES=150 DITA_BENCH_TASKS=400 cargo run --release -p sc-bench --bin bench_round
//! ```
//!
//! The venue count bounds the distinct task contents the stream can
//! post, i.e. the steady-state scorer-cache hit rate; fewer venues →
//! warmer cache. Parallel speedups are only meaningful on a multi-core
//! host; the JSON records `host_threads` (and which floors were
//! enforced) so a 1-core CI run is not misread as a regression.

#![forbid(unsafe_code)]

use sc_core::{AlgorithmKind, DitaBuilder, DitaConfig, DitaPipeline, OnlineConfig, Parallelism};
use sc_datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use sc_influence::RpoParams;
use sc_sim::{scripted_event, EngineBuilder, EventKind, NetworkMode, PipelineMode, RoundReport};
use sc_types::TimeInstant;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The scripted workload every `(mode, threads)` cell replays
/// identically.
#[derive(Clone, Copy)]
struct Script {
    cohort: usize,
    tasks_per_round: usize,
    rounds: usize,
    phi: f64,
    /// Worker radius: bounds eligible-pair density, i.e. how much of a
    /// round the MCMF solve is. The reuse grid keeps it small (5 km) to
    /// isolate the cache phases; the solver grid widens it so the
    /// solve phase is worth measuring.
    radius_km: f64,
    seed: u64,
}

struct Run {
    mode: &'static str,
    threads: usize,
    /// Mean wall per round over the whole run, best of `reps`.
    round_ms: f64,
    /// Mean wall per round over rounds ≥ 1 (steady state), best rep.
    steady_ms: f64,
    reports: Vec<RoundReport>,
}

/// Drives the scripted stream once on a re-budgeted clone of the
/// trained pipeline, returning per-round wall times and reports. The
/// full cohort is re-fed every round so assigned workers re-join —
/// a stable worker axis, as a live platform's morning re-login wave
/// would produce.
fn drive(
    base: &DitaPipeline,
    data: &SyntheticDataset,
    threads: usize,
    incremental: bool,
    script: Script,
) -> (Vec<f64>, Vec<RoundReport>) {
    let Script {
        cohort,
        tasks_per_round,
        rounds,
        phi,
        radius_km,
        seed,
    } = script;
    let mut pipeline = base.clone();
    pipeline.set_threads(Parallelism::Fixed(threads));
    let config = OnlineConfig {
        incremental,
        ..OnlineConfig::default()
    };
    let mut engine = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Fixed(&data.social))
        .config(config)
        .build();
    let opts = InstanceOptions {
        valid_hours: phi,
        radius_km,
        ..Default::default()
    };
    let cohort_workers = data.instance_for_day(0, 0, cohort, opts).instance.workers;
    let mut next_id = 0u32;
    let mut reports = Vec::with_capacity(rounds);
    let mut walls = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let now = TimeInstant::at(0, 8 + round as i64);
        for w in &cohort_workers {
            engine.ingest(EventKind::WorkerArrival { worker: w.clone() });
        }
        for _ in 0..tasks_per_round {
            engine.ingest(scripted_event(data, seed, next_id, now, phi));
            next_id += 1;
        }
        let t0 = Instant::now();
        reports.push(engine.run_round(now, AlgorithmKind::Ia));
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (walls, reports)
}

/// Mean of `f` over the steady-state rounds (round ≥ 1).
fn steady_mean(reports: &[RoundReport], f: impl Fn(&RoundReport) -> f64) -> f64 {
    let tail = &reports[1..];
    tail.iter().map(&f).sum::<f64>() / tail.len() as f64
}

fn main() {
    let population = env_usize("DITA_BENCH_WORKERS", 2_000);
    let cohort = env_usize("DITA_BENCH_COHORT", 1_500);
    let tasks_per_round = env_usize("DITA_BENCH_TASKS", 250);
    let rounds = env_usize("DITA_BENCH_ROUNDS", 8);
    let n_venues = env_usize("DITA_BENCH_VENUES", 300);
    let n_sets = env_usize("DITA_BENCH_SETS", 40_000);
    let reps = env_usize("DITA_BENCH_REPS", 2);
    let phi = 3.0;
    let seed = 0xD17A_0004u64;

    let mut profile = DatasetProfile::brightkite_small();
    profile.n_workers = population;
    profile.n_venues = n_venues.max(50);
    profile.checkins_per_worker = 12;

    eprintln!(
        "[bench_round] generating dataset ({population} workers, {} venues)…",
        profile.n_venues
    );
    let data = SyntheticDataset::generate(&profile, 17);
    eprintln!("[bench_round] training pipeline once (pool {n_sets} sets)…");
    let t0 = Instant::now();
    let base = DitaBuilder::new()
        .config(DitaConfig {
            n_topics: 12,
            lda_sweeps: 15,
            infer_sweeps: 10,
            rpo: RpoParams {
                max_sets: n_sets,
                ..Default::default()
            },
            seed,
            ..Default::default()
        })
        .build(&data.social, &data.histories)
        .expect("training");
    eprintln!(
        "[bench_round] trained in {:.1} ms ({} live sets)",
        t0.elapsed().as_secs_f64() * 1e3,
        base.model().pool().n_sets()
    );

    // A city-scale 5 km radius keeps the eligible-pair count (and with
    // it the *sequential* MCMF solve) small relative to the scoring
    // passes, so the reuse grid isolates what it is about: what the
    // persistent cache saves per round.
    let script = Script {
        cohort,
        tasks_per_round,
        rounds,
        phi,
        radius_km: 5.0,
        seed,
    };
    // Warm pass outside the timed region (allocator, page cache).
    let _ = drive(
        &base,
        &data,
        1,
        true,
        Script {
            rounds: 2,
            ..script
        },
    );

    let mut runs: Vec<Run> = Vec::new();
    for &(mode, incremental) in &[("cold", false), ("incremental", true)] {
        for threads in [1usize, 2, 4, 8] {
            let mut best_total = f64::INFINITY;
            let mut best = (Vec::new(), Vec::new());
            for _ in 0..reps.max(1) {
                let (walls, reports) = drive(&base, &data, threads, incremental, script);
                let total: f64 = walls.iter().sum();
                if total < best_total {
                    best_total = total;
                    best = (walls, reports);
                }
            }
            let (walls, reports) = best;
            let steady_ms = walls[1..].iter().sum::<f64>() / walls[1..].len() as f64;
            eprintln!(
                "[bench_round] {mode:>11} × {threads} thread(s): \
                 {:.2} ms/round ({steady_ms:.2} ms steady)",
                best_total / rounds as f64
            );
            runs.push(Run {
                mode,
                threads,
                round_ms: best_total / rounds as f64,
                steady_ms,
                reports,
            });
        }
    }

    let assigned: usize = runs[0].reports.iter().map(|r| r.assigned).sum();
    assert!(assigned > 0, "degenerate workload: nothing was assigned");
    for run in &runs[1..] {
        assert_eq!(
            run.reports, runs[0].reports,
            "round reports diverged at mode={} threads={} — determinism \
             contract broken",
            run.mode, run.threads
        );
    }
    let inc1 = runs
        .iter()
        .find(|r| r.mode == "incremental" && r.threads == 1)
        .unwrap();
    assert!(
        inc1.reports.iter().skip(1).all(|r| r.cache_hits > 0),
        "an incremental round past the first found no resident cache entry"
    );

    // The incremental floor is algorithmic (cache reuse), so it holds
    // on any host — enforced at 1 thread where no parallel headroom
    // can mask a regression.
    let cold1 = runs
        .iter()
        .find(|r| r.mode == "cold" && r.threads == 1)
        .unwrap();
    let incremental_speedup = cold1.steady_ms / inc1.steady_ms;
    assert!(
        incremental_speedup >= 2.0,
        "steady-state incremental speedup {incremental_speedup:.2}× \
         below the 2× floor ({:.2} ms cold vs {:.2} ms incremental)",
        cold1.steady_ms,
        inc1.steady_ms
    );

    // The intra-round parallel floor, kept on the cold runs (the
    // incremental path has less parallelizable work left by design).
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let parallel_speedup = cold1.round_ms
        / runs
            .iter()
            .find(|r| r.mode == "cold" && r.threads == 4)
            .map(|r| r.round_ms)
            .unwrap();
    let enforce_parallel_floor = host_threads >= 4;
    if enforce_parallel_floor {
        assert!(
            parallel_speedup >= 2.0,
            "4-thread cold per-round speedup {parallel_speedup:.2}× \
             below the 2× floor"
        );
    }

    // --- Solver grid: the MCMF solve itself. ---------------------------
    // A contested workload: the cohort barely exceeds the tasks per
    // round and a wide radius makes most pairs eligible, so nearly
    // every augmentation reroutes earlier assignments through long
    // residual chains — the regime where the solve phase dominates a
    // round. (The reuse grid above is the opposite: an abundant cohort
    // and a tight radius keep the solve small to isolate the cache
    // phases.) Reports must agree across thread budgets —
    // the budget may only change wall time, never an assignment.
    let solver_script = Script {
        cohort: 900,
        tasks_per_round: 800,
        rounds: 5,
        radius_km: 30.0,
        ..script
    };
    struct SolverRun {
        threads: usize,
        round_ms: f64,
        solve_ms: f64,
        passes: f64,
        augmentations: f64,
        reports: Vec<RoundReport>,
    }
    let mut solver_runs: Vec<SolverRun> = Vec::new();
    for threads in [1usize, 4] {
        let mut best_total = f64::INFINITY;
        let mut best = (Vec::new(), Vec::new());
        for _ in 0..reps.max(1) {
            let (walls, reports) = drive(&base, &data, threads, true, solver_script);
            let total: f64 = walls.iter().sum();
            if total < best_total {
                best_total = total;
                best = (walls, reports);
            }
        }
        let (_, reports) = best;
        let solve_ms = steady_mean(&reports, |x| x.solve_ms);
        eprintln!(
            "[bench_round] solver × {threads} thread(s): \
             {:.2} ms/round, {solve_ms:.2} ms solve",
            best_total / solver_script.rounds as f64
        );
        solver_runs.push(SolverRun {
            threads,
            round_ms: best_total / solver_script.rounds as f64,
            solve_ms,
            passes: steady_mean(&reports, |x| x.solve_passes as f64),
            augmentations: steady_mean(&reports, |x| x.solve_augmentations as f64),
            reports,
        });
    }
    let solver_assigned: usize = solver_runs[0].reports.iter().map(|r| r.assigned).sum();
    assert!(
        solver_assigned > 0,
        "degenerate solver workload: nothing was assigned"
    );
    for run in &solver_runs[1..] {
        assert_eq!(
            run.reports, solver_runs[0].reports,
            "round reports diverged at threads={} — the thread budget \
             leaked into results",
            run.threads
        );
    }

    let run_rows: Vec<String> = runs
        .iter()
        .map(|r| {
            let hits = steady_mean(&r.reports, |x| x.cache_hits as f64);
            let misses = steady_mean(&r.reports, |x| x.cache_misses as f64);
            let hit_rate = if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            };
            format!(
                "    {{\"mode\": \"{}\", \"threads\": {}, \"round_ms\": {:.3}, \
                 \"steady_round_ms\": {:.3}, \"cache_hit_rate\": {:.3}, \
                 \"phases_ms\": {{\"eligibility\": {:.3}, \"warm\": {:.3}, \
                 \"score\": {:.3}, \"solve\": {:.3}}}}}",
                r.mode,
                r.threads,
                r.round_ms,
                r.steady_ms,
                hit_rate,
                steady_mean(&r.reports, |x| x.eligibility_ms),
                steady_mean(&r.reports, |x| x.warm_ms),
                steady_mean(&r.reports, |x| x.score_ms),
                steady_mean(&r.reports, |x| x.solve_ms),
            )
        })
        .collect();
    let solver_rows: Vec<String> = solver_runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"round_ms\": {:.3}, \
                 \"solve_ms\": {:.3}, \"passes_per_round\": {:.1}, \
                 \"augmentations_per_round\": {:.1}}}",
                r.threads, r.round_ms, r.solve_ms, r.passes, r.augmentations,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"incremental_round_pipeline\",\n  \"population\": {population},\n  \"worker_cohort\": {cohort},\n  \"tasks_per_round\": {tasks_per_round},\n  \"rounds\": {rounds},\n  \"venues\": {},\n  \"pool_sets\": {},\n  \"reps\": {reps},\n  \"host_threads\": {host_threads},\n  \"assigned_total\": {assigned},\n  \"reports_identical_across_threads\": true,\n  \"reports_identical_across_modes\": true,\n  \"steady_state_incremental_speedup_at_1_thread\": {incremental_speedup:.3},\n  \"incremental_speedup_floor_enforced\": true,\n  \"cold_speedup_at_4_threads\": {parallel_speedup:.3},\n  \"parallel_speedup_floor_enforced\": {enforce_parallel_floor},\n  \"runs\": [\n{}\n  ],\n  \"contested_solve\": {{\n  \"worker_cohort\": {},\n  \"tasks_per_round\": {},\n  \"rounds\": {},\n  \"radius_km\": {:.1},\n  \"reports_identical_across_threads\": true,\n  \"runs\": [\n{}\n  ]\n  }}\n}}\n",
        profile.n_venues,
        base.model().pool().n_sets(),
        run_rows.join(",\n"),
        solver_script.cohort,
        solver_script.tasks_per_round,
        solver_script.rounds,
        solver_script.radius_km,
        solver_rows.join(",\n")
    );

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_round.json");
    std::fs::write(&path, &json).expect("write BENCH_round.json");
    println!("{json}");
    eprintln!("[bench_round] written to {}", path.display());
}
