//! Online-engine throughput and maintenance cost → `BENCH_online.json`.
//!
//! Drives a multi-day streaming run on [`sc_sim::OnlineEngine`] and
//! measures, per round: assignment throughput (rounds/sec) and pool
//! maintenance wall time. Two baselines anchor the numbers:
//!
//! * **full retrain** — one from-scratch RPO pool build, the cost an
//!   online platform would pay per round without incremental
//!   maintenance; the report records how many times cheaper the
//!   bounded rotation is, and
//! * **retrain-every-round oracle** — the same arrival stream assigned
//!   by a pipeline whose pool *is* rebuilt from scratch each round;
//!   the engine's end-of-run Average Influence must stay within a few
//!   percent of it (the rotation only swaps RRR samples for fresh iid
//!   samples of the same distribution).
//!
//! ```text
//! cargo run --release -p sc-bench --bin bench_online
//! ```

#![forbid(unsafe_code)]

use sc_bench::write_artifact;
use sc_core::{AlgorithmKind, DitaBuilder, OnlineConfig};
use sc_datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use sc_influence::Rpo;
use sc_sim::{scripted_event, EngineBuilder, EventKind, NetworkMode, PipelineMode};
use sc_types::{TimeInstant, Worker};
use std::time::Instant;

/// One round of the precomputed arrival script.
struct RoundScript {
    now: TimeInstant,
    workers: Vec<Worker>,
    tasks: Vec<EventKind>,
}

/// Builds the deterministic multi-day arrival script shared by the
/// live engine and the oracle.
fn build_script(
    data: &SyntheticDataset,
    days: usize,
    cohort: usize,
    tasks_per_round: usize,
    phi: f64,
    seed: u64,
) -> Vec<RoundScript> {
    let opts = InstanceOptions {
        valid_hours: phi,
        ..Default::default()
    };
    let mut script = Vec::new();
    let mut next_id = 0u32;
    for day in 0..days {
        for hour in 8..20i64 {
            let now = TimeInstant::at(day as i64, hour);
            let workers = if hour == 8 {
                data.instance_for_day(day, 0, cohort, opts).instance.workers
            } else {
                Vec::new()
            };
            let mut tasks = Vec::new();
            for _ in 0..tasks_per_round {
                tasks.push(scripted_event(data, seed, next_id, now, phi));
                next_id += 1;
            }
            script.push(RoundScript {
                now,
                workers,
                tasks,
            });
        }
    }
    script
}

fn main() {
    let days: usize = 2;
    let cohort: usize = 120;
    let tasks_per_round: usize = 20;
    let growth_cap: usize = 1_024;
    let horizon: u32 = 6;
    let phi = 3.0;
    let seed = 0xD17A_0002u64;
    let algorithm = AlgorithmKind::Ia;

    let profile = DatasetProfile::brightkite_small();
    eprintln!(
        "[bench_online] training on '{}' ({} workers)…",
        profile.name, profile.n_workers
    );
    let data = SyntheticDataset::generate(&profile, seed);
    let online = OnlineConfig {
        round_hours: 1,
        growth_cap,
        eviction_horizon: horizon,
        target_sets: 0,
        incremental: true,
    };
    let config = sc_bench::config_for(sc_sim::ExperimentScale::Small);
    let build = |cfg| {
        DitaBuilder::new()
            .config(cfg)
            .online(online)
            .build(&data.social, &data.histories)
            .expect("training")
    };
    let pipeline = build(config);
    let rpo_params = pipeline.model().config().rpo;
    let master_seed = pipeline.model().pool().master_seed();
    let trained_sets = pipeline.model().pool().n_sets();

    let script = build_script(&data, days, cohort, tasks_per_round, phi, seed);
    let rounds = script.len();

    // --- Live engine: bounded rotation, zero retrains. -----------------
    eprintln!(
        "[bench_online] live engine: {rounds} rounds, quantum {growth_cap}, horizon {horizon}…"
    );
    let mut engine = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline.clone())))
        .network(NetworkMode::Fixed(&data.social))
        .build();
    let mut maint_ms = Vec::with_capacity(rounds);
    let t0 = Instant::now();
    for r in &script {
        for w in &r.workers {
            engine.ingest(EventKind::WorkerArrival { worker: w.clone() });
        }
        for t in &r.tasks {
            engine.ingest(t.clone());
        }
        let report = engine.run_round(r.now, algorithm);
        maint_ms.push(report.maintenance_ms);
    }
    let live_wall_s = t0.elapsed().as_secs_f64();
    let live = engine.summary();
    assert_eq!(
        live.published,
        live.assigned + live.expired + live.still_open,
        "task conservation broken"
    );
    let avg_maint_ms: f64 = maint_ms.iter().sum::<f64>() / rounds as f64;
    let max_maint_ms = maint_ms.iter().cloned().fold(0.0f64, f64::max);

    // --- Full-retrain baseline: one from-scratch RPO build. ------------
    let mut full_retrain_ms = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let (pool, _) = Rpo::new(rpo_params).build_pool_seeded(&data.social, master_seed);
        full_retrain_ms = full_retrain_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(pool.n_sets(), trained_sets);
    }
    let retrain_speedup = full_retrain_ms / avg_maint_ms.max(1e-9);

    // --- Retrain-every-round oracle on the same script. ----------------
    eprintln!("[bench_online] oracle: retraining the pool every round…");
    let mut oracle = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Fixed(&data.social))
        .config(OnlineConfig::default())
        .build();
    let t1 = Instant::now();
    for (i, r) in script.iter().enumerate() {
        let round_seed = rand::mix_stream(master_seed, i as u64 + 1);
        let (pool, _) = Rpo::new(rpo_params).build_pool_seeded(&data.social, round_seed);
        *oracle.pipeline_mut().model_mut().pool_mut() = pool;
        for w in &r.workers {
            oracle.ingest(EventKind::WorkerArrival { worker: w.clone() });
        }
        for t in &r.tasks {
            oracle.ingest(t.clone());
        }
        oracle.run_round(r.now, algorithm);
    }
    let oracle_wall_s = t1.elapsed().as_secs_f64();
    let oracle_summary = oracle.summary();

    let ai_live = live.average_influence;
    let ai_oracle = oracle_summary.average_influence;
    let ai_rel_diff = if ai_oracle == 0.0 {
        0.0
    } else {
        (ai_live - ai_oracle).abs() / ai_oracle
    };

    eprintln!(
        "[bench_online] live: {:.1} rounds/s, maintenance avg {:.2} ms (max {:.2} ms); \
         full retrain {:.1} ms → {:.1}× cheaper per round",
        rounds as f64 / live_wall_s,
        avg_maint_ms,
        max_maint_ms,
        full_retrain_ms,
        retrain_speedup
    );
    eprintln!(
        "[bench_online] AI live {ai_live:.4} vs oracle {ai_oracle:.4} ({:.2}% apart); \
         oracle wall {oracle_wall_s:.2}s vs live {live_wall_s:.2}s",
        ai_rel_diff * 100.0
    );

    let pool = engine.pipeline().model().pool();
    let json = format!(
        "{{\n  \"bench\": \"online_engine\",\n  \"profile\": \"{}\",\n  \"days\": {days},\n  \"rounds\": {rounds},\n  \"tasks_per_round\": {tasks_per_round},\n  \"worker_cohort\": {cohort},\n  \"growth_cap\": {growth_cap},\n  \"eviction_horizon\": {horizon},\n  \"trained_sets\": {trained_sets},\n  \"live_sets\": {},\n  \"stream_window\": [{}, {}],\n  \"rounds_per_sec\": {:.2},\n  \"maintenance_avg_ms\": {:.3},\n  \"maintenance_max_ms\": {:.3},\n  \"sets_added\": {},\n  \"sets_evicted\": {},\n  \"full_retrain_ms\": {:.3},\n  \"retrain_speedup\": {:.2},\n  \"maintenance_at_least_5x_cheaper\": {},\n  \"ai_live\": {:.6},\n  \"ai_oracle\": {:.6},\n  \"ai_rel_diff\": {:.6},\n  \"ai_within_5pct_of_oracle\": {},\n  \"assignment_rate_live\": {:.4},\n  \"assignment_rate_oracle\": {:.4},\n  \"full_retrains_live\": 0\n}}\n",
        profile.name,
        pool.n_sets(),
        pool.stream_base(),
        pool.stream_base() + pool.n_sets(),
        rounds as f64 / live_wall_s,
        avg_maint_ms,
        max_maint_ms,
        live.sets_added,
        live.sets_evicted,
        full_retrain_ms,
        retrain_speedup,
        retrain_speedup >= 5.0,
        ai_live,
        ai_oracle,
        ai_rel_diff,
        ai_rel_diff <= 0.05,
        live.assignment_rate(),
        oracle_summary.assignment_rate(),
    );

    assert!(
        retrain_speedup >= 5.0,
        "bounded maintenance must be at least 5× cheaper than a full retrain \
         (got {retrain_speedup:.2}×)"
    );
    assert!(
        ai_rel_diff <= 0.05,
        "end-of-run AI must stay within 5% of the retrain-every-round oracle \
         (got {:.2}%)",
        ai_rel_diff * 100.0
    );

    write_artifact("online", &json);
}
