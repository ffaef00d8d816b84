//! Dataset-replay throughput and fold-in cost → `BENCH_replay.json`.
//!
//! Replays one day of a loaded trace (a synthetic BK-small dataset with
//! a truncated "late cohort" so the population is genuinely dynamic)
//! through `sc_sim::replay_day` and measures:
//!
//! * **rounds/s** — end-to-end replay throughput (training excluded);
//! * **fold-in cost vs full retrain** — the wall time of folding one
//!   unseen worker into the live model (graph rebuild + topic fold-in +
//!   willingness fit + RRR splice) against the cost of the full
//!   pipeline retrain it replaces;
//! * **bit-identity across thread budgets** — the replay is run at
//!   `threads = 1` and `threads = N` and the reports must compare
//!   equal, the same contract release CI pins in
//!   `crates/sim/tests/replay_determinism.rs`;
//! * **fold-in efficacy** — every folded worker is scored against a
//!   task at their first observed venue; the report records how many
//!   earn non-zero influence (the zero-influence trap this subsystem
//!   closes).
//!
//! ```text
//! cargo run --release -p sc-bench --bin bench_replay
//! ```

#![forbid(unsafe_code)]

use sc_bench::{env_usize, host_threads, write_artifact};
use sc_core::{AlgorithmKind, DitaBuilder, DitaConfig, OnlineConfig};
use sc_datagen::{DatasetProfile, LoadedDataset, ReplayOptions, SyntheticDataset};
use sc_influence::{Parallelism, RpoParams};
use sc_sim::replay_day;
use sc_types::{HistoryStore, TimeInstant, WorkerId};
use std::time::Instant;

/// The benchmark trace: a synthetic BK-small world where every
/// `late_every`-th worker's history is truncated to the replay day, so
/// they arrive unseen mid-replay.
fn build_trace(n_workers: usize, late_every: usize, day: i64, seed: u64) -> LoadedDataset {
    let mut profile = DatasetProfile::brightkite_small();
    profile.n_workers = n_workers;
    profile.n_venues = (n_workers / 2).max(40);
    profile.checkins_per_worker = 14;
    let data = SyntheticDataset::generate(&profile, seed);
    let mut store = HistoryStore::with_workers(profile.n_workers);
    for (w, history) in data.histories.iter() {
        for r in history.records() {
            if w.index() % late_every == 0 && r.arrived.day() < day {
                continue;
            }
            store.push(r.clone());
        }
    }
    LoadedDataset::from_parts(data.social_edges.clone(), store, seed).unwrap()
}

fn config(threads: usize) -> DitaConfig {
    DitaConfig {
        n_topics: 8,
        lda_sweeps: 15,
        infer_sweeps: 8,
        rpo: RpoParams {
            max_sets: 30_000,
            threads: Parallelism::Fixed(threads),
            ..Default::default()
        },
        online: OnlineConfig {
            round_hours: 1,
            growth_cap: 1_024,
            eviction_horizon: 6,
            target_sets: 0,
            incremental: true,
        },
        seed: 0xD17A_0005,
    }
}

fn main() {
    let n_workers: usize = 240;
    let late_every: usize = 8;
    let threads = env_usize("DITA_THREADS", 4).max(2);
    let day = 1i64;
    let seed = 0xD17A_0005u64;
    let algorithm = AlgorithmKind::Ia;
    let opts = ReplayOptions {
        task_every: 2,
        valid_hours: 3.0,
        ..Default::default()
    };

    eprintln!("[bench_replay] building trace ({n_workers} workers, 1 in {late_every} late)…");
    let data = build_trace(n_workers, late_every, day, seed);

    // --- Replay at the reference budget, timed. ------------------------
    eprintln!("[bench_replay] replaying day {day} (threads = 1)…");
    let t0 = Instant::now();
    let single = replay_day(&data, day, config(1), &opts, algorithm).expect("replay");
    let wall_single_s = t0.elapsed().as_secs_f64();

    eprintln!("[bench_replay] replaying day {day} (threads = {threads})…");
    let t1 = Instant::now();
    let multi = replay_day(&data, day, config(threads), &opts, algorithm).expect("replay");
    let wall_multi_s = t1.elapsed().as_secs_f64();

    // Bit-identity across budgets: the whole report, round for round.
    assert_eq!(
        single.report, multi.report,
        "replay reports must be bit-identical across thread budgets"
    );
    let deterministic = single.report == multi.report;

    let report = &multi.report;
    let rounds = report.rounds.len();
    let s = &report.summary;
    assert_eq!(s.published, s.assigned + s.expired + s.still_open);
    assert!(
        report.fold_ins() > 0,
        "the late cohort must trigger fold-ins"
    );

    // --- Fold-in efficacy: non-zero influence without a retrain. -------
    let scorer = multi.engine.pipeline().scorer();
    let mut nonzero = 0usize;
    for &(trace_id, dense) in &report.folded {
        let rec = &data.histories.history(trace_id).records()[0];
        let venue = data
            .venues
            .iter()
            .find(|v| v.id == rec.venue)
            .expect("venue reconstructed");
        let task = sc_types::Task::with_categories(
            sc_types::TaskId::new(900_000 + dense.raw()),
            venue.location,
            TimeInstant::at(day, 20),
            sc_types::Duration::hours(3),
            venue.categories.clone(),
        );
        if scorer.score(dense, &task) > 0.0 {
            nonzero += 1;
        }
    }

    // --- Fold-in cost vs the full retrain it replaces. -----------------
    // Re-train on the slice, then time folding each late worker into a
    // fresh copy of the trained state — the exact work an
    // `EventKind::WorkerNew` event does per arrival.
    eprintln!("[bench_replay] measuring fold-in vs full retrain…");
    let slice = data.training_slice(day).expect("slice");
    let cfg = config(threads);
    let mut retrain_ms = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let p = DitaBuilder::new()
            .config(cfg)
            .build(&slice.social, &slice.histories)
            .expect("training");
        retrain_ms = retrain_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(p.model().n_workers(), slice.social.n_workers());
    }
    let base = DitaBuilder::new()
        .config(cfg)
        .build(&slice.social, &slice.histories)
        .expect("training");
    let late: Vec<WorkerId> = report.folded.iter().map(|&(t, _)| t).collect();
    let mut pipeline = base.clone();
    let mut net = slice.social.clone();
    // Grow the trace→dense map exactly like replay_day does, so each
    // timed fold sees the same friend set (trained workers *and*
    // already-folded late arrivals) as the real per-arrival work.
    let mut to_dense = slice.to_dense.clone();
    let t2 = Instant::now();
    for trace_id in &late {
        let dense = WorkerId::from(pipeline.model().n_workers());
        let raw: Vec<u32> = data
            .social
            .informs(trace_id.raw())
            .iter()
            .filter_map(|f| to_dense.get(&WorkerId::new(*f)).map(|d| d.raw()))
            .collect();
        net = net.fold_in_worker(&raw);
        let mut evidence = sc_types::History::new();
        for r in data.histories.history(*trace_id).records() {
            let mut rec = r.clone();
            rec.worker = dense;
            evidence.push(rec);
        }
        pipeline.fold_in_worker(&net, &evidence);
        to_dense.insert(*trace_id, dense);
    }
    let fold_total_ms = t2.elapsed().as_secs_f64() * 1e3;
    let fold_avg_ms = fold_total_ms / late.len() as f64;
    let fold_speedup = retrain_ms / fold_avg_ms.max(1e-9);

    let rounds_per_sec = rounds as f64 / wall_multi_s;
    eprintln!(
        "[bench_replay] {rounds} rounds in {wall_multi_s:.2}s ({rounds_per_sec:.1} rounds/s); \
         threads=1 took {wall_single_s:.2}s; fold-in avg {fold_avg_ms:.2} ms vs retrain \
         {retrain_ms:.1} ms → {fold_speedup:.0}× cheaper; {}/{} folded workers score non-zero",
        nonzero,
        report.fold_ins()
    );

    assert!(
        fold_speedup >= 5.0,
        "fold-in must be at least 5× cheaper than a full retrain (got {fold_speedup:.1}×)"
    );
    assert!(
        nonzero > 0,
        "at least one folded worker must earn non-zero influence"
    );

    let json = format!(
        "{{\n  \"bench\": \"dataset_replay\",\n  \"trace_workers\": {n_workers},\n  \"late_every\": {late_every},\n  \"replay_day\": {day},\n  \"trained_workers\": {},\n  \"rounds\": {rounds},\n  \"checkins\": {},\n  \"tasks_published\": {},\n  \"assigned\": {},\n  \"assignment_rate\": {:.4},\n  \"average_influence\": {:.6},\n  \"rounds_per_sec\": {rounds_per_sec:.2},\n  \"wall_threads1_s\": {wall_single_s:.3},\n  \"wall_threadsN_s\": {wall_multi_s:.3},\n  \"bench_threads\": {threads},\n  \"host_threads\": {},\n  \"deterministic_across_threads\": {deterministic},\n  \"fold_ins\": {},\n  \"folded_nonzero_influence\": {nonzero},\n  \"fold_in_avg_ms\": {fold_avg_ms:.3},\n  \"full_retrain_ms\": {retrain_ms:.3},\n  \"fold_in_speedup\": {fold_speedup:.1},\n  \"full_retrains_during_replay\": 0\n}}\n",
        report.trained_workers,
        report.checkins,
        s.published,
        s.assigned,
        s.assignment_rate(),
        s.average_influence,
        host_threads(),
        report.fold_ins(),
    );

    write_artifact("replay", &json);
}
