//! The persistent scorer cache must be invisible in results: an
//! engine that carries the cache across rounds must produce round
//! reports — and a lifetime summary — byte-identical to the
//! `--no-incremental` baseline, which clears the cache before every
//! round, at any thread count, even while the pool rotates and a
//! previously-unseen worker is folded into the live network
//! mid-stream (the one event that grows every scorer-cache entry:
//! resident entries are extended with the new worker's willingness,
//! and the cold-cache rounds, which recompute every entry, are the
//! exactness oracle for that extension).
//!
//! Four runs of the same arrival script are compared pairwise:
//! `{incremental, rebuild} × {threads 1, 4}`. Telemetry fields
//! (`cache_*`, `elig_*`, the `*_ms` phase split) are excluded from
//! report equality by design — the suite separately asserts that the
//! warm cache actually engaged and the cold one never did, and that
//! every round built its eligibility matrix from scratch.

use sc_core::{
    DitaBuilder, DitaConfig, DitaPipeline, InfluenceScorer, InfluenceVariant, OnlineConfig,
    Parallelism, ScorerCache,
};
use sc_datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use sc_influence::RpoParams;
use sc_sim::{
    scripted_event, EngineBuilder, EventKind, NetworkMode, OnlineSummary, PipelineMode, RoundReport,
};
use sc_types::{CheckIn, History, TimeInstant, VenueId, Worker, WorkerId};

fn dataset() -> SyntheticDataset {
    let mut profile = DatasetProfile::brightkite_small();
    profile.n_workers = 140;
    profile.n_venues = 110;
    profile.checkins_per_worker = 10;
    SyntheticDataset::generate(&profile, 17)
}

fn pipeline(data: &SyntheticDataset, threads: Parallelism, online: OnlineConfig) -> DitaPipeline {
    DitaBuilder::new()
        .config(DitaConfig {
            n_topics: 5,
            lda_sweeps: 10,
            infer_sweeps: 5,
            rpo: RpoParams {
                max_sets: 4_000,
                threads,
                ..Default::default()
            },
            online,
            seed: 29,
        })
        .build(&data.social, &data.histories)
        .unwrap()
}

/// One scripted streaming day on an adaptive, maintaining engine:
/// a morning cohort, hourly task arrivals, bounded pool rotation
/// every round, and a fold-in of a previously-unseen worker at 11:00
/// (which grows the population, so the scorer cache extends its
/// entries).
fn run_script(
    data: &SyntheticDataset,
    threads: Parallelism,
    incremental: bool,
) -> (Vec<RoundReport>, OnlineSummary) {
    let online = OnlineConfig {
        round_hours: 1,
        growth_cap: 256,
        eviction_horizon: 2,
        target_sets: 0,
        incremental,
    };
    let pipeline = pipeline(data, threads, online);
    let trained = pipeline.model().n_workers();
    let mut engine = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Adaptive(Box::new(data.social.clone())))
        .config(online)
        .build();

    let cohort = data.instance_for_day(0, 0, 80, InstanceOptions::default());
    for worker in cohort.instance.workers {
        engine.ingest(EventKind::WorkerArrival { worker });
    }

    let mut reports = Vec::new();
    let mut posted = Vec::new();
    let mut next_id = 0u32;
    for hour in 8..16i64 {
        let now = TimeInstant::at(0, hour);
        if hour == 11 {
            // Mid-stream fold-in: the only event that grows the
            // persistent scorer cache's entries.
            let venue = data.venues.venue(VenueId::new(7));
            let mut hist = History::new();
            hist.push(CheckIn::at(
                WorkerId::from(trained),
                venue.id,
                venue.location,
                now,
                venue.categories.clone(),
            ));
            let late = Worker::new(WorkerId::from(trained), venue.location, 25.0);
            assert!(engine
                .ingest(EventKind::WorkerNew {
                    worker: late,
                    friends: vec![WorkerId::new(0)],
                    history: hist,
                })
                .is_online());
        }
        for _ in 0..20 {
            let event = scripted_event(data, 29, next_id, now, 2.5);
            if let EventKind::TaskArrival { task, .. } = &event {
                posted.push(task.clone());
            }
            engine.ingest(event);
            next_id += 1;
        }
        reports.push(engine.run_round(now, sc_assign::AlgorithmKind::Ia));
    }
    // The persistent scorer cache, extended in place at the fold-in,
    // holds exactly what a fresh scorer computes: every worker, the late
    // one included, against every task posted during the day.
    let pipeline = engine.pipeline();
    let fresh_cache = ScorerCache::new();
    let shared = pipeline.scorer();
    let fresh = InfluenceScorer::new(pipeline.model(), &fresh_cache, InfluenceVariant::Full);
    for task in &posted {
        for w in 0..pipeline.model().n_workers() {
            let w = WorkerId::from(w);
            assert_eq!(
                shared.explain(w, task),
                fresh.explain(w, task),
                "cached entry of task {:?} differs for worker {w:?}",
                task.id
            );
        }
    }
    let summary = engine.summary();
    (reports, summary)
}

/// The telemetry of one run against the single-thread rebuild run.
/// Both modes warm the same distinct task contents each round: a
/// rebuild round, which starts from a cleared cache, computes them all,
/// and an incremental round computes only those no earlier round left
/// resident. Every round of both modes builds eligibility from scratch.
fn assert_telemetry(reports: &[RoundReport], rebuild: &[RoundReport], incremental: bool) {
    for (r, cold) in reports.iter().zip(rebuild) {
        if incremental {
            assert_eq!(
                r.cache_hits + r.cache_misses,
                cold.cache_misses,
                "incremental round {} warmed other contents than the rebuild",
                r.round
            );
        } else {
            assert_eq!(
                (r.cache_hits, r.cache_misses),
                (0, cold.cache_misses),
                "rebuild round {} hit a cache cleared before it",
                r.round
            );
        }
        assert!(
            r.elig_rows_carried == 0 && r.elig_full_rebuild,
            "round {} carried eligibility rows",
            r.round
        );
        assert_eq!(
            r.elig_rows_rebuilt, r.online_workers,
            "round {} built a row count other than its online workers",
            r.round
        );
    }
}

#[test]
fn incremental_rounds_match_rebuild_rounds_at_any_thread_count() {
    let data = dataset();
    let (baseline, base_summary) = run_script(&data, Parallelism::Single, false);
    assert!(
        base_summary.assigned > 0,
        "non-trivial fixture: the script must assign something"
    );
    assert_telemetry(&baseline, &baseline, false);

    let mut inc = Vec::new();
    for (threads, incremental) in [
        (Parallelism::Single, true),
        (Parallelism::Fixed(4), false),
        (Parallelism::Fixed(4), true),
    ] {
        let (reports, summary) = run_script(&data, threads, incremental);
        assert_eq!(
            baseline, reports,
            "reports diverged at threads={threads:?} incremental={incremental}"
        );
        assert_eq!(
            base_summary, summary,
            "summary diverged at threads={threads:?} incremental={incremental}"
        );
        assert_telemetry(&reports, &baseline, incremental);
        if threads == Parallelism::Single {
            inc = reports;
        }
    }

    // The warm cache must actually have engaged, even across the
    // fold-in round (11:00): it re-hits the entries warmed before it,
    // because the fold-in extends them instead of clearing the cache.
    let fold_in_round = inc
        .iter()
        .find(|r| r.now == TimeInstant::at(0, 11))
        .expect("the script runs an 11:00 round");
    assert!(
        fold_in_round.cache_hits > 0,
        "the fold-in round found no resident cache entry ({} hits, {} misses)",
        fold_in_round.cache_hits,
        fold_in_round.cache_misses
    );
}
