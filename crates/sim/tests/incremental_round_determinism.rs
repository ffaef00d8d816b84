//! The persistent scorer cache must be invisible in results: an
//! engine that carries the cache across rounds must produce round
//! reports — and a lifetime summary — byte-identical to the
//! cold-cache baseline (`incremental: false`), which clears the cache
//! before every round, at any thread count, even while the pool
//! rotates and a previously-unseen worker is folded into the live
//! network mid-stream (the one event that grows every scorer-cache
//! entry: resident entries are extended with the new worker's
//! willingness, and the cold-cache rounds, which recompute every
//! entry, are the exactness oracle for that extension).
//!
//! Four runs of the same arrival script are compared pairwise:
//! `{incremental, rebuild} × {threads 1, 4}`. Telemetry fields
//! (`cache_*`, `elig_*`, the `*_ms` phase split) are excluded from
//! report equality by design — the suite separately asserts that the
//! warm cache re-hit every content an earlier round warmed and the cold
//! one never hit, and that every round built its eligibility matrix
//! from scratch.

use sc_core::{
    DitaBuilder, DitaConfig, DitaPipeline, InfluenceScorer, InfluenceVariant, OnlineConfig,
    Parallelism, ScorerCache,
};
use sc_datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use sc_influence::RpoParams;
use sc_sim::{
    scripted_event, EngineBuilder, EventKind, NetworkMode, OnlineSummary, PipelineMode, RoundReport,
};
use sc_types::{CategoryId, CheckIn, History, Task, TimeInstant, VenueId, Worker, WorkerId};
use std::collections::BTreeSet;

/// What the scorer cache keys a task by: its exact location and its
/// categories in order.
type Content = (u64, u64, Vec<CategoryId>);

fn content(task: &Task) -> Content {
    let at = &task.location;
    (at.x.to_bits(), at.y.to_bits(), task.categories.clone())
}

/// The contents of `posted` resident in `pipeline`'s scorer cache.
/// Each distinct content is probed once by scoring it, which computes
/// and inserts an absent content, so the cache grows iff it was absent.
fn resident_contents(pipeline: &DitaPipeline, posted: &[Task]) -> BTreeSet<Content> {
    let scorer = pipeline.scorer();
    let mut probed = BTreeSet::new();
    let mut resident = BTreeSet::new();
    for task in posted {
        if probed.insert(content(task)) {
            let before = pipeline.scorer_cache().len();
            scorer.score(WorkerId::new(0), task);
            if pipeline.scorer_cache().len() == before {
                resident.insert(content(task));
            }
        }
    }
    resident
}

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
/// entries). A cold-cache run also returns the contents each round
/// warmed: its rounds start from a cleared cache, so what a round
/// leaves resident is what it warmed.
fn run_script(
    data: &SyntheticDataset,
    threads: Parallelism,
    incremental: bool,
) -> (Vec<RoundReport>, OnlineSummary, Vec<BTreeSet<Content>>) {
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
    let mut warmed = Vec::new();
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
        if !incremental {
            warmed.push(resident_contents(engine.pipeline(), &posted));
        }
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
    (reports, summary, warmed)
}

/// Checks one run's telemetry against `warmed`, the contents each
/// round of the single-thread rebuild run warmed. Both modes warm the
/// same distinct task contents each round: a rebuild round, which
/// starts from a cleared cache, computes them all. The warm cache keeps every entry
/// (the fold-in round, 11:00, extends them), so an incremental round
/// hits exactly the contents an earlier round warmed and computes the
/// rest. Every round of both modes builds eligibility from scratch.
fn assert_telemetry(reports: &[RoundReport], warmed: &[BTreeSet<Content>], incremental: bool) {
    let mut earlier = BTreeSet::new();
    for (r, contents) in reports.iter().zip(warmed) {
        let repeated = contents.intersection(&earlier).count();
        earlier.extend(contents.iter().cloned());
        if incremental {
            assert_eq!(
                (r.cache_hits, r.cache_misses),
                (repeated, contents.len() - repeated),
                "incremental round {} did not re-hit exactly the contents earlier rounds warmed",
                r.round
            );
        } else {
            assert_eq!(
                (r.cache_hits, r.cache_misses),
                (0, contents.len()),
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
    let (baseline, base_summary, warmed) = run_script(&data, Parallelism::Single, false);
    assert!(
        base_summary.assigned > 0,
        "non-trivial fixture: the script must assign something"
    );
    assert_telemetry(&baseline, &warmed, false);
    let distinct: BTreeSet<&Content> = warmed.iter().flatten().collect();
    assert!(
        distinct.len() < warmed.iter().map(BTreeSet::len).sum(),
        "non-trivial fixture: rounds must warm contents an earlier round warmed"
    );

    for (threads, incremental) in [
        (Parallelism::Single, true),
        (Parallelism::Fixed(4), false),
        (Parallelism::Fixed(4), true),
    ] {
        let (reports, summary, _) = run_script(&data, threads, incremental);
        assert_eq!(
            baseline, reports,
            "reports diverged at threads={threads:?} incremental={incremental}"
        );
        assert_eq!(
            base_summary, summary,
            "summary diverged at threads={threads:?} incremental={incremental}"
        );
        assert_telemetry(&reports, &warmed, incremental);
    }
}
