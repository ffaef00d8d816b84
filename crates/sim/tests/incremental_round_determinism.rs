//! The incremental round pipeline must be invisible in results: an
//! engine that carries eligibility deltas and a persistent scorer
//! cache across rounds must produce round reports — and a lifetime
//! summary — byte-identical to the `--no-incremental` rebuild
//! baseline, at any thread count, even while the pool rotates and a
//! previously-unseen worker is folded into the live network
//! mid-stream (the one event that invalidates the scorer cache).
//!
//! Four runs of the same arrival script are compared pairwise:
//! `{incremental, rebuild} × {threads 1, 4}`. Telemetry fields
//! (`cache_*`, `elig_*`, the `*_ms` phase split) are excluded from
//! report equality by design — the suite separately asserts they show
//! the incremental machinery actually engaged (carried rounds with
//! warm cache hits) rather than silently falling back to rebuilds.

use sc_core::{DitaBuilder, DitaConfig, DitaPipeline, OnlineConfig, Parallelism};
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
/// (which grows the population and so clears the scorer cache).
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
    let mut next_id = 0u32;
    for hour in 8..16i64 {
        let now = TimeInstant::at(0, hour);
        if hour == 11 {
            // Mid-stream fold-in: the only event that invalidates the
            // persistent scorer cache, and a worker-axis delta for the
            // eligibility state.
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
            engine.ingest(scripted_event(data, 29, next_id, now, 2.5));
            next_id += 1;
        }
        reports.push(engine.run_round(now, sc_assign::AlgorithmKind::Ia));
    }
    let summary = engine.summary();
    (reports, summary)
}

#[test]
fn incremental_rounds_match_rebuild_rounds_at_any_thread_count() {
    let data = dataset();
    let (baseline, base_summary) = run_script(&data, Parallelism::Single, false);
    assert!(
        base_summary.assigned > 0,
        "non-trivial fixture: the script must assign something"
    );

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
    }

    // The incremental machinery must actually have engaged: after the
    // first round (and outside the fold-in round, which clears the
    // cache and may reshape the worker axis) rounds are served by
    // deltas with warm cache hits.
    let (inc, _) = run_script(&data, Parallelism::Single, true);
    assert!(
        inc.iter().any(|r| !r.elig_full_rebuild && r.cache_hits > 0),
        "no round was served incrementally with a warm cache"
    );
    assert!(
        inc.iter().skip(1).all(|r| !r.elig_full_rebuild),
        "a post-warmup round unexpectedly fell back to a full rebuild"
    );
    assert!(
        inc[0].elig_full_rebuild,
        "the first round has no prior state and must rebuild"
    );
}
