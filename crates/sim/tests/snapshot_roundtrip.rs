//! Snapshot/restore closes the determinism contract across process
//! boundaries: an engine serialized mid-stream — even right after a
//! fold-in, the event that reshapes the worker axis and clears every
//! cache — must, once restored, serve the remaining stream with round
//! reports and a lifetime summary byte-identical to the uninterrupted
//! engine, at any thread count.

use sc_core::{DitaBuilder, DitaConfig, DitaPipeline, OnlineConfig, Parallelism};
use sc_datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use sc_influence::RpoParams;
use sc_sim::{
    scripted_event, snapshot_from_str, snapshot_to_string, EngineBuilder, EventKind, NetworkMode,
    OnlineEngine, OnlineSummary, PipelineMode, RoundReport,
};
use sc_types::{CheckIn, History, TimeInstant, VenueId, Worker, WorkerId};
use serde::json::Value;

fn dataset() -> SyntheticDataset {
    let mut profile = DatasetProfile::brightkite_small();
    profile.n_workers = 120;
    profile.n_venues = 100;
    profile.checkins_per_worker = 10;
    SyntheticDataset::generate(&profile, 53)
}

const ONLINE: OnlineConfig = OnlineConfig {
    round_hours: 1,
    growth_cap: 256,
    eviction_horizon: 2,
    target_sets: 0,
    incremental: true,
};

fn pipeline(data: &SyntheticDataset, threads: Parallelism) -> DitaPipeline {
    DitaBuilder::new()
        .config(DitaConfig {
            n_topics: 5,
            lda_sweeps: 10,
            infer_sweeps: 5,
            rpo: RpoParams {
                max_sets: 3_000,
                threads,
                ..Default::default()
            },
            online: ONLINE,
            seed: 31,
        })
        .build(&data.social, &data.histories)
        .unwrap()
}

fn engine(data: &SyntheticDataset, threads: Parallelism) -> OnlineEngine<'static> {
    let pipeline = pipeline(data, threads);
    EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Adaptive(Box::new(data.social.clone())))
        .config(ONLINE)
        .build()
}

/// Streams one scripted hour into the engine: 15 task arrivals, then
/// the round closes.
fn play_hour(
    engine: &mut OnlineEngine<'static>,
    data: &SyntheticDataset,
    hour: i64,
) -> RoundReport {
    let now = TimeInstant::at(0, hour);
    let base = (hour - 8) as u32 * 15;
    for i in 0..15u32 {
        engine.ingest(scripted_event(data, 31, base + i, now, 2.5));
    }
    engine.run_round(now, sc_assign::AlgorithmKind::Ia)
}

/// Folds a previously-unseen worker into the live network.
fn fold_in(engine: &mut OnlineEngine<'static>, data: &SyntheticDataset, now: TimeInstant) {
    let trained = engine.pipeline().model().n_workers();
    let venue = data.venues.venue(VenueId::new(3));
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
            friends: vec![WorkerId::new(2)],
            history: hist,
        })
        .is_online());
}

/// Runs the scripted day on one engine. At 11:00 a new worker folds
/// in; when `interrupt` is set the engine is serialized immediately
/// after (before the next rotation touches the reshaped state) and the
/// rest of the day is served by the **restored** engine.
fn run_day(
    data: &SyntheticDataset,
    threads: Parallelism,
    interrupt: bool,
) -> (Vec<RoundReport>, OnlineSummary) {
    let mut engine = engine(data, threads);
    let cohort = data.instance_for_day(0, 0, 70, InstanceOptions::default());
    for worker in cohort.instance.workers {
        engine.ingest(EventKind::WorkerArrival { worker });
    }

    let mut reports = Vec::new();
    for hour in 8..11i64 {
        reports.push(play_hour(&mut engine, data, hour));
    }
    fold_in(&mut engine, data, TimeInstant::at(0, 11));
    if interrupt {
        let frozen = snapshot_to_string(&engine).expect("snapshot must serialize");
        engine = snapshot_from_str(&frozen).expect("snapshot must round-trip");
    }
    for hour in 11..16i64 {
        reports.push(play_hour(&mut engine, data, hour));
    }
    (reports, engine.summary())
}

#[test]
fn restored_engine_finishes_the_day_byte_identically() {
    let data = dataset();
    let (baseline, base_summary) = run_day(&data, Parallelism::Single, false);
    assert!(
        base_summary.assigned > 0 && base_summary.still_open + base_summary.expired > 0,
        "non-trivial fixture: the script must exercise every outcome"
    );

    // {interrupted, uninterrupted} × {threads 1, 4}: all four runs of
    // the same script must agree byte-for-byte.
    for (threads, interrupt) in [
        (Parallelism::Single, true),
        (Parallelism::Fixed(4), false),
        (Parallelism::Fixed(4), true),
    ] {
        let (reports, summary) = run_day(&data, threads, interrupt);
        assert_eq!(
            baseline, reports,
            "reports diverged at threads={threads:?} interrupt={interrupt}"
        );
        assert_eq!(
            base_summary, summary,
            "summary diverged at threads={threads:?} interrupt={interrupt}"
        );
    }
}

#[test]
fn snapshot_text_is_stable_across_a_roundtrip() {
    // Serialize → restore → serialize again: the two texts must be
    // identical, i.e. restoration loses nothing the snapshot records.
    let data = dataset();
    let mut engine = engine(&data, Parallelism::Single);
    let cohort = data.instance_for_day(0, 0, 40, InstanceOptions::default());
    for worker in cohort.instance.workers {
        engine.ingest(EventKind::WorkerArrival { worker });
    }
    play_hour(&mut engine, &data, 8);
    fold_in(&mut engine, &data, TimeInstant::at(0, 9));

    let first = snapshot_to_string(&engine).unwrap();
    let restored = snapshot_from_str(&first).unwrap();
    let second = snapshot_to_string(&restored).unwrap();
    assert_eq!(first, second, "snapshot text must be roundtrip-stable");
}

/// The member `key` of a JSON object.
fn member_mut<'v>(value: &'v mut Value, key: &str) -> &'v mut Value {
    let Value::Object(fields) = value else {
        panic!("parent of `{key}` is not an object");
    };
    &mut fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no `{key}` member"))
        .1
}

#[test]
fn snapshot_with_the_retired_solver_key_still_restores() {
    // Version-1 snapshots written while `DitaConfig` still had a
    // `solver` field carry `"solver": "Dijkstra"` in the model's config
    // object. Fields are read by name and extra keys are ignored, so
    // such a snapshot must restore and serve the same next round.
    let data = dataset();
    let mut engine = engine(&data, Parallelism::Single);
    let cohort = data.instance_for_day(0, 0, 40, InstanceOptions::default());
    for worker in cohort.instance.workers {
        engine.ingest(EventKind::WorkerArrival { worker });
    }
    play_hour(&mut engine, &data, 8);

    let mut envelope = serde::json::parse(&snapshot_to_string(&engine).unwrap()).unwrap();
    let config = ["engine", "pipeline", "model", "config"]
        .into_iter()
        .fold(&mut envelope, member_mut);
    let Value::Object(fields) = config else {
        panic!("config is not an object");
    };
    assert!(fields.iter().all(|(k, _)| k != "solver"));
    fields.push(("solver".to_string(), Value::Str("Dijkstra".to_string())));
    let mut restored =
        snapshot_from_str(&envelope.to_json_string()).expect("an older snapshot restores");
    assert_eq!(
        play_hour(&mut restored, &data, 9),
        play_hour(&mut engine, &data, 9)
    );
}
