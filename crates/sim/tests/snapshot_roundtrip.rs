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
    OnlineEngine, PipelineMode, RoundReport, SnapshotError,
};
use sc_types::{CheckIn, History, TimeInstant, VenueId, Worker, WorkerId};
use serde::json::Value;
use serde::Serialize as _;

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
/// rest of the day is served by the **restored** engine. Returns the
/// round reports and the engine at the end of the day.
fn run_day(
    data: &SyntheticDataset,
    threads: Parallelism,
    interrupt: bool,
) -> (Vec<RoundReport>, OnlineEngine<'static>) {
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
    reports.extend(finish_day(&mut engine, data));
    (reports, engine)
}

/// Serves the scripted hours after the fold-in, 11:00 to 15:00.
fn finish_day(engine: &mut OnlineEngine<'static>, data: &SyntheticDataset) -> Vec<RoundReport> {
    (11..16i64)
        .map(|hour| play_hour(engine, data, hour))
        .collect()
}

#[test]
fn restored_engine_finishes_the_day_byte_identically() {
    let data = dataset();
    let (baseline, engine) = run_day(&data, Parallelism::Single, false);
    let base_summary = engine.summary();
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
        let (reports, engine) = run_day(&data, threads, interrupt);
        assert_eq!(
            baseline, reports,
            "reports diverged at threads={threads:?} interrupt={interrupt}"
        );
        assert_eq!(
            base_summary,
            engine.summary(),
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

/// An engine with a cohort online, after `hours` scripted rounds from
/// 08:00 with pool maintenance on.
fn engine_after(data: &SyntheticDataset, hours: i64) -> OnlineEngine<'static> {
    let mut engine = engine(data, Parallelism::Fixed(2));
    let cohort = data.instance_for_day(0, 0, 40, InstanceOptions::default());
    for worker in cohort.instance.workers {
        engine.ingest(EventKind::WorkerArrival { worker });
    }
    for hour in 8..8 + hours {
        play_hour(&mut engine, data, hour);
    }
    engine
}

#[test]
fn snapshots_of_one_stream_are_byte_identical() {
    // A snapshot is a pure function of the event stream: two runs of
    // the same stream at the same thread budget, with rotation sampling
    // and evicting sets every round, write the same bytes. No
    // wall-clock measurement may reach the engine's serde.
    let data = dataset();
    let (a, b) = (engine_after(&data, 5), engine_after(&data, 5));
    assert!(a.summary().sets_evicted > 0, "maintenance must run");
    assert_eq!(
        snapshot_to_string(&a).unwrap(),
        snapshot_to_string(&b).unwrap()
    );
}

#[test]
fn snapshot_with_the_retired_maintenance_key_still_restores() {
    // Snapshots written while the engine still summed maintenance wall
    // time carry `"maintenance_ms_total"` in the engine object. Extra
    // keys are ignored, so such a snapshot must restore and serve the
    // same next round.
    let data = dataset();
    let mut engine = engine_after(&data, 3);
    let mut envelope = serde::json::parse(&snapshot_to_string(&engine).unwrap()).unwrap();
    let Value::Object(fields) = member_mut(&mut envelope, "engine") else {
        panic!("engine is not an object");
    };
    assert!(fields.iter().all(|(k, _)| k != "maintenance_ms_total"));
    fields.push(("maintenance_ms_total".to_string(), Value::Float(1.5)));
    let mut restored =
        snapshot_from_str(&envelope.to_json_string()).expect("an older snapshot restores");
    assert_eq!(
        play_hour(&mut restored, &data, 11),
        play_hour(&mut engine, &data, 11)
    );
    assert_eq!(restored.summary(), engine.summary());
}

/// Asserts two snapshot texts are equal, naming where they first
/// differ instead of printing megabytes.
fn assert_same_snapshot(a: &str, b: &str) {
    if let Some(at) = a.bytes().zip(b.bytes()).position(|(x, y)| x != y) {
        let context = |s: &str| {
            s.get(at.saturating_sub(80)..(at + 40).min(s.len()))
                .map(str::to_string)
        };
        panic!(
            "snapshots differ at byte {at}:\n  {:?}\n  {:?}",
            context(a),
            context(b)
        );
    }
    assert_eq!(a.len(), b.len(), "one snapshot is a prefix of the other");
}

#[test]
fn restored_engine_ends_the_day_with_the_same_snapshot_bytes() {
    // A snapshot holds state only, so an engine restored mid-day and
    // the engine that never stopped write the same file at the end of
    // the day. The pool's byte high-water mark, which depends on how a
    // process happened to lay its arenas out, must not reach it.
    let data = dataset();
    let (_, uninterrupted) = run_day(&data, Parallelism::Single, false);
    let (_, restored) = run_day(&data, Parallelism::Single, true);
    assert_same_snapshot(
        &snapshot_to_string(&restored).unwrap(),
        &snapshot_to_string(&uninterrupted).unwrap(),
    );
}

/// The member at `path` below `value`.
fn at<'v>(value: &'v mut Value, path: &[&str]) -> &'v mut Value {
    path.iter().fold(value, |v, key| member_mut(v, key))
}

/// Decodes the member at `path`.
fn read<T: serde::Deserialize>(value: &mut Value, path: &[&str]) -> T {
    T::from_value(at(value, path)).unwrap()
}

/// Adds `key: value` to the object at `path`, which must not have it.
fn put(envelope: &mut Value, path: &[&str], key: &str, value: Value) {
    let Value::Object(fields) = at(envelope, path) else {
        panic!("{path:?} is not an object");
    };
    assert!(
        fields.iter().all(|(k, _)| k != key),
        "{key} is still written"
    );
    fields.push((key.to_string(), value));
}

const POOL: [&str; 4] = ["engine", "pipeline", "model", "pool"];
const LDA: [&str; 4] = ["engine", "pipeline", "model", "lda"];
const RPO: [&str; 5] = ["engine", "pipeline", "model", "config", "rpo"];
const TOPICS: [&str; 4] = ["engine", "pipeline", "model", "worker_topics"];
const FORWARD: [&str; 3] = ["engine", "network", "forward"];

/// Puts back the `model` key that the pool and the RPO parameters
/// carried while RRR sets had a choice of diffusion model.
fn put_model_keys(envelope: &mut Value) {
    for path in [&POOL[..], &RPO[..]] {
        put(
            envelope,
            path,
            "model",
            Value::Str("WeightedCascade".into()),
        );
    }
}

/// The engine at the scripted fold-in (the state `run_day` interrupts
/// at) and its snapshot as an editable tree.
fn engine_at_the_fold_in(data: &SyntheticDataset) -> (OnlineEngine<'static>, Value) {
    let mut engine = engine(data, Parallelism::Single);
    let cohort = data.instance_for_day(0, 0, 70, InstanceOptions::default());
    for worker in cohort.instance.workers {
        engine.ingest(EventKind::WorkerArrival { worker });
    }
    for hour in 8..11i64 {
        play_hour(&mut engine, data, hour);
    }
    fold_in(&mut engine, data, TimeInstant::at(0, 11));
    let tree = serde::json::parse(&snapshot_to_string(&engine).unwrap()).unwrap();
    (engine, tree)
}

/// Rewrites a version-2 snapshot tree into the version-1 form: the
/// envelope says 1, and every key version 1 also wrote is put back as
/// it wrote it.
fn as_version_1(mut envelope: Value) -> Value {
    *member_mut(&mut envelope, "version") = Value::Int(1);
    put_model_keys(&mut envelope);

    // Each set's root is its first member; the membership index listed
    // each worker's sets by live position, as `{data, ends}` runs.
    let data: Vec<u32> = read(&mut envelope, &[&POOL[..], &["sets", "data"]].concat());
    let ends: Vec<u32> = read(&mut envelope, &[&POOL[..], &["sets", "ends"]].concat());
    let n_workers: usize = read(&mut envelope, &[&POOL[..], &["n_workers"]].concat());
    let starts = std::iter::once(0).chain(ends.iter().copied());
    let roots: Vec<u32> = starts
        .clone()
        .take(ends.len())
        .map(|s| data[s as usize])
        .collect();
    let mut by_worker = vec![Vec::new(); n_workers];
    for (j, (lo, hi)) in starts.zip(ends.iter().copied()).enumerate() {
        for &w in &data[lo as usize..hi as usize] {
            by_worker[w as usize].push(j as u32);
        }
    }
    let membership = Value::Object(vec![
        ("data".to_string(), by_worker.concat().to_value()),
        (
            "ends".to_string(),
            by_worker
                .iter()
                .scan(0u32, |end, run| {
                    *end += run.len() as u32;
                    Some(*end)
                })
                .collect::<Vec<_>>()
                .to_value(),
        ),
    ]);
    put(&mut envelope, &POOL, "roots", roots.to_value());
    put(&mut envelope, &POOL, "membership", membership);
    put(&mut envelope, &POOL, "peak_bytes", Value::Int(8_621_324));

    // LDA kept θ of its training documents: the workers' topics.
    let topics: Vec<Vec<f64>> = read(&mut envelope, &TOPICS);
    put(&mut envelope, &LDA, "theta", topics.concat().to_value());
    put(&mut envelope, &LDA, "n_docs", topics.len().to_value());

    // The forward graph kept its in-degrees.
    let targets: Vec<u32> = read(&mut envelope, &[&FORWARD[..], &["targets"]].concat());
    let offsets: Vec<u32> = read(&mut envelope, &[&FORWARD[..], &["offsets"]].concat());
    let mut in_degrees = vec![0u32; offsets.len() - 1];
    targets.iter().for_each(|&v| in_degrees[v as usize] += 1);
    put(&mut envelope, &FORWARD, "in_degrees", in_degrees.to_value());
    envelope
}

#[test]
fn snapshot_with_the_retired_model_keys_still_restores() {
    // Snapshots written while RRR sets could be sampled under a second
    // diffusion model carry `"model": "WeightedCascade"` in the pool
    // and in the RPO parameters. Neither key is read, so such a
    // snapshot restores, serves the rest of the day alike and ends it
    // with the same bytes.
    let data = dataset();
    let (mut engine, mut tree) = engine_at_the_fold_in(&data);
    put_model_keys(&mut tree);
    let mut restored =
        snapshot_from_str(&tree.to_json_string()).expect("an older snapshot restores");
    assert_eq!(
        finish_day(&mut restored, &data),
        finish_day(&mut engine, &data)
    );
    assert_same_snapshot(
        &snapshot_to_string(&restored).unwrap(),
        &snapshot_to_string(&engine).unwrap(),
    );
}

#[test]
fn version_1_snapshots_restore_without_reading_derived_keys() {
    let data = dataset();
    let (mut engine, tree) = engine_at_the_fold_in(&data);
    let v1 = as_version_1(tree);
    let reports = finish_day(&mut engine, &data);
    let end_of_day = snapshot_to_string(&engine).unwrap();

    // Derived keys that disagree with the state are never read: one
    // wrong root, a root list 5 sets short, an index naming a set that
    // does not exist.
    let edited = |path: &[&str], edit: &dyn Fn(&mut Vec<Value>)| {
        let mut v1 = v1.clone();
        let Value::Array(items) = at(&mut v1, &[&POOL[..], path].concat()) else {
            panic!("{path:?} is not an array");
        };
        edit(items);
        v1
    };
    let cases = [
        ("as written", v1.clone()),
        (
            "one wrong root",
            edited(&["roots"], &|roots| {
                let Value::Int(root) = &mut roots[7] else {
                    panic!("a root is an integer");
                };
                *root = (*root + 1) % 100;
            }),
        ),
        (
            "roots 5 sets short",
            edited(&["roots"], &|roots| roots.truncate(roots.len() - 5)),
        ),
        (
            "an index naming set 999,999",
            edited(&["membership", "data"], &|ids| ids[0] = Value::Int(999_999)),
        ),
    ];
    for (case, envelope) in cases {
        let mut restored =
            snapshot_from_str(&envelope.to_json_string()).unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(finish_day(&mut restored, &data), reports, "{case}");
        assert_same_snapshot(&snapshot_to_string(&restored).unwrap(), &end_of_day);
    }
}

/// Restores an edited snapshot tree, which must be refused with a
/// parse error naming `why`.
fn assert_refused(envelope: &Value, why: &str) {
    match snapshot_from_str(&envelope.to_json_string()) {
        Err(SnapshotError::Parse(msg)) => assert!(msg.contains(why), "{msg}"),
        Err(other) => panic!("expected a parse error naming {why:?}, got: {other}"),
        Ok(_) => panic!("a snapshot with {why:?} restored"),
    }
}

/// The array at `path` of a fresh snapshot tree, edited by `edit`.
fn edited_snapshot(path: &[&str], edit: impl FnOnce(&mut Vec<Value>)) -> Value {
    let (_, mut tree) = engine_at_the_fold_in(&dataset());
    let Value::Array(items) = at(&mut tree, path) else {
        panic!("{path:?} is not an array");
    };
    edit(items);
    tree
}

#[test]
fn a_network_target_past_the_population_is_refused() {
    let tree = edited_snapshot(&[&FORWARD[..], &["targets"]].concat(), |targets| {
        targets[0] = Value::Int(121)
    });
    assert_refused(&tree, "CSR target 121 is past the 121 nodes");
}

#[test]
fn a_set_member_past_the_population_is_refused() {
    let tree = edited_snapshot(&[&POOL[..], &["sets", "data"]].concat(), |members| {
        members[3] = Value::Int(121)
    });
    assert_refused(&tree, "holds worker 121, past the pool's 121 workers");
}

#[test]
fn set_epochs_short_of_the_sets_are_refused() {
    let tree = edited_snapshot(&[&POOL[..], &["set_epochs"]].concat(), |epochs| {
        epochs.truncate(epochs.len() - 5)
    });
    assert_refused(&tree, "set epochs");
}

#[test]
fn an_empty_set_is_refused() {
    // Set 1 ends where set 0 does; set 2 takes over its members.
    let tree = edited_snapshot(&[&POOL[..], &["sets", "ends"]].concat(), |ends| {
        ends[1] = ends[0].clone()
    });
    assert_refused(&tree, "RRR set 1 is empty");
}

#[test]
fn a_pool_and_a_network_of_different_populations_are_refused() {
    let (_, mut tree) = engine_at_the_fold_in(&dataset());
    *at(&mut tree, &[&POOL[..], &["n_workers"]].concat()) = Value::Int(122);
    assert_refused(&tree, "the RRR pool covers 122 workers but the network 121");
}

#[test]
fn topic_rows_of_the_wrong_length_are_refused() {
    // The first round would panic in `topic_affinity` on rows shorter
    // than the task's topic distribution.
    let tree = edited_snapshot(&TOPICS, |rows| {
        for row in rows {
            let Value::Array(values) = row else {
                panic!("a topic row is an array");
            };
            values.truncate(1);
        }
    });
    assert_refused(
        &tree,
        "worker 0's topic row is 1 long, not 0 or the model's 5",
    );
}

#[test]
fn an_lda_phi_of_the_wrong_size_or_no_topics_are_refused() {
    // Inference would index past a short φ; with no topics it has no
    // distribution to draw from, even when φ is as empty as it should be.
    let phi = [&LDA[..], &["phi"]].concat();
    let tree = edited_snapshot(&phi, |values| values.truncate(3));
    assert_refused(&tree, "LDA φ holds 3 values for 5 topics");
    let mut tree = edited_snapshot(&phi, Vec::clear);
    *at(&mut tree, &[&LDA[..], &["n_topics"]].concat()) = Value::Int(0);
    assert_refused(&tree, "LDA φ holds 0 values for 0 topics");
}
