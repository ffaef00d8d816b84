//! Online-mode determinism: the engine's round reports are a pure
//! function of `(dataset seed, pipeline config, arrival script)` — the
//! maintenance thread budget must never leak into results.

use sc_assign::AlgorithmKind;
use sc_core::{DitaBuilder, DitaConfig, DitaPipeline, OnlineConfig, Parallelism};
use sc_datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use sc_influence::{RpoParams, RrrPool};
use sc_sim::{EngineBuilder, EventKind, NetworkMode, PipelineMode, RoundReport};
use sc_types::{Duration, Task, TaskId, TimeInstant, VenueId};

fn dataset() -> SyntheticDataset {
    let mut profile = DatasetProfile::brightkite_small();
    profile.n_workers = 120;
    profile.n_venues = 120;
    profile.checkins_per_worker = 10;
    SyntheticDataset::generate(&profile, 77)
}

fn pipeline(dataset: &SyntheticDataset, threads: Parallelism) -> DitaPipeline {
    DitaBuilder::new()
        .config(DitaConfig {
            n_topics: 6,
            lda_sweeps: 12,
            infer_sweeps: 6,
            rpo: RpoParams {
                max_sets: 6_000,
                threads,
                ..Default::default()
            },
            online: OnlineConfig {
                round_hours: 1,
                growth_cap: 512,
                eviction_horizon: 3,
                target_sets: 0,
                incremental: true,
            },
            seed: 9,
        })
        .build(&dataset.social, &dataset.histories)
        .unwrap()
}

/// A fixed three-day arrival script: workers refresh each morning,
/// tasks arrive every hour from deterministic venues.
fn drive(
    dataset: &SyntheticDataset,
    pipeline: DitaPipeline,
) -> (Vec<RoundReport>, sc_sim::OnlineSummary, u64) {
    let mut engine = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Fixed(&dataset.social))
        .build();
    let mut reports = Vec::new();
    let mut next_id = 0u32;
    for day in 0..3i64 {
        let cohort = dataset.instance_for_day(day as usize, 0, 40, InstanceOptions::default());
        for worker in cohort.instance.workers {
            engine.ingest(EventKind::WorkerArrival { worker });
        }
        for hour in 8..16 {
            let now = TimeInstant::at(day, hour);
            for i in 0..6u32 {
                let venue = dataset.venues.venue(VenueId::from(
                    ((next_id as usize) * 31 + i as usize) % dataset.venues.len(),
                ));
                engine.ingest(EventKind::TaskArrival {
                    task: Task::with_categories(
                        TaskId::new(next_id),
                        venue.location,
                        now,
                        Duration::hours_f64(3.0),
                        venue.categories.clone(),
                    ),
                    venue: venue.id,
                });
                next_id += 1;
            }
            reports.push(engine.run_round(now, AlgorithmKind::Ia));
        }
    }
    let fp = engine.pipeline().model().pool().fingerprint();
    let s = engine.summary();
    assert_eq!(
        s.published,
        s.assigned + s.expired + s.still_open,
        "task conservation must hold over a multi-day streaming run"
    );
    (reports, s, fp)
}

/// Canonical textual form of a round report with the wall-clock field
/// dropped — "byte-identical" comparisons happen on this rendering.
fn render(reports: &[RoundReport]) -> String {
    reports
        .iter()
        .map(|r| {
            format!(
                "{}|{:?}|{}|{}|{}|{}|{}|{}|{:.17e}|{}|{}|{}",
                r.round,
                r.now,
                r.task_arrivals,
                r.worker_arrivals,
                r.available_tasks,
                r.online_workers,
                r.assigned,
                r.expired,
                r.ai,
                r.pool_sets,
                r.sets_evicted,
                r.sets_added
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn round_reports_identical_across_thread_budgets() {
    let data = dataset();
    let single = pipeline(&data, Parallelism::Single);
    let four = pipeline(&data, Parallelism::Fixed(4));
    assert_eq!(
        single.model().pool().fingerprint(),
        four.model().pool().fingerprint(),
        "trained pools must be bit-identical (PR 2 contract)"
    );

    let (r1, s1, fp1) = drive(&data, single);
    let (r4, s4, fp4) = drive(&data, four);
    assert_eq!(s1, s4, "summaries must not depend on the thread budget");
    assert_eq!(r1.len(), r4.len());
    assert_eq!(r1, r4, "round reports must not depend on the thread budget");
    assert_eq!(render(&r1), render(&r4), "byte-identical rendered reports");
    assert_eq!(fp1, fp4, "maintained pools must stay bit-identical");
}

#[test]
fn reruns_are_deterministic() {
    let data = dataset();
    let (a, sa, fa) = drive(&data, pipeline(&data, Parallelism::Fixed(2)));
    let (b, sb, fb) = drive(&data, pipeline(&data, Parallelism::Fixed(2)));
    assert_eq!(a, b);
    assert_eq!(sa, sb);
    assert_eq!(fa, fb);
}

#[test]
fn maintenance_happens_and_is_bounded() {
    let data = dataset();
    let (reports, _, _) = drive(&data, pipeline(&data, Parallelism::Fixed(2)));
    let evicted: usize = reports.iter().map(|r| r.sets_evicted).sum();
    let added: usize = reports.iter().map(|r| r.sets_added).sum();
    assert!(evicted > 0, "a 24-round run past horizon 3 must rotate");
    assert!(added > 0);
    for r in &reports {
        assert!(
            r.sets_evicted <= 512 && r.sets_added <= 512,
            "quantum bound"
        );
    }
}

#[test]
fn maintained_pool_equals_fresh_pool_of_same_stream_window() {
    // End-to-end closure of the determinism contract: after a whole
    // streaming run, the engine's live pool must be byte-for-byte the
    // pool a from-scratch sampler would produce for the same
    // `(master_seed, stream window)`.
    let data = dataset();
    let (_, _, _) = drive(&data, pipeline(&data, Parallelism::Single));
    let p = pipeline(&data, Parallelism::Single);
    let mut engine = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(p)))
        .network(NetworkMode::Fixed(&data.social))
        .build();
    for hour in 0..6 {
        let now = TimeInstant::at(0, hour);
        engine.run_round(now, AlgorithmKind::Ia);
    }
    let pool = engine.pipeline().model().pool();
    let total = pool.stream_base() + pool.n_sets();
    let mut fresh = RrrPool::generate_sharded(&data.social, total, pool.master_seed(), 1);
    fresh.advance_epoch();
    fresh.evict_before_epoch(1, pool.stream_base());
    assert_eq!(fresh.fingerprint(), pool.fingerprint());
    assert_eq!(fresh.membership(), pool.membership());
}
