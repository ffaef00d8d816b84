//! Intra-round parallelism must never change results: an online
//! engine whose pipeline scores on N threads must produce round
//! reports — and a maintained pool — byte-identical to the
//! single-threaded engine, report-for-report, on the same arrival
//! script. Together with `sc-assign`'s matrix-for-matrix suite
//! (`crates/assign/tests/sharded_eligibility.rs`) this pins the
//! determinism contract of the sharded scoring path end-to-end.

use sc_assign::{run_with_matrix, AlgorithmKind, AssignInput, EligibilityMatrix};
use sc_core::{DitaBuilder, DitaConfig, DitaPipeline, OnlineConfig, Parallelism};
use sc_datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use sc_influence::RpoParams;
use sc_sim::{scripted_event, EngineBuilder, EventKind, NetworkMode, PipelineMode, RoundReport};
use sc_types::TimeInstant;

fn dataset() -> SyntheticDataset {
    let mut profile = DatasetProfile::brightkite_small();
    profile.n_workers = 150;
    profile.n_venues = 120;
    profile.checkins_per_worker = 10;
    SyntheticDataset::generate(&profile, 11)
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
            seed: 21,
        })
        .build(&data.social, &data.histories)
        .unwrap()
}

/// Runs the scripted arrival stream on one engine and returns its
/// per-round reports.
fn run_script(
    data: &SyntheticDataset,
    threads: Parallelism,
    online: OnlineConfig,
) -> Vec<RoundReport> {
    let pipeline = pipeline(data, threads, online);
    let mut engine = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Fixed(&data.social))
        .build();
    let cohort = data.instance_for_day(0, 0, 90, InstanceOptions::default());
    for worker in cohort.instance.workers {
        engine.ingest(EventKind::WorkerArrival { worker });
    }
    let mut reports = Vec::new();
    let mut next_id = 0u32;
    for hour in 8..16i64 {
        let now = TimeInstant::at(0, hour);
        for _ in 0..25 {
            engine.ingest(scripted_event(data, 21, next_id, now, 2.5));
            next_id += 1;
        }
        reports.push(engine.run_round(now, AlgorithmKind::Ia));
    }
    reports
}

#[test]
fn round_reports_identical_across_thread_budgets() {
    let data = dataset();
    let online = OnlineConfig {
        round_hours: 1,
        growth_cap: 512,
        eviction_horizon: 3,
        target_sets: 0,
        incremental: true,
    };
    let single = run_script(&data, Parallelism::Single, online);
    for threads in [2usize, 4, 8] {
        let sharded = run_script(&data, Parallelism::Fixed(threads), online);
        assert_eq!(
            single, sharded,
            "round reports diverged at threads={threads}"
        );
    }
}

#[test]
fn frozen_round_reports_identical_across_thread_budgets() {
    // Without maintenance the only thread-sensitive work is the
    // scoring path itself — the purest report-for-report check.
    let data = dataset();
    let single = run_script(&data, Parallelism::Single, OnlineConfig::default());
    let sharded = run_script(&data, Parallelism::Fixed(4), OnlineConfig::default());
    assert_eq!(single, sharded);
    assert!(
        single.iter().map(|r| r.assigned).sum::<usize>() > 0,
        "non-trivial fixture"
    );
}

#[test]
fn maintained_pools_identical_across_thread_budgets() {
    let data = dataset();
    let online = OnlineConfig {
        round_hours: 1,
        growth_cap: 256,
        eviction_horizon: 2,
        target_sets: 0,
        incremental: true,
    };
    let run_pool = |threads| {
        let pipeline = pipeline(&data, threads, online);
        let mut engine = EngineBuilder::new()
            .pipeline(PipelineMode::Owned(Box::new(pipeline)))
            .network(NetworkMode::Fixed(&data.social))
            .build();
        let cohort = data.instance_for_day(0, 0, 60, InstanceOptions::default());
        for worker in cohort.instance.workers {
            engine.ingest(EventKind::WorkerArrival { worker });
        }
        for hour in 8..14i64 {
            let now = TimeInstant::at(0, hour);
            for i in 0..10u32 {
                engine.ingest(scripted_event(&data, 5, hour as u32 * 100 + i, now, 3.0));
            }
            engine.run_round(now, AlgorithmKind::Ia);
        }
        engine.into_pipeline().model().pool().fingerprint()
    };
    assert_eq!(
        run_pool(Parallelism::Single),
        run_pool(Parallelism::Fixed(4))
    );
}

#[test]
fn full_assignment_path_identical_across_thread_budgets() {
    // One batch instance through the whole pipeline surface
    // (`assign_many` shares matrix + warm cache across algorithms):
    // every algorithm's assignment must match the single-thread run
    // exactly, and the sharded matrix must equal the sequential one.
    let data = dataset();
    let p1 = pipeline(&data, Parallelism::Single, OnlineConfig::default());
    let p4 = pipeline(&data, Parallelism::Fixed(4), OnlineConfig::default());
    let day = data.instance_for_day(0, 120, 100, InstanceOptions::default());

    let m1 = EligibilityMatrix::build_with_threads(&day.instance, 1);
    let m4 = EligibilityMatrix::build_with_threads(&day.instance, 4);
    assert_eq!(m1, m4, "matrix-for-matrix");

    let kinds = [
        AlgorithmKind::Mta,
        AlgorithmKind::Ia,
        AlgorithmKind::Eia,
        AlgorithmKind::Dia,
        AlgorithmKind::Mi,
    ];
    let a1 = p1.assign_many(&day.instance, Some(&day.task_venues), &kinds);
    let a4 = p4.assign_many(&day.instance, Some(&day.task_venues), &kinds);
    for ((kind, x), y) in kinds.iter().zip(a1.iter()).zip(a4.iter()) {
        assert_eq!(x.pairs(), y.pairs(), "{kind}: assignment diverged");
    }

    // And the raw sharded scoring scan equals the sequential scan.
    let scorer = p1.scorer();
    let input1 = AssignInput::new(&day.instance, &scorer);
    let input4 = AssignInput::new(&day.instance, &scorer).with_threads(4);
    let ia1 = run_with_matrix(AlgorithmKind::Ia, &input1, &m1);
    let ia4 = run_with_matrix(AlgorithmKind::Ia, &input4, &m1);
    assert_eq!(ia1.pairs(), ia4.pairs());
}
