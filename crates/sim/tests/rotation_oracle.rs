//! Bounded pool rotation against a retrain-every-round oracle.
//!
//! The online engine never retrains its RRR pool. Each round it evicts
//! at most `growth_cap` sets that fell behind the eviction horizon and
//! samples as many fresh ones, so the live window slides along one
//! seeded stream. The fresh sets are iid samples of the same
//! distribution as the ones they replace, so the engine should assign
//! about as well as an engine whose pool is rebuilt from scratch before
//! every round. This suite drives one arrival script through both and
//! asserts that the end-of-run Average Influence (AI) stays within 5 %
//! of the oracle's. It also pins both engines' AI and assignment rate
//! on the script: 0.013382 against 0.013129, and 0.4917 against 0.4938.

use sc_assign::AlgorithmKind;
use sc_core::{DitaBuilder, DitaConfig, OnlineConfig};
use sc_datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
use sc_influence::{Rpo, RpoParams};
use sc_sim::{scripted_event, EngineBuilder, EventKind, NetworkMode, OnlineEngine, PipelineMode};
use sc_types::{TimeInstant, Worker};

const SEED: u64 = 0xD17A_0002;
/// Task valid time φ, in hours.
const PHI: f64 = 3.0;

/// One round of the arrival script.
struct Round {
    now: TimeInstant,
    workers: Vec<Worker>,
    tasks: Vec<EventKind>,
}

/// Two days of hourly rounds from 08:00 to 19:00: a 120-worker cohort
/// logs in at 08:00 each day, and 20 tasks arrive every round.
fn script(data: &SyntheticDataset) -> Vec<Round> {
    let opts = InstanceOptions {
        valid_hours: PHI,
        ..Default::default()
    };
    let mut rounds = Vec::new();
    let mut next_id = 0u32;
    for day in 0..2usize {
        for hour in 8..20i64 {
            let now = TimeInstant::at(day as i64, hour);
            let workers = if hour == 8 {
                data.instance_for_day(day, 0, 120, opts).instance.workers
            } else {
                Vec::new()
            };
            let tasks = (0..20)
                .map(|_| {
                    next_id += 1;
                    scripted_event(data, SEED, next_id - 1, now, PHI)
                })
                .collect();
            rounds.push(Round {
                now,
                workers,
                tasks,
            });
        }
    }
    rounds
}

fn ingest(engine: &mut OnlineEngine<'_>, round: &Round) {
    for worker in &round.workers {
        engine.ingest(EventKind::WorkerArrival {
            worker: worker.clone(),
        });
    }
    for task in &round.tasks {
        engine.ingest(task.clone());
    }
}

#[test]
fn rotation_assigns_like_a_pool_retrained_every_round() {
    let data = SyntheticDataset::generate(&DatasetProfile::brightkite_small(), SEED);
    // The small-scale figure configuration, with the rotation this
    // suite measures: 1,024 sets a round, evictable after 6 rounds.
    let config = DitaConfig {
        n_topics: 12,
        lda_sweeps: 25,
        infer_sweeps: 10,
        rpo: RpoParams {
            max_sets: 30_000,
            ..Default::default()
        },
        online: OnlineConfig {
            round_hours: 1,
            growth_cap: 1_024,
            eviction_horizon: 6,
            target_sets: 0,
            incremental: true,
        },
        seed: 0xD17A,
    };
    let pipeline = DitaBuilder::new()
        .config(config)
        .build(&data.social, &data.histories)
        .expect("training");
    let rpo = Rpo::new(pipeline.model().config().rpo);
    let master_seed = pipeline.model().pool().master_seed();
    let trained_sets = pipeline.model().pool().n_sets();
    let rounds = script(&data);

    // The live engine: bounded rotation, no retrain.
    let mut live = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline.clone())))
        .network(NetworkMode::Fixed(&data.social))
        .build();
    for round in &rounds {
        ingest(&mut live, round);
        live.run_round(round.now, AlgorithmKind::Ia);
    }
    let live_summary = live.summary();
    assert_eq!(
        live_summary.published,
        live_summary.assigned + live_summary.expired + live_summary.still_open,
        "task conservation broken"
    );
    assert!(live_summary.sets_evicted > 0, "the pool never rotated");
    assert_eq!(
        (
            live_summary.sets_added,
            live.pipeline().model().pool().n_sets()
        ),
        (live_summary.sets_evicted, trained_sets),
        "rotation must sample back every set it evicts"
    );

    // The oracle: no maintenance, but a pool rebuilt from a fresh seed
    // before every round.
    let mut oracle = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Fixed(&data.social))
        .config(OnlineConfig::default())
        .build();
    for (i, round) in rounds.iter().enumerate() {
        let round_seed = rand::mix_stream(master_seed, i as u64 + 1);
        let (pool, _) = rpo.build_pool_seeded(&data.social, round_seed);
        *oracle.pipeline_mut().model_mut().pool_mut() = pool;
        ingest(&mut oracle, round);
        oracle.run_round(round.now, AlgorithmKind::Ia);
    }
    let oracle_summary = oracle.summary();

    let (ai_live, ai_oracle) = (
        live_summary.average_influence,
        oracle_summary.average_influence,
    );
    assert!(
        (ai_live - ai_oracle).abs() <= 0.05 * ai_oracle,
        "AI {ai_live:.6} is more than 5 % from the oracle's {ai_oracle:.6}"
    );
    assert_eq!(
        (format!("{ai_live:.6}"), format!("{ai_oracle:.6}")),
        ("0.013382".to_string(), "0.013129".to_string()),
        "average influence, live and oracle"
    );
    assert_eq!(
        (
            format!("{:.4}", live_summary.assignment_rate()),
            format!("{:.4}", oracle_summary.assignment_rate())
        ),
        ("0.4917".to_string(), "0.4938".to_string()),
        "assignment rate, live and oracle"
    );
}
