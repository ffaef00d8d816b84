//! Trace replay: drive the online engine from a recorded check-in
//! stream.
//!
//! [`replay_day`] is the end-to-end driver of the dataset-backed
//! workload class:
//!
//! 1. **train on the past** — the pipeline is trained on
//!    [`LoadedDataset::training_slice`], i.e. the population and
//!    histories observed *before* the replay day (what a platform
//!    actually knows when the day opens);
//! 2. **replay the day** — a [`ReplayStream`] turns the day's
//!    check-ins into a deterministic timeline of worker arrivals, task
//!    postings, departures, and round ticks, consumed round by round by
//!    an engine built with [`PipelineMode::Owned`] and
//!    [`NetworkMode::Adaptive`];
//! 3. **fold in the unseen** — a worker whose first check-in falls on
//!    the replay day is outside the trained population; the
//!    [`ReplayTranslator`] assigns them the next dense id and folds
//!    them into the live influence network (an [`EventKind::WorkerNew`]
//!    event) with their social edges (mapped onto already-known
//!    workers) and their check-in evidence so far, so they earn
//!    non-zero influence without a retrain.
//!
//! The same [`ReplayTranslator`] feeds `dita post-replay`, which posts
//! its events to a running `dita serve`, so in-process and wire replay
//! hand the engine one event stream.
//!
//! Determinism: the stream carries no randomness and the engine's
//! maintenance + scoring are bit-identical at any thread budget, so two
//! replays of the same trace and configuration produce equal
//! [`ReplayReport`]s even at different `--threads` settings
//! (`crates/sim/tests/replay_determinism.rs` pins this in release CI;
//! servebench's `churn` workload times replayed rounds with fold-ins).

use crate::event::{EventKind, Outcome};
use crate::online::{
    EngineBuilder, NetworkMode, OnlineEngine, OnlineSummary, PipelineMode, RoundReport,
};
use sc_assign::AlgorithmKind;
use sc_core::{DitaBuilder, DitaConfig};
use sc_datagen::{LoadedDataset, ReplayEvent, ReplayOptions, ReplayStream};
use sc_types::{History, Worker, WorkerId};
use std::collections::HashMap;

/// One replayed round: the engine's report plus the stream bookkeeping
/// of that round. Equality follows [`RoundReport`] (wall time ignored).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRoundOutcome {
    /// The engine's round report.
    pub report: RoundReport,
    /// Check-in events delivered this round.
    pub checkins: usize,
    /// Workers folded into the live network this round.
    pub fold_ins: usize,
    /// Arrivals rejected this round (no fold-in path).
    pub rejected: usize,
}

/// The outcome of one replayed day. Equality ignores wall-clock fields,
/// mirroring [`RoundReport`]/[`OnlineSummary`], so reports from runs at
/// different thread budgets compare byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The replayed day index.
    pub day: i64,
    /// Workers in the trained (pre-day) population.
    pub trained_workers: usize,
    /// Check-ins replayed.
    pub checkins: usize,
    /// `(trace id, dense id)` of every worker folded in mid-replay.
    pub folded: Vec<(WorkerId, WorkerId)>,
    /// Per-round outcomes in round order.
    pub rounds: Vec<ReplayRoundOutcome>,
    /// The engine's lifetime summary.
    pub summary: OnlineSummary,
}

impl ReplayReport {
    /// Workers folded in over the whole replay.
    pub fn fold_ins(&self) -> usize {
        self.folded.len()
    }
}

/// A finished replay: the report plus the engine it ran on (live model,
/// grown network, maintained pool) for inspection or continued serving.
#[derive(Debug)]
pub struct ReplayRun {
    /// The per-round and lifetime outcome.
    pub report: ReplayReport,
    /// The engine after the last round.
    pub engine: OnlineEngine<'static>,
}

/// Translates a trace day's [`ReplayEvent`]s into engine events,
/// tracking the dense worker ids an owned, adaptive engine gives out.
///
/// A check-in of a known worker becomes an
/// [`EventKind::WorkerArrival`] under their dense id. A first sighting
/// becomes an [`EventKind::WorkerNew`] under the next dense id, with
/// the worker's friendships onto already-known workers and their
/// check-ins up to now as evidence. It keeps that id only when it has
/// at least one known friend: the engine refuses a friendless fold-in
/// ([`crate::RejectReason::NoUsableFriends`]) without using an id, so
/// the worker signs up again at their next check-in. A departure of a
/// worker the engine never knew translates to nothing.
#[derive(Debug)]
pub struct ReplayTranslator<'a> {
    data: &'a LoadedDataset,
    opts: &'a ReplayOptions,
    to_dense: HashMap<WorkerId, WorkerId>,
    next_dense: usize,
}

impl<'a> ReplayTranslator<'a> {
    /// Starts from the trace → dense map of the trained population
    /// ([`sc_datagen::TrainingSlice::to_dense`]).
    pub fn new(
        data: &'a LoadedDataset,
        opts: &'a ReplayOptions,
        to_dense: HashMap<WorkerId, WorkerId>,
    ) -> Self {
        let next_dense = to_dense.len();
        ReplayTranslator {
            data,
            opts,
            to_dense,
            next_dense,
        }
    }

    /// The engine event for one trace event.
    pub fn translate(&mut self, event: &ReplayEvent) -> Option<EventKind> {
        match event {
            ReplayEvent::CheckIn {
                worker,
                location,
                at,
                ..
            } => {
                let worker_at = |id| {
                    Worker::new(id, *location, self.opts.radius_km).with_speed(self.opts.speed_kmh)
                };
                if let Some(&dense) = self.to_dense.get(worker) {
                    return Some(EventKind::WorkerArrival {
                        worker: worker_at(dense),
                    });
                }
                let dense = WorkerId::from(self.next_dense);
                let friends: Vec<WorkerId> = self
                    .data
                    .social
                    .informs(worker.raw())
                    .iter()
                    .filter_map(|f| self.to_dense.get(&WorkerId::new(*f)).copied())
                    .collect();
                let mut history = History::new();
                for r in self.data.histories.history(*worker).records() {
                    if r.arrived <= *at {
                        let mut rec = r.clone();
                        rec.worker = dense;
                        history.push(rec);
                    }
                }
                if !friends.is_empty() {
                    self.to_dense.insert(*worker, dense);
                    self.next_dense += 1;
                }
                Some(EventKind::WorkerNew {
                    worker: worker_at(dense),
                    friends,
                    history,
                })
            }
            ReplayEvent::TaskPosted { task, venue } => Some(EventKind::TaskArrival {
                task: task.clone(),
                venue: *venue,
            }),
            ReplayEvent::Departure { worker, .. } => self
                .to_dense
                .get(worker)
                .map(|&dense| EventKind::WorkerDeparture { worker: dense }),
        }
    }
}

/// Trains on the trace's past and replays `day` through an adaptive
/// online engine. `config.online` governs per-round pool maintenance;
/// `config.rpo.threads` governs every parallel phase (results are
/// bit-identical at any budget). Errors when the trace has no history
/// before `day` (nothing to train on) or no check-ins on `day`
/// (nothing to replay).
pub fn replay_day(
    data: &LoadedDataset,
    day: i64,
    config: DitaConfig,
    opts: &ReplayOptions,
    algorithm: AlgorithmKind,
) -> sc_types::Result<ReplayRun> {
    let slice = data.training_slice(day)?;
    let stream = ReplayStream::from_dataset(data, day, opts)?;
    let pipeline = DitaBuilder::new()
        .config(config)
        .build(&slice.social, &slice.histories)?;
    let trained_workers = pipeline.model().n_workers();
    let mut engine = EngineBuilder::new()
        .pipeline(PipelineMode::Owned(Box::new(pipeline)))
        .network(NetworkMode::Adaptive(Box::new(slice.social)))
        .config(config.online)
        .build();

    let mut translator = ReplayTranslator::new(data, opts, slice.to_dense);
    let mut folded: Vec<(WorkerId, WorkerId)> = Vec::new();
    let mut rounds = Vec::with_capacity(stream.n_rounds());

    for round in stream.rounds() {
        let mut checkins = 0usize;
        let mut fold_ins = 0usize;
        let mut rejected = 0usize;
        for event in &round.events {
            let Some(kind) = translator.translate(event) else {
                continue;
            };
            let first_sighting = match (event, &kind) {
                (ReplayEvent::CheckIn { worker, .. }, EventKind::WorkerNew { worker: w, .. }) => {
                    Some((*worker, w.id))
                }
                _ => None,
            };
            checkins += usize::from(matches!(event, ReplayEvent::CheckIn { .. }));
            match (engine.ingest(kind), first_sighting) {
                (Outcome::WorkerFoldedIn, Some(ids)) => {
                    folded.push(ids);
                    fold_ins += 1;
                }
                (Outcome::Rejected(_), Some(_)) => rejected += 1,
                _ => {}
            }
        }
        let report = engine.run_round(round.now, algorithm);
        rounds.push(ReplayRoundOutcome {
            report,
            checkins,
            fold_ins,
            rejected,
        });
    }

    let summary = engine.summary();
    Ok(ReplayRun {
        report: ReplayReport {
            day,
            trained_workers,
            checkins: stream.n_checkins(),
            folded,
            rounds,
            summary,
        },
        engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_influence::RpoParams;
    use sc_types::{CheckIn, HistoryStore, Location, TimeInstant, VenueId};

    /// A 12-worker, two-day trace. Workers 0..=9 are active on day 0;
    /// workers 10 and 11 first appear on day 1 (fold-in candidates),
    /// befriended with trained workers.
    fn trace() -> LoadedDataset {
        let mut store = HistoryStore::default();
        let mut push = |w: u32, v: u32, x: f64, day: i64, hour: i64| {
            store.push(CheckIn::at(
                WorkerId::new(w),
                VenueId::new(v),
                Location::new(x, 0.0),
                TimeInstant::at(day, hour),
                vec![sc_types::CategoryId::new(v % 4)],
            ));
        };
        for w in 0..10u32 {
            for day in 0..2i64 {
                for k in 0..3i64 {
                    let v = w % 5;
                    push(w, v, v as f64, day, 8 + k * 3 + (w as i64 % 3));
                }
            }
        }
        push(10, 2, 2.0, 1, 10);
        push(10, 3, 3.0, 1, 14);
        push(11, 4, 4.0, 1, 12);
        let mut edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        edges.push((0, 10));
        edges.push((1, 10));
        edges.push((2, 11));
        LoadedDataset::from_parts(edges, store, 3).unwrap()
    }

    fn config(threads: usize) -> DitaConfig {
        DitaConfig {
            n_topics: 4,
            lda_sweeps: 8,
            infer_sweeps: 4,
            rpo: RpoParams {
                max_sets: 3_000,
                threads: sc_influence::Parallelism::Fixed(threads),
                ..Default::default()
            },
            online: sc_core::OnlineConfig {
                round_hours: 1,
                growth_cap: 256,
                eviction_horizon: 4,
                target_sets: 0,
                incremental: true,
            },
            seed: 9,
        }
    }

    #[test]
    fn replay_trains_on_the_past_and_folds_in_the_unseen() {
        let data = trace();
        let run = replay_day(
            &data,
            1,
            config(1),
            &ReplayOptions::default(),
            AlgorithmKind::Ia,
        )
        .unwrap();
        let report = &run.report;
        assert_eq!(report.trained_workers, 10);
        assert_eq!(report.fold_ins(), 2, "workers 10 and 11 are unseen");
        assert_eq!(
            report
                .folded
                .iter()
                .map(|&(t, _)| t.raw())
                .collect::<Vec<_>>(),
            vec![10, 11],
            "unseen workers fold in, in first-sighting order"
        );
        // Dense ids continue the trained population.
        assert_eq!(
            report
                .folded
                .iter()
                .map(|&(_, d)| d.raw())
                .collect::<Vec<_>>(),
            vec![10, 11]
        );
        assert_eq!(
            report.summary.published,
            report
                .rounds
                .iter()
                .map(|r| r.report.task_arrivals)
                .sum::<usize>()
        );
        // Conservation holds across the whole replay.
        let s = &report.summary;
        assert_eq!(s.published, s.assigned + s.expired + s.still_open);
        assert!(s.assigned > 0, "a replayed day assigns tasks");
        // The engine's population grew by the fold-ins.
        assert_eq!(run.engine.pipeline().model().n_workers(), 12);
        assert_eq!(run.engine.network().n_workers(), 12);
    }

    #[test]
    fn folded_workers_score_nonzero_influence() {
        let data = trace();
        let run = replay_day(
            &data,
            1,
            config(1),
            &ReplayOptions::default(),
            AlgorithmKind::Ia,
        )
        .unwrap();
        let scorer = run.engine.pipeline().scorer();
        // Score each folded worker against a task at their own venue.
        for &(trace_id, dense) in &run.report.folded {
            let rec = &data.histories.history(trace_id).records()[0];
            let venue = data.venues.iter().find(|v| v.id == rec.venue).unwrap();
            let task = sc_types::Task::with_categories(
                sc_types::TaskId::new(9_999),
                venue.location,
                TimeInstant::at(1, 15),
                sc_types::Duration::hours(3),
                venue.categories.clone(),
            );
            let score = scorer.score(dense, &task);
            assert!(
                score > 0.0,
                "folded worker {} (dense {}) must score non-zero, got {score}",
                trace_id.raw(),
                dense.raw()
            );
        }
    }

    #[test]
    fn replay_errors_without_history_or_checkins() {
        let data = trace();
        assert!(
            replay_day(
                &data,
                0,
                config(1),
                &ReplayOptions::default(),
                AlgorithmKind::Ia
            )
            .is_err(),
            "day 0 has no past to train on"
        );
        assert!(
            replay_day(
                &data,
                7,
                config(1),
                &ReplayOptions::default(),
                AlgorithmKind::Ia
            )
            .is_err(),
            "day 7 has nothing to replay"
        );
    }
}
