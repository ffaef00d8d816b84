//! The three workloads as seed-determined streams of exact wire bodies.
//!
//! A workload is generated in full before anything is timed: every
//! round's events, the `POST /events` bodies that carry them, and the
//! `POST /round` body that closes the round. The served run sends the
//! bodies; the in-process replay decodes the same bodies (traced) or
//! ingests the same events (untraced), so both sides see one stream.

use sc_core::{DitaBuilder, OnlineConfig};
use sc_datagen::{
    DatasetProfile, InstanceOptions, LoadedDataset, ReplayEvent, ReplayOptions, ReplayStream,
    SyntheticDataset,
};
use sc_sim::{scripted_event, EngineBuilder, EventKind, NetworkMode, OnlineEngine, PipelineMode};
use sc_types::{History, HistoryStore, TimeInstant, Worker, WorkerId};
use serde::json::Value;
use serde::Serialize as _;
use std::collections::HashMap;
use std::time::Instant;

/// Events per `POST /events` body on `steady` and `contested`: a
/// gateway forwarding a login wave. Decode cost per event grows with
/// body size, so the size is part of the workload.
const BATCH: usize = 200;

/// Rounds before the end at which `churn` snapshots the server; the
/// restored server replays exactly these rounds.
pub const REPLAYED_AFTER_RESTORE: usize = 3;

/// Which workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A normal day: a large cohort re-logs in every hour; reuse is at
    /// its best and 200-event bodies put JSON decode on the ingest path.
    Steady,
    /// Rush hour: fewer workers than tasks can use, a 30 km radius,
    /// and the solve phase dominating every round.
    Contested,
    /// Sign-up days replayed from a trace: fold-ins, departures and one
    /// event per request, plus snapshot and restore.
    Churn,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "steady" => Some(Kind::Steady),
            "contested" => Some(Kind::Contested),
            "churn" => Some(Kind::Churn),
            _ => None,
        }
    }

    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Contested => "contested",
            Kind::Churn => "churn",
        }
    }

    /// Whether the writer and the server's threads share one CPU while
    /// the round's `POST /events` requests run (`POST /round` always has
    /// every CPU). A `churn` request carries one event, so its cost is
    /// mostly the connection and the wake-ups of the threads that serve
    /// it, and across CPUs each wake-up is an interrupt between virtual
    /// CPUs. On a shared 2-vCPU VM that made a request's CPU time about a
    /// third higher and tied it to the hypervisor's steal (≈110 µs an
    /// event at 5 % steal, ≈145 µs at 27 %); on one CPU the same
    /// requests took 75-86 µs. The 200-event bodies of `steady` and
    /// `contested` cost mostly decode, which one CPU does not change;
    /// on `contested` it would put the poller's `GET /report` requests
    /// on the writer's CPU, so they run unpinned.
    pub fn pins_ingest(self) -> bool {
        self == Kind::Churn
    }

    /// Rounds per second of `--seconds` on the reference host (2 cores):
    /// sets a run's fixed amount of work, so both sides of an A/B
    /// comparison replay the same stream.
    fn nominal_rounds_per_s(self) -> f64 {
        match self {
            Kind::Steady => 7.0,
            Kind::Contested => 5.0,
            Kind::Churn => 100.0,
        }
    }
}

/// How large a run is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Rounds to generate (at least; churn replays whole days).
    pub rounds: usize,
    /// Smoke size: small populations for a quick end-to-end check.
    pub smoke: bool,
}

impl Size {
    /// Every named percentile needs ten samples beyond it: p90 over the
    /// warm rounds (all but the first) needs at least 100 of them.
    pub const MIN_ROUNDS: usize = 101;

    /// The run size for `seconds` of stream on the reference host.
    pub fn for_seconds(kind: Kind, seconds: u64, smoke: bool) -> Size {
        let rounds = if smoke {
            12
        } else {
            ((seconds as f64 * kind.nominal_rounds_per_s()).round() as usize).max(Self::MIN_ROUNDS)
        };
        Size { rounds, smoke }
    }
}

/// One round of the stream.
#[derive(Debug, Clone)]
pub struct Round {
    /// The instant the round closes at.
    pub now: TimeInstant,
    /// The round's events, in send order.
    pub events: Vec<EventKind>,
    /// The `POST /events` bodies carrying `events`, in order.
    pub bodies: Vec<String>,
    /// The `POST /round` body.
    pub close: String,
}

/// What the engine is trained on.
pub enum Inputs {
    /// A synthetic population (`steady`, `contested`).
    Synthetic(SyntheticDataset),
    /// A trace whose days before `day` are the training window (`churn`).
    Trace {
        /// The whole trace.
        data: LoadedDataset,
        /// The first replayed day.
        day: i64,
    },
}

/// A generated workload.
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// Training inputs.
    pub inputs: Inputs,
    /// The stream.
    pub rounds: Vec<Round>,
    /// `churn` only: the round index before which the server is
    /// snapshotted; the restored server replays `rounds[at..]`.
    pub snapshot_at: Option<usize>,
}

/// Setup timings of one trained engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainTimes {
    /// `LoadedDataset::training_slice` (trace inputs only).
    pub slice_s: f64,
    /// `DitaBuilder::build`.
    pub train_s: f64,
    /// RRR sets in the trained pool.
    pub rpo_sets: usize,
}

/// The serving defaults of `dita serve`: rotation quantum 1,024,
/// horizon 24, incremental rounds.
fn serve_online() -> OnlineConfig {
    OnlineConfig {
        round_hours: 1,
        growth_cap: 1_024,
        eviction_horizon: 24,
        target_sets: 0,
        incremental: true,
    }
}

impl Inputs {
    /// Trains an owned + adaptive engine the way `dita serve` does, with
    /// the paper's default configuration (`DitaConfig::default()`: 50
    /// topics, ε = 0.1, WC propagation, a thread budget of `nproc`).
    pub fn train(&self) -> (OnlineEngine<'static>, TrainTimes) {
        let mut times = TrainTimes::default();
        let (pipeline, social) = match self {
            Inputs::Synthetic(data) => {
                let t = Instant::now();
                let pipeline = DitaBuilder::new()
                    .online(serve_online())
                    .build(&data.social, &data.histories)
                    .expect("training on a generated population");
                times.train_s = t.elapsed().as_secs_f64();
                (pipeline, data.social.clone())
            }
            Inputs::Trace { data, day } => {
                let t = Instant::now();
                let slice = data.training_slice(*day).expect("the trace has a past");
                times.slice_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let pipeline = DitaBuilder::new()
                    .online(serve_online())
                    .build(&slice.social, &slice.histories)
                    .expect("training on the trace's past");
                times.train_s = t.elapsed().as_secs_f64();
                (pipeline, slice.social)
            }
        };
        times.rpo_sets = pipeline.model().pool().n_sets();
        let engine = EngineBuilder::new()
            .pipeline(PipelineMode::Owned(Box::new(pipeline)))
            .network(NetworkMode::Adaptive(Box::new(social)))
            .build();
        (engine, times)
    }
}

/// Generates `kind` from `seed`.
pub fn generate(kind: Kind, seed: u64, size: Size) -> Workload {
    match kind {
        Kind::Steady => cohort_workload(kind, seed, size, 1_500, 250, 5.0),
        Kind::Contested => cohort_workload(kind, seed, size, 600, 500, 30.0),
        Kind::Churn => churn(seed, size),
    }
}

fn close_body(now: TimeInstant) -> String {
    format!("{{\"at\": {}}}", now.as_seconds())
}

/// The seed of the synthetic world every run shares: population,
/// social graph, venues and histories. A run's `--seed` draws the
/// stream from that world — cohort, task venues, sign-ups — so runs
/// with different seeds vary the events while the model they are
/// served against, and its training cost, stay the same.
const WORLD_SEED: u64 = 0xD17A_5E4E;

/// `steady` and `contested`: 2,000 BK-profile workers, 300 venues; a
/// seed-drawn cohort re-logs in every hourly round and `tasks` tasks
/// (φ = 3 h) are posted at seed-drawn venues.
fn cohort_workload(
    kind: Kind,
    seed: u64,
    size: Size,
    cohort: usize,
    tasks: usize,
    radius_km: f64,
) -> Workload {
    let scale = if size.smoke { 8 } else { 1 };
    let mut profile = DatasetProfile::brightkite_small();
    profile.n_workers = 2_000 / scale;
    profile.n_venues = 300 / scale;
    profile.checkins_per_worker = 12;
    let data = SyntheticDataset::generate(&profile, WORLD_SEED);
    let phi = 3.0;
    let opts = InstanceOptions {
        valid_hours: phi,
        radius_km,
        ..Default::default()
    };
    // The cohort draw is keyed by a day index; a 32-bit one keeps the
    // instant it computes in range for any seed.
    let day = rand::mix_stream(seed, 0) as u32 as usize;
    let cohort = data
        .instance_for_day(day, 0, cohort / scale, opts)
        .instance
        .workers;

    let mut next_task = 0u32;
    let rounds = (0..size.rounds)
        .map(|r| {
            let now = TimeInstant::at(0, 8 + r as i64);
            let tasks: Vec<EventKind> = (0..tasks / scale)
                .map(|_| {
                    next_task += 1;
                    scripted_event(&data, seed, next_task - 1, now, phi)
                })
                .collect();
            let events = interleave(&cohort, tasks);
            // Equal bodies of at most BATCH events, each with the same mix
            // of logins and postings, so body size is one value per workload.
            let per_body = events.len().div_ceil(events.len().div_ceil(BATCH));
            let bodies = events
                .chunks(per_body)
                .map(|chunk| {
                    Value::Array(chunk.iter().map(|e| e.to_value()).collect()).to_json_string()
                })
                .collect();
            Round {
                now,
                events,
                bodies,
                close: close_body(now),
            }
        })
        .collect();
    Workload {
        kind,
        inputs: Inputs::Synthetic(data),
        rounds,
        snapshot_at: None,
    }
}

/// The cohort's logins with the round's task postings spread evenly
/// among them, in order.
fn interleave(cohort: &[Worker], tasks: Vec<EventKind>) -> Vec<EventKind> {
    let total = cohort.len() + tasks.len();
    let n_tasks = tasks.len();
    let mut tasks = tasks.into_iter();
    let mut workers = cohort.iter();
    let mut placed = 0;
    (0..total)
        .map(|k| {
            if (k + 1) * n_tasks / total > placed {
                placed += 1;
                tasks.next()
            } else {
                workers
                    .next()
                    .map(|w| EventKind::WorkerArrival { worker: w.clone() })
            }
            .expect("every slot has an event")
        })
        .collect()
}

/// Replay rounds per trace day: hourly ticks from the first check-in
/// until the last departure, four hours after the last check-in.
const ROUNDS_PER_DAY: usize = 28;

/// `churn`: a synthetic trace in which one worker in five (drawn by the
/// seed) has their history before their sign-up day removed, so they
/// arrive unseen and are folded in mid-replay. Sign-up days are drawn
/// over the replayed days, so every replayed day is a sign-up day
/// however long the run. Consecutive days are replayed the way
/// `dita post-replay` translates a day, one event per body.
fn churn(seed: u64, size: Size) -> Workload {
    let first_day = 15i64;
    let mut profile = DatasetProfile::brightkite_small();
    profile.n_workers = if size.smoke { 120 } else { 600 };
    profile.n_venues = profile.n_workers / 2;
    // 1.4 check-ins per worker and day, over enough days for any run.
    profile.n_days = 90;
    profile.checkins_per_worker = 126;
    let days = if size.smoke {
        1
    } else {
        size.rounds
            .div_ceil(ROUNDS_PER_DAY)
            .min(profile.n_days - first_day as usize)
    };
    // The day a worker's history starts: the first replayed day or
    // later for one worker in five, before it for the rest.
    let first_seen = |w: WorkerId| {
        let draw = rand::mix_stream(seed, w.raw() as u64);
        if draw.is_multiple_of(5) {
            first_day + ((draw / 5) % days as u64) as i64
        } else {
            0
        }
    };
    let synthetic = SyntheticDataset::generate(&profile, WORLD_SEED);
    let mut store = HistoryStore::with_workers(profile.n_workers);
    for (w, history) in synthetic.histories.iter() {
        for r in history.records() {
            if r.arrived.day() >= first_seen(w) {
                store.push(r.clone());
            }
        }
    }
    let data = LoadedDataset::from_parts(synthetic.social_edges.clone(), store, WORLD_SEED)
        .expect("a synthetic trace has workers and venues");
    let opts = ReplayOptions::default();

    let slice = data
        .training_slice(first_day)
        .expect("the trace has a past");
    let mut translator = Translator {
        to_dense: slice.to_dense,
        next_dense: slice.from_dense.len(),
    };
    let mut rounds = Vec::new();
    for day in first_day..first_day + days as i64 {
        let stream =
            ReplayStream::from_dataset(&data, day, &opts).expect("every trace day has check-ins");
        for round in stream.rounds() {
            let events: Vec<EventKind> = round
                .events
                .iter()
                .filter_map(|e| translator.translate(&data, &opts, e))
                .collect();
            let bodies = events
                .iter()
                .map(|e| e.to_value().to_json_string())
                .collect();
            rounds.push(Round {
                now: round.now,
                events,
                bodies,
                close: close_body(round.now),
            });
        }
    }
    let snapshot_at = rounds.len() - REPLAYED_AFTER_RESTORE;
    Workload {
        kind: Kind::Churn,
        inputs: Inputs::Trace {
            data,
            day: first_day,
        },
        rounds,
        snapshot_at: Some(snapshot_at),
    }
}

/// Translates trace events into wire events as `dita post-replay` does,
/// predicting the engine's dense-id assignment: a first sighting with at
/// least one known friend is folded in under the next dense id; one
/// without is sent anyway and refused (`no_usable_friends`), so it takes
/// no id and signs up again at its next check-in.
struct Translator {
    to_dense: HashMap<WorkerId, WorkerId>,
    next_dense: usize,
}

impl Translator {
    fn translate(
        &mut self,
        data: &LoadedDataset,
        opts: &ReplayOptions,
        event: &ReplayEvent,
    ) -> Option<EventKind> {
        match event {
            ReplayEvent::CheckIn {
                worker,
                location,
                at,
                ..
            } => {
                let worker_at =
                    |id| Worker::new(id, *location, opts.radius_km).with_speed(opts.speed_kmh);
                if let Some(&dense) = self.to_dense.get(worker) {
                    return Some(EventKind::WorkerArrival {
                        worker: worker_at(dense),
                    });
                }
                let dense = WorkerId::from(self.next_dense);
                let friends: Vec<WorkerId> = data
                    .social
                    .informs(worker.raw())
                    .iter()
                    .filter_map(|f| self.to_dense.get(&WorkerId::new(*f)).copied())
                    .collect();
                let mut history = History::new();
                for r in data.histories.history(*worker).records() {
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
