//! The online assignment engine: a live DITA pipeline serving
//! streaming arrivals with bounded per-round pool maintenance.
//!
//! The paper evaluates one batch per day, but its own setup describes
//! an online platform ("a worker is online until the worker is
//! assigned a task"). [`OnlineEngine`] is that deployment mode as a
//! first-class subsystem:
//!
//! * **streaming state** — every mutation is one typed
//!   [`Event`] applied through [`OnlineEngine::apply`]
//!   (or its auto-stamping sibling [`OnlineEngine::ingest`]): task
//!   postings, worker logins, fold-ins, departures. Events are totally
//!   ordered by `(round, seq)` and serde-able, so the in-process
//!   drivers, the replay machinery, and the `dita serve` HTTP front all
//!   share one code path. Unassigned tasks persist until they expire;
//!   assigned workers leave the pool;
//! * **dynamic populations** — an engine built with
//!   [`NetworkMode::Adaptive`] owns its social network and folds
//!   previously-unseen workers into the live influence model on arrival
//!   ([`EventKind::WorkerNew`]): the graph
//!   grows, topic and willingness entries are fitted from the arrival's
//!   evidence, and the RRR pool splices the worker into live sets — so
//!   late arrivals earn **non-zero influence without a retrain**.
//!   Engines that cannot fold in (frozen or fixed-population) reject
//!   unknown workers explicitly
//!   ([`Outcome::Rejected`], with a named
//!   [`RejectReason`]) instead of silently
//!   accepting a worker that would always score zero;
//! * **one expiry pass per round** — arrivals are ingested *before*
//!   the expiry check, so a task that is already stale when the round
//!   opens is counted expired and never offered, exactly like a
//!   carried-over task (the batch simulator historically offered such
//!   tasks in their arrival round);
//! * **bounded maintenance instead of retraining** — each round the
//!   engine advances the RRR pool epoch, evicts at most
//!   `growth_cap` sets older than `eviction_horizon` rounds, and
//!   samples at most `growth_cap` fresh sets back toward the target
//!   ([`OnlineConfig`]). After warm-up the pipeline is never retrained:
//!   maintenance cost per round is `O(growth_cap · avg set size +
//!   live memberships)`, a small fraction of a full RPO build.
//!
//! Determinism: the pool's per-set seeding contract (PR 2) extends to
//! maintenance — eviction retires stream indices permanently and
//! growth continues the stream, so the live pool is a pure function of
//! `(master_seed, stream window)` at **any** thread count. Round
//! reports are therefore identical between `threads = 1` and
//! `threads = N` runs of the same arrival script.
//!
//! Rounds also *scale* with that thread budget: the pipeline the
//! engine owns shards its per-instance scoring passes — eligibility
//! construction, influence-cache warming, the per-pair influence
//! scan — over [`sc_core::DitaPipeline::scoring_threads`] threads
//! (the same `DitaConfig` knob that governed training), so a single
//! streaming round exploits all cores, not just batch sweeps. The
//! sharded passes merge in index order, which is why the bit-identity
//! above survives intra-round parallelism
//! (`crates/sim/tests/round_parallel_determinism.rs` pins it).
//!
//! Every round builds its eligibility matrix from scratch: tasks turn
//! over from one round to the next, so there is little to carry.
//! Rounds are *incremental* by default ([`OnlineConfig::incremental`])
//! in what they score through: the pipeline's persistent content-keyed
//! scorer cache, whose entries a worker fold-in extends rather than
//! drops. The cache is exact, so a round's [`RoundReport`] is
//! bit-identical to a cold-cache round (`incremental: false`) at any
//! thread count (`crates/sim/tests/incremental_round_determinism.rs`
//! pins it; servebench's `core.warm_ms` span times the warm phase). The
//! report's telemetry fields (`cache_hits`, `elig_*`, the `*_ms` phase
//! split) describe how the round was served and are excluded from
//! equality.

use crate::event::{Event, EventKind, Outcome, RejectReason};
use sc_assign::AlgorithmKind;
use sc_core::{DitaPipeline, OnlineConfig};
use sc_datagen::SyntheticDataset;
use sc_influence::SocialNetwork;
use sc_types::{Duration, History, Task, TaskId, TimeInstant, VenueId, Worker, WorkerId};
use serde::json::Value;
use std::collections::HashMap;
use std::time::Instant;

/// Builds the `id`-th event of a scripted arrival stream: a
/// deterministic venue pick (via [`rand::mix_stream`], the same
/// primitive that seeds RRR sets) and a `phi`-hour task published at
/// `now` from that venue, as an [`EventKind::TaskArrival`] ready for
/// [`OnlineEngine::ingest`]. Shared by the `dita online` CLI driver,
/// servebench and the determinism suites so their arrival streams
/// cannot silently diverge — and routed through the same
/// `apply(Event)` path as wire events, so scripted and served streams
/// share one expiry-unified code path.
pub fn scripted_event(
    data: &SyntheticDataset,
    seed: u64,
    id: u32,
    now: TimeInstant,
    phi: f64,
) -> EventKind {
    let pick = rand::mix_stream(seed, id as u64) as usize % data.venues.len();
    let venue = data.venues.venue(VenueId::from(pick));
    EventKind::TaskArrival {
        task: Task::with_categories(
            TaskId::new(id),
            venue.location,
            now,
            Duration::hours_f64(phi),
            venue.categories.clone(),
        ),
        venue: venue.id,
    }
}

/// Outcome of one assignment round.
///
/// Equality ignores the wall-clock fields (`maintenance_ms` and the
/// per-phase `*_ms` split) **and** the telemetry counters: those
/// describe *how* the round was served (warm vs cold cache), while
/// equality asserts *what* the round decided — so the determinism
/// suites can compare whole reports across thread counts and across
/// the incremental/cold-cache modes.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Round counter (0-based).
    pub round: u64,
    /// The time instance the round was evaluated at.
    pub now: TimeInstant,
    /// Tasks that arrived since the previous round.
    pub task_arrivals: usize,
    /// Workers that arrived since the previous round.
    pub worker_arrivals: usize,
    /// Tasks offered this round (arrived + carried over, post-expiry).
    pub available_tasks: usize,
    /// Workers online when the round was assigned.
    pub online_workers: usize,
    /// Tasks assigned this round.
    pub assigned: usize,
    /// Tasks that expired at this round's open (including arrivals
    /// that were already stale).
    pub expired: usize,
    /// Average influence of this round's assignment.
    pub ai: f64,
    /// Live RRR sets after maintenance.
    pub pool_sets: usize,
    /// Stale sets evicted by this round's maintenance.
    pub sets_evicted: usize,
    /// Fresh sets sampled by this round's maintenance.
    pub sets_added: usize,
    /// Wall time of pool maintenance, milliseconds (excluded from
    /// `PartialEq`).
    pub maintenance_ms: f64, // lint: timing
    /// Eligibility phase wall time (the from-scratch build),
    /// milliseconds (excluded from `PartialEq`).
    pub eligibility_ms: f64, // lint: timing
    /// Scorer-cache warm wall time, milliseconds (excluded).
    pub warm_ms: f64, // lint: timing
    /// Pair-scan wall time, milliseconds (excluded).
    pub score_ms: f64, // lint: timing
    /// Assignment-solve wall time, milliseconds (excluded).
    pub solve_ms: f64, // lint: timing
    /// Distinct task-content keys already warm in the scorer cache
    /// (serving-mode telemetry, excluded from `PartialEq`).
    pub cache_hits: usize,
    /// Distinct task-content keys computed this round (excluded).
    pub cache_misses: usize,
    /// Shortest-path search passes the MCMF solve ran (excluded).
    pub solve_passes: usize,
    /// Augmenting paths the MCMF solve committed (excluded, like
    /// `solve_passes`).
    pub solve_augmentations: usize,
    /// Eligibility rows carried from the previous round: always `0`,
    /// since every round builds eligibility from scratch. Kept for
    /// readers of the report (excluded).
    pub elig_rows_carried: usize,
    /// Eligibility rows built this round: always the number of online
    /// workers (excluded).
    pub elig_rows_rebuilt: usize,
    /// Whether eligibility was built from scratch this round: always
    /// `true` (excluded).
    pub elig_full_rebuild: bool,
}

impl PartialEq for RoundReport {
    fn eq(&self, other: &Self) -> bool {
        self.round == other.round
            && self.now == other.now
            && self.task_arrivals == other.task_arrivals
            && self.worker_arrivals == other.worker_arrivals
            && self.available_tasks == other.available_tasks
            && self.online_workers == other.online_workers
            && self.assigned == other.assigned
            && self.expired == other.expired
            && self.ai == other.ai
            && self.pool_sets == other.pool_sets
            && self.sets_evicted == other.sets_evicted
            && self.sets_added == other.sets_added
        // Wall-clock (`*_ms`) and serving-mode telemetry (cache hit
        // counts, eligibility rows) are run conditions, not results:
        // warm- and cold-cache runs of the same script must compare
        // equal.
    }
}

/// The wire form of a [`RoundReport`] carries exactly the twelve
/// deterministic fields its `PartialEq` compares — wall-clock and
/// telemetry never reach the wire, so two serialized reports of the
/// same round are byte-identical across thread counts and across the
/// incremental/cold-cache modes (the property the `dita serve` smoke
/// job diffs on). Deserialization zeroes the telemetry, so a parsed
/// report still compares equal to the original.
impl serde::Serialize for RoundReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("round".to_string(), self.round.to_value()),
            ("now".to_string(), self.now.to_value()),
            ("task_arrivals".to_string(), self.task_arrivals.to_value()),
            (
                "worker_arrivals".to_string(),
                self.worker_arrivals.to_value(),
            ),
            (
                "available_tasks".to_string(),
                self.available_tasks.to_value(),
            ),
            ("online_workers".to_string(), self.online_workers.to_value()),
            ("assigned".to_string(), self.assigned.to_value()),
            ("expired".to_string(), self.expired.to_value()),
            ("ai".to_string(), self.ai.to_value()),
            ("pool_sets".to_string(), self.pool_sets.to_value()),
            ("sets_evicted".to_string(), self.sets_evicted.to_value()),
            ("sets_added".to_string(), self.sets_added.to_value()),
        ])
    }
}

impl serde::Deserialize for RoundReport {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("round report object", value))?;
        Ok(RoundReport {
            round: serde::get_field(obj, "round")?,
            now: serde::get_field(obj, "now")?,
            task_arrivals: serde::get_field(obj, "task_arrivals")?,
            worker_arrivals: serde::get_field(obj, "worker_arrivals")?,
            available_tasks: serde::get_field(obj, "available_tasks")?,
            online_workers: serde::get_field(obj, "online_workers")?,
            assigned: serde::get_field(obj, "assigned")?,
            expired: serde::get_field(obj, "expired")?,
            ai: serde::get_field(obj, "ai")?,
            pool_sets: serde::get_field(obj, "pool_sets")?,
            sets_evicted: serde::get_field(obj, "sets_evicted")?,
            sets_added: serde::get_field(obj, "sets_added")?,
            maintenance_ms: 0.0,
            eligibility_ms: 0.0,
            warm_ms: 0.0,
            score_ms: 0.0,
            solve_ms: 0.0,
            cache_hits: 0,
            cache_misses: 0,
            solve_passes: 0,
            solve_augmentations: 0,
            elig_rows_carried: 0,
            elig_rows_rebuilt: 0,
            elig_full_rebuild: false,
        })
    }
}

/// Totals of an engine's lifetime, with the conservation invariant
/// `published == assigned + expired + still_open`.
///
/// Every field is a pure function of the event stream, so summaries of
/// two runs of the same arrival script compare equal across thread
/// counts, and the wire form (`GET /report`) is every field in
/// declaration order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OnlineSummary {
    /// Rounds executed.
    pub rounds: u64,
    /// Tasks that ever arrived.
    pub published: usize,
    /// Tasks assigned across all rounds.
    pub assigned: usize,
    /// Tasks that expired unassigned.
    pub expired: usize,
    /// Tasks still open (arrived, neither assigned nor expired).
    pub still_open: usize,
    /// Mean influence over every assignment made.
    pub average_influence: f64,
    /// Total fresh sets sampled by maintenance.
    pub sets_added: usize,
    /// Total stale sets evicted by maintenance.
    pub sets_evicted: usize,
}

impl OnlineSummary {
    /// Fraction of published tasks that were assigned.
    pub fn assignment_rate(&self) -> f64 {
        if self.published == 0 {
            0.0
        } else {
            self.assigned as f64 / self.published as f64
        }
    }
}

/// How an engine holds its pipeline: owned (live, maintainable) or
/// frozen (zero-copy borrow for drivers that never rotate the pool,
/// like [`crate::platform::simulate_day`]). One of the two typed mode
/// axes of [`EngineBuilder`].
#[derive(Debug)]
pub enum PipelineMode<'a> {
    /// The engine owns (and may maintain / grow) the pipeline. Boxed:
    /// the pipeline struct is large and the borrowed variant is one
    /// pointer (clippy::large_enum_variant).
    Owned(Box<DitaPipeline>),
    /// The engine borrows a frozen pipeline; maintenance is forced off.
    Frozen(&'a DitaPipeline),
}

impl PipelineMode<'_> {
    fn get(&self) -> &DitaPipeline {
        match self {
            PipelineMode::Owned(p) => p,
            PipelineMode::Frozen(p) => p,
        }
    }
}

/// How an engine holds the social network: adaptive (owned and
/// growable — worker fold-in replaces it with the extended network) or
/// fixed (borrowed, fixed-population drivers). The other typed mode
/// axis of [`EngineBuilder`].
#[derive(Debug)]
pub enum NetworkMode<'a> {
    /// The engine owns the network and grows it on
    /// [`EventKind::WorkerNew`].
    Adaptive(Box<SocialNetwork>),
    /// The engine borrows the trained network; fold-in is rejected.
    Fixed(&'a SocialNetwork),
}

impl NetworkMode<'_> {
    fn get(&self) -> &SocialNetwork {
        match self {
            NetworkMode::Adaptive(n) => n,
            NetworkMode::Fixed(n) => n,
        }
    }
}

/// Builds an [`OnlineEngine`] from its two typed mode axes — how the
/// pipeline is held ([`PipelineMode`]) and how the network is held
/// ([`NetworkMode`]) — replacing the old
/// `new`/`with_config`/`adaptive`/`frozen` constructor sprawl.
///
/// Unless overridden with [`EngineBuilder::config`], the maintenance
/// configuration comes from the pipeline's trained
/// [`OnlineConfig`] for owned pipelines; a [`PipelineMode::Frozen`]
/// pipeline always runs the non-maintaining [`OnlineConfig::default`]
/// (a frozen engine cannot rotate a pool it does not own).
///
/// The three deployment modes:
///
/// ```
/// use sc_core::{DitaBuilder, DitaConfig, OnlineConfig};
/// use sc_datagen::{DatasetProfile, SyntheticDataset};
/// use sc_sim::{EngineBuilder, NetworkMode, PipelineMode};
///
/// let mut profile = DatasetProfile::brightkite_small();
/// profile.n_workers = 40;
/// profile.n_venues = 30;
/// let data = SyntheticDataset::generate(&profile, 7);
/// let config = DitaConfig {
///     n_topics: 3,
///     lda_sweeps: 4,
///     infer_sweeps: 2,
///     rpo: sc_influence::RpoParams { max_sets: 500, ..Default::default() },
///     ..Default::default()
/// };
/// let pipeline = DitaBuilder::new()
///     .config(config)
///     .build(&data.social, &data.histories)
///     .unwrap();
///
/// // 1. Frozen: borrow everything, never maintain — the paper's
/// //    trained-once setting over online dynamics.
/// let frozen = EngineBuilder::new()
///     .pipeline(PipelineMode::Frozen(&pipeline))
///     .network(NetworkMode::Fixed(&data.social))
///     .build();
/// assert!(!frozen.config().maintains_pool());
///
/// // 2. Owned + fixed population: live maintenance, no fold-in.
/// let owned = EngineBuilder::new()
///     .pipeline(PipelineMode::Owned(Box::new(pipeline.clone())))
///     .network(NetworkMode::Fixed(&data.social))
///     .config(OnlineConfig::streaming())
///     .build();
/// assert!(owned.config().maintains_pool());
///
/// // 3. Adaptive: own both — the only mode that folds unseen workers
/// //    into the live influence network.
/// let adaptive = EngineBuilder::new()
///     .pipeline(PipelineMode::Owned(Box::new(pipeline)))
///     .network(NetworkMode::Adaptive(Box::new(data.social.clone())))
///     .build();
/// assert!(adaptive.fold_in_enabled());
/// ```
#[derive(Debug, Default)]
pub struct EngineBuilder<'a> {
    pipeline: Option<PipelineMode<'a>>,
    network: Option<NetworkMode<'a>>,
    config: Option<OnlineConfig>,
}

impl<'a> EngineBuilder<'a> {
    /// An empty builder; [`EngineBuilder::pipeline`] and
    /// [`EngineBuilder::network`] are mandatory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets how the engine holds its pipeline.
    #[must_use]
    pub fn pipeline(mut self, mode: PipelineMode<'a>) -> Self {
        self.pipeline = Some(mode);
        self
    }

    /// Sets how the engine holds the social network.
    #[must_use]
    pub fn network(mut self, mode: NetworkMode<'a>) -> Self {
        self.network = Some(mode);
        self
    }

    /// Overrides the maintenance configuration trained into the
    /// pipeline. Ignored (forced to [`OnlineConfig::default`]) on a
    /// frozen pipeline, which cannot maintain.
    #[must_use]
    pub fn config(mut self, config: OnlineConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Builds the engine.
    ///
    /// # Panics
    /// When the pipeline or network mode was not set.
    pub fn build(self) -> OnlineEngine<'a> {
        let pipeline = self.pipeline.expect("EngineBuilder requires a pipeline");
        let net = self.network.expect("EngineBuilder requires a network");
        let config = match (&pipeline, self.config) {
            // A frozen engine cannot rotate a pool it does not own.
            (PipelineMode::Frozen(_), _) => OnlineConfig::default(),
            (PipelineMode::Owned(p), None) => p.model().config().online,
            (PipelineMode::Owned(_), Some(c)) => c,
        };
        let fold_in_enabled = matches!(
            (&pipeline, &net),
            (PipelineMode::Owned(_), NetworkMode::Adaptive(_))
        );
        OnlineEngine::assemble(pipeline, net, config, fold_in_enabled)
    }
}

/// A stateful online assignment engine owning a live [`DitaPipeline`].
///
/// Build it with [`EngineBuilder`] from a trained pipeline and the
/// social network it was trained on, feed events through
/// [`OnlineEngine::ingest`], and call [`OnlineEngine::run_round`] at
/// each time instance. See the module docs for the maintenance and
/// determinism contracts. Drivers that never maintain the pool can
/// borrow the pipeline instead via [`PipelineMode::Frozen`].
#[derive(Debug)]
pub struct OnlineEngine<'a> {
    pipeline: PipelineMode<'a>,
    net: NetworkMode<'a>,
    config: OnlineConfig,
    /// Whether [`EventKind::WorkerNew`]
    /// may grow the live model. Set by the builder (owned pipeline +
    /// adaptive network), preserved by snapshot/restore — a restored
    /// engine owns both handles by construction, but keeps the
    /// fold-in policy of the engine it was snapshotted from.
    fold_in_enabled: bool,
    /// Live-set target maintenance holds the pool at.
    target_sets: usize,
    open: Vec<(Task, VenueId)>,
    workers: Vec<Worker>,
    /// `WorkerId` → index in `workers`: O(1) duplicate screening on
    /// arrival. Rebuilt after the (already linear) removal passes.
    online_index: HashMap<WorkerId, usize>,
    round: u64,
    /// Sequence stamp the next in-round event must carry; reset at
    /// every round close. Together with `round` this totally orders
    /// the event stream ([`Event`]).
    next_seq: u64,
    pending_tasks: usize,
    pending_workers: usize,
    published: usize,
    assigned_total: usize,
    expired_total: usize,
    influence_sum: f64,
    sets_added_total: usize,
    sets_evicted_total: usize,
}

impl<'a> OnlineEngine<'a> {
    fn assemble(
        pipeline: PipelineMode<'a>,
        net: NetworkMode<'a>,
        config: OnlineConfig,
        fold_in_enabled: bool,
    ) -> Self {
        debug_assert_eq!(
            net.get().n_workers(),
            pipeline.get().model().pool().n_workers(),
            "engine network must match the trained pool"
        );
        debug_assert!(
            !config.maintains_pool() || matches!(pipeline, PipelineMode::Owned(_)),
            "a maintaining engine must own its pipeline"
        );
        let trained = pipeline.get().model().pool().n_sets();
        let target_sets = if config.target_sets == 0 {
            trained
        } else {
            config.target_sets
        };
        OnlineEngine {
            pipeline,
            net,
            config,
            fold_in_enabled,
            target_sets,
            open: Vec::new(),
            workers: Vec::new(),
            online_index: HashMap::new(),
            round: 0,
            next_seq: 0,
            pending_tasks: 0,
            pending_workers: 0,
            published: 0,
            assigned_total: 0,
            expired_total: 0,
            influence_sum: 0.0,
            sets_added_total: 0,
            sets_evicted_total: 0,
        }
    }

    /// Applies one explicitly stamped [`Event`] — the single ingestion
    /// entry point behind every driver (in-process harnesses, trace
    /// replay, the `dita serve` wire front).
    ///
    /// The stamp is validated before the payload: an event whose
    /// `round` is not the engine's current round is
    /// [`RejectReason::RoundMismatch`], and one whose `seq` is below
    /// the next expected position is [`RejectReason::OutOfOrder`] —
    /// within a round the sequence must be strictly increasing (gaps
    /// are fine; regressions are not). Use [`OnlineEngine::ingest`]
    /// when the engine itself should stamp the order.
    pub fn apply(&mut self, event: Event) -> Outcome {
        if event.round != self.round {
            return Outcome::Rejected(RejectReason::RoundMismatch);
        }
        if event.seq < self.next_seq {
            return Outcome::Rejected(RejectReason::OutOfOrder);
        }
        self.next_seq = event.seq + 1;
        match event.kind {
            EventKind::TaskArrival { task, venue } => self.apply_task(task, venue),
            EventKind::WorkerArrival { worker } => self.apply_worker(worker),
            EventKind::WorkerNew {
                worker,
                friends,
                history,
            } => self.apply_worker_new(worker, &friends, &history),
            EventKind::WorkerDeparture { worker } => self.apply_departure(worker),
        }
    }

    /// Applies an [`EventKind`], stamping it with the engine's current
    /// `(round, next seq)` — the convenience form for in-process
    /// drivers that generate events rather than receive them over a
    /// wire.
    pub fn ingest(&mut self, kind: EventKind) -> Outcome {
        let event = Event {
            round: self.round,
            seq: self.next_seq,
            kind,
        };
        self.apply(event)
    }

    /// A task arrival: offered from the next round on, unless it is
    /// already expired at that round's instant — then it is counted
    /// expired without ever being offered. Re-arrival of an id that is
    /// still open refreshes that entry in place
    /// ([`Outcome::TaskRefreshed`]) instead of duplicating it (a
    /// duplicated id would corrupt the `published == assigned +
    /// expired + still_open` invariant, because assignment and closing
    /// key tasks by id). The open list is transient and small (bounded
    /// by arrival rate × φ), so the screening scan is cheap.
    fn apply_task(&mut self, task: Task, venue: VenueId) -> Outcome {
        if let Some(entry) = self.open.iter_mut().find(|(t, _)| t.id == task.id) {
            *entry = (task, venue);
            return Outcome::TaskRefreshed;
        }
        self.open.push((task, venue));
        self.pending_tasks += 1;
        self.published += 1;
        Outcome::TaskPublished
    }

    /// A worker arrival (online from the next round on).
    ///
    /// Re-arrival of an already-online id refreshes that worker's
    /// state (location, radius) in place — multi-day drivers re-sample
    /// cohorts from one population, and a duplicated id would let one
    /// worker be assigned twice in a round.
    ///
    /// A worker **outside the trained population** is
    /// [`RejectReason::UnknownWorker`]: the model cannot score them,
    /// so admitting them could only ever produce zero-influence
    /// assignments (the silent trap this contract closes). Late
    /// arrivals with social evidence go through
    /// [`EventKind::WorkerNew`] instead.
    fn apply_worker(&mut self, worker: Worker) -> Outcome {
        if worker.id.index() >= self.pipeline.get().model().n_workers() {
            return Outcome::Rejected(RejectReason::UnknownWorker);
        }
        if let Some(&idx) = self.online_index.get(&worker.id) {
            self.workers[idx] = worker;
            return Outcome::WorkerRefreshed;
        }
        self.online_index.insert(worker.id, self.workers.len());
        self.workers.push(worker);
        self.pending_workers += 1;
        Outcome::WorkerJoined
    }

    /// Arrival of a worker the trained model has **never seen**, with
    /// their social evidence: `friends` are trained worker ids the
    /// arrival is befriended with, `history` is whatever check-in
    /// evidence exists so far (often a single record).
    ///
    /// On a fold-in-enabled engine (owned pipeline + adaptive network)
    /// the worker is folded into the live influence network without a
    /// retrain — the social graph grows
    /// ([`SocialNetwork::fold_in_worker`]), the model gains
    /// topic/willingness entries, and the RRR pool splices the worker
    /// into live sets (`sc_core::InfluenceModel::fold_in_worker`) — so
    /// the arrival scores non-zero influence from the next round on.
    /// The worker's id must be the next dense id
    /// (`pipeline().model().n_workers()`, else
    /// [`RejectReason::NonDenseId`]); a known id degrades to the plain
    /// worker-arrival path.
    ///
    /// Engines that cannot grow (frozen / fixed-population modes, or a
    /// restored engine whose original could not) reject with
    /// [`RejectReason::CannotFoldIn`]. An arrival with **no usable
    /// friendships** (none of `friends` is in the current population)
    /// rejects with [`RejectReason::NoUsableFriends`]: with zero
    /// social edges the fold-in could never join an RRR set, and the
    /// worker would be exactly the zero-influence admission this
    /// contract exists to prevent. Such a worker can simply re-arrive
    /// later, once a friend of theirs has been folded in.
    fn apply_worker_new(
        &mut self,
        worker: Worker,
        friends: &[WorkerId],
        history: &History,
    ) -> Outcome {
        let population = self.pipeline.get().model().n_workers();
        if worker.id.index() < population {
            return self.apply_worker(worker);
        }
        if !self.fold_in_enabled {
            return Outcome::Rejected(RejectReason::CannotFoldIn);
        }
        let (PipelineMode::Owned(pipeline), NetworkMode::Adaptive(net)) =
            (&mut self.pipeline, &mut self.net)
        else {
            return Outcome::Rejected(RejectReason::CannotFoldIn);
        };
        if worker.id.index() != population {
            // Fold-ins assign dense ids in arrival order; a gap means
            // the caller skipped an arrival.
            return Outcome::Rejected(RejectReason::NonDenseId);
        }
        let raw: Vec<u32> = friends
            .iter()
            .filter(|f| f.index() < population)
            .map(|f| f.raw())
            .collect();
        if raw.is_empty() {
            return Outcome::Rejected(RejectReason::NoUsableFriends);
        }
        **net = net.fold_in_worker(&raw);
        pipeline.model_mut().fold_in_worker(net, history);
        self.online_index.insert(worker.id, self.workers.len());
        self.workers.push(worker);
        self.pending_workers += 1;
        Outcome::WorkerFoldedIn
    }

    /// Removes an online worker (e.g. the worker logs off); a worker
    /// that was not online is [`RejectReason::NotOnline`].
    fn apply_departure(&mut self, id: WorkerId) -> Outcome {
        if !self.online_index.contains_key(&id) {
            return Outcome::Rejected(RejectReason::NotOnline);
        }
        // Order-preserving removal keeps the assignment input (and so
        // any tie-breaking) deterministic; the index is rebuilt by the
        // same linear pass.
        self.workers.retain(|w| w.id != id);
        self.reindex_workers();
        Outcome::WorkerDeparted
    }

    /// Rebuilds the id→index map after an order-preserving removal.
    fn reindex_workers(&mut self) {
        self.online_index = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| (w.id, i))
            .collect();
    }

    /// Runs one assignment round at time `now`: expiry, bounded pool
    /// maintenance, assignment, retirement of matched workers/tasks.
    pub fn run_round(&mut self, now: TimeInstant, algorithm: AlgorithmKind) -> RoundReport {
        let task_arrivals = std::mem::take(&mut self.pending_tasks);
        let worker_arrivals = std::mem::take(&mut self.pending_workers);

        // One expiry pass over arrivals *and* carried tasks: a task is
        // offered iff it is alive at `now`, no matter when it arrived.
        let before = self.open.len();
        self.open.retain(|(t, _)| !t.is_expired_at(now));
        let expired = before - self.open.len();
        self.expired_total += expired;

        let (sets_evicted, sets_added, maintenance_ms) = self.maintain();

        let tasks: Vec<Task> = self.open.iter().map(|(t, _)| t.clone()).collect();
        let venues: Vec<VenueId> = self.open.iter().map(|(_, v)| *v).collect();
        let available_tasks = tasks.len();
        let online_workers = self.workers.len();
        let instance = sc_types::Instance::new(now, self.workers.clone(), tasks);
        let pipeline = self.pipeline.get();
        if !self.config.incremental {
            pipeline.scorer_cache().clear();
        }
        let (assignment, perf) = pipeline.assign(&instance, Some(&venues), algorithm);

        let assigned = assignment.len();
        let ai = assignment.average_influence();
        self.assigned_total += assigned;
        self.influence_sum += assignment.total_influence();

        // Assigned workers leave the platform; assigned tasks close.
        let assigned_workers: std::collections::HashSet<WorkerId> =
            assignment.pairs().iter().map(|p| p.worker).collect();
        let assigned_tasks: std::collections::HashSet<sc_types::TaskId> =
            assignment.pairs().iter().map(|p| p.task).collect();
        if !assigned_workers.is_empty() {
            self.workers.retain(|w| !assigned_workers.contains(&w.id));
            self.reindex_workers();
        }
        self.open.retain(|(t, _)| !assigned_tasks.contains(&t.id));

        let report = RoundReport {
            round: self.round,
            now,
            task_arrivals,
            worker_arrivals,
            available_tasks,
            online_workers,
            assigned,
            expired,
            ai,
            pool_sets: self.pipeline.get().model().pool().n_sets(),
            sets_evicted,
            sets_added,
            maintenance_ms,
            eligibility_ms: perf.eligibility_ms,
            warm_ms: perf.warm_ms,
            score_ms: perf.score_ms,
            solve_ms: perf.solve_ms,
            cache_hits: perf.cache_hits,
            cache_misses: perf.cache_misses,
            solve_passes: perf.solve_passes,
            solve_augmentations: perf.solve_augmentations,
            elig_rows_carried: 0,
            elig_rows_rebuilt: online_workers,
            elig_full_rebuild: true,
        };
        self.round += 1;
        self.next_seq = 0;
        report
    }

    /// One bounded maintenance step: advance the pool epoch, evict at
    /// most `growth_cap` sets that fell behind the horizon, sample at
    /// most `growth_cap` fresh sets back toward the target.
    fn maintain(&mut self) -> (usize, usize, f64) {
        if !self.config.maintains_pool() {
            return (0, 0, 0.0);
        }
        let t0 = Instant::now();
        let quantum = self.config.growth_cap;
        let horizon = self.config.eviction_horizon;
        let net = self.net.get();
        let (pool, threads) = match &mut self.pipeline {
            PipelineMode::Owned(p) => {
                // One knob governs scoring *and* maintenance top-ups.
                let threads = p.scoring_threads();
                (p.model_mut().pool_mut(), threads)
            }
            // Unreachable: the builder forces a non-maintaining config
            // on frozen pipelines.
            PipelineMode::Frozen(_) => return (0, 0, 0.0),
        };

        let epoch = pool.advance_epoch();
        let evicted = if horizon > 0 && epoch > horizon {
            pool.evict_before_epoch(epoch - horizon, quantum)
        } else {
            0
        };
        let live = pool.n_sets();
        let target = self.target_sets.min(live + quantum);
        let added = target.saturating_sub(live);
        if added > 0 {
            pool.extend_to(net, target, threads);
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.sets_evicted_total += evicted;
        self.sets_added_total += added;
        (evicted, added, ms)
    }

    /// The live pipeline.
    pub fn pipeline(&self) -> &DitaPipeline {
        self.pipeline.get()
    }

    /// The social network the engine maintains the pool against. On a
    /// [`NetworkMode::Adaptive`] engine this grows with every fold-in;
    /// otherwise it is the trained network.
    pub fn network(&self) -> &SocialNetwork {
        self.net.get()
    }

    /// Mutable access to the live pipeline — used by the
    /// retrain-every-round oracle in
    /// `crates/sim/tests/rotation_oracle.rs`; normal drivers never need
    /// it.
    ///
    /// # Panics
    /// On a borrowed-pipeline engine ([`PipelineMode::Frozen`]), which
    /// by construction never mutates its pipeline.
    pub fn pipeline_mut(&mut self) -> &mut DitaPipeline {
        match &mut self.pipeline {
            PipelineMode::Owned(p) => p,
            PipelineMode::Frozen(_) => {
                panic!("a frozen (borrowed-pipeline) engine cannot be mutated")
            }
        }
    }

    /// Consumes the engine, returning the (maintained) pipeline. A
    /// borrowed-pipeline engine returns a clone of the frozen original.
    pub fn into_pipeline(self) -> DitaPipeline {
        match self.pipeline {
            PipelineMode::Owned(p) => *p,
            PipelineMode::Frozen(p) => p.clone(),
        }
    }

    /// The maintenance configuration in effect.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Whether [`EventKind::WorkerNew`]
    /// may grow the live model on this engine (owned pipeline +
    /// adaptive network; preserved across snapshot/restore).
    pub fn fold_in_enabled(&self) -> bool {
        self.fold_in_enabled
    }

    /// The `(round, seq)` stamp the next [`Event`] must carry — what
    /// [`OnlineEngine::ingest`] would stamp. Wire fronts use this to
    /// label queued events without applying them yet.
    pub fn next_stamp(&self) -> (u64, u64) {
        (self.round, self.next_seq)
    }

    /// Tasks currently open (arrived, unexpired, unassigned — plus
    /// arrivals not yet screened by a round).
    pub fn open_tasks(&self) -> usize {
        self.open.len()
    }

    /// Workers currently online.
    pub fn online_workers(&self) -> usize {
        self.workers.len()
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Lifetime totals (see [`OnlineSummary`] for the invariant).
    pub fn summary(&self) -> OnlineSummary {
        OnlineSummary {
            rounds: self.round,
            published: self.published,
            assigned: self.assigned_total,
            expired: self.expired_total,
            still_open: self.open.len(),
            average_influence: if self.assigned_total == 0 {
                0.0
            } else {
                self.influence_sum / self.assigned_total as f64
            },
            sets_added: self.sets_added_total,
            sets_evicted: self.sets_evicted_total,
        }
    }
}

/// Snapshot serde of the whole engine: the live pipeline (model: LDA,
/// topics, willingness, entropy, RRR pool with its epoch window and
/// stream base), the social network, and every report-affecting
/// counter of the engine itself. A restore refuses a pool and a network
/// of different populations.
///
/// The scorer cache is deliberately **not** serialized: it is derived,
/// and warm and cold caches serve the same scores, so a restored
/// engine's first round scores cold with bit-identical results.
/// `online_index` is rebuilt from the worker list. A restored engine therefore emits the same
/// [`RoundReport`] stream as the uninterrupted original, at any thread
/// count — `crates/sim/tests/snapshot_roundtrip.rs` pins it.
///
/// Nothing measured by a clock is serialized, so a snapshot is a pure
/// function of the event stream: two runs of one stream write the same
/// bytes. Keys an older snapshot carries and this build does not read
/// (`maintenance_ms_total`) are ignored on restore.
impl serde::Serialize for OnlineEngine<'_> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("config".to_string(), self.config.to_value()),
            (
                "fold_in_enabled".to_string(),
                self.fold_in_enabled.to_value(),
            ),
            ("target_sets".to_string(), self.target_sets.to_value()),
            ("open".to_string(), self.open.to_value()),
            ("workers".to_string(), self.workers.to_value()),
            ("round".to_string(), self.round.to_value()),
            ("next_seq".to_string(), self.next_seq.to_value()),
            ("pending_tasks".to_string(), self.pending_tasks.to_value()),
            (
                "pending_workers".to_string(),
                self.pending_workers.to_value(),
            ),
            ("published".to_string(), self.published.to_value()),
            ("assigned_total".to_string(), self.assigned_total.to_value()),
            ("expired_total".to_string(), self.expired_total.to_value()),
            ("influence_sum".to_string(), self.influence_sum.to_value()),
            (
                "sets_added_total".to_string(),
                self.sets_added_total.to_value(),
            ),
            (
                "sets_evicted_total".to_string(),
                self.sets_evicted_total.to_value(),
            ),
            ("pipeline".to_string(), self.pipeline.get().to_value()),
            ("network".to_string(), self.net.get().to_value()),
        ])
    }
}

impl serde::Deserialize for OnlineEngine<'static> {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("engine object", value))?;
        let workers: Vec<Worker> = serde::get_field(obj, "workers")?;
        let online_index: HashMap<WorkerId, usize> =
            workers.iter().enumerate().map(|(i, w)| (w.id, i)).collect();
        let pipeline: DitaPipeline = serde::get_field(obj, "pipeline")?;
        let network: SocialNetwork = serde::get_field(obj, "network")?;
        let pool_workers = pipeline.model().pool().n_workers();
        if pool_workers != network.n_workers() {
            return Err(serde::Error::custom(format!(
                "the RRR pool covers {pool_workers} workers but the network {}",
                network.n_workers()
            )));
        }
        Ok(OnlineEngine {
            pipeline: PipelineMode::Owned(Box::new(pipeline)),
            net: NetworkMode::Adaptive(Box::new(network)),
            config: serde::get_field(obj, "config")?,
            fold_in_enabled: serde::get_field(obj, "fold_in_enabled")?,
            target_sets: serde::get_field(obj, "target_sets")?,
            open: serde::get_field(obj, "open")?,
            workers,
            online_index,
            round: serde::get_field(obj, "round")?,
            next_seq: serde::get_field(obj, "next_seq")?,
            pending_tasks: serde::get_field(obj, "pending_tasks")?,
            pending_workers: serde::get_field(obj, "pending_workers")?,
            published: serde::get_field(obj, "published")?,
            assigned_total: serde::get_field(obj, "assigned_total")?,
            expired_total: serde::get_field(obj, "expired_total")?,
            influence_sum: serde::get_field(obj, "influence_sum")?,
            sets_added_total: serde::get_field(obj, "sets_added_total")?,
            sets_evicted_total: serde::get_field(obj, "sets_evicted_total")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::{DitaBuilder, DitaConfig};
    use sc_datagen::{DatasetProfile, InstanceOptions, SyntheticDataset};
    use sc_influence::RpoParams;
    use sc_types::Duration;

    fn setup(online: OnlineConfig) -> (SyntheticDataset, DitaPipeline) {
        let mut profile = DatasetProfile::brightkite_small();
        profile.n_workers = 100;
        profile.n_venues = 100;
        profile.checkins_per_worker = 10;
        let dataset = SyntheticDataset::generate(&profile, 4);
        let pipeline = DitaBuilder::new()
            .config(DitaConfig {
                n_topics: 5,
                lda_sweeps: 10,
                infer_sweeps: 5,
                rpo: RpoParams {
                    max_sets: 3_000,
                    ..Default::default()
                },
                online,
                seed: 2,
            })
            .build(&dataset.social, &dataset.histories)
            .unwrap();
        (dataset, pipeline)
    }

    fn owned_engine(pipeline: DitaPipeline, net: &SocialNetwork) -> OnlineEngine<'_> {
        EngineBuilder::new()
            .pipeline(PipelineMode::Owned(Box::new(pipeline)))
            .network(NetworkMode::Fixed(net))
            .build()
    }

    fn adaptive_engine(
        pipeline: DitaPipeline,
        net: SocialNetwork,
        config: OnlineConfig,
    ) -> OnlineEngine<'static> {
        EngineBuilder::new()
            .pipeline(PipelineMode::Owned(Box::new(pipeline)))
            .network(NetworkMode::Adaptive(Box::new(net)))
            .config(config)
            .build()
    }

    fn feed_workers(engine: &mut OnlineEngine<'_>, dataset: &SyntheticDataset, n: usize) {
        let base = dataset.instance_for_day(0, 0, n, InstanceOptions::default());
        for worker in base.instance.workers {
            engine.ingest(EventKind::WorkerArrival { worker });
        }
    }

    fn hourly_task(
        dataset: &SyntheticDataset,
        id: u32,
        now: TimeInstant,
        phi: f64,
    ) -> (Task, VenueId) {
        let venue = dataset.venues.venue(sc_types::VenueId::from(
            (id as usize * 7) % dataset.venues.len(),
        ));
        (
            Task::with_categories(
                sc_types::TaskId::new(id),
                venue.location,
                now,
                Duration::hours_f64(phi),
                venue.categories.clone(),
            ),
            venue.id,
        )
    }

    #[test]
    fn frozen_config_never_touches_the_pool() {
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let fp = pipeline.model().pool().fingerprint();
        let mut engine = owned_engine(pipeline, &dataset.social);
        feed_workers(&mut engine, &dataset, 40);
        for hour in 8..14 {
            let now = TimeInstant::at(0, hour);
            for i in 0..8u32 {
                let (task, venue) = hourly_task(&dataset, hour as u32 * 100 + i, now, 3.0);
                engine.ingest(EventKind::TaskArrival { task, venue });
            }
            let r = engine.run_round(now, AlgorithmKind::Ia);
            assert_eq!(r.sets_added, 0);
            assert_eq!(r.sets_evicted, 0);
        }
        assert_eq!(engine.pipeline().model().pool().fingerprint(), fp);
        let s = engine.summary();
        assert_eq!(s.published, s.assigned + s.expired + s.still_open);
        assert!(s.assigned > 0);
    }

    #[test]
    fn maintenance_is_bounded_per_round_and_rotates() {
        let online = OnlineConfig {
            round_hours: 1,
            growth_cap: 256,
            eviction_horizon: 2,
            target_sets: 0,
            incremental: true,
        };
        let (dataset, pipeline) = setup(online);
        let trained = pipeline.model().pool().n_sets();
        let mut engine = owned_engine(pipeline, &dataset.social);
        feed_workers(&mut engine, &dataset, 30);
        let mut evicted_any = false;
        for hour in 0..10 {
            let now = TimeInstant::at(0, hour);
            let (task, venue) = hourly_task(&dataset, hour as u32, now, 4.0);
            engine.ingest(EventKind::TaskArrival { task, venue });
            let r = engine.run_round(now, AlgorithmKind::Ia);
            assert!(r.sets_added <= 256, "growth cap violated: {}", r.sets_added);
            assert!(
                r.sets_evicted <= 256,
                "eviction cap violated: {}",
                r.sets_evicted
            );
            assert!(r.pool_sets <= trained);
            evicted_any |= r.sets_evicted > 0;
        }
        assert!(evicted_any, "horizon 2 must rotate stale sets out");
        assert!(
            engine.pipeline().model().pool().stream_base() > 0,
            "rotation retires stream indices"
        );
        let s = engine.summary();
        assert_eq!(s.sets_added, s.sets_evicted, "steady state at the target");
    }

    #[test]
    fn stale_arrival_is_expired_not_offered() {
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let mut engine = owned_engine(pipeline, &dataset.social);
        feed_workers(&mut engine, &dataset, 20);
        // Arrived long before the round instant, already expired.
        let (stale, v) = hourly_task(&dataset, 0, TimeInstant::at(0, 1), 1.0);
        engine.ingest(EventKind::TaskArrival {
            task: stale,
            venue: v,
        });
        // Alive control task.
        let now = TimeInstant::at(0, 9);
        let (alive, v2) = hourly_task(&dataset, 1, now, 3.0);
        engine.ingest(EventKind::TaskArrival {
            task: alive,
            venue: v2,
        });
        let r = engine.run_round(now, AlgorithmKind::Ia);
        assert_eq!(r.task_arrivals, 2);
        assert_eq!(r.expired, 1, "stale arrival expires at the round open");
        assert_eq!(r.available_tasks, 1, "stale arrival is never offered");
        let s = engine.summary();
        assert_eq!(s.published, 2);
        assert_eq!(s.published, s.assigned + s.expired + s.still_open);
    }

    #[test]
    fn workers_depart_and_assigned_workers_leave() {
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let mut engine = owned_engine(pipeline, &dataset.social);
        feed_workers(&mut engine, &dataset, 10);
        assert_eq!(engine.online_workers(), 10);
        let departing = WorkerId::new(0);
        let went = engine.ingest(EventKind::WorkerDeparture { worker: departing });
        // The sampled instance may or may not include worker 0; if it
        // did, the pool shrinks — and either way the outcome says which.
        match went {
            Outcome::WorkerDeparted => assert_eq!(engine.online_workers(), 9),
            Outcome::Rejected(RejectReason::NotOnline) => {
                assert_eq!(engine.online_workers(), 10)
            }
            other => panic!("unexpected departure outcome {other:?}"),
        }
        let before = engine.online_workers();
        let now = TimeInstant::at(0, 9);
        for i in 0..20u32 {
            let (task, venue) = hourly_task(&dataset, i, now, 5.0);
            engine.ingest(EventKind::TaskArrival { task, venue });
        }
        let r = engine.run_round(now, AlgorithmKind::Mta);
        assert!(r.assigned > 0);
        assert_eq!(engine.online_workers(), before - r.assigned);
    }

    #[test]
    fn rearriving_worker_is_refreshed_not_duplicated() {
        // Multi-day drivers re-sample cohorts from one population: a
        // carried-over worker re-sampled the next morning must not be
        // duplicated (a duplicated id could be assigned two tasks in
        // one round).
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let mut engine = owned_engine(pipeline, &dataset.social);
        feed_workers(&mut engine, &dataset, 15);
        let n = engine.online_workers();
        // Day-2 cohort drawn from the same population overlaps day 1's.
        let day2 = dataset.instance_for_day(0, 0, 15, InstanceOptions::default());
        for worker in day2.instance.workers {
            assert_eq!(
                engine.ingest(EventKind::WorkerArrival { worker }),
                Outcome::WorkerRefreshed,
                "same cohort: every id re-arrives"
            );
        }
        assert_eq!(engine.online_workers(), n, "no duplicates added");
        let now = TimeInstant::at(0, 9);
        for i in 0..30u32 {
            let (task, venue) = hourly_task(&dataset, i, now, 5.0);
            engine.ingest(EventKind::TaskArrival { task, venue });
        }
        let r = engine.run_round(now, AlgorithmKind::Mta);
        assert!(
            r.assigned <= n,
            "each distinct worker serves at most one task"
        );
    }

    #[test]
    fn rearriving_open_task_is_refreshed_not_duplicated() {
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let mut engine = owned_engine(pipeline, &dataset.social);
        feed_workers(&mut engine, &dataset, 20);
        let now = TimeInstant::at(0, 9);
        let (t, v) = hourly_task(&dataset, 7, now, 4.0);
        assert_eq!(
            engine.ingest(EventKind::TaskArrival {
                task: t.clone(),
                venue: v,
            }),
            Outcome::TaskPublished
        );
        assert_eq!(
            engine.ingest(EventKind::TaskArrival { task: t, venue: v }),
            Outcome::TaskRefreshed,
            "same open id refreshes in place"
        );
        assert_eq!(engine.open_tasks(), 1);
        let r = engine.run_round(now, AlgorithmKind::Ia);
        assert_eq!(r.task_arrivals, 1);
        let s = engine.summary();
        assert_eq!(s.published, 1, "a refreshed task is published once");
        assert_eq!(s.published, s.assigned + s.expired + s.still_open);
    }

    #[test]
    fn frozen_engine_borrows_without_cloning() {
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let fp = pipeline.model().pool().fingerprint();
        let mut engine = EngineBuilder::new()
            .pipeline(PipelineMode::Frozen(&pipeline))
            .network(NetworkMode::Fixed(&dataset.social))
            .build();
        feed_workers(&mut engine, &dataset, 20);
        let now = TimeInstant::at(0, 10);
        for i in 0..10u32 {
            let (task, venue) = hourly_task(&dataset, i, now, 3.0);
            engine.ingest(EventKind::TaskArrival { task, venue });
        }
        let r = engine.run_round(now, AlgorithmKind::Ia);
        assert!(r.assigned > 0);
        assert_eq!(
            r.sets_added + r.sets_evicted,
            0,
            "frozen engines never maintain"
        );
        // The borrowed original is untouched and still usable.
        drop(engine);
        assert_eq!(pipeline.model().pool().fingerprint(), fp);
    }

    #[test]
    #[should_panic(expected = "frozen (borrowed-pipeline) engine")]
    fn frozen_engine_rejects_mutation() {
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let mut engine = EngineBuilder::new()
            .pipeline(PipelineMode::Frozen(&pipeline))
            .network(NetworkMode::Fixed(&dataset.social))
            .build();
        let _ = engine.pipeline_mut();
    }

    #[test]
    fn unknown_workers_are_rejected_not_silently_accepted() {
        // The zero-influence trap: a worker outside the trained
        // population can never score, so both the frozen and the
        // fixed-population engines must refuse the arrival explicitly.
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let ghost = Worker::new(WorkerId::new(10_000), sc_types::Location::ORIGIN, 25.0);

        let mut frozen = EngineBuilder::new()
            .pipeline(PipelineMode::Frozen(&pipeline))
            .network(NetworkMode::Fixed(&dataset.social))
            .build();
        assert_eq!(
            frozen.ingest(EventKind::WorkerArrival {
                worker: ghost.clone(),
            }),
            Outcome::Rejected(RejectReason::UnknownWorker)
        );
        assert_eq!(
            frozen.ingest(EventKind::WorkerNew {
                worker: ghost.clone(),
                friends: vec![WorkerId::new(0)],
                history: History::new(),
            }),
            Outcome::Rejected(RejectReason::CannotFoldIn),
            "a frozen engine cannot fold in"
        );
        assert_eq!(frozen.online_workers(), 0);

        let mut owned = owned_engine(pipeline, &dataset.social);
        assert_eq!(
            owned.ingest(EventKind::WorkerArrival { worker: ghost }),
            Outcome::Rejected(RejectReason::UnknownWorker)
        );
        assert_eq!(owned.online_workers(), 0);
    }

    #[test]
    fn friendless_fold_in_is_rejected_on_adaptive_engines() {
        // No usable friendships means the fold-in could never join an
        // RRR set — admitting the worker would re-open the
        // zero-influence trap. They can re-arrive once a friend exists.
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let trained = pipeline.model().n_workers();
        let mut engine = adaptive_engine(pipeline, dataset.social.clone(), OnlineConfig::default());
        let late = Worker::new(WorkerId::from(trained), sc_types::Location::ORIGIN, 25.0);
        assert_eq!(
            engine.ingest(EventKind::WorkerNew {
                worker: late.clone(),
                friends: vec![],
                history: History::new(),
            }),
            Outcome::Rejected(RejectReason::NoUsableFriends),
            "no friends at all"
        );
        assert_eq!(
            engine.ingest(EventKind::WorkerNew {
                worker: late.clone(),
                friends: vec![WorkerId::from(trained + 3)],
                history: History::new(),
            }),
            Outcome::Rejected(RejectReason::NoUsableFriends),
            "friends outside the population are unusable"
        );
        assert_eq!(engine.online_workers(), 0);
        assert_eq!(
            engine.pipeline().model().n_workers(),
            trained,
            "nothing folded"
        );
        // With one real friend the same arrival folds in.
        assert_eq!(
            engine.ingest(EventKind::WorkerNew {
                worker: late,
                friends: vec![WorkerId::new(0)],
                history: History::new(),
            }),
            Outcome::WorkerFoldedIn
        );
    }

    #[test]
    fn adaptive_engine_folds_in_late_arrival_with_nonzero_influence() {
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let trained = pipeline.model().n_workers();
        let trained_sets = pipeline.model().pool().n_sets();
        let mut engine = adaptive_engine(pipeline, dataset.social.clone(), OnlineConfig::default());
        feed_workers(&mut engine, &dataset, 30);

        // The arrival: checked in once at venue 0, friends with two
        // trained workers.
        let venue = dataset.venues.venue(sc_types::VenueId::new(0));
        let mut hist = History::new();
        hist.push(sc_types::CheckIn::at(
            WorkerId::from(trained),
            venue.id,
            venue.location,
            TimeInstant::at(0, 8),
            venue.categories.clone(),
        ));
        let late = Worker::new(WorkerId::from(trained), venue.location, 25.0);
        let friends = vec![WorkerId::new(0), WorkerId::new(1), WorkerId::new(2)];
        assert_eq!(
            engine.ingest(EventKind::WorkerNew {
                worker: late,
                friends: friends.clone(),
                history: hist.clone(),
            }),
            Outcome::WorkerFoldedIn
        );
        assert_eq!(engine.pipeline().model().n_workers(), trained + 1);
        assert_eq!(engine.network().n_workers(), trained + 1);
        assert_eq!(
            engine.pipeline().model().pool().n_sets(),
            trained_sets,
            "fold-in never resamples"
        );

        // The folded worker scores non-zero influence on a task at its
        // own venue — every factor of the product is live.
        let (task, _) = hourly_task(&dataset, 0, TimeInstant::at(0, 9), 4.0);
        let task = Task::with_categories(
            task.id,
            venue.location,
            task.published,
            task.valid_for,
            venue.categories.clone(),
        );
        let score = engine
            .pipeline()
            .scorer()
            .score(WorkerId::from(trained), &task);
        assert!(
            score > 0.0,
            "a folded-in late arrival must earn non-zero influence, got {score}"
        );

        // And a second unseen id must arrive densely: skipping one is
        // rejected.
        let skipper = Worker::new(WorkerId::from(trained + 5), venue.location, 25.0);
        assert_eq!(
            engine.ingest(EventKind::WorkerNew {
                worker: skipper,
                friends,
                history: hist,
            }),
            Outcome::Rejected(RejectReason::NonDenseId)
        );
    }

    #[test]
    fn folded_worker_participates_in_rounds_and_maintenance() {
        // Fold-in composes with bounded rotation: maintenance keeps
        // extending the pool against the *grown* network.
        let online = OnlineConfig {
            round_hours: 1,
            growth_cap: 256,
            eviction_horizon: 2,
            target_sets: 0,
            incremental: true,
        };
        let (dataset, pipeline) = setup(online);
        let trained = pipeline.model().n_workers();
        let mut engine = adaptive_engine(pipeline, dataset.social.clone(), online);
        feed_workers(&mut engine, &dataset, 20);
        let venue = dataset.venues.venue(sc_types::VenueId::new(3));
        let mut hist = History::new();
        hist.push(sc_types::CheckIn::at(
            WorkerId::from(trained),
            venue.id,
            venue.location,
            TimeInstant::at(0, 8),
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
        for hour in 9..14 {
            let now = TimeInstant::at(0, hour);
            for i in 0..6u32 {
                let (task, venue) = hourly_task(&dataset, hour as u32 * 10 + i, now, 4.0);
                engine.ingest(EventKind::TaskArrival { task, venue });
            }
            let r = engine.run_round(now, AlgorithmKind::Ia);
            assert!(r.sets_added <= 256);
        }
        let s = engine.summary();
        assert!(s.assigned > 0);
        assert_eq!(s.published, s.assigned + s.expired + s.still_open);
    }

    #[test]
    fn summary_average_influence_is_assignment_weighted() {
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let mut engine = owned_engine(pipeline, &dataset.social);
        feed_workers(&mut engine, &dataset, 50);
        let mut influence = 0.0;
        let mut assigned = 0usize;
        for hour in 8..12 {
            let now = TimeInstant::at(0, hour);
            for i in 0..10u32 {
                let (task, venue) = hourly_task(&dataset, hour as u32 * 50 + i, now, 2.0);
                engine.ingest(EventKind::TaskArrival { task, venue });
            }
            let r = engine.run_round(now, AlgorithmKind::Ia);
            influence += r.ai * r.assigned as f64;
            assigned += r.assigned;
        }
        let s = engine.summary();
        assert_eq!(s.assigned, assigned);
        assert!((s.average_influence - influence / assigned as f64).abs() < 1e-9);
    }

    #[test]
    fn apply_enforces_the_total_order() {
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let mut engine = owned_engine(pipeline, &dataset.social);
        let worker_event = |id: u32, round: u64, seq: u64| {
            let base = dataset.instance_for_day(0, 0, 5, InstanceOptions::default());
            Event {
                round,
                seq,
                kind: EventKind::WorkerArrival {
                    worker: base.instance.workers[id as usize].clone(),
                },
            }
        };
        assert_eq!(engine.next_stamp(), (0, 0));
        // A stamp from a future (or past) round is refused outright.
        assert_eq!(
            engine.apply(worker_event(0, 3, 0)),
            Outcome::Rejected(RejectReason::RoundMismatch)
        );
        // In-order events advance the stamp; gaps are fine.
        assert_eq!(engine.apply(worker_event(0, 0, 0)), Outcome::WorkerJoined);
        assert_eq!(engine.apply(worker_event(1, 0, 5)), Outcome::WorkerJoined);
        assert_eq!(engine.next_stamp(), (0, 6));
        // A regression within the round is refused.
        assert_eq!(
            engine.apply(worker_event(2, 0, 4)),
            Outcome::Rejected(RejectReason::OutOfOrder)
        );
        assert_eq!(engine.online_workers(), 2, "rejected events change nothing");
        // Closing the round advances `round` and resets `seq` to zero.
        let _ = engine.run_round(TimeInstant::at(0, 9), AlgorithmKind::Ia);
        assert_eq!(engine.next_stamp(), (1, 0));
        assert_eq!(
            engine.apply(worker_event(2, 0, 0)),
            Outcome::Rejected(RejectReason::RoundMismatch),
            "last round's stamps are dead"
        );
        assert_eq!(engine.apply(worker_event(2, 1, 0)), Outcome::WorkerJoined);
    }

    #[test]
    fn scripted_event_scripts_a_task_arrival() {
        let (dataset, _) = setup(OnlineConfig::default());
        match scripted_event(&dataset, 7, 17, TimeInstant::at(0, 9), 2.0) {
            EventKind::TaskArrival { task, venue } => {
                assert_eq!(task.id, sc_types::TaskId::new(17));
                let v = dataset.venues.venue(venue);
                assert_eq!(task.location, v.location);
                assert_eq!(task.categories, v.categories);
            }
            other => panic!("scripted_event must be a task arrival, got {other:?}"),
        }
    }

    #[test]
    fn engine_snapshot_roundtrips_mid_stream() {
        // Snapshot an engine mid-round (open tasks, online workers,
        // non-zero seq) and check the restored engine continues with
        // bit-identical reports.
        let (dataset, pipeline) = setup(OnlineConfig::default());
        let mut engine = adaptive_engine(pipeline, dataset.social.clone(), OnlineConfig::default());
        feed_workers(&mut engine, &dataset, 25);
        let now = TimeInstant::at(0, 9);
        for i in 0..6u32 {
            let (task, venue) = hourly_task(&dataset, i, now, 4.0);
            engine.ingest(EventKind::TaskArrival { task, venue });
        }
        let _ = engine.run_round(now, AlgorithmKind::Ia);
        // Mid-round state: two more arrivals after the round closed.
        let (task, venue) = hourly_task(&dataset, 100, TimeInstant::at(0, 10), 4.0);
        engine.ingest(EventKind::TaskArrival { task, venue });

        let text = crate::snapshot::snapshot_to_string(&engine).unwrap();
        let mut restored = crate::snapshot::snapshot_from_str(&text).unwrap();
        assert_eq!(restored.next_stamp(), engine.next_stamp());
        assert_eq!(restored.open_tasks(), engine.open_tasks());
        assert_eq!(restored.online_workers(), engine.online_workers());
        assert_eq!(restored.fold_in_enabled(), engine.fold_in_enabled());

        let later = TimeInstant::at(0, 10);
        let a = engine.run_round(later, AlgorithmKind::Ia);
        let b = restored.run_round(later, AlgorithmKind::Ia);
        assert_eq!(a, b, "restored engine must continue bit-identically");
        assert_eq!(engine.summary(), restored.summary());

        // And the snapshot of the snapshot is stable.
        let again = crate::snapshot::snapshot_to_string(&restored).unwrap();
        let twice = crate::snapshot::snapshot_from_str(&again).unwrap();
        assert_eq!(twice.next_stamp(), restored.next_stamp());
    }
}
