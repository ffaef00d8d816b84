//! Incremental eligibility: advance the worker-axis CSR by a delta
//! instead of rebuilding it from scratch every round.
//!
//! An online round changes the instance only at its edges — a few
//! workers arrive, depart, or move; assigned tasks leave and fresh
//! posts arrive; open tasks drift towards their deadlines. The pair
//! predicate (reach ∧ arrive-before-deadline) is *monotone in time*
//! for a fixed worker/task: once `now + travel > deadline` a pair
//! never becomes eligible again. So a carried worker row can only
//! **shrink** on the carried task columns and **grow** by the round's
//! new tasks — exactly the delta [`EligibilityState::advance`] applies.
//!
//! # Self-reconciling by construction
//!
//! The state does not trust caller-fed events. Each round it stores a
//! compact per-entity fingerprint (worker: id + exact location /
//! radius / speed bits; task: id + exact location bits + deadline) and
//! the next [`EligibilityState::advance`] call *diffs the new instance
//! against it*: an entity whose fingerprint matches is carried, any
//! other row is rebuilt by the same `worker_row` code the from-scratch
//! build uses. A missed or mis-reported event therefore degrades to a
//! (correct) row rebuild, never to a wrong matrix. Situations outside
//! the delta's reach fall back to a full rebuild, flagged in
//! [`DeltaStats::full_rebuild`]: the first round, time regression,
//! duplicate ids, or carried tasks arriving out of relative order.
//!
//! # Determinism
//!
//! The advanced matrix is **byte-for-byte equal** to
//! [`EligibilityMatrix::build`] on the same instance, at any thread
//! count — the property suite `tests/eligibility_delta.rs` pins it
//! across randomized arrival/departure/move/post/expiry rounds.
//! Carried pairs reuse the stored `distance_km`/travel values, which
//! were computed by the same code from bitwise-identical inputs;
//! rebuilt and appended rows run the same predicate over the same
//! candidate machinery as the oracle build. Sharding follows the
//! worker-range scheme of the from-scratch build (contiguous ranges,
//! merged in order).

use crate::eligibility::{
    arrives_in_time, task_grid, worker_row, EligibilityMatrix, EligiblePair, GRID_THRESHOLD,
    SHARD_THRESHOLD,
};
use sc_spatial::GridIndex;
use sc_types::{Duration, Instance, TimeInstant, Worker};
use std::collections::HashMap;

/// Shape of the delta one [`EligibilityState::advance`] call applied —
/// round telemetry (`RoundPerf`/`RoundReport` carry it) and the test
/// suites' handle on *how* a round was served. Every counter is a
/// deterministic fact of the two instances being diffed, independent
/// of thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaStats {
    /// The delta was abandoned for a from-scratch build (first round,
    /// time regression, duplicate ids, or reordered carried tasks).
    pub full_rebuild: bool,
    /// Worker rows advanced from the previous round (pairs filtered by
    /// deadline, new-task pairs merged in).
    pub rows_carried: usize,
    /// Worker rows recomputed from scratch (new, moved, or otherwise
    /// changed workers).
    pub rows_rebuilt: usize,
    /// Pairs reused from the previous round's matrix.
    pub pairs_carried: usize,
    /// Pairs dropped from carried rows because the task deadline
    /// overtook the worker's travel time.
    pub pairs_expired: usize,
    /// Task columns that entered this round.
    pub tasks_added: usize,
    /// Task columns that left since the previous round (assigned,
    /// expired, or content-changed).
    pub tasks_removed: usize,
}

/// Exact-identity fingerprint of a worker for the diff: any bit
/// difference in a field the pair predicate reads forces a row
/// rebuild.
#[derive(Clone, Copy, PartialEq, Eq)]
struct WorkerMeta {
    id: u32,
    x: u64,
    y: u64,
    radius: u64,
    speed: u64,
}

fn worker_meta(w: &Worker) -> WorkerMeta {
    WorkerMeta {
        id: w.id.raw(),
        x: w.location.x.to_bits(),
        y: w.location.y.to_bits(),
        radius: w.radius_km.to_bits(),
        speed: w.speed_kmh.to_bits(),
    }
}

/// Exact-identity fingerprint of a task column (categories are
/// irrelevant to eligibility, so they are not part of it).
#[derive(Clone, Copy, PartialEq, Eq)]
struct TaskMeta {
    id: u32,
    x: u64,
    y: u64,
    deadline: TimeInstant,
}

fn task_meta(t: &sc_types::Task) -> TaskMeta {
    TaskMeta {
        id: t.id.raw(),
        x: t.location.x.to_bits(),
        y: t.location.y.to_bits(),
        deadline: t.deadline(),
    }
}

/// One stored pair of the previous round: the task's *position* in
/// that round's task order plus the precomputed geometry a carry
/// reuses (recomputing it would produce the same bits — the inputs are
/// fingerprint-identical — but costs a sqrt per pair).
#[derive(Clone, Copy)]
struct StoredPair {
    task: u32,
    distance_km: f64,
    travel: Duration,
}

/// How one instance worker's row is produced this round.
enum RowPlan {
    /// Fingerprint match: advance the stored row at this index.
    Carry(u32),
    /// New or changed worker: recompute via `worker_row`.
    Rebuild,
}

/// Persistent cross-round eligibility state — the delta side of the
/// incremental round pipeline (`DitaPipeline::assign_round` holds one
/// per engine when incremental serving is on).
///
/// Feed it the round instances in time order via
/// [`EligibilityState::advance`]; it returns a matrix equal to the
/// from-scratch build plus the [`DeltaStats`] describing how much work
/// the delta saved. See the module docs for the reconciliation and
/// determinism story.
#[derive(Default)]
pub struct EligibilityState {
    /// Whether a previous round is stored at all.
    primed: bool,
    now: TimeInstant,
    workers: Vec<WorkerMeta>,
    /// Worker raw id → row in `workers` (lookup only — never iterated).
    worker_index: HashMap<u32, u32>,
    tasks: Vec<TaskMeta>,
    /// Task raw id → column in `tasks` (lookup only — never iterated).
    task_index: HashMap<u32, u32>,
    /// Previous round's pairs, CSR by worker row.
    pairs: Vec<StoredPair>,
    offsets: Vec<u32>,
}

impl std::fmt::Debug for EligibilityState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EligibilityState")
            .field("primed", &self.primed)
            .field("workers", &self.workers.len())
            .field("tasks", &self.tasks.len())
            .field("pairs", &self.pairs.len())
            .finish()
    }
}

impl EligibilityState {
    /// An unprimed state: the first [`EligibilityState::advance`] is a
    /// full build.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the stored round; the next advance rebuilds from scratch.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Produces the eligibility matrix for `instance`, advancing the
    /// stored previous round by a delta when possible (falling back to
    /// a full [`EligibilityMatrix::build_with_threads`] otherwise),
    /// then stores `instance`'s fingerprints and matrix for the next
    /// round. The result is byte-for-byte equal to the from-scratch
    /// build at any `threads` value.
    pub fn advance(
        &mut self,
        instance: &Instance,
        threads: usize,
    ) -> (EligibilityMatrix, DeltaStats) {
        let mut stats = DeltaStats::default();
        match self.diff(instance) {
            Some(diff) => {
                let matrix = self.apply(instance, &diff, threads, &mut stats);
                self.absorb(instance, &matrix);
                (matrix, stats)
            }
            None => {
                stats.full_rebuild = true;
                stats.rows_rebuilt = instance.workers.len();
                stats.tasks_added = instance.tasks.len();
                stats.tasks_removed = self.tasks.len();
                let matrix = EligibilityMatrix::build_with_threads(instance, threads);
                self.absorb(instance, &matrix);
                (matrix, stats)
            }
        }
    }

    /// Classifies `instance` against the stored round. `None` means
    /// "outside the delta's reach — do a full rebuild".
    fn diff(&self, instance: &Instance) -> Option<RoundDiff> {
        if !self.primed || instance.now < self.now {
            return None;
        }
        // Task columns: carried iff the fingerprint matches; carried
        // columns must keep their relative order so carried rows stay
        // sorted under the position map.
        let mut old_to_new = vec![u32::MAX; self.tasks.len()];
        let mut new_tasks = Vec::new();
        let mut seen_tasks = std::collections::HashSet::with_capacity(instance.tasks.len());
        let mut last_carried = -1i64;
        for (ti, task) in instance.tasks.iter().enumerate() {
            let meta = task_meta(task);
            if !seen_tasks.insert(meta.id) {
                return None; // duplicate task id
            }
            match self.task_index.get(&meta.id) {
                Some(&old) if self.tasks[old as usize] == meta => {
                    if (old as i64) < last_carried {
                        return None; // carried columns reordered
                    }
                    last_carried = old as i64;
                    old_to_new[old as usize] = ti as u32;
                }
                // Unknown id, or known id with changed content: the old
                // column (if any) stays unmapped (= removed) and the
                // task joins as a fresh column.
                _ => new_tasks.push(ti as u32),
            }
        }
        // Worker rows: carried iff the fingerprint matches.
        let mut plans = Vec::with_capacity(instance.workers.len());
        let mut seen_workers = std::collections::HashSet::with_capacity(instance.workers.len());
        for worker in &instance.workers {
            let meta = worker_meta(worker);
            if !seen_workers.insert(meta.id) {
                return None; // duplicate worker id
            }
            match self.worker_index.get(&meta.id) {
                Some(&old) if self.workers[old as usize] == meta => {
                    plans.push(RowPlan::Carry(old));
                }
                _ => plans.push(RowPlan::Rebuild),
            }
        }
        Some(RoundDiff {
            old_to_new,
            new_tasks,
            plans,
        })
    }

    /// Applies a classified diff: every instance worker's row is either
    /// advanced (carried pairs remapped + deadline-filtered, new-task
    /// pairs merged in by task position) or rebuilt through the shared
    /// `worker_row`. Sharded over contiguous worker ranges exactly like
    /// the from-scratch build.
    fn apply(
        &self,
        instance: &Instance,
        diff: &RoundDiff,
        threads: usize,
        stats: &mut DeltaStats,
    ) -> EligibilityMatrix {
        let n_workers = instance.workers.len();
        let n_tasks = instance.tasks.len();

        // Rebuilt rows scan the full task set through the standard
        // grid; carried rows only probe the round's new tasks, through
        // a grid of their own when there are enough of them.
        let full_grid = diff
            .plans
            .iter()
            .any(|p| matches!(p, RowPlan::Rebuild))
            .then(|| task_grid(instance))
            .flatten();
        let new_grid = (n_workers * diff.new_tasks.len() >= GRID_THRESHOLD
            && !diff.new_tasks.is_empty())
        .then(|| {
            let locations: Vec<_> = diff
                .new_tasks
                .iter()
                .map(|&ti| instance.tasks[ti as usize].location)
                .collect();
            let mean_r =
                instance.workers.iter().map(|w| w.radius_km).sum::<f64>() / n_workers.max(1) as f64;
            GridIndex::build(&locations, (mean_r / 2.0).max(0.25))
        });

        // One shard: a contiguous worker range, emitting rows in order
        // plus its share of the (deterministic) counters.
        let shard = |lo: usize, hi: usize| {
            let mut pairs: Vec<EligiblePair> = Vec::new();
            let mut lens = Vec::with_capacity(hi - lo);
            let mut candidates: Vec<usize> = Vec::new();
            let mut fresh: Vec<EligiblePair> = Vec::new();
            let mut sub = DeltaStats::default();
            for wi in lo..hi {
                let before = pairs.len();
                let worker = &instance.workers[wi];
                match diff.plans[wi] {
                    RowPlan::Rebuild => {
                        worker_row(
                            instance,
                            full_grid.as_ref(),
                            wi,
                            worker,
                            &mut candidates,
                            &mut pairs,
                        );
                        sub.rows_rebuilt += 1;
                    }
                    RowPlan::Carry(old_row) => {
                        self.new_task_pairs(
                            instance,
                            diff,
                            new_grid.as_ref(),
                            wi,
                            worker,
                            &mut candidates,
                            &mut fresh,
                        );
                        let row = self.stored_row(old_row);
                        // Two-pointer merge by new task position: the
                        // carried pairs are ascending in old order and
                        // the position map is monotone on carried
                        // columns, so both streams are sorted.
                        let mut f = fresh.iter().peekable();
                        for sp in row {
                            let ti = diff.old_to_new[sp.task as usize];
                            if ti == u32::MAX {
                                continue; // column removed this round
                            }
                            let task = &instance.tasks[ti as usize];
                            if !arrives_in_time(instance.now, sp.travel, task.deadline()) {
                                sub.pairs_expired += 1;
                                continue;
                            }
                            while let Some(&&np) = f.peek() {
                                if np.task_idx < ti {
                                    pairs.push(np);
                                    f.next();
                                } else {
                                    break;
                                }
                            }
                            pairs.push(EligiblePair {
                                worker_idx: wi as u32,
                                task_idx: ti,
                                distance_km: sp.distance_km,
                            });
                            sub.pairs_carried += 1;
                        }
                        pairs.extend(f.copied());
                        sub.rows_carried += 1;
                    }
                }
                lens.push((pairs.len() - before) as u32);
            }
            (pairs, lens, sub)
        };

        let threads = threads
            .min((n_workers * n_tasks.max(1)).div_ceil(SHARD_THRESHOLD))
            .max(1);
        let shards = if threads <= 1 {
            vec![shard(0, n_workers)]
        } else {
            sc_stats::par::map_shards(n_workers, threads, shard)
        };

        let total: usize = shards.iter().map(|(p, _, _)| p.len()).sum();
        let mut pairs = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(n_workers + 1);
        offsets.push(0u32);
        for (shard_pairs, lens, sub) in shards {
            for len in lens {
                offsets.push(offsets.last().unwrap() + len);
            }
            pairs.extend_from_slice(&shard_pairs);
            stats.rows_carried += sub.rows_carried;
            stats.rows_rebuilt += sub.rows_rebuilt;
            stats.pairs_carried += sub.pairs_carried;
            stats.pairs_expired += sub.pairs_expired;
        }
        stats.tasks_added = diff.new_tasks.len();
        stats.tasks_removed = diff.old_to_new.iter().filter(|&&ti| ti == u32::MAX).count();

        EligibilityMatrix::from_raw(pairs, offsets, n_tasks)
    }

    /// Evaluates `worker` against the round's *new* task columns only,
    /// emitting eligible pairs in ascending task position (the same
    /// predicate `worker_row` runs, restricted to the new columns).
    #[allow(clippy::too_many_arguments)]
    fn new_task_pairs(
        &self,
        instance: &Instance,
        diff: &RoundDiff,
        new_grid: Option<&GridIndex>,
        wi: usize,
        worker: &Worker,
        candidates: &mut Vec<usize>,
        out: &mut Vec<EligiblePair>,
    ) {
        out.clear();
        candidates.clear();
        if let Some(grid) = new_grid {
            grid.for_each_within(&worker.location, worker.radius_km, |idx, _| {
                candidates.push(idx);
            });
            candidates.sort_unstable();
        } else {
            candidates.extend(0..diff.new_tasks.len());
        }
        for &local in candidates.iter() {
            let ti = diff.new_tasks[local] as usize;
            let task = &instance.tasks[ti];
            let d = worker.location.distance_km(&task.location);
            if d > worker.radius_km {
                continue;
            }
            let travel = Duration::seconds(worker.travel_seconds(&task.location).ceil() as i64);
            if !arrives_in_time(instance.now, travel, task.deadline()) {
                continue;
            }
            out.push(EligiblePair {
                worker_idx: wi as u32,
                task_idx: ti as u32,
                distance_km: d,
            });
        }
    }

    fn stored_row(&self, row: u32) -> &[StoredPair] {
        let lo = self.offsets[row as usize] as usize;
        let hi = self.offsets[row as usize + 1] as usize;
        &self.pairs[lo..hi]
    }

    /// Stores `instance`'s fingerprints and `matrix` (with per-pair
    /// travel recomputed once — identical bits to what the build used)
    /// as the next round's carry source.
    fn absorb(&mut self, instance: &Instance, matrix: &EligibilityMatrix) {
        self.primed = true;
        self.now = instance.now;

        self.workers.clear();
        self.worker_index.clear();
        for (wi, w) in instance.workers.iter().enumerate() {
            let meta = worker_meta(w);
            self.workers.push(meta);
            self.worker_index.insert(meta.id, wi as u32);
        }

        self.tasks.clear();
        self.task_index.clear();
        for (ti, t) in instance.tasks.iter().enumerate() {
            let meta = task_meta(t);
            self.tasks.push(meta);
            self.task_index.insert(meta.id, ti as u32);
        }

        self.pairs.clear();
        self.pairs.reserve(matrix.n_pairs());
        for p in matrix.pairs() {
            let worker = &instance.workers[p.worker_idx as usize];
            let task = &instance.tasks[p.task_idx as usize];
            self.pairs.push(StoredPair {
                task: p.task_idx,
                distance_km: p.distance_km,
                travel: Duration::seconds(worker.travel_seconds(&task.location).ceil() as i64),
            });
        }
        self.offsets.clear();
        self.offsets.push(0);
        for wi in 0..matrix.n_workers() {
            self.offsets
                .push(self.offsets[wi] + matrix.of_worker(wi).len() as u32);
        }
    }
}

/// The classified difference between the stored round and the new
/// instance (an applied [`EligibilityState`] delta).
struct RoundDiff {
    /// Old task column → new position; `u32::MAX` marks a removed
    /// column. Monotone on carried columns by construction.
    old_to_new: Vec<u32>,
    /// Positions (in `instance.tasks`) of this round's new columns.
    new_tasks: Vec<u32>,
    /// Per instance-worker row plan, aligned with `instance.workers`.
    plans: Vec<RowPlan>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_types::{CategoryId, Location, Task, TaskId, Worker, WorkerId};

    fn worker(id: u32, x: f64, r: f64) -> Worker {
        Worker::new(WorkerId::new(id), Location::new(x, 0.0), r)
    }

    fn task(id: u32, x: f64, published_h: i64, valid_h: i64) -> Task {
        Task::new(
            TaskId::new(id),
            Location::new(x, 0.0),
            TimeInstant::at(0, published_h),
            Duration::hours(valid_h),
            CategoryId::new(0),
        )
    }

    fn assert_oracle(state: &mut EligibilityState, instance: &Instance) -> DeltaStats {
        let (got, stats) = state.advance(instance, 1);
        assert_eq!(got, EligibilityMatrix::build(instance));
        stats
    }

    #[test]
    fn first_round_is_full_rebuild() {
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 5.0)],
            vec![task(0, 3.0, 0, 24)],
        );
        let mut state = EligibilityState::new();
        let stats = assert_oracle(&mut state, &inst);
        assert!(stats.full_rebuild);
    }

    #[test]
    fn identical_round_carries_everything() {
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 5.0), worker(1, 9.0, 5.0)],
            vec![task(0, 3.0, 0, 24), task(1, 8.0, 0, 24)],
        );
        let mut state = EligibilityState::new();
        state.advance(&inst, 1);
        let stats = assert_oracle(&mut state, &inst);
        assert!(!stats.full_rebuild);
        assert_eq!(stats.rows_carried, 2);
        assert_eq!(stats.rows_rebuilt, 0);
        assert_eq!(stats.tasks_added, 0);
        assert_eq!(stats.pairs_carried, 2);
    }

    #[test]
    fn moved_worker_rebuilds_only_its_row() {
        let mut inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 5.0), worker(1, 9.0, 5.0)],
            vec![task(0, 3.0, 0, 24), task(1, 8.0, 0, 24)],
        );
        let mut state = EligibilityState::new();
        state.advance(&inst, 1);
        inst.workers[1].location = Location::new(2.0, 0.0);
        let stats = assert_oracle(&mut state, &inst);
        assert!(!stats.full_rebuild);
        assert_eq!(stats.rows_carried, 1);
        assert_eq!(stats.rows_rebuilt, 1);
    }

    #[test]
    fn time_advance_expires_carried_pairs() {
        // 5 km at 5 km/h = 1h travel; deadline at 02:00. At 00:00 the
        // pair is eligible, at 01:30 it is not.
        let w = vec![worker(0, 0.0, 10.0)];
        let t = vec![task(0, 5.0, 0, 2)];
        let mut state = EligibilityState::new();
        state.advance(
            &Instance::new(TimeInstant::at(0, 0), w.clone(), t.clone()),
            1,
        );
        let later = Instance::new(TimeInstant::at(0, 1) + Duration::minutes(30), w, t);
        let stats = assert_oracle(&mut state, &later);
        assert!(!stats.full_rebuild);
        assert_eq!(stats.pairs_expired, 1);
        assert_eq!(stats.pairs_carried, 0);
    }

    #[test]
    fn time_regression_forces_full_rebuild() {
        let w = vec![worker(0, 0.0, 10.0)];
        let t = vec![task(0, 5.0, 0, 24)];
        let mut state = EligibilityState::new();
        state.advance(
            &Instance::new(TimeInstant::at(0, 5), w.clone(), t.clone()),
            1,
        );
        let stats = assert_oracle(&mut state, &Instance::new(TimeInstant::at(0, 1), w, t));
        assert!(stats.full_rebuild);
    }

    #[test]
    fn everyone_left_yields_empty_matrix() {
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 5.0)],
            vec![task(0, 3.0, 0, 24)],
        );
        let mut state = EligibilityState::new();
        state.advance(&inst, 1);
        let empty = Instance::new(TimeInstant::at(0, 1), vec![], vec![]);
        let stats = assert_oracle(&mut state, &empty);
        assert!(!stats.full_rebuild);
        assert_eq!(stats.tasks_removed, 1);
    }

    #[test]
    fn refreshed_task_content_counts_as_remove_plus_add() {
        let w = vec![worker(0, 0.0, 10.0)];
        let mut state = EligibilityState::new();
        state.advance(
            &Instance::new(TimeInstant::at(0, 0), w.clone(), vec![task(0, 3.0, 0, 2)]),
            1,
        );
        // Same id, later deadline: the column is re-added, not carried.
        let stats = assert_oracle(
            &mut state,
            &Instance::new(TimeInstant::at(0, 1), w, vec![task(0, 3.0, 0, 9)]),
        );
        assert!(!stats.full_rebuild);
        assert_eq!(stats.tasks_removed, 1);
        assert_eq!(stats.tasks_added, 1);
    }

    #[test]
    fn reordered_carried_tasks_force_full_rebuild() {
        let w = vec![worker(0, 0.0, 10.0)];
        let t0 = task(0, 1.0, 0, 24);
        let t1 = task(1, 2.0, 0, 24);
        let mut state = EligibilityState::new();
        state.advance(
            &Instance::new(
                TimeInstant::at(0, 0),
                w.clone(),
                vec![t0.clone(), t1.clone()],
            ),
            1,
        );
        let stats = assert_oracle(
            &mut state,
            &Instance::new(TimeInstant::at(0, 1), w, vec![t1, t0]),
        );
        assert!(stats.full_rebuild);
    }

    #[test]
    fn interleaved_new_tasks_merge_in_position_order() {
        let w = vec![worker(0, 0.0, 100.0)];
        let mut state = EligibilityState::new();
        state.advance(
            &Instance::new(
                TimeInstant::at(0, 0),
                w.clone(),
                vec![task(0, 1.0, 0, 24), task(1, 3.0, 0, 24)],
            ),
            1,
        );
        // New columns land before, between, and after the carried ones.
        let stats = assert_oracle(
            &mut state,
            &Instance::new(
                TimeInstant::at(0, 1),
                w,
                vec![
                    task(7, 0.5, 1, 24),
                    task(0, 1.0, 0, 24),
                    task(8, 2.0, 1, 24),
                    task(1, 3.0, 0, 24),
                    task(9, 4.0, 1, 24),
                ],
            ),
        );
        assert!(!stats.full_rebuild);
        assert_eq!(stats.tasks_added, 3);
        assert_eq!(stats.pairs_carried, 2);
    }
}
