//! Spatio-temporal eligibility (the conditions on `w.A`, Section IV-A).
//!
//! A pair `(s, w)` is *available* at time `t` iff
//!
//! 1. `d(w.l, s.l) ≤ w.r` — the task lies in the worker's reachable
//!    circle, and
//! 2. `t + t(w.l, s.l) ≤ s.p + s.φ` — the worker arrives before the
//!    task expires (travel at the worker's speed).
//!
//! For large instances the candidate tasks per worker are found through a
//! [`GridIndex`] over task locations instead of a full scan.
//!
//! # Sharded construction
//!
//! [`EligibilityMatrix::build_with_threads`] distributes the build over
//! the workspace's chunked-shard scheduler (`sc_stats::par`). The
//! matrix is a per-worker CSR, so the shard axis is the worker range:
//! each shard evaluates a contiguous run of workers against the *shared
//! read-only task grid* and emits its rows in worker order; shard
//! outputs concatenate into the final CSR in shard order. Because every
//! worker's row is computed by the same code over the same grid in the
//! same candidate order, the sharded matrix is **byte-for-byte equal to
//! the sequential one at any thread count** (the task axis needs no
//! sharding of its own — the grid already prunes it per worker).

use sc_spatial::GridIndex;
use sc_types::{Duration, Instance, TimeInstant, Worker};

/// Instances below this |W|·|S| threshold use the direct double loop;
/// the grid only pays off once the quadratic scan dominates.
pub(crate) const GRID_THRESHOLD: usize = 64 * 64;

/// Instances below this |W|·|S| threshold build sequentially even when
/// a multi-thread budget is offered: thread-spawn overhead beats the
/// pair-test work. Results are unaffected (the sharded merge equals
/// the sequential build by construction) — only the parallel width is.
pub(crate) const SHARD_THRESHOLD: usize = 48 * 48;

/// One available worker-task pair with its geometry precomputed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EligiblePair {
    /// Index of the worker in `instance.workers`.
    pub worker_idx: u32,
    /// Index of the task in `instance.tasks`.
    pub task_idx: u32,
    /// Euclidean distance in km.
    pub distance_km: f64,
}

/// All available assignments of an instance, grouped per worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EligibilityMatrix {
    pairs: Vec<EligiblePair>,
    /// CSR offsets into `pairs` per worker index.
    offsets: Vec<u32>,
    n_tasks: usize,
}

/// Builds the shared task grid when the instance is big enough to make
/// it pay (the one grid policy, shared with the delta path in
/// [`crate::delta`] so both evaluate rows over identical candidate
/// machinery — though outputs are grid-independent either way: the
/// grid only prunes, the predicate decides).
pub(crate) fn task_grid(instance: &Instance) -> Option<GridIndex> {
    let n_workers = instance.workers.len();
    let n_tasks = instance.tasks.len();
    let use_grid = n_workers * n_tasks >= GRID_THRESHOLD && n_tasks > 0;
    use_grid.then(|| {
        let locations: Vec<_> = instance.tasks.iter().map(|t| t.location).collect();
        // Cell size near the median radius keeps cells busy but small.
        let mean_r =
            instance.workers.iter().map(|w| w.radius_km).sum::<f64>() / n_workers.max(1) as f64;
        GridIndex::build(&locations, (mean_r / 2.0).max(0.25))
    })
}

/// Whether a worker who leaves at `now` and travels for `travel`
/// arrives by `deadline`. An arrival past the end of representable
/// time never does: a zero or vanishing speed saturates `travel` at
/// `i64::MAX` seconds, and the sum must not wrap into the past.
#[inline]
pub(crate) fn arrives_in_time(now: TimeInstant, travel: Duration, deadline: TimeInstant) -> bool {
    now.checked_add(travel)
        .is_some_and(|arrival| arrival <= deadline)
}

/// Appends worker `wi`'s eligible pairs to `out` in ascending task
/// order — the one row body shared by the sequential and sharded
/// builds (and the delta path's row rebuilds), so their outputs can
/// only be identical. `candidates` is a caller-owned scratch buffer
/// (cleared here) to avoid re-allocating per worker.
pub(crate) fn worker_row(
    instance: &Instance,
    grid: Option<&GridIndex>,
    wi: usize,
    worker: &Worker,
    candidates: &mut Vec<usize>,
    out: &mut Vec<EligiblePair>,
) {
    candidates.clear();
    if let Some(grid) = grid {
        grid.for_each_within(&worker.location, worker.radius_km, |idx, _| {
            candidates.push(idx);
        });
        candidates.sort_unstable();
    } else {
        candidates.extend(0..instance.tasks.len());
    }
    for &ti in candidates.iter() {
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

impl EligibilityMatrix {
    /// Computes the matrix for an instance on the calling thread.
    ///
    /// Equivalent to [`EligibilityMatrix::build_with_threads`] with a
    /// budget of 1 (which is byte-for-byte equal at any budget).
    pub fn build(instance: &Instance) -> Self {
        Self::build_with_threads(instance, 1)
    }

    /// Computes the matrix for an instance on up to `threads` worker
    /// threads (see the module docs for the sharding scheme).
    ///
    /// The result is **byte-for-byte identical at any thread count**:
    /// shards cover contiguous worker ranges, every row is produced by
    /// the same code over the same shared task grid, and shard outputs
    /// merge in worker order. Small instances (|W|·|S| below an
    /// internal threshold) build sequentially regardless of the budget
    /// because spawn overhead would dominate.
    pub fn build_with_threads(instance: &Instance, threads: usize) -> Self {
        let n_workers = instance.workers.len();
        let n_tasks = instance.tasks.len();

        let grid = task_grid(instance);
        let grid = grid.as_ref();

        if threads <= 1 || n_workers * n_tasks < SHARD_THRESHOLD {
            let mut pairs = Vec::new();
            let mut offsets = Vec::with_capacity(n_workers + 1);
            offsets.push(0u32);
            let mut candidates: Vec<usize> = Vec::new();
            for (wi, worker) in instance.workers.iter().enumerate() {
                worker_row(instance, grid, wi, worker, &mut candidates, &mut pairs);
                offsets.push(pairs.len() as u32);
            }
            return EligibilityMatrix {
                pairs,
                offsets,
                n_tasks,
            };
        }

        // Sharded path: one contiguous worker range per shard, each
        // emitting `(rows, per-worker lengths)`; the merge concatenates
        // pairs and accumulates lengths into the CSR offsets in shard
        // order — exactly the sequential layout. The width clamp keeps
        // every shard above a threshold's worth of pair tests, so a
        // large budget never degenerates into spawn-dominated
        // micro-shards.
        let threads = threads.min((n_workers * n_tasks).div_ceil(SHARD_THRESHOLD));
        let shards = sc_stats::par::map_shards(n_workers, threads, |lo, hi| {
            let mut pairs = Vec::new();
            let mut lens = Vec::with_capacity(hi - lo);
            let mut candidates: Vec<usize> = Vec::new();
            for wi in lo..hi {
                let before = pairs.len();
                worker_row(
                    instance,
                    grid,
                    wi,
                    &instance.workers[wi],
                    &mut candidates,
                    &mut pairs,
                );
                lens.push((pairs.len() - before) as u32);
            }
            (pairs, lens)
        });

        let total: usize = shards.iter().map(|(p, _)| p.len()).sum();
        let mut pairs = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(n_workers + 1);
        offsets.push(0u32);
        for (shard_pairs, lens) in shards {
            for len in lens {
                offsets.push(offsets.last().unwrap() + len);
            }
            pairs.extend_from_slice(&shard_pairs);
        }

        EligibilityMatrix {
            pairs,
            offsets,
            n_tasks,
        }
    }

    /// Assembles a matrix from already-built CSR parts (the delta
    /// path's constructor; `offsets.len()` must be `n_workers + 1` and
    /// rows must be in ascending task order).
    pub(crate) fn from_raw(pairs: Vec<EligiblePair>, offsets: Vec<u32>, n_tasks: usize) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, pairs.len());
        EligibilityMatrix {
            pairs,
            offsets,
            n_tasks,
        }
    }

    /// Total number of available assignments `m = Σ |w.A|`.
    #[inline]
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of tasks in the underlying instance.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of workers in the underlying instance.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The available pairs of one worker (`w.A`).
    pub fn of_worker(&self, worker_idx: usize) -> &[EligiblePair] {
        let lo = self.offsets[worker_idx] as usize;
        let hi = self.offsets[worker_idx + 1] as usize;
        &self.pairs[lo..hi]
    }

    /// All pairs.
    #[inline]
    pub fn pairs(&self) -> &[EligiblePair] {
        &self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_types::{CategoryId, Location, Task, TaskId, TimeInstant, Worker, WorkerId};

    fn worker(id: u32, x: f64, radius: f64) -> Worker {
        Worker::new(WorkerId::new(id), Location::new(x, 0.0), radius)
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

    #[test]
    fn radius_filters_pairs() {
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 5.0)],
            vec![task(0, 3.0, 0, 24), task(1, 6.0, 0, 24)],
        );
        let m = EligibilityMatrix::build(&inst);
        assert_eq!(m.n_pairs(), 1);
        assert_eq!(m.of_worker(0)[0].task_idx, 0);
        assert!((m.of_worker(0)[0].distance_km - 3.0).abs() < 1e-12);
    }

    #[test]
    fn radius_is_inclusive() {
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 5.0)],
            vec![task(0, 5.0, 0, 24)],
        );
        assert_eq!(EligibilityMatrix::build(&inst).n_pairs(), 1);
    }

    #[test]
    fn deadline_with_travel_time_filters() {
        // Worker at 5 km/h needs 1h to cover 5 km. Task valid 30 min → miss.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 10.0)],
            vec![
                Task::new(
                    TaskId::new(0),
                    Location::new(5.0, 0.0),
                    TimeInstant::at(0, 0),
                    Duration::minutes(30),
                    CategoryId::new(0),
                ),
                Task::new(
                    TaskId::new(1),
                    Location::new(5.0, 0.0),
                    TimeInstant::at(0, 0),
                    Duration::minutes(61),
                    CategoryId::new(0),
                ),
            ],
        );
        let m = EligibilityMatrix::build(&inst);
        assert_eq!(m.n_pairs(), 1);
        assert_eq!(m.of_worker(0)[0].task_idx, 1);
    }

    #[test]
    fn exact_deadline_is_inclusive() {
        // 5 km at 5 km/h = exactly 1h; φ = 1h starting now.
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 10.0)],
            vec![task(0, 5.0, 0, 1)],
        );
        assert_eq!(EligibilityMatrix::build(&inst).n_pairs(), 1);
    }

    #[test]
    fn already_published_tasks_account_for_elapsed_time() {
        // Task published at 00:00 with φ=2h; now is 01:30; travel 1h → late.
        let inst = Instance::new(
            TimeInstant::at(0, 1) + Duration::minutes(30),
            vec![worker(0, 0.0, 10.0)],
            vec![task(0, 5.0, 0, 2)],
        );
        assert_eq!(EligibilityMatrix::build(&inst).n_pairs(), 0);
    }

    #[test]
    fn faster_workers_reach_farther_in_time() {
        let mut w = worker(0, 0.0, 10.0);
        w.speed_kmh = 20.0; // 5 km in 15 min
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![w],
            vec![Task::new(
                TaskId::new(0),
                Location::new(5.0, 0.0),
                TimeInstant::at(0, 0),
                Duration::minutes(30),
                CategoryId::new(0),
            )],
        );
        assert_eq!(EligibilityMatrix::build(&inst).n_pairs(), 1);
    }

    #[test]
    fn csr_grouping_per_worker() {
        let inst = Instance::new(
            TimeInstant::at(0, 0),
            vec![worker(0, 0.0, 4.0), worker(1, 10.0, 4.0)],
            vec![
                task(0, 1.0, 0, 24),
                task(1, 9.0, 0, 24),
                task(2, 11.0, 0, 24),
            ],
        );
        let m = EligibilityMatrix::build(&inst);
        assert_eq!(m.of_worker(0).len(), 1);
        assert_eq!(m.of_worker(1).len(), 2);
        assert_eq!(m.n_pairs(), 3);
        assert_eq!(m.n_workers(), 2);
        assert_eq!(m.n_tasks(), 3);
    }

    #[test]
    fn grid_and_scan_paths_agree() {
        // Build an instance big enough to trigger the grid path, then
        // compare against a brute-force recomputation.
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(21);
        let workers: Vec<Worker> = (0..80)
            .map(|i| {
                Worker::new(
                    WorkerId::new(i),
                    Location::new(rng.random_range(0.0..40.0), rng.random_range(0.0..40.0)),
                    rng.random_range(1.0..8.0),
                )
            })
            .collect();
        let tasks: Vec<Task> = (0..80)
            .map(|i| {
                Task::new(
                    TaskId::new(i),
                    Location::new(rng.random_range(0.0..40.0), rng.random_range(0.0..40.0)),
                    TimeInstant::at(0, 0),
                    Duration::hours(rng.random_range(1..10)),
                    CategoryId::new(0),
                )
            })
            .collect();
        let inst = Instance::new(TimeInstant::at(0, 0), workers, tasks);
        let m = EligibilityMatrix::build(&inst);

        let mut expect = Vec::new();
        for (wi, w) in inst.workers.iter().enumerate() {
            for (ti, t) in inst.tasks.iter().enumerate() {
                let d = w.location.distance_km(&t.location);
                let travel = Duration::seconds(w.travel_seconds(&t.location).ceil() as i64);
                if d <= w.radius_km && inst.now + travel <= t.deadline() {
                    expect.push((wi as u32, ti as u32));
                }
            }
        }
        let got: Vec<(u32, u32)> = m
            .pairs()
            .iter()
            .map(|p| (p.worker_idx, p.task_idx))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(TimeInstant::EPOCH, vec![], vec![]);
        let m = EligibilityMatrix::build(&inst);
        assert_eq!(m.n_pairs(), 0);
        assert_eq!(m.n_workers(), 0);
    }
}
