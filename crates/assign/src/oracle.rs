//! The influence oracle boundary.
//!
//! Assignment algorithms consume worker-task influence values without
//! knowing how they are produced. `sc-core` implements the full DITA
//! model (affinity × Σ willingness × propagation); unit tests inject
//! closures; the MTA baseline uses [`ZeroInfluence`].

use crate::eligibility::EligibilityMatrix;
use sc_types::{Instance, Task, WorkerId};

/// Pair counts below this score on one thread even under a multi-thread
/// budget: one influence evaluation is microseconds, so spawn overhead
/// would dominate. Values are unaffected either way.
const SCORE_SHARD_THRESHOLD: usize = 1024;

/// How many shards a whole-matrix scan of `n_pairs` pairs runs on
/// under a budget of `threads`: one below 1,024 pairs, else at most
/// `threads`, with every shard carrying at least 1,024 pairs' worth of
/// work (spawning 16 threads for 1.1k pairs would be spawn-dominated;
/// the same rule as `RrrPool::MIN_SETS_PER_SHARD`).
pub fn score_shards(n_pairs: usize, threads: usize) -> usize {
    if threads <= 1 || n_pairs < SCORE_SHARD_THRESHOLD {
        1
    } else {
        threads.min(n_pairs.div_ceil(SCORE_SHARD_THRESHOLD))
    }
}

/// Supplies `if(w, s)` for candidate pairs.
///
/// `Sync` is a supertrait because the scoring scan over eligible pairs
/// is sharded across threads when [`crate::AssignInput`] carries a
/// multi-thread budget: oracles must tolerate concurrent `influence`
/// calls (scores must not depend on call order — `sc-core`'s cached
/// scorer satisfies this by computing per-task entries
/// deterministically from task content).
pub trait InfluenceOracle: Sync {
    /// Worker-task influence of assigning `task` to `worker`.
    /// Must be non-negative and finite.
    fn influence(&self, worker: WorkerId, task: &Task) -> f64;

    /// The influence of every pair of `matrix` (built over `instance`),
    /// in pair order: entry `i` scores `matrix.pairs()[i]`. This is the
    /// one scan [`crate::score_pairs`] runs.
    ///
    /// The default calls [`InfluenceOracle::influence`] per pair over
    /// [`score_shards`] contiguous pair ranges, merged in index order.
    /// An oracle whose per-task or per-worker work can be shared across
    /// pairs overrides it (`sc-core`'s scorer gathers each worker's
    /// set roots once and reuses them for all its tasks); an
    /// override must return exactly what `influence` returns, bit for
    /// bit, at any `threads`.
    fn influence_matrix(
        &self,
        instance: &Instance,
        matrix: &EligibilityMatrix,
        threads: usize,
    ) -> Vec<f64> {
        let pairs = matrix.pairs();
        let score = |pi: usize| {
            let p = &pairs[pi];
            self.influence(
                instance.workers[p.worker_idx as usize].id,
                &instance.tasks[p.task_idx as usize],
            )
        };
        sc_stats::par::map_chunked(pairs.len(), score_shards(pairs.len(), threads), score)
    }
}

/// The zero oracle: every pair has no influence (MTA's view of the world).
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroInfluence;

impl InfluenceOracle for ZeroInfluence {
    #[inline]
    fn influence(&self, _worker: WorkerId, _task: &Task) -> f64 {
        0.0
    }
}

/// Adapter turning any closure into an oracle (the closure must be
/// `Sync`, i.e. safe to call from the sharded scoring pass).
pub struct InfluenceFn<F>(pub F);

impl<F: Fn(WorkerId, &Task) -> f64 + Sync> InfluenceOracle for InfluenceFn<F> {
    #[inline]
    fn influence(&self, worker: WorkerId, task: &Task) -> f64 {
        (self.0)(worker, task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_types::{CategoryId, Duration, Location, TaskId, TimeInstant};

    fn task() -> Task {
        Task::new(
            TaskId::new(0),
            Location::ORIGIN,
            TimeInstant::EPOCH,
            Duration::hours(1),
            CategoryId::new(0),
        )
    }

    #[test]
    fn zero_oracle_is_zero() {
        assert_eq!(ZeroInfluence.influence(WorkerId::new(5), &task()), 0.0);
    }

    #[test]
    fn closure_adapter_passes_through() {
        let oracle = InfluenceFn(|w: WorkerId, _t: &Task| w.raw() as f64 * 2.0);
        assert_eq!(oracle.influence(WorkerId::new(3), &task()), 6.0);
    }

    #[test]
    fn oracle_is_object_safe() {
        let oracle = InfluenceFn(|_, _: &Task| 1.0);
        let dynamic: &dyn InfluenceOracle = &oracle;
        assert_eq!(dynamic.influence(WorkerId::new(0), &task()), 1.0);
    }
}
