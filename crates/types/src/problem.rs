//! The per-instance ITA problem snapshot.
//!
//! The SC server batches available workers and tasks at each time instance
//! (paper Section II). An [`Instance`] is that batch: the assignment
//! algorithms in `sc-assign` consume an instance plus an influence oracle
//! and produce an [`crate::Assignment`].

use crate::{Task, TaskId, TimeInstant, Worker, WorkerId};
use serde::{Deserialize, Serialize};

/// A snapshot of the platform at one time instance: the current time, the
/// online workers, and the unexpired tasks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// The time instance `t` at which the assignment is computed.
    pub now: TimeInstant,
    /// Online workers.
    pub workers: Vec<Worker>,
    /// Available (published, unexpired) tasks.
    pub tasks: Vec<Task>,
}

impl Instance {
    /// Creates an instance.
    pub fn new(now: TimeInstant, workers: Vec<Worker>, tasks: Vec<Task>) -> Self {
        Instance {
            now,
            workers,
            tasks,
        }
    }

    /// Number of online workers `|W|`.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of available tasks `|S|`.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Finds a worker by id (linear scan; instances are small).
    pub fn worker(&self, id: WorkerId) -> Option<&Worker> {
        self.workers.iter().find(|w| w.id == id)
    }

    /// Finds a task by id.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Upper bound on `|A|`: no assignment can exceed
    /// `min(|W|, |S|)` under the at-most-once constraints.
    #[inline]
    pub fn assignment_upper_bound(&self) -> usize {
        self.workers.len().min(self.tasks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CategoryId, Duration, Location};

    fn worker(id: u32) -> Worker {
        Worker::new(WorkerId::new(id), Location::ORIGIN, 5.0)
    }

    fn task(id: u32, published_h: i64, valid_h: i64) -> Task {
        Task::new(
            TaskId::new(id),
            Location::new(1.0, 0.0),
            TimeInstant::at(0, published_h),
            Duration::hours(valid_h),
            CategoryId::new(0),
        )
    }

    #[test]
    fn counts_and_bound() {
        let inst = Instance::new(
            TimeInstant::at(0, 10),
            vec![worker(0), worker(1), worker(2)],
            vec![task(0, 9, 5), task(1, 9, 5)],
        );
        assert_eq!(inst.n_workers(), 3);
        assert_eq!(inst.n_tasks(), 2);
        assert_eq!(inst.assignment_upper_bound(), 2);
    }

    #[test]
    fn lookup_by_id() {
        let inst = Instance::new(TimeInstant::EPOCH, vec![worker(3)], vec![task(7, 0, 1)]);
        assert!(inst.worker(WorkerId::new(3)).is_some());
        assert!(inst.worker(WorkerId::new(4)).is_none());
        assert!(inst.task(TaskId::new(7)).is_some());
        assert!(inst.task(TaskId::new(8)).is_none());
    }
}
