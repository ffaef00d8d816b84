//! Spatial tasks (paper Definition 1).

use crate::{CategoryId, Duration, Location, TaskId, TimeInstant};
use serde::{Deserialize, Serialize};

/// A spatial task `s = (l, p, φ, C)`: a location, a publication time, a
/// valid duration after which the task expires, and one or more category
/// labels that feed the LDA affinity model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Task identifier.
    pub id: TaskId,
    /// Location `s.l` where the task must be performed.
    pub location: Location,
    /// Publication time `s.p`.
    pub published: TimeInstant,
    /// Valid time `s.φ`; the task expires at `s.p + s.φ`.
    pub valid_for: Duration,
    /// Category labels `s.C` (the LDA document of the task).
    pub categories: Vec<CategoryId>,
}

impl Task {
    /// Creates a task with a single category.
    pub fn new(
        id: TaskId,
        location: Location,
        published: TimeInstant,
        valid_for: Duration,
        category: CategoryId,
    ) -> Self {
        Task {
            id,
            location,
            published,
            valid_for,
            categories: vec![category],
        }
    }

    /// Creates a task with multiple categories.
    pub fn with_categories(
        id: TaskId,
        location: Location,
        published: TimeInstant,
        valid_for: Duration,
        categories: Vec<CategoryId>,
    ) -> Self {
        Task {
            id,
            location,
            published,
            valid_for,
            categories,
        }
    }

    /// Expiration deadline `s.p + s.φ`.
    #[inline]
    pub fn deadline(&self) -> TimeInstant {
        self.published + self.valid_for
    }

    /// Whether the task has expired at time `t` (strictly after deadline).
    #[inline]
    pub fn is_expired_at(&self, t: TimeInstant) -> bool {
        t > self.deadline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Task {
        Task::new(
            TaskId::new(0),
            Location::new(1.0, 2.0),
            TimeInstant::at(0, 9),
            Duration::hours(5),
            CategoryId::new(3),
        )
    }

    #[test]
    fn deadline_is_publish_plus_valid() {
        assert_eq!(sample().deadline(), TimeInstant::at(0, 14));
    }

    #[test]
    fn expiry_is_strict() {
        let task = sample();
        assert!(!task.is_expired_at(task.deadline()));
        assert!(task.is_expired_at(task.deadline() + Duration::seconds(1)));
        assert!(!task.is_expired_at(task.published));
    }

    #[test]
    fn multi_category_constructor() {
        let t = Task::with_categories(
            TaskId::new(1),
            Location::ORIGIN,
            TimeInstant::EPOCH,
            Duration::hours(1),
            vec![CategoryId::new(0), CategoryId::new(1)],
        );
        assert_eq!(t.categories.len(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: Task = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
