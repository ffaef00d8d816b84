//! Check-in histories (the paper's historical task-performing records).
//!
//! A worker's history `S_w = {(s_1, tᵃ, tˡ), …}` drives three models:
//! the LDA affinity document (categories of performed tasks), the
//! Historical-Acceptance willingness model (locations and visit order),
//! and location entropy (who visits which venue).

use crate::{CategoryId, Location, TimeInstant, VenueId, WorkerId};
use serde::{Deserialize, Serialize};

/// One historical record: worker `worker` performed a task at `venue`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckIn {
    /// The worker who performed the task.
    pub worker: WorkerId,
    /// Venue (task location) identifier.
    pub venue: VenueId,
    /// Venue location.
    pub location: Location,
    /// Task arrival time `tᵃ`.
    pub arrived: TimeInstant,
    /// Task completion time `tˡ`.
    pub completed: TimeInstant,
    /// Categories of the performed task.
    pub categories: Vec<CategoryId>,
}

impl CheckIn {
    /// Convenience constructor for instantaneous check-ins.
    pub fn at(
        worker: WorkerId,
        venue: VenueId,
        location: Location,
        time: TimeInstant,
        categories: Vec<CategoryId>,
    ) -> Self {
        CheckIn {
            worker,
            venue,
            location,
            arrived: time,
            completed: time,
            categories,
        }
    }
}

/// A single worker's history, ordered by arrival time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct History {
    records: Vec<CheckIn>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record, keeping the history sorted by arrival time.
    pub fn push(&mut self, record: CheckIn) {
        match self.records.last() {
            Some(last) if last.arrived > record.arrived => {
                let pos = self
                    .records
                    .partition_point(|r| r.arrived <= record.arrived);
                self.records.insert(pos, record);
            }
            _ => self.records.push(record),
        }
    }

    /// Records in check-in order.
    #[inline]
    pub fn records(&self) -> &[CheckIn] {
        &self.records
    }

    /// Number of performed tasks `|S_w|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the worker has no history.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All categories the worker has performed, in order — the LDA document.
    pub fn category_document(&self) -> Vec<CategoryId> {
        self.records
            .iter()
            .flat_map(|r| r.categories.iter().copied())
            .collect()
    }

    /// Location of the most recent check-in, if any. The datasets use this
    /// as the worker's current location.
    pub fn last_location(&self) -> Option<Location> {
        self.records.last().map(|r| r.location)
    }

    /// Consecutive displacement distances `d(s_i, s_{i+1})` in km, in
    /// check-in order — the Pareto samples of Section III-B2.
    pub fn displacements_km(&self) -> Vec<f64> {
        self.records
            .windows(2)
            .map(|w| w[0].location.distance_km(&w[1].location))
            .collect()
    }
}

/// Histories of an entire worker population, indexed by dense [`WorkerId`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistoryStore {
    histories: Vec<History>,
}

impl HistoryStore {
    /// Creates a store for `n_workers` workers with empty histories.
    pub fn with_workers(n_workers: usize) -> Self {
        HistoryStore {
            histories: vec![History::new(); n_workers],
        }
    }

    /// Number of workers covered by the store.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.histories.len()
    }

    /// Appends a check-in, growing the store if the worker is new.
    pub fn push(&mut self, record: CheckIn) {
        let idx = record.worker.index();
        if idx >= self.histories.len() {
            self.histories.resize(idx + 1, History::new());
        }
        self.histories[idx].push(record);
    }

    /// The history of one worker (empty if out of range).
    pub fn history(&self, worker: WorkerId) -> &History {
        static EMPTY: History = History {
            records: Vec::new(),
        };
        self.histories.get(worker.index()).unwrap_or(&EMPTY)
    }

    /// Iterates over `(WorkerId, &History)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (WorkerId, &History)> {
        self.histories
            .iter()
            .enumerate()
            .map(|(i, h)| (WorkerId::from(i), h))
    }

    /// Total number of check-ins in the store.
    pub fn total_checkins(&self) -> usize {
        self.histories.iter().map(History::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(worker: u32, venue: u32, x: f64, t: i64, cat: u32) -> CheckIn {
        CheckIn::at(
            WorkerId::new(worker),
            VenueId::new(venue),
            Location::new(x, 0.0),
            TimeInstant::from_seconds(t),
            vec![CategoryId::new(cat)],
        )
    }

    #[test]
    fn history_keeps_checkin_order() {
        let mut h = History::new();
        h.push(rec(0, 0, 0.0, 100, 0));
        h.push(rec(0, 1, 1.0, 50, 1)); // out of order on purpose
        h.push(rec(0, 2, 2.0, 150, 2));
        let times: Vec<i64> = h.records().iter().map(|r| r.arrived.as_seconds()).collect();
        assert_eq!(times, vec![50, 100, 150]);
    }

    #[test]
    fn category_document_flattens_in_order() {
        let mut h = History::new();
        h.push(rec(0, 0, 0.0, 1, 7));
        h.push(CheckIn::at(
            WorkerId::new(0),
            VenueId::new(1),
            Location::ORIGIN,
            TimeInstant::from_seconds(2),
            vec![CategoryId::new(8), CategoryId::new(9)],
        ));
        let doc = h.category_document();
        assert_eq!(
            doc,
            vec![CategoryId::new(7), CategoryId::new(8), CategoryId::new(9)]
        );
    }

    #[test]
    fn displacements_are_pairwise() {
        let mut h = History::new();
        h.push(rec(0, 0, 0.0, 1, 0));
        h.push(rec(0, 1, 3.0, 2, 0));
        h.push(rec(0, 2, 7.0, 3, 0));
        assert_eq!(h.displacements_km(), vec![3.0, 4.0]);
        assert!(History::new().displacements_km().is_empty());
    }

    #[test]
    fn last_location_tracks_latest() {
        let mut h = History::new();
        assert!(h.last_location().is_none());
        h.push(rec(0, 0, 1.0, 1, 0));
        h.push(rec(0, 1, 9.0, 5, 0));
        assert_eq!(h.last_location(), Some(Location::new(9.0, 0.0)));
    }

    #[test]
    fn store_grows_on_demand() {
        let mut store = HistoryStore::with_workers(1);
        store.push(rec(4, 0, 0.0, 1, 0));
        assert_eq!(store.n_workers(), 5);
        assert_eq!(store.history(WorkerId::new(4)).len(), 1);
        assert!(store.history(WorkerId::new(99)).is_empty());
        assert_eq!(store.total_checkins(), 1);
    }

    #[test]
    fn store_iter_yields_dense_ids() {
        let mut store = HistoryStore::with_workers(3);
        store.push(rec(1, 0, 0.0, 1, 0));
        let ids: Vec<u32> = store.iter().map(|(w, _)| w.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
