//! Worker willingness `P_wil(w, s)` (paper Eq. 2).
//!
//! Combines the stationary visit distribution with the Pareto tail:
//!
//! `P_wil(w, s) = Σᵢ P_w(w, sᵢ) · (d(sᵢ, s) + 1)^{−π}`
//!
//! where the sum ranges over the worker's historical venues. A worker
//! with no history has zero willingness everywhere: the model has no
//! evidence the worker goes anywhere.

use crate::movement::MovementModel;
use crate::rwr::StationaryVisits;
use sc_types::{History, HistoryStore, Location, WorkerId};

/// Fitted willingness evaluator for one worker.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkerWillingness {
    visits: Option<StationaryVisits>,
    movement: MovementModel,
}

impl WorkerWillingness {
    /// Fits from a single worker's history.
    pub fn fit(history: &History) -> Self {
        WorkerWillingness {
            visits: StationaryVisits::fit(history),
            movement: MovementModel::fit(history),
        }
    }

    /// The fitted movement model.
    #[inline]
    pub fn movement(&self) -> &MovementModel {
        &self.movement
    }

    /// Evaluates `P_wil(w, s)` for a task at `target`.
    pub fn willingness(&self, target: &Location) -> f64 {
        let Some(visits) = &self.visits else {
            return 0.0;
        };
        visits
            .locations()
            .iter()
            .zip(visits.probabilities().iter())
            .map(|(loc, &p)| p * self.movement.reach_probability(loc.distance_km(target)))
            .sum()
    }
}

/// Willingness models for an entire population, indexed by [`WorkerId`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WillingnessModel {
    workers: Vec<WorkerWillingness>,
}

impl WillingnessModel {
    /// Fits every worker in the store.
    pub fn fit(store: &HistoryStore) -> Self {
        WillingnessModel {
            workers: store
                .iter()
                .map(|(_, history)| WorkerWillingness::fit(history))
                .collect(),
        }
    }

    /// Number of workers covered.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// The per-worker evaluator (`None` when the id is out of range).
    pub fn worker(&self, id: WorkerId) -> Option<&WorkerWillingness> {
        self.workers.get(id.index())
    }

    /// Appends one fitted worker to the population (id = old
    /// [`WillingnessModel::n_workers`]) and returns its id — the
    /// population-growth hook of the online engine's worker fold-in. A
    /// worker folded in with an empty history has zero willingness
    /// everywhere, exactly like an empty-history worker at fit time.
    pub fn fold_in(&mut self, history: &History) -> WorkerId {
        let id = WorkerId::from(self.workers.len());
        self.workers.push(WorkerWillingness::fit(history));
        id
    }

    /// `P_wil(w, s)`; zero for unknown workers.
    pub fn willingness(&self, worker: WorkerId, target: &Location) -> f64 {
        self.workers
            .get(worker.index())
            .map_or(0.0, |w| w.willingness(target))
    }

    /// Evaluates willingness of every worker towards one target, into a
    /// reusable buffer (hot path of influence computation).
    pub fn willingness_all(&self, target: &Location, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.workers.iter().map(|w| w.willingness(target)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_types::{CheckIn, TimeInstant, VenueId};

    fn store_with_worker_at(venues: &[(u32, f64, f64)]) -> HistoryStore {
        let mut store = HistoryStore::with_workers(1);
        for (i, &(v, x, y)) in venues.iter().enumerate() {
            store.push(CheckIn::at(
                WorkerId::new(0),
                VenueId::new(v),
                Location::new(x, y),
                TimeInstant::from_seconds(i as i64),
                vec![],
            ));
        }
        store
    }

    #[test]
    fn no_history_means_zero_willingness() {
        let model = WillingnessModel::fit(&HistoryStore::with_workers(2));
        assert_eq!(model.willingness(WorkerId::new(0), &Location::ORIGIN), 0.0);
    }

    #[test]
    fn unknown_worker_is_zero() {
        let model = WillingnessModel::fit(&HistoryStore::with_workers(1));
        assert_eq!(model.willingness(WorkerId::new(42), &Location::ORIGIN), 0.0);
        assert!(model.worker(WorkerId::new(42)).is_none());
    }

    #[test]
    fn willingness_decays_with_distance() {
        let store = store_with_worker_at(&[(0, 0.0, 0.0), (1, 1.0, 0.0), (0, 0.0, 0.0)]);
        let model = WillingnessModel::fit(&store);
        let near = model.willingness(WorkerId::new(0), &Location::new(0.5, 0.0));
        let far = model.willingness(WorkerId::new(0), &Location::new(30.0, 0.0));
        assert!(near > far, "near {near} vs far {far}");
        assert!(far > 0.0, "tail never reaches exactly zero");
    }

    #[test]
    fn willingness_at_home_venue_is_highest() {
        let store =
            store_with_worker_at(&[(0, 0.0, 0.0), (0, 0.0, 0.0), (1, 8.0, 0.0), (0, 0.0, 0.0)]);
        let model = WillingnessModel::fit(&store);
        let at_home = model.willingness(WorkerId::new(0), &Location::new(0.0, 0.0));
        let at_other = model.willingness(WorkerId::new(0), &Location::new(8.0, 0.0));
        assert!(at_home > at_other);
    }

    #[test]
    fn willingness_is_bounded_by_one() {
        // Σ P_w = 1 and each tail factor ≤ 1, so P_wil ≤ 1.
        let store = store_with_worker_at(&[(0, 0.0, 0.0), (1, 2.0, 1.0), (2, 4.0, 2.0)]);
        let model = WillingnessModel::fit(&store);
        for x in [0.0, 1.0, 5.0, 50.0] {
            let p = model.willingness(WorkerId::new(0), &Location::new(x, 0.0));
            assert!((0.0..=1.0 + 1e-9).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn willingness_all_fills_buffer() {
        let mut store = store_with_worker_at(&[(0, 0.0, 0.0), (1, 1.0, 0.0)]);
        // Second worker with no history.
        store.push(CheckIn::at(
            WorkerId::new(1),
            VenueId::new(9),
            Location::new(5.0, 5.0),
            TimeInstant::from_seconds(0),
            vec![],
        ));
        let model = WillingnessModel::fit(&store);
        let mut buf = Vec::new();
        model.willingness_all(&Location::ORIGIN, &mut buf);
        assert_eq!(buf.len(), 2);
        assert!(buf[0] > 0.0);
        assert!(buf[1] > 0.0);
        assert_eq!(
            buf[0],
            model.willingness(WorkerId::new(0), &Location::ORIGIN)
        );
    }

    #[test]
    fn fold_in_appends_a_fitted_worker() {
        let store = store_with_worker_at(&[(0, 0.0, 0.0), (1, 1.0, 0.0)]);
        let mut model = WillingnessModel::fit(&store);
        assert_eq!(model.n_workers(), 1);

        // Fold in a worker whose evidence is one check-in at x = 5.
        let mut hist = History::new();
        hist.push(CheckIn::at(
            WorkerId::new(1),
            VenueId::new(9),
            Location::new(5.0, 0.0),
            TimeInstant::from_seconds(0),
            vec![],
        ));
        let id = model.fold_in(&hist);
        assert_eq!(id, WorkerId::new(1));
        assert_eq!(model.n_workers(), 2);
        let near = model.willingness(id, &Location::new(5.0, 0.0));
        let far = model.willingness(id, &Location::new(40.0, 0.0));
        assert!(near > far && far > 0.0);
        // A history-less fold-in is inert, like at fit time.
        let empty_id = model.fold_in(&History::new());
        assert_eq!(model.willingness(empty_id, &Location::ORIGIN), 0.0);
        // willingness_all covers the grown population.
        let mut buf = Vec::new();
        model.willingness_all(&Location::new(5.0, 0.0), &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf[1], near);
    }

    #[test]
    fn matches_closed_form_single_venue() {
        // One venue at distance d: P_wil = 1 * (d+1)^{-π} with default π.
        let store = store_with_worker_at(&[(0, 0.0, 0.0)]);
        let model = WillingnessModel::fit(&store);
        let d: f64 = 3.0;
        let pi = sc_stats::pareto::DEFAULT_SHAPE;
        let expect = (d + 1.0).powf(-pi);
        let got = model.willingness(WorkerId::new(0), &Location::new(d, 0.0));
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }
}
