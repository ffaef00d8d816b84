//! Workers (paper Definition 2).

use crate::{Location, WorkerId};
use serde::{Deserialize, Serialize};

/// Default worker travel speed in km/h (paper Section V-A).
pub const DEFAULT_SPEED_KMH: f64 = 5.0;

/// A worker `w = (l, r)`: a current location and a reachable radius within
/// which the worker accepts assignments. The speed field generalizes the
/// paper's "all workers share the same travel speed" assumption; the
/// default is the paper's 5 km/h.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Worker {
    /// Worker identifier.
    pub id: WorkerId,
    /// Current location `w.l` (the most recent check-in in the datasets).
    pub location: Location,
    /// Reachable radius `w.r` in km.
    pub radius_km: f64,
    /// Travel speed in km/h.
    pub speed_kmh: f64,
}

impl Worker {
    /// Creates a worker travelling at the paper's default speed.
    pub fn new(id: WorkerId, location: Location, radius_km: f64) -> Self {
        Worker {
            id,
            location,
            radius_km,
            speed_kmh: DEFAULT_SPEED_KMH,
        }
    }

    /// Overrides the travel speed.
    #[must_use]
    pub fn with_speed(mut self, speed_kmh: f64) -> Self {
        self.speed_kmh = speed_kmh;
        self
    }

    /// Travel time to `target` in seconds (`t(w.l, s.l)`).
    #[inline]
    pub fn travel_seconds(&self, target: &Location) -> f64 {
        self.location.distance_km(target) / self.speed_kmh * 3_600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Worker {
        Worker::new(WorkerId::new(0), Location::new(0.0, 0.0), 10.0)
    }

    #[test]
    fn travel_time_uses_speed() {
        let w = sample(); // 5 km/h
        let t = w.travel_seconds(&Location::new(5.0, 0.0));
        assert!((t - 3_600.0).abs() < 1e-9, "5 km at 5 km/h is one hour");

        let fast = sample().with_speed(10.0);
        assert!((fast.travel_seconds(&Location::new(5.0, 0.0)) - 1_800.0).abs() < 1e-9);
    }

    #[test]
    fn default_speed_matches_paper() {
        assert_eq!(sample().speed_kmh, 5.0);
    }
}
