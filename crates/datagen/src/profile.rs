//! Dataset profiles.

use serde::{Deserialize, Serialize};

/// Shape parameters of a synthetic LBSN dataset.
///
/// The two named profiles reproduce the *relative* characteristics of the
/// paper's datasets at laptop scale (the paper's raw sizes — 58k/11k
/// users, 4.5M/1.4M check-ins — are scaled down ~10× while preserving
/// average degree, check-ins per user, and geographic character).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetProfile {
    /// Profile name used in reports ("BK" / "FS").
    pub name: String,
    /// Number of workers (users).
    pub n_workers: usize,
    /// Number of venues.
    pub n_venues: usize,
    /// Preferential-attachment edges per new node (≈ half the average
    /// degree of the undirected friendship graph).
    pub edges_per_node: usize,
    /// Mean check-ins per worker (Poisson-ish around this).
    pub checkins_per_worker: usize,
    /// Number of leaf categories.
    pub n_categories: usize,
    /// Number of category groups (themes shared by venue clusters).
    pub n_category_groups: usize,
    /// World edge length in km (venues are placed inside this square).
    pub world_km: f64,
    /// Number of Gaussian venue clusters.
    pub n_clusters: usize,
    /// Cluster standard deviation in km.
    pub cluster_sigma_km: f64,
    /// Pareto shape of check-in hop lengths (smaller = heavier tail).
    pub hop_shape: f64,
    /// Probability a hop leaves the worker's home cluster.
    pub roam_probability: f64,
    /// Zipf exponent of venue popularity inside a cluster.
    pub venue_zipf: f64,
    /// Days the check-in history spans.
    pub n_days: usize,
}

impl DatasetProfile {
    /// Brightkite-like: country-scale sparse world.
    ///
    /// Paper: 58,228 users, 214,078 social connections (avg degree 7.4),
    /// 4,491,143 check-ins (77/user), 2.5 years. Scaled: 4,000 workers,
    /// preferential attachment m=4 (avg degree ≈ 8), 28 check-ins per
    /// worker over 30 days, 300 km world with 24 sprawling clusters.
    pub fn brightkite() -> Self {
        DatasetProfile {
            name: "BK".into(),
            n_workers: 4_000,
            n_venues: 3_200,
            edges_per_node: 4,
            checkins_per_worker: 28,
            n_categories: 240,
            n_category_groups: 20,
            world_km: 300.0,
            n_clusters: 24,
            cluster_sigma_km: 12.0,
            hop_shape: 1.3,
            roam_probability: 0.15,
            venue_zipf: 1.0,
            n_days: 30,
        }
    }

    /// FourSquare-like: city-scale dense world.
    ///
    /// Paper: 11,326 users, 47,164 connections (avg degree 8.3),
    /// 1,385,223 check-ins (122/user), 1 year. Scaled: 2,600 workers,
    /// m=4, 40 check-ins per worker, 80 km world with 14 tight clusters.
    pub fn foursquare() -> Self {
        DatasetProfile {
            name: "FS".into(),
            n_workers: 2_600,
            n_venues: 2_800,
            edges_per_node: 4,
            checkins_per_worker: 40,
            n_categories: 200,
            n_category_groups: 16,
            world_km: 80.0,
            n_clusters: 14,
            cluster_sigma_km: 4.0,
            hop_shape: 1.5,
            roam_probability: 0.22,
            venue_zipf: 1.1,
            n_days: 30,
        }
    }

    /// A tiny Brightkite-flavoured world for tests and examples.
    pub fn brightkite_small() -> Self {
        DatasetProfile {
            name: "BK-small".into(),
            n_workers: 400,
            n_venues: 350,
            checkins_per_worker: 20,
            n_categories: 60,
            n_category_groups: 10,
            n_clusters: 8,
            ..Self::brightkite()
        }
    }

    /// A tiny FourSquare-flavoured world for tests and examples.
    pub fn foursquare_small() -> Self {
        DatasetProfile {
            name: "FS-small".into(),
            n_workers: 300,
            n_venues: 320,
            checkins_per_worker: 24,
            n_categories: 50,
            n_category_groups: 8,
            n_clusters: 6,
            ..Self::foursquare()
        }
    }

    /// Sanity-checks the profile; panics on inconsistent parameters.
    pub fn validate(&self) {
        assert!(self.n_workers >= 2, "need at least two workers");
        assert!(self.n_venues >= 1, "need venues");
        assert!(self.edges_per_node >= 1, "need social edges");
        assert!(self.n_categories >= self.n_category_groups);
        assert!(self.n_category_groups >= 1);
        assert!(self.world_km > 0.0 && self.cluster_sigma_km > 0.0);
        assert!(self.hop_shape > 0.0);
        assert!((0.0..=1.0).contains(&self.roam_probability));
        assert!(self.n_days >= 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_profiles_validate() {
        DatasetProfile::brightkite().validate();
        DatasetProfile::foursquare().validate();
        DatasetProfile::brightkite_small().validate();
        DatasetProfile::foursquare_small().validate();
    }

    #[test]
    fn bk_is_bigger_and_sparser_than_fs() {
        let bk = DatasetProfile::brightkite();
        let fs = DatasetProfile::foursquare();
        assert!(bk.n_workers > fs.n_workers);
        assert!(bk.world_km > fs.world_km);
        assert!(bk.checkins_per_worker < fs.checkins_per_worker);
    }

    #[test]
    #[should_panic(expected = "at least two workers")]
    fn degenerate_profile_panics() {
        let mut p = DatasetProfile::brightkite_small();
        p.n_workers = 1;
        p.validate();
    }

    #[test]
    fn serde_roundtrip() {
        let p = DatasetProfile::foursquare_small();
        let json = serde_json::to_string(&p).unwrap();
        let back: DatasetProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
