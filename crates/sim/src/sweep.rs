//! Parameter sweeps (the x-axes of the paper's figures, Table II).

use sc_datagen::{DatasetProfile, InstanceOptions};
use serde::{Deserialize, Serialize};

/// Which Table II parameter an experiment varies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Number of tasks `|S|` (Figures 5, 9, 10).
    Tasks(Vec<usize>),
    /// Number of workers `|W|` (Figures 6, 11, 12).
    Workers(Vec<usize>),
    /// Valid time `φ` in hours (Figures 7, 13, 14).
    ValidHours(Vec<f64>),
    /// Reachable radius `r` in km (Figures 8, 15, 16).
    RadiusKm(Vec<f64>),
}

impl SweepAxis {
    /// Human-readable axis name.
    pub fn name(&self) -> &'static str {
        match self {
            SweepAxis::Tasks(_) => "|S|",
            SweepAxis::Workers(_) => "|W|",
            SweepAxis::ValidHours(_) => "phi (h)",
            SweepAxis::RadiusKm(_) => "r (km)",
        }
    }

    /// The numeric sweep values.
    pub fn values(&self) -> Vec<f64> {
        match self {
            SweepAxis::Tasks(v) => v.iter().map(|&x| x as f64).collect(),
            SweepAxis::Workers(v) => v.iter().map(|&x| x as f64).collect(),
            SweepAxis::ValidHours(v) | SweepAxis::RadiusKm(v) => v.clone(),
        }
    }

    /// Resolves the sweep point `value` into concrete instance
    /// parameters, starting from the defaults.
    pub fn apply(&self, value: f64, defaults: &SweepValues) -> SweepValues {
        let mut out = defaults.clone();
        match self {
            SweepAxis::Tasks(_) => out.n_tasks = value as usize,
            SweepAxis::Workers(_) => out.n_workers = value as usize,
            SweepAxis::ValidHours(_) => out.options.valid_hours = value,
            SweepAxis::RadiusKm(_) => out.options.radius_km = value,
        }
        out
    }
}

/// Concrete per-instance parameters of a sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepValues {
    /// Tasks per instance.
    pub n_tasks: usize,
    /// Workers per instance.
    pub n_workers: usize,
    /// Valid time / radius / instance hour.
    pub options: InstanceOptions,
}

impl SweepValues {
    /// Paper defaults: |S| = 1500, |W| = 1200, φ = 5 h, r = 25 km.
    pub fn paper_defaults() -> Self {
        SweepValues {
            n_tasks: 1_500,
            n_workers: 1_200,
            options: InstanceOptions::default(),
        }
    }

    /// Laptop-scale defaults (10× smaller populations, same φ and r).
    pub fn small_defaults() -> Self {
        SweepValues {
            n_tasks: 150,
            n_workers: 120,
            options: InstanceOptions::default(),
        }
    }
}

/// Experiment scale: paper-sized sweeps or quick laptop sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// The paper's sweep ranges on the full synthetic profiles.
    Paper,
    /// 10×-reduced ranges on the `_small` profiles (CI-friendly).
    Small,
}

/// Parses `paper` or `small`, in any letter case.
impl std::str::FromStr for ExperimentScale {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        if name.eq_ignore_ascii_case("paper") {
            Ok(ExperimentScale::Paper)
        } else if name.eq_ignore_ascii_case("small") {
            Ok(ExperimentScale::Small)
        } else {
            Err("the scale is `paper` or `small`".to_string())
        }
    }
}

impl ExperimentScale {
    /// The dataset profile of the given family at this scale.
    pub fn profile(&self, family: &str) -> DatasetProfile {
        match (self, family) {
            (ExperimentScale::Paper, "BK") => DatasetProfile::brightkite(),
            (ExperimentScale::Paper, "FS") => DatasetProfile::foursquare(),
            (ExperimentScale::Small, "BK") => DatasetProfile::brightkite_small(),
            (ExperimentScale::Small, "FS") => DatasetProfile::foursquare_small(),
            _ => panic!("unknown dataset family {family}; use \"BK\" or \"FS\""),
        }
    }

    /// Default instance parameters at this scale.
    pub fn defaults(&self) -> SweepValues {
        match self {
            ExperimentScale::Paper => SweepValues::paper_defaults(),
            ExperimentScale::Small => SweepValues::small_defaults(),
        }
    }

    /// The |S| sweep (paper: 500..2500).
    pub fn tasks_axis(&self) -> SweepAxis {
        match self {
            ExperimentScale::Paper => SweepAxis::Tasks(vec![500, 1000, 1500, 2000, 2500]),
            ExperimentScale::Small => SweepAxis::Tasks(vec![50, 100, 150, 200, 250]),
        }
    }

    /// The |W| sweep (paper: 400..2000).
    pub fn workers_axis(&self) -> SweepAxis {
        match self {
            ExperimentScale::Paper => SweepAxis::Workers(vec![400, 800, 1200, 1600, 2000]),
            ExperimentScale::Small => SweepAxis::Workers(vec![40, 80, 120, 160, 200]),
        }
    }

    /// The φ sweep (paper: 1..6 h) — identical at both scales.
    pub fn valid_time_axis(&self) -> SweepAxis {
        SweepAxis::ValidHours(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    /// The r sweep (paper: 5..25 km) — identical at both scales.
    pub fn radius_axis(&self) -> SweepAxis {
        SweepAxis::RadiusKm(vec![5.0, 10.0, 15.0, 20.0, 25.0])
    }

    /// Days averaged per sweep point (paper: 4).
    pub fn n_days(&self) -> usize {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_parse_in_any_case() {
        for name in ["paper", "Paper", "PAPER"] {
            assert_eq!(name.parse(), Ok(ExperimentScale::Paper), "{name}");
        }
        for name in ["small", "Small", "SMALL"] {
            assert_eq!(name.parse(), Ok(ExperimentScale::Small), "{name}");
        }
        for name in ["", "medium", "paper ", "1"] {
            assert!(name.parse::<ExperimentScale>().is_err(), "{name:?}");
        }
    }

    #[test]
    fn paper_defaults_match_table_ii() {
        let d = SweepValues::paper_defaults();
        assert_eq!(d.n_tasks, 1500);
        assert_eq!(d.n_workers, 1200);
        assert_eq!(d.options.valid_hours, 5.0);
        assert_eq!(d.options.radius_km, 25.0);
    }

    #[test]
    fn axis_apply_changes_only_its_parameter() {
        let d = SweepValues::paper_defaults();
        let tasks = SweepAxis::Tasks(vec![]).apply(500.0, &d);
        assert_eq!(tasks.n_tasks, 500);
        assert_eq!(tasks.n_workers, 1200);

        let phi = SweepAxis::ValidHours(vec![]).apply(2.0, &d);
        assert_eq!(phi.options.valid_hours, 2.0);
        assert_eq!(phi.options.radius_km, 25.0);

        let r = SweepAxis::RadiusKm(vec![]).apply(10.0, &d);
        assert_eq!(r.options.radius_km, 10.0);

        let w = SweepAxis::Workers(vec![]).apply(400.0, &d);
        assert_eq!(w.n_workers, 400);
    }

    #[test]
    fn axis_metadata() {
        assert_eq!(SweepAxis::Tasks(vec![1, 2]).values(), vec![1.0, 2.0]);
        assert_eq!(SweepAxis::Tasks(vec![]).name(), "|S|");
        assert_eq!(SweepAxis::RadiusKm(vec![5.0]).name(), "r (km)");
    }

    #[test]
    fn scales_resolve_profiles() {
        assert_eq!(ExperimentScale::Paper.profile("BK").name, "BK");
        assert_eq!(ExperimentScale::Small.profile("FS").name, "FS-small");
        assert_eq!(ExperimentScale::Paper.n_days(), 4);
    }

    #[test]
    fn paper_axes_match_figures() {
        let s = ExperimentScale::Paper;
        assert_eq!(
            s.tasks_axis().values(),
            vec![500.0, 1000.0, 1500.0, 2000.0, 2500.0]
        );
        assert_eq!(
            s.workers_axis().values(),
            vec![400.0, 800.0, 1200.0, 1600.0, 2000.0]
        );
        assert_eq!(s.valid_time_axis().values().len(), 6);
        assert_eq!(s.radius_axis().values(), vec![5.0, 10.0, 15.0, 20.0, 25.0]);
    }

    #[test]
    #[should_panic(expected = "unknown dataset family")]
    fn unknown_family_panics() {
        let _ = ExperimentScale::Paper.profile("XX");
    }
}
