//! # sc-datagen — synthetic LBSN datasets
//!
//! The paper evaluates on Brightkite and FourSquare check-in datasets
//! (social graph + check-ins + venue categories). Those datasets are not
//! redistributable, so this crate generates synthetic equivalents that
//! preserve the statistical properties the DITA pipeline consumes:
//!
//! * **heavy-tailed social degrees** (preferential attachment) — drives
//!   RRR-set sizes and the skew of worker propagation;
//! * **spatially clustered venues** (Gaussian clusters over a planar
//!   world) — drives eligibility density, travel costs, and location
//!   entropy;
//! * **self-similar check-in displacements** (Pareto hop lengths) — the
//!   property the Historical-Acceptance willingness model fits;
//! * **themed, Zipf-skewed categories** (clusters prefer a few category
//!   groups) — gives LDA a recoverable topic structure.
//!
//! Profiles: [`DatasetProfile::brightkite`] (country-scale, sparse) and
//! [`DatasetProfile::foursquare`] (city-scale, dense), each with a
//! laptop-sized `_small` variant used by tests and examples. The
//! mapping from paper-scale to generated scale is documented on each
//! constructor.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod checkins;
pub mod dataset;
pub mod io;
pub mod loader;
pub mod profile;
pub mod replay;
pub mod scale;
pub mod social;
pub mod venues;

pub use dataset::{DayInstance, InstanceOptions, SyntheticDataset};
pub use loader::{LoadedDataset, LoadedVenue, TrainingSlice};
pub use profile::DatasetProfile;
pub use replay::{ReplayEvent, ReplayOptions, ReplayRoundEvents, ReplayStream};
pub use scale::{ScaleDocs, ScaleProfile};
pub use social::{generate_social_edges, generate_social_edges_with};
pub use venues::{Venue, VenueMap};
