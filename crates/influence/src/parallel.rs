//! The thread-count knob for sharded RRR sampling.
//!
//! Sampling is bit-identical at any thread count (every set's RNG is
//! derived from `(master_seed, set_index)`), so this knob trades wall
//! time only — never results. It threads from the `dita` CLI through
//! `DitaConfig`/`RpoParams` down to [`crate::pool::RrrPool`].

/// How many threads the RRR sampling engine may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Parallelism {
    /// One shard per available core (`std::thread::available_parallelism`).
    #[default]
    Auto,
    /// Sequential sampling on the calling thread.
    Single,
    /// An explicit shard count (clamped to at least 1).
    Fixed(usize),
}

impl Parallelism {
    /// Resolves to a concrete thread count (always ≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Single => 1,
            Parallelism::Fixed(n) => n.max(1),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Auto => write!(f, "auto({})", self.resolve()),
            Parallelism::Single => write!(f, "1"),
            Parallelism::Fixed(n) => write!(f, "{}", n.max(&1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_is_at_least_one() {
        assert_eq!(Parallelism::Single.resolve(), 1);
        assert_eq!(Parallelism::Fixed(0).resolve(), 1);
        assert_eq!(Parallelism::Fixed(6).resolve(), 6);
        assert!(Parallelism::Auto.resolve() >= 1);
    }

    #[test]
    fn display_is_numeric() {
        assert_eq!(Parallelism::Single.to_string(), "1");
        assert_eq!(Parallelism::Fixed(4).to_string(), "4");
        assert!(Parallelism::Auto.to_string().starts_with("auto("));
    }
}
