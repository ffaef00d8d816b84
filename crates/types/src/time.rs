//! Discrete time model.
//!
//! The paper batches workers and tasks at *time instances* with a
//! granularity of one day, while deadlines are expressed in hours
//! (`φ = 5 h` by default). We model time as whole seconds since an
//! arbitrary epoch, which is fine-grained enough for travel-time checks
//! (`t + t(w.l, s.l) ≤ s.p + s.φ`) and coarse enough to stay in `i64`
//! without overflow for any realistic horizon.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Seconds in one minute.
pub const SECS_PER_MIN: i64 = 60;
/// Seconds in one hour.
pub const SECS_PER_HOUR: i64 = 3_600;
/// Seconds in one day.
pub const SECS_PER_DAY: i64 = 86_400;

/// A span of time, in whole seconds. Always non-negative by construction
/// through the named constructors; arithmetic saturates at zero.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Duration(i64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from whole seconds, clamping negatives to zero.
    #[inline]
    pub const fn seconds(s: i64) -> Self {
        Duration(if s < 0 { 0 } else { s })
    }

    /// Builds a duration from whole minutes.
    #[inline]
    pub const fn minutes(m: i64) -> Self {
        Duration::seconds(m * SECS_PER_MIN)
    }

    /// Builds a duration from whole hours (the paper's unit for `φ`).
    #[inline]
    pub const fn hours(h: i64) -> Self {
        Duration::seconds(h * SECS_PER_HOUR)
    }

    /// Builds a duration from whole days (the batching granularity).
    #[inline]
    pub const fn days(d: i64) -> Self {
        Duration::seconds(d * SECS_PER_DAY)
    }

    /// Builds a duration from fractional hours.
    #[inline]
    pub fn hours_f64(h: f64) -> Self {
        Duration::seconds((h * SECS_PER_HOUR as f64).round() as i64)
    }

    /// Total seconds.
    #[inline]
    pub const fn as_seconds(self) -> i64 {
        self.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration::seconds(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % SECS_PER_HOUR == 0 {
            write!(f, "{}h", self.0 / SECS_PER_HOUR)
        } else if self.0 % SECS_PER_MIN == 0 {
            write!(f, "{}min", self.0 / SECS_PER_MIN)
        } else {
            write!(f, "{}s", self.0)
        }
    }
}

/// A point in time: whole seconds since the dataset epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct TimeInstant(i64);

impl TimeInstant {
    /// The dataset epoch (t = 0).
    pub const EPOCH: TimeInstant = TimeInstant(0);

    /// Builds an instant from seconds since the epoch.
    #[inline]
    pub const fn from_seconds(s: i64) -> Self {
        TimeInstant(s)
    }

    /// Builds an instant `d` days plus `h` hours after the epoch.
    #[inline]
    pub const fn at(days: i64, hours: i64) -> Self {
        TimeInstant(days * SECS_PER_DAY + hours * SECS_PER_HOUR)
    }

    /// [`TimeInstant::at`], or `None` when the instant is past the
    /// range of representable time.
    #[inline]
    pub fn checked_at(days: i64, hours: i64) -> Option<Self> {
        days.checked_mul(SECS_PER_DAY)?
            .checked_add(hours.checked_mul(SECS_PER_HOUR)?)
            .map(TimeInstant)
    }

    /// Seconds since the epoch.
    #[inline]
    pub const fn as_seconds(self) -> i64 {
        self.0
    }

    /// Day index since the epoch (the paper's one-day batching key).
    #[inline]
    pub const fn day(self) -> i64 {
        self.0.div_euclid(SECS_PER_DAY)
    }

    /// Seconds elapsed since the start of the instant's day.
    #[inline]
    pub const fn second_of_day(self) -> i64 {
        self.0.rem_euclid(SECS_PER_DAY)
    }

    /// `self + d`, the deadline arithmetic `s.p + s.φ`.
    #[inline]
    pub fn checked_add(self, d: Duration) -> Option<TimeInstant> {
        self.0.checked_add(d.as_seconds()).map(TimeInstant)
    }

    /// Duration from `earlier` to `self`; zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: TimeInstant) -> Duration {
        Duration::seconds(self.0 - earlier.0)
    }
}

impl Add<Duration> for TimeInstant {
    type Output = TimeInstant;
    #[inline]
    fn add(self, rhs: Duration) -> TimeInstant {
        TimeInstant(self.0 + rhs.as_seconds())
    }
}

impl Sub<TimeInstant> for TimeInstant {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: TimeInstant) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Display for TimeInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day();
        let rem = self.second_of_day();
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            day,
            rem / SECS_PER_HOUR,
            (rem % SECS_PER_HOUR) / SECS_PER_MIN,
            rem % SECS_PER_MIN
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_clamp_negative() {
        assert_eq!(Duration::seconds(-5), Duration::ZERO);
        assert_eq!(
            Duration::ZERO.saturating_sub(Duration::hours(1)),
            Duration::ZERO
        );
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::minutes(60), Duration::hours(1));
        assert_eq!(Duration::hours(24), Duration::days(1));
        assert_eq!(Duration::hours_f64(0.5), Duration::minutes(30));
    }

    #[test]
    fn instant_day_arithmetic() {
        let t = TimeInstant::at(3, 7);
        assert_eq!(t.day(), 3);
        assert_eq!(t.second_of_day(), 7 * SECS_PER_HOUR);
    }

    #[test]
    fn negative_instants_floor_correctly() {
        let t = TimeInstant::from_seconds(-1);
        assert_eq!(t.day(), -1);
        assert_eq!(t.second_of_day(), SECS_PER_DAY - 1);
    }

    #[test]
    fn deadline_arithmetic() {
        let publish = TimeInstant::at(0, 9);
        let deadline = publish + Duration::hours(5);
        assert_eq!(deadline, TimeInstant::at(0, 14));
        assert_eq!(deadline - publish, Duration::hours(5));
    }

    #[test]
    fn since_is_saturating() {
        let a = TimeInstant::at(0, 1);
        let b = TimeInstant::at(0, 2);
        assert_eq!(a.since(b), Duration::ZERO);
        assert_eq!(b.since(a), Duration::hours(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Duration::hours(5).to_string(), "5h");
        assert_eq!(Duration::minutes(90).to_string(), "90min");
        assert_eq!(Duration::seconds(61).to_string(), "61s");
        assert_eq!(TimeInstant::at(2, 5).to_string(), "d2+05:00:00");
    }

    #[test]
    fn checked_at_matches_at_and_detects_overflow() {
        assert_eq!(TimeInstant::checked_at(3, 7), Some(TimeInstant::at(3, 7)));
        assert_eq!(TimeInstant::checked_at(-1, 2), Some(TimeInstant::at(-1, 2)));
        assert_eq!(TimeInstant::checked_at(106_751_991_167_301, 0), None);
        assert_eq!(TimeInstant::checked_at(0, i64::MAX / 3_600 + 1), None);
        assert_eq!(TimeInstant::checked_at(106_751_991_167_300, 24), None);
    }

    #[test]
    fn checked_add_detects_overflow() {
        let t = TimeInstant::from_seconds(i64::MAX - 1);
        assert!(t.checked_add(Duration::seconds(10)).is_none());
        assert!(t.checked_add(Duration::ZERO).is_some());
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(TimeInstant::at(0, 1) < TimeInstant::at(0, 2));
        assert!(TimeInstant::at(1, 0) > TimeInstant::at(0, 23));
    }
}
