//! Simulated time: instants ([`SimTime`]) and spans ([`SimDuration`]).
//!
//! The simulator measures time in integer **milliseconds** from the start of
//! the simulation. Integer time keeps the discrete-event simulation exactly
//! reproducible (no floating-point drift) and matches the heartbeat
//! granularity of Hadoop-1.
//!
//! The arithmetic follows `std::time`: `SimTime - SimTime = SimDuration`,
//! `SimTime + SimDuration = SimTime`, and durations add and scale.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in milliseconds since simulation start.
///
/// # Examples
///
/// ```
/// use woha_model::{SimDuration, SimTime};
/// let t = SimTime::from_secs(5) + SimDuration::from_millis(250);
/// assert_eq!(t.as_millis(), 5_250);
/// assert_eq!(t - SimTime::from_secs(5), SimDuration::from_millis(250));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds.
///
/// # Examples
///
/// ```
/// use woha_model::SimDuration;
/// let d = SimDuration::from_secs(90);
/// assert_eq!(d.as_millis(), 90_000);
/// assert_eq!(d * 2, SimDuration::from_mins(3));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any time a simulation will reach; usable as an
    /// "infinite" sentinel (e.g. a deadline that can never be missed).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Creates an instant `mins` minutes after simulation start.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60_000)
    }

    /// Milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since simulation start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float (for plotting/metrics).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration from `earlier` to `self`, or zero if `earlier` is later.
    ///
    /// This is the "time to deadline" operation used throughout WOHA: it
    /// never underflows, so a deadline already in the past yields zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Subtracts a duration, saturating at [`SimTime::ZERO`].
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration longer than any simulation; an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration from a float number of seconds, rounding to the
    /// nearest millisecond and clamping negatives to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1_000.0).round() as u64)
    }

    /// The duration in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `self - other`, or zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Multiplies the duration by a float factor (for jitter), rounding to
    /// the nearest millisecond; negative or non-finite factors yield zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if factor <= 0.0 || !factor.is_finite() {
            return SimDuration::ZERO;
        }
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

/// Saturates at [`SimTime::MAX`], as [`SimTime::saturating_add`] does: a
/// duration read from input can be large enough to wrap an instant.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        self.saturating_add(rhs)
    }
}

/// Saturates at [`SimTime::MAX`], like `+`.
impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = self.saturating_add(rhs);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a.saturating_add(b))
    }
}

fn fmt_millis(ms: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ms == u64::MAX {
        return f.write_str("inf");
    }
    if ms.is_multiple_of(1_000) {
        write!(f, "{}s", ms / 1_000)
    } else {
        write!(f, "{}.{:03}s", ms / 1_000, ms % 1_000)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_millis(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_millis(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(3);
        assert_eq!((t + d).as_secs(), 13);
        assert_eq!((t - d).as_secs(), 7);
        assert_eq!(t - SimTime::from_secs(4), SimDuration::from_secs(6));
        assert_eq!(d + d, SimDuration::from_secs(6));
        assert_eq!(d * 4, SimDuration::from_secs(12));
        assert_eq!(SimDuration::from_secs(12) / 4, d);
    }

    #[test]
    fn saturating_ops_never_panic() {
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        let mut t = SimTime::from_secs(41);
        assert_eq!(t + SimDuration::MAX, SimTime::MAX);
        t += SimDuration::MAX;
        assert_eq!(t, SimTime::MAX);
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimDuration::from_secs(1)),
            SimTime::ZERO
        );
        assert_eq!(
            SimDuration::ZERO.saturating_sub(SimDuration::from_secs(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn float_conversions() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert!((SimTime::from_millis(2_500).as_secs_f64() - 2.5).abs() < 1e-9);
        assert_eq!(SimDuration::from_secs(10).mul_f64(1.5).as_secs(), 15);
        assert_eq!(SimDuration::from_secs(10).mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(5).to_string(), "5s");
        assert_eq!(SimTime::from_millis(5_042).to_string(), "5.042s");
        assert_eq!(SimDuration::MAX.to_string(), "inf");
    }

    #[test]
    fn sum_saturates() {
        let total: SimDuration = [SimDuration::MAX, SimDuration::from_secs(1)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDuration::MAX);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_secs(1);
        let db = SimDuration::from_secs(2);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }
}
