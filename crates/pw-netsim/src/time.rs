//! Simulated time: millisecond-resolution instants and durations.
//!
//! Millisecond integers keep the event queue totally ordered and the whole
//! simulation bit-for-bit reproducible; floating-point seconds are available
//! at the edges for statistics.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in milliseconds since the start of the
/// simulation (conventionally midnight of the simulated day).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The zero instant (start of simulation).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Builds an instant from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000)
    }

    /// Milliseconds since the simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Hour-of-day in `0..24`, wrapping over multi-day simulations.
    pub fn hour_of_day(self) -> usize {
        ((self.0 / 3_600_000) % 24) as usize
    }

    /// Duration since `earlier`, saturating to zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Builds a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// Builds a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// Builds a duration from float seconds, rounding to milliseconds and
    /// clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1000.0).round() as u64)
    }

    /// The duration in whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in float seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Scales the duration by a non-negative factor, rounding to
    /// milliseconds.
    pub fn mul_f64(self, k: f64) -> Self {
        SimDuration((self.0 as f64 * k.max(0.0)).round() as u64)
    }
}

/// Saturates at the last instant of the clock, as subtraction saturates
/// at zero.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

/// Saturates as [`Add`] does.
impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0 / 1000;
        write!(
            f,
            "{:02}:{:02}:{:02}.{:03}",
            s / 3600,
            (s / 60) % 60,
            s % 60,
            self.0 % 1000
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_hours(1), SimTime::from_secs(3600));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(12), SimDuration::from_secs(3));
        // Saturating subtraction.
        assert_eq!(
            SimTime::from_secs(1) - SimTime::from_secs(5),
            SimDuration::ZERO
        );
    }

    #[test]
    fn adding_past_the_end_of_the_clock_saturates() {
        let end = SimTime::from_millis(u64::MAX);
        let mut t = SimTime::from_millis(u64::MAX - 1);
        assert_eq!(t + SimDuration::from_hours(1), end);
        t += SimDuration::from_hours(1);
        assert_eq!(t, end);
    }

    #[test]
    fn float_round_trip() {
        let d = SimDuration::from_secs_f64(1.2345);
        assert_eq!(d.as_millis(), 1235); // rounded
        assert!((d.as_secs_f64() - 1.235).abs() < 1e-9);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn hour_of_day_wraps() {
        assert_eq!(SimTime::from_hours(3).hour_of_day(), 3);
        assert_eq!(SimTime::from_hours(27).hour_of_day(), 3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(3_725_042).to_string(), "01:02:05.042");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
    }

    #[test]
    fn mul_f64_rounds_and_clamps() {
        assert_eq!(
            SimDuration::from_secs(10).mul_f64(0.15),
            SimDuration::from_millis(1500)
        );
        assert_eq!(SimDuration::from_secs(10).mul_f64(-1.0), SimDuration::ZERO);
    }
}
