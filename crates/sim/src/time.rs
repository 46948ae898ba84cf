//! Simulated time: integer nanoseconds since simulation start.

use mpx_topo::units::Secs;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (nanoseconds since start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Far future; used as a sentinel for "never".
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Converts seconds into a time point, rounding up so that an event
    /// never fires *before* its analytic time.
    ///
    /// The integer `(s * 1e9).ceil() as u64` for every `f64` (NaN and
    /// negatives give zero, +∞ and anything past 2⁶⁴ ns saturate), without
    /// the libm call `ceil` is on baseline x86-64: the cast truncates, and
    /// one is added where that dropped a fraction. Below 2⁵³ the cast back
    /// is exact; above it every float is an integer.
    pub fn from_secs(s: Secs) -> SimTime {
        let ns = s * 1e9;
        let whole = ns as u64;
        SimTime(whole.saturating_add(u64::from((whole as f64) < ns)))
    }

    /// This time point in (floating) seconds.
    pub fn as_secs(self) -> Secs {
        self.0 as f64 * 1e-9
    }

    /// Nanoseconds since start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Adds a (non-negative) duration in seconds, rounding up.
    pub fn after(self, s: Secs) -> SimTime {
        self + SimTime::from_secs(s)
    }

    /// Saturating difference in seconds.
    pub fn secs_since(self, earlier: SimTime) -> Secs {
        (self.0.saturating_sub(earlier.0)) as f64 * 1e-9
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0 as f64 / 1e3;
        write!(f, "{us:.3}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `from_secs(s)` is the `ceil` it replaced, bit for bit.
    fn assert_ceil(s: f64) {
        let want = SimTime((s * 1e9).ceil() as u64);
        assert_eq!(SimTime::from_secs(s), want, "s = {s:e}");
    }

    #[test]
    fn from_secs_rounds_up() {
        assert_eq!(SimTime::from_secs(1e-9), SimTime(1));
        assert_eq!(SimTime::from_secs(1.5e-9), SimTime(2));
        assert_eq!(SimTime::from_secs(0.0), SimTime::ZERO);
    }

    #[test]
    fn from_secs_is_ceil_at_every_edge() {
        let (tiny, min, max) = (f64::from_bits(1), f64::MIN_POSITIVE, f64::MAX);
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        [0.0, -0.0, tiny, -tiny, min, 1.0, 3.0]
            .into_iter()
            .for_each(assert_ceil);
        [2.5e-9, 7.5e-9, -0.5e-9, -1.0, -1e300]
            .into_iter()
            .for_each(assert_ceil);
        [max, inf, -inf, nan].into_iter().for_each(assert_ceil);
        // Seconds an ulp either side of each nanosecond count, and each
        // count an ulp either side, converted back.
        let (ulps, pow2) = (|x: f64| x.to_bits() - 1..=x.to_bits() + 1, |e| 2f64.powi(e));
        for ns in [1e9, 123_456_789.5, pow2(53), pow2(63), pow2(64)] {
            ulps(ns * 1e-9).for_each(|b| assert_ceil(f64::from_bits(b)));
            ulps(ns).for_each(|b| assert_ceil(f64::from_bits(b) / 1e9));
        }
    }

    proptest! {
        #[test]
        fn from_secs_is_ceil_for_any_bits(bits in 0..=u64::MAX, exp in 983u64..1063) {
            assert_ceil(f64::from_bits(bits));
            // Its sign and mantissa at 2^±40 s, where s·1e9 spans a
            // fraction of a nanosecond to past 2^64.
            assert_ceil(f64::from_bits(bits & !(0x7ff << 52) | exp << 52));
        }
    }

    #[test]
    fn roundtrip_secs() {
        let t = SimTime::from_secs(12.345);
        assert!((t.as_secs() - 12.345).abs() < 1e-8);
    }

    #[test]
    fn after_accumulates() {
        let t = SimTime::ZERO.after(1e-6).after(2e-6);
        assert_eq!(t, SimTime(3000));
    }

    #[test]
    fn secs_since_saturates() {
        let a = SimTime(1000);
        let b = SimTime(4000);
        assert!((b.secs_since(a) - 3e-6).abs() < 1e-15);
        assert_eq!(a.secs_since(b), 0.0);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime::NEVER + SimTime(1), SimTime::NEVER);
        assert_eq!(SimTime(5) - SimTime(10), SimTime::ZERO);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimTime::ZERO < SimTime::NEVER);
    }

    #[test]
    fn display_in_microseconds() {
        assert_eq!(SimTime(2500).to_string(), "2.500us");
    }
}
