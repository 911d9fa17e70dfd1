//! Simulation time.
//!
//! Virtual time is kept in integer **nanoseconds** so that event ordering is
//! exact and runs are bit-reproducible. Durations derived from floating-point
//! rate models (e.g. `flops / flops_per_second`) are rounded half-up at
//! conversion time; at the nanosecond scale this is far below every effect the
//! models resolve (the shortest modelled latencies are ~100 ns).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic operators implement the obvious mixed usage. All constructors
/// saturate rather than wrap: the simulated horizon (~584 years) is
/// unreachable in practice and saturation keeps pathological model inputs
/// (e.g. a zero-bandwidth link) from silently wrapping around.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero / the empty duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000_000))
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative and NaN inputs clamp to zero (rate models occasionally produce
    /// `-0.0` or tiny negative residuals from floating-point cancellation);
    /// infinities clamp to [`SimTime::MAX`].
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        // NaN and negatives both clamp to zero.
        if s.is_nan() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(round_half_up(ns))
        }
    }

    /// Construct from fractional microseconds (common unit for network latencies).
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us * 1e-6)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in seconds (lossy for > 2^53 ns, i.e. ~104 days; fine for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Value in microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// Value in milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
}

/// `ns.round() as u64` for `0 <= ns < 2^64`, without the libm call that
/// `f64::round` compiles to on baseline x86-64: truncate, then round up when
/// the dropped fraction is at least one half. Exact: below 2^53 the
/// subtraction `ns - t` incurs no rounding error, and from 2^52 up `ns` is
/// already integral, so the fraction is exactly zero.
#[inline]
fn round_half_up(ns: f64) -> u64 {
    let t = ns as u64;
    t + (ns - t as f64 >= 0.5) as u64
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `from_secs_f64` as it was with `f64::round`: the reference the
    /// integer rounding must reproduce bit for bit.
    fn reference(s: f64) -> SimTime {
        if s.is_nan() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ns.round() as u64)
        }
    }

    #[test]
    fn round_half_up_matches_f64_round_at_the_boundaries() {
        let two52 = (1u64 << 52) as f64;
        let two53 = (1u64 << 53) as f64;
        let below_2_64 = (u64::MAX as f64).next_down();
        let mut cases = vec![
            0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE,
            0.5f64.next_down(),
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            below_2_64,
        ];
        // Exact half-nanoseconds and their neighbours, up to the last
        // half-integer f64 can hold (2^52 - 0.5).
        for k in [0u64, 1, 2, 3, 1_000, 123_456_789, (1 << 40) + 7, (1 << 52) - 1] {
            let half = k as f64 + 0.5;
            cases.extend([half, half.next_down(), half.next_up(), k as f64]);
        }
        // Every integer-spaced value between 2^52 and 2^53.
        cases.extend((0..64u64).map(|i| two52 + (i * 0x1_0000_0001) as f64));
        for ns in cases {
            assert_eq!(round_half_up(ns), ns.round() as u64, "ns = {ns:e}");
        }
        assert_eq!(round_half_up(below_2_64), below_2_64 as u64);
    }

    #[test]
    fn f64_conversion_matches_reference_on_special_values() {
        let cases = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1.5e-9,
            2.5e-9,
            u64::MAX as f64 / 1e9,
            (u64::MAX as f64).next_down() / 1e9,
            f64::MAX,
        ];
        for s in cases {
            assert_eq!(SimTime::from_secs_f64(s), reference(s), "s = {s:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn f64_conversion_matches_reference_on_any_bits(bits in 0u64..u64::MAX) {
            let s = f64::from_bits(bits);
            prop_assert_eq!(SimTime::from_secs_f64(s), reference(s));
        }

        #[test]
        fn f64_conversion_matches_reference_on_model_durations(s in 0.0f64..1.0e4) {
            prop_assert_eq!(SimTime::from_secs_f64(s), reference(s));
        }

        #[test]
        fn f64_conversion_matches_reference_near_half_nanoseconds(
            k in 0u64..(1u64 << 53),
            nudge in 0u64..3,
        ) {
            let half = k as f64 + 0.5;
            let ns = [half.next_down(), half, half.next_up()][nudge as usize];
            prop_assert_eq!(round_half_up(ns), ns.round() as u64);
            let s = ns / 1e9;
            prop_assert_eq!(SimTime::from_secs_f64(s), reference(s));
        }
    }

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_nanos(11).as_nanos(), 11);
    }

    #[test]
    fn f64_conversion_rounds() {
        assert_eq!(SimTime::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(SimTime::from_secs_f64(0.25).as_nanos(), 250_000_000);
        assert_eq!(SimTime::from_micros_f64(65.0).as_nanos(), 65_000);
    }

    #[test]
    fn f64_conversion_clamps_pathological_inputs() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime::MAX + SimTime::from_nanos(1), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimTime::from_nanos(1), SimTime::ZERO);
        assert_eq!(SimTime::from_nanos(10) - SimTime::from_nanos(4), SimTime::from_nanos(6));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(20);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(12)), "12.000000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4u64).map(SimTime::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }
}
