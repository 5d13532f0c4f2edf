//! Time and frequency newtypes.
//!
//! The simulator operates in discrete processor cycles. The paper's
//! configuration runs at 1 GHz, so one cycle corresponds to one nanosecond,
//! but all conversions go through [`Freq`] so the frequency can be changed.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulated time (or a span of time), measured in processor
/// cycles since the beginning of the simulation.
///
/// `Cycle` is used both as an absolute timestamp and as a span; arithmetic is
/// saturating-free and will panic on overflow in debug builds, like plain
/// integer arithmetic.
///
/// # Example
///
/// ```
/// use refrint_engine::time::Cycle;
/// let a = Cycle::new(10);
/// let b = Cycle::new(32);
/// assert_eq!(b - a, Cycle::new(22));
/// assert_eq!(a + Cycle::new(5), Cycle::new(15));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The zero cycle (simulation start).
    pub const ZERO: Cycle = Cycle(0);
    /// The maximum representable cycle; used as "never".
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: returns zero rather than underflowing.
    #[must_use]
    pub const fn saturating_sub(self, other: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two cycle values.
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two cycle values.
    #[must_use]
    pub fn min(self, other: Cycle) -> Cycle {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Whether this is the sentinel "never" value.
    #[must_use]
    pub const fn is_never(self) -> bool {
        self.0 == u64::MAX
    }

    /// Multiplies a cycle span by an integer factor.
    #[must_use]
    pub const fn times(self, factor: u64) -> Cycle {
        Cycle(self.0 * factor)
    }

    /// Integer division of spans, returning how many `span`s fit in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero.
    #[must_use]
    pub fn div_span(self, span: Cycle) -> u64 {
        assert!(span.0 != 0, "division by a zero-cycle span");
        self.0 / span.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl Add for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycle {
    type Output = Cycle;
    fn mul(self, rhs: u64) -> Cycle {
        Cycle(self.0 * rhs)
    }
}

impl Div<u64> for Cycle {
    type Output = Cycle;
    fn div(self, rhs: u64) -> Cycle {
        Cycle(self.0 / rhs)
    }
}

impl Rem<Cycle> for Cycle {
    type Output = Cycle;
    fn rem(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 % rhs.0)
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

impl From<Cycle> for u64 {
    fn from(c: Cycle) -> Self {
        c.0
    }
}

/// A wall-clock duration of simulated time, independent of frequency.
///
/// Stored internally in picoseconds so that sub-nanosecond access times can
/// be expressed exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    picos: u128,
}

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration { picos: 0 };

    /// Creates a duration from picoseconds.
    #[must_use]
    pub const fn from_picos(picos: u128) -> Self {
        SimDuration { picos }
    }

    /// Creates a duration from nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration {
            picos: nanos as u128 * 1_000,
        }
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration {
            picos: micros as u128 * 1_000_000,
        }
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            picos: millis as u128 * 1_000_000_000,
        }
    }

    /// Creates a duration from seconds (floating point, e.g. for reports).
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration {
            picos: (secs * 1e12) as u128,
        }
    }

    /// The duration in picoseconds.
    #[must_use]
    pub const fn as_picos(self) -> u128 {
        self.picos
    }

    /// The duration in nanoseconds (truncating).
    #[must_use]
    pub const fn as_nanos(self) -> u128 {
        self.picos / 1_000
    }

    /// The duration in microseconds (truncating).
    #[must_use]
    pub const fn as_micros(self) -> u128 {
        self.picos / 1_000_000
    }

    /// The duration in seconds, as a float (for energy = power × time).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.picos as f64 * 1e-12
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            picos: self.picos + rhs.picos,
        }
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            picos: self.picos - rhs.picos,
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.picos >= 1_000_000_000 {
            write!(f, "{:.3} ms", self.picos as f64 / 1e9)
        } else if self.picos >= 1_000_000 {
            write!(f, "{:.3} us", self.picos as f64 / 1e6)
        } else {
            write!(f, "{} ps", self.picos)
        }
    }
}

/// A clock frequency.
///
/// Used to convert between [`SimDuration`] wall-clock times (such as eDRAM
/// retention times expressed in microseconds) and [`Cycle`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq {
    hertz: u64,
}

impl Freq {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hertz` is zero.
    #[must_use]
    pub fn hertz(hertz: u64) -> Self {
        assert!(hertz > 0, "frequency must be non-zero");
        Freq { hertz }
    }

    /// Creates a frequency from megahertz.
    #[must_use]
    pub fn megahertz(mhz: u64) -> Self {
        Freq::hertz(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz.
    #[must_use]
    pub fn gigahertz(ghz: u64) -> Self {
        Freq::hertz(ghz * 1_000_000_000)
    }

    /// The period of one cycle.
    #[must_use]
    pub fn period(self) -> SimDuration {
        SimDuration::from_picos(1_000_000_000_000 / self.hertz as u128)
    }

    /// How many whole cycles elapse in `d` at this frequency.
    #[must_use]
    pub fn cycles_in(self, d: SimDuration) -> Cycle {
        let picos_per_cycle = 1_000_000_000_000u128 / self.hertz as u128;
        Cycle::new((d.as_picos() / picos_per_cycle) as u64)
    }

    /// The wall-clock duration of `c` cycles at this frequency.
    #[must_use]
    pub fn duration_of(self, c: Cycle) -> SimDuration {
        let picos_per_cycle = 1_000_000_000_000u128 / self.hertz as u128;
        SimDuration::from_picos(c.raw() as u128 * picos_per_cycle)
    }
}

impl Default for Freq {
    /// The paper's evaluation frequency: 1000 MHz.
    fn default() -> Self {
        Freq::gigahertz(1)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hertz.is_multiple_of(1_000_000_000) {
            write!(f, "{} GHz", self.hertz / 1_000_000_000)
        } else if self.hertz.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.hertz / 1_000_000)
        } else {
            write!(f, "{} Hz", self.hertz)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle::new(100);
        let b = Cycle::new(40);
        assert_eq!(a + b, Cycle::new(140));
        assert_eq!(a - b, Cycle::new(60));
        assert_eq!(a * 3, Cycle::new(300));
        assert_eq!(a / 3, Cycle::new(33));
        assert_eq!(a % Cycle::new(30), Cycle::new(10));
        assert_eq!(b.saturating_sub(a), Cycle::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn cycle_div_span() {
        assert_eq!(Cycle::new(1000).div_span(Cycle::new(300)), 3);
        assert_eq!(Cycle::new(1000).div_span(Cycle::new(1000)), 1);
        assert_eq!(Cycle::new(999).div_span(Cycle::new(1000)), 0);
    }

    #[test]
    #[should_panic(expected = "zero-cycle span")]
    fn cycle_div_span_zero_panics() {
        let _ = Cycle::new(10).div_span(Cycle::ZERO);
    }

    #[test]
    fn cycle_sum_and_conversions() {
        let total: Cycle = [Cycle::new(1), Cycle::new(2), Cycle::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Cycle::new(6));
        assert_eq!(u64::from(Cycle::new(9)), 9);
        assert_eq!(Cycle::from(9u64), Cycle::new(9));
        assert!(Cycle::MAX.is_never());
        assert!(!Cycle::new(5).is_never());
    }

    #[test]
    fn duration_units() {
        assert_eq!(SimDuration::from_micros(50).as_nanos(), 50_000);
        assert_eq!(SimDuration::from_nanos(40).as_picos(), 40_000);
        assert_eq!(SimDuration::from_millis(1).as_micros(), 1_000);
        let d = SimDuration::from_micros(3) + SimDuration::from_micros(2);
        assert_eq!(d.as_micros(), 5);
        assert!((SimDuration::from_secs_f64(0.001).as_secs_f64() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn freq_conversions_at_1ghz() {
        let f = Freq::gigahertz(1);
        assert_eq!(
            f.cycles_in(SimDuration::from_micros(50)),
            Cycle::new(50_000)
        );
        assert_eq!(f.cycles_in(SimDuration::from_nanos(40)), Cycle::new(40));
        assert_eq!(f.duration_of(Cycle::new(1_000)).as_nanos(), 1_000);
        assert_eq!(f.period().as_picos(), 1_000);
    }

    #[test]
    fn freq_conversions_at_500mhz() {
        let f = Freq::megahertz(500);
        // One cycle is 2 ns at 500 MHz.
        assert_eq!(f.cycles_in(SimDuration::from_micros(1)), Cycle::new(500));
        assert_eq!(f.duration_of(Cycle::new(500)).as_nanos(), 1_000);
    }

    #[test]
    fn freq_display() {
        assert_eq!(Freq::gigahertz(1).to_string(), "1 GHz");
        assert_eq!(Freq::megahertz(500).to_string(), "500 MHz");
        assert_eq!(Freq::hertz(123).to_string(), "123 Hz");
    }

    #[test]
    fn default_freq_is_paper_config() {
        assert_eq!(Freq::default(), Freq::megahertz(1000));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cycle::new(7).to_string(), "7 cyc");
        assert_eq!(SimDuration::from_micros(3).to_string(), "3.000 us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000 ms");
        assert_eq!(SimDuration::from_picos(250).to_string(), "250 ps");
    }
}
