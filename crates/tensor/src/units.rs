//! Newtype quantities with physical meaning.
//!
//! Every metric reported by the simulator is wrapped in a unit newtype so
//! that the type system rules out dimensionally-nonsensical arithmetic
//! (adding a latency to an energy, dividing bytes by joules, …).
//!
//! The types are deliberately small `Copy` wrappers over `f64`/`u64` with
//! the handful of arithmetic operations that *are* meaningful implemented
//! via `std::ops`.
//!
//! # Examples
//!
//! ```
//! use npu_tensor::units::{Joules, Seconds};
//!
//! let pipe = Seconds::from_millis(82.16);
//! let energy = Joules::new(0.07);
//! let edp = pipe * energy; // Energy-delay product, the paper's Figs. 5-8.
//! assert!((edp.as_millijoule_millis() - 5.7512).abs() < 1e-9);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A duration in seconds.
///
/// The simulator reports most results in milliseconds; `Seconds` stores the
/// underlying `f64` in SI seconds and formats itself in engineering units.
///
/// # Examples
///
/// ```
/// use npu_tensor::Seconds;
/// let t = Seconds::from_millis(1.5) + Seconds::from_micros(500.0);
/// assert!((t.as_millis() - 2.0).abs() < 1e-12);
/// assert_eq!(format!("{t}"), "2.000 ms");
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration from raw seconds.
    pub fn new(secs: f64) -> Self {
        Seconds(secs)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Seconds(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Seconds(us * 1e-6)
    }

    /// Creates a duration from nanoseconds.
    pub fn from_nanos(ns: f64) -> Self {
        Seconds(ns * 1e-9)
    }

    /// Raw value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Value in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Value in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// True if the duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Relative difference `|self - other| / other`, used by calibration
    /// tests comparing measured values against paper references.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `other` is zero.
    pub fn relative_error(self, other: Seconds) -> f64 {
        debug_assert!(other.0 != 0.0, "relative_error against zero reference");
        ((self.0 - other.0) / other.0).abs()
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div for Seconds {
    /// Ratio of two durations is dimensionless.
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0.abs();
        if s >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3} us", self.0 * 1e6)
        } else {
            write!(f, "{:.3} ns", self.0 * 1e9)
        }
    }
}

/// An energy in joules.
///
/// # Examples
///
/// ```
/// use npu_tensor::Joules;
/// let compute = Joules::from_millijoules(40.0);
/// let nop = Joules::from_picojoules(2.04e9);
/// assert!((compute + nop).as_joules() > 0.04);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Joules(f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Creates an energy from raw joules.
    pub fn new(j: f64) -> Self {
        Joules(j)
    }

    /// Creates an energy from millijoules.
    pub fn from_millijoules(mj: f64) -> Self {
        Joules(mj * 1e-3)
    }

    /// Creates an energy from picojoules (the natural unit of per-access
    /// and per-bit costs).
    pub fn from_picojoules(pj: f64) -> Self {
        Joules(pj * 1e-12)
    }

    /// Raw value in joules.
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// Value in millijoules.
    pub fn as_millijoules(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the larger of two energies.
    pub fn max(self, other: Joules) -> Joules {
        Joules(self.0.max(other.0))
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}

impl Div<f64> for Joules {
    type Output = Joules;
    fn div(self, rhs: f64) -> Joules {
        Joules(self.0 / rhs)
    }
}

impl Div for Joules {
    /// Ratio of two energies is dimensionless.
    type Output = f64;
    fn div(self, rhs: Joules) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, Add::add)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0.abs();
        if j >= 1.0 {
            write!(f, "{:.3} J", self.0)
        } else if j >= 1e-3 {
            write!(f, "{:.3} mJ", self.0 * 1e3)
        } else if j >= 1e-6 {
            write!(f, "{:.3} uJ", self.0 * 1e6)
        } else {
            write!(f, "{:.3} nJ", self.0 * 1e9)
        }
    }
}

/// Energy-delay product, the paper's primary efficiency score
/// (`EDP = pipelining latency × energy`, reported in `ms·J`).
///
/// Produced by multiplying [`Seconds`] by [`Joules`].
///
/// # Examples
///
/// ```
/// use npu_tensor::{Joules, Seconds};
/// let edp = Seconds::from_millis(87.0) * Joules::new(0.71);
/// assert!((edp.as_millijoule_millis() - 61.77).abs() < 1e-9);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Edp(f64);

impl Edp {
    /// Zero EDP.
    pub const ZERO: Edp = Edp(0.0);

    /// Creates an EDP from a raw `J·s` value.
    pub fn new(joule_seconds: f64) -> Self {
        Edp(joule_seconds)
    }

    /// Raw value in joule-seconds.
    pub fn as_joule_secs(self) -> f64 {
        self.0
    }

    /// Value in `ms·J`, the unit used throughout the paper's tables.
    pub fn as_millijoule_millis(self) -> f64 {
        self.0 * 1e3
    }
}

impl Mul<Joules> for Seconds {
    type Output = Edp;
    fn mul(self, rhs: Joules) -> Edp {
        Edp(self.0 * rhs.0)
    }
}

impl Mul<Seconds> for Joules {
    type Output = Edp;
    fn mul(self, rhs: Seconds) -> Edp {
        Edp(self.0 * rhs.0)
    }
}

impl fmt::Display for Edp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ms*J", self.as_millijoule_millis())
    }
}

/// A byte count (data volume moved over the NoP, stored in buffers, …).
///
/// # Examples
///
/// ```
/// use npu_tensor::Bytes;
/// let feature = Bytes::from_kib(64) + Bytes::new(512);
/// assert_eq!(feature.as_u64(), 64 * 1024 + 512);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    pub const fn new(b: u64) -> Self {
        Bytes(b)
    }

    /// Creates a byte count from KiB.
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }

    /// Creates a byte count from MiB.
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }

    /// Raw byte count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as `f64` (for bandwidth division).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Bit count (NoP energy is specified per bit).
    pub fn bits(self) -> u64 {
        self.0 * 8
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", b / (1024.0 * 1024.0))
        } else if b >= 1024.0 {
            write!(f, "{:.2} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A count of multiply-accumulate operations.
///
/// # Examples
///
/// ```
/// use npu_tensor::MacCount;
/// // S_FUSE QKV projection: 3 x 12800 tokens x 256 x 256.
/// let qkv = MacCount::new(3 * 12800 * 256 * 256);
/// assert!((qkv.as_gmacs() - 2.516).abs() < 1e-2);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct MacCount(u64);

impl MacCount {
    /// Zero MACs.
    pub const ZERO: MacCount = MacCount(0);

    /// Creates a MAC count.
    pub const fn new(macs: u64) -> Self {
        MacCount(macs)
    }

    /// Raw MAC count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// MAC count as `f64`.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// MAC count in units of 10^9 (the paper's workloads are GMAC-scale).
    pub fn as_gmacs(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add for MacCount {
    type Output = MacCount;
    fn add(self, rhs: MacCount) -> MacCount {
        MacCount(self.0 + rhs.0)
    }
}

impl AddAssign for MacCount {
    fn add_assign(&mut self, rhs: MacCount) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for MacCount {
    type Output = MacCount;
    fn mul(self, rhs: u64) -> MacCount {
        MacCount(self.0 * rhs)
    }
}

impl Sum for MacCount {
    fn sum<I: Iterator<Item = MacCount>>(iter: I) -> MacCount {
        iter.fold(MacCount::ZERO, Add::add)
    }
}

impl fmt::Display for MacCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0 as f64;
        if m >= 1e9 {
            write!(f, "{:.3} GMAC", m / 1e9)
        } else if m >= 1e6 {
            write!(f, "{:.3} MMAC", m / 1e6)
        } else {
            write!(f, "{} MAC", self.0)
        }
    }
}

/// A clock-cycle count.
///
/// # Examples
///
/// ```
/// use npu_tensor::{Cycles, Hertz};
/// let c = Cycles::new(2_000_000);
/// assert!((c.at(Hertz::from_ghz(2.0)).as_millis() - 1.0).abs() < 1e-12);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub const fn new(c: u64) -> Self {
        Cycles(c)
    }

    /// Raw cycle count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Converts cycles to wall-clock time at the given frequency.
    pub fn at(self, freq: Hertz) -> Seconds {
        Seconds(self.0 as f64 / freq.as_hz())
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A clock frequency.
///
/// # Examples
///
/// ```
/// use npu_tensor::Hertz;
/// let f = Hertz::from_ghz(2.0); // the Tesla FSD NPU frequency
/// assert_eq!(f.as_hz(), 2.0e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Hertz(f64);

impl Hertz {
    /// Creates a frequency from raw Hz.
    pub fn new(hz: f64) -> Self {
        Hertz(hz)
    }

    /// Creates a frequency from GHz.
    pub fn from_ghz(ghz: f64) -> Self {
        Hertz(ghz * 1e9)
    }

    /// Raw value in Hz.
    pub fn as_hz(self) -> f64 {
        self.0
    }
}

impl Default for Hertz {
    /// Defaults to the Tesla FSD NPU operating frequency (2 GHz).
    fn default() -> Self {
        Hertz::from_ghz(2.0)
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2} GHz", self.0 / 1e9)
        } else {
            write!(f, "{:.2} MHz", self.0 / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_constructors_are_consistent() {
        assert_eq!(Seconds::from_millis(1500.0), Seconds::new(1.5));
        assert_eq!(Seconds::from_micros(1500.0), Seconds::from_millis(1.5));
        assert_eq!(Seconds::from_nanos(1500.0), Seconds::from_micros(1.5));
    }

    #[test]
    fn seconds_arithmetic() {
        let a = Seconds::from_millis(10.0);
        let b = Seconds::from_millis(5.0);
        assert_eq!((a + b).as_millis(), 15.0);
        assert_eq!((a - b).as_millis(), 5.0);
        assert_eq!((a * 2.0).as_millis(), 20.0);
        assert_eq!((a / 2.0).as_millis(), 5.0);
        assert_eq!(a / b, 2.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn seconds_sum() {
        let total: Seconds = (1..=4).map(|i| Seconds::from_millis(i as f64)).sum();
        assert_eq!(total.as_millis(), 10.0);
    }

    #[test]
    fn seconds_display_picks_engineering_unit() {
        assert_eq!(format!("{}", Seconds::new(1.8)), "1.800 s");
        assert_eq!(format!("{}", Seconds::from_millis(82.7)), "82.700 ms");
        assert_eq!(format!("{}", Seconds::from_micros(35.0)), "35.000 us");
        assert_eq!(format!("{}", Seconds::from_nanos(35.0)), "35.000 ns");
    }

    #[test]
    fn joules_display() {
        assert_eq!(format!("{}", Joules::new(3.36)), "3.360 J");
        assert_eq!(format!("{}", Joules::from_millijoules(40.0)), "40.000 mJ");
    }

    #[test]
    fn edp_is_latency_times_energy() {
        let edp = Seconds::from_millis(79.59) * Joules::new(3.36);
        assert!((edp.as_millijoule_millis() - 267.4224).abs() < 1e-9);
        // Commutes.
        let edp2 = Joules::new(3.36) * Seconds::from_millis(79.59);
        assert_eq!(edp, edp2);
    }

    #[test]
    fn bytes_bits_and_display() {
        assert_eq!(Bytes::new(2).bits(), 16);
        assert_eq!(format!("{}", Bytes::from_mib(3)), "3.00 MiB");
        assert_eq!(format!("{}", Bytes::from_kib(3)), "3.00 KiB");
        assert_eq!(format!("{}", Bytes::new(12)), "12 B");
    }

    #[test]
    fn macs_gmac_conversion() {
        assert_eq!(MacCount::new(2_500_000_000).as_gmacs(), 2.5);
        assert_eq!(format!("{}", MacCount::new(2_500_000_000)), "2.500 GMAC");
    }

    #[test]
    fn cycles_to_time() {
        let c = Cycles::new(4_000_000_000);
        assert!((c.at(Hertz::from_ghz(2.0)).as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn default_frequency_is_fsd() {
        assert_eq!(Hertz::default(), Hertz::from_ghz(2.0));
    }

    #[test]
    fn relative_error_symmetric_sign() {
        let a = Seconds::from_millis(90.0);
        let b = Seconds::from_millis(100.0);
        assert!((a.relative_error(b) - 0.1).abs() < 1e-12);
    }
}
