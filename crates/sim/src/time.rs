//! Simulated time and bandwidth arithmetic.
//!
//! Time is an absolute instant in integer nanoseconds since simulation start;
//! [`Duration`] is a span in the same unit. Integer nanoseconds keep event
//! ordering exact and platform-independent, which the deterministic replay
//! guarantees of the whole workspace rest on.
//!
//! Sub-nanosecond precision matters for serialization delays (a 64 B packet at
//! 200 Gbps serializes in 2.56 ns), so [`Bandwidth`] computes transfer times in
//! picoseconds internally and rounds up: a transfer never completes earlier
//! than physics allows.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute simulated instant, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The zero instant (simulation start).
    pub const ZERO: Time = Time(0);
    /// The far future; used as a sentinel for "never".
    pub const MAX: Time = Time(u64::MAX);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`. Saturates at zero if `earlier` is
    /// actually later (callers comparing unordered timestamps get a sane 0).
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// This instant expressed in microseconds as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in milliseconds as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// The span in nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in microseconds as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Multiply the span by an integer factor, saturating.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }

    /// Integer division of the span.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, k: u64) -> Duration {
        Duration(self.0 / k.max(1))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A transfer rate, stored as bytes per second.
///
/// Transfer-time computation uses 128-bit picosecond arithmetic and rounds
/// *up*: a byte count never finishes serializing early, so back-to-back
/// transfers can never exceed the configured rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Bandwidth {
    bytes_per_sec: u64,
}

impl Bandwidth {
    /// Construct from bits per second.
    #[inline]
    pub const fn bits_per_sec(bps: u64) -> Bandwidth {
        Bandwidth {
            bytes_per_sec: bps / 8,
        }
    }

    /// Construct from gigabits per second (network-link style units).
    #[inline]
    pub const fn gbps(g: u64) -> Bandwidth {
        Bandwidth {
            bytes_per_sec: g * 1_000_000_000 / 8,
        }
    }

    /// Construct from gigabytes per second (memory-bus style units).
    #[inline]
    pub const fn gibps(g: u64) -> Bandwidth {
        Bandwidth {
            bytes_per_sec: g * 1_000_000_000,
        }
    }

    /// Construct from bytes per second.
    #[inline]
    pub const fn bytes_per_sec(b: u64) -> Bandwidth {
        Bandwidth { bytes_per_sec: b }
    }

    /// The raw rate in bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> u64 {
        self.bytes_per_sec
    }

    /// The raw rate in gigabits per second, as a float (reporting only).
    #[inline]
    pub fn as_gbps_f64(self) -> f64 {
        self.bytes_per_sec as f64 * 8.0 / 1e9
    }

    /// Time to move `bytes` at this rate, rounded up to the next nanosecond.
    ///
    /// A zero rate yields [`Duration`] of `u64::MAX` (effectively "never") so
    /// paused servers do not divide by zero.
    #[inline]
    pub fn transfer_time(self, bytes: u64) -> Duration {
        if self.bytes_per_sec == 0 {
            return Duration(u64::MAX);
        }
        if bytes == 0 {
            return Duration::ZERO;
        }
        // ns = ceil(bytes * 1e9 / rate), in 64 bits when the product fits
        // (every packet-sized transfer) and in 128 bits otherwise.
        match bytes.checked_mul(1_000_000_000) {
            Some(num) => Duration(num.div_ceil(self.bytes_per_sec)),
            None => {
                let num = bytes as u128 * 1_000_000_000u128;
                Duration(num.div_ceil(self.bytes_per_sec as u128) as u64)
            }
        }
    }

    /// Bytes that can move in `d` at this rate (rounded down).
    #[inline]
    pub fn bytes_in(self, d: Duration) -> u64 {
        ((self.bytes_per_sec as u128 * d.0 as u128) / 1_000_000_000u128) as u64
    }

    /// Scale the rate by a rational factor `num/den` (used by pacing and
    /// congestion control). Saturates; a zero denominator is treated as 1.
    #[inline]
    pub fn scale(self, num: u64, den: u64) -> Bandwidth {
        let den = den.max(1);
        Bandwidth {
            bytes_per_sec: ((self.bytes_per_sec as u128 * num as u128) / den as u128) as u64,
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Gbps", self.as_gbps_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::ZERO + Duration::micros(3);
        assert_eq!(t.nanos(), 3_000);
        assert_eq!(t.since(Time::ZERO), Duration::micros(3));
        assert_eq!((t - Duration::micros(3)), Time::ZERO);
    }

    #[test]
    fn since_saturates_for_out_of_order_timestamps() {
        let a = Time(100);
        let b = Time(200);
        assert_eq!(a.since(b), Duration::ZERO);
        assert_eq!(b.since(a), Duration(100));
    }

    #[test]
    fn bandwidth_transfer_time_matches_line_rate_math() {
        // The paper's canonical number: 1024 B packets at 200 Gbps arrive
        // every 41.8 ns (§1). Ceiling rounding gives 41 -> 42.
        let link = Bandwidth::gbps(200);
        let t = link.transfer_time(1024);
        assert!(t.as_nanos() == 41 || t.as_nanos() == 42, "got {t}");
    }

    #[test]
    fn bandwidth_transfer_time_rounds_up() {
        // 1 byte at 8 Gbps = 1 ns exactly; 1 byte at 16 Gbps = 0.5 ns -> 1 ns.
        assert_eq!(Bandwidth::gbps(8).transfer_time(1).as_nanos(), 1);
        assert_eq!(Bandwidth::gbps(16).transfer_time(1).as_nanos(), 1);
    }

    #[test]
    fn zero_bandwidth_never_completes() {
        assert_eq!(
            Bandwidth::bytes_per_sec(0).transfer_time(64).as_nanos(),
            u64::MAX
        );
    }

    #[test]
    fn bytes_in_inverts_transfer_time_approximately() {
        let bw = Bandwidth::gbps(100);
        let d = bw.transfer_time(1_000_000);
        let b = bw.bytes_in(d);
        assert!((1_000_000..=1_000_013).contains(&b), "b = {b}");
    }

    #[test]
    fn scale_applies_rational_factor() {
        let bw = Bandwidth::gbps(200);
        assert_eq!(bw.scale(1, 2).as_bytes_per_sec(), bw.as_bytes_per_sec() / 2);
        assert_eq!(
            bw.scale(3, 4).as_bytes_per_sec(),
            bw.as_bytes_per_sec() / 4 * 3
        );
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(format!("{}", Duration::nanos(12)), "12ns");
        assert_eq!(format!("{}", Duration::micros(12)), "12.000us");
        assert_eq!(format!("{}", Duration::millis(12)), "12.000ms");
        assert_eq!(format!("{}", Duration::secs(12)), "12.000s");
    }
}
