//! Measurement primitives: counters, rate meters, EWMAs, time series, and an
//! HDR-style histogram for tail-latency percentiles.
//!
//! Every number in EXPERIMENTS.md flows through these types. The histogram
//! uses log-linear bucketing (like HdrHistogram): values are grouped into
//! buckets whose width doubles every `2^sub_bucket_bits` buckets, giving a
//! bounded relative error of `2^-sub_bucket_bits` at any magnitude — accurate
//! P99.9s over 7 decades of nanosecond latencies in a few KiB of memory.

use crate::time::{Duration, Time};

/// A monotonically increasing event counter with a delta-reading helper.
#[derive(Debug, Default, Clone)]
pub struct Counter {
    total: u64,
    last_read: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n` occurrences.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.total += n;
    }

    /// Add one occurrence.
    #[inline]
    pub fn inc(&mut self) {
        self.total += 1;
    }

    /// Lifetime total.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Occurrences since the previous `take_delta` call (windowed reporting).
    pub fn take_delta(&mut self) -> u64 {
        let d = self.total - self.last_read;
        self.last_read = self.total;
        d
    }
}

/// Windowed rate meter: counts occurrences (e.g. bytes or packets) and
/// converts window deltas into rates.
#[derive(Debug, Clone)]
pub struct RateMeter {
    counter: Counter,
    window_start: Time,
}

impl RateMeter {
    /// A meter whose first window starts at `start`.
    pub fn new(start: Time) -> RateMeter {
        RateMeter {
            counter: Counter::new(),
            window_start: start,
        }
    }

    /// Record `n` units at the current time.
    #[inline]
    pub fn record(&mut self, n: u64) {
        self.counter.add(n);
    }

    /// Lifetime total units.
    #[inline]
    pub fn total(&self) -> u64 {
        self.counter.total()
    }

    /// Close the window ending at `now`: returns (units, window length) and
    /// starts a new window.
    pub fn close_window(&mut self, now: Time) -> (u64, Duration) {
        let units = self.counter.take_delta();
        let span = now.since(self.window_start);
        self.window_start = now;
        (units, span)
    }

    /// Close the window and return the rate in units per second.
    pub fn rate_per_sec(&mut self, now: Time) -> f64 {
        let (units, span) = self.close_window(now);
        if span.as_nanos() == 0 {
            return 0.0;
        }
        units as f64 / span.as_secs_f64()
    }
}

/// Exponentially weighted moving average with weight `g` (DCTCP-style).
#[derive(Debug, Clone)]
pub struct Ewma {
    value: f64,
    gain: f64,
    primed: bool,
}

impl Ewma {
    /// An EWMA with gain `g` in `(0, 1]`; the first observation initializes
    /// the average directly.
    pub fn new(gain: f64) -> Ewma {
        Ewma {
            value: 0.0,
            gain: gain.clamp(f64::MIN_POSITIVE, 1.0),
            primed: false,
        }
    }

    /// Fold in an observation.
    pub fn observe(&mut self, x: f64) {
        if self.primed {
            self.value = (1.0 - self.gain) * self.value + self.gain * x;
        } else {
            self.value = x;
            self.primed = true;
        }
    }

    /// Current average (zero before any observation).
    #[inline]
    pub fn value(&self) -> f64 {
        self.value
    }
}

/// A labelled sequence of (time, value) samples — one experiment curve.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// Curve label as it appears in reports.
    pub name: String,
    /// Samples in chronological order.
    pub points: Vec<(Time, f64)>,
}

impl TimeSeries {
    /// An empty named series.
    pub fn new(name: impl Into<String>) -> TimeSeries {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a sample.
    pub fn push(&mut self, at: Time, value: f64) {
        self.points.push((at, value));
    }

    /// Mean of all sample values (zero if empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Minimum sample value (zero if empty).
    pub fn min(&self) -> f64 {
        let m = self
            .points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }
}

/// Log-linear histogram with bounded relative error, for latency percentiles.
///
/// Values ≥ `2^(sub_bucket_bits+1)` fall into buckets of doubling width; the
/// maximum representable value is `u64::MAX` (clamped into the last bucket).
///
/// The bucket array is sized lazily: it holds only the buckets up to the
/// highest one recorded (every bucket beyond it is zero by definition), so
/// a histogram that never records costs no bucket storage at all. The
/// logical bucket count, and with it every reported number, is the same
/// as for a fully allocated array.
#[derive(Debug, Clone)]
pub struct Histogram {
    sub_bucket_bits: u32,
    /// Logical bucket count (covers the full `u64` range).
    buckets: usize,
    /// Counts of buckets `0..counts.len()`; higher buckets are empty.
    counts: Vec<u64>,
    total: u64,
    max_seen: u64,
    min_seen: u64,
    sum: u128,
}

impl Histogram {
    /// Default precision: 2^-7 < 1% relative error.
    pub fn new() -> Histogram {
        Histogram::with_precision(7)
    }

    /// `sub_bucket_bits` controls relative error (`2^-bits`); 5..=12 sensible.
    pub fn with_precision(sub_bucket_bits: u32) -> Histogram {
        assert!((1..=16).contains(&sub_bucket_bits));
        // Linear region (2^bits buckets) plus tiers bits..63, each
        // contributing 2^(bits-1) buckets, covers the full u64 range.
        let buckets = (1usize << sub_bucket_bits)
            + (64 - sub_bucket_bits as usize) * (1usize << (sub_bucket_bits - 1));
        Histogram {
            sub_bucket_bits,
            buckets,
            counts: Vec::new(),
            total: 0,
            max_seen: 0,
            min_seen: u64::MAX,
            sum: 0,
        }
    }

    #[inline]
    fn index_of(&self, value: u64) -> usize {
        let b = self.sub_bucket_bits;
        if value < (1u64 << b) {
            // Linear region: one bucket per value.
            return value as usize;
        }
        // Log region: tier t covers [2^t, 2^(t+1)) with 2^(b-1) buckets of
        // width 2^(t-b+1) each, so relative error stays below 2^-(b-1).
        let tier = 63 - value.leading_zeros(); // tier >= b
        let sub = (value - (1u64 << tier)) >> (tier - b + 1); // [0, 2^(b-1))
        let idx = (1usize << b) + ((tier - b) as usize) * (1usize << (b - 1)) + sub as usize;
        idx.min(self.buckets - 1)
    }

    #[inline]
    fn value_of(&self, index: usize) -> u64 {
        let b = self.sub_bucket_bits;
        if index < (1usize << b) {
            return index as u64;
        }
        let past = index - (1usize << b);
        let tier = b + (past / (1usize << (b - 1))) as u32;
        let sub = (past % (1usize << (b - 1))) as u64;
        if tier >= 63 {
            return u64::MAX;
        }
        // Representative value: start of the bucket.
        (1u64 << tier) + (sub << (tier - b + 1))
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let idx = self.index_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.max_seen = self.max_seen.max(value);
        self.min_seen = self.min_seen.min(value);
    }

    /// Record a [`Duration`] (convenience for latency recording).
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value (zero if empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// Exact minimum recorded value (zero if empty).
    #[inline]
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_seen
        }
    }

    /// Exact mean of recorded values (zero if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`, within the bucket relative error.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp representative to the true max for tail stability.
                return self.value_of(i).min(self.max_seen);
            }
        }
        self.max_seen
    }

    /// Values at several quantiles (each in `[0, 1]`) in **one pass** over
    /// the buckets, returned in the same order as `qs`.
    ///
    /// [`Histogram::quantile`] scans the bucket array per call; experiment
    /// tables ask for 4–5 quantiles per histogram, so the per-call scans
    /// add up. This walks the counts once regardless of how many
    /// quantiles are requested. An empty histogram yields all zeros.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<u64> {
        let mut out = vec![0u64; qs.len()];
        if self.total == 0 || qs.is_empty() {
            return out;
        }
        // Rank target for each requested quantile, then visit them in
        // ascending-target order during a single bucket sweep.
        let targets: Vec<u64> = qs
            .iter()
            .map(|q| {
                let q = q.clamp(0.0, 1.0);
                ((q * self.total as f64).ceil() as u64).clamp(1, self.total)
            })
            .collect();
        let mut order: Vec<usize> = (0..qs.len()).collect();
        order.sort_by_key(|&i| targets[i]);

        let mut seen = 0u64;
        let mut next = 0usize; // index into `order`
        for (i, &c) in self.counts.iter().enumerate() {
            if next >= order.len() {
                break;
            }
            seen += c;
            while next < order.len() && seen >= targets[order[next]] {
                out[order[next]] = self.value_of(i).min(self.max_seen);
                next += 1;
            }
        }
        // Any remainder (only possible via counting edge cases): the max.
        while next < order.len() {
            out[order[next]] = self.max_seen;
            next += 1;
        }
        out
    }

    /// P50 convenience.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    /// P99 convenience.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
    /// P99.9 convenience.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Sum of all recorded values (u128: immune to u64 overflow even for
    /// nanosecond sums over long runs).
    #[inline]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Merge another histogram of the same precision into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.sub_bucket_bits, other.sub_bucket_bits);
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max_seen = self.max_seen.max(other.max_seen);
        self.min_seen = self.min_seen.min(other.min_seen);
    }

    /// Reset all recorded data, keeping the precision (and the bucket
    /// storage already grown, so a cleared histogram records again without
    /// reallocating).
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
        self.max_seen = 0;
        self.min_seen = u64::MAX;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Display for Histogram {
    /// One-line summary: `count=N mean=M p50=A p99=B p999=C max=D`
    /// (a single [`Histogram::quantiles`] sweep; used by `ceio-inspect`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let qs = self.quantiles(&[0.50, 0.99, 0.999]);
        write!(
            f,
            "count={} mean={:.1} p50={} p99={} p999={} max={}",
            self.total,
            self.mean(),
            qs[0],
            qs[1],
            qs[2],
            self.max_seen
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_delta_reads() {
        let mut c = Counter::new();
        c.add(5);
        c.inc();
        assert_eq!(c.total(), 6);
        assert_eq!(c.take_delta(), 6);
        c.add(4);
        assert_eq!(c.take_delta(), 4);
        assert_eq!(c.take_delta(), 0);
        assert_eq!(c.total(), 10);
    }

    #[test]
    fn rate_meter_computes_window_rate() {
        let mut m = RateMeter::new(Time::ZERO);
        m.record(1_000_000);
        // 1e6 units over 1 ms = 1e9 units/sec.
        let r = m.rate_per_sec(Time(1_000_000));
        assert!((r - 1e9).abs() < 1.0, "rate {r}");
        // Next window empty.
        assert_eq!(m.rate_per_sec(Time(2_000_000)), 0.0);
        assert_eq!(m.total(), 1_000_000);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(1.0 / 16.0);
        e.observe(10.0);
        assert_eq!(e.value(), 10.0);
        for _ in 0..500 {
            e.observe(2.0);
        }
        assert!((e.value() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 99);
        assert_eq!(h.p50(), 49);
        assert!((h.mean() - 49.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_bounded_relative_error() {
        let mut h = Histogram::new();
        // Latencies spanning 100 ns .. 10 ms.
        for i in 1..=100_000u64 {
            h.record(i * 100);
        }
        for &(q, expect) in &[(0.5, 5_000_000u64), (0.99, 9_900_000), (0.999, 9_990_000)] {
            let got = h.quantile(q);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.02, "q={q}: got {got}, expect {expect}, err {err}");
        }
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for v in [3u64, 70, 9_000, 1_000_000] {
            a.record(v);
            combined.record(v);
        }
        for v in [5u64, 800, 44_000] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.max(), combined.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), combined.quantile(q));
        }
    }

    #[test]
    fn histogram_clear_resets() {
        let mut h = Histogram::new();
        h.record(12345);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn histogram_single_value_quantiles() {
        let mut h = Histogram::new();
        h.record(5_000);
        assert_eq!(h.p50(), h.p999());
        let got = h.p50();
        let err = (got as f64 - 5_000.0).abs() / 5_000.0;
        assert!(err < 0.02, "got {got}");
    }

    #[test]
    fn quantiles_single_pass_matches_per_call() {
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(i * 7 % 50_000);
        }
        // Unsorted request order exercises the order-index mapping.
        let qs = [0.99, 0.5, 0.999, 0.0, 1.0, 0.9];
        let batch = h.quantiles(&qs);
        for (q, got) in qs.iter().zip(&batch) {
            assert_eq!(*got, h.quantile(*q), "q={q}");
        }
        assert!(h.quantiles(&[]).is_empty());
        assert_eq!(Histogram::new().quantiles(&[0.5, 0.99]), vec![0, 0]);
    }

    /// Batch quantiles on an empty histogram return a zero per requested
    /// quantile — same shape as the request, never a shorter vector — and
    /// an empty request on a populated histogram returns an empty vector.
    #[test]
    fn quantiles_batch_empty_cases() {
        let empty = Histogram::new();
        assert_eq!(empty.quantiles(&[0.0, 0.5, 1.0]), vec![0, 0, 0]);
        assert!(empty.quantiles(&[]).is_empty());
        let mut h = Histogram::new();
        h.record(42);
        assert!(h.quantiles(&[]).is_empty());
    }

    /// With exactly one recorded sample, every quantile — including the
    /// q=0 and q=1 extremes — reports that sample (the linear region is
    /// exact for small values, so no bucket error applies).
    #[test]
    fn quantiles_batch_single_sample() {
        let mut h = Histogram::new();
        h.record(77);
        let got = h.quantiles(&[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(got, vec![77; 5]);
    }

    /// q=0 reports the smallest recorded value and q=1 the largest; values
    /// in the linear region make both exact. Out-of-range requests clamp
    /// (q<0 behaves as 0, q>1 as 1) instead of panicking or wrapping.
    #[test]
    fn quantiles_batch_extremes_bracket_min_and_max() {
        let mut h = Histogram::new();
        for v in [9u64, 3, 27] {
            h.record(v);
        }
        assert_eq!(h.quantiles(&[0.0, 1.0]), vec![3, 27]);
        assert_eq!(h.quantiles(&[-0.5, 2.0]), vec![3, 27]);
    }

    #[test]
    fn histogram_sum_and_display() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(300);
        assert_eq!(h.sum(), 400);
        let line = format!("{h}");
        assert!(line.contains("count=2"), "{line}");
        assert!(line.contains("mean=200.0"), "{line}");
        assert!(line.contains("max=300"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn timeseries_mean() {
        let mut ts = TimeSeries::new("tput");
        ts.push(Time(0), 10.0);
        ts.push(Time(1), 20.0);
        assert_eq!(ts.mean(), 15.0);
        assert_eq!(TimeSeries::new("x").mean(), 0.0);
    }
}
