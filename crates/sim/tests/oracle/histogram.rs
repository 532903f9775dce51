//! The histogram exactly as it was before lazy bucket sizing: the full
//! bucket array (every bucket of the `u64` range) allocated and zeroed
//! up front.
//!
//! Test-only reference model. `histogram_reference.rs` drives random
//! record/merge/clear sequences through it and through
//! `ceio_sim::Histogram` and requires identical observable behaviour.
//! Apart from this header and the imports, the code is unchanged; do not
//! optimise it.

#![allow(dead_code)]

use ceio_sim::Duration;

/// Log-linear histogram with bounded relative error, for latency percentiles.
///
/// Values ≥ `2^(sub_bucket_bits+1)` fall into buckets of doubling width; the
/// maximum representable value is `u64::MAX` (clamped into the last bucket).
#[derive(Debug, Clone)]
pub struct Histogram {
    sub_bucket_bits: u32,
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
            counts: vec![0; buckets],
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
        idx.min(self.counts.len() - 1)
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
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max_seen = self.max_seen.max(other.max_seen);
        self.min_seen = self.min_seen.min(other.min_seen);
    }

    /// Reset all recorded data, keeping the precision.
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
