//! Property-based tests for the simulation engine primitives.

use ceio_sim::{Bandwidth, Duration, EventQueue, Histogram, Rng, Time};
use proptest::prelude::*;

proptest! {
    /// Histogram quantiles have bounded relative error: for any recorded
    /// value v, a histogram containing only v reports quantiles within 1.6%
    /// (2^-6, one sub-bucket at 7-bit precision).
    #[test]
    fn histogram_single_value_relative_error(v in 1u64..u64::MAX / 2) {
        let mut h = Histogram::new();
        h.record(v);
        let got = h.p50();
        let err = (got as f64 - v as f64).abs() / v as f64;
        prop_assert!(err <= 0.016, "v={v} got={got} err={err}");
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn histogram_quantiles_monotone(values in prop::collection::vec(0u64..10_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
        let mut prev = 0u64;
        for &q in &qs {
            let x = h.quantile(q);
            prop_assert!(x >= prev, "quantile not monotone at q={q}");
            prop_assert!(x <= h.max());
            prev = x;
        }
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    /// The single-pass batch [`Histogram::quantiles`] is monotone over an
    /// ascending quantile list, bracketed by the histogram max, and agrees
    /// exactly with the per-call [`Histogram::quantile`] scan — the batch
    /// sweep's target-reordering must not change any answer.
    #[test]
    fn histogram_batch_quantiles_monotone(values in prop::collection::vec(0u64..10_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
        let batch = h.quantiles(&qs);
        prop_assert_eq!(batch.len(), qs.len());
        for w in batch.windows(2) {
            prop_assert!(w[0] <= w[1], "batch quantiles not monotone: {:?}", batch);
        }
        for (q, got) in qs.iter().zip(&batch) {
            prop_assert!(*got <= h.max());
            prop_assert_eq!(*got, h.quantile(*q), "batch disagrees with per-call at q={}", q);
        }
    }

    /// Histogram mean is exact (tracked outside the buckets).
    #[test]
    fn histogram_mean_exact(values in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let expect = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        prop_assert!((h.mean() - expect).abs() < 1e-6);
    }

    /// Merging preserves the total count and the max.
    #[test]
    fn histogram_merge_preserves_totals(
        a in prop::collection::vec(0u64..1_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        for &v in &a { ha.record(v); }
        for &v in &b { hb.record(v); }
        let max = ha.max().max(hb.max());
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(ha.max(), max);
    }

    /// The event queue is a stable priority queue: pops are sorted by time,
    /// and equal times preserve insertion order.
    #[test]
    fn event_queue_sorted_and_stable(times in prop::collection::vec(0u64..1000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(Time(t), i);
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push((e.at.nanos(), e.event));
        }
        // Sorted by time.
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated for equal times");
            }
        }
        prop_assert_eq!(popped.len(), times.len());
    }

    /// Bandwidth transfer times are monotone in bytes and never undershoot
    /// the exact rational time.
    #[test]
    fn bandwidth_monotone_and_conservative(
        gbps in 1u64..1000,
        bytes_a in 1u64..1_000_000,
        bytes_b in 1u64..1_000_000,
    ) {
        let bw = Bandwidth::gbps(gbps);
        let (lo, hi) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        prop_assert!(bw.transfer_time(lo) <= bw.transfer_time(hi));
        let exact_ns = lo as f64 * 8.0 / (gbps as f64); // bits / Gbps = ns
        prop_assert!(bw.transfer_time(lo).as_nanos() as f64 >= exact_ns - 1e-9);
    }

    /// Transfer time then bytes_in round-trips within one rate quantum.
    #[test]
    fn bandwidth_roundtrip(gbps in 1u64..1000, bytes in 1u64..10_000_000) {
        let bw = Bandwidth::gbps(gbps);
        let t = bw.transfer_time(bytes);
        let back = bw.bytes_in(t);
        // Ceiling rounding means we may overshoot by at most one ns worth.
        let one_ns_bytes = bw.as_bytes_per_sec() / 1_000_000_000 + 1;
        prop_assert!(back + one_ns_bytes >= bytes, "back={back} bytes={bytes}");
    }

    /// The 64-bit transfer-time path returns what the 128-bit formula
    /// returns: for random sizes (small, and up to `u64::MAX`) at random
    /// rates, and at the largest size whose product still fits in 64 bits,
    /// one below and one above it.
    #[test]
    fn transfer_time_matches_the_128_bit_formula(
        small in 1u64..100_000,
        large in any::<u64>(),
        rate in 1u64..u64::MAX,
        gbps in 1u64..1000,
    ) {
        let edge = u64::MAX / 1_000_000_000;
        for bw in [Bandwidth::bytes_per_sec(rate), Bandwidth::gbps(gbps)] {
            let den = bw.as_bytes_per_sec() as u128;
            for bytes in [small, large, edge - 1, edge, edge + 1] {
                let exact = (bytes as u128 * 1_000_000_000).div_ceil(den) as u64;
                prop_assert_eq!(bw.transfer_time(bytes).as_nanos(), exact, "bytes={} rate={}", bytes, den);
            }
        }
    }

    /// RNG ranges are always within bound, for arbitrary seeds.
    #[test]
    fn rng_range_in_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = Rng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(r.gen_range(bound) < bound);
        }
    }

    /// Durations add associatively (saturating arithmetic, small values).
    #[test]
    fn duration_add_assoc(a in 0u64..1u64<<40, b in 0u64..1u64<<40, c in 0u64..1u64<<40) {
        let (da, db, dc) = (Duration::nanos(a), Duration::nanos(b), Duration::nanos(c));
        prop_assert_eq!((da + db) + dc, da + (db + dc));
    }

    /// Same-nanosecond bursts pop in exact scheduling order, even when
    /// split across interleaved future times.
    #[test]
    fn same_ns_bursts_stay_fifo(burst in 2usize..150, t in 0u64..1u64<<40) {
        let mut q = EventQueue::new();
        for i in 0..burst as u64 {
            q.schedule_at(Time(t), i);
            q.schedule_at(Time(t.saturating_add(i + 1)), burst as u64 + i);
        }
        let mut prev: Option<(u64, u64)> = None;
        let mut same_t = Vec::new();
        while let Some(e) = q.pop() {
            if let Some((pt, _)) = prev {
                prop_assert!(e.at.0 >= pt, "time went backwards");
            }
            if e.at.0 == t {
                same_t.push(e.event);
            }
            prev = Some((e.at.0, e.event));
        }
        prop_assert_eq!(&same_t, &(0..burst as u64).collect::<Vec<_>>());
    }
}
