//! Run-level measurement: windowed time series per flow class plus final
//! aggregates. Every figure and table in EXPERIMENTS.md is produced from a
//! [`RunReport`].

use ceio_net::FlowClass;
use ceio_sim::{Duration, Histogram, Time, TimeSeries};

/// Per-class accumulators for the current window.
#[derive(Debug, Default, Clone, Copy)]
struct WindowAcc {
    pkts: u64,
    bytes: u64,
}

/// One closed measurement window for a flow class.
#[derive(Debug, Clone, Copy)]
pub struct ClassSample {
    /// Window end.
    pub at: Time,
    /// Delivered packets per second, in millions (Mpps).
    pub mpps: f64,
    /// Delivered goodput in Gbps.
    pub gbps: f64,
}

/// Live measurement state inside a running machine.
#[derive(Debug)]
pub struct Measurements {
    window: Duration,
    window_start: Time,
    involved: WindowAcc,
    bypass: WindowAcc,
    /// Per-window fast-path delivery accumulator.
    fast: WindowAcc,
    /// Per-window slow-path delivery accumulator.
    slow: WindowAcc,
    /// Drops observed in the current window.
    window_drops: u64,
    /// LLC lookup totals at the previous window close (for window miss rate).
    last_hits: u64,
    last_misses: u64,
    /// Time series: CPU-involved delivered Mpps per window.
    pub involved_mpps: TimeSeries,
    /// Time series: CPU-bypass delivered Gbps per window.
    pub bypass_gbps: TimeSeries,
    /// Time series: LLC miss rate per window.
    pub miss_rate: TimeSeries,
    /// Time series: fast-path delivered Gbps per window.
    pub fast_gbps: TimeSeries,
    /// Time series: slow-path delivered Gbps per window.
    pub slow_gbps: TimeSeries,
    /// Time series: packets dropped per window.
    pub drops: TimeSeries,
    /// Totals since measurement start.
    pub total_involved_pkts: u64,
    /// Total CPU-involved bytes delivered.
    pub total_involved_bytes: u64,
    /// Total CPU-bypass packets delivered.
    pub total_bypass_pkts: u64,
    /// Total CPU-bypass bytes delivered.
    pub total_bypass_bytes: u64,
    /// Packets delivered via the fast path.
    pub fast_path_pkts: u64,
    /// Bytes delivered via the fast path.
    pub fast_path_bytes: u64,
    /// Packets delivered via the slow path.
    pub slow_path_pkts: u64,
    /// Bytes delivered via the slow path.
    pub slow_path_bytes: u64,
    /// LLC lookup totals at measurement start (for run-level miss rate).
    pub hits_at_start: u64,
    /// LLC miss total at measurement start.
    pub misses_at_start: u64,
    /// Measurement start (set by `reset`, used for run rates).
    pub started_at: Time,
}

impl Measurements {
    /// Fresh measurements with the given sampling window.
    pub fn new(window: Duration) -> Measurements {
        Measurements {
            window,
            window_start: Time::ZERO,
            involved: WindowAcc::default(),
            bypass: WindowAcc::default(),
            fast: WindowAcc::default(),
            slow: WindowAcc::default(),
            window_drops: 0,
            last_hits: 0,
            last_misses: 0,
            involved_mpps: TimeSeries::new("cpu-involved Mpps"),
            bypass_gbps: TimeSeries::new("cpu-bypass Gbps"),
            miss_rate: TimeSeries::new("LLC miss rate"),
            fast_gbps: TimeSeries::new("fast-path Gbps"),
            slow_gbps: TimeSeries::new("slow-path Gbps"),
            drops: TimeSeries::new("drops per window"),
            total_involved_pkts: 0,
            total_involved_bytes: 0,
            total_bypass_pkts: 0,
            total_bypass_bytes: 0,
            fast_path_pkts: 0,
            fast_path_bytes: 0,
            slow_path_pkts: 0,
            slow_path_bytes: 0,
            hits_at_start: 0,
            misses_at_start: 0,
            started_at: Time::ZERO,
        }
    }

    /// The sampling window length.
    #[inline]
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Record one delivered packet.
    pub fn record_delivery(&mut self, class: FlowClass, bytes: u64, via_slow: bool) {
        if via_slow {
            self.slow_path_pkts += 1;
            self.slow_path_bytes += bytes;
            self.slow.pkts += 1;
            self.slow.bytes += bytes;
        } else {
            self.fast_path_pkts += 1;
            self.fast_path_bytes += bytes;
            self.fast.pkts += 1;
            self.fast.bytes += bytes;
        }
        let acc = match class {
            FlowClass::CpuInvolved => {
                self.total_involved_pkts += 1;
                self.total_involved_bytes += bytes;
                &mut self.involved
            }
            FlowClass::CpuBypass => {
                self.total_bypass_pkts += 1;
                self.total_bypass_bytes += bytes;
                &mut self.bypass
            }
        };
        acc.pkts += 1;
        acc.bytes += bytes;
    }

    /// Record one packet dropped anywhere on the receive path (feeds the
    /// per-window drop series; the lifetime total lives in the machine).
    #[inline]
    pub fn record_drop(&mut self) {
        self.window_drops += 1;
    }

    /// Close the window ending at `now`, appending time-series points.
    /// `hits`/`misses` are the LLC lifetime totals at `now`.
    pub fn close_window(&mut self, now: Time, hits: u64, misses: u64) {
        let span = now.since(self.window_start);
        if span.as_nanos() > 0 {
            let secs = span.as_secs_f64();
            self.involved_mpps
                .push(now, self.involved.pkts as f64 / secs / 1e6);
            self.bypass_gbps
                .push(now, self.bypass.bytes as f64 * 8.0 / secs / 1e9);
            let dh = hits - self.last_hits;
            let dm = misses - self.last_misses;
            let rate = if dh + dm == 0 {
                0.0
            } else {
                dm as f64 / (dh + dm) as f64
            };
            self.miss_rate.push(now, rate);
            self.fast_gbps
                .push(now, self.fast.bytes as f64 * 8.0 / secs / 1e9);
            self.slow_gbps
                .push(now, self.slow.bytes as f64 * 8.0 / secs / 1e9);
            self.drops.push(now, self.window_drops as f64);
        }
        self.last_hits = hits;
        self.last_misses = misses;
        self.involved = WindowAcc::default();
        self.bypass = WindowAcc::default();
        self.fast = WindowAcc::default();
        self.slow = WindowAcc::default();
        self.window_drops = 0;
        self.window_start = now;
    }

    /// Discard everything gathered so far and restart measurement at `now`
    /// (used to exclude warmup).
    pub fn reset(&mut self, now: Time, hits: u64, misses: u64) {
        self.involved = WindowAcc::default();
        self.bypass = WindowAcc::default();
        self.fast = WindowAcc::default();
        self.slow = WindowAcc::default();
        self.window_drops = 0;
        self.window_start = now;
        self.started_at = now;
        self.last_hits = hits;
        self.last_misses = misses;
        self.hits_at_start = hits;
        self.misses_at_start = misses;
        self.involved_mpps.points.clear();
        self.bypass_gbps.points.clear();
        self.miss_rate.points.clear();
        self.fast_gbps.points.clear();
        self.slow_gbps.points.clear();
        self.drops.points.clear();
        self.total_involved_pkts = 0;
        self.total_involved_bytes = 0;
        self.total_bypass_pkts = 0;
        self.total_bypass_bytes = 0;
        self.fast_path_pkts = 0;
        self.fast_path_bytes = 0;
        self.slow_path_pkts = 0;
        self.slow_path_bytes = 0;
    }
}

/// Final results of one simulation run, extracted by the experiment harness.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy under test.
    pub policy: String,
    /// Simulated span measured (post-warmup).
    pub measured: Duration,
    /// CPU-involved delivered throughput in Mpps over the whole run.
    pub involved_mpps: f64,
    /// CPU-involved goodput in Gbps.
    pub involved_gbps: f64,
    /// CPU-bypass goodput in Gbps.
    pub bypass_gbps: f64,
    /// CPU-bypass delivered Mpps.
    pub bypass_mpps: f64,
    /// LLC miss rate over the measured span.
    pub llc_miss_rate: f64,
    /// Aggregate end-to-end latency across CPU-involved flows.
    pub involved_latency: Histogram,
    /// Aggregate end-to-end latency across CPU-bypass flows.
    pub bypass_latency: Histogram,
    /// Packets dropped anywhere on the receive path.
    pub dropped: u64,
    /// Packets that travelled the slow path.
    pub slow_path_pkts: u64,
    /// Goodput of fast-path deliveries in Gbps.
    pub fast_path_gbps: f64,
    /// Goodput of slow-path deliveries in Gbps.
    pub slow_path_gbps: f64,
    /// End-to-end latency of fast-path deliveries.
    pub fast_latency: Histogram,
    /// End-to-end latency of slow-path deliveries.
    pub slow_latency: Histogram,
    /// Deliveries stalled by an ordering gap while later data was ready
    /// (zero under phase exclusivity; the ablation shows what naive
    /// interleaving costs).
    pub ordering_stalls: u64,
    /// Time series captured during the run.
    pub involved_mpps_series: TimeSeries,
    /// CPU-bypass Gbps time series.
    pub bypass_gbps_series: TimeSeries,
    /// Miss-rate time series.
    pub miss_series: TimeSeries,
    /// Fast-path Gbps time series.
    pub fast_gbps_series: TimeSeries,
    /// Slow-path Gbps time series.
    pub slow_gbps_series: TimeSeries,
    /// Per-window drop-count time series.
    pub drops_series: TimeSeries,
}

impl RunReport {
    /// Total delivered Mpps (both classes).
    pub fn total_mpps(&self) -> f64 {
        self.involved_mpps + self.bypass_mpps
    }

    /// Total goodput in Gbps (both classes).
    pub fn total_gbps(&self) -> f64 {
        self.involved_gbps + self.bypass_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_compute_rates() {
        let mut m = Measurements::new(Duration::millis(1));
        // 1000 involved packets of 512 B in 1 ms = 1 Mpps, ~4.1 Gbps.
        for _ in 0..1000 {
            m.record_delivery(FlowClass::CpuInvolved, 512, false);
        }
        m.close_window(Time(1_000_000), 900, 100);
        assert_eq!(m.involved_mpps.points.len(), 1);
        let (_, mpps) = m.involved_mpps.points[0];
        assert!((mpps - 1.0).abs() < 1e-9);
        let (_, miss) = m.miss_rate.points[0];
        assert!((miss - 0.1).abs() < 1e-9);
    }

    #[test]
    fn miss_rate_is_windowed_not_lifetime() {
        let mut m = Measurements::new(Duration::millis(1));
        m.close_window(Time(1_000_000), 1000, 0);
        m.close_window(Time(2_000_000), 1000, 1000); // window 2: 0 hits, 1000 misses
        let (_, miss) = m.miss_rate.points[1];
        assert!((miss - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reset_discards_warmup() {
        let mut m = Measurements::new(Duration::millis(1));
        for _ in 0..500 {
            m.record_delivery(FlowClass::CpuBypass, 2048, true);
        }
        m.close_window(Time(1_000_000), 10, 10);
        m.reset(Time(1_000_000), 10, 10);
        assert_eq!(m.total_bypass_pkts, 0);
        assert!(m.bypass_gbps.points.is_empty());
        assert_eq!(m.started_at, Time(1_000_000));
    }

    #[test]
    fn totals_accumulate_per_class() {
        let mut m = Measurements::new(Duration::millis(1));
        m.record_delivery(FlowClass::CpuInvolved, 100, false);
        m.record_delivery(FlowClass::CpuBypass, 200, true);
        m.record_delivery(FlowClass::CpuBypass, 200, true);
        assert_eq!(m.total_involved_pkts, 1);
        assert_eq!(m.total_bypass_pkts, 2);
        assert_eq!(m.total_bypass_bytes, 400);
    }

    #[test]
    fn empty_window_pushes_zero_rates() {
        let mut m = Measurements::new(Duration::millis(1));
        m.close_window(Time(1_000_000), 0, 0);
        assert_eq!(m.involved_mpps.points[0].1, 0.0);
        assert_eq!(m.miss_rate.points[0].1, 0.0);
        assert_eq!(m.fast_gbps.points[0].1, 0.0);
        assert_eq!(m.drops.points[0].1, 0.0);
    }

    #[test]
    fn zero_length_window_pushes_no_points() {
        // Closing a window at its own start instant must not divide by the
        // zero span or emit bogus points — but accumulators still reset.
        let mut m = Measurements::new(Duration::millis(1));
        m.record_delivery(FlowClass::CpuInvolved, 512, false);
        m.record_drop();
        m.close_window(Time::ZERO, 0, 0);
        assert!(m.involved_mpps.points.is_empty());
        assert!(m.fast_gbps.points.is_empty());
        assert!(m.drops.points.is_empty());
        // Accumulators were cleared: a later real window sees only its own.
        m.close_window(Time(1_000_000), 0, 0);
        assert_eq!(m.involved_mpps.points[0].1, 0.0);
        assert_eq!(m.drops.points[0].1, 0.0);
    }

    #[test]
    fn reset_mid_window_discards_partial_accumulation() {
        let mut m = Measurements::new(Duration::millis(1));
        for _ in 0..100 {
            m.record_delivery(FlowClass::CpuInvolved, 512, false);
            m.record_delivery(FlowClass::CpuBypass, 2048, true);
        }
        for _ in 0..7 {
            m.record_drop();
        }
        // Reset in the middle of the first window, before any close.
        m.reset(Time(500_000), 40, 10);
        assert_eq!(m.total_involved_pkts, 0);
        assert_eq!(m.fast_path_pkts, 0);
        assert_eq!(m.slow_path_pkts, 0);
        assert!(m.slow_gbps.points.is_empty());
        // The next window reflects only post-reset activity.
        m.record_delivery(FlowClass::CpuInvolved, 512, false);
        m.close_window(Time(1_500_000), 40, 10);
        let (_, mpps) = m.involved_mpps.points[0];
        assert!((mpps - 0.001).abs() < 1e-9, "1 pkt / 1 ms = 0.001 Mpps");
        assert_eq!(m.drops.points[0].1, 0.0, "pre-reset drops discarded");
        let (_, miss) = m.miss_rate.points[0];
        assert_eq!(miss, 0.0, "pre-reset LLC totals became the baseline");
    }

    #[test]
    fn fast_slow_series_split_by_path() {
        let mut m = Measurements::new(Duration::millis(1));
        for _ in 0..1000 {
            m.record_delivery(FlowClass::CpuInvolved, 500, false);
        }
        for _ in 0..200 {
            m.record_delivery(FlowClass::CpuInvolved, 500, true);
        }
        for _ in 0..3 {
            m.record_drop();
        }
        m.close_window(Time(1_000_000), 0, 0);
        let (_, fast) = m.fast_gbps.points[0];
        let (_, slow) = m.slow_gbps.points[0];
        assert!((fast - 4.0).abs() < 1e-9, "1000*500B*8/1ms = 4 Gbps");
        assert!((slow - 0.8).abs() < 1e-9, "200*500B*8/1ms = 0.8 Gbps");
        assert_eq!(m.drops.points[0].1, 3.0);
    }
}
