//! Rate-based DCTCP congestion controller.
//!
//! The paper uses DCTCP as the base network rate control (§2.3) and the
//! baselines' pathologies are expressed through it: ShRing triggers it
//! *unnecessarily* (fixed ring fills ⇒ marks/drops), HostCC triggers it
//! *late* (signal fires after misses), and CEIO triggers it only when the
//! slow path's production rate exceeds consumption (§4.1 Q2).
//!
//! The model is the standard rate-based DCTCP translation: per-RTT window,
//! mark fraction F, gain g = 1/16, `alpha ← (1-g)alpha + gF`, rate
//! `← rate·(1-alpha/2)` when any marks were seen, additive increase toward
//! the demanded rate otherwise, and a multiplicative cut on packet loss.

use ceio_sim::{Bandwidth, Duration, Time};

/// Controller statistics.
#[derive(Debug, Default, Clone)]
pub struct DctcpStats {
    /// Multiplicative-decrease events driven by ECN.
    pub ecn_reductions: u64,
    /// Loss-driven rate cuts.
    pub loss_cuts: u64,
    /// Windows with additive increase.
    pub increases: u64,
}

/// Per-flow DCTCP state.
#[derive(Debug, Clone)]
pub struct Dctcp {
    rate: Bandwidth,
    demand: Bandwidth,
    min_rate: Bandwidth,
    alpha: f64,
    gain: f64,
    window: Duration,
    window_end: Time,
    acked: u64,
    marked: u64,
    loss_in_window: bool,
    additive_step: Bandwidth,
    stats: DctcpStats,
}

impl Dctcp {
    /// A controller starting at the demanded rate.
    ///
    /// `window` should be the flow's RTT; `demand` is the open-loop offered
    /// load that additive increase converges back to.
    pub fn new(demand: Bandwidth, window: Duration) -> Dctcp {
        let min_rate = Bandwidth::bytes_per_sec((demand.as_bytes_per_sec() / 100).max(1_000_000));
        Dctcp {
            rate: demand,
            demand,
            min_rate,
            alpha: 0.0,
            gain: 1.0 / 16.0,
            window,
            window_end: Time::ZERO + window,
            acked: 0,
            marked: 0,
            loss_in_window: false,
            additive_step: Bandwidth::bytes_per_sec((demand.as_bytes_per_sec() / 10).max(1)),
            stats: DctcpStats::default(),
        }
    }

    /// Current sending rate.
    #[inline]
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Current alpha (congestion estimate).
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Retarget the demanded rate in place. A zero demand pauses the flow
    /// (rate drops to zero immediately); restoring a non-zero demand
    /// restarts at that demand — a destination hop is a fresh stream, not a
    /// congestion event.
    pub fn set_demand(&mut self, demand: Bandwidth) {
        self.demand = demand;
        self.additive_step = Bandwidth::bytes_per_sec((demand.as_bytes_per_sec() / 10).max(1));
        self.min_rate = Bandwidth::bytes_per_sec((demand.as_bytes_per_sec() / 100).max(1_000_000));
        if demand.as_bytes_per_sec() == 0 {
            self.rate = Bandwidth::bytes_per_sec(0);
        } else {
            self.rate = demand;
            self.alpha = 0.0;
        }
    }

    /// Whether the flow is currently paused (zero demand).
    pub fn paused(&self) -> bool {
        self.demand.as_bytes_per_sec() == 0
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &DctcpStats {
        &self.stats
    }

    /// Record delivery feedback for one packet (ECN-echo from the receiver).
    /// Advances the per-window update when the window has elapsed.
    pub fn on_feedback(&mut self, now: Time, ecn_marked: bool) {
        self.acked += 1;
        if ecn_marked {
            self.marked += 1;
        }
        self.maybe_update(now);
    }

    /// Record a packet loss (drop at the receiver, e.g. ShRing full).
    pub fn on_loss(&mut self, now: Time) {
        self.loss_in_window = true;
        self.maybe_update(now);
    }

    /// Force a window rollover if due (call occasionally even without
    /// feedback so idle flows recover their rate).
    pub fn tick(&mut self, now: Time) {
        self.maybe_update(now);
    }

    fn maybe_update(&mut self, now: Time) {
        while now >= self.window_end {
            self.apply_window();
            self.window_end += Duration::nanos(self.window.as_nanos());
        }
    }

    fn apply_window(&mut self) {
        let frac = if self.acked == 0 {
            0.0
        } else {
            self.marked as f64 / self.acked as f64
        };
        self.alpha = (1.0 - self.gain) * self.alpha + self.gain * frac;

        if self.loss_in_window {
            // Loss: multiplicative decrease. At 200 Gbps with ~20 us RTTs
            // the effective per-loss-event cut of a windowed transport is
            // mild (one congestion event per RTT, many packets in flight),
            // so a rate-based translation uses 0.7x rather than halving.
            self.rate = self.rate.scale(7, 10).max(self.min_rate);
            self.stats.loss_cuts += 1;
        } else if self.marked > 0 {
            // DCTCP multiplicative decrease proportional to alpha/2.
            let cut = (self.alpha / 2.0 * 1_000_000.0) as u64;
            self.rate = self
                .rate
                .scale(1_000_000 - cut.min(999_999), 1_000_000)
                .max(self.min_rate);
            self.stats.ecn_reductions += 1;
        } else if self.acked > 0 && self.rate < self.demand {
            // Additive increase toward demand.
            let next = Bandwidth::bytes_per_sec(
                (self.rate.as_bytes_per_sec() + self.additive_step.as_bytes_per_sec())
                    .min(self.demand.as_bytes_per_sec()),
            );
            self.rate = next;
            self.stats.increases += 1;
        }
        self.acked = 0;
        self.marked = 0;
        self.loss_in_window = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cca() -> Dctcp {
        Dctcp::new(Bandwidth::gbps(25), Duration::micros(20))
    }

    fn advance_windows(c: &mut Dctcp, windows: u64, per_window: impl Fn(&mut Dctcp, Time)) {
        for w in 0..windows {
            let t = Time((w + 1) * 20_000);
            per_window(c, t);
            c.tick(t);
        }
    }

    #[test]
    fn no_marks_keeps_rate_at_demand() {
        let mut c = cca();
        advance_windows(&mut c, 10, |c, t| {
            for _ in 0..100 {
                c.on_feedback(t - Duration::nanos(1), false);
            }
        });
        assert_eq!(
            c.rate().as_bytes_per_sec(),
            Bandwidth::gbps(25).as_bytes_per_sec()
        );
    }

    #[test]
    fn sustained_marks_reduce_rate() {
        let mut c = cca();
        advance_windows(&mut c, 20, |c, t| {
            for _ in 0..100 {
                c.on_feedback(t - Duration::nanos(1), true);
            }
        });
        assert!(c.rate() < Bandwidth::gbps(25));
        assert!(
            c.alpha() > 0.5,
            "alpha should converge up, got {}",
            c.alpha()
        );
        assert!(c.stats().ecn_reductions > 0);
    }

    #[test]
    fn rate_recovers_after_congestion_clears() {
        let mut c = cca();
        advance_windows(&mut c, 10, |c, t| {
            for _ in 0..100 {
                c.on_feedback(t - Duration::nanos(1), true);
            }
        });
        let low = c.rate();
        // 200 clean windows recover toward demand (alpha decays too).
        for w in 10..210 {
            let t = Time((w + 1) * 20_000);
            for _ in 0..100 {
                c.on_feedback(t - Duration::nanos(1), false);
            }
            c.tick(t);
        }
        assert!(c.rate() > low);
        assert_eq!(
            c.rate().as_bytes_per_sec(),
            Bandwidth::gbps(25).as_bytes_per_sec()
        );
    }

    #[test]
    fn loss_cuts_rate_multiplicatively() {
        let mut c = cca();
        c.on_loss(Time(1));
        c.tick(Time(20_001));
        assert_eq!(
            c.rate().as_bytes_per_sec(),
            Bandwidth::gbps(25).as_bytes_per_sec() / 10 * 7
        );
        assert_eq!(c.stats().loss_cuts, 1);
    }

    #[test]
    fn rate_never_below_floor() {
        let mut c = cca();
        for w in 0..100 {
            c.on_loss(Time(w * 20_000 + 1));
            c.tick(Time((w + 1) * 20_000));
        }
        assert!(c.rate().as_bytes_per_sec() >= 1_000_000 / 8 * 8 / 100);
        assert!(c.rate().as_bytes_per_sec() > 0);
    }

    #[test]
    fn partial_marking_gives_partial_cut() {
        // 50% marks for a few windows: alpha ~ climbing toward 0.5; cut is
        // gentler than halving.
        let mut c = cca();
        let before = c.rate().as_bytes_per_sec();
        advance_windows(&mut c, 1, |c, t| {
            for i in 0..100 {
                c.on_feedback(t - Duration::nanos(1), i % 2 == 0);
            }
        });
        let after = c.rate().as_bytes_per_sec();
        assert!(after < before);
        assert!(
            after > before / 2,
            "first-window cut should be mild (alpha small)"
        );
    }
}
