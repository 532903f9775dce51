//! HostCC: reactive host congestion control (Agarwal et al., SIGCOMM'23).
//!
//! Deployed as a kernel module, HostCC samples host congestion signals —
//! IIO buffer occupancy and PCIe bandwidth headroom — at millisecond-free,
//! but still *reactive*, granularity. On congestion it (a) paces the NIC's
//! DMA engine down and (b) triggers the network CCA (DCTCP) by echoing
//! congestion to senders; when the signal clears it releases the throttle
//! multiplicatively.
//!
//! The model preserves the paper's critique (§2.3): the IIO occupancy only
//! rises *after* DDIO evictions have begun saturating DRAM — i.e. after
//! the LLC is already thrashing — so every reaction arrives a detection
//! interval late and the misses in that window are unavoidable.

use ceio_host::{HostState, IoPolicy, SteerDecision};
use ceio_net::{FlowId, Packet};
use ceio_sim::{Bandwidth, Duration, Time};

/// HostCC tuning.
#[derive(Debug, Clone)]
pub struct HostCcConfig {
    /// Signal sampling period of the kernel module. HostCC's reaction can
    /// never be faster than this (its "slow response").
    pub detect_interval: Duration,
    /// IIO occupancy fraction above which congestion is declared.
    pub iio_high: f64,
    /// IIO occupancy fraction below which congestion is cleared.
    pub iio_low: f64,
    /// Sampled-window LLC miss rate above which congestion is declared.
    /// §2.3: HostCC "is triggered by LLC misses because it relies on LLC
    /// congestion signals" — by definition the misses have happened by the
    /// time this fires.
    pub miss_high: f64,
    /// Sampled-window LLC miss rate below which congestion is cleared.
    pub miss_low: f64,
    /// Initial DMA pace installed on first congestion (fraction applied to
    /// the link rate is taken from the host config at runtime).
    pub pace_floor: Bandwidth,
    /// Multiplicative decrease applied to the pace per congested sample
    /// (numerator/denominator).
    pub decrease: (u64, u64),
    /// Multiplicative increase applied per clear sample.
    pub increase: (u64, u64),
}

impl Default for HostCcConfig {
    fn default() -> Self {
        HostCcConfig {
            detect_interval: Duration::micros(50),
            iio_high: 0.50,
            iio_low: 0.10,
            miss_high: 0.05,
            miss_low: 0.01,
            pace_floor: Bandwidth::gbps(40),
            decrease: (4, 5),
            increase: (21, 20),
        }
    }
}

/// HostCC statistics.
#[derive(Debug, Default, Clone)]
pub struct HostCcStats {
    /// Samples that found congestion.
    pub congested_samples: u64,
    /// Samples that found the signal clear.
    pub clear_samples: u64,
    /// Transitions into the congested state.
    pub congestion_events: u64,
}

/// The HostCC policy.
pub struct HostCcPolicy {
    cfg: HostCcConfig,
    congested: bool,
    pace: Option<Bandwidth>,
    last_hits: u64,
    last_misses: u64,
    stats: HostCcStats,
}

impl HostCcPolicy {
    /// A HostCC controller with the given tuning.
    pub fn new(cfg: HostCcConfig) -> HostCcPolicy {
        HostCcPolicy {
            cfg,
            congested: false,
            pace: None,
            last_hits: 0,
            last_misses: 0,
            stats: HostCcStats::default(),
        }
    }

    /// Whether HostCC currently judges the host congested.
    pub fn congested(&self) -> bool {
        self.congested
    }

    /// The currently installed DMA pace, if any.
    pub fn pace(&self) -> Option<Bandwidth> {
        self.pace
    }

    /// Read-only statistics.
    pub fn stats(&self) -> &HostCcStats {
        &self.stats
    }
}

impl IoPolicy for HostCcPolicy {
    fn name(&self) -> &'static str {
        "HostCC"
    }

    fn on_flow_start(&mut self, _: &mut HostState, _: Time, _: FlowId) {}
    fn on_flow_stop(&mut self, _: &mut HostState, _: Time, _: FlowId) {}

    fn steer(&mut self, _st: &mut HostState, _now: Time, _pkt: &Packet) -> SteerDecision {
        // No slow path: everything goes to the legacy datapath. While the
        // module judges the host congested, it triggers the network CCA by
        // echoing congestion marks to the senders.
        SteerDecision::FastPath {
            mark: self.congested,
        }
    }

    fn on_batch_consumed(&mut self, _: &mut HostState, _: Time, _: FlowId, _: u32, _: u32, _: u32) {
    }

    fn on_controller_poll(&mut self, st: &mut HostState, _now: Time) {
        let occ = st.iio_fraction();
        // Sample the LLC miss rate over the last detection window. The
        // stats surface is the `Llc` enum's, so the signal is
        // model-agnostic: pool and set-associative runs feed HostCC the
        // same windowed hit/miss deltas.
        let s = st.memctrl.llc.stats();
        let (dh, dm) = (s.hits - self.last_hits, s.misses - self.last_misses);
        self.last_hits = s.hits;
        self.last_misses = s.misses;
        let miss_rate = if dh + dm == 0 {
            0.0
        } else {
            dm as f64 / (dh + dm) as f64
        };
        if occ > self.cfg.iio_high || miss_rate > self.cfg.miss_high {
            if !self.congested {
                self.congested = true;
                self.stats.congestion_events += 1;
            }
            self.stats.congested_samples += 1;
            // Tighten the DMA pace (PCIe-credit / processing-time knob).
            let current = self
                .pace
                .unwrap_or(st.cfg.net.link_bandwidth)
                .scale(self.cfg.decrease.0, self.cfg.decrease.1);
            let floored = if current < self.cfg.pace_floor {
                self.cfg.pace_floor
            } else {
                current
            };
            self.pace = Some(floored);
            st.set_dma_pace(self.pace);
        } else if occ < self.cfg.iio_low && miss_rate < self.cfg.miss_low {
            self.stats.clear_samples += 1;
            self.congested = false;
            // Release the throttle multiplicatively; drop it entirely once
            // it exceeds the link rate.
            if let Some(p) = self.pace {
                let raised = p.scale(self.cfg.increase.0, self.cfg.increase.1);
                self.pace = if raised >= st.cfg.net.link_bandwidth {
                    None
                } else {
                    Some(raised)
                };
                st.set_dma_pace(self.pace);
            }
        }
    }

    fn controller_interval(&self) -> Option<Duration> {
        Some(self.cfg.detect_interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_reactive_scale() {
        let c = HostCcConfig::default();
        // Detection is an order of magnitude slower than CEIO's proactive
        // per-packet admission (which needs no detection at all).
        assert!(c.detect_interval >= Duration::micros(20));
        assert!(c.iio_high > c.iio_low);
    }

    #[test]
    fn policy_starts_clear() {
        let p = HostCcPolicy::new(HostCcConfig::default());
        assert!(!p.congested());
        assert!(p.pace().is_none());
    }
}
