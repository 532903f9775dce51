//! Time-scripted flow churn: the paper's dynamic network conditions.
//!
//! Two canonical scenarios drive Figs. 4 and 10:
//!
//! * **Dynamic flow distribution** (§2.3): eRPC starts with eight
//!   CPU-involved flows; every phase, two of them are replaced with
//!   CPU-bypass flows handled by LineFS.
//! * **Network burst** (§2.3): eight CPU-involved flows run throughout;
//!   every phase, two additional burst CPU-involved flows arrive.
//!
//! Wall-clock phases are 10 s in the paper; the simulation scales them down
//! (default 20 ms) — every control loop in the system operates at µs scale,
//! so phase length only controls how long each regime is observed.

use crate::flow::{FlowClass, FlowId, FlowSpec};
use ceio_sim::{Bandwidth, Time};

/// One scripted change to the set of active flows.
#[derive(Debug, Clone)]
pub enum ScenarioEvent {
    /// Begin a new flow.
    Start(FlowSpec),
    /// Terminate an existing flow.
    Stop(FlowId),
    /// Retarget a sender: change the flow's demanded rate in place (zero
    /// pauses emission). Models the Fig. 12 clients hopping across
    /// destination queue pairs without tearing connections down.
    SetDemand(FlowId, Bandwidth),
}

/// A full scripted scenario: initial flows plus timed events.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// Timed events, sorted by time.
    pub events: Vec<(Time, ScenarioEvent)>,
}

impl Scenario {
    /// An empty scenario.
    pub fn new() -> Scenario {
        Scenario::default()
    }

    /// Add a flow starting at `at`.
    pub fn start_at(&mut self, at: Time, spec: FlowSpec) -> &mut Self {
        self.events.push((at, ScenarioEvent::Start(spec)));
        self
    }

    /// Stop a flow at `at`.
    pub fn stop_at(&mut self, at: Time, id: FlowId) -> &mut Self {
        self.events.push((at, ScenarioEvent::Stop(id)));
        self
    }

    /// Change a flow's demand at `at` (zero pauses it).
    pub fn set_demand_at(&mut self, at: Time, id: FlowId, demand: Bandwidth) -> &mut Self {
        self.events.push((at, ScenarioEvent::SetDemand(id, demand)));
        self
    }

    /// Sort events chronologically (stable, preserving insertion order for
    /// equal times) and return the finished scenario.
    pub fn build(mut self) -> Scenario {
        self.events.sort_by_key(|(t, _)| *t);
        self
    }

    /// Highest event time (scenario horizon hint).
    pub fn last_event_time(&self) -> Time {
        self.events
            .iter()
            .map(|(t, _)| *t)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// §2.3 dynamic flow distribution: `initial` CPU-involved flows; every
    /// `phase`, `per_phase` of them are replaced with CPU-bypass flows.
    ///
    /// `involved_pkt`/`bypass_pkt` are packet sizes; bypass flows use long
    /// messages (`bypass_msg_packets`), involved flows single-packet
    /// messages. Per-flow demand splits the link `demand` evenly over the
    /// initial population (clients saturate the receiver, §6.1).
    #[allow(clippy::too_many_arguments)]
    pub fn dynamic_distribution(
        initial: u32,
        per_phase: u32,
        phases: u32,
        phase: ceio_sim::Duration,
        involved_pkt: u64,
        bypass_pkt: u64,
        bypass_msg_packets: u32,
        demand: Bandwidth,
    ) -> Scenario {
        let per_flow = demand.scale(1, initial as u64);
        let mut s = Scenario::new();
        for i in 0..initial {
            s.start_at(
                Time::ZERO,
                FlowSpec::new(i, FlowClass::CpuInvolved, involved_pkt, 1, per_flow),
            );
        }
        let mut next_id = initial;
        for p in 0..phases {
            let at = Time::ZERO + phase.saturating_mul(p as u64 + 1);
            for r in 0..per_phase {
                let victim = p * per_phase + r;
                if victim >= initial {
                    break;
                }
                s.stop_at(at, FlowId(victim));
                s.start_at(
                    at,
                    FlowSpec::new(
                        next_id,
                        FlowClass::CpuBypass,
                        bypass_pkt,
                        bypass_msg_packets,
                        per_flow,
                    ),
                );
                next_id += 1;
            }
        }
        s.build()
    }

    /// §2.3 network burst: `initial` CPU-involved flows run throughout;
    /// every `phase`, `per_phase` extra CPU-involved burst flows arrive
    /// (and persist, intensifying contention phase over phase).
    pub fn network_burst(
        initial: u32,
        per_phase: u32,
        phases: u32,
        phase: ceio_sim::Duration,
        involved_pkt: u64,
        demand: Bandwidth,
    ) -> Scenario {
        let per_flow = demand.scale(1, initial as u64);
        let mut s = Scenario::new();
        for i in 0..initial {
            s.start_at(
                Time::ZERO,
                FlowSpec::new(i, FlowClass::CpuInvolved, involved_pkt, 1, per_flow),
            );
        }
        let mut next_id = initial;
        for p in 0..phases {
            let at = Time::ZERO + phase.saturating_mul(p as u64 + 1);
            for _ in 0..per_phase {
                s.start_at(
                    at,
                    FlowSpec::new(next_id, FlowClass::CpuInvolved, involved_pkt, 1, per_flow),
                );
                next_id += 1;
            }
        }
        s.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceio_sim::Duration;

    #[test]
    fn dynamic_distribution_replaces_flows() {
        let s = Scenario::dynamic_distribution(
            8,
            2,
            3,
            Duration::millis(20),
            512,
            1024,
            256,
            Bandwidth::gbps(200),
        );
        let starts = s
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ScenarioEvent::Start(_)))
            .count();
        let stops = s
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ScenarioEvent::Stop(_)))
            .count();
        assert_eq!(starts, 8 + 6);
        assert_eq!(stops, 6);
        // Events sorted by time.
        assert!(s.events.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(s.last_event_time(), Time::ZERO + Duration::millis(60));
    }

    #[test]
    fn replacement_flows_are_bypass_with_long_messages() {
        let s = Scenario::dynamic_distribution(
            4,
            2,
            1,
            Duration::millis(10),
            512,
            1024,
            128,
            Bandwidth::gbps(200),
        );
        let bypass: Vec<&FlowSpec> = s
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                ScenarioEvent::Start(spec) if spec.class == FlowClass::CpuBypass => Some(spec),
                _ => None,
            })
            .collect();
        assert_eq!(bypass.len(), 2);
        assert!(bypass.iter().all(|f| f.msg_packets == 128));
    }

    #[test]
    fn burst_only_adds_flows() {
        let s = Scenario::network_burst(8, 2, 2, Duration::millis(20), 512, Bandwidth::gbps(200));
        assert!(s
            .events
            .iter()
            .all(|(_, e)| matches!(e, ScenarioEvent::Start(_))));
        assert_eq!(s.events.len(), 8 + 4);
    }

    #[test]
    fn per_flow_demand_splits_link() {
        let s = Scenario::network_burst(8, 2, 1, Duration::millis(20), 512, Bandwidth::gbps(200));
        if let (_, ScenarioEvent::Start(spec)) = &s.events[0] {
            assert_eq!(
                spec.demand.as_bytes_per_sec(),
                Bandwidth::gbps(25).as_bytes_per_sec()
            );
        } else {
            panic!("first event should be a start");
        }
    }
}
