//! An oracle upper bound: the steering CEIO *infers* from network
//! behaviour, granted by fiat.
//!
//! The oracle reads each flow's ground-truth class (which no deployable
//! NIC policy can see, §3: tagging raises fairness/security concerns and
//! burdens developers): CPU-involved flows get the whole LLC credit
//! budget, CPU-bypass flows are parked on the elastic slow path outright.
//! The gap between CEIO and the oracle is the cost of *inference* — lazy
//! release plus message-size classification versus perfect knowledge.

use crate::UnmanagedPolicy;
use ceio_core::{CeioConfig, CeioPolicy};
use ceio_host::{DrainRequest, HostState, IoPolicy, SteerDecision};
use ceio_net::{FlowClass, FlowId, Packet};
use ceio_sim::{Duration, Time};

/// The oracle policy: CEIO's machinery, ground-truth steering.
pub struct OraclePolicy {
    inner: CeioPolicy,
}

impl OraclePolicy {
    /// An oracle with CEIO's credit sizing.
    pub fn new(cfg: CeioConfig) -> OraclePolicy {
        OraclePolicy {
            inner: CeioPolicy::new(cfg),
        }
    }
}

impl IoPolicy for OraclePolicy {
    fn name(&self) -> &'static str {
        "Oracle"
    }

    fn on_flow_start(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        self.inner.on_flow_start(st, now, flow);
    }

    fn on_flow_stop(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        self.inner.on_flow_stop(st, now, flow);
    }

    fn steer(&mut self, st: &mut HostState, now: Time, pkt: &Packet) -> SteerDecision {
        // Ground truth the paper's controller must infer: bypass flows go
        // straight to the elastic buffer, involved flows get the credits.
        let class = st.flows.get(&pkt.flow).map(|f| f.spec.class);
        match class {
            Some(FlowClass::CpuBypass) => {
                let slow_len = st
                    .flows
                    .get(&pkt.flow)
                    .map(|f| f.ring.parked_len())
                    .unwrap_or(0);
                SteerDecision::SlowPath {
                    mark: slow_len > 32,
                }
            }
            Some(FlowClass::CpuInvolved) => self.inner.steer(st, now, pkt),
            None => SteerDecision::Drop { loss: false },
        }
    }

    fn on_fast_drop(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        self.inner.on_fast_drop(st, now, flow);
    }

    fn on_batch_consumed(
        &mut self,
        st: &mut HostState,
        now: Time,
        flow: FlowId,
        fast: u32,
        slow: u32,
        msgs: u32,
    ) {
        self.inner
            .on_batch_consumed(st, now, flow, fast, slow, msgs);
    }

    fn on_driver_poll(&mut self, st: &mut HostState, now: Time, flow: FlowId) -> DrainRequest {
        self.inner.on_driver_poll(st, now, flow)
    }

    fn on_slow_arrived(&mut self, st: &mut HostState, now: Time, flow: FlowId, pkts: u32) {
        self.inner.on_slow_arrived(st, now, flow, pkts);
    }

    fn on_controller_poll(&mut self, st: &mut HostState, now: Time) {
        self.inner.on_controller_poll(st, now);
    }

    fn controller_interval(&self) -> Option<Duration> {
        self.inner.controller_interval()
    }
}

/// Re-exported for discoverability next to the other references.
pub type Baseline = UnmanagedPolicy;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_wraps_ceio() {
        let o = OraclePolicy::new(CeioConfig::default());
        assert_eq!(o.name(), "Oracle");
        assert!(o.controller_interval().is_some());
    }
}
