//! Queue-failure robustness: goodput degrading and recovering across an
//! RSS queue flap.
//!
//! A 4-queue CEIO host (the `queues` experiment's descriptor-issue-bound
//! shard config) runs the Fig. 4 contention workload twice: once
//! fault-free and once through the canned `queue-flap` chaos plan
//! (seeded queue stalls, queue deaths, and link flaps). The watchdog
//! must detect each wedged queue, fail it over — re-steering its flows
//! to the healthy mask and quarantining its credit partition — and
//! recover it once the wedge lifts, with Eq. 1 credit conservation
//! holding throughout. The report shows the degradation (lower fast-path
//! goodput, head-dropped staging backlog) alongside the recovery
//! counters proving the flap was survived rather than merely suffered.

use crate::experiments::queues::sharded_host;
use crate::runner::{run_jobs, run_one_with_plan, AnyPolicy, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind};
use ceio_chaos::FaultPlan;
use ceio_host::{Machine, QueueState, RunReport};

/// Queue count for the flap demo (matches the CI failover smoke).
pub const QUEUES: usize = 4;

/// Chaos seed pinning the flap schedule (and thus the whole run).
pub const SEED: u64 = 42;

/// One measured run of the 4-queue CEIO host, optionally through the
/// canned `queue-flap` plan; returns the report plus the finished
/// simulation so callers can read failover counters and queue states.
pub fn flap_run(
    quick: bool,
    plan: Option<&FaultPlan>,
) -> (RunReport, ceio_sim::Simulation<Machine<AnyPolicy>>) {
    let spans = workloads::spans(quick);
    let host = sharded_host(QUEUES);
    let link = host.net.link_bandwidth;
    run_one_with_plan(
        host,
        PolicyKind::Ceio,
        workloads::involved_flows(16, 512, link),
        workloads::app_factory(AppKind::Kv),
        spans.warmup,
        spans.measure,
        plan,
    )
}

/// Run the fault-free / queue-flap comparison and render the report.
pub fn run(quick: bool, jobs: usize) -> String {
    let mut t = Table::new(
        "Queue failover — 4-queue CEIO across the canned `queue-flap` plan",
        &[
            "run",
            "fast Gbps",
            "slow Gbps",
            "drops",
            "failures",
            "recoveries",
            "resteered",
            "false alarms",
            "healthy at end",
        ],
    );
    let plan =
        FaultPlan::parse("queue-flap", SEED).expect("invariant: the canned queue-flap plan parses");
    let runs = [("fault-free", None), ("queue-flap", Some(plan))];
    let rows = run_jobs(jobs, &runs, |(label, plan)| {
        let (r, sim) = flap_run(quick, plan.as_ref());
        let st = &sim.model.st;
        let healthy = st
            .rxq
            .iter()
            .filter(|q| q.state() == QueueState::Healthy)
            .count();
        vec![
            label.to_string(),
            table::f(r.fast_path_gbps, 2),
            table::f(r.slow_path_gbps, 2),
            r.dropped.to_string(),
            st.failover.failures.to_string(),
            st.failover.recoveries.to_string(),
            st.failover.flows_resteered.to_string(),
            st.failover.false_alarms.to_string(),
            format!("{healthy}/{QUEUES}"),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault-free 4-queue runs never trip the watchdog: every break out
    /// of the pump loop is excused (credit-blocked or rescheduled), so no
    /// queue ever leaves `Healthy` and the failover counters stay zero.
    #[test]
    fn fault_free_run_never_trips_the_watchdog() {
        let (_, sim) = flap_run(true, None);
        let st = &sim.model.st;
        assert_eq!(st.failover.failures, 0);
        assert_eq!(st.failover.suspects, 0);
        assert_eq!(st.failover.false_alarms, 0);
        assert!(st.rxq.iter().all(|q| q.state() == QueueState::Healthy));
    }

    /// The seed-pinned queue-flap plan kills at least one queue, the
    /// watchdog fails it over and brings it back, credit conservation
    /// holds at the end of the run, and the flows keep delivering: a
    /// packet head-dropped at failover gives up its sequence number, so
    /// no flow ends with packets stranded behind a hole.
    #[test]
    fn queue_flap_fails_over_recovers_and_conserves() {
        use ceio_sim::{Duration, Time};

        let plan = FaultPlan::parse("queue-flap", SEED).expect("canned plan");
        let (r, mut sim) = flap_run(true, Some(&plan));
        assert!(
            r.fast_path_gbps > 0.0,
            "the flap must not wedge the fast path"
        );
        let spans = workloads::spans(true);
        let end = Time::ZERO + spans.warmup + spans.measure;
        // Let the senders stop and the pipeline drain: whatever is still
        // in a ring afterwards is stranded behind a hole for good.
        for (_, f) in sim.model.st.flows.iter_mut() {
            f.spec.stop = end;
        }
        sim.run_until(end + Duration::millis(2), u64::MAX);
        let st = &sim.model.st;
        assert!(st.failover.head_dropped_pkts > 0, "{:?}", st.failover);
        for (id, f) in &st.flows {
            assert!(
                !f.ring.has_queued(),
                "flow {} ends with {} packets stranded behind the hole at {}",
                id.0,
                f.ring.ready_len(),
                f.ring.base()
            );
        }
        assert!(
            st.failover.failures >= 1,
            "queue-flap must kill at least one queue: {:?}",
            st.failover
        );
        assert!(
            st.failover.recoveries >= 1,
            "at least one failed queue must return to Healthy: {:?}",
            st.failover
        );
        assert!(
            st.failover.flows_resteered >= 1,
            "failing over a queue must re-steer its flows: {:?}",
            st.failover
        );
        let prom = sim.model.snapshot(end).to_prom_text();
        assert!(
            prom.contains("ceio_credit_conserved 1"),
            "Eq. 1 conservation must hold across the flap"
        );
    }
}
