//! Shared run infrastructure: uniform policy dispatch and a bounded
//! parallel job runner.
//!
//! The host machine is generic over its `IoPolicy`; experiments need to
//! sweep policies in one loop, so [`AnyPolicy`] enum-dispatches the four
//! competitors (plus CEIO variants) behind one concrete type. Simulations
//! stay single-threaded and deterministic; parallelism is across
//! independent runs only.

use ceio_baselines::{HostCcConfig, HostCcPolicy, ShRingConfig, ShRingPolicy, UnmanagedPolicy};
use ceio_chaos::FaultPlan;
use ceio_core::{CeioConfig, CeioPolicy};
use ceio_host::{
    run_to_report, AppFactory, DrainRequest, HostConfig, HostState, IoPolicy, Machine, RunReport,
    SteerDecision,
};
use ceio_net::{FlowId, Packet, Scenario};
use ceio_sim::{Duration, Time};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which policy to instantiate for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Unmanaged legacy datapath.
    Baseline,
    /// Reactive host congestion control.
    HostCc,
    /// Fixed shared receive ring.
    ShRing,
    /// Full CEIO.
    Ceio,
    /// CEIO without the fast/slow-path optimizations (Table 4 ablation).
    CeioNoOpt,
    /// CEIO with zero credits: every packet takes the slow path (Fig. 11).
    CeioSlowOnly,
}

impl PolicyKind {
    /// The four head-to-head competitors of Figs. 4/9/10 and Table 2.
    pub const COMPETITORS: [PolicyKind; 4] = [
        PolicyKind::Baseline,
        PolicyKind::HostCc,
        PolicyKind::ShRing,
        PolicyKind::Ceio,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "Baseline",
            PolicyKind::HostCc => "HostCC",
            PolicyKind::ShRing => "ShRing",
            PolicyKind::Ceio => "CEIO",
            PolicyKind::CeioNoOpt => "CEIO w/o opt",
            PolicyKind::CeioSlowOnly => "CEIO slow path",
        }
    }

    /// Instantiate the policy for a host configuration.
    pub fn build(self, host: &HostConfig) -> AnyPolicy {
        let ceio = CeioConfig {
            credit_total: host.credit_total(),
            // The credit ledger shards over the same RSS queues as the
            // host's DMA pipeline (hierarchical at num_queues > 1).
            num_queues: host.num_queues,
            ..CeioConfig::default()
        };
        match self {
            PolicyKind::Baseline => AnyPolicy::Baseline(UnmanagedPolicy),
            PolicyKind::HostCc => AnyPolicy::HostCc(HostCcPolicy::new(HostCcConfig::default())),
            PolicyKind::ShRing => {
                // ShRing sizes its ring below the DDIO partition (§2.3) —
                // the model-aware partition, so way sweeps resize it too.
                let entries = (host.mem.ddio_partition_bytes() / host.buf_bytes)
                    .saturating_sub(512)
                    .max(64);
                AnyPolicy::ShRing(ShRingPolicy::new(ShRingConfig {
                    entries,
                    mark_threshold: entries * 7 / 8,
                }))
            }
            PolicyKind::Ceio => AnyPolicy::Ceio(Box::new(CeioPolicy::new(ceio))),
            PolicyKind::CeioNoOpt => {
                AnyPolicy::Ceio(Box::new(CeioPolicy::new(ceio.without_optimizations())))
            }
            PolicyKind::CeioSlowOnly => AnyPolicy::Ceio(Box::new(CeioPolicy::new(CeioConfig {
                credit_total: 0,
                ..ceio
            }))),
        }
    }
}

/// Uniform enum dispatch over the policies under test.
pub enum AnyPolicy {
    /// Unmanaged.
    Baseline(UnmanagedPolicy),
    /// HostCC.
    HostCc(HostCcPolicy),
    /// ShRing.
    ShRing(ShRingPolicy),
    /// CEIO (any configuration). Boxed: with its trace and chaos state
    /// the policy is much larger than the other variants, and it is built
    /// once per run, so the indirection is free where it matters.
    Ceio(Box<CeioPolicy>),
}

macro_rules! delegate {
    ($self:ident, $p:ident => $e:expr) => {
        match $self {
            AnyPolicy::Baseline($p) => $e,
            AnyPolicy::HostCc($p) => $e,
            AnyPolicy::ShRing($p) => $e,
            AnyPolicy::Ceio($p) => $e,
        }
    };
}

impl IoPolicy for AnyPolicy {
    fn name(&self) -> &'static str {
        delegate!(self, p => p.name())
    }
    fn on_flow_start(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        delegate!(self, p => p.on_flow_start(st, now, flow))
    }
    fn on_flow_stop(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        delegate!(self, p => p.on_flow_stop(st, now, flow))
    }
    fn steer(&mut self, st: &mut HostState, now: Time, pkt: &Packet) -> SteerDecision {
        delegate!(self, p => p.steer(st, now, pkt))
    }
    fn on_fast_drop(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        delegate!(self, p => p.on_fast_drop(st, now, flow))
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
        delegate!(self, p => p.on_batch_consumed(st, now, flow, fast, slow, msgs))
    }
    fn on_driver_poll(&mut self, st: &mut HostState, now: Time, flow: FlowId) -> DrainRequest {
        delegate!(self, p => p.on_driver_poll(st, now, flow))
    }
    fn on_slow_arrived(&mut self, st: &mut HostState, now: Time, flow: FlowId, pkts: u32) {
        delegate!(self, p => p.on_slow_arrived(st, now, flow, pkts))
    }
    fn on_controller_poll(&mut self, st: &mut HostState, now: Time) {
        delegate!(self, p => p.on_controller_poll(st, now))
    }
    fn controller_interval(&self) -> Option<Duration> {
        delegate!(self, p => p.controller_interval())
    }
    fn on_queue_failed(&mut self, st: &mut HostState, now: Time, queue: ceio_nic::QueueId) {
        delegate!(self, p => p.on_queue_failed(st, now, queue))
    }
    fn on_queue_recovered(&mut self, st: &mut HostState, now: Time, queue: ceio_nic::QueueId) {
        delegate!(self, p => p.on_queue_recovered(st, now, queue))
    }
    fn fill_metrics(&self, out: &mut ceio_telemetry::SnapshotBuilder) {
        delegate!(self, p => p.fill_metrics(out))
    }
    fn scope_register(&self, rec: &mut ceio_telemetry::FlightRecorder) {
        delegate!(self, p => p.scope_register(rec))
    }
    fn scope_sample(&self, rec: &mut ceio_telemetry::FlightRecorder, now: Time) {
        delegate!(self, p => p.scope_sample(rec, now))
    }
    fn arm_trace(&mut self, cap: usize) {
        delegate!(self, p => p.arm_trace(cap))
    }
    fn arm_chaos(&mut self, st: &mut HostState, plan: &ceio_chaos::FaultPlan) {
        delegate!(self, p => p.arm_chaos(st, plan))
    }
    fn take_trace(&mut self) -> (Vec<ceio_telemetry::TraceEvent>, u64) {
        delegate!(self, p => p.take_trace())
    }
}

/// One experiment run: build the machine, warm up, measure, report.
pub fn run_one(
    host: HostConfig,
    kind: PolicyKind,
    scenario: Scenario,
    factory: AppFactory,
    warmup: Duration,
    measure: Duration,
) -> RunReport {
    run_one_with_plan(host, kind, scenario, factory, warmup, measure, None).0
}

/// [`run_one`] with an optional fault plan armed, returning the finished
/// simulation as well, so callers can read failover state, snapshot
/// metrics, or count injected faults after the run.
pub fn run_one_with_plan(
    host: HostConfig,
    kind: PolicyKind,
    scenario: Scenario,
    factory: AppFactory,
    warmup: Duration,
    measure: Duration,
    plan: Option<&FaultPlan>,
) -> (RunReport, ceio_sim::Simulation<Machine<AnyPolicy>>) {
    let policy = kind.build(&host);
    let mut sim = Machine::build(host, policy, scenario, factory);
    if let Some(p) = plan {
        // The free function also schedules the queue-health watchdog when
        // the plan carries a queue-level fault site.
        ceio_host::arm_chaos(&mut sim, p);
    }
    let mut report = run_to_report(&mut sim, warmup, measure);
    report.policy = kind.name().to_string();
    (report, sim)
}

/// Render a report's measurement time series as the `ceio-trace` CSV
/// document (shared by the CLI and the determinism tests so "byte
/// identical CSV" means the real output format).
pub fn series_csv(report: &RunReport) -> String {
    let mut csv =
        String::from("t_ms,involved_mpps,bypass_gbps,llc_miss_rate,fast_gbps,slow_gbps,drops\n");
    let series = [
        &report.involved_mpps_series,
        &report.bypass_gbps_series,
        &report.miss_series,
        &report.fast_gbps_series,
        &report.slow_gbps_series,
        &report.drops_series,
    ];
    let n = series.iter().map(|s| s.points.len()).min().unwrap_or(0);
    for i in 0..n {
        let (t, mpps) = series[0].points[i];
        let (_, gbps) = series[1].points[i];
        let (_, miss) = series[2].points[i];
        let (_, fast) = series[3].points[i];
        let (_, slow) = series[4].points[i];
        let (_, drops) = series[5].points[i];
        csv.push_str(&format!(
            "{:.3},{:.4},{:.4},{:.4},{:.4},{:.4},{:.0}\n",
            t.as_millis_f64(),
            mpps,
            gbps,
            miss,
            fast,
            slow,
            drops
        ));
    }
    csv
}

/// Run `job` over every point on at most `width` worker threads and
/// return the results in point order. Workers pull point indices from one
/// shared counter, so a slow point never idles a worker that could take
/// the next one; every width, 1 included, runs through the same code.
/// Each job builds and runs its own simulation, so results do not depend
/// on `width` or on which worker ran a point.
pub fn run_jobs<I: Sync, T: Send>(
    width: usize,
    points: &[I],
    job: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..width.max(1).min(points.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // The counter only hands out indices (each once,
                        // by the atomic add); results travel back through
                        // the join, so no ordering beyond Relaxed is needed.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(point) = points.get(i) else {
                            return out;
                        };
                        out.push((i, job(point)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceio_net::{FlowClass, FlowSpec};
    use ceio_sim::Bandwidth;

    fn tiny_scenario() -> Scenario {
        let mut s = Scenario::new();
        s.start_at(
            Time::ZERO,
            FlowSpec::new(0, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(5)),
        );
        s.build()
    }

    fn echo_factory() -> AppFactory {
        Box::new(|_| Box::new(ceio_apps::EchoApp::new()))
    }

    #[test]
    fn all_policy_kinds_build_and_run() {
        for kind in [
            PolicyKind::Baseline,
            PolicyKind::HostCc,
            PolicyKind::ShRing,
            PolicyKind::Ceio,
            PolicyKind::CeioNoOpt,
            PolicyKind::CeioSlowOnly,
        ] {
            let r = run_one(
                HostConfig::default(),
                kind,
                tiny_scenario(),
                echo_factory(),
                Duration::millis(1),
                Duration::millis(2),
            );
            assert_eq!(r.policy, kind.name());
            assert!(r.involved_mpps > 0.0, "{}: no delivery", kind.name());
        }
    }

    #[test]
    fn slow_only_ceio_uses_slow_path_exclusively() {
        let r = run_one(
            HostConfig::default(),
            PolicyKind::CeioSlowOnly,
            tiny_scenario(),
            echo_factory(),
            Duration::millis(1),
            Duration::millis(2),
        );
        assert!(r.slow_path_pkts > 0);
        assert!(r.fast_path_gbps < 1e-9);
    }

    #[test]
    fn run_jobs_keeps_job_order_on_width_threads() {
        let points: Vec<usize> = (0..16).collect();
        for width in [1, 3] {
            // The first `width` jobs meet at a barrier, so each holds its
            // worker until all of them run: they run on `width` distinct
            // threads, and every worker's results interleave with the
            // others' in job order.
            let barrier = std::sync::Barrier::new(width);
            let out = run_jobs(width, &points, |&i| {
                if i < width {
                    barrier.wait();
                }
                (i * i, std::thread::current().id())
            });
            let squares: Vec<usize> = out.iter().map(|&(sq, _)| sq).collect();
            assert_eq!(squares, points.iter().map(|i| i * i).collect::<Vec<_>>());
            let threads: std::collections::HashSet<_> = out.iter().map(|&(_, id)| id).collect();
            assert_eq!(
                threads.len(),
                width,
                "width {width} used another thread count"
            );
            assert!(!threads.contains(&std::thread::current().id()));
        }
        assert!(run_jobs(2, &[] as &[u64], |&i| i).is_empty());
    }
}
