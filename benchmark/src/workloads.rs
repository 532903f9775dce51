//! The four benchmark workloads, built through the simulator's public APIs.
//!
//! Each workload loads a different layer of the simulated host, so an
//! optimisation aimed at one layer has a workload that exercises it and
//! one that bypasses it (see README.md for the full map). Horizons are
//! sized so that one repetition takes 1 to 2 s of host time on a small
//! CPU box: a run repeats the workload for its time budget and reports
//! medians.

use ceio_bench::experiments::{ddio, queues};
use ceio_bench::workloads::{self as paper, AppKind, Transport};
use ceio_bench::{AnyPolicy, PolicyKind};
use ceio_host::{AppFactory, HostConfig, Machine};
use ceio_net::{FlowClass, FlowId, FlowSpec, Scenario};
use ceio_sim::{Bandwidth, Duration, Rng, Simulation, Time};

/// The simulation every workload builds.
pub type Sim = Simulation<Machine<AnyPolicy>>;

/// Default workload seed (the simulator's own default `HostConfig::seed`).
pub const DEFAULT_SEED: u64 = 0xCE10;

/// Everything `Machine::build` needs besides the policy, before the seed
/// is applied.
type Spec = (HostConfig, Scenario, AppFactory);

/// One benchmark workload: a fixed scenario, policy and horizon.
#[derive(Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in every output.
    pub name: &'static str,
    /// The I/O policy under test.
    pub policy: PolicyKind,
    /// Warmup excluded from the report (the modelled caches fill here).
    pub warmup: Duration,
    /// Measured span after the warmup.
    pub measure: Duration,
    spec: fn(u64, Duration) -> Spec,
}

/// All workloads, in the order a full run executes them.
pub const WORKLOADS: [Workload; 4] = [
    // The paper's headline datapath: per-packet handlers plus the engine,
    // nothing that scans many flows.
    Workload {
        name: "kv_ceio",
        policy: PolicyKind::Ceio,
        warmup: Duration::millis(2),
        measure: Duration::millis(16),
        spec: kv_ceio,
    },
    // The `mem` layer used the opposite way: every DMA write evicts, with
    // DRAM traffic and drops, and no policy controller runs. The cold LLC
    // makes the first ~9 ms costlier per slice, so the warmup covers it.
    Workload {
        name: "thrash_setassoc",
        policy: PolicyKind::Baseline,
        warmup: Duration::millis(12),
        measure: Duration::millis(12),
        spec: thrash_setassoc,
    },
    // Fig. 12 churn: 1024 flows, per-flow scans and thousands of demand
    // steps; CPU polls dominate.
    Workload {
        name: "fig12_churn",
        policy: PolicyKind::Ceio,
        warmup: Duration::millis(1),
        measure: Duration::millis(1),
        spec: fig12_churn,
    },
    // §2.3 dynamic distribution over 4 RSS queues: multi-queue pump,
    // sharded credits, flow stop/start and heavy slow-path traffic.
    Workload {
        name: "mixed_q4_dynamic",
        policy: PolicyKind::Ceio,
        warmup: Duration::millis(2),
        measure: Duration::millis(40),
        spec: mixed_q4_dynamic,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// End of the measured span (warmup + measure).
    pub fn horizon(&self) -> Time {
        Time::ZERO + self.warmup + self.measure
    }

    /// The same workload with both spans divided by `div` (for tests).
    pub fn shortened(&self, div: u64) -> Workload {
        Workload {
            warmup: self.warmup.div(div),
            measure: self.measure.div(div),
            ..*self
        }
    }

    /// CEIO workloads carry the credit-conservation check.
    pub fn is_ceio(&self) -> bool {
        self.policy == PolicyKind::Ceio
    }

    /// Generate the inputs from `seed` and build a ready-to-run simulation.
    pub fn build(&self, seed: u64) -> Sim {
        let (mut host, scenario, apps) = (self.spec)(seed, self.warmup + self.measure);
        host.seed = seed;
        let policy = self.policy.build(&host);
        Machine::build(host, policy, scenario, apps)
    }
}

fn kv_ceio(_seed: u64, _horizon: Duration) -> Spec {
    let host = paper::contended_host(Transport::Dpdk);
    let link = host.net.link_bandwidth;
    (
        host,
        paper::involved_flows(16, 512, link),
        paper::app_factory(AppKind::Kv),
    )
}

fn thrash_setassoc(_seed: u64, _horizon: Duration) -> Spec {
    // 16 MiB / 12-way LLC with 4 DDIO ways and the application antagonist.
    let host = ddio::way_host(4);
    let link = host.net.link_bandwidth;
    (
        host,
        paper::involved_flows(8, 512, link.scale(7, 10)),
        paper::app_factory(AppKind::Kv),
    )
}

/// Flows in the Fig. 12 churn workload.
const CHURN_FLOWS: u32 = 1024;
/// Concurrently active senders (and shared polling cores) in Fig. 12.
const CHURN_ACTIVE: usize = 16;
/// Time slot after which every active sender hops to a new destination.
const CHURN_SLOT: Duration = Duration::micros(100);

fn fig12_churn(seed: u64, horizon: Duration) -> Spec {
    let host = HostConfig {
        num_cores: Some(CHURN_ACTIVE),
        ..HostConfig::default()
    };
    let link = host.net.link_bandwidth;
    (
        host,
        hopping_scenario(CHURN_FLOWS, CHURN_SLOT, horizon, link, seed),
        paper::app_factory(AppKind::Echo),
    )
}

/// The Fig. 12 destination-hopping scenario: `n` UD flows, 16 active per
/// slot, the active set re-drawn uniformly from `seed` each slot. Same
/// generator as the `fig12` experiment, which keeps its own private.
fn hopping_scenario(
    n: u32,
    slot: Duration,
    horizon: Duration,
    link: Bandwidth,
    seed: u64,
) -> Scenario {
    let per = link.scale(1, CHURN_ACTIVE as u64);
    let idle = Bandwidth::bytes_per_sec(0);
    let mut s = Scenario::new();
    let mut rng = Rng::seed_from_u64(seed);
    // All flows exist (QPs registered) from t=0; non-targets start paused.
    let mut active: Vec<u32> = (0..n.min(CHURN_ACTIVE as u32)).collect();
    for i in 0..n {
        let demand = if active.contains(&i) { per } else { idle };
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, demand),
        );
    }
    let mut t = Time::ZERO + slot;
    while t < Time::ZERO + horizon {
        let mut next: Vec<u32> = Vec::with_capacity(CHURN_ACTIVE);
        while next.len() < CHURN_ACTIVE.min(n as usize) {
            let cand = rng.gen_range(n as u64) as u32;
            if !next.contains(&cand) {
                next.push(cand);
            }
        }
        for &old in &active {
            if !next.contains(&old) {
                s.set_demand_at(t, FlowId(old), idle);
            }
        }
        for &new in &next {
            if !active.contains(&new) {
                s.set_demand_at(t, FlowId(new), per);
            }
        }
        active = next;
        t += slot;
    }
    s.build()
}

/// Phase after which two KV flows are replaced by LineFS flows.
const MIXED_PHASE: Duration = Duration::millis(8);

fn mixed_q4_dynamic(_seed: u64, horizon: Duration) -> Spec {
    let host = queues::sharded_host(4);
    let link = host.net.link_bandwidth;
    let phases = (horizon.as_nanos() / MIXED_PHASE.as_nanos()) as u32;
    (
        host,
        paper::dynamic_distribution(MIXED_PHASE, phases, link),
        paper::app_factory(AppKind::Mixed),
    )
}
