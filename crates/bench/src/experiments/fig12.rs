//! Figure 12: aggregate throughput of CEIO with a 512 B echo workload in
//! RDMA UD mode, varying the total number of flows, with 16 concurrently
//! active senders hopping to random destination queue pairs each time slot.
//!
//! Paper shape to reproduce: stable throughput when the slot is ≥1 ms;
//! for 500 µs and 100 µs slots, a mild decrease from 128 to 1 K flows and a
//! drop toward slow-path performance beyond 1 K flows, because the
//! round-robin re-activation cannot keep up with the churn.
//!
//! Measured: the *mechanism* reproduces (the slow-path share climbs to
//! ~50% as slots shrink to 100 µs, at every population size), while
//! aggregate throughput holds — this model's slow path at 512 B sustains
//! most of the fast path's rate and its arrival-keyed credit recycling
//! re-credits the live destinations within one controller poll, where the
//! paper's BF-3 prototype pays more per slow-path packet at high flow
//! counts (§6.4). Details in EXPERIMENTS.md.

use crate::runner::{run_jobs, run_one, PolicyKind};
use crate::table::{self, Table};
use crate::workloads::{self, AppKind};
use ceio_host::HostConfig;
use ceio_net::{FlowClass, FlowSpec, Scenario};
use ceio_sim::{Bandwidth, Duration, Rng, Time};

const ACTIVE: usize = 16;

/// Build the destination-hopping scenario: `n` UD flows, 16 active per
/// slot, active set re-drawn uniformly each slot.
fn hopping_scenario(
    n: u32,
    slot: Duration,
    horizon: Duration,
    link: Bandwidth,
    seed: u64,
) -> Scenario {
    let per = link.scale(1, ACTIVE as u64);
    let mut s = Scenario::new();
    let mut rng = Rng::seed_from_u64(seed);
    // All flows exist (QPs registered) from t=0; non-targets start paused.
    let mut active: Vec<u32> = (0..n.min(ACTIVE as u32)).collect();
    for i in 0..n {
        let demand = if active.contains(&i) {
            per
        } else {
            Bandwidth::bytes_per_sec(0)
        };
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, demand),
        );
    }
    let mut t = Time::ZERO + slot;
    while t < Time::ZERO + horizon {
        // Retarget: pause the old set, draw and start a new one.
        let mut next: Vec<u32> = Vec::with_capacity(ACTIVE);
        while next.len() < ACTIVE.min(n as usize) {
            let cand = rng.gen_range(n as u64) as u32;
            if !next.contains(&cand) {
                next.push(cand);
            }
        }
        for &old in &active {
            if !next.contains(&old) {
                s.set_demand_at(t, ceio_net::FlowId(old), Bandwidth::bytes_per_sec(0));
            }
        }
        for &new in &next {
            if !active.contains(&new) {
                s.set_demand_at(t, ceio_net::FlowId(new), per);
            }
        }
        active = next;
        t += Duration::nanos(slot.as_nanos());
    }
    s.build()
}

/// Run Figure 12 and return the formatted report.
pub fn run(quick: bool, jobs: usize) -> String {
    let flow_counts: &[u32] = if quick {
        &[16, 512, 2048]
    } else {
        &[16, 128, 512, 1024, 2048, 4096]
    };
    let slots = [
        ("1ms", Duration::millis(1)),
        ("500us", Duration::micros(500)),
        ("100us", Duration::micros(100)),
    ];
    let warmup = Duration::millis(1);
    let measure = if quick {
        Duration::millis(6)
    } else {
        Duration::millis(12)
    };
    let horizon = warmup + measure;

    let points: Vec<(Duration, u32)> = slots
        .iter()
        .flat_map(|&(_, slot)| flow_counts.iter().map(move |&n| (slot, n)))
        .collect();
    let reports = run_jobs(jobs, &points, |&(slot, n)| {
        let host = HostConfig {
            // 16 polling cores serve all UD queue pairs (eRPC-style
            // shared polling), matching the 16 concurrent senders.
            num_cores: Some(ACTIVE),
            ..HostConfig::default()
        };
        let link = host.net.link_bandwidth;
        let scen = hopping_scenario(n, slot, horizon, link, 0xF1612 + n as u64);
        run_one(
            host,
            PolicyKind::Ceio,
            scen,
            workloads::app_factory(AppKind::Echo),
            warmup,
            measure,
        )
    });

    let mut headers: Vec<String> = vec!["flows".into()];
    for (label, _) in &slots {
        headers.push(format!("slot {label} (Mpps)"));
        headers.push(format!("slot {label} slow%"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Figure 12 — CEIO aggregate throughput vs flow count (512B echo, RDMA UD)",
        &hdr_refs,
    );
    for (j, &n) in flow_counts.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for (i, _) in slots.iter().enumerate() {
            let r = &reports[i * flow_counts.len() + j];
            let delivered = (r.involved_mpps * r.measured.as_secs_f64() * 1e6).max(1.0);
            let slow_pct = (r.slow_path_pkts as f64 / delivered * 100.0).min(100.0);
            row.push(table::f(r.involved_mpps, 2));
            row.push(table::f(slow_pct, 0));
        }
        t.row(row);
    }
    t.render()
}
