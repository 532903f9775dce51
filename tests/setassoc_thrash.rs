//! Golden pin for the set-associative LLC under thrash: the unmanaged
//! baseline on a 16 MiB, 12-way LLC whose DDIO partition is 4 ways, with
//! the application antagonist filling the other 8. Eight KV flows offer
//! 70% of line rate, so the partition fills within the warmup and every
//! DMA write after that evicts an unconsumed buffer; by the end of the run
//! the antagonist has filled most sets' own ways and is recycling them.
//!
//! The golden file pins every report scalar and per-window series value
//! exactly (floats by their shortest round-trip representation), the
//! engine's dispatch count, every `LlcStats` field, the resident set and
//! the per-way I/O and antagonist line gauges. It was captured before the
//! slab-indexed slot layout and the antagonist FIFO landed, so any drift
//! means a change to the cache model altered observable behaviour. When a
//! change is intentional, regenerate with
//!
//! ```text
//! CEIO_GOLDEN_REGEN=1 cargo test --test setassoc_thrash
//! ```
//!
//! and review the diff like any other code change.

mod common;

use ceio::apps::{KvConfig, KvStore};
use ceio::host::{run_to_report, HostConfig, Machine, UnmanagedPolicy};
use ceio::mem::LlcModelKind;
use ceio::net::{FlowClass, FlowSpec, Scenario};
use ceio::sim::{Duration, Time};
use std::fmt::Write as _;

const FLOWS: u32 = 8;
const WARMUP: Duration = Duration::micros(1200);
const MEASURE: Duration = Duration::micros(400);
const SEED: u64 = 0xCE10;

/// The way-partitioned host: 16 MiB / 12 ways, 4 of them DDIO-reachable.
fn way_host() -> HostConfig {
    let mut host = HostConfig {
        ring_entries: 16384,
        sample_window: Duration::micros(100),
        seed: SEED,
        ..HostConfig::default()
    };
    host.mem.llc_model = LlcModelKind::SetAssoc;
    host.mem.llc_total_bytes = 16 << 20;
    host.mem.ddio_ways = 4;
    host
}

/// Run the thrash scenario once; returns the rendered pin.
fn run_thrash() -> String {
    let host = way_host();
    let per = host.net.link_bandwidth.scale(7, 10 * u64::from(FLOWS));
    let mut s = Scenario::new();
    for i in 0..FLOWS {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, per),
        );
    }
    let mut sim = Machine::build(
        host,
        UnmanagedPolicy,
        s.build(),
        Box::new(|_| Box::new(KvStore::new(KvConfig::default()))),
    );
    let report = run_to_report(&mut sim, WARMUP, MEASURE);
    let mut out = common::render(&report, sim.events_processed());
    let llc = &sim.model.st.memctrl.llc;
    let st = llc.stats();
    for (name, v) in [
        ("insertions", st.insertions),
        ("hits", st.hits),
        ("misses", st.misses),
        ("evictions", st.evictions),
        ("evicted_bytes", st.evicted_bytes),
        ("bypasses", st.bypasses),
        ("over_capacity_events", st.over_capacity_events),
        ("app_evictions", st.app_evictions),
        ("eviction_age_sum", st.eviction_age_sum),
    ] {
        let _ = writeln!(out, "llc.{name} {v}");
    }
    let _ = writeln!(out, "llc.occupancy {}", llc.occupancy());
    let _ = writeln!(out, "llc.resident_count {}", llc.resident_count());
    let ways = llc
        .way_occupancy()
        .expect("the set-associative model reports way geometry");
    let _ = writeln!(out, "llc.way_io_lines {:?}", ways.io_lines);
    let _ = writeln!(out, "llc.way_app_lines {:?}", ways.app_lines);
    out
}

#[test]
fn setassoc_thrash_matches_golden_and_is_deterministic() {
    let actual = run_thrash();
    assert_eq!(
        actual,
        run_thrash(),
        "two runs of the same configuration must agree byte-for-byte"
    );
    assert!(
        actual
            .lines()
            .any(|l| l.starts_with("llc.evictions ") && l != "llc.evictions 0"),
        "the thrash run must evict"
    );

    common::assert_matches_golden(
        "setassoc_thrash_baseline.txt",
        &actual,
        "the set-associative thrash run",
    );
}
