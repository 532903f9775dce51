//! Allocation-count pins for machine set-up.
//!
//! Building a machine — host configuration, scenario, policy and
//! `Machine::build` — is what the end-to-end benchmark times as set-up,
//! and its figure there is a few microseconds, too small to read a change
//! from. The number of heap allocations is exact, so this test pins it
//! for the `kv_ceio` and `mixed_q4_dynamic` benchmark machines, built the
//! way the benchmark builds them. It also pins the KV store's constructor,
//! which every KV flow runs when it starts: one allocation for the key
//! presence bitmap.
//!
//! A counting global allocator measures this. It counts per thread, so the
//! test harness's own threads cannot pollute the figure. Each build runs
//! once before it is counted, so one-time process-wide initialisation
//! falls outside the count. A failing pin names the count: raise a pin
//! only with the reason; lower it when a change saves an allocation.

// `unsafe_code` is denied workspace-wide. This test needs it for one
// thing: a `#[global_allocator]` is an `unsafe impl GlobalAlloc`. The impl
// forwards every call unchanged to the system allocator and bumps a
// thread-local counter; it never touches the memory it hands out.
#![allow(unsafe_code)]

use ceio_apps::{KvConfig, KvStore};
use ceio_bench::experiments::queues;
use ceio_bench::workloads::{
    app_factory, contended_host, dynamic_distribution, involved_flows, AppKind, Transport,
};
use ceio_bench::{AnyPolicy, PolicyKind};
use ceio_host::{HostConfig, Machine};
use ceio_net::Scenario;
use ceio_sim::{Duration, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations of building the `kv_ceio` machine.
const KV_CEIO_SETUP_ALLOCS: u64 = 28;
/// Allocations of building the `mixed_q4_dynamic` machine.
const MIXED_Q4_DYNAMIC_SETUP_ALLOCS: u64 = 31;

/// The seed the benchmark builds with (the simulator's default).
const SEED: u64 = 0xCE10;

thread_local! {
    /// Allocation calls made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: allocations during thread teardown find no slot. The
    // const-initialised `Cell` needs no allocation and no destructor, so
    // touching it from inside the allocator cannot recurse.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; counting
// reads nothing of the call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (see `realloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` twice on this thread and return the allocation calls of the
/// second run. What `f` returns is dropped outside the count.
fn allocations_of<T>(f: impl Fn() -> T) -> u64 {
    drop(f());
    let before = ALLOCATIONS.with(Cell::get);
    let built = f();
    let n = ALLOCATIONS.with(Cell::get) - before;
    drop(built);
    n
}

/// Everything the benchmark's set-up covers: the inputs, the seed, the
/// CEIO policy and `Machine::build`.
fn build(spec: impl Fn() -> (HostConfig, Scenario, AppKind)) -> Simulation<Machine<AnyPolicy>> {
    let (mut host, scenario, app) = spec();
    host.seed = SEED;
    let policy = PolicyKind::Ceio.build(&host);
    Machine::build(host, policy, scenario, app_factory(app))
}

#[test]
fn kv_ceio_setup_allocations_are_pinned() {
    let n = allocations_of(|| {
        build(|| {
            let host = contended_host(Transport::Dpdk);
            let link = host.net.link_bandwidth;
            (host, involved_flows(16, 512, link), AppKind::Kv)
        })
    });
    assert_eq!(
        n, KV_CEIO_SETUP_ALLOCS,
        "kv_ceio set-up made {n} allocations"
    );
}

#[test]
fn mixed_q4_dynamic_setup_allocations_are_pinned() {
    let n = allocations_of(|| {
        build(|| {
            let host = queues::sharded_host(4);
            let link = host.net.link_bandwidth;
            // The benchmark's 2 + 40 ms horizon in 8 ms phases.
            let scenario = dynamic_distribution(Duration::millis(8), 42 / 8, link);
            (host, scenario, AppKind::Mixed)
        })
    });
    assert_eq!(
        n, MIXED_Q4_DYNAMIC_SETUP_ALLOCS,
        "mixed_q4_dynamic set-up made {n} allocations"
    );
}

#[test]
fn kv_store_construction_is_one_allocation() {
    let n = allocations_of(|| KvStore::new(KvConfig::default()));
    assert_eq!(n, 1, "KvStore::new made {n} allocations");
}
