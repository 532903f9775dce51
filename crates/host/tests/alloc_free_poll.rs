//! Zero-allocation pin for idle driver polls.
//!
//! Many flows with zero demand share a few polling cores under the
//! unmanaged policy, and the sample window outlasts the run, so after the
//! flows start the only events left are `CorePoll`s that find nothing to
//! do. Once warmed up, a stretch of such polls must not touch the heap:
//! the poll scans its service list in place and skips idle flows, and the
//! engine recycles its timer slots.
//!
//! A counting global allocator measures this. It counts per thread, so
//! the test harness's own threads cannot pollute the figure.

// `unsafe_code` is denied workspace-wide. This test needs it for one
// thing: a `#[global_allocator]` is an `unsafe impl GlobalAlloc`. The impl
// forwards every call unchanged to the system allocator and bumps a
// thread-local counter; it never touches the memory it hands out.
#![allow(unsafe_code)]

use ceio_cpu::{AppWork, Application};
use ceio_host::{HostConfig, Machine, UnmanagedPolicy};
use ceio_net::{FlowClass, FlowSpec, Packet, Scenario};
use ceio_sim::{Bandwidth, Duration, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested from the allocator by this thread.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown find no slot. The
    // const-initialised `Cell` needs no allocation and no destructor, so
    // touching it from inside the allocator cannot recurse.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method passes its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; counting
// reads only the layout sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

struct Idle;
impl Application for Idle {
    fn name(&self) -> &str {
        "idle"
    }
    fn process(&mut self, _: &Packet) -> AppWork {
        AppWork::compute(Duration::nanos(30))
    }
}

#[test]
fn unproductive_polls_allocate_nothing() {
    let mut s = Scenario::new();
    for i in 0..128 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(
                i,
                FlowClass::CpuInvolved,
                512,
                1,
                Bandwidth::bytes_per_sec(0),
            ),
        );
    }
    let cfg = HostConfig {
        num_cores: Some(4),
        // Longer than the whole run: no `Sample` event ever dispatches.
        sample_window: Duration::millis(100),
        ..HostConfig::default()
    };
    let mut sim = Machine::build(
        cfg,
        UnmanagedPolicy,
        s.build(),
        Box::new(|_| Box::new(Idle)),
    );
    // Warmup: flows start and their paused emitters end. The engine's
    // timing wheel grows each bucket the first time a timer lands in it:
    // 20 ms covers every bucket a 200 ns poll timer can reach until the
    // next 2^24 ns (16.8 ms) wheel boundary, at 33.5 ms.
    sim.run_until(Time::ZERO + Duration::millis(20), u64::MAX);
    let polls_before = sim.events_processed();
    let before = allocated();
    sim.run_until(Time::ZERO + Duration::millis(21), u64::MAX);
    let bytes = allocated() - before;
    let polls = sim.events_processed() - polls_before;
    // 4 cores polling every 200 ns for 1 ms.
    assert!(polls >= 4 * 4_000, "only {polls} polls dispatched");
    let st = &sim.model.st;
    assert_eq!(st.meas.total_involved_pkts, 0, "no flow may deliver");
    assert_eq!(
        bytes, 0,
        "{polls} unproductive polls allocated {bytes} bytes"
    );
}
