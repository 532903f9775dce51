//! Zero-allocation pin for productive driver polls on the paper's
//! headline datapath.
//!
//! The machine is the benchmark's `kv_ceio` workload: the contended DPDK
//! host, 16 KV flows splitting the link, the eRPC key-value store on
//! every flow and the CEIO policy. After warm-up, a steady-state window
//! that delivers tens of thousands of packets must not touch the heap.
//! Every packet crosses NIC steering, the credit ledger, DMA, the LLC, the
//! delivery ring and the application while the CEIO controller polls
//! throughout, and each of them reuses its own storage once warm.
//!
//! A counting global allocator measures this. It counts per thread, so
//! the test harness's own threads cannot pollute the figure.

// `unsafe_code` is denied workspace-wide. This test needs it for one
// thing: a `#[global_allocator]` is an `unsafe impl GlobalAlloc`. The impl
// forwards every call unchanged to the system allocator and bumps a
// thread-local counter; it never touches the memory it hands out.
#![allow(unsafe_code)]

use ceio_bench::workloads::{app_factory, contended_host, involved_flows, AppKind, Transport};
use ceio_bench::PolicyKind;
use ceio_host::Machine;
use ceio_sim::{Duration, Time};
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

#[test]
fn productive_kv_polls_allocate_nothing() {
    let host = contended_host(Transport::Dpdk);
    let link = host.net.link_bandwidth;
    let policy = PolicyKind::Ceio.build(&host);
    let mut sim = Machine::build(
        host,
        policy,
        involved_flows(16, 512, link),
        app_factory(AppKind::Kv),
    );
    // Warm-up: the LLC slab, the wire FIFO, the DMA slab, the engine's key
    // slab and every flow's delivery ring grow to their high-water marks. The last
    // ring reaches its widest reorder window at ~18 ms. The window then
    // holds one 1 ms measurement sample, the 21st, which the per-window
    // series (grown by doubling) already have room for.
    let warm = Time::ZERO + Duration::millis(20);
    sim.run_until(warm, u64::MAX);
    let delivered_before = sim.model.st.meas.total_involved_pkts;
    let events_before = sim.events_processed();
    let before = allocated();
    sim.run_until(warm + Duration::millis(1), u64::MAX);
    let bytes = allocated() - before;
    let delivered = sim.model.st.meas.total_involved_pkts - delivered_before;
    let events = sim.events_processed() - events_before;
    assert!(
        delivered >= 40_000,
        "only {delivered} packets delivered in the window"
    );
    assert_eq!(
        bytes, 0,
        "{events} events delivering {delivered} packets allocated {bytes} bytes"
    );
}
