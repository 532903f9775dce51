//! Zero-allocation pin for DMA retires into a full set-associative LLC.
//!
//! Once the DDIO partition is full, every retire evicts, and the
//! antagonist touches four lines per insert. After a warm-up that grows
//! the controller's eviction scratch, the LLC's slab, free list and id
//! index to their steady-state sizes, a stretch of such retires must not
//! touch the heap: evictions land in the controller's reused buffer and
//! freed slab entries hand their line lists to the next buffer.
//!
//! A counting global allocator measures this. It counts per thread, so
//! the test harness's own threads cannot pollute the figure.

// `unsafe_code` is denied workspace-wide. This test needs it for one
// thing: a `#[global_allocator]` is an `unsafe impl GlobalAlloc`. The impl
// forwards every call unchanged to the system allocator and bumps a
// thread-local counter; it never touches the memory it hands out.
#![allow(unsafe_code)]

use ceio_mem::{BufferId, LlcModelKind, MemParams, MemoryController};
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
fn retires_into_a_full_setassoc_llc_allocate_nothing() {
    let params = MemParams {
        llc_model: LlcModelKind::SetAssoc,
        ..MemParams::default()
    };
    assert!(params.app_lines_per_insert > 0, "the antagonist must be on");
    let mut mc = MemoryController::new(params);
    let capacity_bufs = mc.llc.capacity() / 2048;
    let mut now = Time::ZERO;
    let mut next_id = 0u64;
    let mut retire = |mc: &mut MemoryController| {
        now += Duration::nanos(20);
        mc.retire(now, BufferId(next_id), 2048);
        next_id += 1;
    };
    // Warm-up: eight partitions' worth of fresh buffers.
    for _ in 0..8 * capacity_bufs {
        retire(&mut mc);
    }
    let evictions_before = mc.llc.stats().evictions;
    let before = allocated();
    for _ in 0..2 * capacity_bufs {
        retire(&mut mc);
    }
    let bytes = allocated() - before;
    let evicted = mc.llc.stats().evictions - evictions_before;
    assert!(
        evicted >= capacity_bufs,
        "the partition must be thrashing: only {evicted} evictions"
    );
    assert_eq!(
        bytes,
        0,
        "{} retires evicting {evicted} buffers allocated {bytes} bytes",
        2 * capacity_bufs
    );
}
