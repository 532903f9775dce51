//! Generational slab interning in-flight DMA descriptors.
//!
//! The engine's future-event list stores every queued event inline in its
//! keys, so a fat event body is paid for on each push, drain and pop.
//! Interning the [`PendingDma`] that `HostArrive`/`HostRetire` carry in a
//! slab shrinks the queued `Event` to a tag plus one index-sized handle. A
//! DMA descriptor is written once at issue, read in place on arrival and
//! taken at retirement, so one slot carries it through both events. (A
//! wire packet needs no slab: `NicRx` events dispatch in emission order,
//! so the packets wait in a FIFO instead; see
//! `crate::machine::HostState::on_wire`.)
//!
//! Handles are generational: a slot's generation bumps on every insert and
//! every free, so a handle that outlives its payload (a model bug) is
//! detected instead of silently aliasing a recycled slot. The free list is
//! LIFO, which keeps the working set of hot slots small and — because
//! recycling order is purely a function of the event schedule — fully
//! deterministic.

use crate::rxq::PendingDma;

/// A generational slab: `insert` returns a [`SlabHandle`] that `take`
/// redeems exactly once.
#[derive(Debug, Default)]
pub(crate) struct Slab<T> {
    slots: Vec<SlabSlot<T>>,
    free: Vec<u32>,
}

#[derive(Debug)]
struct SlabSlot<T> {
    /// Odd while the slot holds a value, even while it is free; bumped by
    /// every insert and every take, so a handle matches only the value it
    /// was issued for. A freed slot keeps its stale value: `T` is `Copy`,
    /// so nothing needs dropping, and a take writes no empty payload back.
    gen: u32,
    value: T,
}

/// Index + generation pair addressing one live slab entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabHandle {
    idx: u32,
    gen: u32,
}

impl<T: Copy> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Intern `value`, returning its handle.
    pub(crate) fn insert(&mut self, value: T) -> SlabHandle {
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.gen = slot.gen.wrapping_add(1);
            slot.value = value;
            SlabHandle { idx, gen: slot.gen }
        } else {
            debug_assert!(self.slots.len() < u32::MAX as usize, "invariant: slab full");
            self.slots.push(SlabSlot { gen: 1, value });
            SlabHandle {
                idx: (self.slots.len() - 1) as u32,
                gen: 1,
            }
        }
    }

    /// Read a live entry in place. Returns `None` for a stale handle.
    pub(crate) fn get(&self, handle: SlabHandle) -> Option<&T> {
        let slot = self.slots.get(handle.idx as usize)?;
        (slot.gen == handle.gen).then_some(&slot.value)
    }

    /// Redeem a handle, freeing its slot. Returns `None` for a stale or
    /// double-taken handle (a model bug the caller decides how to surface).
    pub(crate) fn take(&mut self, handle: SlabHandle) -> Option<T> {
        let slot = self.slots.get_mut(handle.idx as usize)?;
        if slot.gen != handle.gen {
            return None;
        }
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(handle.idx);
        Some(slot.value)
    }

    /// Number of live entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Handle to an interned [`PendingDma`]: one slab slot per descriptor from
/// DMA issue to memory retirement. The `HostArrive` event reads it in
/// place, an IIO-parked arrival waits on it, the `HostRetire` event reuses
/// it, and the retire redeems it exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaId(pub(crate) SlabHandle);

/// The DMA descriptor slab of a running machine.
#[derive(Debug)]
pub(crate) struct DmaSlab(Slab<PendingDma>);

impl DmaSlab {
    pub(crate) fn new() -> Self {
        DmaSlab(Slab::new())
    }

    /// Intern a DMA descriptor for a `HostArrive`/`HostRetire` event.
    pub(crate) fn intern(&mut self, dma: PendingDma) -> DmaId {
        DmaId(self.0.insert(dma))
    }

    /// Read a DMA descriptor in place (it stays interned).
    pub(crate) fn get(&self, id: DmaId) -> &PendingDma {
        self.0
            .get(id.0)
            .expect("invariant: a DMA handle stays interned until its retire")
    }

    /// Redeem a DMA descriptor handle.
    pub(crate) fn take(&mut self, id: DmaId) -> Option<PendingDma> {
        self.0.take(id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip_and_reuse() {
        let mut slab: Slab<u64> = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.take(a), Some(10));
        assert_eq!(slab.len(), 1);
        // LIFO reuse of the freed slot, under a fresh generation.
        let c = slab.insert(30);
        assert_eq!(c.idx, a.idx);
        assert_ne!(c.gen, a.gen);
        assert_eq!(slab.take(b), Some(20));
        assert_eq!(slab.take(c), Some(30));
        assert_eq!(slab.len(), 0);
    }

    #[test]
    fn stale_and_double_take_return_none() {
        let mut slab: Slab<&'static str> = Slab::new();
        let h = slab.insert("x");
        assert_eq!(slab.take(h), Some("x"));
        assert_eq!(slab.take(h), None);
        let h2 = slab.insert("y");
        // Old handle must not alias the recycled slot.
        assert_eq!(slab.take(h), None);
        assert_eq!(slab.take(h2), Some("y"));
    }

    #[test]
    fn get_reads_in_place_until_taken() {
        let mut slab: Slab<u64> = Slab::new();
        let h = slab.insert(7);
        assert_eq!(slab.get(h), Some(&7));
        assert_eq!(slab.get(h), Some(&7));
        assert_eq!(slab.take(h), Some(7));
        assert_eq!(slab.get(h), None);
        // A recycled slot is invisible through the stale handle.
        let h2 = slab.insert(8);
        assert_eq!(slab.get(h), None);
        assert_eq!(slab.get(h2), Some(&8));
    }
}
