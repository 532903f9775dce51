//! Generational slab interning in-flight packet payloads.
//!
//! The engine's future-event list stores every queued event inline in its
//! keys, so a fat event body is paid for on each push, drain and pop.
//! Interning the two packet-carrying payloads ([`Packet`] for
//! `NicRx`, [`PendingDma`] for `HostArrive`/`HostRetire`) in a slab shrinks
//! the queued `Event` to a tag plus one index-sized handle. A packet is
//! written once at schedule time and taken at its dispatch; a DMA
//! descriptor is written once at issue, read in place on arrival and taken
//! at retirement, so one slot carries it through both events.
//!
//! Handles are generational: a slot's generation bumps on every insert and
//! every free, so a handle that outlives its payload (a model bug) is
//! detected instead of silently aliasing a recycled slot. The free list is
//! LIFO, which keeps the working set of hot slots small and — because
//! recycling order is purely a function of the event schedule — fully
//! deterministic.
//!
//! The issue for this refactor asked for a `PacketId` handle name, but
//! [`ceio_net::PacketId`] already names the per-packet wire serial, so the
//! slab handles are [`PktId`] and [`DmaId`] instead.

use crate::rxq::PendingDma;
use ceio_net::Packet;

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

/// Handle to an interned [`Packet`] riding a `NicRx` event.
///
/// (Named `PktId` rather than `PacketId`: the latter is already the wire
/// serial in `ceio-net`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktId(pub(crate) SlabHandle);

/// Handle to an interned [`PendingDma`]: one slab slot per descriptor from
/// DMA issue to memory retirement. The `HostArrive` event reads it in
/// place, an IIO-parked arrival waits on it, the `HostRetire` event reuses
/// it, and the retire redeems it exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaId(pub(crate) SlabHandle);

/// The two payload slabs of a running machine.
#[derive(Debug)]
pub(crate) struct PayloadSlabs {
    pub(crate) pkts: Slab<Packet>,
    pub(crate) dmas: Slab<PendingDma>,
}

impl PayloadSlabs {
    pub(crate) fn new() -> Self {
        PayloadSlabs {
            pkts: Slab::new(),
            dmas: Slab::new(),
        }
    }

    /// Intern a wire packet for a `NicRx` event.
    pub(crate) fn intern_pkt(&mut self, pkt: Packet) -> PktId {
        PktId(self.pkts.insert(pkt))
    }

    /// Redeem a `NicRx` packet handle.
    pub(crate) fn take_pkt(&mut self, id: PktId) -> Option<Packet> {
        self.pkts.take(id.0)
    }

    /// Intern a DMA descriptor for a `HostArrive`/`HostRetire` event.
    pub(crate) fn intern_dma(&mut self, dma: PendingDma) -> DmaId {
        DmaId(self.dmas.insert(dma))
    }

    /// Read a DMA descriptor in place (it stays interned).
    pub(crate) fn dma(&self, id: DmaId) -> &PendingDma {
        self.dmas
            .get(id.0)
            .expect("invariant: a DMA handle stays interned until its retire")
    }

    /// Redeem a DMA descriptor handle.
    pub(crate) fn take_dma(&mut self, id: DmaId) -> Option<PendingDma> {
        self.dmas.take(id.0)
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
