//! The set-associative LLC exactly as it was before the slab-indexed
//! layout: one 16-byte `Owner` per way of every set, a `BTreeMap` of
//! resident buffers, and per-line recency for antagonist lines.
//!
//! Test-only reference model. `setassoc_reference.rs` drives random
//! traces through it and through `ceio_mem::SetAssocLlc` and requires
//! identical observable behaviour. Apart from this header and the imports,
//! the code is unchanged; do not optimise it.

#![allow(dead_code)]

use std::collections::BTreeMap;

use ceio_mem::{BufferId, LlcStats, SetAssocParams, WayOccupancy, LINE_BYTES};

/// What currently owns one way of one set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// Never filled, or freed by consume/eviction.
    Empty,
    /// A line of the application antagonist stream, with its touch recency.
    App { touch: u64 },
    /// One line of a resident I/O buffer.
    Io(BufferId),
}

/// Per-buffer residency record.
#[derive(Debug, Clone)]
struct BufEntry {
    /// Buffer-level recency (refreshed on lookup, like the pool model).
    seq: u64,
    /// Full buffer size in bytes (occupancy is attributed whole-buffer).
    bytes: u64,
    /// Flattened `set * total_ways + way` indices of the lines held.
    slots: Vec<u32>,
}

/// SplitMix64 finalizer: a pure bijective mixer, fine under the determinism
/// rules (no ambient state).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The way-partitioned set-associative LLC.
#[derive(Debug)]
pub struct SetAssocLlc {
    p: SetAssocParams,
    /// `sets * total_ways` slots, set-major.
    slots: Vec<Owner>,
    entries: BTreeMap<BufferId, BufEntry>,
    next_seq: u64,
    /// Antagonist position: hashed to pick its next victim set.
    app_cursor: u64,
    occupancy_bytes: u64,
    /// I/O lines currently resident in each way (index = way).
    way_io_lines: Vec<u64>,
    /// Antagonist lines currently resident in each way.
    way_app_lines: Vec<u64>,
    stats: LlcStats,
}

impl SetAssocLlc {
    /// Build an empty cache with the given geometry.
    ///
    /// Geometry must be sane (`validate` on `MemParams` enforces this before
    /// construction in the normal path).
    pub fn new(p: SetAssocParams) -> SetAssocLlc {
        assert!(p.sets >= 1, "invariant: at least one set");
        assert!(
            p.ddio_ways >= 1 && p.ddio_ways <= p.total_ways,
            "invariant: 1 <= ddio_ways <= total_ways"
        );
        assert!(
            p.app_overlap_ways <= p.ddio_ways,
            "invariant: overlap cannot exceed the DDIO partition"
        );
        let slots = vec![Owner::Empty; p.sets * p.total_ways];
        let ways = p.total_ways;
        SetAssocLlc {
            p,
            slots,
            entries: BTreeMap::new(),
            next_seq: 0,
            app_cursor: 0,
            occupancy_bytes: 0,
            way_io_lines: vec![0; ways],
            way_app_lines: vec![0; ways],
            stats: LlcStats::default(),
        }
    }

    /// Bytes of I/O buffers currently resident.
    #[inline]
    pub fn occupancy(&self) -> u64 {
        self.occupancy_bytes
    }

    /// DDIO partition capacity in bytes (`sets * ddio_ways * 64`).
    #[inline]
    pub fn capacity(&self) -> u64 {
        (self.p.sets as u64) * (self.p.ddio_ways as u64) * LINE_BYTES
    }

    /// Number of resident I/O buffers.
    #[inline]
    pub fn resident_count(&self) -> usize {
        self.entries.len()
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Whether a buffer is currently resident (no statistics side effects).
    #[inline]
    pub fn contains(&self, id: BufferId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Per-way line counts for telemetry.
    pub fn way_occupancy(&self) -> WayOccupancy {
        WayOccupancy {
            io_lines: self.way_io_lines.clone(),
            app_lines: self.way_app_lines.clone(),
        }
    }

    /// The configured geometry.
    #[inline]
    pub fn params(&self) -> &SetAssocParams {
        &self.p
    }

    #[inline]
    fn slot_index(&self, set: usize, way: usize) -> usize {
        set * self.p.total_ways + way
    }

    /// Free all lines of a resident buffer; returns its entry. No eviction
    /// statistics — callers decide whether this is a consume or an eviction.
    fn release(&mut self, id: BufferId) -> Option<BufEntry> {
        let e = self.entries.remove(&id)?;
        for &si in &e.slots {
            let si = si as usize;
            debug_assert!(matches!(self.slots[si], Owner::Io(b) if b == id));
            self.slots[si] = Owner::Empty;
            self.way_io_lines[si % self.p.total_ways] -= 1;
        }
        self.occupancy_bytes -= e.bytes;
        Some(e)
    }

    /// Evict a resident buffer whole (all its lines, possibly in other
    /// sets), with statistics.
    fn evict(&mut self, victim: BufferId, by_app: bool, out: &mut Vec<BufferId>) {
        let e = self
            .release(victim)
            .expect("invariant: eviction victim is resident");
        self.stats.evictions += 1;
        self.stats.evicted_bytes += e.bytes;
        self.stats.eviction_age_sum += self.next_seq - e.seq;
        if by_app {
            self.stats.app_evictions += 1;
        }
        out.push(victim);
    }

    /// Recency of the owner of one slot, for LRU comparison. `None` means
    /// the slot must not be chosen (owned by the protected buffer).
    fn owner_recency(&self, si: usize, protect: Option<BufferId>) -> Option<u64> {
        match self.slots[si] {
            Owner::Empty => Some(0),
            Owner::App { touch } => Some(touch),
            Owner::Io(b) => {
                if protect == Some(b) {
                    None
                } else {
                    Some(
                        self.entries
                            .get(&b)
                            .expect("invariant: slot owners are resident")
                            .seq,
                    )
                }
            }
        }
    }

    /// Claim one way in `set` within ways `[lo, hi)`: an empty way if one
    /// exists, else the LRU owner's way after evicting that owner. Returns
    /// the claimed slot index, or `None` if every candidate way is owned by
    /// `protect` (the incoming buffer — DDIO never self-evicts).
    fn claim_way(
        &mut self,
        set: usize,
        lo: usize,
        hi: usize,
        protect: Option<BufferId>,
        by_app: bool,
        out: &mut Vec<BufferId>,
    ) -> Option<usize> {
        for way in lo..hi {
            if self.slots[self.slot_index(set, way)] == Owner::Empty {
                return Some(self.slot_index(set, way));
            }
        }
        let mut victim: Option<(u64, usize)> = None;
        for way in lo..hi {
            let si = self.slot_index(set, way);
            if let Some(rec) = self.owner_recency(si, protect) {
                if victim.is_none_or(|(best, _)| rec < best) {
                    victim = Some((rec, way));
                }
            }
        }
        let (_, way) = victim?;
        let si = self.slot_index(set, way);
        match self.slots[si] {
            Owner::App { .. } => {
                self.way_app_lines[way] -= 1;
                self.slots[si] = Owner::Empty;
            }
            // Whole-buffer eviction frees this slot (and possibly others).
            Owner::Io(b) => self.evict(b, by_app, out),
            // Unreachable: empty ways were claimed before victim selection.
            Owner::Empty => {}
        }
        debug_assert_eq!(self.slots[si], Owner::Empty);
        Some(si)
    }

    /// Advance the antagonist by `app_lines_per_insert` line touches. Each
    /// touch lands in a hashed set, in ways
    /// `[ddio_ways - app_overlap_ways, total_ways)` — its own partition plus
    /// any configured overlap into the DDIO slice.
    fn advance_app(&mut self, out: &mut Vec<BufferId>) {
        let lo = self.p.ddio_ways - self.p.app_overlap_ways;
        let hi = self.p.total_ways;
        if lo >= hi {
            return; // antagonist has no ways at all
        }
        for _ in 0..self.p.app_lines_per_insert {
            let set = (mix(self.app_cursor) as usize) % self.p.sets;
            self.app_cursor = self.app_cursor.wrapping_add(1);
            let touch = self.next_seq;
            self.next_seq += 1;
            let si = self
                .claim_way(set, lo, hi, None, true, out)
                .expect("invariant: no protected buffer, so a victim always exists");
            self.slots[si] = Owner::App { touch };
            self.way_app_lines[si % self.p.total_ways] += 1;
        }
    }

    /// DDIO insertion of a DMA-written buffer: `ceil(bytes/64)` lines at
    /// consecutive sets from a hashed base. Returns evicted buffers (the
    /// antagonist's victims first, then LRU-within-set victims in placement
    /// order); their consumers will miss to DRAM.
    ///
    /// Inserting an id that is already resident refreshes its recency and
    /// size (a buffer reused for a new packet), exactly like the pool model.
    pub fn insert(&mut self, id: BufferId, bytes: u64) -> Vec<BufferId> {
        self.stats.insertions += 1;
        let mut evicted = Vec::new();
        self.advance_app(&mut evicted);
        self.release(id);
        let seq = self.next_seq;
        self.next_seq += 1;
        let lines = bytes.div_ceil(LINE_BYTES).max(1);
        let base = mix(id.0) as usize % self.p.sets;
        let mut held = Vec::with_capacity(lines as usize);
        let mut overflowed = false;
        for i in 0..lines {
            let set = (base + i as usize) % self.p.sets;
            match self.claim_way(set, 0, self.p.ddio_ways, Some(id), false, &mut evicted) {
                Some(si) => {
                    self.slots[si] = Owner::Io(id);
                    self.way_io_lines[si % self.p.total_ways] += 1;
                    held.push(si as u32);
                }
                // Every DDIO way of this set is already held by the incoming
                // buffer itself: it wraps the index space. The line logically
                // lands but cannot be tracked — the buffer exceeds what the
                // partition can hold, mirroring the pool's oversized edge.
                None => overflowed = true,
            }
        }
        if overflowed {
            self.stats.over_capacity_events += 1;
        }
        self.occupancy_bytes += bytes;
        self.entries.insert(
            id,
            BufEntry {
                seq,
                bytes,
                slots: held,
            },
        );
        evicted
    }

    /// CPU lookup of a buffer: records a hit (refreshing buffer-level
    /// recency) or a miss. Returns `true` on hit.
    pub fn lookup(&mut self, id: BufferId) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                self.stats.hits += 1;
                e.seq = self.next_seq;
                self.next_seq += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Remove a buffer the CPU has finished consuming (ownership returned
    /// to the buffer pool). No-op if already evicted.
    pub fn consume(&mut self, id: BufferId) {
        self.release(id);
    }

    /// A DMA write that bypasses the cache (DDIO disabled): straight to
    /// DRAM, never resident. Only the counter moves.
    pub fn bypass(&mut self, bytes: u64) {
        let _ = bytes;
        self.stats.bypasses += 1;
    }

    /// Reset statistics (keeps contents).
    pub fn clear_stats(&mut self) {
        self.stats = LlcStats::default();
    }
}
