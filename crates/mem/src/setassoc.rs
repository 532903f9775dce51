//! Set-associative, way-partitioned LLC model.
//!
//! The pool model in [`crate::llc`] captures the occupancy pathology but not
//! its *way-level* cause: on the paper's evaluation machine DDIO can allocate
//! into only 6 of the 12 LLC ways (§4.1), and CEIO sizes its credit pool from
//! that DDIO-reachable slice. This model makes the geometry explicit:
//! `S` sets × `W` ways of 64-byte lines, with the first `ddio_ways` ways of
//! every set forming the DDIO partition. I/O buffers span `ceil(bytes/64)`
//! consecutive sets (one line per set, like a physically contiguous 2 KB
//! buffer striding the index bits) and evict LRU-within-set when a set's DDIO
//! ways are full.
//!
//! The remaining `total_ways - ddio_ways` ways belong to a deterministic
//! application "antagonist" stream: every I/O insertion advances it by
//! `app_lines_per_insert` line touches at pseudo-random sets. By default it
//! stays inside its own partition and is invisible to I/O; configuring
//! `app_overlap_ways > 0` lets it allocate into the top of the DDIO partition
//! as well, evicting I/O buffers (counted in `LlcStats::app_evictions`) —
//! the I/O-vs-application contention that way-partitioning schemes such as
//! IOCA and A4 exist to arbitrate.
//!
//! Layout. A DMA insert touches a few small dense arrays, not a map per
//! candidate way:
//!
//! * each DDIO way of each set holds a `u32` code: empty, antagonist, or
//!   the slab index of the resident buffer owning the line;
//! * resident buffers live in a slab: the code indexes their recency
//!   directly, and a freed entry keeps its line list's allocation for the
//!   next buffer;
//! * the antagonist's own ways `[ddio_ways, total_ways)` are a per-set
//!   FIFO (fill count and head). Nothing but the antagonist ever writes
//!   them, and every touch it makes is the newest line in the cache, so
//!   they fill in way order and then recycle oldest first: the head *is*
//!   their LRU line. Per-line antagonist recency is kept only when the
//!   antagonist's claim range overlaps the DDIO partition, the one case in
//!   which its lines compete by age with I/O lines.
//!
//! Determinism: set choice uses a pure multiplicative hash (SplitMix64
//! finalizer) of the buffer id / antagonist cursor — no ambient state, so
//! identical traces produce identical placements on every run. The id index
//! is never iterated, so its bucket layout cannot reach any output.
//!
//! Equivalence with the pool: with 1 set, `ddio_bytes / 64` DDIO ways, the
//! antagonist disabled, and line-multiple buffer sizes, victim selection
//! degenerates to "evict the globally least-recent buffer, whole buffers at
//! a time, never the incoming one" — exactly the pool's loop, including the
//! oversized-buffer over-capacity edge. A proptest pins this, and another
//! pins this model against the map-based reference it replaced.

use crate::llc::{BufferId, LlcStats};
use crate::model::WayOccupancy;

/// Cache-line granularity of the set-associative model, in bytes.
pub const LINE_BYTES: u64 = 64;

/// Geometry and antagonist knobs for [`SetAssocLlc`], derived from
/// `MemParams` via [`crate::MemParams::set_assoc_params`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocParams {
    /// Number of sets (`llc_total_bytes / (total_ways * 64)`).
    pub sets: usize,
    /// Associativity of each set.
    pub total_ways: usize,
    /// Ways `[0, ddio_ways)` of every set form the DDIO partition.
    pub ddio_ways: usize,
    /// Antagonist line touches per I/O insertion (0 disables it).
    pub app_lines_per_insert: u32,
    /// How many of the *top* DDIO ways the antagonist may also allocate
    /// into. 0 keeps the partitions disjoint (pure way-partitioning).
    pub app_overlap_ways: usize,
}

/// Slot code of a DDIO way that holds nothing; also the free-bucket and
/// null-link marker of the pool model's slab.
pub(crate) const EMPTY: u32 = u32::MAX;
/// Slot code of a DDIO way that holds an antagonist line. Every other
/// code is the slab index of the buffer owning the line.
const APP: u32 = u32::MAX - 1;

/// One resident buffer's slab entry.
#[derive(Debug)]
struct BufEntry {
    id: BufferId,
    /// Full buffer size in bytes (occupancy is attributed whole-buffer).
    bytes: u64,
    /// Flattened `set * ddio_ways + way` indices of the lines held.
    lines: Vec<u32>,
}

/// The antagonist's own ways of one set: ways
/// `[ddio_ways, ddio_ways + filled)` hold its lines, and once all are
/// filled, way `ddio_ways + head` holds the oldest.
#[derive(Debug, Clone, Copy, Default)]
struct OwnFifo {
    filled: u16,
    head: u16,
}

/// SplitMix64 finalizer: a pure bijective mixer, fine under the determinism
/// rules (no ambient state).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `BufferId -> slab index`, open-addressed: linear probing from the id's
/// mixed hash, backward-shift deletion (no tombstones), doubling past half
/// load. Once it has grown to the peak resident count it never allocates.
/// Shared by both LLC models' buffer slabs.
#[derive(Debug)]
pub(crate) struct IdIndex {
    /// `(id, slab index)` per bucket; index [`EMPTY`] marks a free bucket.
    buckets: Vec<(u64, u32)>,
    len: usize,
}

impl IdIndex {
    pub(crate) fn new() -> IdIndex {
        IdIndex {
            buckets: vec![(0, EMPTY); 16],
            len: 0,
        }
    }

    /// Number of ids mapped.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn home(&self, id: u64) -> usize {
        (mix(id) >> 32) as usize & (self.buckets.len() - 1)
    }

    /// `Ok(bucket)` holding `id`, or `Err(bucket)` where it would go.
    #[inline]
    fn find(&self, id: BufferId) -> Result<usize, usize> {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(id.0);
        loop {
            let (key, k) = self.buckets[i];
            if k == EMPTY {
                return Err(i);
            }
            if key == id.0 {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    pub(crate) fn get(&self, id: BufferId) -> Option<u32> {
        self.find(id).ok().map(|i| self.buckets[i].1)
    }

    /// Map an absent `id` to slab index `k`.
    pub(crate) fn insert(&mut self, id: BufferId, k: u32) {
        if (self.len + 1) * 2 > self.buckets.len() {
            let grown = vec![(0, EMPTY); self.buckets.len() * 2];
            let old = std::mem::replace(&mut self.buckets, grown);
            for (key, v) in old.into_iter().filter(|&(_, v)| v != EMPTY) {
                let i = self
                    .find(BufferId(key))
                    .expect_err("invariant: ids are unique across buckets");
                self.buckets[i] = (key, v);
            }
        }
        let i = self
            .find(id)
            .expect_err("invariant: only absent ids are inserted");
        self.buckets[i] = (id.0, k);
        self.len += 1;
    }

    /// Unmap `id`, shifting later members of its probe run back so every
    /// remaining id stays reachable from its home bucket.
    pub(crate) fn remove(&mut self, id: BufferId) {
        let Ok(mut hole) = self.find(id) else {
            return;
        };
        let mask = self.buckets.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (key, k) = self.buckets[j];
            if k == EMPTY {
                break;
            }
            // The entry at `j` may move into the hole unless its home lies
            // cyclically after the hole.
            let home = self.home(key);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = self.buckets[j];
                hole = j;
            }
        }
        self.buckets[hole] = (0, EMPTY);
        self.len -= 1;
    }
}

/// The way-partitioned set-associative LLC.
#[derive(Debug)]
pub struct SetAssocLlc {
    p: SetAssocParams,
    /// `sets * ddio_ways` slot codes of the DDIO partition, set-major.
    ddio: Vec<u32>,
    /// Per-set FIFO over the antagonist's own ways.
    own: Vec<OwnFifo>,
    /// Antagonist line recency, `sets` rows over its claim range
    /// `[ddio_ways - app_overlap_ways, total_ways)`. Empty unless
    /// `app_overlap_ways > 0`.
    app_touch: Vec<u64>,
    /// Slab of resident buffers; freed entries are listed in `free`.
    bufs: Vec<BufEntry>,
    /// Buffer-level recency by slab index (refreshed on lookup, like the
    /// pool model), dense for victim selection.
    seq: Vec<u64>,
    free: Vec<u32>,
    index: IdIndex,
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
        assert!(
            p.total_ways <= usize::from(u16::MAX)
                && p.sets.saturating_mul(p.total_ways) < APP as usize,
            "invariant: way and slot indices fit the compact codes"
        );
        let app_touch = if p.app_overlap_ways > 0 {
            vec![0; p.sets * (p.total_ways - p.ddio_ways + p.app_overlap_ways)]
        } else {
            Vec::new()
        };
        SetAssocLlc {
            ddio: vec![EMPTY; p.sets * p.ddio_ways],
            own: vec![OwnFifo::default(); p.sets],
            app_touch,
            bufs: Vec::new(),
            seq: Vec::new(),
            free: Vec::new(),
            index: IdIndex::new(),
            next_seq: 0,
            app_cursor: 0,
            occupancy_bytes: 0,
            way_io_lines: vec![0; p.total_ways],
            way_app_lines: vec![0; p.total_ways],
            stats: LlcStats::default(),
            p,
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
        self.index.len
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Whether a buffer is currently resident (no statistics side effects).
    #[inline]
    pub fn contains(&self, id: BufferId) -> bool {
        self.index.get(id).is_some()
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

    /// First way of the antagonist's claim range.
    #[inline]
    fn app_lo(&self) -> usize {
        self.p.ddio_ways - self.p.app_overlap_ways
    }

    /// Index into `app_touch` of way `way` of `set`.
    #[inline]
    fn touch_index(&self, set: usize, way: usize) -> usize {
        let lo = self.app_lo();
        set * (self.p.total_ways - lo) + (way - lo)
    }

    /// Free the lines of slab entry `k`, keeping its slab slot, its index
    /// entry and its line list's allocation.
    fn free_lines(&mut self, k: u32) {
        let ddio_ways = self.p.ddio_ways;
        let e = &mut self.bufs[k as usize];
        for &si in &e.lines {
            let si = si as usize;
            debug_assert_eq!(self.ddio[si], k);
            self.ddio[si] = EMPTY;
            self.way_io_lines[si % ddio_ways] -= 1;
        }
        e.lines.clear();
        self.occupancy_bytes -= e.bytes;
    }

    /// Drop resident buffer `k` entirely; returns its id. No eviction
    /// statistics — callers decide whether this is a consume or an eviction.
    fn release(&mut self, k: u32) -> BufferId {
        self.free_lines(k);
        let id = self.bufs[k as usize].id;
        self.index.remove(id);
        self.free.push(k);
        id
    }

    /// Evict resident buffer `k` whole (all its lines, possibly in other
    /// sets), with statistics.
    fn evict(&mut self, k: u32, by_app: bool, out: &mut Vec<BufferId>) {
        let bytes = self.bufs[k as usize].bytes;
        let age = self.next_seq - self.seq[k as usize];
        let victim = self.release(k);
        self.stats.evictions += 1;
        self.stats.evicted_bytes += bytes;
        self.stats.eviction_age_sum += age;
        if by_app {
            self.stats.app_evictions += 1;
        }
        out.push(victim);
    }

    /// First empty way of `set` within DDIO ways `[lo, ddio_ways)`.
    #[inline]
    fn first_empty(&self, set: usize, lo: usize) -> Option<usize> {
        let row = set * self.p.ddio_ways;
        (lo..self.p.ddio_ways).find(|&way| self.ddio[row + way] == EMPTY)
    }

    /// The least-recent line of `set` within full DDIO ways
    /// `[lo, ddio_ways)`, skipping lines of slab entry `protect`, as
    /// `(recency, way)`; ties go to the lowest way. `None` if every way is
    /// protected.
    fn oldest_ddio_line(&self, set: usize, lo: usize, protect: u32) -> Option<(u64, usize)> {
        let row = set * self.p.ddio_ways;
        let mut victim: Option<(u64, usize)> = None;
        for way in lo..self.p.ddio_ways {
            let code = self.ddio[row + way];
            debug_assert_ne!(code, EMPTY);
            if code == protect {
                continue;
            }
            let rec = if code == APP {
                self.app_touch[self.touch_index(set, way)]
            } else {
                self.seq[code as usize]
            };
            if victim.is_none_or(|(best, _)| rec < best) {
                victim = Some((rec, way));
            }
        }
        victim
    }

    /// Empty DDIO way `way` of `set`: drop its antagonist line, or evict
    /// the owning buffer whole.
    fn free_ddio_way(&mut self, set: usize, way: usize, by_app: bool, out: &mut Vec<BufferId>) {
        let si = set * self.p.ddio_ways + way;
        match self.ddio[si] {
            APP => {
                self.way_app_lines[way] -= 1;
                self.ddio[si] = EMPTY;
            }
            k => self.evict(k, by_app, out),
        }
        debug_assert_eq!(self.ddio[si], EMPTY);
    }

    /// Claim a DDIO way of `set` for a line of buffer `k`: an empty way if
    /// one exists, else the LRU owner's way after evicting that owner.
    /// Returns the way, or `None` if every DDIO way is already `k`'s own
    /// (DDIO never self-evicts).
    fn claim_io_way(&mut self, set: usize, k: u32, out: &mut Vec<BufferId>) -> Option<usize> {
        if let Some(way) = self.first_empty(set, 0) {
            return Some(way);
        }
        let (_, way) = self.oldest_ddio_line(set, 0, k)?;
        self.free_ddio_way(set, way, false, out);
        Some(way)
    }

    /// Advance the antagonist by `app_lines_per_insert` line touches. Each
    /// touch lands in a hashed set, in ways
    /// `[ddio_ways - app_overlap_ways, total_ways)` — its own partition plus
    /// any configured overlap into the DDIO slice — taking the lowest empty
    /// way, else the LRU line's way.
    fn advance_app(&mut self, out: &mut Vec<BufferId>) {
        let lo = self.app_lo();
        let ddio_ways = self.p.ddio_ways;
        let own = self.p.total_ways - ddio_ways;
        if lo == self.p.total_ways {
            return; // antagonist has no ways at all
        }
        for _ in 0..self.p.app_lines_per_insert {
            let set = (mix(self.app_cursor) as usize) % self.p.sets;
            self.app_cursor = self.app_cursor.wrapping_add(1);
            let touch = self.next_seq;
            self.next_seq += 1;
            let fifo = self.own[set];
            let way = if let Some(way) = self.first_empty(set, lo) {
                way
            } else if usize::from(fifo.filled) < own {
                self.own[set].filled += 1;
                self.way_app_lines[ddio_ways + usize::from(fifo.filled)] += 1;
                ddio_ways + usize::from(fifo.filled)
            } else {
                let head = ddio_ways + usize::from(fifo.head);
                // The overlap ways' LRU line competes with the own ways'
                // oldest line (the FIFO head), read only if one exists.
                let overlap = self.oldest_ddio_line(set, lo, EMPTY).filter(|&(rec, _)| {
                    own == 0 || rec < self.app_touch[self.touch_index(set, head)]
                });
                match overlap {
                    Some((_, way)) => {
                        self.free_ddio_way(set, way, true, out);
                        way
                    }
                    None => {
                        // Recycle the head in place: its way's count holds.
                        self.own[set].head = ((usize::from(fifo.head) + 1) % own) as u16;
                        head
                    }
                }
            };
            if way < ddio_ways {
                self.ddio[set * ddio_ways + way] = APP;
                self.way_app_lines[way] += 1;
            }
            if !self.app_touch.is_empty() {
                let ti = self.touch_index(set, way);
                self.app_touch[ti] = touch;
            }
        }
    }

    /// A slab entry for a newly resident `id`.
    fn alloc_entry(&mut self, id: BufferId) -> u32 {
        let k = match self.free.pop() {
            Some(k) => {
                self.bufs[k as usize].id = id;
                k
            }
            None => {
                self.bufs.push(BufEntry {
                    id,
                    bytes: 0,
                    lines: Vec::new(),
                });
                self.seq.push(0);
                // Room for every entry to be free at once, so releases
                // never grow the free list.
                self.free.reserve(self.bufs.len());
                (self.bufs.len() - 1) as u32
            }
        };
        self.index.insert(id, k);
        k
    }

    /// DDIO insertion of a DMA-written buffer: `ceil(bytes/64)` lines at
    /// consecutive sets from a hashed base. Appends the evicted buffers to
    /// `evicted` (the antagonist's victims first, then LRU-within-set
    /// victims in placement order); their consumers will miss to DRAM.
    ///
    /// Inserting an id that is already resident refreshes its recency and
    /// size (a buffer reused for a new packet), exactly like the pool model.
    pub fn insert(&mut self, id: BufferId, bytes: u64, evicted: &mut Vec<BufferId>) {
        self.stats.insertions += 1;
        self.advance_app(evicted);
        let k = match self.index.get(id) {
            Some(k) => {
                self.free_lines(k);
                k
            }
            None => self.alloc_entry(id),
        };
        self.seq[k as usize] = self.next_seq;
        self.next_seq += 1;
        let lines = bytes.div_ceil(LINE_BYTES).max(1);
        let mut held = std::mem::take(&mut self.bufs[k as usize].lines);
        let mut set = mix(id.0) as usize % self.p.sets;
        let mut overflowed = false;
        for _ in 0..lines {
            match self.claim_io_way(set, k, evicted) {
                Some(way) => {
                    let si = set * self.p.ddio_ways + way;
                    self.ddio[si] = k;
                    self.way_io_lines[way] += 1;
                    held.push(si as u32);
                }
                // Every DDIO way of this set is already held by the incoming
                // buffer itself: it wraps the index space. The line logically
                // lands but cannot be tracked — the buffer exceeds what the
                // partition can hold, mirroring the pool's oversized edge.
                None => overflowed = true,
            }
            set += 1;
            if set == self.p.sets {
                set = 0;
            }
        }
        if overflowed {
            self.stats.over_capacity_events += 1;
        }
        self.occupancy_bytes += bytes;
        let e = &mut self.bufs[k as usize];
        e.bytes = bytes;
        e.lines = held;
    }

    /// CPU lookup of a buffer: records a hit (refreshing buffer-level
    /// recency) or a miss. Returns `true` on hit.
    pub fn lookup(&mut self, id: BufferId) -> bool {
        match self.index.get(id) {
            Some(k) => {
                self.stats.hits += 1;
                self.seq[k as usize] = self.next_seq;
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
        if let Some(k) = self.index.get(id) {
            self.release(k);
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `insert`, collecting this call's evictions.
    fn ins(llc: &mut SetAssocLlc, id: u64, bytes: u64) -> Vec<BufferId> {
        let mut out = Vec::new();
        llc.insert(BufferId(id), bytes, &mut out);
        out
    }

    fn small(sets: usize, total_ways: usize, ddio_ways: usize) -> SetAssocLlc {
        SetAssocLlc::new(SetAssocParams {
            sets,
            total_ways,
            ddio_ways,
            app_lines_per_insert: 0,
            app_overlap_ways: 0,
        })
    }

    #[test]
    fn capacity_counts_only_ddio_ways() {
        let llc = small(16, 12, 6);
        assert_eq!(llc.capacity(), 16 * 6 * 64);
    }

    #[test]
    fn buffer_spans_consecutive_sets() {
        let mut llc = small(64, 4, 2);
        // 2 KB buffer = 32 lines = 32 distinct sets, one line each.
        assert!(ins(&mut llc, 7, 2048).is_empty());
        let occ = llc.way_occupancy();
        assert_eq!(occ.io_lines.iter().sum::<u64>(), 32);
        assert_eq!(
            occ.io_lines[2] + occ.io_lines[3],
            0,
            "non-DDIO ways untouched"
        );
        assert_eq!(llc.occupancy(), 2048);
    }

    #[test]
    fn lru_within_set_evicts_oldest_whole_buffer() {
        // 1 set, 2 DDIO ways of one line each: third single-line insert
        // evicts the oldest.
        let mut llc = small(1, 4, 2);
        ins(&mut llc, 1, 64);
        ins(&mut llc, 2, 64);
        let ev = ins(&mut llc, 3, 64);
        assert_eq!(ev, vec![BufferId(1)]);
        assert!(llc.contains(BufferId(2)) && llc.contains(BufferId(3)));
        assert_eq!(llc.stats().evictions, 1);
        assert_eq!(llc.stats().evicted_bytes, 64);
    }

    #[test]
    fn lookup_refreshes_recency() {
        let mut llc = small(1, 4, 2);
        ins(&mut llc, 1, 64);
        ins(&mut llc, 2, 64);
        assert!(llc.lookup(BufferId(1)));
        let ev = ins(&mut llc, 3, 64);
        assert_eq!(ev, vec![BufferId(2)], "2 is now LRU");
    }

    #[test]
    fn eviction_in_one_set_frees_lines_in_others() {
        // 4 sets, 1 DDIO way: a 256-byte buffer (4 lines) fills every set.
        // A single-line insert evicts it whole, freeing all 4 sets.
        let mut llc = small(4, 2, 1);
        ins(&mut llc, 1, 256);
        let ev = ins(&mut llc, 2, 64);
        assert_eq!(ev, vec![BufferId(1)]);
        assert_eq!(llc.way_occupancy().io_lines[0], 1);
        assert_eq!(llc.occupancy(), 64);
    }

    #[test]
    fn oversized_buffer_flags_over_capacity() {
        // 2 sets x 1 DDIO way = 128 B capacity; a 256 B buffer wraps and
        // collides with itself.
        let mut llc = small(2, 2, 1);
        let ev = ins(&mut llc, 1, 256);
        assert!(ev.is_empty(), "never evicts the incoming buffer");
        assert!(llc.contains(BufferId(1)));
        assert_eq!(llc.stats().over_capacity_events, 1);
        assert!(llc.occupancy() > llc.capacity());
    }

    #[test]
    fn consume_frees_all_lines() {
        let mut llc = small(8, 4, 2);
        ins(&mut llc, 1, 512);
        llc.consume(BufferId(1));
        assert_eq!(llc.occupancy(), 0);
        assert_eq!(llc.way_occupancy().io_lines.iter().sum::<u64>(), 0);
        assert_eq!(llc.resident_count(), 0);
    }

    #[test]
    fn antagonist_stays_in_own_partition_without_overlap() {
        let mut llc = SetAssocLlc::new(SetAssocParams {
            sets: 16,
            total_ways: 4,
            ddio_ways: 2,
            app_lines_per_insert: 8,
            app_overlap_ways: 0,
        });
        for i in 0..64 {
            ins(&mut llc, i, 64);
        }
        let occ = llc.way_occupancy();
        assert_eq!(occ.app_lines[0] + occ.app_lines[1], 0);
        assert!(occ.app_lines[2] + occ.app_lines[3] > 0);
        assert_eq!(llc.stats().app_evictions, 0);
    }

    #[test]
    fn overlapping_antagonist_evicts_io() {
        let mut llc = SetAssocLlc::new(SetAssocParams {
            sets: 4,
            total_ways: 4,
            ddio_ways: 2,
            app_lines_per_insert: 8,
            app_overlap_ways: 2,
        });
        let mut evicted_total = 0;
        for i in 0..256 {
            evicted_total += ins(&mut llc, i, 64).len() as u64;
        }
        assert!(
            llc.stats().app_evictions > 0,
            "overlapping antagonist must evict I/O buffers"
        );
        assert!(evicted_total >= llc.stats().app_evictions);
        // Attribution: every app eviction is also a plain eviction.
        assert!(llc.stats().evictions >= llc.stats().app_evictions);
    }

    #[test]
    fn reinserting_same_id_refreshes_without_double_count() {
        let mut llc = small(8, 4, 2);
        ins(&mut llc, 1, 512);
        ins(&mut llc, 1, 512);
        assert_eq!(llc.occupancy(), 512);
        assert_eq!(llc.resident_count(), 1);
        assert_eq!(llc.way_occupancy().io_lines.iter().sum::<u64>(), 8);
    }

    #[test]
    fn bypass_counts_without_residency() {
        let mut llc = small(8, 4, 2);
        llc.bypass(2048);
        assert_eq!(llc.stats().bypasses, 1);
        assert_eq!(llc.occupancy(), 0);
    }

    #[test]
    fn fewer_ddio_ways_evict_earlier() {
        // Same insert trace; the 2-way cache must evict strictly more than
        // the 6-way cache — the monotone trend the ddio experiment sweeps.
        let trace: Vec<(u64, u64)> = (0..128).map(|i| (i, 256)).collect();
        let mut narrow = small(32, 8, 2);
        let mut wide = small(32, 8, 6);
        for &(id, bytes) in &trace {
            ins(&mut narrow, id, bytes);
            ins(&mut wide, id, bytes);
        }
        assert!(narrow.stats().evictions > wide.stats().evictions);
    }

    #[test]
    fn antagonist_recycles_its_own_ways_oldest_first() {
        // 1 set, 1 DDIO way, 3 antagonist ways, 1 touch per insert: after
        // the 3 ways fill in order, every touch replaces the oldest line.
        let mut llc = SetAssocLlc::new(SetAssocParams {
            sets: 1,
            total_ways: 4,
            ddio_ways: 1,
            app_lines_per_insert: 1,
            app_overlap_ways: 0,
        });
        for i in 0..3 {
            ins(&mut llc, i, 64);
            assert_eq!(usize::from(llc.own[0].filled), i as usize + 1);
        }
        assert_eq!(llc.way_occupancy().app_lines, vec![0, 1, 1, 1]);
        for i in 3..10 {
            ins(&mut llc, i, 64);
            assert_eq!(usize::from(llc.own[0].head), (i as usize - 2) % 3);
        }
        assert_eq!(llc.way_occupancy().app_lines, vec![0, 1, 1, 1]);
        assert_eq!(llc.stats().app_evictions, 0);
    }

    #[test]
    fn id_index_survives_growth_and_backward_shift_removal() {
        let mut ix = IdIndex::new();
        for i in 0..1000u32 {
            ix.insert(BufferId(u64::from(i) * 7), i);
        }
        for i in (0..1000u32).step_by(2) {
            ix.remove(BufferId(u64::from(i) * 7));
        }
        assert_eq!(ix.len, 500);
        for i in 0..1000u32 {
            let want = (i % 2 == 1).then_some(i);
            assert_eq!(ix.get(BufferId(u64::from(i) * 7)), want);
        }
        ix.remove(BufferId(3)); // absent: no-op
        assert_eq!(ix.len, 500);
    }
}
