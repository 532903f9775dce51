//! Occupancy-LRU model of the DDIO-reachable LLC partition.
//!
//! The paper's LLC pathology is entirely an *occupancy* phenomenon: DDIO
//! writes allocate into a fixed slice of the LLC (typically 2 ways); once the
//! volume of in-flight, not-yet-consumed I/O data exceeds that slice, newly
//! arriving packets evict older unconsumed ones to DRAM, and the CPU later
//! misses on them (§2.2). A set-indexed model adds nothing for 2 KB buffers
//! that span 32 sets each, so we model the partition as a single LRU pool of
//! variable-size buffer entries with byte-accurate occupancy.

use std::collections::BTreeMap;

use serde::Serialize;

/// Identifier of one I/O buffer resident in (or evicted from) the LLC.
///
/// The host machine allocates these densely; the LLC only needs them to be
/// unique among in-flight buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct BufferId(pub u64);

/// Counters exported by the LLC model.
#[derive(Debug, Default, Clone, Serialize)]
pub struct LlcStats {
    /// DMA insertions into the I/O partition.
    pub insertions: u64,
    /// CPU lookups that found the buffer resident.
    pub hits: u64,
    /// CPU lookups that missed (buffer evicted or never cached).
    pub misses: u64,
    /// Buffers evicted by later insertions before being consumed.
    pub evictions: u64,
    /// Bytes evicted to DRAM.
    pub evicted_bytes: u64,
    /// DMA writes that bypassed the cache entirely (DDIO disabled): the
    /// line went straight to DRAM without allocating in the partition.
    pub bypasses: u64,
    /// Insertions that left the partition above capacity: the incoming
    /// buffer was larger than the space evictable around it, so occupancy
    /// exceeded capacity with no victim left to evict. Previously this
    /// state was silent; scope/SLO rules key off this counter.
    pub over_capacity_events: u64,
    /// Buffers evicted by the application antagonist stream rather than by
    /// competing I/O (set-associative model only; always zero for the pool).
    pub app_evictions: u64,
    /// Sum over evictions of the victim's age (recency-sequence delta at
    /// eviction time). Mean eviction age = `eviction_age_sum / evictions`;
    /// a shrinking mean means buffers are being churned out younger.
    pub eviction_age_sum: u64,
}

impl LlcStats {
    /// Miss rate over all CPU lookups, in `[0, 1]`; zero when no lookups.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    bytes: u64,
}

/// The DDIO-reachable LLC partition: an LRU pool of I/O buffer entries.
#[derive(Debug)]
pub struct IoLlc {
    capacity_bytes: u64,
    occupancy_bytes: u64,
    next_seq: u64,
    /// BufferId -> entry metadata (ordered, so any future iteration is
    /// deterministic; lookups are O(log n) on a map that stays small).
    entries: BTreeMap<BufferId, Entry>,
    /// LRU order: recency sequence -> BufferId (smallest = oldest).
    order: BTreeMap<u64, BufferId>,
    stats: LlcStats,
}

impl IoLlc {
    /// A pool with the given byte capacity.
    pub fn new(capacity_bytes: u64) -> IoLlc {
        IoLlc {
            capacity_bytes,
            occupancy_bytes: 0,
            next_seq: 0,
            entries: BTreeMap::new(),
            order: BTreeMap::new(),
            stats: LlcStats::default(),
        }
    }

    /// Bytes currently resident.
    #[inline]
    pub fn occupancy(&self) -> u64 {
        self.occupancy_bytes
    }

    /// Configured capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of resident buffers.
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

    /// DDIO insertion of a DMA-written buffer. Appends the buffers evicted
    /// (oldest first) to make room to `evicted`; their consumers will miss
    /// to DRAM.
    ///
    /// Inserting an id that is already resident refreshes its recency and
    /// size (a buffer reused for a new packet).
    pub fn insert(&mut self, id: BufferId, bytes: u64, evicted: &mut Vec<BufferId>) {
        self.stats.insertions += 1;
        if let Some(old) = self.entries.remove(&id) {
            self.order.remove(&old.seq);
            self.occupancy_bytes -= old.bytes;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(id, Entry { seq, bytes });
        self.order.insert(seq, id);
        self.occupancy_bytes += bytes;

        while self.occupancy_bytes > self.capacity_bytes && self.entries.len() > 1 {
            // Evict the least recently written/used entry, but never the one
            // just inserted (DDIO always lands the incoming line).
            let (&oldest_seq, &victim) = self
                .order
                .iter()
                .next()
                .expect("invariant: occupancy > 0 implies `order` is non-empty");
            if victim == id {
                break;
            }
            self.order.remove(&oldest_seq);
            let e = self
                .entries
                .remove(&victim)
                .expect("invariant: `order` and `entries` index the same set of buffers");
            self.occupancy_bytes -= e.bytes;
            self.stats.evictions += 1;
            self.stats.evicted_bytes += e.bytes;
            self.stats.eviction_age_sum += self.next_seq - oldest_seq;
            evicted.push(victim);
        }
        if self.occupancy_bytes > self.capacity_bytes {
            // Nothing left to evict around the incoming buffer: it alone
            // exceeds the partition. Make the state visible instead of
            // silently reporting occupancy > capacity.
            self.stats.over_capacity_events += 1;
        }
    }

    /// CPU lookup of a buffer: records a hit (refreshing recency) or a miss.
    /// Returns `true` on hit.
    pub fn lookup(&mut self, id: BufferId) -> bool {
        match self.entries.get(&id).map(|e| e.seq) {
            Some(seq) => {
                self.stats.hits += 1;
                // Refresh recency.
                self.order.remove(&seq);
                let new_seq = self.next_seq;
                self.next_seq += 1;
                self.order.insert(new_seq, id);
                self.entries
                    .get_mut(&id)
                    .expect("invariant: entry was present in the `Some` arm above")
                    .seq = new_seq;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Remove a buffer the CPU has finished consuming (ownership returned to
    /// the buffer pool). No-op if already evicted.
    pub fn consume(&mut self, id: BufferId) {
        if let Some(e) = self.entries.remove(&id) {
            self.order.remove(&e.seq);
            self.occupancy_bytes -= e.bytes;
        }
    }

    /// A DMA write that bypasses the cache (DDIO disabled): the buffer goes
    /// straight to DRAM and never becomes resident. Only the counter moves;
    /// the later CPU lookup will record the compulsory miss.
    pub fn bypass(&mut self, bytes: u64) {
        let _ = bytes; // pool model has no line-granular accounting
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
    fn ins(llc: &mut IoLlc, id: u64, bytes: u64) -> Vec<BufferId> {
        let mut out = Vec::new();
        llc.insert(BufferId(id), bytes, &mut out);
        out
    }

    fn ids(v: &[u64]) -> Vec<BufferId> {
        v.iter().map(|&i| BufferId(i)).collect()
    }

    #[test]
    fn fills_to_capacity_without_eviction() {
        let mut llc = IoLlc::new(8192);
        for i in 0..4 {
            assert!(ins(&mut llc, i, 2048).is_empty());
        }
        assert_eq!(llc.occupancy(), 8192);
        assert_eq!(llc.stats().evictions, 0);
    }

    #[test]
    fn overflow_evicts_lru_first() {
        let mut llc = IoLlc::new(4096);
        ins(&mut llc, 1, 2048);
        ins(&mut llc, 2, 2048);
        let evicted = ins(&mut llc, 3, 2048);
        assert_eq!(evicted, ids(&[1]));
        assert!(llc.contains(BufferId(2)));
        assert!(llc.contains(BufferId(3)));
        assert_eq!(llc.occupancy(), 4096);
    }

    #[test]
    fn lookup_refreshes_recency() {
        let mut llc = IoLlc::new(4096);
        ins(&mut llc, 1, 2048);
        ins(&mut llc, 2, 2048);
        assert!(llc.lookup(BufferId(1))); // 1 becomes most recent
        let evicted = ins(&mut llc, 3, 2048);
        assert_eq!(evicted, ids(&[2]), "2 is now LRU");
    }

    #[test]
    fn miss_recorded_for_evicted_buffer() {
        let mut llc = IoLlc::new(2048);
        ins(&mut llc, 1, 2048);
        ins(&mut llc, 2, 2048); // evicts 1
        assert!(!llc.lookup(BufferId(1)));
        assert!(llc.lookup(BufferId(2)));
        let s = llc.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 1));
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn consume_frees_occupancy() {
        let mut llc = IoLlc::new(4096);
        ins(&mut llc, 1, 2048);
        ins(&mut llc, 2, 2048);
        llc.consume(BufferId(1));
        assert_eq!(llc.occupancy(), 2048);
        // Room again: no eviction.
        assert!(ins(&mut llc, 3, 2048).is_empty());
    }

    #[test]
    fn consume_after_eviction_is_noop() {
        let mut llc = IoLlc::new(2048);
        ins(&mut llc, 1, 2048);
        ins(&mut llc, 2, 2048);
        llc.consume(BufferId(1)); // already evicted
        assert_eq!(llc.occupancy(), 2048);
    }

    #[test]
    fn reinserting_same_id_refreshes_without_double_count() {
        let mut llc = IoLlc::new(4096);
        ins(&mut llc, 1, 2048);
        ins(&mut llc, 1, 2048);
        assert_eq!(llc.occupancy(), 2048);
        assert_eq!(llc.resident_count(), 1);
    }

    #[test]
    fn never_evicts_incoming_buffer() {
        // Oversized buffer relative to capacity: stays resident alone.
        let mut llc = IoLlc::new(1024);
        let evicted = ins(&mut llc, 1, 4096);
        assert!(evicted.is_empty());
        assert!(llc.contains(BufferId(1)));
    }

    #[test]
    fn over_capacity_insert_is_counted() {
        let mut llc = IoLlc::new(1024);
        ins(&mut llc, 1, 4096);
        assert_eq!(llc.stats().over_capacity_events, 1);
        // Evicting everything else and still not fitting also counts.
        let mut llc = IoLlc::new(4096);
        ins(&mut llc, 1, 2048);
        ins(&mut llc, 2, 8192);
        assert_eq!(llc.stats().over_capacity_events, 1);
        assert_eq!(llc.stats().evictions, 1);
    }

    #[test]
    fn within_capacity_insert_is_not_over_capacity() {
        let mut llc = IoLlc::new(4096);
        ins(&mut llc, 1, 2048);
        ins(&mut llc, 2, 2048);
        ins(&mut llc, 3, 2048); // evicts 1, fits fine
        assert_eq!(llc.stats().over_capacity_events, 0);
    }

    #[test]
    fn bypass_counts_without_residency() {
        let mut llc = IoLlc::new(4096);
        llc.bypass(2048);
        llc.bypass(2048);
        assert_eq!(llc.stats().bypasses, 2);
        assert_eq!(llc.occupancy(), 0);
        assert_eq!(llc.resident_count(), 0);
    }

    #[test]
    fn eviction_age_accumulates() {
        let mut llc = IoLlc::new(2048);
        ins(&mut llc, 1, 2048); // seq 0
        ins(&mut llc, 2, 2048); // seq 1; evicts 1 (age = 2 - 0)
        assert_eq!(llc.stats().eviction_age_sum, 2);
        assert_eq!(llc.stats().evictions, 1);
    }

    #[test]
    fn steady_state_overflow_miss_rate_is_high() {
        // Producer inserts 2x faster than consumer reads: half the buffers
        // get evicted before consumption -> miss rate approaches the
        // overflow fraction. Shape check for the Fig. 9 baseline (~88%).
        let mut llc = IoLlc::new(16 * 2048);
        for next_read in 0..10_000u64 {
            ins(&mut llc, 2 * next_read, 2048);
            ins(&mut llc, 2 * next_read + 1, 2048);
            // Consumer keeps up with half the rate.
            llc.lookup(BufferId(next_read));
            llc.consume(BufferId(next_read));
        }
        assert!(
            llc.stats().miss_rate() > 0.45,
            "rate {}",
            llc.stats().miss_rate()
        );
    }
}
