//! Occupancy-LRU model of the DDIO-reachable LLC partition.
//!
//! The paper's LLC pathology is entirely an *occupancy* phenomenon: DDIO
//! writes allocate into a fixed slice of the LLC (typically 2 ways); once the
//! volume of in-flight, not-yet-consumed I/O data exceeds that slice, newly
//! arriving packets evict older unconsumed ones to DRAM, and the CPU later
//! misses on them (§2.2). A set-indexed model adds nothing for 2 KB buffers
//! that span 32 sets each, so we model the partition as a single LRU pool of
//! variable-size buffer entries with byte-accurate occupancy.
//!
//! Layout. Every DMA insert, CPU read and consume sits on the per-packet
//! path, so each is a few array reads and no allocation once warm:
//!
//! * resident buffers live in a slab of nodes; a freed node is reused by
//!   the next insertion;
//! * the `BufferId -> node` index is the open-addressed table shared with
//!   the set-associative model (never iterated, so its bucket layout
//!   cannot reach any output);
//! * recency is an intrusive doubly-linked list over node indices, oldest
//!   at the head. Every insertion and hit takes the next recency sequence
//!   and moves its node to the tail, so list order *is* sequence order and
//!   the LRU victim is always the head.

use crate::setassoc::{IdIndex, EMPTY};

/// Identifier of one I/O buffer resident in (or evicted from) the LLC.
///
/// The host machine allocates these densely; the LLC only needs them to be
/// unique among in-flight buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u64);

/// Counters exported by the LLC model.
#[derive(Debug, Default, Clone)]
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

/// One resident buffer: a slab node linked into the recency list.
#[derive(Debug, Clone, Copy)]
struct Node {
    id: BufferId,
    bytes: u64,
    /// Recency sequence of the last insertion or hit.
    seq: u64,
    /// Next-older node, or [`EMPTY`] at the head.
    prev: u32,
    /// Next-newer node, or [`EMPTY`] at the tail.
    next: u32,
}

/// The DDIO-reachable LLC partition: an LRU pool of I/O buffer entries.
#[derive(Debug)]
pub struct IoLlc {
    capacity_bytes: u64,
    occupancy_bytes: u64,
    next_seq: u64,
    /// Slab of resident buffers; freed nodes are listed in `free`.
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// `BufferId -> node` for every resident buffer.
    index: IdIndex,
    /// Least recently written/used node ([`EMPTY`] when nothing resides).
    head: u32,
    /// Most recently written/used node.
    tail: u32,
    stats: LlcStats,
}

impl IoLlc {
    /// A pool with the given byte capacity.
    pub fn new(capacity_bytes: u64) -> IoLlc {
        IoLlc {
            capacity_bytes,
            occupancy_bytes: 0,
            next_seq: 0,
            nodes: Vec::new(),
            free: Vec::new(),
            index: IdIndex::new(),
            head: EMPTY,
            tail: EMPTY,
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
        self.index.len()
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

    /// Detach node `k` from the recency list.
    #[inline]
    fn unlink(&mut self, k: u32) {
        let Node { prev, next, .. } = self.nodes[k as usize];
        match prev {
            EMPTY => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            EMPTY => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Give node `k` the next recency sequence and append it at the tail.
    #[inline]
    fn push_newest(&mut self, k: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tail = self.tail;
        let node = &mut self.nodes[k as usize];
        node.seq = seq;
        node.prev = tail;
        node.next = EMPTY;
        match tail {
            EMPTY => self.head = k,
            t => self.nodes[t as usize].next = k,
        }
        self.tail = k;
    }

    /// Drop resident node `k`: unlink and unindex it, free its bytes and
    /// return it to the slab.
    #[inline]
    fn release(&mut self, k: u32) -> Node {
        self.unlink(k);
        let node = self.nodes[k as usize];
        self.index.remove(node.id);
        self.occupancy_bytes -= node.bytes;
        self.free.push(k);
        node
    }

    /// A node for a newly resident `id`, indexed but not yet linked.
    fn alloc_node(&mut self, id: BufferId) -> u32 {
        let node = Node {
            id,
            bytes: 0,
            seq: 0,
            prev: EMPTY,
            next: EMPTY,
        };
        let k = match self.free.pop() {
            Some(k) => {
                self.nodes[k as usize] = node;
                k
            }
            None => {
                self.nodes.push(node);
                // Room for every node to be free at once, so releases
                // never grow the free list.
                self.free.reserve(self.nodes.len());
                (self.nodes.len() - 1) as u32
            }
        };
        self.index.insert(id, k);
        k
    }

    /// DDIO insertion of a DMA-written buffer. Appends the buffers evicted
    /// (oldest first) to make room to `evicted`; their consumers will miss
    /// to DRAM.
    ///
    /// Inserting an id that is already resident refreshes its recency and
    /// size (a buffer reused for a new packet).
    pub fn insert(&mut self, id: BufferId, bytes: u64, evicted: &mut Vec<BufferId>) {
        self.stats.insertions += 1;
        let k = match self.index.get(id) {
            Some(k) => {
                self.unlink(k);
                self.occupancy_bytes -= self.nodes[k as usize].bytes;
                k
            }
            None => self.alloc_node(id),
        };
        self.nodes[k as usize].bytes = bytes;
        self.push_newest(k);
        self.occupancy_bytes += bytes;

        while self.occupancy_bytes > self.capacity_bytes && self.index.len() > 1 {
            // Evict the least recently written/used entry, but never the one
            // just inserted (DDIO always lands the incoming line).
            let victim = self.head;
            if victim == k {
                break;
            }
            let node = self.release(victim);
            self.stats.evictions += 1;
            self.stats.evicted_bytes += node.bytes;
            self.stats.eviction_age_sum += self.next_seq - node.seq;
            evicted.push(node.id);
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
        match self.index.get(id) {
            Some(k) => {
                self.stats.hits += 1;
                self.unlink(k);
                self.push_newest(k);
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
        if let Some(k) = self.index.get(id) {
            self.release(k);
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
