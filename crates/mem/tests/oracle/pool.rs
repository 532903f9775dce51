//! The pool LLC exactly as it was before the slab-and-list layout: a
//! `BTreeMap` of resident buffers and a `BTreeMap` LRU order keyed by
//! recency sequence.
//!
//! Test-only reference model. `pool_reference.rs` drives random traces
//! through it and through `ceio_mem::IoLlc` and requires identical
//! observable behaviour. Apart from this header and the imports, the code
//! is unchanged; do not optimise it.

#![allow(dead_code)]

use std::collections::BTreeMap;

use ceio_mem::{BufferId, LlcStats};

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
