//! The [`Llc`] seam: one interface over the two LLC models.
//!
//! The memory controller (and everything above it: DMA retire, CPU
//! consume, HostCC's miss signal, telemetry, scope) talks to the LLC only
//! through this enum's inherent methods, so the pool model and the
//! set-associative model are interchangeable per run. The pool stays the
//! default — existing golden CSVs are byte-identical by construction
//! because default-config runs never construct a [`SetAssocLlc`].
//!
//! [`Llc`] is an enum rather than a boxed trait object so the controller
//! keeps `Debug`, avoids an allocation per machine, and dispatches with
//! one `match` per call.

use crate::llc::{BufferId, IoLlc, LlcStats};
use crate::params::{LlcModelKind, MemParams};
use crate::setassoc::SetAssocLlc;

/// Per-way line counts, reported by models that track way geometry.
///
/// Index = way. The DDIO partition is ways `[0, ddio_ways)`; I/O lines
/// outside it never occur, and application lines inside it only occur when
/// the antagonist is configured to overlap.
#[derive(Debug, Clone, Default)]
pub struct WayOccupancy {
    /// Resident I/O buffer lines per way.
    pub io_lines: Vec<u64>,
    /// Resident application (antagonist) lines per way.
    pub app_lines: Vec<u64>,
}

/// The LLC model selected by [`MemParams::llc_model`].
#[derive(Debug)]
pub enum Llc {
    /// Seed flat LRU byte pool over the DDIO partition (default).
    Pool(IoLlc),
    /// Way-partitioned set-associative model with app contention.
    SetAssoc(Box<SetAssocLlc>),
}

/// Forward one method to whichever variant is live.
macro_rules! delegate {
    ($self:ident, $m:ident $(, $arg:expr)*) => {
        match $self {
            Llc::Pool(l) => l.$m($($arg),*),
            Llc::SetAssoc(l) => l.$m($($arg),*),
        }
    };
}

impl Llc {
    /// Build the model `p` selects, sized from `p`'s geometry.
    pub fn from_params(p: &MemParams) -> Llc {
        match p.llc_model {
            LlcModelKind::Pool => Llc::Pool(IoLlc::new(p.ddio_bytes)),
            LlcModelKind::SetAssoc => {
                Llc::SetAssoc(Box::new(SetAssocLlc::new(p.set_assoc_params())))
            }
        }
    }

    /// DDIO insertion of a DMA-written buffer; appends the buffers evicted
    /// to make room to `evicted` (their consumers will miss to DRAM).
    pub fn insert(&mut self, id: BufferId, bytes: u64, evicted: &mut Vec<BufferId>) {
        delegate!(self, insert, id, bytes, evicted)
    }
    /// CPU lookup: hit (refreshing recency) or miss. `true` on hit.
    pub fn lookup(&mut self, id: BufferId) -> bool {
        delegate!(self, lookup, id)
    }
    /// Remove a consumed buffer; no-op if already evicted.
    pub fn consume(&mut self, id: BufferId) {
        delegate!(self, consume, id)
    }
    /// A DMA write routed around the cache (DDIO disabled).
    pub fn bypass(&mut self, bytes: u64) {
        delegate!(self, bypass, bytes)
    }
    /// Whether a buffer is resident (no statistics side effects).
    pub fn contains(&self, id: BufferId) -> bool {
        delegate!(self, contains, id)
    }
    /// Bytes of I/O buffers currently resident.
    pub fn occupancy(&self) -> u64 {
        delegate!(self, occupancy)
    }
    /// Capacity of the DDIO-reachable partition in bytes.
    pub fn capacity(&self) -> u64 {
        delegate!(self, capacity)
    }
    /// Number of resident I/O buffers.
    pub fn resident_count(&self) -> usize {
        delegate!(self, resident_count)
    }
    /// Read-only statistics.
    pub fn stats(&self) -> &LlcStats {
        delegate!(self, stats)
    }
    /// Reset statistics (keeps contents).
    pub fn clear_stats(&mut self) {
        delegate!(self, clear_stats)
    }
    /// Per-way occupancy when the live model has way geometry.
    pub fn way_occupancy(&self) -> Option<WayOccupancy> {
        match self {
            Llc::Pool(_) => None,
            Llc::SetAssoc(l) => Some(l.way_occupancy()),
        }
    }
    /// Bytes by which I/O occupancy currently exceeds the partition
    /// capacity (0 when within bounds) — the scope series behind the
    /// over-capacity SLO.
    pub fn over_capacity_bytes(&self) -> u64 {
        self.occupancy().saturating_sub(self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_params() -> MemParams {
        MemParams::default()
    }

    fn setassoc_params() -> MemParams {
        MemParams {
            llc_model: LlcModelKind::SetAssoc,
            ..MemParams::default()
        }
    }

    #[test]
    fn default_params_build_the_pool() {
        let llc = Llc::from_params(&pool_params());
        assert!(matches!(llc, Llc::Pool(_)));
        assert!(llc.way_occupancy().is_none());
    }

    #[test]
    fn setassoc_selection_builds_way_model() {
        let llc = Llc::from_params(&setassoc_params());
        assert!(matches!(llc, Llc::SetAssoc(_)));
        let occ = llc.way_occupancy().expect("way geometry present");
        assert_eq!(occ.io_lines.len(), 12);
    }

    #[test]
    fn pool_and_setassoc_default_capacity_agree() {
        // 12 MiB / 12 ways * 6 DDIO ways == the pool's 6 MiB ddio_bytes:
        // credit derivation is unchanged under the default geometry.
        let pool = Llc::from_params(&pool_params());
        let sa = Llc::from_params(&setassoc_params());
        assert_eq!(pool.capacity(), sa.capacity());
    }

    #[test]
    fn dispatch_reaches_the_live_model() {
        let mut llc = Llc::from_params(&setassoc_params());
        let mut evicted = Vec::new();
        llc.insert(BufferId(1), 2048, &mut evicted);
        assert!(evicted.is_empty());
        assert!(llc.contains(BufferId(1)));
        assert_eq!(llc.occupancy(), 2048);
        llc.bypass(64);
        assert_eq!(llc.stats().bypasses, 1);
        llc.consume(BufferId(1));
        assert_eq!(llc.occupancy(), 0);
        llc.clear_stats();
        assert_eq!(llc.stats().insertions, 0);
    }

    #[test]
    fn over_capacity_bytes_tracks_excess() {
        let mut llc = Llc::Pool(IoLlc::new(1024));
        assert_eq!(llc.over_capacity_bytes(), 0);
        llc.insert(BufferId(1), 4096, &mut Vec::new());
        assert_eq!(llc.over_capacity_bytes(), 3072);
    }
}
