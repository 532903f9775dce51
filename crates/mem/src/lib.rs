//! # ceio-mem — host memory hierarchy model
//!
//! Models the three host-side memory components on the NIC→CPU data path of
//! CEIO (Fig. 2 of the paper):
//!
//! * [`IioBuffer`] — the Integrated I/O buffer that PCIe writes land in
//!   before the memory controller drains them (stage ②→③). Its occupancy is
//!   the congestion signal HostCC monitors.
//! * [`IoLlc`] / [`SetAssocLlc`] — two models of the DDIO-reachable LLC
//!   partition, dispatched by the [`Llc`] enum. The pool ([`IoLlc`], default)
//!   is an occupancy-LRU pool of I/O buffers: in-flight I/O bytes beyond its
//!   capacity evict the least-recently-written buffers to DRAM *before the
//!   CPU reads them* — the premature-eviction pathology that all of §2.2 is
//!   about. The set-associative model ([`SetAssocLlc`]) adds the way-level
//!   cause: S sets × W ways with a DDIO-reachable slice of `ddio_ways` ways
//!   (§4.1: 6 of 12) and a deterministic application antagonist contending
//!   for the rest.
//! * [`Dram`] — a FIFO bandwidth server with a base load latency; CPU misses
//!   and DDIO evictions contend here for the same bandwidth, reproducing the
//!   §2.2 observation that misses burn memory bandwidth needed by CPU-bypass
//!   flows.
//!
//! [`MemoryController`] glues the three together and is the single entry
//! point the host machine uses for DMA writes and CPU reads.

#![warn(missing_docs)]

pub mod dram;
pub mod iio;
pub mod llc;
pub mod memctrl;
pub mod model;
pub mod params;
pub mod setassoc;

pub use dram::Dram;
pub use iio::IioBuffer;
pub use llc::{BufferId, IoLlc, LlcStats};
pub use memctrl::{CpuReadOutcome, DmaWriteOutcome, MemoryController};
pub use model::{Llc, WayOccupancy};
pub use params::{LlcModelKind, MemParams};
pub use setassoc::{SetAssocLlc, SetAssocParams, LINE_BYTES};
