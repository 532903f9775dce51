//! # ceio-core — the CEIO architecture (the paper's contribution)
//!
//! CEIO is an I/O manager at the entrance of the I/O data path — the NIC —
//! built from two mechanisms:
//!
//! 1. **Proactive, credit-based flow control** (§4.1, [`credit`],
//!    [`policy`]): every packet consumes a credit before it may be DMAed
//!    toward the LLC; the credit total equals the DDIO-reachable LLC
//!    capacity divided by the I/O buffer size (Eq. 1), so the in-flight I/O
//!    volume can never overflow the cache. Credits are released *lazily*,
//!    only when the driver advances a ring head pointer after a batch of
//!    messages — which CPU-involved (polled, small-message) flows do
//!    continuously and CPU-bypass (completion-signalled, huge-message)
//!    flows do rarely, so bypass flows drain their credits and degrade to
//!    the slow path without any explicit priority tagging. Algorithm 1
//!    ([`credit::CreditManager`]) governs reallocation when flows arrive,
//!    with an owed-credit ledger for flows that could not contribute their
//!    fair share immediately.
//! 2. **Elastic buffering** (§4.2, [`policy`]): packets that cannot
//!    obtain a credit are steered — by rewriting the flow's RMT rule —
//!    into on-NIC memory instead of being dropped, avoiding the spurious
//!    congestion-control triggers that plague fixed-capacity schemes. A
//!    software ring (`ceio_host::SwRing`, each flow's receive path in the
//!    host machine) unifies the fast-path and slow-path hardware rings
//!    behind one ordered consumer; **phase exclusivity** (the fast path
//!    stays paused while slow-path packets exist) preserves per-flow
//!    ordering with no per-packet metadata, and asynchronous DMA reads
//!    overlap slow-path fetches with fast-path processing.
//!
//! [`CeioPolicy`] plugs both mechanisms into the `ceio-host` machine as an
//! `IoPolicy`; [`CeioConfig`] exposes the ablation switches the evaluation
//! sweeps (sync vs async fetch, credit reallocation on/off — Table 4).
//! [`MpqPolicy`] is the §4.1 design alternative (PIAS-style multiple
//! priority queues) the paper rejects, kept executable so the rejection is
//! measurable (ablation D).

#![warn(missing_docs)]

pub mod config;
pub mod credit;
pub mod mpq;
pub mod policy;
pub mod sharded;

pub use config::CeioConfig;
pub use credit::CreditManager;
pub use mpq::{MpqConfig, MpqPolicy};
pub use policy::CeioPolicy;
pub use sharded::ShardedCredits;
