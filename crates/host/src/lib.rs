//! # ceio-host — the event-driven receive host
//!
//! Composes every substrate model into one receive-side host machine (the
//! full Fig. 2 pipeline):
//!
//! ```text
//! senders ──(ingress link, DCTCP)──▶ NIC [RMT steer, firmware]
//!    ├─ fast path: DMA ▶ PCIe ▶ IIO ▶ LLC(DDIO)/DRAM ▶ host ring ▶ core poll ▶ app
//!    └─ slow path: on-NIC memory ▶ (driver DMA read) ▶ same host pipeline
//! ```
//!
//! The I/O management policy — what CEIO is, and what HostCC/ShRing/legacy
//! are — plugs in through the [`IoPolicy`] trait: it decides packet steering
//! at the NIC, reacts to batch consumption (credit release), drives the
//! slow-path drain from the driver, and runs a periodic controller loop on
//! the NIC's ARM core. Everything else (DMA mechanics, IIO backpressure,
//! ordered delivery, CPU polling, congestion feedback, measurement) is
//! machine infrastructure shared by every policy, so experiments compare
//! *policies*, never simulation plumbing.
//!
//! Ordered delivery — the software-ring contract of §4.2 — is enforced by
//! per-flow NIC-arrival sequence numbers: the driver only hands the
//! application the next-in-sequence packet, wherever it travelled. Policies
//! that honour phase exclusivity (CEIO) never block on a gap; the machine
//! counts any ordering stalls so ablations can show what naive interleaving
//! would cost.

#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod flowstate;
pub mod machine;
pub mod measure;
pub mod policy;
pub mod rxq;
pub mod scope;
mod service;
pub mod slab;
pub mod swring;
pub mod telemetry;

pub use audit::HostAuditor;
pub use config::HostConfig;
pub use flowstate::FlowState;
pub use machine::{
    arm_chaos, run_to_report, AppFactory, EngineStats, Event, FailoverStats, HostState, Machine,
    RecoveryStats, WATCHDOG_INTERVAL,
};
pub use measure::{ClassSample, Measurements, RunReport};
pub use policy::{DrainRequest, IoPolicy, SteerDecision, UnmanagedPolicy};
pub use rxq::{QueueState, RxQueue, RxQueueStats};
pub use scope::{arm_scope, DEFAULT_SCOPE_CAP};
pub use slab::DmaId;
pub use swring::{ReadyPkt, SlowPkt, SwRing};
pub use telemetry::HostTrace;
