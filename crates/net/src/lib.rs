//! # ceio-net — network substrate
//!
//! Everything on the wire side of the NIC:
//!
//! * [`packet`] / [`flow`] — packet descriptors and flow specifications.
//!   Flows are classified as **CPU-involved** (DDIO → CPU polling, e.g. RPC)
//!   or **CPU-bypass** (RDMA-style, huge messages, completion-signalled),
//!   the two I/O flow types of §2.1.
//! * [`flowmap`] — [`FlowMap`], the dense id-indexed table every per-flow
//!   state map in the simulator uses (ascending-id iteration).
//! * [`dctcp`] — a rate-based DCTCP congestion controller (§2.3 uses DCTCP
//!   as the base network rate control). ECN-fraction EWMA → multiplicative
//!   decrease; additive increase otherwise; sharp cut on loss.
//! * [`generator`] — per-flow paced traffic generators that segment
//!   messages into MTU-sized packets and flag message tails (the
//!   RDMA-write-with-immediate analogue CEIO's lazy credit release keys on).
//! * [`ingress`] — the shared 200 Gbps link all senders serialize through
//!   before the receiver NIC, plus base network delay.
//! * [`scenario`] — time-scripted flow churn: the dynamic flow-distribution
//!   and network-burst scenarios of §2.3/§6.2.

#![warn(missing_docs)]

pub mod dctcp;
pub mod flow;
pub mod flowmap;
pub mod generator;
pub mod ingress;
pub mod packet;
pub mod params;
pub mod scenario;

pub use dctcp::Dctcp;
pub use flow::{FlowClass, FlowId, FlowSpec};
pub use flowmap::FlowMap;
pub use generator::TrafficGen;
pub use ingress::IngressLink;
pub use packet::{Packet, PacketId};
pub use params::NetParams;
pub use scenario::{Scenario, ScenarioEvent};
