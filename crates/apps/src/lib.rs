//! # ceio-apps — the evaluation's benchmark applications (§6.1)
//!
//! Each application implements the `ceio_cpu::Application` consumer trait,
//! exposing the *cost profile* that matters to the I/O path — compute per
//! packet, copied bytes, response bytes — while also doing enough real work
//! (a KV store that tracks which keys hold values, an actual chunk/replica
//! ledger) that the profiles are grounded rather than hard-coded constants.
//!
//! * [`KvStore`] — the eRPC-based key-value server: 1:1 get/put with a 1:4
//!   key:value ratio (16 B keys, 64 B values ⇒ 144 B requests), zero-copy
//!   RX, replies on every request. CPU-involved.
//! * [`LineFs`] — the LineFS-style DFS server: clients stream large chunked
//!   file writes; the server copies payloads into its page store and
//!   performs replication + logging per chunk. CPU-bypass (RDMA-style),
//!   copy-heavy — the §6.4 copy-miss analysis lives here.
//! * [`EchoApp`] — the dperf-style echo server used for peak-datapath and
//!   tail-latency experiments (Table 2, Fig. 11/12).
//! * [`VxlanDecap`] — the §6.3 limited-benefit synthetic: 64 B packets with
//!   VxLAN decapsulation, tiny memory footprint.
//! * [`perftest`] — `ib_write_bw` / `ib_write_lat` workload constructors
//!   and the no-op consumer they use (Fig. 11, Table 3).

#![warn(missing_docs)]

pub mod echo;
pub mod kv;
pub mod linefs;
pub mod perftest;
pub mod vxlan;

pub use echo::EchoApp;
pub use kv::{KvConfig, KvStore};
pub use linefs::{LineFs, LineFsConfig};
pub use perftest::{write_bw_flow, write_lat_flow, SinkApp};
pub use vxlan::VxlanDecap;
