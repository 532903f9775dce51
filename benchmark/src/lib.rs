//! # ceio-benchmark — host cost of the CEIO simulator, end to end and per layer
//!
//! Runs four paper workloads through the simulator's public APIs and
//! times them from outside: untraced runs give the end-to-end metrics,
//! traced runs split host time over the event kinds each host machine
//! module handles. Every run is checked: the output digest must be the
//! same on every path (and equal the pinned one at the default seed),
//! and CEIO's credit ledger must balance. See README.md.

pub mod compare;
pub mod json;
pub mod metrics;
pub mod record;
pub mod run;
pub mod workloads;
