//! Test-only reference models: simulation primitives exactly as they were
//! before a rewrite, kept so the `*_reference.rs` proptests can pin the
//! rewrite result for result.

pub mod histogram;
pub mod queue;
