//! Test-only reference models: each LLC model exactly as it was before
//! its allocation-free rewrite, kept so the `*_reference.rs` proptests can
//! pin the rewrite decision for decision.

pub mod pool;
pub mod setassoc;
