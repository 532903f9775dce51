//! Test-only reference models: CEIO components exactly as they were before
//! a rewrite, kept so the `*_reference.rs` proptests can pin the rewrite
//! decision for decision.

pub mod credit;
