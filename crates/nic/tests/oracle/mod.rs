//! Test-only reference models: each NIC table exactly as it was before
//! its rewrite, kept so the `*_reference.rs` proptests can pin the rewrite
//! operation for operation.

pub mod rmt;
