//! Test-only reference models: each application exactly as it was before
//! its rewrite, kept so the `*_reference.rs` proptests can pin the rewrite
//! request for request.

pub mod kv;
