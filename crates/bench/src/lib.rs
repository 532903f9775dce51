//! # ceio-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§2.3 and §6).
//! Each experiment exposes `run(quick, jobs) -> String`: it executes the
//! simulations (on at most `jobs` threads across configurations, each
//! simulation single-threaded and deterministic) and returns the formatted
//! rows/series the paper reports. The `ceio-experiments` binary is a thin
//! wrapper over these functions.
//!
//! `quick = true` shrinks sweeps and measurement spans for CI-speed runs;
//! `quick = false` is what EXPERIMENTS.md records.

pub mod cli;
pub mod experiments;
pub mod runner;
pub mod table;
pub mod workloads;

pub use runner::{run_jobs, AnyPolicy, PolicyKind};
pub use table::Table;
