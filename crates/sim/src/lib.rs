//! # ceio-sim — deterministic discrete-event simulation engine
//!
//! Foundation substrate for the CEIO reproduction. Every other crate in the
//! workspace builds on the primitives defined here:
//!
//! * [`time`] — integer-nanosecond simulated time ([`Time`], [`Duration`]) and
//!   bandwidth/rate conversion helpers ([`Bandwidth`]).
//! * [`event`] — a deterministic future-event list ([`EventQueue`]) with
//!   FIFO tie-breaking for simultaneous events, ordered by a calendar
//!   queue whose keys carry their payloads, and timer cancellation via
//!   [`TimerToken`].
//! * [`engine`] — the [`Model`]/[`Simulation`] run loop.
//! * [`rng`] — a seedable xoshiro256** generator so every experiment is
//!   bit-reproducible from its seed.
//! * [`stats`] — counters, windowed rate meters, EWMAs, time series, and an
//!   HDR-style log-linear histogram used for P50/P99/P99.9 reporting.
//!
//! The engine is intentionally synchronous and single-threaded: the CEIO
//! experiments sweep many configurations, and the harness parallelises across
//! *simulations*, never inside one, which keeps every run deterministic.

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Model, Simulation, StepOutcome};
pub use event::{EventEntry, EventQueue, TimerToken};
pub use rng::Rng;
pub use stats::{Counter, Ewma, Histogram, RateMeter, TimeSeries};
pub use time::{Bandwidth, Duration, Time};
