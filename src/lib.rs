//! # CEIO — A Cache-Efficient Network I/O Architecture for NIC-CPU Data Paths
//!
//! Umbrella crate: re-exports every subsystem of the CEIO reproduction so
//! examples and downstream users can depend on a single crate.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

pub use ceio_apps as apps;
pub use ceio_baselines as baselines;
pub use ceio_chaos as chaos;
pub use ceio_core as core;
pub use ceio_cpu as cpu;
pub use ceio_host as host;
pub use ceio_mem as mem;
pub use ceio_net as net;
pub use ceio_nic as nic;
pub use ceio_pcie as pcie;
pub use ceio_sim as sim;
