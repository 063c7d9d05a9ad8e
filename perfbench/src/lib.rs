//! The repository benchmark: four workloads that measure the simulated
//! router and the simulator, end to end and per crate. See README.md.

pub mod fabric;
pub mod host;
pub mod metrics;
pub mod outcome;
pub mod output;
pub mod router;
pub mod run;
pub mod trace;
pub mod workloads;
