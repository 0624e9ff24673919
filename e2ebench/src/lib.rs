//! End-to-end and per-layer benchmark of the nucanet simulator.
//!
//! The benchmark sits outside the library crates and calls only their
//! public functions. See `README.md` for the workloads, the metrics and
//! how they relate.

pub mod json;
pub mod run;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
