//! End-to-end benchmark of the LF-Backscatter reader.
//!
//! Drives the public runtimes from outside — `lf_reader::ReaderRuntime`
//! and `lf_fleet::FleetRuntime` fed through an `IqSource` — with seeded,
//! pre-synthesized epochs, checks every output against the simulator's
//! ground truth, and prints one JSON result line. See `README.md` in this
//! directory for the workloads, metrics and how to run them.

pub mod fingerprint;
pub mod heap;
pub mod pace;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
