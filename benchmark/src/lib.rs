//! `falcon-benchmark`: the threaded dataplane's benchmark.
//!
//! One command runs named workloads against the three steering policies
//! (vanilla, falcon, replicate), interleaved, and reports per-policy
//! goodput and latency end to end plus per-layer costs. It drives the
//! program only through public API: `run_scenario_from` with the
//! benchmark's own single-threaded source (no sockets), whose frames are
//! pre-built in set-up so the timed loop measures the dataplane, not the
//! generator. See `README.md` for the workloads, metrics and bounds.

pub mod compare;
pub mod leg;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod source;
pub mod stats;
pub mod workloads;
