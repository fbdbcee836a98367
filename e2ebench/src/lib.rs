//! End-to-end benchmark of the Drum workspace.
//!
//! One command runs a named workload through the library's public entry
//! points, checks its outputs and prints its metrics; the last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). Untraced runs print the end-to-end metrics of
//! [`report::END_TO_END`]; traced runs (`--trace 1`) print the per-layer
//! metrics of [`report::PER_LAYER`] and write their spans as JSON lines.
//!
//! Workloads:
//!
//! - `calm_stream` and `flood`: lockstep clusters of `NodeCore`s driven
//!   from one thread over loopback ([`lockstep`]);
//! - `sim_sweep`: the Figure 3(a) simulator sweep on a sized pool
//!   ([`sweep`]);
//! - `soak_live`: a real-time sharded cluster with a mid-run flood
//!   ([`soak`]).

pub mod host;
pub mod layers;
pub mod lockstep;
pub mod report;
pub mod soak;
pub mod spans;
pub mod stats;
pub mod sweep;
