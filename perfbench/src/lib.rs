//! End-to-end and per-layer benchmark of the lip workspace.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one of four fixed-work workloads (see [`workload`]) in a closed
//! loop and prints its metrics as one JSON line; `--trace 1` reruns the
//! same ops with every layer call wrapped in a span (see [`trace`]).

pub mod corpus;
pub mod harness;
pub mod stats;
pub mod trace;
pub mod workload;
