//! The population-stability simulator's workload benchmark.
//!
//! [`workload`] defines the three workloads and runs them untraced (for
//! the end-to-end metrics) and as traced twins (for the per-layer
//! metrics); [`probe`] holds the outside-in probes the twins run behind;
//! [`report`] turns both into the named metrics. `README.md` next to this
//! crate documents the workloads, the metrics, and what each metric should
//! move.

pub mod probe;
pub mod report;
pub mod workload;
