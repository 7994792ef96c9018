//! # rsg-bench — experiment harness shared code
//!
//! Experiment binaries (one per paper table/figure) live in `src/bin/`;
//! Criterion benches in `benches/`. This library holds the shared
//! output formatting, the fast/full experiment presets, and the
//! socket-level chaos harness `bench_serve --chaos` fires at a daemon.

pub mod chaostcp;
pub mod experiments;
pub mod report;

pub use report::Table;
