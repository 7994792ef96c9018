//! # rsg-bench — experiment harness shared code
//!
//! Experiment binaries (one per paper table/figure) live in `src/bin/`;
//! Criterion benches in `benches/`. This library holds the shared
//! output formatting, the fast/full experiment presets, the
//! socket-level chaos harness `bench_serve --chaos` fires at a daemon,
//! and the seeded delta streams `bench_push` and the push tests share.

pub mod chaostcp;
pub mod deltas;
pub mod experiments;
pub mod report;

pub use report::Table;
