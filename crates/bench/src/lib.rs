//! # rsg-bench — experiment harness shared code
//!
//! Experiment binaries (one per paper table/figure) live in `src/bin/`,
//! beside the deterministic check harnesses (`bench_sweep`,
//! `bench_push`, `bench_chaos`, `bench_serve`); none of them measures
//! wall time — perfbench does. This library holds the shared output
//! formatting, the fast/full experiment presets, the socket-level chaos
//! harness `bench_serve` fires at a daemon, and the seeded delta
//! streams `bench_push` and the push tests share.

pub mod chaostcp;
pub mod deltas;
pub mod experiments;
pub mod report;

pub use report::Table;
