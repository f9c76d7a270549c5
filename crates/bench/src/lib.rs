//! Benchmark harness regenerating the paper's evaluation (Sec. 5, App. D/E).
//!
//! The library half of the crate contains the shared instrumentation
//! ([`runner`]), the per-experiment drivers ([`experiments`]), the JSON
//! reader and writer of the `BENCH_*.json` artifacts ([`json`]) and the
//! regression gate over them ([`gate`]); the `repro` binary dispatches on
//! experiment names, prints each table/figure in a plain-text layout
//! mirroring the paper and records the artifacts, and `bench_gate` checks
//! them. Criterion micro-benchmarks live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod json;
pub mod report;
pub mod runner;
