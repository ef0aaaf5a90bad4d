//! # tbs-bench
//!
//! The benchmark harness regenerating **every table and figure** of the
//! EDBT 2018 temporally-biased-sampling paper. Each experiment lives in
//! [`experiments`] and is exposed three ways:
//!
//! 1. a `src/bin/<figure>` binary that prints the paper's rows/series and
//!    writes a CSV under `results/`;
//! 2. the `all_experiments` binary that runs the full suite;
//! 3. Criterion microbenches (`benches/`) for the per-batch costs.
//!
//! The §6 model experiments share one test-then-train driver,
//! [`pipeline::run_stream`], which runs every contending scheme through
//! the facade's `ModelManager`.
//!
//! Beyond the paper's figures, [`experiments::throughput`] (the
//! `bench_throughput` binary) measures ingest items/sec and ns/item for
//! every sampler and writes the machine-readable `BENCH_throughput.json`
//! perf baseline at the repo root; [`json`] is the offline serializer
//! behind it, and the vendored criterion shim emits the same row format
//! when `CRITERION_JSON` is set.
//!
//! See EXPERIMENTS.md at the workspace root for the paper-vs-measured
//! comparison of every experiment.

pub mod experiments;
pub mod json;
pub mod output;
pub mod pipeline;
