//! Evaluation measures, experiment runner and per-figure/table experiment
//! definitions for the SA-LSH reproduction.
//!
//! * [`metrics`] — pair completeness (PC), pair quality (PQ), reduction ratio
//!   (RR), F-measure (FM), plus the PQ*/FM* variants used for the
//!   meta-blocking comparison (§6, Fig. 12).
//! * [`runner`] — runs a [`Blocker`](sablock_core::blocking::Blocker) over a
//!   dataset with wall-clock timing and evaluates the result.
//! * [`sweep`] — sweeps a technique's parameter grid and keeps the
//!   best-FM setting (the selection rule of Table 3 / Fig. 11).
//! * [`report`] — fixed-width text tables for printing results that mirror
//!   the paper's tables and figure series.
//! * [`perf`] — machine-readable perf reports (`BENCH_fig13.json`): a tiny
//!   JSON writer, per-producer section upserts, latency percentiles and
//!   peak-RSS readout.
//! * [`experiments`] — one module per table/figure of the evaluation section
//!   (E-FIG5 … E-FIG13 in `DESIGN.md`), each with a paper-scale and a quick
//!   configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod perf;
pub mod report;
pub mod runner;
pub mod sweep;

pub use metrics::BlockingMetrics;
pub use report::TextTable;
pub use runner::{run_blocker, RunResult};
pub use sweep::{best_by_fm, sweep_grids};
