//! # bench — evaluation harness regenerating the Themis paper's artifacts
//!
//! This crate turns the `themis` + `simdfs` + `adaptors` stack into the
//! paper's evaluation: attributed campaigns ([`harness`]) and one generator
//! per table/figure ([`tables`]). The `repro` binary writes the full-budget
//! artifacts under `results/`; the repo benchmark (`benchmark/`) times the
//! same campaign paths.

pub mod crashbench;
pub mod grid;
pub mod harness;
pub mod perf;
pub mod scale;
pub mod tables;

pub use grid::{run_cell, run_grid, steal_execute, GridCell, GridOutcome, GridSpec, WorkerStats};
pub use harness::{render_table, run_eval, run_matrix, run_strategy_all_flavors, EvalResult};
