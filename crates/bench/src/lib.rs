//! Experiment harness reproducing every figure of the WOHA paper.
//!
//! The `woha-bench` binary (`src/main.rs`) runs any of them by name
//! (e.g. `woha-bench fig11_workspan`): each entry of its table calls into
//! [`experiments`] and prints the same rows/series the paper plots.
//! Host time is the business of the repository's `benchmark/`; the one
//! stopwatch here is the paper's Fig 13(a).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod experiments;
pub mod runner;
pub mod scenarios;
pub mod schedulers;
pub mod sweep;
pub mod table;

pub use runner::run_one;
pub use schedulers::SchedulerKind;
pub use sweep::{available_jobs, canonical_report_json, run_sweep, CellKey, SimSweep, SimSweepRun};
