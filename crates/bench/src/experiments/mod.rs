//! One module per group of paper figures; each exposes `run_*` functions
//! returning printable results.

pub mod ablation;
pub mod deadline;
pub mod demo;
pub mod failures;
pub mod locality;
pub mod master_failover;
pub mod plans;
pub mod throughput;
pub mod tracestats;
