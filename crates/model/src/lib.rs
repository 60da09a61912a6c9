//! Workflow model for the WOHA reproduction.
//!
//! This crate defines the static vocabulary shared by every other crate in
//! the workspace: identifiers, simulated time, Map-Reduce job specs,
//! validated workflow DAGs (`W_i = {J_i, P_i, S_i, D_i}` from the paper),
//! generic DAG utilities, and the XML workflow configuration format that
//! users submit through `hadoop dag`.
//!
//! # Quick example
//!
//! ```
//! use woha_model::{JobSpec, SimDuration, SimTime, WorkflowBuilder};
//!
//! # fn main() -> Result<(), woha_model::ModelError> {
//! let mut b = WorkflowBuilder::new("nightly-report");
//! let clean = b.add_job(JobSpec::new("clean", 16, 4,
//!     SimDuration::from_secs(40), SimDuration::from_secs(90)));
//! let report = b.add_job(JobSpec::new("report", 4, 1,
//!     SimDuration::from_secs(25), SimDuration::from_secs(300)));
//! b.add_dependency(clean, report);
//! let workflow = b.relative_deadline(SimDuration::from_mins(60)).build()?;
//! assert_eq!(workflow.total_tasks(), 25);
//! assert_eq!(workflow.critical_path(), SimDuration::from_millis(455_000));
//! # Ok(())
//! # }
//! ```
//!
//! # Modules
//!
//! - [`ids`] — `WorkflowId`, `JobId`, `TaskId`, `NodeId`, `SlotKind`.
//! - [`time`] — [`SimTime`] instants and [`SimDuration`] spans.
//! - [`job`] — [`JobSpec`], the static description of one Map-Reduce job.
//! - [`workflow`] — [`WorkflowSpec`]/[`WorkflowBuilder`], the validated DAG.
//! - [`graph`] — reusable DAG algorithms (topo-sort, levels, longest path).
//! - [`xml`] — the minimal XML parser/writer used by [`config`].
//! - [`config`] — the `<workflow>` XML schema and duration syntax.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod graph;
pub mod ids;
pub mod job;
pub mod time;
pub mod workflow;
pub mod xml;

pub use config::{JobConfig, WorkflowConfig};
pub use error::{ModelError, XmlError};
pub use ids::{JobId, NodeId, SlotKind, TaskId, WorkflowId};
pub use job::JobSpec;
pub use time::{SimDuration, SimTime};
pub use workflow::{WorkflowBuilder, WorkflowSpec, MAX_WORKFLOW_TASKS};
