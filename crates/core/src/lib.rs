//! WOHA: deadline-aware Map-Reduce workflow scheduling (ICDCS 2014).
//!
//! This crate implements the paper's contribution end to end:
//!
//! - **Client side** — intra-workflow job priorities ([`priority`]: HLF,
//!   LPF, MPF) and the Scheduling Plan Generator ([`plangen`]: Algorithm 1
//!   plus the resource-cap binary search), producing compact
//!   [`plan::SchedulingPlan`]s.
//! - **Master side** — the progress-based Workflow Scheduler ([`woha`]:
//!   Algorithm 2) over the Double Skip List ([`index`], [`skiplist`]),
//!   with BST and pairing-heap queue strategies for comparison.
//! - **Baselines** — the ported Oozie+FIFO, Oozie+Fair, and EDF workflow
//!   schedulers ([`baseline`]).
//! - **Extensions** — demand-bound, multi-tenant admission control
//!   ([`admission`]), which the paper leaves open.
//!
//! Everything plugs into the `woha-sim` cluster simulator through its
//! [`woha_sim::WorkflowScheduler`] trait, mirroring how the real WOHA
//! replaces the Hadoop JobTracker's task scheduler.
//!
//! # Quick example
//!
//! ```
//! use woha_core::{PriorityPolicy, WohaConfig, WohaScheduler};
//! use woha_sim::{run_simulation, ClusterConfig, SimConfig};
//! use woha_model::{JobSpec, SimDuration, WorkflowBuilder};
//!
//! let mut b = WorkflowBuilder::new("etl");
//! let extract = b.add_job(JobSpec::new("extract", 8, 2,
//!     SimDuration::from_secs(30), SimDuration::from_secs(60)));
//! let report = b.add_job(JobSpec::new("report", 4, 1,
//!     SimDuration::from_secs(20), SimDuration::from_secs(120)));
//! b.add_dependency(extract, report);
//! b.relative_deadline(SimDuration::from_mins(20));
//!
//! let cluster = ClusterConfig::uniform(4, 2, 1);
//! let mut scheduler = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 12));
//! let result = run_simulation(&[b.build().unwrap()], &mut scheduler,
//!     &cluster, &SimConfig::default());
//! assert_eq!(result.deadline_misses(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod baseline;
pub mod index;
pub mod pheap;
pub mod plan;
pub mod plangen;
pub mod priority;
pub mod progress;
pub mod replan;
pub mod skiplist;
pub mod woha;

pub use admission::{tenant_of, MultiTenantGate, OverloadPolicy, TenantSpec};
pub use baseline::{EdfScheduler, FairScheduler, FifoScheduler};
pub use index::{BTreeIndex, DslIndex, PriorityIndex};
pub use pheap::{PairingHeap, PairingIndex};
pub use plan::{ProgressRequirement, SchedulingPlan};
pub use plangen::{
    generate_plan, generate_plan_with_budget, generate_reqs, padded_budget, rework_fraction,
    CapMode, PadConfig,
};
pub use priority::{JobPriorities, PriorityPolicy};
pub use progress::WorkflowProgress;
pub use replan::{remaining_workflow, ReplanConfig};
pub use skiplist::SkipList;
pub use woha::{QueueStrategy, WohaConfig, WohaScheduler};

/// Tests of the admission gate's tenant policies.
#[cfg(test)]
#[path = "admission/tenant_tests.rs"]
mod tenant;

/// Tests of the admission gate's tenants file.
#[cfg(test)]
#[path = "admission/config_tests.rs"]
mod tenants;
