//! # WOHA — Deadline-Aware Map-Reduce Workflow Scheduling
//!
//! A from-scratch Rust reproduction of *"WOHA: Deadline-Aware Map-Reduce
//! Workflow Scheduling Framework over Hadoop Clusters"* (Shen Li et al.,
//! ICDCS 2014), including the Hadoop-1 cluster simulator substrate the
//! evaluation runs on.
//!
//! This facade crate re-exports the four workspace crates:
//!
//! - [`model`] (`woha-model`) — workflow DAGs, simulated time, XML configs;
//! - [`trace`] (`woha-trace`) — synthetic workloads calibrated to the
//!   paper's published Yahoo! trace statistics;
//! - [`sim`] (`woha-sim`) — the discrete-event Hadoop-1 cluster simulator;
//! - [`core`] (`woha-core`) — scheduling plans, the Double Skip List, the
//!   progress-based WOHA scheduler, and the FIFO/Fair/EDF baselines;
//! - [`serve`] (`woha-serve`) — the long-running scheduler service: live
//!   workload feeds, wall-clock pacing, backpressure, multi-tenant
//!   admission, and cooperative shutdown.
//!
//! # Quickstart
//!
//! ```
//! use woha::prelude::*;
//!
//! // Describe a two-job workflow with a 20-minute deadline.
//! let mut b = WorkflowBuilder::new("etl");
//! let extract = b.add_job(JobSpec::new("extract", 8, 2,
//!     SimDuration::from_secs(30), SimDuration::from_secs(60)));
//! let report = b.add_job(JobSpec::new("report", 4, 1,
//!     SimDuration::from_secs(20), SimDuration::from_secs(120)));
//! b.add_dependency(extract, report);
//! b.relative_deadline(SimDuration::from_mins(20));
//! let workflow = b.build().unwrap();
//!
//! // Run it under WOHA on a 4-node cluster.
//! let cluster = ClusterConfig::uniform(4, 2, 1);
//! let mut scheduler = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 12));
//! let result = run_simulation(&[workflow], &mut scheduler, &cluster,
//!     &SimConfig::default());
//! assert_eq!(result.deadline_misses(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use woha_core as core;
pub use woha_model as model;
pub use woha_serve as serve;
pub use woha_sim as sim;
pub use woha_trace as trace;

/// The commonly-used types, one `use` away.
pub mod prelude {
    pub use woha_core::{
        generate_plan, generate_plan_with_budget, generate_reqs, padded_budget, rework_fraction,
        CapMode, EdfScheduler, FairScheduler, FifoScheduler, JobPriorities, MultiTenantGate,
        PadConfig, PriorityPolicy, SchedulingPlan, WohaConfig, WohaScheduler,
    };
    pub use woha_model::{
        JobId, JobSpec, ModelError, NodeId, SimDuration, SimTime, SlotKind, WorkflowBuilder,
        WorkflowConfig, WorkflowId, WorkflowSpec,
    };
    pub use woha_serve::{
        run_service, ClockMode, ServeConfig, ServiceOutcome, ShutdownCause, ShutdownConfig,
        ShutdownSignal,
    };
    pub use woha_sim::{
        run_simulation, run_simulation_observed, try_run_simulation_clocked,
        try_run_simulation_streamed, try_run_simulation_streamed_observed, AdmissionGate,
        AdmissionReport, ClusterConfig, DataPlane, DataPlaneReport, FaultConfig, JsonlTraceSink,
        LocalityConfig, MasterFaultConfig, MemorySink, ObservabilityConfig, Observations,
        PredictionConfig, PredictionReport, RecoveryReport, RejectCount, SchedulerState,
        ScriptedFault, SimConfig, SimError, SimReport, SpeculationConfig, TraceEvent, TraceRecord,
        TraceSink, WorkflowPool, WorkflowScheduler,
    };
    pub use woha_sim::{ArrivalBuffer, Clock, ServiceStats, SimClock, SourceWait, WallClock};
    pub use woha_trace::{
        drain, to_jsonl,
        workload::{DeadlineRule, ReleasePattern, Workload},
        yahoo::{yahoo_workflows, YahooTraceConfig},
        ChannelSource, FollowSource, GeneratorSource, JsonlSource, Rng, SourcePoll, SourceStop,
        VecSource, WorkloadSource,
    };
}
