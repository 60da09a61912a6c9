//! A discrete-event Hadoop-1 cluster simulator.
//!
//! This crate is the substrate the WOHA reproduction runs on: since the
//! paper's 80-server Hadoop-1.2.1 testbed is not available, every
//! evaluation result is regenerated on this simulator, which reproduces the
//! scheduling-relevant behaviour of Hadoop-1:
//!
//! - a single **JobTracker** that owns all scheduling state,
//! - **TaskTrackers** with fixed map/reduce slot counts that heartbeat
//!   periodically and receive task assignments in the heartbeat response,
//! - jobs whose **reducers wait for all maps**, and
//! - workflow-level lifecycle: prerequisite tracking, WOHA's on-demand
//!   submitter jobs (modelled as an activation latency), and per-workflow
//!   deadline accounting.
//!
//! Schedulers plug in through [`WorkflowScheduler`], mirroring the paper's
//! replaceable Workflow Scheduler module.
//!
//! # Quick example
//!
//! ```
//! use woha_sim::{run_simulation, ClusterConfig, SimConfig, SubmitOrderScheduler};
//! use woha_model::{JobSpec, SimDuration, WorkflowBuilder};
//!
//! let mut b = WorkflowBuilder::new("demo");
//! b.add_job(JobSpec::new("only", 8, 2,
//!     SimDuration::from_secs(30), SimDuration::from_secs(60)));
//! b.relative_deadline(SimDuration::from_mins(10));
//! let report = run_simulation(
//!     &[b.build().unwrap()],
//!     &mut SubmitOrderScheduler::new(),
//!     &ClusterConfig::uniform(4, 2, 1),
//!     &SimConfig::default(),
//! );
//! assert!(report.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backpressure;
pub mod clock;
pub mod cluster;
pub mod dataplane;
pub mod driver;
pub mod event;
pub mod fault;
pub mod gate;
pub mod hash;
pub mod health;
pub mod metrics;
pub mod obs;
pub mod scheduler;
pub mod snapshot;
pub mod state;

pub use backpressure::{ArrivalBuffer, ServiceStats};
pub use clock::{Clock, SimClock, SourceWait, WallClock};
pub use cluster::{ClusterConfig, NodeConfig};
pub use dataplane::{DataPlane, DataPlaneReport, InvalidatedOutputs};
pub use driver::{
    run_simulation, run_simulation_observed, try_run_simulation_clocked,
    try_run_simulation_streamed, try_run_simulation_streamed_observed, LocalityConfig, SimConfig,
    SimError, SpeculationConfig,
};
pub use fault::{FaultConfig, FaultStream, MasterFaultConfig, ScriptedFault};
pub use gate::AdmissionGate;
pub use hash::{FastMap, FxBuildHasher, FxHasher};
pub use health::{NodeHealth, PredictionConfig, PredictionReport};
pub use metrics::{
    AdmissionReport, Counter, Gauge, Histogram, MetricsRegistry, RecoveryReport, RejectCount,
    SimReport, Timelines, WorkflowOutcome,
};
pub use obs::{
    jsonl_line, JsonlTraceSink, MemorySink, ObservabilityConfig, Observations, TraceEvent,
    TraceRecord, TraceSink,
};
pub use scheduler::{
    first_eligible_job, spec_slack_fraction, SchedTrace, SchedulerState, SubmitOrderScheduler,
    WorkflowScheduler,
};
pub use snapshot::MasterSnapshot;
pub use state::{JobPhase, JobState, WorkflowMut, WorkflowPool, WorkflowState};

/// Compile-time Send/Sync audit of the types a parallel sweep moves (or
/// shares) across worker threads: the bench orchestrator borrows workload
/// specs and clones configs into `std::thread::scope` workers, and each
/// worker returns a [`SimReport`]. A non-Send field added to any of these
/// (an `Rc`, a raw pointer, a thread-local handle) would silently force
/// sweeps back to one thread — this turns that mistake into a compile
/// error naming the type.
#[allow(dead_code)]
const SEND_SYNC_AUDIT: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimConfig>();
    assert_send_sync::<ClusterConfig>();
    assert_send_sync::<FaultConfig>();
    assert_send_sync::<MasterFaultConfig>();
    assert_send_sync::<PredictionConfig>();
    assert_send_sync::<ObservabilityConfig>();
    assert_send_sync::<SimReport>();
    assert_send_sync::<MasterSnapshot>();
    assert_send_sync::<woha_model::WorkflowSpec>();
};
