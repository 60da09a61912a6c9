//! The simulation driver: a discrete-event loop over heartbeats, task
//! completions, and workflow arrivals.
//!
//! The driver mirrors the Hadoop-1 control loop the paper extends:
//!
//! 1. TaskTrackers heartbeat periodically; a heartbeat offers the node's
//!    free slots to the JobTracker, which consults the pluggable
//!    [`WorkflowScheduler`] once per free slot. The heartbeat that reports
//!    a task completion can carry new assignments immediately, so slots are
//!    re-offered the moment they free up.
//! 2. When a workflow arrives, its initially-ready wjobs go through WOHA's
//!    on-demand submission: a submitter map task loads the jar and writes
//!    input splits on a slave before the job becomes schedulable, modeled
//!    as the configurable [`SimConfig::submit_latency`]. The same latency
//!    applies when a job's last prerequisite finishes (for the Oozie-style
//!    baselines this models Oozie noticing the completion and submitting
//!    the next job).
//! 3. Reducers of a job become eligible only after all of its maps finish.
//!
//! Task durations may deviate from the client's estimates by a
//! deterministic per-task jitter ([`SimConfig::duration_jitter`]), so plans
//! are tested against "error in execution time prediction" exactly as the
//! paper cautions.
//!
//! When the cluster carries a [`FaultConfig`](crate::FaultConfig), nodes
//! crash and recover (see [`crate::fault`]): running attempts die with the
//! node, the JobTracker requeues them once its failure detector declares
//! the node lost (or the node re-registers first), completed map outputs
//! hosted on the node are re-executed while reducers still need them, and
//! repeatedly-crashing nodes can be blacklisted.
//!
//! The *master* (JobTracker) can crash too, when
//! [`MasterFaultConfig`](crate::fault::MasterFaultConfig) is enabled. The
//! master takes a full-state checkpoint ([`crate::snapshot`]) every
//! checkpoint interval and appends every processed event to a write-ahead
//! log in between. A crash freezes the world — nothing is assigned, no
//! heartbeat is answered — for the restart duration; the replacement
//! master then restores the latest checkpoint, replays the WAL, and
//! reconciles with the physical cluster as TaskTrackers re-register:
//! attempts still running on live nodes are re-adopted, attempts the
//! recovered state cannot account for are killed and requeued (Hadoop-1
//! JobTracker-restart semantics), and task completions the master has no
//! record of are discarded as orphans.

use crate::clock::{Clock, SimClock, SourceWait};
use crate::cluster::ClusterConfig;
use crate::dataplane::{DataPlane, DataPlaneReport};
use crate::event::{Event, EventQueue};
use crate::fault::{splitmix, FaultStream};
use crate::gate::AdmissionGate;
use crate::health::{NodeHealth, PredictionConfig, PredictionReport};
use crate::metrics::{
    AdmissionReport, MetricsRegistry, RecoveryReport, RejectCount, SimReport, WorkflowOutcome,
};
use crate::obs::{
    MemorySink, ObservabilityConfig, Observations, Observer, TraceEvent, TraceRecord, TraceSink,
};
use crate::scheduler::{SchedTrace, WorkflowScheduler};
use crate::snapshot::{
    AttemptRecord, FaultSnapshot, GroupRecord, MasterSnapshot, NodeSlotsRecord, SnapshotCounters,
};
use crate::state::WorkflowPool;
use std::collections::BTreeMap;

use crate::hash::FastMap;
use std::fmt;
use std::sync::Arc;
use woha_model::{JobId, NodeId, SimDuration, SimTime, SlotKind, WorkflowId, WorkflowSpec};
use woha_trace::{SourcePoll, VecSource, WorkloadSource};

mod faults;
mod master;

/// A configuration error detected before the simulation starts.
///
/// Returned by [`try_run_simulation_streamed`] and the other fallible
/// entry points; [`run_simulation`] and [`run_simulation_observed`] panic
/// on these instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A scripted node fault names a node outside the cluster.
    UnknownScriptedNode {
        /// The out-of-range node.
        node: NodeId,
        /// Number of nodes in the cluster.
        node_count: usize,
    },
    /// Master faults are enabled with a zero checkpoint interval.
    ZeroCheckpointInterval,
    /// Master faults are enabled with a zero restart time.
    ZeroMasterMttr,
    /// Locality is enabled with zero replicas per map task.
    ZeroLocalityReplicas,
    /// Rack faults are enabled with a zero MTBF.
    ZeroRackMtbf,
    /// [`ObservabilityConfig::sample_interval`] is set to zero.
    ZeroSampleInterval,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownScriptedNode { node, node_count } => write!(
                f,
                "scripted fault names node {} but the cluster has {} nodes",
                node.index(),
                node_count
            ),
            SimError::ZeroCheckpointInterval => {
                write!(f, "master faults need a positive checkpoint interval")
            }
            SimError::ZeroMasterMttr => {
                write!(f, "master faults need a positive restart time (MTTR)")
            }
            SimError::ZeroLocalityReplicas => {
                write!(f, "locality needs at least one replica per map task")
            }
            SimError::ZeroRackMtbf => {
                write!(f, "rack faults need a positive MTBF")
            }
            SimError::ZeroSampleInterval => {
                write!(f, "the observability sample interval must be positive")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Data-locality modelling for map tasks (HDFS-style block placement).
///
/// Each map task gets `replicas` preferred nodes (deterministic per task);
/// running it elsewhere multiplies its duration by 1.3 (reading its
/// input block over the network). `max_delay_skips` enables
/// *delay scheduling* (Zaharia et al., EuroSys'10 — the paper's related
/// work \[4\]): when the chosen job has no pending map task local to the
/// offering node, the slot offer is declined up to that many consecutive
/// times per job, waiting for a better-placed slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityConfig {
    /// Preferred replicas per map task (HDFS default: 3).
    pub replicas: u32,
    /// Consecutive non-local offers a job may decline (0 = no delay
    /// scheduling).
    pub max_delay_skips: u32,
    /// Re-executed maps keep their original task identity, so the
    /// locality picker steers them to *surviving* replicas instead of
    /// hashing a fresh location-agnostic placement. Off by default (the
    /// legacy behaviour, preserved byte for byte).
    pub prefer_survivors: bool,
}

/// Duration multiplier for a non-local map task.
const REMOTE_PENALTY: f64 = 1.3;

impl Default for LocalityConfig {
    fn default() -> Self {
        LocalityConfig {
            replicas: 3,
            max_delay_skips: 0,
            prefer_survivors: false,
        }
    }
}

/// Straggler injection and speculative execution (Hadoop's classic
/// mitigation: when slots would otherwise idle, launch a duplicate of a
/// task running far beyond its estimate; the first attempt to finish wins
/// and the loser is killed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// Probability that a task attempt is a straggler (deterministic per
    /// seed and attempt).
    pub straggler_prob: f64,
    /// Duration multiplier applied to straggler attempts (> 1).
    pub straggler_factor: f64,
    /// Launch a duplicate once an attempt has run longer than
    /// `threshold × estimate` and a slot would otherwise stay idle.
    pub speculate_after: f64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            straggler_prob: 0.03,
            straggler_factor: 5.0,
            speculate_after: 1.5,
        }
    }
}

/// Driver knobs independent of the cluster shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Delay between a wjob's prerequisites finishing (or its workflow
    /// arriving) and the job becoming schedulable — the submitter map task
    /// loading jars and initializing tasks on a slave.
    pub submit_latency: SimDuration,
    /// Relative task-duration jitter: an actual duration is the estimate
    /// times a deterministic per-task factor in `[1 - j, 1 + j]`.
    pub duration_jitter: f64,
    /// Probability that a task attempt fails on completion and must be
    /// re-executed (failure injection). Each task fails at most once, so
    /// runs always terminate; the retry re-enters the pending queue and is
    /// scheduled like any task. Deterministic per seed.
    pub task_failure_prob: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
    /// Hard cutoff: events after this instant are not processed and
    /// unfinished workflows are reported as such.
    pub max_sim_time: SimTime,
    /// Data-locality modelling; `None` (the default) makes all map tasks
    /// location-agnostic, as in the base WOHA evaluation.
    pub locality: Option<LocalityConfig>,
    /// Straggler injection + speculative execution; `None` (the default)
    /// runs every attempt at its jittered estimate with no duplicates.
    pub speculation: Option<SpeculationConfig>,
    /// Structured observability (tracing, metrics, timelines). Fully off
    /// by default; see [`crate::obs`]. Observing a run never changes the
    /// path it takes, so the report is byte-identical with any of it on.
    /// Timelines land in the report; the trace and the metrics registry
    /// reach the caller through an entry point that takes a
    /// [`TraceSink`] or returns a [`MetricsRegistry`] (for instance
    /// [`run_simulation_observed`], which returns both as
    /// [`Observations`]).
    pub observability: ObservabilityConfig,
    /// Failure prediction: per-node propensity tracking plus the
    /// risk-aware placement and adaptive-blacklist policies built on it
    /// (see [`crate::health`]). `None` (the default) keeps the reactive
    /// behaviour and the byte-identical output it guarantees.
    pub prediction: Option<PredictionConfig>,
    /// Re-shuffle cost per lost map output: when a node crash destroys
    /// completed map outputs a job's reducers still need, every reduce of
    /// that job launched afterwards pays this much extra per lost output
    /// (re-fetching the re-executed maps' output over the network). Zero
    /// (the default) disables the charge and is byte-invisible.
    pub reshuffle_cost: SimDuration,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            submit_latency: SimDuration::from_secs(1),
            duration_jitter: 0.0,
            task_failure_prob: 0.0,
            seed: 0,
            max_sim_time: SimTime::from_mins(60 * 24 * 30),
            locality: None,
            speculation: None,
            observability: ObservabilityConfig::default(),
            prediction: None,
            reshuffle_cost: SimDuration::ZERO,
        }
    }
}

/// Deterministic per-task jitter factor: a splitmix64 hash of the task's
/// identity mapped into `[1 - jitter, 1 + jitter]`.
fn jitter_factor(
    seed: u64,
    wf: WorkflowId,
    job: JobId,
    kind: SlotKind,
    index: u32,
    jitter: f64,
) -> f64 {
    if jitter <= 0.0 {
        return 1.0;
    }
    let h = seed
        ^ wf.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(job.as_u32()) << 32)
        ^ (u64::from(index) << 1)
        ^ match kind {
            SlotKind::Map => 0x5555_5555_5555_5555,
            SlotKind::Reduce => 0xAAAA_AAAA_AAAA_AAAA,
        };
    let u = (splitmix(h) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    1.0 + jitter * (2.0 * u - 1.0)
}

/// [`Sim::timed`] stamps one scheduler decision in this many. Odd on
/// purpose: a heartbeat offers Map then Reduce, so decisions alternate
/// kinds and an even stride would sample one kind only.
const DECISION_SAMPLE_STRIDE: u64 = 61;

/// Slack fraction below which risk-aware placement treats a workflow as
/// deadline-critical (see [`WorkflowScheduler::slack_fraction`]).
const SLACK_THRESHOLD: f64 = 0.35;

/// In-flight task attempts and their speculation groups, tracked whenever
/// duplicates can race or a node can die under a running task.
struct AttemptTable {
    attempts: FastMap<u64, AttemptRecord>,
    groups: FastMap<u64, GroupRecord>,
    next_attempt: u64,
    next_group: u64,
}

impl AttemptTable {
    /// Running original attempts of `kind` that have no twin yet: the
    /// candidates for a speculative duplicate.
    fn unpaired(&self, kind: SlotKind) -> impl Iterator<Item = &AttemptRecord> {
        self.attempts.values().filter(move |a| {
            a.kind == kind && !a.speculative && !a.cancelled && {
                let g = &self.groups[&a.group];
                !g.done && !g.twin_launched
            }
        })
    }

    /// Whether a live attempt other than `id` is still racing in `group`.
    fn twin_alive(&self, id: u64, group: u64) -> bool {
        self.groups.get(&group).is_some_and(|g| {
            g.attempts[..usize::from(g.attempt_count)]
                .iter()
                .any(|&o| o != id && self.attempts.get(&o).is_some_and(|t| !t.cancelled))
        })
    }
}

/// Master-failover state (master mode only).
#[derive(Default)]
struct MasterState {
    /// Whether the JobTracker process is down. While it is, the world is
    /// frozen: no event fires until the replacement master recovers.
    down: bool,
    /// Whether the driver is replaying the WAL during recovery. Handlers
    /// mutate state normally but [`Sim::schedule`] drops new events: the
    /// pending future was captured at the crash and is re-applied there.
    replaying: bool,
    /// The latest checkpoint, held typed. Its pool shares every workflow
    /// with the live one, and each live mutation goes through
    /// `workflow_mut` → `Arc::make_mut`, which copies a shared workflow
    /// first; so encoding it at the crash yields the bytes an encode at the
    /// tick would have. A crash takes it; recovery stores the next one.
    checkpoint: Option<MasterSnapshot>,
    /// Debug builds only: the tree `checkpoint` encoded to at its tick. The
    /// crash handler checks that the checkpoint still encodes to it.
    checkpoint_tree: Option<serde::Value>,
    /// Events processed since the latest checkpoint (the write-ahead log).
    wal: Vec<(SimTime, Event)>,
    recovery: RecoveryReport,
    /// Accumulated master outages: the effective arrival time of a not yet
    /// pulled workflow is its submit time plus this shift. (A pending
    /// arrival already in the queue is shifted by the crash handler
    /// instead, exactly like every other pending event.)
    arrival_shift: SimDuration,
}

/// The simulated master and the world around it. What a checkpoint carries
/// is kept as the [`crate::snapshot`] types themselves (`counters`, `fault`,
/// `table`'s records, `nodes`): [`Sim::build_snapshot`] clones them and
/// [`Sim::install_snapshot`] assigns them back.
struct Sim<'a> {
    config: &'a SimConfig,
    cluster: &'a ClusterConfig,
    queue: EventQueue,
    pool: WorkflowPool,
    nodes: Vec<NodeSlotsRecord>,
    remaining: usize,
    now: SimTime,
    /// Unified seeded stream behind failure, straggler, crash, and repair
    /// draws: `(config, seed)` fully determines a run.
    rng: FaultStream,
    // busy accounting
    busy_count: [u32; 2],
    busy_integral_ms: [u128; 2],
    last_busy_touch: SimTime,
    /// Completion sequence number (salts the failure RNG).
    completion_seq: u64,
    /// The report counters that survive a master restart.
    counters: SnapshotCounters,
    // Wall-clock measurements: physical, never checkpointed.
    events_processed: u64,
    scheduler_nanos: u64,
    /// Decisions since the last stamped one (see [`Sim::timed`]).
    unstamped_decisions: u64,
    /// The data-plane layer: topology, replica placement, pending-map
    /// queues, map-output locations, and re-shuffle debt.
    data: DataPlane,
    table: AttemptTable,
    /// Whether per-attempt state is tracked (needed to race duplicates and
    /// to know what died with a node).
    track_attempts: bool,
    fault_mode: bool,
    /// Node and rack fault bookkeeping (all-alive and idle outside fault
    /// mode). Liveness, incident ordinals, blacklists and rack outages are
    /// physical: the crash handler carries them across a master restart.
    fault: FaultSnapshot,
    /// Per-node failure-propensity tracker (prediction mode only).
    health: Option<NodeHealth>,
    master: MasterState,
    /// Which pulled workflows have had their arrival event processed, by
    /// pull (source cursor) order. Grows as the source is pulled;
    /// `arrived.len()` is the source cursor.
    arrived: Vec<bool>,
    /// Specs pulled from the workload source so far, in pull order — the
    /// [`Event::WorkflowArrival`] payloads. Retained for WAL replay and
    /// crash-time resubmission; the pool shares each spec on arrival.
    workflows: Vec<Arc<WorkflowSpec>>,
    /// Whether the workload source has been drained.
    exhausted: bool,
    /// Admission gate at the front door; `None` admits everything.
    gate: Option<&'a mut dyn AdmissionGate>,
    /// Workflows the gate turned away, by reason (sorted for deterministic
    /// reports).
    rejections: BTreeMap<String, u64>,
    /// Where every trace record goes (see [`crate::obs`]); `None` when no
    /// consumer is on, and while the WAL replays during master recovery.
    obs: Option<Observer<'a>>,
    /// Reusable buffer for draining scheduler trace records.
    sched_scratch: Vec<SchedTrace>,
}

impl<'a> Sim<'a> {
    /// Schedules a future event, unless the driver is replaying the WAL
    /// (the original master already scheduled this future; it was captured
    /// at the crash and is re-applied shifted by the outage).
    fn schedule(&mut self, time: SimTime, event: Event) {
        if !self.master.replaying {
            self.queue.push(time, event);
        }
    }

    fn touch_busy(&mut self) {
        let dt = u128::from(self.now.saturating_since(self.last_busy_touch).as_millis());
        if dt > 0 {
            self.busy_integral_ms[0] += u128::from(self.busy_count[0]) * dt;
            self.busy_integral_ms[1] += u128::from(self.busy_count[1]) * dt;
            self.last_busy_touch = self.now;
        }
    }

    fn kind_index(kind: SlotKind) -> usize {
        match kind {
            SlotKind::Map => 0,
            SlotKind::Reduce => 1,
        }
    }

    /// Reports one step at the current instant, if anything observes.
    fn emit(&mut self, event: TraceEvent) {
        self.emit_at(self.now, event);
    }

    fn emit_at(&mut self, at: SimTime, event: TraceEvent) {
        if let Some(obs) = &mut self.obs {
            obs.record(TraceRecord { at, event });
        }
    }

    /// Reports a heartbeat of `node` at `at`, with its free slots.
    fn emit_heartbeat(&mut self, at: SimTime, node: NodeId) {
        let slots = self.nodes[node.index()];
        self.emit_at(
            at,
            TraceEvent::Heartbeat {
                node: node.index(),
                free_maps: slots.free_maps,
                free_reduces: slots.free_reduces,
            },
        );
    }

    /// Takes the gauge samples due before an event at `t`, if anything
    /// observes.
    fn sample_before(&mut self, t: SimTime) {
        if let Some(obs) = &mut self.obs {
            obs.sample_until(t, false, &self.pool);
        }
    }

    /// Occupies a `kind` slot of `node` with `attempt` and schedules its
    /// completion `duration` from now.
    #[allow(clippy::too_many_arguments)]
    fn occupy_slot(
        &mut self,
        node: NodeId,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        attempt: u64,
        duration: SimDuration,
        speculative: bool,
    ) {
        self.nodes[node.index()].take(kind);
        self.touch_busy();
        self.busy_count[Self::kind_index(kind)] += 1;
        self.emit(TraceEvent::TaskStart {
            node: node.index(),
            workflow: wf,
            job: job.as_u32() as usize,
            kind,
            speculative,
        });
        self.schedule(
            self.now + duration,
            Event::TaskComplete {
                node,
                workflow: wf,
                job,
                kind,
                attempt,
            },
        );
    }

    /// Frees the slot a completed or killed attempt held on `node`.
    fn release_slot(&mut self, node: NodeId, kind: SlotKind) {
        self.touch_busy();
        self.busy_count[Self::kind_index(kind)] -= 1;
        self.nodes[node.index()].release(kind);
    }

    /// Kills running attempt `id` — it lost its race, its node died, or a
    /// restarted master cannot account for it — and returns it. The
    /// attempt stays registered, cancelled, for its now-stale completion
    /// event to find.
    fn kill_attempt(&mut self, id: u64) -> AttemptRecord {
        let a = self.cancel_attempt(id);
        self.record_kill(a.node, a.wf, a.job, a.kind);
        a
    }

    /// Cancels attempt `id` and frees its slot without a record: a
    /// restarted master retiring an attempt that had already ended in the
    /// world, whose end was reported then.
    fn cancel_attempt(&mut self, id: u64) -> AttemptRecord {
        let a = self.table.attempts.get_mut(&id).expect("registered");
        a.cancelled = true;
        let a = *a;
        self.release_slot(a.node, a.kind);
        a
    }

    fn record_kill(&mut self, node: NodeId, wf: WorkflowId, job: JobId, kind: SlotKind) {
        self.emit(TraceEvent::TaskKilled {
            node: node.index(),
            workflow: wf,
            job: job.as_u32() as usize,
            kind,
        });
    }

    /// Returns a task whose only attempt died to its job's pending queue
    /// and tells the scheduler. `task` is the dead attempt's original
    /// map-task identity, when known.
    fn fail_and_requeue(
        &mut self,
        scheduler: &mut dyn WorkflowScheduler,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        task: Option<u32>,
    ) {
        self.pool.workflow_mut(wf).fail_task(job, kind);
        if kind == SlotKind::Map {
            self.requeue_map(wf, job, 0, task);
        }
        scheduler.on_task_failed(&self.pool, wf, job, kind, self.now);
    }

    /// Puts one map of `(wf, job)` that must run again back on the data
    /// plane's pending queue (locality mode only). The re-execution gets
    /// fresh preferred nodes — an id beyond the original task range, with
    /// `k` telling apart maps re-queued together — unless survivor
    /// preference keeps the `original` identity.
    fn requeue_map(&mut self, wf: WorkflowId, job: JobId, k: u32, original: Option<u32>) {
        if self.config.locality.is_none() {
            return;
        }
        let w = self.pool.workflow(wf);
        let fresh = w.spec().job(job).map_tasks() + w.job(job).retried(SlotKind::Map) - k;
        if self.data.requeue_map(wf, job, fresh, original) {
            self.counters.survivor_requeues += 1;
        }
    }

    /// Allocates the next attempt id and rolls whether that attempt
    /// straggles, returning the id and its duration multiplier.
    fn next_attempt(&mut self) -> (u64, f64) {
        let attempt = self.table.next_attempt;
        self.table.next_attempt += 1;
        match self.config.speculation {
            Some(spec) if self.rng.straggler(attempt) < spec.straggler_prob => {
                self.counters.stragglers += 1;
                (attempt, spec.straggler_factor.max(1.0))
            }
            _ => (attempt, 1.0),
        }
    }

    /// Runs one scheduler decision against the pool. One decision in
    /// [`DECISION_SAMPLE_STRIDE`] is stamped and its wall time, times the
    /// stride, charged to `scheduler_nanos` — two clock reads cost more
    /// than the median decision they would time.
    fn timed<T>(&mut self, decide: impl FnOnce(&WorkflowPool, SimTime) -> T) -> T {
        self.unstamped_decisions += 1;
        if self.unstamped_decisions < DECISION_SAMPLE_STRIDE {
            return decide(&self.pool, self.now);
        }
        self.unstamped_decisions = 0;
        let started = std::time::Instant::now();
        let choice = decide(&self.pool, self.now);
        self.scheduler_nanos += started.elapsed().as_nanos() as u64 * DECISION_SAMPLE_STRIDE;
        choice
    }

    /// Reports the scheduler's buffered [`SchedTrace`] records. Called
    /// after every dispatched event; a no-op unless something observes
    /// (schedulers only buffer while tracing was requested).
    fn drain_sched(&mut self, scheduler: &mut dyn WorkflowScheduler) {
        if self.obs.is_none() {
            return;
        }
        let mut scratch = std::mem::take(&mut self.sched_scratch);
        scheduler.drain_trace(&mut scratch);
        let backend = scheduler.backend_label();
        for t in scratch.drain(..) {
            self.emit(match t {
                SchedTrace::Pick {
                    workflow,
                    rank,
                    blocked,
                } => TraceEvent::SchedulerPick {
                    workflow,
                    rank,
                    blocked,
                    backend,
                },
                SchedTrace::PlanGenerated { workflow, jobs } => {
                    TraceEvent::PlanGenerated { workflow, jobs }
                }
                SchedTrace::Replan { workflow } => TraceEvent::Replan { workflow },
                SchedTrace::RhoRollback { workflow } => TraceEvent::RhoRollback { workflow },
            });
        }
        self.sched_scratch = scratch;
    }

    fn begin_job_submission(&mut self, wf: WorkflowId, job: JobId) {
        self.pool.workflow_mut(wf).begin_submitting(job);
        self.schedule(
            self.now.saturating_add(self.config.submit_latency),
            Event::JobActivated(wf, job),
        );
    }

    /// Extends the arrival ledger to `len` pulled workflows, each one more
    /// the run still has to finish.
    fn grow_ledger(&mut self, len: usize) {
        while self.arrived.len() < len {
            self.arrived.push(false);
            self.remaining += 1;
        }
    }

    /// Registers pulled workflow `index` with the pool and the scheduler
    /// and starts submitting its initially-ready jobs.
    fn handle_arrival(&mut self, scheduler: &mut dyn WorkflowScheduler, index: usize) {
        // WAL replay may carry arrivals pulled after the restored
        // checkpoint was taken; grow the ledger exactly as the injection
        // path did originally.
        self.grow_ledger(index + 1);
        self.arrived[index] = true;
        let wf = self.pool.register(Arc::clone(&self.workflows[index]));
        scheduler.on_workflow_submitted(&self.pool, wf, self.now);
        let ready = self.pool.workflow(wf).spec().initially_ready();
        for job in ready {
            self.begin_job_submission(wf, job);
        }
    }

    fn handle_activation(
        &mut self,
        scheduler: &mut dyn WorkflowScheduler,
        wf: WorkflowId,
        job: JobId,
    ) {
        self.pool.workflow_mut(wf).activate(job, self.now);
        if self.config.locality.is_some() {
            let maps = self.pool.workflow(wf).spec().job(job).map_tasks();
            self.data.activate_job(wf, job, maps);
        }
        scheduler.on_job_activated(&self.pool, wf, job, self.now);
    }

    fn handle_completion(
        &mut self,
        scheduler: &mut dyn WorkflowScheduler,
        node: NodeId,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        attempt: u64,
    ) {
        // Attempt bookkeeping: resolve which attempt this is and whether it
        // still matters (its twin may have won, or its node may have died).
        let mut completed_task: Option<u32> = None;
        if self.track_attempts {
            let info = self
                .table
                .attempts
                .remove(&attempt)
                .expect("completion for a registered attempt");
            completed_task = info.task;
            if info.cancelled {
                // The race was decided (or the node crashed) earlier; this
                // slot was already freed when the attempt was killed.
                return;
            }
            // This attempt wins its group. Kill the twin, if racing.
            let group = self.table.groups.remove(&info.group).expect("live group");
            if info.speculative {
                self.counters.speculative_wins += 1;
            }
            for &other in &group.attempts[..usize::from(group.attempt_count)] {
                // A twin a node crash already killed had its accounting
                // settled then; a live one loses its slot immediately
                // (Hadoop kills it).
                let racing = |a: &AttemptRecord| !a.cancelled;
                if other != attempt && self.table.attempts.get(&other).is_some_and(racing) {
                    let loser = self.kill_attempt(other);
                    self.pool
                        .workflow_mut(loser.wf)
                        .finish_speculative(loser.job, loser.kind);
                }
            }
        }
        self.release_slot(node, kind);
        self.emit(TraceEvent::TaskComplete {
            node: node.index(),
            workflow: wf,
            job: job.as_u32() as usize,
            kind,
        });
        // Failure injection: the attempt may fail and re-queue its task.
        // A task fails at most once (the retry succeeds), so termination
        // is guaranteed.
        self.completion_seq += 1;
        if self.config.task_failure_prob > 0.0 {
            let spec = self.pool.workflow(wf).spec().job(job);
            let budget = match kind {
                SlotKind::Map => spec.map_tasks(),
                SlotKind::Reduce => spec.reduce_tasks(),
            };
            let already = self.pool.workflow(wf).job(job).retried(kind);
            let roll = self.rng.task_failure(self.completion_seq);
            if already < budget && roll < self.config.task_failure_prob {
                self.counters.task_failures += 1;
                self.fail_and_requeue(scheduler, wf, job, kind, completed_task);
                self.assign_node(scheduler, node);
                return;
            }
        }
        if self.fault_mode
            && kind == SlotKind::Map
            && self.pool.workflow(wf).spec().job(job).reduce_tasks() > 0
        {
            // Remember where the map output lives: reducers fetch it from
            // the mapper's local disk, so it dies with the node.
            self.data.record_map_output(wf, job, node, completed_task);
        }
        let job_done = self.pool.workflow_mut(wf).finish_task(job, kind, self.now);
        if job_done {
            self.data.finish_job(wf, job);
            scheduler.on_job_completed(&self.pool, wf, job, self.now);
            let dependents: Vec<JobId> = self.pool.workflow(wf).spec().dependents(job).to_vec();
            for dep in dependents {
                if self.pool.workflow_mut(wf).satisfy_prereq(dep) {
                    self.begin_job_submission(wf, dep);
                }
            }
            if self.pool.workflow(wf).is_complete() {
                scheduler.on_workflow_completed(&self.pool, wf, self.now);
                self.remaining -= 1;
                // The original master already released this workflow before
                // the crash; replay must not release it twice.
                if !self.master.replaying {
                    if let Some(gate) = self.gate.as_deref_mut() {
                        gate.release(self.pool.workflow(wf).spec().name());
                    }
                }
            }
        }
        self.assign_node(scheduler, node);
    }

    /// Whether offers go through [`WorkflowScheduler::assign_batch`].
    /// Delay scheduling and risk-aware placement can decline individual
    /// offers, which would desynchronize a scheduler's pre-committed batch
    /// picks, so the batch path stays off whenever either is modelled.
    fn batchable(&self) -> bool {
        self.config.locality.is_none() && !self.risk_placement_on()
    }

    /// Offers all of `node`'s free slots to the scheduler, as a heartbeat
    /// response does.
    fn assign_node(&mut self, scheduler: &mut dyn WorkflowScheduler, node: NodeId) {
        let batchable = self.batchable();
        for kind in SlotKind::ALL {
            let free = self.nodes[node.index()].free(kind);
            let picks = (batchable && free > 0)
                .then(|| self.timed(|pool, now| scheduler.assign_batch(pool, kind, now, free)))
                .flatten();
            // Whether the scheduler ran out of work for this kind, leaving
            // the node's idle slots free to duplicate overdue attempts
            // (speculative execution).
            let mut drained = false;
            if let Some(picks) = picks {
                // Count probes as the sequential path would have made: one
                // per pick, plus the trailing `None` probe when the batch
                // under-fills the node.
                self.counters.assign_calls +=
                    picks.len() as u64 + u64::from((picks.len() as u32) < free);
                // Batch picks are pre-committed inside the scheduler:
                // start without re-notifying it. Nothing declines offers
                // on this path, so a refusal is an invalid pick.
                drained = picks
                    .into_iter()
                    .all(|(wf, job)| self.start_task(scheduler, node, wf, job, kind, false));
            } else {
                while self.nodes[node.index()].free(kind) > 0 {
                    self.counters.assign_calls += 1;
                    let choice = self.timed(|pool, now| scheduler.assign_task(pool, kind, now));
                    let Some((wf, job)) = choice else {
                        drained = true;
                        break;
                    };
                    if !self.start_task(scheduler, node, wf, job, kind, true) {
                        // Invalid pick, or delay scheduling declined the
                        // offer: leave the node's remaining slots of this
                        // kind for a later, better-placed heartbeat.
                        break;
                    }
                }
            }
            while drained && self.nodes[node.index()].free(kind) > 0 {
                drained = self.try_speculate(node, kind);
            }
        }
    }

    /// Starts one task of `(wf, job, kind)`, the scheduler's pick, on
    /// `node`. Returns `false`, with the slot still free, if the pick is
    /// not eligible (counted as an invalid assignment) or the offer was
    /// declined under delay scheduling or risk-aware placement. `notify`
    /// fires the scheduler's `on_task_assigned` hook; batch picks pass
    /// `false` because `assign_batch` already applied it per pick.
    fn start_task(
        &mut self,
        scheduler: &mut dyn WorkflowScheduler,
        node: NodeId,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        notify: bool,
    ) -> bool {
        if !self.pool.eligible(wf, job, kind) {
            self.counters.invalid_assignments += 1;
            return false;
        }
        self.emit(TraceEvent::Assign {
            node: node.index(),
            kind,
            workflow: wf,
            job: job.as_u32() as usize,
        });
        // Risk-aware placement: decline the offer outright (before any
        // state is touched) when a deadline-critical task would land on a
        // failure-prone node and a safer node could still take it.
        if self.risk_placement_on() && self.decline_for_risk(scheduler, node, wf, kind) {
            return false;
        }
        let (estimate, index) = {
            let state = self.pool.workflow(wf);
            let spec = state.spec().job(job);
            match kind {
                SlotKind::Map => (
                    spec.map_duration(),
                    spec.map_tasks() - state.job(job).pending_maps(),
                ),
                SlotKind::Reduce => (
                    spec.reduce_duration(),
                    spec.reduce_tasks() - state.job(job).pending_reduces(),
                ),
            }
        };
        // Locality: map tasks may run remotely at a penalty, or the offer
        // may be declined entirely under delay scheduling.
        let mut locality_factor = 1.0;
        let mut picked_task: Option<u32> = None;
        if kind == SlotKind::Map && self.config.locality.is_some() {
            let spec_maps = self.pool.workflow(wf).spec().job(job).map_tasks();
            let Some((task, local)) = self.data.pick_map_task(wf, job, node, spec_maps) else {
                self.counters.delay_skip_count += 1;
                return false;
            };
            picked_task = Some(task);
            if local {
                self.counters.local_map_tasks += 1;
            } else {
                self.counters.remote_map_tasks += 1;
                locality_factor = REMOTE_PENALTY;
            }
        }
        let jitter = jitter_factor(
            self.config.seed,
            wf,
            job,
            kind,
            index,
            self.config.duration_jitter,
        );
        let (attempt, straggle) = self.next_attempt();
        let factor = jitter * locality_factor * straggle;
        if self.track_attempts {
            let group = self.table.next_group;
            self.table.next_group += 1;
            self.table.attempts.insert(
                attempt,
                AttemptRecord {
                    id: attempt,
                    wf,
                    job,
                    kind,
                    node,
                    group,
                    started: self.now,
                    estimate,
                    speculative: false,
                    cancelled: false,
                    task: picked_task,
                },
            );
            self.table.groups.insert(
                group,
                GroupRecord {
                    id: group,
                    done: false,
                    twin_launched: false,
                    attempts: [attempt, 0],
                    attempt_count: 1,
                },
            );
        }
        // A task always takes at least one millisecond.
        let mut duration = SimDuration::from_millis(estimate.mul_f64(factor).as_millis().max(1));
        // Re-shuffle charging: a reduce launched while the job owes lost
        // map outputs re-fetches their re-executed output over the
        // network, paying the configured cost per lost output.
        if kind == SlotKind::Reduce && !self.config.reshuffle_cost.is_zero() {
            let debt = self.data.reshuffle_debt(wf, job);
            if debt > 0 {
                let extra = SimDuration::from_millis(
                    self.config.reshuffle_cost.as_millis().saturating_mul(debt),
                );
                duration = duration.saturating_add(extra);
                self.counters.reshuffle_events += 1;
                self.counters.reshuffle_charged_ms += extra.as_millis();
                self.emit(TraceEvent::ReshuffleCharged {
                    workflow: wf,
                    job: job.as_u32() as usize,
                    lost: debt,
                    charged_ms: extra.as_millis(),
                });
            }
        }

        self.pool.workflow_mut(wf).start_task(job, kind);
        self.occupy_slot(node, wf, job, kind, attempt, duration, false);
        self.counters.tasks_executed += 1;
        if notify {
            scheduler.on_task_assigned(&self.pool, wf, job, kind, self.now);
        }
        true
    }

    /// Whether risk-aware placement is active (prediction on with the
    /// placement policy enabled).
    fn risk_placement_on(&self) -> bool {
        matches!(&self.config.prediction, Some(p) if p.risk_placement)
    }

    /// Whether the sequential-path offer of `(node, wf)` should be
    /// declined because the node is failure-prone, the workflow is
    /// deadline-critical, and a safer live node has a free slot of this
    /// kind right now — an escape route the declined task can actually
    /// take. Gating on free capacity rather than mere node liveness keeps
    /// the policy quiet when the cluster is saturated: under heavy churn
    /// every slot is spoken for, declining just idles the node's remaining
    /// slots for the heartbeat, and any slot beats none. Counts and traces
    /// the aversion when it declines.
    fn decline_for_risk(
        &mut self,
        scheduler: &mut dyn WorkflowScheduler,
        node: NodeId,
        wf: WorkflowId,
        kind: SlotKind,
    ) -> bool {
        let p = self
            .config
            .prediction
            .expect("risk placement implies prediction");
        let Some(health) = &self.health else {
            return false;
        };
        if !health.risky(node, self.now, p.risk_threshold) {
            return false;
        }
        if scheduler.slack_fraction(&self.pool, wf, self.now) >= SLACK_THRESHOLD {
            return false;
        }
        let escape_exists = (0..self.nodes.len()).any(|i| {
            i != node.index()
                && self.fault.alive[i]
                && !self.fault.blacklisted[i]
                && self.nodes[i].free(kind) > 0
                && !health.risky(NodeId::new(i as u32), self.now, p.risk_threshold)
        });
        if !escape_exists {
            return false;
        }
        self.health.as_mut().expect("checked above").risk_averted += 1;
        self.emit(TraceEvent::RiskAverted {
            node: node.index(),
            workflow: wf,
        });
        true
    }

    /// Launches a preemptive duplicate of an attempt running on a
    /// failure-prone node, if any, onto the (safe) `node`. A duplicate
    /// burns a slot for the attempt's whole duration even when the
    /// original survives, so only *repeat offenders* — nodes at twice the
    /// risk threshold, i.e. multiple recent crashes still undecayed —
    /// qualify. Highest propensity first, ties broken by lowest attempt
    /// id, so the choice is deterministic. Returns whether a duplicate was
    /// launched.
    fn try_speculate_risk(&mut self, node: NodeId, kind: SlotKind) -> bool {
        let Some(p) = self.config.prediction.filter(|p| p.risk_placement) else {
            return false;
        };
        let Some(health) = &self.health else {
            return false;
        };
        let now = self.now;
        // Never duplicate onto a node that is itself risky.
        if health.risky(node, now, p.risk_threshold) {
            return false;
        }
        let candidate = self
            .table
            .unpaired(kind)
            .filter(|a| a.node != node)
            .filter_map(|a| {
                let score = health.score(a.node, now);
                (score >= 2.0 * p.risk_threshold).then_some((a.id, score))
            })
            .fold(None::<(u64, f64)>, |best, (id, score)| match best {
                Some((best_id, best_score))
                    if best_score > score || (best_score == score && best_id < id) =>
                {
                    best
                }
                _ => Some((id, score)),
            })
            .map(|(id, _)| id);
        let Some(original_id) = candidate else {
            return false;
        };
        self.launch_duplicate(original_id, node, kind, true);
        true
    }

    /// Launches a speculative duplicate of the most-overdue running
    /// attempt of `kind`, if any, onto `node`. Under risk placement,
    /// attempts running on failure-prone nodes are duplicated first (a
    /// preemptive copy before the node dies), then the overdue-based
    /// policy applies unchanged. Returns whether a duplicate was launched.
    fn try_speculate(&mut self, node: NodeId, kind: SlotKind) -> bool {
        if self.try_speculate_risk(node, kind) {
            return true;
        }
        let Some(spec) = self.config.speculation else {
            return false;
        };
        let now = self.now;
        // Most-overdue original attempt without a twin.
        let candidate = self
            .table
            .unpaired(kind)
            .filter_map(|a| {
                let elapsed = now.saturating_since(a.started).as_millis() as f64;
                let budget = a.estimate.as_millis().max(1) as f64 * spec.speculate_after;
                (elapsed > budget).then_some((a.id, elapsed / budget))
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite ratios"))
            .map(|(id, _)| id);
        let Some(original_id) = candidate else {
            return false;
        };
        self.launch_duplicate(original_id, node, kind, false);
        true
    }

    /// Starts a speculative duplicate of `original_id` on `node`; shared
    /// by overdue-based and risk-preemptive speculation. `preemptive`
    /// marks risk-driven launches for the prediction counters.
    fn launch_duplicate(
        &mut self,
        original_id: u64,
        node: NodeId,
        kind: SlotKind,
        preemptive: bool,
    ) {
        let original = self.table.attempts[&original_id];
        // The duplicate gets a fresh duration (its own straggler roll).
        let (attempt, factor) = self.next_attempt();
        let duration =
            SimDuration::from_millis(original.estimate.mul_f64(factor).as_millis().max(1));
        self.table.attempts.insert(
            attempt,
            AttemptRecord {
                id: attempt,
                node,
                started: self.now,
                speculative: true,
                cancelled: false,
                ..original
            },
        );
        let group = self
            .table
            .groups
            .get_mut(&original.group)
            .expect("live group");
        group.twin_launched = true;
        group.attempts[1] = attempt;
        group.attempt_count = 2;
        self.counters.speculative_launched += 1;
        if preemptive {
            if let Some(h) = self.health.as_mut() {
                h.preemptive_speculations += 1;
            }
            self.emit(TraceEvent::PreemptiveSpeculation {
                node: original.node.index(),
                workflow: original.wf,
            });
        }

        self.pool
            .workflow_mut(original.wf)
            .start_speculative(original.job, kind);
        self.occupy_slot(
            node,
            original.wf,
            original.job,
            kind,
            attempt,
            duration,
            true,
        );
    }

    /// A TaskTracker heartbeat: dead nodes stop the chain; live ones get
    /// their free slots offered and the next beat scheduled.
    fn handle_heartbeat(&mut self, scheduler: &mut dyn WorkflowScheduler, node: NodeId) {
        if self.fault_mode && !self.fault.alive[node.index()] {
            // A dead node stops heartbeating; NodeUp restarts the chain
            // when it re-registers.
            self.fault.heartbeat_live[node.index()] = false;
        } else {
            self.emit_heartbeat(self.now, node);
            self.assign_node(scheduler, node);
            // Keep the chain alive while work remains — including work the
            // source has not delivered yet.
            if self.remaining > 0 || !self.exhausted {
                self.schedule(
                    self.now + self.cluster.heartbeat_interval(),
                    Event::Heartbeat(node),
                );
            }
        }
    }

    /// The idle run: consumes the heartbeats at the head of the queue whose
    /// offers would all come back empty, and returns whether there were
    /// any. A beat qualifies while it heads the queue as a lane entry
    /// before `next_arrival` and within `max_sim_time`, its node is alive,
    /// no kind has both a free slot on the node and a ready workflow in the
    /// pool, and `clock` lets it fire (the caller has asked for the first).
    ///
    /// [`Self::handle_heartbeat`] on such a beat moves `now`, counts the
    /// event and one `assign_calls` probe per kind with a free slot, logs
    /// the beat, reports it, and re-arms it; the scheduler is asked and
    /// finds nothing (the caller keeps idle runs off while speculation or
    /// risk placement could fill an idle slot, and while the master is
    /// down). So the loop below is that pop-then-push sequence with the
    /// no-op calls stripped, which keeps every `seq` where the per-beat
    /// path would have put it. An observer still gets what the main loop
    /// would have given it per beat: the gauge samples due before the beat,
    /// then its `Heartbeat` record. No event fires inside a run, so the
    /// pool's ready counts hold throughout, and the schedulers' empty
    /// offers coalesce into the last one of each kind
    /// (see [`WorkflowScheduler::assign_task`]), made when the run ends.
    fn idle_run(
        &mut self,
        scheduler: &mut dyn WorkflowScheduler,
        clock: &mut dyn Clock,
        next_arrival: SimTime,
        logging: bool,
    ) -> bool {
        let ready = SlotKind::ALL.map(|kind| self.pool.ready_workflows(kind) > 0);
        let interval = self.cluster.heartbeat_interval();
        let observed = self.obs.is_some();
        // The last elided offer of each kind: its instant and slot count.
        let mut last_offer = [None::<(SimTime, u32)>; 2];
        let mut consumed = false;
        while let Some((t, node)) = self.queue.peek_lane_beat() {
            let free = SlotKind::ALL.map(|kind| self.nodes[node.index()].free(kind));
            if t >= next_arrival
                || t > self.config.max_sim_time
                || !self.fault.alive[node.index()]
                || (0..2).any(|k| free[k] > 0 && ready[k])
                || (consumed && !clock.ready_for(t))
            {
                break;
            }
            debug_assert!(t >= self.now, "time went backwards");
            if observed {
                self.observe_idle_beat(t, node);
            }
            self.now = t;
            self.events_processed += 1;
            if logging {
                self.master.wal.push((t, Event::Heartbeat(node)));
            }
            for k in 0..2 {
                if free[k] > 0 {
                    self.counters.assign_calls += 1;
                    last_offer[k] = Some((t, free[k]));
                }
            }
            self.queue.rearm_lane_beat(interval);
            consumed = true;
        }
        // Earlier offer first, Map before Reduce at equal instants: the
        // scheduler never sees `now` step back.
        let mut kinds = SlotKind::ALL;
        if let [Some((map_at, _)), Some((reduce_at, _))] = last_offer {
            if reduce_at < map_at {
                kinds.reverse();
            }
        }
        let batchable = self.batchable();
        for kind in kinds {
            let Some((at, free)) = last_offer[Self::kind_index(kind)] else {
                continue;
            };
            let picks = batchable
                .then(|| self.timed(|pool, _| scheduler.assign_batch(pool, kind, at, free)))
                .flatten();
            let empty = match picks {
                Some(picks) => picks.is_empty(),
                None => self
                    .timed(|pool, _| scheduler.assign_task(pool, kind, at))
                    .is_none(),
            };
            debug_assert!(
                empty,
                "{} assigned with no ready workflow",
                scheduler.name()
            );
        }
        consumed
    }

    /// What an observer hears of an elided beat of `node` at `t`: the
    /// samples due before it, then its `Heartbeat` record. Out of line,
    /// so the idle loop stays as tight as when nothing observes.
    #[cold]
    #[inline(never)]
    fn observe_idle_beat(&mut self, t: SimTime, node: NodeId) {
        self.sample_before(t);
        self.emit_heartbeat(t, node);
    }

    /// Applies one event to the master state. Called from the main loop
    /// and, with [`Self::replaying`] set, from WAL replay during recovery.
    fn dispatch(&mut self, scheduler: &mut dyn WorkflowScheduler, event: Event) {
        match event {
            Event::WorkflowArrival(i) => self.handle_arrival(scheduler, i),
            Event::JobActivated(wf, job) => self.handle_activation(scheduler, wf, job),
            Event::Heartbeat(node) => self.handle_heartbeat(scheduler, node),
            Event::TaskComplete {
                node,
                workflow,
                job,
                kind,
                attempt,
            } => self.handle_completion(scheduler, node, workflow, job, kind, attempt),
            Event::NodeDown(node) => {
                self.handle_node_down(node, false);
            }
            Event::NodeUp(node) => self.handle_node_up(scheduler, node),
            Event::NodeLost { node, incident } => self.handle_node_lost(scheduler, node, incident),
            Event::RackDown { rack } => self.handle_rack_down(rack),
            Event::RackUp { rack } => self.handle_rack_up(scheduler, rack),
            Event::Checkpoint => self.handle_checkpoint(scheduler),
            Event::MasterCrash { incident } => self.handle_master_crash(scheduler, incident),
            Event::MasterRecovered { incident } => {
                self.handle_master_recovered(scheduler, incident)
            }
        }
        self.drain_sched(scheduler);
    }
}

/// Runs one simulation of `workflows` under `scheduler` on `cluster`.
///
/// Workflows are submitted at their [`WorkflowSpec::submit_time`]s; the run
/// ends when every workflow completes or [`SimConfig::max_sim_time`] is
/// reached.
///
/// # Examples
///
/// ```
/// use woha_sim::{run_simulation, ClusterConfig, SimConfig, SubmitOrderScheduler};
/// use woha_model::{JobSpec, SimDuration, WorkflowBuilder};
///
/// let mut b = WorkflowBuilder::new("w");
/// b.add_job(JobSpec::new("only", 4, 2,
///     SimDuration::from_secs(10), SimDuration::from_secs(20)));
/// b.relative_deadline(SimDuration::from_mins(5));
/// let w = b.build().unwrap();
///
/// let report = run_simulation(
///     &[w],
///     &mut SubmitOrderScheduler::new(),
///     &ClusterConfig::uniform(2, 2, 1),
///     &SimConfig::default(),
/// );
/// assert!(report.completed);
/// assert_eq!(report.deadline_misses(), 0);
/// ```
///
/// # Panics
///
/// Panics on an invalid configuration (see [`SimError`]); use
/// [`try_run_simulation_streamed`] over a [`VecSource`] for a fallible
/// variant.
pub fn run_simulation(
    workflows: &[WorkflowSpec],
    scheduler: &mut dyn WorkflowScheduler,
    cluster: &ClusterConfig,
    config: &SimConfig,
) -> SimReport {
    // A thin wrapper over the streaming path: a [`VecSource`] yields the
    // slice in submission order, which reproduces the historical batch
    // driver byte for byte (proven by the E2E identity tests).
    let mut source = VecSource::new(workflows.to_vec());
    try_run_simulation_streamed(&mut source, scheduler, cluster, config, None)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible, streaming variant of [`run_simulation`]: validates the
/// configuration against the cluster before starting (see [`SimError`]),
/// pulls workflows lazily from a [`WorkloadSource`] as simulated time
/// advances instead of materializing the whole workload up front, and
/// optionally screens each arrival through an [`AdmissionGate`].
///
/// For a [`VecSource`] over the same workflows the report is byte-identical
/// to [`run_simulation`]. A rejected workflow never enters the cluster: it
/// produces no [`WorkflowOutcome`] and is
/// only counted in [`SimReport::admission`].
///
/// # Errors
///
/// Returns a [`SimError`] when the fault, data-plane or observability
/// configuration is invalid for the cluster.
pub fn try_run_simulation_streamed<'a>(
    source: &mut dyn WorkloadSource,
    scheduler: &mut dyn WorkflowScheduler,
    cluster: &'a ClusterConfig,
    config: &'a SimConfig,
    gate: Option<&'a mut dyn AdmissionGate>,
) -> Result<SimReport, SimError> {
    validate(cluster, config)?;
    let obs = Observer::new(None, &config.observability, cluster);
    let (report, _) =
        run_inner_clocked(source, scheduler, cluster, config, gate, obs, &mut SimClock);
    Ok(report)
}

/// Streaming-and-observed variant: like [`try_run_simulation_streamed`],
/// but records the decision-loop trace into a caller-supplied sink as the
/// run progresses — pass a [`JsonlTraceSink`](crate::obs::JsonlTraceSink)
/// to stream records to disk incrementally instead of buffering them — and
/// returns the [`MetricsRegistry`] when
/// [`ObservabilityConfig::metrics`] is on.
///
/// # Errors
///
/// Returns the same [`SimError`]s as [`try_run_simulation_streamed`].
pub fn try_run_simulation_streamed_observed<'a>(
    source: &mut dyn WorkloadSource,
    scheduler: &mut dyn WorkflowScheduler,
    cluster: &'a ClusterConfig,
    config: &'a SimConfig,
    gate: Option<&'a mut dyn AdmissionGate>,
    sink: Option<&'a mut dyn TraceSink>,
) -> Result<(SimReport, Option<MetricsRegistry>), SimError> {
    try_run_simulation_clocked(
        source,
        scheduler,
        cluster,
        config,
        gate,
        sink,
        &mut SimClock,
    )
}

/// Clocked variant of [`try_run_simulation_streamed_observed`]: the same
/// event loop, but time is governed by a caller-supplied [`Clock`].
///
/// With [`SimClock`] this is the streamed-observed entry point. With a
/// [`WallClock`](crate::clock::WallClock) the loop paces events against
/// real time and waits for live sources — this is the engine under
/// `woha serve --wall-clock`, where the source is typically a
/// [`FollowSource`](woha_trace::FollowSource) or
/// [`ChannelSource`](woha_trace::ChannelSource) behind an
/// [`ArrivalBuffer`](crate::backpressure::ArrivalBuffer).
///
/// # Errors
///
/// Returns the same [`SimError`]s as [`try_run_simulation_streamed`].
#[allow(clippy::too_many_arguments)]
pub fn try_run_simulation_clocked<'a>(
    source: &mut dyn WorkloadSource,
    scheduler: &mut dyn WorkflowScheduler,
    cluster: &'a ClusterConfig,
    config: &'a SimConfig,
    gate: Option<&'a mut dyn AdmissionGate>,
    sink: Option<&'a mut dyn TraceSink>,
    clock: &mut dyn Clock,
) -> Result<(SimReport, Option<MetricsRegistry>), SimError> {
    validate(cluster, config)?;
    let obs = Observer::new(sink, &config.observability, cluster);
    Ok(run_inner_clocked(
        source, scheduler, cluster, config, gate, obs, clock,
    ))
}

/// Observability-enabled variant of [`run_simulation`]: runs the same
/// simulation and additionally returns the [`Observations`] collected
/// according to [`SimConfig::observability`] (an empty trace and no
/// metrics when the corresponding switches are off). The [`SimReport`] is
/// byte-identical to what [`run_simulation`] produces for the same inputs.
///
/// # Panics
///
/// Panics on an invalid configuration (see [`SimError`]); use
/// [`try_run_simulation_streamed_observed`] for a fallible variant.
pub fn run_simulation_observed(
    workflows: &[WorkflowSpec],
    scheduler: &mut dyn WorkflowScheduler,
    cluster: &ClusterConfig,
    config: &SimConfig,
) -> (SimReport, Observations) {
    let mut sink = config.observability.trace.then(MemorySink::new);
    let mut source = VecSource::new(workflows.to_vec());
    let (report, metrics) = try_run_simulation_streamed_observed(
        &mut source,
        scheduler,
        cluster,
        config,
        None,
        sink.as_mut().map(|s| s as &mut dyn TraceSink),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let observations = Observations {
        trace: sink.map(MemorySink::into_records).unwrap_or_default(),
        metrics,
        node_count: cluster.node_count(),
    };
    (report, observations)
}

/// Validates the cluster's fault configuration and the driver's data-plane
/// and observability knobs before a run starts.
fn validate(cluster: &ClusterConfig, config: &SimConfig) -> Result<(), SimError> {
    let node_count = cluster.node_count();
    for f in &cluster.faults().scripted {
        for &node in &f.nodes {
            if node.index() >= node_count {
                return Err(SimError::UnknownScriptedNode { node, node_count });
            }
        }
    }
    let mcfg = &cluster.faults().master;
    if mcfg.enabled() {
        if mcfg.checkpoint_interval.is_zero() {
            return Err(SimError::ZeroCheckpointInterval);
        }
        if mcfg.mttr.is_zero() {
            return Err(SimError::ZeroMasterMttr);
        }
    }
    if let Some(loc) = &config.locality {
        // A replica count above the node count is legal: placement
        // clamps it.
        if loc.replicas == 0 {
            return Err(SimError::ZeroLocalityReplicas);
        }
    }
    if cluster.faults().rack_mtbf.is_some_and(|d| d.is_zero()) {
        return Err(SimError::ZeroRackMtbf);
    }
    if config.observability.sample_interval == Some(SimDuration::ZERO) {
        return Err(SimError::ZeroSampleInterval);
    }
    Ok(())
}

fn run_inner_clocked<'a>(
    source: &mut dyn WorkloadSource,
    scheduler: &mut dyn WorkflowScheduler,
    cluster: &'a ClusterConfig,
    config: &'a SimConfig,
    gate: Option<&'a mut dyn AdmissionGate>,
    obs: Option<Observer<'a>>,
    clock: &mut dyn Clock,
) -> (SimReport, Option<MetricsRegistry>) {
    // The scheduler's own records (picks, plans, replans, rollbacks) are
    // part of what an observer hears.
    let sched_tracing = obs.is_some();
    if sched_tracing {
        scheduler.set_tracing(true);
    }
    let (sim, truncated) = simulate(source, scheduler, cluster, config, gate, obs, clock);
    let result = report(sim, scheduler, truncated);
    if sched_tracing {
        scheduler.set_tracing(false);
    }
    result
}

/// Runs the event loop until the workload drains or `max_sim_time` cuts
/// it short (the returned flag), handing back the master as it ended.
fn simulate<'a>(
    source: &mut dyn WorkloadSource,
    scheduler: &mut dyn WorkflowScheduler,
    cluster: &'a ClusterConfig,
    config: &'a SimConfig,
    gate: Option<&'a mut dyn AdmissionGate>,
    obs: Option<Observer<'a>>,
    clock: &mut dyn Clock,
) -> (Sim<'a>, bool) {
    let fault_mode = cluster.faults().enabled();
    let master_mode = cluster.faults().master.enabled();
    let node_count = cluster.node_count();
    let mut sim = Sim {
        config,
        cluster,
        queue: EventQueue::new(),
        pool: WorkflowPool::new(),
        nodes: cluster.nodes().iter().map(NodeSlotsRecord::idle).collect(),
        remaining: 0,
        now: SimTime::ZERO,
        rng: FaultStream::new(config.seed),
        busy_count: [0, 0],
        busy_integral_ms: [0, 0],
        last_busy_touch: SimTime::ZERO,
        completion_seq: 0,
        counters: SnapshotCounters::default(),
        events_processed: 0,
        scheduler_nanos: 0,
        unstamped_decisions: 0,
        data: DataPlane::new(config.seed, cluster, config.locality),
        table: AttemptTable {
            attempts: FastMap::default(),
            groups: FastMap::default(),
            next_attempt: 1,
            next_group: 1,
        },
        // Survivor preference re-queues a failed map under its original
        // identity, which only the attempt record remembers.
        track_attempts: config.speculation.is_some()
            || fault_mode
            || master_mode
            || config.prediction.is_some()
            || config.locality.is_some_and(|l| l.prefer_survivors),
        fault_mode,
        fault: FaultSnapshot {
            alive: vec![true; node_count],
            blacklisted: vec![false; node_count],
            incident: vec![0; node_count],
            crash_count: vec![0; node_count],
            heartbeat_live: vec![true; node_count],
            lost_pending: vec![Vec::new(); node_count],
            racks: Vec::new(),
        },
        health: config
            .prediction
            .as_ref()
            .map(|_| NodeHealth::new(node_count)),
        master: MasterState::default(),
        arrived: vec![],
        workflows: Vec::new(),
        exhausted: false,
        gate,
        rejections: BTreeMap::new(),
        obs,
        sched_scratch: Vec::new(),
    };

    // Workflow arrivals are NOT pushed here: the main loop below pulls
    // them from the source lazily, as simulated time reaches them.
    // Staggered initial heartbeats.
    let interval_ms = cluster.heartbeat_interval().as_millis();
    for (i, node) in cluster.node_ids().enumerate() {
        let offset = SimDuration::from_millis(interval_ms * i as u64 / (node_count as u64).max(1));
        sim.queue
            .push(SimTime::ZERO + offset, Event::Heartbeat(node));
    }
    sim.schedule_faults();
    let wal_enabled = master_mode && cluster.faults().master.wal;
    if master_mode {
        sim.start_master(scheduler);
    }

    // An elided beat is invisible only while an empty offer launches
    // nothing: see [`Sim::idle_run`].
    let idle_runs = config.speculation.is_none() && !sim.risk_placement_on();
    let mut truncated = false;
    loop {
        // The effective time of the source's next arrival: `None` while the
        // source cannot say (it is pending), `MAX` once it is exhausted.
        let mut next_arrival = None;
        // Pull every source arrival due at or before the queue head (all
        // of them when the queue is empty): each injected arrival lands in
        // the queue's priority lane at its effective submission time, so
        // by the time an event at time T is processed, every workflow
        // submitted at or before T has been pulled, gated, and enqueued —
        // exactly the set the batch driver had pre-registered. Arrivals
        // the gate turns away are counted and dropped on the spot. A live
        // source may have no data *yet* (Pending); the clock decides
        // whether to wait it out, service the next due event, or — for
        // the replay clock, which never waits — treat it as the end.
        while !sim.exhausted {
            let submit = match source.poll_time() {
                SourcePoll::Ready(submit) => submit,
                SourcePoll::Exhausted => {
                    sim.exhausted = true;
                    break;
                }
                SourcePoll::Pending => match clock.source_pending(sim.queue.peek_time()) {
                    SourceWait::Retry => continue,
                    SourceWait::EventDue => break,
                    SourceWait::Ended => {
                        sim.exhausted = true;
                        break;
                    }
                },
            };
            let at = clock.stamp(submit.saturating_add(sim.master.arrival_shift), sim.now);
            if sim.queue.peek_time().is_some_and(|head| at > head) {
                next_arrival = Some(at);
                break;
            }
            let spec = source.next_workflow().expect("peeked source yields");
            if let Some(gate) = sim.gate.as_deref_mut() {
                if let Err(reason) = gate.admit(&spec, at) {
                    *sim.rejections.entry(reason.clone()).or_insert(0) += 1;
                    sim.emit_at(
                        at,
                        TraceEvent::AdmissionReject {
                            workflow: spec.name().to_string(),
                            reason,
                        },
                    );
                    continue;
                }
            }
            let index = sim.workflows.len();
            sim.workflows.push(Arc::new(spec));
            sim.grow_ledger(index + 1);
            sim.queue.push_arrival(at, Event::WorkflowArrival(index));
        }
        if sim.exhausted {
            next_arrival = Some(SimTime::MAX);
            if sim.remaining == 0 {
                break;
            }
        }
        // In wall-clock mode, wait (in poll slices) until the head event
        // is due, re-polling the source between slices so fresh arrivals
        // can still beat it. The replay clock is always ready.
        if let Some(head) = sim.queue.peek_time() {
            if !clock.ready_for(head) {
                continue;
            }
        }
        // The master's own lifecycle events are not logged: the WAL holds
        // what a recovering master must re-apply, and only while one is up.
        let logging = wal_enabled && !sim.master.down;
        if idle_runs && !sim.master.down {
            if let Some(next_arrival) = next_arrival {
                if sim.idle_run(scheduler, clock, next_arrival, logging) {
                    // The run may have stopped at the instant of the next
                    // arrival, which must be queued before that beat pops.
                    continue;
                }
            }
        }
        let Some((t, event)) = sim.queue.pop() else {
            break;
        };
        if t > config.max_sim_time {
            truncated = true;
            sim.now = config.max_sim_time;
            break;
        }
        debug_assert!(t >= sim.now, "time went backwards");
        sim.sample_before(t);
        sim.now = t;
        sim.events_processed += 1;
        if logging
            && !matches!(
                event,
                Event::Checkpoint | Event::MasterCrash { .. } | Event::MasterRecovered { .. }
            )
        {
            sim.master.wal.push((t, event.clone()));
        }
        sim.dispatch(scheduler, event);
    }
    (sim, truncated)
}

/// The report of a run [`simulate`] ended with `sim`.
fn report(
    mut sim: Sim<'_>,
    scheduler: &mut dyn WorkflowScheduler,
    truncated: bool,
) -> (SimReport, Option<MetricsRegistry>) {
    let (cluster, config) = (sim.cluster, sim.config);
    let master_mode = cluster.faults().master.enabled();
    sim.touch_busy();

    let end_time = sim.now;
    let (metrics, timelines) = sim
        .obs
        .take()
        .map_or((None, None), |obs| obs.finish(&sim.pool, end_time));
    let outcomes: Vec<WorkflowOutcome> = sim
        .pool
        .workflows()
        .iter()
        .map(|w| WorkflowOutcome {
            id: w.id(),
            name: w.spec().name().to_string(),
            submitted: w.spec().submit_time(),
            deadline: w.spec().deadline(),
            finished: w.finished_at(),
        })
        .collect();
    let completed =
        !truncated && sim.remaining == 0 && sim.exhausted && outcomes.len() == sim.workflows.len();
    debug_assert!(
        !completed || sim.data.tracked_entries() == 0,
        "every job finished, so the data plane holds nothing"
    );
    let admission = sim.gate.is_some().then(|| AdmissionReport {
        workflows_rejected: sim.rejections.values().sum(),
        rejections: sim
            .rejections
            .iter()
            .map(|(reason, &count)| RejectCount {
                reason: reason.clone(),
                count,
            })
            .collect(),
    });
    let prediction = sim.health.as_ref().map(|h| PredictionReport {
        node_propensity: h.scores_at(end_time),
        plans_padded: scheduler.plans_padded(),
        risk_averted_placements: h.risk_averted,
        preemptive_speculations: h.preemptive_speculations,
        adaptive_blacklists: h.adaptive_blacklists,
    });
    // The data-plane section appears whenever any of its features (racks,
    // rack faults, survivor preference, re-shuffle charging) is on; the
    // default flat configuration stays byte-identical.
    let data_plane = (cluster.rack_count() > 1
        || cluster.faults().rack_mtbf.is_some()
        || !config.reshuffle_cost.is_zero()
        || config.locality.is_some_and(|l| l.prefer_survivors))
    .then(|| DataPlaneReport {
        racks: cluster.rack_count(),
        rack_outages: sim.fault.racks.iter().map(|r| r.incident).sum(),
        survivor_requeues: sim.counters.survivor_requeues,
        reshuffle_events: sim.counters.reshuffle_events,
        reshuffle_charged_ms: sim.counters.reshuffle_charged_ms,
    });
    let c = sim.counters;
    let report = SimReport {
        scheduler: scheduler.name().to_string(),
        outcomes,
        end_time,
        completed,
        busy_slot_ms: sim.busy_integral_ms,
        total_slots: [
            cluster.total_slots(SlotKind::Map),
            cluster.total_slots(SlotKind::Reduce),
        ],
        tasks_executed: c.tasks_executed,
        task_failures: c.task_failures,
        local_map_tasks: c.local_map_tasks,
        remote_map_tasks: c.remote_map_tasks,
        delay_skips: c.delay_skip_count,
        scheduler_nanos: sim.scheduler_nanos,
        stragglers: c.stragglers,
        speculative_launched: c.speculative_launched,
        speculative_wins: c.speculative_wins,
        assign_calls: c.assign_calls,
        invalid_assignments: c.invalid_assignments,
        events_processed: sim.events_processed,
        node_failures: c.node_failures,
        node_recoveries: c.node_recoveries,
        nodes_blacklisted: c.nodes_blacklisted,
        tasks_requeued: c.tasks_requeued,
        map_outputs_lost: c.map_outputs_lost,
        work_lost_slot_ms: c.work_lost_slot_ms,
        timelines,
        recovery: master_mode.then_some(sim.master.recovery),
        admission,
        prediction,
        data_plane,
    };
    (report, metrics)
}

#[cfg(test)]
mod tests;
