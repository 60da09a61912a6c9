//! Simulation outputs: per-workflow outcomes, cluster utilization, and
//! per-workflow slot-allocation timelines (the raw material of Figs 8–19).

use crate::cluster::{ClusterConfig, NodeConfig};
use crate::dataplane::DataPlaneReport;
use crate::health::PredictionReport;
use crate::obs::{TraceEvent, TraceRecord};
use crate::state::WorkflowPool;
use serde::{Deserialize, Serialize};
use woha_model::{SimDuration, SimTime, SlotKind, WorkflowId};

/// What happened to one workflow.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkflowOutcome {
    /// The workflow's id.
    pub id: WorkflowId,
    /// The workflow's name.
    pub name: String,
    /// Submission time `S_i`.
    pub submitted: SimTime,
    /// Absolute deadline `D_i`.
    pub deadline: SimTime,
    /// Completion time, or `None` if the simulation was cut off first.
    pub finished: Option<SimTime>,
}

impl WorkflowOutcome {
    /// The workspan `finish - submit` (the paper's Fig 11 metric), using
    /// `censor` as the finish time for unfinished workflows.
    pub fn workspan(&self, censor: SimTime) -> SimDuration {
        self.finished
            .unwrap_or(censor)
            .saturating_since(self.submitted)
    }

    /// Tardiness `max(0, finish - deadline)`, censored like
    /// [`workspan`](Self::workspan). Zero when the deadline was met.
    pub fn tardiness(&self, censor: SimTime) -> SimDuration {
        self.finished
            .unwrap_or(censor)
            .saturating_since(self.deadline)
    }

    /// Whether the workflow finished by its deadline. An unfinished
    /// workflow never meets its deadline.
    pub fn met_deadline(&self) -> bool {
        matches!(self.finished, Some(f) if f <= self.deadline)
    }
}

/// Per-workflow slot-occupancy time series, sampled on a fixed grid —
/// exactly the data plotted in the paper's Figs 14–19.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timelines {
    interval: SimDuration,
    /// `series[wf][kind][sample]` = slots of `kind` occupied by workflow
    /// `wf` at sample instant.
    series: Vec<[Vec<u32>; 2]>,
    /// Cluster slots (both kinds) offline at each sample instant because
    /// their node was down — all zeros when fault injection is disabled.
    down_slots: Vec<u32>,
}

impl Timelines {
    /// Sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Number of samples per series.
    pub fn sample_count(&self) -> usize {
        self.series.first().map_or(0, |s| s[0].len())
    }

    /// Occupied slots of `kind` for workflow `wf` at each sample instant
    /// (`t = i * interval`).
    ///
    /// # Panics
    ///
    /// Panics if `wf` is out of range.
    pub fn series(&self, wf: WorkflowId, kind: SlotKind) -> &[u32] {
        let k = match kind {
            SlotKind::Map => 0,
            SlotKind::Reduce => 1,
        };
        &self.series[wf.as_u64() as usize][k]
    }

    /// Number of workflows tracked.
    pub fn workflow_count(&self) -> usize {
        self.series.len()
    }

    /// Cluster slots offline (node down) at each sample instant.
    pub fn down_slots(&self) -> &[u32] {
        &self.down_slots
    }
}

/// The timeline consumer: folds task starts, completions and kills, and
/// node outages, from the trace records into slot-occupancy step changes,
/// and resolves them into [`Timelines`] after the run.
#[derive(Debug, Default)]
pub(crate) struct TimelineRecorder {
    /// Slots (both kinds) of each node: what its outage takes offline.
    node_slots: Vec<u32>,
    /// (time, workflow index, kind index, +1/-1)
    deltas: Vec<(SimTime, u32, u8, i8)>,
    /// (time, signed change in offline slot count)
    down_deltas: Vec<(SimTime, i32)>,
}

impl TimelineRecorder {
    pub(crate) fn new(cluster: &ClusterConfig) -> Self {
        TimelineRecorder {
            node_slots: cluster
                .nodes()
                .iter()
                .map(NodeConfig::total_slots)
                .collect(),
            ..TimelineRecorder::default()
        }
    }

    pub(crate) fn observe(&mut self, record: &TraceRecord) {
        let at = record.at;
        match record.event {
            TraceEvent::TaskStart { workflow, kind, .. } => self.record(at, workflow, kind, 1),
            TraceEvent::TaskComplete { workflow, kind, .. }
            | TraceEvent::TaskKilled { workflow, kind, .. } => self.record(at, workflow, kind, -1),
            TraceEvent::NodeDown { node, .. } => self.record_down(at, self.node_slots[node] as i32),
            TraceEvent::NodeUp { node, .. } => {
                self.record_down(at, -(self.node_slots[node] as i32))
            }
            _ => {}
        }
    }

    fn record(&mut self, time: SimTime, wf: WorkflowId, kind: SlotKind, delta: i8) {
        let k = match kind {
            SlotKind::Map => 0,
            SlotKind::Reduce => 1,
        };
        self.deltas.push((time, wf.as_u64() as u32, k, delta));
    }

    /// Records `delta` slots going offline (positive, node crash) or coming
    /// back (negative, node repair) at `time`.
    fn record_down(&mut self, time: SimTime, delta: i32) {
        self.down_deltas.push((time, delta));
    }

    pub(crate) fn finish(
        mut self,
        workflow_count: usize,
        horizon: SimTime,
        interval: SimDuration,
    ) -> Timelines {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        self.deltas.sort_by_key(|&(t, ..)| t);
        self.down_deltas.sort_by_key(|&(t, _)| t);
        let samples = (horizon.as_millis() / interval.as_millis()) as usize + 1;
        let mut series = vec![[vec![0u32; samples], vec![0u32; samples]]; workflow_count];
        let mut down_slots = vec![0u32; samples];
        let mut current = vec![[0i32; 2]; workflow_count];
        let mut down_now = 0i32;
        let mut next_delta = 0usize;
        let mut next_down = 0usize;
        for s in 0..samples {
            let t = SimTime::from_millis(s as u64 * interval.as_millis());
            while next_delta < self.deltas.len() && self.deltas[next_delta].0 <= t {
                let (_, wf, k, d) = self.deltas[next_delta];
                current[wf as usize][k as usize] += i32::from(d);
                next_delta += 1;
            }
            while next_down < self.down_deltas.len() && self.down_deltas[next_down].0 <= t {
                down_now += self.down_deltas[next_down].1;
                next_down += 1;
            }
            for (wf, counts) in current.iter().enumerate() {
                for k in 0..2 {
                    debug_assert!(counts[k] >= 0, "negative occupancy");
                    series[wf][k][s] = counts[k].max(0) as u32;
                }
            }
            debug_assert!(down_now >= 0, "negative offline slot count");
            down_slots[s] = down_now.max(0) as u32;
        }
        Timelines {
            interval,
            series,
            down_slots,
        }
    }
}

/// What master failover cost a run: outage counts, recovery work, and the
/// fate of every task attempt that was in flight when the master died.
/// Attached to [`SimReport::recovery`] only when master faults are
/// enabled, so fault-free reports stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Master (JobTracker) crashes injected.
    pub master_crashes: u64,
    /// Total simulated milliseconds the master was down (recovery
    /// wall-time summed over outages).
    pub master_downtime_ms: u64,
    /// Full state checkpoints taken (periodic + post-recovery).
    pub checkpoints_taken: u64,
    /// Write-ahead-log records replayed across all recoveries.
    pub wal_records_replayed: u64,
    /// Running attempts on live nodes that the recovered master re-adopted
    /// at TaskTracker re-registration.
    pub attempts_readopted: u64,
    /// Attempts the recovered master knew of but whose completion fell in
    /// the lost WAL suffix (or whose node died meanwhile): killed and
    /// requeued, Hadoop-1 style.
    pub attempts_requeued: u64,
    /// Attempts launched after the last durable record — invisible to the
    /// recovered master and orphaned (their slots are reclaimed and the
    /// tasks rerun from the pending queue).
    pub attempts_orphaned: u64,
    /// Workflow submissions lost with the master's volatile state and
    /// re-submitted by their clients at recovery.
    pub workflows_resubmitted: u64,
    /// Job activations re-issued at recovery for jobs the restored state
    /// shows mid-submission with no surviving activation event.
    pub jobs_resubmitted: u64,
}

/// Rejections attributed to one stable admission-gate reason label.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectCount {
    /// Stable, snake_case reason label produced by the gate (e.g.
    /// `"critical_path_exceeds_deadline"`).
    pub reason: String,
    /// Workflows rejected for this reason.
    pub count: u64,
}

/// What the admission gate at the driver's front door did over a run.
/// Attached to [`SimReport::admission`] only when a gate was supplied, so
/// ungated reports stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionReport {
    /// Workflows turned away at submission. Rejected workflows never enter
    /// the cluster and produce no [`WorkflowOutcome`].
    pub workflows_rejected: u64,
    /// Per-reason rejection counts, sorted by reason label.
    pub rejections: Vec<RejectCount>,
}

/// The full result of one simulation run.
///
/// Equality compares the *simulation outcome* (everything except
/// [`scheduler_nanos`](Self::scheduler_nanos), which is wall-clock
/// measurement noise): two runs of the same scenario are `==` even if the
/// host was faster the second time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Name of the scheduler that produced the run.
    pub scheduler: String,
    /// Per-workflow outcomes, in submission (id) order.
    pub outcomes: Vec<WorkflowOutcome>,
    /// Time of the last processed event (the censoring instant for
    /// unfinished workflows).
    pub end_time: SimTime,
    /// Whether every workflow completed before the cutoff.
    pub completed: bool,
    /// Total busy slot-milliseconds by kind `[map, reduce]`.
    pub busy_slot_ms: [u128; 2],
    /// Total slots by kind `[map, reduce]`.
    pub total_slots: [u32; 2],
    /// Total tasks executed (including re-executions after failures).
    pub tasks_executed: u64,
    /// Failed task attempts that were re-executed (failure injection).
    pub task_failures: u64,
    /// Map tasks that ran on one of their preferred nodes (locality mode).
    pub local_map_tasks: u64,
    /// Map tasks that ran remotely, paying the locality penalty.
    pub remote_map_tasks: u64,
    /// Slot offers declined while waiting for a local slot (delay
    /// scheduling).
    pub delay_skips: u64,
    /// Wall-clock nanoseconds the master spent inside the scheduler's
    /// `assign_task` / `assign_batch` across the whole run — the paper's
    /// "overhead on the master node". An estimate: the driver stamps one
    /// decision in 61 and counts it 61 times (two clock reads cost more
    /// than the median decision), so a run of fewer than 61 decisions
    /// reports zero. Only calls the scheduler received are
    /// decisions: an offer the driver's idle runs elided (see
    /// [`assign_calls`](Self::assign_calls)) cost nothing and adds nothing
    /// here.
    pub scheduler_nanos: u64,
    /// Attempts that were injected as stragglers (speculation mode).
    pub stragglers: u64,
    /// Speculative duplicate attempts launched.
    pub speculative_launched: u64,
    /// Races won by the speculative duplicate.
    pub speculative_wins: u64,
    /// Slot offers answered, counted as per-slot `assign_task` probes: one
    /// per task started plus one per `(heartbeat, kind)` that left a slot
    /// free. A function of the schedule alone. It counts the offers the
    /// driver's idle runs answer themselves — a heartbeat with a free slot
    /// while no workflow has an eligible task of that kind, whose answer
    /// is known to be "nothing" — exactly like the ones the scheduler
    /// sees, so it is *not* the number of calls the scheduler received
    /// (only the per-beat path, which speculation, risk placement or a
    /// downed master selects, makes them all).
    pub assign_calls: u64,
    /// Slot offers forfeited because the scheduler returned an ineligible
    /// job (should be zero for a correct scheduler).
    pub invalid_assignments: u64,
    /// Events processed.
    pub events_processed: u64,
    /// Node crashes injected (fault mode).
    pub node_failures: u64,
    /// Node repairs that re-registered slots with the JobTracker.
    pub node_recoveries: u64,
    /// Nodes blacklisted after repeated crashes; they never rejoined.
    pub nodes_blacklisted: u64,
    /// Running attempts killed by a node loss and re-queued as pending.
    pub tasks_requeued: u64,
    /// Completed map outputs invalidated by a node loss and re-executed
    /// because reducers still needed them.
    pub map_outputs_lost: u64,
    /// Slot-milliseconds of work in progress that node crashes destroyed
    /// (time each killed attempt had already run).
    pub work_lost_slot_ms: u128,
    /// Per-workflow slot timelines, when tracking was enabled.
    pub timelines: Option<Timelines>,
    /// Master failover accounting; `None` (and omitted from serialized
    /// output) unless master faults were enabled.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recovery: Option<RecoveryReport>,
    /// Admission-gate accounting; `None` (and omitted from serialized
    /// output) unless an admission gate was supplied.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub admission: Option<AdmissionReport>,
    /// Failure-prediction accounting (propensity table, padding and
    /// risk-placement counters); `None` (and omitted from serialized
    /// output) unless failure prediction was enabled.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub prediction: Option<PredictionReport>,
    /// Data-plane accounting (rack topology, rack outages, survivor
    /// requeues, re-shuffle charges); `None` (and omitted from serialized
    /// output) unless any data-plane feature was enabled.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub data_plane: Option<DataPlaneReport>,
}

impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        self.scheduler == other.scheduler
            && self.outcomes == other.outcomes
            && self.end_time == other.end_time
            && self.completed == other.completed
            && self.busy_slot_ms == other.busy_slot_ms
            && self.total_slots == other.total_slots
            && self.tasks_executed == other.tasks_executed
            && self.task_failures == other.task_failures
            && self.local_map_tasks == other.local_map_tasks
            && self.remote_map_tasks == other.remote_map_tasks
            && self.delay_skips == other.delay_skips
            && self.stragglers == other.stragglers
            && self.speculative_launched == other.speculative_launched
            && self.speculative_wins == other.speculative_wins
            && self.assign_calls == other.assign_calls
            && self.invalid_assignments == other.invalid_assignments
            && self.events_processed == other.events_processed
            && self.node_failures == other.node_failures
            && self.node_recoveries == other.node_recoveries
            && self.nodes_blacklisted == other.nodes_blacklisted
            && self.tasks_requeued == other.tasks_requeued
            && self.map_outputs_lost == other.map_outputs_lost
            && self.work_lost_slot_ms == other.work_lost_slot_ms
            && self.timelines == other.timelines
            && self.recovery == other.recovery
            && self.admission == other.admission
            && self.prediction == other.prediction
            && self.data_plane == other.data_plane
    }
}

impl SimReport {
    /// Fraction of executed map tasks that ran node-local (locality mode;
    /// 0 when locality modelling is off).
    pub fn map_locality_ratio(&self) -> f64 {
        let total = self.local_map_tasks + self.remote_map_tasks;
        if total == 0 {
            return 0.0;
        }
        self.local_map_tasks as f64 / total as f64
    }

    /// Number of workflows that missed their deadline (unfinished counts
    /// as missed).
    pub fn deadline_misses(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.met_deadline()).count()
    }

    /// Fraction of workflows that missed their deadline (Fig 8's metric).
    pub fn miss_ratio(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.deadline_misses() as f64 / self.outcomes.len() as f64
    }

    /// The largest tardiness across workflows (Fig 9's metric).
    pub fn max_tardiness(&self) -> SimDuration {
        self.outcomes
            .iter()
            .map(|o| o.tardiness(self.end_time))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The sum of tardiness across workflows (Fig 10's metric).
    pub fn total_tardiness(&self) -> SimDuration {
        self.outcomes
            .iter()
            .map(|o| o.tardiness(self.end_time))
            .sum()
    }

    /// Workspans in submission order (Fig 11's metric).
    pub fn workspans(&self) -> Vec<SimDuration> {
        self.outcomes
            .iter()
            .map(|o| o.workspan(self.end_time))
            .collect()
    }

    /// Busy fraction of slots of `kind` over the interval from the first
    /// submission to the end of the run.
    pub fn utilization(&self, kind: SlotKind) -> f64 {
        let k = match kind {
            SlotKind::Map => 0,
            SlotKind::Reduce => 1,
        };
        let start = self
            .outcomes
            .iter()
            .map(|o| o.submitted)
            .min()
            .unwrap_or(SimTime::ZERO);
        let horizon_ms = self.end_time.saturating_since(start).as_millis();
        let capacity = u128::from(self.total_slots[k]) * u128::from(horizon_ms);
        if capacity == 0 {
            return 0.0;
        }
        self.busy_slot_ms[k] as f64 / capacity as f64
    }

    /// Busy fraction across both slot kinds (Fig 12's metric).
    pub fn overall_utilization(&self) -> f64 {
        let start = self
            .outcomes
            .iter()
            .map(|o| o.submitted)
            .min()
            .unwrap_or(SimTime::ZERO);
        let horizon_ms = u128::from(self.end_time.saturating_since(start).as_millis());
        let capacity = u128::from(self.total_slots[0] + self.total_slots[1]) * horizon_ms;
        if capacity == 0 {
            return 0.0;
        }
        (self.busy_slot_ms[0] + self.busy_slot_ms[1]) as f64 / capacity as f64
    }

    /// The outcome of the workflow with the given name.
    pub fn outcome_by_name(&self, name: &str) -> Option<&WorkflowOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }
}

/// A monotonically increasing counter, exported in Prometheus text format.
#[derive(Debug, Clone)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: u64,
}

impl Counter {
    fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: 0,
        }
    }

    /// Increments the counter by one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Increments the counter by `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Metric name (including the `woha_` prefix and `_total` suffix).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// An instantaneous value sampled over simulated time. The final value is
/// exported to Prometheus; the sampled series feeds the Chrome trace's
/// counter tracks.
#[derive(Debug, Clone)]
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    current: f64,
    samples: Vec<(SimTime, f64)>,
}

impl Gauge {
    fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            current: 0.0,
            samples: Vec::new(),
        }
    }

    /// Sets the current value.
    pub fn set(&mut self, value: f64) {
        self.current = value;
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.current
    }

    /// Records the current value as a sample at sim instant `at`. The
    /// driver calls this on a fixed sim-time grid.
    pub fn sample(&mut self, at: SimTime) {
        self.samples.push((at, self.current));
    }

    /// The sampled `(instant, value)` series, in sampling order.
    pub fn series(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Metric name (including the `woha_` prefix).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A fixed-bucket histogram in the Prometheus style: per-bucket counts, a
/// running sum, and a total count. `bounds` are inclusive upper bounds in
/// ascending order; an implicit `+Inf` bucket catches everything above the
/// last bound. Zero-duration (and even negative) observations are valid and
/// land in the first bucket whose bound contains them.
#[derive(Debug, Clone)]
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    bounds: &'static [f64],
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(name: &'static str, help: &'static str, bounds: &'static [f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Self {
            name,
            help,
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the `+Inf`
    /// overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Metric name (including the `woha_` prefix).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Upper bounds (seconds) for deadline-margin samples. Negative bounds
/// capture workflows already past their deadline.
const MARGIN_BOUNDS: &[f64] = &[
    -3600.0, -600.0, -300.0, -120.0, -60.0, -30.0, -10.0, 0.0, 10.0, 30.0, 60.0, 120.0, 300.0,
    600.0, 1800.0, 3600.0,
];

/// The simulator's metric registry: well-known counters, gauges, and
/// histograms covering the full scheduling decision loop. Created by the
/// driver when [`ObservabilityConfig::metrics`](crate::ObservabilityConfig)
/// is on, as a consumer of the driver's trace records: every counter but
/// the two service ones (which [`ServiceStats`](crate::ServiceStats)
/// exports) counts one [`TraceEvent`] kind. Gauges are sampled on the
/// observability grid so their series line up with the Chrome trace's
/// counter tracks.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    /// Heartbeats processed by the JobTracker.
    pub heartbeats: Counter,
    /// Task attempts started (including speculative duplicates).
    pub tasks_started: Counter,
    /// Task attempts that ran to completion.
    pub tasks_completed: Counter,
    /// Workflow plans generated (Algorithm 1 runs, including replans).
    pub plans_generated: Counter,
    /// Mid-flight replans triggered by lag.
    pub replans: Counter,
    /// ρ-rollbacks applied after task failures.
    pub rho_rollbacks: Counter,
    /// Master state checkpoints written.
    pub checkpoints: Counter,
    /// Write-ahead-log records replayed during master recovery.
    pub wal_replayed: Counter,
    /// Node crashes observed.
    pub node_failures: Counter,
    /// Workflow arrivals accepted into the service's arrival buffer.
    pub arrivals: Counter,
    /// Workflow arrivals shed by backpressure before reaching admission.
    pub arrivals_shed: Counter,
    /// Slot offers declined by risk-aware placement (deadline-critical
    /// attempt steered away from a failure-prone node).
    pub risk_averted: Counter,
    /// Preemptive speculative duplicates launched off failure-prone nodes.
    pub preemptive_speculations: Counter,
    /// Incomplete workflows, sampled over sim time.
    pub pending_workflows: Gauge,
    /// Eligible-but-unassigned tasks across incomplete workflows
    /// (the pending-queue depth), sampled over sim time.
    pub pending_tasks: Gauge,
    /// Tightest deadline margin (seconds) across incomplete workflows,
    /// sampled over sim time; 0 when no workflow is pending.
    pub min_deadline_margin_seconds: Gauge,
    /// Depth of the service's bounded arrival buffer.
    pub arrival_queue_depth: Gauge,
    /// Ingest lag (seconds): newest buffered submit time minus the oldest
    /// still-buffered submit time — how far the master trails the stream.
    pub arrival_lag_seconds: Gauge,
    /// Deadline margin (deadline − now, seconds) of every incomplete
    /// workflow, observed at each sample instant.
    pub deadline_margin_seconds: Histogram,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            heartbeats: Counter::new("woha_heartbeats_total", "Heartbeats processed."),
            tasks_started: Counter::new("woha_tasks_started_total", "Task attempts started."),
            tasks_completed: Counter::new("woha_tasks_completed_total", "Task attempts completed."),
            plans_generated: Counter::new(
                "woha_plans_generated_total",
                "Workflow plans generated (Algorithm 1 runs).",
            ),
            replans: Counter::new("woha_replans_total", "Mid-flight replans triggered by lag."),
            rho_rollbacks: Counter::new(
                "woha_rho_rollbacks_total",
                "Rho rollbacks applied after task failures.",
            ),
            checkpoints: Counter::new(
                "woha_checkpoints_total",
                "Master state checkpoints written.",
            ),
            wal_replayed: Counter::new(
                "woha_wal_records_replayed_total",
                "WAL records replayed during master recovery.",
            ),
            node_failures: Counter::new("woha_node_failures_total", "Node crashes observed."),
            arrivals: Counter::new(
                "woha_arrivals_total",
                "Workflow arrivals accepted into the arrival buffer.",
            ),
            arrivals_shed: Counter::new(
                "woha_arrivals_shed_total",
                "Workflow arrivals shed by backpressure.",
            ),
            risk_averted: Counter::new(
                "woha_risk_averted_total",
                "Slot offers declined by risk-aware placement.",
            ),
            preemptive_speculations: Counter::new(
                "woha_preemptive_speculations_total",
                "Preemptive speculative duplicates launched off failure-prone nodes.",
            ),
            pending_workflows: Gauge::new("woha_pending_workflows", "Incomplete workflows."),
            pending_tasks: Gauge::new(
                "woha_pending_tasks",
                "Eligible-but-unassigned tasks (pending-queue depth).",
            ),
            min_deadline_margin_seconds: Gauge::new(
                "woha_min_deadline_margin_seconds",
                "Tightest deadline margin across incomplete workflows.",
            ),
            arrival_queue_depth: Gauge::new(
                "woha_arrival_queue_depth",
                "Depth of the bounded arrival buffer.",
            ),
            arrival_lag_seconds: Gauge::new(
                "woha_arrival_lag_seconds",
                "Ingest lag between the stream head and the oldest buffered arrival.",
            ),
            deadline_margin_seconds: Histogram::new(
                "woha_deadline_margin_seconds",
                "Deadline margin of incomplete workflows at each sample instant.",
                MARGIN_BOUNDS,
            ),
        }
    }

    /// Folds one trace record into the counter it feeds.
    pub(crate) fn observe(&mut self, record: &TraceRecord) {
        match record.event {
            TraceEvent::Heartbeat { .. } => self.heartbeats.inc(),
            TraceEvent::TaskStart { .. } => self.tasks_started.inc(),
            TraceEvent::TaskComplete { .. } => self.tasks_completed.inc(),
            TraceEvent::PlanGenerated { .. } => self.plans_generated.inc(),
            TraceEvent::Replan { .. } => self.replans.inc(),
            TraceEvent::RhoRollback { .. } => self.rho_rollbacks.inc(),
            TraceEvent::CheckpointTaken { .. } => self.checkpoints.inc(),
            TraceEvent::WalReplayed { records, .. } => self.wal_replayed.add(records),
            TraceEvent::NodeDown { .. } => self.node_failures.inc(),
            TraceEvent::RiskAverted { .. } => self.risk_averted.inc(),
            TraceEvent::PreemptiveSpeculation { .. } => self.preemptive_speculations.inc(),
            _ => {}
        }
    }

    /// One gauge sample at grid instant `at`: pending-workflow and task
    /// depth and the tightest deadline margin across incomplete workflows,
    /// plus one deadline-margin observation per incomplete workflow.
    pub(crate) fn sample(&mut self, at: SimTime, pool: &WorkflowPool) {
        let mut wfs = 0u64;
        let mut tasks = 0u64;
        let mut min_margin = f64::INFINITY;
        for wf in pool.incomplete() {
            wfs += 1;
            let w = pool.workflow(wf);
            for job in w.active_jobs() {
                let j = w.job(job);
                tasks += u64::from(j.pending_maps()) + u64::from(j.pending_reduces());
            }
            let margin = (w.spec().deadline().as_millis() as f64 - at.as_millis() as f64) / 1000.0;
            self.deadline_margin_seconds.observe(margin);
            if margin < min_margin {
                min_margin = margin;
            }
        }
        self.pending_workflows.set(wfs as f64);
        self.pending_workflows.sample(at);
        self.pending_tasks.set(tasks as f64);
        self.pending_tasks.sample(at);
        if min_margin.is_finite() {
            self.min_deadline_margin_seconds.set(min_margin);
            self.min_deadline_margin_seconds.sample(at);
        }
    }

    /// All counters, in export order.
    pub fn counters(&self) -> [&Counter; 13] {
        [
            &self.heartbeats,
            &self.tasks_started,
            &self.tasks_completed,
            &self.plans_generated,
            &self.replans,
            &self.rho_rollbacks,
            &self.checkpoints,
            &self.wal_replayed,
            &self.node_failures,
            &self.arrivals,
            &self.arrivals_shed,
            &self.risk_averted,
            &self.preemptive_speculations,
        ]
    }

    /// All gauges, in export order.
    pub fn gauges(&self) -> [&Gauge; 5] {
        [
            &self.pending_workflows,
            &self.pending_tasks,
            &self.min_deadline_margin_seconds,
            &self.arrival_queue_depth,
            &self.arrival_lag_seconds,
        ]
    }

    /// All histograms, in export order.
    pub fn histograms(&self) -> [&Histogram; 1] {
        [&self.deadline_margin_seconds]
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` preambles, cumulative `_bucket{le=...}` lines
    /// with a `+Inf` bucket, `_sum`, and `_count`. Output order is fixed,
    /// so two identical runs render byte-identical text.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for c in self.counters() {
            out.push_str(&format!("# HELP {} {}\n", c.name, c.help));
            out.push_str(&format!("# TYPE {} counter\n", c.name));
            out.push_str(&format!("{} {}\n", c.name, c.value));
        }
        for g in self.gauges() {
            out.push_str(&format!("# HELP {} {}\n", g.name, g.help));
            out.push_str(&format!("# TYPE {} gauge\n", g.name));
            out.push_str(&format!("{} {}\n", g.name, fmt_f64(g.current)));
        }
        for h in self.histograms() {
            out.push_str(&format!("# HELP {} {}\n", h.name, h.help));
            out.push_str(&format!("# TYPE {} histogram\n", h.name));
            let mut cumulative = 0u64;
            for (i, &bound) in h.bounds.iter().enumerate() {
                cumulative += h.counts[i];
                out.push_str(&format!(
                    "{}_bucket{{le=\"{}\"}} {}\n",
                    h.name,
                    fmt_f64(bound),
                    cumulative
                ));
            }
            out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", h.name, h.count));
            out.push_str(&format!("{}_sum {}\n", h.name, fmt_f64(h.sum)));
            out.push_str(&format!("{}_count {}\n", h.name, h.count));
        }
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Deterministic float rendering for the exporters (Rust's shortest
/// round-trip formatting; no locale or precision surprises).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(
        name: &str,
        submit_s: u64,
        deadline_s: u64,
        finish_s: Option<u64>,
    ) -> WorkflowOutcome {
        WorkflowOutcome {
            id: WorkflowId::new(0),
            name: name.to_string(),
            submitted: SimTime::from_secs(submit_s),
            deadline: SimTime::from_secs(deadline_s),
            finished: finish_s.map(SimTime::from_secs),
        }
    }

    fn report(outcomes: Vec<WorkflowOutcome>) -> SimReport {
        SimReport {
            scheduler: "test".into(),
            outcomes,
            end_time: SimTime::from_secs(1_000),
            completed: true,
            busy_slot_ms: [500_000, 250_000],
            total_slots: [2, 1],
            tasks_executed: 0,
            task_failures: 0,
            local_map_tasks: 0,
            remote_map_tasks: 0,
            delay_skips: 0,
            scheduler_nanos: 0,
            stragglers: 0,
            speculative_launched: 0,
            speculative_wins: 0,
            assign_calls: 0,
            invalid_assignments: 0,
            events_processed: 0,
            node_failures: 0,
            node_recoveries: 0,
            nodes_blacklisted: 0,
            tasks_requeued: 0,
            map_outputs_lost: 0,
            work_lost_slot_ms: 0,
            timelines: None,
            recovery: None,
            admission: None,
            prediction: None,
            data_plane: None,
        }
    }

    #[test]
    fn outcome_metrics() {
        let met = outcome("a", 0, 100, Some(90));
        assert!(met.met_deadline());
        assert_eq!(met.workspan(SimTime::MAX), SimDuration::from_secs(90));
        assert_eq!(met.tardiness(SimTime::MAX), SimDuration::ZERO);

        let missed = outcome("b", 10, 100, Some(150));
        assert!(!missed.met_deadline());
        assert_eq!(missed.workspan(SimTime::MAX), SimDuration::from_secs(140));
        assert_eq!(missed.tardiness(SimTime::MAX), SimDuration::from_secs(50));

        let unfinished = outcome("c", 0, 100, None);
        assert!(!unfinished.met_deadline());
        let censor = SimTime::from_secs(500);
        assert_eq!(unfinished.workspan(censor), SimDuration::from_secs(500));
        assert_eq!(unfinished.tardiness(censor), SimDuration::from_secs(400));
    }

    #[test]
    fn report_aggregates() {
        let r = report(vec![
            outcome("a", 0, 100, Some(90)),
            outcome("b", 0, 100, Some(160)),
            outcome("c", 0, 100, None),
        ]);
        assert_eq!(r.deadline_misses(), 2);
        assert!((r.miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.max_tardiness(), SimDuration::from_secs(900));
        assert_eq!(r.total_tardiness(), SimDuration::from_secs(60 + 900));
        assert_eq!(r.workspans()[0], SimDuration::from_secs(90));
        assert!(r.outcome_by_name("b").is_some());
        assert!(r.outcome_by_name("zz").is_none());
    }

    #[test]
    fn utilization_math() {
        let r = report(vec![outcome("a", 0, 100, Some(90))]);
        // 2 map slots over 1000s = 2,000,000 slot-ms capacity; 500,000 busy.
        assert!((r.utilization(SlotKind::Map) - 0.25).abs() < 1e-12);
        assert!((r.utilization(SlotKind::Reduce) - 0.25).abs() < 1e-12);
        assert!((r.overall_utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = report(vec![]);
        assert_eq!(r.miss_ratio(), 0.0);
        assert_eq!(r.max_tardiness(), SimDuration::ZERO);
        assert_eq!(r.total_tardiness(), SimDuration::ZERO);
    }

    #[test]
    fn recovery_key_is_omitted_when_disabled() {
        let r = report(vec![outcome("a", 0, 100, Some(90))]);
        let v = r.to_value();
        let obj = v.as_object().unwrap();
        assert!(obj.iter().all(|(k, _)| k != "recovery"));
        // The last key stays `timelines`, as before master failover.
        assert_eq!(obj.last().unwrap().0, "timelines");
        let back = SimReport::from_value(&v).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.recovery, None);
    }

    #[test]
    fn recovery_report_roundtrips() {
        let mut r = report(vec![]);
        r.recovery = Some(RecoveryReport {
            master_crashes: 2,
            master_downtime_ms: 120_000,
            checkpoints_taken: 9,
            wal_records_replayed: 314,
            attempts_readopted: 40,
            attempts_requeued: 3,
            attempts_orphaned: 1,
            workflows_resubmitted: 1,
            jobs_resubmitted: 2,
        });
        let v = r.to_value();
        assert_eq!(v.as_object().unwrap().last().unwrap().0, "recovery");
        let back = SimReport::from_value(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn admission_report_roundtrips_and_is_omitted_when_absent() {
        let mut r = report(vec![]);
        let v = r.to_value();
        assert!(v.as_object().unwrap().iter().all(|(k, _)| k != "admission"));
        r.admission = Some(AdmissionReport {
            workflows_rejected: 3,
            rejections: vec![
                RejectCount {
                    reason: "aggregate_overload".to_string(),
                    count: 2,
                },
                RejectCount {
                    reason: "critical_path_exceeds_deadline".to_string(),
                    count: 1,
                },
            ],
        });
        let v = r.to_value();
        assert_eq!(v.as_object().unwrap().last().unwrap().0, "admission");
        let back = SimReport::from_value(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn prediction_report_roundtrips_and_is_omitted_when_absent() {
        let mut r = report(vec![]);
        let v = r.to_value();
        assert!(v
            .as_object()
            .unwrap()
            .iter()
            .all(|(k, _)| k != "prediction"));
        r.prediction = Some(PredictionReport {
            node_propensity: vec![0.0, 1.5, 0.25],
            plans_padded: 4,
            risk_averted_placements: 7,
            preemptive_speculations: 2,
            adaptive_blacklists: 1,
        });
        let v = r.to_value();
        assert_eq!(v.as_object().unwrap().last().unwrap().0, "prediction");
        let back = SimReport::from_value(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn timeline_recorder_samples_steps() {
        let mut rec = TimelineRecorder::default();
        let wf = WorkflowId::new(0);
        // Occupy 2 map slots from t=5s to t=25s, 1 until t=35s.
        rec.record(SimTime::from_secs(5), wf, SlotKind::Map, 1);
        rec.record(SimTime::from_secs(5), wf, SlotKind::Map, 1);
        rec.record(SimTime::from_secs(25), wf, SlotKind::Map, -1);
        rec.record(SimTime::from_secs(35), wf, SlotKind::Map, -1);
        let tl = rec.finish(1, SimTime::from_secs(40), SimDuration::from_secs(10));
        assert_eq!(tl.sample_count(), 5);
        assert_eq!(tl.series(wf, SlotKind::Map), &[0, 2, 2, 1, 0]);
        assert_eq!(tl.series(wf, SlotKind::Reduce), &[0, 0, 0, 0, 0]);
        assert_eq!(tl.workflow_count(), 1);
        assert_eq!(tl.interval(), SimDuration::from_secs(10));
        assert_eq!(tl.down_slots(), &[0, 0, 0, 0, 0]);
    }

    #[test]
    fn timeline_tracks_offline_slots() {
        let mut rec = TimelineRecorder::default();
        // 3 slots offline from t=10s, back at t=30s.
        rec.record_down(SimTime::from_secs(10), 3);
        rec.record_down(SimTime::from_secs(30), -3);
        let tl = rec.finish(0, SimTime::from_secs(40), SimDuration::from_secs(10));
        assert_eq!(tl.down_slots(), &[0, 3, 3, 0, 0]);
    }

    #[test]
    fn timeline_out_of_order_deltas_are_sorted() {
        let mut rec = TimelineRecorder::default();
        let wf = WorkflowId::new(0);
        rec.record(SimTime::from_secs(20), wf, SlotKind::Reduce, -1);
        rec.record(SimTime::from_secs(10), wf, SlotKind::Reduce, 1);
        let tl = rec.finish(1, SimTime::from_secs(30), SimDuration::from_secs(10));
        assert_eq!(tl.series(wf, SlotKind::Reduce), &[0, 1, 0, 0]);
    }

    /// A delta landing exactly on the cutoff instant (the final sample,
    /// `horizon` itself when it is a grid multiple) is included in that
    /// sample — the grid applies deltas with `time <= sample instant`.
    #[test]
    fn timeline_sample_at_exact_cutoff_instant() {
        let mut rec = TimelineRecorder::default();
        let wf = WorkflowId::new(0);
        rec.record(SimTime::from_secs(0), wf, SlotKind::Map, 1);
        // Released exactly at the horizon: the last sample must see it.
        rec.record(SimTime::from_secs(40), wf, SlotKind::Map, -1);
        rec.record_down(SimTime::from_secs(40), 2);
        let tl = rec.finish(1, SimTime::from_secs(40), SimDuration::from_secs(10));
        assert_eq!(tl.sample_count(), 5);
        assert_eq!(tl.series(wf, SlotKind::Map), &[1, 1, 1, 1, 0]);
        assert_eq!(tl.down_slots(), &[0, 0, 0, 0, 2]);

        // A horizon that is not a grid multiple truncates to the last grid
        // instant at or before it; deltas beyond that never surface.
        let mut rec = TimelineRecorder::default();
        rec.record(SimTime::from_secs(0), wf, SlotKind::Map, 1);
        rec.record(SimTime::from_secs(44), wf, SlotKind::Map, -1);
        let tl = rec.finish(1, SimTime::from_secs(45), SimDuration::from_secs(10));
        assert_eq!(tl.sample_count(), 5);
        assert_eq!(tl.series(wf, SlotKind::Map), &[1, 1, 1, 1, 1]);
    }

    /// Zero-duration observations are valid histogram input: they count,
    /// fall in the first bucket whose bound admits zero, and leave the sum
    /// untouched.
    #[test]
    fn histogram_zero_duration_observations() {
        let mut h = Histogram::new("woha_test", "Positive bounds.", &[1.0, 2.0, 4.0]);
        h.observe(0.0);
        h.observe(0.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.0);
        // All bounds are positive, so zero lands in the very first bucket,
        // not the +Inf overflow.
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(*h.bucket_counts().last().unwrap(), 0);

        // Margin buckets include negative bounds: zero lands exactly in
        // the `le="0"` bucket, and a negative margin below the first one.
        let mut m = MetricsRegistry::new().deadline_margin_seconds;
        m.observe(0.0);
        m.observe(-7200.0);
        let zero_idx = m.bounds().iter().position(|&b| b == 0.0).unwrap();
        assert_eq!(m.bucket_counts()[zero_idx], 1);
        assert_eq!(m.bucket_counts()[0], 1);
        assert_eq!(m.count(), 2);
    }

    /// Utilization with a zero slot kind: zero capacity must divide to
    /// exactly 0.0, not NaN, and must not poison the other kind or the
    /// overall figure.
    #[test]
    fn utilization_with_zero_slot_kind() {
        let mut r = report(vec![outcome("a", 0, 100, Some(90))]);
        r.total_slots = [2, 0];
        r.busy_slot_ms = [500_000, 0];
        assert!((r.utilization(SlotKind::Map) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(SlotKind::Reduce), 0.0);
        assert!(r.utilization(SlotKind::Reduce).is_finite());
        // Overall capacity is the slot-kind sum: 2 slots over 1000 s.
        assert!((r.overall_utilization() - 0.25).abs() < 1e-12);

        // Both kinds zero: everything degrades to 0.0.
        r.total_slots = [0, 0];
        assert_eq!(r.utilization(SlotKind::Map), 0.0);
        assert_eq!(r.overall_utilization(), 0.0);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let mut reg = MetricsRegistry::new();
        reg.heartbeats.inc();
        reg.heartbeats.add(4);
        assert_eq!(reg.heartbeats.value(), 5);
        reg.pending_tasks.set(12.0);
        reg.pending_tasks.sample(SimTime::from_secs(10));
        reg.pending_tasks.set(3.0);
        reg.pending_tasks.sample(SimTime::from_secs(20));
        assert_eq!(
            reg.pending_tasks.series(),
            &[
                (SimTime::from_secs(10), 12.0),
                (SimTime::from_secs(20), 3.0)
            ]
        );
        assert_eq!(reg.pending_tasks.value(), 3.0);
    }

    #[test]
    fn prometheus_text_shape() {
        let mut reg = MetricsRegistry::new();
        reg.heartbeats.add(7);
        reg.deadline_margin_seconds.observe(5.0);
        reg.deadline_margin_seconds.observe(7200.0); // beyond the last bound
        let text = reg.prometheus_text();
        assert!(text.contains("# HELP woha_heartbeats_total Heartbeats processed.\n"));
        assert!(text.contains("# TYPE woha_heartbeats_total counter\n"));
        assert!(text.contains("woha_heartbeats_total 7\n"));
        assert!(text.contains("# TYPE woha_pending_workflows gauge\n"));
        assert!(text.contains("# TYPE woha_deadline_margin_seconds histogram\n"));
        // Buckets are cumulative, with bare `{le=...}` selectors.
        assert!(text.contains("woha_deadline_margin_seconds_bucket{le=\"0\"} 0\n"));
        assert!(text.contains("woha_deadline_margin_seconds_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("woha_deadline_margin_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("woha_deadline_margin_seconds_sum 7205\n"));
        assert!(text.contains("woha_deadline_margin_seconds_count 2\n"));
        // Every non-comment line is `name{...} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("metric line");
            assert!(!name.is_empty(), "{line}");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }
}
