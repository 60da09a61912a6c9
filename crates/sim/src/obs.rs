//! Structured observability: a zero-cost-when-off trace bus over the full
//! scheduling decision loop, plus exporters for the collected data.
//!
//! The `SimReport` aggregates answer *what* happened; this module records
//! *why*. The driver reports each decision-loop step as one
//! [`TraceRecord`] — heartbeat arrival, assignment outcome, plan
//! generation, ρ-rollback/replan, fault and blacklist events, checkpoint
//! writes, and WAL replay spans — and that record is
//! the only way it reports anything. One observer fans each record out to
//! the consumers [`ObservabilityConfig`] turns on: a caller-supplied
//! [`TraceSink`], the [`MetricsRegistry`] (whose counters count records),
//! and the recorder of the Figs 14–19 slot timelines (which folds task
//! starts, completions and kills, and node outages). With every consumer
//! off (the default), the only cost on the hot path is a `None` check, and
//! reports are byte-identical to pre-observability output (proven by the
//! E2E tests).
//!
//! Two exporters turn the collected data into standard tooling formats:
//!
//! - [`Observations::chrome_trace_json`] renders Chrome trace-event JSON
//!   loadable in Perfetto (<https://ui.perfetto.dev>), with one track per
//!   cluster node, a scheduler-decisions track, and counter tracks from
//!   the sampled gauges; every timestamp is simulated time, so the file is
//!   deterministic across runs.
//! - [`Observations::prometheus_text`] renders the [`MetricsRegistry`]
//!   in the Prometheus text exposition format.

use crate::cluster::ClusterConfig;
use crate::metrics::{MetricsRegistry, TimelineRecorder, Timelines};
use crate::state::WorkflowPool;
use serde::Value;
use woha_model::{SimDuration, SimTime, SlotKind, WorkflowId};

/// Which observability subsystems a run records. Everything is off by
/// default, which keeps the simulation output byte-identical to builds
/// that predate this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObservabilityConfig {
    /// Emit structured [`TraceRecord`]s for the decision loop.
    pub trace: bool,
    /// Maintain the [`MetricsRegistry`] (counters and histograms folded
    /// from the trace records, and gauges sampled on the observability
    /// grid).
    pub metrics: bool,
    /// Record per-workflow slot timelines (Figs 14–19). Costs memory
    /// proportional to task count.
    pub timelines: bool,
    /// Sampling interval for gauges and timelines; `None` means 10 s.
    /// Must be positive when set.
    pub sample_interval: Option<SimDuration>,
}

/// The sampling interval used when [`ObservabilityConfig::sample_interval`]
/// is unset.
const DEFAULT_SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(10);

impl ObservabilityConfig {
    /// Whether any subsystem that hooks the driver's event loop is on.
    pub fn enabled(&self) -> bool {
        self.trace || self.metrics || self.timelines
    }
}

/// One structured observation: what happened, and when in simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated instant of the event.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

/// A step of the scheduling decision loop.
///
/// Node-scoped variants carry the node's index in the cluster config;
/// scheduler-scoped variants land on the scheduler-decisions track of the
/// Chrome trace export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A TaskTracker heartbeat reached the JobTracker.
    Heartbeat {
        /// Reporting node.
        node: usize,
        /// Free map slots advertised.
        free_maps: u32,
        /// Free reduce slots advertised.
        free_reduces: u32,
    },
    /// The scheduler assigned a task to a slot offer.
    Assign {
        /// Offering node.
        node: usize,
        /// Slot kind offered.
        kind: SlotKind,
        /// Chosen workflow.
        workflow: WorkflowId,
        /// Chosen job (index within the workflow).
        job: usize,
    },
    /// Detail of one scheduler pick, drained from the scheduler itself
    /// (WOHA emits these; fifo-style schedulers do not).
    SchedulerPick {
        /// Chosen workflow.
        workflow: WorkflowId,
        /// 1-based rank of the chosen workflow in the priority-index
        /// descent — 1 means the LPF head was schedulable directly.
        rank: u32,
        /// Entries ahead of the pick in this batch's walk (`rank - 1`; 0
        /// on a per-slot pick).
        blocked: u32,
        /// Priority-index label of the scheduler (WOHA's Double Skip
        /// List answers `"dsl"`).
        backend: &'static str,
    },
    /// A workflow plan was generated (Algorithm 1).
    PlanGenerated {
        /// Planned workflow.
        workflow: WorkflowId,
        /// Jobs in the plan.
        jobs: usize,
    },
    /// A lagging workflow was replanned mid-flight.
    Replan {
        /// Replanned workflow.
        workflow: WorkflowId,
    },
    /// A task failure rolled the workflow's progress counter ρ back.
    RhoRollback {
        /// Affected workflow.
        workflow: WorkflowId,
    },
    /// A task attempt started executing.
    TaskStart {
        /// Executing node.
        node: usize,
        /// Owning workflow.
        workflow: WorkflowId,
        /// Owning job.
        job: usize,
        /// Task kind.
        kind: SlotKind,
        /// Whether this is a speculative duplicate attempt.
        speculative: bool,
    },
    /// A task attempt ran to completion.
    TaskComplete {
        /// Executing node.
        node: usize,
        /// Owning workflow.
        workflow: WorkflowId,
        /// Owning job.
        job: usize,
        /// Task kind.
        kind: SlotKind,
    },
    /// A running attempt was killed (lost speculation race or node loss).
    TaskKilled {
        /// Executing node.
        node: usize,
        /// Owning workflow.
        workflow: WorkflowId,
        /// Owning job.
        job: usize,
        /// Task kind.
        kind: SlotKind,
    },
    /// A node crashed and its slots left the pool.
    NodeDown {
        /// Crashed node.
        node: usize,
        /// The node's rack (0 on a flat cluster).
        rack: u32,
    },
    /// A repaired node re-registered with the JobTracker.
    NodeUp {
        /// Recovered node.
        node: usize,
        /// The node's rack (0 on a flat cluster).
        rack: u32,
    },
    /// A node exceeded the crash threshold and was blacklisted for good.
    NodeBlacklisted {
        /// Blacklisted node.
        node: usize,
        /// The node's rack (0 on a flat cluster).
        rack: u32,
    },
    /// A reduce launch paid the re-shuffle cost for map outputs lost to a
    /// node failure (see [`SimConfig::reshuffle_cost`](crate::SimConfig)).
    ReshuffleCharged {
        /// Owning workflow.
        workflow: WorkflowId,
        /// Owning job.
        job: usize,
        /// Lost map outputs the launch paid for.
        lost: u64,
        /// Extra duration charged, in milliseconds.
        charged_ms: u64,
    },
    /// The master wrote a full state checkpoint.
    CheckpointTaken {
        /// WAL records superseded by (folded into) this checkpoint.
        wal_records: u64,
    },
    /// The admission gate rejected a workflow at the driver's front door.
    /// The workflow never enters the pool and produces no outcome.
    AdmissionReject {
        /// Name of the rejected workflow spec.
        workflow: String,
        /// Stable rejection-reason label produced by the gate in use.
        reason: String,
    },
    /// Risk-aware placement declined a slot offer: the node's failure
    /// propensity was over threshold and the workflow deadline-critical,
    /// so the task waits for a safer node.
    RiskAverted {
        /// Declined (failure-prone) node.
        node: usize,
        /// Deadline-critical workflow steered away.
        workflow: WorkflowId,
    },
    /// Risk-aware placement launched a duplicate of an attempt running on
    /// a repeat-offender node before that node could die under it. The
    /// duplicate's own [`TraceEvent::TaskStart`] follows.
    PreemptiveSpeculation {
        /// Failure-prone node the original attempt runs on.
        node: usize,
        /// Owning workflow.
        workflow: WorkflowId,
    },
    /// The master (JobTracker) crashed.
    MasterCrashed,
    /// The restarted master finished replaying its write-ahead log. The
    /// record is emitted at the recovery instant; `outage` stretches the
    /// replay span back to the crash.
    WalReplayed {
        /// WAL records replayed.
        records: u64,
        /// Master downtime covered by this recovery.
        outage: SimDuration,
    },
}

/// Receives trace records as the simulation emits them.
///
/// The driver calls [`record`](Self::record) synchronously from the event
/// loop, so implementations should be cheap (push to a buffer); rendering
/// belongs after the run. [`MemorySink`] is the standard implementation.
pub trait TraceSink {
    /// Consumes one record.
    fn record(&mut self, record: TraceRecord);
}

/// A [`TraceSink`] that buffers every record in memory.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Vec<TraceRecord>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The records collected so far, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the sink, returning its records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, record: TraceRecord) {
        self.records.push(record);
    }
}

/// A [`TraceSink`] that renders each record as one line of JSON and writes
/// it to the underlying writer immediately — the streaming counterpart of
/// buffering into [`MemorySink`] and rendering afterwards. Peak memory is
/// one line regardless of trace length; the output is byte-identical to
/// [`Observations::trace_jsonl`] over the same records.
///
/// Write errors are sticky: the first one is retained (see
/// [`error`](Self::error)) and later records are dropped.
#[derive(Debug)]
pub struct JsonlTraceSink<W: std::io::Write> {
    writer: W,
    error: Option<String>,
}

impl<W: std::io::Write> JsonlTraceSink<W> {
    /// Wraps a writer. Callers that care about throughput should pass a
    /// buffered writer; every record still reaches it eagerly.
    pub fn new(writer: W) -> Self {
        JsonlTraceSink {
            writer,
            error: None,
        }
    }

    /// The first write error encountered, if any.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Flushes and returns the underlying writer, plus the sticky error if
    /// one occurred.
    ///
    /// # Errors
    ///
    /// Returns the first write/flush error encountered.
    pub fn finish(mut self) -> Result<W, String> {
        if let Err(e) = self.writer.flush() {
            self.error.get_or_insert_with(|| e.to_string());
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.writer),
        }
    }
}

impl<W: std::io::Write> TraceSink for JsonlTraceSink<W> {
    fn record(&mut self, record: TraceRecord) {
        if self.error.is_some() {
            return;
        }
        let line = jsonl_line(&record);
        if let Err(e) = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
        {
            self.error = Some(e.to_string());
        }
    }
}

/// Renders one trace record as a single compact JSON line:
/// `{"at_ms": <time>, "event": "<kind>", ...fields}`. Field order is the
/// variant's declaration order, so rendering is deterministic and a
/// buffered trace renders byte-identically to a streamed one.
pub fn jsonl_line(record: &TraceRecord) -> String {
    let (kind, fields) = record.event.fields();
    let mut obj = vec![
        ("at_ms".to_string(), num(record.at.as_millis())),
        ("event".to_string(), text(kind)),
    ];
    obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    serde_json::to_string(&Value::Object(obj)).expect("trace line renders")
}

impl TraceEvent {
    /// The record's one schema: its kind label and its fields in
    /// declaration order. The JSONL line is exactly these, and every
    /// Chrome instant is named and filled from them.
    fn fields(&self) -> (&'static str, Vec<(&'static str, Value)>) {
        let idx = |i: &usize| num(*i as u64);
        match self {
            TraceEvent::Heartbeat {
                node,
                free_maps,
                free_reduces,
            } => (
                "heartbeat",
                vec![
                    ("node", idx(node)),
                    ("free_maps", num(*free_maps)),
                    ("free_reduces", num(*free_reduces)),
                ],
            ),
            TraceEvent::Assign {
                node,
                kind,
                workflow,
                job,
            } => (
                "assign",
                vec![
                    ("node", idx(node)),
                    ("kind", text(kind)),
                    ("workflow", num(workflow.as_u64())),
                    ("job", idx(job)),
                ],
            ),
            TraceEvent::SchedulerPick {
                workflow,
                rank,
                blocked,
                backend,
            } => (
                "scheduler_pick",
                vec![
                    ("workflow", num(workflow.as_u64())),
                    ("rank", num(*rank)),
                    ("blocked", num(*blocked)),
                    ("backend", text(backend)),
                ],
            ),
            TraceEvent::PlanGenerated { workflow, jobs } => (
                "plan_generated",
                vec![("workflow", num(workflow.as_u64())), ("jobs", idx(jobs))],
            ),
            TraceEvent::Replan { workflow } => {
                ("replan", vec![("workflow", num(workflow.as_u64()))])
            }
            TraceEvent::RhoRollback { workflow } => {
                ("rho_rollback", vec![("workflow", num(workflow.as_u64()))])
            }
            TraceEvent::TaskStart {
                node,
                workflow,
                job,
                kind,
                speculative,
            } => (
                "task_start",
                vec![
                    ("node", idx(node)),
                    ("workflow", num(workflow.as_u64())),
                    ("job", idx(job)),
                    ("kind", text(kind)),
                    ("speculative", Value::Bool(*speculative)),
                ],
            ),
            TraceEvent::TaskComplete {
                node,
                workflow,
                job,
                kind,
            }
            | TraceEvent::TaskKilled {
                node,
                workflow,
                job,
                kind,
            } => (
                if matches!(self, TraceEvent::TaskKilled { .. }) {
                    "task_killed"
                } else {
                    "task_complete"
                },
                vec![
                    ("node", idx(node)),
                    ("workflow", num(workflow.as_u64())),
                    ("job", idx(job)),
                    ("kind", text(kind)),
                ],
            ),
            TraceEvent::NodeDown { node, rack } => {
                ("node_down", vec![("node", idx(node)), ("rack", num(*rack))])
            }
            TraceEvent::NodeUp { node, rack } => {
                ("node_up", vec![("node", idx(node)), ("rack", num(*rack))])
            }
            TraceEvent::NodeBlacklisted { node, rack } => (
                "node_blacklisted",
                vec![("node", idx(node)), ("rack", num(*rack))],
            ),
            TraceEvent::ReshuffleCharged {
                workflow,
                job,
                lost,
                charged_ms,
            } => (
                "reshuffle_charged",
                vec![
                    ("workflow", num(workflow.as_u64())),
                    ("job", idx(job)),
                    ("lost", num(*lost)),
                    ("charged_ms", num(*charged_ms)),
                ],
            ),
            TraceEvent::CheckpointTaken { wal_records } => {
                ("checkpoint_taken", vec![("wal_records", num(*wal_records))])
            }
            TraceEvent::AdmissionReject { workflow, reason } => (
                "admission_reject",
                vec![("workflow", text(workflow)), ("reason", text(reason))],
            ),
            TraceEvent::RiskAverted { node, workflow } => (
                "risk_averted",
                vec![("node", idx(node)), ("workflow", num(workflow.as_u64()))],
            ),
            TraceEvent::PreemptiveSpeculation { node, workflow } => (
                "preemptive_speculation",
                vec![("node", idx(node)), ("workflow", num(workflow.as_u64()))],
            ),
            TraceEvent::MasterCrashed => ("master_crashed", vec![]),
            TraceEvent::WalReplayed { records, outage } => (
                "wal_replayed",
                vec![
                    ("records", num(*records)),
                    ("outage_ms", num(outage.as_millis())),
                ],
            ),
        }
    }
}

fn num(v: impl Into<u64>) -> Value {
    Value::U64(v.into())
}

fn text(v: impl ToString) -> Value {
    Value::Str(v.to_string())
}

/// The driver's one observer: every [`TraceRecord`] the driver emits goes
/// through [`record`](Self::record), which fans it out to the consumers
/// that are on — the caller's [`TraceSink`], the [`MetricsRegistry`]
/// (which folds its counters from the records), and the timeline recorder
/// behind Figs 14–19. The gauges are the one thing no record carries: the
/// registry reads them off the pool at the grid instants
/// [`sample_until`](Self::sample_until) walks.
pub(crate) struct Observer<'a> {
    sink: Option<&'a mut dyn TraceSink>,
    metrics: Option<MetricsRegistry>,
    timelines: Option<TimelineRecorder>,
    /// Gauge- and timeline-sampling interval.
    interval: SimDuration,
    /// Next gauge-sampling grid instant.
    next_sample: SimTime,
}

impl<'a> Observer<'a> {
    /// The observer of a run with `sink` and the consumers `config` turns
    /// on, or `None` when nothing would listen.
    pub(crate) fn new(
        sink: Option<&'a mut dyn TraceSink>,
        config: &ObservabilityConfig,
        cluster: &ClusterConfig,
    ) -> Option<Self> {
        let metrics = config.metrics.then(MetricsRegistry::new);
        let timelines = config.timelines.then(|| TimelineRecorder::new(cluster));
        (sink.is_some() || metrics.is_some() || timelines.is_some()).then(|| Observer {
            sink,
            metrics,
            timelines,
            interval: config.sample_interval.unwrap_or(DEFAULT_SAMPLE_INTERVAL),
            next_sample: SimTime::ZERO,
        })
    }

    /// Hands one record to every consumer.
    pub(crate) fn record(&mut self, record: TraceRecord) {
        if let Some(m) = &mut self.metrics {
            m.observe(&record);
        }
        if let Some(t) = &mut self.timelines {
            t.observe(&record);
        }
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(record);
        }
    }

    /// Samples the gauges at every grid instant strictly before `t` (the
    /// state between events is constant, so a grid instant inherits the
    /// state left by the last event before it). Instants exactly at `t`
    /// are sampled once the *next* event arrives — or by the final flush
    /// in [`finish`](Self::finish), which passes `inclusive` — so a sample
    /// at an event's instant observes that event, matching the timeline
    /// recorder's cutoff semantics.
    pub(crate) fn sample_until(&mut self, t: SimTime, inclusive: bool, pool: &WorkflowPool) {
        let Some(m) = &mut self.metrics else {
            return;
        };
        while self.next_sample < t || (inclusive && self.next_sample == t) {
            m.sample(self.next_sample, pool);
            self.next_sample = self.next_sample.saturating_add(self.interval);
        }
    }

    /// Ends a run that stopped at `horizon` with `pool`: the registry,
    /// sampled through `horizon`, and the timelines resolved onto the
    /// sampling grid.
    pub(crate) fn finish(
        mut self,
        pool: &WorkflowPool,
        horizon: SimTime,
    ) -> (Option<MetricsRegistry>, Option<Timelines>) {
        self.sample_until(horizon, true, pool);
        let timelines = self
            .timelines
            .map(|t| t.finish(pool.len(), horizon, self.interval));
        (self.metrics, timelines)
    }
}

/// Everything a run observed beyond its [`SimReport`](crate::SimReport):
/// the trace, the metrics registry, and enough cluster shape to render
/// per-node tracks.
#[derive(Debug, Default)]
pub struct Observations {
    /// Structured decision-loop records in emission order; empty when
    /// tracing was off.
    pub trace: Vec<TraceRecord>,
    /// The metrics registry; `None` when metrics were off.
    pub metrics: Option<MetricsRegistry>,
    /// Number of cluster nodes (per-node Chrome trace tracks).
    pub node_count: usize,
}

impl Observations {
    /// Renders the Prometheus text exposition of the metrics registry, or
    /// `None` when metrics were off.
    pub fn prometheus_text(&self) -> Option<String> {
        self.metrics.as_ref().map(|m| m.prometheus_text())
    }

    /// Renders the buffered trace as JSON Lines, one record per line —
    /// byte-identical to what a [`JsonlTraceSink`] would have written
    /// incrementally over the same records.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.trace {
            out.push_str(&jsonl_line(rec));
            out.push('\n');
        }
        out
    }

    /// Renders the trace (plus sampled gauge series) as Chrome trace-event
    /// JSON: `{"traceEvents": [...]}` with complete (`ph:"X"`) spans for
    /// task attempts on one track per node and for WAL replay on the
    /// scheduler track (`tid` 0), one instant (`ph:"i"`) per other record,
    /// named and filled from its JSONL fields, and counter (`ph:"C"`)
    /// events from the gauge series. Load the file at
    /// <https://ui.perfetto.dev> or `chrome://tracing`.
    ///
    /// All timestamps are simulated microseconds, so the output is
    /// byte-identical across identical seeded runs.
    pub fn chrome_trace_json(&self) -> String {
        let mut events: Vec<Value> = Vec::new();
        thread_meta(&mut events, SCHED_TID, "scheduler decisions");
        for node in 0..self.node_count {
            thread_meta(&mut events, node_tid(node), &format!("node-{node}"));
        }

        // FIFO-pair task starts with their completion/kill so each attempt
        // becomes one complete span. Keyed by (node, workflow, job, kind);
        // concurrent same-task attempts on one node pair in start order.
        let mut open: Vec<(TaskKey, u64, bool)> = Vec::new();
        let horizon_us = self.trace.last().map_or(0, |r| us(r.at));
        for rec in &self.trace {
            let ts = us(rec.at);
            match &rec.event {
                TraceEvent::TaskStart {
                    node,
                    workflow,
                    job,
                    kind,
                    speculative,
                } => open.push((
                    TaskKey {
                        node: *node,
                        workflow: *workflow,
                        job: *job,
                        kind: *kind,
                    },
                    ts,
                    *speculative,
                )),
                TraceEvent::TaskComplete {
                    node,
                    workflow,
                    job,
                    kind,
                }
                | TraceEvent::TaskKilled {
                    node,
                    workflow,
                    job,
                    kind,
                } => {
                    let key = TaskKey {
                        node: *node,
                        workflow: *workflow,
                        job: *job,
                        kind: *kind,
                    };
                    let killed = matches!(rec.event, TraceEvent::TaskKilled { .. });
                    if let Some(pos) = open.iter().position(|(k, ..)| *k == key) {
                        let (key, start, speculative) = open.remove(pos);
                        events.push(task_span(&key, start, ts, speculative, killed));
                    }
                }
                TraceEvent::WalReplayed { records, outage } => {
                    let dur = outage.as_millis() * 1000;
                    events.push(span(
                        "wal_replay",
                        "master",
                        ts.saturating_sub(dur),
                        dur,
                        SCHED_TID,
                        vec![("records", num(*records))],
                    ));
                }
                event => events.push(record_instant(event, ts)),
            }
        }
        // Attempts still running at the end of the trace render as spans
        // truncated at the last recorded instant.
        for (key, start, speculative) in open {
            events.push(task_span(
                &key,
                start,
                horizon_us.max(start),
                speculative,
                false,
            ));
        }

        // Counter tracks from the sampled gauge series.
        if let Some(metrics) = &self.metrics {
            for gauge in metrics.gauges() {
                for &(at, value) in gauge.series() {
                    events.push(Value::Object(vec![
                        ("name".into(), Value::Str(gauge.name().to_string())),
                        ("ph".into(), Value::Str("C".to_string())),
                        ("pid".into(), Value::U64(PID)),
                        ("tid".into(), Value::U64(SCHED_TID)),
                        ("ts".into(), Value::U64(us(at))),
                        (
                            "args".into(),
                            Value::Object(vec![("value".into(), Value::F64(value))]),
                        ),
                    ]));
                }
            }
        }

        let root = Value::Object(vec![("traceEvents".into(), Value::Array(events))]);
        serde_json::to_string(&root).expect("trace value renders")
    }
}

/// Process id used for every trace event.
const PID: u64 = 1;
/// Thread id of the scheduler-decisions track.
const SCHED_TID: u64 = 0;

fn node_tid(node: usize) -> u64 {
    node as u64 + 1
}

fn us(at: SimTime) -> u64 {
    at.as_millis() * 1000
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaskKey {
    node: usize,
    workflow: WorkflowId,
    job: usize,
    kind: SlotKind,
}

fn thread_meta(events: &mut Vec<Value>, tid: u64, name: &str) {
    events.push(Value::Object(vec![
        ("name".into(), Value::Str("thread_name".to_string())),
        ("ph".into(), Value::Str("M".to_string())),
        ("pid".into(), Value::U64(PID)),
        ("tid".into(), Value::U64(tid)),
        (
            "args".into(),
            Value::Object(vec![("name".into(), Value::Str(name.to_string()))]),
        ),
    ]));
}

/// A record rendered as one Chrome instant: named by its JSONL kind, on
/// its node's track when it names a node (the scheduler track otherwise),
/// with its other fields as args.
fn record_instant(event: &TraceEvent, ts: u64) -> Value {
    let (kind, mut args) = event.fields();
    let mut tid = SCHED_TID;
    if let Some(pos) = args.iter().position(|(k, _)| *k == "node") {
        let node = args.remove(pos).1.as_u128().expect("node index");
        tid = node_tid(node as usize);
    }
    let cat = match kind {
        "heartbeat" => "heartbeat",
        "node_down" | "node_up" | "node_blacklisted" | "reshuffle_charged" => "fault",
        "checkpoint_taken" | "master_crashed" => "master",
        "admission_reject" => "admission",
        _ => "scheduler",
    };
    let mut obj = vec![
        ("name".into(), text(kind)),
        ("cat".into(), text(cat)),
        ("ph".into(), text("i")),
        ("s".into(), text("t")),
        ("pid".into(), num(PID)),
        ("tid".into(), num(tid)),
        ("ts".into(), num(ts)),
    ];
    if !args.is_empty() {
        obj.push(("args".into(), args_obj(args)));
    }
    Value::Object(obj)
}

fn span(name: &str, cat: &str, ts: u64, dur: u64, tid: u64, args: Vec<(&str, Value)>) -> Value {
    let mut obj = vec![
        ("name".into(), Value::Str(name.to_string())),
        ("cat".into(), Value::Str(cat.to_string())),
        ("ph".into(), Value::Str("X".to_string())),
        ("pid".into(), Value::U64(PID)),
        ("tid".into(), Value::U64(tid)),
        ("ts".into(), Value::U64(ts)),
        ("dur".into(), Value::U64(dur)),
    ];
    if !args.is_empty() {
        obj.push(("args".into(), args_obj(args)));
    }
    Value::Object(obj)
}

fn task_span(key: &TaskKey, start: u64, end: u64, speculative: bool, killed: bool) -> Value {
    let name = format!("w{}/j{} {}", key.workflow.as_u64(), key.job, key.kind);
    span(
        &name,
        "task",
        start,
        end.saturating_sub(start),
        node_tid(key.node),
        vec![
            ("workflow", Value::U64(key.workflow.as_u64())),
            ("job", Value::U64(key.job as u64)),
            ("kind", Value::Str(key.kind.to_string())),
            ("speculative", Value::Bool(speculative)),
            ("killed", Value::Bool(killed)),
        ],
    )
}

fn args_obj(args: Vec<(&str, Value)>) -> Value {
    Value::Object(args.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_buffers_in_order() {
        let mut sink = MemorySink::new();
        sink.record(TraceRecord {
            at: SimTime::from_secs(1),
            event: TraceEvent::MasterCrashed,
        });
        sink.record(TraceRecord {
            at: SimTime::from_secs(2),
            event: TraceEvent::Heartbeat {
                node: 0,
                free_maps: 2,
                free_reduces: 1,
            },
        });
        assert_eq!(sink.records().len(), 2);
        assert_eq!(sink.records()[0].at, SimTime::from_secs(1));
        let records = sink.into_records();
        assert!(matches!(records[1].event, TraceEvent::Heartbeat { .. }));
    }

    #[test]
    fn observability_config_default_is_fully_off() {
        let obs = ObservabilityConfig::default();
        assert!(!obs.enabled());
        assert!(obs.sample_interval.is_none());
        assert!(ObservabilityConfig {
            trace: true,
            ..ObservabilityConfig::default()
        }
        .enabled());
    }

    #[test]
    fn chrome_trace_pairs_task_spans() {
        let wf = WorkflowId::new(3);
        let obs = Observations {
            trace: vec![
                TraceRecord {
                    at: SimTime::from_secs(10),
                    event: TraceEvent::TaskStart {
                        node: 1,
                        workflow: wf,
                        job: 0,
                        kind: SlotKind::Map,
                        speculative: false,
                    },
                },
                TraceRecord {
                    at: SimTime::from_secs(40),
                    event: TraceEvent::TaskComplete {
                        node: 1,
                        workflow: wf,
                        job: 0,
                        kind: SlotKind::Map,
                    },
                },
            ],
            metrics: None,
            node_count: 2,
        };
        let json = obs.chrome_trace_json();
        let value: Value = serde_json::from_str(&json).unwrap();
        let events = value.as_object().unwrap()[0].1.as_array().unwrap();
        // 3 thread_name metadata records (scheduler + 2 nodes) + 1 span.
        assert_eq!(events.len(), 4);
        let span = events
            .iter()
            .find(|e| field(e, "ph").as_str() == Some("X"))
            .expect("one complete span");
        assert_eq!(field(span, "ts").as_u128(), Some(10_000_000));
        assert_eq!(field(span, "dur").as_u128(), Some(30_000_000));
        assert_eq!(field(span, "tid").as_u128(), Some(2)); // node 1
        assert_eq!(field(span, "name").as_str(), Some("w3/j0 map"));
    }

    #[test]
    fn chrome_trace_truncates_unfinished_spans_and_emits_counters() {
        let mut metrics = MetricsRegistry::new();
        metrics.pending_tasks.set(5.0);
        metrics.pending_tasks.sample(SimTime::from_secs(30));
        let obs = Observations {
            trace: vec![
                TraceRecord {
                    at: SimTime::from_secs(10),
                    event: TraceEvent::TaskStart {
                        node: 0,
                        workflow: WorkflowId::new(0),
                        job: 1,
                        kind: SlotKind::Reduce,
                        speculative: true,
                    },
                },
                TraceRecord {
                    at: SimTime::from_secs(50),
                    event: TraceEvent::MasterCrashed,
                },
            ],
            metrics: Some(metrics),
            node_count: 1,
        };
        let json = obs.chrome_trace_json();
        let value: Value = serde_json::from_str(&json).unwrap();
        let events = value.as_object().unwrap()[0].1.as_array().unwrap();
        let span = events
            .iter()
            .find(|e| field(e, "ph").as_str() == Some("X"))
            .expect("truncated span");
        // Runs to the last traced instant (the crash at 50 s).
        assert_eq!(field(span, "dur").as_u128(), Some(40_000_000));
        let counters: Vec<_> = events
            .iter()
            .filter(|e| field(e, "ph").as_str() == Some("C"))
            .collect();
        assert_eq!(counters.len(), 1); // one sampled gauge, one sample
        assert!(counters
            .iter()
            .any(|c| field(c, "name").as_str() == Some("woha_pending_tasks")));
    }

    #[test]
    fn jsonl_sink_matches_buffered_rendering() {
        let records = vec![
            TraceRecord {
                at: SimTime::from_secs(1),
                event: TraceEvent::Heartbeat {
                    node: 2,
                    free_maps: 3,
                    free_reduces: 1,
                },
            },
            TraceRecord {
                at: SimTime::from_secs(2),
                event: TraceEvent::AdmissionReject {
                    workflow: "w-late".to_string(),
                    reason: "critical_path_exceeds_deadline".to_string(),
                },
            },
            TraceRecord {
                at: SimTime::from_secs(3),
                event: TraceEvent::WalReplayed {
                    records: 7,
                    outage: SimDuration::from_secs(4),
                },
            },
        ];
        let mut sink = JsonlTraceSink::new(Vec::new());
        for rec in &records {
            sink.record(rec.clone());
        }
        let streamed = String::from_utf8(sink.finish().expect("no write error")).unwrap();
        let buffered = Observations {
            trace: records,
            metrics: None,
            node_count: 3,
        }
        .trace_jsonl();
        assert_eq!(streamed, buffered);
        assert_eq!(streamed.lines().count(), 3);
        let first: Value = serde_json::from_str(streamed.lines().next().unwrap()).unwrap();
        assert_eq!(field(&first, "event").as_str(), Some("heartbeat"));
        assert_eq!(field(&first, "at_ms").as_u128(), Some(1000));
        let second: Value = serde_json::from_str(streamed.lines().nth(1).unwrap()).unwrap();
        assert_eq!(
            field(&second, "reason").as_str(),
            Some("critical_path_exceeds_deadline")
        );
    }

    #[test]
    fn jsonl_sink_records_sticky_write_errors() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlTraceSink::new(Failing);
        sink.record(TraceRecord {
            at: SimTime::ZERO,
            event: TraceEvent::MasterCrashed,
        });
        assert!(sink.error().is_some_and(|e| e.contains("disk full")));
        assert!(sink.finish().is_err());
    }

    #[test]
    fn chrome_trace_renders_admission_rejects() {
        let obs = Observations {
            trace: vec![TraceRecord {
                at: SimTime::from_secs(5),
                event: TraceEvent::AdmissionReject {
                    workflow: "w0".to_string(),
                    reason: "aggregate_overload".to_string(),
                },
            }],
            metrics: None,
            node_count: 1,
        };
        let json = obs.chrome_trace_json();
        assert!(json.contains("admission_reject"));
        assert!(json.contains("aggregate_overload"));
    }

    /// One record of every variant, each tagged by an exhaustive match: a
    /// new variant does not compile until it is tagged, and the test fails
    /// until a record of it is listed.
    #[test]
    fn one_schema_renders_both_exports() {
        let wf = WorkflowId::new(4);
        let events = vec![
            TraceEvent::Heartbeat {
                node: 1,
                free_maps: 2,
                free_reduces: 0,
            },
            TraceEvent::Assign {
                node: 0,
                kind: SlotKind::Reduce,
                workflow: wf,
                job: 2,
            },
            TraceEvent::SchedulerPick {
                workflow: wf,
                rank: 3,
                blocked: 2,
                backend: "dsl",
            },
            TraceEvent::PlanGenerated {
                workflow: wf,
                jobs: 5,
            },
            TraceEvent::Replan { workflow: wf },
            TraceEvent::RhoRollback { workflow: wf },
            TraceEvent::TaskStart {
                node: 1,
                workflow: wf,
                job: 0,
                kind: SlotKind::Map,
                speculative: true,
            },
            TraceEvent::TaskComplete {
                node: 1,
                workflow: wf,
                job: 0,
                kind: SlotKind::Map,
            },
            TraceEvent::TaskKilled {
                node: 0,
                workflow: wf,
                job: 1,
                kind: SlotKind::Reduce,
            },
            TraceEvent::NodeDown { node: 1, rack: 1 },
            TraceEvent::NodeUp { node: 1, rack: 1 },
            TraceEvent::NodeBlacklisted { node: 0, rack: 0 },
            TraceEvent::ReshuffleCharged {
                workflow: wf,
                job: 1,
                lost: 3,
                charged_ms: 900,
            },
            TraceEvent::CheckpointTaken { wal_records: 12 },
            TraceEvent::AdmissionReject {
                workflow: "late".to_string(),
                reason: "aggregate_overload".to_string(),
            },
            TraceEvent::RiskAverted {
                node: 1,
                workflow: wf,
            },
            TraceEvent::PreemptiveSpeculation {
                node: 0,
                workflow: wf,
            },
            TraceEvent::MasterCrashed,
            TraceEvent::WalReplayed {
                records: 7,
                outage: SimDuration::from_secs(30),
            },
        ];
        // (variant ordinal, whether Chrome renders it as a span)
        let tag = |e: &TraceEvent| match e {
            TraceEvent::Heartbeat { .. } => (0, false),
            TraceEvent::Assign { .. } => (1, false),
            TraceEvent::SchedulerPick { .. } => (2, false),
            TraceEvent::PlanGenerated { .. } => (3, false),
            TraceEvent::Replan { .. } => (4, false),
            TraceEvent::RhoRollback { .. } => (5, false),
            TraceEvent::TaskStart { .. } => (6, true),
            TraceEvent::TaskComplete { .. } => (7, true),
            TraceEvent::TaskKilled { .. } => (8, true),
            TraceEvent::NodeDown { .. } => (9, false),
            TraceEvent::NodeUp { .. } => (10, false),
            TraceEvent::NodeBlacklisted { .. } => (11, false),
            TraceEvent::ReshuffleCharged { .. } => (12, false),
            TraceEvent::CheckpointTaken { .. } => (13, false),
            TraceEvent::AdmissionReject { .. } => (14, false),
            TraceEvent::RiskAverted { .. } => (15, false),
            TraceEvent::PreemptiveSpeculation { .. } => (16, false),
            TraceEvent::MasterCrashed => (17, false),
            TraceEvent::WalReplayed { .. } => (18, true),
        };
        let ordinals: Vec<usize> = events.iter().map(|e| tag(e).0).collect();
        assert_eq!(
            ordinals,
            (0..19).collect::<Vec<_>>(),
            "one record per variant"
        );

        let render = |pairs: &[(&str, Value)]| {
            let obj = pairs.iter().map(|(k, v)| (k.to_string(), v.clone()));
            serde_json::to_string(&Value::Object(obj.collect())).unwrap()
        };
        for event in events {
            let (kind, fields) = event.fields();
            let record = TraceRecord {
                at: SimTime::from_secs(60),
                event,
            };
            let line: Value = serde_json::from_str(&jsonl_line(&record)).unwrap();
            let line = line.as_object().unwrap();
            assert_eq!(line[0].0, "at_ms");
            assert_eq!(line[1], ("event".to_string(), text(kind)));
            let rest: Vec<(&str, Value)> = line[2..]
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            assert_eq!(render(&rest), render(&fields), "{kind}");

            let is_span = tag(&record.event).1;
            let chrome = Observations {
                trace: vec![record],
                metrics: None,
                node_count: 2,
            }
            .chrome_trace_json();
            let chrome: Value = serde_json::from_str(&chrome).unwrap();
            let instants: Vec<&Value> = chrome.as_object().unwrap()[0]
                .1
                .as_array()
                .unwrap()
                .iter()
                .filter(|e| field(e, "ph").as_str() == Some("i"))
                .collect();
            if is_span {
                assert!(instants.is_empty(), "{kind} renders as a span");
                continue;
            }
            let [instant] = instants[..] else {
                panic!("{kind}: one instant, got {}", instants.len());
            };
            assert_eq!(field(instant, "name").as_str(), Some(kind));
            let node = fields.iter().find(|(k, _)| *k == "node");
            let tid = node.map_or(0, |(_, n)| n.as_u128().unwrap() + 1);
            assert_eq!(field(instant, "tid").as_u128(), Some(tid), "{kind}");
            let args: Vec<(&str, Value)> =
                fields.into_iter().filter(|(k, _)| *k != "node").collect();
            let got = instant
                .as_object()
                .unwrap()
                .iter()
                .find(|(k, _)| k == "args");
            let got: Vec<(&str, Value)> = got.map_or(vec![], |(_, a)| {
                let a = a.as_object().unwrap().iter();
                a.map(|(k, v)| (k.as_str(), v.clone())).collect()
            });
            assert_eq!(render(&got), render(&args), "{kind}");
        }
    }

    fn field<'v>(event: &'v Value, key: &str) -> &'v Value {
        &event
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == key)
            .unwrap()
            .1
    }
}
