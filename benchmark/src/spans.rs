//! In-memory spans recorded by transparent decorators around the driver's
//! public trait seams.
//!
//! The program is measured from outside: each decorator forwards every
//! call unchanged and stamps it with two `Instant`s. High-frequency names
//! (`assign_task`, hooks, source pulls) only update a per-name count / sum
//! / log2-bucket histogram in place; low-frequency names and any call over
//! [`RAW_OVER_NS`] also keep the raw span. All decorator spans of one run
//! are children of that run's root span (the driver call itself) and never
//! overlap, so the root's self time is its duration minus their sum.

use std::cell::RefCell;
use std::time::Instant;

use serde::Value;
use woha_model::{JobId, NodeId, SimTime, SlotKind, WorkflowId, WorkflowSpec};
use woha_serve::SourceDiagnostics;
use woha_sim::{AdmissionGate, SchedTrace, SchedulerState, WorkflowPool, WorkflowScheduler};
use woha_trace::{SourcePoll, WorkloadSource};

/// Calls longer than this keep their raw span even under a
/// high-frequency name.
const RAW_OVER_NS: u64 = 100_000;
/// Raw spans kept per decorator; later ones are only counted. On
/// `deep_queue` nearly every `assign_batch` call is over the threshold,
/// and a million raw spans would make the trace file the benchmark's
/// largest cost.
const RAW_CAP: usize = 20_000;

const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;

/// Histogram of nanosecond durations: log2 buckets, each split into eight
/// linear sub-buckets (relative error at most 1/16 after interpolation).
#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u64>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: vec![0; 62 * SUB],
        }
    }
}

impl Hist {
    #[inline]
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
        (e - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Lower bound and width of bucket `idx`.
    fn bounds(idx: usize) -> (u64, u64) {
        if idx < SUB {
            return (idx as u64, 1);
        }
        let shift = (idx / SUB - 1) as u32;
        (((SUB + idx % SUB) as u64) << shift, 1 << shift)
    }

    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket;
    /// zero for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = q * (total - 1) as f64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n > 0 && rank < (seen + n) as f64 {
                let (lo, width) = Self::bounds(idx);
                let into = (rank - seen as f64 + 0.5) / n as f64;
                return lo as f64 + into * width as f64;
            }
            seen += n;
        }
        0.0
    }

    fn to_value(&self) -> Value {
        Value::Array(
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(idx, &n)| Value::Array(vec![Value::U64(Self::bounds(idx).0), Value::U64(n)]))
                .collect(),
        )
    }
}

/// Aggregate of every span recorded under one name.
#[derive(Clone, Default)]
pub struct SpanStat {
    pub name: &'static str,
    pub count: u64,
    pub sum_ns: u64,
    pub hist: Hist,
    keep_raw: bool,
}

/// One kept span, in nanoseconds since the recorder's origin.
#[derive(Clone, Copy)]
struct RawSpan {
    name: u16,
    start_ns: u64,
    end_ns: u64,
}

/// The spans one decorator recorded.
pub struct Spans {
    origin: Instant,
    stats: Vec<SpanStat>,
    raw: Vec<RawSpan>,
    raw_dropped: u64,
}

impl Spans {
    /// A recorder for `names`; a `true` flag keeps every span of that
    /// name raw (low-frequency names). `origin` is the run's time zero,
    /// shared by all decorators of the run.
    pub fn new(origin: Instant, names: &[(&'static str, bool)]) -> Self {
        Spans {
            origin,
            stats: names
                .iter()
                .map(|&(name, keep_raw)| SpanStat {
                    name,
                    keep_raw,
                    ..SpanStat::default()
                })
                .collect(),
            raw: Vec::new(),
            raw_dropped: 0,
        }
    }

    #[inline]
    fn record(&mut self, idx: usize, start: Instant, end: Instant) -> u64 {
        let ns = end.duration_since(start).as_nanos() as u64;
        let stat = &mut self.stats[idx];
        stat.count += 1;
        stat.sum_ns += ns;
        stat.hist.observe(ns);
        if stat.keep_raw || ns > RAW_OVER_NS {
            if self.raw.len() < RAW_CAP {
                let start_ns = start.duration_since(self.origin).as_nanos() as u64;
                self.raw.push(RawSpan {
                    name: idx as u16,
                    start_ns,
                    end_ns: start_ns + ns,
                });
            } else {
                self.raw_dropped += 1;
            }
        }
        ns
    }

    pub fn stat(&self, name: &str) -> &SpanStat {
        self.stats
            .iter()
            .find(|s| s.name == name)
            .expect("span name is registered")
    }

    /// Seconds spent under `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.stat(name).sum_ns as f64 / 1e9
    }

    /// Seconds spent under every name of this recorder.
    pub fn total_s(&self) -> f64 {
        self.stats.iter().map(|s| s.sum_ns).sum::<u64>() as f64 / 1e9
    }

    /// The recorder as trace JSON: per-name aggregates plus the raw spans,
    /// every one a child of `parent` within run `run_id`.
    pub fn to_value(&self, layer: &str, parent: &str, run_id: &str) -> Value {
        let names = self
            .stats
            .iter()
            .filter(|s| s.count > 0)
            .map(|s| {
                obj(vec![
                    ("name", Value::Str(s.name.to_string())),
                    ("count", Value::U64(s.count)),
                    ("sum_ns", Value::U64(s.sum_ns)),
                    ("p50_ns", Value::F64(s.hist.quantile(0.5))),
                    ("p99_ns", Value::F64(s.hist.quantile(0.99))),
                    ("hist_ns", s.hist.to_value()),
                ])
            })
            .collect();
        let raw = self
            .raw
            .iter()
            .map(|r| {
                Value::Array(vec![
                    Value::Str(self.stats[r.name as usize].name.to_string()),
                    Value::U64(r.start_ns),
                    Value::U64(r.end_ns),
                ])
            })
            .collect();
        obj(vec![
            ("layer", Value::Str(layer.to_string())),
            ("parent", Value::Str(parent.to_string())),
            ("run_id", Value::Str(run_id.to_string())),
            ("names", Value::Array(names)),
            ("raw_columns", str_array(&["name", "start_ns", "end_ns"])),
            ("raw", Value::Array(raw)),
            ("raw_dropped", Value::U64(self.raw_dropped)),
        ])
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn str_array(items: &[&str]) -> Value {
    Value::Array(items.iter().map(|s| Value::Str(s.to_string())).collect())
}

/// Runs `$call`, records it under span `$idx` of `$spans`, and evaluates
/// to `(result, nanoseconds)`.
macro_rules! timed {
    ($spans:expr, $idx:expr, $call:expr) => {{
        let start = Instant::now();
        let out = $call;
        let end = Instant::now();
        let ns = $spans.record($idx, start, end);
        (out, ns)
    }};
}

const ASSIGN_TASK: usize = 0;
const ASSIGN_BATCH: usize = 1;
const SUBMITTED: usize = 2;
const JOB_ACTIVATED: usize = 3;
const JOB_COMPLETED: usize = 4;
const WF_COMPLETED: usize = 5;
const TASK_ASSIGNED: usize = 6;
const TASK_FAILED: usize = 7;
const NODE_LOST: usize = 8;
const DRAIN_TRACE: usize = 9;
const SNAPSHOT: usize = 10;
const RESTORE: usize = 11;

/// Span names of [`TimedScheduler`], in index order.
const SCHEDULER_NAMES: [(&str, bool); 12] = [
    ("assign_task", false),
    ("assign_batch", false),
    ("on_workflow_submitted", true),
    ("on_job_activated", false),
    ("on_job_completed", false),
    ("on_workflow_completed", false),
    ("on_task_assigned", false),
    ("on_task_failed", false),
    ("on_node_lost", true),
    ("drain_trace", false),
    ("snapshot_state", true),
    ("restore_state", true),
];

/// Counts the scheduler decorator keeps beside its spans, so the useful
/// ratio is measured where the work happens.
#[derive(Default, Clone)]
pub struct AssignCounts {
    /// `assign_task` + `assign_batch` invocations.
    pub calls: u64,
    /// Invocations that returned at least one pick.
    pub useful_calls: u64,
    /// Picks returned.
    pub picks: u64,
    /// Nanoseconds in invocations that returned nothing.
    pub empty_ns: u64,
    /// Both call kinds in one histogram, for the p50 / p99.
    pub hist: Hist,
}

/// Transparent timing decorator around a [`WorkflowScheduler`].
pub struct TimedScheduler<S> {
    inner: S,
    // `snapshot_state` takes `&self`, so the recorder sits in a cell; the
    // `&mut self` hot paths reach it through `get_mut` at no cost.
    spans: RefCell<Spans>,
    counts: AssignCounts,
    /// Host instant at which each workflow's submission hook returned —
    /// the plan instant of the paced phase — when asked for.
    plan_instants: Option<Vec<(String, Instant)>>,
}

impl<S: WorkflowScheduler> TimedScheduler<S> {
    pub fn new(inner: S, origin: Instant, keep_plan_instants: bool) -> Self {
        TimedScheduler {
            inner,
            spans: RefCell::new(Spans::new(origin, &SCHEDULER_NAMES)),
            counts: AssignCounts::default(),
            plan_instants: keep_plan_instants.then(Vec::new),
        }
    }

    pub fn finish(self) -> (Spans, AssignCounts, Vec<(String, Instant)>) {
        (
            self.spans.into_inner(),
            self.counts,
            self.plan_instants.unwrap_or_default(),
        )
    }

    #[inline]
    fn count_assign(&mut self, picks: u64, ns: u64) {
        self.counts.calls += 1;
        self.counts.picks += picks;
        self.counts.hist.observe(ns);
        if picks > 0 {
            self.counts.useful_calls += 1;
        } else {
            self.counts.empty_ns += ns;
        }
    }
}

impl<S: WorkflowScheduler> SchedulerState for TimedScheduler<S> {
    fn snapshot_state(&self) -> Value {
        timed!(
            self.spans.borrow_mut(),
            SNAPSHOT,
            self.inner.snapshot_state()
        )
        .0
    }

    fn restore_state(&mut self, pool: &WorkflowPool, state: &Value) {
        timed!(
            self.spans.get_mut(),
            RESTORE,
            self.inner.restore_state(pool, state)
        );
    }
}

impl<S: WorkflowScheduler> WorkflowScheduler for TimedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_workflow_submitted(&mut self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) {
        timed!(
            self.spans.get_mut(),
            SUBMITTED,
            self.inner.on_workflow_submitted(pool, wf, now)
        );
        if let Some(instants) = &mut self.plan_instants {
            instants.push((pool.workflow(wf).spec().name().to_string(), Instant::now()));
        }
    }

    fn on_job_activated(&mut self, pool: &WorkflowPool, wf: WorkflowId, job: JobId, now: SimTime) {
        timed!(
            self.spans.get_mut(),
            JOB_ACTIVATED,
            self.inner.on_job_activated(pool, wf, job, now)
        );
    }

    fn on_job_completed(&mut self, pool: &WorkflowPool, wf: WorkflowId, job: JobId, now: SimTime) {
        timed!(
            self.spans.get_mut(),
            JOB_COMPLETED,
            self.inner.on_job_completed(pool, wf, job, now)
        );
    }

    fn on_workflow_completed(&mut self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) {
        timed!(
            self.spans.get_mut(),
            WF_COMPLETED,
            self.inner.on_workflow_completed(pool, wf, now)
        );
    }

    fn on_task_assigned(
        &mut self,
        pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        now: SimTime,
    ) {
        timed!(
            self.spans.get_mut(),
            TASK_ASSIGNED,
            self.inner.on_task_assigned(pool, wf, job, kind, now)
        );
    }

    fn on_task_failed(
        &mut self,
        pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        now: SimTime,
    ) {
        timed!(
            self.spans.get_mut(),
            TASK_FAILED,
            self.inner.on_task_failed(pool, wf, job, kind, now)
        );
    }

    fn on_node_lost(&mut self, pool: &WorkflowPool, node: NodeId, now: SimTime) {
        timed!(
            self.spans.get_mut(),
            NODE_LOST,
            self.inner.on_node_lost(pool, node, now)
        );
    }

    fn assign_task(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        now: SimTime,
    ) -> Option<(WorkflowId, JobId)> {
        let (pick, ns) = timed!(
            self.spans.get_mut(),
            ASSIGN_TASK,
            self.inner.assign_task(pool, kind, now)
        );
        self.count_assign(u64::from(pick.is_some()), ns);
        pick
    }

    fn assign_batch(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        now: SimTime,
        max_tasks: u32,
    ) -> Option<Vec<(WorkflowId, JobId)>> {
        let (picks, ns) = timed!(
            self.spans.get_mut(),
            ASSIGN_BATCH,
            self.inner.assign_batch(pool, kind, now, max_tasks)
        );
        // `None` means "no batch support": the driver falls back to
        // `assign_task`, which is counted there.
        if let Some(picks) = &picks {
            self.count_assign(picks.len() as u64, ns);
        }
        picks
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on);
    }

    fn drain_trace(&mut self, out: &mut Vec<SchedTrace>) {
        timed!(
            self.spans.get_mut(),
            DRAIN_TRACE,
            self.inner.drain_trace(out)
        );
    }

    fn backend_label(&self) -> &'static str {
        self.inner.backend_label()
    }

    fn slack_fraction(&self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) -> f64 {
        self.inner.slack_fraction(pool, wf, now)
    }

    fn plans_padded(&self) -> u64 {
        self.inner.plans_padded()
    }
}

const PEEK: usize = 0;
const NEXT: usize = 1;
const POLL: usize = 2;

/// What a [`TimedSource`] records. It lives with the caller because
/// `run_service` consumes its source.
pub struct SourceRecord {
    pub spans: Spans,
    /// `next_workflow` calls that yielded a workflow.
    pub pulls: u64,
}

impl SourceRecord {
    pub fn new(origin: Instant) -> Self {
        let names = [
            ("peek_time", false),
            ("next_workflow", false),
            ("poll_time", false),
        ];
        SourceRecord {
            spans: Spans::new(origin, &names),
            pulls: 0,
        }
    }
}

/// Transparent timing decorator around a [`WorkloadSource`].
pub struct TimedSource<'a, S> {
    inner: S,
    rec: &'a mut SourceRecord,
}

impl<'a, S: WorkloadSource> TimedSource<'a, S> {
    pub fn new(inner: S, rec: &'a mut SourceRecord) -> Self {
        TimedSource { inner, rec }
    }
}

impl<S: WorkloadSource> WorkloadSource for TimedSource<'_, S> {
    fn peek_time(&mut self) -> Option<SimTime> {
        timed!(self.rec.spans, PEEK, self.inner.peek_time()).0
    }

    fn next_workflow(&mut self) -> Option<WorkflowSpec> {
        let next = timed!(self.rec.spans, NEXT, self.inner.next_workflow()).0;
        self.rec.pulls += u64::from(next.is_some());
        next
    }

    fn poll_time(&mut self) -> SourcePoll {
        timed!(self.rec.spans, POLL, self.inner.poll_time()).0
    }
}

impl<S: SourceDiagnostics> SourceDiagnostics for TimedSource<'_, S> {
    fn source_error(&self) -> Option<String> {
        self.inner.source_error()
    }
}

const ADMIT: usize = 0;
const RELEASE: usize = 1;

/// Transparent timing decorator around an [`AdmissionGate`].
pub struct TimedGate<G> {
    inner: G,
    spans: Spans,
    pub rejected: u64,
}

impl<G: AdmissionGate> TimedGate<G> {
    pub fn new(inner: G, origin: Instant) -> Self {
        TimedGate {
            inner,
            spans: Spans::new(origin, &[("admit", true), ("release", false)]),
            rejected: 0,
        }
    }

    pub fn finish(self) -> (Spans, u64) {
        (self.spans, self.rejected)
    }
}

impl<G: AdmissionGate> AdmissionGate for TimedGate<G> {
    fn admit(&mut self, spec: &WorkflowSpec, now: SimTime) -> Result<(), String> {
        let verdict = timed!(self.spans, ADMIT, self.inner.admit(spec, now)).0;
        self.rejected += u64::from(verdict.is_err());
        verdict
    }

    fn release(&mut self, name: &str) {
        timed!(self.spans, RELEASE, self.inner.release(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_are_contiguous_and_quantiles_close() {
        let mut prev_end = 0;
        for idx in 0..61 * SUB {
            let (lo, width) = Hist::bounds(idx);
            assert_eq!(lo, prev_end, "bucket {idx}");
            assert_eq!(Hist::index(lo), idx);
            assert_eq!(Hist::index(lo + width - 1), idx);
            prev_end = lo + width;
        }
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.observe(v * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.07, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.07, "{p99}");
    }
}
