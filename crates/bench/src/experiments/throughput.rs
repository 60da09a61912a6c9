//! Fig 13(a): scheduler throughput (AssignTask calls per second) versus
//! workflow queue length, for the Double Skip List, the BST alternative,
//! and the naive recompute-and-sort scheduler.
//!
//! This is a microbenchmark of the master-side ordering machinery in
//! isolation, exactly as the paper measures it: `n_w` workflows queue with
//! synthetic progress requirement lists; each AssignTask invocation walks
//! the due ct-list heads, picks the top-priority workflow, advances its
//! true progress, and re-inserts it.

use crate::sweep::{run_sweep, CellKey};
use crate::table::Table;
use std::time::{Duration, Instant};
use woha_core::index::PriorityIndex;
use woha_core::plan::{ProgressRequirement, SchedulingPlan};
use woha_core::priority::PriorityPolicy;
use woha_core::progress::WorkflowProgress;
use woha_core::QueueStrategy;
use woha_model::{SimDuration, SimTime, WorkflowId};

/// A Fig 13(a) contender: one of the scheduler's index backends, or the
/// paper's strawman, which exists only in this harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contender {
    /// An incremental priority index behind Algorithm 2.
    Indexed(QueueStrategy),
    /// No index: every offer recomputes every queued workflow's lag and
    /// re-sorts.
    Naive,
}

impl Contender {
    /// The four contenders, in the Fig 13(a) table's column order.
    pub const ALL: [Contender; 4] = [
        Contender::Indexed(QueueStrategy::Dsl),
        Contender::Indexed(QueueStrategy::Bst),
        Contender::Indexed(QueueStrategy::Pairing),
        Contender::Naive,
    ];

    /// The label used in sweep cell keys.
    pub fn label(self) -> &'static str {
        match self {
            Contender::Indexed(strategy) => strategy.label(),
            Contender::Naive => "naive",
        }
    }
}

/// A standalone Algorithm-2 driver over synthetic workflows, used to
/// measure queue-structure throughput without a cluster simulation.
#[derive(Debug)]
pub struct QueueHarness {
    records: Vec<WorkflowProgress>,
    /// `None` for [`Contender::Naive`].
    index: Option<Box<dyn PriorityIndex + Send>>,
    now: SimTime,
    /// Virtual time advanced per AssignTask call, driving ct-list churn.
    tick: SimDuration,
}

/// Builds a synthetic plan with `entries` requirement changes spread over
/// `span`.
fn synthetic_plan(entries: usize, span: SimDuration, tasks_per_entry: u64) -> SchedulingPlan {
    let requirements: Vec<ProgressRequirement> = (0..entries)
        .map(|i| ProgressRequirement {
            ttd: SimDuration::from_millis(
                span.as_millis() - span.as_millis() * i as u64 / entries as u64,
            ),
            cumulative: (i as u64 + 1) * tasks_per_entry,
        })
        .collect();
    SchedulingPlan::new(
        PriorityPolicy::Hlf,
        8,
        vec![],
        requirements,
        span,
        entries as u64 * tasks_per_entry,
    )
}

impl QueueHarness {
    /// Creates a harness with `queue_len` synthetic workflows. Deadlines
    /// and plan spans are staggered so requirement changes keep firing as
    /// virtual time advances (the regime the ct list exists for).
    pub fn new(contender: Contender, queue_len: usize) -> Self {
        let mut index = match contender {
            Contender::Indexed(strategy) => strategy.build_index(),
            Contender::Naive => None,
        };
        let mut records = Vec::with_capacity(queue_len);
        for i in 0..queue_len {
            let id = WorkflowId::new(i as u64);
            // Plans with ~30 entries over ~30 minutes; deadlines staggered
            // across an hour so the head of the ct list keeps changing.
            let span = SimDuration::from_secs(1_200 + (i as u64 % 600));
            let plan = synthetic_plan(30, span, 50_000);
            let deadline = SimTime::from_secs(2_000 + (i as u64 * 7) % 3_600);
            let record = WorkflowProgress::new(id, plan, deadline, SimTime::ZERO);
            if let Some(index) = index.as_mut() {
                index.insert(id, record.next_change(), record.lag(), deadline);
            }
            records.push(record);
        }
        QueueHarness {
            records,
            index,
            now: SimTime::ZERO,
            tick: SimDuration::from_millis(1),
        }
    }

    /// Number of queued workflows.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// One AssignTask invocation: advance virtual time, refresh due
    /// workflows, pick the top-priority workflow, account one scheduled
    /// task. Returns the chosen workflow.
    pub fn assign_task(&mut self) -> WorkflowId {
        self.now = self.now.saturating_add(self.tick);
        let now = self.now;
        match self.index.as_mut() {
            None => {
                // Recompute every workflow's priority and take the max —
                // the paper's naive strawman (sorting is what the paper's
                // naive does; a max-scan is already its lower bound).
                let mut order: Vec<(i64, SimTime, usize)> = self
                    .records
                    .iter_mut()
                    .enumerate()
                    .map(|(i, r)| {
                        r.catch_up(now);
                        (r.lag(), r.deadline(), i)
                    })
                    .collect();
                order.sort_by(|a, b| {
                    b.0.cmp(&a.0)
                        .then_with(|| a.1.cmp(&b.1))
                        .then_with(|| a.2.cmp(&b.2))
                });
                let best = order[0].2;
                self.records[best].on_task_assigned();
                self.records[best].id()
            }
            Some(index) => {
                // Algorithm 2 lines 4-19.
                while let Some((t, wf)) = index.min_ct() {
                    if t > now {
                        break;
                    }
                    let record = &mut self.records[wf.as_u64() as usize];
                    let (old_ct, old_lag) = (record.next_change(), record.lag());
                    record.catch_up(now);
                    index.update(
                        wf,
                        old_ct,
                        old_lag,
                        record.next_change(),
                        record.lag(),
                        record.deadline(),
                    );
                }
                // Lines 20-23.
                let (_, wf) = index.max_priority().expect("non-empty queue");
                let record = &mut self.records[wf.as_u64() as usize];
                let (ct, old_lag) = (record.next_change(), record.lag());
                record.on_task_assigned();
                index.update(wf, ct, old_lag, ct, record.lag(), record.deadline());
                wf
            }
        }
    }
}

/// One Fig 13(a) measurement: calls per second at a queue length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Queue length (number of workflows).
    pub queue_len: usize,
    /// Contender measured.
    pub contender: Contender,
    /// AssignTask invocations per second of wall-clock time.
    pub calls_per_sec: f64,
}

/// Measures AssignTask throughput for `contender` at `queue_len`, running
/// for at least `budget` wall-clock time.
pub fn measure_throughput(
    contender: Contender,
    queue_len: usize,
    budget: Duration,
) -> ThroughputPoint {
    let mut harness = QueueHarness::new(contender, queue_len);
    // Warm up.
    for _ in 0..10 {
        harness.assign_task();
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget {
        // Batch to amortize the clock reads.
        for _ in 0..16 {
            harness.assign_task();
        }
        calls += 16;
    }
    let secs = start.elapsed().as_secs_f64();
    ThroughputPoint {
        queue_len,
        contender,
        calls_per_sec: calls as f64 / secs,
    }
}

/// Runs the full Fig 13(a) sweep over the given queue lengths on `jobs`
/// worker threads. Throughput cells measure wall clock, so concurrent
/// cells on shared cores distort each other: pass `jobs > 1` only on idle
/// many-core machines. The *set* of measured cells and their order are
/// jobs-invariant; the measured calls-per-second values are never
/// byte-stable.
pub fn run_fig13a(queue_lens: &[usize], budget: Duration, jobs: usize) -> Vec<ThroughputPoint> {
    let cells: Vec<(CellKey, (Contender, usize))> = queue_lens
        .iter()
        .flat_map(|&len| {
            Contender::ALL.into_iter().map(move |contender| {
                (
                    CellKey::new()
                        .with("len", len)
                        .with("queue", contender.label()),
                    (contender, len),
                )
            })
        })
        .collect();
    run_sweep(&cells, jobs, |_, &(contender, len)| {
        measure_throughput(contender, len, budget)
    })
    .results
    .into_iter()
    .map(|(_, p)| p)
    .collect()
}

/// Renders the Fig 13(a) table: one row per queue length, one column per
/// strategy.
pub fn fig13a_table(points: &[ThroughputPoint]) -> Table {
    let mut lens: Vec<usize> = points.iter().map(|p| p.queue_len).collect();
    lens.sort_unstable();
    lens.dedup();
    let mut t = Table::new(vec![
        "queue length",
        "DSL (calls/s)",
        "BST (calls/s)",
        "PHeap (calls/s)",
        "Naive (calls/s)",
    ]);
    for len in lens {
        let mut row = vec![len.to_string()];
        row.extend(Contender::ALL.map(|c| {
            points
                .iter()
                .find(|p| p.queue_len == len && p.contender == c)
                .map(|p| format!("{:.0}", p.calls_per_sec))
                .unwrap_or_default()
        }));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_all_strategies() {
        for contender in Contender::ALL {
            let mut h = QueueHarness::new(contender, 50);
            assert_eq!(h.len(), 50);
            assert!(!h.is_empty());
            for _ in 0..200 {
                let wf = h.assign_task();
                assert!(wf.as_u64() < 50);
            }
        }
    }

    #[test]
    fn strategies_pick_the_same_workflows() {
        let mut harnesses = Contender::ALL.map(|c| QueueHarness::new(c, 40));
        for step in 0..500 {
            let picks = harnesses.each_mut().map(QueueHarness::assign_task);
            assert!(
                picks.iter().all(|&p| p == picks[0]),
                "step {step}: {picks:?}"
            );
        }
    }

    #[test]
    fn throughput_measurement_is_positive() {
        let dsl = Contender::Indexed(QueueStrategy::Dsl);
        let p = measure_throughput(dsl, 100, Duration::from_millis(20));
        assert!(p.calls_per_sec > 1_000.0, "{p:?}");
    }

    #[test]
    #[ignore = "wall-clock benchmark; run explicitly with --ignored"]
    fn dsl_beats_naive_at_scale() {
        let budget = Duration::from_millis(200);
        let dsl = measure_throughput(Contender::Indexed(QueueStrategy::Dsl), 10_000, budget);
        let naive = measure_throughput(Contender::Naive, 10_000, budget);
        assert!(
            dsl.calls_per_sec > naive.calls_per_sec * 10.0,
            "dsl {:.0} naive {:.0}",
            dsl.calls_per_sec,
            naive.calls_per_sec
        );
    }
}
