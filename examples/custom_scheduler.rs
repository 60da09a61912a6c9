//! Plugging a user-defined Workflow Scheduler into the framework.
//!
//! The paper emphasizes that "users may replace the Scheduling Plan
//! Generator module and the Workflow Scheduler module in WOHA with their
//! own design" (§III-B). In this reproduction the same extension point is
//! the [`WorkflowScheduler`] trait: implement it and hand it to
//! `run_simulation`.
//!
//! The custom policy here is *Least Laxity First* over workflows: the
//! workflow whose `deadline - now - critical path remaining` is smallest
//! wins each slot. It is compared against WOHA and EDF on a small
//! contended scenario.
//!
//! Run with: `cargo run --release --example custom_scheduler`

use woha::model::{JobId, WorkflowId};
use woha::prelude::*;
use woha::sim::WorkflowPool;

/// Least-Laxity-First workflow scheduler: a ~40-line custom policy.
#[derive(Debug, Default)]
struct LeastLaxityFirst;

impl LeastLaxityFirst {
    /// Remaining critical path of a workflow: the longest chain of job
    /// lengths among jobs that have not completed yet.
    fn remaining_path_millis(pool: &WorkflowPool, wf: WorkflowId) -> u64 {
        let state = pool.workflow(wf);
        let spec = state.spec();
        let weights: Vec<u64> = spec
            .job_ids()
            .map(|j| {
                if state.job(j).phase() == woha::sim::JobPhase::Complete {
                    0
                } else {
                    spec.job(j).length().as_millis()
                }
            })
            .collect();
        spec.to_dag()
            .longest_path_to_sink(&weights)
            .expect("workflow DAGs are acyclic")
            .into_iter()
            .max()
            .unwrap_or(0)
    }
}

// Stateless policy: nothing to checkpoint on master failover.
impl SchedulerState for LeastLaxityFirst {}

impl WorkflowScheduler for LeastLaxityFirst {
    fn name(&self) -> &str {
        "LLF (custom)"
    }

    fn assign_task(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        now: SimTime,
    ) -> Option<(WorkflowId, JobId)> {
        // Most offers find nothing; the pool counts ready workflows, so
        // that case costs O(1) instead of a scan of every workflow. It does
        // nothing here, so the driver may coalesce such offers freely.
        if pool.ready_workflows(kind) == 0 {
            return None;
        }
        // Pick the eligible workflow with the least laxity.
        let wf = pool
            .incomplete()
            .filter(|&wf| pool.workflow(wf).has_eligible_task(kind))
            .min_by_key(|&wf| {
                let spec = pool.workflow(wf).spec();
                let slack = spec.deadline().saturating_since(now).as_millis();
                let remaining = Self::remaining_path_millis(pool, wf);
                (slack.saturating_sub(remaining), wf)
            })?;
        // First eligible job wins within the workflow.
        woha::sim::first_eligible_job(pool, wf, kind).map(|job| (wf, job))
    }
}

fn contended_workflows() -> Vec<WorkflowSpec> {
    // Three chains with inverted deadline/length relationships, so naive
    // policies get at least one of them wrong.
    let mk = |name: &str, jobs: u32, submit_s: u64, deadline_s: u64| {
        let mut b = WorkflowBuilder::new(name);
        let mut prev = None;
        for i in 0..jobs {
            let id = b.add_job(JobSpec::new(
                format!("j{i}"),
                6,
                2,
                SimDuration::from_secs(30),
                SimDuration::from_secs(45),
            ));
            if let Some(p) = prev {
                b.add_dependency(p, id);
            }
            prev = Some(id);
        }
        b.submit_at(SimTime::from_secs(submit_s));
        b.relative_deadline(SimDuration::from_secs(deadline_s));
        b.build().expect("valid workflow")
    };
    vec![
        mk("long-lax", 6, 0, 2_400),
        mk("short-tight", 2, 30, 400),
        mk("medium", 4, 60, 1_300),
    ]
}

fn main() {
    let workflows = contended_workflows();
    let cluster = ClusterConfig::uniform(4, 2, 1);
    let config = SimConfig::default();

    let mut llf = LeastLaxityFirst;
    let mut edf = EdfScheduler;
    let mut woha = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 12));
    let schedulers: [&mut dyn WorkflowScheduler; 3] = [&mut llf, &mut edf, &mut woha];

    println!("three contending chains on a 4-slave cluster:\n");
    for scheduler in schedulers {
        let report = run_simulation(&workflows, scheduler, &cluster, &config);
        println!(
            "{:<14} misses {} of {}   max tardiness {}",
            report.scheduler,
            report.deadline_misses(),
            report.outcomes.len(),
            report.max_tardiness(),
        );
    }
    println!("\nany struct implementing WorkflowScheduler plugs straight into the");
    println!("simulated JobTracker — the paper's two-line configuration swap.");
}
