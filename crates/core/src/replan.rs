//! Mid-flight replanning: regenerate a workflow's scheduling plan from its
//! *remaining* work when reality has diverged too far from the original
//! client-side estimate.
//!
//! The paper's plans are computed once, at submission, from duration
//! estimates; it explicitly notes the plan "may not faithfully represent
//! the real execution trace" (§IV-A). When estimation error or contention
//! pushes a workflow far behind, the original requirement curve stops
//! being informative — every entry is overdue and the priority saturates.
//! Replanning rebuilds the curve for the work that is actually left,
//! re-anchored at the (effective) deadline, restoring a meaningful pacing
//! signal. This is the natural "dynamic WOHA" extension the paper's
//! future-work discussion gestures at.

use crate::plangen::{generate_plan_with_budget, CapMode};
use crate::priority::{JobPriorities, PriorityPolicy};
use woha_model::{JobSpec, SimDuration, WorkflowBuilder, WorkflowSpec};
use woha_sim::{JobPhase, WorkflowState};

/// Replan once the progress lag exceeds this fraction of the workflow's
/// total tasks.
pub(crate) const LAG_FRACTION: f64 = 0.15;

/// Minimum spacing between replans of the same workflow.
pub(crate) const MIN_INTERVAL: SimDuration = SimDuration::from_mins(2);

/// Builds a [`WorkflowSpec`] describing the *remaining* work of a running
/// workflow: completed jobs disappear, partially-executed jobs shrink to
/// their unscheduled tasks, and the prerequisite relation is restricted to
/// jobs that still exist.
///
/// Approximations (all conservative for pacing purposes):
///
/// - running tasks count as scheduled (the plan paces *scheduling*, and
///   they already were);
/// - a job whose maps are all scheduled but whose reduces remain is given
///   one 1 ms phantom map task, because the workflow model requires every
///   job to have a map phase — it adds at most 1 ms to the simulated span.
///
/// Returns `None` when the workflow is complete (nothing to plan).
pub fn remaining_workflow(state: &WorkflowState) -> Option<WorkflowSpec> {
    let spec = state.spec();
    let mut builder = WorkflowBuilder::new(format!("{}#replan", spec.name()));
    // Map original job ids to new ids for jobs that still carry work.
    let mut new_ids = vec![None; spec.job_count()];
    for j in spec.job_ids() {
        let job_state = state.job(j);
        if job_state.phase() == JobPhase::Complete {
            continue;
        }
        let job_spec = spec.job(j);
        let remaining_maps = match job_state.phase() {
            // Not yet activated: everything remains.
            JobPhase::Blocked | JobPhase::Submitting => job_spec.map_tasks(),
            JobPhase::Active => job_state.pending_maps(),
            JobPhase::Complete => unreachable!("skipped above"),
        };
        let remaining_reduces = match job_state.phase() {
            JobPhase::Blocked | JobPhase::Submitting => job_spec.reduce_tasks(),
            JobPhase::Active => job_state.pending_reduces(),
            JobPhase::Complete => unreachable!("skipped above"),
        };
        if remaining_maps == 0 && remaining_reduces == 0 {
            // All tasks scheduled; the job will finish on its own.
            continue;
        }
        let (maps, map_duration) = if remaining_maps == 0 {
            (1, SimDuration::from_millis(1))
        } else {
            (remaining_maps, job_spec.map_duration())
        };
        let id = builder.add_job(JobSpec::new(
            job_spec.name(),
            maps,
            remaining_reduces,
            map_duration,
            job_spec.reduce_duration(),
        ));
        new_ids[j.index()] = Some(id);
    }
    // Restrict edges to surviving jobs (a completed prerequisite is
    // satisfied, so the edge simply disappears).
    for j in spec.job_ids() {
        let Some(succ) = new_ids[j.index()] else {
            continue;
        };
        for &p in spec.prerequisites(j) {
            if let Some(pred) = new_ids[p.index()] {
                builder.add_dependency(pred, succ);
            }
        }
    }
    builder.submit_at(spec.submit_time());
    if spec.deadline() != woha_model::SimTime::MAX {
        builder.deadline_at(spec.deadline());
    }
    builder.build().ok()
}

/// Generates a fresh plan for the remaining work of `state`, with the
/// given budget (time left to the effective deadline). Returns `None`
/// when nothing remains to schedule.
pub fn replan(
    state: &WorkflowState,
    policy: PriorityPolicy,
    total_slots: u32,
    cap_mode: CapMode,
    budget: SimDuration,
) -> Option<crate::plan::SchedulingPlan> {
    let remaining = remaining_workflow(state)?;
    let priorities = JobPriorities::compute(&remaining, policy);
    let mut plan =
        generate_plan_with_budget(&remaining, &priorities, total_slots, cap_mode, budget);
    // The plan's job order refers to the *remaining* workflow's dense ids;
    // translate it back to the original ids so the scheduler can use it.
    let mut original_of_new = Vec::new();
    {
        // Rebuild the id mapping the same way remaining_workflow did.
        let spec = state.spec();
        for j in spec.job_ids() {
            let job_state = state.job(j);
            if job_state.phase() == JobPhase::Complete {
                continue;
            }
            let all_scheduled = job_state.phase() == JobPhase::Active
                && job_state.pending_maps() == 0
                && job_state.pending_reduces() == 0;
            if all_scheduled {
                continue;
            }
            original_of_new.push(j);
        }
    }
    let translated: Vec<woha_model::JobId> = plan
        .job_order()
        .iter()
        .map(|&new_id| original_of_new[new_id.index()])
        .collect();
    plan = plan.with_job_order(translated);
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use woha_model::{JobId, SimTime, SlotKind, WorkflowSpec};
    use woha_sim::WorkflowPool;

    fn chain_spec() -> WorkflowSpec {
        let mut b = WorkflowBuilder::new("w");
        let a = b.add_job(JobSpec::new(
            "a",
            4,
            2,
            SimDuration::from_secs(10),
            SimDuration::from_secs(20),
        ));
        let c = b.add_job(JobSpec::new(
            "b",
            3,
            1,
            SimDuration::from_secs(10),
            SimDuration::from_secs(20),
        ));
        b.add_dependency(a, c);
        b.relative_deadline(SimDuration::from_mins(20));
        b.build().unwrap()
    }

    /// Drives a pool to a mid-execution state: job a fully scheduled and
    /// completed, job b active with 1 of 3 maps scheduled.
    fn mid_execution() -> WorkflowPool {
        let mut pool = WorkflowPool::new();
        let wf = pool.register(chain_spec());
        let a = JobId::new(0);
        let b = JobId::new(1);
        let t = SimTime::from_secs(1);
        pool.workflow_mut(wf).begin_submitting(a);
        pool.workflow_mut(wf).activate(a);
        for _ in 0..4 {
            pool.workflow_mut(wf).start_task(a, SlotKind::Map);
        }
        for _ in 0..4 {
            pool.workflow_mut(wf).finish_task(a, SlotKind::Map, t);
        }
        for _ in 0..2 {
            pool.workflow_mut(wf).start_task(a, SlotKind::Reduce);
        }
        for _ in 0..2 {
            pool.workflow_mut(wf).finish_task(a, SlotKind::Reduce, t);
        }
        assert!(pool.workflow_mut(wf).satisfy_prereq(b));
        pool.workflow_mut(wf).begin_submitting(b);
        pool.workflow_mut(wf).activate(b);
        pool.workflow_mut(wf).start_task(b, SlotKind::Map);
        pool
    }

    #[test]
    fn remaining_shrinks_to_unscheduled_work() {
        let pool = mid_execution();
        let state = pool.workflow(woha_model::WorkflowId::new(0));
        let remaining = remaining_workflow(state).unwrap();
        // Job a is gone; job b remains with 2 pending maps + 1 reduce.
        assert_eq!(remaining.job_count(), 1);
        assert_eq!(remaining.jobs()[0].map_tasks(), 2);
        assert_eq!(remaining.jobs()[0].reduce_tasks(), 1);
        assert_eq!(remaining.total_tasks(), 3);
        // The a -> b edge disappeared with a.
        assert!(remaining.initially_ready().len() == 1);
        // Deadline carried over.
        assert_eq!(remaining.deadline(), SimTime::from_mins(20));
    }

    #[test]
    fn untouched_workflow_remains_whole() {
        let mut pool = WorkflowPool::new();
        let wf = pool.register(chain_spec());
        let state = pool.workflow(wf);
        let remaining = remaining_workflow(state).unwrap();
        assert_eq!(remaining.total_tasks(), chain_spec().total_tasks());
        assert_eq!(remaining.job_count(), 2);
    }

    #[test]
    fn fully_scheduled_workflow_has_nothing_to_plan() {
        let mut pool = WorkflowPool::new();
        let wf = pool.register({
            let mut b = WorkflowBuilder::new("tiny");
            b.add_job(JobSpec::new(
                "j",
                1,
                0,
                SimDuration::from_secs(5),
                SimDuration::ZERO,
            ));
            b.relative_deadline(SimDuration::from_mins(5));
            b.build().unwrap()
        });
        let j = JobId::new(0);
        pool.workflow_mut(wf).begin_submitting(j);
        pool.workflow_mut(wf).activate(j);
        pool.workflow_mut(wf).start_task(j, SlotKind::Map);
        // Everything is scheduled (still running): nothing left to plan.
        let state = pool.workflow(wf);
        assert!(remaining_workflow(state).is_none());
    }

    #[test]
    fn reduce_only_job_gets_phantom_map() {
        let mut pool = WorkflowPool::new();
        let wf = pool.register({
            let mut b = WorkflowBuilder::new("r");
            b.add_job(JobSpec::new(
                "j",
                1,
                3,
                SimDuration::from_secs(5),
                SimDuration::from_secs(30),
            ));
            b.relative_deadline(SimDuration::from_mins(5));
            b.build().unwrap()
        });
        let j = JobId::new(0);
        pool.workflow_mut(wf).begin_submitting(j);
        pool.workflow_mut(wf).activate(j);
        pool.workflow_mut(wf).start_task(j, SlotKind::Map);
        // Map scheduled but not finished; 3 reduces pending.
        let remaining = remaining_workflow(pool.workflow(wf)).unwrap();
        assert_eq!(remaining.jobs()[0].map_tasks(), 1, "phantom map");
        assert_eq!(
            remaining.jobs()[0].map_duration(),
            SimDuration::from_millis(1)
        );
        assert_eq!(remaining.jobs()[0].reduce_tasks(), 3);
    }

    #[test]
    fn replan_produces_usable_plan_with_original_ids() {
        let pool = mid_execution();
        let state = pool.workflow(woha_model::WorkflowId::new(0));
        let plan = replan(
            state,
            PriorityPolicy::Lpf,
            12,
            CapMode::MinFeasible,
            SimDuration::from_mins(15),
        )
        .unwrap();
        assert_eq!(plan.total_tasks(), 3);
        // Job order refers to the ORIGINAL workflow's ids: only job 1
        // remains.
        assert_eq!(plan.job_order(), &[JobId::new(1)]);
        assert!(plan.span() <= SimDuration::from_mins(15));
    }
}
