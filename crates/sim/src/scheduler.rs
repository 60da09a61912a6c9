//! The pluggable scheduler interface — the simulator's equivalent of the
//! paper's Workflow Scheduler module on the JobTracker.
//!
//! The driver calls [`WorkflowScheduler::assign_task`] once per free slot
//! whenever a heartbeat arrives (including the implicit heartbeat carried
//! by a task completion), exactly as Hadoop's `TaskScheduler.assignTasks`
//! is driven by TaskTracker heartbeats — except that consecutive offers
//! that cannot find a task are coalesced into the last one (see
//! [`WorkflowScheduler::assign_task`]). Notification hooks keep the
//! scheduler's own bookkeeping (queues, plans, progress) in sync with job
//! lifecycle events; implementations only need to override the ones they
//! use.

use crate::state::WorkflowPool;
use serde::Value;
use woha_model::{JobId, SimTime, SlotKind, WorkflowId};

/// Checkpoint support for scheduler-internal state, used by master
/// failover: the JobTracker's periodic snapshot embeds the scheduler's
/// private bookkeeping (WOHA's plan records and progress counters) so a
/// recovered master can resume scheduling without re-deriving it.
///
/// Both methods default to a stateless scheduler (nothing to save,
/// nothing to restore), so purely pool-driven schedulers — the baselines,
/// which read job order off the pool — need no code.
pub trait SchedulerState {
    /// Serializes the scheduler's internal state to a value tree.
    fn snapshot_state(&self) -> Value {
        Value::Null
    }

    /// Rebuilds internal state from a tree produced by
    /// [`snapshot_state`](Self::snapshot_state) against the recovered
    /// `pool`. Implementations should replace — not merge — their state.
    fn restore_state(&mut self, pool: &WorkflowPool, state: &Value) {
        let _ = (pool, state);
    }
}

/// A structured observation emitted by a scheduler implementation while
/// tracing is on (see [`WorkflowScheduler::set_tracing`]). The driver
/// drains these after every dispatched event and timestamps them into the
/// run's [`TraceSink`](crate::obs::TraceSink); schedulers themselves stay
/// clock-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedTrace {
    /// One assignment decision: which workflow won the slot and how far
    /// down the priority order the scheduler had to look.
    Pick {
        /// Chosen workflow.
        workflow: WorkflowId,
        /// 1-based position of the chosen workflow in the scheduler's
        /// priority descent (1 = the head was directly schedulable).
        rank: u32,
        /// Entries ahead of the pick in this batch's walk, all skipped as
        /// task-less: `rank - 1` on a batch pick, 0 on a per-slot pick.
        blocked: u32,
    },
    /// A scheduling plan was generated for a workflow (Algorithm 1).
    PlanGenerated {
        /// Planned workflow.
        workflow: WorkflowId,
        /// Jobs in the generated plan.
        jobs: usize,
    },
    /// A lagging workflow was replanned mid-flight.
    Replan {
        /// Replanned workflow.
        workflow: WorkflowId,
    },
    /// A task failure rolled a workflow's progress counter ρ back.
    RhoRollback {
        /// Affected workflow.
        workflow: WorkflowId,
    },
}

/// A workflow-aware task scheduler plugged into the simulated JobTracker.
///
/// Implementations decide, for each free slot, which `(workflow, job)` pair
/// receives a task. The driver validates eligibility (the job must be
/// active and have a pending task of the right kind, and reducers only run
/// once the job's maps finished) — a scheduler returning an ineligible pair
/// forfeits that slot offer and the violation is counted in the report.
///
/// The [`SchedulerState`] supertrait lets the fault layer checkpoint and
/// restore scheduler-internal state on master failover; stateless
/// schedulers inherit the no-op defaults via an empty `impl`.
pub trait WorkflowScheduler: SchedulerState {
    /// Human-readable scheduler name used in reports and tables.
    fn name(&self) -> &str;

    /// A workflow has been submitted (its configuration and, for WOHA, its
    /// scheduling plan have reached the JobTracker).
    fn on_workflow_submitted(&mut self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) {
        let _ = (pool, wf, now);
    }

    /// A wjob finished its submitter task and became schedulable.
    fn on_job_activated(&mut self, pool: &WorkflowPool, wf: WorkflowId, job: JobId, now: SimTime) {
        let _ = (pool, wf, job, now);
    }

    /// A wjob completed all of its tasks.
    fn on_job_completed(&mut self, pool: &WorkflowPool, wf: WorkflowId, job: JobId, now: SimTime) {
        let _ = (pool, wf, job, now);
    }

    /// A workflow completed its last job.
    fn on_workflow_completed(&mut self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) {
        let _ = (pool, wf, now);
    }

    /// A task of `(wf, job)` was handed to a slot (after a successful
    /// [`assign_task`](Self::assign_task)). WOHA uses this to advance the
    /// true progress `ρ`.
    fn on_task_assigned(
        &mut self,
        pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        now: SimTime,
    ) {
        let _ = (pool, wf, job, kind, now);
    }

    /// A previously-assigned task of `(wf, job)` failed (injected attempt
    /// failure, or its node was lost) and re-entered the pending queue.
    /// WOHA uses this to roll back the true progress `ρ`; the baselines
    /// (FIFO, Fair, EDF) keep no per-task progress state and ignore it.
    fn on_task_failed(
        &mut self,
        pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        now: SimTime,
    ) {
        let _ = (pool, wf, job, kind, now);
    }

    /// The failure detector declared `node` lost (it missed the configured
    /// number of heartbeats). Fired after every affected task's
    /// [`on_task_failed`](Self::on_task_failed); WOHA uses it as a
    /// replanning checkpoint.
    fn on_node_lost(&mut self, pool: &WorkflowPool, node: woha_model::NodeId, now: SimTime) {
        let _ = (pool, node, now);
    }

    /// Chooses the job to receive the free slot of `kind`, or `None` to
    /// leave the slot idle. Called repeatedly while slots remain free, so a
    /// work-conserving scheduler keeps returning pairs until nothing is
    /// eligible.
    ///
    /// Most offers find nothing: when
    /// [`pool.ready_workflows(kind)`](WorkflowPool::ready_workflows) is
    /// zero no job has an eligible task of `kind`, so an implementation
    /// **must** return `None` — and should test that O(1) counter before
    /// walking its queue, after any per-offer upkeep it needs regardless.
    /// Filter candidates with the O(1)
    /// [`WorkflowState::has_eligible_task`](crate::WorkflowState::has_eligible_task).
    ///
    /// # Empty offers coalesce
    ///
    /// An offer made while `ready_workflows(kind)` is zero returns nothing
    /// and may only bring *time-derived* state up to `now` — state that is
    /// a function of `now` alone, like WOHA's plan cursors — so that any
    /// run of consecutive such offers leaves the scheduler exactly where
    /// the last of them alone would. The driver relies on it: when
    /// heartbeat after heartbeat finds no ready workflow and no other event
    /// intervenes (an *idle run*), it makes only the last offer of each
    /// kind, with that offer's `now`, before the next hook or offer of any
    /// kind is delivered, whether or not anything observes the run. `now`
    /// never steps back from one call to the next. A scheduler must
    /// therefore not count offers, nor accumulate anything per empty offer
    /// that a later hook or pick depends on. The same holds for
    /// [`assign_batch`](Self::assign_batch). (While speculation or
    /// risk-aware placement is on every offer is delivered: an idle slot
    /// may take a duplicate there.)
    fn assign_task(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        now: SimTime,
    ) -> Option<(WorkflowId, JobId)>;

    /// Fills up to `max_tasks` free slots of `kind` in one invocation,
    /// making a single pass over the scheduler's internal ordering instead
    /// of `max_tasks` independent [`assign_task`](Self::assign_task)
    /// probes. The picks must be exactly what repeated `assign_task` calls
    /// (each followed by the driver starting the task) would have chosen.
    ///
    /// Returning `Some(picks)` means the scheduler has **already applied**
    /// its own post-assignment bookkeeping for every pick — the driver
    /// starts the tasks but must not call
    /// [`on_task_assigned`](Self::on_task_assigned) for them. Fewer than
    /// `max_tasks` picks means nothing else is eligible.
    ///
    /// An offer made while no workflow has an eligible task of `kind`
    /// returns `Some(vec![])` (or `None`) under the coalescing contract of
    /// [`assign_task`](Self::assign_task).
    ///
    /// The default returns `None`: the driver falls back to per-slot
    /// `assign_task` probes. A correct batch implementation has to account
    /// for the tasks the batch already claimed (the pool is only updated
    /// afterwards), so it is strictly opt-in: filter candidates with the
    /// O(1) [`WorkflowState::eligible_tasks`](crate::WorkflowState::eligible_tasks)
    /// minus the batch's own claims on that workflow, and a job's
    /// [`eligible_tasks`](crate::JobState::eligible_tasks) minus its claims
    /// on that job.
    fn assign_batch(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        now: SimTime,
        max_tasks: u32,
    ) -> Option<Vec<(WorkflowId, JobId)>> {
        let _ = (pool, kind, now, max_tasks);
        None
    }

    /// Turns structured decision tracing on or off. While on, the
    /// scheduler buffers [`SchedTrace`] records for the driver to drain
    /// via [`drain_trace`](Self::drain_trace). The default ignores the
    /// request: schedulers without instrumentation simply emit nothing.
    fn set_tracing(&mut self, on: bool) {
        let _ = on;
    }

    /// Moves buffered [`SchedTrace`] records into `out`, preserving
    /// emission order. The default is a no-op (nothing buffered).
    fn drain_trace(&mut self, out: &mut Vec<SchedTrace>) {
        let _ = out;
    }

    /// Label of the priority index this scheduler consults (WOHA's
    /// Double Skip List answers `"dsl"`), carried by every
    /// `SchedulerPick` trace record. The default, for schedulers without a
    /// priority index, is `"none"`.
    fn backend_label(&self) -> &'static str {
        "none"
    }

    /// How much of its deadline window the workflow has left at `now`, in
    /// `[0, 1]` — `0.0` means the deadline is due (or blown), `1.0` means
    /// the whole window remains. The driver's risk-aware placement treats
    /// workflows below a slack threshold as deadline-critical and steers
    /// them away from failure-prone nodes.
    ///
    /// The default derives slack from the workflow spec alone (remaining
    /// time over the relative deadline), which serves every baseline;
    /// schedulers with richer progress state (WOHA's lag) override it.
    fn slack_fraction(&self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) -> f64 {
        spec_slack_fraction(pool, wf, now)
    }

    /// Plans generated with proactive failure padding applied (see
    /// `woha-core`'s plan padding). Schedulers without plan generation
    /// report zero.
    fn plans_padded(&self) -> u64 {
        0
    }
}

/// The spec-based slack fraction shared by the default
/// [`WorkflowScheduler::slack_fraction`] and scheduler overrides that
/// refine it: time remaining to the deadline over the relative deadline,
/// clamped to `[0, 1]`. A workflow with no deadline reports full slack and
/// is therefore never deadline-critical.
pub fn spec_slack_fraction(pool: &WorkflowPool, wf: WorkflowId, now: SimTime) -> f64 {
    let spec = pool.workflow(wf).spec();
    if spec.deadline() == SimTime::MAX {
        return 1.0;
    }
    let window = spec.relative_deadline().as_millis().max(1) as f64;
    let left = spec.deadline().saturating_since(now).as_millis() as f64;
    (left / window).clamp(0.0, 1.0)
}

/// Picks the first eligible job of `wf` in job-id order — the common
/// "any task from this workflow" fallback used by several schedulers.
pub fn first_eligible_job(pool: &WorkflowPool, wf: WorkflowId, kind: SlotKind) -> Option<JobId> {
    pool.workflow(wf)
        .active_jobs()
        .find(|&j| pool.eligible(wf, j, kind))
}

/// A minimal reference scheduler: workflows in submission (id) order, jobs
/// in id order. Useful for driver tests; the paper's baselines (FIFO by job
/// submission time, Fair, EDF) live in `woha-core`.
#[derive(Debug, Default, Clone)]
pub struct SubmitOrderScheduler;

impl SubmitOrderScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        SubmitOrderScheduler
    }
}

impl SchedulerState for SubmitOrderScheduler {}

impl WorkflowScheduler for SubmitOrderScheduler {
    fn name(&self) -> &str {
        "submit-order"
    }

    fn assign_task(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        _now: SimTime,
    ) -> Option<(WorkflowId, JobId)> {
        if pool.ready_workflows(kind) == 0 {
            return None;
        }
        pool.incomplete()
            .filter(|&wf| pool.workflow(wf).has_eligible_task(kind))
            .find_map(|wf| first_eligible_job(pool, wf, kind).map(|job| (wf, job)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_order_on_empty_pool() {
        let pool = WorkflowPool::new();
        let mut s = SubmitOrderScheduler::new();
        assert_eq!(s.assign_task(&pool, SlotKind::Map, SimTime::ZERO), None);
        assert_eq!(s.name(), "submit-order");
    }
}
