//! Runtime state of workflows and jobs inside the simulated JobTracker.
//!
//! [`WorkflowPool`] is the JobTracker's internal bookkeeping *and* the
//! read-only view handed to [`WorkflowScheduler`](crate::WorkflowScheduler)
//! implementations: schedulers inspect it to pick a `(workflow, job)` pair
//! but only the driver mutates it.
//!
//! # Ready accounting
//!
//! Most slot offers find nothing to schedule, so "is anything eligible?"
//! must not cost a walk. Eligibility is therefore kept incrementally at
//! three levels, each derived from the one below:
//!
//! - a job's [`JobState::eligible_tasks`] is a function of its own
//!   counters (pending maps while active; pending reduces once
//!   [`JobState::maps_done`]);
//! - a workflow carries the per-[`SlotKind`] sum over its jobs — every
//!   mutator goes through one helper that folds the mutated job's
//!   before/after difference into the sum, which also covers the three
//!   places `maps_done` can flip and release or re-block a job's reduces
//!   (`finish_task`, `finish_speculative`, `invalidate_completed_maps`);
//! - the pool carries, per kind, how many workflows have at least one
//!   eligible task and the total over all workflows, reconciled when the
//!   [`WorkflowMut`] guard handed out by [`WorkflowPool::workflow_mut`]
//!   drops.
//!
//! The totals are derived state: they are not part of the serialized form
//! and are recounted from the job counters on decode, as is the pool's
//! activation counter (see [`JobState::ordinal`]).
//!
//! # Sharing
//!
//! The pool holds each workflow behind an [`Arc`] and its spec behind
//! another, so cloning a pool (a master checkpoint does, every tick) copies
//! pointers. [`WorkflowPool::workflow_mut`] goes through [`Arc::make_mut`]:
//! the first mutation of a workflow a clone still shares copies its job
//! counters, and a workflow nobody mutates again — every completed one — is
//! stored once however many clones name it.

use serde::{Deserialize, Serialize, Value};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use woha_model::{JobId, SimTime, SlotKind, WorkflowId, WorkflowSpec};

/// Lifecycle of one wjob inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Waiting for prerequisite jobs to finish.
    Blocked,
    /// Prerequisites done; the submitter map task is loading the jar and
    /// initializing tasks (WOHA's on-demand submission, §III-A).
    Submitting,
    /// Schedulable: tasks may be assigned.
    Active,
    /// All tasks finished.
    Complete,
}

/// Runtime counters of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobState {
    phase: JobPhase,
    remaining_prereqs: usize,
    pending_maps: u32,
    running_maps: u32,
    completed_maps: u32,
    pending_reduces: u32,
    running_reduces: u32,
    completed_reduces: u32,
    retried_maps: u32,
    retried_reduces: u32,
    /// Jobs the pool activated before this one; `None` until activated.
    ordinal: Option<u64>,
    completed_at: Option<SimTime>,
}

impl JobState {
    fn new(spec_maps: u32, spec_reduces: u32, prereqs: usize) -> Self {
        JobState {
            phase: JobPhase::Blocked,
            remaining_prereqs: prereqs,
            pending_maps: spec_maps,
            running_maps: 0,
            completed_maps: 0,
            pending_reduces: spec_reduces,
            running_reduces: 0,
            completed_reduces: 0,
            retried_maps: 0,
            retried_reduces: 0,
            ordinal: None,
            completed_at: None,
        }
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> JobPhase {
        self.phase
    }

    /// Map tasks not yet assigned to a slot.
    pub fn pending_maps(&self) -> u32 {
        self.pending_maps
    }

    /// Map tasks currently running.
    pub fn running_maps(&self) -> u32 {
        self.running_maps
    }

    /// Map tasks finished.
    pub fn completed_maps(&self) -> u32 {
        self.completed_maps
    }

    /// Reduce tasks not yet assigned to a slot.
    pub fn pending_reduces(&self) -> u32 {
        self.pending_reduces
    }

    /// Reduce tasks currently running.
    pub fn running_reduces(&self) -> u32 {
        self.running_reduces
    }

    /// Reduce tasks finished.
    pub fn completed_reduces(&self) -> u32 {
        self.completed_reduces
    }

    /// Tasks of `kind` that failed and were re-queued for execution.
    pub fn retried(&self, kind: SlotKind) -> u32 {
        match kind {
            SlotKind::Map => self.retried_maps,
            SlotKind::Reduce => self.retried_reduces,
        }
    }

    /// Whether every map task has finished (reducers may start only then).
    pub fn maps_done(&self) -> bool {
        self.pending_maps == 0 && self.running_maps == 0
    }

    /// Pending tasks of the given kind that are *eligible* right now:
    /// pending maps while active, pending reduces once all maps finished.
    pub fn eligible_tasks(&self, kind: SlotKind) -> u32 {
        if self.phase != JobPhase::Active {
            return 0;
        }
        match kind {
            SlotKind::Map => self.pending_maps,
            SlotKind::Reduce => {
                if self.maps_done() {
                    self.pending_reduces
                } else {
                    0
                }
            }
        }
    }

    /// How many jobs the pool activated before this one — its place in the
    /// JobTracker's job list — or `None` until it is activated.
    pub fn ordinal(&self) -> Option<u64> {
        self.ordinal
    }

    /// When the job finished, if it has.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }
}

/// Runtime state of one workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowState {
    id: WorkflowId,
    /// Immutable, so shared with the driver's arrival ledger and with every
    /// copy [`Arc::make_mut`] makes of this state.
    spec: Arc<WorkflowSpec>,
    jobs: Vec<JobState>,
    jobs_completed: usize,
    tasks_scheduled: u64,
    finished_at: Option<SimTime>,
    /// Eligible tasks per [`SlotKind`] summed over `jobs` (see the module
    /// docs); derived, so absent from the serialized form.
    eligible: [u64; 2],
}

/// Sum of [`JobState::eligible_tasks`] over `jobs`, per kind.
fn count_eligible(jobs: &[JobState]) -> [u64; 2] {
    SlotKind::ALL.map(|kind| jobs.iter().map(|j| u64::from(j.eligible_tasks(kind))).sum())
}

// Hand-written so the derived `eligible` totals stay out of the encoding
// (the vendored derive has no `skip`): the shape is exactly what
// `#[derive(Serialize, Deserialize)]` produced before the totals existed.
impl Serialize for WorkflowState {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("id".to_owned(), self.id.to_value()),
            ("spec".to_owned(), self.spec.to_value()),
            ("jobs".to_owned(), self.jobs.to_value()),
            ("jobs_completed".to_owned(), self.jobs_completed.to_value()),
            (
                "tasks_scheduled".to_owned(),
                self.tasks_scheduled.to_value(),
            ),
            ("finished_at".to_owned(), self.finished_at.to_value()),
        ])
    }
}

impl Deserialize for WorkflowState {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for `WorkflowState`"))?;
        let jobs: Vec<JobState> = serde::__field(obj, "jobs")?;
        Ok(WorkflowState {
            id: serde::__field(obj, "id")?,
            spec: Arc::new(serde::__field(obj, "spec")?),
            eligible: count_eligible(&jobs),
            jobs,
            jobs_completed: serde::__field(obj, "jobs_completed")?,
            tasks_scheduled: serde::__field(obj, "tasks_scheduled")?,
            finished_at: serde::__field(obj, "finished_at")?,
        })
    }
}

impl WorkflowState {
    pub(crate) fn new(id: WorkflowId, spec: Arc<WorkflowSpec>) -> Self {
        let jobs = spec
            .job_ids()
            .map(|j| {
                JobState::new(
                    spec.job(j).map_tasks(),
                    spec.job(j).reduce_tasks(),
                    spec.prerequisites(j).len(),
                )
            })
            .collect();
        WorkflowState {
            id,
            spec,
            jobs,
            jobs_completed: 0,
            tasks_scheduled: 0,
            finished_at: None,
            // Every job starts blocked.
            eligible: [0; 2],
        }
    }

    /// The workflow's id.
    pub fn id(&self) -> WorkflowId {
        self.id
    }

    /// The static workflow specification.
    pub fn spec(&self) -> &WorkflowSpec {
        &self.spec
    }

    /// State of one job.
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    pub fn job(&self, job: JobId) -> &JobState {
        &self.jobs[job.index()]
    }

    /// Number of jobs that have completed.
    pub fn jobs_completed(&self) -> usize {
        self.jobs_completed
    }

    /// Whether every job has completed.
    pub fn is_complete(&self) -> bool {
        self.jobs_completed == self.jobs.len()
    }

    /// When the workflow finished, if it has.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// The *true progress* `ρ_i` (paper §IV-B): total number of tasks of
    /// this workflow that have been handed to slots so far.
    pub fn tasks_scheduled(&self) -> u64 {
        self.tasks_scheduled
    }

    /// Jobs currently in [`JobPhase::Active`], in job-id order.
    pub fn active_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.phase == JobPhase::Active)
            .map(|(i, _)| JobId::new(i as u32))
    }

    /// Total tasks of this workflow currently running on slots (both
    /// kinds) — the usage quantity a fair scheduler balances.
    pub fn running_tasks(&self) -> u64 {
        self.jobs
            .iter()
            .map(|j| u64::from(j.running_maps + j.running_reduces))
            .sum()
    }

    /// Whether any active job has an eligible task of `kind`. O(1).
    pub fn has_eligible_task(&self, kind: SlotKind) -> bool {
        self.eligible[kind as usize] > 0
    }

    /// Total eligible tasks of `kind` across active jobs. O(1).
    pub fn eligible_tasks(&self, kind: SlotKind) -> u64 {
        self.eligible[kind as usize]
    }

    // ---- mutations ---------------------------------------------------
    //
    // These drive the job lifecycle. The built-in simulator driver calls
    // them; they are public so custom drivers and scheduler tests can
    // construct mid-execution states.

    /// The single path by which a job's counters change: applies `f` and
    /// folds the job's eligible-task difference into the workflow totals,
    /// whatever `f` did to the phase or to `maps_done`.
    fn update_job<R>(&mut self, job: JobId, f: impl FnOnce(&mut JobState) -> R) -> R {
        let j = &mut self.jobs[job.index()];
        let before = SlotKind::ALL.map(|kind| j.eligible_tasks(kind));
        let result = f(j);
        for kind in SlotKind::ALL {
            let total = &mut self.eligible[kind as usize];
            *total = *total + u64::from(j.eligible_tasks(kind)) - u64::from(before[kind as usize]);
        }
        result
    }

    /// Marks prerequisites of `job` satisfied by one completed predecessor;
    /// returns true when the job has no remaining prerequisites.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the job has no outstanding prerequisites.
    pub fn satisfy_prereq(&mut self, job: JobId) -> bool {
        self.update_job(job, |j| {
            debug_assert!(j.remaining_prereqs > 0, "over-satisfied prerequisite");
            j.remaining_prereqs -= 1;
            j.remaining_prereqs == 0
        })
    }

    /// Moves a job from [`JobPhase::Blocked`] to [`JobPhase::Submitting`]
    /// (its submitter map task starts).
    ///
    /// # Panics
    ///
    /// Debug builds panic unless the job is blocked.
    pub fn begin_submitting(&mut self, job: JobId) {
        self.update_job(job, |j| {
            debug_assert_eq!(j.phase, JobPhase::Blocked);
            j.phase = JobPhase::Submitting;
        });
    }

    /// Records a task assignment; updates true progress.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the job has no eligible task of `kind`.
    pub fn start_task(&mut self, job: JobId, kind: SlotKind) {
        self.update_job(job, |j| {
            debug_assert!(j.eligible_tasks(kind) > 0, "assigning ineligible task");
            match kind {
                SlotKind::Map => {
                    j.pending_maps -= 1;
                    j.running_maps += 1;
                }
                SlotKind::Reduce => {
                    j.pending_reduces -= 1;
                    j.running_reduces += 1;
                }
            }
        });
        self.tasks_scheduled += 1;
    }

    /// Records the start of a *speculative duplicate* attempt: it occupies
    /// a slot (running count rises) but does not consume a pending task or
    /// advance true progress.
    pub fn start_speculative(&mut self, job: JobId, kind: SlotKind) {
        self.update_job(job, |j| match kind {
            SlotKind::Map => j.running_maps += 1,
            SlotKind::Reduce => j.running_reduces += 1,
        });
    }

    /// Reverses [`start_speculative`](Self::start_speculative) when the
    /// duplicate is cancelled or loses the race.
    ///
    /// # Panics
    ///
    /// Debug builds panic if no task of `kind` is running.
    pub fn finish_speculative(&mut self, job: JobId, kind: SlotKind) {
        self.update_job(job, |j| match kind {
            SlotKind::Map => {
                debug_assert!(j.running_maps > 0);
                j.running_maps -= 1;
            }
            SlotKind::Reduce => {
                debug_assert!(j.running_reduces > 0);
                j.running_reduces -= 1;
            }
        });
    }

    /// Records a failed task attempt: the task leaves its slot and is
    /// queued for re-execution.
    ///
    /// # Panics
    ///
    /// Debug builds panic if no task of `kind` is running.
    pub fn fail_task(&mut self, job: JobId, kind: SlotKind) {
        self.update_job(job, |j| match kind {
            SlotKind::Map => {
                debug_assert!(j.running_maps > 0);
                j.running_maps -= 1;
                j.pending_maps += 1;
                j.retried_maps += 1;
            }
            SlotKind::Reduce => {
                debug_assert!(j.running_reduces > 0);
                j.running_reduces -= 1;
                j.pending_reduces += 1;
                j.retried_reduces += 1;
            }
        });
    }

    /// Invalidates `count` completed map outputs of `job` after their host
    /// node was lost: the maps re-enter the pending queue and count as
    /// retries. Hadoop-1 re-executes such maps because reducers fetch
    /// intermediate output from the mapper's local disk.
    ///
    /// # Panics
    ///
    /// Debug builds panic if fewer than `count` maps have completed, or the
    /// job already finished (its reducers no longer need map output).
    pub fn invalidate_completed_maps(&mut self, job: JobId, count: u32) {
        self.update_job(job, |j| {
            debug_assert!(j.completed_maps >= count, "invalidating unfinished maps");
            debug_assert_ne!(j.phase, JobPhase::Complete, "job no longer needs maps");
            j.completed_maps -= count;
            j.pending_maps += count;
            j.retried_maps += count;
        });
    }

    /// Records a task completion; returns true when the whole job finished.
    ///
    /// # Panics
    ///
    /// Debug builds panic if no task of `kind` is running.
    pub fn finish_task(&mut self, job: JobId, kind: SlotKind, now: SimTime) -> bool {
        let job_done = self.update_job(job, |j| {
            match kind {
                SlotKind::Map => {
                    debug_assert!(j.running_maps > 0);
                    j.running_maps -= 1;
                    j.completed_maps += 1;
                }
                SlotKind::Reduce => {
                    debug_assert!(j.running_reduces > 0);
                    j.running_reduces -= 1;
                    j.completed_reduces += 1;
                }
            }
            let done = j.maps_done()
                && j.pending_reduces == 0
                && j.running_reduces == 0
                && j.phase == JobPhase::Active;
            if done {
                j.phase = JobPhase::Complete;
                j.completed_at = Some(now);
            }
            done
        });
        if job_done {
            self.jobs_completed += 1;
            if self.is_complete() {
                self.finished_at = Some(now);
            }
        }
        job_done
    }
}

/// Pool-level ready accounting, per [`SlotKind`] (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ReadyCounts {
    /// Workflows with at least one eligible task.
    workflows: [usize; 2],
    /// Eligible tasks over all workflows.
    tasks: [u64; 2],
}

impl ReadyCounts {
    /// Replaces one workflow's contribution `was` by `is`.
    fn replace(&mut self, was: [u64; 2], is: [u64; 2]) {
        for kind in 0..2 {
            self.tasks[kind] = self.tasks[kind] + is[kind] - was[kind];
            match (was[kind] > 0, is[kind] > 0) {
                (false, true) => self.workflows[kind] += 1,
                (true, false) => self.workflows[kind] -= 1,
                _ => {}
            }
        }
    }
}

/// All workflows known to the JobTracker, indexed by [`WorkflowId`].
///
/// Ids are assigned densely in submission order, so `WorkflowId::as_u64()`
/// indexes into the pool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkflowPool {
    /// Shared copy-on-write with every clone (see the module docs).
    workflows: Vec<Arc<WorkflowState>>,
    /// Derived from `workflows`; absent from the serialized form.
    ready: ReadyCounts,
    /// Jobs activated so far: the next activation ordinal. Derived from
    /// `workflows`; absent from the serialized form.
    activated: u64,
}

// Hand-written for the same reason as `WorkflowState`'s: the encoding is
// the `{ workflows }` object the derive produced, `ready` and `activated`
// are recounted.
impl Serialize for WorkflowPool {
    fn to_value(&self) -> Value {
        let workflows = self.workflows.iter().map(|w| w.to_value()).collect();
        Value::Object(vec![("workflows".to_owned(), Value::Array(workflows))])
    }
}

impl Deserialize for WorkflowPool {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for `WorkflowPool`"))?;
        let workflows: Vec<WorkflowState> = serde::__field(obj, "workflows")?;
        Ok(WorkflowPool::from_workflows(
            workflows.into_iter().map(Arc::new).collect(),
        ))
    }
}

/// Exclusive access to one workflow of a [`WorkflowPool`], handed out by
/// [`WorkflowPool::workflow_mut`]. It dereferences to the
/// [`WorkflowState`], so the lifecycle mutators are called on it directly;
/// when it drops, the pool's ready accounting absorbs whatever they did to
/// the workflow's eligible tasks. The pool cannot be read while the guard
/// lives, so the two are never observed out of step.
#[derive(Debug)]
pub struct WorkflowMut<'a> {
    state: &'a mut WorkflowState,
    ready: &'a mut ReadyCounts,
    activated: &'a mut u64,
    before: [u64; 2],
}

impl Deref for WorkflowMut<'_> {
    type Target = WorkflowState;

    fn deref(&self) -> &WorkflowState {
        self.state
    }
}

impl DerefMut for WorkflowMut<'_> {
    fn deref_mut(&mut self) -> &mut WorkflowState {
        self.state
    }
}

impl WorkflowMut<'_> {
    /// Moves a job from [`JobPhase::Submitting`] to [`JobPhase::Active`],
    /// stamping it with the pool's next activation ordinal.
    ///
    /// # Panics
    ///
    /// Debug builds panic unless the job is submitting.
    pub fn activate(&mut self, job: JobId) {
        let ordinal = *self.activated;
        self.state.update_job(job, |j| {
            debug_assert_eq!(j.phase, JobPhase::Submitting);
            j.phase = JobPhase::Active;
            j.ordinal = Some(ordinal);
        });
        *self.activated += 1;
    }
}

impl Drop for WorkflowMut<'_> {
    fn drop(&mut self) {
        // Not while unwinding: a second panic would abort the process.
        debug_assert!(
            std::thread::panicking() || self.state.eligible == count_eligible(&self.state.jobs),
            "eligible-task totals drifted from the job counters"
        );
        self.ready.replace(self.before, self.state.eligible);
    }
}

impl WorkflowPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        WorkflowPool::default()
    }

    /// A pool of `workflows`, its ready totals and activation counter
    /// recounted from them.
    fn from_workflows(workflows: Vec<Arc<WorkflowState>>) -> Self {
        let mut pool = WorkflowPool {
            workflows,
            ..WorkflowPool::default()
        };
        for w in &pool.workflows {
            pool.ready.replace([0; 2], w.eligible);
            pool.activated += w.jobs.iter().filter(|j| j.ordinal.is_some()).count() as u64;
        }
        pool
    }

    /// `Self::from_value(&self.to_value())` with one workflow's tree alive
    /// at a time instead of the whole pool's; each original is dropped as
    /// soon as its copy exists.
    pub(crate) fn reread(self) -> Result<Self, serde::Error> {
        let workflows = self
            .workflows
            .into_iter()
            .map(|w| WorkflowState::from_value(&w.to_value()).map(Arc::new))
            .collect::<Result<_, _>>()?;
        Ok(WorkflowPool::from_workflows(workflows))
    }

    /// Registers a workflow, returning its new id. Called by the driver on
    /// workflow arrival (with the `Arc` its arrival ledger holds); public
    /// for custom drivers and tests.
    pub fn register(&mut self, spec: impl Into<Arc<WorkflowSpec>>) -> WorkflowId {
        let id = WorkflowId::new(self.workflows.len() as u64);
        // Every job starts blocked, so `ready` is unaffected.
        self.workflows
            .push(Arc::new(WorkflowState::new(id, spec.into())));
        id
    }

    /// The workflow with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this pool.
    pub fn workflow(&self, id: WorkflowId) -> &WorkflowState {
        &self.workflows[id.as_u64() as usize]
    }

    /// Mutable access to a workflow's runtime state (drivers only;
    /// schedulers receive `&WorkflowPool`). This is the only way to mutate
    /// a pooled workflow, and the returned guard keeps
    /// [`ready_workflows`](Self::ready_workflows) and
    /// [`eligible_task_count`](Self::eligible_task_count) in step. A
    /// workflow another clone of the pool still shares is copied first.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this pool.
    pub fn workflow_mut(&mut self, id: WorkflowId) -> WorkflowMut<'_> {
        let state = Arc::make_mut(&mut self.workflows[id.as_u64() as usize]);
        WorkflowMut {
            before: state.eligible,
            state,
            ready: &mut self.ready,
            activated: &mut self.activated,
        }
    }

    /// Number of workflows with at least one eligible task of `kind`.
    /// O(1). Zero means no slot of `kind` can be filled right now, so
    /// [`WorkflowScheduler::assign_task`](crate::WorkflowScheduler::assign_task)
    /// must return `None`.
    pub fn ready_workflows(&self, kind: SlotKind) -> usize {
        self.ready.workflows[kind as usize]
    }

    /// Eligible tasks of `kind` over all workflows: an upper bound on how
    /// many slots of `kind` one heartbeat can fill. O(1).
    pub fn eligible_task_count(&self, kind: SlotKind) -> u64 {
        self.ready.tasks[kind as usize]
    }

    /// All registered workflows in submission order.
    pub fn workflows(&self) -> &[Arc<WorkflowState>] {
        &self.workflows
    }

    /// Ids of workflows that have been submitted but not completed.
    pub fn incomplete(&self) -> impl Iterator<Item = WorkflowId> + '_ {
        self.workflows
            .iter()
            .filter(|w| !w.is_complete())
            .map(|w| w.id())
    }

    /// Whether the given job may be assigned a task of `kind` right now.
    /// The driver enforces this regardless of what a scheduler returns.
    pub fn eligible(&self, wf: WorkflowId, job: JobId, kind: SlotKind) -> bool {
        self.workflow(wf).job(job).eligible_tasks(kind) > 0
    }

    /// Number of registered workflows.
    pub fn len(&self) -> usize {
        self.workflows.len()
    }

    /// Whether no workflows are registered.
    pub fn is_empty(&self) -> bool {
        self.workflows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use woha_model::{JobSpec, SimDuration, WorkflowBuilder};

    fn two_job_spec() -> WorkflowSpec {
        let mut b = WorkflowBuilder::new("w");
        let a = b.add_job(JobSpec::new(
            "a",
            2,
            1,
            SimDuration::from_secs(10),
            SimDuration::from_secs(20),
        ));
        let z = b.add_job(JobSpec::new(
            "z",
            1,
            0,
            SimDuration::from_secs(5),
            SimDuration::ZERO,
        ));
        b.add_dependency(a, z);
        b.build().unwrap()
    }

    fn pool_with_one() -> (WorkflowPool, WorkflowId) {
        let mut pool = WorkflowPool::new();
        let id = pool.register(two_job_spec());
        (pool, id)
    }

    #[test]
    fn register_assigns_dense_ids() {
        let mut pool = WorkflowPool::new();
        assert!(pool.is_empty());
        let a = pool.register(two_job_spec());
        let b = pool.register(two_job_spec());
        assert_eq!(a, WorkflowId::new(0));
        assert_eq!(b, WorkflowId::new(1));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn job_lifecycle() {
        let (mut pool, id) = pool_with_one();
        let j0 = JobId::new(0);
        let j1 = JobId::new(1);
        let t = SimTime::from_secs(1);

        // Initially blocked.
        assert_eq!(pool.workflow(id).job(j0).phase(), JobPhase::Blocked);
        assert!(!pool.eligible(id, j0, SlotKind::Map));

        // Activate j0.
        pool.workflow_mut(id).begin_submitting(j0);
        pool.workflow_mut(id).activate(j0);
        assert_eq!(pool.workflow(id).job(j0).phase(), JobPhase::Active);
        assert!(pool.eligible(id, j0, SlotKind::Map));
        // Reduces not eligible while maps pending.
        assert!(!pool.eligible(id, j0, SlotKind::Reduce));

        // Run both maps.
        pool.workflow_mut(id).start_task(j0, SlotKind::Map);
        pool.workflow_mut(id).start_task(j0, SlotKind::Map);
        assert_eq!(pool.workflow(id).job(j0).running_maps(), 2);
        assert!(!pool.eligible(id, j0, SlotKind::Map));
        assert!(!pool.workflow_mut(id).finish_task(j0, SlotKind::Map, t));
        // One map still running: reduces stay ineligible.
        assert!(!pool.eligible(id, j0, SlotKind::Reduce));
        assert!(!pool.workflow_mut(id).finish_task(j0, SlotKind::Map, t));
        // All maps done: reduce eligible now.
        assert!(pool.eligible(id, j0, SlotKind::Reduce));

        // Run the reduce; job completes.
        pool.workflow_mut(id).start_task(j0, SlotKind::Reduce);
        let done = pool
            .workflow_mut(id)
            .finish_task(j0, SlotKind::Reduce, SimTime::from_secs(30));
        assert!(done);
        assert_eq!(pool.workflow(id).job(j0).phase(), JobPhase::Complete);
        assert_eq!(
            pool.workflow(id).job(j0).completed_at(),
            Some(SimTime::from_secs(30))
        );
        assert_eq!(pool.workflow(id).jobs_completed(), 1);
        assert!(!pool.workflow(id).is_complete());

        // Unblock and run j1 (map-only).
        assert!(pool.workflow_mut(id).satisfy_prereq(j1));
        pool.workflow_mut(id).begin_submitting(j1);
        pool.workflow_mut(id).activate(j1);
        pool.workflow_mut(id).start_task(j1, SlotKind::Map);
        let done = pool
            .workflow_mut(id)
            .finish_task(j1, SlotKind::Map, SimTime::from_secs(40));
        assert!(done);
        assert!(pool.workflow(id).is_complete());
        assert_eq!(
            pool.workflow(id).finished_at(),
            Some(SimTime::from_secs(40))
        );
        assert_eq!(pool.workflow(id).tasks_scheduled(), 4);
        assert_eq!(pool.incomplete().count(), 0);
    }

    #[test]
    fn eligible_counts() {
        let (mut pool, id) = pool_with_one();
        let j0 = JobId::new(0);
        pool.workflow_mut(id).begin_submitting(j0);
        pool.workflow_mut(id).activate(j0);
        let w = pool.workflow(id);
        assert_eq!(w.eligible_tasks(SlotKind::Map), 2);
        assert_eq!(w.eligible_tasks(SlotKind::Reduce), 0);
        assert!(w.has_eligible_task(SlotKind::Map));
        assert_eq!(w.active_jobs().collect::<Vec<_>>(), vec![j0]);
        assert_eq!(pool.ready_workflows(SlotKind::Map), 1);
        assert_eq!(pool.eligible_task_count(SlotKind::Map), 2);
        assert_eq!(pool.ready_workflows(SlotKind::Reduce), 0);
    }

    #[test]
    fn guard_reconciles_several_mutations_at_once() {
        let (mut pool, id) = pool_with_one();
        let j0 = JobId::new(0);
        {
            let mut w = pool.workflow_mut(id);
            w.begin_submitting(j0);
            w.activate(j0);
            w.start_task(j0, SlotKind::Map);
            assert_eq!(w.eligible_tasks(SlotKind::Map), 1);
        }
        assert_eq!(pool.ready_workflows(SlotKind::Map), 1);
        assert_eq!(pool.eligible_task_count(SlotKind::Map), 1);
        pool.workflow_mut(id).start_task(j0, SlotKind::Map);
        assert_eq!(pool.ready_workflows(SlotKind::Map), 0);
        assert_eq!(pool.eligible_task_count(SlotKind::Map), 0);
    }

    #[test]
    fn a_cloned_pool_shares_untouched_workflows_and_copies_on_write() {
        let j0 = JobId::new(0);
        let mut pool = WorkflowPool::new();
        for _ in 0..3 {
            let id = pool.register(two_job_spec());
            pool.workflow_mut(id).begin_submitting(j0);
            pool.workflow_mut(id).activate(j0);
        }
        let clone = pool.clone();
        let encoded = clone.to_value();

        let touched = WorkflowId::new(1);
        {
            let mut w = pool.workflow_mut(touched);
            w.start_task(j0, SlotKind::Map);
            w.start_task(j0, SlotKind::Map);
        }
        assert_eq!(clone.to_value(), encoded, "the clone saw the write");
        for (live, held) in pool.workflows().iter().zip(clone.workflows()) {
            let id = live.id();
            assert_eq!(Arc::ptr_eq(live, held), id != touched, "workflow {id}");
            assert!(Arc::ptr_eq(&live.spec, &held.spec), "spec of {id}");
        }
        for p in [&pool, &clone] {
            for kind in SlotKind::ALL {
                let counts = p
                    .workflows()
                    .iter()
                    .map(|w| count_eligible(&w.jobs)[kind as usize]);
                let ready = counts.clone().filter(|&n| n > 0).count();
                assert_eq!(p.ready_workflows(kind), ready, "{kind}");
                assert_eq!(p.eligible_task_count(kind), counts.sum::<u64>(), "{kind}");
            }
        }
        assert_eq!(pool.ready_workflows(SlotKind::Map), 2);
        assert_eq!(clone.ready_workflows(SlotKind::Map), 3);
    }
}
