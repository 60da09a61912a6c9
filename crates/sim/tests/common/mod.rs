//! Shared by the property tests: arbitrary small workflows, and random
//! walks over a [`WorkflowPool`]'s lifecycle that between them call every
//! mutator the pool and its workflows have.

use proptest::collection::{vec, SizeRange};
use proptest::prelude::*;
use woha_model::{JobId, JobSpec, SimDuration, SimTime, SlotKind, WorkflowBuilder, WorkflowSpec};
use woha_sim::{JobPhase, WorkflowPool};

/// An arbitrary small workflow: forward-edge layered DAG, 2–6 jobs.
pub fn arb_workflow() -> impl Strategy<Value = WorkflowSpec> {
    (
        2usize..6,
        vec((0usize..6, 0usize..6), 0..8),
        vec((1u32..5, 0u32..3, 5u64..40, 5u64..80), 6),
        30u64..120,
    )
        .prop_map(|(n, edges, jobs, deadline_mins)| {
            let mut b = WorkflowBuilder::new("prop");
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    let (m, r, md, rd) = jobs[i];
                    b.add_job(JobSpec::new(
                        format!("j{i}"),
                        m,
                        r,
                        SimDuration::from_secs(md),
                        SimDuration::from_secs(rd),
                    ))
                })
                .collect();
            for (a, z) in edges {
                let (a, z) = (a % n, z % n);
                if a < z {
                    b.add_dependency(ids[a], ids[z]);
                }
            }
            b.relative_deadline(SimDuration::from_mins(deadline_mins));
            b.build().expect("forward edges are acyclic")
        })
}

/// One random lifecycle step: `(site, step)` codes, see [`apply_op`].
pub type Op = (usize, usize);

/// Strategy for a random walk of `len` steps.
pub fn arb_ops(len: impl Into<SizeRange>) -> impl Strategy<Value = Vec<Op>> {
    vec((0usize..1024, 0usize..STEPS.len()), len)
}

/// The mutators a walk can call (`finish_task` brings `satisfy_prereq` and
/// `begin_submitting` of the dependents with it).
#[derive(Debug, Clone, Copy)]
enum Step {
    Register,
    SubmitRoot,
    Activate,
    Start,
    Finish,
    Fail,
    StartSpeculative,
    FinishSpeculative,
    InvalidateMaps,
}

/// Step codes, weighted toward starts and finishes so walks complete jobs.
const STEPS: [Step; 16] = [
    Step::Register,
    Step::SubmitRoot,
    Step::SubmitRoot,
    Step::Activate,
    Step::Activate,
    Step::Start,
    Step::Start,
    Step::Start,
    Step::Finish,
    Step::Finish,
    Step::Finish,
    Step::Fail,
    Step::StartSpeculative,
    Step::FinishSpeculative,
    Step::InvalidateMaps,
    Step::InvalidateMaps,
];

fn running(pool: &WorkflowPool, wf: usize, job: JobId, kind: SlotKind) -> u32 {
    let j = pool.workflows()[wf].job(job);
    match kind {
        SlotKind::Map => j.running_maps(),
        SlotKind::Reduce => j.running_reduces(),
    }
}

/// Whether `step`'s precondition holds at `(wf, job, kind)`. Steps that do
/// not depend on the job or the kind are legal at one of them only, so
/// every legal step is listed once. Nothing else constrains a walk — a
/// speculative twin may outlive its original, completed maps may be
/// invalidated under running reduces — so it reaches every state the
/// driver can, and more.
fn legal(pool: &WorkflowPool, step: Step, wf: usize, job: JobId, kind: SlotKind) -> bool {
    let w = &pool.workflows()[wf];
    let j = w.job(job);
    let once = kind == SlotKind::Map;
    match step {
        Step::Register => once && job.index() == 0 && pool.len() < 6,
        Step::SubmitRoot => {
            once && j.phase() == JobPhase::Blocked && w.spec().prerequisites(job).is_empty()
        }
        Step::Activate => once && j.phase() == JobPhase::Submitting,
        Step::Start => pool.eligible(w.id(), job, kind),
        Step::Finish | Step::Fail | Step::StartSpeculative => running(pool, wf, job, kind) > 0,
        // A cancelled twin is never a job's last task: only `finish_task`
        // marks a job complete.
        Step::FinishSpeculative => {
            let left =
                j.pending_maps() + j.running_maps() + j.pending_reduces() + j.running_reduces();
            running(pool, wf, job, kind) > 0 && left > 1
        }
        Step::InvalidateMaps => once && j.completed_maps() > 0 && j.phase() != JobPhase::Complete,
    }
}

/// Finishes one running task; a completed job unblocks its dependents,
/// exactly as the driver does.
fn finish(pool: &mut WorkflowPool, wf: usize, job: JobId, kind: SlotKind, now: SimTime) {
    let id = pool.workflows()[wf].id();
    if !pool.workflow_mut(id).finish_task(job, kind, now) {
        return;
    }
    let deps: Vec<JobId> = pool.workflow(id).spec().dependents(job).to_vec();
    for dep in deps {
        if pool.workflow_mut(id).satisfy_prereq(dep) {
            pool.workflow_mut(id).begin_submitting(dep);
        }
    }
}

/// Applies one step: the first step at or after code `step` (cyclically)
/// that is legal anywhere in the pool, at the `site`-th place it is legal.
pub fn apply_op(pool: &mut WorkflowPool, (site, step): Op, now: SimTime) {
    for offset in 0..STEPS.len() {
        let step = STEPS[(step + offset) % STEPS.len()];
        let mut sites = Vec::new();
        for (wf, w) in pool.workflows().iter().enumerate() {
            for job in w.spec().job_ids() {
                for kind in SlotKind::ALL {
                    if legal(pool, step, wf, job, kind) {
                        sites.push((wf, job, kind));
                    }
                }
            }
        }
        if sites.is_empty() {
            continue;
        }
        let (wf, job, kind) = sites[site % sites.len()];
        let id = pool.workflows()[wf].id();
        match step {
            Step::Register => {
                let spec = pool.workflow(id).spec().clone();
                pool.register(spec);
            }
            Step::SubmitRoot => pool.workflow_mut(id).begin_submitting(job),
            Step::Activate => pool.workflow_mut(id).activate(job),
            Step::Start => pool.workflow_mut(id).start_task(job, kind),
            Step::Finish => finish(pool, wf, job, kind, now),
            Step::Fail => pool.workflow_mut(id).fail_task(job, kind),
            Step::StartSpeculative => pool.workflow_mut(id).start_speculative(job, kind),
            Step::FinishSpeculative => pool.workflow_mut(id).finish_speculative(job, kind),
            Step::InvalidateMaps => {
                let done = pool.workflow(id).job(job).completed_maps();
                let count = 1 + site as u32 % done;
                pool.workflow_mut(id).invalidate_completed_maps(job, count);
            }
        }
        return;
    }
}

/// Drives every workflow to completion from wherever the walk left it,
/// calling `check` after each step.
///
/// # Panics
///
/// Panics if a workflow is still incomplete after one round per job.
#[allow(dead_code)] // each test crate compiles this module; not all drain
pub fn drain(pool: &mut WorkflowPool, now: SimTime, mut check: impl FnMut(&WorkflowPool)) {
    let rounds: usize = pool.workflows().iter().map(|w| w.spec().job_count()).sum();
    for _ in 0..=rounds {
        for wf in 0..pool.len() {
            let id = pool.workflows()[wf].id();
            let jobs: Vec<JobId> = pool.workflow(id).spec().job_ids().collect();
            for job in jobs {
                if legal(pool, Step::SubmitRoot, wf, job, SlotKind::Map) {
                    pool.workflow_mut(id).begin_submitting(job);
                    check(pool);
                }
                if pool.workflow(id).job(job).phase() == JobPhase::Submitting {
                    pool.workflow_mut(id).activate(job);
                    check(pool);
                }
                for kind in SlotKind::ALL {
                    while pool.eligible(id, job, kind) {
                        pool.workflow_mut(id).start_task(job, kind);
                        check(pool);
                    }
                    while running(pool, wf, job, kind) > 0 {
                        finish(pool, wf, job, kind, now);
                        check(pool);
                    }
                }
            }
        }
    }
    assert_eq!(pool.incomplete().count(), 0, "drain left work behind");
}
