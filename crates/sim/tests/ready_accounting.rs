//! Differential test of the pool's ready accounting: after every step of a
//! random walk through all ten lifecycle mutators (`register`,
//! `begin_submitting`, `satisfy_prereq`, `activate`, `start_task`,
//! `start_speculative`, `finish_speculative`, `fail_task`,
//! `invalidate_completed_maps`, `finish_task`), and then through job and
//! workflow completion, the incrementally kept per-workflow and per-pool
//! counters equal a recomputation from the job counters.

mod common;

use common::{apply_op, arb_ops, arb_workflow, drain};
use proptest::collection::vec;
use proptest::prelude::*;
use woha_model::{SimDuration, SimTime, SlotKind};
use woha_sim::WorkflowPool;

/// Recomputes every counter from `JobState::eligible_tasks`, the
/// definition of eligibility, and compares.
fn assert_counters_match(pool: &WorkflowPool) {
    for kind in SlotKind::ALL {
        let mut ready = 0;
        let mut tasks = 0;
        for w in pool.workflows() {
            let eligible: u64 = w
                .spec()
                .job_ids()
                .map(|j| u64::from(w.job(j).eligible_tasks(kind)))
                .sum();
            assert_eq!(w.eligible_tasks(kind), eligible, "{} {kind}", w.id());
            assert_eq!(w.has_eligible_task(kind), eligible > 0, "{} {kind}", w.id());
            ready += usize::from(eligible > 0);
            tasks += eligible;
        }
        assert_eq!(pool.ready_workflows(kind), ready, "ready workflows, {kind}");
        assert_eq!(
            pool.eligible_task_count(kind),
            tasks,
            "eligible tasks, {kind}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn counters_equal_recomputation_after_every_step(
        workflows in vec(arb_workflow(), 1..4),
        ops in arb_ops(0..300),
    ) {
        let mut pool = WorkflowPool::new();
        for w in &workflows {
            pool.register(w.clone());
        }
        assert_counters_match(&pool);
        let mut now = SimTime::ZERO;
        for op in ops {
            now = now.saturating_add(SimDuration::from_secs(1));
            apply_op(&mut pool, op, now);
            assert_counters_match(&pool);
        }
        drain(&mut pool, now, assert_counters_match);
        for kind in SlotKind::ALL {
            prop_assert_eq!(pool.ready_workflows(kind), 0);
            prop_assert_eq!(pool.eligible_task_count(kind), 0);
        }
    }
}

/// The three places `maps_done` flips, each releasing or re-blocking the
/// job's reduces: the last map finishing, a speculative map twin being
/// cancelled after its original finished, and a completed map output being
/// invalidated while reduces are pending.
#[test]
fn maps_done_flips_move_the_reduce_counters() {
    use woha_model::{JobId, JobSpec, WorkflowBuilder};
    let mut b = WorkflowBuilder::new("w");
    b.add_job(JobSpec::new(
        "j",
        1,
        2,
        SimDuration::from_secs(10),
        SimDuration::from_secs(10),
    ));
    let mut pool = WorkflowPool::new();
    let wf = pool.register(b.build().unwrap());
    let (j, t) = (JobId::new(0), SimTime::ZERO);
    let reduces = |pool: &WorkflowPool| {
        (
            pool.ready_workflows(SlotKind::Reduce),
            pool.eligible_task_count(SlotKind::Reduce),
        )
    };

    pool.workflow_mut(wf).begin_submitting(j);
    pool.workflow_mut(wf).activate(j);
    assert_eq!(pool.eligible_task_count(SlotKind::Map), 1);
    pool.workflow_mut(wf).start_task(j, SlotKind::Map);
    pool.workflow_mut(wf).start_speculative(j, SlotKind::Map);
    assert_eq!(pool.ready_workflows(SlotKind::Map), 0);

    // The original finishes, the twin still holds a slot: maps not done.
    pool.workflow_mut(wf).finish_task(j, SlotKind::Map, t);
    assert_eq!(reduces(&pool), (0, 0));
    // Cancelling the twin is what releases the reduces.
    pool.workflow_mut(wf).finish_speculative(j, SlotKind::Map);
    assert_eq!(reduces(&pool), (1, 2));
    // Losing the map output re-blocks them and re-queues the map...
    pool.workflow_mut(wf).invalidate_completed_maps(j, 1);
    assert_eq!(reduces(&pool), (0, 0));
    assert_eq!(pool.eligible_task_count(SlotKind::Map), 1);
    // ...and re-running it releases them again.
    pool.workflow_mut(wf).start_task(j, SlotKind::Map);
    pool.workflow_mut(wf).finish_task(j, SlotKind::Map, t);
    assert_eq!(reduces(&pool), (1, 2));
    assert_counters_match(&pool);
}
