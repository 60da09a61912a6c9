//! The state-of-the-art schedulers the paper ports onto workflows for
//! comparison (§V-B): Oozie+FIFO, Oozie+Fair, and EDF.
//!
//! All three share the *information separation* that motivates WOHA: the
//! "Oozie" side (the simulator driver) submits a wjob only when its
//! prerequisites finish, and the scheduler sees jobs — not workflow
//! topology. FIFO and Fair ignore deadlines entirely; EDF uses only the
//! deadline, not the workflow's shape or progress.
//!
//! None keeps state: job order is the pool's activation ordinal
//! ([`JobState::ordinal`](woha_sim::JobState::ordinal)).

use woha_model::{JobId, SimTime, SlotKind, WorkflowId};
use woha_sim::{SchedulerState, WorkflowPool, WorkflowScheduler};

/// The eligible job of `wf` the pool activated first, with its ordinal.
fn first_activated(pool: &WorkflowPool, wf: WorkflowId, kind: SlotKind) -> Option<(u64, JobId)> {
    let w = pool.workflow(wf);
    if !w.has_eligible_task(kind) {
        return None;
    }
    w.active_jobs()
        .filter(|&job| w.job(job).eligible_tasks(kind) > 0)
        .map(|job| (w.job(job).ordinal().expect("an active job is stamped"), job))
        .min()
}

/// Oozie + the default Hadoop `JobQueueTaskScheduler`: jobs ordered by
/// submission (activation) time; each free slot goes to the first job in
/// that order with an available task.
#[derive(Debug, Default)]
pub struct FifoScheduler;

impl SchedulerState for FifoScheduler {}

impl WorkflowScheduler for FifoScheduler {
    fn name(&self) -> &str {
        "FIFO"
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
            .filter_map(|wf| {
                first_activated(pool, wf, kind).map(|(ordinal, job)| (ordinal, wf, job))
            })
            .min()
            .map(|(_, wf, job)| (wf, job))
    }
}

/// Oozie + a FairScheduler-style policy: every *workflow* gets an even
/// share of the cluster, implemented work-conservingly by always granting
/// the next slot to the eligible workflow currently running the fewest
/// tasks. Within a workflow, jobs are served in activation order.
#[derive(Debug, Default)]
pub struct FairScheduler;

impl SchedulerState for FairScheduler {}

impl WorkflowScheduler for FairScheduler {
    fn name(&self) -> &str {
        "Fair"
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
        // The eligible workflow with the smallest current usage wins the
        // slot; ties go to the earlier workflow id.
        let target = pool
            .incomplete()
            .filter(|&wf| pool.workflow(wf).has_eligible_task(kind))
            .min_by_key(|&wf| (pool.workflow(wf).running_tasks(), wf))?;
        first_activated(pool, target, kind).map(|(_, job)| (target, job))
    }
}

/// Earliest Deadline First over workflows: the workflow with the earliest
/// absolute deadline wins every slot; jobs within it are served in
/// activation order.
#[derive(Debug, Default)]
pub struct EdfScheduler;

impl SchedulerState for EdfScheduler {}

impl WorkflowScheduler for EdfScheduler {
    fn name(&self) -> &str {
        "EDF"
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
        let target = pool
            .incomplete()
            .filter(|&wf| pool.workflow(wf).has_eligible_task(kind))
            .min_by_key(|&wf| (pool.workflow(wf).spec().deadline(), wf))?;
        first_activated(pool, target, kind).map(|(_, job)| (target, job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use woha_model::{JobSpec, SimDuration, WorkflowBuilder, WorkflowSpec};
    use woha_sim::{run_simulation, ClusterConfig, SimConfig, SimReport};

    /// A single fat job: 8 maps x 30s, 2 reduces x 30s.
    fn fat(name: &str, submit_s: u64, deadline_s: u64) -> WorkflowSpec {
        let mut b = WorkflowBuilder::new(name);
        b.add_job(JobSpec::new(
            "j",
            8,
            2,
            SimDuration::from_secs(30),
            SimDuration::from_secs(30),
        ));
        b.submit_at(SimTime::from_secs(submit_s));
        b.relative_deadline(SimDuration::from_secs(deadline_s));
        b.build().unwrap()
    }

    fn run(sched: &mut dyn WorkflowScheduler, workflows: &[WorkflowSpec]) -> SimReport {
        run_simulation(
            workflows,
            sched,
            &ClusterConfig::uniform(2, 2, 1),
            &SimConfig::default(),
        )
    }

    #[test]
    fn all_baselines_complete_work() {
        let workflows = vec![fat("a", 0, 900), fat("b", 5, 900)];
        for sched in [
            &mut FifoScheduler as &mut dyn WorkflowScheduler,
            &mut FairScheduler,
            &mut EdfScheduler,
        ] {
            let report = run(sched, &workflows);
            assert!(report.completed, "{}", sched.name());
            assert_eq!(report.invalid_assignments, 0, "{}", sched.name());
        }
    }

    #[test]
    fn fifo_serves_in_submission_order() {
        // Two workflows contending for 4 map slots: FIFO finishes the first
        // arrival entirely before the second gets slots.
        let workflows = vec![fat("first", 0, 3_000), fat("second", 1, 3_000)];
        let report = run(&mut FifoScheduler, &workflows);
        let f1 = report.outcome_by_name("first").unwrap().finished.unwrap();
        let f2 = report.outcome_by_name("second").unwrap().finished.unwrap();
        assert!(f1 < f2, "FIFO must finish the earlier submission first");
    }

    #[test]
    fn edf_favors_earliest_deadline() {
        // The later-submitted workflow has the earlier deadline: EDF should
        // finish it first, FIFO should not.
        let workflows = vec![
            fat("late-deadline", 0, 3_000),
            fat("early-deadline", 1, 135),
        ];
        let edf = run(&mut EdfScheduler, &workflows);
        let fifo = run(&mut FifoScheduler, &workflows);
        let edf_early = edf
            .outcome_by_name("early-deadline")
            .unwrap()
            .finished
            .unwrap();
        let edf_late = edf
            .outcome_by_name("late-deadline")
            .unwrap()
            .finished
            .unwrap();
        assert!(edf_early < edf_late, "EDF must favor the earlier deadline");
        assert!(edf
            .outcome_by_name("early-deadline")
            .unwrap()
            .met_deadline());
        assert!(!fifo
            .outcome_by_name("early-deadline")
            .unwrap()
            .met_deadline());
    }

    #[test]
    fn fair_splits_resources() {
        // Under Fair, two equal workflows submitted together finish at
        // nearly the same time (and later than either would alone).
        let workflows = vec![fat("a", 0, 3_000), fat("b", 0, 3_000)];
        let fair = run(&mut FairScheduler, &workflows);
        let fa = fair.outcome_by_name("a").unwrap().finished.unwrap();
        let fb = fair.outcome_by_name("b").unwrap().finished.unwrap();
        let gap = if fa > fb { fa - fb } else { fb - fa };
        assert!(gap <= SimDuration::from_secs(35), "fair gap {gap}");

        let alone = run(&mut FairScheduler, &[fat("a", 0, 3_000)]);
        let solo = alone.outcome_by_name("a").unwrap().finished.unwrap();
        assert!(fa > solo, "sharing must slow both workflows down");
    }

    #[test]
    fn activation_order_survives_a_checkpoint() {
        use woha_sim::snapshot::{FaultSnapshot, SnapshotCounters};
        use woha_sim::{MasterSnapshot, WorkflowPool};
        // b's job activates before a's at the same instant: FIFO order is
        // activation order, not workflow id.
        let mut pool = WorkflowPool::new();
        let a = pool.register(fat("a", 0, 900));
        let b = pool.register(fat("b", 0, 900));
        let job = JobId::new(0);
        for wf in [b, a] {
            let mut w = pool.workflow_mut(wf);
            w.begin_submitting(job);
            w.activate(job);
        }
        let pick =
            |pool: &WorkflowPool| FifoScheduler.assign_task(pool, SlotKind::Map, SimTime::ZERO);
        assert_eq!(pick(&pool), Some((b, job)));

        let snap = MasterSnapshot {
            taken_at: SimTime::ZERO,
            pool,
            arrived: vec![true; 2],
            attempts: Vec::new(),
            next_attempt: 1,
            pending_map_ids: Vec::new(),
            delay_skips: Vec::new(),
            map_output_hosts: Vec::new(),
            completion_seq: 0,
            counters: SnapshotCounters::default(),
            fault: FaultSnapshot::default(),
            scheduler: FifoScheduler.snapshot_state(),
            health: None,
            reshuffle_debt: Vec::new(),
        };
        let mut decoded = MasterSnapshot::decode(&snap.encode())
            .expect("decodes")
            .pool;
        assert_eq!(decoded, snap.pool);
        assert_eq!(pick(&decoded), Some((b, job)));
        // The pool's counter is recounted: the next activation gets 2.
        let c = decoded.register(fat("c", 0, 900));
        let mut w = decoded.workflow_mut(c);
        w.begin_submitting(job);
        w.activate(job);
        assert_eq!(w.job(job).ordinal(), Some(2));
    }

    #[test]
    fn fifo_with_chained_jobs_releases_queue_entries() {
        let mut b = WorkflowBuilder::new("chain");
        let a = b.add_job(JobSpec::new(
            "a",
            2,
            1,
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
        ));
        let z = b.add_job(JobSpec::new(
            "z",
            2,
            1,
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
        ));
        b.add_dependency(a, z);
        b.relative_deadline(SimDuration::from_mins(10));
        let w = b.build().unwrap();
        let report = run(&mut FifoScheduler, &[w]);
        assert!(report.completed);
        assert_eq!(report.invalid_assignments, 0);
    }
}
