//! The state-of-the-art schedulers the paper ports onto workflows for
//! comparison (§V-B): Oozie+FIFO, Oozie+Fair, and EDF.
//!
//! All three share the *information separation* that motivates WOHA: the
//! "Oozie" side (the simulator driver) submits a wjob only when its
//! prerequisites finish, and the scheduler sees jobs — not workflow
//! topology. FIFO and Fair ignore deadlines entirely; EDF uses only the
//! deadline, not the workflow's shape or progress.

use serde::{Deserialize, Serialize, Value};
use woha_model::{JobId, SimTime, SlotKind, WorkflowId};
use woha_sim::{SchedulerState, WorkflowPool, WorkflowScheduler};

/// Encodes an activation queue as an array of `[workflow, job]` pairs for
/// the master-failover checkpoint (the vendored serde has no tuple impls).
fn queue_to_value(queue: &[(WorkflowId, JobId)]) -> Value {
    Value::Array(
        queue
            .iter()
            .map(|&(wf, job)| Value::Array(vec![wf.to_value(), job.to_value()]))
            .collect(),
    )
}

/// Inverse of [`queue_to_value`]; malformed entries are dropped rather than
/// failing recovery outright.
fn queue_from_value(state: &Value) -> Vec<(WorkflowId, JobId)> {
    state
        .as_array()
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_array()?;
                    let wf = WorkflowId::from_value(pair.first()?).ok()?;
                    let job = JobId::from_value(pair.get(1)?).ok()?;
                    Some((wf, job))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Oozie + the default Hadoop `JobQueueTaskScheduler`: an ordered list of
/// jobs by submission (activation) time; each free slot goes to the first
/// job in the list with an available task.
#[derive(Debug, Default)]
pub struct FifoScheduler {
    /// Active jobs in activation order.
    queue: Vec<(WorkflowId, JobId)>,
}

impl FifoScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        FifoScheduler::default()
    }
}

impl SchedulerState for FifoScheduler {
    fn snapshot_state(&self) -> Value {
        queue_to_value(&self.queue)
    }

    fn restore_state(&mut self, _pool: &WorkflowPool, state: &Value) {
        self.queue = queue_from_value(state);
    }
}

impl WorkflowScheduler for FifoScheduler {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn on_job_activated(
        &mut self,
        _pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        _now: SimTime,
    ) {
        self.queue.push((wf, job));
    }

    fn on_job_completed(
        &mut self,
        _pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        _now: SimTime,
    ) {
        self.queue.retain(|&(w, j)| (w, j) != (wf, job));
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
        self.queue
            .iter()
            .copied()
            .find(|&(wf, job)| pool.eligible(wf, job, kind))
    }
}

/// Oozie + a FairScheduler-style policy: every *workflow* gets an even
/// share of the cluster, implemented work-conservingly by always granting
/// the next slot to the eligible workflow currently running the fewest
/// tasks. Within a workflow, jobs are served in activation order.
#[derive(Debug, Default)]
pub struct FairScheduler {
    /// Activation order of jobs, used for intra-workflow ordering.
    activation: Vec<(WorkflowId, JobId)>,
}

impl FairScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        FairScheduler::default()
    }
}

impl SchedulerState for FairScheduler {
    fn snapshot_state(&self) -> Value {
        queue_to_value(&self.activation)
    }

    fn restore_state(&mut self, _pool: &WorkflowPool, state: &Value) {
        self.activation = queue_from_value(state);
    }
}

impl WorkflowScheduler for FairScheduler {
    fn name(&self) -> &str {
        "Fair"
    }

    fn on_job_activated(
        &mut self,
        _pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        _now: SimTime,
    ) {
        self.activation.push((wf, job));
    }

    fn on_job_completed(
        &mut self,
        _pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        _now: SimTime,
    ) {
        self.activation.retain(|&(w, j)| (w, j) != (wf, job));
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
        self.activation
            .iter()
            .copied()
            .find(|&(wf, job)| wf == target && pool.eligible(wf, job, kind))
    }
}

/// Earliest Deadline First over workflows: the workflow with the earliest
/// absolute deadline wins every slot; jobs within it are served in
/// activation order.
#[derive(Debug, Default)]
pub struct EdfScheduler {
    activation: Vec<(WorkflowId, JobId)>,
}

impl EdfScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        EdfScheduler::default()
    }
}

impl SchedulerState for EdfScheduler {
    fn snapshot_state(&self) -> Value {
        queue_to_value(&self.activation)
    }

    fn restore_state(&mut self, _pool: &WorkflowPool, state: &Value) {
        self.activation = queue_from_value(state);
    }
}

impl WorkflowScheduler for EdfScheduler {
    fn name(&self) -> &str {
        "EDF"
    }

    fn on_job_activated(
        &mut self,
        _pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        _now: SimTime,
    ) {
        self.activation.push((wf, job));
    }

    fn on_job_completed(
        &mut self,
        _pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        _now: SimTime,
    ) {
        self.activation.retain(|&(w, j)| (w, j) != (wf, job));
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
        self.activation
            .iter()
            .copied()
            .find(|&(wf, job)| wf == target && pool.eligible(wf, job, kind))
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
            &mut FifoScheduler::new() as &mut dyn WorkflowScheduler,
            &mut FairScheduler::new(),
            &mut EdfScheduler::new(),
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
        let report = run(&mut FifoScheduler::new(), &workflows);
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
        let edf = run(&mut EdfScheduler::new(), &workflows);
        let fifo = run(&mut FifoScheduler::new(), &workflows);
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
        let fair = run(&mut FairScheduler::new(), &workflows);
        let fa = fair.outcome_by_name("a").unwrap().finished.unwrap();
        let fb = fair.outcome_by_name("b").unwrap().finished.unwrap();
        let gap = if fa > fb { fa - fb } else { fb - fa };
        assert!(gap <= SimDuration::from_secs(35), "fair gap {gap}");

        let alone = run(&mut FairScheduler::new(), &[fat("a", 0, 3_000)]);
        let solo = alone.outcome_by_name("a").unwrap().finished.unwrap();
        assert!(fa > solo, "sharing must slow both workflows down");
    }

    #[test]
    fn activation_queue_survives_snapshot_restore() {
        let mut pool = woha_sim::WorkflowPool::new();
        let a = pool.register(fat("a", 0, 900));
        let b = pool.register(fat("b", 0, 900));
        let mut sched = FifoScheduler::new();
        sched.on_job_activated(&pool, b, JobId::new(0), SimTime::ZERO);
        sched.on_job_activated(&pool, a, JobId::new(0), SimTime::from_secs(1));
        let snap = sched.snapshot_state();
        let mut restored = FifoScheduler::new();
        restored.restore_state(&pool, &snap);
        // Order (b before a) is part of FIFO's state and must survive.
        assert_eq!(restored.queue, sched.queue);
        assert_eq!(restored.queue[0].0, b);

        let mut edf = EdfScheduler::new();
        edf.on_job_activated(&pool, a, JobId::new(0), SimTime::ZERO);
        let mut edf_restored = EdfScheduler::new();
        edf_restored.restore_state(&pool, &edf.snapshot_state());
        assert_eq!(edf_restored.activation, edf.activation);

        // A stateless default restores to empty.
        let mut fair = FairScheduler::new();
        fair.restore_state(&pool, &serde::Value::Null);
        assert!(fair.activation.is_empty());
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
        let mut sched = FifoScheduler::new();
        let report = run(&mut sched, &[w]);
        assert!(report.completed);
        assert!(
            sched.queue.is_empty(),
            "completed jobs must leave the queue"
        );
    }
}
