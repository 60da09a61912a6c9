//! The WOHA progress-based Workflow Scheduler (paper §IV-B, Algorithm 2).
//!
//! On every slot offer the scheduler first walks the head of the ct list,
//! refreshing the priority of each workflow whose progress requirement
//! changed since the last offer, then hands the slot to the workflow with
//! the largest progress lag `F_i(ttd) - ρ_i` that actually has an eligible
//! task of the offered kind. Inside the chosen workflow, the job order from
//! the client's scheduling plan decides which job the task comes from.
//!
//! The queued workflows are ordered by the paper's Double Skip List
//! ([`DslIndex`], O(1) head operations), held as a concrete field. The
//! B-tree and pairing-heap backends in [`crate::index`] and
//! [`crate::pheap`] order the same total order and serve only as Fig 13(a)'s
//! comparators (pinned by `woha-core`'s `index_differential` test).

use crate::index::{DslIndex, PriorityIndex};
use crate::plangen::{
    generate_plan_with_budget, padded_budget, rework_fraction, CapMode, PadConfig,
};
use crate::priority::{JobPriorities, PriorityPolicy};
use crate::progress::WorkflowProgress;
use crate::replan::{replan, LAG_FRACTION, MIN_INTERVAL};
use serde::{Deserialize, Serialize, Value};
use woha_model::{JobId, SimDuration, SimTime, SlotKind, WorkflowId};
use woha_sim::{SchedTrace, SchedulerState, WorkflowPool, WorkflowScheduler};

/// Configuration of the WOHA scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WohaConfig {
    /// Intra-workflow job prioritization policy.
    pub policy: PriorityPolicy,
    /// Resource-cap mode for client-side plan generation.
    pub cap_mode: CapMode,
    /// Cluster capacity in slots, as the client would learn from the
    /// JobTracker when generating plans.
    pub total_slots: u32,
    /// Fraction of the relative deadline reserved as safety slack when
    /// generating and anchoring the plan. A slack of `0.05` makes the plan
    /// pace the workflow as if its deadline were 5 % earlier, absorbing
    /// submitter latencies, heartbeat quantization, and estimation error.
    pub plan_slack: f64,
    /// Mid-flight replanning (see [`crate::replan`]); `false` (the default
    /// and the paper's behaviour) keeps the submission-time plan for the
    /// workflow's whole life.
    pub replan: bool,
    /// Proactive failure padding (see [`crate::plangen::PadConfig`]):
    /// shrink each plan's makespan budget by the expected rework fraction
    /// so deadlines keep margin under node churn. `None` (the default and
    /// the paper's zero-failure assumption) plans against the raw budget.
    pub padding: Option<PadConfig>,
}

impl WohaConfig {
    /// The paper's default configuration: resource-capped plans on the
    /// given cluster capacity.
    pub fn new(policy: PriorityPolicy, total_slots: u32) -> Self {
        WohaConfig {
            policy,
            cap_mode: CapMode::MinFeasible,
            total_slots,
            plan_slack: 0.08,
            replan: false,
            padding: None,
        }
    }
}

/// The progress-based workflow scheduler.
///
/// # Examples
///
/// ```
/// use woha_core::{PriorityPolicy, WohaConfig, WohaScheduler};
/// use woha_sim::{run_simulation, ClusterConfig, SimConfig};
/// use woha_model::{JobSpec, SimDuration, SlotKind, WorkflowBuilder};
///
/// let mut b = WorkflowBuilder::new("w");
/// b.add_job(JobSpec::new("j", 4, 2,
///     SimDuration::from_secs(10), SimDuration::from_secs(20)));
/// b.relative_deadline(SimDuration::from_mins(5));
/// let cluster = ClusterConfig::uniform(2, 2, 1);
/// let mut woha = WohaScheduler::new(WohaConfig::new(
///     PriorityPolicy::Lpf,
///     cluster.total_slots(SlotKind::Map) + cluster.total_slots(SlotKind::Reduce),
/// ));
/// let report = run_simulation(&[b.build().unwrap()], &mut woha, &cluster,
///     &SimConfig::default());
/// assert_eq!(report.deadline_misses(), 0);
/// ```
#[derive(Debug)]
pub struct WohaScheduler {
    config: WohaConfig,
    name: String,
    /// Records indexed by dense workflow id; `None` once completed.
    records: Vec<Option<WorkflowProgress>>,
    /// Incremental index over the queued workflows.
    index: DslIndex,
    /// Last replan instant per workflow (dense by id).
    last_replan: Vec<SimTime>,
    /// Total replans performed (observable for tests and reports).
    replans: u64,
    /// Total `ρ` rollbacks after task failures / node losses (observable
    /// for tests and reports).
    rho_rollbacks: u64,
    /// Plans (initial or replacement) generated with a nonzero failure
    /// pad (observable for tests and reports).
    plans_padded: u64,
    /// Structured decision-trace buffer; `None` (the default) disables
    /// tracing entirely, so the untraced hot path only pays an
    /// `Option` check.
    trace: Option<Vec<SchedTrace>>,
}

impl WohaScheduler {
    /// Creates a WOHA scheduler with the given configuration.
    pub fn new(config: WohaConfig) -> Self {
        WohaScheduler {
            name: format!("WOHA-{}", config.policy),
            config,
            records: Vec::new(),
            index: DslIndex::new(),
            last_replan: Vec::new(),
            replans: 0,
            rho_rollbacks: 0,
            plans_padded: 0,
            trace: None,
        }
    }

    /// Number of mid-flight replans performed so far.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Number of `ρ` rollbacks performed after task failures or node
    /// losses.
    pub fn rho_rollbacks(&self) -> u64 {
        self.rho_rollbacks
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &WohaConfig {
        &self.config
    }

    /// Applies the configured failure padding to a plan budget, counting
    /// the plans that actually received a nonzero pad.
    fn pad_budget(&mut self, spec: &woha_model::WorkflowSpec, budget: SimDuration) -> SimDuration {
        let Some(pad) = &self.config.padding else {
            return budget;
        };
        let fraction = rework_fraction(spec, pad);
        if fraction > 0.0 {
            self.plans_padded += 1;
        }
        padded_budget(budget, fraction)
    }

    /// The progress record of a queued workflow (for inspection/tests).
    pub fn progress(&self, wf: WorkflowId) -> Option<&WorkflowProgress> {
        self.records
            .get(wf.as_u64() as usize)
            .and_then(Option::as_ref)
    }

    fn record_mut(&mut self, wf: WorkflowId) -> &mut WorkflowProgress {
        self.records[wf.as_u64() as usize]
            .as_mut()
            .expect("workflow is queued")
    }

    /// Algorithm 2 lines 4–19: pop ct-list heads whose requirement changed
    /// and refresh their priorities.
    fn refresh_due_workflows(&mut self, now: SimTime) {
        while let Some((t, wf)) = self.index.min_ct() {
            if t > now {
                break;
            }
            let record = self.records[wf.as_u64() as usize]
                .as_mut()
                .expect("indexed workflow has a record");
            let (old_ct, old_lag) = (record.next_change(), record.lag());
            record.catch_up(now);
            self.index.update(
                wf,
                old_ct,
                old_lag,
                record.next_change(),
                record.lag(),
                record.deadline(),
            );
        }
    }

    /// Algorithm 2's descent of the priority list: the first workflow with
    /// an eligible task of `kind` that `claimed` — the picks an unfinished
    /// batch has made, which `pool` does not show yet — leaves over, the
    /// first such job in its plan's order, and the workflow's 1-based rank
    /// in the walk. A task-less workflow costs one read of the pool's
    /// per-workflow total; only the accepted one scans its jobs.
    fn select_task(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        claimed: &[(WorkflowId, JobId)],
    ) -> Option<(WorkflowId, JobId, u32)> {
        let records = &self.records;
        let mut choice = None;
        let mut rank = 0u32;
        self.index.select(&mut |_, wf| {
            rank += 1;
            let state = pool.workflow(wf);
            let wf_claims = claimed.iter().filter(|&&(w, _)| w == wf).count() as u64;
            if state.eligible_tasks(kind) <= wf_claims {
                return false;
            }
            let record = records[wf.as_u64() as usize]
                .as_ref()
                .expect("queued workflow has a record");
            // `pool.eligible` minus the batch's claims: the same test the
            // sequential path would make after starting the picked tasks.
            // An unclaimed workflow (every first pick) has no job claims
            // to look for.
            let job = record.plan().job_order().iter().copied().find(|&j| {
                let job_claims = match wf_claims {
                    0 => 0,
                    _ => claimed.iter().filter(|&&c| c == (wf, j)).count() as u64,
                };
                u64::from(state.job(j).eligible_tasks(kind)) > job_claims
            });
            choice = job.map(|job| (wf, job));
            choice.is_some()
        });
        choice.map(|(wf, job)| (wf, job, rank))
    }

    /// Replanning checkpoint shared by job completions and node losses:
    /// replaces the workflow's plan when it has fallen far enough behind
    /// and the previous replan is old enough (see [`LAG_FRACTION`] and
    /// [`MIN_INTERVAL`]).
    fn maybe_replan(&mut self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) {
        if !self.config.replan {
            return;
        }
        let slot = wf.as_u64() as usize;
        let Some(record) = self.records.get(slot).and_then(Option::as_ref) else {
            return;
        };
        let threshold = (record.plan().total_tasks() as f64 * LAG_FRACTION) as i64;
        if record.lag() <= threshold.max(1)
            || now.saturating_since(self.last_replan[slot]) < MIN_INTERVAL
        {
            return;
        }
        let deadline = record.deadline();
        let budget = self.pad_budget(pool.workflow(wf).spec(), deadline.saturating_since(now));
        if budget.is_zero() {
            return; // already past the effective deadline; nothing to re-pace
        }
        let Some(new_plan) = replan(
            pool.workflow(wf),
            self.config.policy,
            self.config.total_slots,
            self.config.cap_mode,
            budget,
        ) else {
            return;
        };
        let old = self.records[slot].take().expect("record checked above");
        self.index
            .remove(wf, old.next_change(), old.lag(), old.deadline());
        let new_record = WorkflowProgress::new(wf, new_plan, deadline, now);
        self.index
            .insert(wf, new_record.next_change(), new_record.lag(), deadline);
        self.records[slot] = Some(new_record);
        self.last_replan[slot] = now;
        self.replans += 1;
        if let Some(buf) = &mut self.trace {
            buf.push(SchedTrace::Replan { workflow: wf });
        }
    }
}

/// Serialized form of the WOHA master's private bookkeeping for the
/// master-failover checkpoint. The incremental index is *not* serialized:
/// it is derived state, rebuilt from the records on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WohaSnapshot {
    records: Vec<Option<WorkflowProgress>>,
    last_replan: Vec<SimTime>,
    replans: u64,
    rho_rollbacks: u64,
    /// Defaulted so checkpoints taken before failure padding existed still
    /// decode.
    #[serde(default)]
    plans_padded: u64,
}

impl SchedulerState for WohaScheduler {
    /// The encoding of a `WohaSnapshot` of `self`, built from references
    /// rather than from a cloned one.
    fn snapshot_state(&self) -> Value {
        Value::Object(vec![
            ("records".to_owned(), self.records.to_value()),
            ("last_replan".to_owned(), self.last_replan.to_value()),
            ("replans".to_owned(), self.replans.to_value()),
            ("rho_rollbacks".to_owned(), self.rho_rollbacks.to_value()),
            ("plans_padded".to_owned(), self.plans_padded.to_value()),
        ])
    }

    fn restore_state(&mut self, _pool: &WorkflowPool, state: &Value) {
        let Ok(snap) = WohaSnapshot::from_value(state) else {
            return;
        };
        self.records = snap.records;
        self.last_replan = snap.last_replan;
        self.replans = snap.replans;
        self.rho_rollbacks = snap.rho_rollbacks;
        self.plans_padded = snap.plans_padded;
        // Rebuild the index by re-inserting every queued record under its
        // current keys, replacing whatever the index held before.
        self.index = DslIndex::new();
        for record in self.records.iter().flatten() {
            self.index.insert(
                record.id(),
                record.next_change(),
                record.lag(),
                record.deadline(),
            );
        }
    }
}

impl WorkflowScheduler for WohaScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_workflow_submitted(&mut self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) {
        // Client side: analyze the workflow and generate the plan. The
        // plan is generated and anchored against a slightly earlier
        // "effective deadline" (see [`WohaConfig::plan_slack`]).
        let spec = pool.workflow(wf).spec();
        let priorities = JobPriorities::compute(spec, self.config.policy);
        let effective_deadline = if spec.deadline() == woha_model::SimTime::MAX {
            spec.deadline()
        } else {
            let slack = spec
                .relative_deadline()
                .mul_f64(self.config.plan_slack.clamp(0.0, 0.9));
            spec.deadline().saturating_sub(slack)
        };
        let budget = self.pad_budget(
            spec,
            effective_deadline.saturating_since(spec.submit_time()),
        );
        let plan = generate_plan_with_budget(
            spec,
            &priorities,
            self.config.total_slots,
            self.config.cap_mode,
            budget,
        );
        let record = WorkflowProgress::new(wf, plan, effective_deadline, now);
        if let Some(buf) = &mut self.trace {
            buf.push(SchedTrace::PlanGenerated {
                workflow: wf,
                jobs: record.plan().job_order().len(),
            });
        }

        // Master side: enqueue the record.
        let slot = wf.as_u64() as usize;
        if self.records.len() <= slot {
            self.records.resize_with(slot + 1, || None);
            self.last_replan.resize(slot + 1, SimTime::ZERO);
        }
        self.last_replan[slot] = now;
        self.index
            .insert(wf, record.next_change(), record.lag(), record.deadline());
        self.records[slot] = Some(record);
    }

    fn on_job_completed(&mut self, pool: &WorkflowPool, wf: WorkflowId, _job: JobId, now: SimTime) {
        // Mid-flight replanning checkpoint: job completions are frequent
        // enough to react but far rarer than slot offers.
        self.maybe_replan(pool, wf, now);
    }

    fn on_workflow_completed(&mut self, _pool: &WorkflowPool, wf: WorkflowId, _now: SimTime) {
        if let Some(record) = self.records[wf.as_u64() as usize].take() {
            self.index
                .remove(wf, record.next_change(), record.lag(), record.deadline());
        }
    }

    fn on_task_assigned(
        &mut self,
        _pool: &WorkflowPool,
        wf: WorkflowId,
        _job: JobId,
        _kind: SlotKind,
        _now: SimTime,
    ) {
        // Algorithm 2 lines 20–23: delete, update priority, re-insert.
        let record = self.record_mut(wf);
        let (ct, old_lag, deadline) = (record.next_change(), record.lag(), record.deadline());
        record.on_task_assigned();
        let new_lag = record.lag();
        self.index.update(wf, ct, old_lag, ct, new_lag, deadline);
    }

    fn on_task_failed(
        &mut self,
        _pool: &WorkflowPool,
        wf: WorkflowId,
        _job: JobId,
        _kind: SlotKind,
        _now: SimTime,
    ) {
        // The failed task re-enters the pending queue, so the counted
        // assignment never happened: roll back `ρ` (and the priority) the
        // same way an assignment advanced them. Guarded: a late failure
        // notification for an already-completed workflow is a no-op.
        let slot = wf.as_u64() as usize;
        let Some(record) = self.records.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let (ct, old_lag, deadline) = (record.next_change(), record.lag(), record.deadline());
        record.on_task_failed();
        let new_lag = record.lag();
        self.index.update(wf, ct, old_lag, ct, new_lag, deadline);
        self.rho_rollbacks += 1;
        if let Some(buf) = &mut self.trace {
            buf.push(SchedTrace::RhoRollback { workflow: wf });
        }
    }

    fn on_node_lost(&mut self, pool: &WorkflowPool, _node: woha_model::NodeId, now: SimTime) {
        // A node loss can throw many workflows behind their plans at once
        // (rolled-back tasks plus invalidated map outputs), so treat it as
        // a replanning checkpoint for every queued workflow. `maybe_replan`
        // itself filters by lag threshold and the per-workflow cooldown.
        if !self.config.replan {
            return;
        }
        let queued: Vec<WorkflowId> = self
            .records
            .iter()
            .flatten()
            .map(WorkflowProgress::id)
            .collect();
        for wf in queued {
            self.maybe_replan(pool, wf, now);
        }
    }

    fn assign_task(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        now: SimTime,
    ) -> Option<(WorkflowId, JobId)> {
        // The refresh stays ahead of the early-out: it is what
        // keeps `lag()` current for `maybe_replan` and
        // `slack_fraction`, offer after offer.
        self.refresh_due_workflows(now);
        if pool.ready_workflows(kind) == 0 {
            return None; // the walk below would reject every entry
        }
        let (wf, job, rank) = self.select_task(pool, kind, &[])?;
        if let Some(buf) = &mut self.trace {
            buf.push(SchedTrace::Pick {
                workflow: wf,
                rank,
                blocked: 0,
            });
        }
        Some((wf, job))
    }

    fn assign_batch(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        now: SimTime,
        max_tasks: u32,
    ) -> Option<Vec<(WorkflowId, JobId)>> {
        // One ct-list refresh covers the whole batch: every heartbeat in it
        // shares `now`, so requirements cannot change mid-batch.
        self.refresh_due_workflows(now);
        let mut picks: Vec<(WorkflowId, JobId)> = Vec::new();
        // The batch cannot claim more tasks than the pool has eligible, so
        // an empty offer never enters the loop and a short batch stops at
        // its last pick, without the walk that would reject every entry.
        let budget = u64::from(max_tasks).min(pool.eligible_task_count(kind));
        while (picks.len() as u64) < budget {
            // `picks` is what this batch has claimed and `pool` does not
            // show yet: the driver starts the tasks after we return.
            let Some((wf, job, rank)) = self.select_task(pool, kind, &picks) else {
                break;
            };
            // Commit Algorithm 2's post-assignment bookkeeping now so the
            // next pick in the batch sees the updated lag; the driver must
            // not call `on_task_assigned` again for these picks.
            self.on_task_assigned(pool, wf, job, kind, now);
            if let Some(buf) = &mut self.trace {
                // Every walk restarts at the head and a picked workflow
                // only moves later, so all `rank - 1` entries ahead of the
                // pick were skipped as task-less.
                buf.push(SchedTrace::Pick {
                    workflow: wf,
                    rank,
                    blocked: rank - 1,
                });
            }
            picks.push((wf, job));
        }
        Some(picks)
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace = on.then(Vec::new);
    }

    fn drain_trace(&mut self, out: &mut Vec<SchedTrace>) {
        if let Some(buf) = &mut self.trace {
            out.append(buf);
        }
    }

    fn backend_label(&self) -> &'static str {
        self.index.name()
    }

    fn slack_fraction(&self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) -> f64 {
        // A workflow behind its plan is deadline-critical regardless of
        // how much wall-clock slack the raw deadline suggests: the plan
        // already prices in the work left, so a positive lag means the
        // remaining window is insufficient at the current pace.
        if let Some(record) = self.progress(wf) {
            if record.lag() > 0 {
                return 0.0;
            }
        }
        woha_sim::spec_slack_fraction(pool, wf, now)
    }

    fn plans_padded(&self) -> u64 {
        self.plans_padded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use woha_model::{JobSpec, SimDuration, WorkflowBuilder, WorkflowSpec};
    use woha_sim::{run_simulation, ClusterConfig, SimConfig};

    fn chain_workflow(name: &str, submit_s: u64, deadline_s: u64) -> WorkflowSpec {
        let mut b = WorkflowBuilder::new(name);
        let a = b.add_job(JobSpec::new(
            "a",
            6,
            3,
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
        ));
        let z = b.add_job(JobSpec::new(
            "z",
            3,
            1,
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
        ));
        b.add_dependency(a, z);
        b.submit_at(SimTime::from_secs(submit_s));
        b.relative_deadline(SimDuration::from_secs(deadline_s));
        b.build().unwrap()
    }

    fn run(workflows: &[WorkflowSpec]) -> woha_sim::SimReport {
        let cluster = ClusterConfig::uniform(3, 2, 1);
        let mut sched = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 9));
        run_simulation(workflows, &mut sched, &cluster, &SimConfig::default())
    }

    #[test]
    fn completes_single_workflow() {
        let report = run(&[chain_workflow("w", 0, 600)]);
        assert!(report.completed);
        assert_eq!(report.deadline_misses(), 0);
        assert_eq!(report.invalid_assignments, 0);
    }

    #[test]
    fn prioritizes_lagging_workflow() {
        // One workflow with a loose deadline, one tight: the tight one's
        // plan demands early progress, so it wins contention even though
        // it was submitted later.
        let loose = chain_workflow("loose", 0, 3_000);
        let tight = chain_workflow("tight", 5, 150);
        let report = run(&[loose, tight]);
        assert!(
            report.outcome_by_name("tight").unwrap().met_deadline(),
            "tight workflow should meet its deadline: {report:?}"
        );
    }

    #[test]
    fn scheduler_name_includes_policy() {
        let s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Hlf, 10));
        assert_eq!(s.name(), "WOHA-HLF");
        assert_eq!(s.config().total_slots, 10);
    }

    #[test]
    fn replanning_fires_under_contention() {
        // Two identical two-job chains whose min-feasible plans each
        // assume near-exclusive use of the 4 map slots; sharing makes both
        // fall far behind their plans, so the job-completion checkpoint
        // must trigger a replan.
        let make = |name: &str| {
            let mut b = woha_model::WorkflowBuilder::new(name);
            let a = b.add_job(JobSpec::new(
                "a",
                12,
                0,
                SimDuration::from_secs(60),
                SimDuration::ZERO,
            ));
            let z = b.add_job(JobSpec::new(
                "z",
                12,
                0,
                SimDuration::from_secs(60),
                SimDuration::ZERO,
            ));
            b.add_dependency(a, z);
            b.relative_deadline(SimDuration::from_secs(480));
            b.build().unwrap()
        };
        let workflows = vec![make("w1"), make("w2")];
        let cluster = ClusterConfig::uniform(2, 2, 0);
        let mut sched = WohaScheduler::new(WohaConfig {
            replan: true,
            ..WohaConfig::new(PriorityPolicy::Lpf, 4)
        });
        let report = run_simulation(&workflows, &mut sched, &cluster, &SimConfig::default());
        assert!(report.completed);
        assert!(sched.replans() > 0, "replanning should have fired");
    }

    #[test]
    fn replanning_does_not_change_feasible_outcomes() {
        let workflows = vec![
            chain_workflow("w1", 0, 300),
            chain_workflow("w2", 10, 250),
            chain_workflow("w3", 20, 200),
        ];
        let cluster = ClusterConfig::uniform(3, 2, 1);
        let base = {
            let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 9));
            run_simulation(&workflows, &mut s, &cluster, &SimConfig::default())
        };
        let with_replan = {
            let mut s = WohaScheduler::new(WohaConfig {
                replan: true,
                ..WohaConfig::new(PriorityPolicy::Lpf, 9)
            });
            run_simulation(&workflows, &mut s, &cluster, &SimConfig::default())
        };
        assert_eq!(base.deadline_misses(), 0);
        assert_eq!(with_replan.deadline_misses(), 0);
    }

    #[test]
    fn node_crash_rolls_back_progress() {
        use woha_sim::{FaultConfig, ScriptedFault};
        // Node 2 dies at t=5 with two of job a's maps running on it; the
        // rolled-back assignments must be mirrored in ρ (and any lost map
        // outputs, had there been completed maps on the node).
        let workflows = vec![chain_workflow("w", 0, 600)];
        let cluster = ClusterConfig::uniform(3, 2, 1).with_faults(FaultConfig::scripted(vec![
            ScriptedFault::one(
                woha_model::NodeId::new(2),
                SimTime::from_secs(5),
                Some(SimTime::from_secs(60)),
            ),
        ]));
        let mut sched = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 9));
        let report = run_simulation(&workflows, &mut sched, &cluster, &SimConfig::default());
        assert!(report.completed);
        assert_eq!(report.node_failures, 1);
        assert!(report.tasks_requeued > 0);
        assert!(sched.rho_rollbacks() > 0, "hooks should have fired");
        assert_eq!(
            sched.rho_rollbacks(),
            report.tasks_requeued + report.map_outputs_lost
        );
        assert_eq!(report.deadline_misses(), 0);
    }

    #[test]
    fn node_loss_is_a_replanning_checkpoint() {
        // Submit a workflow, let it idle far past its plan, then deliver a
        // node-loss notification: the on_node_lost checkpoint must replan
        // without waiting for a job completion.
        let mut pool = woha_sim::WorkflowPool::new();
        let wf = pool.register(chain_workflow("w", 0, 240));
        let mut sched = WohaScheduler::new(WohaConfig {
            replan: true,
            ..WohaConfig::new(PriorityPolicy::Lpf, 9)
        });
        sched.on_workflow_submitted(&pool, wf, SimTime::ZERO);
        let now = SimTime::from_secs(150);
        let _ = sched.assign_task(&pool, SlotKind::Map, now); // refresh lags
        assert_eq!(sched.replans(), 0);
        sched.on_node_lost(&pool, woha_model::NodeId::new(0), now);
        assert!(sched.replans() > 0, "node loss should trigger a replan");
    }

    #[test]
    fn scheduler_state_survives_snapshot_restore() {
        let mut pool = woha_sim::WorkflowPool::new();
        let wf = pool.register(chain_workflow("w", 0, 300));
        let make = || WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 9));
        let mut sched = make();
        sched.on_workflow_submitted(&pool, wf, SimTime::ZERO);
        let job = JobId::new(0);
        pool.workflow_mut(wf).begin_submitting(job);
        pool.workflow_mut(wf).activate(job, SimTime::from_secs(1));
        sched.on_job_activated(&pool, wf, job, SimTime::from_secs(1));
        pool.workflow_mut(wf).start_task(job, SlotKind::Map);
        sched.on_task_assigned(&pool, wf, job, SlotKind::Map, SimTime::from_secs(2));

        let mut restored = make();
        restored.restore_state(&pool, &sched.snapshot_state());
        assert_eq!(restored.progress(wf), sched.progress(wf));
        assert_eq!(restored.replans(), sched.replans());
        // The rebuilt index agrees with the original on the next pick.
        let now = SimTime::from_secs(3);
        assert_eq!(
            restored.assign_task(&pool, SlotKind::Map, now),
            sched.assign_task(&pool, SlotKind::Map, now)
        );
    }

    #[test]
    fn snapshot_state_encodes_what_a_cloned_snapshot_did() {
        // Every field populated: queued and completed records, a replan, a
        // rollback and a padded plan.
        let mut pool = woha_sim::WorkflowPool::new();
        let mut sched = WohaScheduler::new(WohaConfig {
            replan: true,
            padding: Some(PadConfig::new(SimDuration::from_mins(5))),
            ..WohaConfig::new(PriorityPolicy::Lpf, 9)
        });
        for (at, name) in [(0, "a"), (1, "b"), (2, "c")] {
            let wf = pool.register(chain_workflow(name, at, 240));
            sched.on_workflow_submitted(&pool, wf, SimTime::from_secs(at));
        }
        let now = SimTime::from_secs(150);
        let (wf, job) = (WorkflowId::new(0), JobId::new(0));
        sched.on_task_assigned(&pool, wf, job, SlotKind::Map, now);
        sched.on_task_failed(&pool, wf, job, SlotKind::Map, now);
        let _ = sched.assign_task(&pool, SlotKind::Map, now); // refresh lags
        sched.on_node_lost(&pool, woha_model::NodeId::new(0), now);
        sched.on_workflow_completed(&pool, WorkflowId::new(1), now);
        assert!(sched.replans() > 0 && sched.rho_rollbacks() > 0 && sched.plans_padded() > 0);
        assert!(sched.records.iter().any(Option::is_none));

        let cloned = WohaSnapshot {
            records: sched.records.clone(),
            last_replan: sched.last_replan.clone(),
            replans: sched.replans,
            rho_rollbacks: sched.rho_rollbacks,
            plans_padded: sched.plans_padded,
        }
        .to_value();
        assert_eq!(sched.snapshot_state(), cloned);
    }

    #[test]
    fn progress_records_drop_on_completion() {
        let workflows = vec![chain_workflow("w", 0, 600)];
        let cluster = ClusterConfig::uniform(3, 2, 1);
        let mut sched = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Hlf, 9));
        let report = run_simulation(&workflows, &mut sched, &cluster, &SimConfig::default());
        assert!(report.completed);
        assert!(sched.progress(WorkflowId::new(0)).is_none());
    }
}
