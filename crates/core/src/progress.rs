//! Per-workflow runtime state on the WOHA master: the plan cursor, the
//! true progress `ρ_i`, and the derived inter-workflow priority.
//!
//! This is the `W_h.{t, i, p}` bookkeeping of the paper's Algorithm 2.

use crate::plan::SchedulingPlan;
use woha_model::{SimTime, WorkflowId};

/// Runtime progress record of one queued workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowProgress {
    id: WorkflowId,
    plan: SchedulingPlan,
    deadline: SimTime,
    /// True progress `ρ`: tasks of this workflow handed to slots so far.
    rho: u64,
    /// `W_h.i`: index of the next requirement entry to fire.
    index: usize,
    /// `W_h.p`: the current inter-workflow priority `F(ttd) - ρ`.
    lag: i64,
    /// `W_h.t`: absolute time of the next requirement change.
    next_change: SimTime,
}

impl WorkflowProgress {
    /// Creates the record for a workflow submitted at `now` with the given
    /// plan and absolute deadline, with the plan cursor caught up to `now`.
    pub fn new(id: WorkflowId, plan: SchedulingPlan, deadline: SimTime, now: SimTime) -> Self {
        let index = plan.next_change_index(deadline, now);
        Self::from_cursor(id, plan, deadline, 0, index)
    }

    /// Rebuilds a record from its plan, deadline and cursor — progress
    /// `rho` and requirement index `index` — as a checkpoint holds it:
    /// the lag and the next change instant follow from those.
    pub fn from_cursor(
        id: WorkflowId,
        plan: SchedulingPlan,
        deadline: SimTime,
        rho: u64,
        index: usize,
    ) -> Self {
        let mut p = WorkflowProgress {
            id,
            plan,
            deadline,
            rho,
            index,
            lag: 0,
            next_change: SimTime::ZERO,
        };
        p.refresh();
        p
    }

    /// The workflow this record tracks.
    pub fn id(&self) -> WorkflowId {
        self.id
    }

    /// The scheduling plan the client shipped.
    pub fn plan(&self) -> &SchedulingPlan {
        &self.plan
    }

    /// The workflow's absolute deadline.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// True progress `ρ`.
    pub fn rho(&self) -> u64 {
        self.rho
    }

    /// Index of the next requirement entry to fire (the plan cursor).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Current inter-workflow priority (progress lag). Larger = further
    /// behind plan = more urgent.
    pub fn lag(&self) -> i64 {
        self.lag
    }

    /// Absolute time of the next progress-requirement change
    /// ([`SimTime::MAX`] once the plan is exhausted).
    pub fn next_change(&self) -> SimTime {
        self.next_change
    }

    fn refresh(&mut self) {
        self.next_change = self
            .plan
            .change_time(self.deadline, self.index)
            .unwrap_or(SimTime::MAX);
        let required = self.plan.cumulative_before(self.index);
        self.lag = required as i64 - self.rho as i64;
    }

    /// Whether the next requirement change has fired by `now` (Algorithm 2
    /// line 6).
    pub fn is_due(&self, now: SimTime) -> bool {
        self.next_change <= now
    }

    /// Advances the plan cursor past every change that fired by `now` and
    /// recomputes priority (Algorithm 2 lines 8–14). Returns whether
    /// anything changed.
    pub fn catch_up(&mut self, now: SimTime) -> bool {
        let new_index = self.plan.next_change_index(self.deadline, now);
        if new_index == self.index {
            return false;
        }
        debug_assert!(new_index > self.index, "plan cursor never rewinds");
        self.index = new_index;
        self.refresh();
        true
    }

    /// Records one task assignment: `ρ ← ρ + 1`, `p ← p - 1`
    /// (Algorithm 2 line 22).
    pub fn on_task_assigned(&mut self) {
        self.rho += 1;
        self.lag -= 1;
    }

    /// Rolls back one task assignment after the task failed (injected
    /// attempt failure or node loss) and re-entered the pending queue:
    /// `ρ ← ρ - 1`, `p ← p + 1`. The inverse of
    /// [`on_task_assigned`](Self::on_task_assigned); saturates at zero so
    /// spurious rollbacks cannot underflow.
    pub fn on_task_failed(&mut self) {
        if self.rho > 0 {
            self.rho -= 1;
            self.lag += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ProgressRequirement;
    use crate::priority::PriorityPolicy;
    use woha_model::SimDuration;

    /// Plan: span 100s; 4 tasks required by ttd=100 (t=deadline-100),
    /// 6 by ttd=40, 9 by ttd=0.
    fn plan() -> SchedulingPlan {
        SchedulingPlan::new(
            PriorityPolicy::Hlf,
            4,
            vec![],
            vec![
                ProgressRequirement {
                    ttd: SimDuration::from_secs(100),
                    cumulative: 4,
                },
                ProgressRequirement {
                    ttd: SimDuration::from_secs(40),
                    cumulative: 6,
                },
                ProgressRequirement {
                    ttd: SimDuration::ZERO,
                    cumulative: 9,
                },
            ],
            SimDuration::from_secs(100),
            9,
        )
    }

    #[test]
    fn fresh_record_has_zero_lag_before_first_change() {
        // Submitted at t=0 with deadline 150: first change at t=50.
        let p = WorkflowProgress::new(
            WorkflowId::new(1),
            plan(),
            SimTime::from_secs(150),
            SimTime::ZERO,
        );
        assert_eq!(p.lag(), 0);
        assert_eq!(p.rho(), 0);
        assert_eq!(p.next_change(), SimTime::from_secs(50));
        assert!(!p.is_due(SimTime::from_secs(49)));
        assert!(p.is_due(SimTime::from_secs(50)));
    }

    #[test]
    fn catch_up_advances_lag() {
        let mut p = WorkflowProgress::new(
            WorkflowId::new(1),
            plan(),
            SimTime::from_secs(150),
            SimTime::ZERO,
        );
        // At t=50 the first requirement (4 tasks) fires.
        assert!(p.catch_up(SimTime::from_secs(50)));
        assert_eq!(p.lag(), 4);
        assert_eq!(p.next_change(), SimTime::from_secs(110));
        // Catch up with no change fired: no-op.
        assert!(!p.catch_up(SimTime::from_secs(60)));
        // Jump past the remaining changes (t=110 and t=150).
        assert!(p.catch_up(SimTime::from_secs(200)));
        assert_eq!(p.lag(), 9);
        assert_eq!(p.next_change(), SimTime::MAX);
        assert!(!p.is_due(SimTime::MAX.saturating_sub(SimDuration::from_secs(1))));
    }

    #[test]
    fn task_assignment_reduces_lag() {
        let mut p = WorkflowProgress::new(
            WorkflowId::new(1),
            plan(),
            SimTime::from_secs(150),
            SimTime::ZERO,
        );
        p.catch_up(SimTime::from_secs(50));
        for _ in 0..6 {
            p.on_task_assigned();
        }
        assert_eq!(p.rho(), 6);
        assert_eq!(p.lag(), -2); // 2 tasks ahead of plan
    }

    #[test]
    fn task_failure_rolls_back_progress() {
        let mut p = WorkflowProgress::new(
            WorkflowId::new(1),
            plan(),
            SimTime::from_secs(150),
            SimTime::ZERO,
        );
        p.catch_up(SimTime::from_secs(50));
        p.on_task_assigned();
        p.on_task_assigned();
        assert_eq!((p.rho(), p.lag()), (2, 2));
        p.on_task_failed();
        assert_eq!((p.rho(), p.lag()), (1, 3));
        // Saturates: rolling back below zero progress is a no-op.
        p.on_task_failed();
        p.on_task_failed();
        assert_eq!((p.rho(), p.lag()), (0, 4));
    }

    #[test]
    fn submission_after_changes_catches_up_immediately() {
        // Submitted at t=120 with deadline 150: changes at 50 and 110
        // already fired, so the workflow starts 6 tasks behind.
        let p = WorkflowProgress::new(
            WorkflowId::new(2),
            plan(),
            SimTime::from_secs(150),
            SimTime::from_secs(120),
        );
        assert_eq!(p.lag(), 6);
        assert_eq!(p.next_change(), SimTime::from_secs(150));
    }

    #[test]
    fn deadline_less_workflow_is_never_due() {
        let p = WorkflowProgress::new(WorkflowId::new(3), plan(), SimTime::MAX, SimTime::ZERO);
        // Change times are astronomically far away.
        assert!(!p.is_due(SimTime::from_mins(1_000_000)));
        assert_eq!(p.lag(), 0);
    }
}
