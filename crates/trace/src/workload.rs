//! Workloads: sets of workflows with release times and deadlines.
//!
//! Topology generators ([`crate::topology`], [`crate::yahoo`]) produce
//! workflows at submit time zero with no deadline; this module turns them
//! into a scheduling workload by assigning a release pattern and a deadline
//! rule, the two knobs the paper's evaluation varies.

use crate::rng::Rng;
use woha_model::{SimDuration, SimTime, WorkflowSpec};

/// How workflow release (submission) times are assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReleasePattern {
    /// Every workflow is submitted at time zero.
    AllAtZero,
    /// Workflow `k` is submitted at `k * interval` in the given order.
    EvenlySpaced(SimDuration),
    /// Release times drawn uniformly at random in `[0, window)`.
    UniformWindow(SimDuration),
}

/// How deadlines are assigned from a workflow's own shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlineRule {
    /// No deadline ([`SimTime::MAX`]).
    None,
    /// `deadline = release + stretch * lower_bound`, with `stretch` drawn
    /// uniformly from the given range per workflow.
    ///
    /// The lower bound is `max(critical path, total work / capacity)` for
    /// the given reference capacity in slots — the tightest deadline any
    /// scheduler could conceivably meet on a cluster of that size. Stretch
    /// values near 1 make deadlines nearly impossible; large values make
    /// them trivial. The paper's interesting regime ("less than adequate
    /// but more than scarce" resources) corresponds to modest stretches.
    Stretch {
        /// Minimum stretch factor (inclusive).
        min: f64,
        /// Maximum stretch factor (exclusive).
        max: f64,
        /// Reference cluster capacity in slots used for the work term.
        reference_slots: u32,
    },
    /// A fixed relative deadline for every workflow.
    FixedRelative(SimDuration),
    /// An SLA-style deadline drawn uniformly from `[min, max)`,
    /// independent of the workflow's size, but floored at
    /// `floor_stretch × lower_bound(reference_slots)` so no deadline is
    /// outright impossible. This models business deadlines ("the report is
    /// due at 9am") that correlate only weakly with workflow length.
    UniformRelative {
        /// Smallest relative deadline (inclusive).
        min: SimDuration,
        /// Largest relative deadline (exclusive).
        max: SimDuration,
        /// Feasibility floor multiplier.
        floor_stretch: f64,
        /// Reference capacity for the feasibility floor.
        reference_slots: u32,
    },
}

/// A set of workflows ready to submit to a simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    workflows: Vec<WorkflowSpec>,
}

impl Workload {
    /// Wraps already-finalized workflows.
    pub fn new(workflows: Vec<WorkflowSpec>) -> Self {
        Workload { workflows }
    }

    /// Builds a workload from template workflows by assigning release times
    /// and deadlines. Templates' own submit times/deadlines are discarded.
    pub fn assign(
        templates: &[WorkflowSpec],
        release: ReleasePattern,
        deadline: DeadlineRule,
        rng: &mut Rng,
    ) -> Self {
        let workflows = templates
            .iter()
            .enumerate()
            .map(|(k, w)| {
                let release_time = match release {
                    ReleasePattern::AllAtZero => SimTime::ZERO,
                    ReleasePattern::EvenlySpaced(interval) => SimTime::ZERO + interval * (k as u64),
                    ReleasePattern::UniformWindow(window) => {
                        SimTime::from_millis(rng.range_u64(0, window.as_millis().max(1)))
                    }
                };
                let deadline_time = match deadline {
                    DeadlineRule::None => SimTime::MAX,
                    DeadlineRule::FixedRelative(rel) => release_time.saturating_add(rel),
                    DeadlineRule::UniformRelative {
                        min,
                        max,
                        floor_stretch,
                        reference_slots,
                    } => {
                        let drawn =
                            SimDuration::from_millis(rng.range_u64(
                                min.as_millis(),
                                max.as_millis().max(min.as_millis() + 1),
                            ));
                        let floor = lower_bound(w, reference_slots).mul_f64(floor_stretch);
                        release_time.saturating_add(drawn.max(floor))
                    }
                    DeadlineRule::Stretch {
                        min,
                        max,
                        reference_slots,
                    } => {
                        let stretch = if max > min {
                            rng.range_f64(min, max)
                        } else {
                            min
                        };
                        let bound = lower_bound(w, reference_slots);
                        release_time.saturating_add(bound.mul_f64(stretch))
                    }
                };
                w.reissued(w.name().to_string(), release_time, deadline_time)
            })
            .collect();
        Workload { workflows }
    }

    /// The workflows, sorted as assigned.
    pub fn workflows(&self) -> &[WorkflowSpec] {
        &self.workflows
    }

    /// Consumes the workload into a streaming [`crate::VecSource`].
    pub fn into_source(self) -> crate::VecSource {
        crate::VecSource::new(self.workflows)
    }

    /// A streaming [`crate::VecSource`] over a clone of the workflows.
    pub fn source(&self) -> crate::VecSource {
        crate::VecSource::new(self.workflows.clone())
    }

    /// Number of workflows.
    pub fn len(&self) -> usize {
        self.workflows.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.workflows.is_empty()
    }

    /// Total number of jobs across all workflows.
    pub fn total_jobs(&self) -> usize {
        self.workflows.iter().map(WorkflowSpec::job_count).sum()
    }

    /// Total number of tasks across all workflows.
    pub fn total_tasks(&self) -> u64 {
        self.workflows.iter().map(WorkflowSpec::total_tasks).sum()
    }

    /// Removes single-job workflows, as the paper does for the Yahoo
    /// workload ("we remove workflows containing only single job").
    pub fn without_single_jobs(mut self) -> Self {
        self.workflows.retain(|w| !w.is_single_job());
        self
    }
}

/// The tightest conceivable makespan for `w` on a cluster with
/// `reference_slots` slots: the larger of its critical path and its total
/// work divided by the slot count.
pub fn lower_bound(w: &WorkflowSpec, reference_slots: u32) -> SimDuration {
    let cp = w.critical_path();
    let work_ms = w.total_work().as_millis();
    let spread = SimDuration::from_millis(work_ms / u64::from(reference_slots.max(1)));
    cp.max(spread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::chain;
    use woha_model::JobSpec;

    fn templates(n: usize) -> Vec<WorkflowSpec> {
        (0..n)
            .map(|i| {
                chain(format!("w{i}"), 3, |j| {
                    JobSpec::new(
                        format!("j{j}"),
                        4,
                        1,
                        SimDuration::from_secs(30),
                        SimDuration::from_secs(60),
                    )
                })
                .build()
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn all_at_zero() {
        let w = Workload::assign(
            &templates(3),
            ReleasePattern::AllAtZero,
            DeadlineRule::None,
            &mut Rng::new(1),
        );
        assert_eq!(w.len(), 3);
        assert!(w
            .workflows()
            .iter()
            .all(|x| x.submit_time() == SimTime::ZERO));
        assert!(w.workflows().iter().all(|x| x.deadline() == SimTime::MAX));
    }

    #[test]
    fn evenly_spaced_releases() {
        let w = Workload::assign(
            &templates(3),
            ReleasePattern::EvenlySpaced(SimDuration::from_mins(5)),
            DeadlineRule::FixedRelative(SimDuration::from_mins(60)),
            &mut Rng::new(1),
        );
        let times: Vec<SimTime> = w.workflows().iter().map(|x| x.submit_time()).collect();
        assert_eq!(
            times,
            vec![SimTime::ZERO, SimTime::from_mins(5), SimTime::from_mins(10)]
        );
        assert_eq!(w.workflows()[2].deadline(), SimTime::from_mins(70));
    }

    #[test]
    fn uniform_window_within_bounds() {
        let w = Workload::assign(
            &templates(50),
            ReleasePattern::UniformWindow(SimDuration::from_mins(10)),
            DeadlineRule::None,
            &mut Rng::new(7),
        );
        assert!(w
            .workflows()
            .iter()
            .all(|x| x.submit_time() < SimTime::from_mins(10)));
        // Releases actually spread out.
        let distinct: std::collections::BTreeSet<u64> = w
            .workflows()
            .iter()
            .map(|x| x.submit_time().as_millis())
            .collect();
        assert!(distinct.len() > 40);
    }

    #[test]
    fn stretch_deadline_scales_with_lower_bound() {
        let tpl = templates(1);
        let bound = lower_bound(&tpl[0], 100);
        // Chain of 3 jobs x 90s length: critical path 270s dominates.
        assert_eq!(bound, SimDuration::from_secs(270));
        let w = Workload::assign(
            &tpl,
            ReleasePattern::AllAtZero,
            DeadlineRule::Stretch {
                min: 2.0,
                max: 2.0 + 1e-9,
                reference_slots: 100,
            },
            &mut Rng::new(1),
        );
        let rel = w.workflows()[0].relative_deadline();
        assert!((rel.as_secs_f64() - 540.0).abs() < 1.0, "rel = {rel}");
    }

    #[test]
    fn lower_bound_uses_work_when_cluster_small() {
        let tpl = &templates(1)[0];
        // total work = 3 jobs * (4*30 + 1*60) = 540s; on 1 slot that
        // dominates the 270s critical path.
        assert_eq!(lower_bound(tpl, 1), SimDuration::from_secs(540));
    }

    #[test]
    fn without_single_jobs_filters() {
        let mut ws = templates(2);
        let mut b = woha_model::WorkflowBuilder::new("single");
        b.add_job(JobSpec::new(
            "only",
            1,
            0,
            SimDuration::from_secs(5),
            SimDuration::ZERO,
        ));
        ws.push(b.build().unwrap());
        let w = Workload::new(ws).without_single_jobs();
        assert_eq!(w.len(), 2);
        assert_eq!(w.total_jobs(), 6);
        assert!(!w.is_empty());
    }

    #[test]
    fn totals() {
        let w = Workload::new(templates(2));
        assert_eq!(w.total_jobs(), 6);
        assert_eq!(w.total_tasks(), 2 * 3 * 5);
        assert_eq!(w.source().remaining().len(), 2);
        assert_eq!(w.into_source().remaining().len(), 2);
    }
}
