//! Experiment execution: run one scenario under one or many schedulers,
//! optionally in parallel across schedulers.
//!
//! These are thin convenience wrappers over the [`crate::sweep`]
//! orchestrator for the common "same scenario, several schedulers" shape.

use crate::schedulers::SchedulerKind;
use crate::sweep::{CellKey, SimSweep};
use woha_model::{SlotKind, WorkflowSpec};
use woha_sim::{run_simulation, ClusterConfig, SimConfig, SimReport};

/// Runs `workflows` on `cluster` under one scheduler kind.
pub fn run_one(
    kind: SchedulerKind,
    workflows: &[WorkflowSpec],
    cluster: &ClusterConfig,
    config: &SimConfig,
) -> SimReport {
    let total = cluster.total_slots(SlotKind::Map) + cluster.total_slots(SlotKind::Reduce);
    let mut scheduler = kind.build(total);
    run_simulation(workflows, scheduler.as_mut(), cluster, config)
}

/// Runs the same scenario under every scheduler in `kinds` on `jobs`
/// worker threads, returning reports in `kinds` order; `jobs = 1` runs
/// the schedulers serially on the calling thread. Results are identical
/// regardless of `jobs`.
pub fn run_many(
    kinds: &[SchedulerKind],
    workflows: &[WorkflowSpec],
    cluster: &ClusterConfig,
    config: &SimConfig,
    jobs: usize,
) -> Vec<(SchedulerKind, SimReport)> {
    let mut sweep = SimSweep::new();
    sweep.push_kinds(&CellKey::new(), kinds, workflows, cluster, config);
    kinds
        .iter()
        .copied()
        .zip(sweep.run(jobs).into_reports())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{fig2_cluster, fig2_workflows};

    #[test]
    fn run_many_matches_run_one() {
        let workflows = fig2_workflows();
        let cluster = fig2_cluster();
        let config = SimConfig::default();
        let kinds = [SchedulerKind::Fifo, SchedulerKind::Edf];
        let parallel = run_many(&kinds, &workflows, &cluster, &config, kinds.len());
        for (kind, report) in &parallel {
            let solo = run_one(*kind, &workflows, &cluster, &config);
            assert_eq!(report, &solo, "{kind}");
        }
    }

    #[test]
    fn run_many_is_jobs_invariant() {
        let workflows = fig2_workflows();
        let cluster = fig2_cluster();
        let config = SimConfig::default();
        let kinds = [SchedulerKind::Fifo, SchedulerKind::Fair, SchedulerKind::Edf];
        let serial = run_many(&kinds, &workflows, &cluster, &config, 1);
        for jobs in [2, 8] {
            let parallel = run_many(&kinds, &workflows, &cluster, &config, jobs);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }
}
