//! Experiment execution: run one scenario under one scheduler. Grids of
//! scenarios are [`crate::sweep::SimSweep`]s.

use crate::schedulers::SchedulerKind;
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
