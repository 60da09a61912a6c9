//! The canonical experiment scenarios of the paper's evaluation.

use woha_model::{JobSpec, SimDuration, SimTime, WorkflowBuilder, WorkflowSpec};
use woha_sim::ClusterConfig;
use woha_trace::topology::paper_fig7;
use woha_trace::workload;
use woha_trace::yahoo::{yahoo_workflows, YahooTraceConfig};
use woha_trace::Rng;

/// The Fig 2 scenario: three identical two-job workflows (each job 3 maps
/// × 1 s + 3 reduces × 1 s) submitted at time 0 with deadlines 9 s, 9 s and
/// 50 s, on a cluster of 3 map and 3 reduce slots.
pub fn fig2_workflows() -> Vec<WorkflowSpec> {
    let deadlines = [9u64, 9, 50];
    deadlines
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let mut b = WorkflowBuilder::new(format!("W{}", i + 1));
            let j1 = b.add_job(JobSpec::new(
                "j1",
                3,
                3,
                SimDuration::from_secs(1),
                SimDuration::from_secs(1),
            ));
            let j2 = b.add_job(JobSpec::new(
                "j2",
                3,
                3,
                SimDuration::from_secs(1),
                SimDuration::from_secs(1),
            ));
            b.add_dependency(j1, j2);
            b.relative_deadline(SimDuration::from_secs(d));
            b.build().expect("fig2 workflow is valid")
        })
        .collect()
}

/// The Fig 2 cluster: 3 map slots and 3 reduce slots.
pub fn fig2_cluster() -> ClusterConfig {
    ClusterConfig::uniform(3, 1, 1)
}

/// The demo cluster of §VI-A: 32 slaves, 2 map slots and 1 reduce slot
/// each.
pub fn demo_cluster() -> ClusterConfig {
    ClusterConfig::uniform(32, 2, 1)
}

/// The Fig 11 scenario: three instances of the Fig 7 topology, submitted
/// at 0, 5 and 10 minutes with relative deadlines 80, 70 and 60 minutes
/// ("workflows with larger release time have to meet earlier deadline").
pub fn fig11_workflows() -> Vec<WorkflowSpec> {
    let releases = [0u64, 5, 10];
    let rel_deadlines = [80u64, 70, 60];
    releases
        .iter()
        .zip(&rel_deadlines)
        .enumerate()
        .map(|(i, (&rel, &dl))| {
            paper_fig7(format!("W-{}", i + 1))
                .submit_at(SimTime::from_mins(rel))
                .relative_deadline(SimDuration::from_mins(dl))
                .build()
                .expect("fig7 workflow is valid")
        })
        .collect()
}

/// The Fig 12 scenario: the Fig 11 workload repeated for `recurrences`
/// back-to-back periods (the paper's "3 recurrence" utilization run).
/// Recurrence `k` releases its three workflows 30 minutes later than
/// recurrence `k-1`.
pub fn fig12_workflows(recurrences: u32) -> Vec<WorkflowSpec> {
    let base = fig11_workflows();
    let period = SimDuration::from_mins(30);
    (0..recurrences)
        .flat_map(|k| {
            let offset = period * u64::from(k);
            base.iter()
                .map(move |w| {
                    w.reissued(
                        format!("{}-r{}", w.name(), k + 1),
                        w.submit_time() + offset,
                        w.deadline() + offset,
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Parameters of the Yahoo-trace deadline experiments (Figs 8–10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YahooScenario {
    /// Workload seed.
    pub seed: u64,
    /// Reference capacity for the deadline feasibility floor.
    pub reference_slots: u32,
    /// Smallest SLA-style relative deadline.
    pub deadline_min: SimDuration,
    /// Largest SLA-style relative deadline.
    pub deadline_max: SimDuration,
    /// Feasibility floor multiplier over the workflow's lower bound.
    pub floor_stretch: f64,
    /// Window over which the 46 multi-job workflows are released.
    pub release_window: SimDuration,
}

impl Default for YahooScenario {
    fn default() -> Self {
        YahooScenario {
            seed: 20140614, // ICDCS 2014 conference date
            // Deadlines are SLA-style: drawn independently of workflow
            // size (a business due time), floored at a feasible multiple
            // of the workflow's own lower bound on a fair-share reference
            // capacity. The release window spreads the load so the middle
            // cluster size sits in the paper's "less than adequate but
            // more than scarce" regime.
            reference_slots: 100,
            deadline_min: SimDuration::from_mins(4),
            deadline_max: SimDuration::from_mins(12),
            floor_stretch: 1.4,
            release_window: SimDuration::from_mins(14),
        }
    }
}

/// Builds the Yahoo workload of §VI-A: 61 workflows / 180 jobs generated
/// from the published trace statistics, single-job workflows removed (as
/// the paper does), with releases and deadlines assigned per `scenario`.
pub fn yahoo_workload(scenario: &YahooScenario) -> Vec<WorkflowSpec> {
    let mut rng = Rng::new(scenario.seed);
    // Job sizes are moderated relative to the raw 4000-job trace: the
    // paper's own Fig 13(b) shows its 61 workflows top out near 1450 tasks
    // (~120 tasks/job over 12 jobs), so the monsters of the full trace
    // (3000-mapper jobs) do not appear inside workflows.
    let config = YahooTraceConfig {
        map_count_max: 200,
        reduce_count_max: 40,
        ..YahooTraceConfig::default()
    };
    let flows = yahoo_workflows(&config, &mut rng);
    let mut workflows = workload::assign(
        &flows,
        scenario.release_window,
        scenario.deadline_min,
        scenario.deadline_max,
        scenario.floor_stretch,
        scenario.reference_slots,
        &mut rng,
    );
    workflows.retain(|w| !w.is_single_job());
    workflows
}

/// The three cluster sizes of Figs 8–10.
pub fn trace_clusters() -> Vec<(String, ClusterConfig)> {
    [(200, 200), (240, 240), (280, 280)]
        .into_iter()
        .map(|(m, r)| (format!("{m}m-{r}r"), ClusterConfig::with_totals(m, r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use woha_model::SlotKind;

    #[test]
    fn fig2_matches_paper_parameters() {
        let ws = fig2_workflows();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].deadline(), SimTime::from_secs(9));
        assert_eq!(ws[2].deadline(), SimTime::from_secs(50));
        assert_eq!(ws[0].total_tasks(), 12);
        let c = fig2_cluster();
        assert_eq!(c.total_slots(SlotKind::Map), 3);
        assert_eq!(c.total_slots(SlotKind::Reduce), 3);
    }

    #[test]
    fn fig11_matches_paper_parameters() {
        let ws = fig11_workflows();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].job_count(), 33);
        assert_eq!(ws[1].submit_time(), SimTime::from_mins(5));
        assert_eq!(ws[1].deadline(), SimTime::from_mins(75));
        // W-3 has the latest release and earliest absolute deadline.
        assert_eq!(ws[2].deadline(), SimTime::from_mins(70));
        let c = demo_cluster();
        assert_eq!(c.total_slots(SlotKind::Map), 64);
        assert_eq!(c.total_slots(SlotKind::Reduce), 32);
    }

    #[test]
    fn fig12_recurrences_shift() {
        let ws = fig12_workflows(3);
        assert_eq!(ws.len(), 9);
        assert_eq!(ws[3].submit_time(), SimTime::from_mins(30));
        assert_eq!(ws[8].submit_time(), SimTime::from_mins(70));
        assert_eq!(ws[8].relative_deadline(), SimDuration::from_mins(60));
    }

    #[test]
    fn yahoo_workload_shape() {
        let w = yahoo_workload(&YahooScenario::default());
        assert_eq!(w.len(), 46);
        assert_eq!(w.iter().map(WorkflowSpec::job_count).sum::<usize>(), 165);
        // Deterministic per seed.
        let w2 = yahoo_workload(&YahooScenario::default());
        assert_eq!(w, w2);
        // Everything has a real deadline.
        assert!(w.iter().all(|x| x.deadline() != SimTime::MAX));
        // The streaming source view yields the same workflows, ordered by
        // submit time (the driver's pull order).
        let drained = woha_trace::drain(&mut woha_trace::VecSource::new(w2));
        assert_eq!(drained.len(), w.len());
        assert!(drained
            .windows(2)
            .all(|p| p[0].submit_time() <= p[1].submit_time()));
    }

    #[test]
    fn trace_clusters_sizes() {
        let cs = trace_clusters();
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0].0, "200m-200r");
        assert_eq!(cs[2].1.total_slots(SlotKind::Map), 280);
    }
}
