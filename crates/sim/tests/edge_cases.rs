//! Simulator edge cases: degenerate clusters, extreme configurations, and
//! lifecycle corners.

use woha_model::{JobSpec, SimDuration, SimTime, SlotKind, WorkflowBuilder, WorkflowSpec};
use woha_sim::{
    run_simulation, run_simulation_observed, ClusterConfig, ObservabilityConfig, RejectCount,
    SimConfig, SubmitOrderScheduler, TraceEvent,
};

fn one_job(name: &str, maps: u32, reduces: u32, submit_s: u64) -> WorkflowSpec {
    let mut b = WorkflowBuilder::new(name);
    b.add_job(JobSpec::new(
        "j",
        maps,
        reduces,
        SimDuration::from_secs(10),
        SimDuration::from_secs(20),
    ));
    b.submit_at(SimTime::from_secs(submit_s));
    b.relative_deadline(SimDuration::from_mins(30));
    b.build().unwrap()
}

#[test]
fn empty_workload_finishes_immediately() {
    let report = run_simulation(
        &[],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(2, 2, 1),
        &SimConfig::default(),
    );
    assert!(report.completed);
    assert!(report.outcomes.is_empty());
    assert_eq!(report.tasks_executed, 0);
    assert_eq!(report.events_processed, 0);
}

#[test]
fn reduce_job_on_map_only_cluster_is_turned_away() {
    // A workflow with tasks of a kind the cluster has no slots for could
    // never finish: it is turned away at the front door, with no gate,
    // instead of idling to the cutoff. The others run to completion.
    let workflows = [one_job("reduces", 2, 1, 0), one_job("maps", 3, 0, 0)];
    for (cluster, reason, runs) in [
        (
            ClusterConfig::uniform(2, 2, 0),
            "no_reduce_slots",
            &["maps"][..],
        ),
        (ClusterConfig::uniform(2, 0, 2), "no_map_slots", &[]),
    ] {
        let config = SimConfig {
            observability: ObservabilityConfig {
                trace: true,
                ..ObservabilityConfig::default()
            },
            ..SimConfig::default()
        };
        let (report, obs) = run_simulation_observed(
            &workflows,
            &mut SubmitOrderScheduler::new(),
            &cluster,
            &config,
        );
        assert!(report.completed, "{reason}");
        let ran: Vec<&str> = report.outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(ran, runs, "{reason}");
        assert!(report.outcomes.iter().all(|o| o.finished.is_some()));
        let refused: Vec<&str> = workflows
            .iter()
            .map(WorkflowSpec::name)
            .filter(|name| !runs.contains(name))
            .collect();
        let admission = report.admission.expect("the rejections are reported");
        assert_eq!(admission.workflows_rejected, refused.len() as u64);
        assert_eq!(
            admission.rejections,
            [RejectCount {
                reason: reason.to_string(),
                count: refused.len() as u64,
            }]
        );
        let traced: Vec<(&str, &str)> = obs
            .trace
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::AdmissionReject { workflow, reason } => {
                    Some((workflow.as_str(), reason.as_str()))
                }
                _ => None,
            })
            .collect();
        let expected: Vec<(&str, &str)> = refused.iter().map(|&name| (name, reason)).collect();
        assert_eq!(traced, expected);
    }
}

#[test]
fn map_only_workflow_on_map_only_cluster_completes() {
    let report = run_simulation(
        &[one_job("w", 6, 0, 0)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(2, 2, 0),
        &SimConfig::default(),
    );
    assert!(report.completed);
    assert_eq!(report.deadline_misses(), 0);
    assert_eq!(report.utilization(SlotKind::Reduce), 0.0);
}

#[test]
fn single_slot_cluster_serializes_everything() {
    let report = run_simulation(
        &[one_job("a", 3, 0, 0), one_job("b", 3, 0, 0)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(1, 1, 0),
        &SimConfig::default(),
    );
    assert!(report.completed);
    // 6 map tasks x 10s serialized: at least 60s of simulated time.
    assert!(report.end_time >= SimTime::from_secs(60));
    // One slot: busy time equals the sum of task durations.
    assert_eq!(report.busy_slot_ms[0], 6 * 10_000);
}

#[test]
fn late_arrival_after_everything_finished() {
    // The second workflow arrives long after the first completes; the
    // heartbeat machinery must still be alive to serve it.
    let report = run_simulation(
        &[one_job("early", 2, 1, 0), one_job("late", 2, 1, 1_800)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(2, 2, 1),
        &SimConfig::default(),
    );
    assert!(report.completed);
    let late = report.outcome_by_name("late").unwrap();
    assert!(late.finished.unwrap() > SimTime::from_secs(1_800));
    assert!(late.met_deadline());
}

#[test]
fn coarse_heartbeats_still_complete() {
    // Heartbeat interval far longer than every task duration.
    let cluster = ClusterConfig::uniform(2, 2, 1).with_heartbeat(SimDuration::from_mins(2));
    let report = run_simulation(
        &[one_job("w", 4, 2, 0)],
        &mut SubmitOrderScheduler::new(),
        &cluster,
        &SimConfig::default(),
    );
    assert!(report.completed);
    // Completion-triggered assignment keeps latency bounded even with
    // coarse heartbeats, but the first wave waits for the first heartbeat.
    assert!(report.outcomes[0].finished.unwrap() <= SimTime::from_mins(10));
}

#[test]
fn huge_submit_latency_defers_everything() {
    let config = SimConfig {
        submit_latency: SimDuration::from_mins(10),
        ..SimConfig::default()
    };
    let report = run_simulation(
        &[one_job("w", 1, 0, 0)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(1, 1, 1),
        &config,
    );
    assert!(report.completed);
    assert!(report.outcomes[0].finished.unwrap() >= SimTime::from_mins(10));
}

#[test]
fn no_deadline_workflow_always_meets() {
    let mut b = WorkflowBuilder::new("lazy");
    b.add_job(JobSpec::new(
        "j",
        2,
        1,
        SimDuration::from_secs(10),
        SimDuration::from_secs(10),
    ));
    let w = b.build().unwrap();
    let report = run_simulation(
        &[w],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(1, 2, 1),
        &SimConfig::default(),
    );
    assert!(report.completed);
    assert_eq!(report.deadline_misses(), 0);
    assert_eq!(report.max_tardiness(), SimDuration::ZERO);
}

#[test]
fn many_tiny_workflows_drain() {
    let workflows: Vec<WorkflowSpec> = (0..200)
        .map(|i| one_job(&format!("w{i}"), 1, 0, i / 4))
        .collect();
    let report = run_simulation(
        &workflows,
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(4, 2, 0),
        &SimConfig::default(),
    );
    assert!(report.completed);
    assert_eq!(report.tasks_executed, 200);
    assert_eq!(report.outcomes.len(), 200);
}

#[test]
fn asymmetric_nodes_from_totals() {
    // with_totals(7, 3) builds uneven nodes; slots must be fully usable.
    let cluster = ClusterConfig::with_totals(7, 3);
    let report = run_simulation(
        &[one_job("w", 14, 3, 0)],
        &mut SubmitOrderScheduler::new(),
        &cluster,
        &SimConfig::default(),
    );
    assert!(report.completed);
    // Two full map waves of 7.
    assert!(report.end_time >= SimTime::from_secs(40));
}

#[test]
fn timeline_tracking_of_empty_workload() {
    let config = SimConfig {
        observability: ObservabilityConfig {
            timelines: true,
            ..ObservabilityConfig::default()
        },
        ..SimConfig::default()
    };
    let report = run_simulation(
        &[],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(1, 1, 1),
        &config,
    );
    let tl = report.timelines.unwrap();
    assert_eq!(tl.workflow_count(), 0);
}
