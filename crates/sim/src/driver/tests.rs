use super::*;
use crate::scheduler::SubmitOrderScheduler;
use woha_model::{JobSpec, WorkflowBuilder};

fn simple_workflow(name: &str, submit_s: u64, deadline_rel_s: u64) -> WorkflowSpec {
    let mut b = WorkflowBuilder::new(name);
    let a = b.add_job(JobSpec::new(
        "a",
        4,
        2,
        SimDuration::from_secs(10),
        SimDuration::from_secs(20),
    ));
    let z = b.add_job(JobSpec::new(
        "z",
        2,
        1,
        SimDuration::from_secs(5),
        SimDuration::from_secs(15),
    ));
    b.add_dependency(a, z);
    b.submit_at(SimTime::from_secs(submit_s));
    b.relative_deadline(SimDuration::from_secs(deadline_rel_s));
    b.build().unwrap()
}

fn default_run(workflows: &[WorkflowSpec]) -> SimReport {
    run_simulation(
        workflows,
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(2, 2, 1),
        &SimConfig::default(),
    )
}

#[test]
fn single_workflow_completes() {
    let report = default_run(&[simple_workflow("w", 0, 600)]);
    assert!(report.completed);
    assert_eq!(report.outcomes.len(), 1);
    assert!(report.outcomes[0].finished.is_some());
    assert_eq!(report.invalid_assignments, 0);
    // 4 + 2 + 2 + 1 tasks.
    assert_eq!(report.tasks_executed, 9);
}

#[test]
fn phases_respect_dependencies() {
    // With 4 map slots and 2 reduce slots: job a needs one map wave
    // (10s) + one reduce wave (20s); then job z one map wave (5s) +
    // reduce (15s). Plus ~1s submit latency each and heartbeat slack.
    let report = default_run(&[simple_workflow("w", 0, 600)]);
    let finish = report.outcomes[0].finished.unwrap();
    // Lower bound: pure critical path 10+20+5+15 = 50s + 2 submit
    // latencies = 52s.
    assert!(finish >= SimTime::from_secs(52), "finish {finish}");
    // Upper bound with heartbeat slack: well under 70s.
    assert!(finish <= SimTime::from_secs(70), "finish {finish}");
}

#[test]
fn deadline_outcome_reflects_finish() {
    let tight = default_run(&[simple_workflow("w", 0, 10)]);
    assert_eq!(tight.deadline_misses(), 1);
    assert!(tight.max_tardiness() > SimDuration::ZERO);
    let loose = default_run(&[simple_workflow("w", 0, 600)]);
    assert_eq!(loose.deadline_misses(), 0);
}

#[test]
fn later_submission_time_is_respected() {
    let report = default_run(&[simple_workflow("w", 120, 600)]);
    let o = &report.outcomes[0];
    assert_eq!(o.submitted, SimTime::from_secs(120));
    assert!(o.finished.unwrap() > SimTime::from_secs(120));
    // Workspan is measured from submission, not from zero.
    assert!(o.workspan(report.end_time) < SimDuration::from_secs(100));
}

#[test]
fn deterministic_across_runs() {
    let w = vec![
        simple_workflow("a", 0, 600),
        simple_workflow("b", 5, 600),
        simple_workflow("c", 10, 600),
    ];
    let r1 = default_run(&w);
    let r2 = default_run(&w);
    assert_eq!(r1, r2);
}

#[test]
fn jitter_changes_durations_but_stays_deterministic() {
    let w = vec![simple_workflow("w", 0, 600)];
    let cfg = SimConfig {
        duration_jitter: 0.3,
        seed: 7,
        ..SimConfig::default()
    };
    let cluster = ClusterConfig::uniform(2, 2, 1);
    let r1 = run_simulation(&w, &mut SubmitOrderScheduler::new(), &cluster, &cfg);
    let r2 = run_simulation(&w, &mut SubmitOrderScheduler::new(), &cluster, &cfg);
    assert_eq!(r1, r2);
    let r0 = default_run(&w);
    assert_ne!(
        r0.outcomes[0].finished, r1.outcomes[0].finished,
        "jitter should perturb the schedule"
    );
    let other_seed = SimConfig { seed: 8, ..cfg };
    let r3 = run_simulation(&w, &mut SubmitOrderScheduler::new(), &cluster, &other_seed);
    assert_ne!(r1.outcomes[0].finished, r3.outcomes[0].finished);
}

#[test]
fn max_sim_time_truncates() {
    let cfg = SimConfig {
        max_sim_time: SimTime::from_secs(20),
        ..SimConfig::default()
    };
    let report = run_simulation(
        &[simple_workflow("w", 0, 600)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(1, 1, 1),
        &cfg,
    );
    assert!(!report.completed);
    assert_eq!(report.outcomes[0].finished, None);
    assert!(report.end_time <= SimTime::from_secs(20));
}

#[test]
fn utilization_bounded_and_positive() {
    let report = default_run(&[simple_workflow("w", 0, 600)]);
    let u = report.overall_utilization();
    assert!(u > 0.0 && u <= 1.0, "utilization {u}");
}

#[test]
fn timelines_track_slot_occupancy() {
    let cfg = SimConfig {
        observability: ObservabilityConfig {
            timelines: true,
            sample_interval: Some(SimDuration::from_secs(1)),
            ..ObservabilityConfig::default()
        },
        ..SimConfig::default()
    };
    let report = run_simulation(
        &[simple_workflow("w", 0, 600)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(2, 2, 1),
        &cfg,
    );
    let tl = report.timelines.as_ref().unwrap();
    let maps = tl.series(WorkflowId::new(0), SlotKind::Map);
    // At some instant all 4 map slots are busy.
    assert_eq!(*maps.iter().max().unwrap(), 4);
    // Never exceeds cluster capacity.
    assert!(maps.iter().all(|&m| m <= 4));
    let reduces = tl.series(WorkflowId::new(0), SlotKind::Reduce);
    assert_eq!(*reduces.iter().max().unwrap(), 2);
}

#[test]
fn work_conserving_with_parallel_workflows() {
    // Two identical workflows, cluster big enough for both: the second
    // must not wait for the first.
    let w = vec![simple_workflow("a", 0, 600), simple_workflow("b", 0, 600)];
    let report = run_simulation(
        &w,
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(8, 2, 1),
        &SimConfig::default(),
    );
    let f0 = report.outcomes[0].finished.unwrap();
    let f1 = report.outcomes[1].finished.unwrap();
    let spread = if f0 > f1 { f0 - f1 } else { f1 - f0 };
    assert!(spread < SimDuration::from_secs(5), "spread {spread}");
}

#[test]
fn zero_submit_latency_works() {
    let cfg = SimConfig {
        submit_latency: SimDuration::ZERO,
        ..SimConfig::default()
    };
    let report = run_simulation(
        &[simple_workflow("w", 0, 600)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(2, 2, 1),
        &cfg,
    );
    assert!(report.completed);
}

#[test]
fn failure_injection_retries_and_terminates() {
    let cfg = SimConfig {
        task_failure_prob: 0.3,
        seed: 5,
        ..SimConfig::default()
    };
    let report = run_simulation(
        &[simple_workflow("w", 0, 3_000)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(2, 2, 1),
        &cfg,
    );
    assert!(report.completed);
    assert!(report.task_failures > 0, "30% failure rate must fire");
    // Every failed attempt re-executes: executed = tasks + failures.
    assert_eq!(report.tasks_executed, 9 + report.task_failures);
    // Deterministic.
    let again = run_simulation(
        &[simple_workflow("w", 0, 3_000)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(2, 2, 1),
        &cfg,
    );
    assert_eq!(report, again);
}

#[test]
fn failures_delay_completion() {
    let base = default_run(&[simple_workflow("w", 0, 3_000)]);
    let cfg = SimConfig {
        task_failure_prob: 0.5,
        seed: 3,
        ..SimConfig::default()
    };
    let faulty = run_simulation(
        &[simple_workflow("w", 0, 3_000)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(2, 2, 1),
        &cfg,
    );
    assert!(
        faulty.outcomes[0].finished.unwrap() > base.outcomes[0].finished.unwrap(),
        "failures must slow the workflow down"
    );
}

#[test]
fn speculation_duplicates_stragglers_and_terminates() {
    // High straggler probability and patient threshold: speculation
    // must fire, resolve races, and the run must stay consistent.
    let cfg = SimConfig {
        speculation: Some(SpeculationConfig {
            straggler_prob: 0.4,
            straggler_factor: 8.0,
            speculate_after: 1.3,
        }),
        seed: 11,
        ..SimConfig::default()
    };
    // A workload wide enough to leave idle slots while stragglers run.
    let workflows = vec![simple_workflow("w", 0, 3_000)];
    let report = run_simulation(
        &workflows,
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(4, 2, 1),
        &cfg,
    );
    assert!(report.completed);
    assert!(report.stragglers > 0, "stragglers must be injected");
    assert!(
        report.speculative_launched > 0,
        "speculation must fire: {report:?}"
    );
    assert!(report.speculative_wins <= report.speculative_launched);
    // Deterministic.
    let again = run_simulation(
        &workflows,
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(4, 2, 1),
        &cfg,
    );
    assert_eq!(report, again);
}

#[test]
fn speculation_beats_stragglers() {
    // With heavy stragglers, speculation should shorten the makespan
    // relative to no speculation (same straggler injection).
    let base_spec = SpeculationConfig {
        straggler_prob: 0.3,
        straggler_factor: 10.0,
        speculate_after: 1.2,
    };
    let run_with = |speculate: bool| {
        let cfg = SimConfig {
            speculation: Some(SpeculationConfig {
                // Disable duplicates by making the threshold absurd.
                speculate_after: if speculate {
                    base_spec.speculate_after
                } else {
                    1e9
                },
                ..base_spec
            }),
            seed: 21,
            ..SimConfig::default()
        };
        run_simulation(
            &[simple_workflow("w", 0, 30_000)],
            &mut SubmitOrderScheduler::new(),
            &ClusterConfig::uniform(4, 2, 1),
            &cfg,
        )
    };
    let with = run_with(true);
    let without = run_with(false);
    assert!(with.completed && without.completed);
    assert!(without.speculative_launched == 0);
    assert!(
        with.end_time < without.end_time,
        "speculation should cut the straggler tail: {} vs {}",
        with.end_time,
        without.end_time
    );
}

#[test]
fn speculation_composes_with_woha_style_accounting() {
    // Tasks executed still counts every *launch* (original + dup), and
    // per-workflow progress is untouched by duplicates.
    let cfg = SimConfig {
        speculation: Some(SpeculationConfig {
            straggler_prob: 0.5,
            straggler_factor: 6.0,
            speculate_after: 1.2,
        }),
        seed: 3,
        ..SimConfig::default()
    };
    let report = run_simulation(
        &[simple_workflow("w", 0, 30_000)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(4, 2, 1),
        &cfg,
    );
    assert!(report.completed);
    // 9 real tasks, plus one launch per original attempt only.
    assert_eq!(report.tasks_executed, 9);
    assert_eq!(report.invalid_assignments, 0);
}

#[test]
fn locality_tracks_local_and_remote_tasks() {
    let cfg = SimConfig {
        locality: Some(LocalityConfig::default()),
        ..SimConfig::default()
    };
    let report = run_simulation(
        &[simple_workflow("w", 0, 600)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(4, 2, 1),
        &cfg,
    );
    assert!(report.completed);
    // Every map task is classified.
    assert_eq!(report.local_map_tasks + report.remote_map_tasks, 6);
    let ratio = report.map_locality_ratio();
    assert!((0.0..=1.0).contains(&ratio));
    // With 3 replicas over 4 nodes most tasks should find a local slot
    // eventually, but the run still completes either way.
}

#[test]
fn delay_scheduling_improves_locality() {
    let workflows: Vec<WorkflowSpec> = (0..4)
        .map(|i| simple_workflow(&format!("w{i}"), i * 3, 3_000))
        .collect();
    let run_with = |skips: u32| {
        let cfg = SimConfig {
            locality: Some(LocalityConfig {
                replicas: 1,
                max_delay_skips: skips,
                ..LocalityConfig::default()
            }),
            ..SimConfig::default()
        };
        run_simulation(
            &workflows,
            &mut SubmitOrderScheduler::new(),
            &ClusterConfig::uniform(8, 2, 1),
            &cfg,
        )
    };
    let eager = run_with(0);
    let patient = run_with(4);
    assert!(eager.completed && patient.completed);
    assert_eq!(eager.delay_skips, 0);
    assert!(
        patient.delay_skips > 0,
        "delay scheduling must decline offers"
    );
    assert!(
        patient.map_locality_ratio() >= eager.map_locality_ratio(),
        "waiting for local slots must not hurt locality: {} vs {}",
        patient.map_locality_ratio(),
        eager.map_locality_ratio()
    );
}

#[test]
fn locality_composes_with_failures() {
    let cfg = SimConfig {
        locality: Some(LocalityConfig::default()),
        task_failure_prob: 0.3,
        seed: 7,
        ..SimConfig::default()
    };
    let report = run_simulation(
        &[simple_workflow("w", 0, 3_000)],
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(4, 2, 1),
        &cfg,
    );
    assert!(report.completed);
    assert!(report.task_failures > 0);
    assert_eq!(
        report.local_map_tasks + report.remote_map_tasks,
        // 6 original maps plus every retried map attempt.
        6 + report.task_failures - reduce_failures(&report)
    );
}

/// Failures on reduce tasks (no locality classification).
#[test]
fn survivor_preference_keeps_a_failed_maps_identity_without_faults() {
    // Survivor preference with injected task failures and no faults: a
    // failed map re-queues under its original identity, which only its
    // attempt record remembers. Speculation that never fires also keeps
    // attempt records, and must change nothing.
    let w: Vec<WorkflowSpec> = (0..4)
        .map(|i| simple_workflow(&format!("w{i}"), i * 5, 3_000))
        .collect();
    let cluster = ClusterConfig::uniform(4, 2, 1);
    let cfg = SimConfig {
        task_failure_prob: 0.3,
        seed: 9,
        locality: Some(LocalityConfig {
            prefer_survivors: true,
            ..LocalityConfig::default()
        }),
        ..SimConfig::default()
    };
    let run = |cfg: &SimConfig| run_simulation(&w, &mut SubmitOrderScheduler::new(), &cluster, cfg);
    let mut report = run(&cfg);
    assert!(report.completed);
    assert!(report.task_failures > 0);
    let dp = report.data_plane.expect("survivor preference reports");
    assert!(dp.survivor_requeues > 0, "failed maps keep their identity");
    let mut inert = run(&SimConfig {
        speculation: Some(inert_speculation()),
        ..cfg.clone()
    });
    report.scheduler_nanos = 0;
    inert.scheduler_nanos = 0;
    assert_eq!(report, inert);
}

fn reduce_failures(report: &SimReport) -> u64 {
    // executed = 9 tasks + all failures; map executions are classified.
    report.tasks_executed - (report.local_map_tasks + report.remote_map_tasks) - 3
}

/// Sixty staggered workflows on a small cluster: a few thousand
/// scheduler decisions.
fn stopwatch_workload() -> Vec<WorkflowSpec> {
    (0..60)
        .map(|i| simple_workflow(&format!("w{i}"), i * 7, 6_000))
        .collect()
}

#[test]
fn sampled_stopwatch_estimates_scheduler_time_with_metrics_off() {
    let report = run_simulation(
        &stopwatch_workload(),
        &mut SubmitOrderScheduler::new(),
        &ClusterConfig::uniform(4, 2, 1),
        &SimConfig::default(),
    );
    assert!(report.completed);
    assert!(report.assign_calls >= 1_000, "{}", report.assign_calls);
    // Offers elided by idle runs reach no stopwatch, but every task start
    // is a decision the scheduler made: several strides' worth.
    assert!(report.tasks_executed >= 8 * DECISION_SAMPLE_STRIDE);
    assert!(report.scheduler_nanos > 0);
    let per_offer = report.scheduler_nanos as f64 / report.assign_calls as f64;
    assert!(per_offer < 1e6, "{per_offer} ns per offer");
}

/// Speculation that never fires. It keeps idle runs off, because with
/// speculation on an idle slot could take a duplicate, and changes nothing
/// else a run does.
fn inert_speculation() -> SpeculationConfig {
    SpeculationConfig {
        straggler_prob: 0.0,
        speculate_after: f64::INFINITY,
        ..SpeculationConfig::default()
    }
}

/// The run under `cfg`, traced.
fn traced_run(
    workflows: &[WorkflowSpec],
    cluster: &ClusterConfig,
    cfg: &SimConfig,
) -> (SimReport, Observations) {
    let cfg = SimConfig {
        observability: ObservabilityConfig {
            trace: true,
            ..cfg.observability
        },
        ..cfg.clone()
    };
    run_simulation_observed(workflows, &mut SubmitOrderScheduler::new(), cluster, &cfg)
}

/// The same run on the per-beat path, traced.
fn per_beat_run(
    workflows: &[WorkflowSpec],
    cluster: &ClusterConfig,
    cfg: &SimConfig,
) -> (SimReport, Observations) {
    let cfg = SimConfig {
        speculation: Some(inert_speculation()),
        ..cfg.clone()
    };
    traced_run(workflows, cluster, &cfg)
}

#[test]
fn an_idle_run_yields_to_an_arrival_at_the_beat_it_stops_on() {
    // One node beating at 0, 3, 6, ... s and a workflow arriving at 6 s.
    // The arrival pops before the 6 s beat, so with a submit latency of
    // one interval its activation is queued for 9 s ahead of that beat's
    // re-arm, and the 9 s beat starts the map: 9 + 10 + 20 s. Were the
    // beat popped first, the map would wait for the 12 s beat.
    let mut b = WorkflowBuilder::new("w");
    b.add_job(JobSpec::new(
        "only",
        1,
        1,
        SimDuration::from_secs(10),
        SimDuration::from_secs(20),
    ));
    b.submit_at(SimTime::from_secs(6));
    b.relative_deadline(SimDuration::from_secs(600));
    let workflows = [b.build().unwrap()];
    let cluster = ClusterConfig::uniform(1, 1, 1).with_heartbeat(SimDuration::from_secs(3));
    let cfg = SimConfig {
        submit_latency: cluster.heartbeat_interval(),
        ..SimConfig::default()
    };
    let report = run_simulation(&workflows, &mut SubmitOrderScheduler::new(), &cluster, &cfg);
    assert_eq!(report.outcomes[0].finished, Some(SimTime::from_secs(39)));
    let (mut per_beat, per_beat_obs) = per_beat_run(&workflows, &cluster, &cfg);
    per_beat.scheduler_nanos = report.scheduler_nanos;
    assert_eq!(report, per_beat);
    // Traced, the idle runs report every beat they consume.
    let (_, obs) = traced_run(&workflows, &cluster, &cfg);
    assert_eq!(obs.trace, per_beat_obs.trace);
}

/// A replay clock that now and then answers "not yet" once, and keeps a
/// log of what the driver asked it.
#[derive(Default)]
struct HesitantClock {
    /// `Some((t, answer))` for a `ready_for(t)`, `None` for a `stamp`.
    log: std::cell::RefCell<Vec<Option<(SimTime, bool)>>>,
    /// Questions asked from inside idle runs so far.
    asked_in_runs: usize,
}

impl Clock for HesitantClock {
    fn ready_for(&mut self, t: SimTime) -> bool {
        let log = self.log.get_mut();
        // Asked back to back, with no source poll in between: from inside
        // an idle run. Refuse every fifth such beat, once.
        let in_run = matches!(log.last(), Some(Some((_, true))));
        self.asked_in_runs += usize::from(in_run);
        let ready = !(in_run && self.asked_in_runs.is_multiple_of(5));
        log.push(Some((t, ready)));
        ready
    }

    fn source_pending(&mut self, _next_event: Option<SimTime>) -> SourceWait {
        SourceWait::Ended
    }

    fn stamp(&self, at: SimTime, _now: SimTime) -> SimTime {
        self.log.borrow_mut().push(None);
        at
    }
}

#[test]
fn an_idle_run_stops_at_the_beat_the_clock_refuses() {
    // Two workflows ten minutes apart: the cluster idles in between, and
    // the pending second arrival makes every pass of the main loop stamp
    // it, which is how the clock tells the main loop's questions from an
    // idle run's.
    let workflows = [simple_workflow("a", 0, 600), simple_workflow("b", 600, 600)];
    let cluster = ClusterConfig::uniform(4, 2, 1);
    let cfg = SimConfig::default();
    let mut clock = HesitantClock::default();
    let (report, _) = try_run_simulation_clocked(
        &mut VecSource::new(workflows.to_vec()),
        &mut SubmitOrderScheduler::new(),
        &cluster,
        &cfg,
        None,
        None,
        &mut clock,
    )
    .unwrap();
    let mut reference =
        run_simulation(&workflows, &mut SubmitOrderScheduler::new(), &cluster, &cfg);
    reference.scheduler_nanos = report.scheduler_nanos;
    assert_eq!(report, reference);

    let log = clock.log.into_inner();
    let refused: Vec<usize> = (0..log.len())
        .filter(|&i| matches!(log[i], Some((_, false))))
        .collect();
    assert!(refused.len() > 20, "{} refusals", refused.len());
    for i in refused {
        // The run ended there: the main loop polled the source again
        // (the stamp, while there is an arrival left to stamp) and asked
        // about the very same beat.
        let Some((t, false)) = log[i] else {
            unreachable!()
        };
        let rest = &log[i + 1..];
        assert_eq!(rest.iter().flatten().next(), Some(&(t, true)), "entry {i}");
        assert_eq!(rest[0].is_none(), rest.contains(&None), "entry {i}");
    }
}

mod faults {
    use super::*;
    use crate::fault::{FaultConfig, ScriptedFault};

    fn fault_cluster(faults: FaultConfig) -> ClusterConfig {
        ClusterConfig::uniform(2, 2, 1).with_faults(faults)
    }

    fn run(workflows: &[WorkflowSpec], cluster: &ClusterConfig, cfg: &SimConfig) -> SimReport {
        run_simulation(workflows, &mut SubmitOrderScheduler::new(), cluster, cfg)
    }

    #[test]
    fn disabled_fault_config_is_bit_identical() {
        let w = vec![simple_workflow("w", 0, 600)];
        let plain = default_run(&w);
        let with_default = run(
            &w,
            &fault_cluster(FaultConfig::default()),
            &SimConfig::default(),
        );
        assert_eq!(plain, with_default);
    }

    #[test]
    fn scripted_crash_requeues_and_recovers() {
        // Crash node 1 while job a's maps run; it recovers at 20 s.
        let faults = FaultConfig::scripted(vec![ScriptedFault::one(
            NodeId::new(1),
            SimTime::from_secs(5),
            Some(SimTime::from_secs(20)),
        )]);
        let cfg = SimConfig {
            observability: ObservabilityConfig {
                timelines: true,
                sample_interval: Some(SimDuration::from_secs(1)),
                ..ObservabilityConfig::default()
            },
            ..SimConfig::default()
        };
        let cluster = fault_cluster(faults);
        let w = [simple_workflow("w", 0, 3_000)];
        let report = run(&w, &cluster, &cfg);
        assert!(report.completed);
        assert_eq!(report.node_failures, 1);
        assert_eq!(report.node_recoveries, 1);
        assert!(report.tasks_requeued > 0, "running maps died with the node");
        assert!(report.work_lost_slot_ms > 0);
        // Every requeued or invalidated task launches again.
        assert_eq!(
            report.tasks_executed,
            9 + report.tasks_requeued + report.map_outputs_lost
        );
        // The node's 3 slots leave the pool during the outage and
        // return after it.
        let tl = report.timelines.as_ref().unwrap();
        assert!(tl.down_slots().contains(&3));
        assert_eq!(*tl.down_slots().last().unwrap(), 0);
        assert_eq!(report, run(&w, &cluster, &cfg), "fault runs are seeded");
    }

    #[test]
    fn repaired_node_re_registers_ahead_of_later_scheduled_beats() {
        // Four nodes beat on a staggered 3 s grid (offsets 0 / 0.75 / 1.5 /
        // 2.25 s). Node 1 comes back at 20.4 s, between grid points: its
        // re-registration beat fires at that instant — pushed after the
        // other nodes' next beats were already queued, and earlier than
        // all of them — and its chain continues from there, off the grid.
        let repaired = SimTime::from_millis(20_400);
        let faults = FaultConfig::scripted(vec![ScriptedFault::one(
            NodeId::new(1),
            SimTime::from_secs(5),
            Some(repaired),
        )]);
        let cluster = ClusterConfig::uniform(4, 2, 1).with_faults(faults);
        let cfg = SimConfig {
            observability: ObservabilityConfig {
                trace: true,
                ..ObservabilityConfig::default()
            },
            ..SimConfig::default()
        };
        let (report, obs) = run_simulation_observed(
            &[simple_workflow("w", 0, 3_000)],
            &mut SubmitOrderScheduler::new(),
            &cluster,
            &cfg,
        );
        assert!(report.completed);
        let beats: Vec<(SimTime, usize)> = obs
            .trace
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Heartbeat { node, .. } => Some((r.at, node)),
                _ => None,
            })
            .collect();
        assert!(beats.windows(2).all(|w| w[0].0 <= w[1].0), "time order");
        let up = obs
            .trace
            .iter()
            .position(|r| matches!(r.event, TraceEvent::NodeUp { node: 1, .. }))
            .expect("node 1 recovers");
        assert_eq!(obs.trace[up].at, repaired);
        let next_beat = obs.trace[up..]
            .iter()
            .find(|r| matches!(r.event, TraceEvent::Heartbeat { .. }))
            .expect("beats follow the recovery");
        assert!(matches!(
            next_beat.event,
            TraceEvent::Heartbeat { node: 1, .. }
        ));
        assert_eq!(next_beat.at, repaired);
        let interval = cluster.heartbeat_interval().as_millis();
        let after: Vec<SimTime> = beats
            .iter()
            .filter(|&&(at, node)| node == 1 && at >= repaired)
            .map(|&(at, _)| at)
            .collect();
        assert!(after.len() >= 3, "the chain restarted");
        for (k, at) in after.iter().enumerate() {
            assert_eq!(at.as_millis(), repaired.as_millis() + k as u64 * interval);
        }
    }

    #[test]
    fn node_loss_invalidates_completed_map_outputs() {
        // Crash node 1 after job a's maps finished (~11.5 s), while its
        // reduces still run: the two map outputs it hosted must
        // re-execute before the requeued reduce can restart.
        let faults = FaultConfig::scripted(vec![ScriptedFault::one(
            NodeId::new(1),
            SimTime::from_secs(15),
            Some(SimTime::from_secs(40)),
        )]);
        let report = run(
            &[simple_workflow("w", 0, 3_000)],
            &fault_cluster(faults),
            &SimConfig::default(),
        );
        assert!(report.completed);
        assert!(
            report.map_outputs_lost > 0,
            "completed maps died with the node"
        );
        assert_eq!(
            report.tasks_executed,
            9 + report.tasks_requeued + report.map_outputs_lost
        );
    }

    #[test]
    fn crashes_delay_completion() {
        let w = [simple_workflow("w", 0, 3_000)];
        let base = default_run(&w);
        let faults = FaultConfig::scripted(vec![ScriptedFault::one(
            NodeId::new(1),
            SimTime::from_secs(5),
            Some(SimTime::from_secs(60)),
        )]);
        let faulty = run(&w, &fault_cluster(faults), &SimConfig::default());
        assert!(
            faulty.outcomes[0].finished.unwrap() > base.outcomes[0].finished.unwrap(),
            "losing a node must slow the workflow down"
        );
    }

    #[test]
    fn blacklisted_node_never_rejoins() {
        let faults = FaultConfig {
            blacklist_after: 2,
            scripted: vec![
                ScriptedFault::one(
                    NodeId::new(1),
                    SimTime::from_secs(5),
                    Some(SimTime::from_secs(10)),
                ),
                ScriptedFault::one(
                    NodeId::new(1),
                    SimTime::from_secs(15),
                    Some(SimTime::from_secs(20)),
                ),
            ],
            ..FaultConfig::default()
        };
        let cfg = SimConfig {
            observability: ObservabilityConfig {
                timelines: true,
                sample_interval: Some(SimDuration::from_secs(1)),
                ..ObservabilityConfig::default()
            },
            ..SimConfig::default()
        };
        let report = run(
            &[simple_workflow("w", 0, 3_000)],
            &fault_cluster(faults),
            &cfg,
        );
        assert!(report.completed, "node 0 alone still finishes the work");
        assert_eq!(report.node_failures, 2);
        assert_eq!(report.node_recoveries, 1, "second repair is refused");
        assert_eq!(report.nodes_blacklisted, 1);
        // The blacklisted node's slots stay out of the pool for good.
        let tl = report.timelines.as_ref().unwrap();
        assert_eq!(*tl.down_slots().last().unwrap(), 3);
    }

    #[test]
    fn stochastic_faults_are_seeded() {
        let faults = FaultConfig::with_mtbf(SimDuration::from_secs(45), SimDuration::from_secs(10));
        let cluster = ClusterConfig::uniform(4, 2, 1).with_faults(faults);
        let w = [simple_workflow("w", 0, 30_000)];
        let cfg = SimConfig {
            seed: 13,
            ..SimConfig::default()
        };
        let r1 = run(&w, &cluster, &cfg);
        assert!(r1.completed);
        assert!(r1.node_failures > 0, "45 s MTBF must crash something");
        assert_eq!(r1, run(&w, &cluster, &cfg));
        let other = SimConfig {
            seed: 14,
            ..SimConfig::default()
        };
        assert_ne!(
            r1,
            run(&w, &cluster, &other),
            "seed drives the fault schedule"
        );
    }

    #[test]
    fn faults_compose_with_speculation_failures_and_locality() {
        let faults = FaultConfig {
            mtbf: Some(SimDuration::from_secs(60)),
            mttr: SimDuration::from_secs(8),
            ..FaultConfig::default()
        };
        let cluster = ClusterConfig::uniform(4, 2, 1).with_faults(faults);
        let cfg = SimConfig {
            task_failure_prob: 0.2,
            locality: Some(LocalityConfig::default()),
            speculation: Some(SpeculationConfig {
                straggler_prob: 0.3,
                straggler_factor: 6.0,
                speculate_after: 1.3,
            }),
            seed: 17,
            ..SimConfig::default()
        };
        let w = [simple_workflow("w", 0, 30_000)];
        let report = run(&w, &cluster, &cfg);
        assert!(report.completed);
        assert_eq!(report, run(&w, &cluster, &cfg));
    }
}

mod racks {
    use super::*;
    use crate::fault::{FaultConfig, ScriptedFault};

    fn run(workflows: &[WorkflowSpec], cluster: &ClusterConfig, cfg: &SimConfig) -> SimReport {
        run_simulation(workflows, &mut SubmitOrderScheduler::new(), cluster, cfg)
    }

    #[test]
    fn flat_rack_default_is_bit_identical() {
        let w = vec![simple_workflow("w", 0, 600)];
        let plain = default_run(&w);
        let racked = run(
            &w,
            &ClusterConfig::uniform(2, 2, 1).with_racks(1),
            &SimConfig::default(),
        );
        assert_eq!(plain, racked);
        assert!(racked.data_plane.is_none(), "off is invisible");
    }

    #[test]
    fn rack_outage_takes_the_rack_down_atomically() {
        let faults = FaultConfig {
            rack_mtbf: Some(SimDuration::from_secs(25)),
            rack_mttr: Some(SimDuration::from_secs(10)),
            ..FaultConfig::default()
        };
        let cluster = ClusterConfig::uniform(6, 2, 1)
            .with_racks(2)
            .with_faults(faults);
        let cfg = SimConfig {
            seed: 5,
            ..SimConfig::default()
        };
        let w = [simple_workflow("w", 0, 30_000)];
        let report = run(&w, &cluster, &cfg);
        assert!(report.completed);
        let dp = report.data_plane.expect("rack mode reports");
        assert_eq!(dp.racks, 2);
        assert!(dp.rack_outages > 0, "25 s rack MTBF must trip a switch");
        // The first switch failure kills its whole rack (3 of 6 nodes)
        // in one atomic event.
        assert!(
            report.node_failures >= 3,
            "rack outage must take all rack members down: {}",
            report.node_failures
        );
        assert_eq!(report, run(&w, &cluster, &cfg), "rack faults are seeded");
    }

    #[test]
    fn survivor_preference_keeps_task_identity() {
        // Crash a node while job a's maps run; with survivor preference
        // the killed maps re-queue under their original task ids.
        let faults = FaultConfig::scripted(vec![ScriptedFault::one(
            NodeId::new(1),
            SimTime::from_secs(5),
            Some(SimTime::from_secs(40)),
        )]);
        let cluster = ClusterConfig::uniform(4, 2, 1)
            .with_racks(2)
            .with_faults(faults);
        let cfg_with = |prefer_survivors: bool| SimConfig {
            locality: Some(LocalityConfig {
                prefer_survivors,
                ..LocalityConfig::default()
            }),
            ..SimConfig::default()
        };
        let w = [simple_workflow("w", 0, 3_000)];
        let legacy = run(&w, &cluster, &cfg_with(false));
        let survivor = run(&w, &cluster, &cfg_with(true));
        assert!(legacy.completed && survivor.completed);
        let legacy_dp = legacy.data_plane.expect("rack topology reports");
        let survivor_dp = survivor.data_plane.expect("rack topology reports");
        assert_eq!(legacy_dp.survivor_requeues, 0);
        assert!(
            survivor_dp.survivor_requeues > 0,
            "killed maps must re-queue under their original identity"
        );
        assert_eq!(
            survivor,
            run(&w, &cluster, &cfg_with(true)),
            "survivor preference is deterministic"
        );
    }

    #[test]
    fn reshuffle_cost_charges_reduce_launches() {
        // Crash node 1 after job a's maps completed (~15 s) so its map
        // outputs are invalidated while reduces still need them; the
        // re-launched reduces must then pay for the re-fetch.
        let faults = FaultConfig::scripted(vec![ScriptedFault::one(
            NodeId::new(1),
            SimTime::from_secs(15),
            Some(SimTime::from_secs(40)),
        )]);
        let cluster = ClusterConfig::uniform(2, 2, 1).with_faults(faults);
        let cfg_with = |cost: SimDuration| SimConfig {
            reshuffle_cost: cost,
            ..SimConfig::default()
        };
        let w = [simple_workflow("w", 0, 3_000)];
        let free = run(&w, &cluster, &cfg_with(SimDuration::ZERO));
        let charged = run(&w, &cluster, &cfg_with(SimDuration::from_secs(5)));
        assert!(free.completed && charged.completed);
        assert!(free.map_outputs_lost > 0, "the scenario must lose outputs");
        assert!(free.data_plane.is_none(), "zero cost is invisible");
        let dp = charged.data_plane.expect("re-shuffle mode reports");
        assert!(dp.reshuffle_events > 0, "re-launched reduces must pay");
        assert!(dp.reshuffle_charged_ms > 0);
        assert!(
            charged.outcomes[0].finished.unwrap() > free.outcomes[0].finished.unwrap(),
            "paying for re-fetches must slow the workflow down"
        );
        assert_eq!(
            charged,
            run(&w, &cluster, &cfg_with(SimDuration::from_secs(5)))
        );
    }

    #[test]
    fn invalid_data_plane_configs_are_rejected() {
        let w = vec![simple_workflow("w", 0, 600)];
        let mut s = SubmitOrderScheduler::new();
        let mut try_run = |cluster: &ClusterConfig, config: &SimConfig| {
            try_run_simulation_streamed(
                &mut VecSource::new(w.clone()),
                &mut s,
                cluster,
                config,
                None,
            )
        };
        let cluster = ClusterConfig::uniform(2, 2, 1);
        let zero_replicas = SimConfig {
            locality: Some(LocalityConfig {
                replicas: 0,
                ..LocalityConfig::default()
            }),
            ..SimConfig::default()
        };
        assert_eq!(
            try_run(&cluster, &zero_replicas),
            Err(SimError::ZeroLocalityReplicas)
        );
        let zero_rack_mtbf =
            ClusterConfig::uniform(2, 2, 1)
                .with_racks(2)
                .with_faults(FaultConfig {
                    rack_mtbf: Some(SimDuration::ZERO),
                    ..FaultConfig::default()
                });
        assert_eq!(
            try_run(&zero_rack_mtbf, &SimConfig::default()),
            Err(SimError::ZeroRackMtbf)
        );
        assert!(SimError::ZeroLocalityReplicas
            .to_string()
            .contains("replica"));
        let zero_interval = SimConfig {
            observability: ObservabilityConfig {
                timelines: true,
                sample_interval: Some(SimDuration::ZERO),
                ..ObservabilityConfig::default()
            },
            ..SimConfig::default()
        };
        assert_eq!(
            try_run(&cluster, &zero_interval),
            Err(SimError::ZeroSampleInterval)
        );
        assert!(SimError::ZeroRackMtbf.to_string().contains("MTBF"));
        assert!(SimError::ZeroSampleInterval
            .to_string()
            .contains("positive"));
    }
}

mod master {
    use super::*;
    use crate::fault::{FaultConfig, MasterFaultConfig, ScriptedFault};

    fn master_faults(m: MasterFaultConfig) -> FaultConfig {
        FaultConfig {
            master: m,
            ..FaultConfig::default()
        }
    }

    fn cluster_with(m: MasterFaultConfig) -> ClusterConfig {
        ClusterConfig::uniform(2, 2, 1).with_faults(master_faults(m))
    }

    fn run(workflows: &[WorkflowSpec], cluster: &ClusterConfig, cfg: &SimConfig) -> SimReport {
        run_simulation(workflows, &mut SubmitOrderScheduler::new(), cluster, cfg)
    }

    #[test]
    fn disabled_master_faults_are_bit_identical_and_unreported() {
        let w = vec![simple_workflow("w", 0, 600)];
        let plain = default_run(&w);
        assert!(plain.recovery.is_none());
        let with_default = run(
            &w,
            &ClusterConfig::uniform(2, 2, 1).with_faults(FaultConfig::default()),
            &SimConfig::default(),
        );
        assert_eq!(plain, with_default);
    }

    #[test]
    fn lossless_crash_shifts_completion_by_exactly_the_restart_time() {
        // With the WAL, recovery replays to the crash instant and no
        // work is lost: under an order-based scheduler the whole run
        // is the uninterrupted run shifted by the outage.
        let w = vec![simple_workflow("w", 0, 3_000)];
        let base = default_run(&w);
        let mttr = SimDuration::from_secs(30);
        let cluster = cluster_with(MasterFaultConfig {
            mttr,
            scripted: vec![SimTime::from_secs(5)],
            ..MasterFaultConfig::default()
        });
        let report = run(&w, &cluster, &SimConfig::default());
        assert!(report.completed);
        let rec = report.recovery.as_ref().expect("master mode reports");
        assert_eq!(rec.master_crashes, 1);
        assert_eq!(rec.master_downtime_ms, mttr.as_millis());
        assert!(rec.wal_records_replayed > 0, "events since genesis replay");
        assert!(rec.attempts_readopted > 0, "crash lands mid-task");
        assert_eq!(rec.attempts_requeued, 0, "lossless recovery");
        assert_eq!(rec.attempts_orphaned, 0, "lossless recovery");
        assert_eq!(rec.workflows_resubmitted, 0);
        assert_eq!(rec.jobs_resubmitted, 0);
        // No work re-executes...
        assert_eq!(report.tasks_executed, base.tasks_executed);
        assert_eq!(report.tasks_requeued, 0);
        // ...and every completion shifts by exactly the outage.
        for (o, b) in report.outcomes.iter().zip(&base.outcomes) {
            assert_eq!(
                o.finished.unwrap(),
                b.finished.unwrap().saturating_add(mttr),
                "{}",
                o.name
            );
        }
        assert_eq!(report, run(&w, &cluster, &SimConfig::default()));
    }

    #[test]
    fn stale_snapshot_recovery_requeues_and_stays_deterministic() {
        // Without the WAL, recovery falls back to the last checkpoint:
        // everything since (including the arrival, with a checkpoint
        // interval longer than the crash time) is lost and must be
        // resubmitted, requeued, or orphaned.
        let w = vec![simple_workflow("w", 0, 3_000)];
        let cluster = cluster_with(MasterFaultConfig {
            mttr: SimDuration::from_secs(20),
            checkpoint_interval: SimDuration::from_mins(10),
            wal: false,
            scripted: vec![SimTime::from_secs(12)],
            ..MasterFaultConfig::default()
        });
        let cfg = SimConfig::default();
        let report = run(&w, &cluster, &cfg);
        assert!(report.completed);
        let rec = report.recovery.as_ref().expect("master mode reports");
        assert_eq!(rec.master_crashes, 1);
        assert_eq!(rec.wal_records_replayed, 0, "no WAL to replay");
        assert_eq!(
            rec.workflows_resubmitted, 1,
            "the arrival fell into the lost suffix"
        );
        assert!(
            rec.attempts_orphaned > 0,
            "in-flight completions reference attempts the stale master never saw"
        );
        // Work conservation still holds across the restart.
        assert_eq!(
            report.tasks_executed,
            9 + report.tasks_requeued + report.map_outputs_lost
        );
        assert_eq!(report, run(&w, &cluster, &cfg), "recovery is seeded");
    }

    #[test]
    fn recovery_counters_reconcile_with_attempt_bookkeeping() {
        // Lossless crash mid-run: every attempt in flight at the crash
        // is either re-adopted or requeued, and nothing is orphaned.
        let w = vec![
            simple_workflow("w", 0, 3_000),
            simple_workflow("x", 2, 3_000),
        ];
        let cluster = cluster_with(MasterFaultConfig {
            mttr: SimDuration::from_secs(10),
            checkpoint_interval: SimDuration::from_secs(7),
            scripted: vec![SimTime::from_secs(16)],
            ..MasterFaultConfig::default()
        });
        let report = run(&w, &cluster, &SimConfig::default());
        assert!(report.completed);
        let rec = report.recovery.as_ref().expect("master mode reports");
        assert_eq!(rec.master_crashes, 1);
        // Genesis + at least one periodic + one at recovery.
        assert!(rec.checkpoints_taken >= 3, "{}", rec.checkpoints_taken);
        assert_eq!(rec.attempts_requeued + rec.attempts_orphaned, 0);
        assert_eq!(report.tasks_executed, 18, "no work re-executes");
        assert!(rec.wal_records_replayed > 0, "2 s of WAL since t=14 s");
        assert_eq!(
            rec.master_downtime_ms,
            SimDuration::from_secs(10).as_millis()
        );
    }

    #[test]
    fn stochastic_master_crashes_are_seeded() {
        let w = vec![simple_workflow("w", 0, 30_000)];
        let cluster = cluster_with(MasterFaultConfig {
            mtbf: Some(SimDuration::from_secs(20)),
            mttr: SimDuration::from_secs(5),
            checkpoint_interval: SimDuration::from_secs(15),
            ..MasterFaultConfig::default()
        });
        let cfg = SimConfig {
            seed: 3,
            ..SimConfig::default()
        };
        let r1 = run(&w, &cluster, &cfg);
        assert!(r1.completed);
        let rec = r1.recovery.as_ref().expect("master mode reports");
        assert!(rec.master_crashes >= 1, "20 s MTBF must crash the master");
        assert_eq!(r1, run(&w, &cluster, &cfg));
        let other = SimConfig {
            seed: 4,
            ..SimConfig::default()
        };
        assert_ne!(r1, run(&w, &cluster, &other));
    }

    #[test]
    fn master_and_node_faults_compose() {
        let faults = FaultConfig {
            scripted: vec![ScriptedFault::one(
                NodeId::new(1),
                SimTime::from_secs(8),
                Some(SimTime::from_secs(40)),
            )],
            master: MasterFaultConfig {
                mttr: SimDuration::from_secs(15),
                checkpoint_interval: SimDuration::from_secs(10),
                scripted: vec![SimTime::from_secs(12)],
                ..MasterFaultConfig::default()
            },
            ..FaultConfig::default()
        };
        let cluster = ClusterConfig::uniform(3, 2, 1).with_faults(faults);
        let w = vec![simple_workflow("w", 0, 3_000)];
        let cfg = SimConfig::default();
        let report = run(&w, &cluster, &cfg);
        assert!(report.completed);
        assert_eq!(report.node_failures, 1);
        assert_eq!(report.recovery.as_ref().unwrap().master_crashes, 1);
        assert_eq!(
            report.tasks_executed,
            9 + report.tasks_requeued + report.map_outputs_lost
        );
        assert_eq!(report, run(&w, &cluster, &cfg));
    }

    #[test]
    fn crash_recovery_round_trips_every_snapshot_fragment() {
        // Every optional part of the master state at once — node and rack
        // faults, speculation, survivor-preferring locality, prediction
        // with risk placement, re-shuffle debt — under frequent
        // checkpoints and repeated master crashes, so the debug
        // assertions in `take_checkpoint` (encode/decode) and in the crash
        // handler (install/build) see each fragment populated.
        let faults = FaultConfig {
            mtbf: Some(SimDuration::from_secs(200)),
            mttr: SimDuration::from_secs(12),
            rack_mtbf: Some(SimDuration::from_secs(120)),
            rack_mttr: Some(SimDuration::from_secs(10)),
            master: MasterFaultConfig {
                mttr: SimDuration::from_secs(5),
                checkpoint_interval: SimDuration::from_secs(3),
                scripted: [40, 95, 150, 230]
                    .into_iter()
                    .map(SimTime::from_secs)
                    .collect(),
                ..MasterFaultConfig::default()
            },
            ..FaultConfig::default()
        };
        let cluster = ClusterConfig::uniform(6, 2, 1)
            .with_racks(2)
            .with_faults(faults);
        let cfg = SimConfig {
            locality: Some(LocalityConfig {
                prefer_survivors: true,
                ..LocalityConfig::default()
            }),
            speculation: Some(SpeculationConfig {
                straggler_prob: 0.3,
                straggler_factor: 6.0,
                speculate_after: 1.3,
            }),
            prediction: Some(PredictionConfig {
                risk_placement: true,
                risk_threshold: 0.5,
                ..PredictionConfig::default()
            }),
            reshuffle_cost: SimDuration::from_secs(2),
            seed: 9,
            ..SimConfig::default()
        };
        let w: Vec<WorkflowSpec> = (0..8)
            .map(|i| simple_workflow(&format!("w{i}"), i * 20, 30_000))
            .collect();
        let report = run(&w, &cluster, &cfg);
        assert!(report.completed);
        let rec = report.recovery.as_ref().expect("master mode reports");
        assert_eq!(rec.master_crashes, 4);
        assert!(rec.wal_records_replayed > 0);
        assert!(report.node_failures > 0 && report.map_outputs_lost > 0);
        assert!(report.speculative_launched > 0);
        let dp = report.data_plane.as_ref().expect("racked cluster reports");
        assert!(dp.rack_outages > 0 && dp.survivor_requeues > 0);
        assert!(dp.reshuffle_events > 0);
        let pred = report.prediction.as_ref().expect("prediction reports");
        assert!(pred.node_propensity.iter().any(|&p| p > 0.0));
        assert_eq!(report, run(&w, &cluster, &cfg), "recovery is seeded");
        // The serialized report as it was when every checkpoint tick
        // encoded eagerly and replica sets were derived on every offer;
        // the run also ends in the driver's debug assertion that the data
        // plane holds no entry for a finished job.
        let canonical = SimReport {
            scheduler_nanos: 0,
            ..report
        };
        use std::hash::Hasher;
        let mut digest = crate::hash::FxHasher::default();
        digest.write(serde_json::to_string(&canonical).unwrap().as_bytes());
        assert_eq!(
            digest.finish(),
            18_189_881_704_081_876_074,
            "report bytes moved"
        );
    }

    #[test]
    fn the_held_checkpoint_shares_every_completed_workflow() {
        // Staggered arrivals and a crash mid-run, so the last tick holds
        // workflows that finished before and after the recovery. Nothing
        // mutates a finished workflow, so the checkpoint and the live pool
        // must store each one once: a deep-cloning checkpoint fails here.
        let w: Vec<WorkflowSpec> = (0..6)
            .map(|i| simple_workflow(&format!("w{i}"), i * 30, 3_000))
            .collect();
        let cluster = cluster_with(MasterFaultConfig {
            mttr: SimDuration::from_secs(10),
            checkpoint_interval: SimDuration::from_secs(20),
            scripted: vec![SimTime::from_secs(70)],
            ..MasterFaultConfig::default()
        });
        let cfg = SimConfig::default();
        let mut scheduler = SubmitOrderScheduler::new();
        let (sim, truncated) = simulate(
            &mut VecSource::new(w.clone()),
            &mut scheduler,
            &cluster,
            &cfg,
            None,
            None,
            &mut SimClock,
        );
        assert!(!truncated);
        let held = sim.master.checkpoint.as_ref().expect("a tick's checkpoint");
        let mut done = 0;
        for w in held.pool.workflows().iter().filter(|w| w.is_complete()) {
            let live = &sim.pool.workflows()[w.id().as_u64() as usize];
            assert!(Arc::ptr_eq(w, live), "{} is stored twice", w.id());
            done += 1;
        }
        assert!(done >= 2, "{done} finished by the last tick");
        let (report, _) = report(sim, &mut scheduler, truncated);
        let rec = report.recovery.as_ref().expect("master mode reports");
        assert_eq!(rec.master_crashes, 1);
        assert_eq!(report, run(&w, &cluster, &cfg));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let w = vec![simple_workflow("w", 0, 600)];
        let mut s = SubmitOrderScheduler::new();
        let mut try_run = |cluster: &ClusterConfig, config: &SimConfig| {
            try_run_simulation_streamed(
                &mut VecSource::new(w.clone()),
                &mut s,
                cluster,
                config,
                None,
            )
        };
        let cfg = SimConfig::default();
        let bad_node = ClusterConfig::uniform(2, 2, 1).with_faults(FaultConfig::scripted(vec![
            ScriptedFault::one(NodeId::new(9), SimTime::ZERO, None),
        ]));
        assert_eq!(
            try_run(&bad_node, &cfg),
            Err(SimError::UnknownScriptedNode {
                node: NodeId::new(9),
                node_count: 2
            })
        );
        let zero_interval = cluster_with(MasterFaultConfig {
            checkpoint_interval: SimDuration::ZERO,
            scripted: vec![SimTime::from_secs(1)],
            ..MasterFaultConfig::default()
        });
        assert_eq!(
            try_run(&zero_interval, &cfg),
            Err(SimError::ZeroCheckpointInterval)
        );
        let zero_mttr = cluster_with(MasterFaultConfig {
            mttr: SimDuration::ZERO,
            scripted: vec![SimTime::from_secs(1)],
            ..MasterFaultConfig::default()
        });
        assert_eq!(try_run(&zero_mttr, &cfg), Err(SimError::ZeroMasterMttr));
        assert!(SimError::ZeroMasterMttr.to_string().contains("MTTR"));
    }

    #[test]
    #[should_panic(expected = "scripted fault names node")]
    fn run_simulation_panics_on_invalid_config() {
        let bad = ClusterConfig::uniform(1, 1, 1).with_faults(FaultConfig::scripted(vec![
            ScriptedFault::one(NodeId::new(3), SimTime::ZERO, None),
        ]));
        run(&[simple_workflow("w", 0, 600)], &bad, &SimConfig::default());
    }
}

/// A WAL-off recovery falls back to a checkpoint taken before some
/// attempts completed; reconciliation retires those attempts without a
/// second end record, so every traced start ends exactly once and the
/// timelines, which fold the records, never go negative.
#[test]
fn master_crash_without_wal_ends_each_attempt_once() {
    use crate::fault::{FaultConfig, MasterFaultConfig};
    let mut b = WorkflowBuilder::new("one");
    b.add_job(JobSpec::new(
        "big",
        200,
        0,
        SimDuration::from_secs(30),
        SimDuration::ZERO,
    ));
    b.relative_deadline(SimDuration::from_mins(120));
    let cluster = ClusterConfig::uniform(8, 2, 1).with_faults(FaultConfig {
        master: MasterFaultConfig {
            checkpoint_interval: SimDuration::from_mins(2),
            wal: false,
            scripted: vec![SimTime::from_secs(170)],
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::default()
    });
    let cfg = SimConfig {
        observability: ObservabilityConfig {
            timelines: true,
            ..ObservabilityConfig::default()
        },
        ..SimConfig::default()
    };
    let (report, obs) = traced_run(&[b.build().unwrap()], &cluster, &cfg);
    assert!(report.completed);
    let rec = report.recovery.as_ref().expect("master mode reports");
    assert!(
        rec.attempts_requeued > 0,
        "the crash loses running attempts"
    );
    let count = |pred: fn(&TraceEvent) -> bool| obs.trace.iter().filter(|r| pred(&r.event)).count();
    let starts = count(|e| matches!(e, TraceEvent::TaskStart { .. }));
    let completes = count(|e| matches!(e, TraceEvent::TaskComplete { .. }));
    let kills = count(|e| matches!(e, TraceEvent::TaskKilled { .. }));
    assert_eq!(starts, completes + kills, "{starts} starts");
    assert!(kills > 0, "the attempts running at the crash are killed");
}

#[test]
fn jitter_factor_is_deterministic_and_bounded() {
    let wf = WorkflowId::new(3);
    let job = JobId::new(1);
    for idx in 0..100 {
        let f = jitter_factor(9, wf, job, SlotKind::Map, idx, 0.2);
        assert!((0.8..=1.2).contains(&f), "factor {f}");
        assert_eq!(f, jitter_factor(9, wf, job, SlotKind::Map, idx, 0.2));
    }
    assert_eq!(jitter_factor(9, wf, job, SlotKind::Map, 0, 0.0), 1.0);
}
