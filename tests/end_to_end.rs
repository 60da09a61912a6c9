//! End-to-end integration tests: workflows built through every front door
//! (builder, XML, generators) run on the simulated cluster under every
//! scheduler, with paper-level outcomes checked.

use woha::prelude::*;
use woha::trace::topology::{self, paper_fig7};
use woha::trace::workload;

fn demo_cluster() -> ClusterConfig {
    ClusterConfig::uniform(32, 2, 1)
}

fn fig11_workflows() -> Vec<WorkflowSpec> {
    let releases = [0u64, 5, 10];
    let deadlines = [80u64, 70, 60];
    releases
        .iter()
        .zip(&deadlines)
        .enumerate()
        .map(|(i, (&rel, &dl))| {
            paper_fig7(format!("W-{}", i + 1))
                .submit_at(SimTime::from_mins(rel))
                .relative_deadline(SimDuration::from_mins(dl))
                .build()
                .unwrap()
        })
        .collect()
}

fn all_schedulers(total_slots: u32) -> Vec<Box<dyn WorkflowScheduler>> {
    let mut v: Vec<Box<dyn WorkflowScheduler>> = vec![
        Box::new(EdfScheduler),
        Box::new(FifoScheduler),
        Box::new(FairScheduler),
    ];
    for policy in [
        PriorityPolicy::Lpf,
        PriorityPolicy::Hlf,
        PriorityPolicy::Mpf,
    ] {
        v.push(Box::new(WohaScheduler::new(WohaConfig::new(
            policy,
            total_slots,
        ))));
    }
    v
}

/// Runs `inner` slot by slot: every method but `assign_batch` is
/// forwarded, and that one's default `None` sends the driver down the
/// per-slot `assign_task` path, as for any scheduler without a batch
/// implementation.
struct PerSlot<S: ?Sized>(Box<S>);

impl<S: WorkflowScheduler> PerSlot<S> {
    fn new(inner: S) -> Self {
        PerSlot(Box::new(inner))
    }
}

impl<S: WorkflowScheduler + ?Sized> SchedulerState for PerSlot<S> {
    fn snapshot_state(&self) -> serde::Value {
        self.0.snapshot_state()
    }

    fn restore_state(&mut self, pool: &WorkflowPool, state: &serde::Value) {
        self.0.restore_state(pool, state);
    }
}

impl<S: WorkflowScheduler + ?Sized> WorkflowScheduler for PerSlot<S> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn on_workflow_submitted(&mut self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) {
        self.0.on_workflow_submitted(pool, wf, now);
    }

    fn on_job_activated(&mut self, pool: &WorkflowPool, wf: WorkflowId, job: JobId, now: SimTime) {
        self.0.on_job_activated(pool, wf, job, now);
    }

    fn on_job_completed(&mut self, pool: &WorkflowPool, wf: WorkflowId, job: JobId, now: SimTime) {
        self.0.on_job_completed(pool, wf, job, now);
    }

    fn on_workflow_completed(&mut self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) {
        self.0.on_workflow_completed(pool, wf, now);
    }

    fn on_task_assigned(
        &mut self,
        pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        now: SimTime,
    ) {
        self.0.on_task_assigned(pool, wf, job, kind, now);
    }

    fn on_task_failed(
        &mut self,
        pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        now: SimTime,
    ) {
        self.0.on_task_failed(pool, wf, job, kind, now);
    }

    fn on_node_lost(&mut self, pool: &WorkflowPool, node: NodeId, now: SimTime) {
        self.0.on_node_lost(pool, node, now);
    }

    fn assign_task(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        now: SimTime,
    ) -> Option<(WorkflowId, JobId)> {
        self.0.assign_task(pool, kind, now)
    }

    fn set_tracing(&mut self, on: bool) {
        self.0.set_tracing(on);
    }

    fn drain_trace(&mut self, out: &mut Vec<woha::sim::SchedTrace>) {
        self.0.drain_trace(out);
    }

    fn backend_label(&self) -> &'static str {
        self.0.backend_label()
    }

    fn slack_fraction(&self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) -> f64 {
        self.0.slack_fraction(pool, wf, now)
    }

    fn plans_padded(&self) -> u64 {
        self.0.plans_padded()
    }
}

/// Speculation that never fires. It keeps the driver's idle runs off,
/// because with speculation on an idle slot could take a duplicate, and
/// changes nothing else a run does: the per-beat reference path.
fn inert_speculation() -> SpeculationConfig {
    SpeculationConfig {
        straggler_prob: 0.0,
        speculate_after: f64::INFINITY,
        ..SpeculationConfig::default()
    }
}

/// The headline result: on the Fig 11 scenario, every WOHA variant meets
/// all three deadlines while each ported baseline misses at least one.
#[test]
fn fig11_headline_result() {
    let workflows = fig11_workflows();
    let cluster = demo_cluster();
    let config = SimConfig::default();
    for mut scheduler in all_schedulers(96) {
        let report = run_simulation(&workflows, scheduler.as_mut(), &cluster, &config);
        assert!(report.completed, "{}", report.scheduler);
        assert_eq!(report.invalid_assignments, 0, "{}", report.scheduler);
        let misses = report.deadline_misses();
        if report.scheduler.starts_with("WOHA") {
            assert_eq!(misses, 0, "{} must meet all deadlines", report.scheduler);
        } else {
            assert!(misses >= 1, "{} should miss a deadline", report.scheduler);
        }
    }
}

/// Work conservation: whichever scheduler runs, the total executed task
/// count and per-workflow task accounting are identical.
#[test]
fn schedulers_execute_identical_work() {
    let workflows = fig11_workflows();
    let cluster = demo_cluster();
    let config = SimConfig::default();
    let expected: u64 = workflows.iter().map(|w| w.total_tasks()).sum();
    for mut scheduler in all_schedulers(96) {
        let report = run_simulation(&workflows, scheduler.as_mut(), &cluster, &config);
        assert_eq!(report.tasks_executed, expected, "{}", report.scheduler);
    }
}

/// The same run twice is bit-identical (deterministic simulation), and a
/// different jitter seed changes it.
#[test]
fn runs_are_deterministic() {
    let workflows = fig11_workflows();
    let cluster = demo_cluster();
    let config = SimConfig {
        duration_jitter: 0.2,
        seed: 1,
        ..SimConfig::default()
    };
    let run = |cfg: &SimConfig| {
        let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
        run_simulation(&workflows, &mut s, &cluster, cfg)
    };
    assert_eq!(run(&config), run(&config));
    let other = SimConfig { seed: 2, ..config };
    assert_ne!(run(&config).outcomes, run(&other).outcomes);
}

/// WOHA still meets the Fig 11 deadlines when task durations deviate from
/// the estimates by ±15% (the plan is "just a rough estimation").
#[test]
fn woha_tolerates_estimation_error() {
    let workflows = fig11_workflows();
    let cluster = demo_cluster();
    for seed in 1..=3 {
        let config = SimConfig {
            duration_jitter: 0.15,
            seed,
            ..SimConfig::default()
        };
        let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
        let report = run_simulation(&workflows, &mut s, &cluster, &config);
        assert!(
            report.deadline_misses() <= 1,
            "seed {seed}: {:?}",
            report.workspans()
        );
    }
}

/// An XML-configured workflow runs end to end and meets its deadline.
#[test]
fn xml_workflow_end_to_end() {
    let xml = r#"
    <workflow name="it" deadline="20m">
      <job name="a" mappers="8" reducers="2" map-duration="30s" reduce-duration="60s">
        <output path="/t/a"/>
      </job>
      <job name="b" mappers="4" reducers="1" map-duration="20s" reduce-duration="90s">
        <input path="/t/a"/>
        <output path="/t/b"/>
      </job>
    </workflow>"#;
    let spec = WorkflowConfig::parse(xml)
        .unwrap()
        .to_spec(SimTime::ZERO)
        .unwrap();
    let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Hlf, 12));
    let report = run_simulation(
        &[spec],
        &mut s,
        &ClusterConfig::uniform(4, 2, 1),
        &SimConfig::default(),
    );
    assert!(report.completed);
    assert_eq!(report.deadline_misses(), 0);
}

/// A workflow whose deadline is impossible is still completed (best
/// effort), just late.
#[test]
fn impossible_deadline_is_best_effort() {
    let mut b = WorkflowBuilder::new("doomed");
    b.add_job(JobSpec::new(
        "long",
        4,
        2,
        SimDuration::from_mins(10),
        SimDuration::from_mins(10),
    ));
    b.relative_deadline(SimDuration::from_secs(30));
    let w = b.build().unwrap();
    let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 6));
    let report = run_simulation(
        &[w],
        &mut s,
        &ClusterConfig::uniform(2, 2, 1),
        &SimConfig::default(),
    );
    assert!(report.completed);
    assert_eq!(report.deadline_misses(), 1);
    assert!(report.max_tardiness() > SimDuration::from_mins(15));
}

/// A map that runs for ~584 million years does not wrap the clock: its
/// completion saturates past `max_sim_time`, so the run is cut off with
/// the workflow unfinished rather than finishing it seconds in.
#[test]
fn an_endless_task_does_not_wrap_sim_time() {
    let xml = r#"
    <workflow name="endless" deadline="20m">
      <job name="a" mappers="1" reducers="1" map-duration="18446744073709551s" reduce-duration="1s">
        <output path="/t/a"/>
      </job>
    </workflow>"#;
    let spec = WorkflowConfig::parse(xml)
        .unwrap()
        .to_spec(SimTime::ZERO)
        .unwrap();
    let config = SimConfig {
        max_sim_time: SimTime::from_mins(60),
        ..SimConfig::default()
    };
    let cluster = ClusterConfig::uniform(8, 2, 1);
    for mut scheduler in all_schedulers(24) {
        let report = run_simulation(
            std::slice::from_ref(&spec),
            scheduler.as_mut(),
            &cluster,
            &config,
        );
        assert!(!report.completed, "{}", report.scheduler);
        assert_eq!(report.outcomes[0].finished, None, "{}", report.scheduler);
        assert_eq!(report.deadline_misses(), 1, "{}", report.scheduler);
    }
}

/// Generated topologies of every shape run to completion under every
/// scheduler on a small cluster.
#[test]
fn generated_topologies_run_everywhere() {
    let job = |i: usize| {
        JobSpec::new(
            format!("j{i}"),
            3,
            1,
            SimDuration::from_secs(15),
            SimDuration::from_secs(25),
        )
    };
    let mut rng = Rng::new(11);
    let mut workflows = vec![
        topology::chain("chain", 5, job).build().unwrap(),
        topology::fork_join("fj", 4, job).build().unwrap(),
        topology::diamond("dia", job).build().unwrap(),
        topology::random_layered("rnd", 9, &mut rng, job)
            .build()
            .unwrap(),
    ];
    for (i, w) in workflows.iter_mut().enumerate() {
        *w = w.reissued(
            w.name().to_string(),
            SimTime::from_secs(10 * i as u64),
            SimTime::from_mins(60),
        );
    }
    let cluster = ClusterConfig::uniform(3, 2, 1);
    for mut scheduler in all_schedulers(9) {
        let report = run_simulation(
            &workflows,
            scheduler.as_mut(),
            &cluster,
            &SimConfig::default(),
        );
        assert!(report.completed, "{}", report.scheduler);
        assert_eq!(report.deadline_misses(), 0, "{}", report.scheduler);
    }
}

/// Scripted node crashes under every scheduler: running tasks are
/// requeued, completed map outputs on the dead node are re-executed before
/// the dependent reducers can finish, the node's slots leave the pool
/// until recovery, and every run still terminates.
#[test]
fn scripted_crashes_recover_under_every_scheduler() {
    let mut b = WorkflowBuilder::new("crashy");
    let a = b.add_job(JobSpec::new(
        "a",
        8,
        2,
        SimDuration::from_secs(20),
        SimDuration::from_secs(60),
    ));
    let z = b.add_job(JobSpec::new(
        "z",
        4,
        1,
        SimDuration::from_secs(20),
        SimDuration::from_secs(30),
    ));
    b.add_dependency(a, z);
    b.relative_deadline(SimDuration::from_mins(30));
    let workflows = vec![b.build().unwrap()];
    let expected: u64 = workflows.iter().map(|w| w.total_tasks()).sum();

    // Node 3 dies at t=30 with job a's maps complete (two of its outputs
    // live there) and its reduces running; node 1 dies during recovery.
    let cluster = ClusterConfig::uniform(4, 2, 1).with_faults(FaultConfig::scripted(vec![
        ScriptedFault::one(
            NodeId::new(3),
            SimTime::from_secs(30),
            Some(SimTime::from_secs(120)),
        ),
        ScriptedFault::one(
            NodeId::new(1),
            SimTime::from_secs(50),
            Some(SimTime::from_secs(100)),
        ),
    ]));
    let config = SimConfig {
        observability: ObservabilityConfig {
            timelines: true,
            ..ObservabilityConfig::default()
        },
        ..SimConfig::default()
    };
    for mut scheduler in all_schedulers(12) {
        let report = run_simulation(&workflows, scheduler.as_mut(), &cluster, &config);
        let name = &report.scheduler;
        assert!(report.completed, "{name}");
        assert_eq!(report.invalid_assignments, 0, "{name}");
        assert_eq!(report.node_failures, 2, "{name}");
        assert_eq!(report.node_recoveries, 2, "{name}");
        assert!(
            report.tasks_requeued + report.map_outputs_lost > 0,
            "{name}: crashes must cost work"
        );
        // Work conservation with re-execution: every requeued task and
        // every invalidated map output runs again.
        assert_eq!(
            report.tasks_executed,
            expected + report.tasks_requeued + report.map_outputs_lost,
            "{name}"
        );
        // Slots leave the pool during the outages and return afterwards.
        let tl = report.timelines.as_ref().expect("timelines tracked");
        assert!(
            tl.down_slots().iter().any(|&d| d > 0),
            "{name}: outage must show up in the slot timeline"
        );
        assert_eq!(*tl.down_slots().last().unwrap(), 0, "{name}");
    }
}

/// Satellite: with node faults, failure injection, stragglers +
/// speculation, and duration jitter all active, the same `(config, seed)`
/// produces byte-identical reports; changing the seed changes the fault
/// schedule.
#[test]
fn fault_runs_are_reproducible() {
    let workflows = fig11_workflows();
    let cluster = demo_cluster().with_faults(FaultConfig {
        mtbf: Some(SimDuration::from_mins(90)),
        mttr: SimDuration::from_mins(3),
        detect_missed_heartbeats: 2,
        blacklist_after: 0,
        scripted: vec![ScriptedFault::one(
            NodeId::new(7),
            SimTime::from_mins(2),
            Some(SimTime::from_mins(8)),
        )],
        ..FaultConfig::default()
    });
    let run = |seed: u64| {
        let config = SimConfig {
            duration_jitter: 0.15,
            task_failure_prob: 0.02,
            speculation: Some(SpeculationConfig::default()),
            seed,
            ..SimConfig::default()
        };
        let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
        let mut report = run_simulation(&workflows, &mut s, &cluster, &config);
        assert!(report.completed);
        // The only wall-clock (host-time) field; everything else is
        // simulation state and must reproduce exactly.
        report.scheduler_nanos = 0;
        serde_json::to_string(&report).unwrap()
    };
    assert_eq!(run(42), run(42), "same seed must be byte-identical");
    assert_ne!(run(42), run(43), "seed drives the fault schedule");
}

/// Satellite: a mid-run master crash with a lossless WAL is invisible to
/// an order-based scheduler except for the outage itself — every workflow
/// finishes exactly MTTR later than in the uninterrupted run. (WOHA and
/// EDF react to absolute deadlines, so only order-based schedulers give
/// the exact-shift identity.) And with master faults disabled, the report
/// is byte-identical to a plain run: the subsystem costs nothing when off.
#[test]
fn master_crash_with_wal_is_the_uninterrupted_run_shifted() {
    let workflows = fig11_workflows();
    let cluster = demo_cluster();
    let config = SimConfig::default();
    let baseline = run_simulation(&workflows, &mut FifoScheduler, &cluster, &config);

    // Byte-identical when the subsystem is off (acceptance criterion).
    let disabled = demo_cluster().with_faults(FaultConfig::default());
    let off = run_simulation(&workflows, &mut FifoScheduler, &disabled, &config);
    let strip = |mut r: SimReport| {
        r.scheduler_nanos = 0;
        serde_json::to_string(&r).unwrap()
    };
    assert_eq!(strip(baseline.clone()), strip(off));

    let mttr = SimDuration::from_secs(45);
    let faulty = demo_cluster().with_faults(FaultConfig {
        master: MasterFaultConfig {
            mttr,
            scripted: vec![SimTime::from_mins(8)],
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::default()
    });
    let report = run_simulation(&workflows, &mut FifoScheduler, &faulty, &config);
    assert!(report.completed);
    let rec = report.recovery.as_ref().expect("master faults on");
    assert_eq!(rec.master_crashes, 1);
    assert_eq!(rec.attempts_requeued + rec.attempts_orphaned, 0, "lossless");
    assert_eq!(report.tasks_requeued, 0, "no work re-executes");
    for (o, b) in report.outcomes.iter().zip(&baseline.outcomes) {
        assert_eq!(
            o.finished.unwrap(),
            b.finished.unwrap().saturating_add(mttr),
            "{}: completion must shift by exactly the outage",
            o.name
        );
    }
}

/// Satellite: recovering from a stale checkpoint (WAL disabled) while
/// jitter, stragglers, speculation, and task failures are all active is
/// still fully deterministic — the crash-recovery path draws from the same
/// seeded streams as everything else.
#[test]
fn stale_snapshot_recovery_is_deterministic() {
    let workflows = fig11_workflows();
    let cluster = demo_cluster().with_faults(FaultConfig {
        master: MasterFaultConfig {
            mttr: SimDuration::from_mins(1),
            checkpoint_interval: SimDuration::from_mins(6),
            wal: false,
            scripted: vec![SimTime::from_mins(10)],
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::default()
    });
    let run = |seed: u64| {
        let config = SimConfig {
            duration_jitter: 0.15,
            task_failure_prob: 0.02,
            speculation: Some(SpeculationConfig::default()),
            seed,
            ..SimConfig::default()
        };
        let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
        let mut report = run_simulation(&workflows, &mut s, &cluster, &config);
        assert!(report.completed);
        let rec = report.recovery.as_ref().expect("master faults on");
        assert_eq!(rec.master_crashes, 1);
        assert!(
            rec.attempts_requeued + rec.attempts_orphaned > 0,
            "a stale snapshot must lose in-flight work"
        );
        report.scheduler_nanos = 0;
        serde_json::to_string(&report).unwrap()
    };
    assert_eq!(run(42), run(42), "same seed must be byte-identical");
    assert_ne!(run(42), run(43), "seed drives the recovery path too");
}

/// The shift-by-MTTR failover identity: a lossless-WAL master crash shifts
/// every completion by exactly the outage. And a crash between a batch's
/// picks neither drops nor double-assigns attempts: a WOHA run with the
/// same crash is byte-identical whether its offers go through
/// `assign_batch` or slot by slot.
#[test]
fn failover_identity_holds_with_batched_heartbeats() {
    let workflows = fig11_workflows();
    let mttr = SimDuration::from_secs(45);
    let faulty = demo_cluster().with_faults(FaultConfig {
        master: MasterFaultConfig {
            mttr,
            scripted: vec![SimTime::from_mins(8)],
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::default()
    });
    let config = SimConfig::default();

    let baseline = run_simulation(&workflows, &mut FifoScheduler, &demo_cluster(), &config);
    let report = run_simulation(&workflows, &mut FifoScheduler, &faulty, &config);
    assert!(report.completed);
    let rec = report.recovery.as_ref().expect("master faults on");
    assert_eq!(rec.master_crashes, 1);
    assert_eq!(
        rec.attempts_requeued + rec.attempts_orphaned,
        0,
        "the WAL must stay lossless"
    );
    assert_eq!(report.tasks_requeued, 0);
    for (o, b) in report.outcomes.iter().zip(&baseline.outcomes) {
        assert_eq!(
            o.finished.unwrap(),
            b.finished.unwrap().saturating_add(mttr),
            "{}: completion must shift by exactly the outage",
            o.name
        );
    }

    let woha_run = |s: &mut dyn WorkflowScheduler| {
        let mut report = run_simulation(&workflows, s, &faulty, &config);
        assert!(report.completed, "{}", s.name());
        let rec = report.recovery.as_ref().expect("master faults on");
        assert_eq!(rec.master_crashes, 1);
        assert_eq!(rec.attempts_requeued + rec.attempts_orphaned, 0);
        report.scheduler_nanos = 0;
        serde_json::to_string(&report).unwrap()
    };
    let woha = || WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
    assert_eq!(woha_run(&mut woha()), woha_run(&mut PerSlot::new(woha())));
}

/// A full Yahoo-trace simulation with WOHA-LPF produces a byte-identical
/// `SimReport` with offers batched or made slot by slot, and with idle
/// heartbeats consumed in idle runs or one by one (the per-beat run, whose
/// trace must also match): the batch path and the idle runs are pure
/// implementation choices.
#[test]
fn batching_and_idle_runs_are_behavior_identical() {
    let workload = obs_yahoo_workload();
    let cluster = ClusterConfig::with_totals(120, 120);
    let woha = || WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 240));
    let run = |s: &mut dyn WorkflowScheduler, config: &SimConfig| {
        let (mut report, obs) = run_simulation_observed(&workload, s, &cluster, config);
        assert!(report.completed, "{}", s.name());
        report.scheduler_nanos = 0;
        (serde_json::to_string(&report).unwrap(), obs.trace_jsonl())
    };

    let plain = SimConfig::default();
    let (reference, _) = run(&mut woha(), &plain);
    let (per_slot, _) = run(&mut PerSlot::new(woha()), &plain);
    assert_eq!(per_slot, reference, "per-slot");

    let traced = SimConfig {
        observability: ObservabilityConfig {
            trace: true,
            ..ObservabilityConfig::default()
        },
        ..plain
    };
    let (idle_runs, idle_trace) = run(&mut woha(), &traced);
    let (per_beat, per_beat_trace) = run(
        &mut woha(),
        &SimConfig {
            speculation: Some(inert_speculation()),
            ..traced
        },
    );
    assert_eq!(idle_runs, reference, "traced");
    assert_eq!(per_beat, reference, "per-beat");
    assert!(idle_trace.contains("\"heartbeat\""));
    assert!(idle_trace == per_beat_trace, "idle runs report every beat");
}

/// The Yahoo-like workload runs to completion on a trace-scale cluster
/// under every scheduler, and WOHA's mean miss ratio beats FIFO's.
#[test]
fn yahoo_workload_end_to_end() {
    let mut rng = Rng::new(99);
    let flows = yahoo_workflows(
        &YahooTraceConfig {
            map_count_max: 150,
            reduce_count_max: 30,
            ..YahooTraceConfig::default()
        },
        &mut rng,
    );
    let mut workflows = workload::assign(
        &flows,
        SimDuration::from_mins(12),
        SimDuration::from_mins(3),
        SimDuration::from_mins(12),
        1.2,
        100,
        &mut rng,
    );
    workflows.retain(|w| !w.is_single_job());
    let cluster = ClusterConfig::with_totals(240, 240);
    let config = SimConfig::default();

    let mut fifo = FifoScheduler;
    let fifo_report = run_simulation(&workflows, &mut fifo, &cluster, &config);
    let mut woha = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 480));
    let woha_report = run_simulation(&workflows, &mut woha, &cluster, &config);

    assert!(fifo_report.completed && woha_report.completed);
    assert!(
        woha_report.miss_ratio() <= fifo_report.miss_ratio(),
        "woha {:.2} vs fifo {:.2}",
        woha_report.miss_ratio(),
        fifo_report.miss_ratio()
    );
}

/// Yahoo-trace fixture shared by the observability identity tests: the
/// same workload as `index_backends_and_batching_are_behavior_identical`.
fn obs_yahoo_workload() -> Vec<WorkflowSpec> {
    let mut rng = Rng::new(7);
    let flows = yahoo_workflows(
        &YahooTraceConfig {
            map_count_max: 80,
            reduce_count_max: 16,
            ..YahooTraceConfig::default()
        },
        &mut rng,
    );
    let mut workflows = workload::assign(
        &flows,
        SimDuration::from_mins(10),
        SimDuration::from_mins(3),
        SimDuration::from_mins(12),
        1.2,
        100,
        &mut rng,
    );
    workflows.retain(|w| !w.is_single_job());
    workflows
}

/// Satellite: the observability layer is invisible to the simulation. On
/// Yahoo-trace WOHA-LPF runs — batched and slot by slot, with and without a
/// master failover — the `SimReport` JSON is byte-identical
/// across (a) the plain pre-observability entry point, (b) the observed
/// entry point with observability fully off, and (c) the observed entry
/// point with trace + metrics armed: recording must never perturb state.
#[test]
fn observability_off_and_on_leave_reports_byte_identical() {
    let workload = obs_yahoo_workload();
    let cluster = ClusterConfig::with_totals(120, 120);
    let faulty = ClusterConfig::with_totals(120, 120).with_faults(FaultConfig {
        master: MasterFaultConfig {
            mttr: SimDuration::from_secs(45),
            scripted: vec![SimTime::from_mins(8)],
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::default()
    });
    let strip = |mut r: SimReport| {
        r.scheduler_nanos = 0;
        serde_json::to_string(&r).unwrap()
    };
    let woha = || WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 240));

    for (cluster, label) in [(&cluster, "plain"), (&faulty, "failover")] {
        for batch in [false, true] {
            let scheduler = || -> Box<dyn WorkflowScheduler> {
                if batch {
                    Box::new(woha())
                } else {
                    Box::new(PerSlot::new(woha()))
                }
            };
            let base = SimConfig::default();
            let armed = SimConfig {
                observability: ObservabilityConfig {
                    trace: true,
                    metrics: true,
                    sample_interval: Some(SimDuration::from_secs(30)),
                    ..ObservabilityConfig::default()
                },
                ..base.clone()
            };

            let plain = run_simulation(&workload, &mut *scheduler(), cluster, &base);
            assert!(plain.completed, "{label} batch={batch}");

            let (off, off_obs) =
                run_simulation_observed(&workload, &mut *scheduler(), cluster, &base);
            assert!(off_obs.trace.is_empty() && off_obs.metrics.is_none());

            let (on, on_obs) =
                run_simulation_observed(&workload, &mut *scheduler(), cluster, &armed);
            assert!(!on_obs.trace.is_empty(), "{label} batch={batch}");
            assert!(on_obs.metrics.is_some(), "{label} batch={batch}");

            let reference = strip(plain);
            assert_eq!(reference, strip(off), "{label} batch={batch}: off path");
            assert_eq!(reference, strip(on), "{label} batch={batch}: on path");
        }
    }
}

/// Satellite: trace and metrics exports are deterministic — two identical
/// seeded runs (jitter, task failures, speculation, and a master crash all
/// active) produce byte-identical Chrome trace JSON and Prometheus text.
#[test]
fn observability_exports_are_deterministic() {
    let workflows = fig11_workflows();
    let cluster = demo_cluster().with_faults(FaultConfig {
        master: MasterFaultConfig {
            mttr: SimDuration::from_mins(1),
            scripted: vec![SimTime::from_mins(10)],
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::default()
    });
    let config = SimConfig {
        duration_jitter: 0.15,
        task_failure_prob: 0.02,
        speculation: Some(SpeculationConfig::default()),
        seed: 42,
        observability: ObservabilityConfig {
            trace: true,
            metrics: true,
            sample_interval: Some(SimDuration::from_secs(30)),
            ..ObservabilityConfig::default()
        },
        ..SimConfig::default()
    };
    let run = || {
        let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
        let (report, obs) = run_simulation_observed(&workflows, &mut s, &cluster, &config);
        assert!(report.completed);
        assert_eq!(report.recovery.as_ref().unwrap().master_crashes, 1);
        (obs.chrome_trace_json(), obs.prometheus_text().unwrap())
    };
    let (trace_a, prom_a) = run();
    let (trace_b, prom_b) = run();
    assert_eq!(trace_a, trace_b, "Chrome trace must be deterministic");
    assert_eq!(prom_a, prom_b, "Prometheus text must be deterministic");
    assert!(trace_a.contains("\"traceEvents\""));
    assert!(prom_a.contains("# TYPE woha_heartbeats_total counter"));
}

/// FNV-1a (64-bit) of a rendered artifact.
fn digest(text: &str) -> String {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Digests of the report JSON, JSONL trace, Chrome JSON and Prometheus text
/// per `(configuration, observers)` cell, recorded by running the body of
/// [`observability_bus_identity`] on the commit where an observed run still
/// took the per-beat path and same-tick heartbeats were still coalesced.
/// That body dropped the coalescing records from the trace and the
/// heartbeat-batch counter and histogram from the Prometheus text; its
/// report digests are the ones the separately fed observers had produced.
/// The `chrome` digests of the `/ all` rows were re-recorded when Chrome
/// instants took their names and args from the JSONL record fields
/// (`scheduler_pick`, `checkpoint_taken`, and `assign`'s args in field
/// order); every other digest is as first recorded.
const OBSERVED_ON_THE_PER_BEAT_PATH: &str = "\
batched / all: report 806d0538827f5fee jsonl e6639c10f160df66 chrome c09ef63dbeb175a6 prom ae23a83d2ec002a5
batched / metrics: report ab02ff5adce94c85 jsonl cbf29ce484222325 chrome c98ab45ca9caf483 prom ae23a83d2ec002a5
batched / timelines: report 806d0538827f5fee jsonl cbf29ce484222325 chrome 55a3b6c4ff867717 prom cbf29ce484222325
per-slot / all: report 806d0538827f5fee jsonl b9b2ee7a8dee9cac chrome 772317cffd8202b2 prom ae23a83d2ec002a5
per-slot / metrics: report ab02ff5adce94c85 jsonl cbf29ce484222325 chrome c98ab45ca9caf483 prom ae23a83d2ec002a5
per-slot / timelines: report 806d0538827f5fee jsonl cbf29ce484222325 chrome 55a3b6c4ff867717 prom cbf29ce484222325
node+rack faults / all: report ac74f37f0f186b79 jsonl 599d5eb307548f0b chrome d263331c6d2d8308 prom 6d950a3791ef136e
node+rack faults / metrics: report 6f277079c64b3cf1 jsonl cbf29ce484222325 chrome 3eebf6f9d9e95c82 prom 6d950a3791ef136e
node+rack faults / timelines: report ac74f37f0f186b79 jsonl cbf29ce484222325 chrome 55a3b6c4ff867717 prom cbf29ce484222325
master crash, WAL / all: report 0cd5e8f7e9c37535 jsonl 5a324ef49ddb9cde chrome 013dd894be5d6555 prom d3c2b663d659425b
master crash, WAL / metrics: report 1e7ed629f0509874 jsonl cbf29ce484222325 chrome 6c5c7dd644241791 prom d3c2b663d659425b
master crash, WAL / timelines: report 0cd5e8f7e9c37535 jsonl cbf29ce484222325 chrome 55a3b6c4ff867717 prom cbf29ce484222325
master crash, no WAL / all: report bb344e8b7b820a21 jsonl 703d5b082e5f1b79 chrome a180e7d3d0372888 prom ba8f9354304def26
master crash, no WAL / metrics: report e96db040d2eb9752 jsonl cbf29ce484222325 chrome 031f2f4043cef3af prom ba8f9354304def26
master crash, no WAL / timelines: report bb344e8b7b820a21 jsonl cbf29ce484222325 chrome 55a3b6c4ff867717 prom cbf29ce484222325
speculation+risk / all: report 8f912f9d457c7b24 jsonl 34f9312b05db7bb7 chrome f98cc2ed751ff055 prom 382b2b4aed13fc52
speculation+risk / metrics: report 9b66041478d3d087 jsonl cbf29ce484222325 chrome 730fad23ec7acd2c prom 382b2b4aed13fc52
speculation+risk / timelines: report 8f912f9d457c7b24 jsonl cbf29ce484222325 chrome 55a3b6c4ff867717 prom cbf29ce484222325
delay scheduling / all: report db9743dd89cab05d jsonl b50b0f80c98f165a chrome 5d00f823a33bec91 prom 5fd290065e6a50c7
delay scheduling / metrics: report cd9cd55fad42d838 jsonl cbf29ce484222325 chrome 165cbe3647f2461e prom 5fd290065e6a50c7
delay scheduling / timelines: report db9743dd89cab05d jsonl cbf29ce484222325 chrome 55a3b6c4ff867717 prom cbf29ce484222325
";

/// The driver reports only through trace records, one observer fans them
/// out, and observing a run does not change the path it takes. Over seven
/// driver configurations and three observer settings, every artifact
/// matches what observed runs produced while they took the per-beat path,
/// apart from the coalescing records and metrics, which are gone (the
/// digests check that). A risk-driven duplicate's `PreemptiveSpeculation`
/// record is counted, then left out, as when the table was first recorded.
#[test]
fn observability_bus_identity() {
    let workflows = fig11_workflows();
    let node_faults = FaultConfig {
        mtbf: Some(SimDuration::from_mins(12)),
        mttr: SimDuration::from_mins(3),
        detect_missed_heartbeats: 2,
        blacklist_after: 0,
        ..FaultConfig::default()
    };
    let master = |wal, checkpoint_interval, crash| {
        demo_cluster().with_faults(FaultConfig {
            master: MasterFaultConfig {
                mttr: SimDuration::from_secs(45),
                checkpoint_interval,
                wal,
                scripted: vec![crash],
                ..MasterFaultConfig::default()
            },
            ..FaultConfig::default()
        })
    };
    let base = SimConfig {
        duration_jitter: 0.15,
        task_failure_prob: 0.02,
        seed: 42,
        ..SimConfig::default()
    };
    let cells = [
        ("batched", demo_cluster(), base.clone()),
        ("per-slot", demo_cluster(), base.clone()),
        (
            "node+rack faults",
            demo_cluster().with_racks(2).with_faults(FaultConfig {
                rack_mtbf: Some(SimDuration::from_mins(30)),
                rack_mttr: Some(SimDuration::from_mins(8)),
                ..FaultConfig::with_mtbf(SimDuration::from_mins(30), SimDuration::from_mins(2))
            }),
            base.clone(),
        ),
        (
            "master crash, WAL",
            master(true, SimDuration::from_mins(6), SimTime::from_mins(10)),
            base.clone(),
        ),
        // Three seconds after a checkpoint: the crash orphans the attempts
        // launched since and re-issues an activation, but loses no
        // completion. The instant was chosen while a lost completion still
        // ended its attempt twice, and stays so the digests stay comparable.
        (
            "master crash, no WAL",
            master(
                false,
                SimDuration::from_mins(5),
                SimTime::from_millis(603_000),
            ),
            base.clone(),
        ),
        (
            "speculation+risk",
            demo_cluster().with_faults(node_faults),
            SimConfig {
                speculation: Some(SpeculationConfig::default()),
                prediction: Some(PredictionConfig {
                    risk_placement: true,
                    ..PredictionConfig::default()
                }),
                ..base.clone()
            },
        ),
        (
            "delay scheduling",
            demo_cluster(),
            SimConfig {
                locality: Some(LocalityConfig {
                    max_delay_skips: 3,
                    ..LocalityConfig::default()
                }),
                ..base
            },
        ),
    ];
    let on = |trace, metrics, timelines| ObservabilityConfig {
        trace,
        metrics,
        timelines,
        sample_interval: Some(SimDuration::from_secs(30)),
    };
    let settings = [
        ("all", on(true, true, true)),
        ("metrics", on(false, true, false)),
        ("timelines", on(false, false, true)),
    ];
    let mut got = String::new();
    for (label, cluster, config) in &cells {
        let mut all_prom = String::new();
        for (setting, observability) in settings {
            let config = SimConfig {
                observability,
                ..config.clone()
            };
            let woha = WohaScheduler::new(WohaConfig {
                padding: config
                    .prediction
                    .map(|_| PadConfig::new(SimDuration::from_mins(12))),
                ..WohaConfig::new(PriorityPolicy::Lpf, 96)
            });
            let mut s: Box<dyn WorkflowScheduler> = if *label == "per-slot" {
                Box::new(PerSlot::new(woha))
            } else {
                Box::new(woha)
            };
            let (mut report, mut obs) =
                run_simulation_observed(&workflows, &mut *s, cluster, &config);
            report.scheduler_nanos = 0;
            let exercised = match *label {
                "node+rack faults" => report.data_plane.map_or(0, |d| d.rack_outages),
                "master crash, WAL" => report.recovery.as_ref().map_or(0, |r| r.master_crashes),
                "master crash, no WAL" => {
                    report.recovery.as_ref().map_or(0, |r| r.attempts_orphaned)
                }
                "speculation+risk" => report
                    .prediction
                    .as_ref()
                    .map_or(0, |p| p.preemptive_speculations),
                "delay scheduling" => report.delay_skips,
                _ => report.tasks_executed,
            };
            assert!(exercised > 0, "{label} / {setting}");

            let prom = obs.prometheus_text().unwrap_or_default();
            assert!(
                !prom.contains("woha_decision_seconds"),
                "{label} / {setting}"
            );
            if setting == "all" {
                all_prom = prom.clone();
                let metrics = obs.metrics.as_ref().expect("metrics on");
                let preemptive = obs
                    .trace
                    .iter()
                    .filter(|r| matches!(r.event, TraceEvent::PreemptiveSpeculation { .. }))
                    .count() as u64;
                assert_eq!(metrics.preemptive_speculations.value(), preemptive);
                let launched = report.prediction.as_ref();
                assert_eq!(
                    launched.map_or(0, |p| p.preemptive_speculations),
                    preemptive
                );
            } else if setting == "metrics" {
                assert_eq!(
                    prom, all_prom,
                    "{label}: the registry folds the same records"
                );
            }

            obs.trace
                .retain(|r| !matches!(r.event, TraceEvent::PreemptiveSpeculation { .. }));
            got += &format!(
                "{label} / {setting}: report {} jsonl {} chrome {} prom {}\n",
                digest(&serde_json::to_string(&report).unwrap()),
                digest(&obs.trace_jsonl()),
                digest(&obs.chrome_trace_json()),
                digest(&prom),
            );
        }
    }
    assert_eq!(got, OBSERVED_ON_THE_PER_BEAT_PATH);
}

/// Tentpole: the streaming front door is the batch front door. The same
/// workload fed through a pre-materialized `VecSource` and through a
/// `JsonlSource` parsing its own `to_jsonl` serialization line-by-line
/// produces a `SimReport` byte-identical to the batch entry point, for
/// every scheduler — on a plain run and across a mid-run master crash
/// recovered from checkpoint + WAL replay.
#[test]
fn streamed_sources_match_batch_byte_for_byte() {
    let workflows = fig11_workflows();
    let jsonl = to_jsonl(&workflows).unwrap();
    let plain = demo_cluster();
    let faulty = demo_cluster().with_faults(FaultConfig {
        master: MasterFaultConfig {
            mttr: SimDuration::from_secs(45),
            scripted: vec![SimTime::from_mins(8)],
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::default()
    });
    let config = SimConfig::default();
    let strip = |mut r: SimReport| {
        r.scheduler_nanos = 0;
        serde_json::to_string(&r).unwrap()
    };

    for (cluster, label) in [(&plain, "plain"), (&faulty, "failover")] {
        for ((mut batch_s, mut vec_s), mut jsonl_s) in all_schedulers(96)
            .into_iter()
            .zip(all_schedulers(96))
            .zip(all_schedulers(96))
        {
            let batch = run_simulation(&workflows, batch_s.as_mut(), cluster, &config);
            let name = batch.scheduler.clone();
            if label == "failover" {
                assert_eq!(batch.recovery.as_ref().unwrap().master_crashes, 1, "{name}");
            }
            let reference = strip(batch);

            let mut source = VecSource::new(workflows.clone());
            let streamed =
                try_run_simulation_streamed(&mut source, vec_s.as_mut(), cluster, &config, None)
                    .unwrap();
            assert_eq!(strip(streamed), reference, "{label} {name}: VecSource");

            let mut source = JsonlSource::from_reader(jsonl.as_bytes());
            let streamed =
                try_run_simulation_streamed(&mut source, jsonl_s.as_mut(), cluster, &config, None)
                    .unwrap();
            assert!(source.error().is_none(), "{label} {name}: clean parse");
            assert_eq!(strip(streamed), reference, "{label} {name}: JsonlSource");
        }
    }
}

/// Tentpole: streaming trace export. A `JsonlTraceSink` fed record-by-
/// record as the simulation runs writes byte-for-byte what the buffered
/// `Observations::trace_jsonl()` renders after the fact — on a reference
/// run with jitter, task failures, speculation, and a master crash all
/// active — and the two entry points' reports agree.
#[test]
fn streaming_trace_sink_matches_buffered_export() {
    let workflows = fig11_workflows();
    let cluster = demo_cluster().with_faults(FaultConfig {
        master: MasterFaultConfig {
            mttr: SimDuration::from_mins(1),
            scripted: vec![SimTime::from_mins(10)],
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::default()
    });
    let config = SimConfig {
        duration_jitter: 0.15,
        task_failure_prob: 0.02,
        speculation: Some(SpeculationConfig::default()),
        seed: 42,
        observability: ObservabilityConfig {
            trace: true,
            metrics: true,
            sample_interval: Some(SimDuration::from_secs(30)),
            ..ObservabilityConfig::default()
        },
        ..SimConfig::default()
    };
    let scheduler = || WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));

    let (buffered_report, obs) =
        run_simulation_observed(&workflows, &mut scheduler(), &cluster, &config);
    assert!(buffered_report.completed);
    let buffered = obs.trace_jsonl();
    assert!(!buffered.is_empty());

    let mut source = VecSource::new(workflows.clone());
    let mut sink = JsonlTraceSink::new(Vec::new());
    let (streamed_report, metrics) = try_run_simulation_streamed_observed(
        &mut source,
        &mut scheduler(),
        &cluster,
        &config,
        None,
        Some(&mut sink),
    )
    .unwrap();
    assert!(streamed_report.completed);
    assert!(metrics.is_some(), "metrics armed in config");
    let streamed = String::from_utf8(sink.finish().unwrap()).unwrap();
    assert_eq!(streamed, buffered, "incremental export must equal buffered");

    let strip = |mut r: SimReport| {
        r.scheduler_nanos = 0;
        serde_json::to_string(&r).unwrap()
    };
    assert_eq!(strip(streamed_report), strip(buffered_report));
}

/// Satellite: admission control at the front door, end to end. With an
/// `MultiTenantGate::open` gating the stream, a workflow whose critical path
/// cannot meet its deadline is turned away before touching the event loop:
/// the report's admission block counts it by reason, an `AdmissionReject`
/// record lands in the trace, and the remaining workflows run as usual.
#[test]
fn admission_gate_rejects_at_the_front_door() {
    let mut workflows = fig11_workflows();
    workflows.push(
        paper_fig7("doomed")
            .submit_at(SimTime::from_mins(15))
            .relative_deadline(SimDuration::from_mins(1))
            .build()
            .unwrap(),
    );
    let cluster = demo_cluster();
    let config = SimConfig {
        observability: ObservabilityConfig {
            trace: true,
            ..ObservabilityConfig::default()
        },
        ..SimConfig::default()
    };

    let mut gate = MultiTenantGate::open(&cluster);
    let mut source = VecSource::new(workflows.clone());
    let mut sink = MemorySink::new();
    let (report, _) = try_run_simulation_streamed_observed(
        &mut source,
        &mut WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96)),
        &cluster,
        &config,
        Some(&mut gate),
        Some(&mut sink),
    )
    .unwrap();
    assert!(report.completed);
    assert_eq!(report.outcomes.len(), 3, "the three feasible workflows run");
    assert_eq!(report.deadline_misses(), 0);
    let admission = report.admission.expect("gated run reports admission");
    assert_eq!(admission.workflows_rejected, 1);
    assert_eq!(admission.rejections.len(), 1);
    assert_eq!(
        admission.rejections[0].reason,
        "critical_path_exceeds_deadline"
    );
    assert_eq!(admission.rejections[0].count, 1);
    let rejects: Vec<_> = sink
        .into_records()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::AdmissionReject { workflow, reason } => Some((r.at, workflow, reason)),
            _ => None,
        })
        .collect();
    assert_eq!(rejects.len(), 1, "one rejection traced");
    assert_eq!(rejects[0].1, "doomed");
    assert_eq!(rejects[0].2, "critical_path_exceeds_deadline");
    assert_eq!(rejects[0].0, SimTime::from_mins(15), "rejected on arrival");

    // Ungated, the doomed workflow runs (and misses); no admission block.
    let ungated = run_simulation(
        &workflows,
        &mut WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96)),
        &cluster,
        &config,
    );
    assert_eq!(ungated.outcomes.len(), 4);
    assert!(ungated.admission.is_none());
    assert!(ungated.deadline_misses() >= 1);
}

/// A replay clock for a source that is still being written: like
/// `SimClock` it never paces events and never re-stamps arrivals, but when
/// the source reports "no data yet" it blocks — sleeps a poll slice and
/// retries — instead of declaring the stream over. The event loop
/// therefore never advances past data the writer has yet to produce, so
/// the run is byte-identical to a batch run no matter how slowly (or in
/// what fragments) the bytes arrive.
struct BlockingReplayClock;

impl Clock for BlockingReplayClock {
    fn source_pending(&mut self, _next_event: Option<SimTime>) -> SourceWait {
        std::thread::sleep(std::time::Duration::from_micros(200));
        SourceWait::Retry
    }
}

fn temp_feed_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "woha_e2e_feed_{}_{}_{tag}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed),
    ))
}

/// Satellite: tailing a file that is still being written is the batch
/// front door. A writer thread appends the Yahoo-trace JSONL to a file
/// that does not exist yet, landing every record in two separate writes so
/// the reader keeps hitting end-of-file inside an unterminated line (the
/// truncated-tail retry in `JsonlSource`/`FollowSource`), then raises the
/// stop flag. The `FollowSource`-fed clocked run produces a `SimReport`
/// byte-identical to the batch run — on a plain cluster and across a
/// mid-run master crash recovered from checkpoint.
#[test]
fn follow_source_written_live_matches_batch_byte_for_byte() {
    use std::io::Write as _;

    // A live feed is chronological: sort by submit time so the sources'
    // nondecreasing-watermark clamp never has to rewrite a timestamp, and
    // use the same order for the batch reference.
    let mut workflows = obs_yahoo_workload();
    workflows.sort_by_key(|w| w.submit_time());
    let jsonl = to_jsonl(&workflows).unwrap();
    let plain = ClusterConfig::with_totals(120, 120);
    let faulty = ClusterConfig::with_totals(120, 120).with_faults(FaultConfig {
        master: MasterFaultConfig {
            mttr: SimDuration::from_secs(45),
            scripted: vec![SimTime::from_mins(8)],
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::default()
    });
    let config = SimConfig::default();
    let strip = |mut r: SimReport| {
        r.scheduler_nanos = 0;
        serde_json::to_string(&r).unwrap()
    };
    let schedulers = || -> Vec<Box<dyn WorkflowScheduler>> {
        vec![
            Box::new(WohaScheduler::new(WohaConfig::new(
                PriorityPolicy::Lpf,
                240,
            ))),
            Box::new(EdfScheduler),
        ]
    };

    for (cluster, label) in [(&plain, "plain"), (&faulty, "failover")] {
        for (mut batch_s, mut follow_s) in schedulers().into_iter().zip(schedulers()) {
            let batch = run_simulation(&workflows, batch_s.as_mut(), cluster, &config);
            let name = batch.scheduler.clone();
            if label == "failover" {
                assert_eq!(batch.recovery.as_ref().unwrap().master_crashes, 1, "{name}");
            }
            let reference = strip(batch);

            let path = temp_feed_path(label);
            std::fs::remove_file(&path).ok();
            let mut follow = FollowSource::file(&path);
            let stop = follow.stop_handle();
            let writer = {
                let text = jsonl.clone();
                let path = path.clone();
                std::thread::spawn(move || {
                    // The file comes into being with the first chunk;
                    // until then the source stays Pending.
                    let mut f = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&path)
                        .unwrap();
                    for (i, line) in text.lines().enumerate() {
                        let bytes = line.as_bytes();
                        let mid = bytes.len() / 2;
                        f.write_all(&bytes[..mid]).unwrap();
                        if i < 4 {
                            // Give the reader a real chance to observe the
                            // torn record before the rest of it lands.
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        f.write_all(&bytes[mid..]).unwrap();
                        f.write_all(b"\n").unwrap();
                    }
                    stop.stop();
                })
            };

            let (live, metrics) = try_run_simulation_clocked(
                &mut follow,
                follow_s.as_mut(),
                cluster,
                &config,
                None,
                None,
                &mut BlockingReplayClock,
            )
            .unwrap();
            writer.join().unwrap();
            std::fs::remove_file(&path).ok();
            assert!(follow.error().is_none(), "{label} {name}: clean tail parse");
            assert!(metrics.is_none(), "observability off");
            assert_eq!(strip(live), reference, "{label} {name}: live FollowSource");
        }
    }
}

/// Satellite: the clocked event loop under `SimClock` IS the streamed
/// event loop. For every scheduler, on a plain cluster and across a
/// mid-run master crash, `try_run_simulation_clocked(.., SimClock)`
/// produces a `SimReport` byte-identical to
/// `try_run_simulation_streamed` — the wall-clock plumbing costs replay
/// mode nothing.
#[test]
fn sim_clock_replay_matches_streamed_byte_for_byte() {
    let workflows = fig11_workflows();
    let plain = demo_cluster();
    let faulty = demo_cluster().with_faults(FaultConfig {
        master: MasterFaultConfig {
            mttr: SimDuration::from_secs(45),
            scripted: vec![SimTime::from_mins(8)],
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::default()
    });
    let config = SimConfig::default();
    let strip = |mut r: SimReport| {
        r.scheduler_nanos = 0;
        serde_json::to_string(&r).unwrap()
    };

    for (cluster, label) in [(&plain, "plain"), (&faulty, "failover")] {
        for (mut streamed_s, mut clocked_s) in
            all_schedulers(96).into_iter().zip(all_schedulers(96))
        {
            let mut source = VecSource::new(workflows.clone());
            let streamed = try_run_simulation_streamed(
                &mut source,
                streamed_s.as_mut(),
                cluster,
                &config,
                None,
            )
            .unwrap();
            let name = streamed.scheduler.clone();

            let mut source = VecSource::new(workflows.clone());
            let (clocked, metrics) = try_run_simulation_clocked(
                &mut source,
                clocked_s.as_mut(),
                cluster,
                &config,
                None,
                None,
                &mut SimClock,
            )
            .unwrap();
            assert!(metrics.is_none(), "observability off");
            assert_eq!(strip(clocked), strip(streamed), "{label} {name}: SimClock");
        }
    }
}

/// Satellite: failure prediction costs nothing when off. With
/// `prediction: None` (the default) the report JSON carries no
/// "prediction" key and is byte-identical across the plain entry point, a
/// WOHA scheduler with the padding knob explicitly disabled, and the
/// streamed-ingestion entry point — on a clean cluster, under node
/// faults, and across a mid-run master crash recovered from checkpoint +
/// WAL replay. With prediction armed on the faulty clusters, the section
/// appears with live propensity state and every variant reproduces
/// byte-identically on a rerun (the WAL replays the health bumps too).
#[test]
fn prediction_off_is_invisible_and_on_survives_failover() {
    let workflows = fig11_workflows();
    let plain = demo_cluster();
    let node_faults = FaultConfig {
        mtbf: Some(SimDuration::from_mins(12)),
        mttr: SimDuration::from_mins(3),
        detect_missed_heartbeats: 2,
        blacklist_after: 0,
        ..FaultConfig::default()
    };
    let faulty = demo_cluster().with_faults(node_faults.clone());
    let failover = demo_cluster().with_faults(FaultConfig {
        master: MasterFaultConfig {
            mttr: SimDuration::from_secs(45),
            wal: true,
            scripted: vec![SimTime::from_mins(8)],
            ..MasterFaultConfig::default()
        },
        ..node_faults
    });
    let strip = |mut r: SimReport| {
        r.scheduler_nanos = 0;
        serde_json::to_string(&r).unwrap()
    };

    for (cluster, label) in [
        (&plain, "plain"),
        (&faulty, "faults"),
        (&failover, "failover"),
    ] {
        let config = SimConfig::default();
        let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
        let reference = strip(run_simulation(&workflows, &mut s, cluster, &config));
        assert!(
            !reference.contains("\"prediction\""),
            "{label}: prediction off must not surface in the report"
        );

        let mut explicit_off = WohaScheduler::new(WohaConfig {
            padding: None,
            ..WohaConfig::new(PriorityPolicy::Lpf, 96)
        });
        let report = run_simulation(&workflows, &mut explicit_off, cluster, &config);
        assert_eq!(reference, strip(report), "{label}: padding: None");

        let mut source = VecSource::new(workflows.clone());
        let mut streamed_s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
        let streamed =
            try_run_simulation_streamed(&mut source, &mut streamed_s, cluster, &config, None)
                .unwrap();
        assert_eq!(reference, strip(streamed), "{label}: streamed ingestion");
    }

    // Prediction armed: the report gains live state, node crashes bump the
    // scores, and every variant — including WAL-replayed recovery and the
    // streamed path — is reproducible bit for bit.
    let armed = SimConfig {
        prediction: Some(PredictionConfig {
            risk_placement: true,
            ..PredictionConfig::default()
        }),
        ..SimConfig::default()
    };
    for (cluster, label) in [(&faulty, "faults"), (&failover, "failover")] {
        let run = || {
            let mut s = WohaScheduler::new(WohaConfig {
                padding: Some(PadConfig::new(SimDuration::from_mins(12))),
                ..WohaConfig::new(PriorityPolicy::Lpf, 96)
            });
            run_simulation(&workflows, &mut s, cluster, &armed)
        };
        let first = run();
        assert!(first.completed, "{label}");
        let p = first.prediction.as_ref().expect("prediction on reports");
        assert!(first.node_failures > 0, "{label}: faults must fire");
        assert!(
            p.node_propensity.iter().any(|&s| s > 0.0),
            "{label}: crashes must leave propensity"
        );
        assert!(p.plans_padded > 0, "{label}: padding must engage");
        assert_eq!(strip(first.clone()), strip(run()), "{label}: deterministic");

        let mut source = VecSource::new(workflows.clone());
        let mut streamed_s = WohaScheduler::new(WohaConfig {
            padding: Some(PadConfig::new(SimDuration::from_mins(12))),
            ..WohaConfig::new(PriorityPolicy::Lpf, 96)
        });
        let streamed =
            try_run_simulation_streamed(&mut source, &mut streamed_s, cluster, &armed, None)
                .unwrap();
        assert_eq!(
            strip(first),
            strip(streamed),
            "{label}: streamed ingestion with prediction on"
        );
    }
}

/// Tentpole: the rack-aware data plane defaults to invisible — a cluster
/// explicitly flattened to one rack produces a report byte-identical to
/// one that never mentioned racks, with no `data_plane` section — and a
/// fully-enabled racked run (two racks, correlated rack outages, survivor
/// preference, re-shuffle charging) is byte-identical whether the sweep
/// orchestrator fans it over 1, 2, or 8 worker threads.
#[test]
fn rack_data_plane_is_invisible_off_and_jobs_invariant_on() {
    use woha_bench::schedulers::SchedulerKind;
    use woha_bench::{CellKey, SimSweep};

    let workflows = fig11_workflows();
    let config = SimConfig {
        locality: Some(LocalityConfig {
            max_delay_skips: 2,
            ..LocalityConfig::default()
        }),
        ..SimConfig::default()
    };
    let strip = |mut r: SimReport| {
        r.scheduler_nanos = 0;
        serde_json::to_string(&r).unwrap()
    };

    // Off is invisible: `--racks 1` is the flat legacy cluster.
    let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
    let plain = run_simulation(&workflows, &mut s, &demo_cluster(), &config);
    let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
    let one_rack = run_simulation(&workflows, &mut s, &demo_cluster().with_racks(1), &config);
    let reference = strip(plain);
    assert!(
        !reference.contains("\"data_plane\""),
        "flat runs must not surface the data-plane section"
    );
    assert_eq!(reference, strip(one_rack), "one rack is the flat cluster");

    // On: the full feature set, fanned across worker pools of every size.
    let racked = demo_cluster().with_racks(2).with_faults(FaultConfig {
        rack_mtbf: Some(SimDuration::from_mins(30)),
        rack_mttr: Some(SimDuration::from_mins(8)),
        ..FaultConfig::default()
    });
    let mut sweep = SimSweep::new();
    for prefer_survivors in [false, true] {
        let cfg = SimConfig {
            locality: Some(LocalityConfig {
                max_delay_skips: 2,
                prefer_survivors,
                ..LocalityConfig::default()
            }),
            reshuffle_cost: SimDuration::from_secs(30),
            ..SimConfig::default()
        };
        sweep.push_kinds(
            &CellKey::new().with("survivors", prefer_survivors),
            &[SchedulerKind::WohaLpf],
            &workflows,
            &racked,
            &cfg,
        );
    }
    let serial = sweep.run(1);
    for (key, report) in &serial.cells {
        let d = report
            .data_plane
            .expect("racked runs report the data plane");
        assert_eq!(d.racks, 2, "{key}");
        assert!(d.rack_outages > 0, "{key}: the outage schedule must fire");
        assert!(d.reshuffle_events > 0, "{key}: charging must engage");
    }
    for jobs in [2, 8] {
        assert_eq!(
            serial.canonical_json(),
            sweep.run(jobs).canonical_json(),
            "jobs={jobs}"
        );
    }
}

/// Tentpole: a mid-run master crash replayed from the write-ahead log
/// restores the data plane too — replica/rack state, survivor identities,
/// and re-shuffle debt checkpoint and recover — so a rack-enabled run
/// with a scripted failover is deterministic byte for byte and still
/// recovers lost work onto surviving replicas.
#[test]
fn rack_data_plane_survives_master_failover() {
    let workflows = fig11_workflows();
    let cluster = demo_cluster().with_racks(2).with_faults(FaultConfig {
        rack_mtbf: Some(SimDuration::from_mins(30)),
        rack_mttr: Some(SimDuration::from_mins(8)),
        master: MasterFaultConfig {
            mttr: SimDuration::from_secs(45),
            wal: true,
            scripted: vec![SimTime::from_mins(8)],
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::default()
    });
    let run = || {
        let config = SimConfig {
            locality: Some(LocalityConfig {
                max_delay_skips: 2,
                prefer_survivors: true,
                ..LocalityConfig::default()
            }),
            reshuffle_cost: SimDuration::from_secs(30),
            ..SimConfig::default()
        };
        let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
        let report = run_simulation(&workflows, &mut s, &cluster, &config);
        assert!(report.completed);
        report
    };
    let first = run();
    let rec = first.recovery.as_ref().expect("master faults on");
    assert_eq!(rec.master_crashes, 1, "the scripted crash must fire");
    let d = first.data_plane.expect("racked run reports the data plane");
    assert!(d.rack_outages > 0, "rack faults must fire");
    assert!(
        d.survivor_requeues > 0,
        "lost maps must re-queue under their original identity"
    );
    let strip = |mut r: SimReport| {
        r.scheduler_nanos = 0;
        serde_json::to_string(&r).unwrap()
    };
    assert_eq!(
        strip(first),
        strip(run()),
        "failover with the data plane on must replay byte-identically"
    );
}

/// One cell of the failover licence grid: speculation twins racing under
/// stragglers and risk placement, task failures, stochastic node crashes
/// in two racks, locality, and two scripted master crashes recovered with
/// or without the WAL. Returns the cell's digest line (canonical report,
/// `scheduler_nanos` zeroed, and JSONL trace) and the report.
fn licence_cell(
    workflows: &[WorkflowSpec],
    nodes: u32,
    crashes: [SimTime; 2],
    woha: bool,
    wal: bool,
    survivors: bool,
    seed: u64,
) -> (String, SimReport) {
    let cluster = ClusterConfig::uniform(nodes, 2, 1)
        .with_racks(2)
        .with_faults(FaultConfig {
            master: MasterFaultConfig {
                mttr: SimDuration::from_secs(45),
                checkpoint_interval: SimDuration::from_mins(4),
                wal,
                scripted: crashes.to_vec(),
                ..MasterFaultConfig::default()
            },
            ..FaultConfig::with_mtbf(SimDuration::from_mins(25), SimDuration::from_mins(2))
        });
    let config = SimConfig {
        duration_jitter: 0.15,
        task_failure_prob: 0.02,
        seed,
        speculation: Some(SpeculationConfig {
            straggler_prob: 0.2,
            ..SpeculationConfig::default()
        }),
        prediction: Some(PredictionConfig {
            risk_placement: true,
            ..PredictionConfig::default()
        }),
        locality: Some(LocalityConfig {
            prefer_survivors: survivors,
            ..LocalityConfig::default()
        }),
        observability: ObservabilityConfig {
            trace: true,
            ..ObservabilityConfig::default()
        },
        ..SimConfig::default()
    };
    let mut scheduler: Box<dyn WorkflowScheduler> = if woha {
        Box::new(WohaScheduler::new(WohaConfig::new(
            PriorityPolicy::Lpf,
            nodes * 3,
        )))
    } else {
        Box::new(FifoScheduler)
    };
    let (mut report, obs) = run_simulation_observed(workflows, &mut *scheduler, &cluster, &config);
    report.scheduler_nanos = 0;
    let line = format!(
        "{} wal={} survivors={} seed={}: report {} jsonl {}\n",
        report.scheduler,
        u8::from(wal),
        u8::from(survivors),
        seed,
        digest(&serde_json::to_string(&report).unwrap()),
        digest(&obs.trace_jsonl()),
    );
    (line, report)
}

/// Runs the licence grid — WOHA-LPF and FIFO, WAL on and off, survivor
/// preference on and off, `seeds` — and checks that every run completes
/// after both master crashes and that the grid as a whole launches and
/// kills twins, loses nodes and requeues attempts at a WAL-less recovery.
fn licence_grid(
    workflows: &[WorkflowSpec],
    nodes: u32,
    crashes: [SimTime; 2],
    seeds: u64,
) -> String {
    let mut got = String::new();
    let (mut twins, mut nodes_lost, mut requeued) = (0, 0, 0);
    for woha in [true, false] {
        for wal in [true, false] {
            for survivors in [false, true] {
                for seed in 0..seeds {
                    let (line, report) =
                        licence_cell(workflows, nodes, crashes, woha, wal, survivors, seed);
                    assert!(report.completed, "{line}");
                    let rec = report.recovery.as_ref().expect("master faults on");
                    assert_eq!(rec.master_crashes, 2, "{line}");
                    twins += report.speculative_launched;
                    nodes_lost += report.node_failures;
                    requeued += rec.attempts_requeued;
                    got += &line;
                }
            }
        }
    }
    assert!(
        twins > 0 && nodes_lost > 0 && requeued > 0,
        "{twins} {nodes_lost} {requeued}"
    );
    got
}

/// Four short two-job workflows released 30 s apart, each later one
/// with a tighter deadline.
fn licence_workflows() -> Vec<WorkflowSpec> {
    (0..4u64)
        .map(|i| {
            let mut b = WorkflowBuilder::new(format!("lic-{i}"));
            let sec = SimDuration::from_secs;
            let a = b.add_job(JobSpec::new("a", 10, 3, sec(40), sec(60)));
            let c = b.add_job(JobSpec::new("b", 6, 2, sec(30), sec(45)));
            b.add_dependency(a, c);
            b.submit_at(SimTime::from_secs(30 * i))
                .relative_deadline(SimDuration::from_mins(24 - 4 * i))
                .build()
                .unwrap()
        })
        .collect()
}

/// Digests of the small licence grid, recorded on the commit where
/// speculation twins were still grouped in a separate table and the
/// checkpoint still carried slot occupancy and the arrival cursor. The
/// attempt table and checkpoint may change shape; these may not move.
const LICENCE_SMALL: &str = "\
WOHA-LPF wal=1 survivors=0 seed=0: report 8758e7c3c32aa3e1 jsonl bc41a3a7fda3ddcd
WOHA-LPF wal=1 survivors=0 seed=1: report c1f6d8761d25e67b jsonl a793b0de93f94937
WOHA-LPF wal=1 survivors=1 seed=0: report f8769b56ea9d02c6 jsonl bc41a3a7fda3ddcd
WOHA-LPF wal=1 survivors=1 seed=1: report ef3004110ad4a708 jsonl e5ed7d1d3a049535
WOHA-LPF wal=0 survivors=0 seed=0: report a0907b1917331b10 jsonl afdac406064b3e78
WOHA-LPF wal=0 survivors=0 seed=1: report 8abb766e78af0629 jsonl 2e0f738b61ef2e05
WOHA-LPF wal=0 survivors=1 seed=0: report 53ea6502665a20bb jsonl b4206fddba8f9624
WOHA-LPF wal=0 survivors=1 seed=1: report dadee19d9d2c18b4 jsonl 32ac01863e323b24
FIFO wal=1 survivors=0 seed=0: report ce3fde99c0bf7cfe jsonl b57a36c1294ed921
FIFO wal=1 survivors=0 seed=1: report af0831a6939b7615 jsonl 4cd5ec855a760a94
FIFO wal=1 survivors=1 seed=0: report 13b1130ee58023b8 jsonl b57a36c1294ed921
FIFO wal=1 survivors=1 seed=1: report 31d6ea4ca7485d01 jsonl 43ba918b4e556086
FIFO wal=0 survivors=0 seed=0: report a2e1597fb9ed4ad8 jsonl 7cd657e64fee06d1
FIFO wal=0 survivors=0 seed=1: report 4991f13ca80c3966 jsonl 52649811e16bc7d1
FIFO wal=0 survivors=1 seed=0: report 066bb5ba6af85564 jsonl 19c9367b6e017896
FIFO wal=0 survivors=1 seed=1: report afdb1708fce887e5 jsonl 53e77dcf04040239
";

/// The failover licence for the attempt table and the master checkpoint,
/// small enough for a debug build, where every checkpoint also checks its
/// own invariants: twins race, lose and die with their nodes, the master
/// crashes twice, and reports and traces stay what they were.
#[test]
fn attempt_table_failover_licence() {
    let crashes = [SimTime::from_mins(4), SimTime::from_millis(497_300)];
    let got = licence_grid(&licence_workflows(), 8, crashes, 2);
    assert_eq!(got, LICENCE_SMALL);
}

/// Digests of the full licence grid (Fig 11's workflows on the demo
/// cluster), recorded alongside [`LICENCE_SMALL`].
const LICENCE_FULL: &str = "\
WOHA-LPF wal=1 survivors=0 seed=0: report 613085bb9bede250 jsonl 4b18fc00f4dd848b
WOHA-LPF wal=1 survivors=0 seed=1: report 890b47d44b0ffa29 jsonl 710269877e90f69d
WOHA-LPF wal=1 survivors=0 seed=2: report 52515dc1efdf4433 jsonl 7296bced9bd7ec3c
WOHA-LPF wal=1 survivors=0 seed=3: report 44106c23ba6a02ff jsonl 174214b661ea5b7d
WOHA-LPF wal=1 survivors=0 seed=4: report 938e90c0e702dc35 jsonl 7d53a61631cbbffe
WOHA-LPF wal=1 survivors=0 seed=5: report 102dc5fcfc2b36d9 jsonl c4074b62ef0dbad3
WOHA-LPF wal=1 survivors=1 seed=0: report 2d88ca756b2c88a1 jsonl 90b8b36bbde200fd
WOHA-LPF wal=1 survivors=1 seed=1: report e7dd7553c86077b8 jsonl c7c5d987ea306954
WOHA-LPF wal=1 survivors=1 seed=2: report 1134b419385784be jsonl 8833a7297c9847e2
WOHA-LPF wal=1 survivors=1 seed=3: report 8721479801f5bd8f jsonl 4c109a758c1803df
WOHA-LPF wal=1 survivors=1 seed=4: report 999daec2e83f5fab jsonl 970f4455d2142783
WOHA-LPF wal=1 survivors=1 seed=5: report dd166340aabed45c jsonl 1e54d5fd1f49f29e
WOHA-LPF wal=0 survivors=0 seed=0: report 83b78ebf977585a1 jsonl baf4c1f0f312f4bf
WOHA-LPF wal=0 survivors=0 seed=1: report 2d56417cf7ca390b jsonl 1f1f5a13cef62603
WOHA-LPF wal=0 survivors=0 seed=2: report 4a87d8476288e351 jsonl 24155db5a60e4f04
WOHA-LPF wal=0 survivors=0 seed=3: report ccf8d730186b79b9 jsonl cde3e70bc6e65b26
WOHA-LPF wal=0 survivors=0 seed=4: report 2d00f831f6de47fb jsonl 20182707e6e5ac82
WOHA-LPF wal=0 survivors=0 seed=5: report f278b25c72b5ea42 jsonl 2587c1d063e39a3f
WOHA-LPF wal=0 survivors=1 seed=0: report c66be709b2872c82 jsonl ae5e959ce8b64eae
WOHA-LPF wal=0 survivors=1 seed=1: report f23a193bbd5e3e34 jsonl 17acb4707b2d4952
WOHA-LPF wal=0 survivors=1 seed=2: report 6bab89105bef4288 jsonl 53b8a81d1c5d55db
WOHA-LPF wal=0 survivors=1 seed=3: report caf1d998f808823d jsonl 52f86bee7e8af9da
WOHA-LPF wal=0 survivors=1 seed=4: report 855d2b70ab7c6428 jsonl 93438463da42326f
WOHA-LPF wal=0 survivors=1 seed=5: report e67639bbdfe0abad jsonl a6406893416a5659
FIFO wal=1 survivors=0 seed=0: report 47c2706fe0d2a018 jsonl f2c17c81e3253797
FIFO wal=1 survivors=0 seed=1: report 791d1bf57c72ffce jsonl bfb5b698c3c130cb
FIFO wal=1 survivors=0 seed=2: report c9a0ec5197e55cde jsonl b31cce9496782747
FIFO wal=1 survivors=0 seed=3: report 6299820a6d2c5f28 jsonl 9b6db5db1b023874
FIFO wal=1 survivors=0 seed=4: report 4b5893c88fe9b515 jsonl 9d2433457e2654a5
FIFO wal=1 survivors=0 seed=5: report 6229ebd307b85d0f jsonl fcbf3bf12880514a
FIFO wal=1 survivors=1 seed=0: report 9d2a793663403725 jsonl 9b91d04e7a223211
FIFO wal=1 survivors=1 seed=1: report 7bb026ab611dce03 jsonl 660c767009d9a7ca
FIFO wal=1 survivors=1 seed=2: report 0261c653b014ba76 jsonl 6addefd427f01129
FIFO wal=1 survivors=1 seed=3: report fbd189034223c982 jsonl db979326c2adc901
FIFO wal=1 survivors=1 seed=4: report 7994db290d5c648d jsonl f930f9affdc2c60c
FIFO wal=1 survivors=1 seed=5: report 8f04b0fb485497bd jsonl 865b8e79741576f2
FIFO wal=0 survivors=0 seed=0: report 3a011a7b021e4e69 jsonl 13edaa4546bcdf35
FIFO wal=0 survivors=0 seed=1: report be322441548e748e jsonl 718e602bfa5e246b
FIFO wal=0 survivors=0 seed=2: report 2fe9741beedd5354 jsonl 0c2df602ed77ca7f
FIFO wal=0 survivors=0 seed=3: report a9922612915aab90 jsonl 8381bea9b5892ce1
FIFO wal=0 survivors=0 seed=4: report b4eb2ec4f8ab3fc3 jsonl 353eaffd72d69998
FIFO wal=0 survivors=0 seed=5: report 9a90dfdd0e6ca33d jsonl b41c4f8e005e4ffb
FIFO wal=0 survivors=1 seed=0: report 111e3772b7f70b63 jsonl cb6048484aa360a3
FIFO wal=0 survivors=1 seed=1: report d513cdd4ccd275ca jsonl 331dd2ac1262e5bd
FIFO wal=0 survivors=1 seed=2: report 00deb06f545a6c40 jsonl 7a2daca2d2c9ee2b
FIFO wal=0 survivors=1 seed=3: report cb36f9ffd6797f22 jsonl 900210037ebdc0f5
FIFO wal=0 survivors=1 seed=4: report bec94b4939940f86 jsonl 23d8293bb7e2810b
FIFO wal=0 survivors=1 seed=5: report 291c1c3cee3cfaee jsonl 19cbd8e4a50fd3d1
";

/// The full licence grid: 48 runs, release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only; CI runs it")]
fn attempt_table_failover_licence_full() {
    let crashes = [SimTime::from_mins(10), SimTime::from_millis(1_923_000)];
    let got = licence_grid(&fig11_workflows(), 32, crashes, 6);
    assert_eq!(got, LICENCE_FULL);
}

/// One cell of the replan failover licence: WOHA-LPF with mid-flight
/// replanning and failure padding, whose plans are drawn up for
/// `plan_slots` slots on a cluster of `nodes` nodes (three slots each), so
/// they fall behind and get replaced; node crashes, task failures, and
/// two scripted master crashes recovered with or without the WAL. Nothing
/// keeps the driver off its idle runs. Returns the cell's digest line and
/// checks that the run completes after both crashes and replans before
/// the last one, so some checkpoint a crash restores holds a replaced
/// plan.
fn replan_licence_cell(
    workflows: &[WorkflowSpec],
    nodes: u32,
    plan_slots: u32,
    crashes: [SimTime; 2],
    wal: bool,
    seed: u64,
) -> String {
    let cluster = ClusterConfig::uniform(nodes, 2, 1).with_faults(FaultConfig {
        master: MasterFaultConfig {
            mttr: SimDuration::from_secs(40),
            checkpoint_interval: SimDuration::from_mins(1),
            wal,
            scripted: crashes.to_vec(),
            ..MasterFaultConfig::default()
        },
        ..FaultConfig::with_mtbf(SimDuration::from_mins(30), SimDuration::from_mins(2))
    });
    let config = SimConfig {
        duration_jitter: 0.15,
        task_failure_prob: 0.02,
        seed,
        observability: ObservabilityConfig {
            trace: true,
            ..ObservabilityConfig::default()
        },
        ..SimConfig::default()
    };
    let mut scheduler = WohaScheduler::new(WohaConfig {
        replan: true,
        padding: Some(PadConfig::new(SimDuration::from_mins(5))),
        ..WohaConfig::new(PriorityPolicy::Lpf, plan_slots)
    });
    let (mut report, obs) = run_simulation_observed(workflows, &mut scheduler, &cluster, &config);
    report.scheduler_nanos = 0;
    let line = format!(
        "{} wal={} seed={}: report {} jsonl {}\n",
        report.scheduler,
        u8::from(wal),
        seed,
        digest(&serde_json::to_string(&report).unwrap()),
        digest(&obs.trace_jsonl()),
    );
    assert!(report.completed, "{line}");
    let rec = report.recovery.as_ref().expect("master faults on");
    assert_eq!(rec.master_crashes, 2, "{line}");
    let last_crash = obs
        .trace
        .iter()
        .rposition(|r| matches!(r.event, TraceEvent::MasterCrashed))
        .expect("the master crashed");
    let replans = obs.trace[..last_crash]
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Replan { .. }))
        .count();
    assert!(replans > 0, "{line}: no replan before the last crash");
    line
}

/// The replan licence over WAL on and off and `seeds`.
fn replan_licence(
    workflows: &[WorkflowSpec],
    nodes: u32,
    plan_slots: u32,
    crashes: [SimTime; 2],
    seeds: u64,
) -> String {
    let mut got = String::new();
    for wal in [true, false] {
        for seed in 0..seeds {
            got += &replan_licence_cell(workflows, nodes, plan_slots, crashes, wal, seed);
        }
    }
    got
}

/// Digests of the small replan licence, recorded on the commit where the
/// WOHA checkpoint still carried every queued plan and the WAL logged each
/// idle heartbeat as its own record. The checkpoint may change shape;
/// these may not move.
const REPLAN_SMALL: &str = "\
WOHA-LPF wal=1 seed=0: report 63f99ac9726d9446 jsonl 75d5ac2221117eb2
WOHA-LPF wal=1 seed=1: report 8db25087b95d9dac jsonl a0f00463edf7348e
WOHA-LPF wal=0 seed=0: report 78892c7777c0956d jsonl f200a31ac38f5f34
WOHA-LPF wal=0 seed=1: report 983c2d9c61f8f921 jsonl 91c5f5d403b694ae
";

/// The failover licence for WOHA's checkpointed state where a replan has
/// replaced a plan: the idle-run chains' plans assume 24 slots on 9.
#[test]
fn replan_failover_licence() {
    let crashes = [SimTime::from_mins(4), SimTime::from_millis(431_300)];
    let got = replan_licence(&idle_run_workflows(3), 3, 24, crashes, 2);
    assert_eq!(got, REPLAN_SMALL);
}

/// Digests of the full replan licence (Fig 11's workflows, planned for 96
/// slots on 30), recorded alongside [`REPLAN_SMALL`].
const REPLAN_FULL: &str = "\
WOHA-LPF wal=1 seed=0: report 406d7f4e46bcdc78 jsonl bfac9ac155f596bc
WOHA-LPF wal=1 seed=1: report 26fe027892b438a8 jsonl 2ba4d52ca6c2aec4
WOHA-LPF wal=1 seed=2: report 6fd19baabc86d2c0 jsonl 6e20edc5608115c6
WOHA-LPF wal=1 seed=3: report 56dc6c3864bef90e jsonl 530b228e4facf924
WOHA-LPF wal=1 seed=4: report 7767e8abac660aaf jsonl 7ebea8b0f817d0dc
WOHA-LPF wal=1 seed=5: report 315551e5c4348830 jsonl de50463123f2a8bc
WOHA-LPF wal=0 seed=0: report 54d2f0c19bd4a1cf jsonl d1a2bf3762eaf91a
WOHA-LPF wal=0 seed=1: report 64f1dfe122232954 jsonl a7f0307934bd241e
WOHA-LPF wal=0 seed=2: report d3b7ee5896d13207 jsonl 2a6df1a72df24f12
WOHA-LPF wal=0 seed=3: report 6df2d2668da85a59 jsonl 3ae4839515cee09f
WOHA-LPF wal=0 seed=4: report 1630341ba7d08226 jsonl 7db6b9e85b03163e
WOHA-LPF wal=0 seed=5: report a54d43453297b983 jsonl 027df8855de6a198
";

/// The full replan licence: 12 runs, release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only; CI runs it")]
fn replan_failover_licence_full() {
    let crashes = [SimTime::from_mins(25), SimTime::from_millis(2_863_000)];
    let got = replan_licence(&fig11_workflows(), 10, 96, crashes, 6);
    assert_eq!(got, REPLAN_FULL);
}

/// A scheduler wrapper for `idle_runs_are_invisible`: counts the offers
/// the driver actually makes and holds it to the coalescing contract of
/// [`WorkflowScheduler::assign_task`].
struct OfferRecorder {
    inner: Box<dyn WorkflowScheduler>,
    /// `assign_task` and `assign_batch` calls received.
    offers: u64,
    /// `assign_batch` calls the scheduler answered with picks.
    batches: u64,
    /// The latest `now` offered, per slot kind.
    last_offer: [Option<SimTime>; 2],
    /// Per kind, the ascending instants of the heartbeats that advertised a
    /// free slot of it, read off the per-beat run's trace. Empty while
    /// that run is still being recorded, and in runs that rewind time (WAL
    /// replay), which the contract does not cover.
    beats: [Vec<SimTime>; 2],
}

impl OfferRecorder {
    fn new(inner: Box<dyn WorkflowScheduler>) -> Self {
        OfferRecorder {
            inner,
            offers: 0,
            batches: 0,
            last_offer: [None; 2],
            beats: [Vec::new(), Vec::new()],
        }
    }

    fn offered(&mut self, kind: SlotKind, now: SimTime) {
        self.offers += 1;
        let last = &mut self.last_offer[kind as usize];
        if !self.beats[kind as usize].is_empty() {
            assert!(*last <= Some(now), "{kind:?} offers step back to {now}");
        }
        *last = Some(now);
    }

    /// A hook at `now` reads state that every offer before `now` must have
    /// brought up to date: the offer of the last beat before it, or a
    /// later one, has been made.
    fn hook(&self, now: SimTime) {
        for (beats, last) in self.beats.iter().zip(self.last_offer) {
            let due = beats[..beats.partition_point(|&b| b < now)].last();
            assert!(
                due.copied() <= last,
                "hook at {now}: offer of {due:?} elided"
            );
        }
    }
}

impl SchedulerState for OfferRecorder {
    fn snapshot_state(&self) -> serde::Value {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, pool: &WorkflowPool, state: &serde::Value) {
        self.inner.restore_state(pool, state);
    }
}

impl WorkflowScheduler for OfferRecorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_workflow_submitted(&mut self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) {
        self.hook(now);
        self.inner.on_workflow_submitted(pool, wf, now);
    }

    fn on_job_activated(&mut self, pool: &WorkflowPool, wf: WorkflowId, job: JobId, now: SimTime) {
        self.hook(now);
        self.inner.on_job_activated(pool, wf, job, now);
    }

    fn on_job_completed(&mut self, pool: &WorkflowPool, wf: WorkflowId, job: JobId, now: SimTime) {
        self.hook(now);
        self.inner.on_job_completed(pool, wf, job, now);
    }

    fn on_workflow_completed(&mut self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) {
        self.hook(now);
        self.inner.on_workflow_completed(pool, wf, now);
    }

    fn on_task_assigned(
        &mut self,
        pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        now: SimTime,
    ) {
        self.hook(now);
        self.inner.on_task_assigned(pool, wf, job, kind, now);
    }

    fn on_task_failed(
        &mut self,
        pool: &WorkflowPool,
        wf: WorkflowId,
        job: JobId,
        kind: SlotKind,
        now: SimTime,
    ) {
        self.hook(now);
        self.inner.on_task_failed(pool, wf, job, kind, now);
    }

    fn on_node_lost(&mut self, pool: &WorkflowPool, node: NodeId, now: SimTime) {
        self.hook(now);
        self.inner.on_node_lost(pool, node, now);
    }

    fn assign_task(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        now: SimTime,
    ) -> Option<(WorkflowId, JobId)> {
        self.offered(kind, now);
        self.inner.assign_task(pool, kind, now)
    }

    fn assign_batch(
        &mut self,
        pool: &WorkflowPool,
        kind: SlotKind,
        now: SimTime,
        max_tasks: u32,
    ) -> Option<Vec<(WorkflowId, JobId)>> {
        let picks = self.inner.assign_batch(pool, kind, now, max_tasks);
        // A scheduler without a batch path answers `None` and is asked
        // again slot by slot: that is one offer, counted there.
        if picks.is_some() {
            self.batches += 1;
            self.offered(kind, now);
        }
        picks
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on);
    }

    fn drain_trace(&mut self, out: &mut Vec<woha::sim::SchedTrace>) {
        self.inner.drain_trace(out);
    }

    fn backend_label(&self) -> &'static str {
        self.inner.backend_label()
    }

    fn slack_fraction(&self, pool: &WorkflowPool, wf: WorkflowId, now: SimTime) -> f64 {
        self.hook(now);
        self.inner.slack_fraction(pool, wf, now)
    }

    fn plans_padded(&self) -> u64 {
        self.inner.plans_padded()
    }
}

/// A gate that turns every third workflow away.
#[derive(Default)]
struct EveryThirdRejected(u64);

impl AdmissionGate for EveryThirdRejected {
    fn admit(&mut self, _spec: &WorkflowSpec, _now: SimTime) -> Result<(), String> {
        self.0 += 1;
        if self.0.is_multiple_of(3) {
            Err("every_third".to_string())
        } else {
            Ok(())
        }
    }

    fn release(&mut self, _name: &str) {}
}

/// Ten small seeded chains released over ten minutes: on eight nodes the
/// cluster idles between them and inside each one's reduce tails.
fn idle_run_workflows(seed: u64) -> Vec<WorkflowSpec> {
    let mut rng = Rng::new(seed);
    let mut workflows: Vec<WorkflowSpec> = (0..10)
        .map(|i| {
            let mut b = WorkflowBuilder::new(format!("w{i}"));
            let mut prev = None;
            for j in 0..rng.range_u64(2, 5) {
                let job = b.add_job(JobSpec::new(
                    format!("j{j}"),
                    rng.range_u64(2, 12) as u32,
                    rng.range_u64(1, 4) as u32,
                    SimDuration::from_secs(rng.range_u64(5, 40)),
                    SimDuration::from_secs(rng.range_u64(5, 40)),
                ));
                if let Some(prev) = prev {
                    b.add_dependency(prev, job);
                }
                prev = Some(job);
            }
            // Whole seconds: some arrivals land on a heartbeat's instant.
            b.submit_at(SimTime::from_secs(rng.range_u64(0, 600)));
            b.relative_deadline(SimDuration::from_secs(rng.range_u64(240, 900)));
            b.build().unwrap()
        })
        .collect();
    workflows.sort_by_key(WorkflowSpec::submit_time);
    workflows
}

/// Tentpole differential: a run whose idle heartbeats are consumed by the
/// driver's idle runs is byte-identical, in its report and its trace, to
/// the same run on the per-beat path (speculation that never fires keeps
/// idle runs off), for every scheduler family and every driver feature an
/// idle beat passes through; and the schedulers are offered exactly what
/// the coalescing contract promises them.
#[test]
fn idle_runs_are_invisible() {
    struct Case {
        label: &'static str,
        cluster: ClusterConfig,
        config: SimConfig,
        replan: bool,
        gated: bool,
        /// The schedulers are asked slot by slot ([`PerSlot`]).
        per_slot: bool,
        /// Time never rewinds (no WAL replay), so the offer-order half of
        /// the contract is checked too.
        monotonic: bool,
        /// Fault-free and run to completion, so the events are heartbeats
        /// plus one per arrival, job activation and task completion.
        countable: bool,
        /// What the case is there for, counted from a report and the
        /// trace's replans: it must happen under some scheduler and seed.
        exercises: fn(&SimReport, u64) -> u64,
    }
    let base = ClusterConfig::uniform(8, 2, 1);
    let plain = |label, config: SimConfig| Case {
        label,
        cluster: base.clone(),
        config,
        replan: false,
        gated: false,
        per_slot: false,
        monotonic: true,
        countable: true,
        exercises: |r, _| r.events_processed,
    };
    let faulty = |label, faults: FaultConfig| Case {
        cluster: base.clone().with_racks(2).with_faults(faults),
        countable: false,
        exercises: |r, _| r.node_failures,
        ..plain(label, SimConfig::default())
    };
    let master_faulty = |label, wal| Case {
        monotonic: false,
        exercises: |r, _| r.recovery.as_ref().map_or(0, |m| m.master_crashes),
        ..faulty(
            label,
            FaultConfig {
                master: MasterFaultConfig {
                    mtbf: Some(SimDuration::from_mins(4)),
                    mttr: SimDuration::from_secs(20),
                    checkpoint_interval: SimDuration::from_mins(1),
                    wal,
                    ..MasterFaultConfig::default()
                },
                ..FaultConfig::default()
            },
        )
    };
    let cases = [
        plain("default", SimConfig::default()),
        Case {
            per_slot: true,
            ..plain("per-slot", SimConfig::default())
        },
        Case {
            exercises: |r, _| r.delay_skips,
            ..plain(
                "delay scheduling",
                SimConfig {
                    locality: Some(LocalityConfig {
                        max_delay_skips: 3,
                        ..LocalityConfig::default()
                    }),
                    ..SimConfig::default()
                },
            )
        },
        faulty(
            "node faults",
            FaultConfig::with_mtbf(SimDuration::from_mins(6), SimDuration::from_secs(40)),
        ),
        faulty(
            "rack faults",
            FaultConfig {
                rack_mtbf: Some(SimDuration::from_mins(5)),
                rack_mttr: Some(SimDuration::from_mins(1)),
                ..FaultConfig::default()
            },
        ),
        master_faulty("master faults, WAL", true),
        master_faulty("master faults, no WAL", false),
        Case {
            replan: true,
            // Plans drawn up for 24 slots fall behind on 9.
            cluster: ClusterConfig::uniform(3, 2, 1),
            exercises: |_, replans| replans,
            ..plain("replanning", SimConfig::default())
        },
        Case {
            gated: true,
            exercises: |r, _| r.admission.as_ref().map_or(0, |a| a.workflows_rejected),
            ..plain("rejecting gate", SimConfig::default())
        },
        Case {
            countable: false,
            ..plain(
                "cut mid-idle",
                SimConfig {
                    // On the 125 ms heartbeat grid: that beat still fires.
                    max_sim_time: SimTime::from_millis(200_375),
                    ..SimConfig::default()
                },
            )
        },
    ];
    let schedulers = |case: &Case| -> Vec<Box<dyn WorkflowScheduler>> {
        let mut woha = WohaConfig::new(PriorityPolicy::Lpf, 24);
        woha.replan = case.replan;
        let all: Vec<Box<dyn WorkflowScheduler>> = vec![
            Box::new(WohaScheduler::new(woha)),
            Box::new(FifoScheduler),
            Box::new(FairScheduler),
            Box::new(EdfScheduler),
        ];
        if !case.per_slot {
            return all;
        }
        all.into_iter()
            .map(|s| Box::new(PerSlot(s)) as Box<dyn WorkflowScheduler>)
            .collect()
    };
    let strip = |mut r: SimReport| {
        r.scheduler_nanos = 0;
        serde_json::to_string(&r).unwrap()
    };

    for case in &cases {
        let mut exercised = 0;
        for seed in [3u64, 11, 20140614] {
            let workflows = idle_run_workflows(seed);
            let config = SimConfig {
                seed,
                ..case.config.clone()
            };
            let per_beat_config = SimConfig {
                speculation: Some(inert_speculation()),
                ..config.clone()
            };
            let pairs = schedulers(case).into_iter().zip(schedulers(case));
            for (per_beat, coalesced) in pairs {
                let at = format!("{} / {} / seed {seed}", case.label, per_beat.name());
                let run = |recorder: &mut OfferRecorder, config: &SimConfig| {
                    let mut gate = EveryThirdRejected::default();
                    let mut sink = MemorySink::new();
                    let (report, _) = try_run_simulation_streamed_observed(
                        &mut VecSource::new(workflows.clone()),
                        recorder,
                        &case.cluster,
                        config,
                        case.gated.then_some(&mut gate as &mut dyn AdmissionGate),
                        Some(&mut sink),
                    )
                    .unwrap();
                    (report, sink.into_records())
                };

                let mut slow = OfferRecorder::new(per_beat);
                let (reference, reference_trace) = run(&mut slow, &per_beat_config);
                let (mut heartbeats, mut replans) = (0u64, 0u64);
                let mut fast = OfferRecorder::new(coalesced);
                for record in &reference_trace {
                    replans += u64::from(matches!(record.event, TraceEvent::Replan { .. }));
                    if let TraceEvent::Heartbeat {
                        free_maps,
                        free_reduces,
                        ..
                    } = record.event
                    {
                        heartbeats += 1;
                        for (beats, free) in fast.beats.iter_mut().zip([free_maps, free_reduces]) {
                            if free > 0 && case.monotonic {
                                beats.push(record.at);
                            }
                        }
                    }
                }
                let (report, trace) = run(&mut fast, &config);

                let uncut = config.max_sim_time == SimConfig::default().max_sim_time;
                assert_eq!(report.completed, uncut, "{at}");
                if case.countable {
                    let admitted =
                        |w: &&WorkflowSpec| report.outcomes.iter().any(|o| o.name == w.name());
                    let jobs: usize = workflows
                        .iter()
                        .filter(admitted)
                        .map(WorkflowSpec::job_count)
                        .sum();
                    let other = report.outcomes.len() as u64 + jobs as u64 + report.tasks_executed;
                    assert_eq!(heartbeats, report.events_processed - other, "{at}");
                }
                assert!(
                    fast.offers < slow.offers / 2,
                    "{at}: {} offers against {}",
                    fast.offers,
                    slow.offers
                );
                if case.per_slot {
                    assert_eq!(fast.batches + slow.batches, 0, "{at}: batched");
                }
                exercised += (case.exercises)(&report, replans);
                assert_eq!(strip(report), strip(reference), "{at}");
                assert!(trace == reference_trace, "{at}: the traces differ");
            }
        }
        assert!(exercised > 0, "{} exercised nothing", case.label);
    }
}
