//! Cross-crate property-based invariants: the scheduling plan generator,
//! the simulator, and the schedulers agree on the laws listed in
//! DESIGN.md §6.

use proptest::collection::vec;
use proptest::prelude::*;
use woha::prelude::*;

/// An arbitrary small workflow: forward-edge layered DAG, 2–8 jobs.
fn arb_workflow() -> impl Strategy<Value = WorkflowSpec> {
    (
        2usize..8,
        vec((0usize..8, 0usize..8), 0..12),
        vec((1u32..6, 0u32..3, 5u64..60, 5u64..120), 8),
        60u64..240,
    )
        .prop_map(|(n, edges, jobs, deadline_mins)| {
            let mut b = WorkflowBuilder::new("prop");
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    let (m, r, md, rd) = jobs[i];
                    b.add_job(JobSpec::new(
                        format!("j{i}"),
                        m,
                        r,
                        SimDuration::from_secs(md),
                        SimDuration::from_secs(rd),
                    ))
                })
                .collect();
            for (a, z) in edges {
                let (a, z) = (a % n, z % n);
                if a < z {
                    b.add_dependency(ids[a], ids[z]);
                }
            }
            b.relative_deadline(SimDuration::from_mins(deadline_mins));
            b.build().expect("forward edges are acyclic")
        })
}

/// The `CapMode::MinFeasible` search as it stood before it answered probes
/// without simulating: a binary search that builds a whole plan per probe.
fn reference_min_feasible(
    w: &WorkflowSpec,
    pri: &JobPriorities,
    total_slots: u32,
    budget: SimDuration,
) -> SchedulingPlan {
    if w.deadline() == SimTime::MAX && budget == SimDuration::MAX {
        return generate_reqs(w, pri, total_slots);
    }
    let full = generate_reqs(w, pri, total_slots);
    if full.span() > budget {
        return full;
    }
    let mut lo = 1u32;
    let mut hi = total_slots;
    let mut best = full;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let candidate = generate_reqs(w, pri, mid);
        if candidate.span() <= budget {
            best = candidate;
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    best
}

/// Cases of `min_feasible_matches_reference_search`; CI raises it.
fn plangen_cases() -> u32 {
    std::env::var("PLANGEN_DIFFERENTIAL_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(plangen_cases()))]

    /// The cap search returns the reference search's whole plan — cap,
    /// requirements and span — under the relative deadline, under budgets
    /// on the feasibility boundary of a random cap (`span(c)`, ± 1 ms), and
    /// under a padded budget.
    #[test]
    fn min_feasible_matches_reference_search(
        w in arb_workflow(),
        total in 1u32..64,
        boundary_cap in 1u32..64,
        pad_percent in 0u64..50,
    ) {
        let one = SimDuration::from_millis(1);
        for policy in [PriorityPolicy::Hlf, PriorityPolicy::Lpf, PriorityPolicy::Mpf] {
            let pri = JobPriorities::compute(&w, policy);
            prop_assert_eq!(
                generate_plan(&w, &pri, total, CapMode::MinFeasible),
                reference_min_feasible(&w, &pri, total, w.relative_deadline())
            );
            let boundary = generate_reqs(&w, &pri, boundary_cap.min(total)).span();
            let padded = padded_budget(w.relative_deadline(), pad_percent as f64 / 100.0);
            for budget in [boundary, boundary.saturating_sub(one), boundary.saturating_add(one), padded] {
                prop_assert_eq!(
                    generate_plan_with_budget(&w, &pri, total, CapMode::MinFeasible, budget),
                    reference_min_feasible(&w, &pri, total, budget),
                    "{:?} budget {:?}", policy, budget
                );
            }
        }
    }
}

/// Graham's anomaly: three independent jobs whose HLF list schedule spans
/// 13 s on 3 slots but 14 s on 4.
fn graham_anomaly_workflow() -> WorkflowSpec {
    let mut b = WorkflowBuilder::new("graham");
    for (name, maps, reduces, map_s, reduce_s) in
        [("a", 3, 1, 3, 8), ("b", 1, 1, 2, 3), ("c", 3, 0, 4, 9)]
    {
        b.add_job(JobSpec::new(
            name,
            maps,
            reduces,
            SimDuration::from_secs(map_s),
            SimDuration::from_secs(reduce_s),
        ));
    }
    b.relative_deadline(SimDuration::from_mins(60));
    b.build().expect("independent jobs are acyclic")
}

#[test]
fn graham_anomaly_keeps_reference_cap() {
    let w = graham_anomaly_workflow();
    let pri = JobPriorities::compute(&w, PriorityPolicy::Hlf);
    let spans: Vec<u64> = (1..=8)
        .map(|cap| generate_reqs(&w, &pri, cap).span().as_millis() / 1000)
        .collect();
    assert_eq!(spans, [34, 17, 13, 14, 11, 11, 11, 11]);
    // With a 13 s budget the first probe lands on cap 4, the anomaly, so
    // the search settles on 5 although 3 is feasible — as the reference
    // search does.
    let budget = SimDuration::from_secs(13);
    let plan = generate_plan_with_budget(&w, &pri, 8, CapMode::MinFeasible, budget);
    assert_eq!(plan, reference_min_feasible(&w, &pri, 8, budget));
    assert_eq!(plan.resource_cap(), 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plan invariants: total requirement equals the task count, the
    /// requirement curve is monotone, and span shrinks (weakly) as the cap
    /// grows.
    #[test]
    fn plan_invariants(w in arb_workflow(), cap in 1u32..32) {
        for policy in [PriorityPolicy::Hlf, PriorityPolicy::Lpf, PriorityPolicy::Mpf] {
            let pri = JobPriorities::compute(&w, policy);
            let plan = generate_reqs(&w, &pri, cap);
            prop_assert_eq!(plan.total_tasks(), w.total_tasks());
            prop_assert_eq!(
                plan.requirements().last().map(|r| r.cumulative),
                Some(w.total_tasks())
            );
            // Monotone non-increasing in ttd.
            let mut last = u64::MAX;
            for probe in 0..20 {
                let ttd = SimDuration::from_millis(
                    plan.span().as_millis() * probe / 19,
                );
                let req = plan.required_at(ttd);
                prop_assert!(req <= last);
                last = req;
            }
            // The plan can never finish faster than the critical path or
            // than total work on `cap` slots.
            prop_assert!(plan.span() >= w.critical_path());
            let work_bound = w.total_work().as_millis() / u64::from(cap);
            prop_assert!(plan.span().as_millis() >= work_bound);
            // More slots can occasionally lengthen a list schedule
            // (Graham's timing anomaly), but never by 2x or more.
            let bigger = generate_reqs(&w, &pri, cap + 4);
            prop_assert!(bigger.span().as_millis() < plan.span().as_millis() * 2);
        }
    }

    /// The binary-searched cap yields a feasible plan whenever the full
    /// cluster is feasible (minimality is only up to Graham's timing
    /// anomaly, which the binary search shares with the paper).
    #[test]
    fn min_feasible_cap_is_feasible(w in arb_workflow()) {
        let pri = JobPriorities::compute(&w, PriorityPolicy::Hlf);
        let total = 32;
        let budget = w.relative_deadline();
        let plan = generate_plan(&w, &pri, total, CapMode::MinFeasible);
        prop_assert!(plan.resource_cap() >= 1 && plan.resource_cap() <= total);
        let full = generate_reqs(&w, &pri, total);
        if full.span() <= budget {
            prop_assert!(plan.span() <= budget);
        } else {
            prop_assert_eq!(plan.resource_cap(), total);
        }
    }

    /// Simulator invariants across schedulers: every run completes, no
    /// invalid assignments, exactly the right number of tasks execute,
    /// every finish time is after the submission, and reducers never beat
    /// the workflow's first possible map wave.
    #[test]
    fn simulation_invariants(
        workflows in vec(arb_workflow(), 1..4),
        seed in 0u64..4,
    ) {
        let cluster = ClusterConfig::uniform(3, 2, 1);
        let config = SimConfig {
            duration_jitter: 0.1,
            seed,
            ..SimConfig::default()
        };
        let expected: u64 = workflows.iter().map(|w| w.total_tasks()).sum();
        let mut schedulers: Vec<Box<dyn WorkflowScheduler>> = vec![
            Box::new(FifoScheduler::new()),
            Box::new(FairScheduler::new()),
            Box::new(EdfScheduler::new()),
            Box::new(WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 9))),
        ];
        for scheduler in &mut schedulers {
            let report = run_simulation(&workflows, scheduler.as_mut(), &cluster, &config);
            prop_assert!(report.completed, "{}", report.scheduler);
            prop_assert_eq!(report.invalid_assignments, 0);
            prop_assert_eq!(report.tasks_executed, expected);
            for (o, w) in report.outcomes.iter().zip(&workflows) {
                let finish = o.finished.expect("completed run");
                prop_assert!(finish > w.submit_time());
                // No workflow can beat its own critical path (jitter can
                // shrink durations by at most 10%).
                let floor = w.critical_path().mul_f64(0.85);
                prop_assert!(
                    finish.saturating_since(w.submit_time()) >= floor,
                    "{} finished impossibly fast", o.name
                );
            }
            // Utilization is a valid fraction.
            let u = report.overall_utilization();
            prop_assert!((0.0..=1.0).contains(&u));
        }
    }

    /// Fault-injection invariants: under stochastic node crashes with
    /// recovery (no blacklisting), every run still terminates with the
    /// full task count plus exactly the requeued and re-executed work, the
    /// counters balance, and the same seed reproduces the same outcomes.
    #[test]
    fn fault_injection_invariants(
        workflows in vec(arb_workflow(), 1..3),
        seed in 0u64..4,
    ) {
        let cluster = ClusterConfig::uniform(4, 2, 1).with_faults(FaultConfig {
            mtbf: Some(SimDuration::from_mins(20)),
            mttr: SimDuration::from_mins(1),
            detect_missed_heartbeats: 2,
            blacklist_after: 0,
            ..FaultConfig::default()
        });
        let config = SimConfig { seed, ..SimConfig::default() };
        let expected: u64 = workflows.iter().map(|w| w.total_tasks()).sum();
        let mut schedulers: Vec<Box<dyn WorkflowScheduler>> = vec![
            Box::new(FifoScheduler::new()),
            Box::new(EdfScheduler::new()),
            Box::new(WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 12))),
        ];
        for scheduler in &mut schedulers {
            let report = run_simulation(&workflows, scheduler.as_mut(), &cluster, &config);
            prop_assert!(report.completed, "{}", report.scheduler);
            prop_assert_eq!(report.invalid_assignments, 0);
            prop_assert_eq!(
                report.tasks_executed,
                expected + report.tasks_requeued + report.map_outputs_lost,
                "{}", report.scheduler
            );
            // Without blacklisting every detected crash eventually heals.
            prop_assert!(report.node_recoveries <= report.node_failures);
            prop_assert_eq!(report.nodes_blacklisted, 0);
            prop_assert!((0.0..=1.0).contains(&report.overall_utilization()));
        }
        // Determinism: repeating one scheduler reproduces the outcomes.
        let mut again = FifoScheduler::new();
        let second = run_simulation(&workflows, &mut again, &cluster, &config);
        let mut first = FifoScheduler::new();
        let first = run_simulation(&workflows, &mut first, &cluster, &config);
        prop_assert_eq!(first.outcomes, second.outcomes);
        prop_assert_eq!(first.node_failures, second.node_failures);
    }

    /// Failure prediction is inert without faults. Plan-level: a padding
    /// config derived from an unbounded MTBF has rework fraction exactly
    /// zero and reproduces the unpadded plan bit for bit. Sim-level: on a
    /// fault-free cluster the propensity scores never leave zero, no
    /// risk-aware action fires, and the workflow outcomes are the ones the
    /// prediction-off run produces.
    #[test]
    fn prediction_is_inert_without_faults(
        workflows in vec(arb_workflow(), 1..3),
        seed in 0u64..4,
        cap in 4u32..24,
    ) {
        for w in &workflows {
            let pad = PadConfig::new(SimDuration::MAX);
            let fraction = rework_fraction(w, &pad);
            prop_assert_eq!(fraction, 0.0);
            let budget = w.relative_deadline();
            prop_assert_eq!(padded_budget(budget, fraction), budget);
            for policy in [PriorityPolicy::Hlf, PriorityPolicy::Lpf, PriorityPolicy::Mpf] {
                let pri = JobPriorities::compute(w, policy);
                let plain = generate_plan(w, &pri, cap, CapMode::MinFeasible);
                let padded = generate_plan_with_budget(
                    w,
                    &pri,
                    cap,
                    CapMode::MinFeasible,
                    padded_budget(budget, fraction),
                );
                prop_assert_eq!(plain, padded);
            }
        }

        let cluster = ClusterConfig::uniform(4, 2, 1);
        let run = |prediction: Option<PredictionConfig>, padding: Option<PadConfig>| {
            let mut s = WohaScheduler::new(WohaConfig {
                padding,
                ..WohaConfig::new(PriorityPolicy::Lpf, 12)
            });
            let config = SimConfig { seed, prediction, ..SimConfig::default() };
            run_simulation(&workflows, &mut s, &cluster, &config)
        };
        let off = run(None, None);
        let on = run(
            Some(PredictionConfig {
                risk_placement: true,
                ..PredictionConfig::default()
            }),
            Some(PadConfig::new(SimDuration::MAX)),
        );
        prop_assert!(off.prediction.is_none());
        let p = on.prediction.as_ref().expect("prediction on reports");
        prop_assert!(p.node_propensity.iter().all(|&s| s == 0.0));
        prop_assert_eq!(p.plans_padded, 0);
        prop_assert_eq!(p.risk_averted_placements, 0);
        prop_assert_eq!(p.preemptive_speculations, 0);
        prop_assert_eq!(p.adaptive_blacklists, 0);
        prop_assert_eq!(&off.outcomes, &on.outcomes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Data-plane invariant (DESIGN.md §16): every replica set the plane
    /// materializes is well-formed — exactly `min(replicas, nodes)`
    /// *distinct* nodes, spanning at least two racks whenever the cluster
    /// has two and more than one replica is asked for (the HDFS 3-way
    /// placement shape), so a whole-rack outage never destroys every copy
    /// of a block.
    #[test]
    fn replica_sets_are_well_formed(
        seed in 0u64..1000,
        nodes in 2u32..40,
        rack_code in 1u32..8,
        replicas in 1u32..6,
        wf in 0u64..100,
        task in 0u32..64,
    ) {
        let job = task % 8;
        let racks = rack_code.min(nodes);
        let cluster = ClusterConfig::uniform(nodes, 2, 1).with_racks(racks);
        let plane = DataPlane::new(seed, &cluster, Some(LocalityConfig {
            replicas,
            ..LocalityConfig::default()
        }));
        let set = plane.replica_set(WorkflowId::new(wf), JobId::new(job), task);
        let want = replicas.min(nodes) as usize;
        prop_assert_eq!(set.len(), want);
        let mut dedup = set.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), want, "replica set holds duplicate nodes");
        for &n in &set {
            prop_assert!((n.as_u32()) < nodes, "replica off the cluster");
        }
        let spanned: std::collections::BTreeSet<u32> =
            set.iter().map(|&n| plane.rack_of(n)).collect();
        if racks >= 2 && want >= 2 {
            prop_assert!(
                spanned.len() >= 2,
                "replica set must span two racks, got {:?}",
                spanned
            );
        }
    }
}

/// Deadline blindness (DESIGN.md §6): FIFO and Fair never read a deadline,
/// so moving every deadline — later by an hour, or earlier by ten minutes
/// (kept at least a second after submit) — leaves every completion time
/// and the event count unchanged, with and without node faults.
#[test]
fn fifo_and_fair_are_deadline_blind() {
    use woha_bench::scenarios::{
        demo_cluster, fig11_workflows, fig12_workflows, yahoo_workload, YahooScenario,
    };
    let workloads = [
        ("fig11", fig11_workflows()),
        ("fig12x3", fig12_workflows(3)),
        ("yahoo", yahoo_workload(&YahooScenario::default())),
    ];
    let faulty = demo_cluster().with_faults(FaultConfig::with_mtbf(
        SimDuration::from_mins(20),
        SimDuration::from_mins(3),
    ));
    let shifted = |flows: &[WorkflowSpec], shift: &dyn Fn(&WorkflowSpec) -> SimTime| {
        flows
            .iter()
            .map(|w| w.reissued(w.name(), w.submit_time(), shift(w)))
            .collect::<Vec<_>>()
    };
    for (label, flows) in &workloads {
        let later = shifted(flows, &|w| w.deadline() + SimDuration::from_mins(60));
        let earlier = shifted(flows, &|w| {
            let floor = w.submit_time() + SimDuration::from_secs(1);
            w.deadline()
                .saturating_sub(SimDuration::from_mins(10))
                .max(floor)
        });
        for cluster in [demo_cluster(), faulty.clone()] {
            for fair in [false, true] {
                let run = |flows: &[WorkflowSpec]| {
                    let mut s: Box<dyn WorkflowScheduler> = if fair {
                        Box::new(FairScheduler::new())
                    } else {
                        Box::new(FifoScheduler::new())
                    };
                    let r = run_simulation(flows, &mut *s, &cluster, &SimConfig::default());
                    let finished: Vec<_> = r.outcomes.iter().map(|o| o.finished).collect();
                    (finished, r.events_processed)
                };
                let base = run(flows);
                let cell = format!(
                    "{label} fair={fair} faults={}",
                    cluster.faults().mtbf.is_some()
                );
                assert!(base.0.iter().all(Option::is_some), "{cell}: completes");
                assert_eq!(run(&later), base, "{cell}: deadlines +1 h");
                assert_eq!(run(&earlier), base, "{cell}: deadlines -10 min");
            }
        }
    }
}

/// Time scaling: multiplying every duration, submit time and deadline by
/// `k`, with the heartbeat and the submit latency, multiplies every
/// completion time by `k`, under all six schedulers. The 3.2 s heartbeat
/// over 32 nodes staggers node starts by an exact 100 ms.
///
/// Fig 11 also runs under scripted faults, every instant and duration
/// scaled by `k`: node outages alone, and with two master crashes
/// recovered through the WAL and without it. Stochastic MTBF/MTTR faults
/// are the one exception to the relation: the fault stream truncates each
/// exponential draw to whole milliseconds, and `k·⌊x⌋ ≠ ⌊k·x⌋`, so a scaled
/// fault instant may sit up to `k − 1` ms off `k ×` the base's. A finish
/// time then drifts by a few milliseconds, or by far more once the shift
/// reorders a fault against another event.
#[test]
fn completion_times_scale_with_time() {
    use woha_bench::runner::run_one;
    use woha_bench::scenarios::{fig11_workflows, fig12_workflows};
    use woha_bench::SchedulerKind;
    let at = |t: SimTime, k: u64| SimTime::from_millis(t.as_millis() * k);
    let run = |kind: SchedulerKind, flows: &[WorkflowSpec], faults: &FaultConfig, k: u64| {
        let flows: Vec<_> = flows
            .iter()
            .map(|w| {
                let mut config = WorkflowConfig::from(w);
                for job in &mut config.jobs {
                    job.map_duration = job.map_duration * k;
                    job.reduce_duration = job.reduce_duration * k;
                }
                config.relative_deadline = config.relative_deadline.map(|d| d * k);
                config
                    .to_spec(at(w.submit_time(), k))
                    .expect("scaled workflow is valid")
            })
            .collect();
        let faults = FaultConfig {
            mtbf: faults.mtbf.map(|d| d * k),
            mttr: faults.mttr * k,
            rack_mtbf: faults.rack_mtbf.map(|d| d * k),
            rack_mttr: faults.rack_mttr.map(|d| d * k),
            scripted: faults
                .scripted
                .iter()
                .map(|f| ScriptedFault {
                    nodes: f.nodes.clone(),
                    down_at: at(f.down_at, k),
                    up_at: f.up_at.map(|t| at(t, k)),
                })
                .collect(),
            master: MasterFaultConfig {
                mtbf: faults.master.mtbf.map(|d| d * k),
                mttr: faults.master.mttr * k,
                checkpoint_interval: faults.master.checkpoint_interval * k,
                scripted: faults.master.scripted.iter().map(|&t| at(t, k)).collect(),
                ..faults.master.clone()
            },
            ..faults.clone()
        };
        let heartbeat = SimDuration::from_millis(3_200) * k;
        let cluster = ClusterConfig::uniform(32, 2, 1)
            .with_heartbeat(heartbeat)
            .with_faults(faults);
        let config = SimConfig {
            submit_latency: SimDuration::from_secs(1) * k,
            ..SimConfig::default()
        };
        run_one(kind, &flows, &cluster, &config)
    };
    let finished = |report: &SimReport| {
        let ms = report
            .outcomes
            .iter()
            .map(|o| o.finished.map(SimTime::as_millis));
        ms.collect::<Vec<_>>()
    };
    let secs = SimTime::from_secs;
    let node_outages = FaultConfig::scripted(vec![
        ScriptedFault::one(NodeId::new(3), secs(200), Some(secs(500))),
        ScriptedFault::one(NodeId::new(7), secs(900), Some(secs(1300))),
        ScriptedFault::group(
            vec![NodeId::new(10), NodeId::new(11)],
            secs(1500),
            Some(secs(1700)),
        ),
    ]);
    let master_crashes = |wal| FaultConfig {
        master: MasterFaultConfig {
            mttr: SimDuration::from_secs(40),
            checkpoint_interval: SimDuration::from_secs(300),
            wal,
            scripted: vec![secs(650), secs(1450)],
            ..MasterFaultConfig::default()
        },
        ..node_outages.clone()
    };
    let (fig11, fig12x3) = (fig11_workflows(), fig12_workflows(3));
    let cells = [
        ("fig11", &fig11, FaultConfig::default()),
        ("fig12x3", &fig12x3, FaultConfig::default()),
        ("fig11 node outages", &fig11, node_outages.clone()),
        ("fig11 + master, WAL", &fig11, master_crashes(true)),
        ("fig11 + master, no WAL", &fig11, master_crashes(false)),
    ];
    for (label, flows, faults) in &cells {
        for kind in SchedulerKind::ALL {
            let base = run(kind, flows, faults, 1);
            let base_finished = finished(&base);
            assert!(
                base_finished.iter().all(Option::is_some),
                "{label} {kind}: completes"
            );
            let node_failures = if faults.scripted.is_empty() { 0 } else { 4 };
            assert_eq!(base.node_failures, node_failures, "{label} {kind}");
            let master_crashes = base.recovery.as_ref().map_or(0, |r| r.master_crashes);
            let want_crashes = faults.master.scripted.len() as u64;
            assert_eq!(master_crashes, want_crashes, "{label} {kind}");
            for k in [2, 3, 7] {
                let want: Vec<_> = base_finished.iter().map(|t| t.map(|ms| ms * k)).collect();
                let scaled = run(kind, flows, faults, k);
                assert_eq!(finished(&scaled), want, "{label} {kind}: x{k}");
            }
        }
    }
}
