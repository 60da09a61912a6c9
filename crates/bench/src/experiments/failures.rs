//! Node-failure resilience study: the deadline-miss ratio and tardiness of
//! the schedulers as the per-node MTBF shrinks (no counterpart figure in
//! the paper, whose testbed never loses nodes; this probes how WOHA's
//! progress-based priorities and the baselines degrade when the simulator's
//! fault injector takes nodes away mid-flight).
//!
//! Two sweeps share the workload and fault schedules: the *reactive* sweep
//! compares the four schedulers with failure prediction off, and the
//! *proactive* sweep holds WOHA-LPF fixed and turns on the prediction
//! ladder — plan padding, then padding plus risk-aware placement — to
//! measure what anticipating failures buys over merely reacting to them.

use crate::schedulers::SchedulerKind;
use crate::sweep::{CellKey, SimCell, SimSweep};
use crate::table::{fmt_f64, ordered_unique, Table};
use serde::{Deserialize, Serialize};
use std::fmt;
use woha_core::{PadConfig, PriorityPolicy, WohaConfig, WohaScheduler};
use woha_model::{SimDuration, SlotKind, WorkflowSpec};
use woha_sim::{
    ClusterConfig, FaultConfig, PredictionConfig, SimConfig, SimReport, WorkflowScheduler,
};

/// The four schedulers the study compares (one WOHA variant suffices; the
/// three policies share the fault-handling path).
pub const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Edf,
    SchedulerKind::Fifo,
    SchedulerKind::Fair,
    SchedulerKind::WohaLpf,
];

/// One MTBF point of the sweep: a label and the per-node mean time between
/// failures (`None` = fault-free baseline).
pub type MtbfPoint = (String, Option<SimDuration>);

/// The default sweep: fault-free down to a crash every 2 h per node.
pub fn default_mtbf_points() -> Vec<MtbfPoint> {
    let mut points = vec![("none".to_string(), None)];
    for hours in [16u64, 8, 4, 2] {
        points.push((
            format!("{hours}h"),
            Some(SimDuration::from_mins(hours * 60)),
        ));
    }
    points
}

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct FailureCell {
    /// MTBF label ("none", "8h", ...).
    pub mtbf: String,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Full report.
    pub report: SimReport,
}

/// The whole sweep: every (MTBF, scheduler) pair.
#[derive(Debug, Clone)]
pub struct FailureSweep {
    /// All cells, grouped by MTBF in sweep order.
    pub cells: Vec<FailureCell>,
    /// Number of workflows in the workload.
    pub workflow_count: usize,
}

/// Runs the sweep: the same workload and cluster under every
/// `(MTBF point, scheduler)` pair, fanned over up to `jobs` worker
/// threads (the whole grid is one cell pool, so a slow faulty point never
/// idles the workers; `jobs = 1` is the serial path). Nodes repair after
/// an exponential downtime of mean `mttr`; `seed` drives jitter and the
/// fault streams, so each point is reproducible, all schedulers at one
/// point face the same crash schedule, and results are identical for any
/// `jobs`.
pub fn run_failure_sweep(
    workflows: &[WorkflowSpec],
    cluster: &ClusterConfig,
    points: &[MtbfPoint],
    mttr: SimDuration,
    config: &SimConfig,
    jobs: usize,
) -> FailureSweep {
    let mut sweep = SimSweep::new();
    for (label, mtbf) in points {
        let faulty = match mtbf {
            Some(mtbf) => cluster
                .clone()
                .with_faults(FaultConfig::with_mtbf(*mtbf, mttr)),
            None => cluster.clone(),
        };
        sweep.push_kinds(
            &CellKey::new().with("mtbf", label),
            &SCHEDULERS,
            workflows,
            &faulty,
            config,
        );
    }
    let reports = sweep.run(jobs).into_reports();
    let coords = points
        .iter()
        .flat_map(|(label, _)| SCHEDULERS.iter().map(move |&kind| (label.clone(), kind)));
    FailureSweep {
        cells: coords
            .zip(reports)
            .map(|((mtbf, scheduler), report)| FailureCell {
                mtbf,
                scheduler,
                report,
            })
            .collect(),
        workflow_count: workflows.len(),
    }
}

impl FailureSweep {
    /// The report of one cell.
    pub fn report(&self, mtbf: &str, scheduler: SchedulerKind) -> &SimReport {
        &self
            .cells
            .iter()
            .find(|c| c.mtbf == mtbf && c.scheduler == scheduler)
            .expect("cell exists")
            .report
    }

    fn metric_table(&self, metric: impl Fn(&SimReport) -> String) -> Table {
        let points = ordered_unique(self.cells.iter().map(|c| c.mtbf.clone()));
        let mut columns = vec!["scheduler".to_string()];
        columns.extend(points.iter().map(|p| format!("mtbf {p}")));
        let mut t = Table::new(columns);
        for kind in SCHEDULERS {
            let mut row = vec![kind.to_string()];
            for point in &points {
                row.push(metric(self.report(point, kind)));
            }
            t.row(row);
        }
        t
    }

    /// Deadline-miss ratio per (scheduler, MTBF).
    pub fn miss_ratio_table(&self) -> Table {
        self.metric_table(|r| fmt_f64(r.deadline_misses() as f64 / r.outcomes.len().max(1) as f64))
    }

    /// Total tardiness (s) per (scheduler, MTBF).
    pub fn tardiness_table(&self) -> Table {
        self.metric_table(|r| format!("{:.0}", r.total_tardiness().as_secs_f64()))
    }

    /// Fault-subsystem counters per (scheduler, MTBF): crashes seen before
    /// the run ended, tasks requeued, map outputs lost, and work thrown
    /// away, as `failures/requeued/maps-lost/lost-slot-s`.
    pub fn disruption_table(&self) -> Table {
        self.metric_table(|r| {
            format!(
                "{}/{}/{}/{:.0}",
                r.node_failures,
                r.tasks_requeued,
                r.map_outputs_lost,
                r.work_lost_slot_ms as f64 / 1000.0
            )
        })
    }
}

/// One rung of the proactive-response ladder the second sweep climbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictionMode {
    /// Failure prediction off — the reactive baseline (identical to the
    /// reactive sweep's WOHA-LPF cell).
    Off,
    /// Propensity tracking plus proactive plan padding (`--pad-plans`).
    PadOnly,
    /// Padding plus risk-aware placement and preemptive speculation
    /// (`--risk-placement`).
    PadRisk,
}

impl PredictionMode {
    /// All three rungs, reactive first.
    pub const ALL: [PredictionMode; 3] = [
        PredictionMode::Off,
        PredictionMode::PadOnly,
        PredictionMode::PadRisk,
    ];

    /// Short label used in tables and `BENCH_failure.json`.
    pub fn label(self) -> &'static str {
        match self {
            PredictionMode::Off => "reactive",
            PredictionMode::PadOnly => "pad",
            PredictionMode::PadRisk => "pad+risk",
        }
    }
}

impl fmt::Display for PredictionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// WOHA-LPF under `mode`: the same construction as
/// [`SchedulerKind::WohaLpf`] except for the padding knob, so mode
/// [`PredictionMode::Off`] reproduces the reactive sweep's WOHA-LPF cell
/// exactly.
fn build_proactive(
    total_slots: u32,
    mtbf: Option<SimDuration>,
    mode: PredictionMode,
) -> WohaScheduler {
    let padding = match mode {
        PredictionMode::Off => None,
        _ => mtbf.map(PadConfig::new),
    };
    WohaScheduler::new(WohaConfig {
        padding,
        ..WohaConfig::new(PriorityPolicy::Lpf, total_slots)
    })
}

/// One cell of the proactive sweep.
#[derive(Debug, Clone)]
pub struct ProactiveCell {
    /// MTBF label ("none", "8h", ...).
    pub mtbf: String,
    /// Prediction mode.
    pub mode: PredictionMode,
    /// Full report.
    pub report: SimReport,
}

/// The proactive sweep: WOHA-LPF at every `(MTBF, prediction mode)` pair.
#[derive(Debug, Clone)]
pub struct ProactiveSweep {
    /// All cells, grouped by MTBF in sweep order.
    pub cells: Vec<ProactiveCell>,
    /// Number of workflows in the workload.
    pub workflow_count: usize,
}

/// Runs the proactive sweep: WOHA-LPF over every `(MTBF point, mode)`
/// pair, same fault schedules per point as [`run_failure_sweep`] given
/// the same cluster, MTTR, and seed. The whole grid fans over up to
/// `jobs` worker threads; results are identical for any `jobs`.
pub fn run_proactive_sweep(
    workflows: &[WorkflowSpec],
    cluster: &ClusterConfig,
    points: &[MtbfPoint],
    mttr: SimDuration,
    config: &SimConfig,
    jobs: usize,
) -> ProactiveSweep {
    let total = cluster.total_slots(SlotKind::Map) + cluster.total_slots(SlotKind::Reduce);
    let mut sweep = SimSweep::new();
    for (label, mtbf) in points {
        let faulty = match mtbf {
            Some(mtbf) => cluster
                .clone()
                .with_faults(FaultConfig::with_mtbf(*mtbf, mttr)),
            None => cluster.clone(),
        };
        for mode in PredictionMode::ALL {
            let run_config = SimConfig {
                prediction: (mode != PredictionMode::Off).then(|| PredictionConfig {
                    risk_placement: mode == PredictionMode::PadRisk,
                    ..PredictionConfig::default()
                }),
                ..config.clone()
            };
            let mtbf = *mtbf;
            sweep.push(
                CellKey::new().with("mtbf", label).with("mode", mode),
                SimCell::new(
                    workflows,
                    faulty.clone(),
                    run_config,
                    Box::new(move || {
                        let scheduler: Box<dyn WorkflowScheduler> =
                            Box::new(build_proactive(total, mtbf, mode));
                        scheduler
                    }),
                ),
            );
        }
    }
    let reports = sweep.run(jobs).into_reports();
    let coords = points
        .iter()
        .flat_map(|(label, _)| PredictionMode::ALL.iter().map(move |&m| (label.clone(), m)));
    ProactiveSweep {
        cells: coords
            .zip(reports)
            .map(|((mtbf, mode), report)| ProactiveCell { mtbf, mode, report })
            .collect(),
        workflow_count: workflows.len(),
    }
}

impl ProactiveSweep {
    /// The report of one cell.
    pub fn report(&self, mtbf: &str, mode: PredictionMode) -> &SimReport {
        &self
            .cells
            .iter()
            .find(|c| c.mtbf == mtbf && c.mode == mode)
            .expect("cell exists")
            .report
    }

    fn metric_table(&self, metric: impl Fn(&SimReport) -> String) -> Table {
        let points = ordered_unique(self.cells.iter().map(|c| c.mtbf.clone()));
        let mut columns = vec!["mode".to_string()];
        columns.extend(points.iter().map(|p| format!("mtbf {p}")));
        let mut t = Table::new(columns);
        for mode in PredictionMode::ALL {
            let mut row = vec![mode.to_string()];
            for point in &points {
                row.push(metric(self.report(point, mode)));
            }
            t.row(row);
        }
        t
    }

    /// Deadline-miss ratio per (mode, MTBF).
    pub fn miss_ratio_table(&self) -> Table {
        self.metric_table(|r| fmt_f64(miss_ratio(r)))
    }

    /// Total tardiness (s) per (mode, MTBF).
    pub fn tardiness_table(&self) -> Table {
        self.metric_table(|r| format!("{:.0}", r.total_tardiness().as_secs_f64()))
    }

    /// Prediction-subsystem counters per (mode, MTBF) as
    /// `padded/averted/preempt`; `-` where prediction is off.
    pub fn prediction_table(&self) -> Table {
        self.metric_table(|r| match &r.prediction {
            Some(p) => format!(
                "{}/{}/{}",
                p.plans_padded, p.risk_averted_placements, p.preemptive_speculations
            ),
            None => "-".to_string(),
        })
    }
}

/// Deadline-miss ratio of one run.
pub fn miss_ratio(report: &SimReport) -> f64 {
    report.deadline_misses() as f64 / report.outcomes.len().max(1) as f64
}

/// One reactive cell of `BENCH_failure.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReactivePoint {
    /// MTBF label ("none", "8h", ...).
    pub mtbf: String,
    /// Scheduler label ("WOHA-LPF", ...).
    pub scheduler: String,
    /// Deadline-miss ratio.
    pub miss_ratio: f64,
    /// Total tardiness, seconds.
    pub tardiness_s: f64,
    /// Node crashes observed before the run drained.
    pub node_failures: u64,
    /// Running attempts requeued by crashes.
    pub tasks_requeued: u64,
}

/// One proactive cell of `BENCH_failure.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProactivePoint {
    /// MTBF label ("none", "8h", ...).
    pub mtbf: String,
    /// Prediction mode label ("reactive", "pad", "pad+risk").
    pub mode: String,
    /// Deadline-miss ratio.
    pub miss_ratio: f64,
    /// Total tardiness, seconds.
    pub tardiness_s: f64,
    /// Node crashes observed before the run drained.
    pub node_failures: u64,
    /// Plans generated with proactive padding applied.
    pub plans_padded: u64,
    /// Placements declined because the picked node was risky.
    pub risk_averted_placements: u64,
    /// Speculative duplicates launched off risky nodes.
    pub preemptive_speculations: u64,
    /// Highest end-of-run propensity score across nodes.
    pub peak_propensity: f64,
}

/// The full failure study written to `BENCH_failure.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureStudyReport {
    /// Experiment name (always "failure_study").
    pub experiment: String,
    /// Whether this was the `--quick` CI sweep.
    pub quick: bool,
    /// Number of workflows in the workload.
    pub workflow_count: u64,
    /// Reactive sweep: every (MTBF, scheduler) pair, prediction off.
    pub reactive: Vec<ReactivePoint>,
    /// Proactive sweep: WOHA-LPF at every (MTBF, prediction mode) pair.
    pub proactive: Vec<ProactivePoint>,
}

/// Flattens the two sweeps into the machine-readable report.
pub fn failure_study_report(
    reactive: &FailureSweep,
    proactive: &ProactiveSweep,
    quick: bool,
) -> FailureStudyReport {
    FailureStudyReport {
        experiment: "failure_study".to_string(),
        quick,
        workflow_count: reactive.workflow_count as u64,
        reactive: reactive
            .cells
            .iter()
            .map(|c| ReactivePoint {
                mtbf: c.mtbf.clone(),
                scheduler: c.scheduler.to_string(),
                miss_ratio: miss_ratio(&c.report),
                tardiness_s: c.report.total_tardiness().as_secs_f64(),
                node_failures: c.report.node_failures,
                tasks_requeued: c.report.tasks_requeued,
            })
            .collect(),
        proactive: proactive
            .cells
            .iter()
            .map(|c| {
                let p = c.report.prediction.as_ref();
                ProactivePoint {
                    mtbf: c.mtbf.clone(),
                    mode: c.mode.label().to_string(),
                    miss_ratio: miss_ratio(&c.report),
                    tardiness_s: c.report.total_tardiness().as_secs_f64(),
                    node_failures: c.report.node_failures,
                    plans_padded: p.map_or(0, |p| p.plans_padded),
                    risk_averted_placements: p.map_or(0, |p| p.risk_averted_placements),
                    preemptive_speculations: p.map_or(0, |p| p.preemptive_speculations),
                    peak_propensity: p.map_or(0.0, |p| {
                        p.node_propensity.iter().copied().fold(0.0f64, f64::max)
                    }),
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{demo_cluster, fig11_workflows};

    #[test]
    fn failures_degrade_deadline_performance() {
        let workflows = fig11_workflows();
        let cluster = demo_cluster();
        let points = vec![
            ("none".to_string(), None),
            ("12m".to_string(), Some(SimDuration::from_mins(12))),
        ];
        let config = SimConfig {
            seed: 7,
            ..SimConfig::default()
        };
        let sweep = run_failure_sweep(
            &workflows,
            &cluster,
            &points,
            SimDuration::from_mins(3),
            &config,
            4,
        );
        assert_eq!(sweep.cells.len(), 2 * SCHEDULERS.len());
        for kind in SCHEDULERS {
            let clean = sweep.report("none", kind);
            let faulty = sweep.report("12m", kind);
            // Every run terminates even under heavy churn.
            assert!(clean.completed, "{kind}");
            assert!(faulty.completed, "{kind}");
            assert_eq!(clean.node_failures, 0, "{kind}");
            assert!(faulty.node_failures > 0, "{kind}");
            assert!(faulty.tasks_requeued > 0, "{kind}");
            // Losing nodes never helps: misses and tardiness only grow.
            assert!(
                faulty.deadline_misses() >= clean.deadline_misses(),
                "{kind}: {} < {}",
                faulty.deadline_misses(),
                clean.deadline_misses()
            );
            assert!(
                faulty.total_tardiness() >= clean.total_tardiness(),
                "{kind}"
            );
        }
        // The tables cover every point.
        assert_eq!(sweep.miss_ratio_table().len(), SCHEDULERS.len());
        assert_eq!(sweep.tardiness_table().len(), SCHEDULERS.len());
        assert_eq!(sweep.disruption_table().len(), SCHEDULERS.len());
    }

    #[test]
    fn proactive_sweep_matches_reactive_baseline_and_reports_prediction() {
        let workflows = fig11_workflows();
        let cluster = demo_cluster();
        let points = vec![
            ("none".to_string(), None),
            ("12m".to_string(), Some(SimDuration::from_mins(12))),
        ];
        let config = SimConfig {
            seed: 7,
            ..SimConfig::default()
        };
        let mttr = SimDuration::from_mins(3);
        let reactive = run_failure_sweep(&workflows, &cluster, &points, mttr, &config, 4);
        let proactive = run_proactive_sweep(&workflows, &cluster, &points, mttr, &config, 2);
        assert_eq!(proactive.cells.len(), 2 * PredictionMode::ALL.len());

        for (label, _) in &points {
            // Mode Off IS the reactive WOHA-LPF run, bit for bit.
            assert_eq!(
                proactive.report(label, PredictionMode::Off),
                reactive.report(label, SchedulerKind::WohaLpf),
                "{label}"
            );
            // Prediction modes carry a prediction section; Off does not.
            assert!(proactive
                .report(label, PredictionMode::Off)
                .prediction
                .is_none());
            for mode in [PredictionMode::PadOnly, PredictionMode::PadRisk] {
                let report = proactive.report(label, mode);
                assert!(report.completed, "{label} {mode}");
                let p = report.prediction.as_ref().expect("prediction on");
                if *label == "12m" {
                    // A 12 m MTBF pads every plan and leaves nonzero scores.
                    assert!(p.plans_padded > 0, "{mode}");
                    assert!(p.node_propensity.iter().any(|&s| s > 0.0), "{mode}");
                } else {
                    // Fault-free: padding has no MTBF to work from and no
                    // crash ever bumps a score.
                    assert_eq!(p.plans_padded, 0, "{mode}");
                    assert!(p.node_propensity.iter().all(|&s| s == 0.0), "{mode}");
                }
            }
        }

        // The JSON flattening covers every cell of both sweeps.
        let json = failure_study_report(&reactive, &proactive, true);
        assert_eq!(json.experiment, "failure_study");
        assert_eq!(json.reactive.len(), reactive.cells.len());
        assert_eq!(json.proactive.len(), proactive.cells.len());
        let roundtrip: FailureStudyReport =
            serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
        assert_eq!(roundtrip, json);
        assert_eq!(
            proactive.prediction_table().len(),
            PredictionMode::ALL.len()
        );
    }
}
