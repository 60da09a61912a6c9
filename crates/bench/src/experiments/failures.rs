//! Node-failure resilience study: the deadline-miss ratio and tardiness of
//! the schedulers as the per-node MTBF shrinks (no counterpart figure in
//! the paper, whose testbed never loses nodes; this probes how WOHA's
//! progress-based priorities and the baselines degrade when the simulator's
//! fault injector takes nodes away mid-flight).
//!
//! Two grids share the workload and fault schedules: the *reactive* grid
//! compares the four schedulers with failure prediction off, and the
//! *proactive* grid holds WOHA-LPF fixed and turns on the prediction
//! ladder — plan padding, then padding plus risk-aware placement — to
//! measure what anticipating failures buys over merely reacting to them.

use crate::schedulers::SchedulerKind;
use crate::sweep::{CellKey, SimCell, SimSweep, SimSweepRun};
use crate::table::{fmt_f64, fmt_secs, Table};
use serde::{Deserialize, Serialize};
use std::fmt;
use woha_core::PadConfig;
use woha_model::{SimDuration, SlotKind, WorkflowSpec};
use woha_sim::{ClusterConfig, FaultConfig, PredictionConfig, SimConfig, SimReport};

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

/// Runs the study: the same workload and cluster at every MTBF point,
/// under the reactive grid (one cell per `mtbf` × `scheduler`, prediction
/// off) and the proactive grid (WOHA-LPF, one cell per `mtbf` × `mode`).
/// Nodes repair after an exponential downtime of mean `mttr`; `seed`
/// drives jitter and the fault streams, so every cell at one point faces
/// the same crash schedule, and mode [`PredictionMode::Off`] reproduces
/// the reactive WOHA-LPF cell exactly. Both grids are one pool of up to
/// `jobs` worker threads (so a slow faulty point never idles the
/// workers); results are identical for any `jobs`.
pub fn run_failure_sweep(
    workflows: &[WorkflowSpec],
    cluster: &ClusterConfig,
    points: &[MtbfPoint],
    mttr: SimDuration,
    config: &SimConfig,
    jobs: usize,
) -> SimSweepRun {
    let total = cluster.total_slots(SlotKind::Map) + cluster.total_slots(SlotKind::Reduce);
    let mut sweep = SimSweep::new();
    for (label, mtbf) in points {
        let faulty = match mtbf {
            Some(mtbf) => cluster
                .clone()
                .with_faults(FaultConfig::with_mtbf(*mtbf, mttr)),
            None => cluster.clone(),
        };
        let point = CellKey::new().with("mtbf", label);
        sweep.push_kinds(&point, &SCHEDULERS, workflows, &faulty, config);
        for mode in PredictionMode::ALL {
            let run_config = SimConfig {
                prediction: (mode != PredictionMode::Off).then(|| PredictionConfig {
                    risk_placement: mode == PredictionMode::PadRisk,
                    ..PredictionConfig::default()
                }),
                ..config.clone()
            };
            let padding = mtbf
                .filter(|_| mode != PredictionMode::Off)
                .map(PadConfig::new);
            sweep.push(
                point.clone().with("mode", mode),
                SimCell::new(
                    workflows,
                    faulty.clone(),
                    run_config,
                    Box::new(move || SchedulerKind::WohaLpf.build_with(total, padding)),
                ),
            );
        }
    }
    sweep.run(jobs)
}

/// One table of the study: `metric` per MTBF point per value of `rows` —
/// `scheduler` for the reactive grid, `mode` for the proactive one.
fn mtbf_table(run: &SimSweepRun, rows: &str, metric: impl Fn(&SimReport) -> String) -> Table {
    run.pivot(&[rows], "mtbf", (rows, "mtbf "), |_, r| metric(r))
}

/// Deadline-miss ratio per (`rows` value, MTBF).
pub fn miss_ratio_table(run: &SimSweepRun, rows: &str) -> Table {
    mtbf_table(run, rows, |r| fmt_f64(r.miss_ratio()))
}

/// Total tardiness (s) per (`rows` value, MTBF).
pub fn tardiness_table(run: &SimSweepRun, rows: &str) -> Table {
    mtbf_table(run, rows, |r| fmt_secs(r.total_tardiness()))
}

/// Fault-subsystem counters per (scheduler, MTBF): crashes seen before
/// the run ended, tasks requeued, map outputs lost, and work thrown
/// away, as `failures/requeued/maps-lost/lost-slot-s`.
pub fn disruption_table(run: &SimSweepRun) -> Table {
    mtbf_table(run, "scheduler", |r| {
        format!(
            "{}/{}/{}/{:.0}",
            r.node_failures,
            r.tasks_requeued,
            r.map_outputs_lost,
            r.work_lost_slot_ms as f64 / 1000.0
        )
    })
}

/// Prediction-subsystem counters per (mode, MTBF) as
/// `padded/averted/preempt`; `-` where prediction is off.
pub fn prediction_table(run: &SimSweepRun) -> Table {
    mtbf_table(run, "mode", |r| match &r.prediction {
        Some(p) => format!(
            "{}/{}/{}",
            p.plans_padded, p.risk_averted_placements, p.preemptive_speculations
        ),
        None => "-".to_string(),
    })
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

/// Flattens the study's two grids into the machine-readable report.
pub fn failure_study_report(run: &SimSweepRun, quick: bool) -> FailureStudyReport {
    FailureStudyReport {
        experiment: "failure_study".to_string(),
        quick,
        workflow_count: run.cells[0].1.outcomes.len() as u64,
        reactive: run
            .cells
            .iter()
            .filter_map(|(key, r)| {
                Some(ReactivePoint {
                    mtbf: key.get("mtbf")?.to_string(),
                    scheduler: key.get("scheduler")?.to_string(),
                    miss_ratio: r.miss_ratio(),
                    tardiness_s: r.total_tardiness().as_secs_f64(),
                    node_failures: r.node_failures,
                    tasks_requeued: r.tasks_requeued,
                })
            })
            .collect(),
        proactive: run
            .cells
            .iter()
            .filter_map(|(key, r)| {
                let p = r.prediction.as_ref();
                Some(ProactivePoint {
                    mtbf: key.get("mtbf")?.to_string(),
                    mode: key.get("mode")?.to_string(),
                    miss_ratio: r.miss_ratio(),
                    tardiness_s: r.total_tardiness().as_secs_f64(),
                    node_failures: r.node_failures,
                    plans_padded: p.map_or(0, |p| p.plans_padded),
                    risk_averted_placements: p.map_or(0, |p| p.risk_averted_placements),
                    preemptive_speculations: p.map_or(0, |p| p.preemptive_speculations),
                    peak_propensity: p.map_or(0.0, |p| {
                        p.node_propensity.iter().copied().fold(0.0f64, f64::max)
                    }),
                })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{demo_cluster, fig11_workflows};

    /// The study at a fault-free point and a 12-minute MTBF.
    fn small_study(jobs: usize) -> SimSweepRun {
        let points = vec![
            ("none".to_string(), None),
            ("12m".to_string(), Some(SimDuration::from_mins(12))),
        ];
        let config = SimConfig {
            seed: 7,
            ..SimConfig::default()
        };
        let mttr = SimDuration::from_mins(3);
        run_failure_sweep(
            &fig11_workflows(),
            &demo_cluster(),
            &points,
            mttr,
            &config,
            jobs,
        )
    }

    #[test]
    fn failures_degrade_deadline_performance() {
        let sweep = small_study(4);
        let grid = SCHEDULERS.len() + PredictionMode::ALL.len();
        assert_eq!(sweep.cells.len(), 2 * grid);
        for kind in SCHEDULERS {
            let scheduler = kind.to_string();
            let clean = sweep.report(&[("mtbf", "none"), ("scheduler", &scheduler)]);
            let faulty = sweep.report(&[("mtbf", "12m"), ("scheduler", &scheduler)]);
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
        assert_eq!(
            miss_ratio_table(&sweep, "scheduler").len(),
            SCHEDULERS.len()
        );
        assert_eq!(tardiness_table(&sweep, "scheduler").len(), SCHEDULERS.len());
        assert_eq!(disruption_table(&sweep).len(), SCHEDULERS.len());
    }

    #[test]
    fn proactive_sweep_matches_reactive_baseline_and_reports_prediction() {
        let sweep = small_study(2);
        for label in ["none", "12m"] {
            let mode =
                |mode: PredictionMode| sweep.report(&[("mtbf", label), ("mode", mode.label())]);
            // Mode Off IS the reactive WOHA-LPF run, bit for bit.
            assert_eq!(
                mode(PredictionMode::Off),
                sweep.report(&[("mtbf", label), ("scheduler", "WOHA-LPF")]),
                "{label}"
            );
            // Prediction modes carry a prediction section; Off does not.
            assert!(mode(PredictionMode::Off).prediction.is_none());
            for m in [PredictionMode::PadOnly, PredictionMode::PadRisk] {
                let report = mode(m);
                assert!(report.completed, "{label} {m}");
                let p = report.prediction.as_ref().expect("prediction on");
                if label == "12m" {
                    // A 12 m MTBF pads every plan and leaves nonzero scores.
                    assert!(p.plans_padded > 0, "{m}");
                    assert!(p.node_propensity.iter().any(|&s| s > 0.0), "{m}");
                } else {
                    // Fault-free: padding has no MTBF to work from and no
                    // crash ever bumps a score.
                    assert_eq!(p.plans_padded, 0, "{m}");
                    assert!(p.node_propensity.iter().all(|&s| s == 0.0), "{m}");
                }
            }
        }

        // The JSON flattening covers every cell of both grids.
        let json = failure_study_report(&sweep, true);
        assert_eq!(json.experiment, "failure_study");
        assert_eq!(json.workflow_count, 3);
        assert_eq!(json.reactive.len(), 2 * SCHEDULERS.len());
        assert_eq!(json.proactive.len(), 2 * PredictionMode::ALL.len());
        let roundtrip: FailureStudyReport =
            serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
        assert_eq!(roundtrip, json);
        assert_eq!(prediction_table(&sweep).len(), PredictionMode::ALL.len());
    }
}
