//! The `obs_overhead` sweep: end-to-end wall-clock cost of the
//! observability layer (structured tracing + metrics registry), off versus
//! on, for each priority-index backend.
//!
//! This is the simulation-level companion of the `throughput_index`
//! microbenchmark: instead of isolating the priority index, it reruns the
//! Yahoo-trace workload through the full simulator and compares wall time
//! with observability disabled (the shipping default — the exact code path
//! every other experiment measures) against a run with both the
//! [`TraceSink`](woha_sim::TraceSink) and the metrics registry armed. The
//! disabled path is the baseline by construction: with the
//! `SimConfig::observability` block at its default, the driver executes the
//! pre-observability event loop (guarded by `Option` checks only) and its
//! `SimReport` is byte-identical to the pre-observability output (asserted
//! by the `end_to_end` tests), so any regression would show up directly in
//! the `off` column.

use crate::scenarios::{demo_cluster, fig11_workflows, yahoo_workload, YahooScenario};
use crate::schedulers::SchedulerKind;
use crate::table::Table;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use woha_core::QueueStrategy;
use woha_model::{SimDuration, SlotKind, WorkflowSpec};
use woha_sim::{
    run_simulation, try_run_simulation_observed, ClusterConfig, ObservabilityConfig, SimConfig,
};

/// Overhead bound the enabled path is held to, as a percentage of the
/// disabled path's wall time. Tracing buffers one in-memory record per
/// decision-loop event and the registry does a few counter increments and
/// histogram bucket scans per heartbeat, so the enabled path should stay
/// well under this; the bin prints PASS/WARN against it rather than
/// failing, because CI wall-clock noise is not a correctness signal.
pub const OVERHEAD_BOUND_PCT: f64 = 50.0;

/// One `(backend, off/on)` comparison of the `obs_overhead` sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsOverheadRecord {
    /// Priority-index backend label ("dsl", "btree", "pheap").
    pub backend: String,
    /// Best-of-`runs` wall time with observability fully off, in ms.
    pub off_wall_ms: f64,
    /// Best-of-`runs` wall time with trace + metrics on, in ms.
    pub on_wall_ms: f64,
    /// `(on - off) / off`, as a percentage (negative = within noise).
    pub overhead_pct: f64,
    /// Trace records captured by the enabled run.
    pub trace_records: u64,
    /// Scheduler decisions timed into the decision-seconds histogram.
    pub decisions_observed: u64,
}

/// The full `obs_overhead` report written to `BENCH_obs.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsOverheadReport {
    /// Experiment name (always "obs_overhead").
    pub experiment: String,
    /// Whether this was the `--quick` CI sweep.
    pub quick: bool,
    /// Wall-clock repetitions per point (best-of is reported).
    pub runs: u32,
    /// Backend labels swept, in sweep order.
    pub backends: Vec<String>,
    /// Stated overhead bound for the enabled path, percent.
    pub overhead_bound_pct: f64,
    /// Per-backend measurements.
    pub points: Vec<ObsOverheadRecord>,
}

fn sweep_scenario(quick: bool) -> (Vec<WorkflowSpec>, ClusterConfig) {
    if quick {
        (fig11_workflows(), demo_cluster())
    } else {
        let workload = yahoo_workload(&YahooScenario::default());
        (
            woha_trace::drain(&mut workload.into_source()),
            ClusterConfig::with_totals(240, 240),
        )
    }
}

fn observed_config() -> ObservabilityConfig {
    ObservabilityConfig {
        trace: true,
        metrics: true,
        sample_interval: Some(SimDuration::from_secs(30)),
        ..ObservabilityConfig::default()
    }
}

/// Runs the `obs_overhead` sweep: each index backend, observability off
/// then on, `runs` repetitions each (best-of-runs wall time reported).
pub fn run_obs_overhead(quick: bool, runs: u32) -> ObsOverheadReport {
    let (workflows, cluster) = sweep_scenario(quick);
    let total = cluster.total_slots(SlotKind::Map) + cluster.total_slots(SlotKind::Reduce);
    let base = SimConfig::default();
    let observed = SimConfig {
        observability: observed_config(),
        ..SimConfig::default()
    };

    let mut points = Vec::new();
    for strategy in QueueStrategy::ALL {
        let build = || SchedulerKind::WohaLpf.build_with(total, strategy, None);

        let mut off_wall_ms = f64::INFINITY;
        for _ in 0..runs {
            let mut s = build();
            let start = Instant::now();
            let report = run_simulation(&workflows, s.as_mut(), &cluster, &base);
            off_wall_ms = off_wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
            assert!(report.completed, "off-path run must complete");
        }

        let mut on_wall_ms = f64::INFINITY;
        let mut trace_records = 0u64;
        let mut decisions_observed = 0u64;
        for _ in 0..runs {
            let mut s = build();
            let start = Instant::now();
            let (report, obs) =
                try_run_simulation_observed(&workflows, s.as_mut(), &cluster, &observed)
                    .expect("valid observed config");
            on_wall_ms = on_wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
            assert!(report.completed, "on-path run must complete");
            trace_records = obs.trace.len() as u64;
            decisions_observed = obs
                .metrics
                .as_ref()
                .map_or(0, |m| m.decision_seconds.count());
        }

        points.push(ObsOverheadRecord {
            backend: strategy.label().to_string(),
            off_wall_ms,
            on_wall_ms,
            overhead_pct: (on_wall_ms - off_wall_ms) / off_wall_ms * 100.0,
            trace_records,
            decisions_observed,
        });
    }

    ObsOverheadReport {
        experiment: "obs_overhead".to_string(),
        quick,
        runs,
        backends: QueueStrategy::ALL
            .iter()
            .map(|s| s.label().to_string())
            .collect(),
        overhead_bound_pct: OVERHEAD_BOUND_PCT,
        points,
    }
}

/// Renders the `obs_overhead` report as a text table: one row per backend.
pub fn obs_overhead_table(report: &ObsOverheadReport) -> Table {
    let mut t = Table::new(vec![
        "backend",
        "off (ms)",
        "on (ms)",
        "overhead (%)",
        "trace records",
        "decisions timed",
    ]);
    for p in &report.points {
        t.row(vec![
            p.backend.clone(),
            format!("{:.1}", p.off_wall_ms),
            format!("{:.1}", p.on_wall_ms),
            format!("{:+.1}", p.overhead_pct),
            p.trace_records.to_string(),
            p.decisions_observed.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_reports_every_backend() {
        let report = run_obs_overhead(true, 1);
        assert_eq!(report.experiment, "obs_overhead");
        assert_eq!(report.backends, vec!["dsl", "btree", "pheap"]);
        assert_eq!(report.points.len(), 3);
        for p in &report.points {
            assert!(p.off_wall_ms > 0.0 && p.on_wall_ms > 0.0, "{p:?}");
            assert!(p.trace_records > 0, "enabled run must capture a trace");
            assert!(p.decisions_observed > 0, "decision histogram must fill");
        }
        let json = serde_json::to_string_pretty(&report).expect("serialize");
        let back: ObsOverheadReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
        let text = obs_overhead_table(&report).render();
        assert!(text.contains("overhead"), "{text}");
    }
}
