//! The synthetic-demo experiments: Fig 11 (workspans), Fig 12 (cluster
//! utilization under 3 recurrences), and Figs 14–19 (slot-allocation
//! timelines), all on the 32-slave cluster with three Fig-7 workflows.

use crate::scenarios::{demo_cluster, fig11_workflows, fig12_workflows};
use crate::schedulers::SchedulerKind;
use crate::sweep::{CellKey, SimSweep, SimSweepRun};
use crate::table::{fmt_f64, fmt_secs, Table};
use woha_model::{SlotKind, WorkflowId, WorkflowSpec};
use woha_sim::{ObservabilityConfig, SimConfig, SimReport};

/// Runs the Fig 11 scenario under all six schedulers, one cell per
/// `scheduler`.
///
/// `track_timelines` additionally records the Fig 14–19 slot-allocation
/// series (costs memory; enable only when those figures are wanted).
/// Results are identical for any worker-thread budget `jobs`.
pub fn run_fig11(track_timelines: bool, jobs: usize) -> SimSweepRun {
    let config = SimConfig {
        observability: ObservabilityConfig {
            timelines: track_timelines,
            ..ObservabilityConfig::default()
        },
        ..SimConfig::default()
    };
    run_all_schedulers(&fig11_workflows(), &config, jobs)
}

/// Renders the Fig 11 table: workspan (seconds) per workflow per
/// scheduler, with `*` marking deadline misses.
pub fn fig11_table(run: &SimSweepRun) -> Table {
    let mut t = Table::new(vec![
        "scheduler",
        "W-1 span(s)",
        "W-2 span(s)",
        "W-3 span(s)",
        "misses",
    ]);
    for (key, report) in &run.cells {
        let mut cells = vec![scheduler_of(key).to_string()];
        for (span, o) in report.workspans().into_iter().zip(&report.outcomes) {
            let mark = if o.met_deadline() { "" } else { "*" };
            cells.push(format!("{}{mark}", fmt_secs(span)));
        }
        cells.push(report.deadline_misses().to_string());
        t.row(cells);
    }
    t
}

/// Runs the Fig 12 experiment: the demo workload with 3 recurrences
/// under all six schedulers. Results are identical for any worker-thread
/// budget `jobs`.
pub fn run_fig12(jobs: usize) -> SimSweepRun {
    run_all_schedulers(&fig12_workflows(3), &SimConfig::default(), jobs)
}

/// Renders the Fig 12 table: overall cluster utilization per scheduler.
pub fn fig12_table(run: &SimSweepRun) -> Table {
    let mut t = Table::new(vec!["scheduler", "utilization"]);
    for (key, report) in &run.cells {
        t.row(vec![
            scheduler_of(key).to_string(),
            fmt_f64(report.overall_utilization()),
        ]);
    }
    t
}

/// The demo cluster running `workflows` under every scheduler.
fn run_all_schedulers(workflows: &[WorkflowSpec], config: &SimConfig, jobs: usize) -> SimSweepRun {
    let mut sweep = SimSweep::new();
    sweep.push_kinds(
        &CellKey::new(),
        &SchedulerKind::ALL,
        workflows,
        &demo_cluster(),
        config,
    );
    sweep.run(jobs)
}

/// The `scheduler` axis of a cell.
pub fn scheduler_of(key: &CellKey) -> &str {
    key.get("scheduler").expect("cells are keyed by scheduler")
}

/// Renders one scheduler's Figs 14–19 panel: the per-workflow occupied
/// map and reduce slots over time, as two aligned text series.
pub fn timeline_table(report: &SimReport, kind: SlotKind) -> Table {
    let timelines = report
        .timelines
        .as_ref()
        .expect("run with track_timelines = true");
    let mut header = vec!["t(s)".to_string()];
    for o in &report.outcomes {
        header.push(o.name.clone());
    }
    header.push("total".to_string());
    let mut t = Table::new(header);
    let interval = timelines.interval();
    // Downsample to ~60 rows for readability.
    let samples = timelines.sample_count();
    let step = (samples / 60).max(1);
    for s in (0..samples).step_by(step) {
        let time_s = (interval * (s as u64)).as_secs();
        let mut cells = vec![time_s.to_string()];
        let mut total = 0u32;
        for (i, _) in report.outcomes.iter().enumerate() {
            let v = timelines.series(WorkflowId::new(i as u64), kind)[s];
            total += v;
            cells.push(v.to_string());
        }
        cells.push(total.to_string());
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_woha_meets_all_deadlines_baselines_do_not() {
        let run = run_fig11(false, crate::available_jobs());
        let met = |kind: SchedulerKind| -> Vec<bool> {
            let scheduler = kind.to_string();
            let report = run.report(&[("scheduler", &scheduler)]);
            report.outcomes.iter().map(|o| o.met_deadline()).collect()
        };
        for kind in SchedulerKind::WOHA {
            assert!(
                met(kind).iter().all(|&ok| ok),
                "{kind} must meet all three deadlines"
            );
        }
        // Fair is the worst performer in the paper; it must miss deadlines.
        assert!(
            met(SchedulerKind::Fair).iter().any(|&ok| !ok),
            "Fair must miss a deadline"
        );
        // EDF over-serves W-3 and starves W-1/W-2 (the paper's Fig 11).
        let edf = met(SchedulerKind::Edf);
        assert!(edf[2], "EDF must finish W-3 in time");
        assert!(!edf[0] || !edf[1], "EDF must miss W-1 or W-2");
        // FIFO finishes W-1 comfortably but creates huge tardiness on W-3.
        let fifo = met(SchedulerKind::Fifo);
        assert!(fifo[0], "FIFO must finish W-1 in time");
        assert!(!fifo[2], "FIFO must miss W-3");
    }

    #[test]
    fn fig11_table_has_six_rows() {
        let t = fig11_table(&run_fig11(false, crate::available_jobs()));
        assert_eq!(t.len(), 6);
        let text = t.render();
        assert!(text.contains("WOHA-LPF"));
    }
}
