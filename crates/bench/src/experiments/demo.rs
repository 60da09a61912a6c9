//! The synthetic-demo experiments: Fig 11 (workspans), Fig 12 (cluster
//! utilization under 3 recurrences), and Figs 14–19 (slot-allocation
//! timelines), all on the 32-slave cluster with three Fig-7 workflows.

use crate::runner::run_many;
use crate::scenarios::{demo_cluster, fig11_workflows, fig12_workflows};
use crate::schedulers::SchedulerKind;
use crate::table::{fmt_f64, fmt_secs, Table};
use woha_model::{SimDuration, SlotKind, WorkflowId};
use woha_sim::{ObservabilityConfig, SimConfig, SimReport};

/// Result of the Fig 11 run: per-scheduler workspans and deadline verdicts.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// `(scheduler, [workspan of W-1..W-3], [met deadline?])`.
    pub rows: Vec<(SchedulerKind, Vec<SimDuration>, Vec<bool>)>,
    /// Relative deadlines of the three workflows, for reference.
    pub relative_deadlines: Vec<SimDuration>,
    /// Full reports (for utilization and the timeline figures).
    pub reports: Vec<(SchedulerKind, SimReport)>,
}

/// Runs the Fig 11 scenario under all six schedulers.
///
/// `track_timelines` additionally records the Fig 14–19 slot-allocation
/// series (costs memory; enable only when those figures are wanted).
/// Results are identical for any worker-thread budget `jobs`.
pub fn run_fig11(track_timelines: bool, jobs: usize) -> Fig11Result {
    let workflows = fig11_workflows();
    let cluster = demo_cluster();
    let config = SimConfig {
        observability: ObservabilityConfig {
            timelines: track_timelines,
            ..ObservabilityConfig::default()
        },
        ..SimConfig::default()
    };
    let reports = run_many(&SchedulerKind::ALL, &workflows, &cluster, &config, jobs);
    let relative_deadlines = workflows.iter().map(|w| w.relative_deadline()).collect();
    let rows = reports
        .iter()
        .map(|(kind, report)| {
            let spans = report.workspans();
            let met = report
                .outcomes
                .iter()
                .map(|o| o.met_deadline())
                .collect::<Vec<_>>();
            (*kind, spans, met)
        })
        .collect();
    Fig11Result {
        rows,
        relative_deadlines,
        reports,
    }
}

impl Fig11Result {
    /// Renders the Fig 11 table: workspan (seconds) per workflow per
    /// scheduler, with `*` marking deadline misses.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "scheduler",
            "W-1 span(s)",
            "W-2 span(s)",
            "W-3 span(s)",
            "misses",
        ]);
        for (kind, spans, met) in &self.rows {
            let mut cells = vec![kind.to_string()];
            for (s, ok) in spans.iter().zip(met) {
                cells.push(format!("{}{}", fmt_secs(*s), if *ok { "" } else { "*" }));
            }
            cells.push(met.iter().filter(|&&ok| !ok).count().to_string());
            t.row(cells);
        }
        t
    }

    /// The report of one scheduler.
    pub fn report(&self, kind: SchedulerKind) -> &SimReport {
        &self
            .reports
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("all schedulers ran")
            .1
    }
}

/// Result of the Fig 12 utilization run.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// `(scheduler, overall utilization)`.
    pub rows: Vec<(SchedulerKind, f64)>,
}

/// Runs the Fig 12 experiment: the demo workload with 3 recurrences,
/// reporting overall cluster utilization per scheduler. Results are
/// identical for any worker-thread budget `jobs`.
pub fn run_fig12(jobs: usize) -> Fig12Result {
    let workflows = fig12_workflows(3);
    let cluster = demo_cluster();
    let config = SimConfig::default();
    let reports = run_many(&SchedulerKind::ALL, &workflows, &cluster, &config, jobs);
    Fig12Result {
        rows: reports
            .iter()
            .map(|(kind, r)| (*kind, r.overall_utilization()))
            .collect(),
    }
}

impl Fig12Result {
    /// Renders the utilization table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["scheduler", "utilization"]);
        for (kind, u) in &self.rows {
            t.row(vec![kind.to_string(), fmt_f64(*u)]);
        }
        t
    }
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
        let result = run_fig11(false, crate::available_jobs());
        for (kind, _, met) in &result.rows {
            let misses = met.iter().filter(|&&ok| !ok).count();
            if kind.is_woha() {
                assert_eq!(misses, 0, "{kind} must meet all three deadlines");
            }
        }
        // Fair is the worst performer in the paper; it must miss deadlines.
        let fair = result
            .rows
            .iter()
            .find(|(k, ..)| *k == SchedulerKind::Fair)
            .unwrap();
        assert!(fair.2.iter().any(|&ok| !ok), "Fair must miss a deadline");
        // EDF over-serves W-3 and starves W-1/W-2 (the paper's Fig 11).
        let edf = result
            .rows
            .iter()
            .find(|(k, ..)| *k == SchedulerKind::Edf)
            .unwrap();
        assert!(edf.2[2], "EDF must finish W-3 in time");
        assert!(!edf.2[0] || !edf.2[1], "EDF must miss W-1 or W-2");
        // FIFO finishes W-1 comfortably but creates huge tardiness on W-3.
        let fifo = result
            .rows
            .iter()
            .find(|(k, ..)| *k == SchedulerKind::Fifo)
            .unwrap();
        assert!(fifo.2[0], "FIFO must finish W-1 in time");
        assert!(!fifo.2[2], "FIFO must miss W-3");
    }

    #[test]
    fn fig11_table_has_six_rows() {
        let result = run_fig11(false, crate::available_jobs());
        let t = result.table();
        assert_eq!(t.len(), 6);
        let text = t.render();
        assert!(text.contains("WOHA-LPF"));
    }
}
