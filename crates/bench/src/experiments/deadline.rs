//! The Yahoo-trace deadline experiments: Fig 8 (deadline-miss ratio),
//! Fig 9 (maximum tardiness), and Fig 10 (total tardiness), swept over the
//! three cluster sizes (200m-200r, 240m-240r, 280m-280r) and the six
//! schedulers.

use crate::scenarios::{trace_clusters, yahoo_workload, YahooScenario};
use crate::schedulers::SchedulerKind;
use crate::sweep::{CellKey, SimSweep};
use crate::table::{fmt_f64, fmt_secs, ordered_unique, Table};
use woha_model::SimDuration;
use woha_sim::{SimConfig, SimReport};

/// One cell of the Figs 8–10 sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Cluster label ("200m-200r", ...).
    pub cluster: String,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Full report.
    pub report: SimReport,
}

/// The whole sweep: every (cluster size, scheduler) pair.
#[derive(Debug, Clone)]
pub struct TraceSweep {
    /// All cells, grouped by cluster in `trace_clusters()` order.
    pub cells: Vec<SweepCell>,
    /// Number of workflows in the workload.
    pub workflow_count: usize,
}

/// Runs the Figs 8–10 sweep. `jitter` adds the given relative task-duration
/// noise so plans face estimation error, as on a real cluster. The whole
/// 18-cell grid (3 clusters × 6 schedulers) is one pool of `jobs` worker
/// threads; results are identical for any `jobs`.
pub fn run_trace_sweep(scenario: &YahooScenario, jitter: f64, jobs: usize) -> TraceSweep {
    let workload = yahoo_workload(scenario);
    let workflows = workload.workflows();
    let config = SimConfig {
        duration_jitter: jitter,
        seed: scenario.seed,
        ..SimConfig::default()
    };
    let clusters = trace_clusters();
    let mut sweep = SimSweep::new();
    for (label, cluster) in &clusters {
        sweep.push_kinds(
            &CellKey::new().with("cluster", label),
            &SchedulerKind::ALL,
            workflows,
            cluster,
            &config,
        );
    }
    let reports = sweep.run(jobs).into_reports();
    let coords = clusters.iter().flat_map(|(label, _)| {
        SchedulerKind::ALL
            .iter()
            .map(move |&kind| (label.clone(), kind))
    });
    TraceSweep {
        cells: coords
            .zip(reports)
            .map(|((cluster, scheduler), report)| SweepCell {
                cluster,
                scheduler,
                report,
            })
            .collect(),
        workflow_count: workflows.len(),
    }
}

impl TraceSweep {
    fn metric_table(&self, header: &str, metric: impl Fn(&SimReport) -> String) -> Table {
        let clusters = ordered_unique(self.cells.iter().map(|c| c.cluster.clone()));
        let mut columns: Vec<String> = vec!["scheduler".to_string()];
        columns.extend(clusters.iter().cloned());
        let _ = header;
        let mut t = Table::new(columns);
        for kind in SchedulerKind::ALL {
            let mut cells = vec![kind.to_string()];
            for cluster in &clusters {
                let cell = self
                    .cells
                    .iter()
                    .find(|c| c.scheduler == kind && &c.cluster == cluster)
                    .expect("sweep covers all pairs");
                cells.push(metric(&cell.report));
            }
            t.row(cells);
        }
        t
    }

    /// Fig 8: deadline-miss ratio per scheduler per cluster size.
    pub fn fig8_table(&self) -> Table {
        self.metric_table("miss ratio", |r| fmt_f64(r.miss_ratio()))
    }

    /// Fig 9: maximum tardiness (seconds).
    pub fn fig9_table(&self) -> Table {
        self.metric_table("max tardiness", |r| fmt_secs(r.max_tardiness()))
    }

    /// Fig 10: total tardiness (seconds).
    pub fn fig10_table(&self) -> Table {
        self.metric_table("total tardiness", |r| fmt_secs(r.total_tardiness()))
    }

    /// Miss ratio of one pair.
    pub fn miss_ratio(&self, cluster: &str, scheduler: SchedulerKind) -> f64 {
        self.cells
            .iter()
            .find(|c| c.scheduler == scheduler && c.cluster == cluster)
            .expect("pair exists")
            .report
            .miss_ratio()
    }

    /// Mean miss ratio of a scheduler across all cluster sizes.
    pub fn mean_miss_ratio(&self, scheduler: SchedulerKind) -> f64 {
        let ratios: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.scheduler == scheduler)
            .map(|c| c.report.miss_ratio())
            .collect();
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }

    /// Total tardiness of one pair.
    pub fn total_tardiness(&self, cluster: &str, scheduler: SchedulerKind) -> SimDuration {
        self.cells
            .iter()
            .find(|c| c.scheduler == scheduler && c.cluster == cluster)
            .expect("pair exists")
            .report
            .total_tardiness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep() -> TraceSweep {
        run_trace_sweep(&YahooScenario::default(), 0.1, crate::available_jobs())
    }

    #[test]
    fn sweep_shape_matches_paper() {
        let sweep = quick_sweep();
        assert_eq!(sweep.cells.len(), 18, "3 clusters x 6 schedulers");
        assert_eq!(sweep.workflow_count, 46);
        // Every run completed all workflows.
        assert!(sweep.cells.iter().all(|c| c.report.completed));

        // Fig 8 qualitative shape: FIFO (deadline-blind, strict arrival
        // order) never beats the best WOHA variant and misses strictly
        // more on the resource-constrained cluster sizes; at the largest
        // size everyone converges ("more than adequate resources"), which
        // is itself the paper's observation.
        let mut fifo_strictly_worse = 0;
        for cluster in ["200m-200r", "240m-240r", "280m-280r"] {
            let fifo = sweep.miss_ratio(cluster, SchedulerKind::Fifo);
            let fair = sweep.miss_ratio(cluster, SchedulerKind::Fair);
            let woha_best = SchedulerKind::WOHA
                .iter()
                .map(|&k| sweep.miss_ratio(cluster, k))
                .fold(f64::INFINITY, f64::min);
            assert!(
                fifo >= woha_best && fair >= woha_best,
                "{cluster}: fifo {fifo:.2} fair {fair:.2} woha {woha_best:.2}"
            );
            if fifo > woha_best {
                fifo_strictly_worse += 1;
            }
        }
        assert!(fifo_strictly_worse >= 2, "FIFO must lose clearly somewhere");

        // WOHA's mean miss ratio across cluster sizes beats EDF's (the
        // paper's ~10% improvement in deadline satisfaction).
        let edf = sweep.mean_miss_ratio(SchedulerKind::Edf);
        for kind in SchedulerKind::WOHA {
            let woha = sweep.mean_miss_ratio(kind);
            assert!(
                woha <= edf + 1e-9,
                "{kind} {woha:.3} should beat EDF {edf:.3}"
            );
        }

        // The paper's crossover: WOHA-HLF/LPF visibly outperform EDF at
        // the middle ("less than adequate") cluster size, and the gap
        // narrows at the largest size.
        let edf_mid = sweep.miss_ratio("240m-240r", SchedulerKind::Edf);
        let woha_mid = sweep.miss_ratio("240m-240r", SchedulerKind::WohaLpf);
        assert!(
            woha_mid < edf_mid,
            "mid: woha {woha_mid:.2} vs edf {edf_mid:.2}"
        );
        let edf_big = sweep.miss_ratio("280m-280r", SchedulerKind::Edf);
        let woha_big = sweep.miss_ratio("280m-280r", SchedulerKind::WohaLpf);
        assert!((edf_big - woha_big).abs() <= 0.05, "merge at large size");

        // More resources, (weakly) fewer misses for the deadline-aware
        // schedulers.
        for kind in [SchedulerKind::Edf, SchedulerKind::WohaLpf] {
            let small = sweep.miss_ratio("200m-200r", kind);
            let large = sweep.miss_ratio("280m-280r", kind);
            assert!(large <= small + 1e-9, "{kind}: {small:.2} -> {large:.2}");
        }
    }

    #[test]
    fn tables_render_all_rows() {
        let sweep = quick_sweep();
        for t in [sweep.fig8_table(), sweep.fig9_table(), sweep.fig10_table()] {
            assert_eq!(t.len(), 6);
            assert!(t.render().contains("200m-200r"));
        }
    }
}
