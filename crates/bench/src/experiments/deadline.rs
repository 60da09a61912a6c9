//! The Yahoo-trace deadline experiments: Fig 8 (deadline-miss ratio),
//! Fig 9 (maximum tardiness), and Fig 10 (total tardiness), swept over the
//! three cluster sizes (200m-200r, 240m-240r, 280m-280r) and the six
//! schedulers.

use crate::scenarios::{trace_clusters, yahoo_workload, YahooScenario};
use crate::schedulers::SchedulerKind;
use crate::sweep::{CellKey, SimSweep, SimSweepRun};
use crate::table::{fmt_f64, fmt_secs, Table};
use woha_sim::{SimConfig, SimReport};

/// Runs the Figs 8–10 sweep, one cell per `cluster` × `scheduler`.
/// `jitter` adds the given relative task-duration noise so plans face
/// estimation error, as on a real cluster. The whole 18-cell grid
/// (3 clusters × 6 schedulers) is one pool of `jobs` worker threads;
/// results are identical for any `jobs`.
pub fn run_trace_sweep(scenario: &YahooScenario, jitter: f64, jobs: usize) -> SimSweepRun {
    let workload = yahoo_workload(scenario);
    let config = SimConfig {
        duration_jitter: jitter,
        seed: scenario.seed,
        ..SimConfig::default()
    };
    let mut sweep = SimSweep::new();
    for (label, cluster) in &trace_clusters() {
        sweep.push_kinds(
            &CellKey::new().with("cluster", label),
            &SchedulerKind::ALL,
            &workload,
            cluster,
            &config,
        );
    }
    sweep.run(jobs)
}

/// One Figs 8–10 table: `metric` per scheduler per cluster size.
fn trace_table(run: &SimSweepRun, metric: impl Fn(&SimReport) -> String) -> Table {
    run.pivot(&["scheduler"], "cluster", ("scheduler", ""), |_, r| {
        metric(r)
    })
}

/// Fig 8: deadline-miss ratio per scheduler per cluster size.
pub fn fig8_table(run: &SimSweepRun) -> Table {
    trace_table(run, |r| fmt_f64(r.miss_ratio()))
}

/// Fig 9: maximum tardiness (seconds).
pub fn fig9_table(run: &SimSweepRun) -> Table {
    trace_table(run, |r| fmt_secs(r.max_tardiness()))
}

/// Fig 10: total tardiness (seconds).
pub fn fig10_table(run: &SimSweepRun) -> Table {
    trace_table(run, |r| fmt_secs(r.total_tardiness()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep() -> SimSweepRun {
        run_trace_sweep(&YahooScenario::default(), 0.1, crate::available_jobs())
    }

    fn miss_ratio(sweep: &SimSweepRun, cluster: &str, scheduler: SchedulerKind) -> f64 {
        let scheduler = scheduler.to_string();
        sweep
            .report(&[("cluster", cluster), ("scheduler", &scheduler)])
            .miss_ratio()
    }

    /// Mean miss ratio of a scheduler across all cluster sizes.
    fn mean_miss_ratio(sweep: &SimSweepRun, scheduler: SchedulerKind) -> f64 {
        let clusters = ["200m-200r", "240m-240r", "280m-280r"];
        let sum: f64 = clusters
            .iter()
            .map(|c| miss_ratio(sweep, c, scheduler))
            .sum();
        sum / clusters.len() as f64
    }

    #[test]
    fn sweep_shape_matches_paper() {
        let sweep = quick_sweep();
        assert_eq!(sweep.cells.len(), 18, "3 clusters x 6 schedulers");
        // Every run completed all 46 workflows.
        assert!(sweep
            .cells
            .iter()
            .all(|(_, r)| r.completed && r.outcomes.len() == 46));

        // Fig 8 qualitative shape: FIFO (deadline-blind, strict arrival
        // order) never beats the best WOHA variant and misses strictly
        // more on the resource-constrained cluster sizes; at the largest
        // size everyone converges ("more than adequate resources"), which
        // is itself the paper's observation.
        let mut fifo_strictly_worse = 0;
        for cluster in ["200m-200r", "240m-240r", "280m-280r"] {
            let fifo = miss_ratio(&sweep, cluster, SchedulerKind::Fifo);
            let fair = miss_ratio(&sweep, cluster, SchedulerKind::Fair);
            let woha_best = SchedulerKind::WOHA
                .iter()
                .map(|&k| miss_ratio(&sweep, cluster, k))
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
        let edf = mean_miss_ratio(&sweep, SchedulerKind::Edf);
        for kind in SchedulerKind::WOHA {
            let woha = mean_miss_ratio(&sweep, kind);
            assert!(
                woha <= edf + 1e-9,
                "{kind} {woha:.3} should beat EDF {edf:.3}"
            );
        }

        // The paper's crossover: WOHA-HLF/LPF visibly outperform EDF at
        // the middle ("less than adequate") cluster size, and the gap
        // narrows at the largest size.
        let edf_mid = miss_ratio(&sweep, "240m-240r", SchedulerKind::Edf);
        let woha_mid = miss_ratio(&sweep, "240m-240r", SchedulerKind::WohaLpf);
        assert!(
            woha_mid < edf_mid,
            "mid: woha {woha_mid:.2} vs edf {edf_mid:.2}"
        );
        let edf_big = miss_ratio(&sweep, "280m-280r", SchedulerKind::Edf);
        let woha_big = miss_ratio(&sweep, "280m-280r", SchedulerKind::WohaLpf);
        assert!((edf_big - woha_big).abs() <= 0.05, "merge at large size");

        // More resources, (weakly) fewer misses for the deadline-aware
        // schedulers.
        for kind in [SchedulerKind::Edf, SchedulerKind::WohaLpf] {
            let small = miss_ratio(&sweep, "200m-200r", kind);
            let large = miss_ratio(&sweep, "280m-280r", kind);
            assert!(large <= small + 1e-9, "{kind}: {small:.2} -> {large:.2}");
        }
    }

    #[test]
    fn tables_render_all_rows() {
        let sweep = quick_sweep();
        for t in [fig8_table(&sweep), fig9_table(&sweep), fig10_table(&sweep)] {
            assert_eq!(t.len(), 6);
            assert!(t.render().contains("200m-200r"));
        }
    }
}
