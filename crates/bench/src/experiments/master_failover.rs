//! Master-failover recovery study: what a JobTracker crash costs each
//! scheduler, swept over checkpoint interval × crash time (no counterpart
//! figure in the paper, whose testbed never loses the master; this probes
//! the checkpoint/WAL recovery path the simulator models after Hadoop-1
//! JobTracker restart).
//!
//! Every cell injects one scripted master crash and compares against the
//! crash-free baseline of the same scheduler, so the tables report the
//! deadline misses and tardiness *attributable to the outage*.

use crate::schedulers::SchedulerKind;
use crate::sweep::{CellKey, SimSweep, SimSweepRun};
use crate::table::Table;
use woha_model::{SimDuration, SimTime, WorkflowSpec};
use woha_sim::{ClusterConfig, FaultConfig, MasterFaultConfig, SimConfig, SimReport};

/// The four schedulers the study compares (one WOHA variant suffices; the
/// three policies share the recovery path).
pub const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Edf,
    SchedulerKind::Fifo,
    SchedulerKind::Fair,
    SchedulerKind::WohaLpf,
];

/// Runs the sweep: the same workload and cluster under every
/// `ckpt` × `crash` × `scheduler` cell, with one scripted master crash
/// per run and the given restart time. `wal` selects lossless recovery
/// (replay to the crash instant) or checkpoint-only recovery (everything
/// since the last checkpoint is lost and redone). A crash-free cell per
/// scheduler, keyed `crash=none` without a `ckpt`, provides the baseline
/// for the delta tables. The baselines and the whole grid share one
/// worker pool of up to `jobs` threads; results are identical for any
/// `jobs`.
#[allow(clippy::too_many_arguments)]
pub fn run_failover_sweep(
    workflows: &[WorkflowSpec],
    cluster: &ClusterConfig,
    intervals: &[(String, SimDuration)],
    crash_times: &[(String, SimTime)],
    mttr: SimDuration,
    wal: bool,
    config: &SimConfig,
    jobs: usize,
) -> SimSweepRun {
    let mut sweep = SimSweep::new();
    sweep.push_kinds(
        &CellKey::new().with("crash", "none"),
        &SCHEDULERS,
        workflows,
        cluster,
        config,
    );
    for (interval_label, interval) in intervals {
        for (crash_label, crash) in crash_times {
            let faults = FaultConfig {
                master: MasterFaultConfig {
                    mtbf: None,
                    mttr,
                    checkpoint_interval: *interval,
                    wal,
                    scripted: vec![*crash],
                },
                ..cluster.faults().clone()
            };
            let faulty = cluster.clone().with_faults(faults);
            sweep.push_kinds(
                &CellKey::new()
                    .with("ckpt", interval_label)
                    .with("crash", crash_label),
                &SCHEDULERS,
                workflows,
                &faulty,
                config,
            );
        }
    }
    sweep.run(jobs)
}

/// The crash-free baseline of the cell keyed `key`'s scheduler.
fn baseline<'r>(run: &'r SimSweepRun, key: &CellKey) -> &'r SimReport {
    let scheduler = key.get("scheduler").expect("cells are keyed by scheduler");
    run.report(&[("crash", "none"), ("scheduler", scheduler)])
}

/// One row per `(scheduler, interval)`, one column per crash time; the
/// metric sees each cell with its scheduler's crash-free baseline.
fn failover_table(run: &SimSweepRun, metric: impl Fn(&SimReport, &SimReport) -> String) -> Table {
    let header = ("scheduler @ ckpt", "crash ");
    run.pivot(&["scheduler", "ckpt"], "crash", header, |key, r| {
        metric(r, baseline(run, key))
    })
}

/// Deadline misses attributable to the outage: cell minus the
/// crash-free baseline of the same scheduler.
pub fn miss_delta_table(run: &SimSweepRun) -> Table {
    failover_table(run, |r, base| {
        format!(
            "{:+}",
            r.deadline_misses() as i64 - base.deadline_misses() as i64
        )
    })
}

/// Extra total tardiness (s) over the crash-free baseline.
pub fn tardiness_delta_table(run: &SimSweepRun) -> Table {
    failover_table(run, |r, base| {
        format!(
            "{:+.0}",
            r.total_tardiness().as_secs_f64() - base.total_tardiness().as_secs_f64()
        )
    })
}

/// Recovery-subsystem counters per cell, as
/// `readopted/requeued/orphaned/wal-replayed`.
pub fn recovery_table(run: &SimSweepRun) -> Table {
    failover_table(run, |r, _| {
        let rec = r.recovery.as_ref().expect("master faults were enabled");
        format!(
            "{}/{}/{}/{}",
            rec.attempts_readopted,
            rec.attempts_requeued,
            rec.attempts_orphaned,
            rec.wal_records_replayed
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{demo_cluster, fig11_workflows};

    #[test]
    fn master_crashes_only_hurt_and_counters_reconcile() {
        let workflows = fig11_workflows();
        let cluster = demo_cluster();
        let intervals = vec![
            ("1m".to_string(), SimDuration::from_mins(1)),
            ("10m".to_string(), SimDuration::from_mins(10)),
        ];
        let crashes = vec![("20m".to_string(), SimTime::from_mins(20))];
        let config = SimConfig {
            seed: 7,
            ..SimConfig::default()
        };
        for wal in [true, false] {
            let sweep = run_failover_sweep(
                &workflows,
                &cluster,
                &intervals,
                &crashes,
                SimDuration::from_mins(2),
                wal,
                &config,
                4,
            );
            assert_eq!(sweep.cells.len(), 3 * SCHEDULERS.len());
            for (key, report) in &sweep.cells {
                if key.get("ckpt").is_none() {
                    continue; // a crash-free baseline
                }
                assert!(report.completed, "{key} wal={wal}");
                let rec = report.recovery.as_ref().expect("master mode");
                assert_eq!(rec.master_crashes, 1);
                if wal {
                    // Lossless recovery loses no attempts.
                    assert_eq!(rec.attempts_requeued + rec.attempts_orphaned, 0);
                }
                // An outage never helps a deadline.
                let base = baseline(&sweep, key);
                assert!(
                    report.deadline_misses() >= base.deadline_misses(),
                    "{key} wal={wal}"
                );
                assert!(report.total_tardiness() >= base.total_tardiness());
            }
            assert_eq!(
                miss_delta_table(&sweep).len(),
                SCHEDULERS.len() * intervals.len()
            );
            assert_eq!(
                recovery_table(&sweep).len(),
                SCHEDULERS.len() * intervals.len()
            );
        }
    }
}
