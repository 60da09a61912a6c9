//! Locality and data-plane study: HDFS-style block placement, delay
//! scheduling (Zaharia et al., the paper's related work \[4\]), and the
//! rack-aware recovery extensions, all on the Fig 11 scenario.
//!
//! Two grids in one sweep, both under WOHA-LPF:
//!
//! - the *delay* grid reproduces the classic trade-off on a flat
//!   cluster — 3 replicas, a 1.3x remote penalty, and a growing number of
//!   non-local offers each job may decline;
//! - the *recovery* grid moves the same workload onto a two-rack
//!   cluster, injects correlated rack-switch outages, and compares
//!   location-agnostic re-queues against survivor-preferring ones
//!   ([`LocalityConfig::prefer_survivors`]), with and without re-shuffle
//!   charging ([`woha_sim::SimConfig::reshuffle_cost`]).

use crate::schedulers::SchedulerKind;
use crate::sweep::{CellKey, SimSweep, SimSweepRun};
use crate::table::{fmt_f64, Table};
use serde::{Deserialize, Serialize};
use woha_model::{SimDuration, WorkflowSpec};
use woha_sim::{ClusterConfig, FaultConfig, LocalityConfig, SimConfig, SimReport};

/// The delay-scheduling patience values the full sweep explores.
pub fn delay_points(quick: bool) -> Vec<u32> {
    if quick {
        vec![0, 4]
    } else {
        vec![0, 1, 2, 4, 8]
    }
}

/// The recovery grid's re-shuffle cost axis: free re-fetches vs a
/// 30 s charge per lost map output on every subsequent reduce launch.
pub fn reshuffle_points(quick: bool) -> Vec<(String, SimDuration)> {
    let mut points = vec![("0s".to_string(), SimDuration::ZERO)];
    if !quick {
        points.push(("30s".to_string(), SimDuration::from_secs(30)));
    }
    points
}

/// The locality model shared by every cell: HDFS default replication,
/// a 1.3x remote penalty.
fn base_locality(max_delay_skips: u32, prefer_survivors: bool) -> LocalityConfig {
    LocalityConfig {
        replicas: 3,
        max_delay_skips,
        prefer_survivors,
    }
}

/// The recovery grid's re-queue policy axis: "fresh" is
/// location-agnostic, "survivors" identity-preserving.
pub const RECOVERY_MODES: [&str; 2] = ["fresh", "survivors"];

/// Runs both grids under WOHA-LPF on one pool of up to `jobs` worker
/// threads (`jobs = 1` is the serial path; results are identical for any
/// `jobs`).
///
/// The delay grid keys one cell per `skips` value: `cluster` as given,
/// with that many non-local offers a job may decline. The recovery grid
/// keys one cell per `mode` × `reshuffle` pair: `cluster` split into two
/// racks, with correlated rack-switch outages (rack MTBF 30 m, rack MTTR
/// 8 m — one to two outages inside the Fig 11 horizon). All cells share
/// one seed, so the recovery cells face the same outage schedule and
/// differ only in how lost work is re-queued and charged.
pub fn run_locality_sweep(
    workflows: &[WorkflowSpec],
    cluster: &ClusterConfig,
    delay: &[u32],
    reshuffle: &[(String, SimDuration)],
    config: &SimConfig,
    jobs: usize,
) -> SimSweepRun {
    let mut sweep = SimSweep::new();
    let mut push = |key: CellKey, cluster: &ClusterConfig, config: SimConfig| {
        sweep.push_kinds(&key, &[SchedulerKind::WohaLpf], workflows, cluster, &config);
    };
    for &skips in delay {
        let cfg = SimConfig {
            locality: Some(base_locality(skips, false)),
            ..config.clone()
        };
        push(CellKey::new().with("skips", skips), cluster, cfg);
    }
    let racked = cluster.clone().with_racks(2).with_faults(FaultConfig {
        rack_mtbf: Some(SimDuration::from_mins(30)),
        rack_mttr: Some(SimDuration::from_mins(8)),
        ..FaultConfig::default()
    });
    for mode in RECOVERY_MODES {
        for (label, cost) in reshuffle {
            let cfg = SimConfig {
                locality: Some(base_locality(2, mode == "survivors")),
                reshuffle_cost: *cost,
                ..config.clone()
            };
            let key = CellKey::new().with("mode", mode).with("reshuffle", label);
            push(key, &racked, cfg);
        }
    }
    sweep.run(jobs)
}

/// Patience vs locality ratio, declined offers, misses, and the
/// first workflow's span — one row per delay cell.
pub fn delay_table(run: &SimSweepRun) -> Table {
    let mut t = Table::new(vec![
        "delay skips",
        "locality ratio",
        "offers declined",
        "misses",
        "W-1 span(s)",
    ]);
    for (key, r) in &run.cells {
        let Some(skips) = key.get("skips") else {
            continue;
        };
        t.row(vec![
            skips.to_string(),
            fmt_f64(r.map_locality_ratio()),
            r.delay_skips.to_string(),
            r.deadline_misses().to_string(),
            format!("{:.0}", r.workspans()[0].as_secs_f64()),
        ]);
    }
    t
}

/// Remote map executions of one re-queue `mode`, summed over the
/// re-shuffle axis — the re-execution remote penalty the policy pays.
pub fn remote_maps(run: &SimSweepRun, mode: &str) -> u64 {
    run.cells
        .iter()
        .filter(|(key, _)| key.get("mode") == Some(mode))
        .map(|(_, r)| r.remote_map_tasks)
        .sum()
}

/// One recovery table: `metric` per (re-queue mode, re-shuffle cost).
fn recovery_table(run: &SimSweepRun, metric: impl Fn(&SimReport) -> String) -> Table {
    let header = ("requeue mode", "reshuffle ");
    run.pivot(&["mode"], "reshuffle", header, |_, r| metric(r))
}

/// Locality ratio / remote maps per (mode, re-shuffle cost).
pub fn locality_table(run: &SimSweepRun) -> Table {
    recovery_table(run, |r| {
        format!(
            "{} ({} remote)",
            fmt_f64(r.map_locality_ratio()),
            r.remote_map_tasks
        )
    })
}

/// Data-plane counters per recovery cell: rack outages / survivor
/// re-queues / re-shuffle events / re-shuffle seconds charged.
pub fn data_plane_table(run: &SimSweepRun) -> Table {
    recovery_table(run, |r| {
        let d = r.data_plane.expect("racked cells report the data plane");
        format!(
            "{}/{}/{}/{:.0}",
            d.rack_outages,
            d.survivor_requeues,
            d.reshuffle_events,
            d.reshuffle_charged_ms as f64 / 1000.0
        )
    })
}

/// Deadline misses and end-to-end drain time per recovery cell.
pub fn outcome_table(run: &SimSweepRun) -> Table {
    recovery_table(run, |r| {
        format!(
            "{} misses, drained {:.0}s",
            r.deadline_misses(),
            r.end_time.as_secs_f64()
        )
    })
}

/// One cell of `BENCH_locality.json`'s delay sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayPoint {
    /// Non-local offers a job may decline.
    pub skips: u32,
    /// Fraction of map executions that ran node-local.
    pub locality_ratio: f64,
    /// Offers declined while waiting for a local slot.
    pub offers_declined: u64,
    /// Deadline misses.
    pub misses: u64,
}

/// One cell of `BENCH_locality.json`'s recovery sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPoint {
    /// Re-queue policy ("fresh", "survivors").
    pub mode: String,
    /// Re-shuffle cost label ("0s", "30s").
    pub reshuffle: String,
    /// Fraction of map executions that ran node-local.
    pub locality_ratio: f64,
    /// Map executions that paid the remote penalty.
    pub remote_maps: u64,
    /// Correlated rack outages injected.
    pub rack_outages: u64,
    /// Re-queues that kept their task identity.
    pub survivor_requeues: u64,
    /// Reduce launches that paid a re-shuffle cost.
    pub reshuffle_events: u64,
    /// Simulated seconds charged to re-shuffles.
    pub reshuffle_charged_s: f64,
    /// Deadline misses.
    pub misses: u64,
    /// End-to-end drain time, seconds.
    pub drain_s: f64,
}

/// The full locality study written to `BENCH_locality.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalityStudyReport {
    /// Experiment name (always "locality_study").
    pub experiment: String,
    /// Whether this was the `--quick` CI sweep.
    pub quick: bool,
    /// Number of workflows in the workload.
    pub workflow_count: u64,
    /// Delay sweep: flat cluster, growing patience.
    pub delay: Vec<DelayPoint>,
    /// Recovery sweep: two racks, outages, both re-queue policies.
    pub recovery: Vec<RecoveryPoint>,
}

/// Flattens the two grids into the machine-readable report.
pub fn locality_study_report(run: &SimSweepRun, quick: bool) -> LocalityStudyReport {
    LocalityStudyReport {
        experiment: "locality_study".to_string(),
        quick,
        workflow_count: run.cells[0].1.outcomes.len() as u64,
        delay: run
            .cells
            .iter()
            .filter_map(|(key, r)| {
                Some(DelayPoint {
                    skips: key.get("skips")?.parse().expect("skips is a count"),
                    locality_ratio: r.map_locality_ratio(),
                    offers_declined: r.delay_skips,
                    misses: r.deadline_misses() as u64,
                })
            })
            .collect(),
        recovery: run
            .cells
            .iter()
            .filter_map(|(key, r)| {
                let (mode, reshuffle) = (key.get("mode")?, key.get("reshuffle")?);
                let d = r.data_plane.expect("racked cells report");
                Some(RecoveryPoint {
                    mode: mode.to_string(),
                    reshuffle: reshuffle.to_string(),
                    locality_ratio: r.map_locality_ratio(),
                    remote_maps: r.remote_map_tasks,
                    rack_outages: d.rack_outages,
                    survivor_requeues: d.survivor_requeues,
                    reshuffle_events: d.reshuffle_events,
                    reshuffle_charged_s: d.reshuffle_charged_ms as f64 / 1000.0,
                    misses: r.deadline_misses() as u64,
                    drain_s: r.end_time.as_secs_f64(),
                })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{demo_cluster, fig11_workflows};

    fn quick_sweep(jobs: usize) -> SimSweepRun {
        let (delay, reshuffle) = (delay_points(true), reshuffle_points(true));
        let config = SimConfig::default();
        run_locality_sweep(
            &fig11_workflows(),
            &demo_cluster(),
            &delay,
            &reshuffle,
            &config,
            jobs,
        )
    }

    #[test]
    fn survivor_preference_cuts_remote_reexecution() {
        let sweep = quick_sweep(4);
        let fresh = sweep.report(&[("mode", "fresh"), ("reshuffle", "0s")]);
        let survivors = sweep.report(&[("mode", "survivors"), ("reshuffle", "0s")]);
        let fresh_dp = fresh.data_plane.expect("racked run reports");
        let survivors_dp = survivors.data_plane.expect("racked run reports");
        assert!(fresh_dp.rack_outages > 0, "the outage schedule must fire");
        assert_eq!(fresh_dp.survivor_requeues, 0);
        assert!(survivors_dp.survivor_requeues > 0);
        assert!(
            survivors.remote_map_tasks < fresh.remote_map_tasks,
            "survivor preference must cut remote re-execution \
             ({} vs {} remote maps)",
            survivors.remote_map_tasks,
            fresh.remote_map_tasks,
        );
        assert_eq!(remote_maps(&sweep, "fresh"), fresh.remote_map_tasks);
        // The sweep is jobs-invariant.
        assert_eq!(sweep.cells, quick_sweep(1).cells);
    }

    #[test]
    fn delay_sweep_matches_the_classic_trade_off() {
        let sweep = quick_sweep(2);
        let (impatient, patient) = (
            sweep.report(&[("skips", "0")]),
            sweep.report(&[("skips", "4")]),
        );
        assert!(
            patient.map_locality_ratio() >= impatient.map_locality_ratio(),
            "patience must not hurt locality"
        );
        assert!(patient.delay_skips > 0, "patience declines offers");
        assert_eq!(delay_table(&sweep).len(), 2);
        let report = locality_study_report(&sweep, true);
        assert_eq!(report.delay.len(), 2);
        assert_eq!(report.recovery.len(), 2);
        let json = serde_json::to_string(&report).expect("serializes");
        let back: LocalityStudyReport = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(report, back);
    }
}
