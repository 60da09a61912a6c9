//! Ablations of the design choices DESIGN.md calls out:
//!
//! - **Resource cap** — uncapped vs fixed caps vs binary-searched minimal
//!   cap, on the Fig 11 scenario (generalizing Fig 2).
//! - **Plan slack** — how much safety margin the plan generator should
//!   reserve for submitter latency and estimation error.
//! - **Heartbeat interval** — sensitivity of deadline outcomes to the
//!   TaskTracker heartbeat period.

use crate::scenarios::{demo_cluster, fig11_workflows};
use crate::table::Table;
use woha_core::{CapMode, PriorityPolicy, WohaConfig, WohaScheduler};
use woha_model::SimDuration;
use woha_sim::{run_simulation, SimConfig, SimReport};

fn run_fig11_with(config_woha: WohaConfig, heartbeat: Option<SimDuration>) -> SimReport {
    let workflows = fig11_workflows();
    let mut cluster = demo_cluster();
    if let Some(hb) = heartbeat {
        cluster = cluster.with_heartbeat(hb);
    }
    let mut scheduler = WohaScheduler::new(config_woha);
    run_simulation(&workflows, &mut scheduler, &cluster, &SimConfig::default())
}

/// Resource-cap ablation: deadline misses and total tardiness on the
/// Fig 11 scenario under different cap modes.
pub fn cap_ablation() -> Table {
    let mut t = Table::new(vec![
        "cap mode",
        "misses",
        "total tardiness(s)",
        "W-3 span(s)",
    ]);
    let modes: Vec<(String, CapMode)> = vec![
        ("uncapped (full 96)".into(), CapMode::Uncapped),
        ("fixed 8".into(), CapMode::Fixed(8)),
        ("fixed 24".into(), CapMode::Fixed(24)),
        ("fixed 48".into(), CapMode::Fixed(48)),
        ("min-feasible (paper)".into(), CapMode::MinFeasible),
    ];
    for (label, cap_mode) in modes {
        let report = run_fig11_with(
            WohaConfig {
                cap_mode,
                ..WohaConfig::new(PriorityPolicy::Lpf, 96)
            },
            None,
        );
        t.row(vec![
            label,
            report.deadline_misses().to_string(),
            format!("{:.0}", report.total_tardiness().as_secs_f64()),
            format!("{:.0}", report.workspans()[2].as_secs_f64()),
        ]);
    }
    t
}

/// Plan-slack ablation on the Fig 11 scenario.
pub fn slack_ablation() -> Table {
    let mut t = Table::new(vec!["plan slack", "misses", "total tardiness(s)"]);
    for slack in [0.0, 0.04, 0.08, 0.16, 0.30] {
        let report = run_fig11_with(
            WohaConfig {
                plan_slack: slack,
                ..WohaConfig::new(PriorityPolicy::Lpf, 96)
            },
            None,
        );
        t.row(vec![
            format!("{slack:.2}"),
            report.deadline_misses().to_string(),
            format!("{:.0}", report.total_tardiness().as_secs_f64()),
        ]);
    }
    t
}

/// Heartbeat-interval ablation on the Fig 11 scenario.
pub fn heartbeat_ablation() -> Table {
    let mut t = Table::new(vec![
        "heartbeat",
        "misses",
        "W-1 span(s)",
        "events processed",
    ]);
    for secs in [1u64, 2, 3, 5, 10] {
        let report = run_fig11_with(
            WohaConfig::new(PriorityPolicy::Lpf, 96),
            Some(SimDuration::from_secs(secs)),
        );
        t.row(vec![
            format!("{secs}s"),
            report.deadline_misses().to_string(),
            format!("{:.0}", report.workspans()[0].as_secs_f64()),
            report.events_processed.to_string(),
        ]);
    }
    t
}

/// Replanning ablation: the Fig 11 scenario under heavy estimation error
/// (±`jitter` on every task duration), with and without mid-flight
/// replanning, across several jitter seeds.
pub fn replan_ablation(jitter: f64, seeds: std::ops::Range<u64>) -> Table {
    let workflows = fig11_workflows();
    let cluster = demo_cluster();
    let mut t = Table::new(vec![
        "seed",
        "misses (static plan)",
        "misses (replan)",
        "replans",
    ]);
    for seed in seeds {
        let config = SimConfig {
            duration_jitter: jitter,
            seed,
            ..SimConfig::default()
        };
        let static_misses = {
            let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
            run_simulation(&workflows, &mut s, &cluster, &config).deadline_misses()
        };
        let mut s = WohaScheduler::new(WohaConfig {
            replan: true,
            ..WohaConfig::new(PriorityPolicy::Lpf, 96)
        });
        let report = run_simulation(&workflows, &mut s, &cluster, &config);
        t.row(vec![
            seed.to_string(),
            static_misses.to_string(),
            report.deadline_misses().to_string(),
            s.replans().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_ablation_shows_min_feasible_wins() {
        let t = cap_ablation();
        let text = t.render();
        // The min-feasible row must report zero misses.
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("min-feasible"), "{text}");
        assert!(
            last.contains("  0  "),
            "min-feasible should meet all: {text}"
        );
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn replan_ablation_never_hurts_on_average() {
        let t = replan_ablation(0.25, 0..4);
        let mut static_total = 0u32;
        let mut replan_total = 0u32;
        for line in t.render().lines().skip(2) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            static_total += cells[1].parse::<u32>().unwrap();
            replan_total += cells[2].parse::<u32>().unwrap();
        }
        assert!(
            replan_total <= static_total + 1,
            "replanning should not hurt: {static_total} -> {replan_total}"
        );
    }

    #[test]
    fn heartbeat_ablation_runs() {
        let t = heartbeat_ablation();
        assert_eq!(t.len(), 5);
        // Coarser heartbeats process fewer events.
        let rows: Vec<u64> = t
            .render()
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(rows[0] > rows[4], "1s heartbeats process more events");
    }
}
