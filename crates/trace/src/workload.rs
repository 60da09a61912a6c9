//! Workloads: sets of workflows with release times and deadlines.
//!
//! Topology generators ([`crate::topology`], [`crate::yahoo`]) produce
//! workflows at submit time zero with no deadline; this module turns them
//! into a scheduling workload by assigning release times and deadlines,
//! the two knobs the paper's evaluation varies.

use crate::rng::Rng;
use woha_model::{SimDuration, SimTime, WorkflowSpec};

/// Reissues template workflows with release times drawn uniformly in
/// `[0, release_window)` and SLA-style deadlines. Templates' own submit
/// times and deadlines are discarded.
///
/// Each relative deadline is drawn uniformly from `[min, max)`,
/// independent of the workflow's size, but floored at
/// `floor_stretch × lower_bound(reference_slots)` so no deadline is
/// outright impossible. This models business deadlines ("the report is
/// due at 9am") that correlate only weakly with workflow length.
pub fn assign(
    templates: &[WorkflowSpec],
    release_window: SimDuration,
    min: SimDuration,
    max: SimDuration,
    floor_stretch: f64,
    reference_slots: u32,
    rng: &mut Rng,
) -> Vec<WorkflowSpec> {
    templates
        .iter()
        .map(|w| {
            let release_time =
                SimTime::from_millis(rng.range_u64(0, release_window.as_millis().max(1)));
            let drawn = SimDuration::from_millis(
                rng.range_u64(min.as_millis(), max.as_millis().max(min.as_millis() + 1)),
            );
            let floor = lower_bound(w, reference_slots).mul_f64(floor_stretch);
            let deadline_time = release_time.saturating_add(drawn.max(floor));
            w.reissued(w.name().to_string(), release_time, deadline_time)
        })
        .collect()
}

/// The tightest conceivable makespan for `w` on a cluster with
/// `reference_slots` slots: the larger of its critical path and its total
/// work divided by the slot count.
pub fn lower_bound(w: &WorkflowSpec, reference_slots: u32) -> SimDuration {
    let cp = w.critical_path();
    let work_ms = w.total_work().as_millis();
    let spread = SimDuration::from_millis(work_ms / u64::from(reference_slots.max(1)));
    cp.max(spread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::chain;
    use woha_model::JobSpec;

    fn templates(n: usize) -> Vec<WorkflowSpec> {
        (0..n)
            .map(|i| {
                chain(format!("w{i}"), 3, |j| {
                    JobSpec::new(
                        format!("j{j}"),
                        4,
                        1,
                        SimDuration::from_secs(30),
                        SimDuration::from_secs(60),
                    )
                })
                .build()
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn uniform_window_within_bounds() {
        let w = assign(
            &templates(50),
            SimDuration::from_mins(10),
            SimDuration::from_mins(5),
            SimDuration::from_mins(20),
            1.0,
            100,
            &mut Rng::new(7),
        );
        assert_eq!(w.len(), 50);
        assert!(w.iter().all(|x| x.submit_time() < SimTime::from_mins(10)));
        // Releases actually spread out.
        let distinct: std::collections::BTreeSet<u64> =
            w.iter().map(|x| x.submit_time().as_millis()).collect();
        assert!(distinct.len() > 40);
    }

    #[test]
    fn lower_bound_uses_work_when_cluster_small() {
        let tpl = &templates(1)[0];
        // Chain of 3 jobs x 90s length: on 100 slots the 270s critical
        // path dominates.
        assert_eq!(lower_bound(tpl, 100), SimDuration::from_secs(270));
        // total work = 3 jobs * (4*30 + 1*60) = 540s; on 1 slot that
        // dominates the 270s critical path.
        assert_eq!(lower_bound(tpl, 1), SimDuration::from_secs(540));
    }
}
