//! The Scheduling Plan Generator (paper §IV-A, Algorithm 1).
//!
//! `generate_reqs` simulates the workflow's execution on `n` fungible slots
//! under the given intra-workflow job priorities and records, for every
//! scheduling step, how many tasks have been scheduled — producing the
//! progress requirement list `F_i`. The paper runs it on the *client*; here
//! `WohaScheduler::on_workflow_submitted` runs it inside the master's
//! submission hook, so its cost is the master's (the benchmark charges it
//! to `core.woha.submit_busy_s`).
//!
//! The resource-cap **improvement** (paper §IV-A "An improvement") binary
//! searches for the smallest cap that still meets the deadline, which makes
//! the plan appropriately pessimistic about competition from other
//! workflows (Fig 2). The search simulates the full cluster once, then
//! answers a probe at cap `c` without simulating when one of two
//! list-scheduling bounds implies the answer:
//!
//! - `c ≥ P`, the peak number of slots the full-cluster run occupies, is
//!   feasible: unless `P` is the whole cluster, no batch of that run was
//!   cut short by free slots, so on `c` slots the schedule is the
//!   full-cluster schedule event for event.
//! - `W > c × budget` is infeasible, where `W = Σ tasks × max(d, 1 ms)` is
//!   the slot-time the simulation charges: at most `c` tasks run at once,
//!   all inside the span, so `c × span ≥ W`.
//!
//! Every other probe is simulated without building a plan, and the plan is
//! built once, from the winning probe's batches. The probe sequence, and
//! so the search's behaviour under Graham's anomaly (below), is unchanged.
//!
//! Two small divergences from the paper's pseudocode, both deliberate:
//!
//! - Algorithm 1 never re-inserts FREE events for scheduled tasks; without
//!   them the simulation deadlocks after the first wave. We emit a FREE
//!   event when each scheduled batch finishes, which is clearly the intent.
//! - Algorithm 1 activates a dependent at `t + R` of the prerequisite whose
//!   reduces were *scheduled last*; we activate it when the last
//!   prerequisite actually *finishes* (matching the real cluster), which
//!   differs only when prerequisite completions interleave unusually.
//!
//! Note that list scheduling is subject to Graham's timing anomaly: adding
//! slots can occasionally *lengthen* the simulated makespan, so the span
//! is only approximately monotone in the cap and the binary search finds
//! the minimum feasible cap up to that anomaly — exactly as the paper's
//! own binary search does.

use crate::plan::{ProgressRequirement, SchedulingPlan};
use crate::priority::JobPriorities;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use woha_model::{JobId, SimDuration, SimTime, WorkflowSpec};

/// How the resource cap for plan generation is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CapMode {
    /// Use the full cluster capacity (the unimproved Algorithm 1).
    Uncapped,
    /// Use a fixed cap.
    Fixed(u32),
    /// Binary search for the minimum cap whose plan still meets the
    /// workflow's relative deadline; falls back to the full capacity when
    /// even that is infeasible (best effort), and to [`CapMode::Uncapped`]
    /// when the workflow has no deadline.
    MinFeasible,
}

/// Proactive failure padding for plan generation.
///
/// Algorithm 1 assumes zero failures: a MinFeasible plan spends its whole
/// deadline budget, so the first lost attempt pushes the workflow straight
/// into rho-rollback. Padding reserves margin up front: the expected rework
/// fraction `r` is estimated from the cluster-wide MTBF and the workflow's
/// own task mix, and the makespan budget handed to the cap search is shrunk
/// to `budget / (1 + r)` — the plan finishes early by exactly the margin
/// the expected rework will consume.
///
/// The rework estimate: a task of duration `d` restarts with probability
/// `~ d / MTBF` (exponential failures), so the expected rework share of the
/// workflow's total work is the work-weighted mean task duration
/// `Σ d²·n / Σ d·n` over MTBF. The fraction is capped at
/// [`PadConfig::MAX_FRACTION`] so a tiny MTBF cannot collapse the budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PadConfig {
    /// Cluster-wide mean time between node failures.
    pub cluster_mtbf: SimDuration,
}

impl PadConfig {
    /// The rework fraction is never allowed to exceed this, bounding how
    /// much of the deadline budget padding can take.
    pub const MAX_FRACTION: f64 = 0.5;

    /// Fractions below this snap to exactly zero, so an effectively
    /// infinite MTBF yields a plan bit-identical to the unpadded one
    /// (no `1/(1+ε)` rounding residue).
    pub const MIN_FRACTION: f64 = 1e-6;

    /// Padding against the given cluster-wide MTBF.
    pub fn new(cluster_mtbf: SimDuration) -> Self {
        PadConfig { cluster_mtbf }
    }
}

/// The expected rework fraction for `workflow` under `pad`: the share of
/// scheduled work expected to be redone due to node failures. Exactly
/// `0.0` when the MTBF is effectively infinite (see
/// [`PadConfig::MIN_FRACTION`]).
pub fn rework_fraction(workflow: &WorkflowSpec, pad: &PadConfig) -> f64 {
    let mtbf_ms = pad.cluster_mtbf.as_millis();
    if mtbf_ms == 0 {
        return 0.0;
    }
    // Work-weighted mean task duration Σ d²·n / Σ d·n: long tasks both
    // hold more work hostage and are likelier to be interrupted.
    let (mut weighted, mut work) = (0.0f64, 0.0f64);
    for j in workflow.job_ids() {
        let spec = workflow.job(j);
        let md = spec.map_duration().as_millis() as f64;
        let rd = spec.reduce_duration().as_millis() as f64;
        let m = f64::from(spec.map_tasks());
        let r = f64::from(spec.reduce_tasks());
        weighted += m * md * md + r * rd * rd;
        work += m * md + r * rd;
    }
    if work <= 0.0 {
        return 0.0;
    }
    let fraction = (weighted / work) / (mtbf_ms as f64);
    if fraction < PadConfig::MIN_FRACTION {
        0.0
    } else {
        fraction.min(PadConfig::MAX_FRACTION)
    }
}

/// Shrinks a makespan budget to reserve margin for the expected rework
/// fraction: `budget / (1 + fraction)`, floored at 1ms. A zero fraction or
/// an unbounded budget passes through untouched.
pub fn padded_budget(budget: SimDuration, fraction: f64) -> SimDuration {
    if fraction <= 0.0 || budget == SimDuration::MAX {
        return budget;
    }
    let padded = (budget.as_millis() as f64 / (1.0 + fraction)) as u64;
    SimDuration::from_millis(padded.max(1))
}

/// One event of the list schedule. Simultaneous events pop in insertion
/// order (the heap key is `(time, seq, event)` with a unique `seq`), so
/// the derived ordering of the payload is never consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum MiniEvent {
    /// `value` slots become free.
    Free(u32),
    /// The job's prerequisites are satisfied, or its maps have finished;
    /// it joins the active queue.
    Add(usize),
    /// A job's last tasks finish; dependents may activate.
    Complete(usize),
}

#[derive(Debug, Clone, Copy)]
struct MiniJob {
    maps_left: u32,
    reduces_left: u32,
    map_duration: SimDuration,
    reduce_duration: SimDuration,
    prereqs_left: usize,
    /// Completion time of the job's last scheduled phase so far.
    finish: SimTime,
}

/// Algorithm 1's list schedule of one workflow. Its buffers outlive a
/// run, so the probes of one cap search allocate nothing after the first.
struct ListSchedule<'a> {
    workflow: &'a WorkflowSpec,
    priorities: &'a JobPriorities,
    initial: Vec<MiniJob>,
    jobs: Vec<MiniJob>,
    events: BinaryHeap<Reverse<(SimTime, u64, MiniEvent)>>,
    /// Jobs whose prerequisites are satisfied, ordered by priority (rank
    /// descending, id ascending). Small, so a sorted Vec.
    active: Vec<usize>,
}

impl<'a> ListSchedule<'a> {
    fn new(workflow: &'a WorkflowSpec, priorities: &'a JobPriorities) -> Self {
        let initial = workflow
            .job_ids()
            .map(|j| {
                let spec = workflow.job(j);
                MiniJob {
                    maps_left: spec.map_tasks(),
                    reduces_left: spec.reduce_tasks(),
                    map_duration: spec.map_duration(),
                    reduce_duration: spec.reduce_duration(),
                    prereqs_left: workflow.prerequisites(j).len(),
                    finish: SimTime::ZERO,
                }
            })
            .collect();
        ListSchedule {
            workflow,
            priorities,
            initial,
            jobs: Vec::new(),
            events: BinaryHeap::new(),
            active: Vec::new(),
        }
    }

    /// `W`: the slot-time the schedule charges, `Σ tasks × max(d, 1 ms)`,
    /// in milliseconds. No run on `c` slots spans less than `W / c`.
    fn slot_time(&self) -> u128 {
        let charged = |d: SimDuration| u128::from(d.max(SimDuration::from_millis(1)).as_millis());
        self.initial
            .iter()
            .map(|j| {
                u128::from(j.maps_left) * charged(j.map_duration)
                    + u128::from(j.reduces_left) * charged(j.reduce_duration)
            })
            .sum()
    }

    /// Simulates the workflow on `cap` slots and returns its span and the
    /// peak number of slots it occupies. `batches` is refilled with one
    /// `(t, cumulative tasks scheduled)` per scheduling batch.
    fn run(&mut self, cap: u32, batches: &mut Vec<(SimTime, u64)>) -> (SimDuration, u32) {
        let (jobs, events, active) = (&mut self.jobs, &mut self.events, &mut self.active);
        jobs.clone_from(&self.initial);
        active.clear();
        batches.clear();
        // Event queue ordered by (time, seq) for determinism.
        let mut seq = 0u64;
        let mut push = |events: &mut BinaryHeap<_>, t: SimTime, e: MiniEvent| {
            events.push(Reverse((t, seq, e)));
            seq += 1;
        };
        // Nothing is scheduled before the first `Free` pops, so the ready
        // set joining one job per event is the same as joining at once.
        for (j, job) in jobs.iter().enumerate() {
            if job.prereqs_left == 0 {
                push(events, SimTime::ZERO, MiniEvent::Add(j));
            }
        }
        push(events, SimTime::ZERO, MiniEvent::Free(cap));

        let (mut free_slots, mut peak) = (0u32, 0u32);
        let mut scheduled = 0u64; // cumulative tasks scheduled
        let mut last_time = SimTime::ZERO;
        while let Some(Reverse((t, _, event))) = events.pop() {
            last_time = t;
            match event {
                MiniEvent::Free(k) => free_slots += k,
                MiniEvent::Add(j) => {
                    let pos = active.partition_point(|&other| {
                        self.priorities
                            .beats(JobId::new(other as u32), JobId::new(j as u32))
                    });
                    active.insert(pos, j);
                }
                MiniEvent::Complete(j) => {
                    for dep in self.workflow.dependents(JobId::new(j as u32)) {
                        let d = dep.index();
                        jobs[d].prereqs_left -= 1;
                        if jobs[d].prereqs_left == 0 {
                            push(events, t, MiniEvent::Add(d));
                        }
                    }
                }
            }
            // Work-conservingly drain free slots into the highest-priority
            // active job (the paper's Line 14-34, looped until starved).
            while free_slots > 0 && !active.is_empty() {
                let j = active[0];
                let job = &mut jobs[j];
                let maps = job.maps_left > 0;
                let (left, duration) = if maps {
                    (&mut job.maps_left, job.map_duration)
                } else {
                    (&mut job.reduces_left, job.reduce_duration)
                };
                let n = (*left).min(free_slots);
                *left -= n;
                let phase_done = *left == 0;
                // Slots in use once the batch starts; a batch needs a free
                // slot even when it starts nothing (a task-less job).
                peak = peak.max(cap - free_slots + n.max(1));
                free_slots -= n;
                scheduled += u64::from(n);
                batches.push((t, scheduled));
                let done_at = t + duration.max(SimDuration::from_millis(1));
                push(events, done_at, MiniEvent::Free(n));
                job.finish = job.finish.max(done_at);
                if phase_done {
                    active.remove(0);
                    // The reduce phase can start once all maps finish.
                    let next = if maps && job.reduces_left > 0 {
                        MiniEvent::Add(j)
                    } else {
                        MiniEvent::Complete(j)
                    };
                    push(events, job.finish, next);
                }
            }
        }

        debug_assert_eq!(
            scheduled,
            self.workflow.total_tasks(),
            "all tasks scheduled"
        );
        debug_assert!(
            jobs.iter().all(|j| j.prereqs_left == 0),
            "plan simulation finished every job"
        );
        (last_time.saturating_since(SimTime::ZERO), peak)
    }
}

/// Builds the plan of a run on `cap` slots from its batches: batches at
/// the same instant merge, and times convert to ttd.
fn plan_from(
    workflow: &WorkflowSpec,
    priorities: &JobPriorities,
    cap: u32,
    span: SimDuration,
    batches: &[(SimTime, u64)],
) -> SchedulingPlan {
    let mut requirements: Vec<ProgressRequirement> = Vec::with_capacity(batches.len());
    for &(t, cumulative) in batches {
        let ttd = span.saturating_sub(t.saturating_since(SimTime::ZERO));
        match requirements.last_mut() {
            Some(last) if last.ttd == ttd => last.cumulative = cumulative,
            _ => requirements.push(ProgressRequirement { ttd, cumulative }),
        }
    }
    SchedulingPlan::new(
        priorities.policy(),
        cap,
        priorities.order().to_vec(),
        requirements,
        span,
        workflow.total_tasks(),
    )
}

/// Runs Algorithm 1: simulates `workflow` on `cap` fungible slots under
/// `priorities` and returns the scheduling plan.
///
/// # Panics
///
/// Panics if `cap == 0`.
pub fn generate_reqs(
    workflow: &WorkflowSpec,
    priorities: &JobPriorities,
    cap: u32,
) -> SchedulingPlan {
    assert!(cap > 0, "resource cap must be positive");
    let mut batches = Vec::new();
    let (span, _) = ListSchedule::new(workflow, priorities).run(cap, &mut batches);
    plan_from(workflow, priorities, cap, span, &batches)
}

/// Generates the scheduling plan for `workflow` under the chosen
/// [`CapMode`], where `total_slots` is the cluster capacity reported by the
/// JobTracker.
///
/// # Panics
///
/// Panics if `total_slots == 0` or a fixed cap is 0.
pub fn generate_plan(
    workflow: &WorkflowSpec,
    priorities: &JobPriorities,
    total_slots: u32,
    mode: CapMode,
) -> SchedulingPlan {
    let budget = if workflow.deadline() == SimTime::MAX {
        SimDuration::MAX
    } else {
        workflow.relative_deadline()
    };
    generate_plan_with_budget(workflow, priorities, total_slots, mode, budget)
}

/// Like [`generate_plan`], but with an explicit makespan budget for the
/// [`CapMode::MinFeasible`] search instead of the workflow's own relative
/// deadline — used to reserve safety slack.
///
/// # Panics
///
/// Panics if `total_slots == 0`.
pub fn generate_plan_with_budget(
    workflow: &WorkflowSpec,
    priorities: &JobPriorities,
    total_slots: u32,
    mode: CapMode,
    budget: SimDuration,
) -> SchedulingPlan {
    assert!(total_slots > 0, "cluster must have slots");
    match mode {
        CapMode::Uncapped => generate_reqs(workflow, priorities, total_slots),
        CapMode::Fixed(cap) => generate_reqs(workflow, priorities, cap.min(total_slots)),
        CapMode::MinFeasible => {
            let mut schedule = ListSchedule::new(workflow, priorities);
            let mut best = Vec::new();
            let (mut best_span, peak) = schedule.run(total_slots, &mut best);
            let mut best_cap = total_slots;
            // No deadline, or even the whole cluster cannot make it: ship
            // the most aggressive plan we have (best effort).
            let unbounded = workflow.deadline() == SimTime::MAX && budget == SimDuration::MAX;
            if !unbounded && best_span <= budget {
                // Binary search the minimum feasible cap in [1, total_slots],
                // simulating only the probes the module doc's two rules do
                // not answer. Until a simulated probe succeeds, `best` holds
                // the full-cluster batches, which every cap ≥ `peak` shares.
                let work = schedule.slot_time();
                let mut probe = Vec::new();
                let (mut lo, mut hi) = (1u32, total_slots);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let feasible = if mid >= peak {
                        true
                    } else if work > u128::from(mid) * u128::from(budget.as_millis()) {
                        false
                    } else {
                        let (span, _) = schedule.run(mid, &mut probe);
                        let fits = span <= budget;
                        if fits {
                            std::mem::swap(&mut best, &mut probe);
                            best_span = span;
                        }
                        fits
                    };
                    if feasible {
                        best_cap = mid;
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
            }
            plan_from(workflow, priorities, best_cap, best_span, &best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::PriorityPolicy;
    use woha_model::{JobSpec, WorkflowBuilder};
    use woha_trace::{drain, GeneratorSource, YahooTraceConfig};

    /// A two-job chain: J1 (3 maps x 1s, 3 reduces x 1s) -> J2 (same) —
    /// the workflow of the paper's Fig 2.
    fn fig2_workflow(deadline_secs: u64) -> WorkflowSpec {
        let mut b = WorkflowBuilder::new("fig2");
        let j1 = b.add_job(JobSpec::new(
            "j1",
            3,
            3,
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
        ));
        let j2 = b.add_job(JobSpec::new(
            "j2",
            3,
            3,
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
        ));
        b.add_dependency(j1, j2);
        b.relative_deadline(SimDuration::from_secs(deadline_secs));
        b.build().unwrap()
    }

    fn hlf(w: &WorkflowSpec) -> JobPriorities {
        JobPriorities::compute(w, PriorityPolicy::Hlf)
    }

    #[test]
    fn uncapped_fig2_span_is_4() {
        // With 6 slots: maps of J1 at t=0 (3 slots), reduces at t=1,
        // maps of J2 at t=2, reduces at t=3, done at t=4.
        let w = fig2_workflow(9);
        let plan = generate_reqs(&w, &hlf(&w), 6);
        assert_eq!(plan.span(), SimDuration::from_secs(4));
        assert_eq!(plan.total_tasks(), 12);
        // Fig 2(a)'s problem: the plan requires nothing until 4 time units
        // before the deadline.
        assert_eq!(plan.required_at(SimDuration::from_secs(5)), 0);
        assert_eq!(plan.required_at(SimDuration::from_secs(4)), 3);
    }

    #[test]
    fn capped_fig2_span_stretches() {
        // With cap 2: each phase takes ceil(3/2) = 2 waves of 1s: total 8s.
        let w = fig2_workflow(9);
        let plan = generate_reqs(&w, &hlf(&w), 2);
        assert_eq!(plan.span(), SimDuration::from_secs(8));
        // Requirements now start early (Fig 2(b)).
        assert_eq!(plan.required_at(SimDuration::from_secs(8)), 2);
    }

    #[test]
    fn min_feasible_cap_picks_smallest_that_meets_deadline() {
        let w = fig2_workflow(9);
        let plan = generate_plan(&w, &hlf(&w), 6, CapMode::MinFeasible);
        // cap 2 yields span 8 <= 9; cap 1 yields span 12 > 9.
        assert_eq!(plan.resource_cap(), 2);
        assert!(plan.span() <= SimDuration::from_secs(9));
        let one = generate_reqs(&w, &hlf(&w), 1);
        assert!(one.span() > SimDuration::from_secs(9));
    }

    #[test]
    fn min_feasible_with_loose_deadline_goes_to_one_slot() {
        let w = fig2_workflow(50);
        let plan = generate_plan(&w, &hlf(&w), 6, CapMode::MinFeasible);
        assert_eq!(plan.resource_cap(), 1);
        assert_eq!(plan.span(), SimDuration::from_secs(12));
    }

    #[test]
    fn min_feasible_infeasible_falls_back_to_full() {
        let w = fig2_workflow(2);
        let plan = generate_plan(&w, &hlf(&w), 6, CapMode::MinFeasible);
        assert_eq!(plan.resource_cap(), 6);
    }

    #[test]
    fn cap_modes_fixed_and_uncapped() {
        let w = fig2_workflow(9);
        let p = generate_plan(&w, &hlf(&w), 6, CapMode::Fixed(3));
        assert_eq!(p.resource_cap(), 3);
        let p = generate_plan(&w, &hlf(&w), 6, CapMode::Uncapped);
        assert_eq!(p.resource_cap(), 6);
        // Fixed caps are clamped to the cluster size.
        let p = generate_plan(&w, &hlf(&w), 6, CapMode::Fixed(100));
        assert_eq!(p.resource_cap(), 6);
    }

    #[test]
    fn plan_accounts_every_task() {
        let w = fig2_workflow(9);
        for cap in 1..=8 {
            let plan = generate_reqs(&w, &hlf(&w), cap);
            assert_eq!(
                plan.requirements().last().unwrap().cumulative,
                w.total_tasks(),
                "cap {cap}"
            );
            assert_eq!(plan.required_at(SimDuration::ZERO), w.total_tasks());
        }
    }

    /// A fact about Fig 2's workflow, not a law: list scheduling is subject
    /// to Graham's anomaly, so on other workflows one more slot can lengthen
    /// the span (`graham_anomaly_keeps_reference_cap` in
    /// `tests/invariants.rs` is one).
    #[test]
    fn span_is_monotone_in_cap() {
        let w = fig2_workflow(9);
        let mut last_span = SimDuration::MAX;
        for cap in 1..=8 {
            let plan = generate_reqs(&w, &hlf(&w), cap);
            assert!(
                plan.span() <= last_span,
                "span should shrink with more slots"
            );
            last_span = plan.span();
        }
    }

    #[test]
    fn reduce_phase_waits_for_all_maps() {
        // One job, 4 maps x 10s, 2 reduces x 5s, cap 2: map waves at 0 and
        // 10; reduces only at t=20; span 25.
        let mut b = WorkflowBuilder::new("w");
        b.add_job(JobSpec::new(
            "j",
            4,
            2,
            SimDuration::from_secs(10),
            SimDuration::from_secs(5),
        ));
        b.relative_deadline(SimDuration::from_mins(5));
        let w = b.build().unwrap();
        let plan = generate_reqs(&w, &hlf(&w), 2);
        assert_eq!(plan.span(), SimDuration::from_secs(25));
        // At ttd = span - 20 = 5s, all 6 tasks must be scheduled.
        assert_eq!(plan.required_at(SimDuration::from_secs(5)), 6);
        // Just before the reduce wave only the 4 maps are required.
        assert_eq!(plan.required_at(SimDuration::from_secs(6)), 4);
    }

    #[test]
    fn map_only_jobs_complete_and_unlock_dependents() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.add_job(JobSpec::new(
            "a",
            2,
            0,
            SimDuration::from_secs(10),
            SimDuration::ZERO,
        ));
        let z = b.add_job(JobSpec::new(
            "z",
            1,
            0,
            SimDuration::from_secs(10),
            SimDuration::ZERO,
        ));
        b.add_dependency(a, z);
        b.relative_deadline(SimDuration::from_mins(5));
        let w = b.build().unwrap();
        let plan = generate_reqs(&w, &hlf(&w), 4);
        assert_eq!(plan.span(), SimDuration::from_secs(20));
        assert_eq!(plan.total_tasks(), 3);
    }

    #[test]
    fn diamond_respects_priorities() {
        // a -> {b, c} -> d where c's chain is heavier: LPF schedules c's
        // tasks before b's when slots are scarce.
        let mut b = WorkflowBuilder::new("w");
        let ja = b.add_job(JobSpec::new(
            "a",
            1,
            0,
            SimDuration::from_secs(1),
            SimDuration::ZERO,
        ));
        let jb = b.add_job(JobSpec::new(
            "b",
            1,
            0,
            SimDuration::from_secs(1),
            SimDuration::ZERO,
        ));
        let jc = b.add_job(JobSpec::new(
            "c",
            1,
            0,
            SimDuration::from_secs(100),
            SimDuration::ZERO,
        ));
        let jd = b.add_job(JobSpec::new(
            "d",
            1,
            0,
            SimDuration::from_secs(1),
            SimDuration::ZERO,
        ));
        b.add_dependency(ja, jb);
        b.add_dependency(ja, jc);
        b.add_dependency(jb, jd);
        b.add_dependency(jc, jd);
        b.relative_deadline(SimDuration::from_mins(60));
        let w = b.build().unwrap();
        let lpf = JobPriorities::compute(&w, PriorityPolicy::Lpf);
        let plan = generate_reqs(&w, &lpf, 1);
        // Span = 1 (a) + 100 (c) + 1 (b) + 1 (d): b runs during/after c
        // under one slot; critical span 103.
        assert_eq!(plan.span(), SimDuration::from_secs(103));
    }

    #[test]
    fn rework_fraction_scales_with_mtbf() {
        let w = fig2_workflow(9);
        // All tasks are 1s, so the work-weighted mean duration is 1s and
        // the fraction is simply 1s / MTBF.
        let pad = PadConfig::new(SimDuration::from_secs(100));
        assert!((rework_fraction(&w, &pad) - 0.01).abs() < 1e-12);
        let half = PadConfig::new(SimDuration::from_secs(50));
        assert!((rework_fraction(&w, &half) - 0.02).abs() < 1e-12);
        // A tiny MTBF is capped, not allowed to consume the whole budget.
        let churn = PadConfig::new(SimDuration::from_millis(10));
        assert_eq!(rework_fraction(&w, &churn), PadConfig::MAX_FRACTION);
    }

    #[test]
    fn rework_fraction_is_exactly_zero_at_infinite_mtbf() {
        let w = fig2_workflow(9);
        let pad = PadConfig::new(SimDuration::MAX);
        assert_eq!(rework_fraction(&w, &pad), 0.0);
        assert_eq!(
            padded_budget(SimDuration::from_secs(9), rework_fraction(&w, &pad)),
            SimDuration::from_secs(9)
        );
    }

    #[test]
    fn padded_budget_reserves_margin() {
        let budget = SimDuration::from_secs(100);
        assert_eq!(padded_budget(budget, 0.25), SimDuration::from_secs(80));
        assert_eq!(padded_budget(budget, 0.0), budget);
        assert_eq!(padded_budget(SimDuration::MAX, 0.25), SimDuration::MAX);
        // Floors at 1ms rather than producing a zero budget.
        assert_eq!(
            padded_budget(SimDuration::from_millis(1), 0.5),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn padding_tightens_the_min_feasible_cap() {
        // Unpadded, a 9s deadline is met with cap 2 (span 8s). Padded by
        // 20%, the budget shrinks to 7.5s, forcing a bigger cap.
        let w = fig2_workflow(9);
        let budget = padded_budget(SimDuration::from_secs(9), 0.2);
        let padded = generate_plan_with_budget(&w, &hlf(&w), 6, CapMode::MinFeasible, budget);
        assert!(padded.resource_cap() > 2);
        assert!(padded.span() <= budget);
    }

    /// `count` Yahoo-like workflows (2–12 jobs) from a fixed seed, with
    /// task counts capped as the benchmark's Yahoo workloads cap them and
    /// relative deadlines `stretch` × the critical path.
    fn yahoo_population(
        count: usize,
        map_count_max: u32,
        reduce_count_max: u32,
        stretch: f64,
    ) -> Vec<WorkflowSpec> {
        let config = YahooTraceConfig {
            map_count_max,
            reduce_count_max,
            ..YahooTraceConfig::default()
        };
        drain(&mut GeneratorSource::new(
            config,
            20140614,
            count,
            SimDuration::from_secs(45),
            stretch,
        ))
    }

    #[test]
    fn implied_answers_hold_at_every_cap() {
        // The cap search's two shortcuts, checked against a simulation at
        // every cap: at `c ≥ P` the plan is the full-cluster plan, and no
        // span beats the slot-time bound `W / c`.
        let total = 64;
        let mut unsaturated = 0;
        for w in yahoo_population(12, 40, 10, 3.0) {
            for policy in [
                PriorityPolicy::Hlf,
                PriorityPolicy::Lpf,
                PriorityPolicy::Mpf,
            ] {
                let pri = JobPriorities::compute(&w, policy);
                let mut schedule = ListSchedule::new(&w, &pri);
                let (_, peak) = schedule.run(total, &mut Vec::new());
                let work = schedule.slot_time();
                let full = generate_reqs(&w, &pri, total);
                unsaturated += usize::from(peak < total);
                for cap in 1..=total {
                    let plan = generate_reqs(&w, &pri, cap);
                    if cap >= peak {
                        assert_eq!(plan.requirements(), full.requirements(), "cap {cap}");
                        assert_eq!(plan.span(), full.span(), "cap {cap}");
                    }
                    let charged = u128::from(plan.span().as_millis()) * u128::from(cap);
                    assert!(charged >= work, "{}: cap {cap}", w.name());
                }
            }
        }
        assert!(unsaturated > 0, "some full-cluster run leaves slots idle");
    }

    #[test]
    fn yahoo_population_cap_search_vs_linear_scan() {
        // How often the binary search returns a cap that is not the
        // smallest feasible one (Graham's anomaly makes the span
        // non-monotone in the cap), on the benchmark's Yahoo population and
        // cluster, as the deadline stretch tightens. The scan simulates
        // each cap without building a plan, from the slot-time bound up (no
        // smaller cap is feasible). Counted, not changed: the search keeps
        // its probe sequence.
        let total = 480;
        let mut batches = Vec::new();
        for (stretch, want) in [(3.0, 0), (1.2, 7), (1.05, 11)] {
            let mut differ = 0;
            for w in yahoo_population(400, 200, 40, stretch) {
                let pri = JobPriorities::compute(&w, PriorityPolicy::Lpf);
                let budget = w.relative_deadline();
                let searched = generate_plan(&w, &pri, total, CapMode::MinFeasible).resource_cap();
                let mut schedule = ListSchedule::new(&w, &pri);
                assert!(
                    schedule.run(total, &mut batches).0 <= budget,
                    "{}",
                    w.name()
                );
                let floor = schedule
                    .slot_time()
                    .div_ceil(u128::from(budget.as_millis()));
                let first = u32::try_from(floor).unwrap_or(total).clamp(1, total);
                let scanned = (first..=total)
                    .find(|&c| schedule.run(c, &mut batches).0 <= budget)
                    .unwrap_or(total);
                assert!(scanned <= searched, "{}", w.name());
                differ += usize::from(scanned != searched);
            }
            assert_eq!(
                differ, want,
                "non-minimal caps among 400 at stretch {stretch}"
            );
        }
    }

    #[test]
    fn plan_sizes_stay_small() {
        // A workflow with many tasks still yields a compact plan: entry
        // count is bounded by scheduling batches, not tasks.
        let mut b = WorkflowBuilder::new("big");
        for i in 0..20 {
            b.add_job(JobSpec::new(
                format!("j{i}"),
                70,
                7,
                SimDuration::from_secs(30),
                SimDuration::from_secs(60),
            ));
        }
        b.relative_deadline(SimDuration::from_mins(600));
        let w = b.build().unwrap();
        assert!(w.total_tasks() > 1_400);
        let plan = generate_reqs(&w, &hlf(&w), 100);
        assert!(
            plan.encoded_size_bytes() < 7 * 1024,
            "plan is {} bytes",
            plan.encoded_size_bytes()
        );
    }
}
