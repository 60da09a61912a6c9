//! The ready-accounting early-out leaves every scheduling decision where
//! it was: on random mid-execution pools, `assign_task` returns what a full walk of the priority order returns,
//! `assign_batch` returns what that many sequential `assign_task` probes
//! return (also when asked for more tasks than are eligible, and when a
//! batch drains one job of a fork and spills into its sibling or into the
//! next workflow), the `SchedTrace::Pick` ranks agree, `blocked` is
//! `rank − 1` on a batch pick and `0` on a per-slot pick, and no offer —
//! empty or not — leaves a progress record behind its plan's clock.

use proptest::collection::vec;
use proptest::prelude::*;
use woha_core::{PriorityPolicy, WohaConfig, WohaScheduler};
use woha_model::{
    JobId, JobSpec, SimDuration, SimTime, SlotKind, WorkflowBuilder, WorkflowId, WorkflowSpec,
};
use woha_sim::{JobPhase, SchedTrace, WorkflowPool, WorkflowScheduler};

/// How a shape's jobs depend on each other. Everything but a chain has
/// several jobs active at once, so one batch can claim from two jobs of
/// one workflow.
#[derive(Debug, Clone, Copy)]
enum Topology {
    /// `j0 → j1 → …`
    Chain,
    /// `j0 → {j1, j2, …}`
    Fork,
    /// `j0 → {j1, …} → j_last` (a fork when there are under three jobs).
    Diamond,
    /// No edges: every job is a root.
    Independent,
}

const TOPOLOGIES: [Topology; 4] = [
    Topology::Chain,
    Topology::Fork,
    Topology::Diamond,
    Topology::Independent,
];

/// 1–4 jobs as `(maps, reduces, task seconds)`, the relative deadline in
/// seconds, and the edges between the jobs.
type Shape = (Vec<(u32, u32, u64)>, u64, Topology);

fn build(name: &str, (jobs, deadline_s, topology): &Shape, submit: SimTime) -> WorkflowSpec {
    let mut b = WorkflowBuilder::new(name);
    let ids: Vec<JobId> = jobs
        .iter()
        .enumerate()
        .map(|(i, &(maps, reduces, secs))| {
            let d = SimDuration::from_secs(secs);
            b.add_job(JobSpec::new(format!("j{i}"), maps, reduces, d, d))
        })
        .collect();
    let last = ids.len() - 1;
    for i in 1..ids.len() {
        match topology {
            Topology::Chain => {
                b.add_dependency(ids[i - 1], ids[i]);
            }
            Topology::Fork => {
                b.add_dependency(ids[0], ids[i]);
            }
            Topology::Diamond if i == last && last >= 2 => {
                for &mid in &ids[1..last] {
                    b.add_dependency(mid, ids[last]);
                }
            }
            Topology::Diamond => {
                b.add_dependency(ids[0], ids[i]);
            }
            Topology::Independent => {}
        }
    }
    b.submit_at(submit);
    b.relative_deadline(SimDuration::from_secs(*deadline_s));
    b.build().expect("every topology is acyclic")
}

fn scheduler() -> WohaScheduler {
    let mut s = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 8));
    s.set_tracing(true);
    s
}

/// The full-walk reference: every workflow the scheduler has queued, in
/// priority order (lag descending, deadline ascending, id ascending), the
/// first with an eligible job in its plan's job order wins. Consults no
/// counter. Returns the pick and its 1-based rank in the walk.
fn full_walk(
    sched: &WohaScheduler,
    pool: &WorkflowPool,
    kind: SlotKind,
) -> Option<(WorkflowId, JobId, u32)> {
    let mut order: Vec<_> = pool
        .workflows()
        .iter()
        .filter_map(|w| sched.progress(w.id()))
        .map(|r| (std::cmp::Reverse(r.lag()), r.deadline(), r.id()))
        .collect();
    order.sort();
    order.iter().zip(1..).find_map(|(&(.., wf), rank)| {
        let plan = sched.progress(wf).expect("queued").plan();
        let job = plan
            .job_order()
            .iter()
            .find(|&&j| pool.eligible(wf, j, kind))?;
        Some((wf, *job, rank))
    })
}

/// `(rank, blocked)` of the `Pick` records buffered since the last drain.
fn drain_picks(sched: &mut WohaScheduler) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    sched.drain_trace(&mut out);
    out.iter()
        .filter_map(|t| match t {
            SchedTrace::Pick { rank, blocked, .. } => Some((*rank, *blocked)),
            _ => None,
        })
        .collect()
}

/// A pool and two schedulers fed the same notifications: `batch` answers
/// offers through `assign_batch`, `probe` through sequential `assign_task`
/// calls, each of which is held to the full walk.
struct Rig {
    pool: WorkflowPool,
    batch: WohaScheduler,
    probe: WohaScheduler,
    now: SimTime,
    /// Registered in the pool, never submitted to the schedulers.
    ghost: Option<WorkflowId>,
}

impl Rig {
    fn new() -> Self {
        Rig {
            pool: WorkflowPool::new(),
            batch: scheduler(),
            probe: scheduler(),
            now: SimTime::ZERO,
            ghost: None,
        }
    }

    fn each(&mut self, mut f: impl FnMut(&mut WohaScheduler, &WorkflowPool)) {
        f(&mut self.batch, &self.pool);
        f(&mut self.probe, &self.pool);
    }

    fn arrive(&mut self, shape: &Shape) {
        let spec = build("w", shape, self.now);
        let roots = spec.initially_ready();
        let wf = self.pool.register(spec);
        let now = self.now;
        self.each(|s, pool| s.on_workflow_submitted(pool, wf, now));
        for job in roots {
            self.pool.workflow_mut(wf).begin_submitting(job);
        }
    }

    /// A workflow with one ready map the schedulers never hear about: the
    /// pool's counters say "ready" while no queue holds it.
    fn arrive_ghost(&mut self) {
        if self.ghost.is_some() {
            return;
        }
        let wf = self.pool.register(build(
            "ghost",
            &(vec![(1, 1, 10)], 600, Topology::Chain),
            self.now,
        ));
        self.pool.workflow_mut(wf).begin_submitting(JobId::new(0));
        self.pool.workflow_mut(wf).activate(JobId::new(0), self.now);
        self.ghost = Some(wf);
    }

    /// `(workflow, job)` pairs of queued workflows satisfying `pred`.
    fn sites(&self, pred: impl Fn(&woha_sim::JobState) -> bool) -> Vec<(WorkflowId, JobId)> {
        let mut out = Vec::new();
        for w in self.pool.workflows() {
            if Some(w.id()) == self.ghost {
                continue;
            }
            out.extend(
                w.spec()
                    .job_ids()
                    .filter(|&j| pred(w.job(j)))
                    .map(|j| (w.id(), j)),
            );
        }
        out
    }

    fn activate(&mut self, site: usize) {
        let sites = self.sites(|j| j.phase() == JobPhase::Submitting);
        if sites.is_empty() {
            return;
        }
        let (wf, job) = sites[site % sites.len()];
        let now = self.now;
        self.pool.workflow_mut(wf).activate(job, now);
        self.each(|s, pool| s.on_job_activated(pool, wf, job, now));
    }

    fn finish(&mut self, site: usize, kind: SlotKind) {
        let sites = self.sites(|j| running(j, kind) > 0);
        if sites.is_empty() {
            return;
        }
        let (wf, job) = sites[site % sites.len()];
        let now = self.now;
        if !self.pool.workflow_mut(wf).finish_task(job, kind, now) {
            return;
        }
        self.each(|s, pool| s.on_job_completed(pool, wf, job, now));
        let deps: Vec<JobId> = self.pool.workflow(wf).spec().dependents(job).to_vec();
        for dep in deps {
            if self.pool.workflow_mut(wf).satisfy_prereq(dep) {
                self.pool.workflow_mut(wf).begin_submitting(dep);
            }
        }
        if self.pool.workflow(wf).is_complete() {
            self.each(|s, pool| s.on_workflow_completed(pool, wf, now));
        }
    }

    fn fail(&mut self, site: usize, kind: SlotKind) {
        let sites = self.sites(|j| running(j, kind) > 0);
        if sites.is_empty() {
            return;
        }
        let (wf, job) = sites[site % sites.len()];
        let now = self.now;
        self.pool.workflow_mut(wf).fail_task(job, kind);
        self.each(|s, pool| s.on_task_failed(pool, wf, job, kind, now));
    }

    /// One heartbeat's offer of `slots` slots of `kind`; returns the picks.
    fn offer(&mut self, kind: SlotKind, slots: u32) -> Vec<(WorkflowId, JobId)> {
        let now = self.now;
        // Sequential probes against a scratch copy of the pool, each one
        // checked against the full walk.
        let mut scratch = self.pool.clone();
        let mut expected = Vec::new();
        for _ in 0..slots {
            let pick = self.probe.assign_task(&scratch, kind, now);
            let walk = full_walk(&self.probe, &scratch, kind);
            assert_eq!(pick, walk.map(|(wf, job, _)| (wf, job)), "assign_task");
            assert_eq!(
                drain_picks(&mut self.probe),
                walk.iter().map(|&(.., rank)| (rank, 0)).collect::<Vec<_>>(),
                "assign_task (rank, blocked)"
            );
            let Some((wf, job)) = pick else { break };
            scratch.workflow_mut(wf).start_task(job, kind);
            self.probe.on_task_assigned(&scratch, wf, job, kind, now);
            expected.push((wf, job, walk.expect("picked").2));
        }
        // The batch path, as the driver runs it.
        let picks = self
            .batch
            .assign_batch(&self.pool, kind, now, slots)
            .expect("WOHA never declines a batch");
        for &(wf, job) in &picks {
            self.pool.workflow_mut(wf).start_task(job, kind);
        }
        // Every batch walk restarts at the head, so what it skipped is
        // exactly what stands ahead of the pick.
        let (pairs, traced): (Vec<_>, Vec<_>) = expected
            .into_iter()
            .map(|(wf, job, rank)| ((wf, job), (rank, rank - 1)))
            .unzip();
        assert_eq!(picks, pairs, "assign_batch, {slots} slots of {kind}");
        assert_eq!(
            drain_picks(&mut self.batch),
            traced,
            "assign_batch (rank, blocked)"
        );
        assert_eq!(self.pool, scratch);
        self.check_refreshed();
        picks
    }

    /// Both schedulers hold the same records, and none is due: the refresh
    /// ran, whether or not the offer found anything.
    fn check_refreshed(&self) {
        for w in self.pool.workflows() {
            let record = self.batch.progress(w.id());
            assert_eq!(record, self.probe.progress(w.id()));
            if let Some(record) = record {
                assert!(!record.is_due(self.now), "{} left stale", w.id());
            }
        }
    }
}

fn running(j: &woha_sim::JobState, kind: SlotKind) -> u32 {
    match kind {
        SlotKind::Map => j.running_maps(),
        SlotKind::Reduce => j.running_reduces(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn early_out_matches_the_full_walk(
        shapes in vec(
            (vec((1u32..4, 0u32..3, 5u64..40), 1..5), 30u64..900, 0usize..4),
            2..7,
        ),
        ops in vec((0u8..16, 0usize..64, 0u8..2, 1u32..7), 0..250),
    ) {
        let mut rig = Rig::new();
        let mut arrivals = shapes.iter();
        for &(code, site, kind, slots) in &ops {
            let kind = SlotKind::ALL[usize::from(kind)];
            match code {
                0 | 1 => {
                    if let Some((jobs, deadline_s, topology)) = arrivals.next() {
                        rig.arrive(&(jobs.clone(), *deadline_s, TOPOLOGIES[*topology]));
                    }
                }
                2 => rig.arrive_ghost(),
                3 | 4 => rig.activate(site),
                5..=8 => {
                    rig.offer(kind, slots);
                }
                9..=11 => rig.finish(site, kind),
                12 => rig.fail(site, kind),
                _ => rig.now = rig.now.saturating_add(SimDuration::from_secs(site as u64)),
            }
        }
        // Whatever is left: an offer larger than everything eligible.
        for kind in SlotKind::ALL {
            rig.offer(kind, 1_000);
        }
    }
}

/// A ready workflow the scheduler was never told about: the pool's
/// counters are positive, every queue is empty, and the answer is still
/// "nothing".
#[test]
fn unsubmitted_ready_workflow_is_never_picked() {
    let mut rig = Rig::new();
    rig.arrive_ghost();
    assert_eq!(rig.pool.ready_workflows(SlotKind::Map), 1);
    assert_eq!(rig.pool.eligible_task_count(SlotKind::Map), 1);
    let now = rig.now;
    assert_eq!(rig.batch.assign_task(&rig.pool, SlotKind::Map, now), None);
    let picks = rig.batch.assign_batch(&rig.pool, SlotKind::Map, now, 4);
    assert!(picks.unwrap_or_default().is_empty());
    // The same with a queued workflow that has nothing to run yet.
    rig.arrive(&(vec![(2, 1, 10)], 300, Topology::Chain));
    assert_eq!(rig.batch.assign_task(&rig.pool, SlotKind::Map, now), None);
    let picks = rig.batch.assign_batch(&rig.pool, SlotKind::Map, now, 4);
    assert!(picks.unwrap_or_default().is_empty());
}

/// One batch drains a job, spills into the sibling job of the same
/// workflow, drains the workflow (`eligible_tasks` equals what the batch
/// claimed) and moves on to the next workflow while the drained one still
/// stands ahead of it in the priority order.
#[test]
fn batch_spills_across_jobs_and_workflows() {
    let mut rig = Rig::new();
    // Two sibling jobs, both active, behind a tight plan by `now`.
    rig.arrive(&(vec![(2, 0, 10), (2, 0, 10)], 60, Topology::Independent));
    rig.arrive(&(vec![(3, 0, 10)], 900, Topology::Chain));
    for _ in 0..3 {
        rig.activate(0);
    }
    rig.now = SimTime::from_secs(50);
    let (urgent, relaxed) = (WorkflowId::new(0), WorkflowId::new(1));
    assert_eq!(rig.pool.workflow(urgent).eligible_tasks(SlotKind::Map), 4);

    let picks = rig.offer(SlotKind::Map, 6);
    let of = |wf, job| {
        picks
            .iter()
            .filter(|&&p| p == (wf, JobId::new(job)))
            .count()
    };
    assert_eq!(picks.len(), 6, "{picks:?}");
    assert_eq!((of(urgent, 0), of(urgent, 1)), (2, 2), "{picks:?}");
    assert_eq!(of(relaxed, 0), 2, "{picks:?}");
    // The drained workflow kept the larger lag, so the walk that found
    // the last pick had to step over it.
    assert_eq!(picks[0].0, urgent);
    assert_eq!(picks[5].0, relaxed);
    let lag = |wf| rig.batch.progress(wf).expect("queued").lag();
    assert!(lag(urgent) > lag(relaxed));
}
