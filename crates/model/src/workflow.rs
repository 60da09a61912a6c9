//! The workflow model: a DAG of Map-Reduce jobs with a submission time and a
//! deadline (`W_i = {J_i, P_i, S_i, D_i}` in the paper).

use crate::error::ModelError;
use crate::graph::Dag;
use crate::ids::JobId;
use crate::job::JobSpec;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// The most tasks, maps and reduces over all jobs, one workflow may hold.
/// It is 25× the largest workflow the Yahoo-like generator draws
/// (12 jobs × (3 000 maps + 400 reduces)), and it bounds the batch list a
/// plan probe builds, one entry per task, to 16 MiB.
pub const MAX_WORKFLOW_TASKS: u64 = 1 << 20;

/// A validated workflow: jobs, their prerequisite relation, a submission
/// time, and a deadline.
///
/// A `WorkflowSpec` can only be obtained from a [`WorkflowBuilder`] (or by
/// parsing a configuration file, or by decoding its serialized form, which
/// runs the builder's checks), which guarantees the invariants that every
/// algorithm in this workspace relies on:
///
/// - at least one job, and every job has at least one map task;
/// - at most [`MAX_WORKFLOW_TASKS`] tasks in all, maps and reduces;
/// - prerequisite edges reference existing jobs, contain no self-loops, and
///   form a DAG;
/// - the deadline is strictly after the submission time.
///
/// # Examples
///
/// ```
/// use woha_model::{JobSpec, SimDuration, SimTime, WorkflowBuilder};
///
/// # fn main() -> Result<(), woha_model::ModelError> {
/// let mut b = WorkflowBuilder::new("etl");
/// let extract = b.add_job(JobSpec::new("extract", 8, 0,
///     SimDuration::from_secs(20), SimDuration::ZERO));
/// let load = b.add_job(JobSpec::new("load", 4, 2,
///     SimDuration::from_secs(30), SimDuration::from_secs(60)));
/// b.add_dependency(extract, load);
/// let w = b
///     .submit_at(SimTime::ZERO)
///     .deadline_at(SimTime::from_mins(30))
///     .build()?;
/// assert_eq!(w.job_count(), 2);
/// assert_eq!(w.prerequisites(load), &[extract]);
/// assert_eq!(w.initially_ready(), vec![extract]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WorkflowSpec {
    name: String,
    jobs: Vec<JobSpec>,
    prereqs: Vec<Vec<JobId>>,
    dependents: Vec<Vec<JobId>>,
    submit_time: SimTime,
    deadline: SimTime,
}

/// Decoding checks everything [`WorkflowBuilder::build`] does, and that the
/// serialized `prereqs` and `dependents` are the same edge set in the
/// builder's canonical form.
impl Deserialize for WorkflowSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for `WorkflowSpec`"))?;
        let prereqs: Vec<Vec<JobId>> = serde::__field(obj, "prereqs")?;
        let dependents: Vec<Vec<JobId>> = serde::__field(obj, "dependents")?;
        let edges = prereqs.iter().enumerate().flat_map(|(j, preds)| {
            let job = JobId::new(j as u32);
            preds.iter().map(move |&p| (p, job))
        });
        let spec = WorkflowSpec::validated(
            serde::__field(obj, "name")?,
            serde::__field(obj, "jobs")?,
            edges,
            serde::__field(obj, "submit_time")?,
            serde::__field(obj, "deadline")?,
        )
        .map_err(serde::Error::custom)?;
        if spec.prereqs != prereqs || spec.dependents != dependents {
            return Err(serde::Error::custom(ModelError::InconsistentEdges));
        }
        Ok(spec)
    }
}

impl WorkflowSpec {
    /// Checks every invariant listed on [`WorkflowSpec`] — the one gate
    /// both [`WorkflowBuilder::build`] and decoding pass through — and
    /// builds the sorted prerequisite and dependent lists from `edges`,
    /// `(prerequisite, dependent)` pairs whose duplicates collapse.
    fn validated(
        name: String,
        jobs: Vec<JobSpec>,
        edges: impl IntoIterator<Item = (JobId, JobId)>,
        submit_time: SimTime,
        deadline: SimTime,
    ) -> Result<Self, ModelError> {
        if jobs.is_empty() {
            return Err(ModelError::EmptyWorkflow);
        }
        let n = jobs.len();
        let mut tasks = 0u64;
        for (i, job) in jobs.iter().enumerate() {
            if job.map_tasks() == 0 {
                return Err(ModelError::NoMapTasks(JobId::new(i as u32)));
            }
            tasks += u64::from(job.map_tasks()) + u64::from(job.reduce_tasks());
        }
        if tasks > MAX_WORKFLOW_TASKS {
            return Err(ModelError::TooManyTasks {
                tasks,
                limit: MAX_WORKFLOW_TASKS,
            });
        }
        let mut prereqs: Vec<Vec<JobId>> = vec![Vec::new(); n];
        for (pred, succ) in edges {
            for job in [pred, succ] {
                if job.index() >= n {
                    return Err(ModelError::UnknownJob { job, job_count: n });
                }
            }
            if pred == succ {
                return Err(ModelError::SelfDependency(pred));
            }
            prereqs[succ.index()].push(pred);
        }
        // Walking the jobs in order fills every dependent list sorted.
        let mut dependents: Vec<Vec<JobId>> = vec![Vec::new(); n];
        for (succ, preds) in prereqs.iter_mut().enumerate() {
            preds.sort_unstable();
            preds.dedup();
            for p in preds.iter() {
                dependents[p.index()].push(JobId::new(succ as u32));
            }
        }
        let spec = WorkflowSpec {
            name,
            jobs,
            prereqs,
            dependents,
            submit_time,
            deadline,
        };
        if let Err(node) = spec.to_dag().topo_sort() {
            return Err(ModelError::Cycle {
                job: JobId::new(node as u32),
            });
        }
        if deadline <= submit_time {
            return Err(ModelError::DeadlineBeforeSubmit);
        }
        Ok(spec)
    }

    /// The workflow's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of jobs (`n_i`).
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// All job ids, in index order.
    pub fn job_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        (0..self.jobs.len() as u32).map(JobId::new)
    }

    /// The jobs, indexable by [`JobId::index`].
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// The spec of one job.
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range for this workflow.
    pub fn job(&self, job: JobId) -> &JobSpec {
        &self.jobs[job.index()]
    }

    /// Looks a job up by name.
    pub fn job_by_name(&self, name: &str) -> Option<JobId> {
        self.jobs
            .iter()
            .position(|j| j.name() == name)
            .map(|i| JobId::new(i as u32))
    }

    /// The prerequisite set `P_i^j`: jobs that must finish before `job` may
    /// start. Sorted by job id.
    pub fn prerequisites(&self, job: JobId) -> &[JobId] {
        &self.prereqs[job.index()]
    }

    /// The dependent set `D_i^j`: jobs that list `job` as a prerequisite.
    /// Sorted by job id.
    pub fn dependents(&self, job: JobId) -> &[JobId] {
        &self.dependents[job.index()]
    }

    /// Submission time `S_i`.
    pub fn submit_time(&self) -> SimTime {
        self.submit_time
    }

    /// Absolute deadline `D_i`.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// The relative deadline `D_i - S_i`.
    pub fn relative_deadline(&self) -> SimDuration {
        self.deadline - self.submit_time
    }

    /// Jobs with no prerequisites, ready as soon as the workflow is
    /// submitted. Sorted by job id.
    pub fn initially_ready(&self) -> Vec<JobId> {
        self.job_ids()
            .filter(|&j| self.prereqs[j.index()].is_empty())
            .collect()
    }

    /// Total number of tasks across all jobs, `Σ_j (m_i^j + r_i^j)`.
    pub fn total_tasks(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.total_tasks())).sum()
    }

    /// Total number of map tasks across all jobs.
    pub fn total_map_tasks(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.map_tasks())).sum()
    }

    /// Total number of reduce tasks across all jobs.
    pub fn total_reduce_tasks(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.reduce_tasks())).sum()
    }

    /// Total slot-time consumed by the workflow.
    pub fn total_work(&self) -> SimDuration {
        self.jobs.iter().map(JobSpec::total_work).sum()
    }

    /// Whether the workflow consists of a single job (the paper removes
    /// these from the Yahoo! workload because they carry no topology).
    pub fn is_single_job(&self) -> bool {
        self.jobs.len() == 1
    }

    /// The prerequisite relation as a [`Dag`] whose node `j` is job `j`,
    /// with edges from each prerequisite to its dependent.
    pub fn to_dag(&self) -> Dag {
        let mut dag = Dag::new(self.jobs.len());
        for (succ, preds) in self.prereqs.iter().enumerate() {
            for p in preds {
                dag.add_edge(p.index(), succ);
            }
        }
        dag
    }

    /// HLF levels: jobs with no dependents are level 0 and a job's level is
    /// one more than the highest level among its dependents.
    pub fn levels(&self) -> Vec<usize> {
        self.to_dag()
            .levels_from_sinks()
            .expect("WorkflowSpec invariant: acyclic")
    }

    /// For each job, the length of the longest chain (weighted by
    /// [`JobSpec::length`], in milliseconds) starting at that job. Used by
    /// Longest Path First.
    pub fn longest_paths_millis(&self) -> Vec<u64> {
        let weights: Vec<u64> = self.jobs.iter().map(|j| j.length().as_millis()).collect();
        self.to_dag()
            .longest_path_to_sink(&weights)
            .expect("WorkflowSpec invariant: acyclic")
    }

    /// The critical-path length of the workflow: the heaviest chain of job
    /// lengths. A lower bound on the workflow's makespan on any cluster.
    pub fn critical_path(&self) -> SimDuration {
        SimDuration::from_millis(self.longest_paths_millis().into_iter().max().unwrap_or(0))
    }

    /// A copy of this workflow with a new name, submission time, and
    /// deadline — the topology and job specs are shared unchanged. This is
    /// how recurring workflows (e.g. the paper's "3 recurrences" experiment)
    /// are instantiated from one template.
    pub fn reissued(&self, name: impl Into<String>, submit: SimTime, deadline: SimTime) -> Self {
        let mut copy = self.clone();
        copy.name = name.into();
        copy.submit_time = submit;
        copy.deadline = deadline;
        copy
    }
}

impl fmt::Display for WorkflowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workflow {} ({} jobs, {} tasks, submit {}, deadline {})",
            self.name,
            self.jobs.len(),
            self.total_tasks(),
            self.submit_time,
            self.deadline
        )
    }
}

/// Incremental builder for [`WorkflowSpec`] ([C-BUILDER]).
///
/// See [`WorkflowSpec`] for an end-to-end example.
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
#[derive(Debug, Clone)]
pub struct WorkflowBuilder {
    name: String,
    jobs: Vec<JobSpec>,
    edges: Vec<(JobId, JobId)>,
    submit_time: SimTime,
    deadline: Option<SimTime>,
    relative_deadline: Option<SimDuration>,
}

impl WorkflowBuilder {
    /// Starts a workflow named `name`, submitted at time zero by default.
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowBuilder {
            name: name.into(),
            jobs: Vec::new(),
            edges: Vec::new(),
            submit_time: SimTime::ZERO,
            deadline: None,
            relative_deadline: None,
        }
    }

    /// Adds a job and returns its id.
    pub fn add_job(&mut self, job: JobSpec) -> JobId {
        let id = JobId::new(self.jobs.len() as u32);
        self.jobs.push(job);
        id
    }

    /// Declares that `prerequisite` must finish before `dependent` starts.
    /// Duplicate declarations are allowed and collapse to one edge.
    pub fn add_dependency(&mut self, prerequisite: JobId, dependent: JobId) -> &mut Self {
        self.edges.push((prerequisite, dependent));
        self
    }

    /// Sets the submission time `S_i` (default: time zero).
    pub fn submit_at(&mut self, time: SimTime) -> &mut Self {
        self.submit_time = time;
        self
    }

    /// Sets the absolute deadline `D_i`. Overrides any relative deadline.
    pub fn deadline_at(&mut self, deadline: SimTime) -> &mut Self {
        self.deadline = Some(deadline);
        self.relative_deadline = None;
        self
    }

    /// Sets the deadline relative to the submission time,
    /// `D_i = S_i + rel`. Overrides any absolute deadline.
    pub fn relative_deadline(&mut self, rel: SimDuration) -> &mut Self {
        self.relative_deadline = Some(rel);
        self.deadline = None;
        self
    }

    /// Validates and builds the workflow.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the workflow is empty, any job has zero map
    /// tasks, a dependency references an unknown job or itself, the relation
    /// is cyclic, or the deadline is not after the submission time. A
    /// missing deadline defaults to [`SimTime::MAX`] (no deadline).
    pub fn build(&self) -> Result<WorkflowSpec, ModelError> {
        let deadline = match (self.deadline, self.relative_deadline) {
            (Some(d), _) => d,
            (None, Some(rel)) => self.submit_time.saturating_add(rel),
            (None, None) => SimTime::MAX,
        };
        WorkflowSpec::validated(
            self.name.clone(),
            self.jobs.clone(),
            self.edges.iter().copied(),
            self.submit_time,
            deadline,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(name: &str, maps: u32, reduces: u32) -> JobSpec {
        JobSpec::new(
            name,
            maps,
            reduces,
            SimDuration::from_secs(10),
            SimDuration::from_secs(20),
        )
    }

    /// 0 -> {1,2} -> 3 diamond with a deadline.
    fn diamond() -> WorkflowSpec {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.add_job(job("a", 4, 1));
        let l = b.add_job(job("l", 2, 1));
        let r = b.add_job(job("r", 2, 1));
        let z = b.add_job(job("z", 1, 1));
        b.add_dependency(a, l);
        b.add_dependency(a, r);
        b.add_dependency(l, z);
        b.add_dependency(r, z);
        b.relative_deadline(SimDuration::from_mins(60));
        b.build().unwrap()
    }

    #[test]
    fn builds_and_exposes_topology() {
        let w = diamond();
        assert_eq!(w.name(), "diamond");
        assert_eq!(w.job_count(), 4);
        assert_eq!(
            w.prerequisites(JobId::new(3)),
            &[JobId::new(1), JobId::new(2)]
        );
        assert_eq!(w.dependents(JobId::new(0)), &[JobId::new(1), JobId::new(2)]);
        assert_eq!(w.initially_ready(), vec![JobId::new(0)]);
        assert_eq!(w.job_by_name("r"), Some(JobId::new(2)));
        assert_eq!(w.job_by_name("missing"), None);
    }

    #[test]
    fn totals_and_levels() {
        let w = diamond();
        assert_eq!(w.total_tasks(), 4 + 1 + 2 + 1 + 2 + 1 + 1 + 1);
        assert_eq!(w.total_map_tasks(), 9);
        assert_eq!(w.total_reduce_tasks(), 4);
        assert_eq!(w.levels(), vec![2, 1, 1, 0]);
        // Critical path: three jobs of length 30s each.
        assert_eq!(w.critical_path(), SimDuration::from_secs(90));
        assert!(!w.is_single_job());
    }

    #[test]
    fn deadline_bookkeeping() {
        let w = diamond();
        assert_eq!(w.submit_time(), SimTime::ZERO);
        assert_eq!(w.deadline(), SimTime::from_mins(60));
        assert_eq!(w.relative_deadline(), SimDuration::from_mins(60));
    }

    #[test]
    fn missing_deadline_defaults_to_never() {
        let mut b = WorkflowBuilder::new("no-deadline");
        b.add_job(job("only", 1, 0));
        let w = b.build().unwrap();
        assert_eq!(w.deadline(), SimTime::MAX);
        assert!(w.is_single_job());
    }

    #[test]
    fn absolute_deadline_wins_over_later_relative() {
        let mut b = WorkflowBuilder::new("abs");
        b.add_job(job("only", 1, 0));
        b.relative_deadline(SimDuration::from_mins(5));
        b.deadline_at(SimTime::from_mins(7));
        assert_eq!(b.build().unwrap().deadline(), SimTime::from_mins(7));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            WorkflowBuilder::new("e").build().unwrap_err(),
            ModelError::EmptyWorkflow
        );
    }

    #[test]
    fn rejects_zero_mappers() {
        let mut b = WorkflowBuilder::new("z");
        b.add_job(job("bad", 0, 3));
        assert!(matches!(b.build().unwrap_err(), ModelError::NoMapTasks(_)));
    }

    #[test]
    fn task_count_limit_is_inclusive_and_sums_over_jobs() {
        let half = (MAX_WORKFLOW_TASKS / 2) as u32;
        let build = |jobs: &[(u32, u32)]| {
            let mut b = WorkflowBuilder::new("big");
            for (i, &(maps, reduces)) in jobs.iter().enumerate() {
                b.add_job(job(&format!("j{i}"), maps, reduces));
            }
            b.relative_deadline(SimDuration::from_mins(60));
            b.build()
        };
        let at_limit = build(&[(half, 0), (half - 1, 1)]).unwrap();
        assert_eq!(at_limit.total_tasks(), MAX_WORKFLOW_TASKS);
        let over = ModelError::TooManyTasks {
            tasks: MAX_WORKFLOW_TASKS + 1,
            limit: MAX_WORKFLOW_TASKS,
        };
        assert_eq!(build(&[(half, 0), (half, 1)]).unwrap_err(), over);
        // Summed in u64: one job's maps plus reduces would overflow a u32.
        assert_eq!(
            build(&[(u32::MAX, u32::MAX)]).unwrap_err(),
            ModelError::TooManyTasks {
                tasks: 2 * u64::from(u32::MAX),
                limit: MAX_WORKFLOW_TASKS,
            }
        );
        assert!(over.to_string().contains("1048577 tasks"), "{over}");
        assert!(over.to_string().contains("limit of 1048576"), "{over}");
    }

    #[test]
    fn rejects_unknown_job_in_edge() {
        let mut b = WorkflowBuilder::new("u");
        let a = b.add_job(job("a", 1, 0));
        b.add_dependency(a, JobId::new(9));
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::UnknownJob { .. }
        ));
    }

    #[test]
    fn rejects_self_dependency() {
        let mut b = WorkflowBuilder::new("s");
        let a = b.add_job(job("a", 1, 0));
        b.add_dependency(a, a);
        assert_eq!(b.build().unwrap_err(), ModelError::SelfDependency(a));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = WorkflowBuilder::new("c");
        let a = b.add_job(job("a", 1, 0));
        let c = b.add_job(job("b", 1, 0));
        b.add_dependency(a, c);
        b.add_dependency(c, a);
        assert!(matches!(b.build().unwrap_err(), ModelError::Cycle { .. }));
    }

    #[test]
    fn rejects_deadline_at_submit() {
        let mut b = WorkflowBuilder::new("d");
        b.add_job(job("a", 1, 0));
        b.submit_at(SimTime::from_secs(10));
        b.deadline_at(SimTime::from_secs(10));
        assert_eq!(b.build().unwrap_err(), ModelError::DeadlineBeforeSubmit);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = WorkflowBuilder::new("dup");
        let a = b.add_job(job("a", 1, 0));
        let c = b.add_job(job("b", 1, 0));
        b.add_dependency(a, c);
        b.add_dependency(a, c);
        let w = b.build().unwrap();
        assert_eq!(w.prerequisites(c), &[a]);
        assert_eq!(w.to_dag().edge_count(), 1);
    }

    #[test]
    fn reissued_keeps_topology() {
        let w = diamond();
        let w2 = w.reissued("diamond-2", SimTime::from_mins(5), SimTime::from_mins(75));
        assert_eq!(w2.name(), "diamond-2");
        assert_eq!(w2.submit_time(), SimTime::from_mins(5));
        assert_eq!(w2.deadline(), SimTime::from_mins(75));
        assert_eq!(w2.jobs(), w.jobs());
        assert_eq!(w2.relative_deadline(), SimDuration::from_mins(70));
    }

    #[test]
    fn serde_roundtrip() {
        let w = diamond();
        let json = serde_json::to_string(&w).unwrap();
        let back: WorkflowSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn display_summarizes() {
        let s = diamond().to_string();
        assert!(s.contains("diamond"));
        assert!(s.contains("4 jobs"));
    }
}
