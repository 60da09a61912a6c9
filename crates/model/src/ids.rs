//! Identifier newtypes for workflows, jobs, tasks, and cluster nodes.
//!
//! All identifiers are small `Copy` newtypes ([C-NEWTYPE]) so that a
//! `WorkflowId` can never be confused with a `JobId` at a call site. They
//! order and hash like their underlying integers, which makes them usable as
//! keys in `BTreeMap`/`HashMap` and as stable tie-breakers in priority
//! queues.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a workflow (`W_i` in the paper), unique within a cluster.
///
/// # Examples
///
/// ```
/// use woha_model::WorkflowId;
/// let w = WorkflowId::new(7);
/// assert_eq!(w.as_u64(), 7);
/// assert_eq!(w.to_string(), "W7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkflowId(u64);

impl WorkflowId {
    /// Creates a workflow id from its raw integer value.
    pub const fn new(id: u64) -> Self {
        WorkflowId(id)
    }

    /// Returns the raw integer value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for WorkflowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

impl From<u64> for WorkflowId {
    fn from(id: u64) -> Self {
        WorkflowId(id)
    }
}

/// Identifier of a job within a workflow (`J_i^j` in the paper).
///
/// Job ids are indices into the owning [`WorkflowSpec`]'s job list; they are
/// only meaningful relative to one workflow.
///
/// # Examples
///
/// ```
/// use woha_model::JobId;
/// let j = JobId::new(3);
/// assert_eq!(j.index(), 3);
/// assert_eq!(j.to_string(), "J3");
/// ```
///
/// [`WorkflowSpec`]: crate::WorkflowSpec
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(u32);

impl JobId {
    /// Creates a job id from its index in the workflow's job list.
    pub const fn new(index: u32) -> Self {
        JobId(index)
    }

    /// Returns the index of this job in the owning workflow's job list.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

impl From<u32> for JobId {
    fn from(index: u32) -> Self {
        JobId(index)
    }
}

/// Identifier of a worker node (TaskTracker) in the cluster.
///
/// # Examples
///
/// ```
/// use woha_model::NodeId;
/// assert_eq!(NodeId::new(12).to_string(), "node12");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its raw integer value.
    pub const fn new(id: u32) -> Self {
        NodeId(id)
    }

    /// Returns the index of this node in the cluster's node list.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(id: u32) -> Self {
        NodeId(id)
    }
}

/// The two kinds of Hadoop-1 slots: map slots and reduce slots.
///
/// A Hadoop-1 TaskTracker is configured with a fixed number of slots of each
/// kind; a map task may only occupy a map slot and a reduce task a reduce
/// slot.
///
/// # Examples
///
/// ```
/// use woha_model::SlotKind;
/// assert_eq!(SlotKind::Map.to_string(), "map");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SlotKind {
    /// A slot that runs map tasks.
    Map,
    /// A slot that runs reduce tasks.
    Reduce,
}

impl SlotKind {
    /// Both slot kinds, in `[Map, Reduce]` order.
    pub const ALL: [SlotKind; 2] = [SlotKind::Map, SlotKind::Reduce];
}

impl fmt::Display for SlotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotKind::Map => f.write_str("map"),
            SlotKind::Reduce => f.write_str("reduce"),
        }
    }
}

/// Fully-qualified identifier of a single task attempt.
///
/// A task is one mapper or one reducer of one job of one workflow; `index`
/// distinguishes tasks of the same kind within the job.
///
/// # Examples
///
/// ```
/// use woha_model::{JobId, SlotKind, TaskId, WorkflowId};
/// let t = TaskId::new(WorkflowId::new(1), JobId::new(2), SlotKind::Map, 5);
/// assert_eq!(t.to_string(), "W1/J2/map5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId {
    /// The workflow this task belongs to.
    pub workflow: WorkflowId,
    /// The job (within the workflow) this task belongs to.
    pub job: JobId,
    /// Whether this is a map task or a reduce task.
    pub kind: SlotKind,
    /// Index of the task among its job's tasks of the same kind.
    pub index: u32,
}

impl TaskId {
    /// Creates a task id.
    pub const fn new(workflow: WorkflowId, job: JobId, kind: SlotKind, index: u32) -> Self {
        TaskId {
            workflow,
            job,
            kind,
            index,
        }
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}{}",
            self.workflow, self.job, self.kind, self.index
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn workflow_id_roundtrip() {
        let w = WorkflowId::new(42);
        assert_eq!(w.as_u64(), 42);
        assert_eq!(WorkflowId::from(42u64), w);
        assert_eq!(format!("{w}"), "W42");
    }

    #[test]
    fn job_id_index() {
        let j = JobId::new(9);
        assert_eq!(j.index(), 9);
        assert_eq!(j.as_u32(), 9);
        assert_eq!(JobId::from(9u32), j);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::new(3).to_string(), "node3");
        assert_eq!(NodeId::from(3u32).index(), 3);
    }

    #[test]
    fn ids_order_like_integers() {
        let ids: BTreeSet<WorkflowId> = [3u64, 1, 2].into_iter().map(WorkflowId::new).collect();
        let sorted: Vec<u64> = ids.into_iter().map(WorkflowId::as_u64).collect();
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn task_id_orders_by_fields() {
        let a = TaskId::new(WorkflowId::new(1), JobId::new(0), SlotKind::Map, 0);
        let b = TaskId::new(WorkflowId::new(1), JobId::new(0), SlotKind::Map, 1);
        let c = TaskId::new(WorkflowId::new(2), JobId::new(0), SlotKind::Map, 0);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn serde_roundtrip() {
        let t = TaskId::new(WorkflowId::new(1), JobId::new(2), SlotKind::Reduce, 7);
        let json = serde_json::to_string(&t).unwrap();
        let back: TaskId = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
