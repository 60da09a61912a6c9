//! The workflow ordering index of the WOHA master: the paper's Double Skip
//! List (§IV-B, Fig 4), which the scheduler holds, and the alternatives it
//! is compared against in Fig 13(a), behind the [`PriorityIndex`] trait.
//!
//! The index maintains two orderings over queued workflows:
//!
//! - the **ct list**, ordered by each workflow's *next progress-requirement
//!   change time* — the scheduler walks its head to find workflows whose
//!   priority is stale;
//! - the **priority list**, ordered by current progress lag
//!   `F_i(ttd) - ρ_i` descending — its head is the workflow to schedule.
//!
//! Both structures see the same skewed access pattern: most deletions hit
//! the head. [`DslIndex`], the paper's Double Skip List, serves it with
//! O(1) head operations via [`SkipList`]; it is the scheduler's index. The
//! other two are Fig 13(a)'s comparators, which the Fig 13(a) harness and
//! the benchmark build through [`QueueStrategy::build_index`]:
//!
//! - [`BTreeIndex`] — the balanced-search-tree baseline, two `BTreeMap`s
//!   at O(log n) per head access;
//! - [`crate::pheap::PairingIndex`] — a cache-dense pairing heap with lazy
//!   decrease-key, O(1) insert/meld and amortized O(log n) pops.
//!
//! Every backend must produce the *identical* ordering: lag descending,
//! then deadline ascending, then workflow id ascending (and next-change
//! time ascending, then id, on the ct list). The differential test harness
//! in `tests/index_differential.rs` pins this down over arbitrary
//! operation sequences. (The paper's third Fig 13(a) contender, the naive
//! rebuild-everything scheduler, bypasses any incremental index and lives
//! in the Fig 13(a) harness of `woha-bench`.)

use crate::pheap::PairingIndex;
use crate::skiplist::SkipList;
use std::collections::BTreeMap;
use std::fmt;
use woha_model::{SimTime, WorkflowId};

/// A double ordering over queued workflows, keyed by next-change time and
/// by priority (progress lag, larger = more urgent).
///
/// Callers must pass the *current* `(ct, lag)` of a workflow when removing
/// or updating it — the index does not track per-workflow state itself,
/// mirroring how the paper's scheduler stores `W_h.t` and `W_h.p` on the
/// workflow object. (Backends with lazy re-keying keep private stamps
/// instead, but the contract is the same.)
///
/// Ordering queries take `&mut self` so lazy backends can settle deferred
/// deletions while answering them; the eager backends simply don't.
pub trait PriorityIndex: fmt::Debug {
    /// Short backend name for reports and trace records ("dsl", "btree",
    /// "pheap").
    fn name(&self) -> &'static str;

    /// Adds a workflow with its next change time, current lag, and
    /// (effective) deadline used as the urgency tie-break.
    fn insert(&mut self, wf: WorkflowId, ct: SimTime, lag: i64, deadline: SimTime);

    /// Removes a workflow, given its current keys.
    fn remove(&mut self, wf: WorkflowId, ct: SimTime, lag: i64, deadline: SimTime);

    /// Re-keys a workflow. The two-list backends override this to touch
    /// only the list whose key changed: an assignment moves `lag` and
    /// leaves `ct` alone (Algorithm 2 lines 20–23 re-key the priority list
    /// only).
    #[allow(clippy::too_many_arguments)]
    fn update(
        &mut self,
        wf: WorkflowId,
        old_ct: SimTime,
        old_lag: i64,
        new_ct: SimTime,
        new_lag: i64,
        deadline: SimTime,
    ) {
        self.remove(wf, old_ct, old_lag, deadline);
        self.insert(wf, new_ct, new_lag, deadline);
    }

    /// Head of the ct list: the workflow whose progress requirement changes
    /// soonest.
    fn min_ct(&mut self) -> Option<(SimTime, WorkflowId)>;

    /// Walks the priority list in descending order, calling `visit` on each
    /// workflow until it accepts one, which is returned. This is the single
    /// pass behind `AssignTask`: it touches as many entries as stand ahead
    /// of the first eligible workflow, one when the head is eligible.
    fn select(
        &mut self,
        visit: &mut dyn FnMut(i64, WorkflowId) -> bool,
    ) -> Option<(i64, WorkflowId)>;

    /// Head of the priority list.
    fn max_priority(&mut self) -> Option<(i64, WorkflowId)> {
        self.select(&mut |_, _| true)
    }

    /// The full priority ordering, as `select` would visit it. Meant for
    /// tests and verification; may allocate.
    fn priority_order(&mut self) -> Vec<(i64, WorkflowId)>;

    /// Number of queued workflows.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A Fig 13(a) backend, for driving an index directly: the Fig 13(a)
/// harness and the benchmark build one per strategy. The scheduler itself
/// always holds a [`DslIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueStrategy {
    /// Double Skip List (the paper's contribution).
    Dsl,
    /// Two balanced search trees.
    Bst,
    /// Pairing heap with lazy decrease-key.
    Pairing,
}

impl QueueStrategy {
    /// All strategies, in the paper's Fig 13(a) order with the pairing
    /// heap appended.
    pub const ALL: [QueueStrategy; 3] = [
        QueueStrategy::Dsl,
        QueueStrategy::Bst,
        QueueStrategy::Pairing,
    ];

    /// The backend label used by benches and reports.
    pub fn label(self) -> &'static str {
        match self {
            QueueStrategy::Dsl => "dsl",
            QueueStrategy::Bst => "btree",
            QueueStrategy::Pairing => "pheap",
        }
    }

    /// Builds the incremental index for this strategy.
    // Always `Some`: `benchmark/src/direct.rs` calls `expect` on it, which
    // pins the `Option` return type.
    pub fn build_index(self) -> Option<Box<dyn PriorityIndex + Send>> {
        Some(match self {
            QueueStrategy::Dsl => Box::new(DslIndex::new()),
            QueueStrategy::Bst => Box::new(BTreeIndex::new()),
            QueueStrategy::Pairing => Box::new(PairingIndex::new()),
        })
    }
}

/// Priority-list key: orders by lag descending, then deadline ascending
/// (an urgency tie-break: equal lags go to the workflow closer to its
/// deadline), then workflow id, by storing the negated lag in a
/// min-ordered structure.
pub(crate) fn pri_key(lag: i64, deadline: SimTime, wf: WorkflowId) -> (i64, u64, u64) {
    (-lag, deadline.as_millis(), wf.as_u64())
}

/// The paper's Double Skip List: two [`SkipList`]s with O(1) head access.
///
/// # Examples
///
/// ```
/// use woha_core::index::{DslIndex, PriorityIndex};
/// use woha_model::{SimTime, WorkflowId};
///
/// let mut idx = DslIndex::new();
/// idx.insert(WorkflowId::new(1), SimTime::from_secs(6), 39, SimTime::from_mins(10));
/// idx.insert(WorkflowId::new(4), SimTime::from_secs(5), -17, SimTime::from_mins(12));
/// assert_eq!(idx.min_ct(), Some((SimTime::from_secs(5), WorkflowId::new(4))));
/// assert_eq!(idx.max_priority(), Some((39, WorkflowId::new(1))));
/// ```
#[derive(Debug, Default)]
pub struct DslIndex {
    ct: SkipList<(SimTime, u64), ()>,
    pri: SkipList<(i64, u64, u64), ()>,
}

impl DslIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        DslIndex::default()
    }
}

impl PriorityIndex for DslIndex {
    fn name(&self) -> &'static str {
        "dsl"
    }

    fn insert(&mut self, wf: WorkflowId, ct: SimTime, lag: i64, deadline: SimTime) {
        self.ct.insert((ct, wf.as_u64()), ());
        self.pri.insert(pri_key(lag, deadline, wf), ());
    }

    fn remove(&mut self, wf: WorkflowId, ct: SimTime, lag: i64, deadline: SimTime) {
        let removed_ct = self.ct.remove(&(ct, wf.as_u64())).is_some();
        let removed_pri = self.pri.remove(&pri_key(lag, deadline, wf)).is_some();
        debug_assert!(removed_ct && removed_pri, "stale keys for {wf}");
    }

    fn update(
        &mut self,
        wf: WorkflowId,
        old_ct: SimTime,
        old_lag: i64,
        new_ct: SimTime,
        new_lag: i64,
        deadline: SimTime,
    ) {
        // Checked whether or not the key moves, as `remove` would.
        let (old, new) = ((old_ct, wf.as_u64()), (new_ct, wf.as_u64()));
        debug_assert!(self.ct.contains_key(&old), "stale ct key for {wf}");
        if old != new {
            self.ct.remove(&old);
            self.ct.insert(new, ());
        }
        let (old, new) = (
            pri_key(old_lag, deadline, wf),
            pri_key(new_lag, deadline, wf),
        );
        debug_assert!(self.pri.contains_key(&old), "stale priority key for {wf}");
        if old != new {
            self.pri.remove(&old);
            self.pri.insert(new, ());
        }
    }

    fn min_ct(&mut self) -> Option<(SimTime, WorkflowId)> {
        self.ct
            .first()
            .map(|(&(t, wf), _)| (t, WorkflowId::new(wf)))
    }

    fn select(
        &mut self,
        visit: &mut dyn FnMut(i64, WorkflowId) -> bool,
    ) -> Option<(i64, WorkflowId)> {
        self.pri
            .iter()
            .map(|(&(neg, _, wf), _)| (-neg, WorkflowId::new(wf)))
            .find(|&(lag, wf)| visit(lag, wf))
    }

    fn priority_order(&mut self) -> Vec<(i64, WorkflowId)> {
        self.pri
            .iter()
            .map(|(&(neg, _, wf), _)| (-neg, WorkflowId::new(wf)))
            .collect()
    }

    fn len(&self) -> usize {
        self.ct.len()
    }
}

/// The balanced-search-tree baseline: two `BTreeMap`s (the `()` values make
/// them ordered sets with the map API's cache-friendly node layout).
#[derive(Debug, Default)]
pub struct BTreeIndex {
    ct: BTreeMap<(SimTime, u64), ()>,
    pri: BTreeMap<(i64, u64, u64), ()>,
}

impl BTreeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        BTreeIndex::default()
    }
}

impl PriorityIndex for BTreeIndex {
    fn name(&self) -> &'static str {
        "btree"
    }

    fn insert(&mut self, wf: WorkflowId, ct: SimTime, lag: i64, deadline: SimTime) {
        self.ct.insert((ct, wf.as_u64()), ());
        self.pri.insert(pri_key(lag, deadline, wf), ());
    }

    fn remove(&mut self, wf: WorkflowId, ct: SimTime, lag: i64, deadline: SimTime) {
        let removed_ct = self.ct.remove(&(ct, wf.as_u64())).is_some();
        let removed_pri = self.pri.remove(&pri_key(lag, deadline, wf)).is_some();
        debug_assert!(removed_ct && removed_pri, "stale keys for {wf}");
    }

    fn update(
        &mut self,
        wf: WorkflowId,
        old_ct: SimTime,
        old_lag: i64,
        new_ct: SimTime,
        new_lag: i64,
        deadline: SimTime,
    ) {
        // Checked whether or not the key moves, as `remove` would.
        let (old, new) = ((old_ct, wf.as_u64()), (new_ct, wf.as_u64()));
        debug_assert!(self.ct.contains_key(&old), "stale ct key for {wf}");
        if old != new {
            self.ct.remove(&old);
            self.ct.insert(new, ());
        }
        let (old, new) = (
            pri_key(old_lag, deadline, wf),
            pri_key(new_lag, deadline, wf),
        );
        debug_assert!(self.pri.contains_key(&old), "stale priority key for {wf}");
        if old != new {
            self.pri.remove(&old);
            self.pri.insert(new, ());
        }
    }

    fn min_ct(&mut self) -> Option<(SimTime, WorkflowId)> {
        self.ct
            .keys()
            .next()
            .map(|&(t, wf)| (t, WorkflowId::new(wf)))
    }

    fn select(
        &mut self,
        visit: &mut dyn FnMut(i64, WorkflowId) -> bool,
    ) -> Option<(i64, WorkflowId)> {
        self.pri
            .keys()
            .map(|&(neg, _, wf)| (-neg, WorkflowId::new(wf)))
            .find(|&(lag, wf)| visit(lag, wf))
    }

    fn priority_order(&mut self) -> Vec<(i64, WorkflowId)> {
        self.pri
            .keys()
            .map(|&(neg, _, wf)| (-neg, WorkflowId::new(wf)))
            .collect()
    }

    fn len(&self) -> usize {
        self.ct.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf(i: u64) -> WorkflowId {
        WorkflowId::new(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The paper's Fig 4 example state: 8 workflows with given next event
    /// times and priorities.
    fn fig4<I: PriorityIndex + Default>() -> I {
        let mut idx = I::default();
        let rows: [(u64, u64, i64); 8] = [
            (1, 6, 39),
            (2, 27, -3),
            (3, 1, 22),
            (4, 5, -17),
            (5, 15, 31),
            (6, 11, 13),
            (7, 20, 2),
            (8, 7, -19),
        ];
        for (id, ct, p) in rows {
            idx.insert(wf(id), t(ct), p, t(100 + id));
        }
        idx
    }

    fn check_fig4(idx: &mut dyn PriorityIndex) {
        assert_eq!(idx.len(), 8);
        // ct list head = workflow 3 (time 1).
        assert_eq!(idx.min_ct(), Some((t(1), wf(3))));
        // priority list: 39, 31, 22, 13, 2, -3, -17, -19.
        let priorities: Vec<i64> = idx.priority_order().into_iter().map(|(p, _)| p).collect();
        assert_eq!(priorities, vec![39, 31, 22, 13, 2, -3, -17, -19]);
        assert_eq!(idx.max_priority(), Some((39, wf(1))));

        // The Fig 4 walkthrough: workflow 3 fires at time 3; its priority
        // becomes 0 and its next ct 10.
        idx.update(wf(3), t(1), 22, t(10), 0, t(103));
        assert_eq!(idx.min_ct(), Some((t(5), wf(4))));
        let order: Vec<u64> = idx
            .priority_order()
            .into_iter()
            .map(|(_, w)| w.as_u64())
            .collect();
        assert_eq!(order, vec![1, 5, 6, 7, 3, 2, 4, 8]);

        // `select` walks the same order and restores what it rejects.
        let mut visited = Vec::new();
        let got = idx.select(&mut |_, w| {
            visited.push(w.as_u64());
            w == wf(6)
        });
        assert_eq!(got, Some((13, wf(6))));
        assert_eq!(visited, vec![1, 5, 6]);
        let order_after: Vec<u64> = idx
            .priority_order()
            .into_iter()
            .map(|(_, w)| w.as_u64())
            .collect();
        assert_eq!(order_after, vec![1, 5, 6, 7, 3, 2, 4, 8]);

        // Remove the scheduled head workflow entirely.
        idx.remove(wf(1), t(6), 39, t(101));
        assert_eq!(idx.len(), 7);
        assert_eq!(idx.max_priority(), Some((31, wf(5))));
    }

    #[test]
    fn dsl_fig4_walkthrough() {
        let mut idx: DslIndex = fig4();
        check_fig4(&mut idx);
        assert_eq!(idx.name(), "dsl");
    }

    #[test]
    fn btree_fig4_walkthrough() {
        let mut idx: BTreeIndex = fig4();
        check_fig4(&mut idx);
        assert_eq!(idx.name(), "btree");
    }

    #[test]
    fn pheap_fig4_walkthrough() {
        let mut idx: PairingIndex = fig4();
        check_fig4(&mut idx);
        assert_eq!(idx.name(), "pheap");
    }

    #[test]
    fn ties_break_by_workflow_id() {
        let backends: [Box<dyn PriorityIndex>; 3] = [
            Box::new(DslIndex::new()),
            Box::new(BTreeIndex::new()),
            Box::new(PairingIndex::new()),
        ];
        for mut idx in backends {
            idx.insert(wf(2), t(5), 10, t(100));
            idx.insert(wf(1), t(5), 10, t(100));
            assert_eq!(idx.min_ct(), Some((t(5), wf(1))), "{}", idx.name());
            let order: Vec<u64> = idx
                .priority_order()
                .into_iter()
                .map(|(_, w)| w.as_u64())
                .collect();
            assert_eq!(order, vec![1, 2], "{}", idx.name());
        }
    }

    #[test]
    fn unchanged_ct_update_leaves_the_ct_list_alone() {
        let backends: [Box<dyn PriorityIndex>; 3] = [
            Box::new(DslIndex::new()),
            Box::new(BTreeIndex::new()),
            Box::new(PairingIndex::new()),
        ];
        for mut idx in backends {
            idx.insert(wf(1), t(5), 10, t(100));
            idx.insert(wf(2), t(7), 4, t(100));
            // An assignment: workflow 1 keeps its ct and falls behind 2.
            idx.update(wf(1), t(5), 10, t(5), 3, t(100));
            assert_eq!(idx.min_ct(), Some((t(5), wf(1))), "{}", idx.name());
            assert_eq!(idx.len(), 2, "{}", idx.name());
            assert_eq!(idx.max_priority(), Some((4, wf(2))), "{}", idx.name());
            // Nothing changed at all.
            idx.update(wf(1), t(5), 3, t(5), 3, t(100));
            assert_eq!(idx.min_ct(), Some((t(5), wf(1))), "{}", idx.name());
            assert_eq!(idx.len(), 2, "{}", idx.name());
            assert_eq!(
                idx.priority_order(),
                vec![(4, wf(2)), (3, wf(1))],
                "{}",
                idx.name()
            );
            // The re-keyed entry is removable under its new keys.
            idx.remove(wf(1), t(5), 3, t(100));
            assert_eq!(idx.min_ct(), Some((t(7), wf(2))), "{}", idx.name());
        }
    }

    #[test]
    fn empty_index() {
        let mut idx = DslIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.min_ct(), None);
        assert_eq!(idx.max_priority(), None);
        assert_eq!(idx.priority_order().len(), 0);
    }

    #[test]
    fn backends_agree_on_random_ops() {
        let mut backends: [Box<dyn PriorityIndex>; 3] = [
            Box::new(DslIndex::new()),
            Box::new(BTreeIndex::new()),
            Box::new(PairingIndex::new()),
        ];
        // Track live entries so removals use correct keys.
        let mut live: Vec<(WorkflowId, SimTime, i64, SimTime)> = Vec::new();
        let mut state = 99u64;
        let mut rand = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for i in 0..2_000u64 {
            if live.is_empty() || rand() % 3 != 0 {
                let id = wf(i);
                let ct = t(rand() % 1_000);
                let lag = (rand() % 2_000) as i64 - 1_000;
                let deadline = t(rand() % 5_000);
                for idx in backends.iter_mut() {
                    idx.insert(id, ct, lag, deadline);
                }
                live.push((id, ct, lag, deadline));
            } else {
                let pick = (rand() as usize) % live.len();
                let (id, ct, lag, deadline) = live.swap_remove(pick);
                for idx in backends.iter_mut() {
                    idx.remove(id, ct, lag, deadline);
                }
            }
            let (first, rest) = backends.split_at_mut(1);
            for idx in rest.iter_mut() {
                assert_eq!(first[0].len(), idx.len(), "{}", idx.name());
                assert_eq!(first[0].min_ct(), idx.min_ct(), "{}", idx.name());
                assert_eq!(
                    first[0].max_priority(),
                    idx.max_priority(),
                    "{}",
                    idx.name()
                );
            }
        }
        let (first, rest) = backends.split_at_mut(1);
        let reference = first[0].priority_order();
        for idx in rest.iter_mut() {
            assert_eq!(reference, idx.priority_order(), "{}", idx.name());
        }
    }
}
