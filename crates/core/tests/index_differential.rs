//! Differential test harness for the [`PriorityIndex`] backends: arbitrary
//! insert/remove/update/assign/touch/pop/select sequences must leave the
//! DSL, BTree, and pairing-heap backends in observably identical states —
//! same heads, same full priority order, same pop sequence, same `select`
//! walks — with the tie-break rules
//! (lag descending, then deadline ascending, then workflow id ascending;
//! change time ascending, then id, on the ct list) pinned by a model.
//!
//! The case count defaults to 64 and is overridable through the
//! `INDEX_DIFFERENTIAL_CASES` environment variable (CI runs a fixed high
//! count).

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestCaseError;
use woha_core::{BTreeIndex, DslIndex, PairingIndex, PriorityIndex};
use woha_model::{SimTime, WorkflowId};

/// One scripted operation, decoded from numeric codes so any random tuple
/// is a legal script (remove/update/pop on an empty index become inserts).
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert,
    Remove,
    /// Re-key both lists to arbitrary new keys.
    Update,
    /// `on_task_assigned`'s exact shape: same ct, `lag − 1`.
    Assign,
    /// An `update` with nothing changed.
    Touch,
    Pop,
    /// The scheduler's walk: `select` with a visitor that rejects a
    /// scripted subset of ids and accepts the first other one.
    Select,
}

fn decode(code: u8) -> Op {
    match code % 12 {
        0..=2 => Op::Insert,
        3 => Op::Remove,
        4 | 5 => Op::Update,
        6 => Op::Assign,
        7 => Op::Touch,
        8 | 9 => Op::Pop,
        _ => Op::Select,
    }
}

/// The ids a `Select` rejects: those whose residue mod 10 is a set bit
/// of `pick` (10 bits), so a script rejects anything from no entry to
/// every entry.
fn rejects(pick: u64, wf: WorkflowId) -> bool {
    pick >> (wf.as_u64() % 10) & 1 == 1
}

/// The reference model: a plain vector of `(wf, ct, lag, deadline)` rows,
/// sorted on demand with the pinned tie-break rules.
#[derive(Debug, Default)]
struct Model {
    rows: Vec<(u64, SimTime, i64, SimTime)>,
}

impl Model {
    fn priority_order(&self) -> Vec<(i64, WorkflowId)> {
        let mut rows: Vec<_> = self.rows.clone();
        rows.sort_by(|a, b| {
            b.2.cmp(&a.2) // lag descending
                .then_with(|| a.3.cmp(&b.3)) // deadline ascending
                .then_with(|| a.0.cmp(&b.0)) // id ascending
        });
        rows.into_iter()
            .map(|(wf, _, lag, _)| (lag, WorkflowId::new(wf)))
            .collect()
    }

    fn min_ct(&self) -> Option<(SimTime, WorkflowId)> {
        self.rows
            .iter()
            .map(|&(wf, ct, _, _)| (ct, WorkflowId::new(wf)))
            .min()
    }
}

/// Runs one script against the model and all three backends, checking
/// observable agreement after every operation.
fn run_script(script: &[(u8, u64, u64, u64, u64)]) -> Result<(), TestCaseError> {
    let mut model = Model::default();
    let mut backends: [Box<dyn PriorityIndex>; 3] = [
        Box::new(DslIndex::new()),
        Box::new(BTreeIndex::new()),
        Box::new(PairingIndex::new()),
    ];
    let mut next_id = 0u64;
    let mut pops: Vec<Vec<(i64, WorkflowId)>> = vec![Vec::new(); 3];

    for &(code, pick, ct, lag, deadline) in script {
        let op = if model.rows.is_empty() {
            Op::Insert
        } else {
            decode(code)
        };
        // Narrow key ranges force collisions so ties actually occur.
        let ct = SimTime::from_millis(ct % 50);
        let lag = (lag % 20) as i64 - 10;
        let deadline = SimTime::from_millis(deadline % 30);
        match op {
            Op::Insert => {
                let wf = WorkflowId::new(next_id);
                next_id += 1;
                model.rows.push((wf.as_u64(), ct, lag, deadline));
                for idx in backends.iter_mut() {
                    idx.insert(wf, ct, lag, deadline);
                }
            }
            Op::Remove => {
                let at = (pick as usize) % model.rows.len();
                let (wf, ct, lag, deadline) = model.rows.swap_remove(at);
                for idx in backends.iter_mut() {
                    idx.remove(WorkflowId::new(wf), ct, lag, deadline);
                }
            }
            Op::Update | Op::Assign | Op::Touch => {
                let at = (pick as usize) % model.rows.len();
                let (wf, old_ct, old_lag, dl) = model.rows[at];
                let (ct, lag) = match op {
                    Op::Update => (ct, lag),
                    Op::Assign => (old_ct, old_lag - 1),
                    _ => (old_ct, old_lag),
                };
                model.rows[at] = (wf, ct, lag, dl);
                for idx in backends.iter_mut() {
                    idx.update(WorkflowId::new(wf), old_ct, old_lag, ct, lag, dl);
                }
            }
            Op::Pop => {
                // Pop = take the priority head and delete it, as the
                // scheduler does when the top workflow finishes.
                let expected = model.priority_order()[0];
                let at = model
                    .rows
                    .iter()
                    .position(|&(wf, ..)| wf == expected.1.as_u64())
                    .expect("head is live");
                let (wf, ct, lag, deadline) = model.rows.swap_remove(at);
                for (popped, idx) in pops.iter_mut().zip(backends.iter_mut()) {
                    let head = idx.max_priority();
                    prop_assert_eq!(head, Some(expected), "pop head of {}", idx.name());
                    idx.remove(WorkflowId::new(wf), ct, lag, deadline);
                    popped.push(expected);
                }
            }
            Op::Select => {
                // The walk visits the model's order up to and including
                // its first non-rejected entry, and returns that entry.
                let order = model.priority_order();
                let hit = order.iter().position(|&(_, wf)| !rejects(pick, wf));
                let walked = hit.map_or(order.len(), |i| i + 1);
                let expected = hit.map(|i| order[i]);
                for idx in backends.iter_mut() {
                    let mut visited = Vec::new();
                    let got = idx.select(&mut |lag, wf| {
                        visited.push((lag, wf));
                        !rejects(pick, wf)
                    });
                    prop_assert_eq!(got, expected, "select of {}", idx.name());
                    prop_assert_eq!(&visited[..], &order[..walked], "walk of {}", idx.name());
                }
            }
        }
        // Observable agreement with the model after every operation.
        for idx in backends.iter_mut() {
            prop_assert_eq!(idx.len(), model.rows.len(), "len of {}", idx.name());
            prop_assert_eq!(idx.min_ct(), model.min_ct(), "min_ct of {}", idx.name());
            prop_assert_eq!(
                idx.max_priority(),
                model.priority_order().first().copied(),
                "max_priority of {}",
                idx.name()
            );
        }
    }

    // Identical pop orders across backends, and full-order agreement with
    // the model at the end of the script.
    prop_assert_eq!(&pops[0], &pops[1], "dsl vs btree pop order");
    prop_assert_eq!(&pops[0], &pops[2], "dsl vs pheap pop order");
    let reference = model.priority_order();
    for idx in backends.iter_mut() {
        prop_assert_eq!(
            &idx.priority_order(),
            &reference,
            "final order of {}",
            idx.name()
        );
    }

    // Drain what is left through pops: the complete remaining pop order
    // must match across all backends and the model.
    while !model.rows.is_empty() {
        let expected = model.priority_order()[0];
        let at = model
            .rows
            .iter()
            .position(|&(wf, ..)| wf == expected.1.as_u64())
            .expect("head is live");
        let (wf, ct, lag, deadline) = model.rows.swap_remove(at);
        for idx in backends.iter_mut() {
            prop_assert_eq!(idx.max_priority(), Some(expected), "drain {}", idx.name());
            idx.remove(WorkflowId::new(wf), ct, lag, deadline);
        }
    }
    for idx in backends.iter_mut() {
        prop_assert!(idx.is_empty(), "{} drained", idx.name());
    }
    Ok(())
}

fn cases() -> u32 {
    std::env::var("INDEX_DIFFERENTIAL_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Arbitrary op scripts leave all three backends observably identical.
    #[test]
    fn backends_are_observably_identical(
        script in vec((0u8..32, 0u64..1024, 0u64..64, 0u64..64, 0u64..64), 0..120),
    ) {
        run_script(&script)?;
    }
}

/// A deterministic script exercising every tie-break rule once, kept
/// outside the proptest loop so a regression names the exact rule broken.
#[test]
fn tie_breaks_are_pinned() {
    let mut backends: [Box<dyn PriorityIndex>; 3] = [
        Box::new(DslIndex::new()),
        Box::new(BTreeIndex::new()),
        Box::new(PairingIndex::new()),
    ];
    for idx in backends.iter_mut() {
        let t = SimTime::from_millis;
        // Same lag, same deadline: id ascending (2 before 5).
        idx.insert(WorkflowId::new(5), t(10), 7, t(100));
        idx.insert(WorkflowId::new(2), t(11), 7, t(100));
        // Same lag, earlier deadline wins regardless of id.
        idx.insert(WorkflowId::new(9), t(12), 7, t(50));
        // Larger lag wins regardless of deadline and id.
        idx.insert(WorkflowId::new(7), t(13), 8, t(999));
        // ct list: time ascending, then id ascending.
        idx.insert(WorkflowId::new(1), t(10), -5, t(200));

        let order: Vec<u64> = idx
            .priority_order()
            .into_iter()
            .map(|(_, wf)| wf.as_u64())
            .collect();
        assert_eq!(order, vec![7, 9, 2, 5, 1], "{}", idx.name());
        assert_eq!(
            idx.min_ct(),
            Some((t(10), WorkflowId::new(1))),
            "{}",
            idx.name()
        );
    }
}
