//! Property tests for the master-failover snapshot subsystem: a
//! [`WorkflowPool`] driven through an arbitrary legal prefix of its
//! lifecycle survives serialize→restore bit-for-bit, the enclosing
//! [`MasterSnapshot`] round-trips through its encoding, mutated checkpoint
//! text decodes or names its fault without panicking, and a scripted
//! master crash preserves the simulator's global invariants.

mod common;

use common::{apply_op, arb_ops, arb_workflow};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::BuildHasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use woha_model::{JobId, NodeId, SimDuration, SimTime, SlotKind, WorkflowId};
use woha_sim::snapshot::{
    AttemptRecord, FaultSnapshot, LostTaskRecord, MapOutputRecord, RackStateRecord,
    ReshuffleRecord, SnapshotCounters,
};
use woha_sim::{
    run_simulation, ClusterConfig, FaultConfig, FxBuildHasher, MasterFaultConfig, MasterSnapshot,
    NodeHealth, SimConfig, SubmitOrderScheduler, WorkflowPool,
};

/// A master snapshot around `pool` with every other field fixed.
fn snapshot_of(pool: WorkflowPool, now: SimTime) -> MasterSnapshot {
    let arrived = vec![true; pool.len()];
    MasterSnapshot {
        taken_at: now,
        pool,
        arrived,
        attempts: Vec::new(),
        next_attempt: 17,
        pending_map_ids: Vec::new(),
        delay_skips: Vec::new(),
        map_output_hosts: Vec::new(),
        completion_seq: 41,
        counters: SnapshotCounters::default(),
        fault: FaultSnapshot::default(),
        scheduler: woha_sim::scheduler::SchedulerState::snapshot_state(&SubmitOrderScheduler::new()),
        health: None,
        reshuffle_debt: Vec::new(),
    }
}

/// The ready counters are derived state: a pool's encoding is what it was
/// before they existed. The fixture is a fixed walk (the generators are
/// seeded by test name and case); the digests were recorded by running
/// this test at the commit before ready accounting, and re-recorded when
/// each job's activation ordinal replaced its activation instant (the
/// encodings differ only in that field's name and value). The snapshot
/// digest was re-recorded once more when the checkpoint dropped its
/// derived fields (arrival cursor, slot occupancy), its speculation groups,
/// and its omission of empty optional fields; the pool digest did not move.
#[test]
fn ready_counters_are_not_encoded() {
    let digest = |text: &str| FxBuildHasher::default().hash_one(text);
    let mut rng = proptest::TestRng::for_case("ready_counters_are_not_encoded", 0);
    let (pool, now) = walked_pool(&mut rng);
    // The walk must leave work in flight, or the pin would be vacuous.
    let workflows = pool.workflows();
    assert!(workflows.iter().any(|w| w.has_eligible_task(SlotKind::Map)));
    assert!(workflows.iter().any(|w| w.jobs_completed() > 0));

    let pool_json = serde_json::to_string(&pool).expect("pool serializes");
    assert_eq!(digest(&pool_json), POOL_DIGEST, "pool encoding changed");
    let snap_json =
        serde_json::to_string(&snapshot_of(pool, now).encode()).expect("snapshot serializes");
    assert_eq!(
        digest(&snap_json),
        SNAPSHOT_DIGEST,
        "snapshot encoding changed"
    );
}

const POOL_DIGEST: u64 = 14304367887690194645;
const SNAPSHOT_DIGEST: u64 = 16090791593889650403;

/// Three arbitrary workflows driven through a fixed 150-step walk, one
/// second a step, and the instant the walk ended.
fn walked_pool(rng: &mut proptest::TestRng) -> (WorkflowPool, SimTime) {
    let workflows = Strategy::generate(&vec(arb_workflow(), 3), rng);
    let ops = Strategy::generate(&arb_ops(150), rng);
    let mut pool = WorkflowPool::new();
    for w in workflows {
        pool.register(w);
    }
    let mut now = SimTime::ZERO;
    for op in ops {
        now = now.saturating_add(SimDuration::from_secs(1));
        apply_op(&mut pool, op, now);
    }
    (pool, now)
}

/// A checkpoint with every field populated: a walked pool, an original
/// attempt racing its speculative twin, a lone map attempt, lost work,
/// a rack outage, re-shuffle debt and a propensity score.
fn hostile_fixture(rng: &mut proptest::TestRng) -> MasterSnapshot {
    let (pool, now) = walked_pool(rng);
    let mut snap = snapshot_of(pool, now);
    let (wf, job) = (WorkflowId::new(1), JobId::new(0));
    let attempt = |id, node, twin, speculative, task| AttemptRecord {
        id,
        wf,
        job,
        kind: SlotKind::Map,
        node: NodeId::new(node),
        twin,
        started: SimTime::from_secs(100 + id),
        estimate: SimDuration::from_secs(30),
        speculative,
        cancelled: false,
        task,
    };
    snap.attempts = vec![
        attempt(12, 0, Some(16), false, Some(3)),
        attempt(14, 1, None, false, Some(4)),
        attempt(16, 1, Some(12), true, Some(3)),
    ];
    snap.map_output_hosts = vec![MapOutputRecord {
        wf,
        job,
        hosts: vec![NodeId::new(0), NodeId::new(1)],
        tasks: vec![0, 1],
    }];
    snap.counters.speculative_launched = 1;
    snap.counters.work_lost_slot_ms = u128::from(u64::MAX) + 7;
    snap.fault = FaultSnapshot {
        alive: vec![true, false],
        blacklisted: vec![false, false],
        incident: vec![0, 1],
        crash_count: vec![0, 1],
        heartbeat_live: vec![true, false],
        lost_pending: vec![
            vec![],
            vec![LostTaskRecord {
                wf,
                job,
                kind: SlotKind::Reduce,
                solo: true,
                task: None,
            }],
        ],
        racks: vec![RackStateRecord {
            rack: 1,
            incident: 1,
            victims: vec![NodeId::new(1)],
        }],
    };
    let mut health = NodeHealth::new(2);
    health.bump(NodeId::new(1), now, 1.5);
    snap.health = Some(health);
    snap.reshuffle_debt = vec![ReshuffleRecord { wf, job, lost: 2 }];
    snap
}

/// The `k`-th node of `v` in pre-order, counting `v` as node 0.
fn nth_node<'a>(v: &'a mut Value, k: &mut usize) -> Option<&'a mut Value> {
    if *k == 0 {
        return Some(v);
    }
    *k -= 1;
    match v {
        Value::Array(items) => items.iter_mut().find_map(|c| nth_node(c, k)),
        Value::Object(fields) => fields.iter_mut().find_map(|(_, c)| nth_node(c, k)),
        _ => None,
    }
}

/// `v`'s nodes in pre-order.
fn preorder<'a>(v: &'a Value, out: &mut Vec<&'a Value>) {
    out.push(v);
    match v {
        Value::Array(items) => items.iter().for_each(|c| preorder(c, out)),
        Value::Object(fields) => fields.iter().for_each(|(_, c)| preorder(c, out)),
        _ => {}
    }
}

/// A seeded pick among the nodes of `tree` that satisfy `wanted`.
fn pick_node<'a>(
    tree: &'a mut Value,
    rng: &mut proptest::TestRng,
    wanted: impl Fn(&Value) -> bool,
) -> &'a mut Value {
    let mut nodes = Vec::new();
    preorder(tree, &mut nodes);
    let hits: Vec<usize> = (0..nodes.len()).filter(|&i| wanted(nodes[i])).collect();
    let mut k = hits[rng.range_u64(0, hits.len() as u64) as usize];
    nth_node(tree, &mut k).expect("in range")
}

/// A seeded mutation of `tree`'s JSON text, and the mutation's name.
fn mutate(tree: &Value, rng: &mut proptest::TestRng) -> (&'static str, String) {
    let pick = |rng: &mut proptest::TestRng, n: usize| rng.range_u64(0, n as u64) as usize;
    let text = serde_json::to_string(tree).expect("serializes");
    let mut tree = tree.clone();
    let object = |v: &Value| v.as_object().is_some_and(|f| !f.is_empty());
    let number = |v: &Value| matches!(v, Value::U64(_) | Value::U128(_) | Value::F64(_));
    let kind = match pick(rng, 8) {
        0 => {
            // The encoding is ASCII, so any position is a char boundary.
            const BYTES: &[u8] = b"{}[]\",:-+.0123456789eEtfnul \\";
            let mut bytes = text.into_bytes();
            let at = pick(rng, bytes.len());
            bytes[at] = BYTES[pick(rng, BYTES.len())];
            return ("byte flip", String::from_utf8(bytes).expect("ASCII"));
        }
        1 => {
            let at = pick(rng, text.len());
            return ("truncation", text[..at].to_owned());
        }
        2 | 3 => {
            let Value::Object(fields) = pick_node(&mut tree, rng, object) else {
                unreachable!("picked an object");
            };
            let at = pick(rng, fields.len());
            if pick(rng, 2) == 0 {
                fields.remove(at);
                "field deletion"
            } else {
                // The decoder reads the first of two same-named fields.
                let name = fields[at].0.clone();
                fields.insert(at + pick(rng, 2), (name, Value::Null));
                "field duplication"
            }
        }
        4 => {
            let node = pick_node(&mut tree, rng, |_| true);
            let swaps = [
                Value::Null,
                Value::Bool(true),
                Value::U64(7),
                Value::F64(0.5),
                Value::Str("x".to_owned()),
                Value::Array(Vec::new()),
                Value::Object(Vec::new()),
            ];
            *node = swaps[pick(rng, swaps.len())].clone();
            "type swap"
        }
        5 => {
            *pick_node(&mut tree, rng, number) = Value::U128(u128::from(u64::MAX) + 1);
            "u64::MAX + 1"
        }
        6 => {
            let negative = [Value::I64(-1), Value::I64(i64::MIN)][pick(rng, 2)].clone();
            *pick_node(&mut tree, rng, number) = negative;
            "negative number"
        }
        _ => {
            let node = pick_node(&mut tree, rng, |_| true);
            let depth = [1, 8, 127, 128, 400][pick(rng, 5)];
            for _ in 0..depth {
                *node = Value::Array(vec![std::mem::replace(node, Value::Null)]);
            }
            "deep nesting"
        }
    };
    (kind, serde_json::to_string(&tree).expect("serializes"))
}

/// Checkpoint text is a front door a restart-from-disk master would open:
/// over seeded mutations of an encoded snapshot whose attempts carry twins
/// — byte flips, truncations, deleted and duplicated fields, swapped
/// types, out-of-range and negative numbers, deep nesting — parsing and
/// decoding either succeed or return an error that names where the text
/// went wrong, and never panic.
#[test]
fn hostile_checkpoint_text_never_panics() {
    let mut rng = proptest::TestRng::for_case("hostile_checkpoint_text_never_panics", 0);
    let snap = hostile_fixture(&mut rng);
    let tree = snap.encode();
    assert_eq!(MasterSnapshot::decode(&tree).ok().as_ref(), Some(&snap));
    let mut outcomes: BTreeMap<(&str, &str), u32> = BTreeMap::new();
    for _ in 0..1600 {
        let (kind, text) = mutate(&tree, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(parsed) = serde_json::from_str::<Value>(&text) else {
                return "parse error";
            };
            match MasterSnapshot::decode(&parsed) {
                Ok(decoded) if decoded == snap => "same",
                Ok(_) => "decoded",
                // Every decode error names the field (or type) it failed in.
                Err(e) if e.to_string().contains('`') => "decode error",
                Err(e) => panic!("{kind}: an error without context: {e}"),
            }
        }));
        *outcomes
            .entry((kind, outcome.unwrap_or("panic")))
            .or_default() += 1;
    }
    assert!(
        !outcomes.keys().any(|&(_, class)| class == "panic"),
        "{outcomes:?}"
    );
    let biting = outcomes
        .keys()
        .filter(|(_, class)| class.ends_with("error"));
    let biting: BTreeSet<&str> = biting.map(|&(kind, _)| kind).collect();
    assert_eq!(
        biting.len(),
        8,
        "every kind must break some text: {outcomes:?}"
    );
}

/// Removes the first field named `name` in a pre-order walk of `v`.
fn delete_first(v: &mut Value, name: &str) -> bool {
    match v {
        Value::Object(fields) => {
            if let Some(at) = fields.iter().position(|(k, _)| k == name) {
                fields.remove(at);
                return true;
            }
            fields.iter_mut().any(|(_, c)| delete_first(c, name))
        }
        Value::Array(items) => items.iter_mut().any(|c| delete_first(c, name)),
        _ => false,
    }
}

/// An optional field is as required as any other: a checkpoint with an
/// attempt's `twin`, a job's activation `ordinal` or the propensity table
/// (`health`) deleted is an error that names the field, not a different
/// master state.
#[test]
fn a_deleted_optional_field_is_named() {
    let mut rng = proptest::TestRng::for_case("a_deleted_optional_field_is_named", 0);
    let tree = hostile_fixture(&mut rng).encode();
    for name in ["twin", "ordinal", "health", "task"] {
        let mut cut = tree.clone();
        assert!(delete_first(&mut cut, name), "{name} is encoded");
        let err = MasterSnapshot::decode(&cut).expect_err(name).to_string();
        assert!(err.contains(&format!("missing field `{name}`")), "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any reachable pool state survives snapshot→serialize→restore: the
    /// JSON round-trip reproduces the pool exactly, and the enclosing
    /// master snapshot decodes back to an equal value.
    #[test]
    fn pool_roundtrips_through_snapshot(
        workflows in vec(arb_workflow(), 1..3),
        ops in arb_ops(0..60),
    ) {
        let mut pool = WorkflowPool::new();
        for w in &workflows {
            pool.register(w.clone());
        }
        let mut now = SimTime::ZERO;
        for op in ops {
            now = now.saturating_add(SimDuration::from_secs(1));
            apply_op(&mut pool, op, now);
        }

        // The pool itself is serde-stable.
        let json = serde_json::to_string(&pool).expect("pool serializes");
        let back: WorkflowPool = serde_json::from_str(&json).expect("pool deserializes");
        prop_assert_eq!(&pool, &back);
        // The ready counters are not encoded; the decoded pool recounts
        // them and reports what the live pool does.
        for kind in SlotKind::ALL {
            prop_assert_eq!(back.ready_workflows(kind), pool.ready_workflows(kind));
            prop_assert_eq!(back.eligible_task_count(kind), pool.eligible_task_count(kind));
            for (live, decoded) in pool.workflows().iter().zip(back.workflows()) {
                prop_assert_eq!(decoded.eligible_tasks(kind), live.eligible_tasks(kind));
            }
        }

        // So is the full master snapshot wrapping it.
        let snap = snapshot_of(pool, now);
        let decoded = MasterSnapshot::decode(&snap.encode()).expect("snapshot decodes");
        prop_assert_eq!(snap, decoded);
    }

    /// A scripted master crash (with or without the WAL) never breaks the
    /// global simulator invariants: the run completes, work is conserved,
    /// lossless recovery loses no attempts, and the run is reproducible.
    #[test]
    fn master_crash_preserves_invariants(
        workflows in vec(arb_workflow(), 1..3),
        seed in 0u64..3,
        crash_s in 5u64..90,
        interval_s in 10u64..120,
        wal_bit in 0u8..2,
    ) {
        let wal = wal_bit == 1;
        let cluster = ClusterConfig::uniform(3, 2, 1).with_faults(FaultConfig {
            master: MasterFaultConfig {
                mtbf: None,
                mttr: SimDuration::from_secs(30),
                checkpoint_interval: SimDuration::from_secs(interval_s),
                wal,
                scripted: vec![SimTime::from_secs(crash_s)],
            },
            ..FaultConfig::default()
        });
        let config = SimConfig { seed, ..SimConfig::default() };
        let expected: u64 = workflows.iter().map(|w| w.total_tasks()).sum();
        let report = run_simulation(
            &workflows,
            &mut SubmitOrderScheduler::new(),
            &cluster,
            &config,
        );
        prop_assert!(report.completed);
        prop_assert_eq!(report.invalid_assignments, 0);
        prop_assert_eq!(
            report.tasks_executed,
            expected + report.tasks_requeued + report.map_outputs_lost
        );
        let rec = report.recovery.as_ref().expect("master mode reports");
        // The crash may fall after the workload drains; at most one fires.
        prop_assert!(rec.master_crashes <= 1);
        if wal {
            prop_assert_eq!(rec.attempts_requeued + rec.attempts_orphaned, 0);
        }
        let again = run_simulation(
            &workflows,
            &mut SubmitOrderScheduler::new(),
            &cluster,
            &config,
        );
        prop_assert_eq!(report, again);
    }
}
