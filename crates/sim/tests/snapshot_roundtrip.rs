//! Property tests for the master-failover snapshot subsystem: a
//! [`WorkflowPool`] driven through an arbitrary legal prefix of its
//! lifecycle survives serialize→restore bit-for-bit, the enclosing
//! [`MasterSnapshot`] round-trips through its encoding, and a scripted
//! master crash preserves the simulator's global invariants.

mod common;

use common::{apply_op, arb_ops, arb_workflow};
use proptest::collection::vec;
use proptest::prelude::*;
use std::hash::BuildHasher;
use woha_model::{SimDuration, SimTime, SlotKind};
use woha_sim::snapshot::{FaultSnapshot, SnapshotCounters};
use woha_sim::{
    run_simulation, ClusterConfig, FaultConfig, FxBuildHasher, MasterFaultConfig, MasterSnapshot,
    SimConfig, SubmitOrderScheduler, WorkflowPool,
};

/// A master snapshot around `pool` with every other field fixed.
fn snapshot_of(pool: WorkflowPool, now: SimTime) -> MasterSnapshot {
    let arrived = vec![true; pool.len()];
    MasterSnapshot {
        taken_at: now,
        pool,
        source_cursor: arrived.len() as u64,
        arrived,
        attempts: Vec::new(),
        groups: Vec::new(),
        next_attempt: 17,
        next_group: 3,
        pending_map_ids: Vec::new(),
        delay_skips: Vec::new(),
        map_output_hosts: Vec::new(),
        node_slots: Vec::new(),
        busy_count: [2, 1],
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
/// encodings differ only in that field's name and value).
#[test]
fn ready_counters_are_not_encoded() {
    let digest = |text: &str| FxBuildHasher::default().hash_one(text);
    let mut rng = proptest::TestRng::for_case("ready_counters_are_not_encoded", 0);
    let workflows = Strategy::generate(&vec(arb_workflow(), 3), &mut rng);
    let ops = Strategy::generate(&arb_ops(150), &mut rng);
    let mut pool = WorkflowPool::new();
    for w in workflows {
        pool.register(w);
    }
    let mut now = SimTime::ZERO;
    for op in ops {
        now = now.saturating_add(SimDuration::from_secs(1));
        apply_op(&mut pool, op, now);
    }
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
const SNAPSHOT_DIGEST: u64 = 9982635423116630328;

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
