//! Master (JobTracker) state snapshots for crash recovery.
//!
//! A [`MasterSnapshot`] captures everything the simulated JobTracker needs
//! to resume scheduling after a crash: the workflow pool, in-flight task
//! attempts (each naming its speculative twin), fault bookkeeping, and the
//! scheduler's private state (via [`SchedulerState`](crate::SchedulerState)).
//! The driver builds one on every checkpoint tick and appends processed
//! events to an in-memory WAL between checkpoints; on recovery the latest
//! snapshot is serialized, deserialized, and the WAL replayed on top of it.
//!
//! The snapshot deliberately excludes wall-clock measurement state
//! (`busy_integral_ms`, `scheduler_nanos`, `events_processed`), the event
//! queue (rebuilt from the crash-time pending set), and the recovery
//! counters themselves — those describe the *physical* world or the report,
//! not the master's logical state. It also leaves out slot occupancy (free
//! slots per node, busy slots per kind), which recovery recounts from the
//! attempts and the nodes' liveness.
//!
//! The driver keeps its master-logical state *in* these types: its counters
//! are a [`SnapshotCounters`], its fault bookkeeping a [`FaultSnapshot`], its
//! attempt table holds [`AttemptRecord`]s. Building a snapshot clones them
//! and installing one assigns them back, so a field added here is
//! checkpointed and restored with no further code.
//!
//! All maps are stored as key-sorted vectors so a snapshot of a given
//! master state is byte-for-byte deterministic. Every field is encoded
//! whether or not its feature is on: an empty list, a zero or a `null`.
//!
//! Decoded snapshots are trusted. Every one the driver installs was
//! encoded by `build_snapshot` moments earlier, and nothing reads a
//! checkpoint from disk or any other outside source. Decoding checks each
//! field's shape and each workflow spec's invariants, but not that the
//! fields agree with each other or with the cluster: `install_snapshot`'s
//! `arrived.len() - completed` would underflow on a snapshot with more
//! completed workflows than arrivals, and neither an attempt's node nor
//! its twin is checked to exist. A restart-from-disk path would have to
//! add those checks first.

use serde::{Deserialize, Serialize, Value};
use woha_model::{JobId, NodeId, SimDuration, SimTime, SlotKind, WorkflowId};

use crate::state::WorkflowPool;

/// One in-flight task attempt, keyed by its attempt id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// Attempt id (the driver's `attempts` map key).
    pub id: u64,
    /// Owning workflow.
    pub wf: WorkflowId,
    /// Owning wjob.
    pub job: JobId,
    /// Map or reduce.
    pub kind: SlotKind,
    /// Node the attempt runs on.
    pub node: NodeId,
    /// The other attempt racing on the same task: the original names its
    /// speculative duplicate, the duplicate its original. `None` until a
    /// duplicate is launched; kept after either side ends.
    pub twin: Option<u64>,
    /// Launch time.
    pub started: SimTime,
    /// Jittered run-time estimate (completion is `started + estimate`).
    pub estimate: SimDuration,
    /// Whether this is the speculative twin.
    pub speculative: bool,
    /// Whether the attempt was cancelled (its completion event is stale).
    pub cancelled: bool,
    /// Original map-task index the attempt executes (locality mode only;
    /// survivor-preferring requeues need it to look up replica sets).
    pub task: Option<u32>,
}

/// Pending map-task ids of one wjob (for locality-aware map picking).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingMapsRecord {
    /// Owning workflow.
    pub wf: WorkflowId,
    /// Owning wjob.
    pub job: JobId,
    /// Pending map-task indices, in queue order.
    pub ids: Vec<u32>,
}

/// Delay-scheduling skip count of one wjob.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelaySkipRecord {
    /// Owning workflow.
    pub wf: WorkflowId,
    /// Owning wjob.
    pub job: JobId,
    /// Consecutive non-local offers skipped so far.
    pub skips: u32,
}

/// Nodes holding completed map output of one wjob.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MapOutputRecord {
    /// Owning workflow.
    pub wf: WorkflowId,
    /// Owning wjob.
    pub job: JobId,
    /// One entry per completed map, the node that ran it.
    pub hosts: Vec<NodeId>,
    /// Original task index of each completed map, parallel to `hosts`.
    /// Populated only when the data plane prefers surviving replicas on
    /// re-execution; empty otherwise.
    pub tasks: Vec<u32>,
}

/// A task lost to a node failure, awaiting requeue at failure detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LostTaskRecord {
    /// Owning workflow.
    pub wf: WorkflowId,
    /// Owning wjob.
    pub job: JobId,
    /// Map or reduce.
    pub kind: SlotKind,
    /// Whether the attempt died without a live twin: a solo task is
    /// requeued as pending, while a non-solo one only releases its running
    /// count because its twin is still racing.
    pub solo: bool,
    /// Original map-task index (survivor-preference mode only; `None`
    /// otherwise).
    pub task: Option<u32>,
}

/// Cumulative report counters that must survive a master restart (they
/// feed `SimReport`, which describes the whole run, not one incarnation
/// of the master).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct SnapshotCounters {
    pub tasks_executed: u64,
    pub task_failures: u64,
    pub assign_calls: u64,
    pub invalid_assignments: u64,
    pub local_map_tasks: u64,
    pub remote_map_tasks: u64,
    pub delay_skip_count: u64,
    pub stragglers: u64,
    pub speculative_launched: u64,
    pub speculative_wins: u64,
    pub node_failures: u64,
    pub node_recoveries: u64,
    pub nodes_blacklisted: u64,
    pub tasks_requeued: u64,
    pub map_outputs_lost: u64,
    pub work_lost_slot_ms: u128,
    pub reshuffle_events: u64,
    pub reshuffle_charged_ms: u64,
    pub survivor_requeues: u64,
}

/// Fault-layer bookkeeping at snapshot time, indexed by node.
///
/// On recovery the *physical* node state (liveness, incident ordinals,
/// blacklist) is taken from the crash-time world, not from here — a master
/// restart does not resurrect dead nodes. The snapshot still carries it so
/// WAL replay sees the same world the original master saw.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSnapshot {
    /// Per-node liveness.
    pub alive: Vec<bool>,
    /// Per-node blacklist flag.
    pub blacklisted: Vec<bool>,
    /// Per-node failure-incident ordinal (salts the fault RNG).
    pub incident: Vec<u64>,
    /// Per-node crash count (drives blacklisting).
    pub crash_count: Vec<u32>,
    /// Per-node heartbeat-chain liveness.
    pub heartbeat_live: Vec<bool>,
    /// Per-node tasks lost to an undetected failure, awaiting requeue.
    pub lost_pending: Vec<Vec<LostTaskRecord>>,
    /// Rack-switch outage bookkeeping, sorted by rack; only racks with a
    /// non-trivial state (a past or ongoing outage) appear.
    pub racks: Vec<RackStateRecord>,
}

impl FaultSnapshot {
    /// The bookkeeping of `rack`, entered in rack order at its first outage.
    pub(crate) fn rack_state(&mut self, rack: u32) -> &mut RackStateRecord {
        let pos = self
            .racks
            .binary_search_by_key(&rack, |r| r.rack)
            .unwrap_or_else(|pos| {
                let fresh = RackStateRecord {
                    rack,
                    incident: 0,
                    victims: Vec::new(),
                };
                self.racks.insert(pos, fresh);
                pos
            });
        &mut self.racks[pos]
    }
}

/// Rack-switch fault bookkeeping for one rack at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RackStateRecord {
    /// The rack.
    pub rack: u32,
    /// Switch-failure incident ordinal (salts the rack fault RNG).
    pub incident: u64,
    /// Nodes the ongoing outage took down, awaiting the rack's repair.
    pub victims: Vec<NodeId>,
}

/// The complete serialized master state at one checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MasterSnapshot {
    /// Simulation time the checkpoint was taken.
    pub taken_at: SimTime,
    /// The workflow pool: specs, job phases, task counts.
    pub pool: WorkflowPool,
    /// Which pulled arrivals have had their arrival event processed, by
    /// pull order. Its length is the arrival cursor into the workload
    /// source: workflows pulled before the checkpoint are restored from
    /// the snapshot (and the WAL), while workflows past it are still
    /// unread in the source and arrive normally.
    pub arrived: Vec<bool>,
    /// In-flight attempts, sorted by attempt id.
    pub attempts: Vec<AttemptRecord>,
    /// Next attempt id to allocate.
    pub next_attempt: u64,
    /// Pending map-task queues, sorted by (wf, job).
    pub pending_map_ids: Vec<PendingMapsRecord>,
    /// Delay-scheduling skip counts, sorted by (wf, job).
    pub delay_skips: Vec<DelaySkipRecord>,
    /// Completed-map output locations, sorted by (wf, job).
    pub map_output_hosts: Vec<MapOutputRecord>,
    /// Completion sequence number (salts the failure RNG).
    pub completion_seq: u64,
    /// Cumulative report counters.
    pub counters: SnapshotCounters,
    /// Fault-layer bookkeeping.
    pub fault: FaultSnapshot,
    /// Scheduler-private state from
    /// [`SchedulerState::snapshot_state`](crate::SchedulerState::snapshot_state).
    pub scheduler: Value,
    /// Failure-propensity tracker state (prediction mode only).
    pub health: Option<crate::health::NodeHealth>,
    /// Outstanding re-shuffle debt per wjob (map outputs a reducer must
    /// re-fetch after a node loss), sorted by (wf, job). Empty when
    /// re-shuffle charging is off.
    pub reshuffle_debt: Vec<ReshuffleRecord>,
}

/// Outstanding re-shuffle debt of one wjob.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReshuffleRecord {
    /// Owning workflow.
    pub wf: WorkflowId,
    /// Owning wjob.
    pub job: JobId,
    /// Map outputs lost and not yet re-charged against a reduce launch.
    pub lost: u64,
}

impl MasterSnapshot {
    /// Serializes the snapshot to a value tree.
    pub fn encode(&self) -> Value {
        self.to_value()
    }

    /// Deserializes a snapshot from a tree produced by
    /// [`encode`](Self::encode). The result is trusted, not validated
    /// against itself or a cluster: see the [module docs](self).
    ///
    /// # Errors
    ///
    /// Returns an error if `value` is not a well-formed snapshot, or one of
    /// its workflow specs breaks a model invariant.
    pub fn decode(value: &Value) -> Result<Self, serde::Error> {
        Self::from_value(value)
    }

    /// Whether `tree`, an [`encode`](Self::encode)d snapshot, decodes to
    /// the same snapshot after a trip through JSON text and its
    /// depth-limited parser, as a master reading a checkpoint from disk
    /// would need. A debug-assertion aid for the crash handler.
    pub(crate) fn survives_text(tree: &Value) -> bool {
        serde_json::to_string(tree)
            .ok()
            .and_then(|text| serde_json::from_str::<Value>(&text).ok())
            .is_some_and(|parsed| Self::decode(&parsed).ok() == Self::decode(tree).ok())
    }

    /// What a replacement master reads back from this checkpoint:
    /// `Self::decode(&self.encode())`, with the pool passed through its
    /// serialized form one workflow at a time. The pool is ~85 % of the
    /// tree and grows with every arrival; encoded whole, it made the
    /// process's peak memory a function of when the crash fell (DESIGN.md
    /// §9).
    pub(crate) fn reread(mut self) -> Result<Self, serde::Error> {
        let pool = std::mem::take(&mut self.pool);
        let rest = Self::decode(&self.encode())?;
        Ok(MasterSnapshot {
            pool: pool.reread()?,
            ..rest
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MasterSnapshot {
        MasterSnapshot {
            taken_at: SimTime::from_secs(120),
            pool: WorkflowPool::new(),
            arrived: vec![true, false],
            attempts: vec![AttemptRecord {
                id: 3,
                wf: WorkflowId::new(0),
                job: JobId::new(1),
                kind: SlotKind::Map,
                node: NodeId::new(2),
                twin: Some(4),
                started: SimTime::from_secs(100),
                estimate: SimDuration::from_secs(60),
                speculative: false,
                cancelled: false,
                task: None,
            }],
            next_attempt: 5,
            pending_map_ids: vec![PendingMapsRecord {
                wf: WorkflowId::new(0),
                job: JobId::new(1),
                ids: vec![2, 5],
            }],
            delay_skips: vec![DelaySkipRecord {
                wf: WorkflowId::new(0),
                job: JobId::new(1),
                skips: 1,
            }],
            map_output_hosts: vec![MapOutputRecord {
                wf: WorkflowId::new(0),
                job: JobId::new(0),
                hosts: vec![NodeId::new(0), NodeId::new(2)],
                tasks: Vec::new(),
            }],
            completion_seq: 7,
            counters: SnapshotCounters {
                tasks_executed: 9,
                work_lost_slot_ms: 1234,
                ..SnapshotCounters::default()
            },
            fault: FaultSnapshot {
                alive: vec![true, true],
                blacklisted: vec![false, false],
                incident: vec![0, 1],
                crash_count: vec![0, 1],
                heartbeat_live: vec![true, true],
                lost_pending: vec![
                    vec![],
                    vec![LostTaskRecord {
                        wf: WorkflowId::new(0),
                        job: JobId::new(1),
                        kind: SlotKind::Reduce,
                        solo: true,
                        task: None,
                    }],
                ],
                racks: Vec::new(),
            },
            scheduler: Value::Null,
            health: None,
            reshuffle_debt: Vec::new(),
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample();
        let restored = MasterSnapshot::decode(&snap.encode()).expect("round trip");
        assert_eq!(restored, snap);
    }

    #[test]
    fn reread_is_the_whole_tree_round_trip() {
        use woha_model::{JobSpec, WorkflowBuilder};
        let job = JobId::new(0);
        let activate = |pool: &mut WorkflowPool, maps: u32| {
            let mut b = WorkflowBuilder::new("w");
            b.add_job(JobSpec::new(
                "j",
                maps,
                1,
                SimDuration::from_secs(10),
                SimDuration::from_secs(20),
            ));
            let wf = pool.register(b.build().expect("valid workflow"));
            let mut w = pool.workflow_mut(wf);
            w.begin_submitting(job);
            w.activate(job);
            w.job(job).ordinal()
        };
        let mut snap = sample();
        for maps in 1..4 {
            // Ready totals differ per workflow, so a miscount would show.
            activate(&mut snap.pool, maps);
            let last = WorkflowId::new(u64::from(maps) - 1);
            snap.pool.workflow_mut(last).start_task(job, SlotKind::Map);
        }
        let whole = MasterSnapshot::decode(&snap.encode()).expect("round trip");
        assert_eq!(whole.pool.len(), 3);
        let mut reread = snap.reread().expect("reread");
        assert_eq!(reread, whole);
        // The activation counter is recounted: the next job is the fourth.
        assert_eq!(activate(&mut reread.pool, 1), Some(3));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MasterSnapshot::decode(&Value::Bool(true)).is_err());
        assert!(MasterSnapshot::decode(&Value::Object(vec![])).is_err());
    }

    #[test]
    fn snapshot_text_is_parsed_with_a_nesting_limit() {
        // The decoder a master reading checkpoint bytes would run.
        let from_text = |text: &str| -> Result<MasterSnapshot, String> {
            let tree: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
            MasterSnapshot::decode(&tree).map_err(|e| e.to_string())
        };
        let snap = sample();
        let text = serde_json::to_string(&snap.encode()).expect("serializes");
        assert_eq!(from_text(&text).expect("round trip"), snap);
        assert!(MasterSnapshot::survives_text(&snap.encode()));
        let err = from_text(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
    }

    #[test]
    fn encoding_is_deterministic() {
        let snap = sample();
        assert_eq!(snap.encode(), snap.encode());
    }

    #[test]
    fn data_plane_fields_round_trip_when_set() {
        let mut snap = sample();
        snap.attempts[0].task = Some(5);
        snap.map_output_hosts[0].tasks = vec![0, 2];
        snap.counters.reshuffle_events = 2;
        snap.counters.reshuffle_charged_ms = 4000;
        snap.counters.survivor_requeues = 6;
        snap.fault.lost_pending[1][0].task = Some(7);
        snap.fault.racks = vec![RackStateRecord {
            rack: 1,
            incident: 2,
            victims: vec![NodeId::new(3), NodeId::new(4)],
        }];
        snap.reshuffle_debt = vec![ReshuffleRecord {
            wf: WorkflowId::new(0),
            job: JobId::new(1),
            lost: 3,
        }];
        let restored = MasterSnapshot::decode(&snap.encode()).expect("round trip");
        assert_eq!(restored, snap);
    }
}
