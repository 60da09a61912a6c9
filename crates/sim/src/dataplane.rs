//! The data plane: replica placement, locality queries, map-output host
//! tracking, and shuffle-cost accounting, extracted from the driver into a
//! first-class layer.
//!
//! The simulator's original locality model was a per-node hash predicate:
//! map task `t` is "local" to node `n` iff one of `replicas` salted hash
//! draws lands on `n`. That is kept verbatim for flat (single-rack)
//! clusters — every byte of existing output is preserved — but it has no
//! geometry: replicas can collide on one node, and a node loss says
//! nothing about where the surviving copies are.
//!
//! With a rack topology ([`ClusterConfig::with_racks`]) the data plane
//! instead materializes deterministic HDFS-style replica sets: the first
//! replica on a hash-chosen primary node, the rest filling a hash-chosen
//! *remote* rack before falling back to the primary rack and the rest of
//! the cluster. Replica sets are always distinct nodes and span two racks
//! whenever the cluster has two (the HDFS 3-way placement invariant), so
//! a whole-rack outage never destroys every copy of a block.
//!
//! The layer also owns the two recovery-cost models the flat driver could
//! not express:
//!
//! - **survivor preference** ([`LocalityConfig::prefer_survivors`]): a map
//!   re-executed after a node loss keeps its original task identity, so
//!   the locality picker steers it to a surviving replica. Off, the
//!   re-queue gets a fresh location-agnostic id — which on a racked
//!   cluster has no replica hint and therefore always runs remote (on a
//!   flat cluster the legacy hash placement applies, byte for byte);
//! - **re-shuffle charging** ([`crate::SimConfig::reshuffle_cost`]): map
//!   outputs lost while a job's reducers still need them leave a *debt*
//!   on the job, and every reduce launched afterwards pays the configured
//!   cost per lost output (the re-fetch of re-executed map output).

use crate::cluster::ClusterConfig;
use crate::driver::LocalityConfig;
use crate::fault::splitmix;
use crate::hash::FastMap;
use crate::snapshot::{DelaySkipRecord, MapOutputRecord, PendingMapsRecord, ReshuffleRecord};
use serde::{Deserialize, Serialize};
use woha_model::{JobId, NodeId, WorkflowId};

/// Salt of the locality placement stream (kept from the pre-extraction
/// driver so flat-cluster placement is byte-identical).
const PLACEMENT_SALT: u64 = 0x10CA_110C_A110_CA11;
/// Salt of the remote-rack choice in HDFS-style replica sets.
const REMOTE_RACK_SALT: u64 = 0x4EB1_1CA5_E75A_17ED;

/// Deterministic preferred node for `(wf, job, task, replica)` — the
/// pre-rack hash placement, still the single-rack ground truth.
pub fn preferred_node(
    seed: u64,
    wf: WorkflowId,
    job: JobId,
    task: u32,
    replica: u32,
    node_count: usize,
) -> NodeId {
    let h = splitmix(
        seed ^ PLACEMENT_SALT
            ^ wf.as_u64().rotate_left(17)
            ^ (u64::from(job.as_u32()) << 40)
            ^ (u64::from(task) << 8)
            ^ u64::from(replica),
    );
    NodeId::new((h % node_count as u64) as u32)
}

/// Completed map outputs of one wjob: where each lives, and (when survivor
/// preference tracks identities) which original task produced it.
#[derive(Debug, Clone, Default)]
struct MapOutputs {
    /// One entry per completed map execution, the node that ran it.
    hosts: Vec<NodeId>,
    /// Original task index per entry, parallel to `hosts`; empty when
    /// task identities are not tracked.
    tasks: Vec<u32>,
}

/// One wjob's invalidated map outputs after a node loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidatedOutputs {
    /// Owning workflow.
    pub wf: WorkflowId,
    /// Owning wjob.
    pub job: JobId,
    /// Outputs lost with the node.
    pub lost: u32,
    /// Original task indices of the lost outputs (oldest first); empty
    /// when task identities are not tracked.
    pub tasks: Vec<u32>,
}

/// The data-plane layer: topology, replica placement, pending-map queues,
/// map-output locations, and re-shuffle debt. Owned by the driver; its
/// logical state checkpoints into [`crate::snapshot::MasterSnapshot`] and
/// WAL-replays byte-identically.
#[derive(Debug, Clone)]
pub struct DataPlane {
    seed: u64,
    node_count: usize,
    locality: Option<LocalityConfig>,
    /// Rack of each node (all zero on a flat cluster).
    node_racks: Vec<u32>,
    rack_count: u32,
    /// Nodes of each rack, in node-id order.
    rack_members: Vec<Vec<NodeId>>,
    /// Pending map-task ids per wjob (locality mode only).
    pending_map_ids: FastMap<(WorkflowId, JobId), Vec<u32>>,
    /// Consecutive declined non-local offers per wjob (delay scheduling).
    delay_skips: FastMap<(WorkflowId, JobId), u32>,
    /// Completed-map output locations per incomplete wjob (fault mode,
    /// jobs with reducers only).
    map_outputs: FastMap<(WorkflowId, JobId), MapOutputs>,
    /// Map outputs lost to node failures, not yet cleared, per wjob:
    /// reduces launched while the debt stands pay the re-shuffle cost.
    reshuffle_debt: FastMap<(WorkflowId, JobId), u64>,
    /// Memoised local nodes per active wjob: [`Self::row_width`] nodes per
    /// original map task, task-major. A pure function of `(seed, wf, job,
    /// task)`, so it is derived state: filled by the first pick after an
    /// activation or a restore, dropped with the job, never checkpointed.
    replica_memo: FastMap<(WorkflowId, JobId), Vec<NodeId>>,
}

impl DataPlane {
    /// A data plane for `cluster` under `locality` (which may be `None`:
    /// the plane still tracks map outputs and re-shuffle debt).
    pub fn new(seed: u64, cluster: &ClusterConfig, locality: Option<LocalityConfig>) -> Self {
        let node_count = cluster.node_count();
        let rack_count = cluster.rack_count();
        let node_racks: Vec<u32> = cluster.node_ids().map(|n| cluster.rack_of(n)).collect();
        let mut rack_members = vec![Vec::new(); rack_count as usize];
        for (i, &rack) in node_racks.iter().enumerate() {
            rack_members[rack as usize].push(NodeId::new(i as u32));
        }
        DataPlane {
            seed,
            node_count,
            locality,
            node_racks,
            rack_count,
            rack_members,
            pending_map_ids: FastMap::default(),
            delay_skips: FastMap::default(),
            map_outputs: FastMap::default(),
            reshuffle_debt: FastMap::default(),
            replica_memo: FastMap::default(),
        }
    }

    /// Number of racks (1 on a flat cluster).
    pub fn rack_count(&self) -> u32 {
        self.rack_count
    }

    /// Rack of one node.
    pub fn rack_of(&self, node: NodeId) -> u32 {
        self.node_racks[node.index()]
    }

    /// Whether re-executed maps keep their task identity to prefer
    /// surviving replicas.
    pub fn prefer_survivors(&self) -> bool {
        self.locality.is_some_and(|l| l.prefer_survivors)
    }

    /// The configured replica count (zero with locality off).
    fn replicas(&self) -> u32 {
        self.locality.map_or(0, |l| l.replicas)
    }

    /// Nodes in a [`Self::replica_set`]: the configured count, at least
    /// one, clamped to the node count.
    fn replica_count(&self) -> usize {
        self.replicas().max(1).min(self.node_count as u32) as usize
    }

    /// The deterministic replica set of map task `(wf, job, task)`:
    /// distinct nodes, spanning two racks whenever the cluster has two and
    /// more than one replica is asked for (HDFS-style placement). The
    /// configured replica count is clamped to the node count.
    pub fn replica_set(&self, wf: WorkflowId, job: JobId, task: u32) -> Vec<NodeId> {
        let mut set = Vec::with_capacity(self.replica_count());
        self.push_replica_set(wf, job, task, &mut set);
        set
    }

    /// Appends the replica set of `(wf, job, task)` to `out`.
    fn push_replica_set(&self, wf: WorkflowId, job: JobId, task: u32, out: &mut Vec<NodeId>) {
        let first = out.len();
        let want = first + self.replica_count();
        let primary = preferred_node(self.seed, wf, job, task, 0, self.node_count);
        out.push(primary);
        if out.len() == want {
            return;
        }
        if self.rack_count >= 2 {
            // HDFS 3-way shape: the remaining replicas fill one hash-chosen
            // remote rack, then the primary rack, then the rest.
            let primary_rack = self.rack_of(primary);
            let h = splitmix(
                self.seed
                    ^ REMOTE_RACK_SALT
                    ^ wf.as_u64().rotate_left(17)
                    ^ (u64::from(job.as_u32()) << 40)
                    ^ (u64::from(task) << 8),
            );
            let others = u64::from(self.rack_count) - 1;
            let mut remote = (h % others) as u32;
            if remote >= primary_rack {
                remote += 1;
            }
            let remote_nodes = &self.rack_members[remote as usize];
            let remote_start = (splitmix(h) % remote_nodes.len() as u64) as usize;
            let primary_nodes = &self.rack_members[primary_rack as usize];
            let primary_pos = primary_nodes
                .iter()
                .position(|&n| n == primary)
                .expect("primary is in its rack");
            let candidates = rotated(remote_nodes, remote_start)
                .chain(rotated(
                    primary_nodes,
                    (primary_pos + 1) % primary_nodes.len(),
                ))
                .chain((0..self.node_count as u32).map(NodeId::new));
            for n in candidates {
                if !out[first..].contains(&n) {
                    out.push(n);
                    if out.len() == want {
                        break;
                    }
                }
            }
        } else {
            // Flat cluster: the legacy hash draws, deduplicated by linear
            // probing so the set is still distinct nodes.
            let mut replica = 1u32;
            while out.len() < want {
                let mut n = preferred_node(self.seed, wf, job, task, replica, self.node_count);
                while out[first..].contains(&n) {
                    n = NodeId::new((n.as_u32() + 1) % self.node_count as u32);
                }
                out.push(n);
                replica += 1;
            }
        }
    }

    /// The legacy flat-cluster placement of `(wf, job, task)`: one raw
    /// hash draw per configured replica, collisions and all.
    fn flat_draws(
        &self,
        wf: WorkflowId,
        job: JobId,
        task: u32,
    ) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.replicas())
            .map(move |r| preferred_node(self.seed, wf, job, task, r, self.node_count))
    }

    /// Nodes per task in a [`Self::replica_memo`] table.
    fn row_width(&self) -> usize {
        if self.rack_count <= 1 {
            self.replicas() as usize
        } else {
            self.replica_count()
        }
    }

    /// The memo table of `(wf, job)`: the local nodes of each of its
    /// `spec_maps` original map tasks — the raw hash draws on a flat
    /// cluster, the replica set on a racked one.
    fn replica_rows(&self, wf: WorkflowId, job: JobId, spec_maps: u32) -> Vec<NodeId> {
        let mut rows = Vec::with_capacity(spec_maps as usize * self.row_width());
        for task in 0..spec_maps {
            if self.rack_count <= 1 {
                rows.extend(self.flat_draws(wf, job, task));
            } else {
                self.push_replica_set(wf, job, task, &mut rows);
            }
        }
        rows
    }

    /// The memo table of `(wf, job)`, if it has been filled.
    fn memo_rows(&self, wf: WorkflowId, job: JobId) -> Option<&[NodeId]> {
        self.replica_memo.get(&(wf, job)).map(Vec::as_slice)
    }

    /// Whether `(wf, job, task)` is local to `node`: a read of the task's
    /// row in `rows` (its wjob's memo table) when it has one, the same
    /// placement computed on the spot otherwise.
    fn local_to(
        &self,
        rows: Option<&[NodeId]>,
        node: NodeId,
        wf: WorkflowId,
        job: JobId,
        task: u32,
    ) -> bool {
        let width = self.row_width();
        let row = rows.and_then(|rows| {
            let at = task as usize * width;
            rows.get(at..at + width)
        });
        match row {
            Some(row) => row.contains(&node),
            None if self.rack_count <= 1 => self.flat_draws(wf, job, task).any(|n| n == node),
            None => self.replica_set(wf, job, task).contains(&node),
        }
    }

    /// Whether map task `(wf, job, task)` is local to `node`. On a flat
    /// cluster this is the legacy hash predicate (raw draws, collisions
    /// and all) — byte-identical to the pre-extraction driver; on a racked
    /// cluster it is membership in the materialized replica set.
    pub fn is_local(&self, node: NodeId, wf: WorkflowId, job: JobId, task: u32) -> bool {
        self.locality.is_some() && self.local_to(self.memo_rows(wf, job), node, wf, job, task)
    }

    /// Registers an activated job's pending map tasks (locality mode).
    pub fn activate_job(&mut self, wf: WorkflowId, job: JobId, maps: u32) {
        self.pending_map_ids.insert((wf, job), (0..maps).collect());
        // The memo's row count follows the map count, which a
        // re-activation may change.
        self.replica_memo.remove(&(wf, job));
    }

    /// Picks the pending map task of `(wf, job)` to run on `node`: a
    /// node-local task if one exists, otherwise the last pending one at
    /// the remote penalty. Returns `(task index, local?)`, or `None` to
    /// decline the offer (delay scheduling).
    ///
    /// `spec_maps` is the job's original map-task count. On a racked
    /// cluster, a re-queued map whose identity was dropped (a fresh id
    /// `>= spec_maps`) has no replica hint left — its input must be
    /// re-fetched from the surviving copies wherever it runs — so it never
    /// counts as local; survivor preference keeps the original id and can
    /// land on a surviving replica. On a flat cluster fresh ids keep the
    /// legacy hash placement, byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if the job was never activated or has no pending map.
    pub fn pick_map_task(
        &mut self,
        wf: WorkflowId,
        job: JobId,
        node: NodeId,
        spec_maps: u32,
    ) -> Option<(u32, bool)> {
        let loc = self.locality.expect("locality mode");
        let key = (wf, job);
        if !self.replica_memo.contains_key(&key) {
            let rows = self.replica_rows(wf, job, spec_maps);
            self.replica_memo.insert(key, rows);
        }
        let rows = self.memo_rows(wf, job);
        let flat = self.rack_count <= 1;
        let local_pos = self
            .pending_map_ids
            .get(&key)
            .expect("activated job has pending map ids")
            .iter()
            .position(|&task| {
                (flat || task < spec_maps) && self.local_to(rows, node, wf, job, task)
            });
        let ids = self.pending_map_ids.get_mut(&key).expect("still present");
        if let Some(pos) = local_pos {
            let task = ids.swap_remove(pos);
            self.delay_skips.insert(key, 0);
            return Some((task, true));
        }
        // No local task: maybe wait for a better offer.
        let skips = self.delay_skips.entry(key).or_insert(0);
        if *skips < loc.max_delay_skips {
            *skips += 1;
            return None;
        }
        *skips = 0;
        let task = ids.pop().expect("pending map task exists");
        Some((task, false))
    }

    /// Re-queues a map of `(wf, job)` after a failure. `fresh` is the
    /// location-agnostic replacement id (`spec_maps + retried - k`, the
    /// legacy behaviour); `original` is the failed execution's task
    /// identity when known. With survivor preference on and the identity
    /// known, the original id is re-queued — its replica set still names
    /// the surviving copies — and `true` is returned; otherwise the fresh
    /// id is queued (hashing a brand-new placement) and `false` is
    /// returned. A no-op when the job has no pending-map queue (locality
    /// off or job already gone).
    pub fn requeue_map(
        &mut self,
        wf: WorkflowId,
        job: JobId,
        fresh: u32,
        original: Option<u32>,
    ) -> bool {
        let survivors = self.prefer_survivors();
        let Some(ids) = self.pending_map_ids.get_mut(&(wf, job)) else {
            return false;
        };
        match original {
            Some(task) if survivors => {
                ids.push(task);
                true
            }
            _ => {
                ids.push(fresh);
                false
            }
        }
    }

    /// Records a completed map execution's output location (fault mode,
    /// jobs with reducers). `task` is the original task identity, tracked
    /// only under survivor preference (where the locality picker always
    /// knows it).
    pub fn record_map_output(
        &mut self,
        wf: WorkflowId,
        job: JobId,
        node: NodeId,
        task: Option<u32>,
    ) {
        let track = self.prefer_survivors();
        let out = self.map_outputs.entry((wf, job)).or_default();
        out.hosts.push(node);
        if track {
            if let Some(task) = task {
                out.tasks.push(task);
            }
        }
        debug_assert!(
            out.tasks.is_empty() || out.tasks.len() == out.hosts.len(),
            "task identities track hosts one-to-one or not at all"
        );
    }

    /// Drops everything the plane holds for a completed job: its (by now
    /// empty) pending-map queue and delay-skip count, output tracking,
    /// re-shuffle debt, and replica memo.
    pub fn finish_job(&mut self, wf: WorkflowId, job: JobId) {
        let key = (wf, job);
        self.pending_map_ids.remove(&key);
        self.delay_skips.remove(&key);
        self.map_outputs.remove(&key);
        self.reshuffle_debt.remove(&key);
        self.replica_memo.remove(&key);
    }

    /// Invalidates every completed map output hosted on `node`, returning
    /// the affected wjobs in key order (deterministic across map iteration
    /// orders) with how many outputs each lost and, when tracked, which
    /// original tasks produced them.
    pub fn invalidate_node(&mut self, node: NodeId) -> Vec<InvalidatedOutputs> {
        let mut keys: Vec<(WorkflowId, JobId)> = self
            .map_outputs
            .iter()
            .filter(|(_, out)| out.hosts.contains(&node))
            .map(|(&key, _)| key)
            .collect();
        keys.sort_unstable_by_key(|&(wf, job)| (wf.as_u64(), job.as_u32()));
        keys.into_iter()
            .map(|(wf, job)| {
                let out = self.map_outputs.get_mut(&(wf, job)).expect("key exists");
                let tracked = !out.tasks.is_empty();
                let mut lost = 0u32;
                let mut tasks = Vec::new();
                let mut kept_hosts = Vec::with_capacity(out.hosts.len());
                let mut kept_tasks = Vec::with_capacity(out.tasks.len());
                for (i, &h) in out.hosts.iter().enumerate() {
                    if h == node {
                        lost += 1;
                        if tracked {
                            tasks.push(out.tasks[i]);
                        }
                    } else {
                        kept_hosts.push(h);
                        if tracked {
                            kept_tasks.push(out.tasks[i]);
                        }
                    }
                }
                out.hosts = kept_hosts;
                out.tasks = kept_tasks;
                InvalidatedOutputs {
                    wf,
                    job,
                    lost,
                    tasks,
                }
            })
            .collect()
    }

    /// Adds `lost` map outputs to `(wf, job)`'s re-shuffle debt.
    pub fn add_reshuffle_debt(&mut self, wf: WorkflowId, job: JobId, lost: u64) {
        *self.reshuffle_debt.entry((wf, job)).or_insert(0) += lost;
    }

    /// The outstanding re-shuffle debt of `(wf, job)`.
    pub fn reshuffle_debt(&self, wf: WorkflowId, job: JobId) -> u64 {
        self.reshuffle_debt.get(&(wf, job)).copied().unwrap_or(0)
    }

    /// Entries held across all per-wjob tables; zero once every activated
    /// job has finished.
    pub(crate) fn tracked_entries(&self) -> usize {
        self.pending_map_ids.len()
            + self.delay_skips.len()
            + self.map_outputs.len()
            + self.reshuffle_debt.len()
            + self.replica_memo.len()
    }

    // ---- checkpoint plumbing -------------------------------------------

    /// Key-sorted pending-map records for a [`MasterSnapshot`](crate::MasterSnapshot).
    pub(crate) fn pending_map_records(&self) -> Vec<PendingMapsRecord> {
        key_sorted(&self.pending_map_ids, |wf, job, ids| PendingMapsRecord {
            wf,
            job,
            ids: ids.clone(),
        })
    }

    /// Key-sorted delay-skip records.
    pub(crate) fn delay_skip_records(&self) -> Vec<DelaySkipRecord> {
        key_sorted(&self.delay_skips, |wf, job, &skips| DelaySkipRecord {
            wf,
            job,
            skips,
        })
    }

    /// Key-sorted map-output records.
    pub(crate) fn map_output_records(&self) -> Vec<MapOutputRecord> {
        key_sorted(&self.map_outputs, |wf, job, out| MapOutputRecord {
            wf,
            job,
            hosts: out.hosts.clone(),
            tasks: out.tasks.clone(),
        })
    }

    /// Key-sorted re-shuffle debt records.
    pub(crate) fn reshuffle_records(&self) -> Vec<ReshuffleRecord> {
        key_sorted(&self.reshuffle_debt, |wf, job, &lost| ReshuffleRecord {
            wf,
            job,
            lost,
        })
    }

    /// Replaces the plane's logical state with checkpoint records (the
    /// topology and config are construction-time and survive restores).
    pub fn install(
        &mut self,
        pending: Vec<PendingMapsRecord>,
        skips: Vec<DelaySkipRecord>,
        outputs: Vec<MapOutputRecord>,
        debt: Vec<ReshuffleRecord>,
    ) {
        self.pending_map_ids = pending
            .into_iter()
            .map(|r| ((r.wf, r.job), r.ids))
            .collect();
        self.delay_skips = skips
            .into_iter()
            .map(|r| ((r.wf, r.job), r.skips))
            .collect();
        self.map_outputs = outputs
            .into_iter()
            .map(|r| {
                (
                    (r.wf, r.job),
                    MapOutputs {
                        hosts: r.hosts,
                        tasks: r.tasks,
                    },
                )
            })
            .collect();
        self.reshuffle_debt = debt.into_iter().map(|r| ((r.wf, r.job), r.lost)).collect();
        // A restored master may hand a workflow id to a different spec.
        self.replica_memo.clear();
    }
}

/// `nodes` from index `start` round to just before it.
fn rotated(nodes: &[NodeId], start: usize) -> impl Iterator<Item = NodeId> + '_ {
    nodes[start..].iter().chain(&nodes[..start]).copied()
}

/// Per-run data-plane summary, reported as the `data_plane` section of
/// [`SimReport`](crate::SimReport) whenever any data-plane feature (racks,
/// rack faults, survivor preference, re-shuffle charging) is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DataPlaneReport {
    /// Racks in the cluster topology.
    pub racks: u32,
    /// Correlated rack-switch outages injected.
    pub rack_outages: u64,
    /// Map re-queues that kept their task identity to target surviving
    /// replicas (vs location-agnostic fresh ids).
    pub survivor_requeues: u64,
    /// Reduce launches that paid a re-shuffle cost.
    pub reshuffle_events: u64,
    /// Total simulated time charged to re-shuffles, in milliseconds.
    pub reshuffle_charged_ms: u64,
}

/// The entries of a per-wjob table as checkpoint records, in `(wf, job)`
/// order: the one order every data-plane record list is kept in.
fn key_sorted<V, R>(
    table: &FastMap<(WorkflowId, JobId), V>,
    record: impl Fn(WorkflowId, JobId, &V) -> R,
) -> Vec<R> {
    let mut entries: Vec<_> = table.iter().collect();
    entries.sort_unstable_by_key(|(&(wf, job), _)| (wf.as_u64(), job.as_u32()));
    entries
        .into_iter()
        .map(|(&(wf, job), v)| record(wf, job, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(nodes: u32, racks: u32, loc: Option<LocalityConfig>) -> DataPlane {
        let cluster = ClusterConfig::uniform(nodes, 2, 1).with_racks(racks);
        DataPlane::new(7, &cluster, loc)
    }

    fn loc(replicas: u32) -> Option<LocalityConfig> {
        Some(LocalityConfig {
            replicas,
            ..LocalityConfig::default()
        })
    }

    #[test]
    fn flat_locality_matches_legacy_predicate() {
        let p = plane(8, 1, loc(3));
        let (wf, job) = (WorkflowId::new(3), JobId::new(1));
        for task in 0..50 {
            for node in 0..8 {
                let n = NodeId::new(node);
                let legacy = (0..3).any(|r| preferred_node(7, wf, job, task, r, 8) == n);
                assert_eq!(p.is_local(n, wf, job, task), legacy);
            }
        }
    }

    #[test]
    fn replica_sets_are_distinct_and_span_racks() {
        let p = plane(9, 3, loc(3));
        let (wf, job) = (WorkflowId::new(1), JobId::new(0));
        for task in 0..200 {
            let set = p.replica_set(wf, job, task);
            assert_eq!(set.len(), 3);
            let mut dedup = set.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "duplicate node in {set:?}");
            let racks: std::collections::BTreeSet<u32> =
                set.iter().map(|&n| p.rack_of(n)).collect();
            assert!(racks.len() >= 2, "replica set {set:?} sits in one rack");
        }
    }

    #[test]
    fn replica_sets_clamp_to_node_count() {
        let p = plane(2, 1, loc(5));
        let set = p.replica_set(WorkflowId::new(0), JobId::new(0), 1);
        assert_eq!(set.len(), 2);
        assert_ne!(set[0], set[1]);
    }

    #[test]
    fn survivor_requeue_keeps_identity() {
        let mut p = plane(
            4,
            2,
            loc(2).map(|l| LocalityConfig {
                prefer_survivors: true,
                ..l
            }),
        );
        let (wf, job) = (WorkflowId::new(0), JobId::new(0));
        p.activate_job(wf, job, 3);
        assert!(p.requeue_map(wf, job, 99, Some(1)));
        // Without survivor preference the fresh id is used.
        let mut q = plane(4, 2, loc(2));
        q.activate_job(wf, job, 3);
        assert!(!q.requeue_map(wf, job, 99, Some(1)));
    }

    #[test]
    fn fresh_requeues_never_local_on_racked_clusters() {
        // A racked plane with one pending fresh id (beyond the 3 spec
        // maps): every offer runs it remote, whatever the node.
        let mut p = plane(6, 2, loc(3));
        let (wf, job) = (WorkflowId::new(0), JobId::new(0));
        p.activate_job(wf, job, 0);
        assert!(!p.requeue_map(wf, job, 3, Some(1)));
        let (task, local) = p
            .pick_map_task(wf, job, NodeId::new(0), 3)
            .expect("no delay");
        assert_eq!((task, local), (3, false));
        // An original id re-queued under survivor preference stays local
        // on its replica nodes.
        let mut q = plane(
            6,
            2,
            loc(3).map(|l| LocalityConfig {
                prefer_survivors: true,
                ..l
            }),
        );
        q.activate_job(wf, job, 0);
        assert!(q.requeue_map(wf, job, 3, Some(1)));
        let replica = q.replica_set(wf, job, 1)[0];
        let (task, local) = q.pick_map_task(wf, job, replica, 3).expect("no delay");
        assert_eq!((task, local), (1, true));
    }

    #[test]
    fn invalidation_reports_tracked_tasks_in_key_order() {
        let mut p = plane(
            4,
            2,
            loc(2).map(|l| LocalityConfig {
                prefer_survivors: true,
                ..l
            }),
        );
        let (w0, w1) = (WorkflowId::new(0), WorkflowId::new(1));
        let j = JobId::new(0);
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        p.record_map_output(w1, j, n0, Some(7));
        p.record_map_output(w0, j, n0, Some(2));
        p.record_map_output(w0, j, n1, Some(3));
        p.record_map_output(w0, j, n0, Some(4));
        let inv = p.invalidate_node(n0);
        assert_eq!(inv.len(), 2);
        assert_eq!((inv[0].wf, inv[0].lost), (w0, 2));
        assert_eq!(inv[0].tasks, vec![2, 4]);
        assert_eq!((inv[1].wf, inv[1].lost), (w1, 1));
        assert_eq!(inv[1].tasks, vec![7]);
        // The surviving output stays.
        assert!(p.invalidate_node(n0).is_empty());
        let again = p.invalidate_node(n1);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].tasks, vec![3]);
    }

    #[test]
    fn finish_job_leaves_no_entry_behind() {
        let mut p = plane(
            6,
            2,
            loc(3).map(|l| LocalityConfig {
                prefer_survivors: true,
                max_delay_skips: 1,
                ..l
            }),
        );
        let (wf, job) = (WorkflowId::new(2), JobId::new(1));
        p.activate_job(wf, job, 4);
        while p.pick_map_task(wf, job, NodeId::new(0), 4).is_none() {}
        assert!(p.requeue_map(wf, job, 4, Some(0)));
        p.record_map_output(wf, job, NodeId::new(0), Some(1));
        p.add_reshuffle_debt(wf, job, 1);
        assert_eq!(p.tracked_entries(), 5, "one entry in each table");
        p.finish_job(wf, job);
        assert_eq!(p.tracked_entries(), 0);
        // Re-queueing onto a finished job stays a no-op.
        assert!(!p.requeue_map(wf, job, 5, Some(0)));
        assert_eq!(p.tracked_entries(), 0);
    }

    #[test]
    fn reshuffle_debt_accrues_and_clears_with_the_job() {
        let mut p = plane(2, 1, None);
        let (wf, job) = (WorkflowId::new(0), JobId::new(1));
        assert_eq!(p.reshuffle_debt(wf, job), 0);
        p.add_reshuffle_debt(wf, job, 2);
        p.add_reshuffle_debt(wf, job, 1);
        assert_eq!(p.reshuffle_debt(wf, job), 3);
        p.finish_job(wf, job);
        assert_eq!(p.reshuffle_debt(wf, job), 0);
    }

    #[test]
    fn checkpoint_records_round_trip() {
        let mut p = plane(
            4,
            2,
            loc(2).map(|l| LocalityConfig {
                prefer_survivors: true,
                ..l
            }),
        );
        let (wf, job) = (WorkflowId::new(0), JobId::new(0));
        p.activate_job(wf, job, 4);
        p.pick_map_task(wf, job, NodeId::new(0), 4);
        p.record_map_output(wf, job, NodeId::new(0), Some(0));
        p.add_reshuffle_debt(wf, job, 2);
        let (pend, skips, outs, debt) = (
            p.pending_map_records(),
            p.delay_skip_records(),
            p.map_output_records(),
            p.reshuffle_records(),
        );
        let mut q = plane(
            4,
            2,
            loc(2).map(|l| LocalityConfig {
                prefer_survivors: true,
                ..l
            }),
        );
        q.install(pend.clone(), skips.clone(), outs.clone(), debt.clone());
        assert_eq!(q.pending_map_records(), pend);
        assert_eq!(q.delay_skip_records(), skips);
        assert_eq!(q.map_output_records(), outs);
        assert_eq!(q.reshuffle_records(), debt);
        assert_eq!(q.reshuffle_debt(wf, job), 2);
    }
}
