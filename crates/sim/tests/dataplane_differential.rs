//! Differential test of the data plane's memoised locality: a random walk
//! of offers, re-queues (original ids and fresh ids beyond the spec's map
//! count), job completions, re-activations and checkpoint restores drives
//! [`DataPlane::pick_map_task`] against an uncached reference that derives
//! every task's placement from scratch on every offer — the picker as it
//! was before replica sets were memoised, rotated `Vec`s and all.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use woha_model::{JobId, NodeId, WorkflowId};
use woha_sim::dataplane::preferred_node;
use woha_sim::snapshot::{DelaySkipRecord, PendingMapsRecord};
use woha_sim::{ClusterConfig, DataPlane, LocalityConfig};

/// The plane's remote-rack salt and mixing function (private there;
/// placement is pinned by both).
const REMOTE_RACK_SALT: u64 = 0x4EB1_1CA5_E75A_17ED;

fn splitmix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// One wjob as the reference tracks it.
#[derive(Debug, Default)]
struct RefJob {
    /// Map count of the spec the job was last activated (or restored) with.
    spec_maps: u32,
    /// Pending map ids in queue order; `None` once finished.
    pending: Option<Vec<u32>>,
    /// Consecutive declined offers.
    skips: u32,
    /// Fresh ids handed out so far.
    retried: u32,
}

struct Reference {
    seed: u64,
    cluster: ClusterConfig,
    loc: LocalityConfig,
    jobs: BTreeMap<(u64, u32), RefJob>,
}

impl Reference {
    /// HDFS-style replica set, by rotating each rack's member list.
    fn replica_set(&self, wf: WorkflowId, job: JobId, task: u32) -> Vec<NodeId> {
        let nodes = self.cluster.node_count();
        let want = self.loc.replicas.min(nodes as u32) as usize;
        let primary = preferred_node(self.seed, wf, job, task, 0, nodes);
        let mut set = vec![primary];
        if want == 1 {
            return set;
        }
        let primary_rack = self.cluster.rack_of(primary);
        let h = splitmix(
            self.seed
                ^ REMOTE_RACK_SALT
                ^ wf.as_u64().rotate_left(17)
                ^ (u64::from(job.as_u32()) << 40)
                ^ (u64::from(task) << 8),
        );
        let mut remote = (h % (u64::from(self.cluster.rack_count()) - 1)) as u32;
        if remote >= primary_rack {
            remote += 1;
        }
        let mut remote_nodes = self.cluster.rack_nodes(remote);
        let remote_start = (splitmix(h) % remote_nodes.len() as u64) as usize;
        remote_nodes.rotate_left(remote_start);
        let mut primary_nodes = self.cluster.rack_nodes(primary_rack);
        let after_primary = primary_nodes.iter().position(|&n| n == primary).unwrap() + 1;
        let len = primary_nodes.len();
        primary_nodes.rotate_left(after_primary % len);
        let candidates = remote_nodes
            .into_iter()
            .chain(primary_nodes)
            .chain(self.cluster.node_ids());
        for n in candidates {
            if set.len() < want && !set.contains(&n) {
                set.push(n);
            }
        }
        set
    }

    /// The uncached locality predicate of one pending id.
    fn is_local(
        &self,
        wf: WorkflowId,
        job: JobId,
        task: u32,
        node: NodeId,
        spec_maps: u32,
    ) -> bool {
        if self.cluster.rack_count() <= 1 {
            let nodes = self.cluster.node_count();
            (0..self.loc.replicas)
                .any(|r| preferred_node(self.seed, wf, job, task, r, nodes) == node)
        } else {
            task < spec_maps && self.replica_set(wf, job, task).contains(&node)
        }
    }

    fn pick(&mut self, key: (u64, u32), node: NodeId) -> Option<(u32, bool)> {
        let (wf, job) = (WorkflowId::new(key.0), JobId::new(key.1));
        let j = &self.jobs[&key];
        let local_pos = j
            .pending
            .as_ref()
            .expect("active")
            .iter()
            .position(|&task| self.is_local(wf, job, task, node, j.spec_maps));
        let max_skips = self.loc.max_delay_skips;
        let j = self.jobs.get_mut(&key).expect("present");
        let pending = j.pending.as_mut().expect("active");
        if let Some(pos) = local_pos {
            j.skips = 0;
            return Some((pending.swap_remove(pos), true));
        }
        if j.skips < max_skips {
            j.skips += 1;
            return None;
        }
        j.skips = 0;
        Some((pending.pop().expect("non-empty"), false))
    }
}

/// Installs the reference's state into `plane`, as a checkpoint restore
/// would.
fn restore(plane: &mut DataPlane, reference: &Reference) {
    let active = || {
        reference.jobs.iter().filter_map(|(&(wf, job), j)| {
            Some((WorkflowId::new(wf), JobId::new(job), j, j.pending.as_ref()?))
        })
    };
    let pending = active()
        .map(|(wf, job, _, ids)| PendingMapsRecord {
            wf,
            job,
            ids: ids.clone(),
        })
        .collect();
    let skips = active()
        .map(|(wf, job, j, _)| DelaySkipRecord {
            wf,
            job,
            skips: j.skips,
        })
        .collect();
    plane.install(pending, skips, Vec::new(), Vec::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn memoised_picks_equal_the_uncached_reference(
        seed in 0u64..1000,
        topology in (4u32..24, 1u32..5),
        locality in (1u32..5, 0u32..4, 0u32..2),
        maps in vec(0u32..12, 4),
        ops in vec((0u32..16, 0u32..1024, 0u32..1024), 0..250),
    ) {
        let (nodes, racks) = topology;
        let (replicas, max_delay_skips, survivors) = locality;
        let cluster = ClusterConfig::uniform(nodes, 2, 1).with_racks(racks);
        let loc = LocalityConfig {
            replicas,
            max_delay_skips,
            prefer_survivors: survivors == 1,
        };
        let mut plane = DataPlane::new(seed, &cluster, Some(loc));
        let mut reference = Reference { seed, cluster, loc, jobs: BTreeMap::new() };
        let keys: Vec<(u64, u32)> = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        let activate = |plane: &mut DataPlane, reference: &mut Reference, key: (u64, u32), m: u32| {
            plane.activate_job(WorkflowId::new(key.0), JobId::new(key.1), m);
            let j = reference.jobs.entry(key).or_default();
            j.spec_maps = m;
            j.pending = Some((0..m).collect());
            j.retried = 0;
        };
        for (&key, &m) in keys.iter().zip(&maps) {
            activate(&mut plane, &mut reference, key, m);
        }
        for (code, a, b) in ops {
            let key = keys[a as usize % keys.len()];
            let (wf, job) = (WorkflowId::new(key.0), JobId::new(key.1));
            let node = NodeId::new(b % nodes);
            let (spec_maps, active, queued) = {
                let j = &reference.jobs[&key];
                (j.spec_maps, j.pending.is_some(), j.pending.as_ref().map_or(0, Vec::len))
            };
            match code {
                // An offer (the common case).
                0..=8 if queued > 0 => {
                    let expect = reference.pick(key, node);
                    prop_assert_eq!(plane.pick_map_task(wf, job, node, spec_maps), expect);
                }
                // Re-queue of a known original id.
                9 | 10 if spec_maps > 0 => {
                    let fresh = spec_maps + reference.jobs[&key].retried;
                    let original = b % spec_maps;
                    let kept = plane.requeue_map(wf, job, fresh, Some(original));
                    prop_assert_eq!(kept, active && loc.prefer_survivors);
                    let j = reference.jobs.get_mut(&key).expect("present");
                    if let Some(pending) = j.pending.as_mut() {
                        pending.push(if kept { original } else { fresh });
                        j.retried += 1;
                    }
                }
                // Re-queue with the identity lost: always a fresh id.
                11 => {
                    let fresh = spec_maps + reference.jobs[&key].retried;
                    prop_assert!(!plane.requeue_map(wf, job, fresh, None));
                    let j = reference.jobs.get_mut(&key).expect("present");
                    if let Some(pending) = j.pending.as_mut() {
                        pending.push(fresh);
                        j.retried += 1;
                    }
                }
                12 => {
                    plane.finish_job(wf, job);
                    let j = reference.jobs.get_mut(&key).expect("present");
                    j.pending = None;
                    j.skips = 0;
                }
                13 => activate(&mut plane, &mut reference, key, b % 12),
                // A restore that hands `(wf, job)` to a spec with another
                // map count; every other job comes back as it was.
                14 => {
                    let j = reference.jobs.get_mut(&key).expect("present");
                    j.spec_maps = (spec_maps + 1 + b % 7) % 12;
                    j.pending = Some((0..j.spec_maps).collect());
                    j.retried = 0;
                    restore(&mut plane, &reference);
                }
                // A restore of the state as it stands.
                15 => restore(&mut plane, &reference),
                _ => {}
            }
            // The public predicate agrees with the reference on original
            // ids, memo row or not.
            if spec_maps > 0 {
                let task = (a ^ b) % spec_maps;
                let spec_maps = reference.jobs[&key].spec_maps;
                if task < spec_maps {
                    prop_assert_eq!(
                        plane.is_local(node, wf, job, task),
                        reference.is_local(wf, job, task, node, spec_maps)
                    );
                }
            }
        }
    }
}
