//! Cluster configuration: nodes, their map/reduce slots, and the rack
//! topology the data plane places replicas over.

use crate::fault::FaultConfig;
use serde::{Deserialize, Serialize};
use woha_model::{NodeId, SimDuration, SlotKind, WorkflowSpec};

/// Static description of one worker node (TaskTracker host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Number of map slots.
    pub map_slots: u32,
    /// Number of reduce slots.
    pub reduce_slots: u32,
}

impl NodeConfig {
    /// Slots of the given kind.
    pub fn slots(&self, kind: SlotKind) -> u32 {
        match kind {
            SlotKind::Map => self.map_slots,
            SlotKind::Reduce => self.reduce_slots,
        }
    }

    /// Total slots of both kinds on this node.
    ///
    /// # Panics
    ///
    /// Panics if the sum overflows `u32` (also in release builds — slot
    /// counts feed capacity math that must not wrap silently).
    pub fn total_slots(&self) -> u32 {
        self.map_slots
            .checked_add(self.reduce_slots)
            .expect("node slot count overflows u32")
    }
}

/// Static description of the simulated cluster.
///
/// # Examples
///
/// ```
/// use woha_sim::ClusterConfig;
/// use woha_model::SlotKind;
///
/// // The paper's demo cluster: 32 slaves, 2 map + 1 reduce slot each.
/// let c = ClusterConfig::uniform(32, 2, 1);
/// assert_eq!(c.total_slots(SlotKind::Map), 64);
/// assert_eq!(c.total_slots(SlotKind::Reduce), 32);
///
/// // The paper's "200m-200r" trace cluster.
/// let c = ClusterConfig::with_totals(200, 200);
/// assert_eq!(c.total_slots(SlotKind::Map), 200);
/// assert_eq!(c.total_slots(SlotKind::Reduce), 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterConfig {
    nodes: Vec<NodeConfig>,
    heartbeat_interval: SimDuration,
    faults: FaultConfig,
    /// Rack of each node, parallel to `nodes`. Empty means every node sits
    /// in one rack (rack 0) — the flat-cluster default, byte-identical to
    /// configurations serialized before racks existed.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    node_racks: Vec<u32>,
}

impl ClusterConfig {
    /// Default TaskTracker heartbeat interval (Hadoop-1 uses 3 s minimum
    /// for small clusters; the simulator defaults to 1 s for finer-grained
    /// scheduling, and the heartbeat that reports a completion may carry a
    /// new assignment immediately, as in Hadoop).
    pub const DEFAULT_HEARTBEAT: SimDuration = SimDuration::from_secs(1);

    /// A cluster of `node_count` identical nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero or both slot counts are zero.
    pub fn uniform(node_count: u32, map_slots: u32, reduce_slots: u32) -> Self {
        assert!(node_count > 0, "cluster needs at least one node");
        let node = NodeConfig {
            map_slots,
            reduce_slots,
        };
        // Checked: `map_slots + reduce_slots` would wrap in release builds.
        assert!(node.total_slots() > 0, "nodes need at least one slot");
        ClusterConfig {
            nodes: vec![node; node_count as usize],
            heartbeat_interval: Self::DEFAULT_HEARTBEAT,
            faults: FaultConfig::default(),
            node_racks: Vec::new(),
        }
    }

    /// A cluster with the given total slot counts, split over nodes of
    /// 2 map + 2 reduce slots (the paper's trace experiments name clusters
    /// by totals, e.g. "240m-240r").
    ///
    /// # Panics
    ///
    /// Panics if both totals are zero.
    pub fn with_totals(map_slots: u32, reduce_slots: u32) -> Self {
        let total = map_slots
            .checked_add(reduce_slots)
            .expect("cluster slot count overflows u32");
        assert!(total > 0, "cluster needs slots");
        let node_count = map_slots.div_ceil(2).max(reduce_slots.div_ceil(2)).max(1);
        let mut nodes = Vec::with_capacity(node_count as usize);
        let mut maps_left = map_slots;
        let mut reduces_left = reduce_slots;
        for i in 0..node_count {
            let remaining_nodes = node_count - i;
            let m = maps_left.div_ceil(remaining_nodes).min(maps_left);
            let r = reduces_left.div_ceil(remaining_nodes).min(reduces_left);
            nodes.push(NodeConfig {
                map_slots: m,
                reduce_slots: r,
            });
            maps_left -= m;
            reduces_left -= r;
        }
        ClusterConfig {
            nodes,
            heartbeat_interval: Self::DEFAULT_HEARTBEAT,
            faults: FaultConfig::default(),
            node_racks: Vec::new(),
        }
    }

    /// Overrides the heartbeat interval (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_heartbeat(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "heartbeat interval must be positive");
        self.heartbeat_interval = interval;
        self
    }

    /// Attaches a fault-injection configuration (builder-style). The
    /// default configuration injects nothing.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Splits the nodes into `rack_count` racks of contiguous, balanced
    /// node blocks (builder-style): node `i` lands in rack
    /// `i * rack_count / node_count`, so rack sizes differ by at most one.
    /// `with_racks(1)` restores the flat-cluster default.
    ///
    /// # Panics
    ///
    /// Panics if `rack_count` is zero or exceeds the node count.
    pub fn with_racks(mut self, rack_count: u32) -> Self {
        assert!(rack_count > 0, "cluster needs at least one rack");
        let n = self.nodes.len() as u64;
        assert!(
            u64::from(rack_count) <= n,
            "more racks than nodes ({rack_count} racks, {n} nodes)"
        );
        if rack_count == 1 {
            // Canonical flat form: keep the serialized config identical to
            // one that never mentioned racks.
            self.node_racks = Vec::new();
        } else {
            self.node_racks = (0..n)
                .map(|i| ((i * u64::from(rack_count)) / n) as u32)
                .collect();
        }
        self
    }

    /// Number of racks (1 for the flat default).
    pub fn rack_count(&self) -> u32 {
        self.node_racks.iter().copied().max().map_or(1, |m| m + 1)
    }

    /// Rack of one node (0 in the flat default).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn rack_of(&self, node: NodeId) -> u32 {
        assert!(node.index() < self.nodes.len(), "node out of range");
        self.node_racks.get(node.index()).copied().unwrap_or(0)
    }

    /// The nodes of one rack, in node-id order.
    pub fn rack_nodes(&self, rack: u32) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.rack_of(n) == rack)
            .collect()
    }

    /// The nodes.
    pub fn nodes(&self) -> &[NodeConfig] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node ids, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// Configuration of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> NodeConfig {
        self.nodes[node.index()]
    }

    /// Total slots of a kind across the cluster.
    ///
    /// # Panics
    ///
    /// Panics if the total overflows `u32`.
    pub fn total_slots(&self, kind: SlotKind) -> u32 {
        self.nodes.iter().map(|n| n.slots(kind)).fold(0u32, |a, s| {
            a.checked_add(s).expect("cluster slot count overflows u32")
        })
    }

    /// A kind of task `spec` has but this cluster has no slot for, if
    /// any: such a workflow could never finish here.
    pub fn missing_slots(&self, spec: &WorkflowSpec) -> Option<SlotKind> {
        let tasks = [spec.total_map_tasks(), spec.total_reduce_tasks()];
        SlotKind::ALL
            .into_iter()
            .find(|&kind| tasks[kind as usize] > 0 && self.total_slots(kind) == 0)
    }

    /// Total slots of both kinds (the resource cap `n` handed to the
    /// Scheduling Plan Generator).
    ///
    /// # Panics
    ///
    /// Panics if the total overflows `u32`.
    pub fn total_all_slots(&self) -> u32 {
        self.total_slots(SlotKind::Map)
            .checked_add(self.total_slots(SlotKind::Reduce))
            .expect("cluster slot count overflows u32")
    }

    /// TaskTracker heartbeat interval.
    pub fn heartbeat_interval(&self) -> SimDuration {
        self.heartbeat_interval
    }

    /// The fault-injection configuration.
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_totals() {
        let c = ClusterConfig::uniform(80, 2, 1);
        assert_eq!(c.node_count(), 80);
        assert_eq!(c.total_slots(SlotKind::Map), 160);
        assert_eq!(c.total_slots(SlotKind::Reduce), 80);
        assert_eq!(c.total_all_slots(), 240);
        assert_eq!(c.node(NodeId::new(0)).slots(SlotKind::Map), 2);
    }

    #[test]
    fn with_totals_exact() {
        for (m, r) in [(200, 200), (240, 240), (280, 280), (7, 3), (1, 0), (0, 5)] {
            let c = ClusterConfig::with_totals(m, r);
            assert_eq!(c.total_slots(SlotKind::Map), m, "maps for {m}m-{r}r");
            assert_eq!(c.total_slots(SlotKind::Reduce), r, "reduces for {m}m-{r}r");
        }
    }

    #[test]
    fn with_totals_spreads_evenly() {
        let c = ClusterConfig::with_totals(200, 200);
        assert_eq!(c.node_count(), 100);
        for n in c.nodes() {
            assert_eq!(n.map_slots, 2);
            assert_eq!(n.reduce_slots, 2);
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn uniform_rejects_empty() {
        ClusterConfig::uniform(0, 2, 1);
    }

    #[test]
    fn heartbeat_override() {
        let c = ClusterConfig::uniform(1, 1, 1).with_heartbeat(SimDuration::from_secs(3));
        assert_eq!(c.heartbeat_interval(), SimDuration::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn heartbeat_rejects_zero() {
        ClusterConfig::uniform(1, 1, 1).with_heartbeat(SimDuration::ZERO);
    }

    #[test]
    fn node_ids_cover_nodes() {
        let c = ClusterConfig::uniform(5, 1, 1);
        let ids: Vec<NodeId> = c.node_ids().collect();
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[4], NodeId::new(4));
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn uniform_rejects_slot_overflow() {
        ClusterConfig::uniform(1, u32::MAX, 1);
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn with_totals_rejects_slot_overflow() {
        ClusterConfig::with_totals(u32::MAX, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn node_total_slots_rejects_overflow() {
        NodeConfig {
            map_slots: u32::MAX,
            reduce_slots: u32::MAX,
        }
        .total_slots();
    }

    #[test]
    fn default_topology_is_one_rack() {
        let c = ClusterConfig::uniform(8, 2, 1);
        assert_eq!(c.rack_count(), 1);
        assert!(c.node_ids().all(|n| c.rack_of(n) == 0));
        assert_eq!(c.rack_nodes(0).len(), 8);
        assert!(c.rack_nodes(1).is_empty());
    }

    #[test]
    fn with_racks_balances_contiguous_blocks() {
        let c = ClusterConfig::uniform(8, 2, 1).with_racks(3);
        assert_eq!(c.rack_count(), 3);
        let sizes: Vec<usize> = (0..3).map(|r| c.rack_nodes(r).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "sizes {sizes:?}");
        // Contiguous: rack index is non-decreasing over node ids.
        let racks: Vec<u32> = c.node_ids().map(|n| c.rack_of(n)).collect();
        assert!(racks.windows(2).all(|p| p[0] <= p[1]), "racks {racks:?}");
    }

    #[test]
    fn with_racks_one_is_invisible() {
        let flat = ClusterConfig::uniform(4, 1, 1);
        let re_flat = flat.clone().with_racks(2).with_racks(1);
        assert_eq!(flat, re_flat);
        assert_eq!(
            serde_json::to_string(&flat).unwrap(),
            serde_json::to_string(&re_flat).unwrap()
        );
        // And a pre-rack serialized config still decodes.
        let json = serde_json::to_string(&flat).unwrap();
        assert!(!json.contains("node_racks"));
        let back: ClusterConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, flat);
    }

    #[test]
    fn racked_config_roundtrips_through_json() {
        let c = ClusterConfig::uniform(6, 2, 1).with_racks(2);
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("node_racks"));
        let back: ClusterConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.rack_count(), 2);
    }

    #[test]
    #[should_panic(expected = "more racks than nodes")]
    fn with_racks_rejects_too_many() {
        ClusterConfig::uniform(2, 1, 1).with_racks(3);
    }

    #[test]
    #[should_panic(expected = "at least one rack")]
    fn with_racks_rejects_zero() {
        ClusterConfig::uniform(2, 1, 1).with_racks(0);
    }

    #[test]
    fn faults_default_disabled_and_builder_attaches() {
        use crate::fault::{FaultConfig, ScriptedFault};
        use woha_model::SimTime;

        let c = ClusterConfig::uniform(2, 1, 1);
        assert!(!c.faults().enabled());
        let f = FaultConfig::scripted(vec![ScriptedFault::one(
            NodeId::new(1),
            SimTime::from_secs(5),
            None,
        )]);
        let c = c.with_faults(f.clone());
        assert!(c.faults().enabled());
        assert_eq!(c.faults(), &f);
    }
}
