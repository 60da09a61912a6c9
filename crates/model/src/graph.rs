//! Directed acyclic graph utilities shared by the workflow model and the
//! scheduling algorithms.
//!
//! Nodes are dense `usize` indices `0..n`; edges point from a **predecessor**
//! (a job that must finish first) to its **successor**. The workflow layer
//! maps [`JobId`](crate::JobId)s onto these indices.

use std::collections::VecDeque;

/// A directed graph over nodes `0..node_count`, stored as forward and
/// backward adjacency lists.
///
/// `Dag` does not enforce acyclicity on insertion — cycle detection is a
/// query ([`Dag::topo_sort`]) so that validation code can report *which*
/// node participates in a cycle.
///
/// # Examples
///
/// ```
/// use woha_model::graph::Dag;
/// let mut g = Dag::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.topo_sort().unwrap(), vec![0, 1, 2]);
/// assert_eq!(g.sources(), vec![0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dag {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    edge_count: usize,
}

impl Dag {
    /// Creates a graph with `node_count` nodes and no edges.
    pub fn new(node_count: usize) -> Self {
        Dag {
            succs: vec![Vec::new(); node_count],
            preds: vec![Vec::new(); node_count],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds the edge `from -> to` (duplicate edges are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is out of range or if `from == to`.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < self.node_count(), "edge source {from} out of range");
        assert!(to < self.node_count(), "edge target {to} out of range");
        assert_ne!(from, to, "self-loops are not allowed");
        if self.succs[from].contains(&to) {
            return;
        }
        self.succs[from].push(to);
        self.preds[to].push(from);
        self.edge_count += 1;
    }

    /// Successors (direct dependents) of `node`.
    pub fn successors(&self, node: usize) -> &[usize] {
        &self.succs[node]
    }

    /// Nodes with no predecessors, in index order.
    pub fn sources(&self) -> Vec<usize> {
        (0..self.node_count())
            .filter(|&v| self.preds[v].is_empty())
            .collect()
    }

    /// Kahn topological sort. Ties are broken by smallest node index, so the
    /// order is deterministic.
    ///
    /// # Errors
    ///
    /// Returns `Err(node)` with some node on a cycle if the graph is cyclic.
    pub fn topo_sort(&self) -> Result<Vec<usize>, usize> {
        let n = self.node_count();
        let mut indegree: Vec<usize> = (0..n).map(|v| self.preds[v].len()).collect();
        // A BinaryHeap of Reverse would also work; n is small enough that a
        // sorted frontier kept as a Vec with binary-search insertion is fine
        // and keeps the ordering obviously deterministic.
        let mut frontier: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        frontier.sort_unstable();
        let mut order = Vec::with_capacity(n);
        let mut queue: VecDeque<usize> = frontier.into();
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut newly_ready: Vec<usize> = Vec::new();
            for &s in &self.succs[v] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    newly_ready.push(s);
                }
            }
            newly_ready.sort_unstable();
            queue.extend(newly_ready);
        }
        if order.len() == n {
            Ok(order)
        } else {
            // Some node still has positive indegree: it lies on or below a cycle.
            let stuck = (0..n).find(|&v| indegree[v] > 0).expect("cycle exists");
            Err(stuck)
        }
    }

    /// Whether the graph has no directed cycles.
    pub fn is_acyclic(&self) -> bool {
        self.topo_sort().is_ok()
    }

    /// Level of every node counted **from the sinks**, as defined by the
    /// paper's Highest Level First policy: jobs with no dependents are level
    /// 0, and a job's level is one more than the maximum level among its
    /// dependents.
    ///
    /// # Errors
    ///
    /// Returns `Err(node)` if the graph is cyclic.
    pub fn levels_from_sinks(&self) -> Result<Vec<usize>, usize> {
        let order = self.topo_sort()?;
        let mut level = vec![0usize; self.node_count()];
        for &v in order.iter().rev() {
            level[v] = self.succs[v]
                .iter()
                .map(|&s| level[s] + 1)
                .max()
                .unwrap_or(0);
        }
        Ok(level)
    }

    /// For every node, the maximum total `weight` along any path that starts
    /// at the node and proceeds through successors to a sink, **including**
    /// the node's own weight. This is the quantity ranked by the paper's
    /// Longest Path First policy when `weight[j]` is job `j`'s length.
    ///
    /// # Errors
    ///
    /// Returns `Err(node)` if the graph is cyclic.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.node_count()`.
    pub fn longest_path_to_sink(&self, weights: &[u64]) -> Result<Vec<u64>, usize> {
        assert_eq!(weights.len(), self.node_count(), "one weight per node");
        let order = self.topo_sort()?;
        let mut best = vec![0u64; self.node_count()];
        for &v in order.iter().rev() {
            let tail = self.succs[v].iter().map(|&s| best[s]).max().unwrap_or(0);
            best[v] = weights[v] + tail;
        }
        Ok(best)
    }

    /// The weight of the heaviest source-to-sink path in the graph (the
    /// critical path), or 0 for an empty graph.
    ///
    /// # Errors
    ///
    /// Returns `Err(node)` if the graph is cyclic.
    pub fn critical_path_weight(&self, weights: &[u64]) -> Result<u64, usize> {
        Ok(self
            .longest_path_to_sink(weights)?
            .into_iter()
            .max()
            .unwrap_or(0))
    }

    /// Number of direct dependents of every node (out-degree). This is the
    /// quantity ranked by the paper's Maximum Parallelism First policy.
    pub fn out_degrees(&self) -> Vec<usize> {
        self.succs.iter().map(Vec::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The diamond: 0 -> {1, 2} -> 3.
    fn diamond() -> Dag {
        let mut g = Dag::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn empty_graph() {
        let g = Dag::new(0);
        assert_eq!(g.topo_sort().unwrap(), Vec::<usize>::new());
        assert_eq!(g.critical_path_weight(&[]).unwrap(), 0);
    }

    #[test]
    fn add_edge_dedups() {
        let mut g = Dag::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        Dag::new(1).add_edge(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        Dag::new(1).add_edge(0, 5);
    }

    #[test]
    fn topo_sort_diamond() {
        let order = diamond().topo_sort().unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cycle_detected() {
        let mut g = Dag::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        assert!(g.topo_sort().is_err());
        assert!(!g.is_acyclic());
        assert!(g.levels_from_sinks().is_err());
        assert!(g.longest_path_to_sink(&[1, 1, 1]).is_err());
    }

    #[test]
    fn partial_cycle_reports_cyclic_node() {
        // 0 -> 1, and 2 <-> 3 is a cycle; topo_sort must fail and report a
        // node actually stuck on the cycle.
        let mut g = Dag::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        g.add_edge(3, 2);
        let stuck = g.topo_sort().unwrap_err();
        assert!(stuck == 2 || stuck == 3);
    }

    #[test]
    fn levels_from_sinks_match_hlf_definition() {
        let levels = diamond().levels_from_sinks().unwrap();
        assert_eq!(levels, vec![2, 1, 1, 0]);
    }

    #[test]
    fn longest_path_weighted() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3 with asymmetric weights.
        let g = diamond();
        let w = [10, 1, 100, 5];
        let best = g.longest_path_to_sink(&w).unwrap();
        assert_eq!(best[3], 5);
        assert_eq!(best[1], 6);
        assert_eq!(best[2], 105);
        assert_eq!(best[0], 115);
        assert_eq!(g.critical_path_weight(&w).unwrap(), 115);
    }

    #[test]
    fn sources_and_sinks() {
        let g = diamond();
        assert_eq!(g.sources(), vec![0]);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degrees(), vec![2, 1, 1, 0]);
    }

    #[test]
    fn disconnected_nodes_are_both_source_and_sink() {
        let g = Dag::new(2);
        assert_eq!(g.sources(), vec![0, 1]);
        assert_eq!(g.levels_from_sinks().unwrap(), vec![0, 0]);
    }
}
