//! Per-node failure-propensity tracking for failure-aware scheduling.
//!
//! The simulator already records every node fault it injects (crashes,
//! blacklist events, killed attempts). This module folds that history into
//! a decaying per-node **propensity score**: each incident bumps the node's
//! score by a fixed weight, and the score halves every [`HALF_LIFE`] of
//! fault-free operation. A node whose score is at or above
//! [`PredictionConfig::risk_threshold`] is considered *risky* and is
//! avoided for deadline-critical placements, targeted for preemptive
//! speculation, and (optionally) blacklisted adaptively.
//!
//! Scores start at exactly `0.0` and only ever move on recorded fault
//! events, so the whole layer is provably inert when fault injection is
//! off: with no crashes the scores stay zero forever and every placement
//! decision is byte-identical to a run without prediction. Because the
//! fault history itself is driven by the seeded [`crate::FaultStream`],
//! the score trajectory is a deterministic function of `(config, seed)` —
//! the "seeded" propensity the ATLAS-style predictor needs for replays.

use serde::{Deserialize, Serialize};
use woha_model::{NodeId, SimDuration, SimTime};

/// Configuration for the failure-prediction layer (`--predict-failures`).
///
/// Attached to [`crate::SimConfig::prediction`]; `None` (the default)
/// disables the layer entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionConfig {
    /// Steer deadline-critical attempts away from risky nodes and
    /// preemptively speculate attempts already running on them
    /// (`--risk-placement`).
    pub risk_placement: bool,
    /// Propensity score at or above which a node counts as risky.
    pub risk_threshold: f64,
    /// Blacklist a node once its propensity score reaches this threshold,
    /// replacing the fixed `blacklist_after` crash count
    /// (`--adaptive-blacklist`). `None` keeps the fixed policy.
    pub adaptive_blacklist: Option<f64>,
}

impl Default for PredictionConfig {
    fn default() -> Self {
        PredictionConfig {
            risk_placement: false,
            risk_threshold: 1.5,
            adaptive_blacklist: None,
        }
    }
}

/// Fault-free time after which a node's propensity score halves.
pub const HALF_LIFE: SimDuration = SimDuration::from_mins(4 * 60);

/// The live propensity tracker owned by the simulator.
///
/// Scores decay lazily: each node stores its score as of its last fault
/// event, and [`NodeHealth::score`] applies the exponential decay for the
/// elapsed fault-free time on read. This keeps updates O(1) per fault and
/// reads O(1) per query with no periodic decay events that could perturb
/// the event stream.
///
/// The tracker is logical master state and is checkpointed as it stands
/// inside [`crate::MasterSnapshot`], so WAL recovery replays prediction
/// decisions deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeHealth {
    /// Per-node score as of the matching `anchor` entry.
    score: Vec<f64>,
    /// Per-node time of the last score update.
    anchor: Vec<SimTime>,
    /// Placements declined because the picked node was risky.
    pub risk_averted: u64,
    /// Duplicates launched off risky nodes before they failed.
    pub preemptive_speculations: u64,
    /// Nodes blacklisted by the propensity-threshold policy.
    pub adaptive_blacklists: u64,
}

impl NodeHealth {
    /// Creates a tracker with all scores at zero.
    pub fn new(node_count: usize) -> Self {
        NodeHealth {
            score: vec![0.0; node_count],
            anchor: vec![SimTime::ZERO; node_count],
            risk_averted: 0,
            preemptive_speculations: 0,
            adaptive_blacklists: 0,
        }
    }

    /// The node's propensity score at `now`, with decay applied.
    pub fn score(&self, node: NodeId, now: SimTime) -> f64 {
        let i = node.index();
        let stored = self.score[i];
        if stored == 0.0 {
            // Fast path, and the inertness guarantee: an untouched node
            // never pays the decay computation.
            return 0.0;
        }
        let dt = now.saturating_since(self.anchor[i]).as_millis() as f64;
        stored * (-dt / HALF_LIFE.as_millis() as f64).exp2()
    }

    /// Adds `weight` to the node's score at `now` (decaying the previous
    /// score first) and re-anchors it.
    pub fn bump(&mut self, node: NodeId, now: SimTime, weight: f64) {
        let decayed = self.score(node, now);
        let i = node.index();
        self.score[i] = decayed + weight;
        self.anchor[i] = now;
    }

    /// Whether the node's score at `now` is at or above `threshold`.
    pub fn risky(&self, node: NodeId, now: SimTime, threshold: f64) -> bool {
        self.score(node, now) >= threshold
    }

    /// All node scores at `now`, for the end-of-run report.
    pub fn scores_at(&self, now: SimTime) -> Vec<f64> {
        (0..self.score.len())
            .map(|i| self.score(NodeId::new(i as u32), now))
            .collect()
    }
}

/// Prediction-layer section of [`crate::SimReport`], present only when
/// `--predict-failures` is on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionReport {
    /// Per-node propensity score at the end of the run.
    pub node_propensity: Vec<f64>,
    /// Plans generated with proactive failure padding applied.
    pub plans_padded: u64,
    /// Placements declined because the picked node was risky.
    pub risk_averted_placements: u64,
    /// Speculative duplicates launched off risky nodes.
    pub preemptive_speculations: u64,
    /// Nodes blacklisted by the propensity-threshold policy.
    pub adaptive_blacklists: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_start_and_stay_zero_without_faults() {
        let h = NodeHealth::new(4);
        for i in 0..4 {
            assert_eq!(h.score(NodeId::new(i), SimTime::from_mins(90)), 0.0);
        }
        assert_eq!(h.scores_at(SimTime::MAX), vec![0.0; 4]);
    }

    #[test]
    fn bump_and_half_life_decay() {
        let mut h = NodeHealth::new(2);
        let t0 = SimTime::from_mins(5);
        h.bump(NodeId::new(0), t0, 1.0);
        assert_eq!(h.score(NodeId::new(0), t0), 1.0);
        // One half-life later the score has halved; untouched nodes stay 0.
        let later = t0 + HALF_LIFE;
        assert!((h.score(NodeId::new(0), later) - 0.5).abs() < 1e-12);
        assert_eq!(h.score(NodeId::new(1), later), 0.0);
        // A second bump accumulates on the decayed score.
        h.bump(NodeId::new(0), later, 1.0);
        assert!((h.score(NodeId::new(0), later) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn risky_threshold() {
        let mut h = NodeHealth::new(1);
        let t = SimTime::from_secs(1);
        assert!(!h.risky(NodeId::new(0), t, 1.5));
        h.bump(NodeId::new(0), t, 1.0);
        h.bump(NodeId::new(0), t, 1.0);
        assert!(h.risky(NodeId::new(0), t, 1.5));
    }

    #[test]
    fn record_roundtrip_preserves_state() {
        let mut h = NodeHealth::new(3);
        h.bump(NodeId::new(1), SimTime::from_secs(30), 2.0);
        h.risk_averted = 4;
        h.preemptive_speculations = 2;
        h.adaptive_blacklists = 1;
        let fresh = NodeHealth::from_value(&h.to_value()).expect("decodes");
        assert_eq!(fresh, h);
        let t = SimTime::from_mins(7);
        for i in 0..3 {
            assert_eq!(fresh.score(NodeId::new(i), t), h.score(NodeId::new(i), t));
        }
        // The checkpoint encoding: field names and order are the format.
        let serde::Value::Object(fields) = h.to_value() else {
            panic!("the tracker encodes as an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "score",
                "anchor",
                "risk_averted",
                "preemptive_speculations",
                "adaptive_blacklists"
            ]
        );
    }
}
