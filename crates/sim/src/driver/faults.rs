//! Node and rack fault handlers: crash, failure detection, repair, and
//! the requeue of work a crash destroyed.

use super::{NodeSlots, Sim};
use crate::event::Event;
use crate::obs::TraceEvent;
use crate::scheduler::WorkflowScheduler;
use crate::snapshot::LostTaskRecord;
use woha_model::{NodeId, SimDuration, SlotKind};

/// Propensity score a node crash adds to the node.
const CRASH_WEIGHT: f64 = 1.0;
/// Propensity score added per attempt a crash kills: a crash that takes
/// running work down with it is stronger evidence than an idle blip.
const KILL_WEIGHT: f64 = 0.25;

impl Sim<'_> {
    /// Queues the fault schedule at the start of a run: scripted outages
    /// verbatim (each fault takes its node set down atomically), plus the
    /// first stochastic crash per node and per rack. Nothing, when the
    /// cluster has no fault source.
    pub(super) fn schedule_faults(&mut self) {
        let cluster = self.cluster;
        for f in &cluster.faults().scripted {
            for &node in &f.nodes {
                self.queue.push(f.down_at, Event::NodeDown(node));
                if let Some(up) = f.up_at {
                    self.queue.push(up, Event::NodeUp(node));
                }
            }
        }
        for node in cluster.node_ids() {
            self.chain_node_failure(node);
        }
        for rack in 0..cluster.rack_count() {
            self.chain_rack_failure(rack, 0);
        }
    }

    /// Schedules `node`'s next stochastic crash, if nodes crash at all;
    /// each crash chains off the recovery before it.
    fn chain_node_failure(&mut self, node: NodeId) {
        if let Some(mtbf) = self.cluster.faults().mtbf {
            let incident = self.fault.incident[node.index()];
            let ttf = self.rng.time_to_failure(node, incident, mtbf);
            self.schedule(self.now.saturating_add(ttf), Event::NodeDown(node));
        }
    }

    /// Schedules `rack`'s next switch failure after outage number
    /// `incident`, if rack switches fail at all.
    fn chain_rack_failure(&mut self, rack: u32, incident: u64) {
        if let Some(mtbf) = self.cluster.faults().rack_mtbf {
            let ttf = self.rng.rack_time_to_failure(rack, incident, mtbf);
            self.schedule(self.now.saturating_add(ttf), Event::RackDown { rack });
        }
    }

    /// A node crashes: every attempt on it dies, its slots leave the pool,
    /// and detection (plus repair, for stochastic crashes) is scheduled.
    /// The JobTracker's pool is *not* touched yet — it still believes the
    /// tasks are running until [`Self::requeue_lost`].
    ///
    /// `rack_outage` marks crashes injected by a correlated rack-switch
    /// failure: those suppress the per-node stochastic repair (the whole
    /// rack repairs atomically via [`Event::RackUp`]). Returns whether the
    /// crash took effect (the node was up and not blacklisted).
    pub(super) fn handle_node_down(&mut self, node: NodeId, rack_outage: bool) -> bool {
        let i = node.index();
        if !self.fault.alive[i] || self.fault.blacklisted[i] {
            return false;
        }
        self.fault.alive[i] = false;
        self.fault.incident[i] += 1;
        self.fault.crash_count[i] += 1;
        self.counters.node_failures += 1;
        self.emit(TraceEvent::NodeDown {
            node: i,
            rack: self.cluster.rack_of(node),
        });
        // Kill every live attempt on the node, in attempt-id order (the
        // map iterates in arbitrary order; sorting keeps runs seeded).
        let mut victims: Vec<u64> = self
            .table
            .attempts
            .iter()
            .filter(|(_, a)| a.node == node && !a.cancelled)
            .map(|(&id, _)| id)
            .collect();
        victims.sort_unstable();
        let victim_count = victims.len();
        for id in victims {
            let a = self.kill_attempt(id);
            self.counters.work_lost_slot_ms +=
                u128::from(self.now.saturating_since(a.started).as_millis());
            self.fault.lost_pending[i].push(LostTaskRecord {
                wf: a.wf,
                job: a.job,
                kind: a.kind,
                solo: !self.table.twin_alive(&a),
                task: a.task,
            });
        }
        // Slots leave the pool until the node re-registers (including the
        // ones the kills above just freed).
        self.nodes[i] = NodeSlots::default();
        let faults = self.cluster.faults();
        // Failure prediction: fold this crash, and the attempts it killed,
        // into the node's propensity score.
        if let Some(health) = &mut self.health {
            health.bump(
                node,
                self.now,
                CRASH_WEIGHT + KILL_WEIGHT * victim_count as f64,
            );
        }
        // Blacklisting: the adaptive propensity-threshold policy when
        // configured, otherwise the fixed crash-count policy (the default,
        // preserved for byte-identical replays).
        let adaptive = self.config.prediction.and_then(|p| p.adaptive_blacklist);
        let blacklist = match adaptive {
            Some(threshold) => self
                .health
                .as_ref()
                .expect("adaptive blacklist implies health tracker")
                .risky(node, self.now, threshold),
            None => {
                faults.blacklist_after > 0 && self.fault.crash_count[i] >= faults.blacklist_after
            }
        };
        if blacklist {
            self.fault.blacklisted[i] = true;
            self.counters.nodes_blacklisted += 1;
            if adaptive.is_some() {
                self.health
                    .as_mut()
                    .expect("checked above")
                    .adaptive_blacklists += 1;
            }
            self.emit(TraceEvent::NodeBlacklisted {
                node: i,
                rack: self.cluster.rack_of(node),
            });
        }
        // Failure detector: the JobTracker declares the node lost after it
        // misses the configured number of heartbeats.
        let detect = SimDuration::from_millis(
            self.cluster.heartbeat_interval().as_millis()
                * u64::from(faults.detect_missed_heartbeats.max(1)),
        );
        self.schedule(
            self.now.saturating_add(detect),
            Event::NodeLost {
                node,
                incident: self.fault.incident[i],
            },
        );
        // Stochastic crashes sample their repair time now; scripted faults
        // carry their own absolute repair times, and rack outages repair
        // atomically via [`Event::RackUp`].
        if !rack_outage {
            if let Some(mttr) = faults.mtbf.map(|_| faults.mttr) {
                let ttr = self.rng.time_to_repair(node, self.fault.incident[i], mttr);
                self.schedule(self.now.saturating_add(ttr), Event::NodeUp(node));
            }
        }
        true
    }

    /// A rack switch fails: every live, non-blacklisted node of the rack
    /// crashes atomically (one correlated incident), and the rack's repair
    /// is scheduled as a single [`Event::RackUp`]. Detection still runs
    /// per node — the failure detector has no rack awareness.
    pub(super) fn handle_rack_down(&mut self, rack: u32) {
        let mut victims = Vec::new();
        for node in self.cluster.rack_nodes(rack) {
            if self.handle_node_down(node, true) {
                victims.push(node);
            }
        }
        let state = self.fault.rack_state(rack);
        state.incident += 1;
        state.victims = victims;
        let incident = state.incident;
        let mttr = self.cluster.faults().rack_repair_mean();
        let ttr = self.rng.rack_time_to_repair(rack, incident, mttr);
        self.schedule(self.now.saturating_add(ttr), Event::RackUp { rack });
    }

    /// The rack switch finishes repair: every node the outage took down
    /// re-registers (blacklisted victims stay out), and the next rack
    /// failure chains off this recovery.
    pub(super) fn handle_rack_up(&mut self, scheduler: &mut dyn WorkflowScheduler, rack: u32) {
        let state = self.fault.rack_state(rack);
        let incident = state.incident;
        for node in std::mem::take(&mut state.victims) {
            self.handle_node_up(scheduler, node);
        }
        self.chain_rack_failure(rack, incident);
    }

    /// A node finishes repair and re-registers with the JobTracker. Any
    /// work not yet requeued is requeued now (re-registration proves the
    /// old attempts are gone), and its slots rejoin the pool empty.
    pub(super) fn handle_node_up(&mut self, scheduler: &mut dyn WorkflowScheduler, node: NodeId) {
        let i = node.index();
        if self.fault.alive[i] || self.fault.blacklisted[i] {
            return;
        }
        self.requeue_lost(scheduler, node);
        self.fault.alive[i] = true;
        self.counters.node_recoveries += 1;
        self.emit(TraceEvent::NodeUp {
            node: i,
            rack: self.cluster.rack_of(node),
        });
        self.nodes[i] = NodeSlots::idle(&self.cluster.node(node));
        if !self.fault.heartbeat_live[i] {
            self.fault.heartbeat_live[i] = true;
            self.schedule(self.now, Event::Heartbeat(node));
        }
        self.chain_node_failure(node);
    }

    /// The failure detector fires: if the node is still down and the
    /// detection belongs to the current outage, requeue its work and give
    /// the scheduler its node-loss checkpoint.
    pub(super) fn handle_node_lost(
        &mut self,
        scheduler: &mut dyn WorkflowScheduler,
        node: NodeId,
        incident: u64,
    ) {
        let i = node.index();
        if self.fault.alive[i] || self.fault.incident[i] != incident {
            return;
        }
        self.requeue_lost(scheduler, node);
        scheduler.on_node_lost(&self.pool, node, self.now);
    }

    /// Applies the JobTracker-side consequences of a crash: killed attempts
    /// re-enter the pending queues, and completed map outputs hosted on the
    /// node are invalidated and re-executed while reducers still need them.
    pub(super) fn requeue_lost(&mut self, scheduler: &mut dyn WorkflowScheduler, node: NodeId) {
        let lost = std::mem::take(&mut self.fault.lost_pending[node.index()]);
        for t in lost {
            if t.solo {
                self.fail_and_requeue(scheduler, t.wf, t.job, t.kind, t.task);
                self.counters.tasks_requeued += 1;
            } else {
                // A twin is still racing on another node: only undo this
                // attempt's running count.
                self.pool
                    .workflow_mut(t.wf)
                    .finish_speculative(t.job, t.kind);
            }
        }
        // Completed map outputs on the node are gone; jobs whose reducers
        // still need them re-execute those maps (the data plane reports
        // them in key order, so runs stay seeded).
        for inv in self.data.invalidate_node(node) {
            let (wf, job, lost) = (inv.wf, inv.job, inv.lost);
            self.pool
                .workflow_mut(wf)
                .invalidate_completed_maps(job, lost);
            self.counters.map_outputs_lost += u64::from(lost);
            if !self.config.reshuffle_cost.is_zero() {
                self.data.add_reshuffle_debt(wf, job, u64::from(lost));
            }
            for k in 0..lost {
                self.requeue_map(wf, job, k, inv.tasks.get(k as usize).copied());
            }
            for _ in 0..lost {
                scheduler.on_task_failed(&self.pool, wf, job, SlotKind::Map, self.now);
            }
        }
    }
}
