//! Node and rack fault handlers: crash, failure detection, repair, and
//! the requeue of work a crash destroyed.

use super::{LostTask, Sim};
use crate::event::Event;
use crate::obs::TraceEvent;
use crate::scheduler::WorkflowScheduler;
use woha_model::{NodeId, SimDuration, SlotKind};

impl Sim<'_> {
    /// A node crashes: every attempt on it dies, its slots leave the pool,
    /// and detection (plus repair, for stochastic crashes) is scheduled.
    /// The JobTracker's pool is *not* touched yet — it still believes the
    /// tasks are running until [`Self::requeue_lost`].
    pub(super) fn handle_node_down(&mut self, node: NodeId) {
        self.node_down_core(node, false);
    }

    /// The node-crash core. `rack_outage` marks crashes injected by a
    /// correlated rack-switch failure: those suppress the per-node
    /// stochastic repair (the whole rack repairs atomically via
    /// [`Event::RackUp`]). Returns whether the crash took effect (the node
    /// was up and not blacklisted).
    fn node_down_core(&mut self, node: NodeId, rack_outage: bool) -> bool {
        let i = node.index();
        if !self.alive[i] || self.node_blacklisted[i] {
            return false;
        }
        self.alive[i] = false;
        self.incident[i] += 1;
        self.crash_count[i] += 1;
        self.node_failures += 1;
        self.emit(TraceEvent::NodeDown {
            node: i,
            rack: self.cluster.rack_of(node),
        });
        if let Some(m) = &mut self.metrics {
            m.node_failures.inc();
        }
        self.touch_busy();
        // Kill every live attempt on the node, in attempt-id order (the
        // map iterates in arbitrary order; sorting keeps runs seeded).
        let mut victims: Vec<u64> = self
            .attempts
            .iter()
            .filter(|(_, a)| a.node == node && !a.cancelled)
            .map(|(&id, _)| id)
            .collect();
        victims.sort_unstable();
        let victim_count = victims.len();
        for id in victims {
            let a = self.attempts.get_mut(&id).expect("victim is registered");
            a.cancelled = true;
            let a = *a;
            self.busy_count[Self::kind_index(a.kind)] -= 1;
            if let Some(rec) = self.recorder.as_mut() {
                rec.record(self.now, a.wf, a.kind, -1);
            }
            if self.sink.is_some() {
                self.emit(TraceEvent::TaskKilled {
                    node: i,
                    workflow: a.wf,
                    job: a.job.as_u32() as usize,
                    kind: a.kind,
                });
            }
            self.work_lost_slot_ms += u128::from(self.now.saturating_since(a.started).as_millis());
            let group = self.groups.get(&a.group).expect("live group");
            let twin_alive = group.attempts[..usize::from(group.attempt_count)]
                .iter()
                .any(|&o| o != id && self.attempts.get(&o).is_some_and(|t| !t.cancelled));
            if !twin_alive {
                self.groups.remove(&a.group);
            }
            self.lost_pending[i].push(LostTask {
                wf: a.wf,
                job: a.job,
                kind: a.kind,
                solo: !twin_alive,
                task: a.task,
            });
        }
        // Slots leave the pool until the node re-registers.
        self.nodes[i].free_maps = 0;
        self.nodes[i].free_reduces = 0;
        let node_cfg = self.cluster.node(node);
        if let Some(rec) = self.recorder.as_mut() {
            rec.record_down(self.now, node_cfg.total_slots() as i32);
        }
        let faults = self.cluster.faults();
        // Failure prediction: fold this crash into the node's propensity
        // score — the crash itself plus a per-victim term, since a crash
        // that took running work down with it is stronger evidence.
        if let Some(p) = self.config.prediction {
            self.health
                .as_mut()
                .expect("prediction implies health tracker")
                .bump(
                    node,
                    self.now,
                    p.crash_weight + p.kill_weight * victim_count as f64,
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
            None => faults.blacklist_after > 0 && self.crash_count[i] >= faults.blacklist_after,
        };
        if blacklist {
            self.node_blacklisted[i] = true;
            self.nodes_blacklisted += 1;
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
                incident: self.incident[i],
            },
        );
        // Stochastic crashes sample their repair time now; scripted faults
        // carry their own absolute repair times, and rack outages repair
        // atomically via [`Event::RackUp`].
        if !rack_outage {
            if let Some(mttr) = faults.mtbf.map(|_| faults.mttr) {
                let ttr = self.rng.time_to_repair(node, self.incident[i], mttr);
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
        let idx = rack as usize;
        self.rack_incident[idx] += 1;
        let incident = self.rack_incident[idx];
        let mut victims = Vec::new();
        for node in self.cluster.rack_nodes(rack) {
            if self.node_down_core(node, true) {
                victims.push(node);
            }
        }
        self.rack_victims[idx] = victims;
        let mttr = self.cluster.faults().rack_repair_mean();
        let ttr = self.rng.rack_time_to_repair(rack, incident, mttr);
        self.schedule(self.now.saturating_add(ttr), Event::RackUp { rack });
    }

    /// The rack switch finishes repair: every node the outage took down
    /// re-registers (blacklisted victims stay out), and the next rack
    /// failure chains off this recovery.
    pub(super) fn handle_rack_up(&mut self, scheduler: &mut dyn WorkflowScheduler, rack: u32) {
        let idx = rack as usize;
        let victims = std::mem::take(&mut self.rack_victims[idx]);
        for node in victims {
            self.handle_node_up(scheduler, node);
        }
        if let Some(mtbf) = self.cluster.faults().rack_mtbf {
            let ttf = self
                .rng
                .rack_time_to_failure(rack, self.rack_incident[idx], mtbf);
            self.schedule(self.now.saturating_add(ttf), Event::RackDown { rack });
        }
    }

    /// A node finishes repair and re-registers with the JobTracker. Any
    /// work not yet requeued is requeued now (re-registration proves the
    /// old attempts are gone), and its slots rejoin the pool empty.
    pub(super) fn handle_node_up(&mut self, scheduler: &mut dyn WorkflowScheduler, node: NodeId) {
        let i = node.index();
        if self.alive[i] || self.node_blacklisted[i] {
            return;
        }
        self.requeue_lost(scheduler, node);
        self.alive[i] = true;
        self.node_recoveries += 1;
        self.emit(TraceEvent::NodeUp {
            node: i,
            rack: self.cluster.rack_of(node),
        });
        let node_cfg = self.cluster.node(node);
        self.nodes[i].free_maps = node_cfg.map_slots;
        self.nodes[i].free_reduces = node_cfg.reduce_slots;
        if let Some(rec) = self.recorder.as_mut() {
            rec.record_down(self.now, -(node_cfg.total_slots() as i32));
        }
        if !self.heartbeat_live[i] {
            self.heartbeat_live[i] = true;
            self.schedule(self.now, Event::Heartbeat(node));
        }
        if let Some(mtbf) = self.cluster.faults().mtbf {
            let ttf = self.rng.time_to_failure(node, self.incident[i], mtbf);
            self.schedule(self.now.saturating_add(ttf), Event::NodeDown(node));
        }
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
        if self.alive[i] || self.incident[i] != incident {
            return;
        }
        self.requeue_lost(scheduler, node);
        scheduler.on_node_lost(&self.pool, node, self.now);
    }

    /// Applies the JobTracker-side consequences of a crash: killed attempts
    /// re-enter the pending queues, and completed map outputs hosted on the
    /// node are invalidated and re-executed while reducers still need them.
    pub(super) fn requeue_lost(&mut self, scheduler: &mut dyn WorkflowScheduler, node: NodeId) {
        let lost = std::mem::take(&mut self.lost_pending[node.index()]);
        for t in lost {
            if t.solo {
                self.pool.workflow_mut(t.wf).fail_task(t.job, t.kind);
                self.tasks_requeued += 1;
                if t.kind == SlotKind::Map && self.config.locality.is_some() {
                    let spec_maps = self.pool.workflow(t.wf).spec().job(t.job).map_tasks();
                    let retried = self.pool.workflow(t.wf).job(t.job).retried(t.kind);
                    if self
                        .data
                        .requeue_map(t.wf, t.job, spec_maps + retried, t.task)
                    {
                        self.survivor_requeues += 1;
                    }
                }
                scheduler.on_task_failed(&self.pool, t.wf, t.job, t.kind, self.now);
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
            self.map_outputs_lost += u64::from(lost);
            if !self.config.reshuffle_cost.is_zero() {
                self.data.add_reshuffle_debt(wf, job, u64::from(lost));
            }
            if self.config.locality.is_some() {
                let spec_maps = self.pool.workflow(wf).spec().job(job).map_tasks();
                let retried = self.pool.workflow(wf).job(job).retried(SlotKind::Map);
                for k in 0..lost {
                    let original = inv.tasks.get(k as usize).copied();
                    if self
                        .data
                        .requeue_map(wf, job, spec_maps + retried - k, original)
                    {
                        self.survivor_requeues += 1;
                    }
                }
            }
            for _ in 0..lost {
                scheduler.on_task_failed(&self.pool, wf, job, SlotKind::Map, self.now);
            }
        }
    }
}
