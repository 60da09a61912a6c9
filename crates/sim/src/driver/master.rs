//! Master (JobTracker) checkpointing, crash, and recovery: building and
//! installing [`MasterSnapshot`]s, WAL replay, and reconciliation with the
//! physical cluster.

use super::{Attempt, AttemptGroup, LostTask, Sim};
use crate::event::Event;
use crate::health::NodeHealth;
use crate::obs::{TraceEvent, TraceRecord};
use crate::scheduler::WorkflowScheduler;
use crate::snapshot::{
    completed_workflows, AttemptRecord, FaultSnapshot, GroupRecord, LostTaskRecord, MasterSnapshot,
    NodeSlotsRecord, RackStateRecord, SnapshotCounters,
};
use crate::state::JobPhase;
use std::collections::HashSet;
use woha_model::{JobId, NodeId, SlotKind, WorkflowId};

impl Sim<'_> {
    /// Serializes the full master state (see [`crate::snapshot`]). Maps
    /// are emitted as key-sorted vectors so the encoding is deterministic.
    fn build_snapshot(&self, scheduler: &dyn WorkflowScheduler) -> MasterSnapshot {
        let mut attempts: Vec<AttemptRecord> = self
            .attempts
            .iter()
            .map(|(&id, a)| AttemptRecord {
                id,
                wf: a.wf,
                job: a.job,
                kind: a.kind,
                node: a.node,
                group: a.group,
                started: a.started,
                estimate: a.estimate,
                speculative: a.speculative,
                cancelled: a.cancelled,
                task: a.task,
            })
            .collect();
        attempts.sort_unstable_by_key(|a| a.id);
        let mut groups: Vec<GroupRecord> = self
            .groups
            .iter()
            .map(|(&id, g)| GroupRecord {
                id,
                done: g.done,
                twin_launched: g.twin_launched,
                attempts: g.attempts,
                attempt_count: g.attempt_count,
            })
            .collect();
        groups.sort_unstable_by_key(|g| g.id);
        MasterSnapshot {
            taken_at: self.now,
            pool: self.pool.clone(),
            source_cursor: self.arrived.len() as u64,
            arrived: self.arrived.clone(),
            attempts,
            groups,
            next_attempt: self.next_attempt,
            next_group: self.next_group,
            pending_map_ids: self.data.pending_map_records(),
            delay_skips: self.data.delay_skip_records(),
            map_output_hosts: self.data.map_output_records(),
            node_slots: self
                .nodes
                .iter()
                .map(|n| NodeSlotsRecord {
                    free_maps: n.free_maps,
                    free_reduces: n.free_reduces,
                })
                .collect(),
            busy_count: self.busy_count,
            completion_seq: self.completion_seq,
            counters: SnapshotCounters {
                tasks_executed: self.tasks_executed,
                task_failures: self.task_failures,
                assign_calls: self.assign_calls,
                invalid_assignments: self.invalid_assignments,
                local_map_tasks: self.local_map_tasks,
                remote_map_tasks: self.remote_map_tasks,
                delay_skip_count: self.delay_skip_count,
                stragglers: self.stragglers,
                speculative_launched: self.speculative_launched,
                speculative_wins: self.speculative_wins,
                node_failures: self.node_failures,
                node_recoveries: self.node_recoveries,
                nodes_blacklisted: self.nodes_blacklisted,
                tasks_requeued: self.tasks_requeued,
                map_outputs_lost: self.map_outputs_lost,
                work_lost_slot_ms: self.work_lost_slot_ms,
                survivor_requeues: self.survivor_requeues,
                reshuffle_events: self.reshuffle_events,
                reshuffle_charged_ms: self.reshuffle_charged_ms,
            },
            fault: FaultSnapshot {
                alive: self.alive.clone(),
                blacklisted: self.node_blacklisted.clone(),
                incident: self.incident.clone(),
                crash_count: self.crash_count.clone(),
                heartbeat_live: self.heartbeat_live.clone(),
                lost_pending: self
                    .lost_pending
                    .iter()
                    .map(|v| {
                        v.iter()
                            .map(|t| LostTaskRecord {
                                wf: t.wf,
                                job: t.job,
                                kind: t.kind,
                                solo: t.solo,
                                task: t.task,
                            })
                            .collect()
                    })
                    .collect(),
                racks: (0..self.rack_incident.len())
                    .filter(|&r| self.rack_incident[r] != 0 || !self.rack_victims[r].is_empty())
                    .map(|r| RackStateRecord {
                        rack: r as u32,
                        incident: self.rack_incident[r],
                        victims: self.rack_victims[r].clone(),
                    })
                    .collect(),
            },
            scheduler: scheduler.snapshot_state(),
            health: self.health.as_ref().map(NodeHealth::to_record),
            reshuffle_debt: self.data.reshuffle_records(),
        }
    }

    /// Replaces the master's logical state with a decoded checkpoint.
    fn install_snapshot(&mut self, scheduler: &mut dyn WorkflowScheduler, snap: MasterSnapshot) {
        self.pool = snap.pool;
        self.arrived = snap.arrived;
        debug_assert_eq!(
            snap.source_cursor as usize,
            self.arrived.len(),
            "snapshot arrival cursor matches its arrival ledger"
        );
        self.attempts = snap
            .attempts
            .into_iter()
            .map(|r| {
                (
                    r.id,
                    Attempt {
                        wf: r.wf,
                        job: r.job,
                        kind: r.kind,
                        node: r.node,
                        group: r.group,
                        started: r.started,
                        estimate: r.estimate,
                        speculative: r.speculative,
                        cancelled: r.cancelled,
                        task: r.task,
                    },
                )
            })
            .collect();
        self.groups = snap
            .groups
            .into_iter()
            .map(|r| {
                (
                    r.id,
                    AttemptGroup {
                        done: r.done,
                        twin_launched: r.twin_launched,
                        attempts: r.attempts,
                        attempt_count: r.attempt_count,
                    },
                )
            })
            .collect();
        self.next_attempt = snap.next_attempt;
        self.next_group = snap.next_group;
        self.data.install(
            snap.pending_map_ids,
            snap.delay_skips,
            snap.map_output_hosts,
            snap.reshuffle_debt,
        );
        for (slots, r) in self.nodes.iter_mut().zip(&snap.node_slots) {
            slots.free_maps = r.free_maps;
            slots.free_reduces = r.free_reduces;
        }
        self.busy_count = snap.busy_count;
        self.completion_seq = snap.completion_seq;
        let c = snap.counters;
        self.tasks_executed = c.tasks_executed;
        self.task_failures = c.task_failures;
        self.assign_calls = c.assign_calls;
        self.invalid_assignments = c.invalid_assignments;
        self.local_map_tasks = c.local_map_tasks;
        self.remote_map_tasks = c.remote_map_tasks;
        self.delay_skip_count = c.delay_skip_count;
        self.stragglers = c.stragglers;
        self.speculative_launched = c.speculative_launched;
        self.speculative_wins = c.speculative_wins;
        self.node_failures = c.node_failures;
        self.node_recoveries = c.node_recoveries;
        self.nodes_blacklisted = c.nodes_blacklisted;
        self.tasks_requeued = c.tasks_requeued;
        self.map_outputs_lost = c.map_outputs_lost;
        self.work_lost_slot_ms = c.work_lost_slot_ms;
        self.survivor_requeues = c.survivor_requeues;
        self.reshuffle_events = c.reshuffle_events;
        self.reshuffle_charged_ms = c.reshuffle_charged_ms;
        let f = snap.fault;
        self.alive = f.alive;
        self.node_blacklisted = f.blacklisted;
        self.incident = f.incident;
        self.crash_count = f.crash_count;
        self.heartbeat_live = f.heartbeat_live;
        self.lost_pending = f
            .lost_pending
            .into_iter()
            .map(|v| {
                v.into_iter()
                    .map(|t| LostTask {
                        wf: t.wf,
                        job: t.job,
                        kind: t.kind,
                        solo: t.solo,
                        task: t.task,
                    })
                    .collect()
            })
            .collect();
        for r in &mut self.rack_incident {
            *r = 0;
        }
        for v in &mut self.rack_victims {
            v.clear();
        }
        for r in f.racks {
            self.rack_incident[r.rack as usize] = r.incident;
            self.rack_victims[r.rack as usize] = r.victims;
        }
        self.remaining = self.arrived.len() - completed_workflows(&self.pool);
        if let (Some(health), Some(rec)) = (self.health.as_mut(), snap.health.as_ref()) {
            // Propensity is logical (learned) state: restore the
            // checkpoint and let WAL replay re-apply later crashes.
            health.restore(rec);
        }
        scheduler.restore_state(&self.pool, &snap.scheduler);
    }

    /// Takes a checkpoint: encodes the current master state and truncates
    /// the WAL.
    pub(super) fn take_checkpoint(&mut self, scheduler: &mut dyn WorkflowScheduler) {
        let snap = self.build_snapshot(scheduler);
        self.checkpoint = Some(snap.encode());
        let superseded = self.wal.len() as u64;
        self.wal.clear();
        self.recovery.checkpoints_taken += 1;
        self.emit(TraceEvent::CheckpointTaken {
            wal_records: superseded,
        });
        if let Some(m) = &mut self.metrics {
            m.checkpoints.inc();
        }
    }

    pub(super) fn handle_checkpoint(&mut self, scheduler: &mut dyn WorkflowScheduler) {
        self.take_checkpoint(scheduler);
        let interval = self.cluster.faults().master.checkpoint_interval;
        self.schedule(self.now.saturating_add(interval), Event::Checkpoint);
    }

    /// The JobTracker crashes. The world freezes for the restart duration
    /// (every pending event shifts by the outage); the replacement master
    /// restores the latest checkpoint, replays the WAL, and reconciles
    /// with the physical cluster as TaskTrackers re-register.
    pub(super) fn handle_master_crash(
        &mut self,
        scheduler: &mut dyn WorkflowScheduler,
        incident: u64,
    ) {
        if incident != self.recovery.master_crashes {
            // A stale crash from before an earlier recovery.
            return;
        }
        let cluster = self.cluster;
        let mcfg = &cluster.faults().master;
        self.recovery.master_crashes += 1;
        self.emit(TraceEvent::MasterCrashed);
        self.touch_busy();
        // Pure-scripted schedules restart in exactly `mttr` (deterministic
        // for tests); stochastic ones sample an exponential restart time.
        let outage = if mcfg.mtbf.is_some() {
            self.rng.master_time_to_repair(incident, mcfg.mttr)
        } else {
            mcfg.mttr
        };
        self.recovery.master_downtime_ms += outage.as_millis();
        self.master_alive = false;
        let crash_time = self.now;
        let recover_at = crash_time.saturating_add(outage);

        // The physical world at the crash: node liveness, outage ordinals,
        // and blacklists do not reset because the master restarted.
        let phys_alive = std::mem::take(&mut self.alive);
        let phys_blacklisted = std::mem::take(&mut self.node_blacklisted);
        let phys_incident = std::mem::take(&mut self.incident);
        let phys_crash_count = std::mem::take(&mut self.crash_count);
        let phys_heartbeat_live = std::mem::take(&mut self.heartbeat_live);
        let phys_rack_incident = self.rack_incident.clone();
        let phys_rack_victims = self.rack_victims.clone();

        let pending = self.queue.drain_ordered();

        // Restore the latest checkpoint and replay the WAL onto it. The
        // replay re-derives every post-checkpoint decision (same RNG
        // streams, same attempt ids) without scheduling new events.
        let snap = MasterSnapshot::decode(self.checkpoint.as_ref().expect("genesis checkpoint"))
            .expect("checkpoint decodes");
        let wal = std::mem::take(&mut self.wal);
        self.install_snapshot(scheduler, snap);
        self.replaying = true;
        // Replay re-derives decisions the original master already made and
        // recorded: observability (like the timeline recorder) suspends so
        // nothing is double-counted or double-traced.
        let recorder = self.recorder.take();
        let sink = self.sink.take();
        let metrics = self.metrics.take();
        if self.sched_tracing {
            scheduler.set_tracing(false);
        }
        let replayed = wal.len() as u64;
        for (t, event) in wal {
            self.now = t;
            self.recovery.wal_records_replayed += 1;
            self.dispatch(scheduler, event);
        }
        self.recorder = recorder;
        self.sink = sink;
        self.metrics = metrics;
        if self.sched_tracing {
            // Re-arming also discards anything buffered during replay.
            scheduler.set_tracing(true);
        }
        self.replaying = false;
        self.now = crash_time;
        // The replay span is stamped at the recovery instant and stretches
        // back over the outage; nothing else fires inside that window.
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(TraceRecord {
                at: recover_at,
                event: TraceEvent::WalReplayed {
                    records: replayed,
                    outage,
                },
            });
        }
        if let Some(m) = &mut self.metrics {
            m.wal_replayed.add(replayed);
        }

        // The source cursor never rewinds: arrival slots the restored
        // checkpoint (plus WAL) predates belong to workflows already pulled
        // from the source, whose arrival events were pending at the crash
        // (or lost with it and resubmitted below).
        while self.arrived.len() < self.workflows.len() {
            self.arrived.push(false);
            self.remaining += 1;
        }
        // Workflows not yet pulled shift with the frozen world: their
        // effective arrival time gains the outage, exactly like the
        // pending events re-pushed below.
        self.arrival_shift = self.arrival_shift.saturating_add(outage);

        // Node failures that happened but fell into a lost WAL suffix still
        // count toward the report; derive per-node recoveries from the
        // crash-count delta and the liveness transition.
        for i in 0..self.node_count {
            let missed_downs = i64::from(phys_crash_count[i]) - i64::from(self.crash_count[i]);
            let missed_ups = missed_downs + i64::from(phys_alive[i]) - i64::from(self.alive[i]);
            self.node_failures += missed_downs.max(0) as u64;
            self.node_recoveries += missed_ups.max(0) as u64;
            if phys_blacklisted[i] && !self.node_blacklisted[i] {
                self.nodes_blacklisted += 1;
            }
        }
        self.alive = phys_alive;
        self.node_blacklisted = phys_blacklisted;
        self.incident = phys_incident;
        self.crash_count = phys_crash_count;
        self.heartbeat_live = phys_heartbeat_live;
        self.rack_incident = phys_rack_incident;
        self.rack_victims = phys_rack_victims;

        // Reconciliation: TaskTrackers re-register with the new master and
        // report what they are running. An attempt the recovered state
        // knows about is re-adopted if its node is live and its completion
        // is still pending; otherwise it is killed and requeued (Hadoop-1
        // kills attempts the restarted JobTracker cannot account for).
        let pending_attempts: HashSet<u64> = pending
            .iter()
            .filter_map(|(_, e)| match e {
                Event::TaskComplete { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect();
        let mut ids: Vec<u64> = self.attempts.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let a = self.attempts[&id];
            if a.cancelled {
                continue;
            }
            if self.alive[a.node.index()] && pending_attempts.contains(&id) {
                // Re-adopted: the attempt kept running through the outage;
                // its completion shifts with everything else.
                let a = self.attempts.get_mut(&id).expect("registered");
                a.started = a.started.saturating_add(outage);
                self.recovery.attempts_readopted += 1;
                continue;
            }
            // Dead node, or the completion fell into the lost WAL suffix:
            // kill the attempt and requeue its task.
            let a = self.attempts.get_mut(&id).expect("registered");
            a.cancelled = true;
            let a = *a;
            let twin_alive = self.groups.get(&a.group).is_some_and(|g| {
                g.attempts[..usize::from(g.attempt_count)]
                    .iter()
                    .any(|&o| o != id && self.attempts.get(&o).is_some_and(|t| !t.cancelled))
            });
            if twin_alive {
                self.pool
                    .workflow_mut(a.wf)
                    .finish_speculative(a.job, a.kind);
            } else {
                self.groups.remove(&a.group);
                self.pool.workflow_mut(a.wf).fail_task(a.job, a.kind);
                self.tasks_requeued += 1;
                if a.kind == SlotKind::Map && self.config.locality.is_some() {
                    let spec_maps = self.pool.workflow(a.wf).spec().job(a.job).map_tasks();
                    let retried = self.pool.workflow(a.wf).job(a.job).retried(a.kind);
                    if self
                        .data
                        .requeue_map(a.wf, a.job, spec_maps + retried, a.task)
                    {
                        self.survivor_requeues += 1;
                    }
                }
                scheduler.on_task_failed(&self.pool, a.wf, a.job, a.kind, self.now);
                self.recovery.attempts_requeued += 1;
            }
            self.work_lost_slot_ms +=
                u128::from(crash_time.saturating_since(a.started).as_millis());
            if let Some(rec) = self.recorder.as_mut() {
                rec.record(crash_time, a.wf, a.kind, -1);
            }
            if self.sink.is_some() {
                self.emit(TraceEvent::TaskKilled {
                    node: a.node.index(),
                    workflow: a.wf,
                    job: a.job.as_u32() as usize,
                    kind: a.kind,
                });
            }
            if !pending_attempts.contains(&id) {
                // No event will ever reference this attempt again.
                self.attempts.remove(&id);
            }
        }

        // Crash work whose detection (NodeLost) and repair (NodeUp) both
        // fell into the lost suffix would otherwise never be requeued:
        // re-registration at recovery surfaces it now.
        for i in 0..self.node_count {
            if self.lost_pending[i].is_empty() {
                continue;
            }
            let node = NodeId::new(i as u32);
            let has_wakeup = pending.iter().any(|(_, e)| match e {
                Event::NodeUp(n) => *n == node,
                Event::NodeLost {
                    node: n,
                    incident: inc,
                } => *n == node && *inc == self.incident[i],
                _ => false,
            });
            if !has_wakeup {
                self.requeue_lost(scheduler, node);
            }
        }

        // Rebuild slot occupancy from the surviving attempts.
        self.busy_count = [0, 0];
        for (i, slots) in self.nodes.iter_mut().enumerate() {
            if self.alive[i] && !self.node_blacklisted[i] {
                let cfg = cluster.node(NodeId::new(i as u32));
                slots.free_maps = cfg.map_slots;
                slots.free_reduces = cfg.reduce_slots;
            } else {
                slots.free_maps = 0;
                slots.free_reduces = 0;
            }
        }
        for a in self.attempts.values() {
            if !a.cancelled {
                self.busy_count[Self::kind_index(a.kind)] += 1;
                self.nodes[a.node.index()].take(a.kind);
            }
        }

        // Rebuild the event queue: recovery fires first, then the frozen
        // future shifted by the outage. Orphaned completions (attempts the
        // recovered master has no record of) are discarded; activations of
        // jobs no longer in the Submitting phase are stale; the checkpoint
        // cycle restarts fresh at recovery.
        let mut has_arrival = vec![false; self.arrived.len()];
        let mut has_activation: Vec<(WorkflowId, JobId)> = Vec::new();
        for (_, e) in &pending {
            match e {
                Event::WorkflowArrival(i) => has_arrival[*i] = true,
                Event::JobActivated(wf, job) => has_activation.push((*wf, *job)),
                _ => {}
            }
        }
        self.queue
            .push(recover_at, Event::MasterRecovered { incident });
        for (t, event) in pending {
            let keep = match &event {
                Event::TaskComplete {
                    attempt,
                    workflow,
                    job,
                    kind,
                    node,
                } => {
                    if self.attempts.contains_key(attempt) {
                        true
                    } else {
                        self.recovery.attempts_orphaned += 1;
                        if let Some(rec) = self.recorder.as_mut() {
                            rec.record(crash_time, *workflow, *kind, -1);
                        }
                        if let Some(sink) = self.sink.as_deref_mut() {
                            sink.record(TraceRecord {
                                at: crash_time,
                                event: TraceEvent::TaskKilled {
                                    node: node.index(),
                                    workflow: *workflow,
                                    job: job.as_u32() as usize,
                                    kind: *kind,
                                },
                            });
                        }
                        false
                    }
                }
                Event::JobActivated(wf, job) => {
                    // A workflow that arrived after the checkpoint is
                    // unknown to the restored master: its activation is as
                    // orphaned as the arrival, which gets resubmitted.
                    (wf.as_u64() as usize) < self.pool.len()
                        && self.pool.workflow(*wf).job(*job).phase() == JobPhase::Submitting
                }
                Event::Checkpoint => false,
                _ => true,
            };
            if keep {
                self.queue.push(t.saturating_add(outage), event);
            }
        }

        // Arrivals and submitter jobs consumed in the lost suffix are gone
        // from both the recovered state and the queue: the client (or the
        // workflow manager) resubmits them to the new master at recovery.
        let lost: Vec<usize> = (0..self.arrived.len())
            .filter(|&i| !self.arrived[i] && !has_arrival[i])
            .collect();
        for i in lost {
            self.queue.push(recover_at, Event::WorkflowArrival(i));
            self.recovery.workflows_resubmitted += 1;
        }
        let mut resubmit: Vec<(WorkflowId, JobId)> = Vec::new();
        for w in self.pool.workflows() {
            for job in w.spec().job_ids() {
                if w.job(job).phase() == JobPhase::Submitting
                    && !has_activation.contains(&(w.id(), job))
                {
                    resubmit.push((w.id(), job));
                }
            }
        }
        for (wf, job) in resubmit {
            self.queue.push(
                recover_at.saturating_add(self.config.submit_latency),
                Event::JobActivated(wf, job),
            );
            self.recovery.jobs_resubmitted += 1;
        }
    }

    /// The replacement JobTracker finishes recovery and resumes.
    pub(super) fn handle_master_recovered(
        &mut self,
        scheduler: &mut dyn WorkflowScheduler,
        incident: u64,
    ) {
        debug_assert_eq!(incident + 1, self.recovery.master_crashes);
        // The outage contributes zero busy time: the integral window
        // restarts at recovery.
        self.last_busy_touch = self.now;
        self.master_alive = true;
        // A fresh checkpoint cycle starts immediately.
        self.take_checkpoint(scheduler);
        let cluster = self.cluster;
        let mcfg = &cluster.faults().master;
        self.schedule(
            self.now.saturating_add(mcfg.checkpoint_interval),
            Event::Checkpoint,
        );
        // Chain the next stochastic crash (scripted schedules were queued
        // up front and override stochastic crashes entirely).
        if mcfg.scripted.is_empty() {
            if let Some(mtbf) = mcfg.mtbf {
                let n = self.recovery.master_crashes;
                let ttf = self.rng.master_time_to_failure(n, mtbf);
                self.schedule(
                    self.now.saturating_add(ttf),
                    Event::MasterCrash { incident: n },
                );
            }
        }
    }
}
