//! Master (JobTracker) checkpointing, crash, and recovery: building and
//! installing [`MasterSnapshot`]s, WAL replay, and reconciliation with the
//! physical cluster.

use super::{Sim, WalRecord};
use crate::event::Event;
use crate::obs::TraceEvent;
use crate::scheduler::WorkflowScheduler;
use crate::snapshot::{AttemptRecord, FaultSnapshot, MasterSnapshot};
use crate::state::JobPhase;
use std::collections::HashSet;
use woha_model::{JobId, NodeId, WorkflowId};

impl Sim<'_> {
    /// Serializes the full master state (see [`crate::snapshot`]): clones
    /// of the live fields, with the attempt map emitted as an id-sorted
    /// vector so the encoding is deterministic. The pool's clone copies
    /// pointers: its workflows are shared copy-on-write.
    fn build_snapshot(&self, scheduler: &dyn WorkflowScheduler) -> MasterSnapshot {
        let mut attempts: Vec<AttemptRecord> = self.table.attempts.values().copied().collect();
        attempts.sort_unstable_by_key(|a| a.id);
        MasterSnapshot {
            taken_at: self.now,
            pool: self.pool.clone(),
            arrived: self.arrived.clone(),
            attempts,
            next_attempt: self.table.next_attempt,
            pending_map_ids: self.data.pending_map_records(),
            delay_skips: self.data.delay_skip_records(),
            map_output_hosts: self.data.map_output_records(),
            completion_seq: self.completion_seq,
            counters: self.counters.clone(),
            fault: self.fault.clone(),
            scheduler: scheduler.snapshot_state(),
            health: self.health.clone(),
            reshuffle_debt: self.data.reshuffle_records(),
        }
    }

    /// Replaces the master's logical state with a decoded checkpoint, and
    /// recounts slot occupancy from it.
    fn install_snapshot(&mut self, scheduler: &mut dyn WorkflowScheduler, snap: MasterSnapshot) {
        self.pool = snap.pool;
        self.arrived = snap.arrived;
        self.table.attempts = snap.attempts.into_iter().map(|a| (a.id, a)).collect();
        self.table.next_attempt = snap.next_attempt;
        self.data.install(
            snap.pending_map_ids,
            snap.delay_skips,
            snap.map_output_hosts,
            snap.reshuffle_debt,
        );
        self.completion_seq = snap.completion_seq;
        self.counters = snap.counters;
        self.fault = snap.fault;
        (self.nodes, self.busy_count) = self.counted_slots();
        let completed = self.pool.workflows().iter().filter(|w| w.is_complete());
        self.remaining = self.arrived.len() - completed.count();
        // Propensity is logical (learned) state: restore the checkpoint
        // and let WAL replay re-apply later crashes.
        self.health = snap.health;
        scheduler.restore_state(&self.pool, &snap.scheduler);
    }

    /// Takes a checkpoint: snapshots the current master state and
    /// truncates the WAL.
    fn take_checkpoint(&mut self, scheduler: &mut dyn WorkflowScheduler) {
        debug_assert!(
            self.counted_slots() == (self.nodes.clone(), self.busy_count),
            "slot occupancy is what the attempts and node liveness say"
        );
        let snap = self.build_snapshot(scheduler);
        let tree = cfg!(debug_assertions).then(|| snap.encode());
        debug_assert_eq!(
            tree.as_ref()
                .and_then(|t| MasterSnapshot::decode(t).ok())
                .as_ref(),
            Some(&snap),
            "a checkpoint decodes back to the state it was taken from"
        );
        self.master.checkpoint = Some(snap);
        self.master.checkpoint_tree = tree;
        let superseded = self.master.wal.iter().map(WalRecord::events).sum();
        self.master.wal.clear();
        self.master.recovery.checkpoints_taken += 1;
        self.emit(TraceEvent::CheckpointTaken {
            wal_records: superseded,
        });
    }

    /// Starts the master-fault machinery at the start of a run: a genesis
    /// checkpoint (recovery always has a snapshot to restore) heading the
    /// periodic chain, and the crash schedule — scripted crash times
    /// verbatim (stamped with their crash ordinal), or the first
    /// stochastic crash when nothing is scripted.
    pub(super) fn start_master(&mut self, scheduler: &mut dyn WorkflowScheduler) {
        self.handle_checkpoint(scheduler);
        let mut crashes = self.cluster.faults().master.scripted.clone();
        crashes.sort_unstable();
        for (k, &at) in crashes.iter().enumerate() {
            self.queue
                .push(at, Event::MasterCrash { incident: k as u64 });
        }
        self.chain_master_crash();
    }

    /// Schedules the next stochastic master crash (scripted schedules are
    /// queued up front and override stochastic crashes entirely).
    fn chain_master_crash(&mut self) {
        let mcfg = &self.cluster.faults().master;
        if let (true, Some(mtbf)) = (mcfg.scripted.is_empty(), mcfg.mtbf) {
            let n = self.master.recovery.master_crashes;
            let ttf = self.rng.master_time_to_failure(n, mtbf);
            self.schedule(
                self.now.saturating_add(ttf),
                Event::MasterCrash { incident: n },
            );
        }
    }

    /// Takes a checkpoint and schedules the next one.
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
        if incident != self.master.recovery.master_crashes {
            // A stale crash from before an earlier recovery.
            return;
        }
        let cluster = self.cluster;
        let mcfg = &cluster.faults().master;
        self.master.recovery.master_crashes += 1;
        self.emit(TraceEvent::MasterCrashed);
        self.touch_busy();
        // Pure-scripted schedules restart in exactly `mttr` (deterministic
        // for tests); stochastic ones sample an exponential restart time.
        let outage = if mcfg.mtbf.is_some() {
            self.rng.master_time_to_repair(incident, mcfg.mttr)
        } else {
            mcfg.mttr
        };
        self.master.recovery.master_downtime_ms += outage.as_millis();
        self.master.down = true;
        let crash_time = self.now;
        let recover_at = crash_time.saturating_add(outage);

        // The physical world at the crash: node liveness, outage ordinals,
        // blacklists and rack outages do not reset because the master
        // restarted.
        let phys = std::mem::take(&mut self.fault);

        let pending = self.queue.drain_ordered();

        // Restore the latest checkpoint and replay the WAL onto it. The
        // replay re-derives every post-checkpoint decision (same RNG
        // streams, same attempt ids) without scheduling new events.
        // Recovery reads the checkpoint through its serialized form, as a
        // replacement master process would, and consumes it: recovery
        // heads a fresh checkpoint cycle before anything reads one again.
        let checkpoint = self.master.checkpoint.take().expect("genesis checkpoint");
        let encoded = cfg!(debug_assertions).then(|| checkpoint.encode());
        // The held checkpoint shares its workflows with the live pool: a
        // mutation since the tick that reached a shared one shows here.
        let tick_tree = self.master.checkpoint_tree.take();
        debug_assert_eq!(
            encoded, tick_tree,
            "the checkpoint still encodes to the tree taken at its tick"
        );
        debug_assert!(
            encoded.as_ref().is_none_or(MasterSnapshot::survives_text),
            "the checkpoint reads back from its JSON text"
        );
        let snap = checkpoint.reread().expect("checkpoint decodes");
        let taken_at = snap.taken_at;
        let wal = std::mem::take(&mut self.master.wal);
        // The attempts really running at the crash. The restored table
        // may also hold attempts the crashed master saw complete or killed.
        let running: HashSet<u64> = self
            .table
            .attempts
            .iter()
            .filter(|(_, a)| !a.cancelled)
            .map(|(&id, _)| id)
            .collect();
        self.install_snapshot(scheduler, snap);
        debug_assert_eq!(
            Some(
                MasterSnapshot {
                    taken_at,
                    ..self.build_snapshot(scheduler)
                }
                .encode()
            ),
            encoded,
            "the installed state snapshots back to the checkpoint it came from"
        );
        self.master.replaying = true;
        // Replay re-derives decisions the original master already made and
        // reported: observability suspends so nothing is reported twice.
        let obs = self.obs.take();
        if obs.is_some() {
            scheduler.set_tracing(false);
        }
        let replayed = wal.iter().map(WalRecord::events).sum();
        for record in wal {
            self.master.recovery.wal_records_replayed += record.events();
            match record {
                WalRecord::Event(t, event) => {
                    self.now = t;
                    self.dispatch(scheduler, event);
                }
                // What the run's beats did to the master: move `now`, count
                // their probes, and make the offers they coalesce into.
                WalRecord::IdleRun {
                    last,
                    calls,
                    offers,
                    ..
                } => {
                    self.now = last;
                    self.counters.assign_calls += calls;
                    self.coalesced_offers(scheduler, offers);
                }
            }
        }
        if obs.is_some() {
            // Re-arming also discards anything buffered during replay.
            scheduler.set_tracing(true);
        }
        self.obs = obs;
        self.master.replaying = false;
        self.now = crash_time;
        // The replay span is stamped at the recovery instant and stretches
        // back over the outage; nothing else fires inside that window.
        self.emit_at(
            recover_at,
            TraceEvent::WalReplayed {
                records: replayed,
                outage,
            },
        );

        // The source cursor never rewinds: arrival slots the restored
        // checkpoint (plus WAL) predates belong to workflows already pulled
        // from the source, whose arrival events were pending at the crash
        // (or lost with it and resubmitted below).
        self.grow_ledger(self.workflows.len());
        // Workflows not yet pulled shift with the frozen world: their
        // effective arrival time gains the outage, exactly like the
        // pending events re-pushed below.
        self.master.arrival_shift = self.master.arrival_shift.saturating_add(outage);

        // Node failures that happened but fell into a lost WAL suffix still
        // count toward the report; derive per-node recoveries from the
        // crash-count delta and the liveness transition.
        let believed = &self.fault;
        for i in 0..self.nodes.len() {
            let missed_downs = i64::from(phys.crash_count[i]) - i64::from(believed.crash_count[i]);
            let missed_ups = missed_downs + i64::from(phys.alive[i]) - i64::from(believed.alive[i]);
            self.counters.node_failures += missed_downs.max(0) as u64;
            self.counters.node_recoveries += missed_ups.max(0) as u64;
            if phys.blacklisted[i] && !believed.blacklisted[i] {
                self.counters.nodes_blacklisted += 1;
            }
        }
        // Only the lost-work ledger is the master's own knowledge; the
        // rest of the fault state is the world's.
        self.fault = FaultSnapshot {
            lost_pending: std::mem::take(&mut self.fault.lost_pending),
            ..phys
        };

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
        let mut ids: Vec<u64> = self.table.attempts.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let a = self.table.attempts.get_mut(&id).expect("registered");
            if a.cancelled {
                continue;
            }
            if self.fault.alive[a.node.index()] && pending_attempts.contains(&id) {
                // Re-adopted: the attempt kept running through the outage;
                // its completion shifts with everything else.
                a.started = a.started.saturating_add(outage);
                self.master.recovery.attempts_readopted += 1;
                continue;
            }
            // Dead node, or the completion fell into the lost WAL suffix:
            // kill the attempt and requeue its task. An attempt that had
            // already ended was reported then, so it ends without a record.
            let a = if running.contains(&id) {
                self.kill_attempt(id)
            } else {
                self.cancel_attempt(id)
            };
            if self.table.twin_alive(&a) {
                self.pool
                    .workflow_mut(a.wf)
                    .finish_speculative(a.job, a.kind);
            } else {
                self.fail_and_requeue(scheduler, a.wf, a.job, a.kind, a.task);
                self.counters.tasks_requeued += 1;
                self.master.recovery.attempts_requeued += 1;
            }
            self.counters.work_lost_slot_ms +=
                u128::from(crash_time.saturating_since(a.started).as_millis());
            if !pending_attempts.contains(&id) {
                // No event will ever reference this attempt again.
                self.table.attempts.remove(&id);
            }
        }

        // Crash work whose detection (NodeLost) and repair (NodeUp) both
        // fell into the lost suffix would otherwise never be requeued:
        // re-registration at recovery surfaces it now.
        for i in 0..self.nodes.len() {
            if self.fault.lost_pending[i].is_empty() {
                continue;
            }
            let node = NodeId::new(i as u32);
            let has_wakeup = pending.iter().any(|(_, e)| match e {
                Event::NodeUp(n) => *n == node,
                Event::NodeLost {
                    node: n,
                    incident: inc,
                } => *n == node && *inc == self.fault.incident[i],
                _ => false,
            });
            if !has_wakeup {
                self.requeue_lost(scheduler, node);
            }
        }

        // Recount slot occupancy from the surviving attempts: the replayed
        // counts follow the node liveness the old master believed in.
        (self.nodes, self.busy_count) = self.counted_slots();

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
                    let known = self.table.attempts.contains_key(attempt);
                    if !known {
                        self.master.recovery.attempts_orphaned += 1;
                        self.record_kill(*node, *workflow, *job, *kind);
                    }
                    known
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
        for (i, (arrived, pending)) in self.arrived.iter().zip(&has_arrival).enumerate() {
            if !arrived && !pending {
                self.queue.push(recover_at, Event::WorkflowArrival(i));
                self.master.recovery.workflows_resubmitted += 1;
            }
        }
        let activate_at = recover_at.saturating_add(self.config.submit_latency);
        for w in self.pool.workflows() {
            for job in w.spec().job_ids() {
                if w.job(job).phase() == JobPhase::Submitting
                    && !has_activation.contains(&(w.id(), job))
                {
                    self.queue
                        .push(activate_at, Event::JobActivated(w.id(), job));
                    self.master.recovery.jobs_resubmitted += 1;
                }
            }
        }
    }

    /// The replacement JobTracker finishes recovery and resumes.
    pub(super) fn handle_master_recovered(
        &mut self,
        scheduler: &mut dyn WorkflowScheduler,
        incident: u64,
    ) {
        debug_assert_eq!(incident + 1, self.master.recovery.master_crashes);
        // The outage contributes zero busy time: the integral window
        // restarts at recovery.
        self.last_busy_touch = self.now;
        self.master.down = false;
        // A fresh checkpoint cycle starts immediately.
        self.handle_checkpoint(scheduler);
        self.chain_master_crash();
    }
}
