//! The discrete-event queue driving the cluster simulation.
//!
//! Events are totally ordered by `(time, sequence number)`: ties at the
//! same instant are broken by insertion order, which makes every simulation
//! run exactly reproducible.
//!
//! Most events of a run are TaskTracker heartbeats, and a heartbeat is
//! re-armed one heartbeat interval after the instant it fires, so heartbeat
//! pushes arrive in non-decreasing time order. The queue keeps them in a
//! FIFO lane beside the heap of everything else: the lane is sorted by
//! construction, and the earliest event is whichever of the two heads is
//! smaller.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use woha_model::{JobId, NodeId, SimDuration, SimTime, SlotKind, WorkflowId};

/// A simulation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A workflow pulled from the workload source reaches its submission
    /// time (`value` is its pull-order index among admitted workflows).
    WorkflowArrival(usize),
    /// A wjob's submitter map task finishes: the job becomes schedulable.
    JobActivated(WorkflowId, JobId),
    /// A TaskTracker heartbeat: the node reports its free slots and may be
    /// assigned new tasks.
    Heartbeat(NodeId),
    /// A running task attempt finishes on a node.
    TaskComplete {
        /// Node the task ran on.
        node: NodeId,
        /// Owning workflow.
        workflow: WorkflowId,
        /// Owning job.
        job: JobId,
        /// Map or reduce.
        kind: SlotKind,
        /// Attempt id (distinguishes speculative duplicates).
        attempt: u64,
    },
    /// A node crashes: every attempt running on it dies and its slots leave
    /// the pool. The JobTracker does not know yet — detection follows via
    /// [`Event::NodeLost`]. Ignored if the node is already down or
    /// blacklisted (overlapping scripted/stochastic schedules).
    NodeDown(NodeId),
    /// A crashed node finishes repair and re-registers with empty slots.
    /// Ignored if the node is already up or was blacklisted.
    NodeUp(NodeId),
    /// The failure detector declares a node lost after it missed the
    /// configured number of heartbeats: its tasks are requeued and map
    /// outputs invalidated. `incident` stamps which outage this detection
    /// belongs to, so a detection scheduled for an outage the node already
    /// recovered from is recognised as stale and dropped.
    NodeLost {
        /// The lost node.
        node: NodeId,
        /// The outage this detection was scheduled for.
        incident: u64,
    },
    /// A rack switch fails: every live node of the rack crashes atomically
    /// (each goes through the [`Event::NodeDown`] path). Scheduled only
    /// when stochastic rack faults are enabled.
    RackDown {
        /// The failing rack.
        rack: u32,
    },
    /// The rack switch finishes repair: every node the outage took down
    /// re-registers (each through the [`Event::NodeUp`] path).
    RackUp {
        /// The recovering rack.
        rack: u32,
    },
    /// The JobTracker takes a periodic full-state checkpoint and truncates
    /// its write-ahead log. Only scheduled when master faults are enabled.
    Checkpoint,
    /// The JobTracker process crashes. Assignment freezes and the cluster
    /// idles until the replacement master finishes recovery.
    /// `incident` counts master outages, stamping stale duplicates.
    MasterCrash {
        /// The master outage this crash begins.
        incident: u64,
    },
    /// The replacement JobTracker finishes recovery (snapshot restore +
    /// WAL replay + TaskTracker re-registration) and resumes scheduling.
    MasterRecovered {
        /// The master outage this restart ends.
        incident: u64,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    /// Ordering lane at equal times: arrivals injected from a streaming
    /// [`WorkloadSource`](woha_trace::WorkloadSource) use lane 0 so they
    /// sort before every same-instant event pushed earlier — replicating
    /// the batch driver, which pushed all arrivals first (lowest seqs).
    class: u8,
    seq: u64,
    event: Event,
}

impl Entry {
    /// The queue order: earliest first, the arrival lane before other
    /// same-instant events, then insertion order.
    fn key(&self) -> (SimTime, u8, u64) {
        (self.time, self.class, self.seq)
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use woha_sim::event::{Event, EventQueue};
/// use woha_model::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(5), Event::WorkflowArrival(1));
/// q.push(SimTime::from_secs(1), Event::WorkflowArrival(0));
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(t, SimTime::from_secs(1));
/// assert_eq!(e, Event::WorkflowArrival(0));
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    /// The heartbeat lane: [`Event::Heartbeat`] entries in ascending
    /// `(time, seq)` order. `seq` only grows, so the order holds as long
    /// as [`push`](Self::push) appends a heartbeat only when its time is
    /// not before the lane's last; any other heartbeat goes to the heap.
    beats: VecDeque<Entry>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.take_seq();
        self.place(Entry {
            time,
            class: 1,
            seq,
            event,
        });
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Files a freshly numbered class-1 entry: a heartbeat joins the lane
    /// unless it would land before the lane's last (a repaired node
    /// re-registering at `now`, an out-of-order re-push), which falls back
    /// to the heap with everything else; pop order is the same either way.
    fn place(&mut self, entry: Entry) {
        let in_lane = matches!(entry.event, Event::Heartbeat(_))
            && self.beats.back().is_none_or(|last| entry.time >= last.time);
        if in_lane {
            self.beats.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Schedules an arrival injected from a streaming workload source at
    /// `time`, in the priority lane that sorts before every same-instant
    /// [`push`](Self::push) event. The batch driver pushed all arrivals
    /// before anything else, so at any tied timestamp an un-dispatched
    /// arrival popped first; a source injects arrivals lazily (after
    /// heartbeats etc. are already queued), and this lane preserves that
    /// ordering. Only the driver's source-injection path uses it — crash
    /// recovery re-pushes drained arrivals with [`push`](Self::push),
    /// which already yields them in drained (lane-ordered) order.
    pub fn push_arrival(&mut self, time: SimTime, event: Event) {
        let seq = self.take_seq();
        self.heap.push(Entry {
            time,
            class: 0,
            seq,
            event,
        });
    }

    /// The earliest pending entry and whether it heads the heartbeat lane
    /// (rather than the heap).
    fn head(&self) -> Option<(&Entry, bool)> {
        match (self.beats.front(), self.heap.peek()) {
            (Some(beat), Some(other)) if beat.key() < other.key() => Some((beat, true)),
            (_, Some(other)) => Some((other, false)),
            (beat, None) => beat.map(|b| (b, true)),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (_, from_lane) = self.head()?;
        let entry = if from_lane {
            self.beats.pop_front()
        } else {
            self.heap.pop()
        };
        entry.map(|e| (e.time, e.event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(e, _)| e.time)
    }

    /// The time and node of the earliest pending event, if that event is a
    /// heartbeat held in the lane: the one entry
    /// [`rearm_lane_beat`](Self::rearm_lane_beat) may be called on. A
    /// heartbeat that fell back to the heap answers `None` like any other
    /// event; the driver's idle run then leaves it to [`pop`](Self::pop).
    pub fn peek_lane_beat(&self) -> Option<(SimTime, NodeId)> {
        match self.head()? {
            (entry, true) => match entry.event {
                Event::Heartbeat(node) => Some((entry.time, node)),
                _ => unreachable!("the lane holds heartbeats only"),
            },
            _ => None,
        }
    }

    /// Pops the lane heartbeat that heads the queue and schedules the same
    /// node's next one `interval` later: [`pop`](Self::pop) followed by
    /// [`push`](Self::push) — a fresh sequence number, the lane's fallback
    /// rule — without moving the event out and back in.
    ///
    /// # Panics
    ///
    /// Panics if the lane is empty; the caller must have just seen
    /// [`peek_lane_beat`](Self::peek_lane_beat) answer `Some`.
    pub fn rearm_lane_beat(&mut self, interval: SimDuration) {
        debug_assert!(matches!(self.head(), Some((_, true))));
        let mut entry = self.beats.pop_front().expect("a lane heartbeat");
        entry.time += interval;
        entry.seq = self.take_seq();
        self.place(entry);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.beats.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.beats.is_empty()
    }

    /// Removes every pending event and returns them in queue order
    /// (time, then insertion order). Used by master recovery to rebuild
    /// the schedule: kept events are re-pushed with fresh sequence
    /// numbers, preserving their relative order.
    pub fn drain_ordered(&mut self) -> Vec<(SimTime, Event)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some((t, e)) = self.pop() {
            out.push((t, e));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), Event::WorkflowArrival(3));
        q.push(SimTime::from_secs(1), Event::WorkflowArrival(1));
        q.push(SimTime::from_secs(2), Event::WorkflowArrival(2));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::WorkflowArrival(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.push(t, Event::WorkflowArrival(i));
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::WorkflowArrival(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(9), Event::Heartbeat(NodeId::new(0)));
        q.push(SimTime::from_secs(4), Event::Heartbeat(NodeId::new(1)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn drain_ordered_preserves_relative_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        q.push(t, Event::WorkflowArrival(1));
        q.push(SimTime::from_secs(1), Event::Checkpoint);
        q.push(t, Event::WorkflowArrival(2));
        let drained = q.drain_ordered();
        assert!(q.is_empty());
        assert_eq!(
            drained,
            vec![
                (SimTime::from_secs(1), Event::Checkpoint),
                (t, Event::WorkflowArrival(1)),
                (t, Event::WorkflowArrival(2)),
            ]
        );
        // Re-pushing keeps working with fresh sequence numbers.
        for (time, ev) in drained {
            q.push(time, ev);
        }
        assert_eq!(q.pop().unwrap().1, Event::Checkpoint);
    }

    #[test]
    fn arrival_lane_sorts_before_same_instant_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        q.push(t, Event::Heartbeat(NodeId::new(0)));
        q.push(t, Event::Checkpoint);
        // Injected later, but its lane wins the tie.
        q.push_arrival(t, Event::WorkflowArrival(0));
        q.push_arrival(t, Event::WorkflowArrival(1));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                Event::WorkflowArrival(0),
                Event::WorkflowArrival(1),
                Event::Heartbeat(NodeId::new(0)),
                Event::Checkpoint,
            ]
        );
        // Strictly earlier events still pop first regardless of lane.
        q.push_arrival(t, Event::WorkflowArrival(2));
        q.push(SimTime::from_secs(1), Event::Checkpoint);
        assert_eq!(q.pop().unwrap().1, Event::Checkpoint);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), Event::WorkflowArrival(5));
        q.push(SimTime::from_secs(1), Event::WorkflowArrival(1));
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(1));
        q.push(SimTime::from_secs(2), Event::WorkflowArrival(2));
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(2));
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(5));
    }

    #[test]
    fn rearming_a_one_entry_lane_takes_a_fresh_seq() {
        const INTERVAL: SimDuration = SimDuration::from_secs(3);
        let node = NodeId::new(0);
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), Event::Heartbeat(node));
        // Pushed after the beat, at the instant its re-arm will land on.
        q.push(SimTime::from_secs(4), Event::Checkpoint);
        assert_eq!(q.peek_lane_beat(), Some((SimTime::from_secs(1), node)));
        q.rearm_lane_beat(INTERVAL);
        assert_eq!((q.len(), q.beats.len()), (2, 1));
        assert_eq!(q.peek_lane_beat(), None, "the earlier push wins the tie");
        assert_eq!(
            q.drain_ordered(),
            vec![
                (SimTime::from_secs(4), Event::Checkpoint),
                (SimTime::from_secs(4), Event::Heartbeat(node)),
            ]
        );
    }

    /// The queue's specification: one `Vec` kept sorted by
    /// `(time, class, seq)`, the earliest entry first.
    #[derive(Default)]
    struct Model {
        entries: Vec<(SimTime, u8, u64, Event)>,
        next_seq: u64,
    }

    impl Model {
        fn insert(&mut self, time: SimTime, class: u8, event: Event) {
            let key = (time, class, self.next_seq);
            let at = self
                .entries
                .partition_point(|(t, c, s, _)| (*t, *c, *s) < key);
            self.entries.insert(at, (time, class, self.next_seq, event));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            if self.entries.is_empty() {
                return None;
            }
            let (time, _, _, event) = self.entries.remove(0);
            Some((time, event))
        }
    }

    /// Checks every read-only view of the queue against the model.
    fn assert_same_head(q: &EventQueue, m: &Model) {
        let head = m.entries.first();
        assert_eq!(q.len(), m.entries.len());
        assert_eq!(q.is_empty(), m.entries.is_empty());
        assert_eq!(q.peek_time(), head.map(|e| e.0));
    }

    #[test]
    fn matches_a_sorted_vec_model_under_mixed_operations() {
        const INTERVAL: SimDuration = SimDuration::from_secs(3);
        const NODES: u64 = 24;
        for seed in 0..8u64 {
            let mut state = seed;
            let mut draw = |bound: u64| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                crate::fault::splitmix(state) % bound
            };
            let mut q = EventQueue::new();
            let mut m = Model::default();
            let mut now = SimTime::ZERO;
            let (mut in_lane, mut fell_back, mut crashes) = (0u32, 0u32, 0u32);
            // Re-arms of a lane head tied with a later-pushed heap entry,
            // re-arms sent back to the heap, and lane heads that lost a tie
            // to an earlier-pushed heap entry or to a same-instant arrival.
            let (mut won_tie, mut rearm_fell_back) = (0u32, 0u32);
            let (mut lost_to_seq, mut lost_to_arrival) = (0u32, 0u32);
            // Pushes `event` the plain way on both sides, noting which
            // structure a heartbeat landed in.
            let mut push = |q: &mut EventQueue, m: &mut Model, time: SimTime, event: Event| {
                let beat = matches!(event, Event::Heartbeat(_));
                let lane_before = q.beats.len();
                q.push(time, event.clone());
                m.insert(time, 1, event);
                in_lane += u32::from(q.beats.len() > lane_before);
                fell_back += u32::from(beat && q.beats.len() == lane_before);
            };
            for step in 0..12_000u64 {
                let node = NodeId::new(draw(NODES) as u32);
                let completion = Event::TaskComplete {
                    node,
                    workflow: WorkflowId::new(step),
                    job: JobId::new(0),
                    kind: SlotKind::Map,
                    attempt: step,
                };
                // Keep the queue from draining or growing without bound.
                let op = if m.entries.len() < 8 {
                    draw(5)
                } else if m.entries.len() > 300 {
                    5
                } else {
                    draw(15)
                };
                match op {
                    // A re-armed heartbeat, one interval out — now and then
                    // two, which stretches the lane past one interval so
                    // that re-arming its head lands before its back.
                    0 | 1 => {
                        let ahead = INTERVAL * (1 + u64::from(draw(16) == 0));
                        push(&mut q, &mut m, now + ahead, Event::Heartbeat(node));
                    }
                    // The idle run's step: the head, if it is a lane beat,
                    // re-armed in place. The model pops it and pushes it
                    // back one interval later.
                    12..=14 => {
                        let (front, other) = (q.beats.front(), q.heap.peek());
                        if let (Some(beat), Some(other)) = (front, other) {
                            if beat.time == other.time {
                                won_tie += u32::from(beat.seq < other.seq && other.class == 1);
                                lost_to_seq += u32::from(beat.seq > other.seq && other.class == 1);
                                lost_to_arrival += u32::from(other.class == 0);
                            }
                        }
                        let head = m.entries.first().map(|e| (e.0, e.3.clone()));
                        if let Some((t, beat)) = q.peek_lane_beat() {
                            assert_eq!(head, Some((t, Event::Heartbeat(beat))));
                            let lane_before = q.beats.len();
                            q.rearm_lane_beat(INTERVAL);
                            let (_, event) = m.pop().expect("the head");
                            m.insert(t + INTERVAL, 1, event);
                            rearm_fell_back += u32::from(q.beats.len() < lane_before);
                            now = t;
                        } else {
                            // The head is in the heap, whatever it is.
                            let heap_head = q.heap.peek().map(|e| (e.time, e.event.clone()));
                            assert_eq!(head, heap_head);
                        }
                    }
                    // A repaired node re-registering at `now`.
                    2 => push(&mut q, &mut m, now, Event::Heartbeat(node)),
                    // A completion after a random delay; `draw(4) * 1500`
                    // lands on the heartbeat grid half the time (ties).
                    3 => {
                        let delay = SimDuration::from_millis(draw(4) * 1500 + draw(2) * draw(9000));
                        push(&mut q, &mut m, now + delay, completion);
                    }
                    // A streamed arrival, possibly at an occupied instant.
                    4 => {
                        let at = now + SimDuration::from_millis(draw(3) * 1500);
                        q.push_arrival(at, Event::WorkflowArrival(step as usize));
                        m.insert(at, 0, Event::WorkflowArrival(step as usize));
                    }
                    // The master-crash rebuild: drain, then re-push the
                    // kept future shifted by the outage behind the
                    // recovery event.
                    11 if step % 7 == 0 => {
                        crashes += 1;
                        let outage = SimDuration::from_millis(1 + draw(40_000));
                        let pending = q.drain_ordered();
                        let mut expected = Vec::new();
                        while let Some(entry) = m.pop() {
                            expected.push(entry);
                        }
                        assert_eq!(pending, expected);
                        assert_same_head(&q, &m);
                        let recovered = Event::MasterRecovered { incident: step };
                        push(&mut q, &mut m, now + outage, recovered);
                        for (t, event) in pending {
                            if event != Event::Checkpoint {
                                push(&mut q, &mut m, t.saturating_add(outage), event);
                            }
                        }
                    }
                    10 => push(&mut q, &mut m, now + INTERVAL, Event::Checkpoint),
                    // Pop; a popped heartbeat usually re-arms, as a live
                    // node's does.
                    _ => {
                        let popped = q.pop();
                        assert_eq!(popped, m.pop(), "seed {seed} step {step}");
                        if let Some((t, event)) = popped {
                            assert!(t >= now, "time went backwards");
                            now = t;
                            if matches!(event, Event::Heartbeat(_)) && draw(8) > 0 {
                                push(&mut q, &mut m, now + INTERVAL, event);
                            }
                        }
                    }
                }
                assert_same_head(&q, &m);
            }
            assert!(in_lane > 1000 && fell_back > 100 && crashes > 10);
            assert!(won_tie > 10 && rearm_fell_back > 10, "seed {seed}");
            assert!(lost_to_seq > 10 && lost_to_arrival > 4, "seed {seed}");
            assert_eq!(q.drain_ordered().len(), m.entries.len());
        }
    }
}
