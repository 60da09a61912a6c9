//! An outside oracle for heartbeat-driven FIFO.
//!
//! `reference` is a from-scratch event loop written from DESIGN.md's
//! heartbeat rules (§10, "Heartbeats, offers and same-instant order"), not
//! from the driver: node `i` of `c` first beats at `⌊h·i/c⌋` ms and then
//! every `h`; a beat offers the node's free slots and then re-arms; a
//! completing task frees its slot and the node's free slots are offered at
//! that instant; a workflow's job activates `submit_latency` after it
//! arrives; each offer takes the earliest-activated eligible job; events at
//! one instant run arrivals first, then in insertion order. `FifoScheduler`
//! under `run_simulation` must finish every workflow exactly when the
//! reference does.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use woha_core::FifoScheduler;
use woha_model::{JobSpec, SimDuration, SimTime, WorkflowBuilder, WorkflowSpec};
use woha_sim::{run_simulation, ClusterConfig, SimConfig};
use woha_trace::Rng;

/// One workflow of the workload: a single job with a single map task.
#[derive(Debug, Clone, Copy)]
struct Task {
    submit_ms: u64,
    run_ms: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Arrive(usize),
    Activate(usize),
    Beat(usize),
    Complete { node: usize, task: usize },
}

struct Reference<'a> {
    tasks: &'a [Task],
    /// `(time, lane, insertion order, event)`, earliest first; arrivals
    /// ride lane 0, everything else lane 1.
    queue: BinaryHeap<Reverse<(u64, u8, u64, Ev)>>,
    inserted: u64,
    free: Vec<u32>,
    /// Activated tasks not yet started, in activation order.
    waiting: VecDeque<usize>,
    finished: Vec<Option<u64>>,
    unfinished: usize,
}

impl Reference<'_> {
    fn push(&mut self, at: u64, lane: u8, ev: Ev) {
        self.queue.push(Reverse((at, lane, self.inserted, ev)));
        self.inserted += 1;
    }

    /// Hands each free slot of `node` to the earliest-activated waiting task.
    fn offer(&mut self, node: usize, now: u64) {
        while self.free[node] > 0 {
            let Some(task) = self.waiting.pop_front() else {
                return;
            };
            self.free[node] -= 1;
            self.push(
                now + self.tasks[task].run_ms,
                1,
                Ev::Complete { node, task },
            );
        }
    }
}

/// Finish instant (ms) of every task on `nodes` nodes of `slots` map slots.
fn reference(tasks: &[Task], nodes: usize, slots: u32, beat_ms: u64, latency_ms: u64) -> Vec<u64> {
    let mut r = Reference {
        tasks,
        queue: BinaryHeap::new(),
        inserted: 0,
        free: vec![slots; nodes],
        waiting: VecDeque::new(),
        finished: vec![None; tasks.len()],
        unfinished: tasks.len(),
    };
    for node in 0..nodes {
        r.push(beat_ms * node as u64 / nodes as u64, 1, Ev::Beat(node));
    }
    for (task, t) in tasks.iter().enumerate() {
        r.push(t.submit_ms, 0, Ev::Arrive(task));
    }
    while let Some(Reverse((now, _, _, ev))) = r.queue.pop() {
        match ev {
            Ev::Arrive(task) => r.push(now + latency_ms, 1, Ev::Activate(task)),
            Ev::Activate(task) => r.waiting.push_back(task),
            Ev::Beat(node) => {
                r.offer(node, now);
                if r.unfinished > 0 {
                    r.push(now + beat_ms, 1, Ev::Beat(node));
                }
            }
            Ev::Complete { node, task } => {
                r.finished[task] = Some(now);
                r.unfinished -= 1;
                r.free[node] += 1;
                r.offer(node, now);
            }
        }
    }
    r.finished
        .into_iter()
        .map(|f| f.expect("every task finishes"))
        .collect()
}

/// `n` tasks on a 250 ms grid (so completions, arrivals and beats often
/// share an instant); about a third arrive in a burst with the previous one.
fn workload(seed: u64, n: usize) -> Vec<Task> {
    let mut rng = Rng::new(seed);
    let mut submit_ms = 0;
    (0..n)
        .map(|_| {
            if !rng.gen_bool(0.35) {
                submit_ms += rng.range_u64(1, 9) * 250;
            }
            Task {
                submit_ms,
                run_ms: rng.range_u64(1, 41) * 250,
            }
        })
        .collect()
}

fn specs(tasks: &[Task]) -> Vec<WorkflowSpec> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut b = WorkflowBuilder::new(format!("w{i}"));
            b.add_job(JobSpec::new(
                "j",
                1,
                0,
                SimDuration::from_millis(t.run_ms),
                SimDuration::ZERO,
            ));
            b.submit_at(SimTime::from_millis(t.submit_ms));
            b.relative_deadline(SimDuration::from_mins(600));
            b.build().expect("valid workflow")
        })
        .collect()
}

#[test]
fn fifo_matches_the_heartbeat_reference() {
    let mut cells = 0;
    for nodes in [1usize, 3, 8] {
        for beat_ms in [1_000, 3_000, 10_000] {
            for latency_ms in [0, 1_000] {
                for seed in 0..4u64 {
                    let slots = 1 + (seed % 2) as u32;
                    let tasks = workload(seed * 131 + nodes as u64 * 7 + beat_ms, 40);
                    let expected = reference(&tasks, nodes, slots, beat_ms, latency_ms);
                    let cluster = ClusterConfig::uniform(nodes as u32, slots, 1)
                        .with_heartbeat(SimDuration::from_millis(beat_ms));
                    let config = SimConfig {
                        submit_latency: SimDuration::from_millis(latency_ms),
                        ..SimConfig::default()
                    };
                    let report =
                        run_simulation(&specs(&tasks), &mut FifoScheduler, &cluster, &config);
                    assert!(report.completed);
                    let cell = format!(
                        "{nodes} nodes x {slots} slots, beat {beat_ms} ms, latency {latency_ms} ms, seed {seed}"
                    );
                    for (i, &ms) in expected.iter().enumerate() {
                        let got = report.outcome_by_name(&format!("w{i}")).unwrap().finished;
                        assert_eq!(got, Some(SimTime::from_millis(ms)), "w{i} on {cell}");
                    }
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 72);
}

/// The workload really exercises the tie-breaks the reference encodes.
#[test]
fn the_workload_has_bursts_and_queues() {
    let tasks = workload(7, 40);
    let bursts = tasks
        .windows(2)
        .filter(|w| w[0].submit_ms == w[1].submit_ms)
        .count();
    assert!(bursts >= 5, "{bursts} same-instant arrivals");
    let finish = reference(&tasks, 1, 1, 10_000, 0);
    let waited = tasks
        .iter()
        .zip(&finish)
        .filter(|(t, &f)| f > t.submit_ms + t.run_ms + 10_000)
        .count();
    assert!(waited >= 5, "{waited} tasks queued behind others");
}
