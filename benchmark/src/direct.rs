//! Direct-drive loops over layers no decorator can reach: the priority
//! index is built inside `WohaScheduler`, plan generation and the data
//! plane are called from inside the scheduler and the driver. Each loop
//! calls the layer's public API on inputs shaped like the workloads' and
//! reports the median of several timed batches.

use std::hint::black_box;
use std::time::Instant;

use woha_core::plangen::{generate_plan, CapMode};
use woha_core::{JobPriorities, PriorityPolicy, QueueStrategy};
use woha_model::{JobId, NodeId, SimDuration, SimTime, WorkflowId, WorkflowSpec};
use woha_sim::{ClusterConfig, DataPlane, LocalityConfig};
use woha_trace::{drain, to_jsonl, GeneratorSource, JsonlSource, Rng};

use crate::stats::{median, quantile_sorted};
use crate::workloads::yahoo_config;

/// Timed batches per measurement; the median batch is reported.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of `ops` calls of `op`, in ns per call.
fn ns_per_op(ops: usize, mut op: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ops {
                op();
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&batches)
}

/// The keys the index contract makes the caller keep per workflow.
#[derive(Clone, Copy)]
struct Keys {
    ct: SimTime,
    lag: i64,
    deadline: SimTime,
}

fn random_keys(rng: &mut Rng) -> Keys {
    Keys {
        ct: SimTime::from_millis(rng.range_u64(0, 3_600_000)),
        lag: rng.range_u64(0, 2_000) as i64 - 1_000,
        deadline: SimTime::from_millis(rng.range_u64(3_600_000, 7_200_000)),
    }
}

/// `core.index.<backend>.<depth>.*` for one backend at one depth.
pub struct IndexCosts {
    /// `min_ct` + `select` accepting the head + `update`: Algorithm 2's
    /// common case, the only one an index microbenchmark usually times.
    pub head_cycle_ns: f64,
    /// A `select` whose visitor rejects everything, per queued entry: what
    /// a slot offer costs when no queued workflow has an eligible task of
    /// the offered kind — most offers of a whole run.
    pub miss_walk_ns_per_entry: f64,
    /// One `insert` plus one `remove` of a fresh workflow.
    pub insert_remove_ns: f64,
}

pub fn index_costs(strategy: QueueStrategy, depth: usize, seed: u64, smoke: bool) -> IndexCosts {
    let mut index = strategy.build_index().expect("indexed backend");
    let mut rng = Rng::new(seed ^ depth as u64);
    let mut keys: Vec<Keys> = (0..depth).map(|_| random_keys(&mut rng)).collect();
    for (i, k) in keys.iter().enumerate() {
        index.insert(WorkflowId::new(i as u64), k.ct, k.lag, k.deadline);
    }
    let scale = if smoke { 20 } else { 1 };

    let head_cycle_ns = ns_per_op(40_000 / scale, || {
        black_box(index.min_ct());
        let (_, wf) = index.select(&mut |_, _| true).expect("index is not empty");
        let old = keys[wf.as_u64() as usize];
        // An assigned task lowers the workflow's lag; the varying step
        // re-inserts it at varying depth.
        let new = Keys {
            ct: old.ct + SimDuration::from_millis(1 + rng.range_u64(0, 1000)),
            lag: old.lag - 1 - rng.range_u64(0, 8) as i64,
            ..old
        };
        index.update(wf, old.ct, old.lag, new.ct, new.lag, new.deadline);
        keys[wf.as_u64() as usize] = new;
    });

    let walks = (2_000_000 / depth / scale).max(1);
    let miss_walk_ns_per_entry = ns_per_op(walks, || {
        black_box(index.select(&mut |_, _| false));
    }) / depth as f64;

    let fresh = WorkflowId::new(depth as u64);
    let insert_remove_ns = ns_per_op(40_000 / scale, || {
        let k = random_keys(&mut rng);
        index.insert(fresh, k.ct, k.lag, k.deadline);
        index.remove(fresh, k.ct, k.lag, k.deadline);
    });
    assert_eq!(index.len(), depth, "direct-drive left the index as built");

    IndexCosts {
        head_cycle_ns,
        miss_walk_ns_per_entry,
        insert_remove_ns,
    }
}

/// `core.plangen.*`: Algorithm 1 over a workload's own specs.
pub struct PlanCosts {
    pub us_p50: f64,
    pub us_p99: f64,
    pub plans_per_s: f64,
    /// Mean encoded plan size (the paper's Fig 13(b)).
    pub bytes_mean: f64,
    pub samples: usize,
}

pub fn plan_costs(specs: &[WorkflowSpec], total_slots: u32) -> PlanCosts {
    // Three passes, so that p99 has ten samples beyond it from N ≥ 334.
    let mut us = Vec::with_capacity(specs.len() * 3);
    let mut bytes = 0usize;
    for _ in 0..3 {
        for spec in specs {
            let start = Instant::now();
            let priorities = JobPriorities::compute(spec, PriorityPolicy::Lpf);
            let plan = generate_plan(spec, &priorities, total_slots, CapMode::MinFeasible);
            us.push(start.elapsed().as_nanos() as f64 / 1e3);
            bytes += black_box(plan).encoded_size_bytes();
        }
    }
    let total_s = us.iter().sum::<f64>() / 1e6;
    us.sort_by(f64::total_cmp);
    PlanCosts {
        us_p50: quantile_sorted(&us, 0.5),
        us_p99: quantile_sorted(&us, 0.99),
        plans_per_s: us.len() as f64 / total_s,
        bytes_mean: bytes as f64 / us.len() as f64,
        samples: us.len(),
    }
}

/// `sim.dataplane.pick_map_ns` and `invalidate_node_us` on the
/// `faulty_racks` topology: 80 nodes in 4 racks, 3 replicas.
pub struct DataPlaneCosts {
    pub pick_map_ns: f64,
    pub invalidate_node_us: f64,
}

pub fn dataplane_costs(seed: u64, smoke: bool) -> DataPlaneCosts {
    const NODES: u32 = 80;
    const MAPS: u32 = 64;
    let cluster = ClusterConfig::uniform(NODES, 3, 3).with_racks(4);
    let locality = LocalityConfig {
        replicas: 3,
        // No delay scheduling here: every offer must return a task, so
        // the loop times the replica search and nothing else.
        max_delay_skips: 0,
        prefer_survivors: true,
        ..LocalityConfig::default()
    };
    let jobs = if smoke { 8 } else { 160 };
    let wf = WorkflowId::new(0);

    let batches: Vec<f64> = (0..BATCHES)
        .map(|batch| {
            let mut plane = DataPlane::new(seed + batch as u64, &cluster, Some(locality));
            for j in 0..jobs {
                plane.activate_job(wf, JobId::new(j), MAPS);
            }
            let start = Instant::now();
            let mut offer = 0u32;
            for j in 0..jobs {
                for _ in 0..MAPS {
                    offer += 1;
                    let node = NodeId::new(offer * 7 % NODES);
                    black_box(plane.pick_map_task(wf, JobId::new(j), node, MAPS));
                }
            }
            start.elapsed().as_nanos() as f64 / f64::from(jobs * MAPS)
        })
        .collect();
    let pick_map_ns = median(&batches);

    let batches: Vec<f64> = (0..BATCHES)
        .map(|batch| {
            let mut plane = DataPlane::new(seed + batch as u64, &cluster, Some(locality));
            for j in 0..jobs {
                for task in 0..MAPS {
                    let node = NodeId::new((j * 31 + task * 7) % NODES);
                    plane.record_map_output(wf, JobId::new(j), node, Some(task));
                }
            }
            let start = Instant::now();
            for node in 0..NODES {
                black_box(plane.invalidate_node(NodeId::new(node)));
            }
            start.elapsed().as_nanos() as f64 / 1e3 / f64::from(NODES)
        })
        .collect();
    DataPlaneCosts {
        pick_map_ns,
        invalidate_node_us: median(&batches),
    }
}

/// `trace.source.generator_wf_per_s` and `jsonl_wf_per_s`: draining the
/// Yahoo generator, and a `JsonlSource` over this workload's own specs.
pub struct SourceCosts {
    pub generator_wf_per_s: f64,
    pub jsonl_wf_per_s: f64,
}

pub fn source_costs(specs: &[WorkflowSpec], seed: u64) -> SourceCosts {
    let count = specs.len();
    let jsonl = to_jsonl(specs).expect("workflow specs serialize");
    let generator: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut source =
                GeneratorSource::new(yahoo_config(), seed, count, SimDuration::from_secs(45), 3.0);
            let start = Instant::now();
            let drained = black_box(drain(&mut source));
            assert_eq!(drained.len(), count);
            count as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    let parsed: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut source = JsonlSource::from_reader(jsonl.as_bytes());
            let start = Instant::now();
            let drained = black_box(drain(&mut source));
            assert_eq!(drained.len(), count);
            count as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    SourceCosts {
        generator_wf_per_s: median(&generator),
        jsonl_wf_per_s: median(&parsed),
    }
}
