//! The paper's motivating scenario: a revenue-critical advertisement
//! placement optimization pipeline competing with lower-priority analytics
//! workflows for one shared cluster.
//!
//! "Workflows tightly linked to time-sensitive advertisement placement
//! optimizations can directly affect revenue" (§I). Here a deadline-bound
//! ad pipeline is submitted while a large, deadline-less user-graph
//! analytics workflow is already soaking the cluster; WOHA keeps the ad
//! pipeline on schedule while the FIFO baseline lets the analytics job
//! starve it.
//!
//! Run with: `cargo run --release --example ad_pipeline`

use woha::prelude::*;

/// The ad pipeline: ingest click logs -> join with user profiles ->
/// train placement model -> publish, with a tight 45-minute deadline.
fn ad_pipeline(submit: SimTime) -> WorkflowSpec {
    let mut b = WorkflowBuilder::new("ad-placement");
    let ingest = b.add_job(JobSpec::new(
        "ingest-clicks",
        24,
        6,
        SimDuration::from_secs(60),
        SimDuration::from_secs(120),
    ));
    let join = b.add_job(JobSpec::new(
        "join-profiles",
        16,
        8,
        SimDuration::from_secs(90),
        SimDuration::from_secs(180),
    ));
    let train = b.add_job(JobSpec::new(
        "train-model",
        12,
        4,
        SimDuration::from_secs(120),
        SimDuration::from_secs(240),
    ));
    let publish = b.add_job(JobSpec::new(
        "publish",
        2,
        1,
        SimDuration::from_secs(30),
        SimDuration::from_secs(60),
    ));
    b.add_dependency(ingest, join);
    b.add_dependency(join, train);
    b.add_dependency(train, publish);
    b.submit_at(submit);
    b.relative_deadline(SimDuration::from_mins(25));
    b.build().expect("valid workflow")
}

/// Background analytics: a wide, heavy user-graph partitioning workflow
/// with a lax 4-hour deadline, submitted first.
fn analytics(submit: SimTime) -> WorkflowSpec {
    let mut b = WorkflowBuilder::new("user-graph-analytics");
    let prev: Vec<_> = (0..6)
        .map(|i| {
            b.add_job(JobSpec::new(
                format!("partition-{i}"),
                32,
                8,
                SimDuration::from_secs(120),
                SimDuration::from_secs(300),
            ))
        })
        .collect();
    let merge = b.add_job(JobSpec::new(
        "merge",
        8,
        4,
        SimDuration::from_secs(60),
        SimDuration::from_secs(240),
    ));
    for p in prev {
        b.add_dependency(p, merge);
    }
    b.submit_at(submit);
    b.relative_deadline(SimDuration::from_mins(240));
    b.build().expect("valid workflow")
}

fn main() {
    let workflows = vec![analytics(SimTime::ZERO), ad_pipeline(SimTime::from_mins(5))];
    let cluster = ClusterConfig::uniform(16, 2, 1); // 32 map + 16 reduce slots
    let config = SimConfig::default();

    println!("scenario: ad pipeline (25 min deadline) submitted 5 min after a");
    println!("4-hour-deadline analytics workflow, on a 16-slave cluster\n");

    for name in ["FIFO", "WOHA-LPF"] {
        let mut fifo;
        let mut woha;
        let scheduler: &mut dyn WorkflowScheduler = if name == "FIFO" {
            fifo = FifoScheduler;
            &mut fifo
        } else {
            woha = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 48));
            &mut woha
        };
        let report = run_simulation(&workflows, scheduler, &cluster, &config);
        println!("--- {name} ---");
        for o in &report.outcomes {
            println!(
                "  {:<22} finished {:>8} deadline {:>8} -> {}",
                o.name,
                o.finished.expect("completes").to_string(),
                o.deadline.to_string(),
                if o.met_deadline() { "met" } else { "MISSED" },
            );
        }
        println!();
    }
    println!("WOHA paces the analytics workflow against its lax deadline, freeing");
    println!("slots for the revenue-critical pipeline exactly when its plan needs them.");
}
