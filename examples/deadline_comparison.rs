//! The paper's headline demo (Fig 11): three instances of the 33-job
//! Fig 7 workflow, submitted 5 minutes apart with deadlines 80/70/60
//! minutes, on a 32-slave cluster — under all six schedulers.
//!
//! Run with: `cargo run --release --example deadline_comparison`

use woha::prelude::*;
use woha::trace::topology::paper_fig7;

fn workflows() -> Vec<WorkflowSpec> {
    let releases = [0u64, 5, 10];
    let deadlines = [80u64, 70, 60];
    releases
        .iter()
        .zip(&deadlines)
        .enumerate()
        .map(|(i, (&rel, &dl))| {
            paper_fig7(format!("W-{}", i + 1))
                .submit_at(SimTime::from_mins(rel))
                .relative_deadline(SimDuration::from_mins(dl))
                .build()
                .expect("valid workflow")
        })
        .collect()
}

fn main() {
    let workflows = workflows();
    let cluster = ClusterConfig::uniform(32, 2, 1);
    let total_slots = 96;
    let config = SimConfig::default();

    println!("three 33-job workflows, releases 0/5/10 min, deadlines 80/70/60 min");
    println!("cluster: 32 slaves x (2 map + 1 reduce slot)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>8}",
        "scheduler", "W-1 span", "W-2 span", "W-3 span", "misses"
    );

    let run = |name: &str, scheduler: &mut dyn WorkflowScheduler| {
        let report = run_simulation(&workflows, scheduler, &cluster, &config);
        let spans = report.workspans();
        let misses = report.deadline_misses();
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>8}",
            name,
            spans[0].to_string(),
            spans[1].to_string(),
            spans[2].to_string(),
            misses
        );
    };

    run("EDF", &mut EdfScheduler);
    run("FIFO", &mut FifoScheduler);
    run("Fair", &mut FairScheduler);
    for policy in [
        PriorityPolicy::Lpf,
        PriorityPolicy::Hlf,
        PriorityPolicy::Mpf,
    ] {
        let mut woha = WohaScheduler::new(WohaConfig::new(policy, total_slots));
        run(&format!("WOHA-{policy}"), &mut woha);
    }

    println!("\nexpected shape (paper Fig 11): all three WOHA variants meet all three");
    println!("deadlines; EDF over-serves W-3 and misses W-1; FIFO starves W-3; Fair");
    println!("misses under contention.");
}
