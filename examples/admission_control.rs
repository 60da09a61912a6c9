//! Admission control in front of WOHA: accept deadline-bound workflows
//! only while the demand-bound test says the set can still be feasible,
//! then verify with the simulator that everything admitted actually meets
//! its deadline — while the rejected overload would not have.
//!
//! The submitted workflows are fork/join pipelines written in the
//! workflow XML format, with explicit `<depends on>` edges.
//!
//! Run with: `cargo run --release --example admission_control`

use woha::prelude::*;

/// ingest, then stats and model in parallel, then publish.
const PIPELINE: &str = r#"
<workflow name="TEMPLATE" deadline="25m">
  <job name="ingest" mappers="24" reducers="3" map-duration="45s" reduce-duration="90s"/>
  <job name="stats" mappers="10" reducers="3" map-duration="45s" reduce-duration="90s">
    <depends on="ingest"/>
  </job>
  <job name="model" mappers="10" reducers="3" map-duration="45s" reduce-duration="90s">
    <depends on="ingest"/>
  </job>
  <job name="publish" mappers="10" reducers="3" map-duration="45s" reduce-duration="90s">
    <depends on="stats"/>
    <depends on="model"/>
  </job>
</workflow>"#;

fn instance(index: usize) -> WorkflowSpec {
    let xml = PIPELINE.replace("TEMPLATE", &format!("pipeline-{index}"));
    WorkflowConfig::parse(&xml)
        .expect("valid workflow XML")
        .to_spec(SimTime::ZERO)
        .expect("valid workflow")
}

fn main() {
    let cluster = ClusterConfig::uniform(6, 2, 1); // 12 map + 6 reduce slots
                                                   // A conservative margin: deep fork/join phase structure packs far less
                                                   // tightly than raw capacity suggests.
    let mut gate = MultiTenantGate::open(&cluster).with_margin(0.55);

    // Eight identical pipelines all want to finish within 25 minutes.
    let mut admitted = Vec::new();
    println!("offering 8 fork/join pipelines (deadline 25m each) to an 18-slot cluster:\n");
    for i in 0..8 {
        let w = instance(i);
        match gate.admit(&w, SimTime::ZERO) {
            Ok(()) => {
                println!("  {} admitted", w.name());
                admitted.push(w);
            }
            Err(label) => println!("  {} REJECTED: {label}", w.name()),
        }
    }

    // Run the admitted set under WOHA and check the promise held.
    let mut scheduler = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 18));
    let report = run_simulation(&admitted, &mut scheduler, &cluster, &SimConfig::default());
    println!(
        "\nsimulated outcome: {} admitted, {} deadline misses, makespan {}",
        admitted.len(),
        report.deadline_misses(),
        report.end_time,
    );
    assert_eq!(report.deadline_misses(), 0, "admission kept its promise");

    println!("\nthe demand-bound test is necessary, not sufficient: admitted sets");
    println!("can still be unlucky, but here WOHA delivers every admitted deadline.");
}
