//! Tier-1 end-to-end determinism check for the parallel sweep
//! orchestrator: the same multi-cell grid run with 1, 2, and 8 worker
//! threads must produce **byte-identical** canonical JSON. This is the
//! contract every ported bench binary's `--jobs` flag relies on.

use woha_bench::scenarios::{demo_cluster, fig11_workflows};
use woha_bench::sweep::{CellKey, SimSweep};
use woha_bench::SchedulerKind;
use woha_model::SimDuration;
use woha_sim::{FaultConfig, SimConfig};

const KINDS: [SchedulerKind; 4] = [
    SchedulerKind::Edf,
    SchedulerKind::Fifo,
    SchedulerKind::Fair,
    SchedulerKind::WohaLpf,
];

/// The failure-study shape in miniature: 2 MTBF points × 4 schedulers
/// on the demo cluster = 8 cells, exercising both the fault-free and
/// fault-injecting driver paths.
fn grid(workflows: &[woha_model::WorkflowSpec]) -> SimSweep<'_> {
    let cluster = demo_cluster();
    let config = SimConfig {
        duration_jitter: 0.1,
        seed: 7,
        ..SimConfig::default()
    };
    let mttr = SimDuration::from_mins(3);
    let mut sweep = SimSweep::new();
    for (label, mtbf) in [("none", None), ("12m", Some(SimDuration::from_mins(12)))] {
        let faulty = match mtbf {
            Some(mtbf) => cluster
                .clone()
                .with_faults(FaultConfig::with_mtbf(mtbf, mttr)),
            None => cluster.clone(),
        };
        sweep.push_kinds(
            &CellKey::new().with("mtbf", label),
            &KINDS,
            workflows,
            &faulty,
            &config,
        );
    }
    sweep
}

#[test]
fn sweep_is_byte_identical_across_thread_counts() {
    let workflows = fig11_workflows();
    let sweep = grid(&workflows);
    assert_eq!(sweep.len(), 8);

    let serial = sweep.run(1);
    let serial_json = serial.canonical_json();
    assert_eq!(serial.jobs, 1);

    for jobs in [2, 8] {
        let pooled = sweep.run(jobs);
        assert_eq!(
            serial_json,
            pooled.canonical_json(),
            "canonical sweep output differs between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn sweep_results_are_in_specification_order() {
    let workflows = fig11_workflows();
    let sweep = grid(&workflows);
    let run = sweep.run(4);
    let labels: Vec<String> = run.cells.iter().map(|(key, _)| key.label()).collect();
    let mut expected = Vec::new();
    for mtbf in ["none", "12m"] {
        for kind in KINDS {
            expected.push(format!("mtbf={mtbf} scheduler={kind}"));
        }
    }
    assert_eq!(labels, expected);
}
