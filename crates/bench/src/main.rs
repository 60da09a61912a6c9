//! `woha-bench <experiment> [--quick] [--jobs N]` — every experiment of the
//! reproduction behind one harness: the paper's Figs 2–19, the ablations,
//! and the extension studies. `woha-bench list` names them.
//!
//! `--quick` selects the CI smoke size where an experiment has one (the
//! output schema is identical). `--jobs N` bounds the worker pool of the
//! experiments that fan out over [`woha_bench::sweep`] (`0` = available
//! parallelism); simulation sweeps print the same bytes for any `N`.
//!
//! Any other argument is a usage error, unless it is the experiment's own
//! (`takes_operand`).
//!
//! The two studies that keep a machine-readable baseline (`failure_study`,
//! `locality_study`: simulated statistics) write `BENCH_<key>.json` and
//! `results/<experiment>.txt` into the working directory, then print the
//! same table. Host time other than Fig 13(a)'s is the repository's
//! `benchmark/`'s to measure.

use serde::Serialize;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use woha_bench::chart::panel;
use woha_bench::experiments::deadline::{fig10_table, fig8_table, fig9_table, run_trace_sweep};
use woha_bench::experiments::demo::{
    fig11_table, fig12_table, run_fig11, run_fig12, scheduler_of, timeline_table,
};
use woha_bench::experiments::master_failover::{
    miss_delta_table, recovery_table, run_failover_sweep, tardiness_delta_table,
};
use woha_bench::experiments::plans::{
    fig13b_table, run_fig13b, run_fig2, run_fig2_baselines, run_fig3,
};
use woha_bench::experiments::throughput::{fig13a_table, run_fig13a};
use woha_bench::experiments::tracestats::{run_trace_stats, TRACE_JOBS};
use woha_bench::experiments::{ablation, failures, locality};
use woha_bench::scenarios::{
    demo_cluster, fig11_workflows, trace_clusters, yahoo_workload, YahooScenario,
};
use woha_bench::sweep::{available_jobs, SimSweepRun};
use woha_bench::table::Table;
use woha_bench::SchedulerKind;
use woha_core::{PriorityPolicy, WohaConfig, WohaScheduler};
use woha_model::{SimDuration, SimTime, SlotKind, WorkflowId};
use woha_sim::{run_simulation, SimConfig, SimReport, SpeculationConfig};

/// What one invocation asked for.
#[derive(Debug)]
struct Args {
    /// The experiment's name, as in [`EXPERIMENTS`].
    name: &'static str,
    quick: bool,
    /// Worker threads, resolved against the experiment's default.
    jobs: usize,
    /// What else the experiment [takes](takes_operand).
    operands: Vec<String>,
}

/// `(name, about, default_jobs, run)`: `about` is what `list` prints, and
/// `default_jobs` the worker threads when `--jobs` is absent — [`SWEEP`]
/// for simulation sweeps, whose output is jobs-invariant, [`SERIAL`] for
/// Fig 13(a)'s wall-clock measurements, which concurrent cells on shared
/// cores would distort (and for experiments that never fan out).
type Experiment = (&'static str, &'static str, fn() -> usize, Run);
type Run = fn(&Args);

const SERIAL: fn() -> usize = || 1;
const SWEEP: fn() -> usize = available_jobs;

// One row per experiment, kept as a table.
#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 17] = [
    ("fig02_resource_cap", "Fig 2: the resource-capped plan example", SERIAL, fig02_resource_cap),
    ("fig03_change_intervals", "Fig 3: plan change intervals", SERIAL, fig03_change_intervals),
    ("fig05_duration_cdf", "Fig 5: task duration CDFs of the trace", SERIAL, fig05_duration_cdf),
    ("fig06_taskcount_cdf", "Fig 6: task count CDFs of the trace", SERIAL, fig06_taskcount_cdf),
    ("fig08_miss_ratio", "Fig 8: deadline-miss ratio, Yahoo workload", SWEEP, fig08_miss_ratio),
    ("fig09_max_tardiness", "Fig 9: max tardiness, Yahoo workload", SWEEP, fig09_max_tardiness),
    ("fig10_total_tardiness", "Fig 10: total tardiness, same sweep", SWEEP, fig10_total_tardiness),
    ("fig11_workspan", "Fig 11: workspans under the six schedulers", SWEEP, fig11_workspan),
    ("fig12_utilization", "Fig 12: utilization with 3 recurrences", SWEEP, fig12_utilization),
    ("fig13a_throughput", "Fig 13(a): AssignTask calls/s vs queue", SERIAL, fig13a_throughput),
    ("fig13b_plan_size", "Fig 13(b): plan size vs task count", SERIAL, fig13b_plan_size),
    ("fig14_19_slot_timelines", "Figs 14-19: slot timelines", SERIAL, fig14_19_slot_timelines),
    ("ablations", "cap, slack, heartbeat and replanning ablations", SERIAL, ablations),
    ("speculation_study", "stragglers with and without speculation", SERIAL, speculation_study),
    ("locality_study", "delay scheduling and rack-aware recovery", SWEEP, locality_study),
    ("failure_study", "node MTBF sweep, reactive vs proactive WOHA", SWEEP, failure_study),
    ("master_failover", "one JobTracker crash, with and without WAL", SWEEP, master_failover),
];

fn list() -> String {
    let mut out = String::new();
    for (name, about, ..) in &EXPERIMENTS {
        writeln!(out, "  {name:<24} {about}").expect("writing to a String");
    }
    out
}

/// Whether `arg` is an operand of experiment `name`'s own: only
/// `fig14_19_slot_timelines` has any — `--table` and a scheduler's name.
fn takes_operand(name: &str, arg: &str) -> bool {
    let scheduler = |kind: &SchedulerKind| kind.to_string().eq_ignore_ascii_case(arg);
    name == "fig14_19_slot_timelines"
        && (arg == "--table" || SchedulerKind::ALL.iter().any(scheduler))
}

/// Resolves a command line to an experiment and its arguments — `--quick`,
/// `--jobs N` and `--jobs=N` split from the experiment's own operands — or
/// to the message to fail with.
fn select(args: &[String]) -> Result<(Run, Args), String> {
    let usage = "usage: woha-bench <experiment> [--quick] [--jobs N]\n       woha-bench list";
    let Some((name, rest)) = args.split_first() else {
        return Err(format!("{usage}\n\nexperiments:\n{}", list()));
    };
    let Some(&(name, _, default_jobs, run)) = EXPERIMENTS.iter().find(|(n, ..)| n == name) else {
        return Err(format!(
            "unknown experiment {name:?}\n\n{usage}\n\nexperiments:\n{}",
            list()
        ));
    };
    let mut parsed = Args {
        name,
        quick: false,
        jobs: default_jobs(),
        operands: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let jobs = match arg.as_str() {
            "--quick" => {
                parsed.quick = true;
                continue;
            }
            "--jobs" => it.next().ok_or("--jobs needs a value")?,
            _ => match arg.strip_prefix("--jobs=") {
                Some(value) => value,
                None if takes_operand(name, arg) => {
                    parsed.operands.push(arg.clone());
                    continue;
                }
                None => return Err(format!("{name}: unexpected argument {arg:?}\n\n{usage}")),
            },
        };
        parsed.jobs = match jobs.parse() {
            Ok(0) => available_jobs(),
            Ok(n) => n,
            Err(_) => return Err(format!("--jobs: not a number: {jobs}")),
        };
    }
    Ok((run, parsed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "list") {
        print!("{}", list());
        return ExitCode::SUCCESS;
    }
    match select(&args) {
        Ok((run, args)) => {
            run(&args);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{}", message.trim_end());
            ExitCode::from(2)
        }
    }
}

/// Writes an experiment's machine-readable report to `BENCH_<key>.json`
/// and its table to `results/<experiment>.txt`, then prints the table.
fn publish(args: &Args, key: &str, report: &impl Serialize, text: &str) {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    let results = format!("results/{}.txt", args.name);
    std::fs::write(format!("BENCH_{key}.json"), json).expect("write the BENCH_*.json report");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(&results, text).expect("write the results/ table");
    print!("{text}");
    eprintln!("wrote BENCH_{key}.json and {results}");
}

/// Reports on stderr whether an experiment's headline claim held.
fn verdict(pass: bool, finding: String) {
    eprintln!("{}: {finding}", if pass { "PASS" } else { "WARN" });
}

/// The jittered driver config the fault and sweep studies share.
fn jittered(seed: u64) -> SimConfig {
    SimConfig {
        duration_jitter: 0.1,
        seed,
        ..SimConfig::default()
    }
}

fn fig02_resource_cap(_: &Args) {
    let r = run_fig2();
    println!("Fig 2 — benefits of the resource-capped scheduling plan");
    println!("cluster: 3 map + 3 reduce slots; '*' = deadline missed\n");
    print!("{}", r.table().render());
    println!("\ncaps chosen by the binary search: uncapped plans use the full 6 slots;");
    println!("capped plans use the smallest cap meeting each deadline (2 for W1/W2).\n");
    println!("For context, the ported baselines on the same scenario:");
    for (kind, report) in run_fig2_baselines() {
        let missed = report.deadline_misses();
        println!("  {kind}: {missed} of 3 deadlines missed");
    }
}

fn fig03_change_intervals(_: &Args) {
    let r = run_fig3(20140614, 400);
    let intervals = r.intervals;
    println!("Fig 3 — progress requirement change intervals ({intervals} intervals)\n");
    print!("{}", r.table().render());
    println!("\npaper reference: all intervals > 10 ms; >99% > 10 s (their trace);");
    println!("our second-granularity estimates put all intervals >= 1 s, most >= 10 s.");
}

fn fig05_duration_cdf(_: &Args) {
    let s = run_trace_stats(2024);
    println!("Fig 5 — task execution time statistics ({TRACE_JOBS} synthetic jobs)\n");
    println!("(a) CDF of task execution time:");
    print!("{}", s.fig5a_table().render());
    println!("\n(b) CDF of reduce duration / map duration within a job:");
    print!("{}", s.fig5b_table().render());
}

fn fig06_taskcount_cdf(_: &Args) {
    let s = run_trace_stats(2024);
    println!("Fig 6 — task count statistics ({TRACE_JOBS} synthetic jobs)\n");
    println!("(a) CDF of task number:");
    print!("{}", s.fig6a_table().render());
    println!("\n(b) CDF of map number / reduce number within a job:");
    print!("{}", s.fig6b_table().render());
}

/// Figs 8–10 are three tables of one sweep: the Yahoo-like workload per
/// cluster size and scheduler.
fn trace_sweep_figure(args: &Args, title: &str, table: fn(&SimSweepRun) -> Table) {
    let sweep = run_trace_sweep(&YahooScenario::default(), 0.1, args.jobs);
    let count = sweep.cells[0].1.outcomes.len();
    println!("{title} ({count} multi-job Yahoo-like workflows)\n");
    print!("{}", table(&sweep).render());
}

fn fig08_miss_ratio(args: &Args) {
    trace_sweep_figure(args, "Fig 8 — deadline miss ratio", fig8_table);
}

fn fig09_max_tardiness(args: &Args) {
    trace_sweep_figure(args, "Fig 9 — max tardiness in seconds", fig9_table);
}

fn fig10_total_tardiness(args: &Args) {
    let title = "Fig 10 — total tardiness in seconds";
    trace_sweep_figure(args, title, fig10_table);
}

fn fig11_workspan(args: &Args) {
    let d: Vec<_> = fig11_workflows()
        .iter()
        .map(|w| w.relative_deadline())
        .collect();
    println!("Fig 11 — synthetic workflow workspans (32 slaves: 64 map + 32 reduce slots)");
    println!(
        "relative deadlines: W-1 {}, W-2 {}, W-3 {} ('*' = deadline missed)\n",
        d[0], d[1], d[2]
    );
    print!("{}", fig11_table(&run_fig11(false, args.jobs)).render());
}

fn fig12_utilization(args: &Args) {
    println!("Fig 12 — cluster utilization with 3 recurrences (32-slave demo cluster)\n");
    print!("{}", fig12_table(&run_fig12(args.jobs)).render());
}

/// Queue lengths sweep 10^2..10^6 like the paper; `--quick` stops at 10^4
/// (the naive scheduler needs minutes beyond that).
fn fig13a_throughput(args: &Args) {
    let lens: &[usize] = if args.quick {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000, 1_000_000]
    };
    let budget = Duration::from_millis(if args.quick { 100 } else { 300 });
    println!("Fig 13(a) — scheduler throughput (AssignTask calls/second)\n");
    let points = run_fig13a(lens, budget, args.jobs);
    print!("{}", fig13a_table(&points).render());
}

fn fig13b_plan_size(_: &Args) {
    let points = run_fig13b(20140614, 64);
    println!("Fig 13(b) — scheduling plan size (bytes) vs workflow task count\n");
    print!("{}", fig13b_table(&points).render());
    let max = points.iter().flat_map(|p| p.bytes).max().unwrap();
    println!("\nlargest plan: {max} bytes (paper: <= 7 KB at 1400+ tasks, mostly < 2 KB)");
}

fn spark_panel(report: &SimReport, kind: SlotKind, max: u32) -> String {
    let timelines = report.timelines.as_ref().expect("timelines tracked");
    let rows: Vec<(&str, &[u32])> = report
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let series = timelines.series(WorkflowId::new(i as u64), kind);
            (o.name.as_str(), series)
        })
        .collect();
    panel(&rows, max, 100)
}

/// Sparkline panels by default, full numeric tables with `--table`; a
/// scheduler name (EDF, FIFO, Fair, WOHA-LPF, WOHA-HLF, WOHA-MPF) prints
/// just that panel.
fn fig14_19_slot_timelines(args: &Args) {
    let table_mode = args.operands.iter().any(|a| a == "--table");
    let filter = args.operands.iter().find(|a| !a.starts_with("--"));

    let run = run_fig11(true, SchedulerKind::ALL.len());
    println!("Figs 14-19 — slot allocation over time (one column ≈ 55s; scale:");
    println!("map rows 0..64 slots, reduce rows 0..32 slots)\n");
    for (key, report) in &run.cells {
        let name = scheduler_of(key);
        if filter.is_some_and(|f| !name.eq_ignore_ascii_case(f)) {
            continue;
        }
        if table_mode {
            println!("=== {name}: map slots per workflow over time ===");
            print!("{}", timeline_table(report, SlotKind::Map).render());
            println!("=== {name}: reduce slots per workflow over time ===");
            print!("{}", timeline_table(report, SlotKind::Reduce).render());
        } else {
            println!("=== {name} ===");
            println!("map slots:");
            print!("{}", spark_panel(report, SlotKind::Map, 64));
            println!("reduce slots:");
            print!("{}", spark_panel(report, SlotKind::Reduce, 32));
        }
        println!();
    }
}

fn ablations(_: &Args) {
    println!("Ablation 1 — resource cap mode (Fig 11 scenario, WOHA-LPF)\n");
    print!("{}", ablation::cap_ablation().render());
    println!("\nAblation 2 — plan safety slack\n");
    print!("{}", ablation::slack_ablation().render());
    println!("\nAblation 3 — TaskTracker heartbeat interval\n");
    print!("{}", ablation::heartbeat_ablation().render());
    println!("\nAblation 4 — mid-flight replanning under 25% estimation error\n");
    print!("{}", ablation::replan_ablation(0.25, 0..6).render());
}

fn speculation_study(_: &Args) {
    let (workflows, cluster) = (fig11_workflows(), demo_cluster());
    let mut t = Table::new(vec![
        "speculation",
        "stragglers",
        "duplicates",
        "dup wins",
        "total tardiness(s)",
        "makespan(s)",
    ]);
    for speculate in [false, true] {
        let config = SimConfig {
            speculation: Some(SpeculationConfig {
                straggler_prob: 0.02,
                straggler_factor: 3.0,
                speculate_after: if speculate { 1.4 } else { 1e9 },
            }),
            seed: 14,
            ..SimConfig::default()
        };
        let mut scheduler = WohaScheduler::new(WohaConfig::new(PriorityPolicy::Lpf, 96));
        let report = run_simulation(&workflows, &mut scheduler, &cluster, &config);
        t.row(vec![
            if speculate { "on" } else { "off" }.to_string(),
            report.stragglers.to_string(),
            report.speculative_launched.to_string(),
            report.speculative_wins.to_string(),
            format!("{:.0}", report.total_tardiness().as_secs_f64()),
            format!("{:.0}", report.end_time.as_secs_f64()),
        ]);
    }
    println!("Speculative execution — Fig 11 under WOHA-LPF with 2% stragglers (3x slower)\n");
    print!("{}", t.render());
}

/// The delay sweep varies how many non-local offers a job may decline on
/// a flat 32-node cluster (3 replicas, 1.3x remote penalty). The recovery
/// sweep splits the same cluster into two racks, injects correlated
/// rack-switch outages, and compares location-agnostic re-queues against
/// survivor-preferring ones, with and without re-shuffle charging.
fn locality_study(args: &Args) {
    use locality::{delay_points, remote_maps, reshuffle_points, run_locality_sweep};
    let (workflows, cluster, config) = (fig11_workflows(), demo_cluster(), SimConfig::default());
    let (delay, reshuffle) = (delay_points(args.quick), reshuffle_points(args.quick));
    eprintln!("locality_study — delay scheduling and rack-aware recovery under WOHA-LPF");
    let run = run_locality_sweep(&workflows, &cluster, &delay, &reshuffle, &config, args.jobs);

    let text = format!(
        "Locality study — Fig 11 scenario ({} workflows) under WOHA-LPF,\n\
         3 replicas, 1.3x remote penalty\n\n\
         delay scheduling (flat cluster, growing patience)\n{}\n\
         rack-outage recovery (two racks, rack MTBF 30m / MTTR 8m):\n\
         locality ratio (remote map executions)\n{}\n\
         data plane: rack outages / survivor requeues / reshuffle events / reshuffle s\n{}\n\
         outcome per cell\n{}",
        workflows.len(),
        locality::delay_table(&run).render(),
        locality::locality_table(&run).render(),
        locality::data_plane_table(&run).render(),
        locality::outcome_table(&run).render(),
    );
    let report = locality::locality_study_report(&run, args.quick);
    publish(args, "locality", &report, &text);

    // The headline claim: keeping a re-executed map's identity (so it can
    // land on a surviving replica) pays less remote penalty than hashing
    // a fresh location-agnostic placement.
    let (fresh, survivors) = (remote_maps(&run, "fresh"), remote_maps(&run, "survivors"));
    verdict(
        survivors < fresh,
        format!(
            "under rack outages, remote map executions go {fresh} -> {survivors} \
             when re-queues prefer survivors over a fresh location-agnostic placement"
        ),
    );
}

/// Sweeps the per-node MTBF over the Yahoo-like deadline workload (the
/// Figs 8–10 scenario on the middle cluster) twice. The reactive sweep
/// compares EDF, FIFO, Fair and WOHA-LPF with failure prediction off; the
/// proactive sweep holds WOHA-LPF fixed and climbs the prediction ladder —
/// reactive, plan padding, padding + risk-aware placement.
fn failure_study(args: &Args) {
    use failures::{miss_ratio_table, run_failure_sweep, tardiness_table, PredictionMode};
    let scenario = YahooScenario::default();
    let workload = yahoo_workload(&scenario);
    let workflows = workload.workflows();
    let (label, cluster) = trace_clusters().remove(1); // 240m-240r
    let config = jittered(scenario.seed);
    let mttr = SimDuration::from_mins(5);
    let eight_hours = SimDuration::from_mins(8 * 60);
    let points = if args.quick {
        vec![
            ("none".to_string(), None),
            ("8h".to_string(), Some(eight_hours)),
        ]
    } else {
        failures::default_mtbf_points()
    };
    eprintln!("failure_study — reactive schedulers vs proactive WOHA-LPF under node crashes");
    let run = run_failure_sweep(workflows, &cluster, &points, mttr, &config, args.jobs);

    let text = format!(
        "Failure study — {} multi-job Yahoo-like workflows on {label}, \
         per-node exponential crashes (MTTR 5m, 2 missed heartbeats to detect)\n\n\
         deadline-miss ratio (reactive schedulers)\n{}\n\
         total tardiness (s, reactive schedulers)\n{}\n\
         disruption: node failures / tasks requeued / map outputs lost / work lost (slot-s)\n{}\n\
         deadline-miss ratio (proactive WOHA-LPF: reactive vs pad vs pad+risk)\n{}\n\
         total tardiness (s, proactive WOHA-LPF)\n{}\n\
         prediction counters: plans padded / risk-averted placements / preemptive speculations\n{}",
        workflows.len(),
        miss_ratio_table(&run, "scheduler").render(),
        tardiness_table(&run, "scheduler").render(),
        failures::disruption_table(&run).render(),
        miss_ratio_table(&run, "mode").render(),
        tardiness_table(&run, "mode").render(),
        failures::prediction_table(&run).render(),
    );
    let report = failures::failure_study_report(&run, args.quick);
    publish(args, "failure", &report, &text);

    // The headline claim: at MTBF <= 8 h, anticipating failures (pad+risk)
    // misses fewer deadlines than merely reacting to them.
    let stressed = || {
        let at_most_8h =
            |(_, mtbf): &&(String, Option<SimDuration>)| mtbf.is_some_and(|d| d <= eight_hours);
        points.iter().filter(at_most_8h).map(|(l, _)| l.as_str())
    };
    let sum = |axis, value: &str| -> f64 {
        stressed()
            .map(|l| run.report(&[("mtbf", l), (axis, value)]).miss_ratio())
            .sum()
    };
    let reacting = sum("mode", PredictionMode::Off.label());
    let anticipating = sum("mode", PredictionMode::PadRisk.label());
    let lpf = sum("scheduler", "WOHA-LPF");
    assert!(
        (reacting - lpf).abs() < 1e-12,
        "mode Off must reproduce the reactive WOHA-LPF cells"
    );
    verdict(
        anticipating < reacting,
        format!(
            "pad+risk takes the summed miss ratio at MTBF <= 8h {reacting:.3} -> {anticipating:.3}"
        ),
    );
}

/// Injects one JobTracker crash into the Fig 11 scenario, swept over
/// checkpoint interval × crash time, and compares the deadline damage and
/// recovery work across EDF, FIFO, Fair and WOHA-LPF — once with the
/// write-ahead log (lossless recovery) and once recovering from the last
/// checkpoint alone.
fn master_failover(args: &Args) {
    let (workflows, cluster, config) = (fig11_workflows(), demo_cluster(), jittered(7));
    let intervals = [1, 5, 15].map(|m| (format!("{m}m"), SimDuration::from_mins(m)));
    let crashes = [10, 30, 60].map(|m| (format!("{m}m"), SimTime::from_mins(m)));
    let mttr = SimDuration::from_mins(2);
    for (wal, label) in [
        (true, "write-ahead log (lossless recovery)"),
        (false, "checkpoint-only recovery (WAL disabled)"),
    ] {
        let sweep = run_failover_sweep(
            &workflows, &cluster, &intervals, &crashes, mttr, wal, &config, args.jobs,
        );
        println!(
            "Master failover — {} Fig 11 workflows on 32x2x1, one scripted \
             JobTracker crash, restart {mttr}, {label}\n",
            workflows.len()
        );
        println!("deadline misses attributable to the outage (vs crash-free run)");
        print!("{}", miss_delta_table(&sweep).render());
        println!("\nextra total tardiness (s) vs crash-free run");
        print!("{}", tardiness_delta_table(&sweep).render());
        println!(
            "\nrecovery work: attempts readopted / requeued / orphaned / WAL records replayed"
        );
        print!("{}", recovery_table(&sweep).render());
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_of(line: &[&str]) -> Result<(bool, usize), String> {
        let line: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        select(&line).map(|(_, args)| (args.quick, args.jobs))
    }

    #[test]
    fn experiment_names_are_unique() {
        for (i, (name, ..)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|(other, ..)| other != name),
                "{name} appears twice"
            );
        }
    }

    #[test]
    fn common_flags_are_parsed_once_for_every_experiment() {
        assert_eq!(
            jobs_of(&["fig08_miss_ratio", "--quick", "--jobs", "4"]),
            Ok((true, 4))
        );
        assert_eq!(jobs_of(&["fig08_miss_ratio", "--jobs=7"]), Ok((false, 7)));
        // 0 and absent both mean "whatever this machine has" for a sweep,
        // and wall-clock experiments default to one worker.
        let available = available_jobs();
        assert_eq!(
            jobs_of(&["fig08_miss_ratio", "--jobs", "0"]),
            Ok((false, available))
        );
        assert_eq!(jobs_of(&["fig08_miss_ratio"]), Ok((false, available)));
        assert_eq!(jobs_of(&["fig13a_throughput"]), Ok((false, 1)));
        assert!(jobs_of(&["fig08_miss_ratio", "--jobs"]).is_err());
        assert!(jobs_of(&["fig08_miss_ratio", "--jobs", "x"]).is_err());
    }

    #[test]
    fn everything_else_is_the_experiments_own() {
        let line = ["fig14_19_slot_timelines", "--table", "--quick", "WOHA-LPF"];
        let (_, args) = select(&line.map(String::from)).unwrap();
        assert_eq!(args.name, "fig14_19_slot_timelines");
        assert_eq!(args.operands, ["--table", "WOHA-LPF"]);
        assert!(args.quick);
    }
}
