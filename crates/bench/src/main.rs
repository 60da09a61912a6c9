//! `woha-bench <experiment> [--quick] [--jobs N]` — every experiment of the
//! reproduction behind one harness: the paper's Figs 2–19, the ablations,
//! and the extension studies. `woha-bench list` names them.
//!
//! `--quick` selects the CI smoke size where an experiment has one (the
//! output schema is identical). `--jobs N` bounds the worker pool of the
//! experiments that fan out over [`woha_bench::sweep`] (`0` = available
//! parallelism); simulation sweeps print the same bytes for any `N`.
//!
//! Experiments that keep a machine-readable baseline write
//! `BENCH_<key>.json` and `results/<experiment>.txt` into the working
//! directory, then print the same table.

use serde::Serialize;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use woha_bench::chart::panel;
use woha_bench::experiments::deadline::{run_trace_sweep, TraceSweep};
use woha_bench::experiments::demo::{run_fig11, run_fig12, timeline_table};
use woha_bench::experiments::master_failover::run_failover_sweep;
use woha_bench::experiments::plans::{
    fig13b_table, run_fig13b, run_fig2, run_fig2_baselines, run_fig3,
};
use woha_bench::experiments::throughput::{
    fig13a_table, run_fig13a, run_throughput_index, throughput_index_table,
};
use woha_bench::experiments::tracestats::{run_trace_stats, TRACE_JOBS};
use woha_bench::experiments::{ablation, failures, ingest, locality, obs, service};
use woha_bench::scenarios::{
    demo_cluster, fig11_workflows, trace_clusters, yahoo_workload, YahooScenario,
};
use woha_bench::sweep::{available_jobs, CellKey, SimSweep};
use woha_bench::table::Table;
use woha_bench::{run_one, SchedulerKind};
use woha_core::{PriorityPolicy, WohaConfig, WohaScheduler};
use woha_model::{SimDuration, SimTime, SlotKind, WorkflowId, WorkflowSpec};
use woha_sim::{run_simulation, FaultConfig, SimConfig, SimReport, SpeculationConfig};

/// What one invocation asked for.
#[derive(Debug)]
struct Args {
    /// The experiment's name, as in [`EXPERIMENTS`].
    name: &'static str,
    quick: bool,
    /// Worker threads, resolved against the experiment's default.
    jobs: usize,
    /// Whatever follows that is neither `--quick` nor `--jobs`.
    operands: Vec<String>,
}

/// `(name, about, default_jobs, run)`: `about` is what `list` prints, and
/// `default_jobs` the worker threads when `--jobs` is absent — [`SWEEP`]
/// for simulation sweeps, whose output is jobs-invariant, [`SERIAL`] for
/// wall-clock measurements, which concurrent cells on shared cores would
/// distort (and for experiments that never fan out).
type Experiment = (&'static str, &'static str, fn() -> usize, Run);
type Run = fn(&Args);

const SERIAL: fn() -> usize = || 1;
const SWEEP: fn() -> usize = available_jobs;
/// `sweep_bench` floors its pool at 2 so the identity check always
/// crosses threads.
const PAIR: fn() -> usize = || available_jobs().max(2);

// One row per experiment, kept as a table.
#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 23] = [
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
    ("master_overhead", "§V: wall time per AssignTask, per scheduler", SERIAL, master_overhead),
    ("speculation_study", "stragglers with and without speculation", SERIAL, speculation_study),
    ("locality_study", "delay scheduling and rack-aware recovery", SWEEP, locality_study),
    ("failure_study", "node MTBF sweep, reactive vs proactive WOHA", SWEEP, failure_study),
    ("master_failover", "one JobTracker crash, with and without WAL", SWEEP, master_failover),
    ("throughput_index", "index backends, AssignTask calls/s", SERIAL, throughput_index),
    ("obs_overhead", "tracing + metrics overhead per index backend", SERIAL, obs_overhead),
    ("ingest_throughput", "VecSource vs GeneratorSource ingestion", SERIAL, ingest_throughput),
    ("live_service", "service throughput and plan latency by tenants", SERIAL, live_service),
    ("sweep_bench", "parallel sweep == serial sweep, and wall times", PAIR, sweep_bench),
];

fn list() -> String {
    let mut out = String::new();
    for (name, about, ..) in &EXPERIMENTS {
        writeln!(out, "  {name:<24} {about}").expect("writing to a String");
    }
    out
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
                None => {
                    parsed.operands.push(arg.clone());
                    continue;
                }
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
fn trace_sweep_figure(args: &Args, title: &str, table: fn(&TraceSweep) -> Table) {
    let sweep = run_trace_sweep(&YahooScenario::default(), 0.1, args.jobs);
    let count = sweep.workflow_count;
    println!("{title} ({count} multi-job Yahoo-like workflows)\n");
    print!("{}", table(&sweep).render());
}

fn fig08_miss_ratio(args: &Args) {
    trace_sweep_figure(args, "Fig 8 — deadline miss ratio", TraceSweep::fig8_table);
}

fn fig09_max_tardiness(args: &Args) {
    trace_sweep_figure(
        args,
        "Fig 9 — max tardiness in seconds",
        TraceSweep::fig9_table,
    );
}

fn fig10_total_tardiness(args: &Args) {
    let title = "Fig 10 — total tardiness in seconds";
    trace_sweep_figure(args, title, TraceSweep::fig10_table);
}

fn fig11_workspan(args: &Args) {
    let result = run_fig11(false, args.jobs);
    let d = &result.relative_deadlines;
    println!("Fig 11 — synthetic workflow workspans (32 slaves: 64 map + 32 reduce slots)");
    println!(
        "relative deadlines: W-1 {}, W-2 {}, W-3 {} ('*' = deadline missed)\n",
        d[0], d[1], d[2]
    );
    print!("{}", result.table().render());
}

fn fig12_utilization(args: &Args) {
    println!("Fig 12 — cluster utilization with 3 recurrences (32-slave demo cluster)\n");
    print!("{}", run_fig12(args.jobs).table().render());
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

    let result = run_fig11(true, SchedulerKind::ALL.len());
    println!("Figs 14-19 — slot allocation over time (one column ≈ 55s; scale:");
    println!("map rows 0..64 slots, reduce rows 0..32 slots)\n");
    for (kind, report) in &result.reports {
        let name = kind.to_string();
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

fn master_overhead(_: &Args) {
    let (workflows, cluster) = (fig11_workflows(), demo_cluster());
    let mut t = Table::new(vec![
        "scheduler",
        "assign calls",
        "mean ns/call",
        "total scheduler ms",
    ]);
    for kind in SchedulerKind::ALL {
        let report = run_one(kind, &workflows, &cluster, &SimConfig::default());
        t.row(vec![
            kind.to_string(),
            report.assign_calls.to_string(),
            format!("{:.0}", report.mean_assign_nanos()),
            format!("{:.1}", report.scheduler_nanos as f64 / 1e6),
        ]);
    }
    println!("Master scheduling overhead — Fig 11 scenario (~80 min simulated)\n");
    print!("{}", t.render());
    println!("\nWOHA's extra bookkeeping must stay within the same order of");
    println!("magnitude as the baselines for the paper's scalability story.");
    println!("Times are sampled: one decision in 61 is timed and counted 61 times.");
    println!("An offer made while no workflow has an eligible task of its kind is");
    println!("answered by the driver (an idle run): a call that cost nothing.");
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
    use locality::{delay_points, reshuffle_points, run_delay_sweep, run_recovery_sweep};
    let (workflows, cluster, config) = (fig11_workflows(), demo_cluster(), SimConfig::default());
    let (quick, jobs) = (args.quick, args.jobs);
    eprintln!("locality_study — delay scheduling and rack-aware recovery under WOHA-LPF");
    let delay = run_delay_sweep(&workflows, &cluster, &delay_points(quick), &config, jobs);
    let recovery = run_recovery_sweep(
        &workflows,
        &cluster,
        &reshuffle_points(quick),
        &config,
        jobs,
    );

    let text = format!(
        "Locality study — Fig 11 scenario ({} workflows) under WOHA-LPF,\n\
         3 replicas, 1.3x remote penalty\n\n\
         delay scheduling (flat cluster, growing patience)\n{}\n\
         rack-outage recovery (two racks, rack MTBF 30m / MTTR 8m):\n\
         locality ratio (remote map executions)\n{}\n\
         data plane: rack outages / survivor requeues / reshuffle events / reshuffle s\n{}\n\
         outcome per cell\n{}",
        delay.workflow_count,
        delay.table().render(),
        recovery.locality_table().render(),
        recovery.data_plane_table().render(),
        recovery.outcome_table().render(),
    );
    let report = locality::locality_study_report(&delay, &recovery, quick);
    publish(args, "locality", &report, &text);

    // The headline claim: keeping a re-executed map's identity (so it can
    // land on a surviving replica) pays less remote penalty than hashing
    // a fresh location-agnostic placement.
    let (fresh, survivors) = (
        recovery.remote_maps("fresh"),
        recovery.remote_maps("survivors"),
    );
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
    use failures::{miss_ratio, run_failure_sweep, run_proactive_sweep, PredictionMode};
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
    let reactive = run_failure_sweep(workflows, &cluster, &points, mttr, &config, args.jobs);
    let proactive = run_proactive_sweep(workflows, &cluster, &points, mttr, &config, args.jobs);

    let text = format!(
        "Failure study — {} multi-job Yahoo-like workflows on {label}, \
         per-node exponential crashes (MTTR 5m, 2 missed heartbeats to detect)\n\n\
         deadline-miss ratio (reactive schedulers)\n{}\n\
         total tardiness (s, reactive schedulers)\n{}\n\
         disruption: node failures / tasks requeued / map outputs lost / work lost (slot-s)\n{}\n\
         deadline-miss ratio (proactive WOHA-LPF: reactive vs pad vs pad+risk)\n{}\n\
         total tardiness (s, proactive WOHA-LPF)\n{}\n\
         prediction counters: plans padded / risk-averted placements / preemptive speculations\n{}",
        reactive.workflow_count,
        reactive.miss_ratio_table().render(),
        reactive.tardiness_table().render(),
        reactive.disruption_table().render(),
        proactive.miss_ratio_table().render(),
        proactive.tardiness_table().render(),
        proactive.prediction_table().render(),
    );
    let report = failures::failure_study_report(&reactive, &proactive, args.quick);
    publish(args, "failure", &report, &text);

    // The headline claim: at MTBF <= 8 h, anticipating failures (pad+risk)
    // misses fewer deadlines than merely reacting to them.
    let stressed = || {
        let at_most_8h =
            |(_, mtbf): &&(String, Option<SimDuration>)| mtbf.is_some_and(|d| d <= eight_hours);
        points.iter().filter(at_most_8h).map(|(l, _)| l.as_str())
    };
    let sum = |mode| -> f64 {
        stressed()
            .map(|l| miss_ratio(proactive.report(l, mode)))
            .sum()
    };
    let (reacting, anticipating) = (sum(PredictionMode::Off), sum(PredictionMode::PadRisk));
    let lpf: f64 = stressed()
        .map(|l| miss_ratio(reactive.report(l, SchedulerKind::WohaLpf)))
        .sum();
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
            sweep.workflow_count
        );
        println!("deadline misses attributable to the outage (vs crash-free run)");
        print!("{}", sweep.miss_delta_table().render());
        println!("\nextra total tardiness (s) vs crash-free run");
        print!("{}", sweep.tardiness_delta_table().render());
        println!(
            "\nrecovery work: attempts readopted / requeued / orphaned / WAL records replayed"
        );
        print!("{}", sweep.recovery_table().render());
        println!();
    }
}

/// Queue lengths 10³–10⁵ (`--quick`: 10²–10³ with short budgets),
/// extending the paper's Fig 13(a) comparison to the pairing heap.
fn throughput_index(args: &Args) {
    let lens: &[usize] = if args.quick {
        &[100, 1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let budget = Duration::from_millis(if args.quick { 20 } else { 300 });
    eprintln!("throughput_index — PriorityIndex backend throughput (AssignTask calls/second)");
    let report = run_throughput_index(lens, budget, args.jobs);
    publish(
        args,
        "throughput",
        &report,
        &throughput_index_table(&report).render(),
    );
}

/// End-to-end Yahoo-trace simulations with observability off and on
/// (`--quick`: the Fig 11 workload, one repetition).
fn obs_overhead(args: &Args) {
    eprintln!("obs_overhead — observability off/on wall-time per index backend");
    let report = obs::run_obs_overhead(args.quick, if args.quick { 1 } else { 3 });
    publish(
        args,
        "obs",
        &report,
        &obs::obs_overhead_table(&report).render(),
    );
    let overheads = report.points.iter().map(|p| p.overhead_pct);
    let worst = overheads.fold(f64::NEG_INFINITY, f64::max);
    let bound = obs::OVERHEAD_BOUND_PCT;
    verdict(
        worst <= bound,
        format!("worst enabled-path overhead {worst:+.1}% against a bound of {bound}%"),
    );
}

/// Wall time and peak residency of a pre-materialized `VecSource` versus
/// the lazy `GeneratorSource` (`--quick`: one decade, one repetition).
fn ingest_throughput(args: &Args) {
    eprintln!("ingest_throughput — VecSource vs GeneratorSource drain cost");
    let report = ingest::run_ingest_throughput(args.quick, if args.quick { 1 } else { 3 });
    publish(
        args,
        "ingest",
        &report,
        &ingest::ingest_table(&report).render(),
    );
    let generator = report.points.iter().filter(|p| p.source == "generator");
    let worst = generator
        .map(|p| p.peak_resident_workflows)
        .max()
        .unwrap_or(0);
    verdict(
        worst <= 1,
        format!("generator residency peaks at {worst} spec(s); O(1) means 1"),
    );
}

/// The long-running scheduler service on a sped-up wall clock (DESIGN.md
/// §13; `--quick`: two tenant counts, 30 workflows).
fn live_service(args: &Args) {
    eprintln!("live_service — service throughput and plan latency vs tenant count");
    let report = service::run_live_service(args.quick);
    publish(
        args,
        "serve",
        &report,
        &service::service_table(&report).render(),
    );
    let clean =
        |p: &service::ServiceRecord| p.shed == 0 && p.rejected == 0 && p.arrivals == p.submitted;
    verdict(
        report.points.iter().all(clean),
        "every submitted workflow admitted and planned (none shed or rejected)".to_string(),
    );
}

/// One cell's serial-vs-parallel wall time in `BENCH_sweep.json`.
#[derive(Serialize)]
struct CellRecord {
    cell: String,
    serial_ms: f64,
    parallel_ms: f64,
}

/// The `BENCH_sweep.json` schema.
#[derive(Serialize)]
struct SweepBenchReport {
    experiment: String,
    quick: bool,
    /// Available hardware parallelism where the record was produced. A
    /// speedup near 1.0 with `cores = 1` is expected, not a regression.
    cores: u64,
    cell_count: u64,
    serial_jobs: u64,
    serial_wall_ms: f64,
    parallel_jobs: u64,
    parallel_wall_ms: f64,
    /// `serial_wall_ms / parallel_wall_ms`.
    speedup: f64,
    /// Whether the two legs' canonical aggregated JSON matched byte for
    /// byte (the run aborts before writing this report if they do not).
    identical: bool,
    cells: Vec<CellRecord>,
}

/// The failure-study shape in miniature: 2 MTBF points × 4 schedulers on
/// the 32-slave demo cluster = 8 cells.
fn sweep_quick_grid(workflows: &[WorkflowSpec]) -> SimSweep<'_> {
    let cluster = demo_cluster();
    let faulty = cluster.clone().with_faults(FaultConfig::with_mtbf(
        SimDuration::from_mins(12),
        SimDuration::from_mins(3),
    ));
    let mut sweep = SimSweep::new();
    for (label, cluster) in [("none", cluster), ("12m", faulty)] {
        let key = CellKey::new().with("mtbf", label);
        sweep.push_kinds(
            &key,
            &failures::SCHEDULERS,
            workflows,
            &cluster,
            &jittered(7),
        );
    }
    sweep
}

/// The Figs 8–10 grid: 3 cluster sizes × 6 schedulers = 18 cells.
fn sweep_full_grid(workflows: &[WorkflowSpec], seed: u64) -> SimSweep<'_> {
    let mut sweep = SimSweep::new();
    for (label, cluster) in trace_clusters() {
        let key = CellKey::new().with("cluster", &label);
        sweep.push_kinds(
            &key,
            &SchedulerKind::ALL,
            workflows,
            &cluster,
            &jittered(seed),
        );
    }
    sweep
}

/// Runs one multi-cell scenario grid twice — serially and fanned over
/// `--jobs` workers — asserts the aggregated canonical JSON is
/// **byte-identical**, and records both wall times. `--quick` is 8 cells
/// of the Fig 11 scenario under node faults; the full grid is the
/// Figs 8–10 Yahoo sweep (18 cells).
fn sweep_bench(args: &Args) {
    let cores = available_jobs();
    let scenario = YahooScenario::default();
    let fig11 = fig11_workflows();
    let workload;
    let sweep = if args.quick {
        sweep_quick_grid(&fig11)
    } else {
        workload = yahoo_workload(&scenario);
        sweep_full_grid(workload.workflows(), scenario.seed)
    };

    let (cells, workers) = (sweep.len(), args.jobs);
    eprintln!("sweep_bench — {cells} cells, serial vs {workers} workers on {cores} core(s)");
    let serial = sweep.run(1);
    let parallel = sweep.run(workers);
    assert_eq!(
        serial.canonical_json(),
        parallel.canonical_json(),
        "parallel sweep output must be byte-identical to the serial run"
    );

    let ms = |wall: Duration| wall.as_secs_f64() * 1e3;
    let speedup = ms(serial.wall) / ms(parallel.wall).max(1e-9);
    let timings = serial.timings.iter().zip(&parallel.timings);
    let report = SweepBenchReport {
        experiment: "sweep_bench".to_string(),
        quick: args.quick,
        cores: cores as u64,
        cell_count: serial.cells.len() as u64,
        serial_jobs: serial.jobs as u64,
        serial_wall_ms: ms(serial.wall),
        parallel_jobs: parallel.jobs as u64,
        parallel_wall_ms: ms(parallel.wall),
        speedup,
        identical: true,
        cells: timings
            .map(|(s, p)| CellRecord {
                cell: s.label.clone(),
                serial_ms: ms(s.wall),
                parallel_ms: ms(p.wall),
            })
            .collect(),
    };

    let mut text = format!(
        "Sweep orchestrator — {} cells, {} core(s): serial {:.0} ms, \
         {} workers {:.0} ms, speedup {:.2}x, outputs byte-identical\n\n\
         cell                                serial(ms)  parallel(ms)\n",
        report.cell_count,
        report.cores,
        report.serial_wall_ms,
        report.parallel_jobs,
        report.parallel_wall_ms,
        report.speedup
    );
    for c in &report.cells {
        let (cell, serial, parallel) = (&c.cell, c.serial_ms, c.parallel_ms);
        text += &format!("{cell:<36}{serial:>10.0}{parallel:>14.0}\n");
    }
    publish(args, "sweep", &report, &text);
    // Byte-identity is asserted above; only the speedup can disappoint,
    // and only where there are cores to win it on.
    verdict(
        cores < 2 || speedup > 1.5,
        format!("{speedup:.2}x speedup with {workers} workers on {cores} core(s)"),
    );
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
        assert_eq!(jobs_of(&["sweep_bench"]), Ok((false, available.max(2))));
        assert_eq!(jobs_of(&["sweep_bench", "--jobs=1"]), Ok((false, 1)));
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
