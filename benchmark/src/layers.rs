//! The traced run of one workload: a plain run, a spans run (every
//! decorator on, same seed), a second plain run, on `yahoo_steady` an
//! observed run, on `serve_stream` the paced phase, then the direct-drive
//! loops. Prints every per-layer metric — zero where a layer is not on
//! the workload's path — and writes `<out>/<workload>.trace.json`.

use std::time::Duration;

use serde::Value;
use woha_core::QueueStrategy;

use crate::direct;
use crate::spans::obj;
use crate::stats::quantile_sorted;
use crate::workloads::{
    check, failed_operations, failures, prepare, run, run_paced, Mode, PacedOutput, Prepared,
    RunOutput, RunSpans, Workload,
};
use crate::{canonical_json, digest, metric, Args, Metric, Outcome};

/// Index depths of the direct-drive loops: a shallow queue like
/// `yahoo_steady`'s and a deep one like `deep_queue`'s.
const DEPTHS: [usize; 2] = [64, 2048];
const BACKENDS: [QueueStrategy; 3] = [
    QueueStrategy::Dsl,
    QueueStrategy::Bst,
    QueueStrategy::Pairing,
];

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn micros(samples: &[Duration], q: f64) -> f64 {
    let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(f64::total_cmp);
    quantile_sorted(&us, q)
}

pub fn per_layer(workload: Workload, args: &Args) -> Outcome {
    let p = prepare(workload, args.seed, args.smoke);
    let mut wrong = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut account = |out: &RunOutput, what: &str, wrong: &mut Vec<String>| {
        attempted += p.specs.len() as u64;
        failed += failed_operations(&p, out);
        wrong.extend(check(&p, out).into_iter().map(|w| format!("{what}: {w}")));
    };

    // Plain runs bracket the spans run, so drift over the process's life
    // does not read as tracing overhead.
    let plain = run(&p, Mode::Plain);
    account(&plain, "plain", &mut wrong);
    let traced = run(&p, Mode::Spans);
    account(&traced, "spans", &mut wrong);
    let plain_again = run(&p, Mode::Plain);
    account(&plain_again, "plain", &mut wrong);
    let plain_wall = (plain.wall_s + plain_again.wall_s) / 2.0;

    let canonical = canonical_json(&plain.report);
    if canonical_json(&traced.report) != canonical {
        wrong.push("spans run's report differs from the plain run's".to_string());
    }
    if canonical_json(&plain_again.report) != canonical {
        wrong.push("second plain run's report differs from the first".to_string());
    }

    let observed = (workload == Workload::YahooSteady).then(|| {
        let out = run(&p, Mode::Observed);
        account(&out, "observed", &mut wrong);
        if canonical_json(&out.report) != canonical {
            wrong.push("observed run's report differs from the plain run's".to_string());
        }
        out
    });

    let paced = (workload == Workload::ServeStream).then(|| run_paced(&p, args.seed));
    if let Some(paced) = &paced {
        attempted += paced.submitted;
        let planned = paced.latencies.len() as u64;
        failed += paced.slo_miss + failures(planned, &paced.report);
        if planned != paced.submitted || paced.service.shed != 0 || paced.rejected != 0 {
            wrong.push(format!(
                "paced: planned {planned} of {}, shed {}, rejected {}",
                paced.submitted, paced.service.shed, paced.rejected
            ));
        }
        if !paced.report.completed {
            wrong.push("paced: report.completed is false".to_string());
        }
    }

    let spans = traced.spans.as_ref().expect("spans run records spans");
    let mut metrics = Vec::new();
    scheduler_metrics(&mut metrics, &traced, spans);
    index_metrics(&mut metrics, args);
    plan_metrics(&mut metrics, &p);
    driver_and_report_metrics(&mut metrics, &plain, &traced, spans);
    dataplane_metrics(&mut metrics, &traced, args);
    source_metrics(&mut metrics, &p, spans, args);
    service_metrics(&mut metrics, &traced, spans, paced.as_ref());
    observed_metrics(&mut metrics, observed.as_ref(), plain_wall);
    metrics.push(metric(
        "bench.spans_overhead_ratio",
        ratio(traced.wall_s, plain_wall),
        "ratio",
    ));
    metrics.push(metric("bench.build_s", args.build_s, "s"));

    if let Err(e) = write_trace(&p, args, &traced, spans) {
        wrong.push(format!("cannot write the trace file: {e}"));
    }
    Outcome {
        metrics,
        attempted,
        failed,
        wrong,
        digest: digest(&canonical),
    }
}

/// `core.woha.*`, from the decorator on `WorkflowScheduler`.
fn scheduler_metrics(m: &mut Vec<Metric>, traced: &RunOutput, spans: &RunSpans) {
    let s = &spans.scheduler;
    let c = &spans.counts;
    let assign_busy = s.busy_s("assign_task") + s.busy_s("assign_batch");
    let submit_busy = s.busy_s("on_workflow_submitted");
    // Every other span of the decorator is a notification hook.
    let hooks = s.total_s() - assign_busy - submit_busy;
    let report = &traced.report;
    m.extend([
        metric("core.woha.assign_calls", c.calls as f64, "count"),
        metric("core.woha.assign_picks", c.picks as f64, "count"),
        metric(
            "core.woha.assign_useful_ratio",
            ratio(c.useful_calls as f64, c.calls as f64),
            "ratio",
        ),
        metric("core.woha.assign_busy_s", assign_busy, "s"),
        metric(
            "core.woha.assign_empty_busy_s",
            c.empty_ns as f64 / 1e9,
            "s",
        ),
        metric("core.woha.assign_us_p50", c.hist.quantile(0.5) / 1e3, "us"),
        metric("core.woha.assign_us_p99", c.hist.quantile(0.99) / 1e3, "us"),
        metric("core.woha.submit_busy_s", submit_busy, "s"),
        metric("core.woha.hooks_busy_s", hooks, "s"),
        metric(
            "core.woha.busy_share",
            ratio(s.total_s(), traced.wall_s),
            "ratio",
        ),
        metric(
            "core.woha.us_per_task",
            ratio(s.total_s() * 1e6, report.tasks_executed as f64),
            "us",
        ),
        // The driver's own stopwatch around the same calls, from outside
        // the decorator: the two should agree to within the stamps' cost.
        metric(
            "core.woha.sched_nanos_agreement",
            ratio(assign_busy, report.scheduler_nanos as f64 / 1e9),
            "ratio",
        ),
    ]);
}

/// `core.index.<backend>.<depth>.*`, direct-drive.
fn index_metrics(m: &mut Vec<Metric>, args: &Args) {
    for backend in BACKENDS {
        for depth in DEPTHS {
            let costs = direct::index_costs(backend, depth, args.seed, args.smoke);
            let prefix = format!("core.index.{}.d{depth}", backend.label());
            m.extend([
                metric(format!("{prefix}.head_cycle_ns"), costs.head_cycle_ns, "ns"),
                metric(
                    format!("{prefix}.miss_walk_ns_per_entry"),
                    costs.miss_walk_ns_per_entry,
                    "ns",
                ),
                metric(
                    format!("{prefix}.insert_remove_ns"),
                    costs.insert_remove_ns,
                    "ns",
                ),
            ]);
        }
    }
}

/// `core.plangen.*`, direct-drive over the workload's own specs.
fn plan_metrics(m: &mut Vec<Metric>, p: &Prepared) {
    let costs = direct::plan_costs(&p.specs, p.cluster.total_all_slots());
    println!("  core.plangen samples {}", costs.samples);
    m.extend([
        metric("core.plangen.plan_us_p50", costs.us_p50, "us"),
        metric("core.plangen.plan_us_p99", costs.us_p99, "us"),
        metric("core.plangen.plans_per_s", costs.plans_per_s, "1/s"),
        metric("core.plangen.plan_bytes_mean", costs.bytes_mean, "B"),
    ]);
}

/// `sim.driver.*` (the root span's self time), the simulated statistics,
/// and the exact work counts of `sim.fault` / `sim.snapshot`.
fn driver_and_report_metrics(
    m: &mut Vec<Metric>,
    plain: &RunOutput,
    traced: &RunOutput,
    spans: &RunSpans,
) {
    let self_s = traced.wall_s - spans.children_s();
    let report = &plain.report;
    let recovery = report.recovery.as_ref();
    m.extend([
        metric("sim.driver.events", report.events_processed as f64, "count"),
        metric("sim.driver.self_s", self_s, "s"),
        metric(
            "sim.driver.self_ns_per_event",
            ratio(self_s * 1e9, report.events_processed as f64),
            "ns",
        ),
        metric(
            "sim.driver.self_share",
            ratio(self_s, traced.wall_s),
            "ratio",
        ),
        metric(
            "sim.report.deadline_miss_ratio",
            report.miss_ratio(),
            "ratio",
        ),
        metric(
            "sim.report.total_tardiness_s",
            report.total_tardiness().as_secs_f64(),
            "s",
        ),
        metric(
            "sim.fault.node_failures",
            report.node_failures as f64,
            "count",
        ),
        metric(
            "sim.fault.tasks_requeued",
            report.tasks_requeued as f64,
            "count",
        ),
        metric(
            "sim.fault.map_outputs_lost",
            report.map_outputs_lost as f64,
            "count",
        ),
        metric(
            "sim.snapshot.master_crashes",
            recovery.map_or(0, |r| r.master_crashes) as f64,
            "count",
        ),
        metric(
            "sim.snapshot.checkpoints_taken",
            recovery.map_or(0, |r| r.checkpoints_taken) as f64,
            "count",
        ),
        metric(
            "sim.snapshot.wal_records_replayed",
            recovery.map_or(0, |r| r.wal_records_replayed) as f64,
            "count",
        ),
    ]);
}

/// `sim.dataplane.*`: the report's counts plus the direct-drive loops.
fn dataplane_metrics(m: &mut Vec<Metric>, traced: &RunOutput, args: &Args) {
    let report = &traced.report;
    let plane = report.data_plane.as_ref();
    let costs = direct::dataplane_costs(args.seed, args.smoke);
    let maps = report.local_map_tasks + report.remote_map_tasks;
    m.extend([
        metric(
            "sim.dataplane.local_map_tasks",
            report.local_map_tasks as f64,
            "count",
        ),
        metric(
            "sim.dataplane.remote_map_tasks",
            report.remote_map_tasks as f64,
            "count",
        ),
        metric(
            "sim.dataplane.locality_ratio",
            ratio(report.local_map_tasks as f64, maps as f64),
            "ratio",
        ),
        metric(
            "sim.dataplane.delay_skips",
            report.delay_skips as f64,
            "count",
        ),
        metric(
            "sim.dataplane.survivor_requeues",
            plane.map_or(0, |d| d.survivor_requeues) as f64,
            "count",
        ),
        metric(
            "sim.dataplane.reshuffle_events",
            plane.map_or(0, |d| d.reshuffle_events) as f64,
            "count",
        ),
        metric("sim.dataplane.pick_map_ns", costs.pick_map_ns, "ns"),
        metric(
            "sim.dataplane.invalidate_node_us",
            costs.invalidate_node_us,
            "us",
        ),
    ]);
}

/// `trace.source.*`: the decorator's counts plus the direct-drive drains.
fn source_metrics(m: &mut Vec<Metric>, p: &Prepared, spans: &RunSpans, args: &Args) {
    let costs = direct::source_costs(&p.specs, args.seed);
    m.extend([
        metric("trace.source.pulls", spans.source.pulls as f64, "count"),
        metric("trace.source.busy_s", spans.source.spans.total_s(), "s"),
        metric(
            "trace.source.generator_wf_per_s",
            costs.generator_wf_per_s,
            "1/s",
        ),
        metric("trace.source.jsonl_wf_per_s", costs.jsonl_wf_per_s, "1/s"),
    ]);
}

/// `core.tenant.*`, `sim.backpressure.*` and `serve.service.*`: the
/// service layers, which only `serve_stream` has.
fn service_metrics(
    m: &mut Vec<Metric>,
    traced: &RunOutput,
    spans: &RunSpans,
    paced: Option<&PacedOutput>,
) {
    let gate = spans.gate.as_ref();
    let service = traced.service.clone().unwrap_or_default();
    m.extend([
        metric(
            "core.tenant.admit_calls",
            gate.map_or(0, |(g, _)| g.stat("admit").count) as f64,
            "count",
        ),
        metric(
            "core.tenant.busy_s",
            gate.map_or(0.0, |(g, _)| g.total_s()),
            "s",
        ),
        metric(
            "core.tenant.rejected",
            gate.map_or(0, |&(_, r)| r) as f64,
            "count",
        ),
        metric(
            "sim.backpressure.depth_peak",
            service.depth_peak as f64,
            "count",
        ),
        metric(
            "sim.backpressure.lag_peak_ms",
            service.lag_peak_ms as f64,
            "ms",
        ),
        metric("sim.backpressure.shed", service.shed as f64, "count"),
    ]);
    let (latencies, lateness): (&[Duration], &[Duration]) =
        paced.map_or((&[], &[]), |p| (&p.latencies, &p.lateness));
    m.extend([
        metric(
            "serve.service.submit_to_plan_p50_us",
            micros(latencies, 0.5),
            "us",
        ),
        metric(
            "serve.service.submit_to_plan_p99_us",
            micros(latencies, 0.99),
            "us",
        ),
        metric("serve.service.samples", latencies.len() as f64, "count"),
        metric(
            "serve.service.gen_late_p99_us",
            micros(lateness, 0.99),
            "us",
        ),
        metric(
            "serve.service.slo_miss",
            paced.map_or(0, |p| p.slo_miss) as f64,
            "count",
        ),
        metric(
            "serve.service.paced_wall_s",
            paced.map_or(0.0, |p| p.wall_s),
            "s",
        ),
    ]);
}

/// `sim.obs.*`: the program's own tracing, on against off.
fn observed_metrics(m: &mut Vec<Metric>, observed: Option<&RunOutput>, plain_wall: f64) {
    let (records, decisions) = observed.and_then(|o| o.observed).unwrap_or((0, 0));
    m.extend([
        metric(
            "sim.obs.overhead_ratio",
            observed.map_or(0.0, |o| ratio(o.wall_s, plain_wall)),
            "ratio",
        ),
        metric("sim.obs.trace_records", records as f64, "count"),
        metric("sim.obs.decisions_observed", decisions as f64, "count"),
    ]);
}

/// Writes the spans run's trace: the root span and, per decorated seam,
/// the per-name aggregates and kept raw spans that are its children.
fn write_trace(
    p: &Prepared,
    args: &Args,
    traced: &RunOutput,
    spans: &RunSpans,
) -> std::io::Result<()> {
    let run_id = format!("{}-{}", p.workload.name(), args.seed);
    let root = "sim.driver";
    let mut layers = vec![
        spans.scheduler.to_value("core.woha", root, &run_id),
        spans.source.spans.to_value("trace.source", root, &run_id),
    ];
    if let Some((gate, _)) = &spans.gate {
        layers.push(gate.to_value("core.tenant", root, &run_id));
    }
    let children = spans.children_s();
    let trace = obj(vec![
        ("workload", Value::Str(p.workload.name().to_string())),
        ("seed", Value::U64(args.seed)),
        ("run_id", Value::Str(run_id.clone())),
        (
            "root",
            obj(vec![
                ("name", Value::Str(root.to_string())),
                ("parent", Value::Null),
                ("start_ns", Value::U64(0)),
                ("end_ns", Value::U64((traced.wall_s * 1e9) as u64)),
                (
                    "self_ns",
                    Value::U64(((traced.wall_s - children) * 1e9) as u64),
                ),
            ]),
        ),
        ("layers", Value::Array(layers)),
    ]);
    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!("{}.trace.json", p.workload.name()));
    std::fs::write(
        path,
        serde_json::to_string(&trace).expect("trace serializes"),
    )
}
