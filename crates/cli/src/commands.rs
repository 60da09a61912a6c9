//! Command implementations for `woha-cli`. Each returns its full output
//! as a `String`, so the commands are directly unit-testable.

use crate::args::{
    usage, Command, RunOptions, ServeOptions, SimulateOptions, TraceFormat, WorkflowArg,
};
use std::error::Error;
use std::fmt::Write as _;
use woha_bench::sweep::{available_jobs, run_sweep, CellKey};
use woha_core::{generate_plan, JobPriorities, MultiTenantGate, PadConfig, PriorityPolicy};
use woha_model::{SlotKind, WorkflowConfig, WorkflowSpec};
use woha_serve::{run_service, ClockMode};
use woha_sim::{
    try_run_simulation_streamed_observed, AdmissionGate, ClusterConfig, JsonlTraceSink, MemorySink,
    MetricsRegistry, Observations, SimConfig, SimReport, TraceSink,
};
use woha_trace::{FollowSource, JsonlSource, VecSource, WorkloadSource};

/// Runs a parsed command, returning its stdout content.
///
/// # Errors
///
/// Returns any I/O, parse, or validation error, formatted for the user.
pub fn run(command: Command) -> Result<String, Box<dyn Error>> {
    match command {
        Command::Help => Ok(usage()),
        Command::Validate { workflows } => validate(&workflows),
        Command::Plan {
            workflow,
            slots,
            policy,
            cap,
        } => plan(&workflow, slots, policy, cap),
        Command::Simulate(options) => simulate(&options),
        Command::Serve(options) => serve(&options),
    }
}

fn load(arg: &WorkflowArg) -> Result<WorkflowSpec, Box<dyn Error>> {
    let text =
        std::fs::read_to_string(&arg.path).map_err(|e| format!("cannot read {}: {e}", arg.path))?;
    let config = WorkflowConfig::parse(&text).map_err(|e| format!("{}: {e}", arg.path))?;
    Ok(config
        .to_spec(arg.release)
        .map_err(|e| format!("{}: {e}", arg.path))?)
}

fn validate(workflows: &[WorkflowArg]) -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    for arg in workflows {
        let w = load(arg)?;
        writeln!(out, "{}: OK", arg.path)?;
        writeln!(
            out,
            "  {} jobs, {} tasks ({} map + {} reduce), critical path {}, total work {}",
            w.job_count(),
            w.total_tasks(),
            w.total_map_tasks(),
            w.total_reduce_tasks(),
            w.critical_path(),
            w.total_work(),
        )?;
        if w.deadline() == woha_model::SimTime::MAX {
            writeln!(out, "  no deadline")?;
        } else {
            writeln!(out, "  deadline {} after submission", w.relative_deadline())?;
        }
        for j in w.job_ids() {
            let prereqs: Vec<&str> = w
                .prerequisites(j)
                .iter()
                .map(|&p| w.job(p).name())
                .collect();
            writeln!(out, "  {} <- [{}]", w.job(j), prereqs.join(", "))?;
        }
    }
    Ok(out)
}

fn plan(
    arg: &WorkflowArg,
    slots: u32,
    policy: PriorityPolicy,
    cap: woha_core::CapMode,
) -> Result<String, Box<dyn Error>> {
    let w = load(arg)?;
    let priorities = JobPriorities::compute(&w, policy);
    let plan = generate_plan(&w, &priorities, slots, cap);
    let mut out = String::new();
    writeln!(
        out,
        "scheduling plan for {} ({policy}, cluster capacity {slots} slots)",
        w.name()
    )?;
    writeln!(
        out,
        "  resource cap {}  plan span {}  {} requirement entries  {} bytes encoded",
        plan.resource_cap(),
        plan.span(),
        plan.requirements().len(),
        plan.encoded_size_bytes(),
    )?;
    let order: Vec<&str> = plan.job_order().iter().map(|&j| w.job(j).name()).collect();
    writeln!(out, "  job order: {}", order.join(" > "))?;
    writeln!(out, "  ttd        cumulative tasks required")?;
    for r in plan.requirements() {
        writeln!(out, "  {:>9}  {}", r.ttd.to_string(), r.cumulative)?;
    }
    Ok(out)
}

fn total_slots(cluster: &ClusterConfig) -> u32 {
    cluster.total_slots(SlotKind::Map) + cluster.total_slots(SlotKind::Reduce)
}

/// The one observed-run path `simulate` and `serve` share: open the trace
/// sink the output flags ask for, hand it to `body` (which runs the
/// simulation or the service and returns its result with the metrics
/// registry), finish the sink, and write the Prometheus file.
fn observed<R>(
    run: &RunOptions,
    format: TraceFormat,
    body: impl FnOnce(Option<&mut dyn TraceSink>) -> Result<(R, Option<MetricsRegistry>), String>,
) -> Result<R, String> {
    let cannot_write = |path: &str, e: &dyn std::fmt::Display| format!("cannot write {path}: {e}");
    let (result, metrics) = match (&run.trace_out, format) {
        (None, _) => body(None)?,
        // JSONL streams each record to disk the moment it is emitted.
        (Some(path), TraceFormat::Jsonl) => {
            let file = std::fs::File::create(path).map_err(|e| cannot_write(path, &e))?;
            let mut sink = JsonlTraceSink::new(std::io::BufWriter::new(file));
            let done = body(Some(&mut sink))?;
            let mut writer = sink.finish().map_err(|e| cannot_write(path, &e))?;
            std::io::Write::flush(&mut writer).map_err(|e| cannot_write(path, &e))?;
            done
        }
        // The Chrome format pairs task spans in a second pass, so it
        // buffers the records and writes the file at the end of the run.
        (Some(path), TraceFormat::Chrome) => {
            let mut sink = MemorySink::new();
            let (result, metrics) = body(Some(&mut sink))?;
            let obs = Observations {
                trace: sink.into_records(),
                metrics,
                node_count: run.cluster.node_count(),
            };
            std::fs::write(path, obs.chrome_trace_json()).map_err(|e| cannot_write(path, &e))?;
            (result, obs.metrics)
        }
    };
    if let (Some(path), Some(m)) = (&run.metrics_out, &metrics) {
        std::fs::write(path, m.prometheus_text()).map_err(|e| cannot_write(path, &e))?;
    }
    Ok(result)
}

fn simulate(options: &SimulateOptions) -> Result<String, Box<dyn Error>> {
    let run = &options.run;
    let specs: Vec<WorkflowSpec> = options
        .workflows
        .iter()
        .map(load)
        .collect::<Result<_, _>>()?;
    if options.config.observability.enabled() && run.schedulers.len() > 1 {
        return Err(
            "--trace-out/--metrics-out need a single scheduler, not --scheduler all".into(),
        );
    }
    // Arg validation guarantees --pad-plans comes with --mtbf.
    let padding = options
        .pad_plans
        .then(|| run.cluster.faults().mtbf.map(PadConfig::new))
        .flatten();

    // The scheduler comparison fans over the sweep orchestrator's worker
    // pool (`--jobs`, default available parallelism); a single scheduler
    // is a one-cell sweep and runs inline. Each cell consumes a fresh
    // source and (when enabled) a fresh admission controller, so compared
    // schedulers see the same world, and the orchestrator returns reports
    // in `run.schedulers` order regardless of completion order or thread
    // count.
    let jobs = match options.jobs {
        0 => available_jobs(),
        n => n,
    };
    let cells: Vec<_> = run
        .schedulers
        .iter()
        .map(|&kind| (CellKey::new().with("scheduler", kind), kind))
        .collect();
    let run_cell = |kind: woha_bench::SchedulerKind| -> Result<SimReport, String> {
        let mut scheduler = kind.build_with(total_slots(&run.cluster), padding);
        let mut gate = run.admission.then(|| MultiTenantGate::open(&run.cluster));
        let open = |path| JsonlSource::open(path).map_err(|e| format!("cannot read {path}: {e}"));
        let mut jsonl = options.arrivals.as_ref().map(open).transpose()?;
        let mut files = VecSource::new(specs.clone());
        let source: &mut dyn WorkloadSource = match jsonl.as_mut() {
            Some(arrivals) => arrivals,
            None => &mut files,
        };
        let report = observed(run, options.trace_format, |sink| {
            try_run_simulation_streamed_observed(
                source,
                scheduler.as_mut(),
                &run.cluster,
                &options.config,
                gate.as_mut().map(|g| g as &mut dyn AdmissionGate),
                sink.map(|s| s as &mut dyn TraceSink),
            )
            .map_err(|e| format!("bad simulation config: {e}"))
        })?;
        match (&options.arrivals, jsonl.as_ref().and_then(|j| j.error())) {
            (Some(path), Some(e)) => Err(format!("{path}: {e}")),
            _ => Ok(report),
        }
    };
    let mut reports = Vec::new();
    for (_, result) in run_sweep(&cells, jobs, |_, &kind| run_cell(kind)).results {
        reports.push(result?);
    }

    if run.json {
        return Ok(format!("{}\n", serde_json::to_string_pretty(&reports)?));
    }
    let mut out = String::new();
    for report in &reports {
        writeln!(out, "=== {} ===  {}", report.scheduler, summary(report))?;
        render_report(&mut out, report, run.cluster.faults().enabled())?;
    }
    Ok(out)
}

/// Runs the live service: tail the followed feed, gate admissions, pace
/// (or replay) the cluster, and summarize what happened.
fn serve(options: &ServeOptions) -> Result<String, Box<dyn Error>> {
    let run = &options.run;
    let follow = &options.follow;
    let meta = std::fs::metadata(follow).map_err(|e| format!("cannot follow {follow}: {e}"))?;
    let source = if meta.is_dir() {
        FollowSource::dir(follow)
    } else {
        FollowSource::file(follow)
    };
    let stop = source.stop_handle();

    // The gate: a tenant file wins; otherwise plain demand-bound admission
    // unless explicitly turned off.
    let mut gate = match &options.tenants {
        Some(path) => Some(MultiTenantGate::load(path, &run.cluster)?),
        None => run.admission.then(|| MultiTenantGate::open(&run.cluster)),
    };

    // Arg validation guarantees `serve` a single scheduler.
    let mut scheduler = run.schedulers[0].build(total_slots(&run.cluster));
    let config = SimConfig {
        observability: run.observability(None),
        ..SimConfig::default()
    };
    // A deterministic replay must not abandon the tail of the feed when
    // the source reports "no data yet": pre-raising the stop makes the
    // FollowSource finalize and drain every written byte, then end.
    if matches!(options.service.clock, ClockMode::Sim) {
        stop.stop();
    }
    let outcome = observed(run, TraceFormat::Jsonl, |sink| {
        run_service(
            source,
            Some(stop),
            scheduler.as_mut(),
            &run.cluster,
            &config,
            gate.as_mut().map(|g| g as &mut dyn AdmissionGate),
            sink,
            &options.service,
        )
        .map(|mut outcome| {
            let metrics = outcome.metrics.take();
            (outcome, metrics)
        })
        .map_err(|e| format!("bad service config: {e}"))
    })?;
    if let Some(e) = &outcome.source_error {
        return Err(e.clone().into());
    }

    let cause = outcome
        .cause
        .map_or_else(|| "drained".to_string(), |c| c.to_string());
    let report = &outcome.report;
    if run.json {
        return Ok(format!(
            "{{\n  \"service\": {{\"cause\": \"{cause}\", \"arrivals\": {}, \"shed\": {}, \
             \"depth_peak\": {}, \"lag_peak_ms\": {}}},\n  \"report\": {}\n}}\n",
            outcome.arrivals,
            outcome.shed,
            outcome.depth_peak,
            outcome.lag_peak_ms,
            serde_json::to_string_pretty(report)?,
        ));
    }
    let mut out = String::new();
    writeln!(
        out,
        "=== serve {} ===  shutdown: {cause}  arrivals {}  shed {}  \
         queue peak {}  lag peak {:.1}s",
        report.scheduler,
        outcome.arrivals,
        outcome.shed,
        outcome.depth_peak,
        outcome.lag_peak_ms as f64 / 1000.0,
    )?;
    writeln!(out, "  {}", summary(report))?;
    render_report(&mut out, report, false)?;
    Ok(out)
}

/// The one-line verdict both subcommands lead a report with.
fn summary(report: &SimReport) -> String {
    format!(
        "misses {}/{}  max tardiness {}  utilization {:.1}%",
        report.deadline_misses(),
        report.outcomes.len(),
        report.max_tardiness(),
        report.overall_utilization() * 100.0,
    )
}

/// Everything below the summary: one line per subsystem that was on (node
/// faults, admission, master recovery, data plane, prediction), then one
/// line per workflow outcome.
fn render_report(out: &mut String, report: &SimReport, node_faults: bool) -> std::fmt::Result {
    if node_faults {
        writeln!(
            out,
            "  node failures {}  recoveries {}  blacklisted {}  tasks requeued {}  \
             map outputs lost {}  work lost {:.1} slot-s",
            report.node_failures,
            report.node_recoveries,
            report.nodes_blacklisted,
            report.tasks_requeued,
            report.map_outputs_lost,
            report.work_lost_slot_ms as f64 / 1000.0,
        )?;
    }
    if let Some(a) = &report.admission {
        let detail: Vec<String> = a
            .rejections
            .iter()
            .map(|r| format!("{} x{}", r.reason, r.count))
            .collect();
        writeln!(
            out,
            "  admission rejected {}{}",
            a.workflows_rejected,
            if detail.is_empty() {
                String::new()
            } else {
                format!("  ({})", detail.join(", "))
            },
        )?;
    }
    if let Some(r) = &report.recovery {
        writeln!(
            out,
            "  master crashes {}  downtime {:.1}s  checkpoints {}  wal replayed {}  \
             readopted {}  requeued {}  orphaned {}  resubmitted {}wf/{}job",
            r.master_crashes,
            r.master_downtime_ms as f64 / 1000.0,
            r.checkpoints_taken,
            r.wal_records_replayed,
            r.attempts_readopted,
            r.attempts_requeued,
            r.attempts_orphaned,
            r.workflows_resubmitted,
            r.jobs_resubmitted,
        )?;
    }
    if let Some(d) = &report.data_plane {
        writeln!(
            out,
            "  data plane: racks {}  rack outages {}  survivor requeues {}  \
             reshuffle events {}  reshuffle charged {:.1}s",
            d.racks,
            d.rack_outages,
            d.survivor_requeues,
            d.reshuffle_events,
            d.reshuffle_charged_ms as f64 / 1000.0,
        )?;
    }
    if let Some(p) = &report.prediction {
        let peak = p.node_propensity.iter().copied().fold(0.0f64, f64::max);
        writeln!(
            out,
            "  prediction: plans padded {}  risk-averted placements {}  \
             preemptive speculations {}  adaptive blacklists {}  peak propensity {:.2}",
            p.plans_padded,
            p.risk_averted_placements,
            p.preemptive_speculations,
            p.adaptive_blacklists,
            peak,
        )?;
    }
    for o in &report.outcomes {
        writeln!(
            out,
            "  {:<24} submit {:>9}  finish {:>11}  deadline {:>9}  {}",
            o.name,
            o.submitted.to_string(),
            o.finished
                .map_or("unfinished".to_string(), |t| t.to_string()),
            if o.deadline == woha_model::SimTime::MAX {
                "none".to_string()
            } else {
                o.deadline.to_string()
            },
            if o.met_deadline() { "met" } else { "MISSED" },
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;

    const SAMPLE: &str = r#"
    <workflow name="cli-test" deadline="20m">
      <job name="a" mappers="4" reducers="1" map-duration="20s" reduce-duration="40s">
        <output path="/t/a"/>
      </job>
      <job name="b" mappers="2" reducers="1" map-duration="15s" reduce-duration="30s">
        <input path="/t/a"/>
        <output path="/t/b"/>
      </job>
    </workflow>"#;

    fn sample_file() -> tempfile::TempPath {
        let mut f = tempfile::NamedTempFile::new().expect("temp file");
        f.write_all(SAMPLE.as_bytes()).expect("write");
        f.into_temp_path()
    }

    // A tiny vendored tempfile substitute to avoid a dependency: write to
    // a unique path in std::env::temp_dir().
    mod tempfile {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub struct NamedTempFile {
            file: std::fs::File,
            path: PathBuf,
        }

        pub struct TempPath(PathBuf);

        impl NamedTempFile {
            pub fn new() -> std::io::Result<Self> {
                let path = std::env::temp_dir().join(format!(
                    "woha-cli-test-{}-{}.xml",
                    std::process::id(),
                    COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                Ok(NamedTempFile {
                    file: std::fs::File::create(&path)?,
                    path,
                })
            }

            pub fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
                use std::io::Write;
                self.file.write_all(bytes)
            }

            pub fn into_temp_path(self) -> TempPath {
                TempPath(self.path)
            }
        }

        impl TempPath {
            pub fn to_str(&self) -> &str {
                self.0.to_str().expect("utf-8 temp path")
            }
        }

        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
    }

    fn run_line(line: &[&str]) -> Result<String, Box<dyn std::error::Error>> {
        let raw: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        run(args::parse(&raw)?)
    }

    #[test]
    fn help_prints_usage() {
        let out = run_line(&["help"]).unwrap();
        assert!(out.contains("woha-cli simulate"));
    }

    #[test]
    fn validate_prints_topology() {
        let path = sample_file();
        let out = run_line(&["validate", path.to_str()]).unwrap();
        assert!(out.contains("OK"));
        assert!(out.contains("2 jobs, 8 tasks"));
        assert!(out.contains("b(2m x 15s, 1r x 30s) <- [a]"));
    }

    #[test]
    fn validate_reports_missing_file() {
        let err = run_line(&["validate", "/no/such/file.xml"]).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn plan_prints_requirements() {
        let path = sample_file();
        let out = run_line(&["plan", path.to_str(), "--slots", "12"]).unwrap();
        assert!(out.contains("resource cap"), "{out}");
        assert!(out.contains("job order: a > b"), "{out}");
        assert!(out.contains("cumulative tasks required"), "{out}");
        // Final requirement covers all 8 tasks.
        assert!(out.trim_end().ends_with('8'), "{out}");
    }

    #[test]
    fn simulate_single_scheduler() {
        let path = sample_file();
        let out = run_line(&[
            "simulate",
            path.to_str(),
            "--cluster",
            "4x2x1",
            "--scheduler",
            "fifo",
        ])
        .unwrap();
        assert!(out.contains("=== FIFO ==="), "{out}");
        assert!(out.contains("met"), "{out}");
        assert!(out.contains("misses 0/1"), "{out}");
    }

    #[test]
    fn simulate_all_and_releases() {
        let path = sample_file();
        let spec = format!("{}@2m", path.to_str());
        let out = run_line(&["simulate", path.to_str(), &spec, "--scheduler", "all"]).unwrap();
        for name in ["WOHA-LPF", "WOHA-HLF", "WOHA-MPF", "EDF", "FIFO", "Fair"] {
            assert!(out.contains(&format!("=== {name} ===")), "{out}");
        }
        assert!(out.contains("submit      120s"), "{out}");
    }

    #[test]
    fn simulate_with_node_faults_reports_summary() {
        let path = sample_file();
        let out = run_line(&[
            "simulate",
            path.to_str(),
            "--scheduler",
            "fifo",
            "--mtbf",
            "5m",
            "--mttr",
            "30s",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("node failures"), "{out}");
        assert!(out.contains("=== FIFO ==="), "{out}");
    }

    #[test]
    fn simulate_with_rack_faults_reports_data_plane() {
        let path = sample_file();
        let line = [
            "simulate",
            path.to_str(),
            "--scheduler",
            "fifo",
            "--cluster",
            "8x2x1",
            "--racks",
            "2",
            "--rack-mtbf",
            "3m",
            "--rack-mttr",
            "30s",
            "--reshuffle-cost",
            "5s",
            "--seed",
            "3",
        ];
        let out = run_line(&line).unwrap();
        assert!(out.contains("data plane: racks 2"), "{out}");
        assert!(out.contains("rack outages"), "{out}");
        assert_eq!(out, run_line(&line).unwrap(), "rack runs are seeded");
    }

    #[test]
    fn simulate_with_prediction_reports_propensity() {
        let path = sample_file();
        let out = run_line(&[
            "simulate",
            path.to_str(),
            "--scheduler",
            "woha-lpf",
            "--mtbf",
            "5m",
            "--mttr",
            "30s",
            "--seed",
            "3",
            "--predict-failures",
            "--pad-plans",
            "--risk-placement",
        ])
        .unwrap();
        assert!(out.contains("prediction: plans padded"), "{out}");
        // The JSON report carries the prediction section.
        let json = run_line(&[
            "simulate",
            path.to_str(),
            "--scheduler",
            "woha-lpf",
            "--mtbf",
            "5m",
            "--seed",
            "3",
            "--predict-failures",
            "--json",
        ])
        .unwrap();
        let parsed: Vec<SimReport> = serde_json::from_str(&json).unwrap();
        let p = parsed[0].prediction.as_ref().expect("prediction report");
        assert!(!p.node_propensity.is_empty());
        // Prediction off: the key is absent entirely.
        let json = run_line(&[
            "simulate",
            path.to_str(),
            "--scheduler",
            "woha-lpf",
            "--mtbf",
            "5m",
            "--seed",
            "3",
            "--json",
        ])
        .unwrap();
        assert!(!json.contains("\"prediction\""), "{json}");
    }

    #[test]
    fn simulate_with_master_faults_reports_recovery() {
        let path = sample_file();
        let out = run_line(&[
            "simulate",
            path.to_str(),
            "--scheduler",
            "fifo",
            "--scripted-master-crash",
            "30s",
            "--master-mttr",
            "20s",
        ])
        .unwrap();
        assert!(out.contains("master crashes 1"), "{out}");
        assert!(out.contains("downtime 20.0s"), "{out}");
        assert!(out.contains("=== FIFO ==="), "{out}");
        // Recovery counters survive the JSON round-trip too.
        let json = run_line(&[
            "simulate",
            path.to_str(),
            "--scheduler",
            "fifo",
            "--scripted-master-crash",
            "30s",
            "--json",
        ])
        .unwrap();
        let parsed: Vec<SimReport> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed[0].recovery.as_ref().unwrap().master_crashes, 1);
    }

    #[test]
    fn simulate_writes_trace_and_metrics_files() {
        let path = sample_file();
        let trace = tempfile::NamedTempFile::new().unwrap().into_temp_path();
        let metrics = tempfile::NamedTempFile::new().unwrap().into_temp_path();
        let out = run_line(&[
            "simulate",
            path.to_str(),
            "--scheduler",
            "woha-lpf",
            "--trace-out",
            trace.to_str(),
            "--metrics-out",
            metrics.to_str(),
            "--obs-sample-interval",
            "30s",
        ])
        .unwrap();
        assert!(out.contains("=== WOHA-LPF ==="), "{out}");
        let trace_json = std::fs::read_to_string(trace.to_str()).unwrap();
        assert!(trace_json.contains("\"traceEvents\""), "{trace_json}");
        assert!(trace_json.contains("\"scheduler\""), "{trace_json}");
        let prom = std::fs::read_to_string(metrics.to_str()).unwrap();
        assert!(
            prom.contains("# TYPE woha_heartbeats_total counter"),
            "{prom}"
        );
        assert!(prom.contains("woha_pending_workflows"), "{prom}");
    }

    #[test]
    fn simulate_observability_rejects_all_schedulers() {
        let path = sample_file();
        let err = run_line(&[
            "simulate",
            path.to_str(),
            "--scheduler",
            "all",
            "--trace-out",
            "/tmp/unused-trace.json",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("single scheduler"), "{err}");
    }

    #[test]
    fn simulate_observability_leaves_report_unchanged() {
        let path = sample_file();
        let plain = run_line(&["simulate", path.to_str(), "--json"]).unwrap();
        let metrics = tempfile::NamedTempFile::new().unwrap().into_temp_path();
        let observed = run_line(&[
            "simulate",
            path.to_str(),
            "--metrics-out",
            metrics.to_str(),
            "--json",
        ])
        .unwrap();
        let strip = |s: &str| {
            let mut v: Vec<SimReport> = serde_json::from_str(s).unwrap();
            for r in &mut v {
                r.scheduler_nanos = 0;
            }
            serde_json::to_string(&v).unwrap()
        };
        assert_eq!(strip(&plain), strip(&observed));
    }

    /// Writes `text` to a fresh temp file and returns its path handle.
    fn temp_file_with(text: &str) -> tempfile::TempPath {
        let mut f = tempfile::NamedTempFile::new().expect("temp file");
        f.write_all(text.as_bytes()).expect("write");
        f.into_temp_path()
    }

    #[test]
    fn simulate_from_arrivals_matches_files() {
        let path = sample_file();
        let from_files = run_line(&["simulate", path.to_str(), "--json"]).unwrap();

        let text = std::fs::read_to_string(path.to_str()).unwrap();
        let spec = woha_model::WorkflowConfig::parse(&text)
            .unwrap()
            .to_spec(woha_model::SimTime::ZERO)
            .unwrap();
        let jsonl = temp_file_with(&woha_trace::to_jsonl(&[spec]).unwrap());
        let from_arrivals =
            run_line(&["simulate", "--arrivals", jsonl.to_str(), "--json"]).unwrap();

        let strip = |s: &str| {
            let mut v: Vec<SimReport> = serde_json::from_str(s).unwrap();
            for r in &mut v {
                r.scheduler_nanos = 0;
            }
            serde_json::to_string(&v).unwrap()
        };
        assert_eq!(strip(&from_files), strip(&from_arrivals));
    }

    #[test]
    fn simulate_arrivals_reports_malformed_lines() {
        let jsonl = temp_file_with("this is not json\n");
        let err = run_line(&["simulate", "--arrivals", jsonl.to_str(), "--json"]).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn deeply_nested_input_is_an_error_not_an_abort() {
        let xml = temp_file_with(&"<a>".repeat(200_000));
        let err = run_line(&["validate", xml.to_str()]).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("nested deeper than 128 at byte 384"),
            "{text}"
        );

        let jsonl = temp_file_with(&format!("{}\n", "[".repeat(200_000)));
        let err = run_line(&["simulate", "--arrivals", jsonl.to_str(), "--json"]).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 1"), "{text}");
        assert!(
            text.contains("nesting deeper than 128 at byte 128"),
            "{text}"
        );
    }

    #[test]
    fn simulate_admission_counts_rejections() {
        // A 10-minute single map against a 1-minute deadline: its critical
        // path alone proves the deadline unreachable.
        let hopeless = temp_file_with(
            r#"
            <workflow name="hopeless" deadline="1m">
              <job name="j" mappers="1" reducers="0" map-duration="10m" reduce-duration="0s">
                <output path="/t/j"/>
              </job>
            </workflow>"#,
        );
        let feasible = sample_file();
        let out = run_line(&[
            "simulate",
            feasible.to_str(),
            hopeless.to_str(),
            "--admission",
            "necessary",
            "--json",
        ])
        .unwrap();
        let parsed: Vec<SimReport> = serde_json::from_str(&out).unwrap();
        let admission = parsed[0].admission.as_ref().expect("admission report");
        assert_eq!(admission.workflows_rejected, 1);
        assert_eq!(
            admission.rejections[0].reason,
            "critical_path_exceeds_deadline"
        );
        assert_eq!(parsed[0].outcomes.len(), 1, "rejected workflow never ran");

        // The human-readable table surfaces the same counters.
        let text = run_line(&[
            "simulate",
            feasible.to_str(),
            hopeless.to_str(),
            "--admission",
            "necessary",
        ])
        .unwrap();
        assert!(
            text.contains("admission rejected 1  (critical_path_exceeds_deadline x1)"),
            "{text}"
        );
    }

    #[test]
    fn simulate_writes_jsonl_trace() {
        let path = sample_file();
        let trace = tempfile::NamedTempFile::new().unwrap().into_temp_path();
        run_line(&[
            "simulate",
            path.to_str(),
            "--scheduler",
            "woha-lpf",
            "--trace-out",
            trace.to_str(),
            "--trace-format",
            "jsonl",
        ])
        .unwrap();
        let text = std::fs::read_to_string(trace.to_str()).unwrap();
        assert!(!text.contains("traceEvents"), "jsonl, not chrome: {text}");
        let mut lines = 0;
        for line in text.lines() {
            assert!(line.starts_with("{\"at_ms\":"), "{line}");
            assert!(line.contains("\"event\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
            lines += 1;
        }
        assert!(lines > 0, "trace has records");
    }

    #[test]
    fn simulate_json_is_machine_readable() {
        let path = sample_file();
        let out = run_line(&["simulate", path.to_str(), "--json"]).unwrap();
        let parsed: Vec<SimReport> = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].deadline_misses(), 0);
    }

    /// A JSONL arrival feed of tiny namespaced workflows, as a temp file.
    fn arrivals_feed(entries: &[(&str, u64)]) -> tempfile::TempPath {
        use woha_model::{JobSpec, SimDuration, SimTime, WorkflowBuilder};
        let specs: Vec<WorkflowSpec> = entries
            .iter()
            .map(|&(name, submit_s)| {
                let mut b = WorkflowBuilder::new(name);
                b.add_job(JobSpec::new(
                    "j",
                    2,
                    1,
                    SimDuration::from_secs(20),
                    SimDuration::from_secs(30),
                ));
                b.relative_deadline(SimDuration::from_mins(30));
                b.build().unwrap().reissued(
                    name.to_string(),
                    SimTime::from_secs(submit_s),
                    SimTime::from_secs(submit_s) + SimDuration::from_mins(30),
                )
            })
            .collect();
        temp_file_with(&woha_trace::to_jsonl(&specs).unwrap())
    }

    #[test]
    fn serve_replays_a_finite_feed_and_matches_simulate() {
        let feed = arrivals_feed(&[("ads/a", 0), ("etl/b", 60)]);
        let batch = run_line(&[
            "simulate",
            "--arrivals",
            feed.to_str(),
            "--admission",
            "necessary",
            "--json",
        ])
        .unwrap();
        let served = run_line(&["serve", "--follow", feed.to_str(), "--json"]).unwrap();
        // The serve JSON wraps the identical report in a service object.
        use serde::Deserialize as _;
        let wrapped: serde::Value = serde_json::from_str(&served).unwrap();
        let field = |v: &serde::Value, name: &str| {
            v.as_object()
                .unwrap()
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {name} in {served}"))
        };
        let mut report = SimReport::from_value(&field(&wrapped, "report")).unwrap();
        let mut batch: Vec<SimReport> = serde_json::from_str(&batch).unwrap();
        report.scheduler_nanos = 0;
        batch[0].scheduler_nanos = 0;
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&batch[0]).unwrap()
        );
        let service = field(&wrapped, "service");
        let cause = field(&service, "cause");
        assert_eq!(cause.as_str(), Some("drained"));
        assert!(served.contains("\"arrivals\": 2"), "{served}");
        assert!(served.contains("\"shed\": 0"), "{served}");
    }

    #[test]
    fn serve_tenant_file_gates_admission_with_tenant_labels() {
        let feed = arrivals_feed(&[("ads/a", 0), ("ads/b", 10), ("etl/c", 20)]);
        let tenants = temp_file_with(
            "policy = \"necessity\"\n\
             [tenant.ads]\nmax_in_flight = 1\n\
             [tenant.etl]\nmax_in_flight = 4\n",
        );
        let out = run_line(&[
            "serve",
            "--follow",
            feed.to_str(),
            "--tenants",
            tenants.to_str(),
        ])
        .unwrap();
        assert!(out.contains("=== serve"), "{out}");
        assert!(
            out.contains("admission rejected 1  (tenant_cap_exceeded:ads x1)"),
            "{out}"
        );
        assert!(out.contains("etl/c"), "{out}");
    }

    #[test]
    fn serve_rejects_unknown_tenants_without_a_fallback() {
        let feed = arrivals_feed(&[("mystery/w", 0)]);
        let tenants = temp_file_with("[tenant.ads]\nmax_in_flight = 1\n");
        let out = run_line(&[
            "serve",
            "--follow",
            feed.to_str(),
            "--tenants",
            tenants.to_str(),
        ])
        .unwrap();
        assert!(out.contains("unknown_tenant:mystery x1"), "{out}");
    }

    #[test]
    fn serve_wall_clock_drains_and_reports_idle_shutdown() {
        let feed = arrivals_feed(&[("live/a", 0), ("live/b", 5)]);
        let metrics = tempfile::NamedTempFile::new().unwrap().into_temp_path();
        let out = run_line(&[
            "serve",
            "--follow",
            feed.to_str(),
            "--wall-clock",
            "--speedup",
            "4000",
            "--poll-interval",
            "1ms",
            "--idle-timeout",
            "300ms",
            "--admission",
            "off",
            "--metrics-out",
            metrics.to_str(),
        ])
        .unwrap();
        assert!(out.contains("shutdown: idle-timeout"), "{out}");
        assert!(out.contains("arrivals 2"), "{out}");
        assert!(out.contains("misses 0/2"), "{out}");
        let prom = std::fs::read_to_string(metrics.to_str()).unwrap();
        assert!(prom.contains("woha_arrivals_total 2"), "{prom}");
        assert!(prom.contains("woha_arrivals_shed_total 0"), "{prom}");
        assert!(prom.contains("woha_arrival_queue_depth"), "{prom}");
        assert!(prom.contains("woha_arrival_lag_seconds"), "{prom}");
    }

    #[test]
    fn serve_surfaces_feed_errors_with_the_file_name() {
        let feed = temp_file_with("not json at all\n");
        let err = run_line(&["serve", "--follow", feed.to_str()]).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }
}
