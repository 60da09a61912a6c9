//! The service loop: source → backpressure → admission → clocked driver.
//!
//! [`run_service`] assembles the live pipeline and runs it to completion:
//!
//! ```text
//! FollowSource/ChannelSource ──▶ ArrivalBuffer ──▶ driver(Clock, gate)
//!         ▲                            │ stats            │
//!         └── SourceStop ◀── ShutdownSignal ◀── Watcher ◀─┘
//! ```
//!
//! The same function serves two modes. Under [`ClockMode::Wall`] it is a
//! real service: the driver paces events against the wall clock, the
//! source blocks on fresh input, and the watcher thread converts stop
//! files / idle timeouts / arrival budgets into a drain-and-exit. Under
//! [`ClockMode::Sim`] it is a deterministic replay of the identical
//! pipeline — every clock answer is the identity, a `Pending` source ends
//! the run, and the output is byte-identical to the batch simulator —
//! which is what makes the live configuration testable.

use crate::shutdown::{ShutdownCause, ShutdownConfig, ShutdownSignal, Watcher};
use std::time::Duration;
use woha_sim::{
    try_run_simulation_clocked, AdmissionGate, ArrivalBuffer, ClusterConfig, MetricsRegistry,
    SimClock, SimConfig, SimError, SimReport, TraceSink, WallClock, WorkflowScheduler,
};
use woha_trace::{ChannelSource, FollowSource, JsonlSource, SourceStop, VecSource, WorkloadSource};

/// How the driver experiences time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum ClockMode {
    /// Deterministic replay: never waits, identical to the batch driver.
    #[default]
    Sim,
    /// Live execution paced against real time.
    Wall {
        /// Sim-time-per-real-time factor (1.0 = real time).
        speedup: f64,
        /// Sleep slice while waiting; bounds arrival and shutdown latency.
        poll: Duration,
    },
}

/// Knobs for one [`run_service`] invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeConfig {
    /// Clock mode; defaults to deterministic replay.
    pub clock: ClockMode,
    /// Arrival buffer capacity (0 is treated as the 1024 default).
    pub buffer: usize,
    /// Optional shedding watermarks as `(high, low)`; defaults to the
    /// buffer's own (shed at full, resume at half).
    pub watermarks: Option<(usize, usize)>,
    /// Shutdown conditions the watcher thread polls.
    pub shutdown: ShutdownConfig,
}

impl ServeConfig {
    fn capacity(&self) -> usize {
        if self.buffer == 0 {
            1024
        } else {
            self.buffer
        }
    }
}

/// Everything a finished service run reports.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The simulation report (outcomes, admission, recovery).
    pub report: SimReport,
    /// The metrics registry with service stats folded in, when enabled.
    pub metrics: Option<MetricsRegistry>,
    /// Workflows accepted into the arrival buffer.
    pub arrivals: u64,
    /// Workflows dropped by backpressure shedding.
    pub shed: u64,
    /// Highest arrival-buffer depth observed.
    pub depth_peak: u64,
    /// Largest ingest lag observed, in sim milliseconds.
    pub lag_peak_ms: u64,
    /// Why shutdown began; `None` means the source drained on its own.
    pub cause: Option<ShutdownCause>,
    /// A source-side failure (e.g. a malformed trace line), if any.
    pub source_error: Option<String>,
}

/// Source-specific health reporting the service surfaces after a run.
///
/// Sources that can fail mid-stream (parse errors in a followed file)
/// override [`source_error`](SourceDiagnostics::source_error); in-memory
/// sources keep the `None` default.
pub trait SourceDiagnostics {
    /// The error that ended the source early, if any.
    fn source_error(&self) -> Option<String> {
        None
    }
}

impl SourceDiagnostics for FollowSource {
    fn source_error(&self) -> Option<String> {
        self.error().map(String::from)
    }
}

impl<R: std::io::BufRead> SourceDiagnostics for JsonlSource<R> {
    fn source_error(&self) -> Option<String> {
        self.error().map(String::from)
    }
}

impl SourceDiagnostics for ChannelSource {
    fn source_error(&self) -> Option<String> {
        self.error().map(String::from)
    }
}
impl SourceDiagnostics for VecSource {}

/// Runs the service pipeline to completion and reports what happened.
///
/// `stop` is the source's own stop handle (e.g.
/// [`FollowSource::stop_handle`]); linking it into the internal
/// [`ShutdownSignal`] is what makes a watcher-triggered shutdown drain the
/// source cleanly instead of abandoning buffered work. Pass `None` for
/// sources that end on their own (a channel whose sender hangs up).
#[allow(clippy::too_many_arguments)]
pub fn run_service<S: WorkloadSource + SourceDiagnostics>(
    source: S,
    stop: Option<SourceStop>,
    scheduler: &mut dyn WorkflowScheduler,
    cluster: &ClusterConfig,
    config: &SimConfig,
    gate: Option<&mut dyn AdmissionGate>,
    sink: Option<&mut dyn TraceSink>,
    serve: &ServeConfig,
) -> Result<ServiceOutcome, SimError> {
    let signal = ShutdownSignal::new();
    if let Some(stop) = stop {
        signal.link_source(stop);
    }
    let mut buffer = ArrivalBuffer::new(source, serve.capacity());
    if let Some((high, low)) = serve.watermarks {
        buffer = buffer.with_watermarks(high, low);
    }
    let stats = buffer.stats();
    let watcher = Watcher::spawn(serve.shutdown.clone(), stats.clone(), signal.clone());

    // The clocked entry point ties gate, sink, and clock to one lifetime,
    // so each arm reborrows them fresh alongside its own clock.
    let result = match serve.clock {
        ClockMode::Sim => {
            let mut clock = SimClock;
            try_run_simulation_clocked(
                &mut buffer,
                scheduler,
                cluster,
                config,
                gate.map(|g| &mut *g as &mut dyn AdmissionGate),
                sink.map(|s| &mut *s as &mut dyn TraceSink),
                &mut clock,
            )
        }
        ClockMode::Wall { speedup, poll } => {
            let mut clock = WallClock::with_speedup(speedup).with_poll_interval(poll);
            signal.link_flag(clock.stop_flag());
            try_run_simulation_clocked(
                &mut buffer,
                scheduler,
                cluster,
                config,
                gate.map(|g| &mut *g as &mut dyn AdmissionGate),
                sink.map(|s| &mut *s as &mut dyn TraceSink),
                &mut clock,
            )
        }
    };
    watcher.finish();
    let (report, mut metrics) = result?;
    if let Some(m) = metrics.as_mut() {
        stats.export_into(m);
    }
    Ok(ServiceOutcome {
        report,
        metrics,
        arrivals: stats.arrivals(),
        shed: stats.shed(),
        depth_peak: stats.depth_peak(),
        lag_peak_ms: stats.lag_peak_ms(),
        cause: signal.cause(),
        source_error: buffer.inner().source_error(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use woha_model::{JobSpec, SimDuration, SimTime, WorkflowBuilder, WorkflowSpec};
    use woha_sim::SubmitOrderScheduler;

    fn spec(name: &str, submit_s: u64, deadline_mins: u64) -> WorkflowSpec {
        let mut b = WorkflowBuilder::new(name);
        b.add_job(JobSpec::new(
            "j0",
            2,
            1,
            SimDuration::from_secs(20),
            SimDuration::from_secs(30),
        ));
        b.relative_deadline(SimDuration::from_mins(deadline_mins));
        b.build().unwrap().reissued(
            name.to_string(),
            SimTime::from_secs(submit_s),
            SimTime::from_secs(submit_s) + SimDuration::from_mins(deadline_mins),
        )
    }

    fn cluster() -> ClusterConfig {
        ClusterConfig::uniform(4, 2, 1)
    }

    #[test]
    fn sim_mode_run_matches_batch_simulation() {
        let specs: Vec<WorkflowSpec> = (0..4).map(|i| spec(&format!("w{i}"), i * 30, 20)).collect();
        let mut batch = woha_sim::run_simulation(
            &specs,
            &mut SubmitOrderScheduler::new(),
            &cluster(),
            &SimConfig::default(),
        );
        let mut outcome = run_service(
            VecSource::new(specs),
            None,
            &mut SubmitOrderScheduler::new(),
            &cluster(),
            &SimConfig::default(),
            None,
            None,
            &ServeConfig::default(),
        )
        .unwrap();
        // scheduler_nanos is measured wall time, the one legitimately
        // nondeterministic field; everything else must match bytewise.
        batch.scheduler_nanos = 0;
        outcome.report.scheduler_nanos = 0;
        assert_eq!(
            serde_json::to_string(&outcome.report).unwrap(),
            serde_json::to_string(&batch).unwrap()
        );
        assert_eq!(outcome.arrivals, 4);
        assert_eq!(outcome.shed, 0);
        assert_eq!(outcome.cause, None);
        assert_eq!(outcome.source_error, None);
    }

    #[test]
    fn wall_mode_drains_a_channel_and_reports_idle_shutdown() {
        let (tx, source) = ChannelSource::pair();
        for i in 0..3 {
            tx.send(spec(&format!("live/w{i}"), i * 5, 30)).unwrap();
        }
        // Sender stays alive: only the idle timeout can end this run.
        let outcome = run_service(
            source,
            None,
            &mut SubmitOrderScheduler::new(),
            &cluster(),
            &SimConfig::default(),
            None,
            None,
            &ServeConfig {
                clock: ClockMode::Wall {
                    speedup: 4000.0,
                    poll: Duration::from_millis(1),
                },
                shutdown: ShutdownConfig {
                    idle_timeout: Some(Duration::from_millis(150)),
                    poll: Duration::from_millis(5),
                    ..ShutdownConfig::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        drop(tx);
        assert_eq!(outcome.arrivals, 3);
        assert_eq!(outcome.report.outcomes.len(), 3);
        assert!(outcome.report.completed, "drained run completes all work");
        assert_eq!(outcome.cause, Some(ShutdownCause::IdleTimeout));
    }

    #[test]
    fn tenant_gate_rejections_reach_the_report_with_tenant_labels() {
        let mut gate = woha_core::MultiTenantGate::parse(
            "policy = \"necessity\"\n[tenant.ads]\nmax_in_flight = 1\n",
            &cluster(),
        )
        .unwrap();
        // Two overlapping ads workflows: the second exceeds the in-flight
        // cap of 1 and must be rejected with a tenant-qualified label.
        let specs = vec![spec("ads/a", 0, 30), spec("ads/b", 1, 30)];
        let outcome = run_service(
            VecSource::new(specs),
            None,
            &mut SubmitOrderScheduler::new(),
            &cluster(),
            &SimConfig::default(),
            Some(&mut gate),
            None,
            &ServeConfig::default(),
        )
        .unwrap();
        let admission = outcome.report.admission.expect("gate produces a report");
        assert_eq!(admission.workflows_rejected, 1);
        assert_eq!(admission.rejections[0].reason, "tenant_cap_exceeded:ads");
    }

    #[test]
    fn metrics_export_includes_service_stats() {
        let specs: Vec<WorkflowSpec> = (0..6).map(|i| spec(&format!("w{i}"), i, 20)).collect();
        let config = SimConfig {
            observability: woha_sim::ObservabilityConfig {
                metrics: true,
                ..woha_sim::ObservabilityConfig::default()
            },
            ..SimConfig::default()
        };
        let outcome = run_service(
            VecSource::new(specs),
            None,
            &mut SubmitOrderScheduler::new(),
            &cluster(),
            &config,
            None,
            None,
            &ServeConfig {
                buffer: 3,
                watermarks: Some((3, 1)),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let text = outcome.metrics.expect("metrics enabled").prometheus_text();
        assert!(text.contains("woha_arrivals_total"), "{text}");
        assert!(text.contains("woha_arrivals_shed_total"), "{text}");
        assert!(text.contains("woha_arrival_queue_depth"), "{text}");
        assert!(text.contains("woha_arrival_lag_seconds"), "{text}");
        assert_eq!(outcome.arrivals + outcome.shed, 6);
    }

    #[test]
    fn follow_source_parse_error_is_surfaced_not_swallowed() {
        let dir = std::env::temp_dir().join(format!("woha-serve-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "this is not json\n").expect("write");
        let source = FollowSource::file(&path);
        let stop = source.stop_handle();
        stop.stop();
        let outcome = run_service(
            source,
            Some(stop),
            &mut SubmitOrderScheduler::new(),
            &cluster(),
            &SimConfig::default(),
            None,
            None,
            &ServeConfig::default(),
        )
        .unwrap();
        let err = outcome.source_error.expect("parse error surfaces");
        assert!(err.contains("bad.jsonl"), "{err}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
