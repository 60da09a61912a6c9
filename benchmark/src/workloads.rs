//! The four workloads: seeded input generation, the configuration each
//! runs under, and the plain / spans / observed / paced runs.
//!
//! Sizes are the issue's scaled down (N × 0.2–0.4 where cost is linear in
//! N, × 0.63 on `deep_queue` where it is quadratic) so that one run takes
//! 2.5–3 s here and a process can repeat it six or more times inside the
//! driver's time cap.

use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

use woha_core::{MultiTenantGate, PriorityPolicy, TenantSpec, WohaConfig, WohaScheduler};
use woha_model::{JobSpec, SimDuration, SimTime, WorkflowBuilder, WorkflowSpec};
use woha_serve::{
    run_service, ClockMode, ServeConfig, ServiceOutcome, ShutdownConfig, SourceDiagnostics,
};
use woha_sim::{
    try_run_simulation_streamed, try_run_simulation_streamed_observed, ClusterConfig, FaultConfig,
    LocalityConfig, MasterFaultConfig, MemorySink, ObservabilityConfig, SimConfig, SimReport,
    TraceEvent,
};
use woha_trace::{
    drain, to_jsonl, ChannelSource, GeneratorSource, JsonlSource, Rng, VecSource, WorkloadSource,
    YahooTraceConfig,
};

use crate::spans::{AssignCounts, SourceRecord, Spans, TimedGate, TimedScheduler, TimedSource};

pub const DEFAULT_SEED: u64 = 20140614;
pub const NAMES: [&str; 4] = ["yahoo_steady", "deep_queue", "faulty_racks", "serve_stream"];

/// Tenants of the `serve_stream` arrival stream.
const TENANTS: u64 = 4;
/// Spacing of the `replay` phase's arrivals in simulated time.
const REPLAY_SPACING: SimDuration = SimDuration::from_secs(4);
/// Spacing of the `paced` phase's arrivals in simulated time, and the
/// wall-clock speedup that turns it into one arrival per 4 ms of host
/// time: an open loop of 250 arrivals/s. At the issue's 500/s (speedup
/// 2000) the 100 nodes' heartbeats alone saturate the service thread on
/// the authoring box, simulated time falls behind the wall clock, and a
/// quarter of the arrivals miss the SLO; at speedup 500 the thread is
/// about a quarter busy.
const PACED_SPACING: SimDuration = SimDuration::from_secs(2);
const PACED_SPEEDUP: f64 = 500.0;
/// A paced submission not planned within this of its due instant fails.
pub const PACED_SLO: Duration = Duration::from_millis(50);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    YahooSteady,
    DeepQueue,
    FaultyRacks,
    ServeStream,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "yahoo_steady" => Workload::YahooSteady,
            "deep_queue" => Workload::DeepQueue,
            "faulty_racks" => Workload::FaultyRacks,
            "serve_stream" => Workload::ServeStream,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }

    /// Workflows per run; `--smoke` divides every N by 20.
    fn count(self, smoke: bool) -> usize {
        let full = match self {
            Workload::YahooSteady => 400,
            Workload::DeepQueue => 1000,
            Workload::FaultyRacks => 600,
            Workload::ServeStream => 2400,
        };
        if smoke {
            full / 20
        } else {
            full
        }
    }
}

/// Arrivals of the paced phase (250/s for 4 s; `--smoke`: 0.2 s).
fn paced_count(smoke: bool) -> usize {
    if smoke {
        50
    } else {
        1000
    }
}

/// What the program is fed.
pub enum Input {
    /// The materialized specs behind a `VecSource`.
    Specs,
    /// Line-delimited JSON behind a `JsonlSource`.
    Jsonl(String),
}

/// Everything set-up produces: the inputs and the configuration of a run.
pub struct Prepared {
    pub workload: Workload,
    pub smoke: bool,
    pub input: Input,
    /// The generated workflows, materialized: the expected totals of the
    /// correctness check and the specs the plan generator is driven over.
    pub specs: Vec<WorkflowSpec>,
    pub cluster: ClusterConfig,
    pub config: SimConfig,
    pub expected_tasks: u64,
}

/// Arrivals are shuffled inside windows of this many.
const SHUFFLE_WINDOW: usize = 8;
/// Seed of the Yahoo-like workflow population.
const POPULATION_SEED: u64 = DEFAULT_SEED;

/// The Yahoo-trace job distributions behind `yahoo_steady` and
/// `faulty_racks`: the paper-calibrated defaults with task counts capped
/// for an 80-node cluster.
pub fn yahoo_config() -> YahooTraceConfig {
    YahooTraceConfig {
        map_count_max: 200,
        reduce_count_max: 40,
        ..YahooTraceConfig::default()
    }
}

/// Arrivals of `yahoo_steady` and `faulty_racks`. The population is drawn
/// once, from a fixed seed: its job sizes are heavy-tailed, and a fresh
/// draw per `--seed` moves total work — and so every host-time metric —
/// by more than any bound (wall time spread 18 % over ten seeds on
/// `yahoo_steady`). `--seed` instead decides the order of arrival, and
/// only inside windows of [`SHUFFLE_WINDOW`]: a shuffle of the whole
/// stream decides where the large workflows cluster, the queue behind a
/// cluster is walked on every slot offer, and wall time again moved by a
/// quarter between seeds. One workflow arrives every `interarrival`, each
/// due `stretch` × its critical path later.
fn yahoo_arrivals(
    config: YahooTraceConfig,
    seed: u64,
    count: usize,
    interarrival: SimDuration,
    stretch: f64,
) -> Vec<WorkflowSpec> {
    let mut generator = GeneratorSource::new(config, POPULATION_SEED, count, interarrival, stretch);
    let mut population = drain(&mut generator);
    let mut rng = Rng::new(seed);
    for window in population.chunks_mut(SHUFFLE_WINDOW) {
        rng.shuffle(window);
    }
    population
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let submit = SimTime::ZERO + interarrival * i as u64;
            let deadline = submit.saturating_add(w.critical_path().mul_f64(stretch));
            let name = w.name().to_string();
            w.reissued(name, submit, deadline)
        })
        .collect()
}

/// `deep_queue`: N two-job chains released 50 ms apart onto 48 slots, so
/// nearly all N are queued at once. Task durations are 15–50 s drawn from
/// the seed. Three chains in twenty are due after a twentieth of the
/// backlog's map-bound makespan, which no schedule can meet from inside
/// the backlog; the rest are due evenly over 0.5–1.5 × that makespan,
/// which WOHA meets with room to spare. The miss ratio is then 0.15 by
/// construction and tardiness measures how the scheduler orders the
/// backlog. (Deadlines spread over the makespan itself sit on a knife
/// edge: the miss ratio read 0, 0.2 or 0.3 as the spread's upper end
/// crossed the real makespan, and the seed decided which.)
fn deep_queue_specs(seed: u64, count: usize) -> Vec<WorkflowSpec> {
    const MAP_SLOTS: u64 = 32;
    let mut rng = Rng::new(seed);
    let mut secs = || SimDuration::from_secs(rng.range_u64(15, 51));
    let chains: Vec<WorkflowSpec> = (0..count)
        .map(|i| {
            let mut b = WorkflowBuilder::new(format!("dq-{i:05}"));
            let first = b.add_job(JobSpec::new("a", 4, 1, secs(), secs()));
            let second = b.add_job(JobSpec::new("b", 2, 1, secs(), secs()));
            b.add_dependency(first, second);
            b.build().expect("two-job chain is a valid workflow")
        })
        .collect();
    let map_work_ms: u64 = chains
        .iter()
        .flat_map(WorkflowSpec::jobs)
        .map(|j| u64::from(j.map_tasks()) * j.map_duration().as_millis())
        .sum();
    let makespan_ms = map_work_ms / MAP_SLOTS;
    chains
        .into_iter()
        .enumerate()
        .map(|(i, chain)| {
            let submit = SimTime::ZERO + SimDuration::from_millis(50 * i as u64);
            // A multiplicative shuffle of 0..count: early and late
            // deadlines are mixed along the arrival order.
            let spread = (i as u64 * 7919) % count as u64;
            let relative = if i % 20 < 3 {
                makespan_ms / 20
            } else {
                makespan_ms / 2 + makespan_ms * spread / count as u64
            };
            let name = chain.name().to_string();
            chain.reissued(name, submit, submit + SimDuration::from_millis(relative))
        })
        .collect()
}

/// The `live_service` two-job workflow, namespaced under its tenant.
fn serve_spec(i: u64, submit: SimTime) -> WorkflowSpec {
    let name = format!("t{}/wf-{i}", i % TENANTS);
    let mut b = WorkflowBuilder::new(&name);
    let crunch = b.add_job(JobSpec::new(
        "crunch",
        6,
        2,
        SimDuration::from_secs(30),
        SimDuration::from_secs(60),
    ));
    let publish = b.add_job(JobSpec::new(
        "publish",
        2,
        1,
        SimDuration::from_secs(15),
        SimDuration::from_secs(30),
    ));
    b.add_dependency(crunch, publish);
    b.build().expect("static workflow shape is valid").reissued(
        name,
        submit,
        submit + SimDuration::from_mins(20),
    )
}

/// `serve_stream` arrivals: nominal `spacing`, each jittered by up to a
/// quarter of it either way from the seed (order-preserving), round-robin
/// over the tenants.
fn serve_specs(seed: u64, count: usize, spacing: SimDuration) -> Vec<WorkflowSpec> {
    let mut rng = Rng::new(seed);
    let quarter = spacing.as_millis() / 4;
    (0..count as u64)
        .map(|i| {
            let nominal = spacing.as_millis() * (i + 1);
            let jittered = nominal - quarter + rng.range_u64(0, 2 * quarter + 1);
            serve_spec(i, SimTime::ZERO + SimDuration::from_millis(jittered))
        })
        .collect()
}

fn serve_gate(cluster: &ClusterConfig, cap: usize) -> MultiTenantGate {
    let mut gate = MultiTenantGate::new(cluster);
    for t in 0..TENANTS {
        // Non-binding: the workload measures the gate's accounting, and a
        // rejection counts as a failed operation.
        gate.add_tenant(TenantSpec::new(format!("t{t}"), cap).with_weight(1.0));
    }
    gate
}

/// Set-up: generates the inputs from `seed` and builds the cluster and
/// driver configuration. Everything here is outside the timed region and
/// is what `setup_s` measures.
pub fn prepare(workload: Workload, seed: u64, smoke: bool) -> Prepared {
    let count = workload.count(smoke);
    let (input, specs, cluster, config) = match workload {
        Workload::YahooSteady => (
            Input::Specs,
            yahoo_arrivals(yahoo_config(), seed, count, SimDuration::from_secs(45), 3.0),
            ClusterConfig::uniform(80, 3, 3),
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        ),
        Workload::DeepQueue => (
            Input::Specs,
            deep_queue_specs(seed, count),
            ClusterConfig::uniform(16, 2, 1),
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        ),
        Workload::FaultyRacks => {
            let faults = FaultConfig {
                mtbf: Some(SimDuration::from_mins(240)),
                mttr: SimDuration::from_mins(5),
                rack_mtbf: Some(SimDuration::from_mins(600)),
                master: MasterFaultConfig {
                    mtbf: Some(SimDuration::from_mins(300)),
                    mttr: SimDuration::from_mins(2),
                    checkpoint_interval: SimDuration::from_mins(5),
                    wal: true,
                    ..MasterFaultConfig::default()
                },
                ..FaultConfig::default()
            };
            (
                Input::Specs,
                // With the default reduce-duration tail (σ 1.4, tasks up
                // to 10 000 s against a 14 400 s node MTBF) the longest
                // tasks are killed again and again, and the seed decides
                // whether the run ends after 60 000 or 245 000 simulated
                // seconds. σ 0.75 bounds the tail at ~1 700 s; the looser
                // deadline keeps the miss ratio from hinging on which
                // workflows a rack outage happens to catch.
                yahoo_arrivals(
                    YahooTraceConfig {
                        reduce_duration_sigma: 0.75,
                        ..yahoo_config()
                    },
                    seed,
                    count,
                    SimDuration::from_secs(60),
                    4.0,
                ),
                ClusterConfig::uniform(80, 3, 3)
                    .with_racks(4)
                    .with_faults(faults),
                SimConfig {
                    seed,
                    duration_jitter: 0.1,
                    locality: Some(LocalityConfig {
                        replicas: 3,
                        max_delay_skips: 3,
                        prefer_survivors: true,
                        ..LocalityConfig::default()
                    }),
                    reshuffle_cost: SimDuration::from_millis(200),
                    ..SimConfig::default()
                },
            )
        }
        Workload::ServeStream => {
            let specs = serve_specs(seed, count, REPLAY_SPACING);
            let jsonl = to_jsonl(&specs).expect("workflow specs serialize");
            (
                Input::Jsonl(jsonl),
                specs,
                ClusterConfig::uniform(100, 2, 1),
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            )
        }
    };
    let expected_tasks = specs.iter().map(WorkflowSpec::total_tasks).sum();
    let prepared = Prepared {
        workload,
        smoke,
        input,
        specs,
        cluster,
        config,
        expected_tasks,
    };
    // Scheduler and gate are rebuilt fresh for every run; building them
    // once here keeps their construction cost inside `setup_s`.
    std::hint::black_box(prepared.scheduler());
    std::hint::black_box(prepared.gate());
    prepared
}

impl Prepared {
    /// The scheduler under test: WOHA-LPF on the default (`dsl`) index.
    pub fn scheduler(&self) -> WohaScheduler {
        WohaScheduler::new(WohaConfig::new(
            PriorityPolicy::Lpf,
            self.cluster.total_all_slots(),
        ))
    }

    fn gate(&self) -> Option<MultiTenantGate> {
        (self.workload == Workload::ServeStream)
            .then(|| serve_gate(&self.cluster, self.specs.len().max(paced_count(self.smoke))))
    }
}

/// Why a driver call cannot fail here: the configurations are this file's.
const VALID: &str = "workload configuration is valid";

/// How a run is instrumented.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing wrapped: the end-to-end numbers.
    Plain,
    /// Every decorator on.
    Spans,
    /// The program's own observability on (`MemorySink` + metrics),
    /// nothing wrapped. `yahoo_steady` only.
    Observed,
}

/// What the `ArrivalBuffer` in front of a service run reported.
#[derive(Clone, Default)]
pub struct ServiceBits {
    pub arrivals: u64,
    pub shed: u64,
    pub depth_peak: u64,
    pub lag_peak_ms: u64,
    pub source_error: Option<String>,
}

/// The decorators' recordings of one spans run.
pub struct RunSpans {
    pub scheduler: Spans,
    pub counts: AssignCounts,
    pub source: SourceRecord,
    /// The gate's spans and how many workflows it rejected.
    pub gate: Option<(Spans, u64)>,
}

impl RunSpans {
    /// Seconds under every decorator: the root span's children.
    pub fn children_s(&self) -> f64 {
        self.scheduler.total_s()
            + self.source.spans.total_s()
            + self.gate.as_ref().map_or(0.0, |(g, _)| g.total_s())
    }
}

pub struct RunOutput {
    pub report: SimReport,
    /// Host seconds of the driver call: the root span.
    pub wall_s: f64,
    pub service: Option<ServiceBits>,
    pub spans: Option<RunSpans>,
    /// Observed mode: trace records and scheduler decisions among them.
    pub observed: Option<(u64, u64)>,
}

impl RunOutput {
    fn of(report: SimReport, wall_s: f64) -> Self {
        RunOutput {
            report,
            wall_s,
            service: None,
            spans: None,
            observed: None,
        }
    }

    fn of_service(outcome: ServiceOutcome, wall_s: f64) -> Self {
        RunOutput {
            service: Some(service_bits(&outcome)),
            ..RunOutput::of(outcome.report, wall_s)
        }
    }
}

/// Runs the workload once. Sources, scheduler and gate are built before
/// the clock starts; only the driver call is timed.
pub fn run(p: &Prepared, mode: Mode) -> RunOutput {
    match &p.input {
        Input::Specs => run_sim(p, VecSource::new(p.specs.clone()), mode),
        Input::Jsonl(text) => {
            assert!(
                mode != Mode::Observed,
                "observed mode is a sim-workload mode"
            );
            run_replay(
                p,
                JsonlSource::from_reader(text.as_bytes()),
                mode == Mode::Spans,
            )
        }
    }
}

fn run_sim<S: WorkloadSource>(p: &Prepared, mut source: S, mode: Mode) -> RunOutput {
    let mut scheduler = p.scheduler();
    match mode {
        Mode::Plain => {
            let start = Instant::now();
            let report = try_run_simulation_streamed(
                &mut source,
                &mut scheduler,
                &p.cluster,
                &p.config,
                None,
            );
            let wall_s = start.elapsed().as_secs_f64();
            RunOutput::of(report.expect(VALID), wall_s)
        }
        Mode::Spans => {
            let origin = Instant::now();
            let mut scheduler = TimedScheduler::new(scheduler, origin, false);
            let mut pulled = SourceRecord::new(origin);
            let mut source = TimedSource::new(source, &mut pulled);
            let start = Instant::now();
            let report = try_run_simulation_streamed(
                &mut source,
                &mut scheduler,
                &p.cluster,
                &p.config,
                None,
            );
            let wall_s = start.elapsed().as_secs_f64();
            let (scheduler, counts, _) = scheduler.finish();
            RunOutput {
                spans: Some(RunSpans {
                    scheduler,
                    counts,
                    source: pulled,
                    gate: None,
                }),
                ..RunOutput::of(report.expect(VALID), wall_s)
            }
        }
        Mode::Observed => {
            let config = SimConfig {
                observability: ObservabilityConfig {
                    trace: true,
                    metrics: true,
                    ..ObservabilityConfig::default()
                },
                ..p.config.clone()
            };
            let mut sink = MemorySink::new();
            let start = Instant::now();
            let result = try_run_simulation_streamed_observed(
                &mut source,
                &mut scheduler,
                &p.cluster,
                &config,
                None,
                Some(&mut sink),
            );
            let wall_s = start.elapsed().as_secs_f64();
            let decisions = sink
                .records()
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::SchedulerPick { .. }))
                .count() as u64;
            RunOutput {
                observed: Some((sink.records().len() as u64, decisions)),
                ..RunOutput::of(result.expect(VALID).0, wall_s)
            }
        }
    }
}

/// `serve_stream` phase `replay`: the finite JSONL stream through
/// `run_service` on the sim clock — unpaced saturation of source →
/// `ArrivalBuffer` → gate → plan → schedule. The buffer holds the whole
/// stream: a finite source is read ahead, and the default 1 024 would
/// shed most of it.
fn run_replay<S: WorkloadSource + SourceDiagnostics>(
    p: &Prepared,
    source: S,
    spans: bool,
) -> RunOutput {
    let serve = ServeConfig {
        clock: ClockMode::Sim,
        buffer: p.specs.len().max(1024),
        ..ServeConfig::default()
    };
    let mut scheduler = p.scheduler();
    let mut gate = p.gate().expect("serve_stream has a gate");
    if !spans {
        let start = Instant::now();
        let outcome = run_service(
            source,
            None,
            &mut scheduler,
            &p.cluster,
            &p.config,
            Some(&mut gate),
            None,
            &serve,
        );
        let wall_s = start.elapsed().as_secs_f64();
        return RunOutput::of_service(outcome.expect(VALID), wall_s);
    }
    let origin = Instant::now();
    let mut scheduler = TimedScheduler::new(scheduler, origin, false);
    let mut gate = TimedGate::new(gate, origin);
    let mut pulled = SourceRecord::new(origin);
    let source = TimedSource::new(source, &mut pulled);
    let start = Instant::now();
    let outcome = run_service(
        source,
        None,
        &mut scheduler,
        &p.cluster,
        &p.config,
        Some(&mut gate),
        None,
        &serve,
    );
    let wall_s = start.elapsed().as_secs_f64();
    let (scheduler, counts, _) = scheduler.finish();
    RunOutput {
        spans: Some(RunSpans {
            scheduler,
            counts,
            source: pulled,
            gate: Some(gate.finish()),
        }),
        ..RunOutput::of_service(outcome.expect(VALID), wall_s)
    }
}

fn service_bits(outcome: &ServiceOutcome) -> ServiceBits {
    ServiceBits {
        arrivals: outcome.arrivals,
        shed: outcome.shed,
        depth_peak: outcome.depth_peak,
        lag_peak_ms: outcome.lag_peak_ms,
        source_error: outcome.source_error.clone(),
    }
}

/// What the paced phase measured.
pub struct PacedOutput {
    pub report: SimReport,
    pub service: ServiceBits,
    pub submitted: u64,
    pub wall_s: f64,
    /// Submit → plan latency per planned arrival, from its due instant.
    pub latencies: Vec<Duration>,
    /// How late the generator sent each arrival.
    pub lateness: Vec<Duration>,
    /// Arrivals never planned or planned after [`PACED_SLO`].
    pub slo_miss: u64,
    pub rejected: u64,
}

/// `serve_stream` phase `paced`: one producer thread, open loop, one
/// arrival every 4 ms of host time through a `ChannelSource` into the
/// wall-clock service. Latency is timed from each arrival's *due* instant
/// to the return of the decorated `on_workflow_submitted`, paired by
/// workflow name.
pub fn run_paced(p: &Prepared, seed: u64) -> PacedOutput {
    let count = paced_count(p.smoke);
    let specs = serve_specs(seed, count, PACED_SPACING);
    let interval = Duration::from_secs_f64(PACED_SPACING.as_secs_f64() / PACED_SPEEDUP);
    let start = Instant::now();
    let mut scheduler = TimedScheduler::new(p.scheduler(), start, true);
    let mut gate = TimedGate::new(p.gate().expect("serve_stream has a gate"), start);
    let (tx, source) = ChannelSource::pair();
    let serve = ServeConfig {
        clock: ClockMode::Wall {
            speedup: PACED_SPEEDUP,
            poll: Duration::from_millis(1),
        },
        buffer: count.max(1024),
        shutdown: ShutdownConfig {
            // Backstop only: dropping the sender ends the feed.
            idle_timeout: Some(Duration::from_secs(5)),
            ..ShutdownConfig::default()
        },
        ..ServeConfig::default()
    };
    // The schedule starts a little ahead so the service is polling before
    // the first arrival is due.
    let first_due = start + Duration::from_millis(20);
    let names: Vec<String> = specs.iter().map(|s| s.name().to_string()).collect();
    let producer = std::thread::spawn(move || produce(tx, specs, first_due, interval));
    let outcome = run_service(
        source,
        None,
        &mut scheduler,
        &p.cluster,
        &p.config,
        Some(&mut gate),
        None,
        &serve,
    );
    let wall_s = start.elapsed().as_secs_f64();
    let lateness = producer.join().expect("producer thread finishes");
    let outcome = outcome.expect(VALID);
    let (_, _, planned) = scheduler.finish();
    let (_, rejected) = gate.finish();

    let due_of: std::collections::HashMap<&str, Instant> = names
        .iter()
        .enumerate()
        .map(|(i, name)| (name.as_str(), first_due + interval * i as u32))
        .collect();
    let latencies: Vec<Duration> = planned
        .iter()
        .map(|(name, at)| at.saturating_duration_since(due_of[name.as_str()]))
        .collect();
    let within = latencies.iter().filter(|&&l| l <= PACED_SLO).count() as u64;
    PacedOutput {
        service: service_bits(&outcome),
        report: outcome.report,
        submitted: count as u64,
        wall_s,
        latencies,
        lateness,
        slo_miss: count as u64 - within,
        rejected,
    }
}

/// The open-loop producer: sends arrival `i` at `first_due + i × interval`
/// whatever the service is doing, and returns how late each send ran.
fn produce(
    tx: Sender<WorkflowSpec>,
    specs: Vec<WorkflowSpec>,
    first_due: Instant,
    interval: Duration,
) -> Vec<Duration> {
    let mut lateness = Vec::with_capacity(specs.len());
    for (i, spec) in specs.into_iter().enumerate() {
        let due = first_due + interval * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lateness.push(Instant::now().saturating_duration_since(due));
        if tx.send(spec).is_err() {
            break;
        }
    }
    lateness
}

/// Operations that failed in one run: workflows unfinished at run end,
/// shed, rejected, and assignments the driver refused.
pub fn failed_operations(p: &Prepared, out: &RunOutput) -> u64 {
    failures(p.specs.len() as u64, &out.report)
}

pub fn failures(submitted: u64, report: &SimReport) -> u64 {
    // A shed or rejected workflow never produces an outcome, so
    // "unfinished" already counts it.
    let finished = report
        .outcomes
        .iter()
        .filter(|o| o.finished.is_some())
        .count() as u64;
    submitted.saturating_sub(finished) + report.invalid_assignments
}

/// Checks one run's outputs; returns what is wrong with them.
pub fn check(p: &Prepared, out: &RunOutput) -> Vec<String> {
    let mut wrong = Vec::new();
    let report = &out.report;
    let n = p.specs.len() as u64;
    if !report.completed {
        wrong.push("report.completed is false".to_string());
    }
    if report.invalid_assignments != 0 {
        wrong.push(format!(
            "{} invalid assignments",
            report.invalid_assignments
        ));
    }
    if report.outcomes.len() as u64 != n {
        wrong.push(format!(
            "{} outcomes for {n} workflows",
            report.outcomes.len()
        ));
    }
    // Faults re-execute lost work, so the task count is a floor there.
    let exact = !p.cluster.faults().enabled();
    if report.tasks_executed < p.expected_tasks
        || (exact && report.tasks_executed != p.expected_tasks)
    {
        wrong.push(format!(
            "{} tasks executed, inputs hold {}",
            report.tasks_executed, p.expected_tasks
        ));
    }
    if let Some(service) = &out.service {
        if service.shed != 0 || service.arrivals != n {
            wrong.push(format!(
                "replay planned {} of {n}, shed {}",
                service.arrivals, service.shed
            ));
        }
        if let Some(err) = &service.source_error {
            wrong.push(format!("source error: {err}"));
        }
    }
    let failed = failed_operations(p, out);
    if failed != 0 {
        wrong.push(format!("{failed} failed operations"));
    }
    wrong
}
