//! The repo's benchmark: four seeded workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a traced run, correctness checks
//! on every run. See `benchmark/README.md`.
//!
//! Two ways in, both through `benchmark/run.sh`:
//!
//! - `--workload <name> --seed <n> --seconds <s> --trace <0|1>` measures
//!   one workload in this process and prints, as the last line, one JSON
//!   object `{correct, attempted, failed, metrics}` (the driver contract);
//! - without `--workload`, the binary re-executes itself once per
//!   workload and trace setting (so peak RSS and allocator state are per
//!   workload), prints every metric, and writes `out/results.json`.

mod direct;
mod layers;
mod orchestrate;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde::Value;
use woha_sim::SimReport;

use crate::spans::obj;
use crate::stats::median;
use crate::workloads::{check, failed_operations, prepare, run, Mode, Workload, DEFAULT_SEED};

/// Fewest repetitions per process, whatever `--seconds` says.
const MIN_REPS: usize = 3;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub verify: bool,
    /// Where `*.trace.json` and `results.json` go.
    pub out: PathBuf,
    /// `BENCHMARK.json`, for the bounds `--verify` applies.
    pub spec: PathBuf,
    /// Seconds `run.sh` spent in `cargo build`, reported as
    /// `bench.build_s`.
    pub build_s: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        smoke: false,
        verify: false,
        out: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
        build_s: 0.0,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = parse(&flag, &value()?)?,
            "--seconds" => seconds = Some(parse(&flag, &value()?)?),
            "--trace" => args.trace = parse::<u8>(&flag, &value()?)? != 0,
            "--out" => args.out = PathBuf::from(value()?),
            "--spec" => args.spec = PathBuf::from(value()?),
            "--build-s" => args.build_s = parse(&flag, &value()?)?,
            "--smoke" => args.smoke = true,
            "--verify" => args.verify = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.smoke { 0.5 } else { 20.0 });
    Ok(args)
}

fn parse<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse {text:?}"))
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload process reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; empty means correct.
    pub wrong: Vec<String>,
    /// Digest of the canonical report, for comparing commits by eye.
    pub digest: String,
}

/// Canonical JSON of a report: `scheduler_nanos`, its one wall-clock
/// field, zeroed.
pub fn canonical_json(report: &SimReport) -> String {
    let mut canonical = report.clone();
    canonical.scheduler_nanos = 0;
    serde_json::to_string(&canonical).expect("report serializes")
}

/// FNV-1a over the canonical report JSON, as 16 hex digits.
pub fn digest(canonical: &str) -> String {
    let hash = canonical.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The fastest of the samples. A run is deterministic and single-threaded,
/// so on a shared host interference only ever adds time: the minimum
/// estimates the undisturbed cost, where the median follows the
/// neighbours' load (a 90 s series of identical `deep_queue` runs read
/// 3.1–5.0 s; over three windows of it the medians spread 14 %, the
/// minima 4 %).
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The untraced run: nothing wrapped. Each repetition sets up afresh and
/// then runs, so set-up and run samples are both spread over the whole of
/// `--seconds`; the fastest of each is reported.
fn end_to_end(workload: Workload, args: &Args) -> Outcome {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut wrong = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<(String, SimReport)> = None;
    let start = Instant::now();
    loop {
        let setup_start = Instant::now();
        let p = prepare(workload, args.seed, args.smoke);
        setups.push(setup_start.elapsed().as_secs_f64());

        let out = run(&p, Mode::Plain);
        walls.push(out.wall_s);
        attempted += p.specs.len() as u64;
        failed += failed_operations(&p, &out);
        wrong.extend(check(&p, &out));
        let canonical = canonical_json(&out.report);
        match &first {
            None => first = Some((canonical, out.report)),
            Some((expected, _)) if *expected != canonical => {
                wrong.push(format!("run {} differs from run 1", walls.len()));
            }
            Some(_) => {}
        }
        // Stop before a repetition that would overshoot `--seconds`.
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= MIN_REPS && elapsed + elapsed / walls.len() as f64 > args.seconds {
            break;
        }
    }
    let (canonical, report) = first.expect("at least one run");
    let wall_s = fastest(&walls);
    let completed = report
        .outcomes
        .iter()
        .filter(|o| o.finished.is_some())
        .count();

    println!("  runs {}  walls_s {walls:.4?}", walls.len());
    println!("  wall_s_median {} s", median(&walls));
    println!("  setup_s_median {} s", median(&setups));
    println!("  sim_end_s {} s(sim)", report.end_time.as_secs_f64());
    println!("  deadline_miss_ratio {} ratio(sim)", report.miss_ratio());
    println!(
        "  total_tardiness_s {} s(sim)",
        report.total_tardiness().as_secs_f64()
    );
    Outcome {
        metrics: vec![
            metric("setup_s", fastest(&setups), "s"),
            metric("wall_s", wall_s, "s"),
            metric(
                "events_per_s",
                report.events_processed as f64 / wall_s,
                "1/s",
            ),
            metric("workflows_per_s", completed as f64 / wall_s, "1/s"),
            metric("peak_rss_mb", peak_rss_mib(), "MiB"),
            metric("deadline_met_ratio", 1.0 - report.miss_ratio(), "ratio"),
        ],
        attempted,
        failed,
        wrong,
        digest: digest(&canonical),
    }
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ];
                (m.name.clone(), obj(fields))
            })
            .collect(),
    )
}

/// Measures one workload in this process and prints the contract's
/// result line last.
fn run_workload(workload: Workload, args: &Args) -> ExitCode {
    println!(
        "workload {} seed {} trace {} smoke {}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        args.smoke
    );
    let outcome = if args.trace {
        layers::per_layer(workload, args)
    } else {
        end_to_end(workload, args)
    };
    for m in &outcome.metrics {
        println!("  {} {} {}", m.name, m.value, m.unit);
    }
    println!("  report_digest {}", outcome.digest);
    for problem in &outcome.wrong {
        println!("  INCORRECT: {problem}");
    }
    let line = obj(vec![
        ("correct", Value::Bool(outcome.wrong.is_empty())),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        ("metrics", metrics_value(&outcome.metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    if outcome.wrong.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("woha-benchmark: {message}");
            return ExitCode::from(64);
        }
    };
    match &args.workload {
        Some(name) => match Workload::from_name(name) {
            Some(workload) => run_workload(workload, &args),
            None => {
                eprintln!("woha-benchmark: unknown workload {name}");
                ExitCode::from(64)
            }
        },
        None => orchestrate::run_all(&args),
    }
}
