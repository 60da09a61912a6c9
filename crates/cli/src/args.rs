//! Argument parsing for `woha-cli`, dependency-free.
//!
//! Every flag is one [`Flag`] row in its subcommand's table. The tables
//! feed the scan loop (which flags exist, which take a value), the typed
//! getters (which look a flag up by name) and [`usage`] (which prints the
//! rows), so a flag cannot be parsed without being documented or
//! documented without being parsed.

use std::fmt;
use std::str::FromStr;
use woha_bench::SchedulerKind;
use woha_core::{CapMode, PriorityPolicy};
use woha_model::{config::parse_duration, SimDuration, SimTime};
use woha_serve::{ClockMode, ServeConfig, ShutdownConfig};
use woha_sim::{
    ClusterConfig, FaultConfig, MasterFaultConfig, ObservabilityConfig, PredictionConfig, SimConfig,
};

/// A parsed command line.
// One Command exists per process, so the size skew between `Simulate`
// (which carries the whole cluster/fault/observability config) and the
// small variants costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `woha-cli validate <workflow.xml>...`
    Validate {
        /// Workflow files.
        workflows: Vec<WorkflowArg>,
    },
    /// `woha-cli plan <workflow.xml> [OPTIONS]`
    Plan {
        /// The workflow file.
        workflow: WorkflowArg,
        /// Cluster capacity in slots.
        slots: u32,
        /// Job prioritization policy.
        policy: PriorityPolicy,
        /// Cap mode.
        cap: CapMode,
    },
    /// `woha-cli simulate <workflow.xml[@release]>... [OPTIONS]`
    Simulate(SimulateOptions),
    /// `woha-cli serve --follow <path> [OPTIONS]`
    Serve(ServeOptions),
    /// `woha-cli help`
    Help,
}

/// What `simulate` and `serve` both take: the cluster, the scheduler, the
/// admission switch, and where the run's output goes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Cluster shape, with any rack topology and fault config attached.
    pub cluster: ClusterConfig,
    /// The schedulers to run: one, or all six for `--scheduler all`.
    pub schedulers: Vec<SchedulerKind>,
    /// Screen each arriving workflow through the demand-bound admission
    /// test before it enters the cluster.
    pub admission: bool,
    /// Write the scheduling decision loop trace to this path.
    pub trace_out: Option<String>,
    /// Write the run's metrics in Prometheus text format to this path.
    pub metrics_out: Option<String>,
    /// Emit machine-readable JSON instead of a table.
    pub json: bool,
}

impl RunOptions {
    /// The observability switches the output flags imply.
    pub fn observability(&self, sample_interval: Option<SimDuration>) -> ObservabilityConfig {
        ObservabilityConfig {
            trace: self.trace_out.is_some(),
            metrics: self.metrics_out.is_some(),
            sample_interval,
            ..ObservabilityConfig::default()
        }
    }
}

/// Everything `simulate` was asked for. Node-fault, rack and master-fault
/// flags are already folded into `run.cluster`; jitter, seed, batching,
/// prediction and the observability switches into `config`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateOptions {
    /// The flags shared with `serve`.
    pub run: RunOptions,
    /// Workflow files with optional release offsets.
    pub workflows: Vec<WorkflowArg>,
    /// Stream the workload from a JSONL arrival file instead of
    /// workflow XML files.
    pub arrivals: Option<String>,
    /// Driver knobs.
    pub config: SimConfig,
    /// Worker threads for the `--scheduler all` comparison sweep
    /// (0 = available parallelism; ignored for a single scheduler,
    /// and results are identical for any value).
    pub jobs: usize,
    /// Proactively pad WOHA plan budgets by the expected rework
    /// fraction derived from the cluster MTBF.
    pub pad_plans: bool,
    /// Trace file format for `--trace-out`.
    pub trace_format: TraceFormat,
}

/// Everything `serve` was asked for: run the scheduler as a long-lived
/// service over a growing JSONL arrival feed (a file being appended to, or
/// a directory of rotated files). See [`woha_serve`] for the architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// The flags shared with `simulate` (a single scheduler; admission
    /// defaults on: a live service should protect itself).
    pub run: RunOptions,
    /// JSONL file or directory of `*.jsonl` files to tail.
    pub follow: String,
    /// Tenant admission config file (TOML subset; see
    /// `woha_core::admission`); takes the place of `run.admission`.
    pub tenants: Option<String>,
    /// Clock mode, arrival buffer, watermarks and shutdown conditions.
    pub service: ServeConfig,
}

/// Trace export format selected by `--trace-format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (buffered; open in Perfetto).
    #[default]
    Chrome,
    /// JSON Lines, one record per line, streamed to the file as the run
    /// progresses.
    Jsonl,
}

/// A workflow file plus its release offset (`file.xml@5m`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkflowArg {
    /// Path to the XML file.
    pub path: String,
    /// Submission time.
    pub release: SimTime,
}

/// `Ok` when a validation holds, its message for the user when not.
fn ensure(ok: bool, msg: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg.to_string())
    }
}

/// One command-line flag, declared once: the scan loop accepts it, the
/// getters look it up by `name`, and [`usage`] prints it.
struct Flag {
    /// The spelling, dashes included.
    name: &'static str,
    /// Placeholder for the value it takes; `None` for a switch.
    metavar: Option<&'static str>,
    /// What it does, its default, and what it needs; [`usage`] wraps it.
    help: &'static str,
}

const fn valued(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        metavar: Some(metavar),
        help,
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        metavar: None,
        help,
    }
}

/// One subcommand: how `usage` introduces it, the flag tables it accepts,
/// and the function that turns a scanned argument list into a [`Command`].
struct Subcommand {
    name: &'static str,
    operands: &'static str,
    about: &'static str,
    flags: &'static [&'static [Flag]],
    /// How many positional operands it accepts.
    max_operands: usize,
    parse: fn(&Scanned) -> Result<Command, String>,
}

impl Subcommand {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().copied().flatten()
    }
}

static SUBCOMMANDS: [Subcommand; 5] = [
    Subcommand {
        name: "validate",
        operands: "<workflow.xml>...",
        about: "Parse and validate workflow configuration files; print the derived \
                job DAG and summary statistics.",
        flags: &[],
        max_operands: usize::MAX,
        parse: validate_command,
    },
    Subcommand {
        name: "plan",
        operands: "<workflow.xml> [OPTIONS]",
        about: "Generate the client-side scheduling plan (Algorithm 1 + resource-cap \
                binary search) and print its progress requirement list.",
        flags: &[PLAN_FLAGS],
        max_operands: 1,
        parse: plan_command,
    },
    Subcommand {
        name: "simulate",
        operands: "<workflow.xml[@release]>... [OPTIONS]",
        about: "Run the workflows on a simulated Hadoop cluster. Releases are \
                durations like 5m or 30s (default 0).",
        flags: &[RUN_FLAGS, SIMULATE_FLAGS],
        max_operands: usize::MAX,
        parse: simulate_command,
    },
    Subcommand {
        name: "serve",
        operands: "--follow <path> [OPTIONS]",
        about: "Run the scheduler as a long-lived service: tail a growing JSONL \
                arrival feed, admit workflows per tenant, and execute them on the \
                simulated cluster in real time (--wall-clock) or as a deterministic \
                replay (default).",
        flags: &[RUN_FLAGS, SERVE_FLAGS],
        max_operands: 0,
        parse: serve_command,
    },
    Subcommand {
        name: "help",
        operands: "",
        about: "Print this text.",
        flags: &[],
        max_operands: usize::MAX,
        parse: |_| Ok(Command::Help),
    },
];

const PLAN_FLAGS: &[Flag] = &[
    valued(
        "--slots",
        "N",
        "cluster capacity in slots the plan is generated against (default 96)",
    ),
    valued(
        "--policy",
        "P",
        "job prioritization policy: hlf | lpf | mpf (default lpf)",
    ),
    valued(
        "--cap",
        "MODE",
        "resource cap: min (the smallest cap that meets the deadline) | full \
         (uncapped) | <N> (default min)",
    ),
];

/// The flags `simulate` and `serve` share, read by [`run_options`].
const RUN_FLAGS: &[Flag] = &[
    valued(
        "--cluster",
        "NxMxR",
        "N slaves with M map + R reduce slots (default 8x2x1)",
    ),
    valued(
        "--scheduler",
        "NAME",
        "woha-lpf | woha-hlf | woha-mpf | fifo | fair | edf (default woha-lpf); \
         simulate also takes all, which runs and compares the six",
    ),
    valued(
        "--admission",
        "MODE",
        "off | necessary: screen each arriving workflow through the demand-bound \
         admission test; rejected workflows never run and are counted per reason in \
         the report (default: off for simulate; necessary for serve, where a \
         --tenants file takes its place)",
    ),
    valued(
        "--trace-out",
        "FILE",
        "record the scheduling decision loop and write it to this file (simulate: \
         in the format set by --trace-format; serve: streamed as JSONL)",
    ),
    valued(
        "--metrics-out",
        "FILE",
        "record scheduler metrics (counters, histograms, sampled gauges; under \
         serve also service queue depth, lag and shed counters) and write them in \
         the Prometheus text exposition format when the run ends",
    ),
    switch("--json", "machine-readable output"),
];

const SIMULATE_FLAGS: &[Flag] = &[
    valued("--jitter", "F", "task duration jitter fraction (default 0)"),
    valued("--seed", "N", "jitter/failure seed (default 0)"),
    valued(
        "--jobs",
        "N",
        "worker threads for the --scheduler all sweep (default 0 = available \
         parallelism; results are identical for any N)",
    ),
    valued("--failures", "P", "task failure probability (default 0)"),
    valued(
        "--mtbf",
        "D",
        "mean time between node crashes, e.g. 30m (default: no node faults)",
    ),
    valued(
        "--mttr",
        "D",
        "mean node repair time (default 5m; needs --mtbf)",
    ),
    valued(
        "--detect-missed",
        "N",
        "missed heartbeats before a node is declared lost (default 2; needs --mtbf)",
    ),
    valued(
        "--blacklist-after",
        "N",
        "crashes before a node is blacklisted (default 0 = never; needs --mtbf)",
    ),
    valued(
        "--racks",
        "N",
        "split the nodes into N racks of contiguous, balanced blocks; multi-rack \
         clusters place HDFS-style replica sets spanning two racks (default 1 = \
         flat, the legacy placement)",
    ),
    valued(
        "--rack-mtbf",
        "D",
        "mean time between correlated rack-switch failures, per rack; a switch \
         failure takes the whole rack down atomically (needs --racks >= 2)",
    ),
    valued(
        "--rack-mttr",
        "D",
        "mean rack-switch repair time (default: --mttr's value; needs --rack-mtbf)",
    ),
    valued(
        "--reshuffle-cost",
        "D",
        "extra duration charged to each reduce launch per map output lost to a \
         node failure, e.g. 5s (default 0 = free re-fetch; needs --mtbf or \
         --rack-mtbf)",
    ),
    switch(
        "--predict-failures",
        "track a decaying per-node failure-propensity score from the injected \
         fault history and report it (needs --mtbf)",
    ),
    switch(
        "--pad-plans",
        "inflate WOHA plan budgets by the expected rework fraction (cluster MTBF x \
         remaining work) so plans front-load slack for failures (needs --mtbf)",
    ),
    switch(
        "--risk-placement",
        "decline risky nodes for deadline-critical tasks and preemptively \
         speculate attempts running on them (needs --predict-failures)",
    ),
    valued(
        "--adaptive-blacklist",
        "T",
        "blacklist a node once its propensity score reaches T, replacing the fixed \
         --blacklist-after count (needs --predict-failures)",
    ),
    valued(
        "--master-mtbf",
        "D",
        "mean time between master (JobTracker) crashes (default: no master faults)",
    ),
    valued(
        "--scripted-master-crash",
        "T",
        "crash the master at time T, e.g. 90s; repeatable; overrides --master-mtbf \
         crash timing",
    ),
    valued(
        "--master-mttr",
        "D",
        "mean master restart time (default 1m; needs --master-mtbf or \
         --scripted-master-crash)",
    ),
    valued(
        "--checkpoint-interval",
        "D",
        "master checkpoint period (default 5m; needs a master-fault flag)",
    ),
    switch(
        "--no-wal",
        "disable the master write-ahead log: recover from the last checkpoint \
         alone (needs a master-fault flag)",
    ),
    valued(
        "--arrivals",
        "FILE",
        "stream the workload from a JSONL arrival file (one workflow per line, as \
         written by woha_trace::to_jsonl) instead of workflow XML files; lines are \
         pulled lazily as simulated time reaches their submission times",
    ),
    valued(
        "--trace-format",
        "F",
        "chrome | jsonl (default chrome): chrome buffers the run and writes Chrome \
         trace-event JSON (open at https://ui.perfetto.dev); jsonl streams one \
         record per line as the run progresses (needs --trace-out)",
    ),
    valued(
        "--obs-sample-interval",
        "D",
        "gauge sampling interval for --metrics-out, e.g. 5s (default 10s)",
    ),
];

const SERVE_FLAGS: &[Flag] = &[
    valued(
        "--follow",
        "PATH",
        "JSONL file being appended to, or a directory whose *.jsonl files are \
         consumed in name order (log-rotation convention); required",
    ),
    valued(
        "--tenants",
        "FILE",
        "per-tenant admission config (policy, in-flight caps, slot budgets, \
         weights); workflow names are namespaced as tenant/name",
    ),
    switch(
        "--wall-clock",
        "pace events against real time; without it the feed is replayed \
         deterministically and the run ends when the feed stops growing",
    ),
    valued(
        "--speedup",
        "F",
        "sim seconds per real second (default 1; needs --wall-clock)",
    ),
    valued(
        "--poll-interval",
        "D",
        "wall-clock poll slice, bounding arrival and shutdown latency (default \
         20ms; needs --wall-clock)",
    ),
    valued("--buffer", "N", "arrival buffer capacity (default 1024)"),
    valued(
        "--high",
        "N",
        "shed arrivals at this queue depth (default: the buffer capacity)",
    ),
    valued(
        "--low",
        "N",
        "stop shedding once drained to this depth (default: half of --high)",
    ),
    valued(
        "--stop-file",
        "PATH",
        "shut down cleanly when this file appears (touch it instead of sending a \
         signal); the feed is drained before exit",
    ),
    valued(
        "--idle-timeout",
        "D",
        "shut down after this long without an arrival",
    ),
    valued(
        "--max-arrivals",
        "N",
        "shut down after N workflows have arrived",
    ),
];

/// Column where flag help starts, and the width it wraps to.
const HELP_COLUMN: usize = 26;
const HELP_WIDTH: usize = 52;

/// Greedy word wrap.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for word in text.split_whitespace() {
        match lines.last_mut() {
            Some(line) if line.len() + 1 + word.len() <= width => {
                line.push(' ');
                line.push_str(word);
            }
            _ => lines.push(word.to_string()),
        }
    }
    lines
}

/// The usage text printed by `help` and on argument errors, rendered from
/// the subcommand and flag tables.
pub fn usage() -> String {
    let mut out = String::from(
        "woha-cli — deadline-aware Map-Reduce workflow scheduling (WOHA, ICDCS 2014)\n\nUSAGE:\n",
    );
    for (i, sub) in SUBCOMMANDS.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(format!("  woha-cli {} {}", sub.name, sub.operands).trim_end());
        out.push('\n');
        for line in wrap(sub.about, HELP_COLUMN + HELP_WIDTH - 6) {
            out.push_str(&format!("      {line}\n"));
        }
        if sub.flags().next().is_some() {
            out.push('\n');
        }
        for flag in sub.flags() {
            let head = format!("      {} {}", flag.name, flag.metavar.unwrap_or(""));
            // A head that reaches the help column gets a line of its own.
            if head.trim_end().len() < HELP_COLUMN {
                out.push_str(&format!("{head:<HELP_COLUMN$}"));
            } else {
                out.push_str(&format!("{}\n{:HELP_COLUMN$}", head.trim_end(), ""));
            }
            out.push_str(&wrap(flag.help, HELP_WIDTH).join(&format!("\n{:HELP_COLUMN$}", "")));
            out.push('\n');
        }
    }
    out
}

/// What one subcommand's argument list held: the positional operands and
/// every `(flag, value)` occurrence, both in command-line order.
struct Scanned<'a> {
    sub: &'static Subcommand,
    operands: Vec<&'a str>,
    given: Vec<(&'static Flag, &'a str)>,
}

/// The one scan loop: accepts `--flag value` and `--flag=value`, and
/// rejects an unknown flag, a missing value, a value handed to a switch,
/// and a positional operand the subcommand has no place for.
fn scan<'a>(sub: &'static Subcommand, args: &'a [String]) -> Result<Scanned<'a>, String> {
    let mut scanned = Scanned {
        sub,
        operands: Vec::new(),
        given: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            if scanned.operands.len() == sub.max_operands {
                return Err(format!("unexpected argument {arg:?}"));
            }
            scanned.operands.push(arg);
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let flag = sub
            .flags()
            .find(|f| f.name == name)
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let value = match (flag.metavar, inline) {
            (Some(_), Some(value)) => value,
            (Some(_), None) => it.next().ok_or_else(|| format!("{name} needs a value"))?,
            (None, None) => "",
            (None, Some(_)) => return Err(format!("{name} takes no value")),
        };
        scanned.given.push((flag, value));
    }
    Ok(scanned)
}

/// Typed getters over the scanned flags. A scalar flag given twice keeps
/// its last value, but every occurrence must parse. Asking for a flag the
/// subcommand's tables do not declare is a bug in this file and panics.
impl<'a> Scanned<'a> {
    fn raw(&self, name: &'static str) -> impl Iterator<Item = &'a str> + '_ {
        assert!(
            self.sub.flags().any(|f| f.name == name),
            "{name} is not declared for {}",
            self.sub.name
        );
        self.given
            .iter()
            .filter(move |(flag, _)| flag.name == name)
            .map(|&(_, raw)| raw)
    }

    /// Whether the flag was given at all: a switch is on, a valued flag
    /// is present.
    fn given(&self, name: &'static str) -> bool {
        self.raw(name).next().is_some()
    }

    /// Fails when any of `dependents` is given and none of `required` is.
    /// By presence, not value: `--speedup 1` needs `--wall-clock` as much
    /// as `--speedup 2` does.
    fn needs(&self, dependents: &[&'static str], required: &[&'static str]) -> Result<(), String> {
        let any = |names: &[&'static str]| names.iter().any(|name| self.given(name));
        let message = format!("{} need {}", dependents.join("/"), required.join(" or "));
        ensure(!any(dependents) || any(required), &message)
    }

    fn text(&self, name: &'static str) -> Option<String> {
        self.raw(name).last().map(str::to_string)
    }

    /// Every occurrence of a repeatable flag, parsed, in order.
    fn repeated<T>(
        &self,
        name: &'static str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.raw(name)
            .map(|raw| parse(raw).map_err(|why| format!("bad {name} {raw:?}: {why}")))
            .collect()
    }

    fn value<T>(
        &self,
        name: &'static str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        Ok(self.repeated(name, parse)?.pop())
    }

    fn parsed<T: FromStr>(&self, name: &'static str) -> Result<Option<T>, String>
    where
        T::Err: fmt::Display,
    {
        self.value(name, |raw| raw.parse().map_err(|e: T::Err| e.to_string()))
    }

    /// [`parsed`](Self::parsed), rejecting zero.
    fn positive<T: FromStr + PartialOrd + Default>(
        &self,
        name: &'static str,
    ) -> Result<Option<T>, String>
    where
        T::Err: fmt::Display,
    {
        self.value(name, |raw| match raw.parse::<T>() {
            Ok(n) if n > T::default() => Ok(n),
            Ok(_) => Err("must be positive".to_string()),
            Err(e) => Err(e.to_string()),
        })
    }

    /// A positive duration like `30s` or `5m`.
    fn duration(&self, name: &'static str) -> Result<Option<SimDuration>, String> {
        self.value(name, |raw| match parse_duration(raw) {
            Ok(d) if d.is_zero() => Err("must be positive".to_string()),
            Ok(d) => Ok(d),
            Err(e) => Err(e.to_string()),
        })
    }

    /// One of a fixed set of spellings, case-insensitively.
    fn one_of<T: Copy>(
        &self,
        name: &'static str,
        choices: &[(&str, T)],
    ) -> Result<Option<T>, String> {
        self.value(name, |raw| {
            let hit = choices
                .iter()
                .find(|(spelling, _)| spelling.eq_ignore_ascii_case(raw));
            hit.map(|&(_, value)| value).ok_or_else(|| {
                let all: Vec<&str> = choices.iter().map(|&(s, _)| s).collect();
                format!("expected one of {}", all.join(" | "))
            })
        })
    }
}

fn parse_workflow_arg(raw: &str) -> Result<WorkflowArg, String> {
    match raw.rsplit_once('@') {
        Some((path, release)) if !path.is_empty() => Ok(WorkflowArg {
            path: path.to_string(),
            release: SimTime::ZERO
                + parse_duration(release).map_err(|e| format!("bad release in {raw:?}: {e}"))?,
        }),
        _ => Ok(WorkflowArg {
            path: raw.to_string(),
            release: SimTime::ZERO,
        }),
    }
}

fn workflow_args(s: &Scanned) -> Result<Vec<WorkflowArg>, String> {
    s.operands
        .iter()
        .map(|raw| parse_workflow_arg(raw))
        .collect()
}

fn parse_cluster(raw: &str) -> Result<ClusterConfig, String> {
    let nums: Vec<u32> = raw
        .split('x')
        .map(|part| part.parse().map_err(|_| "expected NxMxR like 32x2x1"))
        .collect::<Result<_, _>>()?;
    match nums[..] {
        [n, m, r] if n > 0 && (m > 0 || r > 0) => Ok(ClusterConfig::uniform(n, m, r)),
        [_, _, _] => Err("empty cluster".to_string()),
        _ => Err("expected NxMxR like 32x2x1".to_string()),
    }
}

fn parse_cap(raw: &str) -> Result<CapMode, String> {
    match raw.to_ascii_lowercase().as_str() {
        "min" => Ok(CapMode::MinFeasible),
        "full" => Ok(CapMode::Uncapped),
        n => match n.parse() {
            Ok(cap) if cap > 0 => Ok(CapMode::Fixed(cap)),
            _ => Err("expected min | full | <N> with N ≥ 1".to_string()),
        },
    }
}

/// Parses a full command line (excluding the program name).
///
/// # Errors
///
/// Returns a user-facing message for any malformed or
/// unknown argument.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (name, rest) = match args.split_first() {
        None => return Ok(Command::Help),
        Some((name, _)) if name == "--help" || name == "-h" => return Ok(Command::Help),
        Some((name, rest)) => (name, rest),
    };
    let sub = SUBCOMMANDS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown command {name:?}; try `woha-cli help`"))?;
    (sub.parse)(&scan(sub, rest)?)
}

fn validate_command(s: &Scanned) -> Result<Command, String> {
    let workflows = workflow_args(s)?;
    ensure(
        !workflows.is_empty(),
        "validate needs at least one workflow file",
    )?;
    Ok(Command::Validate { workflows })
}

fn plan_command(s: &Scanned) -> Result<Command, String> {
    const POLICIES: [(&str, PriorityPolicy); 3] = [
        ("hlf", PriorityPolicy::Hlf),
        ("lpf", PriorityPolicy::Lpf),
        ("mpf", PriorityPolicy::Mpf),
    ];
    Ok(Command::Plan {
        workflow: workflow_args(s)?
            .pop()
            .ok_or("plan needs a workflow file")?,
        slots: s.positive("--slots")?.unwrap_or(96),
        policy: s
            .one_of("--policy", &POLICIES)?
            .unwrap_or(PriorityPolicy::Lpf),
        cap: s.value("--cap", parse_cap)?.unwrap_or(CapMode::MinFeasible),
    })
}

/// Reads [`RUN_FLAGS`]. `--admission` defaults differently for the two
/// subcommands, so the caller says which default applies.
fn run_options(s: &Scanned, admission_default: bool) -> Result<RunOptions, String> {
    // The order `--scheduler all` runs (and prints) them in.
    let all: Vec<SchedulerKind> = SchedulerKind::WOHA
        .into_iter()
        .chain(SchedulerKind::ALL.into_iter().filter(|k| !k.is_woha()))
        .collect();
    Ok(RunOptions {
        cluster: s
            .value("--cluster", parse_cluster)?
            .unwrap_or_else(|| ClusterConfig::uniform(8, 2, 1)),
        schedulers: s
            .value("--scheduler", |raw| {
                if raw.eq_ignore_ascii_case("all") {
                    return Ok(all.clone());
                }
                let one = all.iter().find(|k| k.to_string().eq_ignore_ascii_case(raw));
                one.map(|&k| vec![k]).ok_or_else(|| {
                    let names: Vec<String> = all.iter().map(|k| k.to_string()).collect();
                    format!("expected one of {} | all", names.join(" | ").to_lowercase())
                })
            })?
            .unwrap_or_else(|| vec![SchedulerKind::WohaLpf]),
        admission: s
            .one_of("--admission", &[("off", false), ("necessary", true)])?
            .unwrap_or(admission_default),
        trace_out: s.text("--trace-out"),
        metrics_out: s.text("--metrics-out"),
        json: s.given("--json"),
    })
}

fn simulate_command(s: &Scanned) -> Result<Command, String> {
    let mut run = run_options(s, false)?;
    let workflows = workflow_args(s)?;
    let arrivals = s.text("--arrivals");
    ensure(
        arrivals.is_none() || workflows.is_empty(),
        "--arrivals replaces positional workflow files; pass one or the other",
    )?;
    ensure(
        arrivals.is_some() || !workflows.is_empty(),
        "simulate needs at least one workflow file (or --arrivals)",
    )?;
    let jitter = s.parsed("--jitter")?.unwrap_or(0.0);
    ensure((0.0..1.0).contains(&jitter), "--jitter must be in [0, 1)")?;
    let failures = s.parsed("--failures")?.unwrap_or(0.0);
    ensure(
        (0.0..1.0).contains(&failures),
        "--failures must be in [0, 1)",
    )?;

    // Node faults, and the prediction layer that learns from them.
    let mtbf = s.duration("--mtbf")?;
    let mttr = s.duration("--mttr")?;
    let detect_missed = s.positive::<u32>("--detect-missed")?;
    let blacklist_after = s.parsed::<u32>("--blacklist-after")?;
    let pad_plans = s.given("--pad-plans");
    let adaptive_blacklist = s.parsed::<f64>("--adaptive-blacklist")?;
    s.needs(
        &["--mttr", "--detect-missed", "--blacklist-after"],
        &["--mtbf"],
    )?;
    s.needs(&["--predict-failures", "--pad-plans"], &["--mtbf"])?;
    s.needs(
        &["--risk-placement", "--adaptive-blacklist"],
        &["--predict-failures"],
    )?;
    ensure(
        adaptive_blacklist.is_none_or(|t| t.is_finite() && t > 0.0),
        "--adaptive-blacklist must be positive",
    )?;
    ensure(
        adaptive_blacklist.is_none() || blacklist_after.is_none(),
        "--adaptive-blacklist replaces --blacklist-after; pass one or the other",
    )?;
    let mut faults = FaultConfig::default();
    if let Some(mtbf) = mtbf {
        faults = FaultConfig::with_mtbf(mtbf, mttr.unwrap_or(faults.mttr));
        faults.detect_missed_heartbeats = detect_missed.unwrap_or(faults.detect_missed_heartbeats);
        faults.blacklist_after = blacklist_after.unwrap_or(faults.blacklist_after);
    }

    // Rack topology and correlated rack faults.
    let racks = s.positive::<u32>("--racks")?;
    if let Some(n) = racks {
        let node_count = run.cluster.node_count() as u32;
        if n > node_count {
            return Err(format!(
                "--racks {n} exceeds the cluster's {node_count} nodes"
            ));
        }
        run.cluster = run.cluster.with_racks(n);
    }
    faults.rack_mtbf = s.duration("--rack-mtbf")?;
    faults.rack_mttr = s.duration("--rack-mttr")?;
    ensure(
        faults.rack_mtbf.is_none() || racks.is_some_and(|n| n >= 2),
        "--rack-mtbf needs --racks with at least 2 racks",
    )?;
    s.needs(&["--rack-mttr"], &["--rack-mtbf"])?;
    s.needs(&["--reshuffle-cost"], &["--mtbf", "--rack-mtbf"])?;
    let reshuffle_cost = s.duration("--reshuffle-cost")?;

    // Master faults.
    s.needs(
        &["--master-mttr", "--checkpoint-interval", "--no-wal"],
        &["--master-mtbf", "--scripted-master-crash"],
    )?;
    let defaults = MasterFaultConfig::default();
    let mut scripted = s.repeated("--scripted-master-crash", |raw| {
        parse_duration(raw)
            .map(|d| SimTime::ZERO + d)
            .map_err(|e| e.to_string())
    })?;
    scripted.sort();
    faults.master = MasterFaultConfig {
        mtbf: s.duration("--master-mtbf")?,
        mttr: s.duration("--master-mttr")?.unwrap_or(defaults.mttr),
        checkpoint_interval: s
            .duration("--checkpoint-interval")?
            .unwrap_or(defaults.checkpoint_interval),
        wal: !s.given("--no-wal"),
        scripted,
    };
    if faults.enabled() || faults.master.enabled() {
        run.cluster = run.cluster.with_faults(faults);
    }

    s.needs(&["--obs-sample-interval"], &["--metrics-out"])?;
    s.needs(&["--trace-format"], &["--trace-out"])?;
    const FORMATS: [(&str, TraceFormat); 2] = [
        ("chrome", TraceFormat::Chrome),
        ("jsonl", TraceFormat::Jsonl),
    ];
    Ok(Command::Simulate(SimulateOptions {
        workflows,
        arrivals,
        config: SimConfig {
            duration_jitter: jitter,
            task_failure_prob: failures,
            seed: s.parsed("--seed")?.unwrap_or(0),
            prediction: s.given("--predict-failures").then(|| PredictionConfig {
                risk_placement: s.given("--risk-placement"),
                adaptive_blacklist,
                ..PredictionConfig::default()
            }),
            reshuffle_cost: reshuffle_cost.unwrap_or(SimDuration::ZERO),
            observability: run.observability(s.duration("--obs-sample-interval")?),
            ..SimConfig::default()
        },
        jobs: s.parsed("--jobs")?.unwrap_or(0),
        pad_plans,
        trace_format: s.one_of("--trace-format", &FORMATS)?.unwrap_or_default(),
        run,
    }))
}

fn serve_command(s: &Scanned) -> Result<Command, String> {
    let run = run_options(s, true)?;
    ensure(
        run.schedulers.len() == 1,
        "serve runs a single scheduler, not --scheduler all",
    )?;
    let follow = s.text("--follow").ok_or("serve needs --follow <path>")?;
    let to_real = |d: SimDuration| std::time::Duration::from_millis(d.as_millis());
    let wall_clock = s.given("--wall-clock");
    s.needs(&["--speedup", "--poll-interval"], &["--wall-clock"])?;
    let speedup = s.parsed::<f64>("--speedup")?.unwrap_or(1.0);
    ensure(
        speedup.is_finite() && speedup > 0.0,
        "--speedup must be positive",
    )?;
    let poll = s
        .duration("--poll-interval")?
        .unwrap_or(SimDuration::from_millis(20));
    let buffer = s.positive("--buffer")?.unwrap_or(1024);
    let high = s.parsed::<usize>("--high")?;
    let low = s.parsed::<usize>("--low")?;
    // Either watermark alone implies the other: `--high` defaults to the
    // buffer capacity, `--low` to half of `--high`.
    let watermarks = (high.is_some() || low.is_some()).then(|| {
        let high = high.unwrap_or(buffer);
        (high, low.unwrap_or(high / 2))
    });
    ensure(
        low.is_none() || watermarks.is_some_and(|(high, low)| low < high),
        "--low must be below --high",
    )?;
    Ok(Command::Serve(ServeOptions {
        run,
        follow,
        tenants: s.text("--tenants"),
        service: ServeConfig {
            clock: if wall_clock {
                ClockMode::Wall {
                    speedup,
                    poll: to_real(poll),
                }
            } else {
                ClockMode::Sim
            },
            buffer,
            watermarks,
            shutdown: ShutdownConfig {
                stop_file: s.text("--stop-file").map(Into::into),
                idle_timeout: s.duration("--idle-timeout")?.map(to_real),
                max_arrivals: s.positive("--max-arrivals")?,
                ..ShutdownConfig::default()
            },
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use woha_model::SlotKind;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn simulate(list: &[&str]) -> SimulateOptions {
        match parse(&args(&[&["simulate"], list].concat())).unwrap() {
            Command::Simulate(options) => options,
            other => panic!("{other:?}"),
        }
    }

    fn serve(list: &[&str]) -> ServeOptions {
        match parse(&args(&[&["serve"], list].concat())).unwrap() {
            Command::Serve(options) => options,
            other => panic!("{other:?}"),
        }
    }

    /// Every `--flag` token in `text`.
    fn flags_named_in(text: &str) -> BTreeSet<&str> {
        let is_flag_char = |c: char| c.is_ascii_lowercase() || c == '-';
        text.match_indices("--")
            .filter(|&(at, _)| !text[..at].ends_with(is_flag_char))
            .map(|(at, _)| {
                let rest = &text[at..];
                rest[..rest.find(|c| !is_flag_char(c)).unwrap_or(rest.len())].trim_end_matches('-')
            })
            .filter(|flag| flag.len() > 2)
            .collect()
    }

    #[test]
    fn every_flag_is_declared_once_and_documented() {
        const README: &str = include_str!("../../../README.md");
        let text = usage();
        assert!(
            README.contains(&text),
            "README's CLI reference is not the `woha-cli help` text"
        );
        let mut declared = BTreeSet::new();
        for (i, sub) in SUBCOMMANDS.iter().enumerate() {
            // The subcommand's section of the usage text.
            let start = text.find(&format!("  woha-cli {}", sub.name)).unwrap();
            let end = SUBCOMMANDS.get(i + 1).map_or(text.len(), |next| {
                text.find(&format!("  woha-cli {}", next.name)).unwrap()
            });
            for flag in sub.flags() {
                let row = format!("\n      {}", flag.name);
                let hits = text[start..end]
                    .match_indices(&row)
                    .filter(|&(at, _)| {
                        !text[start + at + row.len()..].starts_with(|c: char| c != ' ' && c != '\n')
                    })
                    .count();
                assert_eq!(hits, 1, "{} under {}", flag.name, sub.name);
                assert_eq!(
                    sub.flags().filter(|f| f.name == flag.name).count(),
                    1,
                    "{} declared twice for {}",
                    flag.name,
                    sub.name
                );
                declared.insert(flag.name);
            }
        }
        assert_eq!(declared.len(), 44, "{declared:?}");

        // README's CLI section names every flag, and no flag but these
        // (and cargo's own, which its command lines carry).
        let section = &README[README.find("## Quickstart").unwrap()
            ..README.find("## Reproducing the paper's figures").unwrap()];
        let named = flags_named_in(section);
        let cargo: BTreeSet<&str> = ["--release", "--example", "--workspace"].into();
        let undeclared: Vec<_> = named
            .difference(&declared)
            .filter(|flag| !cargo.contains(*flag))
            .collect();
        assert!(
            undeclared.is_empty(),
            "flags README names but no table declares: {undeclared:?}"
        );
        let unnamed: Vec<_> = declared.difference(&named).collect();
        assert!(unnamed.is_empty(), "flags README never names: {unnamed:?}");
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(parse(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn validate_needs_files() {
        assert!(parse(&args(&["validate"])).is_err());
        let cmd = parse(&args(&["validate", "a.xml", "b.xml"])).unwrap();
        match cmd {
            Command::Validate { workflows } => {
                assert_eq!(workflows.len(), 2);
                assert_eq!(workflows[0].path, "a.xml");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plan_defaults_and_flags() {
        let cmd = parse(&args(&[
            "plan", "w.xml", "--slots", "48", "--policy", "hlf", "--cap", "12",
        ]))
        .unwrap();
        match cmd {
            Command::Plan {
                workflow,
                slots,
                policy,
                cap,
            } => {
                assert_eq!(workflow.path, "w.xml");
                assert_eq!(slots, 48);
                assert_eq!(policy, PriorityPolicy::Hlf);
                assert_eq!(cap, CapMode::Fixed(12));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args(&["plan"])).is_err());
        assert!(parse(&args(&["plan", "w.xml", "--cap", "soon"])).is_err());
        // A zero cap is a usage error, not a panic in the plan generator.
        let zero = parse(&args(&["plan", "w.xml", "--cap", "0"])).unwrap_err();
        assert!(zero.contains("--cap") && zero.contains("N ≥ 1"), "{zero}");
        assert!(parse(&args(&["plan", "w.xml", "--slots", "0"])).is_err());
        assert!(parse(&args(&["plan", "w.xml", "extra.xml"])).is_err());
    }

    #[test]
    fn simulate_full_line() {
        let o = simulate(&[
            "a.xml",
            "b.xml@5m",
            "--cluster",
            "32x2x1",
            "--scheduler",
            "edf",
            "--jitter",
            "0.1",
            "--seed",
            "7",
            "--jobs",
            "3",
            "--failures",
            "0.05",
            "--json",
        ]);
        assert_eq!(o.config.reshuffle_cost, SimDuration::ZERO);
        assert_eq!(o.workflows.len(), 2);
        assert_eq!(o.config.prediction, None);
        assert!(!o.pad_plans);
        assert_eq!(o.workflows[1].release, SimTime::from_mins(5));
        assert_eq!(o.arrivals, None);
        assert_eq!(o.run.cluster.total_slots(SlotKind::Map), 64);
        assert_eq!(o.run.schedulers, [SchedulerKind::Edf]);
        assert_eq!(o.config.duration_jitter, 0.1);
        assert_eq!(o.config.seed, 7);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.config.task_failure_prob, 0.05);
        assert!(!o.run.admission);
        assert_eq!(o.run.trace_out, None);
        assert_eq!(o.trace_format, TraceFormat::Chrome);
        assert_eq!(o.run.metrics_out, None);
        assert_eq!(o.config.observability, ObservabilityConfig::default());
        assert!(o.run.json);
    }

    #[test]
    fn scheduler_all_expands_in_comparison_order() {
        use SchedulerKind::*;
        let o = simulate(&["a.xml", "--scheduler", "ALL"]);
        assert_eq!(
            o.run.schedulers,
            [WohaLpf, WohaHlf, WohaMpf, Edf, Fifo, Fair]
        );
        assert_eq!(simulate(&["a.xml"]).run.schedulers, [WohaLpf]);
    }

    #[test]
    fn equals_spelling_and_repeated_flags() {
        // `--flag=value` is `--flag value`.
        let o = simulate(&["a.xml", "--jobs=3", "--cluster=4x2x1", "--seed=9"]);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.run.cluster.node_count(), 4);
        assert_eq!(o.config.seed, 9);
        // A switch takes no value.
        assert!(parse(&args(&["simulate", "a.xml", "--json=yes"])).is_err());
        // A scalar flag given twice keeps its last value ...
        let o = simulate(&["a.xml", "--seed", "1", "--seed", "2", "--scheduler", "edf"]);
        assert_eq!(o.config.seed, 2);
        // ... but every occurrence must parse.
        assert!(parse(&args(&["simulate", "a.xml", "--seed", "x", "--seed", "2"])).is_err());
        // A repeatable flag accumulates across both spellings.
        let o = simulate(&[
            "a.xml",
            "--scripted-master-crash=10m",
            "--scripted-master-crash",
            "90s",
            "--scripted-master-crash",
            "5m",
        ]);
        assert_eq!(
            o.run.cluster.faults().master.scripted,
            vec![
                SimTime::from_secs(90),
                SimTime::from_mins(5),
                SimTime::from_mins(10)
            ]
        );
    }

    #[test]
    fn simulate_streaming_flags() {
        let o = simulate(&[
            "--arrivals",
            "arrivals.jsonl",
            "--admission",
            "necessary",
            "--trace-out",
            "trace.jsonl",
            "--trace-format",
            "jsonl",
        ]);
        assert!(o.workflows.is_empty());
        assert_eq!(o.arrivals.as_deref(), Some("arrivals.jsonl"));
        assert!(o.run.admission);
        assert_eq!(o.trace_format, TraceFormat::Jsonl);
        // `--admission off` is the explicit spelling of the default.
        assert!(!simulate(&["a.xml", "--admission", "off"]).run.admission);
        assert!(parse(&args(&["simulate", "a.xml", "--admission", "maybe"])).is_err());
        // An arrival file replaces positional workflows entirely.
        assert!(parse(&args(&["simulate", "a.xml", "--arrivals", "w.jsonl"])).is_err());
        // The trace format only matters with a trace file.
        assert!(parse(&args(&["simulate", "a.xml", "--trace-format", "jsonl"])).is_err());
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--trace-out",
            "t",
            "--trace-format",
            "xml"
        ]))
        .is_err());
    }

    #[test]
    fn simulate_observability_flags() {
        let o = simulate(&[
            "a.xml",
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.prom",
            "--obs-sample-interval",
            "5s",
        ]);
        assert_eq!(o.run.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(o.run.metrics_out.as_deref(), Some("metrics.prom"));
        let obs = o.config.observability;
        assert!(obs.trace && obs.metrics);
        assert_eq!(obs.sample_interval, Some(SimDuration::from_secs(5)));
        // The sampling interval only matters with metrics on.
        assert!(parse(&args(&["simulate", "a.xml", "--obs-sample-interval", "5s"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--obs-sample-interval", "0s"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--trace-out"])).is_err());
    }

    #[test]
    fn simulate_fault_flags_attach_config() {
        let o = simulate(&[
            "a.xml",
            "--mtbf",
            "30m",
            "--mttr",
            "2m",
            "--detect-missed",
            "3",
            "--blacklist-after",
            "2",
            "--cluster",
            "4x2x1",
        ]);
        let f = o.run.cluster.faults();
        assert!(f.enabled());
        assert_eq!(f.mtbf, Some(SimDuration::from_mins(30)));
        assert_eq!(f.mttr, SimDuration::from_mins(2));
        assert_eq!(f.detect_missed_heartbeats, 3);
        assert_eq!(f.blacklist_after, 2);
        // Defaults kick in when only --mtbf is given.
        let o = simulate(&["a.xml", "--mtbf", "1h"]);
        assert_eq!(
            o.run.cluster.faults().mtbf,
            Some(SimDuration::from_mins(60))
        );
        assert_eq!(o.run.cluster.faults().mttr, SimDuration::from_mins(5));
        // No fault flags: the cluster stays fault-free.
        assert!(!simulate(&["a.xml"]).run.cluster.faults().enabled());
    }

    #[test]
    fn simulate_master_fault_flags_attach_config() {
        let o = simulate(&[
            "a.xml",
            "--master-mtbf",
            "2h",
            "--master-mttr",
            "45s",
            "--checkpoint-interval",
            "3m",
            "--no-wal",
        ]);
        let m = &o.run.cluster.faults().master;
        assert!(m.enabled());
        assert_eq!(m.mtbf, Some(SimDuration::from_mins(120)));
        assert_eq!(m.mttr, SimDuration::from_secs(45));
        assert_eq!(m.checkpoint_interval, SimDuration::from_mins(3));
        assert!(!m.wal);
        assert!(m.scripted.is_empty());
        // Master faults alone leave node faults off.
        assert!(o.run.cluster.faults().mtbf.is_none());
        // Scripted crashes enable master faults without --master-mtbf, keep
        // WAL + defaults, and are sorted.
        let o = simulate(&[
            "a.xml",
            "--scripted-master-crash",
            "10m",
            "--scripted-master-crash",
            "90s",
        ]);
        let m = &o.run.cluster.faults().master;
        assert!(m.enabled());
        assert_eq!(m.mtbf, None);
        assert!(m.wal);
        assert_eq!(m.mttr, MasterFaultConfig::default().mttr);
        assert_eq!(
            m.scripted,
            vec![SimTime::from_secs(90), SimTime::from_mins(10)]
        );
    }

    #[test]
    fn durations_past_u64_millis_are_errors_not_wrapped() {
        for line in [
            &["simulate", "a.xml", "--mtbf", "5124095576030432h"][..],
            &[
                "simulate",
                "a.xml",
                "--scripted-master-crash",
                "307445734561826m",
            ],
            &["simulate", "a.xml@18446744073709552s"],
        ] {
            let err = parse(&args(line)).unwrap_err();
            assert!(err.contains("invalid duration"), "{line:?}: {err}");
        }
        let err = parse(&args(&["simulate", "a.xml@18446744073709552s"])).unwrap_err();
        assert!(err.contains("bad release"), "{err}");
    }

    #[test]
    fn simulate_rejects_bad_master_fault_flags() {
        assert!(parse(&args(&["simulate", "a.xml", "--master-mtbf", "0s"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--master-mttr", "1m"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--checkpoint-interval", "1m"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--no-wal"])).is_err());
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--master-mtbf",
            "1h",
            "--checkpoint-interval",
            "0s"
        ]))
        .is_err());
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--scripted-master-crash",
            "soon"
        ]))
        .is_err());
    }

    #[test]
    fn simulate_prediction_flags() {
        let o = simulate(&[
            "a.xml",
            "--mtbf",
            "8h",
            "--predict-failures",
            "--pad-plans",
            "--risk-placement",
            "--adaptive-blacklist",
            "2.5",
        ]);
        let prediction = o.config.prediction.expect("--predict-failures");
        assert!(o.pad_plans);
        assert!(prediction.risk_placement);
        assert_eq!(prediction.adaptive_blacklist, Some(2.5));
        // The prediction layer needs fault injection to learn from.
        assert!(parse(&args(&["simulate", "a.xml", "--predict-failures"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--pad-plans"])).is_err());
        // Risk placement and adaptive blacklisting build on the tracker.
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--mtbf",
            "1h",
            "--risk-placement"
        ]))
        .is_err());
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--mtbf",
            "1h",
            "--adaptive-blacklist",
            "2"
        ]))
        .is_err());
        // Adaptive and fixed blacklisting are mutually exclusive.
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--mtbf",
            "1h",
            "--predict-failures",
            "--blacklist-after",
            "2",
            "--adaptive-blacklist",
            "2"
        ]))
        .is_err());
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--mtbf",
            "1h",
            "--predict-failures",
            "--adaptive-blacklist",
            "0"
        ]))
        .is_err());
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--mtbf",
            "1h",
            "--predict-failures",
            "--adaptive-blacklist",
            "soon"
        ]))
        .is_err());
    }

    #[test]
    fn simulate_rack_flags_attach_topology_and_faults() {
        let o = simulate(&[
            "a.xml",
            "--cluster",
            "8x2x1",
            "--racks",
            "2",
            "--rack-mtbf",
            "4h",
            "--rack-mttr",
            "10m",
            "--reshuffle-cost",
            "5s",
        ]);
        assert_eq!(o.run.cluster.rack_count(), 2);
        let f = o.run.cluster.faults();
        assert!(f.enabled());
        assert_eq!(f.rack_mtbf, Some(SimDuration::from_mins(240)));
        assert_eq!(f.rack_mttr, Some(SimDuration::from_mins(10)));
        // Rack faults alone leave per-node faults off.
        assert!(f.mtbf.is_none());
        assert_eq!(o.config.reshuffle_cost, SimDuration::from_secs(5));
        // --racks alone is pure topology: no fault config attaches.
        let o = simulate(&["a.xml", "--racks", "4"]);
        assert_eq!(o.run.cluster.rack_count(), 4);
        assert!(!o.run.cluster.faults().enabled());
        // --rack-mttr falls back to the node --mttr when omitted.
        let o = simulate(&["a.xml", "--racks", "2", "--rack-mtbf", "4h"]);
        let f = o.run.cluster.faults();
        assert_eq!(f.rack_mttr, None);
        assert_eq!(
            f.rack_repair_mean(),
            f.mttr,
            "repair falls back to the node MTTR"
        );
    }

    #[test]
    fn simulate_rejects_bad_rack_flags() {
        // Rack faults need a real topology to correlate over.
        assert!(parse(&args(&["simulate", "a.xml", "--rack-mtbf", "4h"])).is_err());
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--racks",
            "1",
            "--rack-mtbf",
            "4h"
        ]))
        .is_err());
        // Repair time and re-shuffle cost are meaningless on their own.
        assert!(parse(&args(&["simulate", "a.xml", "--rack-mttr", "5m"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--reshuffle-cost", "5s"])).is_err());
        // Malformed values.
        assert!(parse(&args(&["simulate", "a.xml", "--racks", "0"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--racks", "many"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--racks", "9"])).is_err());
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--racks",
            "2",
            "--rack-mtbf",
            "0s"
        ]))
        .is_err());
        // --reshuffle-cost composes with either fault source.
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--mtbf",
            "1h",
            "--reshuffle-cost",
            "5s"
        ]))
        .is_ok());
    }

    #[test]
    fn simulate_rejects_bad_fault_flags() {
        assert!(parse(&args(&["simulate", "a.xml", "--mtbf", "0s"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--mtbf", "soon"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--mttr", "2m"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--detect-missed", "0"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--blacklist-after", "2"])).is_err());
        assert!(parse(&args(&[
            "simulate",
            "a.xml",
            "--mtbf",
            "1h",
            "--detect-missed",
            "x"
        ]))
        .is_err());
    }

    #[test]
    fn simulate_rejects_bad_values() {
        assert!(parse(&args(&["simulate"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--cluster", "3x2"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--cluster", "0x2x1"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--cluster", "3x0x0"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--scheduler", "magic"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--jitter", "1.5"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--failures", "1"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml", "--unknown"])).is_err());
        assert!(parse(&args(&["simulate", "a.xml@soon"])).is_err());
    }

    #[test]
    fn release_suffix_parsing() {
        let w = parse_workflow_arg("dir/w.xml@90s").unwrap();
        assert_eq!(w.path, "dir/w.xml");
        assert_eq!(w.release, SimTime::from_secs(90));
        let w = parse_workflow_arg("plain.xml").unwrap();
        assert_eq!(w.release, SimTime::ZERO);
    }

    #[test]
    fn serve_defaults_and_full_flag_set() {
        let o = serve(&["--follow", "feed.jsonl"]);
        assert_eq!(o.follow, "feed.jsonl");
        assert_eq!(o.run.schedulers, [SchedulerKind::WohaLpf]);
        assert!(o.run.admission, "a service defends itself by default");
        assert_eq!(o.service.clock, ClockMode::Sim);
        assert_eq!(o.service.buffer, 1024);
        assert_eq!(o.service.watermarks, None);

        let o = serve(&[
            "--follow",
            "feed/",
            "--cluster",
            "4x2x1",
            "--scheduler",
            "edf",
            "--tenants",
            "tenants.toml",
            "--admission",
            "off",
            "--wall-clock",
            "--speedup",
            "50",
            "--poll-interval",
            "5ms",
            "--buffer",
            "64",
            "--high",
            "48",
            "--low",
            "16",
            "--stop-file",
            "stop",
            "--idle-timeout",
            "2s",
            "--max-arrivals",
            "100",
            "--metrics-out",
            "m.prom",
            "--trace-out",
            "t.jsonl",
            "--json",
        ]);
        use std::time::Duration;
        assert_eq!(o.tenants.as_deref(), Some("tenants.toml"));
        assert!(!o.run.admission);
        assert_eq!(
            o.service.clock,
            ClockMode::Wall {
                speedup: 50.0,
                poll: Duration::from_millis(5)
            }
        );
        assert_eq!(o.service.watermarks, Some((48, 16)));
        let shutdown = &o.service.shutdown;
        assert_eq!(
            shutdown.stop_file.as_deref(),
            Some(std::path::Path::new("stop"))
        );
        assert_eq!(shutdown.idle_timeout, Some(Duration::from_secs(2)));
        assert_eq!(shutdown.max_arrivals, Some(100));
        assert!(o.run.json);
    }

    #[test]
    fn serve_watermarks_default_from_each_other() {
        // `--high` alone: resume at half of it.
        let o = serve(&["--follow", "f", "--high", "48"]);
        assert_eq!(o.service.watermarks, Some((48, 24)));
        // `--low` alone: shed at the buffer capacity, as the usage says.
        let o = serve(&["--follow", "f", "--low", "8"]);
        assert_eq!(o.service.watermarks, Some((1024, 8)));
        let o = serve(&["--follow", "f", "--buffer", "64", "--low", "8"]);
        assert_eq!(o.service.watermarks, Some((64, 8)));
        assert!(parse(&args(&[
            "serve", "--follow", "f", "--buffer", "64", "--low", "64"
        ]))
        .is_err());
    }

    #[test]
    fn serve_rejects_bad_combinations() {
        assert!(parse(&args(&["serve"])).is_err(), "--follow is required");
        assert!(parse(&args(&["serve", "--follow", "f", "--scheduler", "all"])).is_err());
        assert!(parse(&args(&["serve", "--follow", "f", "--speedup", "2"])).is_err());
        assert!(parse(&args(&["serve", "--follow", "f", "--speedup", "0"])).is_err());
        // The wall-clock knobs need `--wall-clock` whatever their value,
        // the defaults' spellings included.
        assert!(parse(&args(&["serve", "--follow", "f", "--speedup", "1"])).is_err());
        assert!(parse(&args(&["serve", "--follow", "f", "--speedup=1.0"])).is_err());
        assert!(parse(&args(&[
            "serve",
            "--follow",
            "f",
            "--poll-interval",
            "20ms"
        ]))
        .is_err());
        assert!(parse(&args(&["serve", "--follow", "f", "--poll-interval=20ms"])).is_err());
        assert!(
            parse(&args(&[
                "serve", "--follow", "f", "--high", "8", "--low", "8"
            ]))
            .is_err(),
            "--low must be below --high"
        );
        assert!(parse(&args(&["serve", "--follow", "f", "--buffer", "0"])).is_err());
        assert!(parse(&args(&["serve", "--follow", "f", "--max-arrivals", "0"])).is_err());
        assert!(parse(&args(&["serve", "--follow", "f", "positional.xml"])).is_err());
    }
}
