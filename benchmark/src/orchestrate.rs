//! The whole benchmark in one command: every workload in its own child
//! process (this binary re-executed), untraced then traced, every metric
//! printed by name with its unit, `results.json` written, non-zero exit
//! on any failed check. `--verify` runs the end-to-end set twice and
//! holds the pair to the bounds in `BENCHMARK.json`.

use std::process::{Command, ExitCode, Stdio};

use serde::Value;

use crate::spans::obj;
use crate::workloads::NAMES;
use crate::Args;

/// One child's result line plus the digest it printed.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The child's `metrics` object, as printed.
    metrics: Value,
    digest: String,
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Runs one workload in a child process, relaying its output.
fn child(args: &Args, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--build-s", &args.build_s.to_string()])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or(format!("{workload}: child printed nothing"))?;
    for line in &lines {
        println!("{line}");
    }
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let digest = lines
        .iter()
        .find_map(|l| l.trim().strip_prefix("report_digest "))
        .unwrap_or("")
        .to_string();
    let metrics = field(&result, "metrics")
        .ok_or(format!("{workload}: result has no metrics"))?
        .clone();
    let count = |key| {
        field(&result, key)
            .and_then(Value::as_u128)
            .map_or(0, |n| n as u64)
    };
    let parsed = ChildResult {
        correct: field(&result, "correct").and_then(Value::as_bool) == Some(true),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
        digest,
    };
    if !output.status.success() && parsed.correct {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    Ok(parsed)
}

fn result_value(r: &ChildResult) -> Value {
    obj(vec![
        ("correct", Value::Bool(r.correct)),
        ("attempted", Value::U64(r.attempted)),
        ("failed", Value::U64(r.failed)),
        ("report_digest", Value::Str(r.digest.clone())),
        ("metrics", r.metrics.clone()),
    ])
}

/// The end-to-end metrics of `BENCHMARK.json` as `(name, higher is
/// better, bound)`.
fn bounds(args: &Args) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(&args.spec)
        .map_err(|e| format!("cannot read {}: {e}", args.spec.display()))?;
    let spec: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = field(&spec, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = field(m, "name").and_then(Value::as_str);
            let better = field(m, "better").and_then(Value::as_str);
            let bound = field(m, "bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b == "higher", x)),
                _ => Err("BENCHMARK.json: malformed end_to_end entry".to_string()),
            }
        })
        .collect()
}

/// Holds the second end-to-end set against the first: host-time metrics
/// within their bound, simulated statistics and digests exactly. Prints
/// the observed spread so the bounds can be tightened.
fn verify(
    args: &Args,
    first: &[(&str, ChildResult)],
    second: &[(&str, ChildResult)],
) -> Result<Vec<String>, String> {
    let bounds = bounds(args)?;
    let mut problems = Vec::new();
    println!("verify: second end-to-end set against the first");
    for ((workload, a), (_, b)) in first.iter().zip(second) {
        if a.digest != b.digest {
            problems.push(format!(
                "{workload}: report_digest {} vs {}",
                a.digest, b.digest
            ));
        }
        // Attempted scales with how many runs fit in --seconds; only the
        // failure count must repeat.
        if a.failed != b.failed {
            problems.push(format!("{workload}: failed {} vs {}", a.failed, b.failed));
        }
        for (name, higher, bound) in &bounds {
            let value = |r: &ChildResult| {
                field(&r.metrics, name)
                    .and_then(|m| field(m, "value"))
                    .and_then(Value::as_f64)
                    .ok_or(format!("{workload}: {name} was not reported"))
            };
            let (va, vb) = (value(a)?, value(b)?);
            let worse = if *higher {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let exact = name == "deadline_met_ratio";
            let ok = if exact { va == vb } else { worse <= *bound };
            println!(
                "  {workload} {name}: {va} -> {vb}  spread {:.2} %  bound {} {}",
                (va - vb).abs() / va * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0} %", bound * 100.0)
                },
                if ok { "ok" } else { "VIOLATED" },
            );
            if !ok {
                problems.push(format!("{workload}: {name} {va} -> {vb}"));
            }
        }
    }
    Ok(problems)
}

fn run_set(args: &Args, trace: bool) -> Result<Vec<(&'static str, ChildResult)>, String> {
    NAMES
        .iter()
        .map(|&workload| child(args, workload, trace).map(|r| (workload, r)))
        .collect()
}

fn orchestrate(args: &Args) -> Result<Vec<String>, String> {
    let end_to_end = run_set(args, false)?;
    let mut problems = Vec::new();
    let mut sets = vec![("end_to_end", &end_to_end)];
    let second;
    let per_layer;
    if args.verify {
        second = run_set(args, false)?;
        problems.extend(verify(args, &end_to_end, &second)?);
        sets.push(("end_to_end_again", &second));
    } else {
        per_layer = run_set(args, true)?;
        for ((workload, plain), (_, traced)) in end_to_end.iter().zip(&per_layer) {
            if plain.digest != traced.digest {
                problems.push(format!("{workload}: traced process's digest differs"));
            }
        }
        sets.push(("per_layer", &per_layer));
    }
    for (set, results) in &sets {
        for (workload, r) in results.iter() {
            if !r.correct {
                problems.push(format!("{workload} ({set}): a correctness check failed"));
            }
            if r.failed != 0 {
                problems.push(format!(
                    "{workload} ({set}): {} of {} operations failed",
                    r.failed, r.attempted
                ));
            }
        }
    }

    let results = obj(vec![
        ("seed", Value::U64(args.seed)),
        ("smoke", Value::Bool(args.smoke)),
        ("seconds", Value::F64(args.seconds)),
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "sets",
            Value::Object(
                sets.iter()
                    .map(|(set, results)| {
                        let by_workload = results
                            .iter()
                            .map(|(w, r)| (w.to_string(), result_value(r)))
                            .collect();
                        (set.to_string(), Value::Object(by_workload))
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("cannot create out dir: {e}"))?;
    let path = args.out.join("results.json");
    let text = serde_json::to_string_pretty(&results).expect("results serialize");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(problems)
}

pub fn run_all(args: &Args) -> ExitCode {
    match orchestrate(args) {
        Ok(problems) if problems.is_empty() => {
            println!("benchmark: all checks passed");
            ExitCode::SUCCESS
        }
        Ok(problems) => {
            for p in &problems {
                println!("FAILED: {p}");
            }
            ExitCode::from(2)
        }
        Err(message) => {
            eprintln!("woha-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}
