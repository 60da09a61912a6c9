//! The committed experiment outputs as a regression corpus: every
//! deterministic experiment of `woha-bench` must print exactly its
//! `results/<name>.txt`, and the two studies that keep a baseline must
//! write exactly the committed `BENCH_failure.json` / `BENCH_locality.json`.
//!
//! Fig 13(a) is the one experiment left out: it measures wall-clock
//! throughput. Re-record a file only when its experiment was meant to
//! change: `woha-bench <experiment> > results/<experiment>.txt` from the
//! repository root.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The experiment whose output is host time, not simulation.
const WALL_CLOCK: &str = "fig13a_throughput";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs `woha-bench <name>` in `dir` and returns its stdout.
fn run(name: &str, dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_woha-bench"))
        .arg(name)
        .current_dir(dir)
        .output()
        .expect("run woha-bench");
    assert!(
        out.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The names `woha-bench list` prints, minus the wall-clock one.
fn deterministic_experiments() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_woha-bench"))
        .arg("list")
        .output()
        .expect("run woha-bench list");
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .filter_map(|line| line.split_whitespace().next())
        .filter(|&name| name != WALL_CLOCK)
        .map(String::from)
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only; CI runs it")]
fn every_deterministic_experiment_reproduces_its_committed_output() {
    let root = repo_root();
    let dir = std::env::temp_dir().join(format!("woha-results-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let names = deterministic_experiments();
    assert_eq!(names.len(), 16, "{names:?}");
    let mut mismatches = Vec::new();
    for name in &names {
        let expected = read(&root.join(format!("results/{name}.txt")));
        if run(name, &dir) != expected {
            mismatches.push(format!("results/{name}.txt"));
        }
    }
    for key in ["failure", "locality"] {
        let file = format!("BENCH_{key}.json");
        if read(&dir.join(&file)) != read(&root.join(&file)) {
            mismatches.push(file);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        mismatches.is_empty(),
        "output differs from the committed corpus: {mismatches:?}"
    );
}
