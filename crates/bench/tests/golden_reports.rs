//! Golden-report regression corpus.
//!
//! Each file in `tests/golden/` is the canonical JSON of one scheduler's
//! [`SimReport`] on the Fig 11 demo scenario (`fig11_workflows` on
//! `demo_cluster`, jitter 0.1, seed 7 — the fault-free half of the grid
//! `sweep_determinism.rs` runs at `--jobs` 1/2/8). "Canonical" means
//! serialized via [`woha_bench::canonical_report_json`], which zeroes the
//! one wall-clock field (`scheduler_nanos`) so the bytes are reproducible
//! on any machine and any thread count.
//!
//! If a scheduler's behaviour changes **intentionally**, regenerate the
//! corpus and review the diff like source code:
//!
//! ```text
//! WOHA_BLESS=1 cargo test -p woha-bench --test golden_reports
//! git diff crates/bench/tests/golden/
//! ```
//!
//! An unintentional diff here means a scheduling-behaviour regression:
//! do not bless it away without understanding the cause.

use std::fs;
use std::path::PathBuf;

use woha_bench::scenarios::{demo_cluster, fig11_workflows};
use woha_bench::{canonical_report_json, run_one, SchedulerKind};
use woha_sim::SimConfig;

/// The four schedulers the corpus pins, with their corpus file stems.
const CORPUS: [(SchedulerKind, &str); 4] = [
    (SchedulerKind::Edf, "edf"),
    (SchedulerKind::Fifo, "fifo"),
    (SchedulerKind::Fair, "fair"),
    (SchedulerKind::WohaLpf, "woha_lpf"),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn scenario_config() -> SimConfig {
    SimConfig {
        duration_jitter: 0.1,
        seed: 7,
        ..SimConfig::default()
    }
}

#[test]
fn golden_reports_match_corpus() {
    let workflows = fig11_workflows();
    let cluster = demo_cluster();
    let config = scenario_config();
    let bless = std::env::var_os("WOHA_BLESS").is_some();
    if bless {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
    }
    let mut diverged = Vec::new();
    for (kind, stem) in CORPUS {
        let report = run_one(kind, &workflows, &cluster, &config);
        let json = canonical_report_json(&report);
        let path = golden_dir().join(format!("{stem}.json"));
        if bless {
            fs::write(&path, &json).expect("write golden file");
            continue;
        }
        let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); regenerate the corpus with \
                 `WOHA_BLESS=1 cargo test -p woha-bench --test golden_reports`",
                path.display()
            )
        });
        if json != expected {
            diverged.push(stem);
        }
    }
    assert!(
        diverged.is_empty(),
        "scheduler report(s) diverged from the golden corpus: {diverged:?}. \
         If the behaviour change is intentional, re-bless with \
         `WOHA_BLESS=1 cargo test -p woha-bench --test golden_reports` \
         and review the diff under crates/bench/tests/golden/."
    );
}

#[test]
fn golden_corpus_is_canonical() {
    // The corpus must not encode wall-clock time: canonicalization zeroes
    // `scheduler_nanos`, so every committed file must carry a zero there.
    for (_, stem) in CORPUS {
        let path = golden_dir().join(format!("{stem}.json"));
        let Ok(text) = fs::read_to_string(&path) else {
            continue; // missing files are reported by the main test
        };
        let value: serde::Value = serde_json::from_str(&text).expect("golden file parses");
        let fields = value.as_object().expect("golden file is a JSON object");
        let nanos = fields
            .iter()
            .find(|(k, _)| k == "scheduler_nanos")
            .map(|(_, v)| v.clone());
        assert_eq!(
            nanos,
            Some(serde::Value::U64(0)),
            "{} is not canonical (scheduler_nanos != 0)",
            path.display()
        );
    }
}
