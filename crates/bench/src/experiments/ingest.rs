//! The `ingest_throughput` sweep: what does it cost to feed N workflows
//! into the driver through a pre-materialized [`VecSource`] versus the
//! lazy [`GeneratorSource`]?
//!
//! The batch path materializes the whole workload before the first event
//! fires, so its resident footprint grows linearly with the workload; the
//! generator materializes one workflow per pull and stays O(1). This sweep
//! quantifies both sides at 10³–10⁵ workflows: wall time to pull the full
//! stream (including materialization, which is the batch path's whole
//! point of pain) and a deterministic peak-residency proxy instead of a
//! platform-dependent RSS read — the maximum number of workflow specs
//! simultaneously alive in the harness, plus their approximate byte size.

use crate::table::{fmt_f64, Table};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use woha_model::{SimDuration, WorkflowSpec};
use woha_trace::{GeneratorSource, VecSource, WorkloadSource, YahooTraceConfig};

/// One `(source, size)` measurement of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestRecord {
    /// Source under test: `"vec"` or `"generator"`.
    pub source: String,
    /// Workflows pulled through the source.
    pub workflows: u64,
    /// Best-of-`runs` wall time to construct the source and drain it, ms.
    pub wall_ms: f64,
    /// Throughput in workflows per second, from the best run.
    pub workflows_per_sec: f64,
    /// Peak number of workflow specs simultaneously resident in the
    /// harness (the RSS proxy): the workload size for the batch path, O(1)
    /// for the generator.
    pub peak_resident_workflows: u64,
    /// Approximate bytes held at that peak (struct sizes + name lengths).
    pub approx_peak_bytes: u64,
}

/// The full `ingest_throughput` report written to `BENCH_ingest.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Experiment name (always "ingest_throughput").
    pub experiment: String,
    /// Whether this was the `--quick` CI sweep.
    pub quick: bool,
    /// Wall-clock repetitions per point (best-of is reported).
    pub runs: u32,
    /// Per-(source, size) measurements.
    pub points: Vec<IngestRecord>,
}

/// Workflow counts swept per mode. The full sweep covers the three decades
/// the streaming pipeline is built for; `--quick` keeps CI under a second.
fn sweep_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1_000]
    } else {
        vec![1_000, 10_000, 100_000]
    }
}

/// A deterministic generator stream shared by both sources: mean 90 s
/// interarrival and a 3x critical-path deadline stretch, in the range of
/// the Yahoo-trace scenario.
fn generator(count: usize) -> GeneratorSource {
    GeneratorSource::new(
        YahooTraceConfig::default(),
        42,
        count,
        SimDuration::from_secs(90),
        3.0,
    )
}

fn approx_spec_bytes(w: &WorkflowSpec) -> u64 {
    let jobs: u64 = w
        .jobs()
        .iter()
        .map(|j| (std::mem::size_of_val(j) + j.name().len()) as u64)
        .sum();
    (std::mem::size_of_val(w) + w.name().len()) as u64 + jobs
}

/// Drains `source`, dropping each workflow after touching it; returns
/// `(count, max bytes held by a single resident spec)`.
fn pull_streaming(source: &mut dyn WorkloadSource) -> (u64, u64) {
    let mut count = 0u64;
    let mut max_bytes = 0u64;
    while let Some(w) = source.next_workflow() {
        count += 1;
        max_bytes = max_bytes.max(approx_spec_bytes(std::hint::black_box(&w)));
    }
    (count, max_bytes)
}

/// Runs the `ingest_throughput` sweep: each size, the generator path (pull
/// one, drop it) versus the batch path (materialize everything into a
/// [`VecSource`], then pull it through), `runs` repetitions each.
pub fn run_ingest_throughput(quick: bool, runs: u32) -> IngestReport {
    let mut points = Vec::new();
    for size in sweep_sizes(quick) {
        // Generator: one workflow resident at a time.
        let mut best_ms = f64::INFINITY;
        let mut max_bytes = 0;
        for _ in 0..runs {
            let mut source = generator(size);
            let start = Instant::now();
            let (count, bytes) = pull_streaming(&mut source);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(count as usize, size, "generator yields the full count");
            best_ms = best_ms.min(ms);
            max_bytes = bytes;
        }
        points.push(record("generator", size, best_ms, 1, max_bytes));

        // Batch: the same stream materialized up front, as every
        // pre-streaming caller did.
        let mut best_ms = f64::INFINITY;
        let mut peak_bytes = 0;
        for _ in 0..runs {
            let start = Instant::now();
            let all = woha_trace::drain(&mut generator(size));
            let bytes: u64 = all.iter().map(approx_spec_bytes).sum();
            let mut source = VecSource::new(all);
            let (count, _) = pull_streaming(&mut source);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(count as usize, size, "vec source yields the full count");
            best_ms = best_ms.min(ms);
            peak_bytes = bytes;
        }
        points.push(record("vec", size, best_ms, size as u64, peak_bytes));
    }
    IngestReport {
        experiment: "ingest_throughput".to_string(),
        quick,
        runs,
        points,
    }
}

fn record(source: &str, size: usize, wall_ms: f64, resident: u64, bytes: u64) -> IngestRecord {
    IngestRecord {
        source: source.to_string(),
        workflows: size as u64,
        wall_ms,
        workflows_per_sec: size as f64 / (wall_ms / 1e3),
        peak_resident_workflows: resident,
        approx_peak_bytes: bytes,
    }
}

/// Renders the report as the human-readable sweep table.
pub fn ingest_table(report: &IngestReport) -> Table {
    let mut t = Table::new(vec![
        "source",
        "workflows",
        "wall ms",
        "wf/s",
        "peak resident wf",
        "peak ~KiB",
    ]);
    for p in &report.points {
        t.row(vec![
            p.source.clone(),
            p.workflows.to_string(),
            fmt_f64(p.wall_ms),
            fmt_f64(p.workflows_per_sec),
            p.peak_resident_workflows.to_string(),
            fmt_f64(p.approx_peak_bytes as f64 / 1024.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shape() {
        let report = run_ingest_throughput(true, 1);
        assert_eq!(report.experiment, "ingest_throughput");
        assert!(report.quick);
        // One size, two sources.
        assert_eq!(report.points.len(), 2);
        let gen = &report.points[0];
        let vec = &report.points[1];
        assert_eq!(gen.source, "generator");
        assert_eq!(vec.source, "vec");
        assert_eq!(gen.workflows, vec.workflows);
        // The proxy is the point: O(1) vs O(n) residency.
        assert_eq!(gen.peak_resident_workflows, 1);
        assert_eq!(vec.peak_resident_workflows, vec.workflows);
        assert!(gen.approx_peak_bytes < vec.approx_peak_bytes);
        assert!(gen.wall_ms > 0.0 && vec.wall_ms > 0.0);
        // Round-trips through JSON for BENCH_ingest.json consumers.
        let json = serde_json::to_string(&report).unwrap();
        let back: IngestReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn table_has_a_row_per_point() {
        let report = run_ingest_throughput(true, 1);
        assert_eq!(ingest_table(&report).len(), report.points.len());
    }
}
