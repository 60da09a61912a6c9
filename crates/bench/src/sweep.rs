//! The parallel sweep orchestrator: fan a grid of independent scenario
//! cells across worker threads and aggregate the results
//! **deterministically**.
//!
//! Every paper figure is a grid of shared-nothing cells (seeds ×
//! schedulers × MTBF × index backends), each one `run_simulation` call.
//! [`run_sweep`] executes such a grid on a pool of `jobs` OS threads: a
//! shared atomic cursor hands cells to workers in specification order,
//! completed cells flow back over a channel, and [`merge_completions`]
//! re-keys them by cell index — so the aggregated output is **byte
//! identical regardless of thread count or completion order**. `jobs = 1`
//! runs the cells inline on the caller's thread, preserving the serial
//! path exactly.
//!
//! The determinism contract:
//!
//! - cell execution is shared-nothing (each cell builds its own scheduler
//!   and consumes immutable borrows of the workload/cluster/config);
//! - results are ordered by cell *specification* index, never by
//!   completion order;
//! - [`canonical_report_json`] zeroes [`SimReport::scheduler_nanos`] — the
//!   one wall-clock field inside a report — so serialized sweep output is
//!   reproducible bit for bit.
//!
//! [`SimSweep`] layers the common scenario-grid vocabulary on top: cells
//! keyed by [`CellKey`] axes that each run one simulation. Its keyed
//! result, [`SimSweepRun`], is what an experiment keeps, and
//! [`SimSweepRun::pivot`] renders its tables.

use crate::schedulers::SchedulerKind;
use crate::table::{ordered_unique, Table};
use serde::Serialize;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use woha_model::{SlotKind, WorkflowSpec};
use woha_sim::{run_simulation, ClusterConfig, SimConfig, SimReport, WorkflowScheduler};

/// Coordinates of one sweep cell: an ordered list of `(axis, value)`
/// pairs, e.g. `mtbf=8h scheduler=EDF`. Axis order is the order of
/// [`with`](CellKey::with) calls, so labels are stable across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    axes: Vec<(String, String)>,
}

impl CellKey {
    /// An empty key (for single-axis sweeps built via
    /// [`SimSweep::push_kinds`]).
    pub fn new() -> Self {
        CellKey::default()
    }

    /// Returns the key extended by one `axis=value` coordinate.
    pub fn with(mut self, axis: impl Into<String>, value: impl fmt::Display) -> Self {
        self.axes.push((axis.into(), value.to_string()));
        self
    }

    /// The value of one axis, if present.
    pub fn get(&self, axis: &str) -> Option<&str> {
        self.axes
            .iter()
            .find(|(a, _)| a == axis)
            .map(|(_, v)| v.as_str())
    }

    /// Whether every `(axis, value)` pair of `selector` matches.
    pub fn matches(&self, selector: &[(&str, &str)]) -> bool {
        selector.iter().all(|&(a, v)| self.get(a) == Some(v))
    }

    /// The canonical `axis=value axis=value` label.
    pub fn label(&self) -> String {
        self.axes
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The aggregated outcome of one sweep execution.
#[derive(Debug, Clone)]
pub struct SweepRun<R> {
    /// One result per cell, in **specification order** (independent of
    /// completion order and thread count).
    pub results: Vec<(CellKey, R)>,
    /// Worker threads actually used.
    pub jobs: usize,
}

/// The machine's available parallelism (the `--jobs` default).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The deterministic aggregator: re-keys `(cell index, value)` completion
/// records — arriving in **any** order — into specification order.
///
/// # Panics
///
/// Panics if an index is out of range, duplicated, or missing: a sweep
/// must complete every cell exactly once.
pub fn merge_completions<T>(
    count: usize,
    completions: impl IntoIterator<Item = (usize, T)>,
) -> Vec<T> {
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(count, || None);
    for (index, value) in completions {
        assert!(index < count, "cell index {index} out of range ({count})");
        assert!(slots[index].is_none(), "cell {index} completed twice");
        slots[index] = Some(value);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("cell {i} never completed")))
        .collect()
}

/// Runs every cell of `cells` under `run`, fanned across up to `jobs`
/// worker threads, and returns results in specification order.
///
/// `jobs <= 1` executes the cells inline on the calling thread — no
/// threads are spawned, preserving the serial path byte for byte. With
/// more jobs, workers pull cells off a shared atomic cursor (so a slow
/// cell never blocks the others) and the aggregator restores
/// specification order regardless of which worker finished first.
pub fn run_sweep<C, R, F>(cells: &[(CellKey, C)], jobs: usize, run: F) -> SweepRun<R>
where
    C: Sync,
    R: Send,
    F: Fn(&CellKey, &C) -> R + Sync,
{
    let jobs = jobs.max(1).min(cells.len().max(1));
    let results: Vec<R> = if jobs <= 1 {
        cells.iter().map(|(key, cell)| run(key, cell)).collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let tx = tx.clone();
                let cursor = &cursor;
                let run = &run;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some((key, cell)) = cells.get(i) else {
                        break;
                    };
                    if tx.send((i, run(key, cell))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            merge_completions(cells.len(), rx)
        })
    };
    SweepRun {
        results: cells
            .iter()
            .map(|(key, _)| key.clone())
            .zip(results)
            .collect(),
        jobs,
    }
}

/// Builds one scheduler instance for one cell (called inside the worker
/// thread, so the scheduler itself never crosses threads).
pub type SchedulerFactory = Box<dyn Fn() -> Box<dyn WorkflowScheduler> + Send + Sync>;

/// One simulation cell: a workload, a cluster, a config, and a scheduler
/// factory. Cells are shared-nothing; the expensive workload is borrowed.
pub struct SimCell<'w> {
    workflows: &'w [WorkflowSpec],
    cluster: ClusterConfig,
    config: SimConfig,
    factory: SchedulerFactory,
}

impl fmt::Debug for SimCell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCell")
            .field("workflows", &self.workflows.len())
            .field("cluster", &self.cluster)
            .finish_non_exhaustive()
    }
}

impl<'w> SimCell<'w> {
    /// A cell with an explicit scheduler factory (for schedulers the
    /// [`SchedulerKind`] enum cannot express, e.g. WOHA with padding).
    pub fn new(
        workflows: &'w [WorkflowSpec],
        cluster: ClusterConfig,
        config: SimConfig,
        factory: SchedulerFactory,
    ) -> Self {
        SimCell {
            workflows,
            cluster,
            config,
            factory,
        }
    }

    /// A cell running one of the stock [`SchedulerKind`]s.
    pub fn for_kind(
        kind: SchedulerKind,
        workflows: &'w [WorkflowSpec],
        cluster: ClusterConfig,
        config: SimConfig,
    ) -> Self {
        let total = cluster.total_slots(SlotKind::Map) + cluster.total_slots(SlotKind::Reduce);
        SimCell::new(
            workflows,
            cluster,
            config,
            Box::new(move || kind.build(total)),
        )
    }

    fn run(&self) -> SimReport {
        let mut scheduler = (self.factory)();
        run_simulation(
            self.workflows,
            scheduler.as_mut(),
            &self.cluster,
            &self.config,
        )
    }
}

/// A scenario grid: [`SimCell`]s keyed by [`CellKey`], executed by
/// [`SimSweep::run`]. Every simulation grid of `woha-bench` is one, and
/// the keyed [`SimSweepRun`] it returns is the experiment's result.
#[derive(Debug, Default)]
pub struct SimSweep<'w> {
    cells: Vec<(CellKey, SimCell<'w>)>,
}

impl<'w> SimSweep<'w> {
    /// An empty grid.
    pub fn new() -> Self {
        SimSweep { cells: Vec::new() }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Adds one cell.
    pub fn push(&mut self, key: CellKey, cell: SimCell<'w>) -> &mut Self {
        self.cells.push((key, cell));
        self
    }

    /// Adds one cell per scheduler kind, keyed `base + scheduler=<kind>`,
    /// all sharing the same workload, cluster, and config.
    pub fn push_kinds(
        &mut self,
        base: &CellKey,
        kinds: &[SchedulerKind],
        workflows: &'w [WorkflowSpec],
        cluster: &ClusterConfig,
        config: &SimConfig,
    ) -> &mut Self {
        for &kind in kinds {
            self.push(
                base.clone().with("scheduler", kind),
                SimCell::for_kind(kind, workflows, cluster.clone(), config.clone()),
            );
        }
        self
    }

    /// Runs the grid across up to `jobs` worker threads. Results come
    /// back in the order the cells were pushed, whatever the completion
    /// order was.
    pub fn run(&self, jobs: usize) -> SimSweepRun {
        let run = run_sweep(&self.cells, jobs, |_, cell: &SimCell| cell.run());
        SimSweepRun {
            cells: run.results,
            jobs: run.jobs,
        }
    }
}

/// The aggregated reports of one [`SimSweep::run`], in specification
/// order.
#[derive(Debug, Clone)]
pub struct SimSweepRun {
    /// `(key, report)` per cell, in specification order.
    pub cells: Vec<(CellKey, SimReport)>,
    /// Worker threads actually used.
    pub jobs: usize,
}

impl SimSweepRun {
    /// The first cell matching every `(axis, value)` pair.
    ///
    /// # Panics
    ///
    /// Panics if no cell matches.
    fn cell(&self, selector: &[(&str, &str)]) -> &(CellKey, SimReport) {
        self.cells
            .iter()
            .find(|(key, _)| key.matches(selector))
            .unwrap_or_else(|| panic!("no cell matches {selector:?}"))
    }

    /// The report of the first cell matching every `(axis, value)` pair.
    ///
    /// # Panics
    ///
    /// Panics if no cell matches.
    pub fn report(&self, selector: &[(&str, &str)]) -> &SimReport {
        &self.cell(selector).1
    }

    /// Pivots the run into a rows × columns table: one row per
    /// combination of the `rows` axes' values (the first axis outermost,
    /// labelled `a @ b`), one column per value of `column`, each cell
    /// `metric` of the matching report. Values come in first-appearance
    /// order. Cells lacking any of the axes take no part, so a sweep can
    /// hold baselines or a second grid beside the pivoted one. `header` is
    /// the row-label column's title and the prefix of every column title.
    ///
    /// # Panics
    ///
    /// Panics, naming its selector, if a combination has no cell.
    pub fn pivot(
        &self,
        rows: &[&str],
        column: &str,
        (row_title, column_prefix): (&str, &str),
        metric: impl Fn(&CellKey, &SimReport) -> String,
    ) -> Table {
        let grid: Vec<&CellKey> = self
            .cells
            .iter()
            .map(|(key, _)| key)
            .filter(|key| rows.iter().chain([&column]).all(|a| key.get(a).is_some()))
            .collect();
        let values = |axis: &str| ordered_unique(grid.iter().filter_map(|key| key.get(axis)));
        let mut labels: Vec<Vec<&str>> = vec![Vec::new()];
        for axis in rows {
            let axis_values = values(axis);
            labels = labels
                .iter()
                .flat_map(|prefix| {
                    axis_values.iter().map(move |&v| {
                        let mut label = prefix.clone();
                        label.push(v);
                        label
                    })
                })
                .collect();
        }
        let columns = values(column);
        let mut header = vec![row_title.to_string()];
        header.extend(columns.iter().map(|c| format!("{column_prefix}{c}")));
        let mut t = Table::new(header);
        for label in labels {
            let mut row = vec![label.join(" @ ")];
            for &value in &columns {
                let mut selector: Vec<(&str, &str)> =
                    rows.iter().copied().zip(label.iter().copied()).collect();
                selector.push((column, value));
                let (key, report) = self.cell(&selector);
                row.push(metric(key, report));
            }
            t.row(row);
        }
        t
    }

    /// The canonical aggregated JSON: every cell's key and report, wall
    /// clock normalized out — byte-identical for byte-identical scenario
    /// outcomes, regardless of `jobs`.
    pub fn canonical_json(&self) -> String {
        let cells: Vec<CanonicalCell> = self
            .cells
            .iter()
            .map(|(key, report)| CanonicalCell {
                cell: key.label(),
                report: canonical_report(report),
            })
            .collect();
        let mut json = serde_json::to_string_pretty(&cells).expect("reports serialize");
        json.push('\n');
        json
    }
}

#[derive(Serialize)]
struct CanonicalCell {
    cell: String,
    report: SimReport,
}

/// A copy of `report` with its one wall-clock field
/// ([`SimReport::scheduler_nanos`]) zeroed, so serialized output depends
/// only on the simulated outcome. (Report equality already ignores the
/// field; serialization must too before bytes can be compared.)
pub fn canonical_report(report: &SimReport) -> SimReport {
    let mut canonical = report.clone();
    canonical.scheduler_nanos = 0;
    canonical
}

/// Deterministic pretty JSON of one report, wall clock normalized out.
/// The golden-report regression corpus under `tests/golden/` stores
/// exactly this form.
pub fn canonical_report_json(report: &SimReport) -> String {
    let mut json =
        serde_json::to_string_pretty(&canonical_report(report)).expect("report serializes");
    json.push('\n');
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{fig2_cluster, fig2_workflows};

    #[test]
    fn cell_key_labels_and_lookup() {
        let key = CellKey::new().with("mtbf", "8h").with("scheduler", "EDF");
        assert_eq!(key.label(), "mtbf=8h scheduler=EDF");
        assert_eq!(key.get("mtbf"), Some("8h"));
        assert_eq!(key.get("absent"), None);
        assert!(key.matches(&[("scheduler", "EDF")]));
        assert!(!key.matches(&[("scheduler", "FIFO")]));
        assert_eq!(key.to_string(), key.label());
    }

    #[test]
    fn merge_restores_specification_order() {
        let shuffled = vec![(2usize, "c"), (0, "a"), (3, "d"), (1, "b")];
        assert_eq!(merge_completions(4, shuffled), vec!["a", "b", "c", "d"]);
    }

    #[test]
    #[should_panic(expected = "never completed")]
    fn merge_rejects_missing_cells() {
        merge_completions(2, vec![(0usize, 1)]);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn merge_rejects_duplicate_cells() {
        merge_completions(2, vec![(0usize, 1), (0, 2)]);
    }

    #[test]
    fn run_sweep_is_jobs_invariant() {
        let cells: Vec<(CellKey, u64)> =
            (0..13).map(|i| (CellKey::new().with("i", i), i)).collect();
        // A deliberately uneven workload so completion order differs from
        // specification order under parallel execution.
        let run = |_: &CellKey, &i: &u64| -> u64 {
            let spin = (13 - i) * 1_000;
            (0..spin).fold(i, |acc, x| acc.wrapping_add(x * x))
        };
        let serial = run_sweep(&cells, 1, run);
        for jobs in [2, 4, 8] {
            let parallel = run_sweep(&cells, jobs, run);
            assert_eq!(serial.results, parallel.results, "jobs={jobs}");
        }
        assert!(serial.jobs == 1);
    }

    #[test]
    fn sim_sweep_matches_direct_runs_and_canonical_json_is_jobs_invariant() {
        let workflows = fig2_workflows();
        let cluster = fig2_cluster();
        let config = SimConfig::default();
        let kinds = [SchedulerKind::Fifo, SchedulerKind::Edf];
        let mut sweep = SimSweep::new();
        sweep.push_kinds(&CellKey::new(), &kinds, &workflows, &cluster, &config);
        let serial = sweep.run(1);
        assert_eq!(serial.cells.len(), 2);
        for (kind, (key, report)) in kinds.iter().zip(&serial.cells) {
            assert_eq!(key.get("scheduler"), Some(kind.to_string().as_str()));
            let direct = crate::runner::run_one(*kind, &workflows, &cluster, &config);
            assert_eq!(report, &direct, "{kind}");
        }
        let parallel = sweep.run(8);
        assert_eq!(parallel.canonical_json(), serial.canonical_json());
        assert_eq!(
            serial.report(&[("scheduler", "EDF")]),
            &crate::runner::run_one(SchedulerKind::Edf, &workflows, &cluster, &config)
        );
    }

    /// A run whose every cell holds the same Fig 2 report under `keys`.
    fn keyed(keys: Vec<CellKey>) -> SimSweepRun {
        let workflows = fig2_workflows();
        let config = SimConfig::default();
        let report =
            crate::runner::run_one(SchedulerKind::Fifo, &workflows, &fig2_cluster(), &config);
        SimSweepRun {
            cells: keys.into_iter().map(|key| (key, report.clone())).collect(),
            jobs: 1,
        }
    }

    /// The failover grid in miniature: a crash-free baseline per
    /// scheduler, then `ckpt × crash × scheduler`, minus `missing`.
    fn failover_keys(missing: Option<(&str, &str, &str)>) -> Vec<CellKey> {
        let mut keys: Vec<CellKey> = ["FIFO", "EDF"]
            .map(|s| CellKey::new().with("scheduler", s))
            .to_vec();
        for ckpt in ["5m", "1m"] {
            for crash in ["30m", "10m"] {
                for scheduler in ["FIFO", "EDF"] {
                    if missing != Some((ckpt, crash, scheduler)) {
                        keys.push(
                            CellKey::new()
                                .with("ckpt", ckpt)
                                .with("crash", crash)
                                .with("scheduler", scheduler),
                        );
                    }
                }
            }
        }
        keys
    }

    #[test]
    fn pivot_follows_first_appearance_and_skips_cells_off_the_grid() {
        let run = keyed(failover_keys(None));
        let table = run.pivot(
            &["scheduler", "ckpt"],
            "crash",
            ("scheduler @ ckpt", "crash "),
            |key, report| format!("{}/{}", key.get("crash").unwrap(), report.outcomes.len()),
        );
        assert_eq!(
            table.to_csv(),
            "scheduler @ ckpt,crash 30m,crash 10m\n\
             FIFO @ 5m,30m/3,10m/3\n\
             FIFO @ 1m,30m/3,10m/3\n\
             EDF @ 5m,30m/3,10m/3\n\
             EDF @ 1m,30m/3,10m/3\n"
        );
    }

    #[test]
    #[should_panic(
        expected = r#"no cell matches [("scheduler", "EDF"), ("ckpt", "1m"), ("crash", "10m")]"#
    )]
    fn pivot_panics_on_a_missing_cell_with_its_selector() {
        let run = keyed(failover_keys(Some(("1m", "10m", "EDF"))));
        run.pivot(&["scheduler", "ckpt"], "crash", ("", ""), |_, _| {
            String::new()
        });
    }

    #[test]
    fn canonical_report_zeroes_wall_clock() {
        let workflows = fig2_workflows();
        let report = crate::runner::run_one(
            SchedulerKind::Fifo,
            &workflows,
            &fig2_cluster(),
            &SimConfig::default(),
        );
        let canon = canonical_report(&report);
        assert_eq!(canon.scheduler_nanos, 0);
        assert_eq!(canon, report, "equality ignores wall clock");
        assert!(canonical_report_json(&report).contains("\"scheduler_nanos\": 0"));
    }
}
