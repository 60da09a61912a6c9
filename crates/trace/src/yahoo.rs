//! Synthetic Yahoo!-like job and workflow traces.
//!
//! The paper evaluates WOHA with a proprietary Yahoo! WebScope trace
//! ("detailed information of more than 4000 jobs on 2012 March 7th",
//! arranged into 61 workflows of 180 jobs). That trace is not available, so
//! this module generates synthetic traces calibrated to every statistic the
//! paper publishes about it:
//!
//! - Fig 5(a): most mappers finish between 10 s and 100 s; more than half of
//!   the reducers take over 100 s and about 10 % take over 1000 s.
//! - Fig 5(b): reducers usually take longer than mappers in the same job.
//! - Fig 6(a): about 30 % of jobs have more than 100 mappers; more than 60 %
//!   of jobs have fewer than 10 reducers.
//! - Fig 6(b): mappers usually outnumber reducers in the same job.
//! - §VI-A: 61 workflows totalling 180 jobs, 15 of them single-job, the
//!   largest containing 12 jobs.

use crate::dist::{BoundedPareto, Clamped, Distribution, LogNormal};
use crate::rng::Rng;
use crate::topology::random_layered;
use woha_model::{JobSpec, WorkflowSpec};

/// Parameters of the synthetic Yahoo-like trace.
///
/// The defaults reproduce the paper's published statistics; tests in this
/// module assert that they do.
#[derive(Debug, Clone, PartialEq)]
pub struct YahooTraceConfig {
    /// Log-normal shape of reduce task durations.
    pub reduce_duration_sigma: f64,
    /// Largest mapper count.
    pub map_count_max: u32,
    /// Largest reducer count.
    pub reduce_count_max: u32,
}

impl Default for YahooTraceConfig {
    fn default() -> Self {
        YahooTraceConfig {
            reduce_duration_sigma: 1.4,
            map_count_max: 3_000,
            reduce_count_max: 400,
        }
    }
}

/// Median of the per-job map task duration distribution, seconds.
const MAP_DURATION_MEDIAN_SECS: f64 = 35.0;
/// Log-normal shape of map task durations.
const MAP_DURATION_SIGMA: f64 = 0.75;
/// Median of the per-job reduce task duration distribution, seconds.
const REDUCE_DURATION_MEDIAN_SECS: f64 = 140.0;
/// Pareto tail index for mapper counts (smaller = heavier tail).
const MAP_COUNT_ALPHA: f64 = 0.12;
/// Pareto tail index for reducer counts.
const REDUCE_COUNT_ALPHA: f64 = 0.42;

impl YahooTraceConfig {
    /// Draws one job from the trace distributions.
    pub fn sample_job(&self, name: impl Into<String>, rng: &mut Rng) -> JobSpec {
        let map_dur = Clamped::new(
            LogNormal::from_median(MAP_DURATION_MEDIAN_SECS, MAP_DURATION_SIGMA),
            2.0,
            3_000.0,
        );
        let red_dur = Clamped::new(
            LogNormal::from_median(REDUCE_DURATION_MEDIAN_SECS, self.reduce_duration_sigma),
            5.0,
            10_000.0,
        );
        let map_count = BoundedPareto::new(1.0, f64::from(self.map_count_max), MAP_COUNT_ALPHA);
        let red_count =
            BoundedPareto::new(1.0, f64::from(self.reduce_count_max), REDUCE_COUNT_ALPHA);

        let mappers = map_count.sample(rng).round().max(1.0) as u32;
        let mut reducers = red_count.sample(rng).round() as u32;
        // "mappers usually outnumber reducers": cap reducers near the mapper
        // count so the count ratio distribution (Fig 6b) sits mostly above 1.
        if reducers > mappers && rng.gen_bool(0.8) {
            reducers = (mappers / 2).max(1);
        }
        // A tail of map-only jobs exists in production traces.
        if rng.gen_bool(0.08) {
            reducers = 0;
        }
        // Durations are rounded to whole seconds: execution-time estimates
        // come from coarse history logs, and this keeps progress-requirement
        // change instants at second granularity (cf. Fig 3).
        let map_secs = map_dur.sample(rng).round().max(2.0);
        // Reduce duration keeps its own heavy tail ("about 10% of reducers
        // even take more than 1000s") with a floor tied to the job's map
        // duration so reducers are usually the slower phase (Fig 5b).
        let red_secs = (red_dur.sample(rng).max(map_secs * 1.2)).round().max(5.0);
        JobSpec::new(
            name,
            mappers,
            reducers,
            woha_model::SimDuration::from_secs_f64(map_secs),
            woha_model::SimDuration::from_secs_f64(red_secs),
        )
    }

    /// Generates `count` independent jobs (the paper's "more than 4000 jobs"
    /// trace is `generate_jobs(&mut rng, 4000)`).
    pub fn generate_jobs(&self, rng: &mut Rng, count: usize) -> Vec<JobSpec> {
        (0..count)
            .map(|i| self.sample_job(format!("job-{i}"), rng))
            .collect()
    }
}

/// The workflow-size multiset of the paper's Yahoo workload: 61 workflows,
/// 180 jobs, 15 single-job workflows, largest workflow 12 jobs.
pub fn yahoo_workflow_sizes() -> Vec<usize> {
    let mut sizes = vec![12, 10, 8, 7, 6, 6, 5, 5, 5, 4, 4, 4, 4, 4];
    sizes.extend(std::iter::repeat_n(3, 17));
    sizes.extend(std::iter::repeat_n(2, 15));
    sizes.extend(std::iter::repeat_n(1, 15));
    sizes
}

/// Generates the 61-workflow Yahoo-like workload.
///
/// Workflows are returned with submission time zero and no deadline;
/// [`crate::workload`] assigns releases and deadlines. Multi-job workflows
/// get random layered topologies; single-job workflows a lone job.
///
/// # Examples
///
/// ```
/// use woha_trace::{yahoo::{yahoo_workflows, YahooTraceConfig}, Rng};
/// let flows = yahoo_workflows(&YahooTraceConfig::default(), &mut Rng::new(7));
/// assert_eq!(flows.len(), 61);
/// let total: usize = flows.iter().map(|w| w.job_count()).sum();
/// assert_eq!(total, 180);
/// ```
pub fn yahoo_workflows(config: &YahooTraceConfig, rng: &mut Rng) -> Vec<WorkflowSpec> {
    let mut topo_rng = rng.fork(1);
    let mut job_rng = rng.fork(2);
    yahoo_workflow_sizes()
        .into_iter()
        .enumerate()
        .map(|(i, size)| {
            let name = format!("yahoo-w{i:02}");
            if size == 1 {
                let mut b = woha_model::WorkflowBuilder::new(name.clone());
                b.add_job(config.sample_job(format!("{name}-j0"), &mut job_rng));
                b.build().expect("single job workflow is valid")
            } else {
                random_layered(name.clone(), size, &mut topo_rng, |j| {
                    config.sample_job(format!("{name}-j{j}"), &mut job_rng)
                })
                .build()
                .expect("layered workflow is valid")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Cdf;

    fn big_trace() -> Vec<JobSpec> {
        YahooTraceConfig::default().generate_jobs(&mut Rng::new(2024), 4_000)
    }

    #[test]
    fn fig5a_map_durations_mostly_10_to_100s() {
        let jobs = big_trace();
        let cdf = Cdf::from_samples(jobs.iter().map(|j| j.map_duration().as_secs_f64()));
        let in_band = cdf.fraction_at_or_below(100.0) - cdf.fraction_at_or_below(10.0);
        assert!(in_band > 0.6, "only {in_band:.2} of mappers in 10-100s");
    }

    #[test]
    fn fig5a_reduce_durations_have_heavy_tail() {
        let jobs = big_trace();
        let with_reducers: Vec<f64> = jobs
            .iter()
            .filter(|j| !j.is_map_only())
            .map(|j| j.reduce_duration().as_secs_f64())
            .collect();
        let cdf = Cdf::from_samples(with_reducers);
        let over_100 = 1.0 - cdf.fraction_at_or_below(100.0);
        let over_1000 = 1.0 - cdf.fraction_at_or_below(1_000.0);
        assert!(over_100 > 0.5, "only {over_100:.2} of reducers over 100s");
        assert!(
            (0.04..0.2).contains(&over_1000),
            "{over_1000:.2} of reducers over 1000s"
        );
    }

    #[test]
    fn fig5b_reducers_usually_slower_than_mappers() {
        let jobs = big_trace();
        let slower = jobs
            .iter()
            .filter(|j| !j.is_map_only())
            .filter(|j| j.reduce_duration() > j.map_duration())
            .count();
        let total = jobs.iter().filter(|j| !j.is_map_only()).count();
        assert!(
            slower as f64 / total as f64 > 0.7,
            "only {slower}/{total} jobs have slower reducers"
        );
    }

    #[test]
    fn fig6a_mapper_counts_heavy_tail() {
        let jobs = big_trace();
        let over_100 =
            jobs.iter().filter(|j| j.map_tasks() > 100).count() as f64 / jobs.len() as f64;
        assert!(
            (0.2..0.45).contains(&over_100),
            "{over_100:.2} of jobs have >100 mappers"
        );
    }

    #[test]
    fn fig6a_reducer_counts_mostly_small() {
        let jobs = big_trace();
        let under_10 =
            jobs.iter().filter(|j| j.reduce_tasks() < 10).count() as f64 / jobs.len() as f64;
        assert!(under_10 > 0.6, "{under_10:.2} of jobs have <10 reducers");
    }

    #[test]
    fn fig6b_mappers_usually_outnumber_reducers() {
        let jobs = big_trace();
        let more_maps = jobs
            .iter()
            .filter(|j| j.map_tasks() >= j.reduce_tasks())
            .count() as f64
            / jobs.len() as f64;
        assert!(more_maps > 0.7, "{more_maps:.2}");
    }

    #[test]
    fn workload_shape_matches_paper() {
        let sizes = yahoo_workflow_sizes();
        assert_eq!(sizes.len(), 61, "61 workflows");
        assert_eq!(sizes.iter().sum::<usize>(), 180, "180 jobs");
        assert_eq!(
            sizes.iter().filter(|&&s| s == 1).count(),
            15,
            "15 singletons"
        );
        assert_eq!(*sizes.iter().max().unwrap(), 12, "largest has 12 jobs");
    }

    #[test]
    fn workflows_are_valid_and_deterministic() {
        let cfg = YahooTraceConfig::default();
        let a = yahoo_workflows(&cfg, &mut Rng::new(3));
        let b = yahoo_workflows(&cfg, &mut Rng::new(3));
        assert_eq!(a, b);
        for w in &a {
            assert!(w.to_dag().is_acyclic());
            assert!(w.total_tasks() > 0);
        }
        let multi = a.iter().filter(|w| !w.is_single_job()).count();
        assert_eq!(multi, 46);
    }
}
