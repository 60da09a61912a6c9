//! Static description of one Map-Reduce job inside a workflow.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Static description of a Map-Reduce job (`J_i^j` in the paper): how many
/// map and reduce tasks it runs and how long each is estimated to take.
///
/// The duration fields are the *estimates* (`M_i^j`, `R_i^j`) that the
/// client-side Scheduling Plan Generator works from; the simulator may run
/// the actual tasks with jitter around them, exactly as real executions
/// deviate from history-based estimates.
///
/// # Examples
///
/// ```
/// use woha_model::{JobSpec, SimDuration};
/// let job = JobSpec::new("aggregate", 40, 4,
///     SimDuration::from_secs(30), SimDuration::from_secs(120));
/// assert_eq!(job.total_tasks(), 44);
/// assert_eq!(job.length(), SimDuration::from_secs(150));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JobSpec {
    name: String,
    map_tasks: u32,
    reduce_tasks: u32,
    map_duration: SimDuration,
    reduce_duration: SimDuration,
}

impl JobSpec {
    /// Creates a job spec.
    ///
    /// `map_tasks` is the number of mappers (`m_i^j`), `reduce_tasks` the
    /// number of reducers (`r_i^j`, may be zero for map-only jobs), and the
    /// two durations are the per-task execution time estimates.
    pub fn new(
        name: impl Into<String>,
        map_tasks: u32,
        reduce_tasks: u32,
        map_duration: SimDuration,
        reduce_duration: SimDuration,
    ) -> Self {
        JobSpec {
            name: name.into(),
            map_tasks,
            reduce_tasks,
            map_duration,
            reduce_duration,
        }
    }

    /// The job's human-readable name (unique within its workflow).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of map tasks (`m_i^j`).
    pub fn map_tasks(&self) -> u32 {
        self.map_tasks
    }

    /// Number of reduce tasks (`r_i^j`).
    pub fn reduce_tasks(&self) -> u32 {
        self.reduce_tasks
    }

    /// Estimated duration of one map task (`M_i^j`).
    pub fn map_duration(&self) -> SimDuration {
        self.map_duration
    }

    /// Estimated duration of one reduce task (`R_i^j`).
    pub fn reduce_duration(&self) -> SimDuration {
        self.reduce_duration
    }

    /// Total number of tasks, `m_i^j + r_i^j`.
    pub fn total_tasks(&self) -> u32 {
        self.map_tasks + self.reduce_tasks
    }

    /// The job "length" used by Longest Path First: the sum of the estimated
    /// map task duration and (for jobs that have reducers) the estimated
    /// reduce task duration — one wave of each phase.
    pub fn length(&self) -> SimDuration {
        if self.is_map_only() {
            self.map_duration
        } else {
            self.map_duration.saturating_add(self.reduce_duration)
        }
    }

    /// Whether this is a map-only job (no reducers).
    pub fn is_map_only(&self) -> bool {
        self.reduce_tasks == 0
    }

    /// Total slot-time this job consumes:
    /// `m_i^j * M_i^j + r_i^j * R_i^j`.
    pub fn total_work(&self) -> SimDuration {
        (self.map_duration * u64::from(self.map_tasks))
            .saturating_add(self.reduce_duration * u64::from(self.reduce_tasks))
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}m x {}, {}r x {})",
            self.name, self.map_tasks, self.map_duration, self.reduce_tasks, self.reduce_duration
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec::new(
            "j",
            10,
            2,
            SimDuration::from_secs(30),
            SimDuration::from_secs(100),
        )
    }

    #[test]
    fn accessors() {
        let j = sample();
        assert_eq!(j.name(), "j");
        assert_eq!(j.map_tasks(), 10);
        assert_eq!(j.reduce_tasks(), 2);
        assert_eq!(j.map_duration(), SimDuration::from_secs(30));
        assert_eq!(j.reduce_duration(), SimDuration::from_secs(100));
    }

    #[test]
    fn totals() {
        let j = sample();
        assert_eq!(j.total_tasks(), 12);
        assert_eq!(j.length(), SimDuration::from_secs(130));
        assert_eq!(j.total_work(), SimDuration::from_secs(10 * 30 + 2 * 100));
    }

    #[test]
    fn map_only_job() {
        let j = JobSpec::new("m", 4, 0, SimDuration::from_secs(10), SimDuration::ZERO);
        assert!(j.is_map_only());
        assert_eq!(j.length(), SimDuration::from_secs(10));
        assert_eq!(j.total_work(), SimDuration::from_secs(40));
    }

    #[test]
    fn display_mentions_counts() {
        let s = sample().to_string();
        assert!(s.contains("10m"));
        assert!(s.contains("2r"));
    }

    #[test]
    fn serde_roundtrip() {
        let j = sample();
        let json = serde_json::to_string(&j).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(j, back);
    }
}
