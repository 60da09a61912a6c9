//! Workflow XML configuration files.
//!
//! This is the file format a user hands to `hadoop dag /path/to/W_i.xml`
//! (paper §III-B). A configuration lists every wjob with its jar file, main
//! class, input and output dataset paths, task counts, and per-task duration
//! estimates, plus the workflow deadline. Like WOHA's Configuration
//! Validator, [`WorkflowConfig::parse`] checks the file's internal
//! consistency and derives the prerequisite set `P_i` from matching
//! input/output paths (a job that reads a path another job writes depends on
//! that job); explicit `<depends on="..."/>` edges may be added on top.
//!
//! # Example document
//!
//! ```xml
//! <workflow name="user-log-stats" deadline="80m">
//!   <job name="extract" mappers="8" reducers="2"
//!        map-duration="30s" reduce-duration="120s"
//!        jar="udf.jar" main-class="com.example.Extract">
//!     <input path="/logs/raw"/>
//!     <output path="/tmp/extracted"/>
//!   </job>
//!   <job name="report" mappers="4" reducers="1"
//!        map-duration="20s" reduce-duration="300s">
//!     <input path="/tmp/extracted"/>
//!     <output path="/reports/daily"/>
//!     <depends on="extract"/>
//!   </job>
//! </workflow>
//! ```

use crate::error::ModelError;
use crate::job::JobSpec;
use crate::time::{SimDuration, SimTime};
use crate::workflow::{WorkflowBuilder, WorkflowSpec};
use crate::xml::{self, Element};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One `<job>` entry of a workflow configuration file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobConfig {
    /// Job name, unique within the workflow.
    pub name: String,
    /// Number of map tasks.
    pub mappers: u32,
    /// Number of reduce tasks.
    pub reducers: u32,
    /// Estimated duration of one map task.
    pub map_duration: SimDuration,
    /// Estimated duration of one reduce task.
    pub reduce_duration: SimDuration,
    /// Path of the user jar file (informational in the simulator).
    pub jar: Option<String>,
    /// Main class inside the jar (informational in the simulator).
    pub main_class: Option<String>,
    /// Input dataset paths.
    pub inputs: Vec<String>,
    /// Output dataset paths.
    pub outputs: Vec<String>,
    /// Explicit prerequisites by job name (in addition to path-derived ones).
    pub depends_on: Vec<String>,
}

/// A parsed workflow configuration file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkflowConfig {
    /// Workflow name.
    pub name: String,
    /// Relative deadline (`D_i - S_i`); `None` means no deadline.
    pub relative_deadline: Option<SimDuration>,
    /// The job entries in document order.
    pub jobs: Vec<JobConfig>,
}

impl WorkflowConfig {
    /// Parses a workflow configuration from XML text.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the XML is malformed, a required attribute
    /// is missing or non-numeric, a duration does not parse, a job name is
    /// duplicated, or a `<depends on>` references an unknown job.
    pub fn parse(text: &str) -> Result<Self, ModelError> {
        let root = xml::parse(text)?;
        if root.name != "workflow" {
            return Err(ModelError::Schema(format!(
                "root element is <{}>, expected <workflow>",
                root.name
            )));
        }
        let name = require_attr(&root, "name")?.to_string();
        let relative_deadline = match root.attr("deadline") {
            Some(raw) => Some(parse_duration(raw)?),
            None => None,
        };
        let mut jobs = Vec::new();
        for child in &root.children {
            if child.name != "job" {
                return Err(ModelError::Schema(format!(
                    "unexpected element <{}> under <workflow>",
                    child.name
                )));
            }
            jobs.push(parse_job(child)?);
        }
        let config = WorkflowConfig {
            name,
            relative_deadline,
            jobs,
        };
        config.check_names()?;
        Ok(config)
    }

    fn check_names(&self) -> Result<(), ModelError> {
        let mut seen: HashMap<&str, ()> = HashMap::new();
        for job in &self.jobs {
            if seen.insert(job.name.as_str(), ()).is_some() {
                return Err(ModelError::DuplicateJobName(job.name.clone()));
            }
        }
        for job in &self.jobs {
            for dep in &job.depends_on {
                if !seen.contains_key(dep.as_str()) {
                    return Err(ModelError::Schema(format!(
                        "job {:?} depends on unknown job {:?}",
                        job.name, dep
                    )));
                }
            }
        }
        Ok(())
    }

    /// Builds the validated [`WorkflowSpec`], submitted at `submit_time`.
    ///
    /// Prerequisites are the union of path-derived edges (job B reads a path
    /// job A writes ⇒ A is a prerequisite of B) and explicit
    /// `<depends on="..."/>` edges, exactly as the paper's Configuration
    /// Validator "constructs prerequisite set P_i based on inputs and
    /// outputs of each wjob".
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the derived relation is cyclic or any
    /// workflow invariant fails (see [`WorkflowBuilder::build`]).
    pub fn to_spec(&self, submit_time: SimTime) -> Result<WorkflowSpec, ModelError> {
        let mut builder = WorkflowBuilder::new(self.name.clone());
        let mut ids = HashMap::new();
        let mut producers: HashMap<&str, usize> = HashMap::new();
        for (index, job) in self.jobs.iter().enumerate() {
            let id = builder.add_job(JobSpec::new(
                job.name.clone(),
                job.mappers,
                job.reducers,
                job.map_duration,
                job.reduce_duration,
            ));
            ids.insert(job.name.as_str(), id);
            for out in &job.outputs {
                producers.insert(out.as_str(), index);
            }
        }
        for job in &self.jobs {
            let succ = ids[job.name.as_str()];
            for input in &job.inputs {
                if let Some(&producer) = producers.get(input.as_str()) {
                    let pred = ids[self.jobs[producer].name.as_str()];
                    if pred != succ {
                        builder.add_dependency(pred, succ);
                    }
                }
            }
            for dep in &job.depends_on {
                builder.add_dependency(ids[dep.as_str()], succ);
            }
        }
        builder.submit_at(submit_time);
        if let Some(rel) = self.relative_deadline {
            builder.relative_deadline(rel);
        }
        builder.build()
    }

    /// Renders the configuration back to XML.
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("workflow").with_attr("name", self.name.clone());
        if let Some(rel) = self.relative_deadline {
            root = root.with_attr("deadline", format_duration(rel));
        }
        for job in &self.jobs {
            let mut e = Element::new("job")
                .with_attr("name", job.name.clone())
                .with_attr("mappers", job.mappers.to_string())
                .with_attr("reducers", job.reducers.to_string())
                .with_attr("map-duration", format_duration(job.map_duration))
                .with_attr("reduce-duration", format_duration(job.reduce_duration));
            if let Some(jar) = &job.jar {
                e = e.with_attr("jar", jar.clone());
            }
            if let Some(class) = &job.main_class {
                e = e.with_attr("main-class", class.clone());
            }
            for path in &job.inputs {
                e = e.with_child(Element::new("input").with_attr("path", path.clone()));
            }
            for path in &job.outputs {
                e = e.with_child(Element::new("output").with_attr("path", path.clone()));
            }
            for dep in &job.depends_on {
                e = e.with_child(Element::new("depends").with_attr("on", dep.clone()));
            }
            root = root.with_child(e);
        }
        root.to_string()
    }
}

/// Builds a [`WorkflowConfig`] with explicit `depends_on` edges from a
/// [`WorkflowSpec`] (the inverse of [`WorkflowConfig::to_spec`] up to
/// path-derived edges, which become explicit).
impl From<&WorkflowSpec> for WorkflowConfig {
    fn from(spec: &WorkflowSpec) -> Self {
        let jobs = spec
            .job_ids()
            .map(|id| {
                let j = spec.job(id);
                JobConfig {
                    name: j.name().to_string(),
                    mappers: j.map_tasks(),
                    reducers: j.reduce_tasks(),
                    map_duration: j.map_duration(),
                    reduce_duration: j.reduce_duration(),
                    jar: None,
                    main_class: None,
                    inputs: Vec::new(),
                    outputs: Vec::new(),
                    depends_on: spec
                        .prerequisites(id)
                        .iter()
                        .map(|&p| spec.job(p).name().to_string())
                        .collect(),
                }
            })
            .collect();
        WorkflowConfig {
            name: spec.name().to_string(),
            relative_deadline: if spec.deadline() == SimTime::MAX {
                None
            } else {
                Some(spec.relative_deadline())
            },
            jobs,
        }
    }
}

fn parse_job(e: &Element) -> Result<JobConfig, ModelError> {
    let name = require_attr(e, "name")?.to_string();
    let mappers = parse_u32(e, "mappers")?;
    let reducers = match e.attr("reducers") {
        Some(_) => parse_u32(e, "reducers")?,
        None => 0,
    };
    let map_duration = parse_duration(require_attr(e, "map-duration")?)?;
    let reduce_duration = match e.attr("reduce-duration") {
        Some(raw) => parse_duration(raw)?,
        None => SimDuration::ZERO,
    };
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut depends_on = Vec::new();
    for child in &e.children {
        match child.name.as_str() {
            "input" => inputs.push(require_attr(child, "path")?.to_string()),
            "output" => outputs.push(require_attr(child, "path")?.to_string()),
            "depends" => depends_on.push(require_attr(child, "on")?.to_string()),
            other => {
                return Err(ModelError::Schema(format!(
                    "unexpected element <{other}> under <job>"
                )))
            }
        }
    }
    Ok(JobConfig {
        name,
        mappers,
        reducers,
        map_duration,
        reduce_duration,
        jar: e.attr("jar").map(str::to_string),
        main_class: e.attr("main-class").map(str::to_string),
        inputs,
        outputs,
        depends_on,
    })
}

fn require_attr<'a>(e: &'a Element, attribute: &str) -> Result<&'a str, ModelError> {
    e.attr(attribute)
        .ok_or_else(|| ModelError::MissingAttribute {
            element: e.name.clone(),
            attribute: attribute.to_string(),
        })
}

fn parse_u32(e: &Element, attribute: &str) -> Result<u32, ModelError> {
    let raw = require_attr(e, attribute)?;
    raw.parse().map_err(|_| ModelError::InvalidNumber {
        attribute: attribute.to_string(),
        value: raw.to_string(),
    })
}

/// Parses a human-friendly duration: `"1500ms"`, `"30s"`, `"80m"`, `"2h"`,
/// or a bare integer meaning milliseconds.
///
/// # Errors
///
/// Returns [`ModelError::InvalidDuration`] for anything else.
///
/// # Examples
///
/// ```
/// use woha_model::{config::parse_duration, SimDuration};
/// assert_eq!(parse_duration("80m").unwrap(), SimDuration::from_mins(80));
/// assert_eq!(parse_duration("250").unwrap(), SimDuration::from_millis(250));
/// assert!(parse_duration("fast").is_err());
/// ```
pub fn parse_duration(raw: &str) -> Result<SimDuration, ModelError> {
    let raw = raw.trim();
    let bad = || ModelError::InvalidDuration(raw.to_string());
    let (digits, unit) = match raw.find(|c: char| !c.is_ascii_digit()) {
        Some(0) => return Err(bad()),
        Some(split) => raw.split_at(split),
        None => (raw, ""),
    };
    let value: u64 = digits.parse().map_err(|_| bad())?;
    let millis_per_unit: u64 = match unit {
        "" | "ms" => 1,
        "s" => 1_000,
        "m" | "min" => 60_000,
        "h" => 3_600_000,
        _ => return Err(bad()),
    };
    value
        .checked_mul(millis_per_unit)
        .map(SimDuration::from_millis)
        .ok_or_else(bad)
}

/// Formats a duration in the most compact unit that is exact, the inverse of
/// [`parse_duration`].
pub fn format_duration(d: SimDuration) -> String {
    let ms = d.as_millis();
    if ms == 0 {
        return "0s".to_string();
    }
    if ms.is_multiple_of(3_600_000) {
        format!("{}h", ms / 3_600_000)
    } else if ms.is_multiple_of(60_000) {
        format!("{}m", ms / 60_000)
    } else if ms.is_multiple_of(1_000) {
        format!("{}s", ms / 1_000)
    } else {
        format!("{ms}ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
    <workflow name="user-log-stats" deadline="80m">
      <job name="extract" mappers="8" reducers="2"
           map-duration="30s" reduce-duration="120s"
           jar="udf.jar" main-class="com.example.Extract">
        <input path="/logs/raw"/>
        <output path="/tmp/extracted"/>
      </job>
      <job name="report" mappers="4" reducers="1"
           map-duration="20s" reduce-duration="300s">
        <input path="/tmp/extracted"/>
        <output path="/reports/daily"/>
      </job>
      <job name="archive" mappers="2" map-duration="10s">
        <input path="/logs/raw"/>
        <output path="/archive/raw"/>
        <depends on="report"/>
      </job>
    </workflow>"#;

    #[test]
    fn parses_full_document() {
        let cfg = WorkflowConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.name, "user-log-stats");
        assert_eq!(cfg.relative_deadline, Some(SimDuration::from_mins(80)));
        assert_eq!(cfg.jobs.len(), 3);
        assert_eq!(cfg.jobs[0].jar.as_deref(), Some("udf.jar"));
        assert_eq!(cfg.jobs[2].reducers, 0);
        assert_eq!(cfg.jobs[2].reduce_duration, SimDuration::ZERO);
    }

    #[test]
    fn derives_prerequisites_from_paths_and_depends() {
        let cfg = WorkflowConfig::parse(SAMPLE).unwrap();
        let spec = cfg.to_spec(SimTime::ZERO).unwrap();
        let extract = spec.job_by_name("extract").unwrap();
        let report = spec.job_by_name("report").unwrap();
        let archive = spec.job_by_name("archive").unwrap();
        // report reads what extract writes.
        assert_eq!(spec.prerequisites(report), &[extract]);
        // archive has only the explicit edge (its input /logs/raw is a
        // primary dataset nobody produces).
        assert_eq!(spec.prerequisites(archive), &[report]);
        assert_eq!(spec.initially_ready(), vec![extract]);
        assert_eq!(spec.deadline(), SimTime::from_mins(80));
    }

    #[test]
    fn submit_time_offsets_deadline() {
        let cfg = WorkflowConfig::parse(SAMPLE).unwrap();
        let spec = cfg.to_spec(SimTime::from_mins(10)).unwrap();
        assert_eq!(spec.deadline(), SimTime::from_mins(90));
    }

    #[test]
    fn missing_deadline_is_none() {
        let cfg = WorkflowConfig::parse(
            r#"<workflow name="w"><job name="a" mappers="1" map-duration="5s"/></workflow>"#,
        )
        .unwrap();
        assert_eq!(cfg.relative_deadline, None);
        let spec = cfg.to_spec(SimTime::ZERO).unwrap();
        assert_eq!(spec.deadline(), SimTime::MAX);
    }

    #[test]
    fn rejects_wrong_root() {
        assert!(matches!(
            WorkflowConfig::parse("<jobs/>").unwrap_err(),
            ModelError::Schema(_)
        ));
    }

    #[test]
    fn rejects_duplicate_job_names() {
        let doc = r#"<workflow name="w">
            <job name="a" mappers="1" map-duration="5s"/>
            <job name="a" mappers="1" map-duration="5s"/>
        </workflow>"#;
        assert_eq!(
            WorkflowConfig::parse(doc).unwrap_err(),
            ModelError::DuplicateJobName("a".into())
        );
    }

    #[test]
    fn rejects_unknown_depends() {
        let doc = r#"<workflow name="w">
            <job name="a" mappers="1" map-duration="5s"><depends on="ghost"/></job>
        </workflow>"#;
        assert!(matches!(
            WorkflowConfig::parse(doc).unwrap_err(),
            ModelError::Schema(_)
        ));
    }

    #[test]
    fn rejects_missing_and_bad_attributes() {
        assert!(matches!(
            WorkflowConfig::parse(
                r#"<workflow><job name="a" mappers="1" map-duration="5s"/></workflow>"#
            )
            .unwrap_err(),
            ModelError::MissingAttribute { .. }
        ));
        assert!(matches!(
            WorkflowConfig::parse(
                r#"<workflow name="w"><job name="a" mappers="lots" map-duration="5s"/></workflow>"#
            )
            .unwrap_err(),
            ModelError::InvalidNumber { .. }
        ));
        assert!(matches!(
            WorkflowConfig::parse(
                r#"<workflow name="w"><job name="a" mappers="1" map-duration="soon"/></workflow>"#
            )
            .unwrap_err(),
            ModelError::InvalidDuration(_)
        ));
        assert_eq!(
            WorkflowConfig::parse(
                r#"<workflow name="w" deadline="18446744073709552s">
                     <job name="a" mappers="1" map-duration="5s"/>
                   </workflow>"#
            )
            .unwrap_err(),
            ModelError::InvalidDuration("18446744073709552s".to_string())
        );
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(
            parse_duration("250ms").unwrap(),
            SimDuration::from_millis(250)
        );
        assert_eq!(parse_duration("30s").unwrap(), SimDuration::from_secs(30));
        assert_eq!(parse_duration("80m").unwrap(), SimDuration::from_mins(80));
        assert_eq!(parse_duration("2h").unwrap(), SimDuration::from_mins(120));
        assert_eq!(parse_duration("42").unwrap(), SimDuration::from_millis(42));
        assert_eq!(parse_duration(" 5s ").unwrap(), SimDuration::from_secs(5));
        assert!(parse_duration("s").is_err());
        assert!(parse_duration("5 weeks").is_err());
        assert!(parse_duration("").is_err());
        // Past u64 milliseconds is invalid, not wrapped.
        let max_secs = SimDuration::MAX.as_millis() / 1_000;
        assert_eq!(
            parse_duration(&format!("{max_secs}s")).unwrap(),
            SimDuration::from_secs(max_secs)
        );
        for raw in [
            "18446744073709552s",
            "307445734561826m",
            "5124095576030432h",
            "18446744073709551616",
        ] {
            let invalid = ModelError::InvalidDuration(raw.to_string());
            assert_eq!(parse_duration(raw), Err(invalid), "{raw}");
        }
    }

    #[test]
    fn task_durations_whose_sums_overflow_are_rejected() {
        let chain = |map_duration: &str| {
            WorkflowConfig::parse(&format!(
                r#"<workflow name="w" deadline="1h">
                     <job name="a" mappers="1" reducers="1" map-duration="{map_duration}"
                          reduce-duration="1s"><output path="/t/a"/></job>
                     <job name="b" mappers="1" map-duration="{map_duration}">
                       <input path="/t/a"/></job>
                   </workflow>"#
            ))
            .unwrap()
            .to_spec(SimTime::ZERO)
        };
        assert_eq!(
            chain("18446744073709551615").unwrap_err(),
            ModelError::WorkOverflow
        );
        let half = (u64::MAX - 1_000) / 2;
        let fits = chain(&half.to_string()).unwrap();
        assert_eq!(fits.critical_path().as_millis(), 2 * half + 1_000);
    }

    #[test]
    fn duration_formatting_roundtrips() {
        for d in [
            SimDuration::ZERO,
            SimDuration::from_millis(1),
            SimDuration::from_millis(1500),
            SimDuration::from_secs(30),
            SimDuration::from_mins(80),
            SimDuration::from_mins(120),
        ] {
            assert_eq!(parse_duration(&format_duration(d)).unwrap(), d);
        }
        assert_eq!(format_duration(SimDuration::from_mins(120)), "2h");
    }

    #[test]
    fn xml_roundtrip_through_config() {
        let cfg = WorkflowConfig::parse(SAMPLE).unwrap();
        let rendered = cfg.to_xml();
        let reparsed = WorkflowConfig::parse(&rendered).unwrap();
        assert_eq!(cfg, reparsed);
    }

    #[test]
    fn spec_to_config_roundtrip() {
        let cfg = WorkflowConfig::parse(SAMPLE).unwrap();
        let spec = cfg.to_spec(SimTime::ZERO).unwrap();
        let cfg2 = WorkflowConfig::from(&spec);
        let spec2 = cfg2.to_spec(SimTime::ZERO).unwrap();
        assert_eq!(spec, spec2);
    }
}
