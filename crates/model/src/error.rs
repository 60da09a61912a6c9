//! Error types for the workflow model.

use crate::ids::JobId;
use std::error::Error as StdError;
use std::fmt;

/// Errors produced while building, validating, or parsing workflow models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// The workflow's prerequisite relation contains a cycle.
    Cycle {
        /// A job known to participate in the cycle.
        job: JobId,
    },
    /// A dependency referenced a job id that does not exist in the workflow.
    UnknownJob {
        /// The offending job id.
        job: JobId,
        /// Number of jobs actually in the workflow.
        job_count: usize,
    },
    /// A job name appeared more than once in a workflow configuration.
    DuplicateJobName(String),
    /// A dependency edge was declared from a job to itself.
    SelfDependency(JobId),
    /// The workflow contains no jobs.
    EmptyWorkflow,
    /// A job was declared with zero map tasks.
    ///
    /// Every Hadoop job runs at least one mapper; reduce-less (map-only)
    /// jobs are allowed, mapper-less jobs are not.
    NoMapTasks(JobId),
    /// The workflow holds more tasks, maps and reduces over all jobs, than
    /// [`crate::workflow::MAX_WORKFLOW_TASKS`].
    TooManyTasks {
        /// The workflow's total task count.
        tasks: u64,
        /// The largest total accepted.
        limit: u64,
    },
    /// The deadline is not later than the submission time.
    DeadlineBeforeSubmit,
    /// A serialized workflow's prerequisite and dependent lists disagree:
    /// each must have one entry per job, sorted and free of duplicates,
    /// and each must be the other's transpose.
    InconsistentEdges,
    /// A duration string (e.g. `"80m"`) could not be parsed.
    InvalidDuration(String),
    /// An integer attribute could not be parsed.
    InvalidNumber {
        /// Attribute name.
        attribute: String,
        /// Offending value.
        value: String,
    },
    /// A required XML attribute was missing.
    MissingAttribute {
        /// Element name.
        element: String,
        /// Attribute name.
        attribute: String,
    },
    /// The XML document was malformed.
    Xml(XmlError),
    /// The XML was well-formed but did not match the workflow schema.
    Schema(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Cycle { job } => {
                write!(
                    f,
                    "workflow prerequisite relation contains a cycle through {job}"
                )
            }
            ModelError::UnknownJob { job, job_count } => write!(
                f,
                "dependency references {job} but the workflow has only {job_count} jobs"
            ),
            ModelError::DuplicateJobName(name) => {
                write!(f, "duplicate job name {name:?} in workflow configuration")
            }
            ModelError::SelfDependency(job) => {
                write!(f, "job {job} declares a dependency on itself")
            }
            ModelError::EmptyWorkflow => f.write_str("workflow contains no jobs"),
            ModelError::NoMapTasks(job) => {
                write!(f, "job {job} declares zero map tasks")
            }
            ModelError::TooManyTasks { tasks, limit } => {
                write!(
                    f,
                    "workflow has {tasks} tasks, more than the limit of {limit}"
                )
            }
            ModelError::DeadlineBeforeSubmit => {
                f.write_str("workflow deadline is not later than its submission time")
            }
            ModelError::InconsistentEdges => {
                f.write_str("workflow prerequisite and dependent lists disagree")
            }
            ModelError::InvalidDuration(s) => write!(f, "invalid duration {s:?}"),
            ModelError::InvalidNumber { attribute, value } => {
                write!(f, "attribute {attribute:?} has non-numeric value {value:?}")
            }
            ModelError::MissingAttribute { element, attribute } => {
                write!(
                    f,
                    "element <{element}> is missing required attribute {attribute:?}"
                )
            }
            ModelError::Xml(e) => write!(f, "malformed workflow XML: {e}"),
            ModelError::Schema(msg) => write!(f, "workflow XML does not match schema: {msg}"),
        }
    }
}

impl StdError for ModelError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ModelError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XmlError> for ModelError {
    fn from(e: XmlError) -> Self {
        ModelError::Xml(e)
    }
}

/// Errors produced by the minimal XML parser.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum XmlError {
    /// Input ended in the middle of a construct.
    UnexpectedEof {
        /// What the parser was in the middle of reading.
        context: &'static str,
    },
    /// A closing tag did not match the innermost open tag.
    MismatchedTag {
        /// The tag that was open.
        expected: String,
        /// The closing tag actually found.
        found: String,
    },
    /// A character that cannot start the expected construct.
    UnexpectedChar {
        /// The offending character.
        found: char,
        /// Byte offset in the input.
        offset: usize,
        /// What the parser expected.
        expected: &'static str,
    },
    /// An unknown entity reference such as `&xyz;`.
    UnknownEntity(String),
    /// The document contains no root element.
    NoRootElement,
    /// Non-whitespace content after the root element closed.
    TrailingContent {
        /// Byte offset where the trailing content starts.
        offset: usize,
    },
    /// Elements nested deeper than the parser's limit.
    TooDeep {
        /// The nesting limit that was exceeded.
        limit: usize,
        /// Byte offset of the open tag that exceeded it.
        offset: usize,
    },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while reading {context}")
            }
            XmlError::MismatchedTag { expected, found } => {
                write!(
                    f,
                    "closing tag </{found}> does not match open tag <{expected}>"
                )
            }
            XmlError::UnexpectedChar {
                found,
                offset,
                expected,
            } => write!(
                f,
                "unexpected character {found:?} at byte {offset}, expected {expected}"
            ),
            XmlError::UnknownEntity(name) => write!(f, "unknown entity reference &{name};"),
            XmlError::NoRootElement => f.write_str("document contains no root element"),
            XmlError::TrailingContent { offset } => {
                write!(f, "unexpected content after root element at byte {offset}")
            }
            XmlError::TooDeep { limit, offset } => {
                write!(f, "elements nested deeper than {limit} at byte {offset}")
            }
        }
    }
}

impl StdError for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn errors_are_send_sync() {
        assert_send_sync::<ModelError>();
        assert_send_sync::<XmlError>();
    }

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let samples: Vec<ModelError> = vec![
            ModelError::Cycle { job: JobId::new(1) },
            ModelError::UnknownJob {
                job: JobId::new(9),
                job_count: 3,
            },
            ModelError::DuplicateJobName("extract".into()),
            ModelError::SelfDependency(JobId::new(0)),
            ModelError::EmptyWorkflow,
            ModelError::NoMapTasks(JobId::new(2)),
            ModelError::DeadlineBeforeSubmit,
            ModelError::InconsistentEdges,
            ModelError::InvalidDuration("80x".into()),
            ModelError::Xml(XmlError::NoRootElement),
            ModelError::Schema("bad".into()),
        ];
        for e in samples {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn xml_error_is_source() {
        use std::error::Error;
        let e = ModelError::from(XmlError::NoRootElement);
        assert!(e.source().is_some());
    }
}
