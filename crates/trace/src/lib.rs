//! Synthetic workload and trace generation for the WOHA reproduction.
//!
//! The paper's evaluation mixes a hand-built demonstration topology (Fig 7)
//! with a proprietary Yahoo! WebScope trace. This crate regenerates both:
//! deterministic, seedable distributions calibrated to the published trace
//! statistics, topology generators, and workload assembly (release times
//! and deadline rules).
//!
//! # Quick example
//!
//! ```
//! use woha_trace::{Rng, workload, yahoo::{yahoo_workflows, YahooTraceConfig}};
//! use woha_model::SimDuration;
//!
//! let mut rng = Rng::new(42);
//! let flows = yahoo_workflows(&YahooTraceConfig::default(), &mut rng);
//! let mut workflows = workload::assign(
//!     &flows,
//!     SimDuration::from_mins(10),
//!     SimDuration::from_mins(4),
//!     SimDuration::from_mins(12),
//!     1.4,
//!     240,
//!     &mut rng,
//! );
//! workflows.retain(|w| !w.is_single_job());
//! assert_eq!(workflows.len(), 46);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod rng;
pub mod source;
pub mod stats;
pub mod topology;
pub mod workload;
pub mod yahoo;

pub use dist::{BoundedPareto, Clamped, Distribution, LogNormal};
pub use rng::Rng;
pub use source::{
    drain, to_jsonl, ChannelSource, FollowSource, GeneratorSource, JsonlSource, SourcePoll,
    SourceStop, VecSource, WorkloadSource,
};
pub use yahoo::YahooTraceConfig;
