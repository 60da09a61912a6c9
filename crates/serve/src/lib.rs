//! Long-running scheduler service for the WOHA framework.
//!
//! The batch simulator answers "how would this trace have gone"; this
//! crate answers "run the scheduler *now*, against work that keeps
//! arriving". It composes pieces the rest of the workspace provides into a
//! service process:
//!
//! - **blocking sources** ([`woha_trace::FollowSource`],
//!   [`woha_trace::ChannelSource`]) that report
//!   [`Pending`](woha_trace::SourcePoll::Pending) instead of ending at
//!   EOF,
//! - a **wall clock** ([`woha_sim::WallClock`]) that paces the driver's
//!   event loop against real time,
//! - **backpressure** ([`woha_sim::ArrivalBuffer`]) bounding how far the
//!   master can fall behind the arrival stream, and
//! - **multi-tenant admission** ([`woha_core::MultiTenantGate`]), read
//!   from a tenants file by [`woha_core::MultiTenantGate::load`].
//!
//! plus the glue only a service needs: cooperative [`shutdown`] (no OS
//! signals — a stop file, an idle timeout, or an arrival budget raise a
//! shared [`ShutdownSignal`] that drains every source before the run
//! ends) and the [`run_service`] loop that wires it all together and
//! reports a [`ServiceOutcome`].
//!
//! `woha serve --follow <path> --wall-clock` is the CLI front end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;
pub mod shutdown;

pub use service::{run_service, ClockMode, ServeConfig, ServiceOutcome, SourceDiagnostics};
pub use shutdown::{ShutdownCause, ShutdownConfig, ShutdownSignal, Watcher};
