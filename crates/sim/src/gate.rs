//! The admission gate at the driver's front door.
//!
//! A gate sees every workflow the moment it is pulled from the
//! [`WorkloadSource`](woha_trace::WorkloadSource) — *before* it enters the
//! event queue, the pool, or the scheduler — and may turn it away. A
//! rejected workflow never enters the cluster: it gets no pool entry, no
//! outcome, and no events; the driver only counts it (per reason label) in
//! [`AdmissionReport`](crate::metrics::AdmissionReport) and emits an
//! [`AdmissionReject`](crate::TraceEvent::AdmissionReject) trace record.
//!
//! The gate models a *client-side* admission controller (the paper's
//! necessary-condition feasibility check), not master state: it is
//! consulted exactly once per workflow at submission, its decisions are
//! never replayed from the WAL, and a master crash does not reset it.
//! [`release`](AdmissionGate::release) fires once per admitted workflow
//! when it completes, so capacity-tracking gates can free its demand.

use woha_model::{SimTime, WorkflowSpec};

/// Decides, at submission time, whether a workflow may enter the cluster.
///
/// Implementations live outside this crate (`woha_core::MultiTenantGate`
/// is the canonical one); the driver only needs the two hooks below.
pub trait AdmissionGate {
    /// Decides whether `spec`, submitted at `now`, is admitted.
    ///
    /// Submission times are nondecreasing across calls (the driver pulls
    /// the source in time order), so gates may keep time-indexed state.
    ///
    /// # Errors
    ///
    /// Returns a *stable, snake_case reason label* (e.g.
    /// `"aggregate_overload"`) when the workflow is rejected. Labels key
    /// the per-reason counters in the report, so they must not embed
    /// run-specific values.
    fn admit(&mut self, spec: &WorkflowSpec, now: SimTime) -> Result<(), String>;

    /// Notifies the gate that the admitted workflow named `name` has
    /// completed, so its demand can be released. Called exactly once per
    /// admitted workflow that completes (never during WAL replay).
    fn release(&mut self, name: &str);
}
