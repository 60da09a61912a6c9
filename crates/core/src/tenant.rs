//! Multi-tenant admission: per-tenant capacity caps, overuse checks, and
//! pluggable overload policy on top of the demand-bound necessity test.
//!
//! A live WOHA front door serves many submitters. This module layers a
//! [`MultiTenantGate`] over [`AdmissionController`]: every arrival is
//! first charged to its **tenant** (the workflow-name prefix before `/`,
//! so `ads/etl-7` belongs to tenant `ads`; prefix-less names belong to
//! `default`), checked against that tenant's in-flight cap and slot-ms
//! budget, and only then put through the cluster-wide demand-bound test.
//! When the demand-bound test reports *aggregate* overload — the cluster
//! is busy, not the workflow infeasible — an [`OverloadPolicy`] decides
//! who gets in: strict necessity, value-density ordering, or weighted
//! tenant fairness with graceful shedding.
//!
//! Rejection labels embed the tenant (`tenant_cap_exceeded:ads`), so the
//! per-reason counters in [`AdmissionReport`](woha_sim::AdmissionReport)
//! double as per-tenant counters with no report-schema change.
//!
//! The tenant configuration types deliberately avoid serde derives: the
//! service layer parses them from a small TOML subset, which is not a
//! serde format, so a derive would have no caller.

use crate::admission::{AdmissionController, RejectReason};
use std::collections::BTreeMap;
use woha_model::{SimTime, WorkflowSpec};
use woha_sim::{AdmissionGate, ClusterConfig};

/// The tenant a workflow belongs to: the name prefix before the first
/// `/`, or `"default"` for prefix-less names.
///
/// ```
/// use woha_core::tenant::tenant_of;
/// assert_eq!(tenant_of("ads/etl-7"), "ads");
/// assert_eq!(tenant_of("standalone"), "default");
/// ```
pub fn tenant_of(workflow_name: &str) -> &str {
    match workflow_name.split_once('/') {
        Some((tenant, _)) if !tenant.is_empty() => tenant,
        _ => "default",
    }
}

/// Per-tenant admission limits and fairness weight.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (matched against workflow-name prefixes).
    pub name: String,
    /// Maximum workflows in flight (admitted, not yet released).
    pub max_in_flight: usize,
    /// Optional cap on total in-flight work, in slot-milliseconds; `None`
    /// means unmetered. Exceeding it is "overuse" — the tenant holds more
    /// of the cluster than it paid for, regardless of global load.
    pub max_slot_ms: Option<u128>,
    /// Fairness weight under [`OverloadPolicy::WeightedFair`]; tenants
    /// with twice the weight keep twice the in-flight work when the
    /// cluster overloads. Must be positive to participate.
    pub weight: f64,
}

impl TenantSpec {
    /// A tenant with the given in-flight cap, no slot-ms budget, and
    /// weight 1.
    pub fn new(name: impl Into<String>, max_in_flight: usize) -> Self {
        TenantSpec {
            name: name.into(),
            max_in_flight,
            max_slot_ms: None,
            weight: 1.0,
        }
    }

    /// Sets the in-flight slot-ms budget (builder-style).
    pub fn with_slot_budget(mut self, max_slot_ms: u128) -> Self {
        self.max_slot_ms = Some(max_slot_ms);
        self
    }

    /// Sets the fairness weight (builder-style, clamped positive).
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = if weight > 0.0 { weight } else { 1.0 };
        self
    }
}

/// What to do when the cluster-wide demand-bound test reports *aggregate*
/// overload (structural rejections — critical path or own-work violations
/// — stand under every policy; no policy admits the impossible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Reject: the necessity test is the last word (the PR-4 behaviour).
    #[default]
    Necessity,
    /// Value-density ordering: admit overload work anyway iff its density
    /// — slot-ms of work per millisecond of deadline budget, i.e. how
    /// much cluster value the workflow packs into its window — is at
    /// least the mean density of the work already in flight. Dense,
    /// urgent workflows ride through; sparse ones shed with
    /// `low_value_density`.
    ValueDensity,
    /// Weighted tenant fairness: admit overload work only while the
    /// submitting tenant's share of in-flight work is below its weighted
    /// fair share among active tenants; over-share tenants shed
    /// gracefully with `tenant_share_exceeded:<tenant>`.
    WeightedFair,
}

/// One admitted workflow's charge against its tenant.
#[derive(Debug, Clone)]
struct InFlight {
    tenant: String,
    work_ms: u128,
    density: f64,
}

/// A multi-tenant admission gate: per-tenant caps and budgets in front of
/// (and an overload policy behind) the demand-bound
/// [`AdmissionController`]. Plug it into the driver or the service loop as
/// the [`AdmissionGate`].
///
/// All decisions are pure functions of the configured tenants, the policy,
/// and the admit/release history — two identical arrival sequences shed
/// identically, which the tenant proptest pins.
#[derive(Debug, Clone)]
pub struct MultiTenantGate {
    inner: AdmissionController,
    tenants: BTreeMap<String, TenantSpec>,
    /// Fallback spec for tenants with no explicit entry; `None` rejects
    /// unknown tenants outright.
    fallback: Option<TenantSpec>,
    policy: OverloadPolicy,
    /// Admitted-but-unreleased workflows, by workflow name.
    in_flight: BTreeMap<String, InFlight>,
}

impl MultiTenantGate {
    /// A gate over `cluster` with no tenants configured and the
    /// [`Necessity`](OverloadPolicy::Necessity) policy. Until tenants are
    /// added (or [`allow_unknown`](Self::allow_unknown) is set), every
    /// arrival is rejected as `unknown_tenant:<tenant>`.
    pub fn new(cluster: &ClusterConfig) -> Self {
        MultiTenantGate {
            inner: AdmissionController::new(cluster),
            tenants: BTreeMap::new(),
            fallback: None,
            policy: OverloadPolicy::default(),
            in_flight: BTreeMap::new(),
        }
    }

    /// Sets the overload policy (builder-style).
    pub fn with_policy(mut self, policy: OverloadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the inner demand-bound controller (builder-style), e.g.
    /// to adjust its capacity margin.
    pub fn with_controller(mut self, inner: AdmissionController) -> Self {
        self.inner = inner;
        self
    }

    /// Registers (or replaces) a tenant.
    pub fn add_tenant(&mut self, spec: TenantSpec) {
        self.tenants.insert(spec.name.clone(), spec);
    }

    /// Builder-style [`add_tenant`](Self::add_tenant).
    pub fn with_tenant(mut self, spec: TenantSpec) -> Self {
        self.add_tenant(spec);
        self
    }

    /// Admits tenants with no explicit entry under `fallback`'s limits
    /// (its name is ignored) instead of rejecting them.
    pub fn allow_unknown(mut self, fallback: TenantSpec) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// Registered tenants, in name order.
    pub fn tenants(&self) -> impl Iterator<Item = &TenantSpec> {
        self.tenants.values()
    }

    /// In-flight workflow count for `tenant`.
    pub fn tenant_in_flight(&self, tenant: &str) -> usize {
        self.in_flight
            .values()
            .filter(|f| f.tenant == tenant)
            .count()
    }

    /// In-flight slot-ms charged to `tenant`.
    pub fn tenant_work_ms(&self, tenant: &str) -> u128 {
        self.in_flight
            .values()
            .filter(|f| f.tenant == tenant)
            .map(|f| f.work_ms)
            .sum()
    }

    fn spec_for(&self, tenant: &str) -> Option<&TenantSpec> {
        self.tenants.get(tenant).or(self.fallback.as_ref())
    }

    /// Mean value density of all in-flight work (0 when idle).
    fn mean_density(&self) -> f64 {
        if self.in_flight.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.in_flight.values().map(|f| f.density).sum();
        sum / self.in_flight.len() as f64
    }

    /// The tenant's weighted fair share of in-flight work among active
    /// tenants (those with work in flight, plus the asking tenant).
    fn fair_share(&self, tenant: &str, weight: f64) -> f64 {
        let mut total_weight = weight;
        for spec in self.tenants.values() {
            if spec.name != tenant && self.tenant_in_flight(&spec.name) > 0 {
                total_weight += spec.weight;
            }
        }
        if total_weight > 0.0 {
            weight / total_weight
        } else {
            1.0
        }
    }

    /// The full admission pipeline; see the [module docs](self).
    ///
    /// # Errors
    ///
    /// Returns the stable rejection label, with the tenant embedded for
    /// tenant-scoped causes.
    pub fn try_admit(&mut self, spec: &WorkflowSpec, now: SimTime) -> Result<(), String> {
        self.inner.expire(now);
        let tenant = tenant_of(spec.name()).to_string();
        let Some(cfg) = self.spec_for(&tenant).cloned() else {
            return Err(format!("unknown_tenant:{tenant}"));
        };

        // Hard per-tenant limits come first: they hold regardless of how
        // idle the cluster is.
        if self.tenant_in_flight(&tenant) >= cfg.max_in_flight {
            return Err(format!("tenant_cap_exceeded:{tenant}"));
        }
        let work_ms = u128::from(spec.total_work().as_millis());
        if let Some(budget) = cfg.max_slot_ms {
            if self.tenant_work_ms(&tenant) + work_ms > budget {
                return Err(format!("tenant_overuse:{tenant}"));
            }
        }

        let budget_ms = spec.deadline().saturating_since(now).as_millis();
        let density = if spec.deadline() == SimTime::MAX || budget_ms == 0 {
            0.0
        } else {
            work_ms as f64 / budget_ms as f64
        };

        match self.inner.try_admit(spec, now) {
            Ok(()) => {}
            // Structural infeasibility: no policy admits a workflow that
            // cannot finish on any schedule.
            Err(
                reason @ (RejectReason::CriticalPathExceedsDeadline { .. }
                | RejectReason::OwnWorkExceedsCapacity { .. }),
            ) => return Err(reason.label().to_string()),
            // The cluster is busy: the overload policy arbitrates. An
            // admitted-anyway workflow takes the best-effort lane — it is
            // charged to its tenant but holds no demand-bound
            // reservation, so it cannot crowd out future necessity-clean
            // admissions.
            Err(reason @ RejectReason::AggregateOverload { .. }) => match self.policy {
                OverloadPolicy::Necessity => return Err(reason.label().to_string()),
                OverloadPolicy::ValueDensity => {
                    if density < self.mean_density() {
                        return Err("low_value_density".to_string());
                    }
                }
                OverloadPolicy::WeightedFair => {
                    let total: u128 = self.in_flight.values().map(|f| f.work_ms).sum();
                    let share = if total > 0 {
                        self.tenant_work_ms(&tenant) as f64 / total as f64
                    } else {
                        0.0
                    };
                    if share >= self.fair_share(&tenant, cfg.weight) {
                        return Err(format!("tenant_share_exceeded:{tenant}"));
                    }
                }
            },
        }

        self.in_flight.insert(
            spec.name().to_string(),
            InFlight {
                tenant,
                work_ms,
                density,
            },
        );
        Ok(())
    }

    /// Releases a completed (or withdrawn) workflow: frees its tenant
    /// charge and any demand-bound reservation.
    pub fn complete(&mut self, name: &str) {
        self.in_flight.remove(name);
        self.inner.complete(name);
    }
}

impl AdmissionGate for MultiTenantGate {
    fn admit(&mut self, spec: &WorkflowSpec, now: SimTime) -> Result<(), String> {
        self.try_admit(spec, now)
    }

    fn release(&mut self, name: &str) {
        self.complete(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use woha_model::{JobSpec, SimDuration, WorkflowBuilder};

    fn workflow(name: &str, maps: u32, map_secs: u64, deadline_mins: u64) -> WorkflowSpec {
        let mut b = WorkflowBuilder::new(name);
        b.add_job(JobSpec::new(
            "j",
            maps,
            0,
            SimDuration::from_secs(map_secs),
            SimDuration::ZERO,
        ));
        b.relative_deadline(SimDuration::from_mins(deadline_mins));
        b.build().unwrap()
    }

    fn cluster() -> ClusterConfig {
        ClusterConfig::uniform(2, 2, 1)
    }

    fn gate() -> MultiTenantGate {
        MultiTenantGate::new(&cluster())
            .with_controller(AdmissionController::new(&cluster()).with_margin(1.0))
            .with_tenant(TenantSpec::new("ads", 2))
            .with_tenant(TenantSpec::new("etl", 2))
    }

    #[test]
    fn tenant_of_parses_prefixes() {
        assert_eq!(tenant_of("ads/pipeline-1"), "ads");
        assert_eq!(tenant_of("ads/a/b"), "ads");
        assert_eq!(tenant_of("no-prefix"), "default");
        assert_eq!(tenant_of("/odd"), "default");
    }

    #[test]
    fn unknown_tenants_are_rejected_unless_allowed() {
        let mut g = gate();
        assert_eq!(
            g.try_admit(&workflow("ops/x", 2, 30, 10), SimTime::ZERO),
            Err("unknown_tenant:ops".to_string())
        );
        let mut open = gate().allow_unknown(TenantSpec::new("*", 1));
        assert!(open
            .try_admit(&workflow("ops/x", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        assert_eq!(
            open.try_admit(&workflow("ops/y", 2, 30, 10), SimTime::ZERO),
            Err("tenant_cap_exceeded:ops".to_string())
        );
    }

    #[test]
    fn per_tenant_cap_is_enforced_and_released() {
        let mut g = gate();
        assert!(g
            .try_admit(&workflow("ads/a", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        assert!(g
            .try_admit(&workflow("ads/b", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        assert_eq!(
            g.try_admit(&workflow("ads/c", 2, 30, 10), SimTime::ZERO),
            Err("tenant_cap_exceeded:ads".to_string())
        );
        // Another tenant is unaffected by ads' cap.
        assert!(g
            .try_admit(&workflow("etl/a", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        g.complete("ads/a");
        assert!(g
            .try_admit(&workflow("ads/c", 2, 30, 10), SimTime::ZERO)
            .is_ok());
    }

    #[test]
    fn slot_budget_rejects_overuse() {
        let mut g = MultiTenantGate::new(&cluster())
            .with_controller(AdmissionController::new(&cluster()).with_margin(1.0))
            // 2 maps x 30s = 60_000 slot-ms per workflow; budget fits one.
            .with_tenant(TenantSpec::new("ads", 10).with_slot_budget(100_000));
        assert!(g
            .try_admit(&workflow("ads/a", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        assert_eq!(
            g.try_admit(&workflow("ads/b", 2, 30, 10), SimTime::ZERO),
            Err("tenant_overuse:ads".to_string())
        );
        g.complete("ads/a");
        assert!(g
            .try_admit(&workflow("ads/b", 2, 30, 10), SimTime::ZERO)
            .is_ok());
    }

    #[test]
    fn structural_rejections_stand_under_every_policy() {
        for policy in [
            OverloadPolicy::Necessity,
            OverloadPolicy::ValueDensity,
            OverloadPolicy::WeightedFair,
        ] {
            let mut g = gate().with_policy(policy);
            // A 10-minute map with a 5-minute deadline is impossible.
            assert_eq!(
                g.try_admit(&workflow("ads/cp", 1, 600, 5), SimTime::ZERO),
                Err("critical_path_exceeds_deadline".to_string()),
                "{policy:?}"
            );
        }
    }

    /// Saturate the 4-map-slot cluster's 10-minute horizon: two 20x60s
    /// workflows hold 2400 of 2400 slot-s, so the next arrival trips the
    /// aggregate test and hands the decision to the overload policy.
    fn saturated(policy: OverloadPolicy) -> MultiTenantGate {
        let mut g = MultiTenantGate::new(&cluster())
            .with_controller(AdmissionController::new(&cluster()).with_margin(1.0))
            .with_policy(policy)
            .with_tenant(TenantSpec::new("ads", 10).with_weight(1.0))
            .with_tenant(TenantSpec::new("etl", 10).with_weight(1.0));
        assert!(g
            .try_admit(&workflow("ads/a", 20, 60, 10), SimTime::ZERO)
            .is_ok());
        assert!(g
            .try_admit(&workflow("ads/b", 20, 60, 10), SimTime::ZERO)
            .is_ok());
        g
    }

    #[test]
    fn necessity_policy_rejects_on_overload() {
        let mut g = saturated(OverloadPolicy::Necessity);
        assert_eq!(
            g.try_admit(&workflow("etl/c", 20, 60, 10), SimTime::ZERO),
            Err("aggregate_overload".to_string())
        );
    }

    #[test]
    fn value_density_admits_dense_work_and_sheds_sparse() {
        let mut g = saturated(OverloadPolicy::ValueDensity);
        // In-flight density: 1200 slot-s of work per 600s budget = 2.0.
        // A sparse straggler (60 slot-s over 10 min = 0.1) sheds...
        assert_eq!(
            g.try_admit(&workflow("etl/sparse", 1, 60, 10), SimTime::ZERO),
            Err("low_value_density".to_string())
        );
        // ...but an urgent dense workflow (1200 slot-s over 5 min = 4.0)
        // rides through the overload on the best-effort lane.
        assert!(g
            .try_admit(&workflow("etl/dense", 40, 30, 5), SimTime::ZERO)
            .is_ok());
    }

    #[test]
    fn weighted_fair_sheds_over_share_tenant_only() {
        let mut g = saturated(OverloadPolicy::WeightedFair);
        // ads holds 100% of in-flight work with a 50% fair share: shed.
        assert_eq!(
            g.try_admit(&workflow("ads/c", 20, 60, 10), SimTime::ZERO),
            Err("tenant_share_exceeded:ads".to_string())
        );
        // etl holds 0% with a 50% fair share: admitted despite overload.
        assert!(g
            .try_admit(&workflow("etl/c", 20, 60, 10), SimTime::ZERO)
            .is_ok());
    }

    #[test]
    fn deadline_less_work_counts_against_caps_but_has_no_density() {
        let mut g = gate();
        let mut b = WorkflowBuilder::new("ads/bg");
        b.add_job(JobSpec::new(
            "j",
            2,
            0,
            SimDuration::from_secs(30),
            SimDuration::ZERO,
        ));
        let bg = b.build().unwrap();
        assert!(g.try_admit(&bg, SimTime::ZERO).is_ok());
        assert_eq!(g.tenant_in_flight("ads"), 1);
        assert_eq!(g.tenant_work_ms("ads"), 60_000);
    }
}
