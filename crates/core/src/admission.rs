//! Admission control: which arriving workflows may enter the cluster at
//! all?
//!
//! WOHA schedules accepted workflows in a best-effort manner; the paper
//! leaves open what to do when the cluster is simply oversubscribed, or
//! when many submitters share it. This module is the one gate in front of
//! the scheduler, [`MultiTenantGate`], and it asks one predicate per
//! arrival: *may this tenant take more, and can the cluster still carry
//! it?*
//!
//! 1. **Tenant limits.** Every arrival is charged to its tenant (the
//!    workflow-name prefix before `/`, see [`tenant_of`]) and checked
//!    against that tenant's in-flight cap and slot-ms budget. These hold
//!    however idle the cluster is.
//! 2. **The demand-bound test**, a necessary condition in the style of
//!    real-time demand-bound analysis. A workflow set can only be
//!    schedulable if each workflow's deadline leaves room for its critical
//!    path and for its own work at full parallelism, and if, for every
//!    reserved deadline `D_k`, the work due by `D_k` fits the cluster's
//!    capacity over `[now, D_k]`. The test is *necessary, not sufficient*
//!    (deciding feasibility exactly is the NP-hard problem the paper
//!    cites): a rejected workflow is certainly infeasible, an admitted one
//!    may still miss under unlucky interleaving.
//! 3. **The overload policy.** When only the aggregate half of the test
//!    fails — the cluster is busy, the workflow is not infeasible — an
//!    [`OverloadPolicy`] decides: strict necessity, value-density ordering,
//!    or weighted tenant fairness. Work admitted this way takes the
//!    best-effort lane: it is charged to its tenant but holds no
//!    demand-bound reservation, so it cannot crowd out later
//!    necessity-clean admissions.
//!
//! All three read one ledger: one entry per admitted, unreleased
//! workflow, holding its tenant, per-kind slot-ms, deadline, value density
//! and whether it holds a reservation. Deadline-less (background) work and
//! the best-effort lane hold none, and a reservation lapses once its
//! deadline has passed.
//!
//! Rejections are stable labels, as [`AdmissionGate`] asks. Tenant-scoped
//! ones embed the tenant (`tenant_cap_exceeded:ads`), so the per-reason
//! counters in [`AdmissionReport`](woha_sim::AdmissionReport) double as
//! per-tenant counters.
//!
//! # The tenants file
//!
//! [`MultiTenantGate::parse`] and [`load`](MultiTenantGate::load) read the
//! gate from a small TOML subset (the workspace has no TOML crate, so it is
//! parsed by hand; it accepts the natural TOML spelling of exactly the
//! shapes needed):
//!
//! ```toml
//! # Overload arbitration: necessity | value-density | weighted-fair
//! policy = "weighted-fair"
//!
//! [tenant.ads]
//! max_in_flight = 4          # concurrent admitted workflows
//! max_slot_ms = 3600000      # optional total slot-time budget
//! weight = 2.0               # optional weighted-fair share
//!
//! [tenant.etl]
//! max_in_flight = 2
//!
//! # Optional: admit tenants not listed above under this fallback spec.
//! [unknown]
//! max_in_flight = 1
//! ```
//!
//! Comments (`#`), blank lines, and quoted or bare scalar values are
//! supported; nothing else is. A section's `max_in_flight` defaults to 1.
//! Unknown keys and malformed lines are errors, not silent defaults — a
//! typo in an admission policy should never relax it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use woha_model::{SimTime, SlotKind, WorkflowSpec};
use woha_sim::{AdmissionGate, ClusterConfig};

/// The one demand-bound failure an [`OverloadPolicy`] may override.
const AGGREGATE_OVERLOAD: &str = "aggregate_overload";

/// The tenant a workflow belongs to: the name prefix before the first
/// `/`, or `"default"` for prefix-less names.
///
/// ```
/// use woha_core::admission::tenant_of;
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

/// What to do when the demand-bound test reports *aggregate* overload
/// (structural rejections — critical path or own-work violations — stand
/// under every policy; no policy admits the impossible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Reject: the necessity test is the last word.
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

/// One admitted, unreleased workflow: the ledger entry every check reads.
#[derive(Debug, Clone)]
struct Admission {
    name: String,
    tenant: String,
    /// Work per slot kind `[map, reduce]`, slot-milliseconds.
    work_ms: [u128; 2],
    deadline: SimTime,
    /// Slot-ms per millisecond of deadline budget (0 without a deadline).
    density: f64,
    /// Whether the demand-bound test counts this work against capacity.
    reserved: bool,
}

impl Admission {
    fn total_ms(&self) -> u128 {
        self.work_ms[0] + self.work_ms[1]
    }
}

fn work_by_kind(w: &WorkflowSpec) -> [u128; 2] {
    let mut work = [0u128; 2];
    for job in w.jobs() {
        work[0] += u128::from(job.map_duration().as_millis()) * u128::from(job.map_tasks());
        work[1] += u128::from(job.reduce_duration().as_millis()) * u128::from(job.reduce_tasks());
    }
    work
}

/// The admission gate: per-tenant caps and budgets, the demand-bound
/// test, and an overload policy over one in-flight ledger; see the
/// [module docs](self). Plug it into the driver or the service loop as the
/// [`AdmissionGate`].
///
/// All decisions are pure functions of the configured tenants, the
/// policy, the margin, and the admit/release history — two identical
/// arrival sequences shed identically.
///
/// # Examples
///
/// ```
/// use woha_core::MultiTenantGate;
/// use woha_model::{JobSpec, SimDuration, SimTime, WorkflowBuilder};
/// use woha_sim::{AdmissionGate, ClusterConfig};
///
/// let mut gate = MultiTenantGate::open(&ClusterConfig::uniform(2, 2, 1));
/// let mut b = WorkflowBuilder::new("w");
/// b.add_job(JobSpec::new("j", 4, 2,
///     SimDuration::from_secs(30), SimDuration::from_secs(60)));
/// b.relative_deadline(SimDuration::from_mins(10));
/// assert!(gate.admit(&b.build().unwrap(), SimTime::ZERO).is_ok());
/// b.relative_deadline(SimDuration::from_secs(30));
/// assert_eq!(
///     gate.admit(&b.build().unwrap(), SimTime::ZERO),
///     Err("critical_path_exceeds_deadline".to_string())
/// );
/// ```
#[derive(Debug, Clone)]
pub struct MultiTenantGate {
    /// Capacity per slot kind `[map, reduce]`.
    capacity_slots: [u128; 2],
    /// The fraction of raw capacity the demand-bound test counts as
    /// available (slack for fragmentation, phase dependencies and
    /// heartbeat quantization).
    margin: f64,
    tenants: BTreeMap<String, TenantSpec>,
    /// Fallback spec for tenants with no explicit entry; `None` rejects
    /// unknown tenants outright.
    pub(crate) fallback: Option<TenantSpec>,
    pub(crate) policy: OverloadPolicy,
    /// One entry per admission, in workflow-name order (admission order
    /// among equal names), so float sums over it are reproducible.
    ledger: Vec<Admission>,
}

impl MultiTenantGate {
    /// A gate over `cluster` with no tenants configured, the
    /// [`Necessity`](OverloadPolicy::Necessity) policy and a 0.9 capacity
    /// margin. Until tenants are added (or
    /// [`allow_unknown`](Self::allow_unknown) is set), every arrival is
    /// rejected as `unknown_tenant:<tenant>`.
    pub fn new(cluster: &ClusterConfig) -> Self {
        MultiTenantGate {
            capacity_slots: [
                u128::from(cluster.total_slots(SlotKind::Map)),
                u128::from(cluster.total_slots(SlotKind::Reduce)),
            ],
            margin: 0.9,
            tenants: BTreeMap::new(),
            fallback: None,
            policy: OverloadPolicy::default(),
            ledger: Vec::new(),
        }
    }

    /// The plain demand-bound gate: every tenant is admitted under an
    /// unlimited fallback and the necessity test is the last word.
    pub fn open(cluster: &ClusterConfig) -> Self {
        MultiTenantGate::new(cluster).allow_unknown(TenantSpec::new("*", usize::MAX))
    }

    /// Reads the gate a tenants file describes (see the
    /// [module docs](self)), sized for `cluster`.
    ///
    /// # Errors
    ///
    /// Every error is prefixed with its 1-based `line N:`.
    pub fn parse(text: &str, cluster: &ClusterConfig) -> Result<Self, String> {
        let mut gate = MultiTenantGate::new(cluster);
        // The section being read: the spec it builds and whether it is
        // the `[unknown]` fallback; `None` at top level.
        let mut open: Option<(TenantSpec, bool)> = None;
        for (idx, line) in text.lines().enumerate() {
            let at = |msg: String| format!("line {}: {msg}", idx + 1);
            let line = strip_comment(line).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let header = header
                    .strip_suffix(']')
                    .ok_or_else(|| at(format!("unterminated section header {line:?}")))?
                    .trim();
                gate.close_section(open.take());
                open = Some(match header.strip_prefix("tenant.").map(str::trim) {
                    Some("") => return Err(at("empty tenant name".to_string())),
                    Some(name) if gate.tenants.contains_key(name) => {
                        return Err(at(format!("duplicate tenant section {name:?}")))
                    }
                    Some(name) => (TenantSpec::new(name, 1), false),
                    None if header != "unknown" => {
                        return Err(at(format!("unknown section [{header}]")))
                    }
                    None if gate.fallback.is_some() => {
                        return Err(at("duplicate [unknown] section".to_string()))
                    }
                    None => (TenantSpec::new("unknown", 1), true),
                });
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected key = value, got {line:?}")))?;
            let (key, value) = (key.trim(), unquote(value.trim()));
            let bad = |e: &dyn std::fmt::Display| at(format!("bad {key}: {e}"));
            match (&mut open, key) {
                (None, "policy") => gate.policy = parse_policy(value).map_err(at)?,
                (None, _) => return Err(at(format!("unknown top-level key {key:?}"))),
                (Some((spec, _)), "max_in_flight") => {
                    spec.max_in_flight = value.parse().map_err(|e| bad(&e))?;
                }
                (Some((spec, _)), "max_slot_ms") => {
                    spec.max_slot_ms = Some(value.parse().map_err(|e| bad(&e))?);
                }
                (Some((spec, _)), "weight") => {
                    let w: f64 = value.parse().map_err(|e| bad(&e))?;
                    if !(w.is_finite() && w > 0.0) {
                        return Err(at(format!("weight must be positive, got {value}")));
                    }
                    spec.weight = w;
                }
                (Some(_), _) => return Err(at(format!("unknown tenant key {key:?}"))),
            }
        }
        gate.close_section(open);
        Ok(gate)
    }

    /// Reads and parses a tenants file.
    ///
    /// # Errors
    ///
    /// An unreadable file, or [`parse`](Self::parse)'s error behind the
    /// path.
    pub fn load(path: impl AsRef<Path>, cluster: &ClusterConfig) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        MultiTenantGate::parse(&text, cluster).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn close_section(&mut self, section: Option<(TenantSpec, bool)>) {
        match section {
            Some((spec, true)) => self.fallback = Some(spec),
            Some((spec, false)) => self.add_tenant(spec),
            None => {}
        }
    }

    /// Sets the overload policy (builder-style).
    pub fn with_policy(mut self, policy: OverloadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the 0.9 capacity margin (builder-style).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < margin <= 1`.
    pub fn with_margin(mut self, margin: f64) -> Self {
        assert!(margin > 0.0 && margin <= 1.0, "margin must be in (0, 1]");
        self.margin = margin;
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

    fn charges<'a>(&'a self, tenant: &'a str) -> impl Iterator<Item = &'a Admission> + 'a {
        self.ledger.iter().filter(move |a| a.tenant == tenant)
    }

    /// In-flight workflow count for `tenant`.
    pub fn tenant_in_flight(&self, tenant: &str) -> usize {
        self.charges(tenant).count()
    }

    /// In-flight slot-ms charged to `tenant`.
    pub fn tenant_work_ms(&self, tenant: &str) -> u128 {
        self.charges(tenant).map(Admission::total_ms).sum()
    }

    fn spec_for(&self, tenant: &str) -> Option<&TenantSpec> {
        self.tenants.get(tenant).or(self.fallback.as_ref())
    }

    fn supply_ms(&self, kind: usize, from: SimTime, until: SimTime) -> u128 {
        let horizon = u128::from(until.saturating_since(from).as_millis());
        (self.capacity_slots[kind] as f64 * self.margin) as u128 * horizon
    }

    /// The demand-bound test for `spec`, whose per-kind work is `work_ms`,
    /// submitted at `now`; `Err` carries the rejection label. Deadline-less
    /// work always passes.
    fn demand_bound(
        &self,
        spec: &WorkflowSpec,
        work_ms: [u128; 2],
        now: SimTime,
    ) -> Result<(), &'static str> {
        let deadline = spec.deadline();
        if deadline == SimTime::MAX {
            return Ok(());
        }
        if spec.critical_path() > deadline.saturating_since(now) {
            return Err("critical_path_exceeds_deadline");
        }
        if (0..2).any(|kind| work_ms[kind] > self.supply_ms(kind, now, deadline)) {
            return Err("own_work_exceeds_capacity");
        }
        // Per slot kind: for every live reserved deadline D_k, the work of
        // that kind due by D_k must fit its capacity over [now, D_k].
        let mut horizon: Vec<(SimTime, [u128; 2])> = self
            .ledger
            .iter()
            .filter(|a| a.reserved && a.deadline > now)
            .map(|a| (a.deadline, a.work_ms))
            .chain([(deadline, work_ms)])
            .collect();
        horizon.sort_by_key(|&(d, _)| d);
        let mut cumulative = [0u128; 2];
        for (due, work) in horizon {
            for kind in 0..2 {
                cumulative[kind] += work[kind];
                if cumulative[kind] > self.supply_ms(kind, now, due) {
                    return Err(AGGREGATE_OVERLOAD);
                }
            }
        }
        Ok(())
    }

    /// The overload policy's verdict on aggregate overload for `tenant`
    /// (fairness `weight`) submitting work of value `density`.
    fn arbitrate(&self, tenant: &str, weight: f64, density: f64) -> Result<(), String> {
        match self.policy {
            OverloadPolicy::Necessity => Err(AGGREGATE_OVERLOAD.to_string()),
            OverloadPolicy::ValueDensity if density < self.mean_density() => {
                Err("low_value_density".to_string())
            }
            OverloadPolicy::WeightedFair
                if self.share(tenant) >= self.fair_share(tenant, weight) =>
            {
                Err(format!("tenant_share_exceeded:{tenant}"))
            }
            _ => Ok(()),
        }
    }

    /// Mean value density of all in-flight work (0 when idle).
    fn mean_density(&self) -> f64 {
        if self.ledger.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.ledger.iter().map(|a| a.density).sum();
        sum / self.ledger.len() as f64
    }

    /// `tenant`'s share of all in-flight work (0 when idle).
    fn share(&self, tenant: &str) -> f64 {
        let total: u128 = self.ledger.iter().map(Admission::total_ms).sum();
        if total > 0 {
            self.tenant_work_ms(tenant) as f64 / total as f64
        } else {
            0.0
        }
    }

    /// The tenant's weighted fair share among active tenants: the
    /// distinct tenants in the ledger, each weighted by the spec it is
    /// admitted under (the fallback's, for unregistered ones), plus the
    /// asking tenant.
    fn fair_share(&self, tenant: &str, weight: f64) -> f64 {
        let active: BTreeSet<&str> = self.ledger.iter().map(|a| a.tenant.as_str()).collect();
        let total_weight = active
            .into_iter()
            .filter(|&t| t != tenant)
            .filter_map(|t| self.spec_for(t))
            .fold(weight, |sum, spec| sum + spec.weight);
        if total_weight > 0.0 {
            weight / total_weight
        } else {
            1.0
        }
    }
}

/// The driver calls [`admit`](AdmissionGate::admit) once per workflow
/// pulled from the source, in nondecreasing submission order, and
/// [`release`](AdmissionGate::release) once per admitted workflow that
/// completes.
impl AdmissionGate for MultiTenantGate {
    fn admit(&mut self, spec: &WorkflowSpec, now: SimTime) -> Result<(), String> {
        let tenant = tenant_of(spec.name());
        let Some(cfg) = self.spec_for(tenant) else {
            return Err(format!("unknown_tenant:{tenant}"));
        };
        let (max_in_flight, max_slot_ms, weight) = (cfg.max_in_flight, cfg.max_slot_ms, cfg.weight);
        if self.tenant_in_flight(tenant) >= max_in_flight {
            return Err(format!("tenant_cap_exceeded:{tenant}"));
        }
        let work_ms = work_by_kind(spec);
        let total_ms = work_ms[0] + work_ms[1];
        if max_slot_ms.is_some_and(|budget| self.tenant_work_ms(tenant) + total_ms > budget) {
            return Err(format!("tenant_overuse:{tenant}"));
        }
        let budget_ms = spec.deadline().saturating_since(now).as_millis();
        let density = if spec.deadline() == SimTime::MAX || budget_ms == 0 {
            0.0
        } else {
            total_ms as f64 / budget_ms as f64
        };
        let reserved = match self.demand_bound(spec, work_ms, now) {
            Ok(()) => spec.deadline() != SimTime::MAX,
            Err(AGGREGATE_OVERLOAD) => {
                self.arbitrate(tenant, weight, density)?;
                false
            }
            Err(label) => return Err(label.to_string()),
        };
        let at = self
            .ledger
            .partition_point(|a| a.name.as_str() <= spec.name());
        self.ledger.insert(
            at,
            Admission {
                name: spec.name().to_string(),
                tenant: tenant.to_string(),
                work_ms,
                deadline: spec.deadline(),
                density,
                reserved,
            },
        );
        Ok(())
    }

    /// Releases one admission of `name`, the oldest: its tenant charge and
    /// any reservation.
    fn release(&mut self, name: &str) {
        let at = self.ledger.partition_point(|a| a.name.as_str() < name);
        if self.ledger.get(at).is_some_and(|a| a.name == name) {
            self.ledger.remove(at);
        }
    }
}

fn parse_policy(value: &str) -> Result<OverloadPolicy, String> {
    match value {
        "necessity" => Ok(OverloadPolicy::Necessity),
        "value-density" => Ok(OverloadPolicy::ValueDensity),
        "weighted-fair" => Ok(OverloadPolicy::WeightedFair),
        other => Err(format!(
            "unknown policy {other:?} (expected necessity, value-density, or weighted-fair)"
        )),
    }
}

/// Drops everything from the first `#` that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Strips one matching pair of surrounding double quotes, if present.
fn unquote(value: &str) -> &str {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .unwrap_or(value)
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

    fn gate() -> MultiTenantGate {
        // 4 map + 2 reduce slots; the test workflows are map-only, so the
        // binding capacity is 4 map slots. Margin 1.0 for exact math.
        MultiTenantGate::open(&ClusterConfig::uniform(2, 2, 1)).with_margin(1.0)
    }

    fn reservations(gate: &MultiTenantGate, now: SimTime) -> usize {
        gate.ledger
            .iter()
            .filter(|a| a.reserved && a.deadline > now)
            .count()
    }

    fn rejection(gate: &mut MultiTenantGate, w: &WorkflowSpec) -> String {
        gate.admit(w, SimTime::ZERO).unwrap_err()
    }

    #[test]
    fn admits_feasible_workflow() {
        let mut g = gate();
        assert_eq!(g.admit(&workflow("w", 4, 30, 10), SimTime::ZERO), Ok(()));
        assert_eq!(reservations(&g, SimTime::ZERO), 1);
    }

    #[test]
    fn rejects_critical_path_violation() {
        let mut g = gate();
        // One 10-minute map task, 5-minute deadline.
        let w = workflow("w", 1, 600, 5);
        assert_eq!(rejection(&mut g, &w), "critical_path_exceeds_deadline");
        assert!(g.ledger.is_empty());
    }

    #[test]
    fn rejects_own_work_overflow() {
        let mut g = gate();
        // 4 map slots x 60s = 240 slot-s supply in 1 minute; demand 100 x
        // 30s maps = 3000 slot-s.
        let w = workflow("w", 100, 30, 1);
        assert_eq!(rejection(&mut g, &w), "own_work_exceeds_capacity");
    }

    #[test]
    fn rejects_aggregate_overload() {
        let mut g = gate();
        // Each workflow: 20 maps x 60s = 1200 slot-s of map work; map
        // supply by 10 min is 4 x 600 = 2400 slot-s. Two fit exactly; the
        // third overloads.
        assert!(g.admit(&workflow("a", 20, 60, 10), SimTime::ZERO).is_ok());
        assert!(g.admit(&workflow("b", 20, 60, 10), SimTime::ZERO).is_ok());
        assert_eq!(
            rejection(&mut g, &workflow("c", 20, 60, 10)),
            "aggregate_overload"
        );
        // A later deadline gives the third workflow room.
        assert!(g.admit(&workflow("c", 20, 60, 20), SimTime::ZERO).is_ok());
    }

    #[test]
    fn earlier_deadline_is_checked_against_shorter_horizon() {
        let mut g = gate();
        // A big workflow due late fits (2100 of 2400 slot-s)...
        assert!(g.admit(&workflow("big", 35, 60, 10), SimTime::ZERO).is_ok());
        // ...and a small workflow due very early only adds demand at its
        // own deadline (300 of 480 slot-s by minute 2), so it is admitted.
        assert!(g.admit(&workflow("small", 5, 60, 2), SimTime::ZERO).is_ok());
        // But a second big one due at minute 10 now fails the aggregate
        // (2100 + 300 + 2100 > 2400).
        assert_eq!(
            rejection(&mut g, &workflow("big2", 35, 60, 10)),
            "aggregate_overload"
        );
    }

    /// Releasing a workflow frees both halves of its charge: the tenant's
    /// in-flight count and work, and the demand-bound reservation.
    #[test]
    fn completion_releases_capacity() {
        let mut g = gate();
        assert!(g.admit(&workflow("a", 20, 60, 10), SimTime::ZERO).is_ok());
        assert!(g.admit(&workflow("b", 20, 60, 10), SimTime::ZERO).is_ok());
        assert_eq!(g.tenant_in_flight("default"), 2);
        g.release("a");
        assert_eq!(g.tenant_in_flight("default"), 1);
        assert_eq!(g.tenant_work_ms("default"), 1_200_000);
        assert_eq!(reservations(&g, SimTime::ZERO), 1);
        // Releasing a name the gate never admitted changes nothing.
        g.release("never");
        assert_eq!(g.ledger.len(), 1);
    }

    #[test]
    fn expire_drops_past_deadlines() {
        let mut g = gate();
        assert!(g.admit(&workflow("a", 20, 60, 10), SimTime::ZERO).is_ok());
        assert_eq!(reservations(&g, SimTime::from_mins(9)), 1);
        // Past its deadline the reservation's capacity window is gone,
        // whether the workflow finished or not; its tenant charge stays
        // until release.
        assert_eq!(reservations(&g, SimTime::from_mins(11)), 0);
        assert_eq!(g.tenant_in_flight("default"), 1);
    }

    #[test]
    fn deadline_less_workflows_pass_through() {
        let mut g = gate();
        let mut b = WorkflowBuilder::new("bg");
        b.add_job(JobSpec::new(
            "j",
            1_000,
            0,
            SimDuration::from_secs(600),
            SimDuration::ZERO,
        ));
        let w = b.build().unwrap();
        assert_eq!(g.admit(&w, SimTime::ZERO), Ok(()));
        assert_eq!(
            reservations(&g, SimTime::ZERO),
            0,
            "background work reserves nothing"
        );
    }

    #[test]
    fn margin_shrinks_supply() {
        let mut strict = MultiTenantGate::open(&ClusterConfig::uniform(2, 2, 1)).with_margin(0.5);
        // 4 map slots, margin 0.5 -> 2 effective; 20x60s = 1200 slot-s
        // demand vs 2 x 600 = 1200 supply: admitted exactly at the
        // boundary, and one more map task tips it over.
        assert!(strict
            .admit(&workflow("a", 20, 60, 10), SimTime::ZERO)
            .is_ok());
        assert!(strict
            .admit(&workflow("b", 1, 60, 10), SimTime::ZERO)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "margin must be in (0, 1]")]
    fn rejects_bad_margin() {
        let _ = gate().with_margin(0.0);
    }

    /// Labels carry no run-specific values: the same cause under different
    /// numbers aggregates under one key.
    #[test]
    fn labels_are_stable_and_value_free() {
        for (a, b, label) in [
            (
                workflow("a", 1, 600, 5),
                workflow("b", 2, 900, 1),
                "critical_path_exceeds_deadline",
            ),
            (
                workflow("a", 100, 30, 1),
                workflow("b", 500, 50, 3),
                "own_work_exceeds_capacity",
            ),
        ] {
            assert_eq!(rejection(&mut gate(), &a), label);
            assert_eq!(rejection(&mut gate(), &b), label);
        }
    }

    #[test]
    fn gate_maps_rejections_to_labels() {
        let mut gate: Box<dyn AdmissionGate> = Box::new(gate());
        assert_eq!(
            gate.admit(&workflow("ok", 4, 30, 10), SimTime::ZERO),
            Ok(())
        );
        // One 10-minute map, 5-minute deadline: structurally infeasible.
        assert_eq!(
            gate.admit(&workflow("cp", 1, 600, 5), SimTime::ZERO),
            Err("critical_path_exceeds_deadline".to_string())
        );
        // 3000 slot-s of demand in a 240 slot-s window.
        assert_eq!(
            gate.admit(&workflow("own", 100, 30, 1), SimTime::ZERO),
            Err("own_work_exceeds_capacity".to_string())
        );
        // Fill the 2400 slot-s map horizon to the brim ("ok" holds 120,
        // "a" 1200, "b" 1080), then one more 1200 slot-s workflow tips
        // the aggregate test.
        assert!(gate
            .admit(&workflow("a", 20, 60, 10), SimTime::ZERO)
            .is_ok());
        assert!(gate
            .admit(&workflow("b", 18, 60, 10), SimTime::ZERO)
            .is_ok());
        assert_eq!(
            gate.admit(&workflow("c", 20, 60, 10), SimTime::ZERO),
            Err("aggregate_overload".to_string())
        );
    }

    #[test]
    fn gate_release_frees_reservation() {
        let mut g = gate();
        assert!(g.admit(&workflow("a", 20, 60, 10), SimTime::ZERO).is_ok());
        assert!(g.admit(&workflow("b", 20, 60, 10), SimTime::ZERO).is_ok());
        assert!(g.admit(&workflow("c", 20, 60, 10), SimTime::ZERO).is_err());
        g.release("a");
        assert!(g.admit(&workflow("c", 20, 60, 10), SimTime::ZERO).is_ok());
    }

    #[test]
    fn gate_expires_stale_reservations_on_admit() {
        let mut g = gate();
        assert!(g.admit(&workflow("a", 20, 60, 10), SimTime::ZERO).is_ok());
        assert!(g.admit(&workflow("b", 20, 60, 10), SimTime::ZERO).is_ok());
        // At minute 11 both reservations' windows are gone; counted, their
        // stale deadlines would zero out the aggregate supply and reject
        // "c" outright.
        let now = SimTime::from_mins(11);
        assert!(g.admit(&workflow("c", 20, 60, 20), now).is_ok());
        assert_eq!(reservations(&g, now), 1);
    }

    /// The gate drives a real simulation: infeasible workflows are turned
    /// away at the front door (counted per label, no outcome), feasible
    /// ones run to completion, and a gate-free run of the same workload is
    /// unaffected.
    #[test]
    fn gate_filters_workflows_in_simulation() {
        use woha_sim::{try_run_simulation_streamed, SimConfig, SubmitOrderScheduler};
        use woha_trace::VecSource;

        let cluster = ClusterConfig::uniform(2, 2, 1);
        let workload = vec![
            workflow("feasible", 4, 30, 10),
            workflow("hopeless", 1, 600, 5),
        ];
        let mut gate = MultiTenantGate::open(&cluster);
        let mut source = VecSource::new(workload.clone());
        let report = try_run_simulation_streamed(
            &mut source,
            &mut SubmitOrderScheduler::new(),
            &cluster,
            &SimConfig::default(),
            Some(&mut gate),
        )
        .unwrap();
        assert!(report.completed);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].name, "feasible");
        let admission = report.admission.expect("gated run reports admission");
        assert_eq!(admission.workflows_rejected, 1);
        assert_eq!(admission.rejections.len(), 1);
        assert_eq!(
            admission.rejections[0].reason,
            "critical_path_exceeds_deadline"
        );
        assert_eq!(admission.rejections[0].count, 1);

        // Without a gate the hopeless workflow still runs (and misses).
        let mut source = VecSource::new(workload);
        let ungated = try_run_simulation_streamed(
            &mut source,
            &mut SubmitOrderScheduler::new(),
            &cluster,
            &SimConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(ungated.outcomes.len(), 2);
        assert!(ungated.admission.is_none());
    }
}
