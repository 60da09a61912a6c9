//! The admission gate's tenant half: caps, budgets, the overload policies,
//! and the per-admission ledger they all read.

mod tests {
    use crate::admission::{tenant_of, MultiTenantGate, OverloadPolicy, TenantSpec};
    use woha_model::{JobSpec, SimDuration, SimTime, WorkflowBuilder, WorkflowSpec};
    use woha_sim::{AdmissionGate, ClusterConfig};

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

    /// 4 map + 2 reduce slots at margin 1.0, no tenants yet.
    fn bare() -> MultiTenantGate {
        MultiTenantGate::new(&ClusterConfig::uniform(2, 2, 1)).with_margin(1.0)
    }

    fn gate() -> MultiTenantGate {
        bare()
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
            g.admit(&workflow("ops/x", 2, 30, 10), SimTime::ZERO),
            Err("unknown_tenant:ops".to_string())
        );
        let mut open = gate().allow_unknown(TenantSpec::new("*", 1));
        assert!(open
            .admit(&workflow("ops/x", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        assert_eq!(
            open.admit(&workflow("ops/y", 2, 30, 10), SimTime::ZERO),
            Err("tenant_cap_exceeded:ops".to_string())
        );
    }

    #[test]
    fn per_tenant_cap_is_enforced_and_released() {
        let mut g = gate();
        assert!(g
            .admit(&workflow("ads/a", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        assert!(g
            .admit(&workflow("ads/b", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        assert_eq!(
            g.admit(&workflow("ads/c", 2, 30, 10), SimTime::ZERO),
            Err("tenant_cap_exceeded:ads".to_string())
        );
        // Another tenant is unaffected by ads' cap.
        assert!(g
            .admit(&workflow("etl/a", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        g.release("ads/a");
        assert!(g
            .admit(&workflow("ads/c", 2, 30, 10), SimTime::ZERO)
            .is_ok());
    }

    /// Workflow names need not be unique: each admission is its own
    /// charge, and a release frees exactly one of them.
    #[test]
    fn duplicate_names_are_charged_per_admission() {
        let mut g = gate();
        assert!(g
            .admit(&workflow("ads/x", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        assert!(g
            .admit(&workflow("ads/x", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        assert_eq!(g.tenant_in_flight("ads"), 2);
        assert_eq!(g.tenant_work_ms("ads"), 120_000);
        assert_eq!(
            g.admit(&workflow("ads/y", 2, 30, 10), SimTime::ZERO),
            Err("tenant_cap_exceeded:ads".to_string())
        );
        g.release("ads/x");
        assert_eq!(g.tenant_in_flight("ads"), 1);
        assert!(g
            .admit(&workflow("ads/y", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        g.release("ads/x");
        g.release("ads/x");
        assert_eq!(g.tenant_in_flight("ads"), 1, "only ads/y is left");
    }

    #[test]
    fn slot_budget_rejects_overuse() {
        // 2 maps x 30s = 60_000 slot-ms per workflow; budget fits one.
        let mut g = bare().with_tenant(TenantSpec::new("ads", 10).with_slot_budget(100_000));
        assert!(g
            .admit(&workflow("ads/a", 2, 30, 10), SimTime::ZERO)
            .is_ok());
        assert_eq!(
            g.admit(&workflow("ads/b", 2, 30, 10), SimTime::ZERO),
            Err("tenant_overuse:ads".to_string())
        );
        g.release("ads/a");
        assert!(g
            .admit(&workflow("ads/b", 2, 30, 10), SimTime::ZERO)
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
                g.admit(&workflow("ads/cp", 1, 600, 5), SimTime::ZERO),
                Err("critical_path_exceeds_deadline".to_string()),
                "{policy:?}"
            );
        }
    }

    /// Saturate the 4-map-slot cluster's 10-minute horizon: two 20x60s
    /// workflows hold 2400 of 2400 slot-s, so the next arrival trips the
    /// aggregate test and hands the decision to the overload policy.
    fn saturated(policy: OverloadPolicy, first: &str, second: &str) -> MultiTenantGate {
        let mut g = bare()
            .with_policy(policy)
            .with_tenant(TenantSpec::new("ads", 10).with_weight(1.0))
            .with_tenant(TenantSpec::new("etl", 10).with_weight(1.0))
            .allow_unknown(TenantSpec::new("*", 10).with_weight(1.0));
        assert!(g.admit(&workflow(first, 20, 60, 10), SimTime::ZERO).is_ok());
        assert!(g
            .admit(&workflow(second, 20, 60, 10), SimTime::ZERO)
            .is_ok());
        g
    }

    #[test]
    fn necessity_policy_rejects_on_overload() {
        let mut g = saturated(OverloadPolicy::Necessity, "ads/a", "ads/b");
        assert_eq!(
            g.admit(&workflow("etl/c", 20, 60, 10), SimTime::ZERO),
            Err("aggregate_overload".to_string())
        );
    }

    #[test]
    fn value_density_admits_dense_work_and_sheds_sparse() {
        let mut g = saturated(OverloadPolicy::ValueDensity, "ads/a", "ads/b");
        // In-flight density: 1200 slot-s of work per 600s budget = 2.0.
        // A sparse straggler (60 slot-s over 10 min = 0.1) sheds...
        assert_eq!(
            g.admit(&workflow("etl/sparse", 1, 60, 10), SimTime::ZERO),
            Err("low_value_density".to_string())
        );
        // ...but an urgent dense workflow (1200 slot-s over 5 min = 4.0)
        // rides through the overload on the best-effort lane.
        assert!(g
            .admit(&workflow("etl/dense", 40, 30, 5), SimTime::ZERO)
            .is_ok());
    }

    #[test]
    fn weighted_fair_sheds_over_share_tenant_only() {
        let mut g = saturated(OverloadPolicy::WeightedFair, "ads/a", "ads/b");
        // ads holds 100% of in-flight work with a 50% fair share: shed.
        assert_eq!(
            g.admit(&workflow("ads/c", 20, 60, 10), SimTime::ZERO),
            Err("tenant_share_exceeded:ads".to_string())
        );
        // etl holds 0% with a 50% fair share: admitted despite overload.
        assert!(g
            .admit(&workflow("etl/c", 20, 60, 10), SimTime::ZERO)
            .is_ok());
    }

    /// A tenant admitted under the `[unknown]` fallback is as active as a
    /// registered one: it weighs into everyone else's fair share.
    #[test]
    fn weighted_fair_counts_tenants_admitted_under_the_fallback() {
        for other in ["etl/a", "ops/a"] {
            let mut g = saturated(OverloadPolicy::WeightedFair, "ads/a", other);
            // ads holds 50% of in-flight work with a 50% fair share.
            assert_eq!(
                g.admit(&workflow("ads/c", 20, 60, 10), SimTime::ZERO),
                Err("tenant_share_exceeded:ads".to_string()),
                "beside {other}"
            );
        }
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
        assert!(g.admit(&bg, SimTime::ZERO).is_ok());
        assert_eq!(g.tenant_in_flight("ads"), 1);
        assert_eq!(g.tenant_work_ms("ads"), 60_000);
    }
}
