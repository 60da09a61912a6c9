//! Property tests for the admission gate: per-tenant caps and budgets are
//! invariants that hold for *every* arrival/release interleaving, shedding
//! is a deterministic function of the sequence (two gates fed the same
//! script make identical decisions), and seeded scripts keep making the
//! decisions they were recorded with.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestCaseError;
use woha_core::{MultiTenantGate, OverloadPolicy, TenantSpec};
use woha_model::{JobSpec, SimDuration, SimTime, WorkflowBuilder, WorkflowSpec};
use woha_sim::{AdmissionGate, ClusterConfig};

const TENANTS: &[&str] = &["ads", "etl", "ml"];

fn workflow(name: &str, maps: u32, map_secs: u64, deadline_mins: u64) -> WorkflowSpec {
    let mut b = WorkflowBuilder::new(name);
    b.add_job(JobSpec::new(
        "j",
        maps,
        0,
        SimDuration::from_secs(map_secs),
        SimDuration::ZERO,
    ));
    if deadline_mins > 0 {
        b.relative_deadline(SimDuration::from_mins(deadline_mins));
    }
    b.build().unwrap()
}

/// One scripted step, decoded from raw numeric draws so any tuple is a
/// legal script: submit a workflow for a tenant, or release an earlier
/// admitted one.
#[derive(Debug, Clone, Copy)]
struct Step {
    tenant: usize,
    maps: u32,
    map_secs: u64,
    deadline_mins: u64,
    /// Release an admitted workflow (chosen by this modulus) instead of
    /// submitting, when odd.
    action: u8,
}

fn policy_of(code: u8) -> OverloadPolicy {
    match code % 3 {
        0 => OverloadPolicy::Necessity,
        1 => OverloadPolicy::ValueDensity,
        _ => OverloadPolicy::WeightedFair,
    }
}

fn build_gate(policy: OverloadPolicy, cap: usize, budget_ms: u128) -> MultiTenantGate {
    let mut g = MultiTenantGate::new(&ClusterConfig::uniform(4, 2, 1)).with_policy(policy);
    for (i, t) in TENANTS.iter().enumerate() {
        g.add_tenant(
            TenantSpec::new(*t, cap)
                .with_slot_budget(budget_ms)
                .with_weight(1.0 + i as f64),
        );
    }
    g
}

/// Replays a script against a fresh gate, checking the cap/budget
/// invariants after every step, and returns the decision log.
fn run_script(
    policy: OverloadPolicy,
    cap: usize,
    budget_ms: u128,
    steps: &[Step],
) -> Result<Vec<Result<(), String>>, TestCaseError> {
    let mut gate = build_gate(policy, cap, budget_ms);
    let mut admitted: Vec<String> = Vec::new();
    let mut decisions = Vec::new();
    let mut seq = 0u64;
    for (k, s) in steps.iter().enumerate() {
        let now = SimTime::from_secs(k as u64 * 10);
        if s.action % 2 == 1 && !admitted.is_empty() {
            let name = admitted.remove(s.action as usize % admitted.len());
            gate.release(&name);
        } else {
            seq += 1;
            let tenant = TENANTS[s.tenant % TENANTS.len()];
            let name = format!("{tenant}/wf-{seq}");
            let w = workflow(
                &name,
                1 + s.maps % 16,
                10 + s.map_secs % 120,
                s.deadline_mins % 30,
            )
            .reissued(
                name.clone(),
                now,
                if s.deadline_mins % 30 == 0 {
                    SimTime::MAX
                } else {
                    now.saturating_add(SimDuration::from_mins(s.deadline_mins % 30))
                },
            );
            let decision = gate.admit(&w, now);
            if decision.is_ok() {
                admitted.push(name);
            }
            decisions.push(decision);
        }
        // The hard invariants: no tenant ever holds more than its cap or
        // budget, no matter the policy or interleaving.
        for t in TENANTS {
            prop_assert!(
                gate.tenant_in_flight(t) <= cap,
                "tenant {t} exceeds cap {cap}: {}",
                gate.tenant_in_flight(t)
            );
            prop_assert!(
                gate.tenant_work_ms(t) <= budget_ms,
                "tenant {t} exceeds budget {budget_ms}: {}",
                gate.tenant_work_ms(t)
            );
        }
    }
    Ok(decisions)
}

proptest! {
    /// Caps and budgets are never exceeded, under any policy, for
    /// arbitrary admit/release scripts.
    #[test]
    fn caps_and_budgets_hold_for_all_scripts(
        policy_code in 0u8..3,
        cap in 1usize..4,
        raw in vec((0usize..8, 0u32..64, 0u64..512, 0u64..64, 0u8..8), 1..40),
    ) {
        let steps: Vec<Step> = raw
            .iter()
            .map(|&(tenant, maps, map_secs, deadline_mins, action)| Step {
                tenant,
                maps,
                map_secs,
                deadline_mins,
                action,
            })
            .collect();
        run_script(policy_of(policy_code), cap, 2_000_000, &steps)?;
    }

    /// Shedding is deterministic: the same script against two fresh gates
    /// produces the same decision log, label for label.
    #[test]
    fn shedding_is_deterministic(
        policy_code in 0u8..3,
        raw in vec((0usize..8, 0u32..64, 0u64..512, 0u64..64, 0u8..8), 1..40),
    ) {
        let steps: Vec<Step> = raw
            .iter()
            .map(|&(tenant, maps, map_secs, deadline_mins, action)| Step {
                tenant,
                maps,
                map_secs,
                deadline_mins,
                action,
            })
            .collect();
        let a = run_script(policy_of(policy_code), 2, 1_000_000, &steps)?;
        let b = run_script(policy_of(policy_code), 2, 1_000_000, &steps)?;
        prop_assert_eq!(a, b);
    }
}

/// splitmix64: the seeded stream behind the identity scripts.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// A chain of one to three map-reduce jobs, due 1–45 minutes after `now`
/// (or never, one time in six).
fn script_workflow(rng: &mut Rng, name: &str, now: SimTime) -> WorkflowSpec {
    let mut b = WorkflowBuilder::new(name);
    let mut prev = None;
    for j in 0..1 + rng.below(3) {
        let job = b.add_job(JobSpec::new(
            format!("j{j}"),
            1 + rng.below(40) as u32,
            rng.below(6) as u32,
            SimDuration::from_secs(5 + rng.below(240)),
            SimDuration::from_secs(5 + rng.below(240)),
        ));
        if let Some(p) = prev {
            b.add_dependency(p, job);
        }
        prev = Some(job);
    }
    b.submit_at(now);
    if rng.below(6) != 0 {
        b.relative_deadline(SimDuration::from_mins(1 + rng.below(45)));
    }
    b.build().unwrap()
}

/// Replays one seeded admit/release script over distinct workflow names
/// and returns the FNV-1a digest of its decision labels.
fn script_digest(gate: &mut dyn AdmissionGate, seed: u64) -> u64 {
    const NAMES: &[&str] = &["ads", "etl", "ml", "ops"];
    let mut rng = Rng(seed);
    let mut now = SimTime::ZERO;
    let mut admitted: Vec<String> = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for step in 0..300 {
        now = now.saturating_add(SimDuration::from_secs(rng.below(90)));
        if !admitted.is_empty() && rng.below(3) == 0 {
            let name = admitted.swap_remove(rng.below(admitted.len() as u64) as usize);
            gate.release(&name);
            continue;
        }
        let name = format!("{}/wf-{step}", NAMES[rng.below(4) as usize]);
        let spec = script_workflow(&mut rng, &name, now);
        let label = match gate.admit(&spec, now) {
            Ok(()) => {
                admitted.push(name);
                "ok".to_string()
            }
            Err(label) => label,
        };
        for byte in label.bytes().chain([b'\n']) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    digest
}

fn tenant_gate(policy: OverloadPolicy, cluster: &ClusterConfig) -> MultiTenantGate {
    let gate = MultiTenantGate::new(cluster)
        .with_policy(policy)
        .with_tenant(TenantSpec::new("ads", 3).with_slot_budget(40_000_000))
        .with_tenant(TenantSpec::new("etl", 4).with_weight(2.0))
        .with_tenant(
            TenantSpec::new("ml", 2)
                .with_slot_budget(20_000_000)
                .with_weight(3.0),
        );
    match policy {
        OverloadPolicy::WeightedFair => gate,
        _ => gate.allow_unknown(TenantSpec::new("*", 2).with_weight(0.5)),
    }
}

/// Label digests of [`script_digest`]'s seeds 1–8, one row per seed, in
/// the order: open gate, open gate at margin 0.55, then the tenant gate
/// under each policy. The scripts use distinct names, and only the
/// necessity and value-density gates have a fallback, so duplicate-name
/// or fallback-weight accounting cannot move them.
const RECORDED: [[u64; 5]; 8] = [
    [
        0xd7cf3f46eae4362f,
        0x2619c33844e43aec,
        0x309f8baeab567f71,
        0x68f49696aca88e1e,
        0xc9148f439ff1a561,
    ],
    [
        0x96fdd0aa86954259,
        0xb6eb6292483bd2fc,
        0x296b8c7e8cfc8beb,
        0x8dd814307d88af5b,
        0x327072ac9e17762e,
    ],
    [
        0xa575ff3d6aa0bbf3,
        0x6903f8db6b21a2f6,
        0x78625d8ec0df72d0,
        0x148d16e132e78332,
        0x3813deb93d8d3a5d,
    ],
    [
        0x00bffe16d966a187,
        0x48691d670f7ca360,
        0xfbfa21bfeec7fe48,
        0x67966891352fc6dd,
        0xe45166c29fb699ef,
    ],
    [
        0x93390668fa5848d2,
        0xa3a2ecc4887c5980,
        0x4c7ae1c40ba0cce3,
        0x379084dd4c277406,
        0xaec08daf56f6f188,
    ],
    [
        0x9c8295a697596560,
        0x0543840c30064af8,
        0xfcee9b725102d31c,
        0xa707c687b48ad77e,
        0xea68c28873c7c11b,
    ],
    [
        0xf5b03aa49f23f9cc,
        0xab3dec9faa56f56b,
        0x2d3fc0d88b0ccd35,
        0x94cc93897c74501b,
        0x3c9d08d1eb9f7414,
    ],
    [
        0x71a575ce21aff33f,
        0x5a4a7d77567c5319,
        0xd86296ae3b4cd069,
        0x1b6f771fa7673f08,
        0x93009433e614ca48,
    ],
];

/// The gate's decisions are pinned: seeded admit/release scripts through
/// the open gate and the tenant gate under each policy produce the
/// recorded label sequences.
#[test]
fn gate_decisions_identity() {
    let cluster = ClusterConfig::uniform(4, 2, 1);
    for seed in 1..=8u64 {
        let mut gates: Vec<Box<dyn AdmissionGate>> = vec![
            Box::new(MultiTenantGate::open(&cluster)),
            Box::new(MultiTenantGate::open(&cluster).with_margin(0.55)),
            Box::new(tenant_gate(OverloadPolicy::Necessity, &cluster)),
            Box::new(tenant_gate(OverloadPolicy::ValueDensity, &cluster)),
            Box::new(tenant_gate(OverloadPolicy::WeightedFair, &cluster)),
        ];
        let got: Vec<u64> = gates
            .iter_mut()
            .map(|g| script_digest(g.as_mut(), seed))
            .collect();
        assert_eq!(got, RECORDED[seed as usize - 1], "seed {seed}");
    }
}
