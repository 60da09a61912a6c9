//! The admission gate's front door: the tenants file
//! ([`MultiTenantGate::parse`](crate::admission::MultiTenantGate::parse)).

mod tests {
    use crate::admission::{MultiTenantGate, OverloadPolicy};
    use woha_model::{JobSpec, SimDuration, SimTime, WorkflowBuilder};
    use woha_sim::{AdmissionGate, ClusterConfig};

    const SAMPLE: &str = r#"
# service admission config
policy = "weighted-fair"

[tenant.ads]
max_in_flight = 4
max_slot_ms = 3600000   # one slot-hour
weight = 2.0

[tenant.etl]
max_in_flight = 2

[unknown]
max_in_flight = 1
weight = 0.5
"#;

    /// The file CI's `service_smoke` step serves with.
    const CI_TENANTS: &str = "policy = \"necessity\"\n[tenant.ci]\nmax_in_flight = 8\n";

    fn parse(text: &str) -> Result<MultiTenantGate, String> {
        MultiTenantGate::parse(text, &ClusterConfig::uniform(4, 2, 1))
    }

    #[test]
    fn parses_the_documented_shape() {
        let g = parse(SAMPLE).unwrap();
        assert_eq!(g.policy, OverloadPolicy::WeightedFair);
        let tenants: Vec<_> = g.tenants().collect();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].name, "ads");
        assert_eq!(tenants[0].max_in_flight, 4);
        assert_eq!(tenants[0].max_slot_ms, Some(3_600_000));
        assert_eq!(tenants[0].weight, 2.0);
        assert_eq!(tenants[1].name, "etl");
        assert_eq!(tenants[1].max_in_flight, 2);
        assert_eq!(tenants[1].max_slot_ms, None);
        let fallback = g.fallback.as_ref().unwrap();
        assert_eq!(fallback.max_in_flight, 1);
        assert_eq!(fallback.weight, 0.5);
    }

    #[test]
    fn builds_a_gate_that_enforces_the_file() {
        let mut g = parse(SAMPLE).unwrap();
        let w = |name: &str| {
            let mut b = WorkflowBuilder::new(name);
            b.add_job(JobSpec::new(
                "j",
                2,
                0,
                SimDuration::from_secs(30),
                SimDuration::ZERO,
            ));
            b.build().unwrap()
        };
        for name in ["etl/a", "etl/b", "ops/a"] {
            assert_eq!(g.admit(&w(name), SimTime::ZERO), Ok(()), "{name}");
        }
        assert_eq!(
            g.admit(&w("etl/c"), SimTime::ZERO),
            Err("tenant_cap_exceeded:etl".to_string())
        );
        assert_eq!(
            g.admit(&w("ops/b"), SimTime::ZERO),
            Err("tenant_cap_exceeded:ops".to_string())
        );
    }

    #[test]
    fn rejects_typos_rather_than_defaulting() {
        for (text, needle) in [
            ("policy = \"fastest\"", "unknown policy"),
            ("[tenant.ads]\nmax_inflight = 3", "unknown tenant key"),
            ("[group.ads]\nmax_in_flight = 3", "unknown section"),
            ("max_in_flight = 3", "unknown top-level key"),
            ("[tenant.ads]\nmax_in_flight three", "expected key = value"),
            ("[tenant.ads]\nweight = -1", "weight must be positive"),
            (
                "[tenant.ads]\n[tenant.ads]",
                "line 2: duplicate tenant section",
            ),
            (
                "[unknown]\n\n[unknown]\n",
                "line 3: duplicate [unknown] section",
            ),
            (
                "[tenant.ads]\n[tenant.etl]\n[tenant.ads]",
                "line 3: duplicate tenant section \"ads\"",
            ),
            ("[tenant.]", "empty tenant name"),
            ("[tenant.ads", "unterminated section header"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} -> {err:?}");
            assert!(err.starts_with("line "), "{text:?} -> {err:?}");
        }
    }

    #[test]
    fn comments_and_quotes_interact_correctly() {
        let g = parse("policy = \"value-density\" # not \"necessity\"").unwrap();
        assert_eq!(g.policy, OverloadPolicy::ValueDensity);
        // A `#` inside quotes is part of the value, not a comment.
        let err = parse(r#"policy = "a#b" # tail"#).unwrap_err();
        assert!(err.contains(r#"unknown policy "a#b""#), "{err}");
    }

    #[test]
    fn empty_file_is_a_valid_default() {
        let g = parse("").unwrap();
        assert_eq!(g.policy, OverloadPolicy::Necessity);
        assert_eq!(g.tenants().count(), 0);
        assert!(g.fallback.is_none());
    }

    /// splitmix64, for the mutation corpus.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Seeded mutants of the documented sample and CI's file: every
    /// truncation, bit flips, line splices, and numeric extremes in every
    /// value position.
    fn corpus() -> Vec<String> {
        const EXTREMES: &[&str] = &[
            "340282366920938463463374607431768211455",
            "340282366920938463463374607431768211456",
            "18446744073709551616",
            "-1",
            "-0",
            "0",
            "NaN",
            "inf",
            "-inf",
            "1e400",
            "5e-324",
            "\"\"",
            "",
            "\"",
        ];
        let mut rng = Rng(0x7e4a_4175);
        let mut out = Vec::new();
        for base in [SAMPLE, CI_TENANTS] {
            let lines: Vec<&str> = base.lines().collect();
            out.extend(
                (0..=base.len())
                    .filter_map(|n| base.get(..n))
                    .map(str::to_string),
            );
            for _ in 0..2000 {
                let mut bytes = base.as_bytes().to_vec();
                for _ in 0..1 + rng.below(3) {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
                out.push(String::from_utf8_lossy(&bytes).into_owned());
            }
            for _ in 0..500 {
                let mut spliced = lines.clone();
                let donor = [SAMPLE, CI_TENANTS][rng.below(2)]
                    .lines()
                    .collect::<Vec<_>>();
                let line = donor[rng.below(donor.len())];
                match rng.below(3) {
                    0 => spliced.insert(rng.below(spliced.len() + 1), line),
                    1 => spliced[rng.below(lines.len())] = line,
                    _ => {
                        spliced.remove(rng.below(lines.len()));
                    }
                }
                out.push(spliced.join("\n"));
            }
            for (i, line) in lines.iter().enumerate() {
                let Some((key, _)) = line.split_once('=') else {
                    continue;
                };
                for value in EXTREMES {
                    let mut mutant = lines.clone();
                    let replaced = format!("{key}= {value}");
                    mutant[i] = &replaced;
                    out.push(mutant.join("\n"));
                }
            }
            for key in ["max_in_flight", "max_slot_ms", "weight"] {
                for value in EXTREMES {
                    out.push(format!("{base}\n[tenant.x]\n{key} = {value}\n"));
                }
            }
        }
        out
    }

    /// Hostile tenants files: every mutant either parses into a gate that
    /// then admits and releases without panicking, or is refused with an
    /// error naming its line.
    #[test]
    fn mutated_tenant_files_parse_or_name_their_line() {
        let spec = |name: &str, maps: u32, deadline_mins: u64| {
            let mut b = WorkflowBuilder::new(name);
            b.add_job(JobSpec::new(
                "j",
                maps,
                1,
                SimDuration::from_secs(40),
                SimDuration::from_secs(60),
            ));
            if deadline_mins > 0 {
                b.relative_deadline(SimDuration::from_mins(deadline_mins));
            }
            b.build().unwrap()
        };
        let (mut parsed, mut refused) = (0, 0);
        for mutant in corpus() {
            match parse(&mutant) {
                Ok(mut gate) => {
                    parsed += 1;
                    for (k, name) in ["ads/a", "etl/a", "ci/a", "x/a", "ops/a", "plain"]
                        .iter()
                        .enumerate()
                    {
                        let _ =
                            gate.admit(&spec(name, 4 + 30 * k as u32, k as u64 * 3), SimTime::ZERO);
                    }
                    gate.release("ads/a");
                    gate.release("ci/a");
                }
                Err(e) => {
                    refused += 1;
                    let line: Option<usize> = e
                        .strip_prefix("line ")
                        .and_then(|rest| rest.split_once(": "))
                        .and_then(|(n, _)| n.parse().ok());
                    assert!(
                        line.is_some_and(|n| n >= 1 && n <= mutant.lines().count()),
                        "{mutant:?} -> {e:?}"
                    );
                }
            }
        }
        assert!(
            parsed > 100 && refused > 100,
            "{parsed} parsed, {refused} refused"
        );
    }
}
