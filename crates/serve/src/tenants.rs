//! Tenant configuration files for the live service.
//!
//! The service reads per-tenant admission policy from a small TOML-subset
//! file (the workspace has no TOML crate, so the format is parsed by
//! hand — it accepts the natural TOML spelling of exactly the shapes we
//! need):
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
//! supported; nothing else is. Unknown keys and malformed lines are
//! errors, not silent defaults — a typo in an admission policy should
//! never relax it.

use std::path::Path;
use woha_core::{MultiTenantGate, OverloadPolicy, TenantSpec};
use woha_sim::ClusterConfig;

/// Parsed tenant configuration: an overload policy plus one
/// [`TenantSpec`] per `[tenant.NAME]` section and an optional `[unknown]`
/// fallback.
#[derive(Debug, Clone, Default)]
pub struct TenantsConfig {
    /// How aggregate overload is arbitrated across tenants.
    pub policy: OverloadPolicy,
    /// Per-tenant admission limits, in file order.
    pub tenants: Vec<TenantSpec>,
    /// Fallback spec for tenants without a section; `None` rejects them.
    pub unknown: Option<TenantSpec>,
}

/// One section being accumulated while parsing.
#[derive(Debug, Default)]
struct RawSpec {
    max_in_flight: Option<usize>,
    max_slot_ms: Option<u128>,
    weight: Option<f64>,
}

impl RawSpec {
    fn build(self, name: &str) -> TenantSpec {
        let mut spec = TenantSpec::new(name, self.max_in_flight.unwrap_or(1));
        if let Some(budget) = self.max_slot_ms {
            spec = spec.with_slot_budget(budget);
        }
        if let Some(weight) = self.weight {
            spec = spec.with_weight(weight);
        }
        spec
    }
}

#[derive(Debug)]
enum Section {
    Top,
    Tenant(String),
    Unknown,
}

impl TenantsConfig {
    /// Parses the TOML-subset text. Errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<TenantsConfig, String> {
        let mut config = TenantsConfig::default();
        let mut section = Section::Top;
        let mut raw = RawSpec::default();

        let close =
            |section: &Section, raw: RawSpec, config: &mut TenantsConfig| -> Result<(), String> {
                match section {
                    Section::Top => {}
                    Section::Tenant(name) => {
                        if config.tenants.iter().any(|t| t.name == *name) {
                            return Err(format!("duplicate tenant section {name:?}"));
                        }
                        config.tenants.push(raw.build(name));
                    }
                    Section::Unknown => {
                        if config.unknown.is_some() {
                            return Err("duplicate [unknown] section".to_string());
                        }
                        config.unknown = Some(raw.build("unknown"));
                    }
                }
                Ok(())
            };

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
                close(&section, std::mem::take(&mut raw), &mut config).map_err(at)?;
                section = match header.strip_prefix("tenant.") {
                    Some(name) if !name.trim().is_empty() => {
                        Section::Tenant(name.trim().to_string())
                    }
                    Some(_) => return Err(at("empty tenant name".to_string())),
                    None if header == "unknown" => Section::Unknown,
                    None => return Err(at(format!("unknown section [{header}]"))),
                };
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected key = value, got {line:?}")))?;
            let (key, value) = (key.trim(), unquote(value.trim()));
            match (&section, key) {
                (Section::Top, "policy") => {
                    config.policy = parse_policy(value).map_err(at)?;
                }
                (Section::Top, _) => {
                    return Err(at(format!("unknown top-level key {key:?}")));
                }
                (_, "max_in_flight") => {
                    raw.max_in_flight =
                        Some(value.parse().map_err(|e| at(format!("bad {key}: {e}")))?);
                }
                (_, "max_slot_ms") => {
                    raw.max_slot_ms =
                        Some(value.parse().map_err(|e| at(format!("bad {key}: {e}")))?);
                }
                (_, "weight") => {
                    let w: f64 = value.parse().map_err(|e| at(format!("bad {key}: {e}")))?;
                    if !(w.is_finite() && w > 0.0) {
                        return Err(at(format!("weight must be positive, got {value}")));
                    }
                    raw.weight = Some(w);
                }
                (_, _) => return Err(at(format!("unknown tenant key {key:?}"))),
            }
        }
        close(&section, raw, &mut config)?;
        Ok(config)
    }

    /// Reads and parses a tenant file.
    pub fn load(path: impl AsRef<Path>) -> Result<TenantsConfig, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        TenantsConfig::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Builds the admission gate this config describes, sized for
    /// `cluster`.
    pub fn build_gate(&self, cluster: &ClusterConfig) -> MultiTenantGate {
        let mut gate = MultiTenantGate::new(cluster).with_policy(self.policy);
        for spec in &self.tenants {
            gate.add_tenant(spec.clone());
        }
        if let Some(fallback) = &self.unknown {
            gate = gate.allow_unknown(fallback.clone());
        }
        gate
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

    #[test]
    fn parses_the_documented_shape() {
        let c = TenantsConfig::parse(SAMPLE).unwrap();
        assert_eq!(c.policy, OverloadPolicy::WeightedFair);
        assert_eq!(c.tenants.len(), 2);
        assert_eq!(c.tenants[0].name, "ads");
        assert_eq!(c.tenants[0].max_in_flight, 4);
        assert_eq!(c.tenants[0].max_slot_ms, Some(3_600_000));
        assert_eq!(c.tenants[0].weight, 2.0);
        assert_eq!(c.tenants[1].name, "etl");
        assert_eq!(c.tenants[1].max_in_flight, 2);
        assert_eq!(c.tenants[1].max_slot_ms, None);
        let fallback = c.unknown.as_ref().unwrap();
        assert_eq!(fallback.max_in_flight, 1);
        assert_eq!(fallback.weight, 0.5);
    }

    #[test]
    fn builds_a_gate_that_enforces_the_file() {
        let c = TenantsConfig::parse(SAMPLE).unwrap();
        let gate = c.build_gate(&ClusterConfig::uniform(4, 2, 1));
        let names: Vec<&str> = gate.tenants().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["ads", "etl"]);
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
            ("[tenant.ads]\n[tenant.ads]", "duplicate tenant section"),
            ("[unknown]\n[unknown]", "duplicate [unknown] section"),
            ("[tenant.]", "empty tenant name"),
            ("[tenant.ads", "unterminated section header"),
        ] {
            let err = TenantsConfig::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} -> {err:?}");
        }
    }

    #[test]
    fn comments_and_quotes_interact_correctly() {
        let c = TenantsConfig::parse("policy = \"value-density\" # not \"necessity\"").unwrap();
        assert_eq!(c.policy, OverloadPolicy::ValueDensity);
        assert_eq!(strip_comment(r#"x = "a#b" # tail"#), r#"x = "a#b" "#);
    }

    #[test]
    fn empty_file_is_a_valid_default() {
        let c = TenantsConfig::parse("").unwrap();
        assert_eq!(c.policy, OverloadPolicy::Necessity);
        assert!(c.tenants.is_empty());
        assert!(c.unknown.is_none());
    }
}
