//! Scheduling plans: the progress requirement list `F_i` plus the job order
//! the client computed, shipped to the JobTracker at submission time.
//!
//! The plan is the paper's central artifact (§IV-A): entry `s` says "at
//! least `s.cumulative` tasks of this workflow must have been scheduled
//! once the time to deadline drops to `s.ttd`". The master follows it
//! blindly — all analysis happened on the client.

use crate::priority::PriorityPolicy;
use serde::{Deserialize, Serialize};
use woha_model::{JobId, SimDuration, SimTime};

/// One entry of the progress requirement list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgressRequirement {
    /// Time to deadline at which this requirement takes effect. Entries are
    /// stored in strictly decreasing `ttd` order (chronological order).
    pub ttd: SimDuration,
    /// Cumulative number of tasks that must have been scheduled by then.
    pub cumulative: u64,
}

/// A complete scheduling plan for one workflow.
///
/// Produced by [`generate_plan`](crate::plangen::generate_plan) on the
/// client, consumed by the WOHA Workflow Scheduler on the master.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulingPlan {
    policy: PriorityPolicy,
    resource_cap: u32,
    job_order: Vec<JobId>,
    requirements: Vec<ProgressRequirement>,
    span: SimDuration,
    total_tasks: u64,
}

impl SchedulingPlan {
    /// Assembles a plan from its parts. `requirements` must be in
    /// chronological order: strictly decreasing `ttd`, non-decreasing
    /// `cumulative`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the requirement list is out of order.
    pub fn new(
        policy: PriorityPolicy,
        resource_cap: u32,
        job_order: Vec<JobId>,
        requirements: Vec<ProgressRequirement>,
        span: SimDuration,
        total_tasks: u64,
    ) -> Self {
        debug_assert!(
            requirements.windows(2).all(|w| w[0].ttd > w[1].ttd),
            "requirements must have strictly decreasing ttd"
        );
        debug_assert!(
            requirements
                .windows(2)
                .all(|w| w[0].cumulative <= w[1].cumulative),
            "cumulative requirements must be non-decreasing"
        );
        SchedulingPlan {
            policy,
            resource_cap,
            job_order,
            requirements,
            span,
            total_tasks,
        }
    }

    /// The intra-workflow priority policy the plan was generated under.
    pub fn policy(&self) -> PriorityPolicy {
        self.policy
    }

    /// The resource cap `n` used in the generating simulation.
    pub fn resource_cap(&self) -> u32 {
        self.resource_cap
    }

    /// Jobs in descending intra-workflow priority.
    pub fn job_order(&self) -> &[JobId] {
        &self.job_order
    }

    /// The progress requirement list, chronological (decreasing ttd).
    pub fn requirements(&self) -> &[ProgressRequirement] {
        &self.requirements
    }

    /// The simulated makespan of the plan: the workflow needs at least this
    /// long, so a deadline tighter than the span is infeasible under this
    /// cap.
    pub fn span(&self) -> SimDuration {
        self.span
    }

    /// Total tasks in the workflow; equals the final cumulative
    /// requirement.
    pub fn total_tasks(&self) -> u64 {
        self.total_tasks
    }

    /// `F_i(ttd)`: how many tasks must have been scheduled when the time to
    /// deadline is `ttd`. Monotonically non-increasing in `ttd`.
    ///
    /// # Examples
    ///
    /// ```
    /// use woha_core::plan::{ProgressRequirement, SchedulingPlan};
    /// use woha_core::priority::PriorityPolicy;
    /// use woha_model::SimDuration;
    ///
    /// let plan = SchedulingPlan::new(
    ///     PriorityPolicy::Hlf, 4, vec![],
    ///     vec![
    ///         ProgressRequirement { ttd: SimDuration::from_secs(100), cumulative: 4 },
    ///         ProgressRequirement { ttd: SimDuration::from_secs(40), cumulative: 6 },
    ///     ],
    ///     SimDuration::from_secs(100), 6,
    /// );
    /// assert_eq!(plan.required_at(SimDuration::from_secs(150)), 0);
    /// assert_eq!(plan.required_at(SimDuration::from_secs(100)), 4);
    /// assert_eq!(plan.required_at(SimDuration::from_secs(50)), 4);
    /// assert_eq!(plan.required_at(SimDuration::from_secs(10)), 6);
    /// ```
    pub fn required_at(&self, ttd: SimDuration) -> u64 {
        // Entries are sorted by decreasing ttd; find the last entry with
        // entry.ttd >= ttd. partition_point gives the count of entries
        // satisfying the predicate over the sorted prefix.
        let idx = self.requirements.partition_point(|r| r.ttd >= ttd);
        if idx == 0 {
            0
        } else {
            self.requirements[idx - 1].cumulative
        }
    }

    /// The index of the first requirement entry whose change instant
    /// (`deadline - ttd`) is strictly after `now` — i.e. the value `W_h.i`
    /// of Algorithm 2 after catching up to `now`.
    pub fn next_change_index(&self, deadline: SimTime, now: SimTime) -> usize {
        self.requirements
            .partition_point(|r| deadline.saturating_sub(r.ttd) <= now)
    }

    /// The absolute instant at which requirement entry `index` takes
    /// effect, or `None` past the end of the plan.
    pub fn change_time(&self, deadline: SimTime, index: usize) -> Option<SimTime> {
        self.requirements
            .get(index)
            .map(|r| deadline.saturating_sub(r.ttd))
    }

    /// Cumulative requirement in force once entries `0..index` have fired
    /// (0 when `index == 0`).
    pub fn cumulative_before(&self, index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            self.requirements[index.min(self.requirements.len()) - 1].cumulative
        }
    }

    /// Intervals between consecutive requirement-change instants — the
    /// quantity whose histogram is the paper's Fig 3.
    pub fn change_intervals(&self) -> Vec<SimDuration> {
        self.requirements
            .windows(2)
            .map(|w| w[0].ttd - w[1].ttd)
            .collect()
    }

    /// Size of the plan in its compact wire encoding, in bytes — the
    /// quantity plotted in Fig 13(b). The encoding is one varint per job id
    /// plus two varints per requirement entry (delta-encoded ttd and
    /// cumulative), plus a small fixed header.
    pub fn encoded_size_bytes(&self) -> usize {
        self.encode().len()
    }

    /// Returns the plan with a replacement job order (used by
    /// [`crate::replan`] to translate a remaining-workflow plan back to
    /// the original job ids).
    #[must_use]
    pub fn with_job_order(mut self, job_order: Vec<JobId>) -> Self {
        self.job_order = job_order;
        self
    }

    /// The compact wire encoding the client would ship to the master.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.requirements.len() * 4);
        // Header: policy tag, resource cap, span, totals.
        out.push(match self.policy {
            PriorityPolicy::Hlf => 0u8,
            PriorityPolicy::Lpf => 1,
            PriorityPolicy::Mpf => 2,
        });
        push_varint(&mut out, u64::from(self.resource_cap));
        push_varint(&mut out, self.span.as_millis());
        push_varint(&mut out, self.total_tasks);
        push_varint(&mut out, self.job_order.len() as u64);
        for &j in &self.job_order {
            push_varint(&mut out, u64::from(j.as_u32()));
        }
        push_varint(&mut out, self.requirements.len() as u64);
        let mut prev_ttd = self.span.as_millis();
        let mut prev_cum = 0u64;
        for r in &self.requirements {
            // ttd decreases from the span; cumulative increases from 0.
            push_varint(&mut out, prev_ttd.saturating_sub(r.ttd.as_millis()));
            push_varint(&mut out, r.cumulative - prev_cum);
            prev_ttd = r.ttd.as_millis();
            prev_cum = r.cumulative;
        }
        out
    }
}

/// Error decoding a plan's wire encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanDecodeError {
    /// Input ended mid-field.
    Truncated,
    /// A varint ran longer than 10 bytes, or past `u64::MAX`.
    VarintOverflow,
    /// Unknown policy tag byte.
    BadPolicy(u8),
    /// Trailing bytes after the last field.
    TrailingBytes(usize),
    /// The decoded requirement list violates plan invariants.
    Inconsistent(&'static str),
}

impl std::fmt::Display for PlanDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanDecodeError::Truncated => f.write_str("plan encoding ends mid-field"),
            PlanDecodeError::VarintOverflow => f.write_str("varint overflows u64"),
            PlanDecodeError::BadPolicy(b) => write!(f, "unknown policy tag {b}"),
            PlanDecodeError::TrailingBytes(n) => {
                write!(f, "{n} unexpected trailing bytes after plan")
            }
            PlanDecodeError::Inconsistent(what) => {
                write!(f, "decoded plan violates invariant: {what}")
            }
        }
    }
}

impl std::error::Error for PlanDecodeError {}

impl SchedulingPlan {
    /// Decodes a plan from its [`encode`](Self::encode)d form — what the
    /// JobTracker does with the bytes the client ships.
    ///
    /// # Errors
    ///
    /// Returns [`PlanDecodeError`] on truncated or malformed input, or if
    /// the decoded requirement list is not a valid plan.
    pub fn decode(bytes: &[u8]) -> Result<Self, PlanDecodeError> {
        let mut cursor = 0usize;
        let policy = match *bytes.first().ok_or(PlanDecodeError::Truncated)? {
            0 => PriorityPolicy::Hlf,
            1 => PriorityPolicy::Lpf,
            2 => PriorityPolicy::Mpf,
            other => return Err(PlanDecodeError::BadPolicy(other)),
        };
        cursor += 1;
        let resource_cap = u32::try_from(read_varint(bytes, &mut cursor)?)
            .map_err(|_| PlanDecodeError::Inconsistent("resource cap exceeds u32"))?;
        let span = SimDuration::from_millis(read_varint(bytes, &mut cursor)?);
        let total_tasks = read_varint(bytes, &mut cursor)?;
        let job_count = read_varint(bytes, &mut cursor)? as usize;
        let mut job_order = Vec::with_capacity(job_count.min(1 << 20));
        for _ in 0..job_count {
            let raw = read_varint(bytes, &mut cursor)?;
            let idx = u32::try_from(raw)
                .map_err(|_| PlanDecodeError::Inconsistent("job id exceeds u32"))?;
            job_order.push(JobId::new(idx));
        }
        let entry_count = read_varint(bytes, &mut cursor)? as usize;
        let mut requirements = Vec::with_capacity(entry_count.min(1 << 20));
        let mut prev_ttd = span.as_millis();
        let mut prev_cum = 0u64;
        for _ in 0..entry_count {
            let ttd_delta = read_varint(bytes, &mut cursor)?;
            let cum_delta = read_varint(bytes, &mut cursor)?;
            prev_ttd = prev_ttd
                .checked_sub(ttd_delta)
                .ok_or(PlanDecodeError::Inconsistent("ttd underflow"))?;
            prev_cum = prev_cum
                .checked_add(cum_delta)
                .ok_or(PlanDecodeError::Inconsistent("cumulative overflow"))?;
            requirements.push(ProgressRequirement {
                ttd: SimDuration::from_millis(prev_ttd),
                cumulative: prev_cum,
            });
        }
        if cursor != bytes.len() {
            return Err(PlanDecodeError::TrailingBytes(bytes.len() - cursor));
        }
        if !requirements.windows(2).all(|w| w[0].ttd > w[1].ttd) {
            return Err(PlanDecodeError::Inconsistent("ttd not strictly decreasing"));
        }
        Ok(SchedulingPlan {
            policy,
            resource_cap,
            job_order,
            requirements,
            span,
            total_tasks,
        })
    }
}

fn read_varint(bytes: &[u8], cursor: &mut usize) -> Result<u64, PlanDecodeError> {
    let mut value = 0u64;
    for shift_bytes in 0..10u32 {
        let byte = *bytes.get(*cursor).ok_or(PlanDecodeError::Truncated)?;
        *cursor += 1;
        // The tenth byte carries bit 63 alone.
        if shift_bytes == 9 && byte > 1 {
            return Err(PlanDecodeError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7F) << (7 * shift_bytes);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(PlanDecodeError::VarintOverflow)
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(entries: &[(u64, u64)]) -> SchedulingPlan {
        let reqs: Vec<ProgressRequirement> = entries
            .iter()
            .map(|&(ttd, c)| ProgressRequirement {
                ttd: SimDuration::from_secs(ttd),
                cumulative: c,
            })
            .collect();
        let span = reqs.first().map(|r| r.ttd).unwrap_or(SimDuration::ZERO);
        let total = reqs.last().map(|r| r.cumulative).unwrap_or(0);
        SchedulingPlan::new(
            PriorityPolicy::Hlf,
            8,
            vec![JobId::new(0)],
            reqs,
            span,
            total,
        )
    }

    #[test]
    fn required_at_steps() {
        let p = plan(&[(100, 4), (40, 6), (0, 9)]);
        assert_eq!(p.required_at(SimDuration::from_secs(200)), 0);
        assert_eq!(p.required_at(SimDuration::from_secs(100)), 4);
        assert_eq!(p.required_at(SimDuration::from_secs(99)), 4);
        assert_eq!(p.required_at(SimDuration::from_secs(40)), 6);
        assert_eq!(p.required_at(SimDuration::from_secs(1)), 6);
        assert_eq!(p.required_at(SimDuration::ZERO), 9);
    }

    #[test]
    fn required_at_is_monotone() {
        let p = plan(&[(100, 4), (40, 6), (0, 9)]);
        let mut last = u64::MAX;
        for ttd_s in 0..=120 {
            let r = p.required_at(SimDuration::from_secs(ttd_s));
            assert!(r <= last);
            last = r;
        }
    }

    #[test]
    fn change_index_and_times() {
        let p = plan(&[(100, 4), (40, 6)]);
        let deadline = SimTime::from_secs(120);
        // Changes fire at t=20 and t=80.
        assert_eq!(p.change_time(deadline, 0), Some(SimTime::from_secs(20)));
        assert_eq!(p.change_time(deadline, 1), Some(SimTime::from_secs(80)));
        assert_eq!(p.change_time(deadline, 2), None);
        assert_eq!(p.next_change_index(deadline, SimTime::ZERO), 0);
        assert_eq!(p.next_change_index(deadline, SimTime::from_secs(20)), 1);
        assert_eq!(p.next_change_index(deadline, SimTime::from_secs(79)), 1);
        assert_eq!(p.next_change_index(deadline, SimTime::from_secs(500)), 2);
        assert_eq!(p.cumulative_before(0), 0);
        assert_eq!(p.cumulative_before(1), 4);
        assert_eq!(p.cumulative_before(2), 6);
    }

    #[test]
    fn change_intervals_match_gaps() {
        let p = plan(&[(100, 4), (40, 6), (0, 9)]);
        assert_eq!(
            p.change_intervals(),
            vec![SimDuration::from_secs(60), SimDuration::from_secs(40)]
        );
    }

    #[test]
    fn empty_plan_is_usable() {
        let p = plan(&[]);
        assert_eq!(p.required_at(SimDuration::ZERO), 0);
        assert_eq!(
            p.next_change_index(SimTime::from_secs(10), SimTime::ZERO),
            0
        );
        assert!(p.change_intervals().is_empty());
    }

    #[test]
    fn decode_roundtrips() {
        for entries in [&[][..], &[(100, 4)][..], &[(100, 4), (40, 6), (0, 9)][..]] {
            let p = plan(entries);
            let back = SchedulingPlan::decode(&p.encode()).unwrap();
            assert_eq!(p, back);
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(
            SchedulingPlan::decode(&[]).unwrap_err(),
            PlanDecodeError::Truncated
        );
        assert_eq!(
            SchedulingPlan::decode(&[9]).unwrap_err(),
            PlanDecodeError::BadPolicy(9)
        );
        // Truncated mid-varint.
        let mut bytes = plan(&[(100, 4)]).encode();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            SchedulingPlan::decode(&bytes).unwrap_err(),
            PlanDecodeError::Truncated
        ));
        // Trailing garbage.
        let mut bytes = plan(&[(100, 4)]).encode();
        bytes.push(0);
        assert!(matches!(
            SchedulingPlan::decode(&bytes).unwrap_err(),
            PlanDecodeError::TrailingBytes(1)
        ));
        // Overlong varint.
        let bytes = [
            0u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
        ];
        assert_eq!(
            SchedulingPlan::decode(&bytes).unwrap_err(),
            PlanDecodeError::VarintOverflow
        );
        // A ten-byte varint past u64::MAX: 2^64 as the resource cap.
        let mut bytes = vec![0u8];
        bytes.extend([0x80; 9]);
        bytes.push(0x02);
        assert_eq!(
            SchedulingPlan::decode(&bytes).unwrap_err(),
            PlanDecodeError::VarintOverflow
        );
    }

    /// Plan bytes are what a client ships the master: over seeded
    /// mutations of an encoded plan — byte flips, truncations, inserted,
    /// deleted and duplicated bytes, overlong varints, fields set to
    /// `u64::MAX` and to `u64::MAX + 1` — decoding returns a plan or a
    /// `PlanDecodeError`, and never panics.
    #[test]
    fn hostile_plan_bytes_never_panic() {
        let p = plan(&[(3600, 4), (1800, 40), (600, 90), (0, 120)])
            .with_job_order((0..6).map(JobId::new).collect());
        let bytes = p.encode();
        // Field boundaries: the policy byte, then one varint per field.
        let ends: Vec<usize> = std::iter::once(1)
            .chain(
                (1..bytes.len())
                    .filter(|&i| bytes[i] & 0x80 == 0)
                    .map(|i| i + 1),
            )
            .collect();
        let mut rng = proptest::TestRng::for_case("hostile_plan_bytes_never_panic", 0);
        let mut pick = |n: usize| rng.range_u64(0, n as u64) as usize;
        let mut outcomes = std::collections::BTreeMap::new();
        for _ in 0..1600 {
            let mut m = bytes.clone();
            let at = pick(m.len());
            let field = pick(ends.len() - 1);
            let (start, end) = (ends[field], ends[field + 1]);
            let kind = match pick(8) {
                0 => {
                    m[at] ^= 1 << pick(8);
                    "byte flip"
                }
                1 => {
                    m.truncate(at);
                    "truncation"
                }
                2 => {
                    m.insert(at, pick(256) as u8);
                    "insertion"
                }
                3 => {
                    m.remove(at);
                    "deletion"
                }
                4 => {
                    let run = m[at..]
                        .iter()
                        .take(1 + pick(8))
                        .copied()
                        .collect::<Vec<_>>();
                    m.splice(at..at, run);
                    "duplication"
                }
                5 => {
                    m.splice(start..end, [0xFF; 11]);
                    "overlong varint"
                }
                6 => {
                    let mut max = Vec::new();
                    push_varint(&mut max, u64::MAX);
                    m.splice(start..end, max);
                    "u64::MAX"
                }
                _ => {
                    m.splice(start..end, [0x80; 9].into_iter().chain([0x02]));
                    "u64::MAX + 1"
                }
            };
            let outcome = std::panic::catch_unwind(|| match SchedulingPlan::decode(&m) {
                Ok(back) if back == p => "same",
                Ok(_) => "decoded",
                Err(e) => {
                    assert!(!e.to_string().is_empty());
                    "error"
                }
            });
            *outcomes
                .entry((kind, outcome.unwrap_or("panic")))
                .or_insert(0) += 1;
        }
        let classes = |wanted: &str| outcomes.keys().filter(|k| k.1 == wanted).count();
        assert_eq!(classes("panic"), 0, "{outcomes:?}");
        assert_eq!(
            classes("error"),
            8,
            "every kind must break some plan: {outcomes:?}"
        );
        for kind in ["overlong varint", "u64::MAX + 1"] {
            assert!(
                outcomes.keys().all(|k| k.0 != kind || k.1 == "error"),
                "{outcomes:?}"
            );
        }
    }

    #[test]
    fn encoding_is_compact_and_deterministic() {
        let p = plan(&[(100, 4), (40, 6), (0, 9)]);
        let bytes = p.encode();
        assert_eq!(bytes, p.encode());
        // Header + 1 job + 3 entries: comfortably under 40 bytes.
        assert!(bytes.len() < 40, "{} bytes", bytes.len());
        assert_eq!(p.encoded_size_bytes(), bytes.len());
    }

    #[test]
    fn encoding_grows_linearly_with_entries() {
        let small = plan(&[(100, 4)]);
        let entries: Vec<(u64, u64)> = (0..100).map(|i| (200 - i, (i + 1) * 2)).collect();
        let large = plan(&entries);
        assert!(large.encoded_size_bytes() > small.encoded_size_bytes());
        // Delta varints keep the per-entry cost small (≤ ~6 bytes here).
        let per_entry = (large.encoded_size_bytes() - small.encoded_size_bytes()) as f64 / 99.0;
        assert!(per_entry < 8.0, "{per_entry} bytes/entry");
    }

    #[test]
    fn varint_boundaries() {
        let mut out = Vec::new();
        push_varint(&mut out, 0);
        assert_eq!(out, [0]);
        out.clear();
        push_varint(&mut out, 127);
        assert_eq!(out, [127]);
        out.clear();
        push_varint(&mut out, 128);
        assert_eq!(out, [0x80, 0x01]);
        out.clear();
        push_varint(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn accessors() {
        let p = plan(&[(100, 4)]);
        assert_eq!(p.policy(), PriorityPolicy::Hlf);
        assert_eq!(p.resource_cap(), 8);
        assert_eq!(p.job_order(), &[JobId::new(0)]);
        assert_eq!(p.span(), SimDuration::from_secs(100));
        assert_eq!(p.total_tasks(), 4);
        assert_eq!(p.requirements().len(), 1);
    }
}
