//! The six schedulers of the paper's evaluation, behind one factory enum.

use std::fmt;
use woha_core::{EdfScheduler, FairScheduler, FifoScheduler};
use woha_core::{PadConfig, PriorityPolicy, WohaConfig, WohaScheduler};
use woha_sim::WorkflowScheduler;

/// One of the six schedulers compared throughout the evaluation
/// (Figs 8–12, 14–19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Oozie + default Hadoop FIFO job scheduler.
    Fifo,
    /// Oozie + Facebook FairScheduler behaviour.
    Fair,
    /// Earliest Deadline First over workflows.
    Edf,
    /// WOHA with Highest Level First job priorities.
    WohaHlf,
    /// WOHA with Longest Path First job priorities.
    WohaLpf,
    /// WOHA with Maximum Parallelism First job priorities.
    WohaMpf,
}

impl SchedulerKind {
    /// All six, in the paper's legend order (Fig 11).
    pub const ALL: [SchedulerKind; 6] = [
        SchedulerKind::Edf,
        SchedulerKind::Fifo,
        SchedulerKind::Fair,
        SchedulerKind::WohaLpf,
        SchedulerKind::WohaHlf,
        SchedulerKind::WohaMpf,
    ];

    /// Only the WOHA variants.
    pub const WOHA: [SchedulerKind; 3] = [
        SchedulerKind::WohaLpf,
        SchedulerKind::WohaHlf,
        SchedulerKind::WohaMpf,
    ];

    /// Whether this is a WOHA variant (needs cluster capacity for plans).
    pub fn is_woha(self) -> bool {
        matches!(
            self,
            SchedulerKind::WohaHlf | SchedulerKind::WohaLpf | SchedulerKind::WohaMpf
        )
    }

    /// Builds the scheduler. `total_slots` is the cluster capacity
    /// WOHA clients use for plan generation (ignored by the baselines).
    pub fn build(self, total_slots: u32) -> Box<dyn WorkflowScheduler> {
        self.build_with(total_slots, None)
    }

    /// Builds the scheduler with WOHA's proactive failure padding.
    pub fn build_with(
        self,
        total_slots: u32,
        padding: Option<PadConfig>,
    ) -> Box<dyn WorkflowScheduler> {
        let woha = |policy| {
            Box::new(WohaScheduler::new(WohaConfig {
                padding,
                ..WohaConfig::new(policy, total_slots)
            })) as Box<dyn WorkflowScheduler>
        };
        match self {
            SchedulerKind::Fifo => Box::new(FifoScheduler),
            SchedulerKind::Fair => Box::new(FairScheduler),
            SchedulerKind::Edf => Box::new(EdfScheduler),
            SchedulerKind::WohaHlf => woha(PriorityPolicy::Hlf),
            SchedulerKind::WohaLpf => woha(PriorityPolicy::Lpf),
            SchedulerKind::WohaMpf => woha(PriorityPolicy::Mpf),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerKind::Fifo => f.write_str("FIFO"),
            SchedulerKind::Fair => f.write_str("Fair"),
            SchedulerKind::Edf => f.write_str("EDF"),
            SchedulerKind::WohaHlf => f.write_str("WOHA-HLF"),
            SchedulerKind::WohaLpf => f.write_str("WOHA-LPF"),
            SchedulerKind::WohaMpf => f.write_str("WOHA-MPF"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_all_kinds_with_expected_names() {
        let names: Vec<String> = SchedulerKind::ALL
            .iter()
            .map(|k| k.build(100).name().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["EDF", "FIFO", "Fair", "WOHA-LPF", "WOHA-HLF", "WOHA-MPF"]
        );
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(SchedulerKind::WohaMpf.to_string(), "WOHA-MPF");
        assert_eq!(SchedulerKind::Fifo.to_string(), "FIFO");
    }

    #[test]
    fn woha_subset() {
        assert!(SchedulerKind::WOHA.iter().all(|k| k.is_woha()));
        assert!(!SchedulerKind::Fifo.is_woha());
    }
}
