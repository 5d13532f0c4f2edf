//! Refresh policies: the time-based and data-based components of Table 3.1,
//! plus the 42-point parameter sweep of Table 5.4.

use std::fmt;
use std::str::FromStr;

use crate::error::EdramError;

/// When refresh opportunities occur (the time-based policy of Table 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimePolicy {
    /// Refresh at fixed period boundaries, a group of lines at a time.
    /// Cheap (one global counter) but eager: a line may be refreshed right
    /// after an access already recharged it, and the cache is blocked while
    /// a group burst is in progress.
    Periodic,
    /// Refresh when the per-line Sentry bit decays — one retention period
    /// (minus a safety margin) after the line's last access. Performs the
    /// minimum number of refreshes needed to keep a line alive.
    #[default]
    Refrint,
}

impl TimePolicy {
    /// Both time policies, in the order the paper's figures list them.
    pub const ALL: [TimePolicy; 2] = [TimePolicy::Periodic, TimePolicy::Refrint];

    /// The single-letter prefix used in the paper's figure labels
    /// (`P.` / `R.`).
    #[must_use]
    pub const fn prefix(self) -> char {
        match self {
            TimePolicy::Periodic => 'P',
            TimePolicy::Refrint => 'R',
        }
    }
}

impl fmt::Display for TimePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimePolicy::Periodic => write!(f, "Periodic"),
            TimePolicy::Refrint => write!(f, "Refrint"),
        }
    }
}

/// What to do with a line at a refresh opportunity (the data-based policy of
/// Table 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPolicy {
    /// Refresh every line, valid or not. Evaluated for reference only; this
    /// is the behaviour of a naive eDRAM cache (`Periodic All` is the
    /// paper's eDRAM baseline).
    All,
    /// Refresh valid lines; invalid lines are left alone.
    Valid,
    /// Refresh dirty lines; invalidate valid-clean lines at their first
    /// opportunity. Equivalent to `WB(∞, 0)`.
    Dirty,
    /// Refresh a dirty line `n` times before writing it back (it then
    /// becomes valid-clean), and a valid-clean line `m` times before
    /// invalidating it.
    WriteBack {
        /// Refreshes granted to an idle dirty line before write-back.
        n: u32,
        /// Refreshes granted to an idle clean line before invalidation.
        m: u32,
    },
}

impl DataPolicy {
    /// The seven data policies of the paper's sweep (Table 5.4).
    #[must_use]
    pub fn paper_sweep() -> [DataPolicy; 7] {
        [
            DataPolicy::All,
            DataPolicy::Valid,
            DataPolicy::Dirty,
            DataPolicy::write_back(4, 4),
            DataPolicy::write_back(8, 8),
            DataPolicy::write_back(16, 16),
            DataPolicy::write_back(32, 32),
        ]
    }

    /// Convenience constructor for `WB(n,m)`.
    #[must_use]
    pub const fn write_back(n: u32, m: u32) -> Self {
        DataPolicy::WriteBack { n, m }
    }

    /// The number of refreshes an idle *dirty* line receives before it is
    /// written back, or `None` if it is refreshed indefinitely.
    #[must_use]
    pub const fn dirty_budget(self) -> Option<u32> {
        match self {
            DataPolicy::All | DataPolicy::Valid | DataPolicy::Dirty => None,
            DataPolicy::WriteBack { n, .. } => Some(n),
        }
    }

    /// The number of refreshes an idle *valid-clean* line receives before it
    /// is invalidated, or `None` if it is refreshed indefinitely.
    #[must_use]
    pub const fn clean_budget(self) -> Option<u32> {
        match self {
            DataPolicy::All | DataPolicy::Valid => None,
            DataPolicy::Dirty => Some(0),
            DataPolicy::WriteBack { m, .. } => Some(m),
        }
    }

    /// Whether invalid lines are refreshed too (only `All` does that).
    #[must_use]
    pub const fn refreshes_invalid_lines(self) -> bool {
        matches!(self, DataPolicy::All)
    }

    /// Whether this policy can ever evict data early (and therefore create
    /// extra misses and DRAM traffic relative to SRAM).
    #[must_use]
    pub const fn may_discard_data(self) -> bool {
        matches!(self, DataPolicy::Dirty | DataPolicy::WriteBack { .. })
    }
}

impl Default for DataPolicy {
    /// The policy the paper recommends on average: `WB(32,32)`.
    fn default() -> Self {
        DataPolicy::write_back(32, 32)
    }
}

impl fmt::Display for DataPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataPolicy::All => write!(f, "all"),
            DataPolicy::Valid => write!(f, "valid"),
            DataPolicy::Dirty => write!(f, "dirty"),
            DataPolicy::WriteBack { n, m } => write!(f, "WB({n},{m})"),
        }
    }
}

/// A complete refresh policy: a time policy plus a data policy, e.g.
/// `R.WB(32,32)` in the paper's figure labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RefreshPolicy {
    /// When refresh opportunities occur.
    pub time: TimePolicy,
    /// What happens at an opportunity.
    pub data: DataPolicy,
}

impl RefreshPolicy {
    /// Creates a policy from its two components.
    #[must_use]
    pub const fn new(time: TimePolicy, data: DataPolicy) -> Self {
        RefreshPolicy { time, data }
    }

    /// The paper's eDRAM baseline: `Periodic All`.
    #[must_use]
    pub const fn edram_baseline() -> Self {
        RefreshPolicy {
            time: TimePolicy::Periodic,
            data: DataPolicy::All,
        }
    }

    /// The paper's recommended policy: `Refrint WB(32,32)`.
    #[must_use]
    pub const fn recommended() -> Self {
        RefreshPolicy {
            time: TimePolicy::Refrint,
            data: DataPolicy::write_back(32, 32),
        }
    }

    /// The 14 (2 × 7) policy combinations of Table 5.4, in figure order:
    /// all Periodic policies first, then all Refrint policies.
    #[must_use]
    pub fn paper_sweep() -> Vec<RefreshPolicy> {
        let mut out = Vec::with_capacity(14);
        for time in TimePolicy::ALL {
            for data in DataPolicy::paper_sweep() {
                out.push(RefreshPolicy::new(time, data));
            }
        }
        out
    }

    /// The figure label used on the paper's X axes, e.g. `P.WB(4,4)` or
    /// `R.valid`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}.{}", self.time.prefix(), self.data)
    }
}

impl fmt::Display for RefreshPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl FromStr for RefreshPolicy {
    type Err = EdramError;

    /// Parses a figure label such as `P.all`, `R.valid`, `R.WB(32,32)`.
    /// On mismatch the error lists the 14 paper labels.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || EdramError::UnknownPolicy {
            label: s.to_owned(),
            valid: RefreshPolicy::paper_sweep()
                .iter()
                .map(RefreshPolicy::label)
                .collect(),
        };
        let (time_str, data_str) = s.split_once('.').ok_or_else(err)?;
        let time = match time_str {
            "P" | "p" | "Periodic" | "periodic" => TimePolicy::Periodic,
            "R" | "r" | "Refrint" | "refrint" => TimePolicy::Refrint,
            _ => return Err(err()),
        };
        let data_lower = data_str.to_ascii_lowercase();
        let data = if data_lower == "all" {
            DataPolicy::All
        } else if data_lower == "valid" {
            DataPolicy::Valid
        } else if data_lower == "dirty" {
            DataPolicy::Dirty
        } else if let Some(args) = data_lower
            .strip_prefix("wb(")
            .and_then(|rest| rest.strip_suffix(')'))
        {
            let (n, m) = args.split_once(',').ok_or_else(err)?;
            DataPolicy::WriteBack {
                n: n.trim().parse().map_err(|_| err())?,
                m: m.trim().parse().map_err(|_| err())?,
            }
        } else {
            return Err(err());
        };
        Ok(RefreshPolicy::new(time, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sweep_has_42_points_with_retentions() {
        // 2 time policies x 7 data policies = 14; x 3 retention times = 42,
        // matching Table 5.4.
        let policies = RefreshPolicy::paper_sweep();
        assert_eq!(policies.len(), 14);
        assert_eq!(policies.len() * 3, 42);
        // No duplicates.
        let mut labels: Vec<String> = policies.iter().map(RefreshPolicy::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 14);
    }

    #[test]
    fn policy_taxonomy_budgets() {
        assert_eq!(DataPolicy::All.dirty_budget(), None);
        assert_eq!(DataPolicy::All.clean_budget(), None);
        assert!(DataPolicy::All.refreshes_invalid_lines());
        assert!(!DataPolicy::All.may_discard_data());

        assert_eq!(DataPolicy::Valid.dirty_budget(), None);
        assert_eq!(DataPolicy::Valid.clean_budget(), None);
        assert!(!DataPolicy::Valid.refreshes_invalid_lines());

        // Dirty is WB(inf, 0).
        assert_eq!(DataPolicy::Dirty.dirty_budget(), None);
        assert_eq!(DataPolicy::Dirty.clean_budget(), Some(0));
        assert!(DataPolicy::Dirty.may_discard_data());

        let wb = DataPolicy::write_back(8, 16);
        assert_eq!(wb.dirty_budget(), Some(8));
        assert_eq!(wb.clean_budget(), Some(16));
        assert!(wb.may_discard_data());
    }

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(RefreshPolicy::edram_baseline().label(), "P.all");
        assert_eq!(RefreshPolicy::recommended().label(), "R.WB(32,32)");
        assert_eq!(
            RefreshPolicy::new(TimePolicy::Periodic, DataPolicy::write_back(4, 4)).label(),
            "P.WB(4,4)"
        );
        assert_eq!(
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid).to_string(),
            "R.valid"
        );
    }

    #[test]
    fn parse_round_trip() {
        for p in RefreshPolicy::paper_sweep() {
            let parsed: RefreshPolicy = p.label().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert_eq!(
            "periodic.dirty".parse::<RefreshPolicy>().unwrap(),
            RefreshPolicy::new(TimePolicy::Periodic, DataPolicy::Dirty)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = "R.sometimes".parse::<RefreshPolicy>().unwrap_err();
        let EdramError::UnknownPolicy { label, valid } = &err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(label, "R.sometimes");
        assert_eq!(valid.len(), 14);
        assert!(err.to_string().contains("R.WB(32,32)"), "{err}");
        assert!("".parse::<RefreshPolicy>().is_err());
        assert!("X.all".parse::<RefreshPolicy>().is_err());
        assert!("R.sometimes".parse::<RefreshPolicy>().is_err());
        assert!("R.WB(1)".parse::<RefreshPolicy>().is_err());
        assert!("R.WB(a,b)".parse::<RefreshPolicy>().is_err());
        assert!("Rall".parse::<RefreshPolicy>().is_err());
    }

    #[test]
    fn defaults_are_the_recommended_configuration() {
        assert_eq!(RefreshPolicy::default().time, TimePolicy::Refrint);
        assert_eq!(
            RefreshPolicy::default().data,
            DataPolicy::write_back(32, 32)
        );
        assert_eq!(RefreshPolicy::default(), RefreshPolicy::recommended());
    }

    #[test]
    fn time_policy_prefixes() {
        assert_eq!(TimePolicy::Periodic.prefix(), 'P');
        assert_eq!(TimePolicy::Refrint.prefix(), 'R');
        assert_eq!(TimePolicy::Periodic.to_string(), "Periodic");
        assert_eq!(TimePolicy::Refrint.to_string(), "Refrint");
    }
}
