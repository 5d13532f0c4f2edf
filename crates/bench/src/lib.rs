//! Figure generation and the cross-commit output pin.
//!
//! The `gen-figures` binary runs the paper's configuration sweep
//! (Table 5.4) at a chosen [`Scale`] and renders it through
//! `refrint::figures`. The `perfgate` binary records the [`digests`] of a
//! grid of reports, with each run's `execution_cycles`, as
//! `BENCH_DIGESTS.json`, which unit tests pin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use refrint::experiment::{ExperimentConfig, SweepResults};
use refrint::sweep::SweepRunner;
use refrint_workloads::apps::AppPreset;

pub mod digests;

/// How large a sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few thousand references per thread: seconds, for CI. Covers
    /// several 50 µs retention periods but not enough idle time for the
    /// largest WB budgets to expire.
    Smoke,
    /// The default for `gen-figures`: tens of thousands of references per
    /// thread (minutes for the full sweep).
    Default,
    /// A long run that lets even WB(32,32) budgets expire at 50 µs.
    Long,
}

impl Scale {
    /// References per thread for this scale.
    #[must_use]
    pub fn refs_per_thread(self) -> u64 {
        match self {
            Scale::Smoke => 2_500,
            Scale::Default => 60_000,
            Scale::Long => 400_000,
        }
    }
}

/// Builds the experiment configuration for a scale, optionally restricted to
/// a subset of applications.
#[must_use]
pub fn experiment(scale: Scale, apps: Option<Vec<AppPreset>>) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_full().with_refs_per_thread(scale.refs_per_thread());
    if let Some(apps) = apps {
        cfg = cfg.with_apps(apps);
    }
    cfg
}

/// Runs the sweep for `cfg`, panicking on configuration errors (the figure
/// generator only ever uses the paper's valid configurations).
#[must_use]
pub fn sweep(cfg: &ExperimentConfig) -> SweepResults {
    SweepRunner::new(cfg.clone())
        .sequential()
        .run()
        .expect("paper sweep configurations are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Smoke.refs_per_thread() < Scale::Default.refs_per_thread());
        assert!(Scale::Default.refs_per_thread() < Scale::Long.refs_per_thread());
    }

    #[test]
    fn experiment_builder_restricts_apps() {
        let apps = vec![AppPreset::Fft, AppPreset::Lu, AppPreset::Blackscholes];
        let cfg = experiment(Scale::Smoke, Some(apps));
        assert_eq!(cfg.apps.len(), 3);
        assert_eq!(cfg.refs_per_thread, Scale::Smoke.refs_per_thread());
        let full = experiment(Scale::Smoke, None);
        assert_eq!(full.apps.len(), 11);
    }
}
