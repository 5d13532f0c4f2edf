//! Shared harness for the Refrint benchmark suite.
//!
//! The Criterion benches and the `gen-figures` binary both need the same
//! thing: run the paper's configuration sweep (Table 5.4) at a chosen scale
//! and feed the results to the figure generators in `refrint::figures`.
//! This crate provides those shared entry points so that every table and
//! figure of the paper has exactly one implementation of its data pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use refrint::experiment::{ExperimentConfig, SweepResults};
use refrint::figures::{self, AppSelection, HeadlineSummary};
use refrint::sweep::SweepRunner;
use refrint_energy::report::NormalizedSeries;
use refrint_workloads::apps::AppPreset;
use refrint_workloads::classify::AppClass;

pub mod results;
pub mod throughput;

/// How large a sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few thousand references per thread: seconds, for Criterion benches
    /// and CI. Covers several 50 µs retention periods but not enough idle
    /// time for the largest WB budgets to expire.
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

/// Runs the sweep for `cfg`, panicking on configuration errors (the bench
/// harness only ever uses the paper's valid configurations).
#[must_use]
pub fn sweep(cfg: &ExperimentConfig) -> SweepResults {
    SweepRunner::new(cfg.clone())
        .sequential()
        .run()
        .expect("paper sweep configurations are valid")
}

/// One representative application per class — used by the smoke-scale
/// benches so each figure still exercises all three classes.
#[must_use]
pub fn representative_apps() -> Vec<AppPreset> {
    vec![AppPreset::Fft, AppPreset::Lu, AppPreset::Blackscholes]
}

/// Renders Figure 6.1 from sweep results.
#[must_use]
pub fn render_figure_6_1(results: &SweepResults) -> Vec<NormalizedSeries> {
    figures::figure_6_1(results)
}

/// Renders Figure 6.2 for every selection the paper plots (class 1/2/3, all).
#[must_use]
pub fn render_figure_6_2(results: &SweepResults) -> Vec<(String, Vec<NormalizedSeries>)> {
    let mut out = Vec::new();
    for class in AppClass::ALL {
        out.push((
            class.label().to_owned(),
            figures::figure_6_2(results, AppSelection::Class(class)),
        ));
    }
    out.push((
        "all".to_owned(),
        figures::figure_6_2(results, AppSelection::All),
    ));
    out
}

/// Renders Figure 6.3 for the selections the paper plots (class 1, all).
#[must_use]
pub fn render_figure_6_3(results: &SweepResults) -> Vec<(String, Vec<NormalizedSeries>)> {
    vec![
        (
            "class1".to_owned(),
            figures::figure_6_3(results, AppSelection::Class(AppClass::Class1)),
        ),
        (
            "all".to_owned(),
            figures::figure_6_3(results, AppSelection::All),
        ),
    ]
}

/// Renders Figure 6.4 for the selections the paper plots (class 1, all).
#[must_use]
pub fn render_figure_6_4(results: &SweepResults) -> Vec<(String, Vec<NormalizedSeries>)> {
    vec![
        (
            "class1".to_owned(),
            figures::figure_6_4(results, AppSelection::Class(AppClass::Class1)),
        ),
        (
            "all".to_owned(),
            figures::figure_6_4(results, AppSelection::All),
        ),
    ]
}

/// Renders Table 6.1 as display lines.
#[must_use]
pub fn render_table_6_1(results: &SweepResults) -> Vec<String> {
    figures::table_6_1(results)
        .iter()
        .map(|r| r.to_string())
        .collect()
}

/// The headline summary (abstract / conclusions numbers) at 50 µs.
#[must_use]
pub fn headline(results: &SweepResults) -> Option<HeadlineSummary> {
    figures::headline_summary(results, 50)
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
        let cfg = experiment(Scale::Smoke, Some(representative_apps()));
        assert_eq!(cfg.apps.len(), 3);
        assert_eq!(cfg.refs_per_thread, Scale::Smoke.refs_per_thread());
        let full = experiment(Scale::Smoke, None);
        assert_eq!(full.apps.len(), 11);
    }

    #[test]
    fn representative_apps_cover_all_classes() {
        let apps = representative_apps();
        let classes: std::collections::BTreeSet<_> = apps.iter().map(|a| a.paper_class()).collect();
        assert_eq!(classes.len(), 3);
    }
}
