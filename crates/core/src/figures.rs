//! Regeneration of the paper's evaluation artefacts: Table 6.1 and
//! Figures 6.1–6.4.
//!
//! Each generator takes [`SweepResults`] and produces the same rows/series
//! the paper plots, normalised to the full-SRAM baseline exactly as the
//! paper does. The `refrint-bench` crate's `gen-figures` binary prints
//! them.

use refrint_edram::policy::RefreshPolicy;
use refrint_energy::report::{NormalizedSeries, StackedBar};
use refrint_workloads::apps::AppPreset;
use refrint_workloads::classify::{classify, AppClass, ClassificationReport, ClassifierConfig};

use crate::experiment::SweepResults;
use crate::report::SimReport;

/// Which subset of applications a figure averages over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSelection {
    /// Average over every application in the sweep (the paper's "all" plot).
    All,
    /// Average over one application class (the paper's per-class plots).
    Class(AppClass),
}

impl AppSelection {
    fn apps(self, results: &SweepResults) -> Vec<AppPreset> {
        match self {
            AppSelection::All => results.apps.clone(),
            AppSelection::Class(c) => results.apps_in_class(c),
        }
    }

    /// The label the paper uses for this selection (`all`, `class1`, ...).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            AppSelection::All => "all".to_owned(),
            AppSelection::Class(c) => c.label().to_owned(),
        }
    }
}

fn per_app_normalized<F>(
    results: &SweepResults,
    apps: &[AppPreset],
    retention_us: u64,
    policy: RefreshPolicy,
    f: F,
) -> Option<f64>
where
    F: Fn(&SimReport, &SimReport) -> f64,
{
    results.average_over(apps, retention_us, policy, f)
}

/// **Table 6.1** — classify every application of the sweep and return the
/// reports (footprint, visibility, class).
#[must_use]
pub fn table_6_1(results: &SweepResults) -> Vec<ClassificationReport> {
    let config = ClassifierConfig::default();
    results
        .apps
        .iter()
        .map(|app| classify(&app.model(), &config))
        .collect()
}

/// **Figure 6.1** — memory-hierarchy energy split as L1 / L2 / L3 / DRAM,
/// normalised to the full-SRAM memory energy, averaged over all
/// applications; one series per retention time, one bar per policy.
#[must_use]
pub fn figure_6_1(results: &SweepResults) -> Vec<NormalizedSeries> {
    let apps = results.apps.clone();
    let mut out = Vec::new();
    for &retention in &results.retentions_us {
        let mut series = NormalizedSeries::new(&format!("{retention} us"));
        for &policy in &results.policies {
            let component = |pick: fn(&SimReport) -> f64| {
                per_app_normalized(results, &apps, retention, policy, |e, s| {
                    let base = s.breakdown.memory_total();
                    if base > 0.0 {
                        pick(e) / base
                    } else {
                        0.0
                    }
                })
                .unwrap_or(0.0)
            };
            series.push(StackedBar::new(
                &policy.label(),
                &[
                    ("L1", component(|r| r.breakdown.l1_total())),
                    ("L2", component(|r| r.breakdown.l2_total())),
                    ("L3", component(|r| r.breakdown.l3_total())),
                    ("DRAM", component(|r| r.breakdown.dram)),
                ],
            ));
        }
        out.push(series);
    }
    out
}

/// **Figure 6.2** — memory-hierarchy energy split as on-chip dynamic /
/// leakage / refresh / DRAM, normalised to the full-SRAM memory energy,
/// averaged over `selection` (class 1/2/3 or all); one series per retention
/// time, one bar per policy.
#[must_use]
pub fn figure_6_2(results: &SweepResults, selection: AppSelection) -> Vec<NormalizedSeries> {
    let apps = selection.apps(results);
    let mut out = Vec::new();
    for &retention in &results.retentions_us {
        let mut series = NormalizedSeries::new(&format!("{retention} us ({})", selection.label()));
        for &policy in &results.policies {
            let component = |pick: fn(&SimReport) -> f64| {
                per_app_normalized(results, &apps, retention, policy, |e, s| {
                    let base = s.breakdown.memory_total();
                    if base > 0.0 {
                        pick(e) / base
                    } else {
                        0.0
                    }
                })
                .unwrap_or(0.0)
            };
            series.push(StackedBar::new(
                &policy.label(),
                &[
                    ("Dynamic", component(|r| r.breakdown.on_chip_dynamic())),
                    ("Leakage", component(|r| r.breakdown.on_chip_leakage())),
                    ("Refresh", component(|r| r.breakdown.refresh_total())),
                    ("DRAM", component(|r| r.breakdown.dram)),
                ],
            ));
        }
        out.push(series);
    }
    out
}

/// **Figure 6.3** — total system energy (cores, caches, network, DRAM)
/// normalised to the full-SRAM system energy, averaged over `selection`.
#[must_use]
pub fn figure_6_3(results: &SweepResults, selection: AppSelection) -> Vec<NormalizedSeries> {
    let apps = selection.apps(results);
    let mut out = Vec::new();
    for &retention in &results.retentions_us {
        let mut series = NormalizedSeries::new(&format!("{retention} us ({})", selection.label()));
        for &policy in &results.policies {
            let value = per_app_normalized(results, &apps, retention, policy, |e, s| {
                e.system_energy_vs(s)
            })
            .unwrap_or(0.0);
            series.push(StackedBar::new(&policy.label(), &[("Energy", value)]));
        }
        out.push(series);
    }
    out
}

/// **Figure 6.4** — execution time normalised to the full-SRAM execution
/// time, averaged over `selection`.
#[must_use]
pub fn figure_6_4(results: &SweepResults, selection: AppSelection) -> Vec<NormalizedSeries> {
    let apps = selection.apps(results);
    let mut out = Vec::new();
    for &retention in &results.retentions_us {
        let mut series = NormalizedSeries::new(&format!("{retention} us ({})", selection.label()));
        for &policy in &results.policies {
            let value =
                per_app_normalized(results, &apps, retention, policy, |e, s| e.slowdown_vs(s))
                    .unwrap_or(0.0);
            series.push(StackedBar::new(&policy.label(), &[("Time", value)]));
        }
        out.push(series);
    }
    out
}

/// The headline summary the paper quotes in its abstract and conclusions:
/// at a given retention time, the normalised memory energy, system energy
/// and slowdown of the naive eDRAM baseline (`P.all`) and of the recommended
/// policy (`R.WB(32,32)`), averaged over all applications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadlineSummary {
    /// Retention time the summary was computed at.
    pub retention_us: u64,
    /// `Periodic All` memory energy relative to SRAM.
    pub baseline_memory_energy: f64,
    /// `Refrint WB(32,32)` memory energy relative to SRAM.
    pub refrint_memory_energy: f64,
    /// `Periodic All` total system energy relative to SRAM.
    pub baseline_system_energy: f64,
    /// `Refrint WB(32,32)` total system energy relative to SRAM.
    pub refrint_system_energy: f64,
    /// `Periodic All` execution time relative to SRAM.
    pub baseline_slowdown: f64,
    /// `Refrint WB(32,32)` execution time relative to SRAM.
    pub refrint_slowdown: f64,
}

/// Computes the headline summary at `retention_us` (50 µs in the paper).
#[must_use]
pub fn headline_summary(results: &SweepResults, retention_us: u64) -> Option<HeadlineSummary> {
    let apps = results.apps.clone();
    let baseline = RefreshPolicy::edram_baseline();
    let refrint = RefreshPolicy::recommended();
    let avg = |policy, f: fn(&SimReport, &SimReport) -> f64| {
        per_app_normalized(results, &apps, retention_us, policy, f)
    };
    Some(HeadlineSummary {
        retention_us,
        baseline_memory_energy: avg(baseline, |e, s| e.memory_energy_vs(s))?,
        refrint_memory_energy: avg(refrint, |e, s| e.memory_energy_vs(s))?,
        baseline_system_energy: avg(baseline, |e, s| e.system_energy_vs(s))?,
        refrint_system_energy: avg(refrint, |e, s| e.system_energy_vs(s))?,
        baseline_slowdown: avg(baseline, |e, s| e.slowdown_vs(s))?,
        refrint_slowdown: avg(refrint, |e, s| e.slowdown_vs(s))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::sweep::SweepRunner;
    use refrint_edram::policy::{DataPolicy, TimePolicy};

    fn tiny_results() -> SweepResults {
        let cfg = ExperimentConfig {
            apps: vec![AppPreset::Blackscholes, AppPreset::Fft],
            retentions_us: vec![50],
            policies: vec![
                RefreshPolicy::edram_baseline(),
                RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid),
                RefreshPolicy::recommended(),
            ],
            refs_per_thread: 1_500,
            seed: 5,
            cores: 4,
            traces: Vec::new(),
            ..ExperimentConfig::default()
        };
        SweepRunner::new(cfg).sequential().run().unwrap()
    }

    #[test]
    fn table_6_1_reports_every_app() {
        let results = tiny_results();
        let table = table_6_1(&results);
        assert_eq!(table.len(), 2);
        assert!(table
            .iter()
            .any(|r| r.name == "fft" && r.class == AppClass::Class1));
        assert!(table
            .iter()
            .any(|r| r.name == "blackscholes" && r.class == AppClass::Class3));
    }

    #[test]
    fn figure_6_1_has_one_series_per_retention_and_bar_per_policy() {
        let results = tiny_results();
        let fig = figure_6_1(&results);
        assert_eq!(fig.len(), 1);
        assert_eq!(fig[0].bars.len(), 3);
        for bar in &fig[0].bars {
            assert_eq!(bar.components.len(), 4);
            assert!(
                bar.total() > 0.0 && bar.total() < 2.0,
                "{}: {}",
                bar.label,
                bar.total()
            );
        }
    }

    #[test]
    fn figure_6_2_components_sum_to_figure_6_1_totals() {
        let results = tiny_results();
        let by_level = figure_6_1(&results);
        let by_component = figure_6_2(&results, AppSelection::All);
        for (a, b) in by_level[0].bars.iter().zip(by_component[0].bars.iter()) {
            assert_eq!(a.label, b.label);
            assert!(
                (a.total() - b.total()).abs() < 1e-9,
                "{}: {} vs {}",
                a.label,
                a.total(),
                b.total()
            );
        }
    }

    #[test]
    fn figure_6_3_and_6_4_have_single_component_bars() {
        let results = tiny_results();
        for series in figure_6_3(&results, AppSelection::Class(AppClass::Class1)) {
            for bar in &series.bars {
                assert_eq!(bar.components.len(), 1);
                assert!(bar.total() > 0.0);
            }
        }
        for series in figure_6_4(&results, AppSelection::All) {
            for bar in &series.bars {
                assert_eq!(bar.components.len(), 1);
                assert!(bar.total() > 0.5, "slowdowns are near or above 1.0");
            }
        }
    }

    #[test]
    fn headline_summary_shows_the_paper_orderings() {
        let results = tiny_results();
        let h = headline_summary(&results, 50).unwrap();
        // eDRAM saves memory energy relative to SRAM, Refrint saves more than
        // the naive baseline, and the naive baseline is slower than Refrint.
        assert!(h.baseline_memory_energy < 1.0);
        assert!(h.refrint_memory_energy < h.baseline_memory_energy);
        assert!(h.refrint_system_energy < h.baseline_system_energy);
        assert!(h.baseline_slowdown > h.refrint_slowdown);
        assert!(headline_summary(&results, 100).is_none());
    }

    #[test]
    fn selection_labels() {
        assert_eq!(AppSelection::All.label(), "all");
        assert_eq!(AppSelection::Class(AppClass::Class2).label(), "class2");
    }
}
