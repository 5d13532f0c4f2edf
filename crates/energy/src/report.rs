//! Normalisation and rendering of figure-shaped tables.
//!
//! Every figure in the paper plots energies (or execution times) normalised
//! to the full-SRAM baseline, grouped by retention time and labelled by
//! policy. This module provides the small data structures the figure
//! generators in the `refrint` crate use to emit those tables as plain text
//! or CSV.

use std::fmt;

/// One stacked bar of a figure: a label plus named components whose heights
/// already are normalised fractions of the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct StackedBar {
    /// The bar's label, e.g. `R.WB(32,32)`.
    pub label: String,
    /// `(component name, normalised value)` pairs, bottom-to-top.
    pub components: Vec<(String, f64)>,
}

impl StackedBar {
    /// Creates a bar from `(component, value)` pairs.
    #[must_use]
    pub fn new(label: &str, components: &[(&str, f64)]) -> Self {
        StackedBar {
            label: label.to_owned(),
            components: components
                .iter()
                .map(|(n, v)| ((*n).to_owned(), *v))
                .collect(),
        }
    }

    /// Total height of the bar.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.components.iter().map(|(_, v)| v).sum()
    }
}

/// A normalised data series: a group label (e.g. `50 us`) plus one stacked
/// bar per policy, in figure order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NormalizedSeries {
    /// The group label (in the paper, the retention time).
    pub group: String,
    /// The bars in this group.
    pub bars: Vec<StackedBar>,
}

impl NormalizedSeries {
    /// Creates an empty series for a group.
    #[must_use]
    pub fn new(group: &str) -> Self {
        NormalizedSeries {
            group: group.to_owned(),
            bars: Vec::new(),
        }
    }

    /// Adds a bar.
    pub fn push(&mut self, bar: StackedBar) {
        self.bars.push(bar);
    }

    /// Renders the series as a CSV block: header row of component names,
    /// then one row per bar.
    ///
    /// # Panics
    ///
    /// Panics if bars disagree on their component names.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        if self.bars.is_empty() {
            return out;
        }
        let names: Vec<&str> = self.bars[0]
            .components
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        for bar in &self.bars {
            let bar_names: Vec<&str> = bar.components.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(bar_names, names, "bars must share component names");
        }
        out.push_str(&format!("group,policy,{},total\n", names.join(",")));
        for bar in &self.bars {
            let values: Vec<String> = bar
                .components
                .iter()
                .map(|(_, v)| format!("{v:.4}"))
                .collect();
            out.push_str(&format!(
                "{},{},{},{:.4}\n",
                self.group,
                bar.label,
                values.join(","),
                bar.total()
            ));
        }
        out
    }

    /// Renders the series as an aligned plain-text table.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if self.bars.is_empty() {
            return out;
        }
        let names: Vec<&str> = self.bars[0]
            .components
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        out.push_str(&format!("{:<16} {:<14}", "group", "policy"));
        for n in &names {
            out.push_str(&format!(" {n:>10}"));
        }
        out.push_str(&format!(" {:>10}\n", "total"));
        for bar in &self.bars {
            out.push_str(&format!("{:<16} {:<14}", self.group, bar.label));
            for (_, v) in &bar.components {
                out.push_str(&format!(" {v:>10.4}"));
            }
            out.push_str(&format!(" {:>10.4}\n", bar.total()));
        }
        out
    }
}

impl fmt::Display for NormalizedSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_total_sums_components() {
        let bar = StackedBar::new(
            "R.valid",
            &[("Dynamic", 0.1), ("Leakage", 0.2), ("Refresh", 0.05)],
        );
        assert!((bar.total() - 0.35).abs() < 1e-12);
        assert_eq!(bar.label, "R.valid");
        assert_eq!(bar.components.len(), 3);
    }

    #[test]
    fn csv_and_table_render_all_bars() {
        let mut series = NormalizedSeries::new("50 us");
        series.push(StackedBar::new(
            "P.all",
            &[("L1", 0.1), ("L2", 0.1), ("L3", 0.3), ("DRAM", 0.02)],
        ));
        series.push(StackedBar::new(
            "R.WB(32,32)",
            &[("L1", 0.1), ("L2", 0.08), ("L3", 0.15), ("DRAM", 0.03)],
        ));
        let csv = series.to_csv();
        assert!(csv.starts_with("group,policy,L1,L2,L3,DRAM,total"));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("R.WB(32,32)"));
        let table = series.to_table();
        assert!(table.contains("P.all"));
        assert!(table.contains("0.5200") || table.contains("0.52"));
        assert_eq!(series.to_string(), table);
    }

    #[test]
    fn empty_series_renders_empty() {
        let series = NormalizedSeries::new("100 us");
        assert!(series.to_csv().is_empty());
        assert!(series.to_table().is_empty());
    }

    #[test]
    #[should_panic(expected = "share component names")]
    fn mismatched_components_panic() {
        let mut series = NormalizedSeries::new("g");
        series.push(StackedBar::new("a", &[("X", 1.0)]));
        series.push(StackedBar::new("b", &[("Y", 1.0)]));
        let _ = series.to_csv();
    }
}
