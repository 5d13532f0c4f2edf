//! The paper's parameter sweep (Table 5.4): 3 retention times × 2 time
//! policies × 7 data policies, plus the full-SRAM baseline, over the 11
//! applications of Table 5.3.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

use refrint_coherence::protocol::CoherenceProtocol;
use refrint_edram::policy::RefreshPolicy;
use refrint_edram::variation::RetentionProfile;
use refrint_trace::TraceFile;
use refrint_workloads::apps::AppPreset;
use refrint_workloads::classify::AppClass;

use crate::error::RefrintError;
use crate::report::SimReport;

/// A recorded trace included in a sweep: every `(retention × policy)` point
/// (plus the SRAM baseline) replays it, exactly like an application preset.
/// Reports are keyed by `name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// The key the trace's reports are filed under.
    pub name: String,
    /// Path of the trace file (binary or text).
    pub path: PathBuf,
}

impl TraceSpec {
    /// Builds a spec keyed by an explicit name.
    #[must_use]
    pub fn named(name: impl Into<String>, path: impl Into<PathBuf>) -> Self {
        TraceSpec {
            name: name.into(),
            path: path.into(),
        }
    }

    /// Builds a spec keyed by the workload name in the trace's header.
    ///
    /// # Errors
    ///
    /// [`RefrintError::Trace`] if the file cannot be opened or parsed.
    pub fn from_path(path: impl Into<PathBuf>) -> Result<Self, RefrintError> {
        let path = path.into();
        let trace = TraceFile::open(&path).map_err(|e| RefrintError::Trace {
            reason: format!("{}: {e}", path.display()),
        })?;
        Ok(TraceSpec {
            name: trace.meta().workload.clone(),
            path,
        })
    }
}

impl fmt::Display for TraceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.path.display())
    }
}

/// Configuration of a sweep run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Applications to run (defaults to all 11 of Table 5.3).
    pub apps: Vec<AppPreset>,
    /// Retention times to sweep, in microseconds (defaults to 50/100/200).
    pub retentions_us: Vec<u64>,
    /// Policies to sweep (defaults to the 14 combinations of Table 5.4).
    pub policies: Vec<RefreshPolicy>,
    /// References per thread per run (scales simulated time).
    pub refs_per_thread: u64,
    /// Workload seed.
    pub seed: u64,
    /// Number of cores (16 in the paper; smaller values speed up testing).
    pub cores: usize,
    /// Recorded traces swept alongside `apps` at every configuration point.
    /// Each trace's thread count must match `cores`.
    pub traces: Vec<TraceSpec>,
    /// Coherence protocols to sweep (defaults to `[Mesi]`). Every workload
    /// runs its SRAM baseline and every eDRAM point once per protocol;
    /// non-default protocols suffix the report keys (e.g. `lu dragon`,
    /// `R.WB(32,32) dragon`).
    pub protocols: Vec<CoherenceProtocol>,
    /// Per-bank retention-variation profiles to sweep (defaults to
    /// `[Uniform]`). Profiles apply to eDRAM points only — the SRAM
    /// baseline never decays — and non-default profiles suffix the policy
    /// key (e.g. `R.WB(32,32) bimodal(25,60)`).
    pub retention_profiles: Vec<RetentionProfile>,
}

impl ExperimentConfig {
    /// The paper's full sweep at a moderate default scale.
    #[must_use]
    pub fn paper_full() -> Self {
        ExperimentConfig {
            apps: AppPreset::ALL.to_vec(),
            retentions_us: vec![50, 100, 200],
            policies: RefreshPolicy::paper_sweep(),
            refs_per_thread: 60_000,
            seed: 0xBEEF,
            cores: 16,
            traces: Vec::new(),
            protocols: vec![CoherenceProtocol::Mesi],
            retention_profiles: vec![RetentionProfile::Uniform],
        }
    }

    /// A reduced sweep (three representative applications, the 50 µs
    /// retention point) for quick runs and CI.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            apps: vec![AppPreset::Fft, AppPreset::Lu, AppPreset::Blackscholes],
            retentions_us: vec![50],
            policies: RefreshPolicy::paper_sweep(),
            refs_per_thread: 8_000,
            seed: 0xBEEF,
            cores: 16,
            traces: Vec::new(),
            protocols: vec![CoherenceProtocol::Mesi],
            retention_profiles: vec![RetentionProfile::Uniform],
        }
    }

    /// Scales the run length.
    #[must_use]
    pub fn with_refs_per_thread(mut self, refs: u64) -> Self {
        self.refs_per_thread = refs;
        self
    }

    /// Restricts the applications.
    #[must_use]
    pub fn with_apps(mut self, apps: Vec<AppPreset>) -> Self {
        self.apps = apps;
        self
    }

    /// Adds a recorded trace to the sweep.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.traces.push(trace);
        self
    }

    /// Replaces the coherence-protocol axis.
    #[must_use]
    pub fn with_protocols(mut self, protocols: Vec<CoherenceProtocol>) -> Self {
        self.protocols = protocols;
        self
    }

    /// Replaces the retention-variation axis.
    #[must_use]
    pub fn with_retention_profiles(mut self, profiles: Vec<RetentionProfile>) -> Self {
        self.retention_profiles = profiles;
        self
    }

    /// Total number of (workload × configuration) simulations the sweep
    /// will run, including the SRAM baselines. Applications and traces are
    /// both workloads.
    #[must_use]
    pub fn total_runs(&self) -> usize {
        let protocols = self.protocols.len().max(1);
        let profiles = self.retention_profiles.len().max(1);
        (self.apps.len() + self.traces.len())
            * protocols
            * (1 + self.retentions_us.len() * self.policies.len() * profiles)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper_full()
    }
}

/// The results of a sweep: one SRAM baseline report per application plus one
/// eDRAM report per (application, retention, policy).
#[derive(Debug, Clone, Default)]
pub struct SweepResults {
    /// SRAM baseline reports keyed by application.
    pub sram: BTreeMap<String, SimReport>,
    /// eDRAM reports keyed by `(application, retention_us, policy label)`.
    pub edram: BTreeMap<(String, u64, String), SimReport>,
    /// The applications that were run, in order.
    pub apps: Vec<AppPreset>,
    /// The retention points that were swept.
    pub retentions_us: Vec<u64>,
    /// The policies that were swept, in figure order.
    pub policies: Vec<RefreshPolicy>,
    /// The traces that were swept alongside the applications.
    pub traces: Vec<TraceSpec>,
}

impl SweepResults {
    /// The SRAM baseline report for `app`.
    #[must_use]
    pub fn sram_report(&self, app: AppPreset) -> Option<&SimReport> {
        self.sram_report_named(app.name())
    }

    /// The SRAM baseline report for any workload key — application names
    /// and trace names share one namespace.
    #[must_use]
    pub fn sram_report_named(&self, workload: &str) -> Option<&SimReport> {
        self.sram.get(workload)
    }

    /// The eDRAM report for `(workload key, retention, policy label)` —
    /// reaches traces as well as presets.
    #[must_use]
    pub fn edram_report_named(
        &self,
        workload: &str,
        retention_us: u64,
        label: &str,
    ) -> Option<&SimReport> {
        self.edram
            .get(&(workload.to_owned(), retention_us, label.to_owned()))
    }

    /// The eDRAM report for `(app, retention, policy)`.
    #[must_use]
    pub fn edram_report(
        &self,
        app: AppPreset,
        retention_us: u64,
        policy: RefreshPolicy,
    ) -> Option<&SimReport> {
        self.edram_report_by_label(app, retention_us, &policy.label())
    }

    /// The eDRAM report for `(app, retention, label)` — the label form also
    /// reaches keys carrying non-default axes (e.g. `R.WB(32,32) dragon`).
    #[must_use]
    pub fn edram_report_by_label(
        &self,
        app: AppPreset,
        retention_us: u64,
        label: &str,
    ) -> Option<&SimReport> {
        self.edram_report_named(app.name(), retention_us, label)
    }

    /// The applications of `class` that were part of this sweep.
    #[must_use]
    pub fn apps_in_class(&self, class: AppClass) -> Vec<AppPreset> {
        self.apps
            .iter()
            .copied()
            .filter(|a| a.paper_class() == class)
            .collect()
    }

    /// Average, over the given applications, of `f(edram_report, sram_report)`.
    /// Applications missing either report are skipped.
    #[must_use]
    pub fn average_over<F>(
        &self,
        apps: &[AppPreset],
        retention_us: u64,
        policy: RefreshPolicy,
        f: F,
    ) -> Option<f64>
    where
        F: Fn(&SimReport, &SimReport) -> f64,
    {
        let values: Vec<f64> = apps
            .iter()
            .filter_map(|&app| {
                let edram = self.edram_report(app, retention_us, policy)?;
                let sram = self.sram_report(app)?;
                Some(f(edram, sram))
            })
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint_edram::policy::{DataPolicy, TimePolicy};

    #[test]
    fn paper_sweep_has_473_runs() {
        // 11 apps x (1 SRAM + 3 retentions x 14 policies) = 11 x 43 = 473.
        let cfg = ExperimentConfig::paper_full();
        assert_eq!(cfg.total_runs(), 473);
        assert_eq!(cfg.policies.len(), 14);
    }

    #[test]
    fn tiny_sweep_runs_and_indexes() {
        let cfg = ExperimentConfig {
            apps: vec![AppPreset::Blackscholes, AppPreset::Fft],
            retentions_us: vec![50],
            policies: vec![
                RefreshPolicy::edram_baseline(),
                RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid),
            ],
            refs_per_thread: 1_500,
            seed: 3,
            cores: 4,
            traces: Vec::new(),
            ..ExperimentConfig::default()
        };
        let results = crate::sweep::SweepRunner::new(cfg)
            .sequential()
            .run()
            .unwrap();
        assert_eq!(results.sram.len(), 2);
        assert_eq!(results.edram.len(), 4);
        assert!(results.sram_report(AppPreset::Fft).is_some());
        assert!(results.sram_report(AppPreset::Lu).is_none());
        assert!(results
            .edram_report(AppPreset::Fft, 50, RefreshPolicy::edram_baseline())
            .is_some());
        assert!(results
            .edram_report(AppPreset::Fft, 100, RefreshPolicy::edram_baseline())
            .is_none());

        // Averages over present apps exist, and are positive ratios.
        let avg = results
            .average_over(
                &[AppPreset::Fft, AppPreset::Blackscholes],
                50,
                RefreshPolicy::edram_baseline(),
                |e, s| e.memory_energy_vs(s),
            )
            .unwrap();
        assert!(avg > 0.0 && avg < 2.0, "normalised energy was {avg}");
        // Averages over apps that were not run are None.
        assert!(results
            .average_over(
                &[AppPreset::Lu],
                50,
                RefreshPolicy::edram_baseline(),
                |e, s| { e.memory_energy_vs(s) }
            )
            .is_none());
    }

    #[test]
    fn class_filter_uses_paper_binning() {
        let results = SweepResults {
            apps: AppPreset::ALL.to_vec(),
            ..SweepResults::default()
        };
        assert_eq!(results.apps_in_class(AppClass::Class1).len(), 4);
        assert_eq!(results.apps_in_class(AppClass::Class3).len(), 3);
    }
}
