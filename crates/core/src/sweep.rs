//! Sweep plans and the parallel sweep runner.
//!
//! A [`SweepPlan`] is the one account of what a sweep runs. It is built
//! once from an [`ExperimentConfig`]: it rejects policy labels and
//! workload names that would collide in the report maps, then lists every
//! `(workload × protocol × [SRAM | retention × policy × retention
//! profile])` point in a fixed order, each with its report key and display
//! label. It also owns the merge: per-point results, taken in plan order,
//! are filed under their keys and rendered into the sweep document.
//!
//! Two executors run a plan. [`SweepRunner`] shards the points across
//! `std::thread` workers in process: every point is an independent
//! simulation with its own seed-derived streams, so the runner executes
//! them in any order, streams completions through a [`ProgressObserver`],
//! and merges the reports into [`SweepResults`] — identical for every
//! worker count. The `refrint-serve` coordinator dispatches the same
//! points as `POST /run` requests and merges the returned report bodies
//! through [`SweepPlan::render`], so its document is byte-identical to a
//! local run by construction.
//!
//! Custom [`PolicyFactory`] policies ride along with the built-in descriptor
//! sweep via [`ExperimentConfig::models`]; their reports are keyed by their
//! labels next to the descriptor labels.
//!
//! # Example
//!
//! ```
//! use refrint::experiment::ExperimentConfig;
//! use refrint::sweep::SweepRunner;
//! use refrint_edram::policy::RefreshPolicy;
//! use refrint_workloads::apps::AppPreset;
//!
//! let config = ExperimentConfig {
//!     apps: vec![AppPreset::Lu],
//!     retentions_us: vec![50],
//!     policies: vec![RefreshPolicy::recommended()],
//!     refs_per_thread: 1_000,
//!     cores: 2,
//!     ..ExperimentConfig::default()
//! };
//! let results = SweepRunner::new(config).workers(2).run().unwrap();
//! assert_eq!(results.sram.len(), 1);
//! assert_eq!(results.edram.len(), 1);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use refrint_coherence::protocol::CoherenceProtocol;
use refrint_edram::model::PolicyFactory;
use refrint_edram::policy::RefreshPolicy;
use refrint_edram::variation::RetentionProfile;
use refrint_trace::TraceFile;
use refrint_workloads::apps::AppPreset;

use crate::error::RefrintError;
use crate::experiment::{ExperimentConfig, SweepResults, TraceSpec};
use crate::json::{self, ReportBody};
use crate::replay;
use crate::report::SimReport;
use crate::simulation::RunSpec;

/// A completed-run notification streamed by the [`SweepRunner`].
#[derive(Debug, Clone)]
pub struct SweepProgress {
    /// Runs completed so far (including this one).
    pub completed: usize,
    /// Total runs in the sweep.
    pub total: usize,
    /// The application that was simulated.
    pub app: String,
    /// The configuration label (e.g. `SRAM`, `eDRAM 50us R.WB(32,32)`).
    pub config_label: String,
    /// Retention time of the point, or `None` for the SRAM baseline.
    pub retention_us: Option<u64>,
}

/// Receives completion events while a sweep is running. Implemented for any
/// `Fn(&SweepProgress) + Send + Sync` closure.
///
/// Events arrive from worker threads in completion order (not plan order).
/// Callbacks are serialized — at most one runs at a time, with strictly
/// increasing `completed` counts — so observers need no locking of their
/// own, but a slow observer backpressures the workers.
pub trait ProgressObserver: Send + Sync {
    /// Called once per finished simulation.
    fn on_run_complete(&self, progress: &SweepProgress);
}

impl<F> ProgressObserver for F
where
    F: Fn(&SweepProgress) + Send + Sync,
{
    fn on_run_complete(&self, progress: &SweepProgress) {
        self(progress)
    }
}

/// What a sweep point simulates: a synthetic application preset or a
/// recorded trace. Application names and trace names share one report
/// namespace.
#[derive(Debug, Clone)]
pub enum Workload {
    /// An application preset, generated on the fly.
    App(AppPreset),
    /// A recorded trace, replayed.
    Trace(TraceSpec),
}

impl Workload {
    /// The name the workload's reports are keyed by.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Workload::App(app) => app.name(),
            Workload::Trace(spec) => &spec.name,
        }
    }
}

/// The policy of one eDRAM sweep point: a built-in descriptor (the private
/// caches inherit its time policy, per Section 6.2) or a custom model (the
/// private caches then run the recommended `Refrint Valid` setup).
#[derive(Debug, Clone)]
pub enum PointPolicy {
    /// A descriptor policy from [`ExperimentConfig::policies`].
    Builtin(RefreshPolicy),
    /// A custom model from [`ExperimentConfig::models`].
    Custom(Arc<dyn PolicyFactory>),
}

impl PointPolicy {
    /// The policy's label, e.g. `R.WB(32,32)`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PointPolicy::Builtin(policy) => policy.label(),
            PointPolicy::Custom(factory) => factory.label(),
        }
    }
}

/// The eDRAM axes of a sweep point.
#[derive(Debug, Clone)]
pub struct EdramPoint {
    /// Retention time in microseconds.
    pub retention_us: u64,
    /// The refresh policy.
    pub policy: PointPolicy,
    /// The per-bank retention distribution.
    pub profile: RetentionProfile,
}

/// Where a point's report is filed: [`SweepResults::sram`] or
/// [`SweepResults::edram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportKey {
    /// The SRAM baseline, keyed by workload (plus any non-default
    /// protocol, e.g. `lu dragon`).
    Sram(String),
    /// An eDRAM point, keyed by `(workload, retention_us, policy)`, the
    /// policy label carrying any non-default axes (e.g.
    /// `R.WB(32,32) dragon bimodal(25,60)`).
    Edram((String, u64, String)),
}

/// One simulation of a sweep.
#[derive(Debug, Clone)]
pub struct PlanPoint {
    /// What the point simulates.
    pub workload: Workload,
    /// The coherence protocol.
    pub protocol: CoherenceProtocol,
    /// The eDRAM axes, or `None` for the SRAM baseline.
    pub edram: Option<EdramPoint>,
}

impl PlanPoint {
    /// The composed key the point's report is merged under. Default axes
    /// (MESI, uniform) add nothing, so default sweeps keep their
    /// historical keys and JSON documents byte for byte.
    #[must_use]
    pub fn key(&self) -> ReportKey {
        let workload = self.workload.name().to_owned();
        match &self.edram {
            None => ReportKey::Sram(format!(
                "{workload}{}",
                axis_suffix(self.protocol, RetentionProfile::Uniform)
            )),
            Some(edram) => ReportKey::Edram((
                workload,
                edram.retention_us,
                format!(
                    "{}{}",
                    edram.policy.label(),
                    axis_suffix(self.protocol, edram.profile)
                ),
            )),
        }
    }

    /// The point's display label: `lu/sram`, `fft/50us/R.valid`.
    #[must_use]
    pub fn label(&self) -> String {
        match self.key() {
            ReportKey::Sram(_) => format!("{}/sram", self.workload.name()),
            ReportKey::Edram((workload, retention_us, policy)) => {
                format!("{workload}/{retention_us}us/{policy}")
            }
        }
    }
}

/// The report-key suffix carrying a point's non-default axes — empty for
/// the default MESI + uniform combination.
fn axis_suffix(protocol: CoherenceProtocol, profile: RetentionProfile) -> String {
    let mut suffix = String::new();
    if !protocol.is_default() {
        suffix.push(' ');
        suffix.push_str(protocol.label());
    }
    if !profile.is_default() {
        suffix.push(' ');
        suffix.push_str(&profile.label());
    }
    suffix
}

/// Per-point results filed under their report keys. Both maps iterate in
/// the order a sweep document lists its runs.
struct Merged<R> {
    sram: BTreeMap<String, R>,
    edram: BTreeMap<(String, u64, String), R>,
}

/// The validated, ordered point list of one sweep (see the module docs).
#[derive(Debug, Clone)]
pub struct SweepPlan {
    config: ExperimentConfig,
    points: Vec<PlanPoint>,
}

impl SweepPlan {
    /// Plans `config`: for each workload (applications first, then
    /// traces) and each protocol, the SRAM baseline followed by every
    /// (retention × policy × retention-profile) eDRAM point — descriptor
    /// policies first, then custom models. Empty protocol and profile axes
    /// stand for the single default.
    ///
    /// # Errors
    ///
    /// [`RefrintError::InvalidConfig`] when two policies share a label or
    /// two workloads share a name: their reports would overwrite each
    /// other in the merge.
    pub fn new(config: ExperimentConfig) -> Result<SweepPlan, RefrintError> {
        let policies: Vec<PointPolicy> = config
            .policies
            .iter()
            .map(|&policy| PointPolicy::Builtin(policy))
            .chain(config.models.iter().cloned().map(PointPolicy::Custom))
            .collect();
        let workloads: Vec<Workload> = config
            .apps
            .iter()
            .map(|&app| Workload::App(app))
            .chain(config.traces.iter().cloned().map(Workload::Trace))
            .collect();
        if let Some(label) = first_duplicate(policies.iter().map(PointPolicy::label)) {
            return Err(RefrintError::InvalidConfig {
                reason: format!(
                    "duplicate refresh-policy label `{label}` in the sweep \
                     (reports are keyed by label)"
                ),
            });
        }
        if let Some(name) = first_duplicate(workloads.iter().map(|w| w.name().to_owned())) {
            return Err(RefrintError::InvalidConfig {
                reason: format!(
                    "duplicate workload `{name}` in the sweep \
                     (reports are keyed by workload name)"
                ),
            });
        }

        let protocols: &[CoherenceProtocol] = if config.protocols.is_empty() {
            &[CoherenceProtocol::Mesi]
        } else {
            &config.protocols
        };
        let profiles: &[RetentionProfile] = if config.retention_profiles.is_empty() {
            &[RetentionProfile::Uniform]
        } else {
            &config.retention_profiles
        };
        let mut points = Vec::with_capacity(config.total_runs());
        for workload in &workloads {
            for &protocol in protocols {
                let point = |edram| PlanPoint {
                    workload: workload.clone(),
                    protocol,
                    edram,
                };
                points.push(point(None));
                for &retention_us in &config.retentions_us {
                    for policy in &policies {
                        for &profile in profiles {
                            points.push(point(Some(EdramPoint {
                                retention_us,
                                policy: policy.clone(),
                                profile,
                            })));
                        }
                    }
                }
            }
        }
        Ok(SweepPlan { config, points })
    }

    /// The configuration this plan was built from.
    #[must_use]
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The points, in plan order.
    #[must_use]
    pub fn points(&self) -> &[PlanPoint] {
        &self.points
    }

    /// Renders the sweep document from rendered per-point reports, given
    /// in plan order — the path for results that arrive as text, such as
    /// `POST /run` responses. The bytes equal [`json::sweep`] over
    /// the same results computed in process.
    ///
    /// # Panics
    ///
    /// If `reports` does not hold exactly one report per point.
    #[must_use]
    pub fn render(&self, reports: Vec<ReportBody>) -> String {
        let merged = self.merge(reports);
        json::render_sweep(
            &self.workload_names(),
            &self.config.retentions_us,
            &merged.sram,
            &merged.edram,
        )
    }

    /// Files per-point results, given in plan order, under their report
    /// keys.
    fn merge<R>(&self, results: Vec<R>) -> Merged<R> {
        assert_eq!(results.len(), self.points.len(), "one result per point");
        let mut merged = Merged {
            sram: BTreeMap::new(),
            edram: BTreeMap::new(),
        };
        for (point, result) in self.points.iter().zip(results) {
            match point.key() {
                ReportKey::Sram(key) => merged.sram.insert(key, result),
                ReportKey::Edram(key) => merged.edram.insert(key, result),
            };
        }
        merged
    }

    /// The workload names, applications first, as the sweep document
    /// lists them.
    fn workload_names(&self) -> Vec<String> {
        self.config
            .apps
            .iter()
            .map(|a| a.name().to_owned())
            .chain(self.config.traces.iter().map(|t| t.name.clone()))
            .collect()
    }

    /// The run `point` simulates, minus its workload. A custom-model
    /// point's spec leaves the policy unset (the model is an in-process
    /// trait object, installed on top of [`RunSpec::builder`]), so its
    /// private caches run the recommended preset's time policy.
    #[must_use]
    pub fn spec(&self, point: &PlanPoint) -> RunSpec {
        let mut spec = RunSpec {
            sram: point.edram.is_none(),
            protocol: Some(point.protocol),
            refs: Some(self.config.refs_per_thread),
            seed: Some(self.config.seed),
            cores: Some(self.config.cores),
            ..RunSpec::default()
        };
        if let Some(edram) = &point.edram {
            spec.retention_us = Some(edram.retention_us);
            spec.retention_profile = Some(edram.profile);
            if let PointPolicy::Builtin(policy) = edram.policy {
                spec.policy = Some(policy);
            }
        }
        spec
    }
}

/// The first item of `items` that repeats an earlier one.
fn first_duplicate(mut items: impl Iterator<Item = String>) -> Option<String> {
    let mut seen = BTreeSet::new();
    items.find(|item| !seen.insert(item.clone()))
}

/// Runs an experiment sweep across a configurable number of worker threads.
///
/// Results are merged in plan order, so for a fixed [`ExperimentConfig`]
/// the output is identical for every worker count (including the
/// sequential `workers(1)` path).
pub struct SweepRunner {
    config: ExperimentConfig,
    workers: usize,
    observer: Option<Arc<dyn ProgressObserver>>,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("config", &self.config)
            .field("workers", &self.workers)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl SweepRunner {
    /// Creates a runner for `config`, defaulting to one worker per available
    /// CPU.
    #[must_use]
    pub fn new(config: ExperimentConfig) -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        SweepRunner {
            config,
            workers,
            observer: None,
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Forces the sequential (single-worker) path.
    #[must_use]
    pub fn sequential(self) -> Self {
        self.workers(1)
    }

    /// Streams completion events to `observer` while the sweep runs.
    #[must_use]
    pub fn observer(mut self, observer: impl ProgressObserver + 'static) -> Self {
        self.observer = Some(Arc::new(observer));
        self
    }

    /// The experiment configuration this runner will execute.
    #[must_use]
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    fn run_point(
        plan: &SweepPlan,
        point: &PlanPoint,
        traces: &BTreeMap<String, TraceFile>,
    ) -> Result<SimReport, RefrintError> {
        let mut builder = plan.spec(point).builder();
        if let Some(EdramPoint {
            policy: PointPolicy::Custom(factory),
            ..
        }) = &point.edram
        {
            builder = builder.policy_model(Arc::clone(factory));
        }
        let mut sim = builder.build()?;
        match &point.workload {
            Workload::App(app) => Ok(sim.run(*app).report),
            Workload::Trace(spec) => {
                let trace = traces
                    .get(&spec.name)
                    .expect("every trace was opened by the pre-check");
                replay::replay(sim.system_mut(), trace)
            }
        }
    }

    /// Plans the sweep, runs it and merges the reports.
    ///
    /// # Errors
    ///
    /// The [`SweepPlan::new`] error for a colliding configuration, a
    /// [`RefrintError::Trace`] for an unreadable trace or one recorded for
    /// another core count, and otherwise the earliest-in-plan-order
    /// [`RefrintError`] among the points that ran. Workers stop claiming
    /// new points as soon as any point fails, so a bad configuration does
    /// not burn through the rest of an expensive sweep first.
    pub fn run(&self) -> Result<SweepResults, RefrintError> {
        let plan = SweepPlan::new(self.config.clone())?;

        // Open and check every trace before burning through any
        // simulations: an unreadable file or a thread/core mismatch fails
        // the sweep immediately instead of after the earlier points have
        // run. The opened (indexed) files are shared with the points, so a
        // trace swept over many configuration points is indexed exactly
        // once.
        let mut traces: BTreeMap<String, TraceFile> = BTreeMap::new();
        for spec in &self.config.traces {
            let trace = TraceFile::open(&spec.path).map_err(|e| RefrintError::Trace {
                reason: format!("{}: {e}", spec.path.display()),
            })?;
            let threads = trace.meta().threads;
            if threads != self.config.cores {
                return Err(RefrintError::Trace {
                    reason: format!(
                        "trace `{}` ({}) has {threads} threads but the sweep is configured \
                         for {} cores",
                        spec.name,
                        spec.path.display(),
                        self.config.cores
                    ),
                });
            }
            traces.insert(spec.name.clone(), trace);
        }
        let traces = &traces;

        let points = plan.points();
        let total = points.len();
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        // The observer lock makes increment + callback one atomic step, so
        // callbacks are serialized with strictly increasing counts.
        let progress = Mutex::new(0usize);
        let slots: Mutex<Vec<Option<Result<SimReport, RefrintError>>>> =
            Mutex::new((0..total).map(|_| None).collect());

        let worker = || loop {
            if failed.load(Ordering::Relaxed) {
                break;
            }
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= total {
                break;
            }
            let point = &points[index];
            let result = Self::run_point(&plan, point, traces);
            match &result {
                Ok(report) => {
                    if let Some(observer) = &self.observer {
                        let mut done = progress.lock().expect("observer lock never poisoned");
                        *done += 1;
                        observer.on_run_complete(&SweepProgress {
                            completed: *done,
                            total,
                            app: point.workload.name().to_owned(),
                            config_label: report.config_label.clone(),
                            retention_us: point.edram.as_ref().map(|e| e.retention_us),
                        });
                    }
                }
                Err(_) => failed.store(true, Ordering::Relaxed),
            }
            slots.lock().expect("no worker panicked holding the lock")[index] = Some(result);
        };

        let workers = self.workers.min(total.max(1));
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        // Workers claim points in order and all of them have joined, so
        // every slot before the first failure is filled: the first
        // non-report slot is the first error in plan order, whatever the
        // interleaving was.
        let mut reports = Vec::with_capacity(total);
        for slot in slots.into_inner().expect("all workers joined") {
            match slot.expect("slots before the first failure are filled") {
                Ok(report) => reports.push(report),
                Err(e) => return Err(e),
            }
        }
        let merged = plan.merge(reports);
        Ok(SweepResults {
            sram: merged.sram,
            edram: merged.edram,
            apps: self.config.apps.clone(),
            retentions_us: self.config.retentions_us.clone(),
            policies: self.config.policies.clone(),
            custom_labels: self.config.models.iter().map(|m| m.label()).collect(),
            traces: self.config.traces.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint_edram::policy::{DataPolicy, RefreshPolicy, TimePolicy};
    use std::sync::atomic::AtomicUsize;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            apps: vec![AppPreset::Blackscholes, AppPreset::Fft],
            retentions_us: vec![50],
            policies: vec![
                RefreshPolicy::edram_baseline(),
                RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid),
            ],
            refs_per_thread: 1_200,
            seed: 3,
            cores: 4,
            models: Vec::new(),
            traces: Vec::new(),
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn parallel_results_match_sequential_results_exactly() {
        let sequential = SweepRunner::new(tiny_config()).sequential().run().unwrap();
        let parallel = SweepRunner::new(tiny_config()).workers(4).run().unwrap();
        assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn observer_sees_every_run() {
        let seen = Arc::new(AtomicUsize::new(0));
        let seen_in_observer = Arc::clone(&seen);
        let config = tiny_config();
        let total = config.total_runs();
        let results = SweepRunner::new(config)
            .workers(2)
            .observer(move |p: &SweepProgress| {
                seen_in_observer.fetch_add(1, Ordering::Relaxed);
                assert!(p.completed <= p.total);
                assert!(!p.config_label.is_empty());
            })
            .run()
            .unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), total);
        assert_eq!(results.sram.len() + results.edram.len(), total);
    }

    #[test]
    fn invalid_points_surface_the_first_error() {
        let mut config = tiny_config();
        config.retentions_us = vec![50, 1]; // 1 us < sentry margin: invalid.
        let err = SweepRunner::new(config).workers(2).run().unwrap_err();
        assert!(err.to_string().contains("retention"), "{err}");
    }

    #[test]
    fn worker_count_is_clamped() {
        let runner = SweepRunner::new(tiny_config()).workers(0);
        assert_eq!(runner.workers, 1);
    }

    #[test]
    fn traces_sweep_alongside_apps_with_identical_reports() {
        let path =
            std::env::temp_dir().join(format!("refrint-sweep-{}-trace.rft", std::process::id()));
        // Capture with exactly the chip parameters the sweep derives.
        let capture_config = crate::config::SystemConfig::sram_baseline()
            .with_cores(4)
            .with_seed(3)
            .with_scale(1_200);
        crate::replay::capture_to_path(&capture_config, &AppPreset::Lu.model(), &path).unwrap();

        let mut config = tiny_config();
        config.apps = vec![AppPreset::Lu];
        config.traces = vec![TraceSpec::named("lu-trace", &path)];
        assert_eq!(config.total_runs(), 2 * (1 + 2));
        let results = SweepRunner::new(config).workers(2).run().unwrap();

        // The replayed runs mirror the synthetic runs bit for bit.
        let live = results.sram_report(AppPreset::Lu).unwrap();
        let replayed = results.sram_report_named("lu-trace").unwrap();
        assert_eq!(format!("{live:?}"), format!("{replayed:?}"));
        let label = RefreshPolicy::edram_baseline().label();
        let live = results.edram_report_named("lu", 50, &label).unwrap();
        let replayed = results.edram_report_named("lu-trace", 50, &label).unwrap();
        assert_eq!(format!("{live:?}"), format!("{replayed:?}"));
        assert_eq!(results.traces.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_workload_keys_are_rejected() {
        let mut config = tiny_config();
        config.traces = vec![TraceSpec::named("fft", "unused.rft")];
        let err = SweepRunner::new(config).run().unwrap_err();
        assert!(err.to_string().contains("duplicate workload"), "{err}");
    }

    #[test]
    fn missing_trace_files_fail_the_sweep_with_a_typed_error() {
        let mut config = tiny_config();
        config.traces = vec![TraceSpec::named("ghost", "/nonexistent/ghost.rft")];
        let err = SweepRunner::new(config).workers(2).run().unwrap_err();
        assert!(matches!(err, RefrintError::Trace { .. }), "{err}");
    }

    #[test]
    fn protocol_and_profile_axes_expand_and_compose_keys() {
        let mut config = tiny_config();
        config.apps = vec![AppPreset::Lu];
        config.policies = vec![RefreshPolicy::recommended()];
        config.protocols = vec![CoherenceProtocol::Mesi, CoherenceProtocol::Dragon];
        config.retention_profiles = vec![
            RetentionProfile::Uniform,
            RetentionProfile::Bimodal {
                weak_pct: 25,
                weak_retention_pct: 60,
            },
        ];
        // 1 app x 2 protocols x (1 SRAM + 1 retention x 1 policy x 2 profiles).
        assert_eq!(config.total_runs(), 6);
        let results = SweepRunner::new(config).workers(3).run().unwrap();
        assert_eq!(results.sram.len(), 2);
        assert_eq!(results.edram.len(), 4);
        assert!(results.sram.contains_key("lu"));
        assert!(results.sram.contains_key("lu dragon"));
        for label in [
            "R.WB(32,32)",
            "R.WB(32,32) bimodal(25,60)",
            "R.WB(32,32) dragon",
            "R.WB(32,32) dragon bimodal(25,60)",
        ] {
            assert!(
                results.edram_report_named("lu", 50, label).is_some(),
                "missing point `{label}`"
            );
        }
        // The default-axes point is byte-identical to a sweep without the
        // new axes at all.
        let mut plain = tiny_config();
        plain.apps = vec![AppPreset::Lu];
        plain.policies = vec![RefreshPolicy::recommended()];
        let plain = SweepRunner::new(plain).sequential().run().unwrap();
        assert_eq!(
            format!("{:?}", results.edram_report_named("lu", 50, "R.WB(32,32)")),
            format!("{:?}", plain.edram_report_named("lu", 50, "R.WB(32,32)")),
        );
        // The sweep JSON carries the composed labels.
        let doc = crate::json::sweep(&results);
        assert!(doc.contains("R.WB(32,32) dragon bimodal(25,60)"), "{doc}");
    }

    #[test]
    fn plan_orders_points_and_composes_keys_and_labels() {
        let mut config = tiny_config();
        config.apps = vec![AppPreset::Lu];
        config.policies = vec![RefreshPolicy::recommended()];
        config.retentions_us = vec![50, 100];
        config.protocols = vec![CoherenceProtocol::Mesi, CoherenceProtocol::Dragon];
        config.retention_profiles = vec![
            RetentionProfile::Uniform,
            RetentionProfile::Bimodal {
                weak_pct: 25,
                weak_retention_pct: 60,
            },
        ];
        let plan = SweepPlan::new(config).unwrap();
        assert_eq!(plan.points().len(), plan.config().total_runs());
        let labels: Vec<String> = plan.points().iter().map(PlanPoint::label).collect();
        // Per protocol: SRAM, then retention-major, profile-minor.
        assert_eq!(
            labels,
            [
                "lu/sram",
                "lu/50us/R.WB(32,32)",
                "lu/50us/R.WB(32,32) bimodal(25,60)",
                "lu/100us/R.WB(32,32)",
                "lu/100us/R.WB(32,32) bimodal(25,60)",
                "lu/sram",
                "lu/50us/R.WB(32,32) dragon",
                "lu/50us/R.WB(32,32) dragon bimodal(25,60)",
                "lu/100us/R.WB(32,32) dragon",
                "lu/100us/R.WB(32,32) dragon bimodal(25,60)",
            ]
        );
        assert_eq!(plan.points()[0].key(), ReportKey::Sram("lu".to_owned()));
        assert_eq!(
            plan.points()[5].key(),
            ReportKey::Sram("lu dragon".to_owned())
        );
        assert_eq!(
            plan.points()[9].key(),
            ReportKey::Edram((
                "lu".to_owned(),
                100,
                "R.WB(32,32) dragon bimodal(25,60)".to_owned()
            ))
        );
    }

    #[test]
    fn rendering_report_bodies_reproduces_the_in_process_document() {
        // One small workload over the paper's policies: a slice large
        // enough for the anomaly pass to flag a corrupted point, so the
        // scored metrics read back out of the bodies are compared too.
        let mut config = tiny_config();
        config.apps = vec![AppPreset::Blackscholes];
        config.policies = RefreshPolicy::paper_sweep();
        config.refs_per_thread = 400;
        config.cores = 2;
        let mut results = SweepRunner::new(config.clone()).workers(2).run().unwrap();
        let victim = results.edram.values_mut().next().unwrap();
        victim.breakdown.dram *= 400.0;
        let plan = SweepPlan::new(config).unwrap();
        // Each point's report as it travels over HTTP: rendered, with the
        // trailing newline a served body carries, then read back.
        let bodies = plan
            .points()
            .iter()
            .map(|point| {
                let report = match point.key() {
                    ReportKey::Sram(key) => &results.sram[&key],
                    ReportKey::Edram(key) => &results.edram[&key],
                };
                ReportBody::parse(&format!("{}\n", json::report(report))).unwrap()
            })
            .collect();
        let doc = plan.render(bodies);
        assert!(doc.contains("\"robust_z\""), "{doc}");
        assert_eq!(doc, json::sweep(&results));
    }

    #[test]
    fn duplicate_policy_labels_are_rejected() {
        let mut config = tiny_config();
        config.policies.push(config.policies[0]);
        let err = SweepRunner::new(config).run().unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }
}
