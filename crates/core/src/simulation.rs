//! The unified simulation entry point: [`Simulation::builder()`].
//!
//! Historically, every front end (CLI, examples, tests, benches) poked
//! [`SystemConfig`] fields directly and drove [`CmpSystem`] by hand. The
//! builder replaces that with one fluent, order-independent surface:
//!
//! * **Presets** — [`SimulationBuilder::sram_baseline`],
//!   [`SimulationBuilder::edram_baseline`] and
//!   [`SimulationBuilder::edram_recommended`] select the paper's three
//!   anchor configurations; every other setting is an override on top.
//! * **Typed errors** — [`SimulationBuilder::build`] validates the composed
//!   configuration and reports what is wrong as a [`BuildError`] variant
//!   (zero cores, bank/core mismatch, refresh settings on SRAM, unknown
//!   policy label, …) instead of a stringly-typed reason.
//! * **Pluggable policies** — [`SimulationBuilder::policy_model`] installs a
//!   custom [`PolicyFactory`] for the L3, and
//!   [`SimulationBuilder::register_policy`] +
//!   [`SimulationBuilder::policy_label`] resolve user-supplied labels
//!   through a [`PolicyRegistry`].
//! * **Structured results** — [`Simulation::run`] returns a [`RunOutcome`]
//!   joining the [`SimReport`] with its [`EnergyBreakdown`] and the relative
//!   metrics the paper's figures are built from.
//!
//! # Example
//!
//! ```
//! use refrint::simulation::Simulation;
//! use refrint_workloads::apps::AppPreset;
//!
//! let mut sim = Simulation::builder()
//!     .edram_recommended()
//!     .cores(2)
//!     .refs_per_thread(2_000)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let outcome = sim.run(AppPreset::Blackscholes);
//! assert!(outcome.execution_cycles() > 0);
//! assert!(outcome.breakdown().memory_total() > 0.0);
//! ```

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use refrint_coherence::protocol::CoherenceProtocol;
use refrint_edram::error::EdramError;
use refrint_edram::model::{PolicyFactory, PolicyRegistry};
use refrint_edram::policy::RefreshPolicy;
use refrint_edram::retention::RetentionConfig;
use refrint_edram::variation::RetentionProfile;
use refrint_energy::breakdown::EnergyBreakdown;
use refrint_energy::tech::CellTech;
use refrint_trace::{TraceFile, TraceMeta};
use refrint_workloads::apps::AppPreset;
use refrint_workloads::model::WorkloadModel;

pub use refrint_obs::{ObsConfig, ObsSummary};

use crate::config::SystemConfig;
use crate::error::{ConfigError, RefrintError};
use crate::replay;
use crate::report::SimReport;
use crate::system::CmpSystem;

/// Everything that can be wrong with a composed configuration, reported at
/// [`SimulationBuilder::build`] time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The chip needs at least one core.
    ZeroCores,
    /// More cores were requested than the torus has nodes.
    TooManyCores {
        /// Requested core count.
        cores: usize,
        /// Nodes on the configured torus.
        torus_nodes: usize,
    },
    /// The model assumes one shared-L3 bank per tile.
    BankCoreMismatch {
        /// Configured L3 bank count.
        l3_banks: usize,
        /// Configured core count.
        cores: usize,
    },
    /// The retention period leaves no room for the sentry safety margin.
    RetentionTooShort {
        /// Retention period, in cycles.
        retention_cycles: u64,
        /// Required sentry margin, in cycles.
        sentry_margin: u64,
    },
    /// Refresh settings (policy, retention or a custom model) were combined
    /// with SRAM cells, which never refresh.
    SramWithRefreshSettings {
        /// Which setting conflicted (`"policy"`, `"retention"`, ...).
        setting: &'static str,
    },
    /// A policy label resolved neither to a registered custom policy nor to
    /// the built-in descriptor grammar.
    UnknownPolicy {
        /// The offending label.
        label: String,
        /// The labels that would have been accepted.
        valid: Vec<String>,
    },
    /// More than one of `policy` / `policy_label` / `policy_model` was set.
    ConflictingPolicySpecs,
    /// The trace file supplied to [`SimulationBuilder::trace`] could not be
    /// opened, or disagrees with the configured core count.
    Trace {
        /// Description of the failure (includes the trace path and, for
        /// format errors, the offending byte offset).
        reason: String,
    },
    /// A constraint not covered by the variants above (forwarded from
    /// [`SystemConfig::validate`]).
    Invalid {
        /// Description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // The config-rule variants render through ConfigError so the
            // two error types cannot drift apart in wording.
            BuildError::ZeroCores => ConfigError::ZeroCores.fmt(f),
            BuildError::TooManyCores { cores, torus_nodes } => ConfigError::TooManyCores {
                cores: *cores,
                torus_nodes: *torus_nodes,
            }
            .fmt(f),
            BuildError::BankCoreMismatch { l3_banks, cores } => ConfigError::BankCoreMismatch {
                l3_banks: *l3_banks,
                cores: *cores,
            }
            .fmt(f),
            BuildError::RetentionTooShort {
                retention_cycles,
                sentry_margin,
            } => ConfigError::RetentionTooShort {
                retention_cycles: *retention_cycles,
                sentry_margin: *sentry_margin,
            }
            .fmt(f),
            BuildError::SramWithRefreshSettings { setting } => write!(
                f,
                "a refresh {setting} was configured for SRAM cells, which never refresh \
                 (drop the {setting} or select eDRAM)"
            ),
            BuildError::UnknownPolicy { label, valid } => EdramError::UnknownPolicy {
                label: label.clone(),
                valid: valid.clone(),
            }
            .fmt(f),
            BuildError::ConflictingPolicySpecs => write!(
                f,
                "set at most one of policy(), policy_label() and policy_model()"
            ),
            BuildError::Trace { reason } => write!(f, "trace error: {reason}"),
            BuildError::Invalid { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<BuildError> for RefrintError {
    fn from(err: BuildError) -> Self {
        RefrintError::InvalidConfig {
            reason: err.to_string(),
        }
    }
}

/// Fluent, order-independent builder for a [`Simulation`].
///
/// Start from a preset, layer overrides, then [`SimulationBuilder::build`].
/// Created by [`Simulation::builder`].
#[derive(Debug, Clone, Default)]
pub struct SimulationBuilder {
    base: Option<BasePreset>,
    cells: Option<CellTech>,
    policy: Option<RefreshPolicy>,
    policy_label: Option<String>,
    policy_model: Option<Arc<dyn PolicyFactory>>,
    retention: Option<RetentionConfig>,
    retention_us: Option<u64>,
    retention_profile: Option<RetentionProfile>,
    protocol: Option<CoherenceProtocol>,
    cores: Option<usize>,
    l3_banks: Option<usize>,
    seed: Option<u64>,
    refs_per_thread: Option<u64>,
    trace: Option<PathBuf>,
    registry: PolicyRegistry,
    registry_error: Option<String>,
    obs: Option<ObsConfig>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BasePreset {
    SramBaseline,
    EdramBaseline,
    EdramRecommended,
}

impl SimulationBuilder {
    /// Starts from the paper's full-SRAM baseline (no refresh, full
    /// leakage).
    #[must_use]
    pub fn sram_baseline(mut self) -> Self {
        self.base = Some(BasePreset::SramBaseline);
        self
    }

    /// Starts from the naive full-eDRAM baseline: `Periodic All` at 50 µs.
    #[must_use]
    pub fn edram_baseline(mut self) -> Self {
        self.base = Some(BasePreset::EdramBaseline);
        self
    }

    /// Starts from the paper's recommended configuration:
    /// `Refrint WB(32,32)` at 50 µs. This is the default preset.
    #[must_use]
    pub fn edram_recommended(mut self) -> Self {
        self.base = Some(BasePreset::EdramRecommended);
        self
    }

    /// Overrides the cell technology.
    #[must_use]
    pub fn cells(mut self, cells: CellTech) -> Self {
        self.cells = Some(cells);
        self
    }

    /// Sets the L3 refresh policy from a descriptor.
    #[must_use]
    pub fn policy(mut self, policy: RefreshPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the L3 refresh policy from a label (e.g. `R.WB(32,32)`),
    /// resolved at build time against the built-in grammar and any
    /// registered custom policies.
    #[must_use]
    pub fn policy_label(mut self, label: impl Into<String>) -> Self {
        self.policy_label = Some(label.into());
        self
    }

    /// Installs a custom refresh-policy model for the L3.
    #[must_use]
    pub fn policy_model(mut self, factory: Arc<dyn PolicyFactory>) -> Self {
        self.policy_model = Some(factory);
        self
    }

    /// Sets the coherence protocol (invalidation-based MESI — the default —
    /// or update-based Dragon).
    #[must_use]
    pub fn protocol(mut self, protocol: CoherenceProtocol) -> Self {
        self.protocol = Some(protocol);
        self
    }

    /// Sets the per-bank retention-variation profile (eDRAM only; the
    /// default `Uniform` profile leaves every bank at the nominal
    /// retention).
    #[must_use]
    pub fn retention_profile(mut self, profile: RetentionProfile) -> Self {
        self.retention_profile = Some(profile);
        self
    }

    /// Registers a custom policy so [`SimulationBuilder::policy_label`] can
    /// resolve its label. Registration failures (duplicate label) surface at
    /// build time as [`BuildError::Invalid`].
    #[must_use]
    pub fn register_policy(mut self, factory: Arc<dyn PolicyFactory>) -> Self {
        // Defer duplicate-label errors to build() so the fluent chain stays
        // infallible.
        if let Err(e) = self.registry.register(factory) {
            self.registry_error.get_or_insert(e.to_string());
        }
        self
    }

    /// Sets the eDRAM retention configuration.
    #[must_use]
    pub fn retention(mut self, retention: RetentionConfig) -> Self {
        self.retention = Some(retention);
        self
    }

    /// Sets the eDRAM retention time in microseconds at the paper's 1 GHz
    /// clock (50, 100 and 200 are the paper's sweep points; other values are
    /// accepted if they leave room for the sentry margin).
    #[must_use]
    pub fn retention_us(mut self, us: u64) -> Self {
        self.retention_us = Some(us);
        self
    }

    /// Shrinks or grows the chip; the L3 bank count follows the core count
    /// (one bank per tile) unless [`SimulationBuilder::l3_banks`] overrides
    /// it.
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = Some(cores);
        self
    }

    /// Overrides the L3 bank count (expert use; the model requires one bank
    /// per tile, so any value other than the core count fails at build).
    #[must_use]
    pub fn l3_banks(mut self, banks: usize) -> Self {
        self.l3_banks = Some(banks);
        self
    }

    /// Sets the workload seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Overrides the number of references each workload thread issues
    /// (scales simulated time; smaller is faster).
    #[must_use]
    pub fn refs_per_thread(mut self, refs: u64) -> Self {
        self.refs_per_thread = Some(refs);
        self
    }

    /// Replays a recorded trace instead of generating synthetic streams:
    /// [`Simulation::replay`] feeds the file's per-thread reference streams
    /// through the system. Unless [`SimulationBuilder::cores`] is set, the
    /// chip is sized to the trace's thread count; an explicit core count
    /// must match it (checked at build time, like the file's integrity).
    #[must_use]
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Turns on span-based observability (see the `refrint-obs` crate) for
    /// the built simulation. Recording observes without perturbing: every
    /// report field is byte-identical with observability on or off; only
    /// [`Simulation::obs_summary`] gains content.
    #[must_use]
    pub fn observability(mut self, cfg: ObsConfig) -> Self {
        self.obs = Some(cfg);
        self
    }

    /// Opens and checks the configured trace, if any.
    fn open_trace(&self) -> Result<Option<TraceFile>, BuildError> {
        let Some(path) = &self.trace else {
            return Ok(None);
        };
        let trace = TraceFile::open(path).map_err(|e| BuildError::Trace {
            reason: format!("{}: {e}", path.display()),
        })?;
        if let Some(cores) = self.cores {
            if trace.meta().threads != cores {
                return Err(BuildError::Trace {
                    reason: format!(
                        "{}: trace has {} threads but {cores} cores were configured",
                        path.display(),
                        trace.meta().threads
                    ),
                });
            }
        }
        Ok(Some(trace))
    }

    /// Composes and validates the configuration without instantiating the
    /// system.
    ///
    /// # Errors
    ///
    /// See [`BuildError`].
    pub fn build_config(&self) -> Result<SystemConfig, BuildError> {
        self.build_config_with(self.open_trace()?.as_ref())
    }

    fn build_config_with(&self, trace: Option<&TraceFile>) -> Result<SystemConfig, BuildError> {
        if let Some(reason) = &self.registry_error {
            return Err(BuildError::Invalid {
                reason: reason.clone(),
            });
        }
        let mut config = match self.base.unwrap_or(BasePreset::EdramRecommended) {
            BasePreset::SramBaseline => SystemConfig::sram_baseline(),
            BasePreset::EdramBaseline => SystemConfig::edram_baseline(),
            BasePreset::EdramRecommended => SystemConfig::edram_recommended(),
        };

        if let Some(cells) = self.cells {
            config.cells = cells;
        }

        // Resolve the policy specification (at most one of the three forms).
        let specs = usize::from(self.policy.is_some())
            + usize::from(self.policy_label.is_some())
            + usize::from(self.policy_model.is_some());
        if specs > 1 {
            return Err(BuildError::ConflictingPolicySpecs);
        }
        if !config.cells.needs_refresh() {
            if specs > 0 {
                return Err(BuildError::SramWithRefreshSettings { setting: "policy" });
            }
            if self.retention.is_some() || self.retention_us.is_some() {
                return Err(BuildError::SramWithRefreshSettings {
                    setting: "retention",
                });
            }
            if self.retention_profile.is_some_and(|p| !p.is_default()) {
                return Err(BuildError::SramWithRefreshSettings {
                    setting: "retention profile",
                });
            }
        }
        if let Some(policy) = self.policy {
            config = config.with_policy(policy);
        } else if let Some(label) = &self.policy_label {
            let factory = self
                .registry
                .resolve(label)
                .map_err(|_| BuildError::UnknownPolicy {
                    label: label.clone(),
                    valid: self.registry.valid_labels(),
                })?;
            // A label that parses as a descriptor keeps the descriptor path
            // (so private caches inherit its time policy); custom labels
            // install the factory.
            match label.parse::<RefreshPolicy>() {
                Ok(policy) => config = config.with_policy(policy),
                Err(_) => config = config.with_policy_model(factory),
            }
        } else if let Some(factory) = &self.policy_model {
            config = config.with_policy_model(Arc::clone(factory));
        }

        if let Some(retention) = self.retention {
            config = config.with_retention(retention);
        } else if let Some(us) = self.retention_us {
            let retention =
                RetentionConfig::from_microseconds(us).map_err(|e| BuildError::Invalid {
                    reason: e.to_string(),
                })?;
            config = config.with_retention(retention);
        }

        if let Some(profile) = self.retention_profile {
            config = config.with_retention_profile(profile);
        }
        if let Some(protocol) = self.protocol {
            config = config.with_protocol(protocol);
        }

        if let Some(cores) = self.cores {
            config.cores = cores;
            config.l3_banks = cores;
        } else if let Some(trace) = trace {
            // A replayed trace sizes the chip to its thread count.
            config.cores = trace.meta().threads;
            config.l3_banks = trace.meta().threads;
        }
        if let Some(banks) = self.l3_banks {
            config.l3_banks = banks;
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(refs) = self.refs_per_thread {
            config.refs_per_thread = Some(refs);
        }

        // The configuration rules live in SystemConfig::validate_typed;
        // this match only translates them into builder-level errors (new
        // rules surface via the Invalid fallback until given a variant).
        config.validate_typed().map_err(|e| match e {
            ConfigError::ZeroCores => BuildError::ZeroCores,
            ConfigError::TooManyCores { cores, torus_nodes } => {
                BuildError::TooManyCores { cores, torus_nodes }
            }
            ConfigError::BankCoreMismatch { l3_banks, cores } => {
                BuildError::BankCoreMismatch { l3_banks, cores }
            }
            ConfigError::RetentionTooShort {
                retention_cycles,
                sentry_margin,
            } => BuildError::RetentionTooShort {
                retention_cycles,
                sentry_margin,
            },
            ConfigError::SramWithPolicyModel => {
                BuildError::SramWithRefreshSettings { setting: "policy" }
            }
            ConfigError::SramWithRetentionProfile => BuildError::SramWithRefreshSettings {
                setting: "retention profile",
            },
            other => BuildError::Invalid {
                reason: other.to_string(),
            },
        })?;
        Ok(config)
    }

    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// See [`BuildError`].
    pub fn build(&self) -> Result<Simulation, BuildError> {
        let trace = self.open_trace()?;
        let config = self.build_config_with(trace.as_ref())?;
        let mut system = CmpSystem::new(config).map_err(|e| BuildError::Invalid {
            reason: e.to_string(),
        })?;
        if let Some(obs) = self.obs {
            system.enable_observability(obs);
        }
        Ok(Simulation { system, trace })
    }
}

/// One run point minus its workload: the overrides every front end
/// describes a simulation with — `refrint-cli run`/`obs`/`trace replay`
/// flags, a `POST /run` body, a coordinator's forwarded point and a sweep
/// plan point — and their one mapping onto [`SimulationBuilder`]. Unset
/// fields keep the preset's values: the recommended eDRAM chip, or the
/// SRAM baseline with `sram`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSpec {
    /// Start from the SRAM baseline instead of the recommended eDRAM chip.
    pub sram: bool,
    /// The L3 refresh policy.
    pub policy: Option<RefreshPolicy>,
    /// The eDRAM retention time in microseconds.
    pub retention_us: Option<u64>,
    /// The per-bank retention distribution.
    pub retention_profile: Option<RetentionProfile>,
    /// The coherence protocol.
    pub protocol: Option<CoherenceProtocol>,
    /// References per workload thread.
    pub refs: Option<u64>,
    /// The workload seed.
    pub seed: Option<u64>,
    /// Simulated cores (one L3 bank each).
    pub cores: Option<usize>,
}

impl RunSpec {
    /// The builder this spec describes.
    #[must_use]
    pub fn builder(&self) -> SimulationBuilder {
        SimulationBuilder {
            base: Some(if self.sram {
                BasePreset::SramBaseline
            } else {
                BasePreset::EdramRecommended
            }),
            policy: self.policy,
            retention_us: self.retention_us,
            retention_profile: self.retention_profile,
            protocol: self.protocol,
            cores: self.cores,
            seed: self.seed,
            refs_per_thread: self.refs,
            ..SimulationBuilder::default()
        }
    }
}

/// A ready-to-run simulated system, produced by [`Simulation::builder`].
#[derive(Debug)]
pub struct Simulation {
    system: CmpSystem,
    /// The opened trace when built with [`SimulationBuilder::trace`].
    trace: Option<TraceFile>,
}

impl Simulation {
    /// Starts building a simulation (default preset:
    /// [`SimulationBuilder::edram_recommended`]).
    #[must_use]
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// The configuration this simulation was built from.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        self.system.config()
    }

    /// Runs one of the named application presets.
    pub fn run(&mut self, app: AppPreset) -> RunOutcome {
        RunOutcome::new(self.system.run_model(&app.model()))
    }

    /// Runs an arbitrary workload model.
    pub fn run_model(&mut self, model: &WorkloadModel) -> RunOutcome {
        RunOutcome::new(self.system.run_model(model))
    }

    /// Replays the trace this simulation was built with
    /// ([`SimulationBuilder::trace`]). For a trace captured from the same
    /// configuration, the outcome's report is bit-identical to the live
    /// run's.
    ///
    /// # Errors
    ///
    /// [`RefrintError::Trace`] if no trace was configured or a record fails
    /// to decode.
    pub fn replay(&mut self) -> Result<RunOutcome, RefrintError> {
        let Some(trace) = &self.trace else {
            return Err(RefrintError::Trace {
                reason: "no trace configured: build with Simulation::builder().trace(path)".into(),
            });
        };
        let trace = trace.clone();
        Ok(RunOutcome::new(replay::replay(&mut self.system, &trace)?))
    }

    /// The trace this simulation will replay, if one was configured.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceFile> {
        self.trace.as_ref()
    }

    /// Records the reference streams this simulation would run for `app`
    /// (same seed, core count and scale) to a trace at `path`, so
    /// [`SimulationBuilder::trace`] can replay the run elsewhere.
    ///
    /// # Errors
    ///
    /// [`RefrintError::Trace`] on I/O failures.
    pub fn capture(
        &self,
        app: AppPreset,
        path: impl AsRef<Path>,
    ) -> Result<TraceMeta, RefrintError> {
        self.capture_model(&app.model(), path)
    }

    /// Records an arbitrary workload model to a trace at `path`.
    ///
    /// # Errors
    ///
    /// See [`Simulation::capture`].
    pub fn capture_model(
        &self,
        model: &WorkloadModel,
        path: impl AsRef<Path>,
    ) -> Result<TraceMeta, RefrintError> {
        replay::capture_to_path(self.system.config(), model, path)
    }

    /// The underlying system simulator, for advanced use.
    #[must_use]
    pub fn system_mut(&mut self) -> &mut CmpSystem {
        &mut self.system
    }

    /// The observability summary collected so far (subsystem attribution
    /// and sampled spans). Empty totals unless the simulation was built
    /// with [`SimulationBuilder::observability`].
    #[must_use]
    pub fn obs_summary(&self) -> ObsSummary {
        self.system.obs_summary()
    }
}

/// The structured result of one simulation run: the raw [`SimReport`] plus
/// convenience accessors for the energy breakdown and the relative metrics
/// the paper's figures plot.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The full report (execution time, event counts, energy, statistics).
    pub report: SimReport,
}

impl RunOutcome {
    fn new(report: SimReport) -> Self {
        RunOutcome { report }
    }

    /// Label of the configuration that produced this outcome.
    #[must_use]
    pub fn config_label(&self) -> &str {
        &self.report.config_label
    }

    /// Name of the workload that was run.
    #[must_use]
    pub fn workload(&self) -> &str {
        &self.report.workload
    }

    /// Execution time in cycles.
    #[must_use]
    pub fn execution_cycles(&self) -> u64 {
        self.report.execution_cycles
    }

    /// The energy breakdown of the run.
    #[must_use]
    pub fn breakdown(&self) -> &EnergyBreakdown {
        &self.report.breakdown
    }

    /// Total refreshes across the hierarchy.
    #[must_use]
    pub fn total_refreshes(&self) -> u64 {
        self.report.counts.total_refreshes()
    }

    /// Total DRAM accesses (reads + writes).
    #[must_use]
    pub fn dram_accesses(&self) -> u64 {
        self.report.counts.dram_accesses()
    }

    /// Memory-hierarchy energy in joules.
    #[must_use]
    pub fn memory_energy(&self) -> f64 {
        self.report.breakdown.memory_total()
    }

    /// Total system energy in joules.
    #[must_use]
    pub fn system_energy(&self) -> f64 {
        self.report.breakdown.total_system()
    }

    /// This outcome's headline metrics relative to a baseline run (1.0 =
    /// same as baseline; lower is better).
    #[must_use]
    pub fn vs(&self, baseline: &RunOutcome) -> RelativeMetrics {
        RelativeMetrics {
            slowdown: self.report.slowdown_vs(&baseline.report),
            memory_energy: self.report.memory_energy_vs(&baseline.report),
            system_energy: self.report.system_energy_vs(&baseline.report),
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.report.fmt(f)
    }
}

/// Headline metrics of one run normalised to a baseline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeMetrics {
    /// Execution time ratio.
    pub slowdown: f64,
    /// Memory-hierarchy energy ratio.
    pub memory_energy: f64,
    /// Total system energy ratio.
    pub system_energy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint_edram::model::{PolicyBinding, RefreshPolicyModel};
    use refrint_edram::policy::{DataPolicy, TimePolicy};

    #[test]
    fn presets_build_and_label_correctly() {
        let sram = Simulation::builder().sram_baseline().build().unwrap();
        assert_eq!(sram.config().label(), "SRAM");
        let naive = Simulation::builder().edram_baseline().build().unwrap();
        assert_eq!(naive.config().label(), "eDRAM 50us P.all");
        let recommended = Simulation::builder().edram_recommended().build().unwrap();
        assert_eq!(recommended.config().label(), "eDRAM 50us R.WB(32,32)");
        // The default preset is the recommended configuration.
        let default = Simulation::builder().build().unwrap();
        assert_eq!(default.config().label(), recommended.config().label());
    }

    #[test]
    fn overrides_compose_in_any_order() {
        let a = Simulation::builder()
            .cores(4)
            .seed(9)
            .policy(RefreshPolicy::new(TimePolicy::Periodic, DataPolicy::Dirty))
            .retention_us(100)
            .refs_per_thread(500)
            .build_config()
            .unwrap();
        let b = Simulation::builder()
            .retention_us(100)
            .refs_per_thread(500)
            .policy(RefreshPolicy::new(TimePolicy::Periodic, DataPolicy::Dirty))
            .seed(9)
            .cores(4)
            .build_config()
            .unwrap();
        assert_eq!(a.label(), b.label());
        assert_eq!(a.cores, b.cores);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.refs_per_thread, b.refs_per_thread);
    }

    #[test]
    fn zero_cores_is_a_typed_error() {
        let err = Simulation::builder().cores(0).build().unwrap_err();
        assert_eq!(err, BuildError::ZeroCores);
        assert!(err.to_string().contains("at least one core"));
    }

    #[test]
    fn bank_mismatch_is_a_typed_error() {
        let err = Simulation::builder()
            .cores(4)
            .l3_banks(8)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::BankCoreMismatch {
                l3_banks: 8,
                cores: 4
            }
        );
    }

    #[test]
    fn too_many_cores_is_a_typed_error() {
        let err = Simulation::builder().cores(17).build().unwrap_err();
        assert_eq!(
            err,
            BuildError::TooManyCores {
                cores: 17,
                torus_nodes: 16
            }
        );
    }

    #[test]
    fn sram_with_refresh_settings_is_a_typed_error() {
        let err = Simulation::builder()
            .sram_baseline()
            .policy(RefreshPolicy::recommended())
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::SramWithRefreshSettings { setting: "policy" }
        );
        let err = Simulation::builder()
            .sram_baseline()
            .retention_us(100)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::SramWithRefreshSettings {
                setting: "retention"
            }
        );
        // Explicitly selecting eDRAM cells over the SRAM preset is fine.
        assert!(Simulation::builder()
            .sram_baseline()
            .cells(CellTech::Edram)
            .retention_us(100)
            .build()
            .is_ok());
    }

    #[test]
    fn short_retention_is_a_typed_error() {
        let err = Simulation::builder().retention_us(10).build().unwrap_err();
        match err {
            BuildError::RetentionTooShort {
                retention_cycles,
                sentry_margin,
            } => {
                assert_eq!(retention_cycles, 10_000);
                assert!(sentry_margin >= retention_cycles);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn unknown_labels_list_valid_ones() {
        let err = Simulation::builder()
            .policy_label("R.sometimes")
            .build()
            .unwrap_err();
        match &err {
            BuildError::UnknownPolicy { label, valid } => {
                assert_eq!(label, "R.sometimes");
                assert!(valid.iter().any(|l| l == "R.WB(32,32)"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(err.to_string().contains("R.WB(32,32)"));
    }

    #[test]
    fn conflicting_policy_specs_are_rejected() {
        let err = Simulation::builder()
            .policy(RefreshPolicy::recommended())
            .policy_label("P.all")
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::ConflictingPolicySpecs);
    }

    #[test]
    fn every_builtin_label_round_trips_through_the_builder() {
        for policy in RefreshPolicy::paper_sweep() {
            let config = Simulation::builder()
                .policy_label(policy.label())
                .build_config()
                .unwrap();
            assert_eq!(config.policy, policy, "{}", policy.label());
        }
    }

    /// A custom model: refresh valid lines every opportunity, forever.
    #[derive(Debug)]
    struct AlwaysValid {
        period: refrint_engine::time::Cycle,
    }
    impl RefreshPolicyModel for AlwaysValid {
        fn label(&self) -> String {
            "custom-valid".into()
        }
        fn opportunity(
            &self,
            touch: refrint_engine::time::Cycle,
            k: u64,
        ) -> refrint_engine::time::Cycle {
            touch + self.period * k
        }
        fn opportunity_period(&self) -> refrint_engine::time::Cycle {
            self.period
        }
        fn action(
            &self,
            kind: refrint_edram::schedule::LineKind,
            _so_far: u64,
        ) -> refrint_edram::model::RefreshAction {
            match kind {
                refrint_edram::schedule::LineKind::Invalid => {
                    refrint_edram::model::RefreshAction::Skip
                }
                _ => refrint_edram::model::RefreshAction::Refresh,
            }
        }
    }

    #[derive(Debug)]
    struct AlwaysValidFactory;
    impl PolicyFactory for AlwaysValidFactory {
        fn label(&self) -> String {
            "custom-valid".into()
        }
        fn build(&self, binding: &PolicyBinding) -> Arc<dyn RefreshPolicyModel> {
            Arc::new(AlwaysValid {
                period: binding.sentry_period(),
            })
        }
    }

    #[test]
    fn custom_policy_models_run_end_to_end() {
        let mut sim = Simulation::builder()
            .policy_model(Arc::new(AlwaysValidFactory))
            .cores(2)
            .refs_per_thread(1_500)
            .build()
            .unwrap();
        assert_eq!(sim.config().label(), "eDRAM 50us custom-valid");
        let outcome = sim.run(AppPreset::Lu);
        assert!(outcome.total_refreshes() > 0);
        assert_eq!(outcome.config_label(), "eDRAM 50us custom-valid");
    }

    #[test]
    fn registered_custom_labels_resolve() {
        let mut sim = Simulation::builder()
            .register_policy(Arc::new(AlwaysValidFactory))
            .policy_label("custom-valid")
            .cores(2)
            .refs_per_thread(1_000)
            .build()
            .unwrap();
        let outcome = sim.run(AppPreset::Fft);
        assert_eq!(outcome.config_label(), "eDRAM 50us custom-valid");
    }

    #[test]
    fn custom_model_on_sram_is_rejected() {
        let err = Simulation::builder()
            .sram_baseline()
            .policy_model(Arc::new(AlwaysValidFactory))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::SramWithRefreshSettings { setting: "policy" }
        );
    }

    /// A model declaring an impossible global burst period: too short to
    /// refresh every line of the cache within one period.
    #[derive(Debug)]
    struct ImpossibleBurst;
    impl RefreshPolicyModel for ImpossibleBurst {
        fn label(&self) -> String {
            "impossible-burst".into()
        }
        fn opportunity(
            &self,
            _touch: refrint_engine::time::Cycle,
            k: u64,
        ) -> refrint_engine::time::Cycle {
            refrint_engine::time::Cycle::new(10) * k
        }
        fn opportunity_period(&self) -> refrint_engine::time::Cycle {
            refrint_engine::time::Cycle::new(10)
        }
        fn periodic_burst_period(&self) -> Option<refrint_engine::time::Cycle> {
            Some(refrint_engine::time::Cycle::new(10))
        }
        fn action(
            &self,
            _kind: refrint_edram::schedule::LineKind,
            _so_far: u64,
        ) -> refrint_edram::model::RefreshAction {
            refrint_edram::model::RefreshAction::Refresh
        }
    }

    #[derive(Debug)]
    struct ImpossibleBurstFactory;
    impl PolicyFactory for ImpossibleBurstFactory {
        fn label(&self) -> String {
            "impossible-burst".into()
        }
        fn build(&self, _binding: &PolicyBinding) -> Arc<dyn RefreshPolicyModel> {
            Arc::new(ImpossibleBurst)
        }
    }

    #[test]
    fn impossible_burst_periods_error_instead_of_panicking() {
        let err = Simulation::builder()
            .policy_model(Arc::new(ImpossibleBurstFactory))
            .cores(2)
            .build()
            .unwrap_err();
        assert!(
            err.to_string().contains("burst period"),
            "expected a burst-period error, got: {err}"
        );
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("refrint-sim-{}-{name}", std::process::id()))
    }

    #[test]
    fn missing_trace_files_are_typed_build_errors() {
        let err = Simulation::builder()
            .trace("/nonexistent/refrint.rft")
            .build()
            .unwrap_err();
        match &err {
            BuildError::Trace { reason } => assert!(reason.contains("refrint.rft"), "{reason}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn corrupt_trace_files_are_typed_build_errors() {
        let path = tmp("corrupt.rft");
        std::fs::write(&path, b"not a trace at all").unwrap();
        let err = Simulation::builder().trace(&path).build().unwrap_err();
        match &err {
            BuildError::Trace { reason } => assert!(reason.contains("magic"), "{reason}"),
            other => panic!("unexpected error {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_without_a_trace_is_a_typed_error() {
        let mut sim = Simulation::builder().cores(2).build().unwrap();
        let err = sim.replay().unwrap_err();
        assert!(matches!(err, RefrintError::Trace { .. }), "{err}");
    }

    #[test]
    fn traces_size_the_chip_and_replay_identically() {
        let path = tmp("builder-roundtrip.rft");
        let builder = || {
            Simulation::builder()
                .edram_recommended()
                .cores(2)
                .refs_per_thread(900)
                .seed(21)
        };
        let meta = builder()
            .build()
            .unwrap()
            .capture(AppPreset::Barnes, &path)
            .unwrap();
        assert_eq!(meta.threads, 2);

        // Without .cores(), the chip adopts the trace's thread count.
        let mut replayer = Simulation::builder()
            .edram_recommended()
            .refs_per_thread(900)
            .seed(21)
            .trace(&path)
            .build()
            .unwrap();
        assert_eq!(replayer.config().cores, 2);
        assert_eq!(replayer.trace().unwrap().meta().workload, "barnes");
        let live = builder().build().unwrap().run(AppPreset::Barnes);
        let replayed = replayer.replay().unwrap();
        assert_eq!(
            format!("{:?}", live.report),
            format!("{:?}", replayed.report)
        );

        // An explicit core count that disagrees is rejected at build time.
        let err = Simulation::builder()
            .cores(4)
            .trace(&path)
            .build()
            .unwrap_err();
        match &err {
            BuildError::Trace { reason } => assert!(reason.contains("2 threads"), "{reason}"),
            other => panic!("unexpected error {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builder_plumbs_protocol_and_retention_profile() {
        let cfg = Simulation::builder()
            .edram_recommended()
            .protocol(CoherenceProtocol::Dragon)
            .retention_profile(RetentionProfile::Normal { sigma_pct: 10 })
            .cores(2)
            .build_config()
            .unwrap();
        assert_eq!(cfg.protocol, CoherenceProtocol::Dragon);
        assert_eq!(
            cfg.retention_profile,
            RetentionProfile::Normal { sigma_pct: 10 }
        );
        assert!(cfg.label().contains("dragon"), "{}", cfg.label());
        assert!(cfg.label().contains("normal(10)"), "{}", cfg.label());
    }

    #[test]
    fn sram_rejects_retention_profiles_with_a_typed_error() {
        let err = Simulation::builder()
            .sram_baseline()
            .retention_profile(RetentionProfile::Bimodal {
                weak_pct: 25,
                weak_retention_pct: 60,
            })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::SramWithRefreshSettings {
                setting: "retention profile"
            }
        );
        // A spelled-out Uniform profile is the default: SRAM accepts it.
        let cfg = Simulation::builder()
            .sram_baseline()
            .retention_profile(RetentionProfile::Uniform)
            .build_config()
            .unwrap();
        assert_eq!(
            format!("{cfg:?}"),
            format!("{:?}", SystemConfig::sram_baseline())
        );
    }

    #[test]
    fn dragon_on_sram_is_accepted() {
        // Coherence is orthogonal to the cell technology.
        let cfg = Simulation::builder()
            .sram_baseline()
            .protocol(CoherenceProtocol::Dragon)
            .cores(2)
            .build_config()
            .unwrap();
        assert_eq!(cfg.protocol, CoherenceProtocol::Dragon);
    }

    #[test]
    fn outcomes_compare_against_baselines() {
        let mut sram = Simulation::builder()
            .sram_baseline()
            .cores(4)
            .refs_per_thread(2_000)
            .build()
            .unwrap();
        let mut edram = Simulation::builder()
            .edram_recommended()
            .cores(4)
            .refs_per_thread(2_000)
            .build()
            .unwrap();
        let base = sram.run(AppPreset::Lu);
        let out = edram.run(AppPreset::Lu);
        let rel = out.vs(&base);
        assert!(rel.slowdown > 0.0);
        assert!(rel.memory_energy > 0.0 && rel.memory_energy < 2.0);
        assert!(rel.system_energy > 0.0);
        assert!(out.to_string().contains("memory energy"));
    }
}
