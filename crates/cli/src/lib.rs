//! Argument parsing and command plumbing for `refrint-cli`, kept in a
//! library so every parser is unit-testable.
//!
//! The CLI is a thin shell over [`refrint::simulation::Simulation`] (single
//! runs) and [`refrint::sweep::SweepRunner`] (policy sweeps); everything
//! user-facing — flag parsing, policy-label resolution with helpful errors,
//! sweep sizing — lives here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::str::FromStr;

use refrint::experiment::ExperimentConfig;
use refrint::simulation::{ObsConfig, RunSpec, SimulationBuilder};
use refrint::{CoherenceProtocol, RetentionProfile};
use refrint_edram::model::PolicyRegistry;
use refrint_edram::policy::RefreshPolicy;
use refrint_obs::log::LogFormat;
use refrint_workloads::apps::AppPreset;

/// Returns the value following `name` in `args`, if present.
#[must_use]
pub fn opt_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether the bare flag `name` is present.
#[must_use]
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Returns every value following an occurrence of `name` in `args`
/// (for repeatable options such as `--trace`).
#[must_use]
pub fn opt_values(args: &[String], name: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].clone())
        .collect()
}

/// Parses a `--policy` label, round-tripping every label
/// [`RefreshPolicy::label`] can emit (`P.all`, `R.valid`, `R.WB(32,32)`,
/// long forms like `periodic.dirty`, …). On mismatch the error lists every
/// valid label so the user can fix the invocation without reading the
/// source.
///
/// # Errors
///
/// Returns a human-readable message enumerating the valid labels.
pub fn parse_policy(label: &str) -> Result<RefreshPolicy, String> {
    match label.parse::<RefreshPolicy>() {
        Ok(policy) => Ok(policy),
        Err(_) => Err(PolicyRegistry::new()
            .resolve(label)
            .expect_err("label failed to parse as a descriptor")
            .to_string()),
    }
}

/// Parses a comma-separated `--apps` list.
///
/// # Errors
///
/// Returns the underlying parse error for the first unknown application.
pub fn parse_apps(list: &str) -> Result<Vec<AppPreset>, String> {
    list.split(',')
        .map(|name| name.trim().parse::<AppPreset>().map_err(|e| e.to_string()))
        .collect()
}

/// Parses a `--protocol` label (`mesi` or `dragon`).
///
/// # Errors
///
/// Returns a message listing the valid protocol labels.
pub fn parse_protocol(label: &str) -> Result<CoherenceProtocol, String> {
    label.parse::<CoherenceProtocol>()
}

/// Parses a `--retention-profile` label — exactly what
/// [`RetentionProfile::label`] prints: `uniform`, `normal(SIGMA)`, or
/// `bimodal(WEAK,RETENTION)`.
///
/// # Errors
///
/// Returns the profile grammar error as a string.
pub fn parse_retention_profile(label: &str) -> Result<RetentionProfile, String> {
    label.parse::<RetentionProfile>().map_err(|e| e.to_string())
}

/// How a report is rendered to stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// The human-readable report (default).
    #[default]
    Text,
    /// A machine-consumable JSON document.
    Json,
}

/// Parses the optional `--format text|json` flag.
///
/// # Errors
///
/// Returns a usage message for unknown formats.
pub fn parse_format(args: &[String]) -> Result<OutputFormat, String> {
    match opt_value(args, "--format").as_deref() {
        None | Some("text") => Ok(OutputFormat::Text),
        Some("json") => Ok(OutputFormat::Json),
        Some(other) => Err(format!(
            "unknown --format `{other}` (expected `text` or `json`)"
        )),
    }
}

/// Parses the optional value of `flag`; a value that does not parse is a
/// usage error naming the flag.
fn opt_parsed<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    opt_value(args, flag)
        .map(|v| v.parse().map_err(|_| format!("bad {flag} `{v}`")))
        .transpose()
}

/// Parses the run overrides `run`, `obs` and `trace replay` share —
/// exactly the fields a `POST /run` body accepts: `--sram`, `--policy`,
/// `--retention`, `--retention-profile`, `--protocol`, `--refs`, `--seed`
/// and `--cores`.
///
/// # Errors
///
/// Returns a usage message for an invalid value.
pub fn parse_run_spec(args: &[String]) -> Result<RunSpec, String> {
    Ok(RunSpec {
        sram: has_flag(args, "--sram"),
        policy: opt_value(args, "--policy")
            .map(|p| parse_policy(&p))
            .transpose()?,
        retention_us: opt_parsed(args, "--retention")?,
        retention_profile: opt_value(args, "--retention-profile")
            .map(|p| parse_retention_profile(&p))
            .transpose()?,
        protocol: opt_value(args, "--protocol")
            .map(|p| parse_protocol(&p))
            .transpose()?,
        refs: opt_parsed(args, "--refs")?,
        seed: opt_parsed(args, "--seed")?,
        cores: opt_parsed(args, "--cores")?,
    })
}

/// Options of the `run` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// The application to run.
    pub app: AppPreset,
    /// The run overrides ([`parse_run_spec`]).
    pub spec: RunSpec,
    /// Print the observability attribution table to stderr after the
    /// report (`--timing`; default sampling, stdout bytes unchanged).
    pub timing: bool,
    /// Output rendering.
    pub format: OutputFormat,
}

impl RunOptions {
    /// Parses `run` subcommand arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message for missing/invalid options.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let app_name = opt_value(args, "--app").ok_or("run requires --app <name>")?;
        let app: AppPreset = app_name.parse().map_err(|e| format!("{e}"))?;
        Ok(RunOptions {
            app,
            spec: parse_run_spec(args)?,
            timing: has_flag(args, "--timing"),
            format: parse_format(args)?,
        })
    }

    /// The simulation builder these options describe.
    #[must_use]
    pub fn builder(&self) -> SimulationBuilder {
        let builder = self.spec.builder();
        if self.timing {
            builder.observability(ObsConfig::default())
        } else {
            builder
        }
    }
}

/// Options of the `obs` subcommand: one fully-sampled run whose product is
/// the observability export (OTLP-shaped JSON by default, the attribution
/// table with `--format text`) rather than the simulation report.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsOptions {
    /// The application to run.
    pub app: AppPreset,
    /// The run overrides ([`parse_run_spec`]).
    pub spec: RunSpec,
    /// Sample every Nth event (default 1: full sampling).
    pub sample_every: u32,
    /// Print the subsystem critical-path report instead of the export
    /// (`--critical-path`).
    pub critical_path: bool,
    /// Output rendering (JSON by default, unlike `run`).
    pub format: OutputFormat,
}

impl ObsOptions {
    /// Parses `obs` subcommand arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message for missing/invalid options.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let app: AppPreset = opt_value(args, "--app")
            .ok_or("obs requires --app <name>")?
            .parse()
            .map_err(|e| format!("{e}"))?;
        let sample_every = match opt_parsed::<u32>(args, "--sample")? {
            None => 1,
            Some(0) => return Err("--sample must be at least 1".into()),
            Some(n) => n,
        };
        // The export is the point of this subcommand, so JSON is the
        // default; `--format text` prints the attribution table instead.
        let format = match opt_value(args, "--format").as_deref() {
            None | Some("json") => OutputFormat::Json,
            Some("text") => OutputFormat::Text,
            Some(other) => {
                return Err(format!(
                    "unknown --format `{other}` (expected `text` or `json`)"
                ))
            }
        };
        Ok(ObsOptions {
            app,
            spec: parse_run_spec(args)?,
            sample_every,
            critical_path: has_flag(args, "--critical-path"),
            format,
        })
    }

    /// The simulation builder these options describe, observability
    /// enabled at the requested sampling rate.
    #[must_use]
    pub fn builder(&self) -> SimulationBuilder {
        self.spec
            .builder()
            .observability(ObsConfig::sampled(self.sample_every))
    }
}

/// Options of the `sweep` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// References per thread, if overridden.
    pub refs: Option<u64>,
    /// Applications to sweep, if restricted.
    pub apps: Option<Vec<AppPreset>>,
    /// Worker threads (`--jobs`); `None` means one per CPU.
    pub jobs: Option<usize>,
    /// Cores per simulated chip (`--cores`); traces require a matching
    /// thread count.
    pub cores: Option<usize>,
    /// Print per-run progress to stderr.
    pub progress: bool,
    /// Coherence protocols to sweep (`--protocol`, repeatable); empty
    /// means MESI only.
    pub protocols: Vec<CoherenceProtocol>,
    /// Per-bank retention distributions to sweep (`--retention-profile`,
    /// repeatable; labels may contain commas, hence no comma-list form);
    /// empty means uniform only.
    pub retention_profiles: Vec<RetentionProfile>,
    /// Traces to sweep alongside the applications (`--trace`, repeatable).
    pub traces: Vec<PathBuf>,
    /// Output rendering.
    pub format: OutputFormat,
}

impl SweepOptions {
    /// Parses `sweep` subcommand arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message for invalid options.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let apps = opt_value(args, "--apps")
            .map(|list| parse_apps(&list))
            .transpose()?;
        let jobs = opt_parsed::<usize>(args, "--jobs")?;
        if jobs == Some(0) {
            return Err("--jobs must be at least 1".into());
        }
        let protocols = opt_values(args, "--protocol")
            .iter()
            .map(|p| parse_protocol(p))
            .collect::<Result<Vec<_>, _>>()?;
        let retention_profiles = opt_values(args, "--retention-profile")
            .iter()
            .map(|p| parse_retention_profile(p))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepOptions {
            refs: opt_parsed(args, "--refs")?,
            apps,
            jobs,
            cores: opt_parsed(args, "--cores")?,
            progress: has_flag(args, "--progress"),
            protocols,
            retention_profiles,
            traces: opt_values(args, "--trace")
                .into_iter()
                .map(Into::into)
                .collect(),
            format: parse_format(args)?,
        })
    }

    /// The experiment configuration these options describe (based on the
    /// quick sweep). Each `--trace` file's header is read to key its
    /// reports by the recorded workload name.
    ///
    /// # Errors
    ///
    /// Returns the error message for an unreadable trace file.
    pub fn experiment(&self) -> Result<ExperimentConfig, String> {
        let mut cfg = ExperimentConfig::quick();
        if let Some(refs) = self.refs {
            cfg = cfg.with_refs_per_thread(refs);
        }
        if let Some(apps) = &self.apps {
            cfg = cfg.with_apps(apps.clone());
        }
        if let Some(cores) = self.cores {
            cfg.cores = cores;
        }
        if !self.protocols.is_empty() {
            cfg = cfg.with_protocols(self.protocols.clone());
        }
        if !self.retention_profiles.is_empty() {
            cfg = cfg.with_retention_profiles(self.retention_profiles.clone());
        }
        for path in &self.traces {
            let spec =
                refrint::experiment::TraceSpec::from_path(path).map_err(|e| e.to_string())?;
            cfg = cfg.with_trace(spec);
        }
        Ok(cfg)
    }
}

/// Options of the `trace record` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecordOptions {
    /// The application preset to record.
    pub app: AppPreset,
    /// Output trace path.
    pub out: PathBuf,
    /// Threads/cores to record, if overridden.
    pub cores: Option<usize>,
    /// References per thread, if overridden.
    pub refs: Option<u64>,
    /// Workload seed, if overridden.
    pub seed: Option<u64>,
}

impl TraceRecordOptions {
    /// Parses `trace record` arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message for missing/invalid options.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let app: AppPreset = opt_value(args, "--app")
            .ok_or("trace record requires --app <name>")?
            .parse()
            .map_err(|e| format!("{e}"))?;
        let out = opt_value(args, "--out").ok_or("trace record requires --out <path>")?;
        Ok(TraceRecordOptions {
            app,
            out: out.into(),
            cores: opt_parsed(args, "--cores")?,
            refs: opt_parsed(args, "--refs")?,
            seed: opt_parsed(args, "--seed")?,
        })
    }

    /// The builder describing the chip the trace is recorded for.
    #[must_use]
    pub fn builder(&self) -> SimulationBuilder {
        RunSpec {
            cores: self.cores,
            refs: self.refs,
            seed: self.seed,
            ..RunSpec::default()
        }
        .builder()
    }
}

/// Options of the `trace replay` subcommand: the trace plus the same run
/// overrides as `run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReplayOptions {
    /// The trace to replay.
    pub trace: PathBuf,
    /// The run overrides ([`parse_run_spec`]).
    pub spec: RunSpec,
    /// Output rendering.
    pub format: OutputFormat,
}

impl TraceReplayOptions {
    /// Parses `trace replay` arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message for missing/invalid options.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let trace = opt_value(args, "--trace").ok_or("trace replay requires --trace <path>")?;
        Ok(TraceReplayOptions {
            trace: trace.into(),
            spec: parse_run_spec(args)?,
            format: parse_format(args)?,
        })
    }

    /// The simulation builder these options describe.
    #[must_use]
    pub fn builder(&self) -> SimulationBuilder {
        self.spec.builder().trace(&self.trace)
    }
}

/// Options of the `trace info` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceInfoOptions {
    /// The trace to summarize.
    pub trace: PathBuf,
    /// Output rendering.
    pub format: OutputFormat,
}

impl TraceInfoOptions {
    /// Parses `trace info` arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message if `--trace` is missing or the format is
    /// unknown.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let trace = opt_value(args, "--trace").ok_or("trace info requires --trace <path>")?;
        Ok(TraceInfoOptions {
            trace: trace.into(),
            format: parse_format(args)?,
        })
    }
}

/// Options of the `serve` subcommand: the listen address plus the server
/// tunables worth exposing on the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Address to listen on (e.g. `127.0.0.1:7878`).
    pub addr: String,
    /// Simulation worker threads, if overridden.
    pub workers: Option<usize>,
    /// Job-queue capacity, if overridden.
    pub queue: Option<usize>,
    /// Result-cache capacity, if overridden.
    pub cache: Option<usize>,
    /// Request-body size limit in bytes, if overridden.
    pub max_body: Option<usize>,
    /// Directory trace workloads are served from.
    pub trace_dir: Option<PathBuf>,
    /// Structured-log format (`--log-format json|text`), if overridden.
    pub log_format: Option<LogFormat>,
    /// Coordinator mode: dispatch jobs to backends instead of simulating
    /// locally (`--coordinator`).
    pub coordinator: bool,
    /// Backend addresses to register at startup (repeatable `--backend`).
    pub backends: Vec<String>,
    /// Directory of the persistent result cache (`--cache-dir`).
    pub cache_dir: Option<PathBuf>,
}

/// Parsed options of the `check` subcommand (differential conformance
/// against the `refrint-oracle` reference model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOptions {
    /// Master seed of the scenario stream.
    pub seed: u64,
    /// How many scenarios to run.
    pub scenarios: u64,
    /// A single explicit scenario spec (repro mode), overriding the
    /// seeded stream.
    pub scenario: Option<String>,
    /// Pin every generated scenario's coherence protocol (the CI
    /// conformance matrix runs one leg per protocol).
    pub protocol: Option<CoherenceProtocol>,
    /// Run with the off-by-one fault injected into the oracle and expect
    /// the harness to catch it (harness self-test).
    pub self_test: bool,
    /// Print a progress line per scenario.
    pub progress: bool,
}

impl CheckOptions {
    /// The seed `tests/conformance.rs` and the CI job use.
    pub const DEFAULT_SEED: u64 = 0xC0FFEE;

    /// Parses `check` arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message for invalid options.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let seed = match opt_value(args, "--seed") {
            None => Self::DEFAULT_SEED,
            Some(v) => parse_u64(&v).ok_or_else(|| format!("bad --seed `{v}`"))?,
        };
        let scenarios = match opt_value(args, "--scenarios") {
            None => 200,
            Some(v) => {
                let n = parse_u64(&v).ok_or_else(|| format!("bad --scenarios `{v}`"))?;
                if n == 0 {
                    return Err("--scenarios must be at least 1".into());
                }
                n
            }
        };
        Ok(CheckOptions {
            seed,
            scenarios,
            scenario: opt_value(args, "--scenario"),
            protocol: opt_value(args, "--protocol")
                .map(|p| parse_protocol(&p))
                .transpose()?,
            self_test: has_flag(args, "--self-test"),
            progress: has_flag(args, "--progress"),
        })
    }
}

/// Parses a decimal or `0x`-prefixed hexadecimal `u64`.
#[must_use]
pub fn parse_u64(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

impl ServeOptions {
    /// Parses `serve` arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message for missing/invalid options.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let addr = opt_value(args, "--addr").ok_or("serve requires --addr HOST:PORT")?;
        let positive = |flag: &str| -> Result<Option<usize>, String> {
            match opt_value(args, flag) {
                None => Ok(None),
                Some(v) => {
                    let n: usize = v.parse().map_err(|_| format!("bad {flag} `{v}`"))?;
                    if n == 0 {
                        return Err(format!("{flag} must be at least 1"));
                    }
                    Ok(Some(n))
                }
            }
        };
        let log_format = match opt_value(args, "--log-format").as_deref() {
            None => None,
            Some("text") => Some(LogFormat::Text),
            Some("json") => Some(LogFormat::Json),
            Some(other) => {
                return Err(format!(
                    "unknown --log-format `{other}` (expected `text` or `json`)"
                ))
            }
        };
        let coordinator = has_flag(args, "--coordinator");
        let backends = opt_values(args, "--backend");
        if !coordinator && !backends.is_empty() {
            return Err("--backend only makes sense with --coordinator".into());
        }
        Ok(ServeOptions {
            addr,
            workers: positive("--workers")?,
            queue: positive("--queue")?,
            cache: positive("--cache")?,
            max_body: positive("--max-body")?,
            trace_dir: opt_value(args, "--trace-dir").map(Into::into),
            log_format,
            coordinator,
            backends,
            cache_dir: opt_value(args, "--cache-dir").map(Into::into),
        })
    }

    /// The server options these flags describe (defaults filled from
    /// [`refrint_serve::ServerOptions::default`]).
    #[must_use]
    pub fn server_options(&self) -> refrint_serve::ServerOptions {
        let mut options = refrint_serve::ServerOptions::default();
        if let Some(workers) = self.workers {
            options.workers = workers;
        }
        if let Some(queue) = self.queue {
            options.queue_capacity = queue;
        }
        if let Some(cache) = self.cache {
            options.cache_capacity = cache;
        }
        if let Some(max_body) = self.max_body {
            options.max_body_bytes = max_body;
        }
        options.trace_dir = self.trace_dir.clone();
        if let Some(format) = self.log_format {
            options.log_format = format;
        }
        if self.coordinator {
            options.coordinator = Some(refrint_serve::coordinator::CoordinatorOptions {
                backends: self.backends.clone(),
                ..refrint_serve::coordinator::CoordinatorOptions::default()
            });
        }
        options.disk_cache_dir = self.cache_dir.clone();
        options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint_edram::policy::{DataPolicy, TimePolicy};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn every_label_emitted_by_refresh_policy_round_trips() {
        // The 14 paper-sweep labels plus assorted WB budgets and the long
        // forms: `--policy` must accept exactly what `label()` prints.
        let mut policies = RefreshPolicy::paper_sweep();
        policies.push(RefreshPolicy::new(
            TimePolicy::Refrint,
            DataPolicy::write_back(0, 0),
        ));
        policies.push(RefreshPolicy::new(
            TimePolicy::Periodic,
            DataPolicy::write_back(7, 123),
        ));
        for policy in policies {
            let parsed = parse_policy(&policy.label())
                .unwrap_or_else(|e| panic!("{} did not round-trip: {e}", policy.label()));
            assert_eq!(parsed, policy, "{}", policy.label());
        }
        assert_eq!(
            parse_policy("periodic.dirty").unwrap(),
            RefreshPolicy::new(TimePolicy::Periodic, DataPolicy::Dirty)
        );
    }

    #[test]
    fn bad_policy_labels_list_the_valid_ones() {
        let err = parse_policy("R.sometimes").unwrap_err();
        assert!(err.contains("R.sometimes"));
        assert!(err.contains("P.all"), "error must list valid labels: {err}");
        assert!(
            err.contains("R.WB(32,32)"),
            "error must list valid labels: {err}"
        );
        assert!(
            err.contains("WB(n,m)"),
            "error must explain the grammar: {err}"
        );
    }

    #[test]
    fn run_options_parse_and_build() {
        let opts = RunOptions::parse(&args(&[
            "--app",
            "lu",
            "--policy",
            "R.WB(4,4)",
            "--retention",
            "100",
            "--refs",
            "500",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(opts.app, AppPreset::Lu);
        assert_eq!(
            opts.spec.policy,
            Some(RefreshPolicy::new(
                TimePolicy::Refrint,
                DataPolicy::write_back(4, 4)
            ))
        );
        let config = opts.builder().build_config().unwrap();
        assert_eq!(config.label(), "eDRAM 100us R.WB(4,4)");
        assert_eq!(config.seed, 9);
        assert_eq!(config.refs_per_thread, Some(500));
    }

    #[test]
    fn run_options_require_an_app() {
        assert!(RunOptions::parse(&args(&["--policy", "P.all"]))
            .unwrap_err()
            .contains("--app"));
    }

    #[test]
    fn sram_run_builds_the_baseline() {
        let opts = RunOptions::parse(&args(&["--app", "fft", "--sram"])).unwrap();
        let config = opts.builder().build_config().unwrap();
        assert_eq!(config.label(), "SRAM");
    }

    #[test]
    fn sweep_options_parse_jobs_and_apps() {
        let opts = SweepOptions::parse(&args(&[
            "--refs",
            "2000",
            "--apps",
            "fft,lu",
            "--jobs",
            "4",
            "--progress",
        ]))
        .unwrap();
        assert_eq!(opts.jobs, Some(4));
        assert!(opts.progress);
        let cfg = opts.experiment().unwrap();
        assert_eq!(cfg.refs_per_thread, 2_000);
        assert_eq!(cfg.apps, vec![AppPreset::Fft, AppPreset::Lu]);
        assert!(SweepOptions::parse(&args(&["--jobs", "0"])).is_err());
        assert!(SweepOptions::parse(&args(&["--apps", "quake3"])).is_err());
    }

    #[test]
    fn run_protocol_and_retention_profile_flags_parse_and_build() {
        let opts = RunOptions::parse(&args(&[
            "--app",
            "lu",
            "--protocol",
            "dragon",
            "--retention-profile",
            "bimodal(25,60)",
        ]))
        .unwrap();
        assert_eq!(opts.spec.protocol, Some(CoherenceProtocol::Dragon));
        assert_eq!(
            opts.spec.retention_profile,
            Some(RetentionProfile::Bimodal {
                weak_pct: 25,
                weak_retention_pct: 60
            })
        );
        let config = opts.builder().build_config().unwrap();
        assert_eq!(config.protocol, CoherenceProtocol::Dragon);
        assert_eq!(
            config.retention_profile,
            RetentionProfile::Bimodal {
                weak_pct: 25,
                weak_retention_pct: 60
            }
        );
        assert_eq!(
            config.label(),
            "eDRAM 50us R.WB(32,32) dragon bimodal(25,60)"
        );

        // Omitting the flags leaves the defaults untouched.
        let opts = RunOptions::parse(&args(&["--app", "lu"])).unwrap();
        assert_eq!(opts.spec.protocol, None);
        let config = opts.builder().build_config().unwrap();
        assert_eq!(config.protocol, CoherenceProtocol::Mesi);
        assert_eq!(config.retention_profile, RetentionProfile::Uniform);

        // Unknown labels are usage errors that name the valid forms.
        let err = RunOptions::parse(&args(&["--app", "lu", "--protocol", "moesi"])).unwrap_err();
        assert!(err.contains("mesi"), "{err}");
        let err =
            RunOptions::parse(&args(&["--app", "lu", "--retention-profile", "zipf"])).unwrap_err();
        assert!(err.contains("uniform"), "{err}");
        // SRAM composes with --protocol but rejects a non-uniform profile.
        let opts =
            RunOptions::parse(&args(&["--app", "fft", "--sram", "--protocol", "dragon"])).unwrap();
        assert!(opts.builder().build_config().is_ok());
        let opts = RunOptions::parse(&args(&[
            "--app",
            "fft",
            "--sram",
            "--retention-profile",
            "normal(10)",
        ]))
        .unwrap();
        assert!(opts.builder().build_config().is_err());
    }

    #[test]
    fn sweep_protocol_and_retention_profile_axes_parse() {
        let opts = SweepOptions::parse(&args(&[
            "--apps",
            "lu",
            "--protocol",
            "mesi",
            "--protocol",
            "dragon",
            "--retention-profile",
            "uniform",
            "--retention-profile",
            "normal(15)",
        ]))
        .unwrap();
        assert_eq!(
            opts.protocols,
            vec![CoherenceProtocol::Mesi, CoherenceProtocol::Dragon]
        );
        assert_eq!(
            opts.retention_profiles,
            vec![
                RetentionProfile::Uniform,
                RetentionProfile::Normal { sigma_pct: 15 }
            ]
        );
        let cfg = opts.experiment().unwrap();
        assert_eq!(cfg.protocols.len(), 2);
        assert_eq!(cfg.retention_profiles.len(), 2);

        // Absent flags keep the experiment's default single-point axes, so
        // the default sweep stays byte-identical.
        let cfg = SweepOptions::parse(&args(&[]))
            .unwrap()
            .experiment()
            .unwrap();
        assert_eq!(cfg.protocols, vec![CoherenceProtocol::Mesi]);
        assert_eq!(cfg.retention_profiles, vec![RetentionProfile::Uniform]);

        assert!(SweepOptions::parse(&args(&["--protocol", "dragonfly"])).is_err());
        assert!(SweepOptions::parse(&args(&["--retention-profile", "normal(0)"])).is_err());
    }

    #[test]
    fn format_flag_parses_and_rejects_unknowns() {
        assert_eq!(parse_format(&args(&[])).unwrap(), OutputFormat::Text);
        assert_eq!(
            parse_format(&args(&["--format", "text"])).unwrap(),
            OutputFormat::Text
        );
        assert_eq!(
            parse_format(&args(&["--format", "json"])).unwrap(),
            OutputFormat::Json
        );
        assert!(parse_format(&args(&["--format", "xml"])).is_err());
        let opts = RunOptions::parse(&args(&["--app", "lu", "--format", "json"])).unwrap();
        assert_eq!(opts.format, OutputFormat::Json);
        let opts = SweepOptions::parse(&args(&["--format", "json"])).unwrap();
        assert_eq!(opts.format, OutputFormat::Json);
    }

    #[test]
    fn run_timing_flag_parses() {
        let opts = RunOptions::parse(&args(&["--app", "lu"])).unwrap();
        assert!(!opts.timing);
        let opts = RunOptions::parse(&args(&["--app", "lu", "--timing"])).unwrap();
        assert!(opts.timing);
        // --timing must not change the simulated configuration.
        let config = opts.builder().build_config().unwrap();
        assert_eq!(config.label(), "eDRAM 50us R.WB(32,32)");
    }

    #[test]
    fn obs_options_parse_and_build() {
        let opts = ObsOptions::parse(&args(&[
            "--app",
            "fft",
            "--policy",
            "P.all",
            "--retention",
            "200",
            "--refs",
            "800",
            "--seed",
            "11",
            "--cores",
            "4",
        ]))
        .unwrap();
        assert_eq!(opts.app, AppPreset::Fft);
        assert_eq!(opts.sample_every, 1, "obs defaults to full sampling");
        assert_eq!(opts.format, OutputFormat::Json, "obs defaults to JSON");
        let config = opts.builder().build_config().unwrap();
        assert_eq!(config.label(), "eDRAM 200us P.all");
        assert_eq!(config.cores, 4);
        assert_eq!(config.seed, 11);

        let opts = ObsOptions::parse(&args(&[
            "--app", "lu", "--sample", "64", "--format", "text",
        ]))
        .unwrap();
        assert_eq!(opts.sample_every, 64);
        assert_eq!(opts.format, OutputFormat::Text);
        let opts = ObsOptions::parse(&args(&["--app", "lu", "--critical-path"])).unwrap();
        assert!(opts.critical_path);

        // The axis flags mirror `run`: they reach the built config's label.
        let opts = ObsOptions::parse(&args(&[
            "--app",
            "lu",
            "--protocol",
            "dragon",
            "--retention-profile",
            "normal(10)",
        ]))
        .unwrap();
        let config = opts.builder().build_config().unwrap();
        assert_eq!(config.label(), "eDRAM 50us R.WB(32,32) dragon normal(10)");
        assert!(
            ObsOptions::parse(&args(&["--app", "lu", "--protocol", "moesi"]))
                .unwrap_err()
                .contains("moesi")
        );

        assert!(ObsOptions::parse(&args(&[])).unwrap_err().contains("--app"));
        assert!(ObsOptions::parse(&args(&["--app", "lu", "--sample", "0"]))
            .unwrap_err()
            .contains("--sample"));
        assert!(
            ObsOptions::parse(&args(&["--app", "lu", "--format", "xml"]))
                .unwrap_err()
                .contains("xml")
        );
    }

    #[test]
    fn check_options_protocol_pin_parses() {
        let opts =
            CheckOptions::parse(&args(&["--protocol", "dragon", "--scenarios", "5"])).unwrap();
        assert_eq!(opts.protocol, Some(CoherenceProtocol::Dragon));
        assert_eq!(opts.scenarios, 5);
        let opts = CheckOptions::parse(&args(&[])).unwrap();
        assert_eq!(opts.protocol, None, "unpinned by default");
        assert_eq!(opts.seed, CheckOptions::DEFAULT_SEED);
        assert!(CheckOptions::parse(&args(&["--protocol", "moesi"]))
            .unwrap_err()
            .contains("moesi"));
    }

    #[test]
    fn trace_record_options_parse() {
        let opts = TraceRecordOptions::parse(&args(&[
            "--app",
            "fft",
            "--out",
            "/tmp/x.rft",
            "--cores",
            "4",
            "--refs",
            "100",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.app, AppPreset::Fft);
        assert_eq!(opts.out, PathBuf::from("/tmp/x.rft"));
        let config = opts.builder().build_config().unwrap();
        assert_eq!(config.cores, 4);
        assert_eq!(config.seed, 7);
        assert_eq!(config.refs_per_thread, Some(100));
        assert!(TraceRecordOptions::parse(&args(&["--app", "fft"]))
            .unwrap_err()
            .contains("--out"));
        assert!(TraceRecordOptions::parse(&args(&["--out", "x"]))
            .unwrap_err()
            .contains("--app"));
    }

    #[test]
    fn trace_replay_options_parse() {
        let opts = TraceReplayOptions::parse(&args(&[
            "--trace",
            "/tmp/x.rft",
            "--policy",
            "P.dirty",
            "--retention",
            "100",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(opts.trace, PathBuf::from("/tmp/x.rft"));
        assert_eq!(opts.format, OutputFormat::Json);
        assert_eq!(
            opts.spec.policy,
            Some(RefreshPolicy::new(TimePolicy::Periodic, DataPolicy::Dirty))
        );
        assert!(TraceReplayOptions::parse(&args(&[]))
            .unwrap_err()
            .contains("--trace"));
    }

    /// `run`, `obs` and `trace replay` honour every field a `POST /run`
    /// body accepts: one flag list builds the configuration the equivalent
    /// JSON body builds.
    #[test]
    fn run_obs_and_trace_replay_build_what_post_run_builds() {
        use refrint_serve::api::parse_run_request;
        use refrint_serve::jobs::JobWork;

        let dir = std::env::temp_dir().join(format!("refrint-cli-spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("lu.rft");
        let recorder = TraceRecordOptions::parse(&args(&[
            "--app", "lu", "--out", "unused", "--cores", "2", "--refs", "300", "--seed", "5",
        ]))
        .unwrap();
        recorder
            .builder()
            .build()
            .unwrap()
            .capture(AppPreset::Lu, &trace)
            .unwrap();

        let flags = [
            "--cores",
            "2",
            "--seed",
            "5",
            "--refs",
            "300",
            "--protocol",
            "dragon",
            "--retention-profile",
            "normal(10)",
            "--policy",
            "R.valid",
            "--retention",
            "100",
        ];
        let fields = "\"cores\":2,\"seed\":5,\"refs\":300,\"protocol\":\"dragon\",\
                      \"retention_profile\":\"normal(10)\",\"policy\":\"R.valid\",\
                      \"retention_us\":100";
        let config = |builder: SimulationBuilder| format!("{:?}", builder.build_config().unwrap());
        let served = |workload: &str| {
            let body = format!("{{{workload},{fields}}}");
            let root = refrint_engine::json::parse(&body).unwrap();
            match parse_run_request(&root, Some(&dir)).unwrap().work {
                JobWork::Run { workload, spec } => config(workload.builder(&spec)),
                other => panic!("wrong work: {other:?}"),
            }
        };
        let with = |head: &[&str]| args(&[head, &flags[..]].concat());

        let run = RunOptions::parse(&with(&["--app", "lu"]))
            .unwrap()
            .builder();
        let built = run.build_config().unwrap();
        assert_eq!(built.label(), "eDRAM 100us R.valid dragon normal(10)");
        assert_eq!(
            (built.cores, built.seed, built.refs_per_thread),
            (2, 5, Some(300))
        );
        let app = served("\"app\":\"lu\"");
        assert_eq!(config(run), app);
        let obs = ObsOptions::parse(&with(&["--app", "lu"])).unwrap();
        assert_eq!(config(obs.builder()), app);
        let replay =
            TraceReplayOptions::parse(&with(&["--trace", trace.to_str().unwrap()])).unwrap();
        assert_eq!(config(replay.builder()), served("\"trace\":\"lu.rft\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_info_options_parse_formats() {
        let opts = TraceInfoOptions::parse(&args(&["--trace", "x.rft"])).unwrap();
        assert_eq!(opts.format, OutputFormat::Text);
        let opts =
            TraceInfoOptions::parse(&args(&["--trace", "x.rft", "--format", "json"])).unwrap();
        assert_eq!(opts.format, OutputFormat::Json);
        assert!(TraceInfoOptions::parse(&args(&["--trace", "x.rft", "--format", "xml"])).is_err());
        assert!(TraceInfoOptions::parse(&args(&[]))
            .unwrap_err()
            .contains("--trace"));
    }

    #[test]
    fn serve_options_parse_and_build_server_options() {
        let opts = ServeOptions::parse(&args(&[
            "--addr",
            "127.0.0.1:7878",
            "--workers",
            "3",
            "--queue",
            "16",
            "--cache",
            "9",
            "--max-body",
            "4096",
            "--trace-dir",
            "/tmp/traces",
            "--log-format",
            "json",
        ]))
        .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:7878");
        let server = opts.server_options();
        assert_eq!(server.workers, 3);
        assert_eq!(server.queue_capacity, 16);
        assert_eq!(server.cache_capacity, 9);
        assert_eq!(server.max_body_bytes, 4096);
        assert_eq!(server.trace_dir, Some(PathBuf::from("/tmp/traces")));
        assert_eq!(server.log_format, LogFormat::Json);

        assert!(ServeOptions::parse(&args(&[]))
            .unwrap_err()
            .contains("--addr"));
        assert!(
            ServeOptions::parse(&args(&["--addr", "x", "--workers", "0"]))
                .unwrap_err()
                .contains("--workers")
        );
        // Defaults pass straight through.
        let opts = ServeOptions::parse(&args(&["--addr", "127.0.0.1:0"])).unwrap();
        let defaults = refrint_serve::ServerOptions::default();
        assert_eq!(opts.server_options().workers, defaults.workers);
        assert_eq!(
            opts.server_options().queue_capacity,
            defaults.queue_capacity
        );
        assert!(opts.server_options().coordinator.is_none());
        assert_eq!(opts.server_options().disk_cache_dir, None);
        assert_eq!(opts.server_options().log_format, LogFormat::Text);
        assert!(ServeOptions::parse(&args(&["--addr", "x", "--log-format", "yaml"])).is_err());
    }

    #[test]
    fn serve_options_parse_coordinator_flags() {
        let opts = ServeOptions::parse(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--coordinator",
            "--backend",
            "127.0.0.1:7001",
            "--backend",
            "127.0.0.1:7002",
            "--cache-dir",
            "/tmp/refrint-cache",
        ]))
        .unwrap();
        assert!(opts.coordinator);
        assert_eq!(opts.backends, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
        let server = opts.server_options();
        let coordinator = server.coordinator.expect("coordinator options are set");
        assert_eq!(coordinator.backends.len(), 2);
        assert_eq!(
            server.disk_cache_dir,
            Some(PathBuf::from("/tmp/refrint-cache"))
        );

        // --backend without --coordinator is a usage error.
        assert!(ServeOptions::parse(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--backend",
            "127.0.0.1:7001"
        ]))
        .unwrap_err()
        .contains("--coordinator"));
    }

    #[test]
    fn repeated_trace_flags_accumulate() {
        let opts = SweepOptions::parse(&args(&["--trace", "a.rft", "--trace", "b.rft"])).unwrap();
        assert_eq!(
            opts.traces,
            vec![PathBuf::from("a.rft"), PathBuf::from("b.rft")]
        );
        // Unreadable trace files surface through experiment().
        assert!(opts.experiment().is_err());
    }
}
