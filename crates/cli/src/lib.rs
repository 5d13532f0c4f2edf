//! Command plumbing for `refrint-cli` and `serve-client`, kept in a
//! library so every parser is unit-testable.
//!
//! Both binaries are thin shells: `refrint-cli` over
//! [`refrint::simulation::Simulation`] (single runs) and
//! [`refrint::sweep::SweepRunner`] (policy sweeps), `serve-client` over
//! the `refrint-serve` HTTP API. Every command line is checked against the
//! flag tables in [`args`], which also render the usage text, so the
//! binaries reject what they do not understand. What the flags mean —
//! policy-label resolution with helpful errors, sweep sizing, the
//! `POST /run` body — lives here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;

use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;

use args::{Parsed, REFRINT_CLI};
use refrint::experiment::ExperimentConfig;
use refrint::simulation::{ObsConfig, RunSpec, SimulationBuilder};
use refrint::{CoherenceProtocol, RetentionProfile};
use refrint_edram::policy::RefreshPolicy;
use refrint_obs::log::LogFormat;
use refrint_serve::api::{run_body, RunWorkload};
use refrint_serve::coordinator::CoordinatorOptions;
use refrint_serve::ServerOptions;
use refrint_workloads::apps::AppPreset;

/// Writes `args` to stdout: the one path both binaries print through, by
/// way of [`out!`] and [`outln!`]. A reader that closes the pipe early
/// (`refrint-cli obs … | head`) ends the process quietly with status 0, as
/// a Unix filter does; any other write error ends it with status 1.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    let written = io::stdout().lock().write_fmt(args);
    if let Err(e) = written {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
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
    label.parse::<RefreshPolicy>().map_err(|e| e.to_string())
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

/// The `--seed` value, decimal or `0x` hex, wherever the flag appears.
fn seed(p: &Parsed) -> Result<Option<u64>, String> {
    p.parse("--seed", |v| {
        parse_u64(v).ok_or_else(|| format!("bad --seed `{v}`"))
    })
}

/// The required `--app` of `command`.
fn app(p: &Parsed, command: &str) -> Result<AppPreset, String> {
    p.value("--app")
        .ok_or_else(|| format!("{command} requires --app <name>"))?
        .parse()
        .map_err(|e| format!("{e}"))
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

impl OutputFormat {
    /// The `--format` word given, or the command's default.
    fn of(p: &Parsed) -> Self {
        if p.choice("--format") == "json" {
            OutputFormat::Json
        } else {
            OutputFormat::Text
        }
    }
}

/// Parses the run overrides ([`args::RUN_OVERRIDES`]) — exactly the fields
/// a `POST /run` body accepts: `--sram`, `--policy`, `--retention`,
/// `--retention-profile`, `--protocol`, `--refs`, `--seed` and `--cores`.
///
/// # Errors
///
/// Returns a usage message for an invalid value.
pub fn parse_run_spec(p: &Parsed) -> Result<RunSpec, String> {
    Ok(RunSpec {
        sram: p.flag("--sram"),
        policy: p.parse("--policy", parse_policy)?,
        retention_us: p.number("--retention")?,
        retention_profile: p.parse("--retention-profile", parse_retention_profile)?,
        protocol: p.parse("--protocol", parse_protocol)?,
        refs: p.number("--refs")?,
        seed: seed(p)?,
        cores: p.number("--cores")?,
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
        let p = REFRINT_CLI.parse("run", args)?;
        Ok(RunOptions {
            app: app(&p, "run")?,
            spec: parse_run_spec(&p)?,
            timing: p.flag("--timing"),
            format: OutputFormat::of(&p),
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
        let p = REFRINT_CLI.parse("obs", args)?;
        Ok(ObsOptions {
            app: app(&p, "obs")?,
            spec: parse_run_spec(&p)?,
            sample_every: p.positive("--sample")?.unwrap_or(1),
            critical_path: p.flag("--critical-path"),
            format: OutputFormat::of(&p),
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
        let p = REFRINT_CLI.parse("sweep", args)?;
        Ok(SweepOptions {
            refs: p.number("--refs")?,
            apps: p.parse("--apps", parse_apps)?,
            jobs: p.positive("--jobs")?,
            cores: p.number("--cores")?,
            progress: p.flag("--progress"),
            protocols: p
                .values("--protocol")
                .map(parse_protocol)
                .collect::<Result<_, _>>()?,
            retention_profiles: p
                .values("--retention-profile")
                .map(parse_retention_profile)
                .collect::<Result<_, _>>()?,
            traces: p.values("--trace").map(PathBuf::from).collect(),
            format: OutputFormat::of(&p),
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
        let p = REFRINT_CLI.parse("trace record", args)?;
        Ok(TraceRecordOptions {
            app: app(&p, "trace record")?,
            out: p
                .value("--out")
                .ok_or("trace record requires --out <path>")?
                .into(),
            cores: p.number("--cores")?,
            refs: p.number("--refs")?,
            seed: seed(&p)?,
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
        let p = REFRINT_CLI.parse("trace replay", args)?;
        Ok(TraceReplayOptions {
            trace: p
                .value("--trace")
                .ok_or("trace replay requires --trace <path>")?
                .into(),
            spec: parse_run_spec(&p)?,
            format: OutputFormat::of(&p),
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
        let p = REFRINT_CLI.parse("trace info", args)?;
        Ok(TraceInfoOptions {
            trace: p
                .value("--trace")
                .ok_or("trace info requires --trace <path>")?
                .into(),
            format: OutputFormat::of(&p),
        })
    }
}

/// Options of the `serve` subcommand: the listen address and the server
/// options its flags describe, defaults filled from
/// [`ServerOptions::default`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to listen on (e.g. `127.0.0.1:7878`).
    pub addr: String,
    /// The server's options.
    pub server: ServerOptions,
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
        let p = REFRINT_CLI.parse("check", args)?;
        let scenarios = match p.value("--scenarios") {
            None => 200,
            Some(v) => match parse_u64(v) {
                None => return Err(format!("bad --scenarios `{v}`")),
                Some(0) => return Err("--scenarios must be at least 1".into()),
                Some(n) => n,
            },
        };
        Ok(CheckOptions {
            seed: seed(&p)?.unwrap_or(Self::DEFAULT_SEED),
            scenarios,
            scenario: p.value("--scenario").map(str::to_owned),
            protocol: p.parse("--protocol", parse_protocol)?,
            self_test: p.flag("--self-test"),
            progress: p.flag("--progress"),
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
        let p = REFRINT_CLI.parse("serve", args)?;
        let addr = p.value("--addr").ok_or("serve requires --addr HOST:PORT")?;
        let mut server = ServerOptions::default();
        for (flag, field) in [
            ("--workers", &mut server.workers),
            ("--queue", &mut server.queue_capacity),
            ("--cache", &mut server.cache_capacity),
            ("--max-body", &mut server.max_body_bytes),
        ] {
            if let Some(n) = p.positive(flag)? {
                *field = n;
            }
        }
        server.trace_dir = p.value("--trace-dir").map(PathBuf::from);
        server.log_format = LogFormat::parse(p.choice("--log-format")).unwrap_or_default();
        server.disk_cache_dir = p.value("--cache-dir").map(PathBuf::from);
        let backends: Vec<String> = p.values("--backend").map(str::to_owned).collect();
        if p.flag("--coordinator") {
            server.coordinator = Some(CoordinatorOptions { backends });
        } else if !backends.is_empty() {
            return Err("--backend only makes sense with --coordinator".into());
        }
        Ok(ServeOptions {
            addr: addr.to_owned(),
            server,
        })
    }
}

/// The `POST /run` body `serve-client run` sends: the run point through
/// the server's own [`run_body`], plus `mode` when `--mode` is given.
///
/// # Errors
///
/// Returns a usage message unless exactly one of `--app` and `--trace` is
/// given, or for an invalid value.
pub fn client_run_body(p: &Parsed) -> Result<String, String> {
    let workload = match (p.value("--app"), p.value("--trace")) {
        (Some(_), None) => RunWorkload::App(app(p, "run")?),
        // The server resolves the name in its own trace directory.
        (None, Some(name)) => RunWorkload::Trace {
            name: name.to_owned(),
            path: PathBuf::from(name),
        },
        _ => return Err("run requires exactly one of --app <name> and --trace <name>".into()),
    };
    let mut body = run_body(&workload, &parse_run_spec(p)?);
    if let Some(mode) = p.value("--mode") {
        body.pop();
        body.push_str(&format!(",\"mode\":\"{mode}\"}}"));
    }
    Ok(body)
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
        let format = |list: &[&str]| TraceInfoOptions::parse(&args(list)).map(|o| o.format);
        assert_eq!(format(&["--trace", "x"]).unwrap(), OutputFormat::Text);
        assert_eq!(
            format(&["--trace", "x", "--format", "text"]).unwrap(),
            OutputFormat::Text
        );
        assert_eq!(
            format(&["--trace", "x", "--format", "json"]).unwrap(),
            OutputFormat::Json
        );
        assert!(format(&["--trace", "x", "--format", "xml"])
            .unwrap_err()
            .contains("xml"));
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

    /// `run`, `obs`, `trace replay` and `serve-client run` honour every
    /// field a `POST /run` body accepts: one flag list builds the
    /// configuration the equivalent JSON body builds, and so does the body
    /// `serve-client` sends for it.
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
        let posted = |body: &str| {
            let root = refrint_engine::json::parse(body).unwrap();
            match parse_run_request(&root, Some(&dir)).unwrap().work {
                JobWork::Run { workload, spec } => config(workload.builder(&spec)),
                other => panic!("wrong work: {other:?}"),
            }
        };
        let served = |workload: &str| posted(&format!("{{{workload},{fields}}}"));
        let with = |head: &[&str]| args(&[head, &flags[..]].concat());
        let client = |head: &[&str]| {
            let parsed = args::SERVE_CLIENT.parse("run", &with(head)).unwrap();
            posted(&client_run_body(&parsed).unwrap())
        };

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
        let trace_served = served("\"trace\":\"lu.rft\"");
        assert_eq!(config(replay.builder()), trace_served);
        assert_eq!(client(&["--app", "lu"]), app);
        assert_eq!(client(&["--trace", "lu.rft"]), trace_served);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_seed_trace_record_prints_is_accepted_by_run() {
        // `trace record` reports its seed as `{:#x}`.
        let printed = format!("{:#x}", 0xbeef_u64);
        let opts = RunOptions::parse(&args(&["--app", "lu", "--seed", &printed])).unwrap();
        assert_eq!(opts.spec.seed, Some(0xbeef));
        let opts =
            TraceRecordOptions::parse(&args(&["--app", "lu", "--out", "x", "--seed", &printed]))
                .unwrap();
        assert_eq!(opts.seed, Some(0xbeef));
        assert!(RunOptions::parse(&args(&["--app", "lu", "--seed", "0xg"]))
            .unwrap_err()
            .contains("--seed"));
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
        let server = opts.server;
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
        let server = ServeOptions::parse(&args(&["--addr", "127.0.0.1:0"]))
            .unwrap()
            .server;
        let defaults = ServerOptions::default();
        assert_eq!(server.workers, defaults.workers);
        assert_eq!(server.queue_capacity, defaults.queue_capacity);
        assert!(server.coordinator.is_none());
        assert_eq!(server.disk_cache_dir, None);
        assert_eq!(server.log_format, LogFormat::Text);
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
        let server = opts.server;
        let coordinator = server.coordinator.expect("coordinator options are set");
        assert_eq!(coordinator.backends, ["127.0.0.1:7001", "127.0.0.1:7002"]);
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
