//! The JSON request schemas of the service and their validation.
//!
//! `POST /run` and `POST /sweep` bodies are parsed with the shared
//! [`refrint_engine::json`] parser, checked field by field (unknown fields
//! are rejected so typos fail loudly), and resolved into an executable
//! [`JobWork`] plus a **canonical cache key**. The key is derived from the
//! *validated* configuration — the label, seed, scale and chip size after
//! presets and defaults are applied — so two requests that spell the same
//! simulation differently still hit the same cache entry, and the cached
//! bytes are bit-identical to a fresh run by construction.

use std::path::{Path, PathBuf};

use refrint::experiment::{ExperimentConfig, TraceSpec};
use refrint::simulation::{RunSpec, SimulationBuilder};
use refrint::sweep::SweepPlan;
use refrint::{CoherenceProtocol, RefrintError, RetentionProfile};
use refrint_edram::error::EdramError;
use refrint_edram::model::PolicyRegistry;
use refrint_edram::policy::RefreshPolicy;
use refrint_engine::json::{escape, Value};
use refrint_workloads::apps::AppPreset;

use crate::jobs::JobWork;

/// A typed API failure: HTTP status, machine-readable kind, human reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status the error is answered with (always 4xx/5xx).
    pub status: u16,
    /// Stable machine-readable kind (e.g. `bad_json`, `unknown_policy`).
    pub kind: &'static str,
    /// Human-readable description.
    pub reason: String,
}

impl ApiError {
    /// Builds an error.
    #[must_use]
    pub fn new(status: u16, kind: &'static str, reason: impl Into<String>) -> Self {
        ApiError {
            status,
            kind,
            reason: reason.into(),
        }
    }

    /// The JSON error document this error is answered with.
    #[must_use]
    pub fn body(&self) -> Vec<u8> {
        format!(
            "{{\"error\":{{\"kind\":\"{}\",\"reason\":\"{}\"}}}}\n",
            escape(self.kind),
            escape(&self.reason)
        )
        .into_bytes()
    }
}

/// Whether the client waits for the result or polls `/jobs/<id>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubmitMode {
    /// The connection blocks until the job completes (the default).
    #[default]
    Sync,
    /// The request is answered `202 Accepted` with a job id immediately.
    Async,
}

/// A fully validated request, ready to enqueue.
#[derive(Debug, Clone)]
pub struct ValidatedRequest {
    /// What the worker will execute.
    pub work: JobWork,
    /// Canonical cache key (see the module docs).
    pub cache_key: String,
    /// Sync or async submission.
    pub mode: SubmitMode,
}

fn schema_err(reason: impl Into<String>) -> ApiError {
    ApiError::new(422, "schema", reason)
}

fn str_field(v: &Value, key: &str) -> Result<String, ApiError> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| schema_err(format!("\"{key}\" must be a string")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, ApiError> {
    v.as_u64()
        .ok_or_else(|| schema_err(format!("\"{key}\" must be a non-negative integer")))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, ApiError> {
    Ok(u64_field(v, key)? as usize)
}

fn bool_field(v: &Value, key: &str) -> Result<bool, ApiError> {
    v.as_bool()
        .ok_or_else(|| schema_err(format!("\"{key}\" must be a boolean")))
}

fn mode_field(v: &Value) -> Result<SubmitMode, ApiError> {
    match v.as_str() {
        Some("sync") => Ok(SubmitMode::Sync),
        Some("async") => Ok(SubmitMode::Async),
        _ => Err(schema_err("\"mode\" must be \"sync\" or \"async\"")),
    }
}

fn parse_app(name: &str) -> Result<AppPreset, ApiError> {
    name.parse::<AppPreset>()
        .map_err(|e| ApiError::new(422, "unknown_workload", e.to_string()))
}

fn parse_policy(label: &str) -> Result<RefreshPolicy, ApiError> {
    label.parse::<RefreshPolicy>().map_err(|_| {
        let err = EdramError::UnknownPolicy {
            label: label.to_owned(),
            valid: PolicyRegistry::new().valid_labels(),
        };
        ApiError::new(422, "unknown_policy", err.to_string())
    })
}

fn parse_protocol(label: &str) -> Result<CoherenceProtocol, ApiError> {
    label
        .parse::<CoherenceProtocol>()
        .map_err(|e| ApiError::new(422, "unknown_protocol", e))
}

fn parse_retention_profile(label: &str) -> Result<RetentionProfile, ApiError> {
    label
        .parse::<RetentionProfile>()
        .map_err(|e| ApiError::new(422, "unknown_retention_profile", e.to_string()))
}

/// Resolves a client-supplied trace name against the server's trace
/// directory, refusing traversal outside it.
fn resolve_trace(name: &str, trace_dir: Option<&Path>) -> Result<PathBuf, ApiError> {
    let Some(dir) = trace_dir else {
        return Err(ApiError::new(
            422,
            "traces_unavailable",
            "this server was started without --trace-dir; trace workloads are not servable",
        ));
    };
    if name.is_empty()
        || name.contains('/')
        || name.contains('\\')
        || name.contains("..")
        || name.starts_with('.')
    {
        return Err(ApiError::new(
            422,
            "bad_trace_name",
            format!("trace name `{name}` must be a plain file name inside the trace directory"),
        ));
    }
    Ok(dir.join(name))
}

/// What a `POST /run` job simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunWorkload {
    /// An application preset.
    App(AppPreset),
    /// A recorded trace.
    Trace {
        /// The plain file name a client sends and a coordinator forwards:
        /// every server resolves it against its own trace directory.
        name: String,
        /// The file on this server.
        path: PathBuf,
    },
}

impl RunWorkload {
    /// The workload's name: the preset name or the trace file name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            RunWorkload::App(app) => app.name(),
            RunWorkload::Trace { name, .. } => name,
        }
    }

    /// The builder that runs this workload under `spec`.
    #[must_use]
    pub fn builder(&self, spec: &RunSpec) -> SimulationBuilder {
        match self {
            RunWorkload::App(_) => spec.builder(),
            RunWorkload::Trace { path, .. } => spec.builder().trace(path),
        }
    }
}

/// The canonical cache-key spelling of a trace file.
fn trace_key(path: &Path) -> String {
    // Canonicalize so `lu.rft` and an equivalent absolute spelling share a
    // cache entry, and include the file's size and mtime so re-recording a
    // trace in place invalidates old entries instead of serving stale
    // bytes. The file exists (the builder opened it during validation), so
    // failures here are transient races — fall back to the literal path /
    // zero stamps.
    let canonical = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let (len, mtime_nanos) = std::fs::metadata(&canonical)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            (m.len(), mtime)
        })
        .unwrap_or((0, 0));
    format!(
        "trace:{}|len={len}|mtime={mtime_nanos}",
        canonical.display()
    )
}

/// Validates one run — the builder composes and checks its configuration,
/// opening a trace — and returns its canonical cache key. `POST /run` and
/// a coordinator's sweep points are keyed here, so their cache entries are
/// interchangeable.
///
/// # Errors
///
/// `invalid_config` (422) with the typed `BuildError` rendering.
pub(crate) fn run_key(workload: &RunWorkload, spec: &RunSpec) -> Result<String, ApiError> {
    let config = workload
        .builder(spec)
        .build_config()
        .map_err(|e| ApiError::new(422, "invalid_config", e.to_string()))?;
    let workload = match workload {
        RunWorkload::App(app) => format!("app:{}", app.name()),
        RunWorkload::Trace { path, .. } => trace_key(path),
    };
    // `config.label()` carries ` dragon` / ` bimodal(25,60)` suffixes for
    // non-default protocol and retention-profile axes, so the key
    // distinguishes them — and spelling out the defaults (protocol mesi,
    // uniform profile) leaves both the label and the key untouched.
    Ok(format!(
        "run|workload={workload}|config={}|cores={}|banks={}|seed={}|refs={}",
        config.label(),
        config.cores,
        config.l3_banks,
        config.seed,
        config
            .refs_per_thread
            .map_or_else(|| "default".to_owned(), |r| r.to_string()),
    ))
}

/// The `POST /run` body that asks a backend for `workload` under `spec`.
/// It carries only the set fields, and the protocol and retention profile
/// only when they differ from the defaults, so default points keep their
/// historical bodies.
pub(crate) fn run_body(workload: &RunWorkload, spec: &RunSpec) -> String {
    let mut fields = vec![match workload {
        RunWorkload::App(app) => format!("\"app\":\"{}\"", escape(app.name())),
        RunWorkload::Trace { name, .. } => format!("\"trace\":\"{}\"", escape(name)),
    }];
    if spec.sram {
        fields.push("\"sram\":true".to_owned());
    }
    if let Some(policy) = spec.policy {
        fields.push(format!("\"policy\":\"{}\"", escape(&policy.label())));
    }
    if let Some(us) = spec.retention_us {
        fields.push(format!("\"retention_us\":{us}"));
    }
    if let Some(profile) = spec.retention_profile.filter(|p| !p.is_default()) {
        fields.push(format!(
            "\"retention_profile\":\"{}\"",
            escape(&profile.label())
        ));
    }
    if let Some(protocol) = spec.protocol.filter(|p| !p.is_default()) {
        fields.push(format!("\"protocol\":\"{}\"", protocol.label()));
    }
    if let Some(refs) = spec.refs {
        fields.push(format!("\"refs\":{refs}"));
    }
    if let Some(seed) = spec.seed {
        fields.push(format!("\"seed\":{seed}"));
    }
    if let Some(cores) = spec.cores {
        fields.push(format!("\"cores\":{cores}"));
    }
    format!("{{{}}}", fields.join(","))
}

/// Parses and validates a `POST /run` body.
///
/// # Errors
///
/// A typed [`ApiError`]: `schema` (422) for shape problems,
/// `unknown_workload` / `unknown_policy` (422) for bad names, and
/// `invalid_config` (422) when the composed configuration fails the
/// builder's validation (the reason is the typed `BuildError` rendering).
pub fn parse_run_request(
    root: &Value,
    trace_dir: Option<&Path>,
) -> Result<ValidatedRequest, ApiError> {
    let fields = root
        .as_obj()
        .ok_or_else(|| schema_err("the request body must be a JSON object"))?;

    let mut app: Option<AppPreset> = None;
    let mut trace: Option<RunWorkload> = None;
    let mut spec = RunSpec::default();
    let mut mode = SubmitMode::Sync;

    for (key, value) in fields {
        match key.as_str() {
            "app" => app = Some(parse_app(&str_field(value, "app")?)?),
            "trace" => {
                let name = str_field(value, "trace")?;
                let path = resolve_trace(&name, trace_dir)?;
                trace = Some(RunWorkload::Trace { name, path });
            }
            "sram" => spec.sram = bool_field(value, "sram")?,
            "policy" => spec.policy = Some(parse_policy(&str_field(value, "policy")?)?),
            "retention_us" => spec.retention_us = Some(u64_field(value, "retention_us")?),
            "retention_profile" => {
                spec.retention_profile = Some(parse_retention_profile(&str_field(
                    value,
                    "retention_profile",
                )?)?);
            }
            "protocol" => spec.protocol = Some(parse_protocol(&str_field(value, "protocol")?)?),
            "refs" => spec.refs = Some(u64_field(value, "refs")?),
            "seed" => spec.seed = Some(u64_field(value, "seed")?),
            "cores" => spec.cores = Some(usize_field(value, "cores")?),
            "mode" => mode = mode_field(value)?,
            other => {
                return Err(schema_err(format!(
                    "unknown field \"{other}\" (expected app, trace, sram, policy, \
                     retention_us, retention_profile, protocol, refs, seed, cores, mode)"
                )))
            }
        }
    }

    let workload = match (app, trace) {
        (None, None) => return Err(schema_err("one of \"app\" or \"trace\" is required")),
        (Some(_), Some(_)) => {
            return Err(schema_err("\"app\" and \"trace\" are mutually exclusive"))
        }
        (Some(app), None) => RunWorkload::App(app),
        (None, Some(trace)) => trace,
    };
    // Validate now (including opening the trace) so clients get a typed
    // 422 immediately instead of a failed job later, and so the cache key
    // is derived from the *resolved* configuration.
    let cache_key = run_key(&workload, &spec)?;
    Ok(ValidatedRequest {
        work: JobWork::Run { workload, spec },
        cache_key,
        mode,
    })
}

/// Parses and validates a `POST /sweep` body. Defaults mirror
/// `refrint-cli sweep`: the quick experiment, overridden field by field.
///
/// # Errors
///
/// A typed [`ApiError`] (see [`parse_run_request`]).
pub fn parse_sweep_request(
    root: &Value,
    trace_dir: Option<&Path>,
) -> Result<ValidatedRequest, ApiError> {
    let fields = root
        .as_obj()
        .ok_or_else(|| schema_err("the request body must be a JSON object"))?;

    let mut cfg = ExperimentConfig::quick();
    let mut mode = SubmitMode::Sync;

    for (key, value) in fields {
        match key.as_str() {
            "apps" => {
                let items = value
                    .as_arr()
                    .ok_or_else(|| schema_err("\"apps\" must be an array of strings"))?;
                cfg.apps = items
                    .iter()
                    .map(|v| parse_app(&str_field(v, "apps")?))
                    .collect::<Result<_, _>>()?;
            }
            "traces" => {
                let items = value
                    .as_arr()
                    .ok_or_else(|| schema_err("\"traces\" must be an array of strings"))?;
                cfg.traces = items
                    .iter()
                    .map(|v| {
                        let path = resolve_trace(&str_field(v, "traces")?, trace_dir)?;
                        TraceSpec::from_path(&path)
                            .map_err(|e| ApiError::new(422, "invalid_config", e.to_string()))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "policies" => {
                let items = value
                    .as_arr()
                    .ok_or_else(|| schema_err("\"policies\" must be an array of strings"))?;
                cfg.policies = items
                    .iter()
                    .map(|v| parse_policy(&str_field(v, "policies")?))
                    .collect::<Result<_, _>>()?;
            }
            "retentions_us" => {
                let items = value
                    .as_arr()
                    .ok_or_else(|| schema_err("\"retentions_us\" must be an array of integers"))?;
                cfg.retentions_us = items
                    .iter()
                    .map(|v| u64_field(v, "retentions_us"))
                    .collect::<Result<_, _>>()?;
            }
            "protocols" => {
                let items = value
                    .as_arr()
                    .ok_or_else(|| schema_err("\"protocols\" must be an array of strings"))?;
                cfg.protocols = items
                    .iter()
                    .map(|v| parse_protocol(&str_field(v, "protocols")?))
                    .collect::<Result<_, _>>()?;
            }
            "retention_profiles" => {
                let items = value.as_arr().ok_or_else(|| {
                    schema_err("\"retention_profiles\" must be an array of strings")
                })?;
                cfg.retention_profiles = items
                    .iter()
                    .map(|v| parse_retention_profile(&str_field(v, "retention_profiles")?))
                    .collect::<Result<_, _>>()?;
            }
            "refs" => cfg.refs_per_thread = u64_field(value, "refs")?,
            "seed" => cfg.seed = u64_field(value, "seed")?,
            "cores" => cfg.cores = usize_field(value, "cores")?,
            "mode" => mode = mode_field(value)?,
            other => {
                return Err(schema_err(format!(
                    "unknown field \"{other}\" (expected apps, traces, policies, \
                     retentions_us, protocols, retention_profiles, refs, seed, \
                     cores, mode)"
                )))
            }
        }
    }

    if cfg.apps.is_empty() && cfg.traces.is_empty() {
        return Err(schema_err("a sweep needs at least one app or trace"));
    }
    // The plan rejects colliding policy labels and workload names, so a
    // plain server and a coordinator refuse them with the same answer.
    let plan = SweepPlan::new(cfg).map_err(|e| {
        let reason = match e {
            RefrintError::InvalidConfig { reason } => reason,
            other => other.to_string(),
        };
        ApiError::new(422, "invalid_config", reason)
    })?;
    // Validate every point's run up front, so a bad retention or core
    // count is a typed 422 before anything runs.
    for point in plan.points() {
        plan.spec(point)
            .builder()
            .build_config()
            .map_err(|e| ApiError::new(422, "invalid_config", e.to_string()))?;
    }

    let cfg = plan.config();
    let apps: Vec<&str> = cfg.apps.iter().map(|a| a.name()).collect();
    let traces: Vec<String> = cfg.traces.iter().map(|t| trace_key(&t.path)).collect();
    let retentions: Vec<String> = cfg.retentions_us.iter().map(u64::to_string).collect();
    let policies: Vec<String> = cfg.policies.iter().map(RefreshPolicy::label).collect();
    let mut cache_key = format!(
        "sweep|apps={}|traces={}|ret={}|pol={}|refs={}|seed={}|cores={}",
        apps.join(","),
        traces.join(","),
        retentions.join(","),
        policies.join(";"),
        cfg.refs_per_thread,
        cfg.seed,
        cfg.cores,
    );
    // Non-default protocol / retention-profile axes get their own key
    // components; the default single-point axes (MESI, uniform) keep the
    // pre-axis key bytes, so existing cache entries stay valid and a
    // client spelling the defaults out still hits them.
    if cfg.protocols != [CoherenceProtocol::Mesi] {
        let labels: Vec<&str> = cfg.protocols.iter().map(|p| p.label()).collect();
        cache_key.push_str(&format!("|proto={}", labels.join(",")));
    }
    if cfg.retention_profiles != [RetentionProfile::Uniform] {
        let labels: Vec<String> = cfg.retention_profiles.iter().map(|p| p.label()).collect();
        cache_key.push_str(&format!("|profiles={}", labels.join(";")));
    }

    Ok(ValidatedRequest {
        work: JobWork::Sweep { plan },
        cache_key,
        mode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint_engine::json::parse;

    fn run(body: &str) -> Result<ValidatedRequest, ApiError> {
        parse_run_request(&parse(body).unwrap(), None)
    }

    #[test]
    fn minimal_run_request_validates() {
        let v = run("{\"app\": \"lu\"}").unwrap();
        assert!(v.cache_key.contains("app:lu"));
        assert!(v.cache_key.contains("eDRAM 50us R.WB(32,32)"));
        assert_eq!(v.mode, SubmitMode::Sync);
    }

    #[test]
    fn equivalent_requests_share_a_cache_key() {
        // Spelling out the defaults must not change the canonical key.
        let a = run("{\"app\": \"lu\", \"refs\": 2000, \"cores\": 4}").unwrap();
        let b =
            run("{\"cores\": 4, \"app\": \"lu\", \"refs\": 2000, \"mode\": \"async\"}").unwrap();
        assert_eq!(a.cache_key, b.cache_key);
        assert_eq!(b.mode, SubmitMode::Async);
        let c = run("{\"app\": \"lu\", \"refs\": 2001, \"cores\": 4}").unwrap();
        assert_ne!(a.cache_key, c.cache_key);
    }

    #[test]
    fn unknown_fields_and_workloads_are_typed_422s() {
        let err = run("{\"app\": \"lu\", \"bogus\": 1}").unwrap_err();
        assert_eq!((err.status, err.kind), (422, "schema"));
        assert!(err.reason.contains("bogus"));
        let err = run("{\"app\": \"quake3\"}").unwrap_err();
        assert_eq!((err.status, err.kind), (422, "unknown_workload"));
        let err = run("{}").unwrap_err();
        assert!(err.reason.contains("required"));
        let err = run("{\"app\": \"lu\", \"trace\": \"x.rft\"}").unwrap_err();
        assert!(err.reason.contains("mutually exclusive") || err.kind == "traces_unavailable");
        // A sweep's anomaly pass has no tunables: these are unknown fields.
        for field in ["anomaly_threshold", "min_slice"] {
            let body = format!("{{\"apps\": [\"lu\"], \"{field}\": 3}}");
            let err = parse_sweep_request(&parse(&body).unwrap(), None).unwrap_err();
            assert_eq!((err.status, err.kind), (422, "schema"));
            assert!(err.reason.contains(field), "{}", err.reason);
        }
    }

    #[test]
    fn protocol_and_retention_profile_key_canonically() {
        // Spelled-out defaults hit the same cache entry as omitted fields,
        // in any field order.
        let plain = run("{\"app\": \"lu\"}").unwrap();
        let spelled =
            run("{\"retention_profile\": \"uniform\", \"protocol\": \"mesi\", \"app\": \"lu\"}")
                .unwrap();
        assert_eq!(plain.cache_key, spelled.cache_key);

        // Non-default axes get distinct keys, independent of field order.
        let dragon = run("{\"app\": \"lu\", \"protocol\": \"dragon\"}").unwrap();
        let dragon_reordered = run("{\"protocol\": \"dragon\", \"app\": \"lu\"}").unwrap();
        assert_eq!(dragon.cache_key, dragon_reordered.cache_key);
        assert_ne!(dragon.cache_key, plain.cache_key);
        let bimodal = run("{\"app\": \"lu\", \"retention_profile\": \"bimodal(25,60)\"}").unwrap();
        assert_ne!(bimodal.cache_key, plain.cache_key);
        assert_ne!(bimodal.cache_key, dragon.cache_key);
        let both = run("{\"app\": \"lu\", \"protocol\": \"dragon\", \
             \"retention_profile\": \"bimodal(25,60)\"}")
        .unwrap();
        assert_ne!(both.cache_key, dragon.cache_key);
        assert_ne!(both.cache_key, bimodal.cache_key);
        assert!(both.cache_key.contains("dragon"), "{}", both.cache_key);
        assert!(
            both.cache_key.contains("bimodal(25,60)"),
            "{}",
            both.cache_key
        );

        // The forwardable run body only carries non-default axes.
        match (&spelled.work, &both.work) {
            (
                JobWork::Run {
                    workload: sw,
                    spec: s,
                },
                JobWork::Run {
                    workload: bw,
                    spec: b,
                },
            ) => {
                assert_eq!(run_body(sw, s), "{\"app\":\"lu\"}");
                assert_eq!(
                    run_body(bw, b),
                    "{\"app\":\"lu\",\"retention_profile\":\"bimodal(25,60)\",\
                     \"protocol\":\"dragon\"}"
                );
            }
            other => panic!("wrong work: {other:?}"),
        }
    }

    #[test]
    fn bad_protocols_and_profiles_are_typed_422s() {
        let err = run("{\"app\": \"lu\", \"protocol\": \"moesi\"}").unwrap_err();
        assert_eq!((err.status, err.kind), (422, "unknown_protocol"));
        assert!(err.reason.contains("mesi"), "{}", err.reason);
        let err = run("{\"app\": \"lu\", \"retention_profile\": \"zipf\"}").unwrap_err();
        assert_eq!((err.status, err.kind), (422, "unknown_retention_profile"));
        // SRAM rejects a non-uniform retention profile through the builder.
        let err = run("{\"app\": \"lu\", \"sram\": true, \"retention_profile\": \"normal(10)\"}")
            .unwrap_err();
        assert_eq!((err.status, err.kind), (422, "invalid_config"));
        // The expected-field list names the new fields.
        let err = run("{\"app\": \"lu\", \"bogus\": 1}").unwrap_err();
        assert!(err.reason.contains("retention_profile"), "{}", err.reason);
        assert!(err.reason.contains("protocol"), "{}", err.reason);
    }

    #[test]
    fn sweep_axes_validate_and_key_canonically() {
        let base = "\"apps\": [\"lu\"], \"retentions_us\": [50], \
                    \"policies\": [\"P.all\"], \"refs\": 1000, \"cores\": 2";
        let sweep =
            |extra: &str| parse_sweep_request(&parse(&format!("{{{base}{extra}}}")).unwrap(), None);
        let default_key = sweep("").unwrap().cache_key;
        // Spelling out the default single-point axes keeps the default key.
        let spelled =
            sweep(", \"protocols\": [\"mesi\"], \"retention_profiles\": [\"uniform\"]").unwrap();
        assert_eq!(spelled.cache_key, default_key);
        // Non-default axes are carried into the config and keyed.
        let axes = sweep(
            ", \"protocols\": [\"mesi\", \"dragon\"], \
             \"retention_profiles\": [\"uniform\", \"bimodal(25,60)\"]",
        )
        .unwrap();
        assert_ne!(axes.cache_key, default_key);
        assert!(
            axes.cache_key.contains("proto=mesi,dragon"),
            "{}",
            axes.cache_key
        );
        assert!(
            axes.cache_key.contains("profiles=uniform;bimodal(25,60)"),
            "{}",
            axes.cache_key
        );
        match &axes.work {
            JobWork::Sweep { plan, .. } => {
                assert_eq!(plan.config().protocols.len(), 2);
                assert_eq!(plan.config().retention_profiles.len(), 2);
                assert_eq!(plan.points().len(), 2 * (1 + 2));
            }
            other => panic!("wrong work: {other:?}"),
        }
        // Bad labels are typed 422s; the expected-field list is current.
        let err = sweep(", \"protocols\": [\"moesi\"]").unwrap_err();
        assert_eq!((err.status, err.kind), (422, "unknown_protocol"));
        let err = sweep(", \"retention_profiles\": [\"normal(0)\"]").unwrap_err();
        assert_eq!((err.status, err.kind), (422, "unknown_retention_profile"));
        let err = sweep(", \"bogus\": 1").unwrap_err();
        assert!(err.reason.contains("retention_profiles"), "{}", err.reason);
    }

    #[test]
    fn bad_policies_list_valid_labels() {
        let err = run("{\"app\": \"lu\", \"policy\": \"R.sometimes\"}").unwrap_err();
        assert_eq!((err.status, err.kind), (422, "unknown_policy"));
        assert!(err.reason.contains("R.WB(32,32)"), "{}", err.reason);
    }

    #[test]
    fn invalid_configs_surface_the_build_error() {
        let err = run("{\"app\": \"lu\", \"sram\": true, \"retention_us\": 100}").unwrap_err();
        assert_eq!((err.status, err.kind), (422, "invalid_config"));
        assert!(err.reason.contains("SRAM"), "{}", err.reason);
        let err = run("{\"app\": \"lu\", \"cores\": 0}").unwrap_err();
        assert_eq!(err.kind, "invalid_config");
    }

    #[test]
    fn trace_requests_need_a_trace_dir_and_a_plain_name() {
        let err = run("{\"trace\": \"lu.rft\"}").unwrap_err();
        assert_eq!(err.kind, "traces_unavailable");
        let dir = std::env::temp_dir();
        let err = parse_run_request(
            &parse("{\"trace\": \"../etc/passwd\"}").unwrap(),
            Some(&dir),
        )
        .unwrap_err();
        assert_eq!(err.kind, "bad_trace_name");
        let err =
            parse_run_request(&parse("{\"trace\": \"a/b.rft\"}").unwrap(), Some(&dir)).unwrap_err();
        assert_eq!(err.kind, "bad_trace_name");
    }

    #[test]
    fn sweep_requests_validate_and_key_canonically() {
        let body = "{\"apps\": [\"lu\"], \"retentions_us\": [50], \
                    \"policies\": [\"P.all\"], \"refs\": 1000, \"cores\": 2}";
        let v = parse_sweep_request(&parse(body).unwrap(), None).unwrap();
        assert!(v.cache_key.starts_with("sweep|apps=lu|"));
        assert!(v.cache_key.contains("pol=P.all"));
        match &v.work {
            JobWork::Sweep { plan } => assert_eq!(plan.points().len(), 2),
            other => panic!("wrong work: {other:?}"),
        }

        let err = parse_sweep_request(
            &parse("{\"apps\": [], \"retentions_us\": [50]}").unwrap(),
            None,
        )
        .unwrap_err();
        assert!(err.reason.contains("at least one"));
        let err = parse_sweep_request(
            &parse("{\"apps\": [\"lu\"], \"retentions_us\": [1]}").unwrap(),
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind, "invalid_config");
    }

    #[test]
    fn error_bodies_are_json_with_kind_and_reason() {
        let err = ApiError::new(422, "schema", "broken \"quote\"");
        let body = String::from_utf8(err.body()).unwrap();
        let parsed = parse(body.trim_end()).unwrap();
        let inner = parsed.get("error").unwrap();
        assert_eq!(inner.get("kind").and_then(Value::as_str), Some("schema"));
        assert!(inner
            .get("reason")
            .and_then(Value::as_str)
            .unwrap()
            .contains("quote"));
    }
}
