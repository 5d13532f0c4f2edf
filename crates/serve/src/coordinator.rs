//! Scale-out sweep coordination across `refrint-serve` backends.
//!
//! A coordinator is an ordinary server whose workers, instead of
//! simulating locally, split each job into point-level `POST /run`
//! requests and fan them out over the existing HTTP API to a pool of
//! backend nodes. A sweep is the same [`SweepPlan`] the local
//! [`SweepRunner`](refrint::sweep::SweepRunner) executes in process, run
//! through the same fan-out, [`SweepPlan::run_points`]: the coordinator
//! only forwards each point's [`SweepPlan::spec`] as a `POST /run` body,
//! consults the server's [`ResultStore`] and dispatches, then hands the
//! report bodies back to [`SweepPlan::render`]. Every point is an
//! independent simulation with its own seed-derived streams, so the
//! response is **byte-identical** to a local run at any backend count by
//! construction. A `POST /run` job and each sweep point go through one
//! dispatch helper, which reads the backend's answer as a report before
//! anything is served or stored.
//!
//! Failure handling: each point is retried with bounded exponential
//! backoff across the pool; a backend that fails repeatedly trips a
//! per-backend circuit breaker and is skipped until a cooldown passes
//! (half-open probing). Every dispatch attempt is recorded as a
//! [`DispatchSpan`] and rendered under the request's `execute` stage in
//! `/jobs/<id>/trace`.

use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use refrint::json::ReportBody;
use refrint::simulation::RunSpec;
use refrint::sweep::{PlanPoint, SweepPlan, Workload};
use refrint_engine::json::escape;
use refrint_engine::stats::Histogram;
use refrint_obs::log::{Level, LogFormat, Logger};
use refrint_obs::otlp::point_span_id;
use refrint_obs::span::{DispatchSpan, TraceContext};

use crate::api::{self, ApiError, RunWorkload};
use crate::client::{self, Timeouts};
use crate::http::elapsed_nanos;
use crate::jobs::{JobOutput, JobWork, PointOutcome, ResultStore};
use crate::metrics::LATENCY_BOUNDS_MICROS;

/// Dispatch attempts recorded per job before the span list is capped (a
/// huge sweep should not balloon its own trace document).
const MAX_RECORDED_DISPATCH: usize = 64;

/// Dispatch attempts per point before the job fails.
const MAX_ATTEMPTS: u32 = 4;

/// First retry delay; doubled per attempt up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Upper bound on the exponential backoff delay.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Consecutive failures that trip a backend's circuit breaker.
const BREAKER_THRESHOLD: u32 = 3;

/// How long a tripped breaker stays open before half-open probing.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(5);

/// Target concurrent dispatches per backend (sizes the fan-out pool).
const PER_BACKEND_INFLIGHT: usize = 4;

/// Socket read deadline for one point dispatch.
const DISPATCH_TIMEOUT: Duration = Duration::from_secs(120);

/// The configuration of a [`Coordinator`].
#[derive(Debug, Clone, Default)]
pub struct CoordinatorOptions {
    /// Initial backend addresses (`host:port`), resolved at bind time.
    /// More can join later via `POST /backends`.
    pub backends: Vec<String>,
}

/// One backend of the pool, with its health and dispatch accounting.
#[derive(Debug)]
struct BackendSlot {
    addr: SocketAddr,
    label: String,
    inflight: usize,
    consecutive_failures: u32,
    open_until: Option<Instant>,
    dispatched: u64,
    ok: u64,
    failed: u64,
}

impl BackendSlot {
    fn new(addr: SocketAddr, label: String) -> Self {
        BackendSlot {
            addr,
            label,
            inflight: 0,
            consecutive_failures: 0,
            open_until: None,
            dispatched: 0,
            ok: 0,
            failed: 0,
        }
    }

    fn healthy(&self, now: Instant) -> bool {
        self.open_until.is_none_or(|until| until <= now)
    }
}

/// What a dispatched job may consult and update: the server's result
/// store and the request's trace context (propagated as `traceparent` on
/// every dispatched `POST /run`).
#[derive(Debug)]
pub struct DispatchEnv<'a> {
    /// The server's result store, consulted and fed per sweep point.
    pub store: &'a ResultStore,
    /// The job's trace context; point `i` is dispatched with a
    /// `traceparent` naming the deterministic point anchor span, so the
    /// backend's trace arrives pre-parented for stitching.
    pub trace: Option<&'a TraceContext>,
}

/// One job's dispatch attempts, timed from the job's execute epoch and
/// capped at [`MAX_RECORDED_DISPATCH`], for `/jobs/<id>/trace`.
#[derive(Debug)]
struct DispatchLog {
    epoch: Instant,
    spans: Mutex<Vec<DispatchSpan>>,
}

impl DispatchLog {
    /// Records one attempt on `backend` (an address, or `result-cache`).
    fn record(
        &self,
        backend: impl std::fmt::Display,
        attempt: u32,
        start_nanos: u64,
        dur_nanos: u64,
        outcome: &'static str,
    ) {
        let mut spans = self.spans.lock().expect("dispatch span lock");
        if spans.len() < MAX_RECORDED_DISPATCH {
            spans.push(DispatchSpan {
                backend: backend.to_string(),
                attempt,
                start_nanos,
                dur_nanos,
                outcome,
            });
        }
    }
}

/// A point a backend answered: its verbatim response body, the report
/// read from it, and where and when it ran.
#[derive(Debug)]
struct PointRun {
    body: String,
    report: ReportBody,
    outcome: PointOutcome,
}

/// The backend pool and dispatch logic of a coordinator-mode server.
#[derive(Debug)]
pub struct Coordinator {
    pool: Mutex<Vec<BackendSlot>>,
    logger: Logger,
    /// Per-backend dispatch round-trip latency (microseconds recorded,
    /// seconds rendered), keyed by resolved address. Separates network +
    /// backend-queue latency from the coordinator's own sim-free view.
    durations: Mutex<BTreeMap<String, Histogram>>,
}

impl Coordinator {
    /// Builds a coordinator and registers the configured backends
    /// (addresses are resolved now; reachability is probed lazily, so
    /// backends may come up after the coordinator does).
    ///
    /// # Errors
    ///
    /// When a configured backend address does not resolve.
    pub fn new(
        opts: CoordinatorOptions,
        log_level: Level,
        log_format: LogFormat,
    ) -> Result<Coordinator, ApiError> {
        let coordinator = Coordinator {
            pool: Mutex::new(Vec::new()),
            logger: Logger::to_stderr(log_level, log_format),
            durations: Mutex::new(BTreeMap::new()),
        };
        for addr in &opts.backends {
            coordinator.register(addr, false)?;
        }
        Ok(coordinator)
    }

    /// Registers a backend by address, deduplicating on the resolved
    /// socket address. With `probe`, the backend must answer
    /// `GET /healthz` first.
    ///
    /// # Errors
    ///
    /// `bad_backend` (422) when the address does not resolve;
    /// `backend_unreachable` (502) when a probed backend does not answer.
    pub fn register(&self, addr: &str, probe: bool) -> Result<SocketAddr, ApiError> {
        let resolved = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut it| it.next())
            .ok_or_else(|| {
                ApiError::new(
                    422,
                    "bad_backend",
                    format!("cannot resolve backend address `{addr}`"),
                )
            })?;
        if probe {
            let answer = client::request_with_timeouts(
                resolved,
                "GET",
                "/healthz",
                None,
                &[],
                Timeouts {
                    connect: Duration::from_secs(2),
                    read: Duration::from_secs(5),
                    write: Duration::from_secs(2),
                },
            );
            if !answer.is_ok_and(|r| r.status == 200) {
                return Err(ApiError::new(
                    502,
                    "backend_unreachable",
                    format!("backend {resolved} did not answer GET /healthz"),
                ));
            }
        }
        let mut pool = self.pool.lock().expect("backend pool lock");
        if !pool.iter().any(|slot| slot.addr == resolved) {
            self.logger
                .info("backend_registered", &[("backend", resolved.to_string())]);
            pool.push(BackendSlot::new(resolved, addr.to_owned()));
        }
        Ok(resolved)
    }

    /// Number of registered backends.
    #[must_use]
    pub fn backend_count(&self) -> usize {
        self.pool.lock().expect("backend pool lock").len()
    }

    /// The `GET /backends` JSON document.
    #[must_use]
    pub fn backends_doc(&self) -> String {
        let now = Instant::now();
        let pool = self.pool.lock().expect("backend pool lock");
        let entries: Vec<String> = pool
            .iter()
            .map(|slot| {
                format!(
                    concat!(
                        "{{\"addr\":\"{}\",\"label\":\"{}\",\"healthy\":{},",
                        "\"inflight\":{},\"consecutive_failures\":{},",
                        "\"dispatched\":{},\"ok\":{},\"failed\":{}}}"
                    ),
                    slot.addr,
                    escape(&slot.label),
                    slot.healthy(now),
                    slot.inflight,
                    slot.consecutive_failures,
                    slot.dispatched,
                    slot.ok,
                    slot.failed,
                )
            })
            .collect();
        format!("{{\"backends\":[{}]}}\n", entries.join(","))
    }

    /// Prometheus text lines for the per-backend counters, appended to the
    /// server's `/metrics` rendering.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let now = Instant::now();
        let pool = self.pool.lock().expect("backend pool lock");
        let mut out = String::new();
        for (name, help, kind) in [
            (
                "refrint_backend_dispatched_total",
                "Point dispatches attempted per backend.",
                "counter",
            ),
            (
                "refrint_backend_ok_total",
                "Successful point dispatches per backend.",
                "counter",
            ),
            (
                "refrint_backend_failed_total",
                "Failed point dispatches per backend.",
                "counter",
            ),
            (
                "refrint_backend_inflight",
                "Dispatches currently in flight per backend.",
                "gauge",
            ),
            (
                "refrint_backend_breaker_open",
                "Whether the backend's circuit breaker is open (1) or closed (0).",
                "gauge",
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for slot in pool.iter() {
                let value = match name {
                    "refrint_backend_dispatched_total" => slot.dispatched,
                    "refrint_backend_ok_total" => slot.ok,
                    "refrint_backend_failed_total" => slot.failed,
                    "refrint_backend_inflight" => slot.inflight as u64,
                    _ => u64::from(!slot.healthy(now)),
                };
                out.push_str(&format!("{name}{{backend=\"{}\"}} {value}\n", slot.addr));
            }
        }
        drop(pool);
        let durations = self.durations.lock().expect("dispatch duration lock");
        out.push_str(
            "# HELP refrint_dispatch_duration_seconds Dispatch round-trip latency per backend \
             (network + backend queue + backend sim).\n\
             # TYPE refrint_dispatch_duration_seconds histogram\n",
        );
        for (backend, h) in durations.iter() {
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds().iter().zip(h.buckets()) {
                cumulative += count;
                out.push_str(&format!(
                    "refrint_dispatch_duration_seconds_bucket{{backend=\"{backend}\",le=\"{}\"}} \
                     {cumulative}\n",
                    *bound as f64 / 1e6
                ));
            }
            out.push_str(&format!(
                "refrint_dispatch_duration_seconds_bucket{{backend=\"{backend}\",le=\"+Inf\"}} \
                 {}\n",
                h.count()
            ));
            out.push_str(&format!(
                "refrint_dispatch_duration_seconds_sum{{backend=\"{backend}\"}} {:.6}\n",
                h.sum() as f64 / 1e6
            ));
            out.push_str(&format!(
                "refrint_dispatch_duration_seconds_count{{backend=\"{backend}\"}} {}\n",
                h.count()
            ));
        }
        out
    }

    /// Records one dispatch round-trip into the per-backend histogram.
    fn record_duration(&self, addr: SocketAddr, dur_nanos: u64) {
        let mut durations = self.durations.lock().expect("dispatch duration lock");
        durations
            .entry(addr.to_string())
            .or_insert_with(|| Histogram::with_bounds(&LATENCY_BOUNDS_MICROS))
            .record(dur_nanos / 1_000);
    }

    /// Picks the healthiest, least-loaded backend, preferring any other
    /// candidate over `exclude` (the backend that just failed). `None`
    /// when every backend's breaker is open or the pool is empty.
    fn acquire(&self, exclude: Option<SocketAddr>) -> Option<SocketAddr> {
        let now = Instant::now();
        let mut pool = self.pool.lock().expect("backend pool lock");
        let pick = |pool: &Vec<BackendSlot>, skip: Option<SocketAddr>| {
            let mut best: Option<usize> = None;
            for (i, slot) in pool.iter().enumerate() {
                if !slot.healthy(now) || Some(slot.addr) == skip {
                    continue;
                }
                if best.is_none_or(|b: usize| slot.inflight < pool[b].inflight) {
                    best = Some(i);
                }
            }
            best
        };
        let best = pick(&pool, exclude).or_else(|| pick(&pool, None))?;
        let slot = &mut pool[best];
        slot.inflight += 1;
        slot.dispatched += 1;
        Some(slot.addr)
    }

    /// Returns a backend after a dispatch, updating its breaker state.
    fn release(&self, addr: SocketAddr, ok: bool) {
        let mut pool = self.pool.lock().expect("backend pool lock");
        if let Some(slot) = pool.iter_mut().find(|slot| slot.addr == addr) {
            slot.inflight = slot.inflight.saturating_sub(1);
            if ok {
                slot.ok += 1;
                slot.consecutive_failures = 0;
                slot.open_until = None;
            } else {
                slot.failed += 1;
                slot.consecutive_failures += 1;
                if slot.consecutive_failures >= BREAKER_THRESHOLD {
                    slot.open_until = Some(Instant::now() + BREAKER_COOLDOWN);
                    self.logger.warn(
                        "backend_breaker_open",
                        &[
                            ("backend", addr.to_string()),
                            ("cooldown_ms", BREAKER_COOLDOWN.as_millis().to_string()),
                        ],
                    );
                }
            }
        }
    }

    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(10);
        (BACKOFF_BASE * factor).min(BACKOFF_CAP)
    }

    /// Executes a job by dispatching it to the backend pool. The
    /// counterpart of [`crate::jobs::execute`] for coordinator-mode
    /// workers: same inputs, same output contract, same bytes on success.
    /// A `POST /run` is one point dispatch; a sweep runs each point
    /// through the result store and [`SweepPlan::run_points`].
    /// The body of a failed job is the first error in plan order, and
    /// its dispatch spans still show what was tried.
    #[must_use]
    pub fn execute(&self, work: &JobWork, env: &DispatchEnv<'_>) -> JobOutput {
        let log = DispatchLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        };
        let done = match work {
            JobWork::Run { workload, spec } => {
                let label = run_label(workload, spec);
                let run = self.run_point(0, label, workload, spec, env.trace, &log);
                run.map(|r| (r.body.into_bytes(), r.report.dl1_accesses, vec![r.outcome]))
            }
            JobWork::Sweep { plan } => self.run_sweep(plan, env, &log),
        };
        let mut output = match done {
            Ok((body, refs, points)) => {
                let mut output = JobOutput::from_bytes(200, Arc::new(body));
                output.refs = refs;
                output.sim_seconds = log.epoch.elapsed().as_secs_f64();
                output.points = points;
                output
            }
            Err(e) => JobOutput::from_bytes(e.status, Arc::new(e.body())),
        };
        output.dispatch = log.spans.into_inner().expect("dispatch span lock");
        output
    }

    /// Runs a sweep's points, each from the result store when it holds the
    /// point's `POST /run` key and from the pool otherwise, then merges the
    /// reports through [`SweepPlan::render`]. Fresh points feed the store,
    /// so a restarted coordinator with the same `--cache-dir` resumes where
    /// it left off. Returns the document, the references simulated and
    /// where each point ran.
    fn run_sweep(
        &self,
        plan: &SweepPlan,
        env: &DispatchEnv<'_>,
        log: &DispatchLog,
    ) -> Result<(Vec<u8>, u64, Vec<PointOutcome>), ApiError> {
        let runs = plan
            .points()
            .iter()
            .map(|point| point_run(plan, point))
            .collect::<Result<Vec<_>, _>>()?;
        let workers = self.backend_count().max(1) * PER_BACKEND_INFLIGHT;
        let points = plan.run_points(workers, |index, point| {
            let (workload, spec) = &runs[index];
            let key = api::run_key(workload, spec).ok();
            let lookup = Instant::now();
            if let Some(body) = key.as_deref().and_then(|key| env.store.get(key)) {
                let dur_nanos = elapsed_nanos(lookup);
                let start_nanos = elapsed_nanos(log.epoch).saturating_sub(dur_nanos);
                log.record("result-cache", 1, start_nanos, dur_nanos, "cache");
                let outcome = PointOutcome {
                    index,
                    label: point.label(),
                    node: "result-cache".to_owned(),
                    backend_job: None,
                    start_nanos,
                    dur_nanos,
                };
                return Ok((parse_report(&String::from_utf8_lossy(&body))?, outcome));
            }
            let run = self.run_point(index, point.label(), workload, spec, env.trace, log)?;
            if let Some(key) = key {
                env.store.put(&key, Arc::new(run.body.into_bytes()));
            }
            Ok((run.report, run.outcome))
        })?;
        let (reports, outcomes): (Vec<ReportBody>, Vec<PointOutcome>) = points.into_iter().unzip();
        let refs = reports.iter().map(|r| r.dl1_accesses).sum();
        let doc = plan.render(reports);
        Ok((format!("{doc}\n").into_bytes(), refs, outcomes))
    }

    /// Runs point `index` on the pool: dispatches its `POST /run` body,
    /// retrying across the pool with exponential backoff, and reads the
    /// answer as a report. The body is the backend's verbatim response,
    /// bytes identical to a local run. `traceparent` names the point's
    /// deterministic anchor span on every attempt — it only affects the
    /// backend's trace document, never its response bytes, so
    /// byte-identity is preserved.
    fn run_point(
        &self,
        index: usize,
        label: String,
        workload: &RunWorkload,
        spec: &RunSpec,
        trace: Option<&TraceContext>,
        log: &DispatchLog,
    ) -> Result<PointRun, ApiError> {
        let body = api::run_body(workload, spec);
        let traceparent = trace.map(|t| t.to_traceparent(&point_span_id(&t.trace_id, index)));
        let headers: Vec<(&str, &str)> = traceparent
            .iter()
            .map(|tp| ("traceparent", tp.as_str()))
            .collect();
        let mut exclude = None;
        let mut last: Option<ApiError> = None;
        for attempt in 1..=MAX_ATTEMPTS {
            let Some(addr) = self.acquire(exclude) else {
                last.get_or_insert_with(|| {
                    ApiError::new(
                        502,
                        "no_backends",
                        "no healthy backend is registered; POST /backends to add one",
                    )
                });
                std::thread::sleep(self.backoff(attempt));
                continue;
            };
            let start_nanos = elapsed_nanos(log.epoch);
            let sent = Instant::now();
            let answer = client::request_with_timeouts(
                addr,
                "POST",
                "/run",
                Some(body.as_bytes()),
                &headers,
                Timeouts {
                    connect: Duration::from_secs(5),
                    read: DISPATCH_TIMEOUT,
                    write: Duration::from_secs(10),
                },
            );
            let dur_nanos = elapsed_nanos(sent);
            self.record_duration(addr, dur_nanos);
            match answer {
                Ok(response) if response.status == 200 => {
                    self.release(addr, true);
                    log.record(addr, attempt, start_nanos, dur_nanos, "ok");
                    let body = response.body_str();
                    return Ok(PointRun {
                        report: parse_report(&body)?,
                        body,
                        outcome: PointOutcome {
                            index,
                            label,
                            node: addr.to_string(),
                            backend_job: response.header("x-refrint-job").map(str::to_owned),
                            start_nanos,
                            dur_nanos,
                        },
                    });
                }
                Ok(response) if (400..500).contains(&response.status) => {
                    // The backend is healthy — it answered — but the point
                    // itself was rejected; retrying elsewhere cannot help.
                    self.release(addr, true);
                    log.record(addr, attempt, start_nanos, dur_nanos, "error");
                    return Err(ApiError::new(
                        502,
                        "backend_rejected",
                        format!(
                            "backend {addr} rejected the point with {}: {}",
                            response.status,
                            response.body_str().trim()
                        ),
                    ));
                }
                Ok(response) => {
                    self.release(addr, false);
                    log.record(addr, attempt, start_nanos, dur_nanos, "error");
                    self.logger.warn(
                        "dispatch_failed",
                        &[
                            ("backend", addr.to_string()),
                            ("status", response.status.to_string()),
                            ("attempt", attempt.to_string()),
                        ],
                    );
                    last = Some(ApiError::new(
                        502,
                        "backend_failed",
                        format!(
                            "backend {addr} answered {} on attempt {attempt}",
                            response.status
                        ),
                    ));
                    exclude = Some(addr);
                }
                Err(e) => {
                    self.release(addr, false);
                    log.record(addr, attempt, start_nanos, dur_nanos, "error");
                    self.logger.warn(
                        "dispatch_failed",
                        &[
                            ("backend", addr.to_string()),
                            ("error", e.to_string()),
                            ("attempt", attempt.to_string()),
                        ],
                    );
                    last = Some(ApiError::new(
                        502,
                        "backend_failed",
                        format!("backend {addr} failed on attempt {attempt}: {e}"),
                    ));
                    exclude = Some(addr);
                }
            }
            if attempt < MAX_ATTEMPTS {
                std::thread::sleep(self.backoff(attempt));
            }
        }
        Err(last.unwrap_or_else(|| {
            ApiError::new(
                502,
                "no_backends",
                "no healthy backend is registered; POST /backends to add one",
            )
        }))
    }
}

/// Reads a backend's 200 body as a report; a body that is not one fails
/// the point as `backend_failed`, so it is neither served nor stored.
fn parse_report(body: &str) -> Result<ReportBody, ApiError> {
    ReportBody::parse(body).ok_or_else(|| {
        ApiError::new(
            502,
            "backend_failed",
            "a backend returned a malformed report body",
        )
    })
}

/// The display label of a single-point `POST /run` job: workload plus the
/// configuration axis it exercises.
fn run_label(workload: &RunWorkload, spec: &RunSpec) -> String {
    let workload = workload.name();
    if spec.sram {
        format!("{workload}/sram")
    } else if let (Some(us), Some(policy)) = (spec.retention_us, spec.policy) {
        format!("{workload}/{us}us/{}", policy.label())
    } else {
        workload.to_owned()
    }
}

/// The run that simulates `point` on a backend: the plan's spec of the
/// point, and its workload. A trace point forwards the trace's plain file
/// name, which each backend resolves against its own trace directory.
fn point_run(plan: &SweepPlan, point: &PlanPoint) -> Result<(RunWorkload, RunSpec), ApiError> {
    let workload = match &point.workload {
        Workload::App(app) => RunWorkload::App(*app),
        Workload::Trace(spec) => {
            let name = spec.path.file_name().ok_or_else(|| {
                ApiError::new(
                    422,
                    "invalid_config",
                    format!("trace path `{}` has no file name", spec.path.display()),
                )
            })?;
            RunWorkload::Trace {
                name: name.to_string_lossy().into_owned(),
                path: spec.path.clone(),
            }
        }
    };
    Ok((workload, plan.spec(point)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint::experiment::ExperimentConfig;
    use refrint::prelude::{AppPreset, CoherenceProtocol, RefreshPolicy, RetentionProfile};

    #[test]
    fn point_request_bodies_only_carry_set_fields() {
        let spec = RunSpec {
            refs: Some(400),
            cores: Some(2),
            ..RunSpec::default()
        };
        let lu = RunWorkload::App(AppPreset::Lu);
        assert_eq!(
            api::run_body(&lu, &spec),
            "{\"app\":\"lu\",\"refs\":400,\"cores\":2}"
        );
        // Spelled-out default axes are left out.
        let spelled = RunSpec {
            protocol: Some(CoherenceProtocol::Mesi),
            retention_profile: Some(RetentionProfile::Uniform),
            ..spec
        };
        assert_eq!(api::run_body(&lu, &spelled), api::run_body(&lu, &spec));
        let sram = RunSpec {
            sram: true,
            seed: Some(7),
            ..RunSpec::default()
        };
        let trace = RunWorkload::Trace {
            name: "lu.rft".to_owned(),
            path: "/traces/lu.rft".into(),
        };
        assert_eq!(
            api::run_body(&trace, &sram),
            "{\"trace\":\"lu.rft\",\"sram\":true,\"seed\":7}"
        );
    }

    /// Every plan point of an axis sweep becomes a `POST /run` body that
    /// spells out only its non-default axes, so default points keep their
    /// historical bodies and per-point cache keys.
    #[test]
    fn sweep_points_expand_protocol_and_retention_profile_axes() {
        let config = ExperimentConfig {
            apps: vec![AppPreset::Lu],
            retentions_us: vec![50],
            policies: vec![RefreshPolicy::recommended()],
            protocols: vec![CoherenceProtocol::Mesi, CoherenceProtocol::Dragon],
            retention_profiles: vec![
                RetentionProfile::Uniform,
                RetentionProfile::Bimodal {
                    weak_pct: 25,
                    weak_retention_pct: 60,
                },
            ],
            refs_per_thread: 500,
            seed: 9,
            cores: 2,
            ..ExperimentConfig::default()
        };
        let plan = SweepPlan::new(config).unwrap();
        let bodies: Vec<String> = plan
            .points()
            .iter()
            .map(|point| {
                let (workload, spec) = point_run(&plan, point).unwrap();
                api::run_body(&workload, &spec)
            })
            .collect();
        let tail = "\"refs\":500,\"seed\":9,\"cores\":2}";
        assert_eq!(
            bodies,
            [
                format!("{{\"app\":\"lu\",\"sram\":true,{tail}"),
                format!("{{\"app\":\"lu\",\"policy\":\"R.WB(32,32)\",\"retention_us\":50,{tail}"),
                format!(
                    "{{\"app\":\"lu\",\"policy\":\"R.WB(32,32)\",\"retention_us\":50,\
                     \"retention_profile\":\"bimodal(25,60)\",{tail}"
                ),
                format!("{{\"app\":\"lu\",\"sram\":true,\"protocol\":\"dragon\",{tail}"),
                format!(
                    "{{\"app\":\"lu\",\"policy\":\"R.WB(32,32)\",\"retention_us\":50,\
                     \"protocol\":\"dragon\",{tail}"
                ),
                format!(
                    "{{\"app\":\"lu\",\"policy\":\"R.WB(32,32)\",\"retention_us\":50,\
                     \"retention_profile\":\"bimodal(25,60)\",\"protocol\":\"dragon\",{tail}"
                ),
            ]
        );
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers() {
        let coordinator =
            Coordinator::new(CoordinatorOptions::default(), Level::Error, LogFormat::Text).unwrap();
        coordinator.register("127.0.0.1:1", false).unwrap();
        let addr = coordinator.acquire(None).unwrap();
        for failure in 1..BREAKER_THRESHOLD {
            coordinator.release(addr, false);
            assert_eq!(
                coordinator.acquire(None),
                Some(addr),
                "{failure} failures: closed"
            );
        }
        coordinator.release(addr, false);
        assert!(
            coordinator.acquire(None).is_none(),
            "failure {BREAKER_THRESHOLD} trips the breaker"
        );
        // Rewind the cooldown instead of sleeping through it.
        for slot in coordinator.pool.lock().unwrap().iter_mut() {
            slot.open_until = Some(Instant::now());
        }
        let probe = coordinator.acquire(None);
        assert_eq!(probe, Some(addr), "half-open after the cooldown");
        coordinator.release(addr, true);
        assert!(
            coordinator.acquire(None).is_some(),
            "a success closes the breaker"
        );
    }

    #[test]
    fn unresolvable_backends_are_a_typed_error() {
        let err = Coordinator::new(
            CoordinatorOptions {
                backends: vec!["definitely-not-a-host-9f3a:0:bad".to_owned()],
            },
            Level::Error,
            LogFormat::Text,
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind, "bad_backend");
    }

    #[test]
    fn registration_deduplicates_resolved_addresses() {
        let coordinator =
            Coordinator::new(CoordinatorOptions::default(), Level::Error, LogFormat::Text).unwrap();
        coordinator.register("127.0.0.1:7878", false).unwrap();
        coordinator.register("127.0.0.1:7878", false).unwrap();
        assert_eq!(coordinator.backend_count(), 1);
        assert!(coordinator
            .backends_doc()
            .contains("\"addr\":\"127.0.0.1:7878\""));
    }
}
