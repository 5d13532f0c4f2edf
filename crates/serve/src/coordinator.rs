//! Scale-out sweep coordination across `refrint-serve` backends.
//!
//! A coordinator is an ordinary server whose workers, instead of
//! simulating locally, split each job into point-level `POST /run`
//! requests and fan them out over the existing HTTP API to a pool of
//! backend nodes. A sweep is the same [`SweepPlan`] the local
//! [`SweepRunner`](refrint::sweep::SweepRunner) executes in process: the
//! coordinator only forwards each point's [`SweepPlan::spec`] as a
//! `POST /run` body, consults its caches and dispatches, then hands the
//! report bodies back to [`SweepPlan::render`]. Every point is an
//! independent simulation with its own seed-derived streams, so the
//! response is **byte-identical** to a local run at any backend count by
//! construction.
//!
//! Failure handling: each point is retried with bounded exponential
//! backoff across the pool; a backend that fails repeatedly trips a
//! per-backend circuit breaker and is skipped until a cooldown passes
//! (half-open probing). Every dispatch attempt is recorded as a
//! [`DispatchSpan`] and rendered under the request's `execute` stage in
//! `/jobs/<id>/trace`.
//!
//! Custom [`PolicyFactory`](refrint_edram::model::PolicyFactory) models
//! are not expressible over the HTTP API (they are in-process trait
//! objects), so sweeps carrying them are rejected with a typed error —
//! everything `POST /sweep` accepts is coverable.

use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use refrint::json::ReportBody;
use refrint::simulation::RunSpec;
use refrint::sweep::{EdramPoint, PlanPoint, PointPolicy, SweepPlan, Workload};
use refrint_engine::json::escape;
use refrint_engine::stats::Histogram;
use refrint_obs::log::{Level, LogFormat, Logger};
use refrint_obs::otlp::point_span_id;
use refrint_obs::span::{DispatchSpan, TraceContext};

use crate::api::{self, ApiError, RunWorkload};
use crate::client::{self, Timeouts};
use crate::disk_cache::DiskCache;
use crate::http::elapsed_nanos;
use crate::jobs::{JobOutput, JobWork, PointOutcome, ResultCache};
use crate::metrics::{Metrics, LATENCY_BOUNDS_MICROS};

/// Dispatch attempts recorded per job before the span list is capped (a
/// huge sweep should not balloon its own trace document).
const MAX_RECORDED_DISPATCH: usize = 64;

/// Tunables of a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Initial backend addresses (`host:port`), resolved at bind time.
    /// More can join later via `POST /backends`.
    pub backends: Vec<String>,
    /// Dispatch attempts per point before the job fails.
    pub max_attempts: u32,
    /// First retry delay; doubled per attempt up to [`Self::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff delay.
    pub backoff_cap: Duration,
    /// Consecutive failures that trip a backend's circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before half-open probing.
    pub breaker_cooldown: Duration,
    /// Target concurrent dispatches per backend (sizes the fan-out pool).
    pub per_backend_inflight: usize,
    /// Socket read deadline for one point dispatch.
    pub dispatch_timeout: Duration,
}

impl Default for CoordinatorOptions {
    fn default() -> Self {
        CoordinatorOptions {
            backends: Vec::new(),
            max_attempts: 4,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(5),
            per_backend_inflight: 4,
            dispatch_timeout: Duration::from_secs(120),
        }
    }
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

/// What a dispatched job may consult and update: the server's two result
/// caches, its metrics counters and the request's trace context
/// (propagated as `traceparent` on every dispatched `POST /run`).
#[derive(Debug)]
pub struct DispatchEnv<'a> {
    /// The in-memory result cache, consulted and fed per point.
    pub memory_cache: &'a Mutex<ResultCache>,
    /// The persistent result cache, when the server has one.
    pub disk_cache: Option<&'a DiskCache>,
    /// The server's metrics (disk-cache hit/miss counters).
    pub metrics: &'a Metrics,
    /// The job's trace context; point `i` is dispatched with a
    /// `traceparent` naming the deterministic point anchor span, so the
    /// backend's trace arrives pre-parented for stitching.
    pub trace: Option<&'a TraceContext>,
}

/// One finished sweep point: the report to merge plus the
/// [`PointOutcome`] describing where it ran.
type PointResult = Result<(ReportBody, PointOutcome), ApiError>;

/// A successfully dispatched point: the backend's verbatim response body
/// plus where and when it ran, for trace stitching.
#[derive(Debug)]
struct Dispatched {
    body: String,
    backend: SocketAddr,
    /// The backend-side job id (`x-refrint-job`), for fetching its trace.
    job: Option<String>,
    start_nanos: u64,
    dur_nanos: u64,
}

/// The backend pool and dispatch logic of a coordinator-mode server.
#[derive(Debug)]
pub struct Coordinator {
    opts: CoordinatorOptions,
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
            opts: opts.clone(),
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
                if slot.consecutive_failures >= self.opts.breaker_threshold {
                    slot.open_until = Some(Instant::now() + self.opts.breaker_cooldown);
                    self.logger.warn(
                        "backend_breaker_open",
                        &[
                            ("backend", addr.to_string()),
                            (
                                "cooldown_ms",
                                self.opts.breaker_cooldown.as_millis().to_string(),
                            ),
                        ],
                    );
                }
            }
        }
    }

    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(10);
        (self.opts.backoff_base * factor).min(self.opts.backoff_cap)
    }

    /// Dispatches one `POST /run` body, retrying across the pool with
    /// exponential backoff. Returns the backend's response body (bytes
    /// identical to a local run) plus where it ran and when, for trace
    /// stitching. `traceparent` is propagated verbatim on every attempt —
    /// it only affects the backend's trace document, never its response
    /// bytes, so byte-identity is preserved.
    fn dispatch_point(
        &self,
        body: &str,
        traceparent: Option<&str>,
        spans: &Mutex<Vec<DispatchSpan>>,
        epoch: Instant,
    ) -> Result<Dispatched, ApiError> {
        let headers: Vec<(&str, &str)> =
            traceparent.iter().map(|tp| ("traceparent", *tp)).collect();
        let mut exclude = None;
        let mut last: Option<ApiError> = None;
        for attempt in 1..=self.opts.max_attempts {
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
            let start_nanos = elapsed_nanos(epoch);
            let sent = Instant::now();
            let answer = client::request_with_timeouts(
                addr,
                "POST",
                "/run",
                Some(body.as_bytes()),
                &headers,
                Timeouts {
                    connect: Duration::from_secs(5),
                    read: self.opts.dispatch_timeout,
                    write: Duration::from_secs(10),
                },
            );
            let dur_nanos = elapsed_nanos(sent);
            self.record_duration(addr, dur_nanos);
            match answer {
                Ok(response) if response.status == 200 => {
                    self.release(addr, true);
                    record_dispatch(spans, addr, attempt, start_nanos, dur_nanos, "ok");
                    let job = response.header("x-refrint-job").map(str::to_owned);
                    return Ok(Dispatched {
                        body: response.body_str(),
                        backend: addr,
                        job,
                        start_nanos,
                        dur_nanos,
                    });
                }
                Ok(response) if (400..500).contains(&response.status) => {
                    // The backend is healthy — it answered — but the point
                    // itself was rejected; retrying elsewhere cannot help.
                    self.release(addr, true);
                    record_dispatch(spans, addr, attempt, start_nanos, dur_nanos, "error");
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
                    record_dispatch(spans, addr, attempt, start_nanos, dur_nanos, "error");
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
                    record_dispatch(spans, addr, attempt, start_nanos, dur_nanos, "error");
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
            if attempt < self.opts.max_attempts {
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

    /// Executes a job by dispatching it to the backend pool. The
    /// counterpart of [`crate::jobs::execute`] for coordinator-mode
    /// workers: same inputs, same output contract, same bytes on success.
    #[must_use]
    pub fn execute(&self, work: &JobWork, env: &DispatchEnv<'_>) -> JobOutput {
        match work {
            JobWork::Run { workload, spec } => self.execute_run(workload, spec, env),
            JobWork::Sweep { plan } => self.execute_sweep(plan, env),
        }
    }

    fn execute_run(
        &self,
        workload: &RunWorkload,
        spec: &RunSpec,
        env: &DispatchEnv<'_>,
    ) -> JobOutput {
        let epoch = Instant::now();
        let spans = Mutex::new(Vec::new());
        let traceparent = env
            .trace
            .map(|t| t.to_traceparent(&point_span_id(&t.trace_id, 0)));
        let body = api::run_body(workload, spec);
        match self.dispatch_point(&body, traceparent.as_deref(), &spans, epoch) {
            Ok(dispatched) => {
                let refs = ReportBody::parse(&dispatched.body).map_or(0, |r| r.dl1_accesses);
                let outcome = PointOutcome {
                    index: 0,
                    label: run_label(workload, spec),
                    node: dispatched.backend.to_string(),
                    backend_job: dispatched.job,
                    start_nanos: dispatched.start_nanos,
                    dur_nanos: dispatched.dur_nanos,
                };
                let mut output = JobOutput::from_bytes(200, Arc::new(dispatched.body.into_bytes()));
                output.refs = refs;
                output.sim_seconds = epoch.elapsed().as_secs_f64();
                output.dispatch = spans.into_inner().expect("dispatch span lock");
                output.points = vec![outcome];
                output
            }
            Err(e) => dispatch_failure(&e, spans),
        }
    }

    fn execute_sweep(&self, plan: &SweepPlan, env: &DispatchEnv<'_>) -> JobOutput {
        let epoch = Instant::now();
        let spans = Mutex::new(Vec::new());
        let points = plan.points();
        let runs = match points
            .iter()
            .map(|point| point_run(plan, point))
            .collect::<Result<Vec<_>, _>>()
        {
            Ok(runs) => runs,
            Err(e) => return dispatch_failure(&e, spans),
        };

        let total = points.len();
        let next = AtomicUsize::new(0);
        let aborted = AtomicBool::new(false);
        let results: Mutex<Vec<Option<PointResult>>> =
            Mutex::new((0..total).map(|_| None).collect());
        let workers = {
            let backends = self.backend_count().max(1);
            total
                .min(backends * self.opts.per_backend_inflight.max(1))
                .max(1)
        };
        let worker = || loop {
            if aborted.load(Ordering::Relaxed) {
                break;
            }
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= total {
                break;
            }
            let result = self.run_point(index, &points[index], &runs[index], env, &spans, epoch);
            if result.is_err() {
                aborted.store(true, Ordering::Relaxed);
            }
            results.lock().expect("sweep results lock")[index] = Some(result);
        };
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });

        // Points are claimed in order and every worker has joined, so the
        // first slot without a report holds the first error in plan order.
        let mut reports = Vec::with_capacity(total);
        let mut outcomes = Vec::with_capacity(total);
        for slot in results.into_inner().expect("sweep results lock") {
            match slot {
                Some(Ok((report, outcome))) => {
                    reports.push(report);
                    outcomes.push(outcome);
                }
                Some(Err(e)) => return dispatch_failure(&e, spans),
                None => {
                    let e =
                        ApiError::new(502, "backend_failed", "a sweep point was never dispatched");
                    return dispatch_failure(&e, spans);
                }
            }
        }
        let refs = reports.iter().map(|r| r.dl1_accesses).sum();
        let doc = plan.render(reports);
        let mut output = JobOutput::from_bytes(200, Arc::new(format!("{doc}\n").into_bytes()));
        output.refs = refs;
        output.sim_seconds = epoch.elapsed().as_secs_f64();
        output.dispatch = spans.into_inner().expect("dispatch span lock");
        output.points = outcomes;
        output
    }

    /// Runs one sweep point: result caches first (memory, then disk),
    /// then a dispatched `POST /run`. Fresh results feed both caches, so
    /// a restarted coordinator with the same `--cache-dir` resumes where
    /// it left off.
    fn run_point(
        &self,
        index: usize,
        point: &PlanPoint,
        (workload, spec): &(RunWorkload, RunSpec),
        env: &DispatchEnv<'_>,
        spans: &Mutex<Vec<DispatchSpan>>,
        epoch: Instant,
    ) -> PointResult {
        let key = api::run_key(workload, spec).ok();
        let lookup = Instant::now();
        let cached = key.as_deref().and_then(|key| cache_lookup(key, env));
        let fresh = cached.is_none();
        let (body, outcome) = if let Some(body) = cached {
            record_cache_hit(spans, epoch, lookup);
            let outcome = PointOutcome {
                index,
                label: point.label(),
                node: "result-cache".to_owned(),
                backend_job: None,
                start_nanos: elapsed_nanos(epoch).saturating_sub(elapsed_nanos(lookup)),
                dur_nanos: elapsed_nanos(lookup),
            };
            (body, outcome)
        } else {
            let traceparent = env
                .trace
                .map(|t| t.to_traceparent(&point_span_id(&t.trace_id, index)));
            let dispatched = self.dispatch_point(
                &api::run_body(workload, spec),
                traceparent.as_deref(),
                spans,
                epoch,
            )?;
            let outcome = PointOutcome {
                index,
                label: point.label(),
                node: dispatched.backend.to_string(),
                backend_job: dispatched.job,
                start_nanos: dispatched.start_nanos,
                dur_nanos: dispatched.dur_nanos,
            };
            (dispatched.body, outcome)
        };
        let report = ReportBody::parse(&body).ok_or_else(|| {
            ApiError::new(
                502,
                "backend_failed",
                "a backend returned a malformed report body",
            )
        })?;
        if let Some(key) = key.as_deref().filter(|_| fresh) {
            self.cache_insert(key, &body, env);
        }
        Ok((report, outcome))
    }

    /// Stores a freshly dispatched point body in both result caches.
    fn cache_insert(&self, key: &str, body: &str, env: &DispatchEnv<'_>) {
        env.memory_cache
            .lock()
            .expect("cache lock")
            .insert(key.to_owned(), Arc::new(body.as_bytes().to_vec()));
        if let Some(disk) = env.disk_cache {
            if let Err(e) = disk.put(key, body.as_bytes()) {
                self.logger
                    .warn("disk_cache_put_failed", &[("error", e.to_string())]);
            }
        }
    }
}

/// Looks a point body up in the memory cache, then the disk cache (a disk
/// hit is promoted to memory), counting disk hits and misses.
fn cache_lookup(key: &str, env: &DispatchEnv<'_>) -> Option<String> {
    let memory_hit = env.memory_cache.lock().expect("cache lock").get(key);
    if let Some(bytes) = memory_hit {
        return Some(String::from_utf8_lossy(&bytes).into_owned());
    }
    let disk = env.disk_cache?;
    let Some(bytes) = disk.get(key) else {
        env.metrics
            .disk_cache_misses
            .fetch_add(1, Ordering::Relaxed);
        return None;
    };
    env.metrics.disk_cache_hits.fetch_add(1, Ordering::Relaxed);
    let body = String::from_utf8_lossy(&bytes).into_owned();
    env.memory_cache
        .lock()
        .expect("cache lock")
        .insert(key.to_owned(), Arc::new(bytes));
    Some(body)
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

/// A failed dispatch as a job output: the typed error document, with the
/// dispatch spans preserved so `/jobs/<id>/trace` shows what was tried.
fn dispatch_failure(e: &ApiError, spans: Mutex<Vec<DispatchSpan>>) -> JobOutput {
    let mut output = JobOutput::from_bytes(e.status, Arc::new(e.body()));
    output.dispatch = spans.into_inner().expect("dispatch span lock");
    output
}

fn record_dispatch(
    spans: &Mutex<Vec<DispatchSpan>>,
    addr: SocketAddr,
    attempt: u32,
    start_nanos: u64,
    dur_nanos: u64,
    outcome: &'static str,
) {
    let mut spans = spans.lock().expect("dispatch span lock");
    if spans.len() < MAX_RECORDED_DISPATCH {
        spans.push(DispatchSpan {
            backend: addr.to_string(),
            attempt,
            start_nanos,
            dur_nanos,
            outcome,
        });
    }
}

fn record_cache_hit(spans: &Mutex<Vec<DispatchSpan>>, epoch: Instant, lookup: Instant) {
    let mut spans = spans.lock().expect("dispatch span lock");
    if spans.len() < MAX_RECORDED_DISPATCH {
        spans.push(DispatchSpan {
            backend: "result-cache".to_owned(),
            attempt: 1,
            start_nanos: elapsed_nanos(epoch).saturating_sub(elapsed_nanos(lookup)),
            dur_nanos: elapsed_nanos(lookup),
            outcome: "cache",
        });
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
    if let Some(EdramPoint {
        policy: PointPolicy::Custom(_),
        ..
    }) = &point.edram
    {
        return Err(ApiError::new(
            422,
            "unsupported",
            "custom policy models are in-process trait objects and cannot be \
             dispatched to backends; run them with a local SweepRunner",
        ));
    }
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
        let coordinator = Coordinator::new(
            CoordinatorOptions {
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_millis(30),
                ..CoordinatorOptions::default()
            },
            Level::Error,
            LogFormat::Text,
        )
        .unwrap();
        coordinator.register("127.0.0.1:1", false).unwrap();
        let addr = coordinator.acquire(None).unwrap();
        coordinator.release(addr, false);
        assert!(coordinator.acquire(None).is_some(), "one failure: closed");
        coordinator.release(addr, false);
        assert!(
            coordinator.acquire(None).is_none(),
            "second failure trips the breaker"
        );
        std::thread::sleep(Duration::from_millis(40));
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
                ..CoordinatorOptions::default()
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
