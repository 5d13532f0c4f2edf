//! Service counters and the `/metrics` endpoint rendering.
//!
//! Counters are plain atomics updated by connection handlers and workers;
//! `GET /metrics` renders them in the Prometheus text exposition format so
//! standard scrapers (and `grep` in the CI smoke job) can read them. The
//! refs/sec gauge is derived from two monotonic counters — total simulated
//! references and total busy seconds — mirroring how the `sim_throughput`
//! bench reports throughput.
//!
//! Beyond the plain counters, the endpoint also exposes:
//!
//! * two load gauges — `refrint_queue_depth` (jobs enqueued but not yet
//!   claimed) and `refrint_workers_busy` (workers currently simulating);
//! * an HTTP request-latency histogram
//!   (`refrint_http_request_duration_seconds`), recorded per connection in
//!   microseconds and rendered in seconds with cumulative `le` buckets;
//! * `refrint_subsystem_cycles_total{subsystem="…"}`, the simulated-cycle
//!   attribution collected by the observability recorder that every `run`
//!   job executes with (see `docs/observability.md`; sweep jobs do not
//!   contribute).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use refrint_engine::stats::Histogram;
use refrint_obs::span::{Subsystem, REQUEST_STAGES};

/// The request-latency bucket bounds, in microseconds, shared by the
/// request and per-stage histograms and the coordinator's per-backend
/// dispatch latency.
pub const LATENCY_BOUNDS_MICROS: [u64; 10] = [
    100, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 30_000_000,
];

/// The server's monotonic counters.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// HTTP requests accepted (any method/path).
    pub http_requests: AtomicU64,
    /// Requests answered with a 4xx/5xx status.
    pub http_errors: AtomicU64,
    /// Jobs submitted to the queue (cache hits do not submit).
    pub jobs_submitted: AtomicU64,
    /// Jobs that finished successfully.
    pub jobs_completed: AtomicU64,
    /// Jobs that finished with an error.
    pub jobs_failed: AtomicU64,
    /// Requests answered from the result cache.
    pub cache_hits: AtomicU64,
    /// Requests that missed the cache and simulated.
    pub cache_misses: AtomicU64,
    /// Lookups answered from the persistent disk cache.
    pub disk_cache_hits: AtomicU64,
    /// Lookups that missed the persistent disk cache.
    pub disk_cache_misses: AtomicU64,
    /// Times the disk cache discarded a corrupt `index.json` and started
    /// from an empty index.
    pub disk_cache_resets: AtomicU64,
    /// Total data references simulated by completed jobs.
    pub refs_simulated: AtomicU64,
    /// Total wall-clock microseconds workers spent simulating.
    pub sim_micros: AtomicU64,
    /// Jobs enqueued but not yet claimed by a worker (gauge).
    pub queue_depth: AtomicU64,
    /// Workers currently executing a job (gauge).
    pub workers_busy: AtomicU64,
    /// Simulated cycles attributed per subsystem by completed run jobs,
    /// indexed by [`Subsystem::index`].
    pub subsystem_cycles: [AtomicU64; Subsystem::COUNT],
    /// HTTP request latency, in microseconds.
    request_micros: Mutex<Histogram>,
    /// Per-lifecycle-stage latency, in microseconds, indexed like
    /// [`REQUEST_STAGES`].
    stage_micros: [Mutex<Histogram>; REQUEST_STAGES.len()],
}

impl Metrics {
    /// Fresh counters; uptime starts now.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            http_requests: AtomicU64::new(0),
            http_errors: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            disk_cache_hits: AtomicU64::new(0),
            disk_cache_misses: AtomicU64::new(0),
            disk_cache_resets: AtomicU64::new(0),
            refs_simulated: AtomicU64::new(0),
            sim_micros: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            workers_busy: AtomicU64::new(0),
            subsystem_cycles: std::array::from_fn(|_| AtomicU64::new(0)),
            request_micros: Mutex::new(Histogram::with_bounds(&LATENCY_BOUNDS_MICROS)),
            stage_micros: std::array::from_fn(|_| {
                Mutex::new(Histogram::with_bounds(&LATENCY_BOUNDS_MICROS))
            }),
        }
    }

    /// Seconds since the server started.
    #[must_use]
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records a finished job's contribution to the throughput counters
    /// and the per-subsystem cycle attribution.
    pub fn record_job(
        &self,
        ok: bool,
        refs: u64,
        sim_seconds: f64,
        subsystem_cycles: &[u64; Subsystem::COUNT],
    ) {
        if ok {
            self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
        self.refs_simulated.fetch_add(refs, Ordering::Relaxed);
        self.sim_micros
            .fetch_add((sim_seconds * 1e6) as u64, Ordering::Relaxed);
        for (total, cycles) in self.subsystem_cycles.iter().zip(subsystem_cycles) {
            total.fetch_add(*cycles, Ordering::Relaxed);
        }
    }

    /// Records one HTTP request's wall-clock latency.
    pub fn record_request_micros(&self, micros: u64) {
        self.request_micros
            .lock()
            .expect("latency histogram lock")
            .record(micros);
    }

    /// Records one lifecycle stage's wall-clock latency. Unknown stage
    /// names are ignored (the label set is fixed at [`REQUEST_STAGES`]).
    pub fn record_stage_micros(&self, stage: &str, micros: u64) {
        if let Some(i) = REQUEST_STAGES.iter().position(|s| *s == stage) {
            self.stage_micros[i]
                .lock()
                .expect("stage histogram lock")
                .record(micros);
        }
    }

    /// Renders the Prometheus text exposition document.
    #[must_use]
    pub fn render(&self) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let refs = get(&self.refs_simulated);
        let sim_seconds = get(&self.sim_micros) as f64 / 1e6;
        let refs_per_sec = if sim_seconds > 0.0 {
            refs as f64 / sim_seconds
        } else {
            0.0
        };
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter(
            "refrint_http_requests_total",
            "HTTP requests accepted.",
            get(&self.http_requests),
        );
        counter(
            "refrint_http_errors_total",
            "Requests answered with a 4xx/5xx status.",
            get(&self.http_errors),
        );
        counter(
            "refrint_jobs_submitted_total",
            "Jobs submitted to the queue.",
            get(&self.jobs_submitted),
        );
        counter(
            "refrint_jobs_completed_total",
            "Jobs that finished successfully.",
            get(&self.jobs_completed),
        );
        counter(
            "refrint_jobs_failed_total",
            "Jobs that finished with an error.",
            get(&self.jobs_failed),
        );
        counter(
            "refrint_cache_hits_total",
            "Requests served from the result cache.",
            get(&self.cache_hits),
        );
        counter(
            "refrint_cache_misses_total",
            "Requests that missed the result cache.",
            get(&self.cache_misses),
        );
        counter(
            "refrint_disk_cache_hits_total",
            "Lookups served from the persistent disk cache.",
            get(&self.disk_cache_hits),
        );
        counter(
            "refrint_disk_cache_misses_total",
            "Lookups that missed the persistent disk cache.",
            get(&self.disk_cache_misses),
        );
        counter(
            "refrint_disk_cache_resets_total",
            "Times a corrupt disk-cache index was discarded and rebuilt empty.",
            get(&self.disk_cache_resets),
        );
        counter(
            "refrint_refs_simulated_total",
            "Data references simulated by completed jobs.",
            refs,
        );
        out.push_str(&format!(
            "# HELP refrint_sim_seconds_total Wall-clock seconds spent simulating.\n\
             # TYPE refrint_sim_seconds_total counter\n\
             refrint_sim_seconds_total {sim_seconds:.6}\n"
        ));
        out.push_str(&format!(
            "# HELP refrint_refs_per_sec Simulated references per busy second.\n\
             # TYPE refrint_refs_per_sec gauge\n\
             refrint_refs_per_sec {refs_per_sec:.1}\n"
        ));
        out.push_str(&format!(
            "# HELP refrint_queue_depth Jobs enqueued but not yet claimed by a worker.\n\
             # TYPE refrint_queue_depth gauge\n\
             refrint_queue_depth {}\n",
            get(&self.queue_depth)
        ));
        out.push_str(&format!(
            "# HELP refrint_workers_busy Workers currently executing a job.\n\
             # TYPE refrint_workers_busy gauge\n\
             refrint_workers_busy {}\n",
            get(&self.workers_busy)
        ));
        out.push_str(
            "# HELP refrint_subsystem_cycles_total Simulated cycles attributed per subsystem \
             by completed run jobs.\n\
             # TYPE refrint_subsystem_cycles_total counter\n",
        );
        for s in Subsystem::ALL {
            out.push_str(&format!(
                "refrint_subsystem_cycles_total{{subsystem=\"{}\"}} {}\n",
                s.name(),
                get(&self.subsystem_cycles[s.index()])
            ));
        }
        {
            let h = self.request_micros.lock().expect("latency histogram lock");
            out.push_str(
                "# HELP refrint_http_request_duration_seconds HTTP request latency.\n\
                 # TYPE refrint_http_request_duration_seconds histogram\n",
            );
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds().iter().zip(h.buckets()) {
                cumulative += count;
                out.push_str(&format!(
                    "refrint_http_request_duration_seconds_bucket{{le=\"{}\"}} {cumulative}\n",
                    *bound as f64 / 1e6
                ));
            }
            out.push_str(&format!(
                "refrint_http_request_duration_seconds_bucket{{le=\"+Inf\"}} {}\n",
                h.count()
            ));
            out.push_str(&format!(
                "refrint_http_request_duration_seconds_sum {:.6}\n",
                h.sum() as f64 / 1e6
            ));
            out.push_str(&format!(
                "refrint_http_request_duration_seconds_count {}\n",
                h.count()
            ));
        }
        out.push_str(
            "# HELP refrint_request_stage_seconds Wall-clock latency per request lifecycle \
             stage.\n\
             # TYPE refrint_request_stage_seconds histogram\n",
        );
        for (i, stage) in REQUEST_STAGES.iter().enumerate() {
            let h = self.stage_micros[i].lock().expect("stage histogram lock");
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds().iter().zip(h.buckets()) {
                cumulative += count;
                out.push_str(&format!(
                    "refrint_request_stage_seconds_bucket{{stage=\"{stage}\",le=\"{}\"}} \
                     {cumulative}\n",
                    *bound as f64 / 1e6
                ));
            }
            out.push_str(&format!(
                "refrint_request_stage_seconds_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {}\n",
                h.count()
            ));
            out.push_str(&format!(
                "refrint_request_stage_seconds_sum{{stage=\"{stage}\"}} {:.6}\n",
                h.sum() as f64 / 1e6
            ));
            out.push_str(&format!(
                "refrint_request_stage_seconds_count{{stage=\"{stage}\"}} {}\n",
                h.count()
            ));
        }
        out.push_str(&format!(
            "# HELP refrint_uptime_seconds Seconds since the server started.\n\
             # TYPE refrint_uptime_seconds gauge\n\
             refrint_uptime_seconds {:.3}\n",
            self.uptime_seconds()
        ));
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_counter_in_prometheus_format() {
        let m = Metrics::new();
        m.http_requests.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(1, Ordering::Relaxed);
        m.disk_cache_resets.fetch_add(1, Ordering::Relaxed);
        m.record_job(true, 1000, 0.5, &[10, 0, 20, 0, 30]);
        m.record_job(false, 0, 0.0, &[0; Subsystem::COUNT]);
        let doc = m.render();
        assert!(doc.contains("refrint_http_requests_total 3"));
        assert!(doc.contains("refrint_cache_hits_total 1"));
        assert!(doc.contains("refrint_disk_cache_resets_total 1"));
        assert!(doc.contains("refrint_jobs_completed_total 1"));
        assert!(doc.contains("refrint_jobs_failed_total 1"));
        assert!(doc.contains("refrint_refs_simulated_total 1000"));
        assert!(doc.contains("refrint_refs_per_sec 2000.0"));
        assert!(doc.contains("# TYPE refrint_uptime_seconds gauge"));
        // Every exposed line is either a comment or `name value`.
        for line in doc.lines() {
            assert!(
                line.starts_with('#') || line.splitn(2, ' ').count() == 2,
                "bad exposition line: {line}"
            );
        }
    }

    #[test]
    fn load_gauges_and_subsystem_cycles_render() {
        let m = Metrics::new();
        m.queue_depth.fetch_add(3, Ordering::Relaxed);
        m.workers_busy.fetch_add(2, Ordering::Relaxed);
        m.record_job(true, 100, 0.1, &[7, 0, 0, 0, 9]);
        let doc = m.render();
        assert!(doc.contains("refrint_queue_depth 3"));
        assert!(doc.contains("refrint_workers_busy 2"));
        assert!(doc.contains("refrint_subsystem_cycles_total{subsystem=\"cache\"} 7"));
        assert!(doc.contains("refrint_subsystem_cycles_total{subsystem=\"dram\"} 9"));
        assert!(doc.contains("refrint_subsystem_cycles_total{subsystem=\"coherence\"} 0"));
    }

    #[test]
    fn latency_histogram_buckets_are_cumulative_seconds() {
        let m = Metrics::new();
        m.record_request_micros(50); // below the first bound
        m.record_request_micros(2_000); // in the 5ms bucket
        m.record_request_micros(40_000_000); // beyond the last bound
        let doc = m.render();
        assert!(doc.contains("refrint_http_request_duration_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(doc.contains("refrint_http_request_duration_seconds_bucket{le=\"0.005\"} 2"));
        assert!(doc.contains("refrint_http_request_duration_seconds_bucket{le=\"30\"} 2"));
        assert!(doc.contains("refrint_http_request_duration_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(doc.contains("refrint_http_request_duration_seconds_count 3"));
        // The sum is in seconds: 50us + 2ms + 40s ≈ 40.00205s.
        assert!(doc.contains("refrint_http_request_duration_seconds_sum 40.002050"));
    }

    #[test]
    fn stage_histograms_render_per_stage_labels() {
        let m = Metrics::new();
        m.record_stage_micros("execute", 2_000);
        m.record_stage_micros("parse", 50);
        m.record_stage_micros("not_a_stage", 1); // must be ignored
        let doc = m.render();
        assert!(doc.contains("# TYPE refrint_request_stage_seconds histogram"));
        assert!(
            doc.contains("refrint_request_stage_seconds_bucket{stage=\"execute\",le=\"0.005\"} 1")
        );
        assert!(doc.contains("refrint_request_stage_seconds_count{stage=\"execute\"} 1"));
        assert!(doc.contains("refrint_request_stage_seconds_count{stage=\"parse\"} 1"));
        // Every declared stage renders, even with no samples.
        for stage in REQUEST_STAGES {
            assert!(
                doc.contains(&format!(
                    "refrint_request_stage_seconds_count{{stage=\"{stage}\"}} "
                )),
                "missing stage {stage}"
            );
        }
        assert!(!doc.contains("not_a_stage"));
    }
}
