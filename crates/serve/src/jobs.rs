//! Jobs, the job table and the result store.
//!
//! Every simulation request becomes a [`Job`]: it is registered in the
//! shared [`JobTable`], its id is pushed through the server's bounded MPSC
//! queue, and a worker thread executes it with [`execute`]. Sync clients
//! block on the table's condvar until their job finishes; async clients
//! poll `GET /jobs/<id>`. Successful results are put in the
//! [`ResultStore`] under the request's canonical key, so an identical
//! request is answered with the very same bytes without re-simulating.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use refrint::experiment::ExperimentConfig;
use refrint::simulation::{ObsConfig, RunSpec};
use refrint::sweep::{SweepPlan, SweepRunner};
use refrint_engine::json::escape;
use refrint_obs::log::Logger;
use refrint_obs::recorder::ObsSummary;
use refrint_obs::span::{DispatchSpan, RequestTrace, Subsystem};

use crate::api::RunWorkload;
use crate::disk_cache::DiskCache;

/// Bodies retained in the persistent result cache (LRU).
const DISK_CACHE_CAPACITY: usize = 512;

/// What a worker executes for one job.
#[derive(Debug, Clone)]
pub enum JobWork {
    /// One simulation: run an application or replay a trace.
    Run {
        /// What the run simulates.
        workload: RunWorkload,
        /// The validated run overrides; a coordinator forwards them to a
        /// backend as a `POST /run` body.
        spec: RunSpec,
    },
    /// A full experiment sweep, run sequentially inside the worker.
    Sweep {
        /// The validated sweep plan.
        plan: SweepPlan,
    },
}

impl JobWork {
    /// `"run"` or `"sweep"` — the kind string reported by `/jobs/<id>`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobWork::Run { .. } => "run",
            JobWork::Sweep { .. } => "sweep",
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// In the queue, not yet claimed by a worker.
    Queued,
    /// Claimed by a worker, simulating now.
    Running,
    /// Finished successfully; the result bytes are available.
    Done,
    /// Finished with an error; the error document is available.
    Failed,
}

impl JobStatus {
    /// The status label used in job JSON documents.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// Where and when one point of a fanned-out job actually ran, recorded by
/// the coordinator for trace stitching (`/jobs/<id>/trace`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointOutcome {
    /// The point's index in the sweep's deterministic enumeration (0 for
    /// single-run jobs); also the anchor-span slot in the stitched trace.
    pub index: usize,
    /// Stable display label (`lu/sram`, `fft/50us/R.valid`).
    pub label: String,
    /// Where the point ran: a backend address, or `result-cache`.
    pub node: String,
    /// The backend-side job id (`x-refrint-job`), when the point was
    /// dispatched — the handle for fetching the backend's span tree.
    pub backend_job: Option<String>,
    /// Dispatch start, nanoseconds after the job's execute epoch.
    pub start_nanos: u64,
    /// Dispatch round-trip duration in nanoseconds.
    pub dur_nanos: u64,
}

/// The outcome of executing a job.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// HTTP status the result is served with (200, or 500 on failure).
    pub status: u16,
    /// The exact response bytes (shared with the cache).
    pub body: Arc<Vec<u8>>,
    /// Data references simulated (0 on failure), for the metrics counters.
    pub refs: u64,
    /// Wall-clock seconds spent simulating, for the refs/sec gauge.
    pub sim_seconds: f64,
    /// Simulated cycles attributed per subsystem (indexed by
    /// [`Subsystem::index`]); run jobs execute with the observability
    /// recorder at default sampling, sweep jobs report zeros.
    pub subsystem_cycles: [u64; Subsystem::COUNT],
    /// Host nanoseconds the job waited in the queue before a worker
    /// claimed it (0 for cached results).
    pub queue_nanos: u64,
    /// Host nanoseconds the worker spent executing (0 for cached results).
    pub execute_nanos: u64,
    /// The run's full observability summary, for the `/jobs/<id>/trace`
    /// span tree (run jobs only; sweeps and failures carry `None`).
    pub obs: Option<Arc<ObsSummary>>,
    /// Config label of the executed run (empty for sweeps/failures).
    pub config_label: String,
    /// Workload of the executed run (empty for sweeps/failures).
    pub workload: String,
    /// Per-backend dispatch attempts recorded by the coordinator (empty
    /// for locally-executed jobs), spliced into `/jobs/<id>/trace`.
    pub dispatch: Vec<DispatchSpan>,
    /// Where each point of a fanned-out job ran (empty for local jobs),
    /// in point order — the stitching plan for the fleet trace.
    pub points: Vec<PointOutcome>,
}

impl JobOutput {
    /// An output that simply serves pre-existing bytes (cache hits).
    #[must_use]
    pub fn from_bytes(status: u16, body: Arc<Vec<u8>>) -> JobOutput {
        JobOutput {
            status,
            body,
            refs: 0,
            sim_seconds: 0.0,
            subsystem_cycles: [0; Subsystem::COUNT],
            queue_nanos: 0,
            execute_nanos: 0,
            obs: None,
            config_label: String::new(),
            workload: String::new(),
            dispatch: Vec::new(),
            points: Vec::new(),
        }
    }
}

/// One tracked job.
#[derive(Debug, Clone)]
pub struct Job {
    /// The job id (`j` + hex counter), unique for the server's lifetime.
    pub id: String,
    /// `"run"` or `"sweep"`.
    pub kind: &'static str,
    /// Canonical cache key of the request that created the job.
    pub cache_key: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// The result, present once `status` is `Done` or `Failed`.
    pub output: Option<JobOutput>,
    /// Whether the result was served from the cache without simulating.
    pub cached: bool,
    /// The request trace recorded by the connection handler, attached
    /// after the response is written (`GET /jobs/<id>/trace`).
    pub trace: Option<RequestTrace>,
}

impl Job {
    /// The job-status JSON document (`GET /jobs/<id>`).
    #[must_use]
    pub fn status_doc(&self) -> Vec<u8> {
        format!(
            "{{\"job\":\"{}\",\"kind\":\"{}\",\"status\":\"{}\",\"cached\":{}}}\n",
            escape(&self.id),
            self.kind,
            self.status.label(),
            self.cached
        )
        .into_bytes()
    }
}

/// The shared job table: jobs by id, with completed jobs pruned FIFO so a
/// long-lived server's memory stays bounded.
#[derive(Debug, Default)]
pub struct JobTable {
    jobs: HashMap<String, Job>,
    finished_order: VecDeque<String>,
    retained_finished: usize,
}

impl JobTable {
    /// A table that retains at most `retained_finished` completed jobs.
    #[must_use]
    pub fn new(retained_finished: usize) -> Self {
        JobTable {
            jobs: HashMap::new(),
            finished_order: VecDeque::new(),
            retained_finished: retained_finished.max(1),
        }
    }

    /// Registers a new job.
    pub fn insert(&mut self, job: Job) {
        if job.status == JobStatus::Done || job.status == JobStatus::Failed {
            self.finished_order.push_back(job.id.clone());
        }
        self.jobs.insert(job.id.clone(), job);
        self.prune();
    }

    /// Looks a job up by id.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&Job> {
        self.jobs.get(id)
    }

    /// Transitions a job to its final state and records the output.
    pub fn finish(&mut self, id: &str, output: JobOutput) {
        if let Some(job) = self.jobs.get_mut(id) {
            job.status = if output.status == 200 {
                JobStatus::Done
            } else {
                JobStatus::Failed
            };
            job.output = Some(output);
            self.finished_order.push_back(id.to_owned());
            self.prune();
        }
    }

    /// Removes a job outright (used when enqueueing fails after
    /// registration).
    pub fn remove(&mut self, id: &str) {
        self.jobs.remove(id);
        self.finished_order.retain(|k| k != id);
    }

    /// Sets a job's status (used for the queued→running transition).
    pub fn set_status(&mut self, id: &str, status: JobStatus) {
        if let Some(job) = self.jobs.get_mut(id) {
            job.status = status;
        }
    }

    /// Attaches the request trace recorded by the connection handler.
    pub fn attach_trace(&mut self, id: &str, trace: RequestTrace) {
        if let Some(job) = self.jobs.get_mut(id) {
            job.trace = Some(trace);
        }
    }

    fn prune(&mut self) {
        while self.finished_order.len() > self.retained_finished {
            if let Some(id) = self.finished_order.pop_front() {
                self.jobs.remove(&id);
            }
        }
    }

    /// Number of tracked jobs (for tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// The job table plus its condvar, shared between connection handlers and
/// workers.
#[derive(Debug)]
pub struct SharedJobs {
    /// The table, behind its lock.
    pub table: Mutex<JobTable>,
    /// Signalled every time a job reaches a final state or has its trace
    /// attached.
    pub done: Condvar,
}

impl SharedJobs {
    /// A fresh shared table.
    #[must_use]
    pub fn new(retained_finished: usize) -> Self {
        SharedJobs {
            table: Mutex::new(JobTable::new(retained_finished)),
            done: Condvar::new(),
        }
    }

    /// Blocks until job `id` finishes or `deadline` passes; returns the
    /// output if it finished in time.
    #[must_use]
    pub fn wait_for(&self, id: &str, deadline: Duration) -> Option<JobOutput> {
        let start = Instant::now();
        let mut table = self.table.lock().expect("job table lock");
        loop {
            if let Some(job) = table.get(id) {
                if let Some(output) = &job.output {
                    return Some(output.clone());
                }
            } else {
                return None;
            }
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return None;
            }
            let (guard, timeout) = self
                .done
                .wait_timeout(table, deadline - elapsed)
                .expect("job table lock");
            table = guard;
            if timeout.timed_out() {
                // Check one final time before giving up.
                if let Some(output) = table.get(id).and_then(|j| j.output.clone()) {
                    return Some(output);
                }
                return None;
            }
        }
    }

    /// Records a job's completion and wakes every sync waiter.
    pub fn finish(&self, id: &str, output: JobOutput) {
        let mut table = self.table.lock().expect("job table lock");
        table.finish(id, output);
        self.done.notify_all();
    }

    /// Attaches a request trace to a job and wakes `SharedJobs::traced`
    /// waiters.
    pub fn set_trace(&self, id: &str, trace: RequestTrace) {
        let mut table = self.table.lock().expect("job table lock");
        table.attach_trace(id, trace);
        self.done.notify_all();
    }

    /// Job `id`, waiting at most `deadline` if it has finished but its
    /// request trace is not attached yet (the connection handler attaches
    /// it right after writing the response). A queued or running job is
    /// returned at once.
    #[must_use]
    pub(crate) fn traced(&self, id: &str, deadline: Duration) -> Option<Job> {
        let table = self.table.lock().expect("job table lock");
        let (table, _) = self
            .done
            .wait_timeout_while(table, deadline, |t| {
                t.get(id)
                    .is_some_and(|job| job.output.is_some() && job.trace.is_none())
            })
            .expect("job table lock");
        table.get(id).cloned()
    }
}

/// Executes one job's work. Never panics: runtime failures (e.g. a trace
/// file deleted between validation and execution) become a 500 with a JSON
/// error body.
#[must_use]
pub fn execute(work: &JobWork) -> JobOutput {
    match work {
        JobWork::Run { workload, spec } => run_one(workload, spec),
        JobWork::Sweep { plan } => run_sweep(plan.config()),
    }
}

fn failure(reason: &str) -> JobOutput {
    JobOutput::from_bytes(
        500,
        Arc::new(
            format!(
                "{{\"error\":{{\"kind\":\"execution_failed\",\"reason\":\"{}\"}}}}\n",
                escape(reason)
            )
            .into_bytes(),
        ),
    )
}

fn run_one(workload: &RunWorkload, spec: &RunSpec) -> JobOutput {
    // Observability at default sampling feeds the per-subsystem cycle
    // series on /metrics. Recording is non-perturbing, so the response
    // bytes stay identical to the CLI's (the test below proves it).
    let obs_builder = workload.builder(spec).observability(ObsConfig::default());
    let mut sim = match obs_builder.build() {
        Ok(sim) => sim,
        Err(e) => return failure(&e.to_string()),
    };
    let start = Instant::now();
    let outcome = match workload {
        RunWorkload::App(app) => sim.run(*app),
        RunWorkload::Trace { .. } => match sim.replay() {
            Ok(outcome) => outcome,
            Err(e) => return failure(&e.to_string()),
        },
    };
    let sim_seconds = start.elapsed().as_secs_f64();
    let summary = sim.obs_summary();
    let mut subsystem_cycles = [0; Subsystem::COUNT];
    for t in &summary.per_subsystem {
        subsystem_cycles[t.subsystem.index()] = t.cycles;
    }
    // Exactly the bytes `refrint-cli run --format json` prints.
    let body = format!("{}\n", refrint::json::report(&outcome.report));
    JobOutput {
        status: 200,
        body: Arc::new(body.into_bytes()),
        refs: outcome.report.counts.dl1_accesses,
        sim_seconds,
        subsystem_cycles,
        queue_nanos: 0,
        execute_nanos: 0,
        obs: Some(Arc::new(summary)),
        config_label: outcome.config_label().to_owned(),
        workload: outcome.workload().to_owned(),
        dispatch: Vec::new(),
        points: Vec::new(),
    }
}

fn run_sweep(config: &ExperimentConfig) -> JobOutput {
    // Sequential inside the worker: concurrency comes from the worker
    // pool, and the merged results are identical for any worker count.
    let start = Instant::now();
    let results = match SweepRunner::new(config.clone()).sequential().run() {
        Ok(results) => results,
        Err(e) => return failure(&e.to_string()),
    };
    let sim_seconds = start.elapsed().as_secs_f64();
    let refs = results
        .sram
        .values()
        .chain(results.edram.values())
        .map(|r| r.counts.dl1_accesses)
        .sum();
    // Exactly the bytes `refrint-cli sweep --format json` prints.
    let body = format!("{}\n", refrint::json::sweep(&results));
    let mut output = JobOutput::from_bytes(200, Arc::new(body.into_bytes()));
    output.refs = refs;
    output.sim_seconds = sim_seconds;
    output
}

/// A small LRU cache from canonical request keys to result bytes: the
/// memory tier of a [`ResultStore`].
#[derive(Debug)]
struct ResultCache {
    map: HashMap<String, Arc<Vec<u8>>>,
    order: VecDeque<String>,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` results.
    fn new(capacity: usize) -> Self {
        ResultCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Looks up `key`, refreshing its LRU position on a hit.
    fn get(&mut self, key: &str) -> Option<Arc<Vec<u8>>> {
        let hit = self.map.get(key).cloned();
        if hit.is_some() {
            if let Some(pos) = self.order.iter().position(|k| k == key) {
                let k = self.order.remove(pos).expect("position is in range");
                self.order.push_back(k);
            }
        }
        hit
    }

    /// Inserts a result, evicting the least recently used entry when full.
    fn insert(&mut self, key: String, body: Arc<Vec<u8>>) {
        if self.map.insert(key.clone(), body).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }
}

/// The persistent tier's counters, rendered on `/metrics`.
#[derive(Debug, Default)]
pub struct DiskCounters {
    /// Lookups answered from the persistent disk cache.
    pub hits: AtomicU64,
    /// Lookups that missed the persistent disk cache.
    pub misses: AtomicU64,
    /// Times the disk cache discarded a corrupt `index.json` and started
    /// from an empty index.
    pub resets: AtomicU64,
}

/// The server's results, by canonical request key: an in-memory LRU in
/// front of an optional persistent [`DiskCache`]. A plain server stores
/// whole responses; a coordinator also stores each dispatched sweep point
/// under the key its `POST /run` would have.
#[derive(Debug)]
pub struct ResultStore {
    memory: Mutex<ResultCache>,
    disk: Option<DiskCache>,
    /// The disk tier's hit, miss and reset counts.
    pub disk_counters: DiskCounters,
    logger: Logger,
}

impl ResultStore {
    /// A store keeping `capacity` results in memory and, with `disk_dir`,
    /// persisting them there too. A corrupt disk index is warned about
    /// through `logger` and counted in [`DiskCounters::resets`].
    ///
    /// # Errors
    ///
    /// When `disk_dir` cannot be created.
    pub fn open(capacity: usize, disk_dir: Option<&Path>, logger: Logger) -> io::Result<Self> {
        let disk_counters = DiskCounters::default();
        let disk = disk_dir
            .map(|dir| {
                DiskCache::open_observed(
                    dir,
                    DISK_CACHE_CAPACITY,
                    &logger,
                    Some(&disk_counters.resets),
                )
            })
            .transpose()?;
        Ok(ResultStore {
            memory: Mutex::new(ResultCache::new(capacity)),
            disk,
            disk_counters,
            logger,
        })
    }

    /// Looks `key` up in memory, then on disk, counting the disk tier's
    /// hits and misses. A disk hit is promoted into memory, so a restarted
    /// server with the same `--cache-dir` answers warm.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        let memory_hit = self.memory.lock().expect("cache lock").get(key);
        if memory_hit.is_some() {
            return memory_hit;
        }
        let disk = self.disk.as_ref()?;
        let Some(bytes) = disk.get(key) else {
            self.disk_counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.disk_counters.hits.fetch_add(1, Ordering::Relaxed);
        let body = Arc::new(bytes);
        self.memory
            .lock()
            .expect("cache lock")
            .insert(key.to_owned(), Arc::clone(&body));
        Some(body)
    }

    /// Stores `body` under `key` in memory and on disk. A failed disk
    /// write is logged; the memory entry still serves.
    pub fn put(&self, key: &str, body: Arc<Vec<u8>>) {
        self.memory
            .lock()
            .expect("cache lock")
            .insert(key.to_owned(), Arc::clone(&body));
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.put(key, &body) {
                self.logger
                    .warn("disk_cache_put_failed", &[("error", e.to_string())]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint_workloads::apps::AppPreset;

    #[test]
    fn run_jobs_produce_the_cli_bytes() {
        let spec = RunSpec {
            cores: Some(2),
            refs: Some(400),
            seed: Some(3),
            ..RunSpec::default()
        };
        let out = execute(&JobWork::Run {
            workload: RunWorkload::App(AppPreset::Lu),
            spec,
        });
        assert_eq!(out.status, 200);
        assert!(out.refs > 0);
        assert!(
            out.subsystem_cycles.iter().sum::<u64>() > 0,
            "run jobs attribute cycles for the /metrics series"
        );
        // The direct simulation runs WITHOUT observability; identical
        // bytes double as a span-neutrality check.
        let mut direct = spec.builder().build().unwrap();
        let expected = format!(
            "{}\n",
            refrint::json::report(&direct.run(AppPreset::Lu).report)
        );
        assert_eq!(out.body.as_slice(), expected.as_bytes());
    }

    #[test]
    fn failed_runs_are_500_json_not_panics() {
        let out = execute(&JobWork::Run {
            workload: RunWorkload::Trace {
                name: "x.rft".to_owned(),
                path: "/nonexistent/x.rft".into(),
            },
            spec: RunSpec {
                cores: Some(2),
                ..RunSpec::default()
            },
        });
        assert_eq!(out.status, 500);
        assert!(String::from_utf8_lossy(&out.body).contains("execution_failed"));
    }

    #[test]
    fn sweep_jobs_produce_the_cli_bytes() {
        let config = ExperimentConfig {
            apps: vec![AppPreset::Lu],
            retentions_us: vec![50],
            policies: vec![refrint_edram::policy::RefreshPolicy::recommended()],
            refs_per_thread: 500,
            cores: 2,
            ..ExperimentConfig::default()
        };
        let out = execute(&JobWork::Sweep {
            plan: SweepPlan::new(config.clone()).unwrap(),
        });
        assert_eq!(out.status, 200);
        let results = SweepRunner::new(config).sequential().run().unwrap();
        let expected = format!("{}\n", refrint::json::sweep(&results));
        assert_eq!(out.body.as_slice(), expected.as_bytes());
    }

    #[test]
    fn cache_is_lru_with_capacity() {
        let mut cache = ResultCache::new(2);
        let body = |s: &str| Arc::new(s.as_bytes().to_vec());
        cache.insert("a".into(), body("1"));
        cache.insert("b".into(), body("2"));
        assert!(cache.get("a").is_some()); // refresh a
        cache.insert("c".into(), body("3")); // evicts b
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.map.len(), 2);
    }

    #[test]
    fn job_table_prunes_only_finished_jobs() {
        let mut table = JobTable::new(2);
        for i in 0..5 {
            table.insert(Job {
                id: format!("j{i}"),
                kind: "run",
                cache_key: String::new(),
                status: JobStatus::Queued,
                output: None,
                cached: false,
                trace: None,
            });
        }
        assert_eq!(table.len(), 5, "queued jobs are never pruned");
        for i in 0..5 {
            table.finish(
                &format!("j{i}"),
                JobOutput::from_bytes(200, Arc::new(Vec::new())),
            );
        }
        assert_eq!(table.len(), 2, "finished jobs are pruned FIFO");
        assert!(table.get("j4").is_some());
        assert!(table.get("j0").is_none());
    }

    #[test]
    fn waiters_time_out_and_see_finishes() {
        let shared = Arc::new(SharedJobs::new(8));
        shared.table.lock().unwrap().insert(Job {
            id: "j1".into(),
            kind: "run",
            cache_key: String::new(),
            status: JobStatus::Queued,
            output: None,
            cached: false,
            trace: None,
        });
        assert!(shared.wait_for("j1", Duration::from_millis(50)).is_none());
        let bg = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                shared.finish("j1", JobOutput::from_bytes(200, Arc::new(b"ok".to_vec())));
            })
        };
        let out = shared.wait_for("j1", Duration::from_secs(5)).unwrap();
        assert_eq!(out.body.as_slice(), b"ok");
        bg.join().unwrap();
    }
}
