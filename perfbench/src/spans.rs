//! In-memory timing spans recorded from the benchmark's own code, around
//! its calls into the library and the service. Spans are kept in memory
//! while the workload runs and written out as JSON lines at exit.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use refrint_engine::json::escape;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    /// The outermost span this one ran under (its own id at the root):
    /// every span of one request or one run shares it.
    root: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    /// Units of work done inside the span (references, probes, requests).
    count: u64,
}

thread_local! {
    /// (current span id, its root) on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub spans: usize,
    pub total_ns: u64,
    pub count: u64,
}

impl Agg {
    /// Mean nanoseconds per unit of work.
    pub fn ns_per_unit(&self) -> f64 {
        self.total_ns as f64 / self.count as f64
    }
}

/// The process-wide span recorder.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

/// Runs `f` in a span of the process-wide recorder (see [`Tracer::span`]).
pub fn span<T>(name: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
    tracer().span(name, count, f)
}

/// The span recorder. Disabled, `span` is a plain call.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name` that did `count` units of work.
    pub fn span<T>(&self, name: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, parent_root) = CURRENT.with(Cell::get);
        let root = if parent == 0 { id } else { parent_root };
        CURRENT.with(|c| c.set((id, root)));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        CURRENT.with(|c| c.set((parent, parent_root)));
        let span = Span {
            id,
            parent,
            root,
            name,
            start_ns: nanos(start.duration_since(self.epoch)),
            dur_ns: nanos(end.duration_since(start)),
            count,
        };
        self.spans.lock().expect("span list lock").push(span);
        out
    }

    /// Records a span whose duration was measured by the caller (a phase
    /// inside one call, such as the connect of a request), under the
    /// current span.
    pub fn record(&self, name: &'static str, dur: std::time::Duration, count: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, parent_root) = CURRENT.with(Cell::get);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            root: if parent == 0 { id } else { parent_root },
            name,
            start_ns: nanos(end.duration_since(self.epoch)).saturating_sub(nanos(dur)),
            dur_ns: nanos(dur),
            count,
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Totals of every span named `name`.
    pub fn agg(&self, name: &str) -> Agg {
        let spans = self.spans.lock().expect("span list lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold(Agg::default(), |a, s| Agg {
                spans: a.spans + 1,
                total_ns: a.total_ns + s.dur_ns,
                count: a.count + s.count,
            })
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans.lock().expect("span list lock");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let own = s
                .dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns;
            e.1 += own;
        }
        out
    }

    /// Writes every span as one JSON line; returns the file written.
    pub fn write(&self, dir: &Path, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in self.spans.lock().expect("span list lock").iter() {
            writeln!(
                file,
                "{{\"id\":{},\"parent\":{},\"root\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"count\":{}}}",
                s.id,
                s.parent,
                s.root,
                escape(s.name),
                s.start_ns,
                s.dur_ns,
                s.count
            )?;
        }
        file.flush()?;
        Ok(path)
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
