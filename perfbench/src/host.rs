//! Host facts recorded with every result: where outputs go, the process
//! high-water RSS, and the host fingerprint line.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use refrint_engine::json::escape;

use crate::Metric;

/// Directory for traces and span files: `perfbench-out` next to the
/// benchmark executable, i.e. inside the build tree of the checkout.
pub fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.join("perfbench-out")))
        .unwrap_or_else(|| PathBuf::from("perfbench-out"))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    /// glibc: returns free memory at the top of every malloc arena to the
    /// operating system.
    fn malloc_trim(pad: usize) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn clock(id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "the CPU clock {id} is readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time used so far by every thread of this process. It counts only
/// the time its threads ran: not time they slept or waited for a core,
/// whether another thread held it or (with steal-time accounting, as on
/// KVM guests) the host ran another guest. So the cost of a phase does not
/// depend on how many cores the host happened to give the process.
fn cpu_time() -> Duration {
    clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time used so far by the calling thread.
pub fn thread_cpu_time() -> Duration {
    clock(CLOCK_THREAD_CPUTIME_ID)
}

/// What one timed call cost: process CPU time and wall time in seconds,
/// and when it started and ended.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub cpu: f64,
    pub wall: f64,
    pub start: Instant,
    pub end: Instant,
}

/// Runs `f` and returns what it cost, and its result.
pub fn costed<T>(f: impl FnOnce() -> T) -> (Cost, T) {
    let (cpu, start) = (cpu_time(), Instant::now());
    let out = f();
    let (cpu, end) = (cpu_time() - cpu, Instant::now());
    let cost = Cost {
        cpu: cpu.as_secs_f64(),
        wall: (end - start).as_secs_f64(),
        start,
        end,
    };
    (cost, out)
}

/// The median wall time of `costs`, in seconds.
pub fn median_wall(costs: &[Cost]) -> f64 {
    crate::stats::median(&costs.iter().map(|c| c.wall).collect::<Vec<_>>())
}

/// The (steal, total) jiffies of all CPUs so far, from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Starts a fresh high-water mark for [`peak_rss_mb`]: returns the memory
/// that earlier phases freed to the operating system, then resets `VmHWM`
/// to the current RSS. Without this the peak would depend on which
/// per-thread allocator arenas earlier phases happened to leave holding
/// freed memory.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only walks the allocator's own free lists
    // under its locks; it takes no pointers and is safe to call from any
    // thread at any time.
    unsafe {
        malloc_trim(0);
    }
    reset_high_water();
}

/// Resets `VmHWM` to the current RSS ("5" in `clear_refs`).
fn reset_high_water() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The high-water RSS of each `window` until `stop` is raised (the last
/// window may be shorter), for phases that are one long loop rather than
/// repetitions.
pub fn window_peaks(stop: &AtomicBool, window: Duration) -> Vec<f64> {
    let mut peaks = Vec::new();
    loop {
        let start = Instant::now();
        while start.elapsed() < window && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
        peaks.push(peak_rss_mb());
        reset_high_water();
        if stop.load(Ordering::SeqCst) {
            return peaks;
        }
    }
}

/// The process high-water resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the working directory, read from `.git` without running
/// git (a checkout without `.git` reports `unknown`).
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_owned()))
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON line: host, toolchain, commit, seed, the share of all CPU
/// time the host stole from this machine while the workload ran, and the
/// sample count behind every reported figure.
pub fn fingerprint_line(workload: &str, seed: u64, steal_share: f64, metrics: &[Metric]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {}", escape(m.name), m.samples))
        .collect();
    format!(
        "host {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {seed}, \"steal_share\": {steal_share:.4}, \"samples\": {{{}}}}}",
        escape(&cpu_model()),
        escape(&rustc_version()),
        escape(&git_commit()),
        escape(workload),
        samples.join(", ")
    )
}

/// One JSON line of determinism checks (`execution_cycles`, input
/// digests): equal for two runs of one seed.
pub fn checks_line(checks: &[(String, String)]) -> String {
    let body: Vec<String> = checks
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
        .collect();
    format!("checks {{{}}}", body.join(", "))
}
