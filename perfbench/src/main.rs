//! `perfbench`: the end-to-end and per-layer benchmark of refrint.
//!
//! ```text
//! perfbench --workload <long_run|sweep_small|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! `--trace 0` runs the workload untraced and prints its end-to-end
//! metrics. `--trace 1` runs it once untraced and once with timing spans
//! around every call into the library (the difference is the tracing
//! overhead), then measures every layer of the ledger and prints the
//! per-layer metrics. The last line of standard output is always one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads, metrics and residuals.

mod calib;
mod host;
mod long_run;
mod net;
mod oracle;
mod serve_mix;
mod spans;
mod stats;
mod sweep_small;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use refrint_engine::json::escape;

use crate::spans::tracer;

/// One measured figure, printed by name with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the figure is computed from.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// How much work a run does. `Full` is the benchmark; `Tiny` keeps every
/// code path and check but shrinks the inputs so self-tests are quick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// Picks the full or the tiny value.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// State shared by every phase of one benchmark process.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub size: Size,
    /// Where traces and span files are written (inside the build tree).
    pub out_dir: PathBuf,
    attempted: u64,
    failed: u64,
    /// Determinism fingerprint lines (`execution_cycles`, input digests),
    /// printed so two runs of one seed can be compared.
    pub checks: Vec<(String, String)>,
}

impl Ctx {
    /// Counts one operation; a failed one is reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn ops_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a determinism fingerprint entry. A key recorded again (the
    /// traced pass repeats the untraced one) must carry the same value.
    pub fn check_value(&mut self, key: impl Into<String>, value: impl ToString) {
        let (key, value) = (key.into(), value.to_string());
        match self.checks.iter().find(|(k, _)| *k == key) {
            Some((_, first)) => {
                let same = *first == value;
                self.op(same, || format!("{key} changed between passes"));
            }
            None => self.checks.push((key, value)),
        }
    }
}

/// A deterministic 64-bit generator (SplitMix64): every input the
/// benchmark makes derives from `--seed` through it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derives an independent sub-seed from the workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size must be full or tiny".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        size,
    })
}

/// The end-to-end pass of one workload: set-up, the timed loop for
/// `budget`, and the output checks.
fn run_workload(ctx: &mut Ctx, workload: &str, budget: Duration) -> Vec<Metric> {
    match workload {
        "long_run" => long_run::run(ctx, budget),
        "sweep_small" => sweep_small::run(ctx, budget),
        "serve_mix" => serve_mix::run(ctx, budget),
        _ => unreachable!("workload names are checked in main"),
    }
}

/// Which of a workload's own figures each end-to-end metric reports. Every
/// workload reports every end-to-end metric: set-up, memory, the
/// throughput and median latency of its main path, and the same two of
/// its alternate path (the replay, the fleet, the misses).
fn end_to_end_map(workload: &str) -> [(&'static str, &'static str, &'static str); 6] {
    let (main, alt, main_ms, alt_ms) = match workload {
        "long_run" => (
            "refs_per_cpu_s",
            "replay_refs_per_cpu_s",
            "run_cpu_p50_ms",
            "replay_cpu_p50_ms",
        ),
        "sweep_small" => (
            "sweep_points_per_cpu_s",
            "fleet_points_per_cpu_s",
            "sweep_cpu_p50_ms",
            "fleet_sweep_cpu_p50_ms",
        ),
        _ => (
            "req_per_cpu_s",
            "served_refs_per_cpu_s",
            "hit_p50_ms",
            "miss_cpu_ms",
        ),
    };
    [
        ("setup_s", "s", "setup_s"),
        ("peak_rss_mb", "MB", "peak_rss_mb"),
        ("throughput_per_s", "1/s", main),
        ("alt_throughput_per_s", "1/s", alt),
        ("latency_p50_ms", "ms", main_ms),
        ("alt_latency_p50_ms", "ms", alt_ms),
    ]
}

/// The workload's figures under their end-to-end metric names.
fn end_to_end(workload: &str, figures: &[Metric]) -> Vec<Metric> {
    end_to_end_map(workload)
        .iter()
        .map(|&(name, unit, source)| {
            let f = figures.iter().find(|m| m.name == source && m.unit == unit);
            Metric::new(
                name,
                unit,
                f.map_or(f64::NAN, |m| m.value),
                f.map_or(0, |m| m.samples),
            )
        })
        .collect()
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    for m in metrics {
        println!(
            "  {:<34} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn result_line(ctx: &Ctx, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(m.name),
            m.value,
            escape(m.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        ctx.failed == 0,
        ctx.attempted,
        ctx.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !["long_run", "sweep_small", "serve_mix"].contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload `{}` (long_run, sweep_small, serve_mix)",
            args.workload
        );
        return ExitCode::from(2);
    }
    let out_dir = host::out_dir();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        size: args.size,
        out_dir,
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} size={:?}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.size
    );
    println!("# simulated caches start empty in every run; the model is checked against refrint-oracle, not against hardware");

    // The oracle cross-check runs first and outside every timed region.
    oracle::cross_check(&mut ctx, &args.workload);

    let budget = Duration::from_secs_f64(args.seconds);
    let jiffies = host::cpu_jiffies();
    let metrics = if args.trace {
        let half = budget / 2;
        let untraced = run_workload(&mut ctx, &args.workload, half);
        print_metrics("end-to-end, untraced", &untraced);
        tracer().set_enabled(true);
        let traced = run_workload(&mut ctx, &args.workload, half);
        print_metrics("end-to-end, traced", &traced);

        let key = end_to_end_map(&args.workload)[2].2;
        let find = |ms: &[Metric]| {
            ms.iter()
                .find(|m| m.name == key)
                .map_or(f64::NAN, |m| m.value)
        };
        let (u, t) = (find(&untraced), find(&traced));
        let overhead = (u - t) / u;
        println!("== tracing overhead (traced vs untraced, same process)");
        for (a, b) in untraced.iter().zip(&traced) {
            println!(
                "  {:<34} untraced {:>14.4} traced {:>14.4} {:<6} ({:+.2}%)",
                a.name,
                a.value,
                b.value,
                a.unit,
                100.0 * (b.value - a.value) / a.value
            );
        }

        let mut layers = Vec::new();
        layers.extend(long_run::ledger(&mut ctx));
        layers.extend(sweep_small::ledger(&mut ctx));
        layers.extend(serve_mix::ledger(&mut ctx));
        layers.push(Metric::new(
            "bench.tracing_overhead_share",
            "share",
            overhead,
            2,
        ));
        print_metrics("per-layer", &layers);
        println!("== span self time (total ms / self ms, self = duration minus direct children)");
        for (name, (total, own)) in tracer().self_times() {
            println!(
                "  {name:<34} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        match tracer().write(&ctx.out_dir, &args.workload, args.seed) {
            Ok(path) => println!("# spans written to {}", path.display()),
            Err(e) => ctx.op(false, || format!("writing spans: {e}")),
        }
        layers
    } else {
        let figures = run_workload(&mut ctx, &args.workload, budget);
        print_metrics(&format!("{} figures", args.workload), &figures);
        let metrics = end_to_end(&args.workload, &figures);
        print_metrics("end-to-end metrics", &metrics);
        metrics
    };

    for m in &metrics {
        ctx.op(m.value.is_finite(), || {
            format!("metric {} is {}", m.name, m.value)
        });
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|mut m| {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
            m
        })
        .collect();
    println!("{}", host::checks_line(&ctx.checks));
    let (steal, total) = host::cpu_jiffies();
    let steal_share = (steal - jiffies.0) as f64 / (total - jiffies.1).max(1) as f64;
    println!(
        "{}",
        host::fingerprint_line(&args.workload, args.seed, steal_share, &metrics)
    );
    println!("{}", result_line(&ctx, &metrics));
    ExitCode::SUCCESS
}
