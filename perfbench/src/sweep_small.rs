//! `sweep_small`: the quick experiment (SRAM plus every paper policy at
//! 50 µs) over `lu` and `blackscholes` × {mesi, dragon} at 2,000
//! refs/thread and 16 cores — 60 short points — first through
//! `SweepRunner` with 2 workers, then as `POST /sweep` to a coordinator in
//! front of 2 one-worker backends. Both results must be byte-identical.
//!
//! Its ledger (`ledger`) times build, end-of-run and JSON per point, the
//! direct `/run` of every point on one backend, and checks the sweep
//! identity `core.sweep_residual_share`.

use std::time::{Duration, Instant};

use refrint::json;
use refrint::prelude::*;
use refrint_serve::client;
use refrint_workloads::trace::MemRef;

use crate::calib::HostSpeed;
use crate::net::Fleet;
use crate::spans::{span, tracer};
use crate::stats::median;
use crate::{derive, host, Ctx, Metric};

const APPS: [AppPreset; 2] = [AppPreset::Lu, AppPreset::Blackscholes];
const PROTOCOLS: [CoherenceProtocol; 2] = [CoherenceProtocol::Mesi, CoherenceProtocol::Dragon];
const CORES: usize = 16;
const WORKERS: usize = 2;
const BACKENDS: usize = 2;
/// Seeds sent over HTTP stay below 2^32 so JSON numbers carry them exactly.
const SEED_MASK: u64 = 0xFFFF_FFFF;

fn refs_per_thread(ctx: &Ctx) -> u64 {
    ctx.size.pick(2_000, 100)
}

fn config(seed: u64, refs: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick()
        .with_apps(APPS.to_vec())
        .with_protocols(PROTOCOLS.to_vec())
        .with_refs_per_thread(refs);
    cfg.seed = seed;
    cfg.cores = CORES;
    cfg
}

/// The `POST /sweep` body of [`config`].
fn sweep_body(seed: u64, refs: u64) -> String {
    format!(
        "{{\"apps\":[\"lu\",\"blackscholes\"],\"protocols\":[\"mesi\",\"dragon\"],\"refs\":{refs},\"seed\":{seed},\"cores\":{CORES}}}"
    )
}

/// One sweep point: an app on a protocol, SRAM (`None`) or an eDRAM policy
/// at 50 µs.
#[derive(Debug, Clone, Copy)]
struct Point {
    app: AppPreset,
    protocol: CoherenceProtocol,
    policy: Option<RefreshPolicy>,
}

/// The sweep's points in `SweepRunner` job order.
fn points() -> Vec<Point> {
    let mut out = Vec::new();
    for app in APPS {
        for protocol in PROTOCOLS {
            out.push(Point {
                app,
                protocol,
                policy: None,
            });
            for policy in RefreshPolicy::paper_sweep() {
                out.push(Point {
                    app,
                    protocol,
                    policy: Some(policy),
                });
            }
        }
    }
    out
}

impl Point {
    fn builder(&self, seed: u64, refs: u64) -> SimulationBuilder {
        let base = match self.policy {
            None => Simulation::builder().sram_baseline(),
            Some(policy) => Simulation::builder()
                .edram_recommended()
                .policy(policy)
                .retention_us(50),
        };
        base.protocol(self.protocol)
            .cores(CORES)
            .seed(seed)
            .refs_per_thread(refs)
    }

    /// The `POST /run` body of this point.
    fn body(&self, seed: u64, refs: u64) -> String {
        let config = match self.policy {
            None => "\"sram\":true".to_owned(),
            Some(policy) => format!("\"policy\":\"{}\",\"retention_us\":50", policy.label()),
        };
        format!(
            "{{\"app\":\"{}\",\"protocol\":\"{}\",{config},\"refs\":{refs},\"seed\":{seed},\"cores\":{CORES}}}",
            self.app.name(),
            self.protocol.label()
        )
    }
}

/// Every `execution_cycles` of a sweep, in key order.
fn cycles_of(results: &SweepResults) -> String {
    let sram = results.sram.values().map(|r| r.execution_cycles);
    let edram = results.edram.values().map(|r| r.execution_cycles);
    sram.chain(edram)
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

pub fn run(ctx: &mut Ctx, budget: Duration) -> Vec<Metric> {
    let refs = refs_per_thread(ctx);
    // Two seeds, alternated, so the one-entry result caches never hit.
    let seeds = [
        derive(ctx.seed, 1) & SEED_MASK,
        derive(ctx.seed, 2) & SEED_MASK,
    ];
    ctx.check_value("sweep_small.seeds", format!("{seeds:?}"));
    let point_count = config(seeds[0], refs).total_runs();

    // Set-up: spawn both backends and the coordinator until every /healthz
    // answers, repeated; the median of their CPU times is reported and the
    // last fleet kept.
    let mut speed = HostSpeed::new();
    let mut setup = Vec::new();
    let mut fleet = None;
    for _ in 0..ctx.size.pick(21, 2) {
        if let Some(old) = fleet.take() {
            Fleet::shutdown(old);
            // Let the old fleet's detached metrics threads see the
            // shutdown and exit before the next spawn is timed.
            std::thread::sleep(Duration::from_millis(20));
        }
        let (cost, spawned) =
            host::costed(|| span("sweep_small.spawn_fleet", 1, || Fleet::spawn(BACKENDS)));
        setup.push(cost);
        speed.tick();
        match spawned {
            Ok(f) => {
                ctx.op(true, String::new);
                fleet = Some(f);
            }
            Err(e) => ctx.op(false, || e),
        }
    }
    let Some(fleet) = fleet else {
        return vec![Metric::new(
            "setup_s",
            "s",
            speed.median_cpu(&setup),
            setup.len(),
        )];
    };
    let coordinator = fleet.coordinator.addr();

    let deadline = Instant::now() + budget;
    let mut rss = Vec::new();
    let (mut local, mut remote) = (Vec::new(), Vec::new());
    let mut first: [Option<String>; 2] = [None, None];
    let mut rep = 0;
    while rep < 3 || Instant::now() < deadline {
        speed.tick();
        let which = rep % 2;
        let seed = seeds[which];
        rep += 1;
        host::reset_peak_rss();
        let (cost, swept) = host::costed(|| {
            span("sweep_small.local", point_count as u64, || {
                SweepRunner::new(config(seed, refs)).workers(WORKERS).run()
            })
            .map(|results| {
                let json = span("sweep_small.json_sweep", 1, || json::sweep(&results));
                (results, json)
            })
        });
        let (results, local_json) = match swept {
            Ok(r) => r,
            Err(e) => {
                ctx.op(false, || format!("local sweep: {e}"));
                break;
            }
        };
        local.push(cost);

        let body = sweep_body(seed, refs);
        let (cost, served) = host::costed(|| {
            span("sweep_small.fleet", point_count as u64, || {
                client::post(coordinator, "/sweep", body.as_bytes())
            })
        });
        remote.push(cost);
        match served {
            Ok(r) => ctx.op(
                r.status == 200
                    && r.header("X-Refrint-Cache") == Some("miss")
                    && r.body == format!("{local_json}\n").as_bytes(),
                || {
                    format!(
                        "fleet /sweep (status {}) differs from the local sweep",
                        r.status
                    )
                },
            ),
            Err(e) => ctx.op(false, || format!("fleet /sweep: {e}")),
        }
        rss.push(host::peak_rss_mb());
        let cycles = cycles_of(&results);
        match &first[which] {
            None => {
                ctx.check_value(format!("sweep_small.execution_cycles.{which}"), &cycles);
                first[which] = Some(cycles);
            }
            Some(f) => ctx.op(*f == cycles, || {
                "sweep execution_cycles did not repeat".into()
            }),
        }
    }
    speed.tick();
    fleet.shutdown();

    // CPU times are normalised to the host's speed (`calib`).
    let (local_s, remote_s) = (speed.median_cpu(&local), speed.median_cpu(&remote));
    let per_s = |secs: f64| point_count as f64 / secs;
    let (n, m) = (local.len(), remote.len());
    vec![
        Metric::new("setup_s", "s", speed.median_cpu(&setup), setup.len()),
        Metric::new("peak_rss_mb", "MB", median(&rss), rss.len()),
        Metric::new("sweep_points_per_cpu_s", "1/s", per_s(local_s), n),
        Metric::new("fleet_points_per_cpu_s", "1/s", per_s(remote_s), m),
        Metric::new("sweep_cpu_p50_ms", "ms", local_s * 1e3, n),
        Metric::new("fleet_sweep_cpu_p50_ms", "ms", remote_s * 1e3, m),
        Metric::new(
            "sweep_points_per_s",
            "1/s",
            per_s(host::median_wall(&local)),
            n,
        ),
        Metric::new(
            "fleet_points_per_s",
            "1/s",
            per_s(host::median_wall(&remote)),
            m,
        ),
        speed.metric(),
    ]
}

/// The sweep and fleet ledgers on `sweep_small`'s points (tracing is on).
pub fn ledger(ctx: &mut Ctx) -> Vec<Metric> {
    let refs = refs_per_thread(ctx);
    let seed = derive(ctx.seed, 3) & SEED_MASK;
    let pts = points();

    // Every point alone: build, run (simulation plus end-of-run), JSON.
    let mut reports = Vec::new();
    for p in &pts {
        match span("core.build", 1, || p.builder(seed, refs).build()) {
            Ok(mut sim) => {
                let outcome = span("core.run_point", 1, || sim.run(p.app));
                reports.push(span("core.json_report", 1, || {
                    json::report(&outcome.report)
                }));
            }
            Err(e) => ctx.op(false, || format!("building {p:?}: {e}")),
        }
    }
    // End-of-run alone: empty streams over a fresh 16-core system.
    let eor_reps = ctx.size.pick(10, 2);
    for _ in 0..eor_reps {
        let chip = Simulation::builder()
            .edram_recommended()
            .cores(CORES)
            .seed(seed);
        if let Ok(mut sim) = chip.build() {
            let empty: Vec<std::iter::Empty<MemRef>> =
                (0..CORES).map(|_| std::iter::empty()).collect();
            let r = span("core.end_of_run", 1, || {
                sim.system_mut().run_streams("empty", empty)
            });
            ctx.op(r.is_ok(), || format!("end-of-run: {r:?}"));
        }
    }
    let results = span("core.sweep", pts.len() as u64, || {
        SweepRunner::new(config(seed, refs)).workers(WORKERS).run()
    });
    let sweep_json = match &results {
        Ok(r) => span("core.json_sweep", 1, || json::sweep(r)),
        Err(e) => {
            ctx.op(false, || format!("ledger sweep: {e}"));
            String::new()
        }
    };
    let residual = print_sweep_identity();

    // The fleet: every point run directly on one backend, then the same
    // sweep through the coordinator.
    let (point_ms, overhead_ms) = match Fleet::spawn(BACKENDS) {
        Ok(fleet) => {
            let backend = fleet.backends[0].addr();
            for (p, expected) in pts.iter().zip(&reports) {
                let body = p.body(seed, refs);
                let r = span("fleet.point_run", 1, || {
                    client::post(backend, "/run", body.as_bytes())
                });
                ctx.op(
                    matches!(&r, Ok(r) if r.status == 200 && r.body == format!("{expected}\n").as_bytes()),
                    || format!("direct /run of {p:?} differs from the in-process report"),
                );
            }
            // Evict the backend's one-entry cache so the sweep below misses.
            let evict = pts[0].body(seed ^ 1, refs);
            let _ = client::post(backend, "/run", evict.as_bytes());
            let body = sweep_body(seed, refs);
            let r = span("fleet.sweep", pts.len() as u64, || {
                client::post(fleet.coordinator.addr(), "/sweep", body.as_bytes())
            });
            ctx.op(
                matches!(&r, Ok(r) if r.status == 200 && r.body == format!("{sweep_json}\n").as_bytes()),
                || "ledger fleet /sweep differs from the local sweep".into(),
            );
            fleet.shutdown();
            let direct = tracer().agg("fleet.point_run");
            let sweep = tracer().agg("fleet.sweep");
            let overhead = (sweep.total_ns as f64 * BACKENDS as f64 - direct.total_ns as f64)
                / pts.len() as f64
                / 1e6;
            println!(
                "== ledger: fleet.dispatch_overhead_ms (base: /sweep wall {:.3} ms x {BACKENDS} backends vs {} direct /run totalling {:.3} ms)",
                sweep.total_ns as f64 / 1e6,
                direct.spans,
                direct.total_ns as f64 / 1e6
            );
            (direct.total_ns as f64 / direct.spans as f64 / 1e6, overhead)
        }
        Err(e) => {
            ctx.op(false, || e);
            (f64::NAN, f64::NAN)
        }
    };

    let ms = |name| {
        let a = tracer().agg(name);
        a.total_ns as f64 / a.spans as f64 / 1e6
    };
    vec![
        Metric::new("core.build_ms", "ms", ms("core.build"), pts.len()),
        Metric::new("core.end_of_run_ms", "ms", ms("core.end_of_run"), eor_reps),
        Metric::new(
            "core.json_report_us",
            "us",
            ms("core.json_report") * 1e3,
            pts.len(),
        ),
        Metric::new("core.json_sweep_ms", "ms", ms("core.json_sweep"), 1),
        Metric::new("core.sweep_residual_share", "share", residual, 1),
        Metric::new("fleet.point_run_ms", "ms", point_ms, pts.len()),
        Metric::new("fleet.dispatch_overhead_ms", "ms", overhead_ms, 1),
    ]
}

/// Prints the sweep accounting identity and returns its residual share:
/// 1 − Σ per-point (build + run + JSON) ÷ (sweep wall × workers).
fn print_sweep_identity() -> f64 {
    let sweep = tracer().agg("core.sweep");
    let base_ms = sweep.total_ns as f64 * WORKERS as f64 / 1e6;
    println!(
        "== ledger: core.sweep_residual_share (base: SweepRunner wall {:.3} ms x {WORKERS} workers = {base_ms:.3} ms)",
        sweep.total_ns as f64 / 1e6
    );
    let mut sum_ms = 0.0;
    for name in ["core.build", "core.run_point", "core.json_report"] {
        let a = tracer().agg(name);
        let total = a.total_ns as f64 / 1e6;
        sum_ms += total;
        println!(
            "  {name:<28} {:>10.4} ms x {:>4} points = {total:>10.3} ms",
            total / a.spans as f64,
            a.spans
        );
    }
    let residual = 1.0 - sum_ms / base_ms;
    println!("  {:<28} {:>37.3} ms", "sum over points", sum_ms);
    println!("  {:<28} {:>37.3} ms", "measured total", base_ms);
    println!(
        "  {:<28} {:>37.3} ms  (share {residual:.4})",
        "residual",
        base_ms - sum_ms
    );
    residual
}
