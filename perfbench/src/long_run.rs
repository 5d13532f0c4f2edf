//! `long_run`: one long 16-core `fft` run on the recommended eDRAM chip,
//! then a replay of its captured trace. The per-reference path does nearly
//! all the work; set-up, JSON and HTTP do none.
//!
//! The core ledger (`ledger`) measures every layer of that path on the
//! same reference streams and checks the accounting identity
//! `core.residual_share`.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use refrint::config::SystemConfig;
use refrint::hierarchy::{line_kind, RefreshDomain};
use refrint::json;
use refrint::prelude::*;
use refrint_coherence::{CoherenceEngine, CoreRequest, Directory};
use refrint_edram::schedule::LineKind;
use refrint_energy::accounting::EnergyCounts;
use refrint_engine::time::Cycle;
use refrint_mem::dram::DramOp;
use refrint_mem::{Cache, DramModel, LineAddr, MesiState};
use refrint_workloads::generator::ThreadStream;
use refrint_workloads::trace::MemRef;

use crate::calib::HostSpeed;
use crate::spans::{span, tracer};
use crate::stats::median;
use crate::{host, Ctx, Metric};

const APP: AppPreset = AppPreset::Fft;
const CORES: usize = 16;

/// References per thread of the long run (768k references at 16 cores).
fn refs_per_thread(ctx: &Ctx) -> u64 {
    ctx.size.pick(48_000, 1_000)
}

/// The recommended chip: R.WB(32,32) at 50 µs, 16 cores.
fn chip(seed: u64, refs: u64) -> SimulationBuilder {
    Simulation::builder()
        .edram_recommended()
        .policy_label("R.WB(32,32)")
        .retention_us(50)
        .cores(CORES)
        .seed(seed)
        .refs_per_thread(refs)
}

/// A digest of the first references of every thread: changes with the
/// seed, repeats for the same seed.
fn input_digest(cfg: &SystemConfig) -> u64 {
    let model = cfg.adjusted_model(&APP.model());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in 0..model.threads {
        for r in ThreadStream::new(&model, t, cfg.seed).take(64) {
            for word in [r.addr.raw(), r.gap_cycles, u64::from(r.is_write())] {
                h = (h ^ word).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

pub fn run(ctx: &mut Ctx, budget: Duration) -> Vec<Metric> {
    let refs = refs_per_thread(ctx);
    let seed = ctx.seed;
    let trace_path = ctx.out_dir.join(format!("long_run-{seed}.rft"));

    // Set-up: build plus trace capture, repeated; the median of their CPU
    // times is reported.
    let mut speed = HostSpeed::new();
    let mut setup = Vec::new();
    for _ in 0..ctx.size.pick(9, 2) {
        let (cost, captured) = host::costed(|| {
            span("long_run.build", 1, || chip(seed, refs).build())
                .map_err(|e| e.to_string())
                .and_then(|sim| {
                    span("long_run.capture", refs * CORES as u64, || {
                        sim.capture(APP, &trace_path)
                    })
                    .map_err(|e| e.to_string())
                })
        });
        setup.push(cost);
        speed.tick();
        ctx.op(captured.is_ok(), || {
            format!("long_run set-up: {captured:?}")
        });
    }
    if let Ok(cfg) = chip(seed, refs).build_config() {
        ctx.check_value(
            "long_run.input_digest",
            format!("{:016x}", input_digest(&cfg)),
        );
    }

    let deadline = Instant::now() + budget;
    let mut rss = Vec::new();
    let (mut live, mut replay) = (Vec::new(), Vec::new());
    let mut run_refs = 0;
    let mut first_cycles = None;
    while live.len() < 3 || Instant::now() < deadline {
        speed.tick();
        host::reset_peak_rss();
        let outcome = rep(seed, refs, &trace_path);
        rss.push(host::peak_rss_mb());
        match outcome {
            Ok(r) => {
                run_refs = r.refs;
                live.push(r.live);
                replay.push(r.replay);
                ctx.op(r.live_json == r.replay_json, || {
                    "the replay report differs from the synthetic report".into()
                });
                let cycles = r.execution_cycles;
                let first = *first_cycles.get_or_insert(cycles);
                ctx.op(cycles == first, || {
                    format!("execution_cycles {cycles} differs from the first run's {first}")
                });
            }
            Err(e) => {
                ctx.op(false, || format!("long_run repetition: {e}"));
                break;
            }
        }
    }
    speed.tick();
    if let Some(cycles) = first_cycles {
        ctx.check_value("long_run.execution_cycles", cycles);
    }

    // CPU times are normalised to the host's speed (`calib`); a rate is
    // the run's references over the median time of one run.
    let (live_s, replay_s) = (speed.median_cpu(&live), speed.median_cpu(&replay));
    let per_s = |secs: f64| run_refs as f64 / secs;
    let n = live.len();
    vec![
        Metric::new("setup_s", "s", speed.median_cpu(&setup), setup.len()),
        Metric::new("peak_rss_mb", "MB", median(&rss), rss.len()),
        Metric::new("refs_per_cpu_s", "1/s", per_s(live_s), n),
        Metric::new("replay_refs_per_cpu_s", "1/s", per_s(replay_s), n),
        Metric::new("run_cpu_p50_ms", "ms", live_s * 1e3, n),
        Metric::new("replay_cpu_p50_ms", "ms", replay_s * 1e3, n),
        Metric::new("refs_per_s", "1/s", per_s(host::median_wall(&live)), n),
        Metric::new(
            "replay_refs_per_s",
            "1/s",
            per_s(host::median_wall(&replay)),
            n,
        ),
        speed.metric(),
    ]
}

struct Rep {
    /// DL1 references of one run.
    refs: u64,
    live: host::Cost,
    replay: host::Cost,
    live_json: String,
    replay_json: String,
    execution_cycles: u64,
}

/// One synthetic run and one replay of the captured trace, each costed
/// without its build.
fn rep(seed: u64, refs: u64, trace_path: &Path) -> Result<Rep, String> {
    let mut sim =
        span("long_run.build", 1, || chip(seed, refs).build()).map_err(|e| e.to_string())?;
    let (live_cost, live) =
        host::costed(|| span("long_run.run", refs * CORES as u64, || sim.run(APP)));
    drop(sim);

    let mut sim = span("long_run.build", 1, || {
        chip(seed, refs).trace(trace_path).build()
    })
    .map_err(|e| e.to_string())?;
    let (replay_cost, replayed) =
        host::costed(|| span("long_run.replay", refs * CORES as u64, || sim.replay()));
    let replayed = replayed.map_err(|e| e.to_string())?;

    let (live_json, replay_json) = span("long_run.json_report", 2, || {
        (json::report(&live.report), json::report(&replayed.report))
    });
    Ok(Rep {
        refs: live.report.counts.dl1_accesses,
        live: live_cost,
        replay: replay_cost,
        live_json,
        replay_json,
        execution_cycles: live.report.execution_cycles,
    })
}

/// Per-unit costs of the components of the per-reference path, measured
/// by replaying the long run's own streams through each component alone.
#[derive(Debug)]
struct Components {
    l1_ns: f64,
    l2_ns: f64,
    l3_ns: f64,
    dir_ns: f64,
    dram_ns: f64,
    settle_ns: f64,
}

struct Probe {
    line: LineAddr,
    tile: usize,
    write: bool,
    now: Cycle,
}

/// Probes `input` through `caches` (fill on miss), returning the misses
/// and the pre-touch (kind, last touch, now) of every hit.
fn probe_level(
    caches: &mut [Cache],
    pick: impl Fn(&Probe) -> usize,
    input: &[Probe],
    misses: &mut Vec<usize>,
    hits: &mut Vec<(LineKind, Cycle, Cycle)>,
) {
    for (i, p) in input.iter().enumerate() {
        let cache = &mut caches[pick(p)];
        match cache.lookup_prev(p.line, p.now) {
            Some((prev, _)) => hits.push((line_kind(&prev), prev.meta.last_touch, p.now)),
            None => {
                cache.fill(p.line, MesiState::Exclusive, p.now);
                misses.push(i);
            }
        }
    }
}

/// Times `input` through fresh `caches` (lookup plus fill on miss) and
/// returns nanoseconds per probe. The caches are rebuilt first so the
/// timed pass does exactly the work of the recording pass.
fn time_level(
    name: &'static str,
    mut caches: Vec<Cache>,
    pick: impl Fn(&Probe) -> usize,
    input: &[Probe],
) -> f64 {
    span(name, input.len() as u64, || {
        for p in input {
            let cache = &mut caches[pick(p)];
            if cache.lookup_prev(p.line, p.now).is_none() {
                black_box(cache.fill(p.line, MesiState::Exclusive, p.now));
            }
        }
    });
    tracer().agg(name).ns_per_unit()
}

fn components(cfg: &SystemConfig, streams: &[Vec<MemRef>]) -> Components {
    let shift = cfg.dl1.geometry.line_size().trailing_zeros();
    let banks = cfg.l3_banks;
    let l1_caches = || -> Vec<Cache> {
        (0..cfg.cores)
            .map(|_| Cache::new("dl1", cfg.dl1.geometry))
            .collect()
    };
    let l2_caches = || -> Vec<Cache> {
        (0..cfg.cores)
            .map(|_| Cache::new("l2", cfg.l2.geometry))
            .collect()
    };
    let l3_caches = || -> Vec<Cache> {
        (0..banks)
            .map(|_| Cache::new("l3", cfg.l3_bank.geometry))
            .collect()
    };

    // Each core's stream with its own clock (cumulative gaps).
    let mut l1_in = Vec::new();
    for (tile, stream) in streams.iter().enumerate() {
        let mut now = 0u64;
        for r in stream {
            now += r.gap_cycles;
            l1_in.push(Probe {
                line: LineAddr::new(r.addr.raw() >> shift),
                tile,
                write: r.is_write(),
                now: Cycle::new(now),
            });
        }
    }
    let by_tile = |p: &Probe| p.tile;
    let by_bank = |p: &Probe| p.line.bank(banks);
    let select = |input: &[Probe], idx: &[usize]| -> Vec<Probe> {
        idx.iter()
            .map(|&i| Probe {
                line: input[i].line,
                tile: input[i].tile,
                write: input[i].write,
                now: input[i].now,
            })
            .collect()
    };

    // Recording pass: what reaches each level, and the ages settled.
    let (mut miss, mut l1_hits, mut l2_hits, mut l3_hits) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    probe_level(&mut l1_caches(), by_tile, &l1_in, &mut miss, &mut l1_hits);
    let l2_in = select(&l1_in, &miss);
    miss.clear();
    probe_level(&mut l2_caches(), by_tile, &l2_in, &mut miss, &mut l2_hits);
    let l3_in = select(&l2_in, &miss);
    miss.clear();
    probe_level(&mut l3_caches(), by_bank, &l3_in, &mut miss, &mut l3_hits);
    let dram_in = select(&l3_in, &miss);

    let l1_ns = time_level("mem.l1_probe", l1_caches(), by_tile, &l1_in);
    let l2_ns = time_level("mem.l2_probe", l2_caches(), by_tile, &l2_in);
    let l3_ns = time_level("mem.l3_probe", l3_caches(), by_bank, &l3_in);

    let mut engine = CoherenceEngine::new(cfg.protocol, cfg.cores);
    let mut dir = Directory::new(cfg.cores);
    span("coherence.dir", l3_in.len() as u64, || {
        for p in &l3_in {
            let req = if p.write {
                CoreRequest::Write
            } else {
                CoreRequest::Read
            };
            black_box(engine.access(&mut dir, p.line, p.tile, req));
        }
    });
    let mut dram = DramModel::paper_default();
    span("mem.dram", dram_in.len() as u64, || {
        for p in &dram_in {
            black_box(dram.access(p.line.raw(), DramOp::Read, p.now));
        }
    });

    let private = cfg.private_cache_policy();
    let dl1_domain = RefreshDomain::new(&cfg.dl1, private, cfg.retention, cfg.cells, Cycle::ZERO);
    let l2_domain = RefreshDomain::new(&cfg.l2, private, cfg.retention, cfg.cells, Cycle::ZERO);
    let l3_domain = RefreshDomain::from_factory(
        &cfg.l3_bank,
        cfg.l3_policy_factory(),
        cfg.retention,
        cfg.cells,
        Cycle::ZERO,
    )
    .expect("the recommended policy binds on the paper chip");
    let settles = (l1_hits.len() + l2_hits.len() + l3_hits.len()) as u64;
    span("edram.settle", settles, || {
        for (domain, hits) in [
            (&dl1_domain, &l1_hits),
            (&l2_domain, &l2_hits),
            (&l3_domain, &l3_hits),
        ] {
            for &(kind, touch, now) in hits {
                black_box(domain.settle(kind, touch, now));
            }
        }
    });

    let agg = |name| tracer().agg(name).ns_per_unit();
    Components {
        l1_ns,
        l2_ns,
        l3_ns,
        dir_ns: agg("coherence.dir"),
        dram_ns: agg("mem.dram"),
        settle_ns: agg("edram.settle"),
    }
}

/// The core ledger on the long run's streams (tracing is on).
pub fn ledger(ctx: &mut Ctx) -> Vec<Metric> {
    let refs = ctx.size.pick(48_000, 500);
    let builder = chip(ctx.seed, refs);
    let cfg = match builder.build_config() {
        Ok(cfg) => cfg,
        Err(e) => {
            ctx.op(false, || format!("core ledger config: {e}"));
            return Vec::new();
        }
    };
    let model = cfg.adjusted_model(&APP.model());
    let total = refs * CORES as u64;

    let streams: Vec<Vec<MemRef>> = span("workloads.gen", total, || {
        (0..model.threads)
            .map(|t| ThreadStream::new(&model, t, cfg.seed).collect())
            .collect()
    });
    let reps = 3;
    let mut report = None;
    for _ in 0..reps {
        let Ok(mut sim) = builder.build() else { break };
        let input: Vec<std::vec::IntoIter<MemRef>> =
            streams.clone().into_iter().map(Vec::into_iter).collect();
        let r = span("core.sim", total, || {
            sim.system_mut().run_streams(&model.name, input)
        });
        ctx.op(r.is_ok(), || format!("core ledger run_streams: {r:?}"));
        report = r.ok();
    }
    let trace_path = ctx.out_dir.join(format!("ledger-{}.rft", ctx.seed));
    for _ in 0..reps {
        let Ok(sim) = builder.build() else { break };
        let r = span("trace.encode", total, || sim.capture(APP, &trace_path));
        ctx.op(r.is_ok(), || format!("core ledger capture: {r:?}"));
    }
    for _ in 0..reps {
        let decoded = span("trace.decode", total, || -> Result<u64, String> {
            let file = TraceFile::open(&trace_path).map_err(|e| e.to_string())?;
            let mut n = 0u64;
            for t in 0..CORES {
                for r in file.thread(t).map_err(|e| e.to_string())? {
                    black_box(r.map_err(|e| e.to_string())?);
                    n += 1;
                }
            }
            Ok(n)
        });
        ctx.op(decoded == Ok(total), || {
            format!("trace decode gave {decoded:?}, expected {total}")
        });
    }
    let c = span("ledger.components", total, || components(&cfg, &streams));

    let gen = tracer().agg("workloads.gen").ns_per_unit();
    let sim_ns = tracer().agg("core.sim").ns_per_unit();
    let residual = match &report {
        Some(report) => print_core_identity(&c, &report.counts, sim_ns, total),
        None => f64::NAN,
    };
    vec![
        Metric::new("workloads.gen_ns_per_ref", "ns", gen, 1),
        Metric::new(
            "trace.encode_ns_per_ref",
            "ns",
            tracer().agg("trace.encode").ns_per_unit(),
            reps,
        ),
        Metric::new(
            "trace.decode_ns_per_ref",
            "ns",
            tracer().agg("trace.decode").ns_per_unit(),
            reps,
        ),
        Metric::new("core.sim_ns_per_ref", "ns", sim_ns, reps),
        Metric::new("mem.l1_probe_ns", "ns", c.l1_ns, 1),
        Metric::new("mem.l2_probe_ns", "ns", c.l2_ns, 1),
        Metric::new("mem.l3_probe_ns", "ns", c.l3_ns, 1),
        Metric::new("mem.dram_ns", "ns", c.dram_ns, 1),
        Metric::new("coherence.dir_ns", "ns", c.dir_ns, 1),
        Metric::new("edram.settle_ns", "ns", c.settle_ns, 1),
        Metric::new("core.residual_share", "share", residual, reps),
    ]
}

/// Prints the per-reference accounting identity and returns the residual
/// share of the measured `run_streams` time left unexplained.
fn print_core_identity(
    c: &Components,
    counts: &EnergyCounts,
    sim_ns_per_ref: f64,
    refs: u64,
) -> f64 {
    let probes = counts.dl1_accesses + counts.l2_accesses + counts.l3_accesses;
    let terms = [
        (
            "mem.l1_probe_ns x dl1_accesses",
            c.l1_ns,
            counts.dl1_accesses,
        ),
        ("mem.l2_probe_ns x l2_accesses", c.l2_ns, counts.l2_accesses),
        ("mem.l3_probe_ns x l3_accesses", c.l3_ns, counts.l3_accesses),
        (
            "coherence.dir_ns x l3_accesses",
            c.dir_ns,
            counts.l3_accesses,
        ),
        (
            "mem.dram_ns x dram_accesses",
            c.dram_ns,
            counts.dram_accesses(),
        ),
        (
            "edram.settle_ns x (dl1+l2+l3 accesses)",
            c.settle_ns,
            probes,
        ),
    ];
    let measured_ms = sim_ns_per_ref * refs as f64 / 1e6;
    println!("== ledger: core.residual_share (base: core.sim_ns_per_ref x refs = {measured_ms:.3} ms of run_streams over {refs} refs)");
    let mut sum_ms = 0.0;
    for (name, cost, count) in terms {
        let ms = cost * count as f64 / 1e6;
        sum_ms += ms;
        println!("  {name:<42} {cost:>9.2} ns x {count:>9} = {ms:>10.3} ms");
    }
    let residual = 1.0 - sum_ms / measured_ms;
    println!("  {:<42} {:>38.3} ms", "sum of components", sum_ms);
    println!("  {:<42} {:>38.3} ms", "measured total", measured_ms);
    println!(
        "  {:<42} {:>38.3} ms  (share {:.4})",
        "residual",
        measured_ms - sum_ms,
        residual
    );
    residual
}
