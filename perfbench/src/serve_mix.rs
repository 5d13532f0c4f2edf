//! `serve_mix`: a plain in-process server with 2 workers under a closed
//! loop of 2 clients, each waiting for its reply and opening a fresh
//! connection per request. A seeded schedule sends most `/run` requests to
//! a few keys warmed during set-up (spelled with permuted field order and
//! the defaults written out); one request in eight is a miss with a fresh
//! seed: a small `lu`, `blackscholes` or `fft` run.
//!
//! Its ledger (`ledger`) times each request's connect and first byte,
//! scrapes the server's per-stage histograms, and checks how much of the
//! client-observed latency the stages account for.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use refrint::json;
use refrint::prelude::*;
use refrint_serve::{api, client};

use crate::calib::HostSpeed;
use crate::net::{self, Timed};
use crate::spans::{span, tracer};
use crate::stats::{median, quantile};
use crate::{derive, host, Ctx, Metric, Rng};

const CLIENTS: usize = 2;
const CORES: u64 = 16;
const WORKERS: usize = 2;
const KEYS: [AppPreset; 4] = [
    AppPreset::Lu,
    AppPreset::Blackscholes,
    AppPreset::Fft,
    AppPreset::Lu,
];
const MISS_APPS: [AppPreset; 3] = [AppPreset::Lu, AppPreset::Blackscholes, AppPreset::Fft];
/// One request in every block of this many is a miss.
const MISS_EVERY: u64 = 8;
/// The misses of the sequential miss phase are numbered from here, past
/// any the closed loop sends, so none of them hits the cache.
const COSTED_MISSES: u64 = 1 << 20;
/// The request fields that repeat the server's defaults.
const DEFAULTS: [&str; 7] = [
    "\"policy\":\"R.WB(32,32)\"",
    "\"retention_us\":50",
    "\"protocol\":\"mesi\"",
    "\"retention_profile\":\"uniform\"",
    "\"cores\":16",
    "\"sram\":false",
    "\"mode\":\"sync\"",
];
const SEED_MASK: u64 = 0xFFFF_FFFF;

/// One simulation the mix asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunSpec {
    app: AppPreset,
    refs: u64,
    seed: u64,
}

impl RunSpec {
    fn fields(&self) -> Vec<String> {
        vec![
            format!("\"app\":\"{}\"", self.app.name()),
            format!("\"refs\":{}", self.refs),
            format!("\"seed\":{}", self.seed),
        ]
    }

    fn minimal_body(&self) -> String {
        format!("{{{}}}", self.fields().join(","))
    }

    /// The body `/run` must answer with, computed in process.
    fn expected(&self) -> Result<String, String> {
        let mut sim = Simulation::builder()
            .edram_recommended()
            .refs_per_thread(self.refs)
            .seed(self.seed)
            .build()
            .map_err(|e| e.to_string())?;
        Ok(format!("{}\n", json::report(&sim.run(self.app).report)))
    }
}

/// A scheduled request: a hit on key `k` or a miss.
#[derive(Debug, Clone)]
struct Request {
    key: Option<usize>,
    spec: RunSpec,
    body: String,
}

/// The seeded request schedule: request `i` is a pure function of the
/// workload seed and `i`.
#[derive(Debug)]
struct Schedule {
    seed: u64,
    keys: Vec<RunSpec>,
    miss_refs: [u64; 2],
}

impl Schedule {
    fn new(ctx: &Ctx, stream: u64) -> Schedule {
        let seed = derive(ctx.seed, stream);
        let keys = KEYS
            .iter()
            .enumerate()
            .map(|(k, &app)| RunSpec {
                app,
                refs: ctx.size.pick(1_000, 100),
                seed: derive(seed, 100 + k as u64) & SEED_MASK,
            })
            .collect();
        Schedule {
            seed,
            keys,
            miss_refs: ctx.size.pick([500, 1_000], [100, 200]),
        }
    }

    fn is_miss(&self, i: u64) -> bool {
        i % MISS_EVERY == derive(self.seed, 10_000 + i / MISS_EVERY) % MISS_EVERY
    }

    /// Miss number `k`. Misses cycle through every (app, refs) pair, so
    /// every run asks for the same mix, each time with a fresh seed.
    fn miss(&self, k: u64) -> Request {
        let apps = MISS_APPS.len() as u64;
        let spec = RunSpec {
            app: MISS_APPS[(k % apps) as usize],
            refs: self.miss_refs[(k / apps % 2) as usize],
            seed: derive(self.seed, 2_000_000 + k) & SEED_MASK,
        };
        Request {
            key: None,
            body: spec.minimal_body(),
            spec,
        }
    }

    fn hit(&self, i: u64) -> Request {
        let mut rng = Rng::new(derive(self.seed, 1_000_000 + i));
        let k = rng.below(self.keys.len() as u64) as usize;
        let spec = self.keys[k];
        let mut fields = spec.fields();
        fields.extend(DEFAULTS.iter().map(|f| (*f).to_owned()));
        for j in (1..fields.len()).rev() {
            fields.swap(j, rng.below(j as u64 + 1) as usize);
        }
        Request {
            key: Some(k),
            spec,
            body: format!("{{{}}}", fields.join(",")),
        }
    }

    fn request(&self, i: u64) -> Request {
        if self.is_miss(i) {
            self.miss(i / MISS_EVERY)
        } else {
            self.hit(i)
        }
    }
}

/// One completed request.
#[derive(Debug)]
struct Sample {
    request: Request,
    reply: Result<Timed, String>,
}

/// How a closed-loop client sends one request.
type Send = fn(SocketAddr, &[u8]) -> std::io::Result<Timed>;

/// The library client, timed from the call to its return.
fn send_with_client(addr: SocketAddr, body: &[u8]) -> std::io::Result<Timed> {
    let start = Instant::now();
    let r = client::post(addr, "/run", body)?;
    let total = start.elapsed();
    Ok(Timed {
        status: r.status,
        cache: r.header("X-Refrint-Cache").map(str::to_owned),
        body: r.body,
        phases: None,
        total,
    })
}

fn send_timed(addr: SocketAddr, body: &[u8]) -> std::io::Result<Timed> {
    net::timed_post(addr, "/run", body)
}

/// Runs `CLIENTS` closed-loop clients: each takes the next request index,
/// sends it and waits for the reply, until `more(index)` says stop.
fn closed_loop(
    name: &'static str,
    addr: SocketAddr,
    request: impl Fn(u64) -> Request + Sync,
    more: impl Fn(u64) -> bool + Sync,
    send: Send,
) -> Vec<Sample> {
    let next = AtomicU64::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if !more(i) {
                            return out;
                        }
                        let request = request(i);
                        let reply = span(name, 1, || {
                            send(addr, request.body.as_bytes()).map_err(|e| e.to_string())
                        });
                        if let Ok(Timed {
                            phases: Some((connect, ttfb)),
                            ..
                        }) = &reply
                        {
                            tracer().record("serve.connect", *connect, 1);
                            tracer().record("serve.ttfb", *ttfb, 1);
                        }
                        out.push(Sample { request, reply });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// Checks every reply against the in-process report (misses are
/// recomputed on `CLIENTS` threads) and counts one operation per request.
fn check_replies(ctx: &mut Ctx, samples: &[Sample], hit_bodies: &[String]) {
    let failures: Vec<String> = std::thread::scope(|s| {
        let chunk = samples.len().div_ceil(CLIENTS).max(1);
        let handles: Vec<_> = samples
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter_map(|sample| check_one(sample, hit_bodies).err())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a check thread panicked"))
            .collect()
    });
    ctx.ops_ok((samples.len() - failures.len()) as u64);
    for f in failures {
        ctx.op(false, || f);
    }
}

fn check_one(sample: &Sample, hit_bodies: &[String]) -> Result<(), String> {
    let r = sample
        .reply
        .as_ref()
        .map_err(|e| format!("request failed: {e}"))?;
    let want_cache = if sample.request.key.is_some() {
        "hit"
    } else {
        "miss"
    };
    if r.status != 200 || r.cache.as_deref() != Some(want_cache) {
        return Err(format!(
            "{} answered {} with cache {:?}, expected 200 and {want_cache}",
            sample.request.body, r.status, r.cache
        ));
    }
    let expected = match sample.request.key {
        Some(k) => hit_bodies[k].clone(),
        None => sample.request.spec.expected()?,
    };
    if r.body != expected.as_bytes() {
        return Err(format!(
            "{} body differs from json::report",
            sample.request.body
        ));
    }
    Ok(())
}

/// Spawns the server and warms every key (one miss each); returns the
/// server once every warm reply matched.
fn start_server(
    ctx: &mut Ctx,
    sched: &Schedule,
    hit_bodies: &[String],
) -> Option<refrint_serve::RunningServer> {
    let server = match net::spawn(net::server_options(WORKERS, 4_096)) {
        Ok(s) => s,
        Err(e) => {
            ctx.op(false, || e);
            return None;
        }
    };
    for (key, expected) in sched.keys.iter().zip(hit_bodies) {
        let r = client::post(server.addr(), "/run", key.minimal_body().as_bytes());
        ctx.op(
            matches!(&r, Ok(r) if r.status == 200 && r.body == expected.as_bytes()),
            || format!("warming {} failed", key.minimal_body()),
        );
    }
    Some(server)
}

fn latencies_ms(samples: &[Sample], hits: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.request.key.is_some() == hits)
        .filter_map(|s| s.reply.as_ref().ok())
        .map(|t| t.total.as_secs_f64() * 1e3)
        .collect()
}

fn hit_bodies(ctx: &mut Ctx, sched: &Schedule) -> Vec<String> {
    sched
        .keys
        .iter()
        .map(|k| {
            k.expected().unwrap_or_else(|e| {
                ctx.op(false, || format!("in-process {k:?}: {e}"));
                String::new()
            })
        })
        .collect()
}

pub fn run(ctx: &mut Ctx, budget: Duration) -> Vec<Metric> {
    let sched = Schedule::new(ctx, 1);
    let hit_bodies = hit_bodies(ctx, &sched);
    let digest = (0..64).fold(0xcbf2_9ce4_8422_2325u64, |h, i| {
        sched
            .request(i)
            .body
            .bytes()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    });
    ctx.check_value("serve_mix.input_digest", format!("{digest:016x}"));

    // Set-up: spawn until /healthz answers, plus warming the hit keys;
    // repeated, the median of their CPU times is reported and the last
    // server kept.
    let mut speed = HostSpeed::new();
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..ctx.size.pick(9, 2) {
        if let Some(old) = server.take() {
            refrint_serve::RunningServer::shutdown(old);
        }
        let (cost, started) = host::costed(|| {
            span("serve_mix.setup", 1, || {
                start_server(ctx, &sched, &hit_bodies)
            })
        });
        setup.push(cost);
        speed.tick();
        server = started;
    }
    let Some(server) = server else {
        return vec![Metric::new(
            "setup_s",
            "s",
            speed.median_cpu(&setup),
            setup.len(),
        )];
    };

    // Two thirds of the budget go to the mixed closed loop, the rest to
    // the sequential miss phase.
    host::reset_peak_rss();
    let start = Instant::now();
    let deadline = start + budget * 2 / 3;
    let min = ctx.size.pick(0, 3 * MISS_EVERY);
    // The loop's peak RSS is the median of its 2 s windows' peaks: the
    // first seconds after set-up can hold a transient ~25 MB that one
    // process-wide high-water mark would report in some runs and not in
    // others.
    let stop = AtomicBool::new(false);
    // The loop is costed by the process CPU time of the clients, the
    // server threads and the RSS monitor together.
    let (cost, (samples, rss)) = host::costed(|| {
        std::thread::scope(|s| {
            let monitor = s.spawn(|| host::window_peaks(&stop, Duration::from_secs(2)));
            let samples = closed_loop(
                "serve_mix.request",
                server.addr(),
                |i| sched.request(i),
                |i| i < min || Instant::now() < deadline,
                send_with_client,
            );
            stop.store(true, Ordering::SeqCst);
            (samples, monitor.join().expect("the RSS monitor panicked"))
        })
    });
    let (wall, loop_cost) = (cost.wall, cost);
    let costed = miss_phase(&server, &sched, &mut speed, start + budget);
    server.shutdown();

    // The phase's misses cycle through six (app, refs) pairs, so a median
    // over all of them would fall between two pairs' costs. Each pair's
    // median CPU time is taken instead, and the pairs are averaged. CPU
    // times are normalised to the host's speed (`calib`).
    let pairs = MISS_APPS.len() * 2;
    let pairs_ms: f64 = (0..pairs)
        .map(|p| {
            let pair: Vec<host::Cost> = costed
                .iter()
                .skip(p)
                .step_by(pairs)
                .map(|(_, c)| *c)
                .collect();
            speed.median_cpu(&pair) * 1e3
        })
        .sum();
    // Every reference of a served miss is one simulated DL1 access.
    let pair_refs: u64 = costed[..pairs]
        .iter()
        .map(|(s, _)| s.request.spec.refs * CORES)
        .sum();
    let misses_costed = costed.len();
    let costed: Vec<Sample> = costed.into_iter().map(|(s, _)| s).collect();
    check_replies(ctx, &samples, &hit_bodies);
    check_replies(ctx, &costed, &hit_bodies);
    let (hits, misses) = (latencies_ms(&samples, true), latencies_ms(&samples, false));
    let cycles: Vec<String> = hit_bodies
        .iter()
        .filter_map(|b| refrint_engine::json::parse(b.trim()).ok())
        .filter_map(|v| {
            v.as_obj()?
                .iter()
                .find(|(k, _)| k == "execution_cycles")
                .and_then(|(_, v)| v.as_u64())
        })
        .map(|c| c.to_string())
        .collect();
    ctx.check_value("serve_mix.execution_cycles", cycles.join(","));
    println!(
        "# serve_mix: {} requests ({} hits, {} misses) from {CLIENTS} closed-loop clients in {wall:.3} s, then {} sequential misses",
        samples.len(),
        hits.len(),
        misses.len(),
        misses_costed
    );

    vec![
        Metric::new("setup_s", "s", speed.median_cpu(&setup), setup.len()),
        Metric::new("peak_rss_mb", "MB", median(&rss), rss.len()),
        Metric::new("hit_p50_ms", "ms", quantile(&hits, 0.5), hits.len()),
        Metric::new("hit_p99_ms", "ms", quantile(&hits, 0.99), hits.len()),
        Metric::new("miss_p50_ms", "ms", quantile(&misses, 0.5), misses.len()),
        Metric::new("miss_p90_ms", "ms", quantile(&misses, 0.9), misses.len()),
        Metric::new(
            "req_per_s",
            "1/s",
            samples.len() as f64 / wall,
            samples.len(),
        ),
        Metric::new(
            "req_per_cpu_s",
            "1/s",
            samples.len() as f64 / speed.cpu(&loop_cost),
            samples.len(),
        ),
        Metric::new("miss_cpu_ms", "ms", pairs_ms / pairs as f64, misses_costed),
        Metric::new(
            "served_refs_per_cpu_s",
            "1/s",
            pair_refs as f64 / pairs_ms * 1e3,
            misses_costed,
        ),
        speed.metric(),
    ]
}

/// The sequential miss phase, until `deadline`: one client sends misses
/// one at a time, in whole rounds of every (app, refs) pair, and each is
/// costed by the process CPU time it took, client and server together.
/// Returns each request with its cost.
fn miss_phase(
    server: &refrint_serve::RunningServer,
    sched: &Schedule,
    speed: &mut HostSpeed,
    deadline: Instant,
) -> Vec<(Sample, host::Cost)> {
    let mut out = Vec::new();
    let pairs = MISS_APPS.len() * 2;
    while out.len() % pairs != 0 || out.is_empty() || Instant::now() < deadline {
        let request = sched.miss(COSTED_MISSES + out.len() as u64);
        let (cost, reply) = host::costed(|| {
            span("serve_mix.costed_miss", 1, || {
                send_with_client(server.addr(), request.body.as_bytes()).map_err(|e| e.to_string())
            })
        });
        out.push((Sample { request, reply }, cost));
        speed.tick();
    }
    out
}

/// Sum and count of every `refrint_request_stage_seconds` stage.
fn scrape_stages(addr: SocketAddr) -> Vec<(String, f64, f64)> {
    let text = client::get(addr, "/metrics")
        .map(|r| r.body_str())
        .unwrap_or_default();
    let value = |kind: &str, stage: &str| -> f64 {
        let prefix = format!("refrint_request_stage_seconds_{kind}{{stage=\"{stage}\"}} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(f64::NAN)
    };
    STAGES
        .iter()
        .map(|(s, _)| (s.to_string(), value("sum", s), value("count", s)))
        .collect()
}

/// The server's request lifecycle stages, in order, with the metric each
/// one's mean is reported as.
const STAGES: [(&str, &str); 7] = [
    ("parse", "serve.stage.parse_us"),
    ("read_body", "serve.stage.read_body_us"),
    ("validate", "serve.stage.validate_us"),
    ("cache_lookup", "serve.stage.cache_lookup_us"),
    ("queue_wait", "serve.stage.queue_wait_us"),
    ("execute", "serve.stage.execute_us"),
    ("write", "serve.stage.write_us"),
];

/// The serve ledger (tracing is on): a hits-only phase and a misses-only
/// phase, scraping `/metrics` around each.
pub fn ledger(ctx: &mut Ctx) -> Vec<Metric> {
    let sched = Schedule::new(ctx, 2);
    let hit_bodies = hit_bodies(ctx, &sched);
    let Some(server) = start_server(ctx, &sched, &hit_bodies) else {
        return Vec::new();
    };
    let addr = server.addr();
    let n_hits = ctx.size.pick(400, 20);
    let n_misses = ctx.size.pick(40, 4);

    let m0 = scrape_stages(addr);
    let before = tracer().agg("serve.connect");
    let hits = closed_loop(
        "serve.request",
        addr,
        |i| sched.hit(i),
        |i| i < n_hits,
        send_timed,
    );
    let connect = tracer().agg("serve.connect");
    let ttfb = tracer().agg("serve.ttfb");
    let m1 = scrape_stages(addr);
    let misses = closed_loop(
        "serve.request",
        addr,
        |i| sched.miss(i),
        |i| i < n_misses,
        send_timed,
    );
    let m2 = scrape_stages(addr);
    server.shutdown();
    check_replies(ctx, &hits, &hit_bodies);
    check_replies(ctx, &misses, &hit_bodies);

    for s in hits.iter().chain(&misses) {
        let parsed = span("serve.parse", 1, || {
            refrint_engine::json::parse(&s.request.body)
                .map_err(|e| e.to_string())
                .and_then(|v| api::parse_run_request(&v, None).map_err(|e| e.reason))
        });
        ctx.op(parsed.is_ok(), || {
            format!("parse_run_request({}) failed", s.request.body)
        });
    }
    for s in &misses {
        let executed = span("serve.execute", 1, || s.request.spec.expected());
        ctx.op(executed.is_ok(), || {
            format!("executing {:?}", s.request.spec)
        });
    }

    let hit_p50 = quantile(&latencies_ms(&hits, true), 0.5);
    let miss_p50 = quantile(&latencies_ms(&misses, false), 0.5);
    let n_a = hits.len() as f64;
    println!("== ledger: serve.unaccounted_ms (base: hit p50 {hit_p50:.4} ms over {} hits, stage sums per hit from /metrics)", hits.len());
    let mut accounted = 0.0;
    let mut out = Vec::new();
    for (((name, s0, c0), (_, s1, _)), ((_, s2, c2), metric)) in m0
        .iter()
        .zip(&m1)
        .zip(m2.iter().zip(STAGES.map(|(_, m)| m)))
    {
        let per_hit_ms = (s1 - s0) / n_a * 1e3;
        accounted += per_hit_ms;
        let mean_us = if c2 > c0 {
            (s2 - s0) / (c2 - c0) * 1e6
        } else {
            0.0
        };
        println!("  stage {name:<14} {per_hit_ms:>10.4} ms per hit   (mean {mean_us:>10.2} us over {} samples)", c2 - c0);
        out.push(Metric::new(metric, "us", mean_us, (c2 - c0) as usize));
    }
    let unaccounted = hit_p50 - accounted;
    println!("  {:<20} {accounted:>10.4} ms", "sum of stages");
    println!("  {:<20} {hit_p50:>10.4} ms", "measured hit p50");
    println!(
        "  {:<20} {unaccounted:>10.4} ms  (share {:.4})",
        "unaccounted",
        unaccounted / hit_p50
    );

    let execute_ms =
        tracer().agg("serve.execute").total_ns as f64 / misses.len().max(1) as f64 / 1e6;
    println!(
        "== ledger: serve.miss_overhead_ms (base: miss p50 {miss_p50:.4} ms over {} misses)",
        misses.len()
    );
    println!("  {:<20} {execute_ms:>10.4} ms", "in-process execute");
    println!("  {:<20} {:>10.4} ms", "overhead", miss_p50 - execute_ms);

    let connect_us = (connect.total_ns - before.total_ns) as f64
        / (connect.spans - before.spans).max(1) as f64
        / 1e3;
    let ttfb_ms = ttfb.total_ns as f64 / ttfb.spans.max(1) as f64 / 1e6;
    let parse = tracer().agg("serve.parse");
    out.extend([
        Metric::new("serve.connect_us", "us", connect_us, hits.len()),
        Metric::new("serve.ttfb_ms", "ms", ttfb_ms, hits.len()),
        Metric::new(
            "serve.parse_us",
            "us",
            parse.total_ns as f64 / parse.spans.max(1) as f64 / 1e3,
            parse.spans,
        ),
        Metric::new("serve.unaccounted_ms", "ms", unaccounted, hits.len()),
        Metric::new("serve.execute_ms", "ms", execute_ms, misses.len()),
        Metric::new(
            "serve.miss_overhead_ms",
            "ms",
            miss_p50 - execute_ms,
            misses.len(),
        ),
    ]);
    out
}
