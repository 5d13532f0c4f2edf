//! End-to-end tests of the `refrint-serve` HTTP service.
//!
//! The headline guarantee under test: a `POST /run` (or `POST /sweep`)
//! response body is **byte-identical** to what the equivalent direct
//! `Simulation` / `SweepRunner` call renders through the shared JSON
//! emitters (which is exactly what `refrint-cli run --format json`
//! prints), whether the result was freshly simulated, raced by concurrent
//! clients, or replayed from the result cache. Malformed requests must be
//! answered with typed 4xx documents — never a panic or a dropped
//! connection.

use std::sync::Arc;
use std::time::Duration;

use refrint::prelude::*;
use refrint_serve::client;
use refrint_serve::{Server, ServerOptions};

/// Starts a server on an ephemeral port.
fn start(options: ServerOptions) -> refrint_serve::RunningServer {
    Server::bind("127.0.0.1:0", options)
        .expect("bind an ephemeral port")
        .spawn()
        .expect("spawn the accept loop")
}

/// The bytes `refrint-cli run --format json` prints for a small run.
fn direct_run_bytes(app: AppPreset, refs: u64, cores: usize, seed: Option<u64>) -> Vec<u8> {
    let mut builder = Simulation::builder()
        .edram_recommended()
        .refs_per_thread(refs)
        .cores(cores);
    if let Some(seed) = seed {
        builder = builder.seed(seed);
    }
    let mut sim = builder.build().expect("valid configuration");
    format!("{}\n", refrint::json::report(&sim.run(app).report)).into_bytes()
}

/// The bytes `refrint-cli sweep --format json` prints for a small sweep.
fn direct_sweep_bytes(apps: Vec<AppPreset>, refs: u64, cores: usize) -> Vec<u8> {
    let mut cfg = ExperimentConfig::quick().with_refs_per_thread(refs);
    cfg.apps = apps;
    cfg.cores = cores;
    let results = SweepRunner::new(cfg)
        .sequential()
        .run()
        .expect("valid sweep");
    format!("{}\n", refrint::json::sweep(&results)).into_bytes()
}

#[test]
fn concurrent_mixed_clients_get_bit_identical_results() {
    let server = start(ServerOptions {
        workers: 4,
        ..ServerOptions::default()
    });
    let addr = server.addr();

    // Expected bytes, computed directly (no server involved).
    let lu = Arc::new(direct_run_bytes(AppPreset::Lu, 600, 2, None));
    let fft = Arc::new(direct_run_bytes(AppPreset::Fft, 600, 2, None));
    let seeded = Arc::new(direct_run_bytes(AppPreset::Blackscholes, 500, 2, Some(11)));
    let swept = Arc::new(direct_sweep_bytes(vec![AppPreset::Lu], 500, 2));

    // Ten concurrent clients: three distinct runs (each requested more
    // than once, so some requests race and some hit the cache) plus a
    // sweep.
    let requests: Vec<(&str, String, Arc<Vec<u8>>)> = vec![
        (
            "/run",
            "{\"app\": \"lu\", \"refs\": 600, \"cores\": 2}".into(),
            Arc::clone(&lu),
        ),
        (
            "/run",
            "{\"app\": \"lu\", \"refs\": 600, \"cores\": 2}".into(),
            Arc::clone(&lu),
        ),
        (
            "/run",
            "{\"cores\": 2, \"refs\": 600, \"app\": \"lu\"}".into(),
            Arc::clone(&lu),
        ),
        (
            "/run",
            "{\"app\": \"fft\", \"refs\": 600, \"cores\": 2}".into(),
            Arc::clone(&fft),
        ),
        (
            "/run",
            "{\"app\": \"fft\", \"refs\": 600, \"cores\": 2}".into(),
            Arc::clone(&fft),
        ),
        (
            "/run",
            "{\"app\": \"blackscholes\", \"refs\": 500, \"cores\": 2, \"seed\": 11}".into(),
            Arc::clone(&seeded),
        ),
        (
            "/run",
            "{\"app\": \"blackscholes\", \"refs\": 500, \"cores\": 2, \"seed\": 11}".into(),
            Arc::clone(&seeded),
        ),
        (
            "/sweep",
            "{\"apps\": [\"lu\"], \"refs\": 500, \"cores\": 2}".into(),
            Arc::clone(&swept),
        ),
        (
            "/sweep",
            "{\"apps\": [\"lu\"], \"refs\": 500, \"cores\": 2}".into(),
            Arc::clone(&swept),
        ),
        (
            "/run",
            "{\"app\": \"lu\", \"refs\": 600, \"cores\": 2}".into(),
            Arc::clone(&lu),
        ),
    ];
    assert!(requests.len() >= 8, "the issue asks for >= 8 clients");

    let handles: Vec<_> = requests
        .into_iter()
        .enumerate()
        .map(|(i, (path, body, expected))| {
            std::thread::spawn(move || {
                let response = client::post(addr, path, body.as_bytes())
                    .unwrap_or_else(|e| panic!("client {i} failed: {e}"));
                assert_eq!(response.status, 200, "client {i}: {}", response.body_str());
                assert_eq!(
                    response.body, *expected,
                    "client {i} ({path}) got bytes that differ from the direct call"
                );
                response.header("X-Refrint-Cache").map(str::to_owned)
            })
        })
        .collect();
    let cache_markers: Vec<Option<String>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        cache_markers.iter().all(|m| m.is_some()),
        "every response carries a cache marker"
    );

    // After the dust settles, a repeated request must be a cache hit with
    // the same bytes again.
    let replay = client::post(
        addr,
        "/run",
        b"{\"app\": \"lu\", \"refs\": 600, \"cores\": 2}",
    )
    .unwrap();
    assert_eq!(replay.status, 200);
    assert_eq!(replay.header("X-Refrint-Cache"), Some("hit"));
    assert_eq!(replay.body, *lu);

    // The metrics reflect the workload mix.
    let metrics = client::get(addr, "/metrics").unwrap().body_str();
    let counter = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing counter {name} in:\n{metrics}"))
    };
    assert!(counter("refrint_cache_hits_total") >= 1);
    assert!(counter("refrint_jobs_completed_total") >= 4);
    assert_eq!(counter("refrint_jobs_failed_total"), 0);
    assert!(counter("refrint_refs_simulated_total") > 0);

    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors_not_dropped_connections() {
    let server = start(ServerOptions {
        max_body_bytes: 2048,
        ..ServerOptions::default()
    });
    let addr = server.addr();

    // (request path, body, expected status, expected kind marker)
    let cases: Vec<(&str, Vec<u8>, u16, &str)> = vec![
        ("/run", b"{\"app\": \"lu\"".to_vec(), 400, "bad_json"),
        ("/run", b"not json at all".to_vec(), 400, "bad_json"),
        (
            "/run",
            b"{\"app\": \"quake3\"}".to_vec(),
            422,
            "unknown_workload",
        ),
        (
            "/run",
            b"{\"app\": \"lu\", \"policy\": \"R.sometimes\"}".to_vec(),
            422,
            "unknown_policy",
        ),
        ("/run", b"{}".to_vec(), 422, "schema"),
        (
            "/run",
            b"{\"app\": \"lu\", \"bogus\": true}".to_vec(),
            422,
            "schema",
        ),
        (
            "/run",
            b"{\"app\": \"lu\", \"sram\": true, \"retention_us\": 100}".to_vec(),
            422,
            "invalid_config",
        ),
        (
            "/run",
            b"{\"trace\": \"lu.rft\"}".to_vec(),
            422,
            "traces_unavailable",
        ),
        (
            "/sweep",
            b"{\"apps\": [\"lu\"], \"retentions_us\": [1]}".to_vec(),
            422,
            "invalid_config",
        ),
        (
            "/run",
            {
                // An oversized body, far bigger than the socket buffers:
                // the 413 must still reach the client even though the
                // server rejects before reading any of it (the server
                // drains the stream instead of slamming it shut with an
                // RST).
                let mut big = b"{\"app\": \"lu\", \"pad\": \"".to_vec();
                big.extend(std::iter::repeat_n(b'x', 1_000_000));
                big.extend(b"\"}");
                big
            },
            413,
            "body_too_large",
        ),
    ];

    for (path, body, status, kind) in cases {
        let response = client::post(addr, path, &body)
            .unwrap_or_else(|e| panic!("connection dropped for {path} ({kind}): {e}"));
        assert_eq!(
            response.status,
            status,
            "{path} ({kind}): {}",
            response.body_str()
        );
        assert!(
            response.body_str().contains(kind),
            "{path}: expected kind {kind} in {}",
            response.body_str()
        );
        // The server survived: health stays green after every bad request.
        let health = client::get(addr, "/healthz").unwrap();
        assert_eq!(health.status, 200);
    }

    // Unknown policies list the valid labels, like the CLI does.
    let response = client::post(
        addr,
        "/run",
        b"{\"app\": \"lu\", \"policy\": \"R.sometimes\"}",
    )
    .unwrap();
    assert!(
        response.body_str().contains("R.WB(32,32)"),
        "policy errors must list valid labels: {}",
        response.body_str()
    );

    server.shutdown();
}

/// `refrint-cli run`, `POST /run` and the builder reject an unknown policy
/// label with one reason string, rendered by `refrint-edram`.
#[test]
fn unknown_policy_reasons_are_identical_across_front_ends() {
    let cli = refrint_cli::RunOptions::parse(
        &["--app", "lu", "--policy", "R.sometimes"].map(String::from),
    )
    .unwrap_err();
    let server = start(ServerOptions::default());
    let response = client::post(
        server.addr(),
        "/run",
        b"{\"app\": \"lu\", \"policy\": \"R.sometimes\"}",
    )
    .unwrap();
    server.shutdown();
    assert_eq!(response.status, 422, "{}", response.body_str());
    let doc = refrint_engine::json::parse(response.body_str().trim_end()).unwrap();
    let served = doc
        .get("error")
        .and_then(|e| e.get("reason"))
        .and_then(|r| r.as_str())
        .unwrap()
        .to_owned();
    let built = Simulation::builder()
        .policy_label("R.sometimes")
        .build()
        .unwrap_err()
        .to_string();
    assert_eq!(cli, served);
    assert_eq!(built, served);
    assert!(
        served.starts_with("unknown refresh policy `R.sometimes`"),
        "{served}"
    );
}

#[test]
fn async_jobs_poll_to_the_same_bytes() {
    let server = start(ServerOptions::default());
    let addr = server.addr();
    let expected = direct_run_bytes(AppPreset::Lu, 500, 2, Some(5));

    let accepted = client::post(
        addr,
        "/run",
        b"{\"app\": \"lu\", \"refs\": 500, \"cores\": 2, \"seed\": 5, \"mode\": \"async\"}",
    )
    .unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body_str());
    assert!(accepted.body_str().contains("\"status\":\"queued\""));
    assert_eq!(accepted.header("X-Refrint-Cache"), Some("miss"));
    let id = accepted
        .header("X-Refrint-Job")
        .expect("async responses carry the job id")
        .to_owned();

    let mut result = None;
    for _ in 0..400 {
        let r = client::get(addr, &format!("/jobs/{id}/result")).unwrap();
        if r.status != 202 {
            result = Some(r);
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let result = result.expect("the job finishes");
    assert_eq!(result.status, 200);
    assert_eq!(result.body, expected);

    // An async resubmission of the same work is answered from the cache
    // as an already-done job.
    let again = client::post(
        addr,
        "/run",
        b"{\"app\": \"lu\", \"refs\": 500, \"cores\": 2, \"seed\": 5, \"mode\": \"async\"}",
    )
    .unwrap();
    assert_eq!(again.status, 202);
    assert_eq!(again.header("X-Refrint-Cache"), Some("hit"));
    assert!(again.body_str().contains("\"status\":\"done\""));
    assert!(again.body_str().contains("\"cached\":true"));

    server.shutdown();
}

#[test]
fn trace_workloads_are_servable_and_replay_identically() {
    // Record a trace into a server trace dir, then serve it.
    let dir = std::env::temp_dir().join(format!("refrint-serve-traces-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("lu.rft");
    let builder = || {
        Simulation::builder()
            .edram_recommended()
            .cores(2)
            .refs_per_thread(500)
            .seed(9)
    };
    builder()
        .build()
        .unwrap()
        .capture(AppPreset::Lu, &trace_path)
        .unwrap();
    let expected = {
        let mut sim = builder().trace(&trace_path).build().unwrap();
        format!("{}\n", refrint::json::report(&sim.replay().unwrap().report)).into_bytes()
    };

    let server = start(ServerOptions {
        trace_dir: Some(dir.clone()),
        ..ServerOptions::default()
    });
    let addr = server.addr();
    let body = "{\"trace\": \"lu.rft\", \"refs\": 500, \"seed\": 9}";
    let first = client::post(addr, "/run", body.as_bytes()).unwrap();
    assert_eq!(first.status, 200, "{}", first.body_str());
    assert_eq!(first.body, expected);
    let second = client::post(addr, "/run", body.as_bytes()).unwrap();
    assert_eq!(second.header("X-Refrint-Cache"), Some("hit"));
    assert_eq!(second.body, expected);

    // Traversal attempts stay typed errors.
    let evil = client::post(addr, "/run", b"{\"trace\": \"../lu.rft\"}").unwrap();
    assert_eq!(evil.status, 422);
    assert!(evil.body_str().contains("bad_trace_name"));

    server.shutdown();
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn sweep_responses_match_the_cli_sweep_json() {
    let server = start(ServerOptions::default());
    let addr = server.addr();
    let expected = direct_sweep_bytes(vec![AppPreset::Fft], 400, 2);
    let response = client::post(
        addr,
        "/sweep",
        b"{\"apps\": [\"fft\"], \"refs\": 400, \"cores\": 2}",
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body_str());
    assert_eq!(response.body, expected);
    // The analytics pass reaches the service response: every sweep
    // document carries the anomalies array (empty on a clean sweep).
    assert!(
        response.body_str().contains("\"anomalies\":["),
        "sweep responses must include the anomaly report"
    );
    server.shutdown();
}

/// Reads one Prometheus sample (comment lines skipped); `name` may include
/// a label set, e.g. `refrint_subsystem_cycles_total{subsystem="dram"}`.
fn metric_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| !l.starts_with('#') && l.split(' ').next() == Some(name))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing metric {name} in:\n{metrics}"))
}

#[test]
fn load_gauges_and_latency_histogram_move_under_load() {
    // One worker, so queued jobs visibly pile up behind the busy one.
    let server = start(ServerOptions {
        workers: 1,
        ..ServerOptions::default()
    });
    let addr = server.addr();

    let scrape = || client::get(addr, "/metrics").unwrap().body_str().to_owned();
    let idle = scrape();
    assert_eq!(metric_value(&idle, "refrint_queue_depth"), 0.0);
    assert_eq!(metric_value(&idle, "refrint_workers_busy"), 0.0);

    // Three distinct heavy runs (different seeds, so no cache hits),
    // submitted asynchronously: the single worker takes the first while
    // the others wait in the queue.
    for seed in [101, 102, 103] {
        let body = format!(
            "{{\"app\": \"lu\", \"refs\": 60000, \"cores\": 2, \"seed\": {seed}, \
             \"mode\": \"async\"}}"
        );
        let accepted = client::post(addr, "/run", body.as_bytes()).unwrap();
        assert_eq!(accepted.status, 202, "{}", accepted.body_str());
    }

    // Under load both gauges must be observably non-zero.
    let mut saw_busy = false;
    let mut saw_queued = false;
    for _ in 0..500 {
        let doc = scrape();
        saw_busy |= metric_value(&doc, "refrint_workers_busy") >= 1.0;
        saw_queued |= metric_value(&doc, "refrint_queue_depth") >= 1.0;
        if (saw_busy && saw_queued) || metric_value(&doc, "refrint_jobs_completed_total") >= 3.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saw_busy, "workers_busy must rise while a job executes");
    assert!(saw_queued, "queue_depth must rise while jobs wait");

    // Once everything drains, both gauges return to zero.
    let mut done = String::new();
    for _ in 0..600 {
        done = scrape();
        if metric_value(&done, "refrint_jobs_completed_total") >= 3.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        metric_value(&done, "refrint_jobs_completed_total") >= 3.0,
        "jobs must finish: \n{done}"
    );
    assert_eq!(metric_value(&done, "refrint_queue_depth"), 0.0);
    assert_eq!(metric_value(&done, "refrint_workers_busy"), 0.0);

    // The request-latency histogram counted every scrape and submission,
    // in well-formed cumulative buckets.
    let count = metric_value(&done, "refrint_http_request_duration_seconds_count");
    assert!(count >= 4.0, "latency histogram must record requests");
    assert_eq!(
        metric_value(
            &done,
            "refrint_http_request_duration_seconds_bucket{le=\"+Inf\"}"
        ),
        count,
        "the +Inf bucket equals the sample count"
    );
    assert!(metric_value(&done, "refrint_http_request_duration_seconds_sum") > 0.0);

    // Run jobs fed the per-subsystem cycle attribution.
    for subsystem in ["cache", "dram"] {
        let name = format!("refrint_subsystem_cycles_total{{subsystem=\"{subsystem}\"}}");
        assert!(
            metric_value(&done, &name) > 0.0,
            "{subsystem} cycles must be attributed after run jobs:\n{done}"
        );
    }

    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_releases_the_port() {
    let server = start(ServerOptions::default());
    let addr = server.addr();
    // Queue one run, then shut down: the response must still arrive.
    let worker = std::thread::spawn(move || {
        client::post(
            addr,
            "/run",
            b"{\"app\": \"lu\", \"refs\": 400, \"cores\": 2}",
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(50));
    let bye = client::post(addr, "/shutdown", b"").unwrap();
    assert_eq!(bye.status, 200);
    let response = worker.join().unwrap();
    assert_eq!(response.status, 200, "{}", response.body_str());
    server.shutdown();
    // The port is reusable once the listener is gone.
    let mut rebound = false;
    for _ in 0..100 {
        if std::net::TcpListener::bind(addr).is_ok() {
            rebound = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(rebound, "shutdown must close the listener");
}

#[test]
fn cli_serve_options_reach_the_server() {
    // The launcher path: ServeOptions -> ServerOptions -> a live server.
    let args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--cache",
        "2",
        "--max-body",
        "512",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let options = refrint_cli::ServeOptions::parse(&args).unwrap();
    let server = start(options.server);
    let addr = server.addr();
    // The 512-byte body limit is live.
    let mut big = b"{\"app\": \"lu\", \"pad\": \"".to_vec();
    big.extend(std::iter::repeat_n(b'y', 1024));
    big.extend(b"\"}");
    let response = client::post(addr, "/run", &big).unwrap();
    assert_eq!(response.status, 413);
    server.shutdown();
}

/// Cache-key conformance: the canonical key is derived from the *validated*
/// configuration, so requests that spell the same run differently — any
/// field order, defaults written out explicitly — must hit the cache and
/// return the first run's exact bytes.
#[test]
fn cache_key_ignores_field_order_and_spelled_out_defaults() {
    let server = start(ServerOptions::default());
    let addr = server.addr();

    let canonical = client::post(
        addr,
        "/run",
        b"{\"app\": \"radix\", \"refs\": 400, \"cores\": 2}",
    )
    .unwrap();
    assert_eq!(canonical.status, 200, "{}", canonical.body_str());
    assert_eq!(canonical.header("X-Refrint-Cache"), Some("miss"));
    assert_eq!(
        canonical.body,
        direct_run_bytes(AppPreset::Radix, 400, 2, None),
        "the first run must match the CLI's JSON bytes"
    );

    // The same run, spelled differently: permuted field order, and every
    // default of the /run schema written out explicitly (eDRAM cells, the
    // recommended policy, 50 us retention, the default seed 0xBEEF, sync
    // mode).
    let equivalent_bodies: &[&[u8]] = &[
        b"{\"cores\": 2, \"app\": \"radix\", \"refs\": 400}",
        b"{\"refs\": 400, \"cores\": 2, \"app\": \"radix\"}",
        b"{\"app\": \"radix\", \"refs\": 400, \"cores\": 2, \"sram\": false, \
          \"policy\": \"R.WB(32,32)\", \"retention_us\": 50, \"seed\": 48879, \
          \"mode\": \"sync\"}",
        b"{\"seed\": 48879, \"mode\": \"sync\", \"retention_us\": 50, \
          \"policy\": \"R.WB(32,32)\", \"sram\": false, \"cores\": 2, \
          \"refs\": 400, \"app\": \"radix\"}",
    ];
    for body in equivalent_bodies {
        let response = client::post(addr, "/run", body).unwrap();
        let spelled = String::from_utf8_lossy(body);
        assert_eq!(response.status, 200, "{spelled}: {}", response.body_str());
        assert_eq!(
            response.header("X-Refrint-Cache"),
            Some("hit"),
            "`{spelled}` must resolve to the canonical cache key"
        );
        assert_eq!(
            response.body, canonical.body,
            "`{spelled}` must return the original run's exact bytes"
        );
    }

    // A genuinely different run (another seed) must not collide.
    let different = client::post(
        addr,
        "/run",
        b"{\"app\": \"radix\", \"refs\": 400, \"cores\": 2, \"seed\": 7}",
    )
    .unwrap();
    assert_eq!(different.status, 200, "{}", different.body_str());
    assert_eq!(different.header("X-Refrint-Cache"), Some("miss"));
    assert_ne!(different.body, canonical.body);

    server.shutdown();
}

/// Cache-key conformance for the coherence-protocol and retention-profile
/// axes: spelled-out defaults still hit the default entry, a non-default
/// axis keys (and simulates) separately in any field order, and the two
/// axes never collide with each other.
#[test]
fn protocol_and_retention_profile_axes_key_separately() {
    let server = start(ServerOptions::default());
    let addr = server.addr();

    let base = client::post(
        addr,
        "/run",
        b"{\"app\": \"radix\", \"refs\": 400, \"cores\": 2}",
    )
    .unwrap();
    assert_eq!(base.status, 200, "{}", base.body_str());
    assert_eq!(base.header("X-Refrint-Cache"), Some("miss"));

    // Spelling out the default axes must hit the default entry.
    let spelled = client::post(
        addr,
        "/run",
        b"{\"retention_profile\": \"uniform\", \"protocol\": \"mesi\", \
          \"app\": \"radix\", \"refs\": 400, \"cores\": 2}",
    )
    .unwrap();
    assert_eq!(spelled.status, 200, "{}", spelled.body_str());
    assert_eq!(spelled.header("X-Refrint-Cache"), Some("hit"));
    assert_eq!(spelled.body, base.body);

    // A non-default protocol is a different simulation: miss, then a hit
    // under a permuted field order, never the MESI bytes.
    let dragon = client::post(
        addr,
        "/run",
        b"{\"app\": \"radix\", \"refs\": 400, \"cores\": 2, \"protocol\": \"dragon\"}",
    )
    .unwrap();
    assert_eq!(dragon.status, 200, "{}", dragon.body_str());
    assert_eq!(dragon.header("X-Refrint-Cache"), Some("miss"));
    let dragon_reordered = client::post(
        addr,
        "/run",
        b"{\"protocol\": \"dragon\", \"cores\": 2, \"refs\": 400, \"app\": \"radix\"}",
    )
    .unwrap();
    assert_eq!(dragon_reordered.header("X-Refrint-Cache"), Some("hit"));
    assert_eq!(dragon_reordered.body, dragon.body);

    // A non-default retention profile keys separately from both.
    let bimodal = client::post(
        addr,
        "/run",
        b"{\"app\": \"radix\", \"refs\": 400, \"cores\": 2, \
          \"retention_profile\": \"bimodal(25,60)\"}",
    )
    .unwrap();
    assert_eq!(bimodal.status, 200, "{}", bimodal.body_str());
    assert_eq!(bimodal.header("X-Refrint-Cache"), Some("miss"));
    let bimodal_again = client::post(
        addr,
        "/run",
        b"{\"retention_profile\": \"bimodal(25,60)\", \"app\": \"radix\", \
          \"refs\": 400, \"cores\": 2}",
    )
    .unwrap();
    assert_eq!(bimodal_again.header("X-Refrint-Cache"), Some("hit"));
    assert_eq!(bimodal_again.body, bimodal.body);

    // Bad axis labels are typed 422s, not 500s or dropped connections.
    let err = client::post(
        addr,
        "/run",
        b"{\"app\": \"radix\", \"protocol\": \"moesi\"}",
    )
    .unwrap();
    assert_eq!(err.status, 422, "{}", err.body_str());
    assert!(
        err.body_str().contains("unknown_protocol"),
        "{}",
        err.body_str()
    );

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Request-scoped tracing
// ---------------------------------------------------------------------------

use refrint_engine::json::{parse, Value};

/// Fetches a finished job's `/jobs/<id>/trace` and parses it. The server
/// waits for the connection handler to attach the trace, so the first
/// answer is the document.
fn fetch_trace(addr: std::net::SocketAddr, id: &str) -> Value {
    let r = client::get(addr, &format!("/jobs/{id}/trace")).unwrap();
    assert_eq!(r.status, 200, "unexpected trace status: {}", r.body_str());
    parse(&r.body_str()).expect("trace documents are valid JSON")
}

/// The flat span list of an OTLP-shaped trace document.
fn trace_spans(doc: &Value) -> &[Value] {
    doc.get("resourceSpans")
        .and_then(Value::as_arr)
        .and_then(|rs| rs.first())
        .and_then(|r| r.get("scopeSpans"))
        .and_then(Value::as_arr)
        .and_then(|ss| ss.first())
        .and_then(|s| s.get("spans"))
        .and_then(Value::as_arr)
        .expect("resourceSpans[0].scopeSpans[0].spans")
}

/// Reads one resource attribute (stringValue or intValue) by key.
fn resource_attr(doc: &Value, key: &str) -> Option<String> {
    let attrs = doc
        .get("resourceSpans")
        .and_then(Value::as_arr)
        .and_then(|rs| rs.first())
        .and_then(|r| r.get("resource"))
        .and_then(|r| r.get("attributes"))
        .and_then(Value::as_arr)?;
    attrs
        .iter()
        .find(|a| a.get("key").and_then(Value::as_str) == Some(key))
        .and_then(|a| a.get("value"))
        .and_then(|v| {
            v.get("stringValue")
                .or_else(|| v.get("intValue"))
                .and_then(Value::as_str)
        })
        .map(str::to_owned)
}

fn span_field<'a>(span: &'a Value, field: &str) -> Option<&'a str> {
    span.get(field).and_then(Value::as_str)
}

#[test]
fn traceparent_requests_are_followable_end_to_end() {
    let server = start(ServerOptions::default());
    let addr = server.addr();

    let inbound_trace = "4bf92f3577b34da6a3ce929d0e0e4736";
    let inbound_span = "00f067aa0ba902b7";
    let traceparent = format!("00-{inbound_trace}-{inbound_span}-01");

    let response = client::request_with_headers(
        addr,
        "POST",
        "/run",
        Some(b"{\"app\": \"lu\", \"refs\": 500, \"cores\": 2, \"seed\": 21}"),
        &[("traceparent", traceparent.as_str())],
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body_str());
    let id = response
        .header("X-Refrint-Job")
        .expect("traced submissions carry the job id")
        .to_owned();

    let doc = fetch_trace(addr, &id);
    let spans = trace_spans(&doc);

    // The root `request` span carries the inbound trace id and is parented
    // on the caller's span — the trace continues, not restarts.
    let root = spans
        .iter()
        .find(|s| span_field(s, "name") == Some("request"))
        .expect("a request root span");
    assert_eq!(span_field(root, "traceId"), Some(inbound_trace));
    assert_eq!(span_field(root, "parentSpanId"), Some(inbound_span));

    // Every lifecycle stage appears as a child of the root, in timeline
    // order, and a cache-missing sync run is bounded by `execute`.
    let root_id = span_field(root, "spanId").unwrap().to_owned();
    for stage in [
        "accept",
        "parse",
        "read_body",
        "validate",
        "cache_lookup",
        "queue_wait",
        "execute",
        "write",
    ] {
        let name = format!("stage/{stage}");
        let span = spans
            .iter()
            .find(|s| span_field(s, "name") == Some(name.as_str()))
            .unwrap_or_else(|| panic!("missing {name} span"));
        assert_eq!(span_field(span, "traceId"), Some(inbound_trace));
        assert_eq!(span_field(span, "parentSpanId"), Some(root_id.as_str()));
    }
    assert_eq!(
        resource_attr(&doc, "refrint.request_critical_stage").as_deref(),
        Some("execute"),
        "a cache miss spends its time executing the simulation"
    );

    // The executed run's subsystem spans hang off the execute stage, and
    // the run-level critical subsystem is named.
    let execute_id = spans
        .iter()
        .find(|s| span_field(s, "name") == Some("stage/execute"))
        .and_then(|s| span_field(s, "spanId"))
        .unwrap()
        .to_owned();
    assert!(
        spans
            .iter()
            .any(|s| span_field(s, "parentSpanId") == Some(execute_id.as_str())),
        "simulation subsystem spans must be children of stage/execute"
    );
    assert!(resource_attr(&doc, "refrint.run_critical_subsystem").is_some());

    // The per-stage latency histogram is live on /metrics.
    let metrics = client::get(addr, "/metrics").unwrap().body_str();
    for stage in ["parse", "validate", "execute", "write"] {
        let needle = format!("refrint_request_stage_seconds_count{{stage=\"{stage}\"}}");
        assert!(
            metrics.lines().any(|l| l.starts_with(&needle)),
            "missing {needle} in:\n{metrics}"
        );
    }

    server.shutdown();
}

#[test]
fn untraced_requests_mint_deterministic_trace_ids_and_hits_are_traceable() {
    let server = start(ServerOptions::default());
    let addr = server.addr();
    let body: &[u8] = b"{\"app\": \"fft\", \"refs\": 500, \"cores\": 2, \"seed\": 33}";

    let miss = client::post(addr, "/run", body).unwrap();
    assert_eq!(miss.status, 200, "{}", miss.body_str());
    assert_eq!(miss.header("X-Refrint-Cache"), Some("miss"));
    let miss_id = miss.header("X-Refrint-Job").unwrap().to_owned();
    let miss_doc = fetch_trace(addr, &miss_id);
    let miss_trace_id = span_field(
        trace_spans(&miss_doc)
            .iter()
            .find(|s| span_field(s, "name") == Some("request"))
            .unwrap(),
        "traceId",
    )
    .unwrap()
    .to_owned();

    // A cache hit gets its own job id and its own trace: the handler-side
    // stages are all there, the critical stage is one of them (there is no
    // execute stage to blame), and the minted trace id — derived from the
    // canonical cache key — matches the miss's.
    let hit = client::post(addr, "/run", body).unwrap();
    assert_eq!(hit.header("X-Refrint-Cache"), Some("hit"));
    assert_eq!(hit.body, miss.body, "hits replay the exact bytes");
    let hit_id = hit.header("X-Refrint-Job").unwrap().to_owned();
    assert_ne!(hit_id, miss_id, "each request is its own job");
    let hit_doc = fetch_trace(addr, &hit_id);
    let hit_spans = trace_spans(&hit_doc);
    let hit_trace_id = span_field(
        hit_spans
            .iter()
            .find(|s| span_field(s, "name") == Some("request"))
            .unwrap(),
        "traceId",
    )
    .unwrap();
    assert_eq!(
        hit_trace_id, miss_trace_id,
        "minted trace ids are a pure function of the validated cache key"
    );

    let critical = resource_attr(&hit_doc, "refrint.request_critical_stage")
        .expect("hits name their bounding stage");
    assert!(
        [
            "accept",
            "parse",
            "read_body",
            "validate",
            "cache_lookup",
            "write"
        ]
        .contains(&critical.as_str()),
        "a cache hit never executes: bounding stage was {critical}"
    );
    assert!(
        !hit_spans
            .iter()
            .any(|s| span_field(s, "name") == Some("stage/execute")),
        "cache hits must not claim an execute stage"
    );
    assert_eq!(
        resource_attr(&hit_doc, "refrint.job_cached").as_deref(),
        Some("true")
    );

    server.shutdown();
}

/// Tracing and logging observe without perturbing: the exact bytes of a
/// `/run` response are identical whether the request carried a
/// `traceparent` and whether debug JSON logging is on.
#[test]
fn tracing_and_logging_never_change_response_bytes() {
    use refrint_obs::log::{Level, LogFormat};
    let expected = direct_run_bytes(AppPreset::Lu, 500, 2, Some(77));
    let body: &[u8] = b"{\"app\": \"lu\", \"refs\": 500, \"cores\": 2, \"seed\": 77}";

    let quiet = start(ServerOptions::default());
    let plain = client::post(quiet.addr(), "/run", body).unwrap();
    assert_eq!(plain.status, 200, "{}", plain.body_str());
    assert_eq!(plain.body, expected);
    quiet.shutdown();

    let noisy = start(ServerOptions {
        log_level: Level::Debug,
        log_format: LogFormat::Json,
        ..ServerOptions::default()
    });
    let traced = client::request_with_headers(
        noisy.addr(),
        "POST",
        "/run",
        Some(body),
        &[(
            "traceparent",
            "00-0123456789abcdef0123456789abcdef-fedcba9876543210-01",
        )],
    )
    .unwrap();
    assert_eq!(traced.status, 200, "{}", traced.body_str());
    assert_eq!(
        traced.body, expected,
        "debug logging + tracing must not change the body"
    );
    noisy.shutdown();
}
