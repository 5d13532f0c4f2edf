//! End-to-end tests of coordinator mode: a `refrint-serve` instance that
//! splits sweeps into point-level `POST /run` jobs and fans them out over
//! the HTTP API to a pool of backend servers.
//!
//! The headline guarantee: a coordinator's `/sweep` response is
//! **byte-identical** to a local `SweepRunner` (i.e. to
//! `refrint-cli sweep --format json`) at any backend count — including
//! when a backend is killed mid-sweep and its points are reassigned —
//! and the persistent `--cache-dir` result cache replays those bytes
//! across a coordinator restart without touching a backend.

use std::path::PathBuf;
use std::time::Duration;

use refrint::prelude::*;
use refrint_engine::json::{parse, Value};
use refrint_serve::client;
use refrint_serve::coordinator::CoordinatorOptions;
use refrint_serve::{RunningServer, Server, ServerOptions};

/// Starts a plain (simulating) backend server on an ephemeral port.
fn start_backend() -> RunningServer {
    Server::bind("127.0.0.1:0", ServerOptions::default())
        .expect("bind an ephemeral backend port")
        .spawn()
        .expect("spawn the backend accept loop")
}

/// Starts a coordinator over the given backends.
fn start_coordinator(backends: &[&RunningServer], cache_dir: Option<PathBuf>) -> RunningServer {
    let options = ServerOptions {
        coordinator: Some(CoordinatorOptions {
            backends: backends.iter().map(|b| b.addr().to_string()).collect(),
            ..CoordinatorOptions::default()
        }),
        disk_cache_dir: cache_dir,
        ..ServerOptions::default()
    };
    Server::bind("127.0.0.1:0", options)
        .expect("bind an ephemeral coordinator port")
        .spawn()
        .expect("spawn the coordinator accept loop")
}

/// The sweep request used throughout: 2 workloads x (1 SRAM + 2
/// retentions x 3 policies) = 14 point jobs, small enough to stay fast.
const SWEEP_BODY: &str = "{\"apps\":[\"lu\",\"fft\"],\"refs\":400,\"cores\":2,\
                          \"policies\":[\"P.all\",\"R.valid\",\"R.WB(32,32)\"],\
                          \"retentions_us\":[50,100]}";

/// The bytes `refrint-cli sweep --format json` prints for [`SWEEP_BODY`]'s
/// configuration, computed with no server involved.
fn local_sweep_bytes() -> Vec<u8> {
    let mut cfg = ExperimentConfig::quick()
        .with_apps(vec![AppPreset::Lu, AppPreset::Fft])
        .with_refs_per_thread(400);
    cfg.cores = 2;
    cfg.policies = ["P.all", "R.valid", "R.WB(32,32)"]
        .iter()
        .map(|l| l.parse::<RefreshPolicy>().expect("valid label"))
        .collect();
    cfg.retentions_us = vec![50, 100];
    let results = SweepRunner::new(cfg)
        .sequential()
        .run()
        .expect("valid sweep");
    format!("{}\n", refrint::json::sweep(&results)).into_bytes()
}

#[test]
fn coordinator_sweeps_are_byte_identical_at_any_backend_count() {
    let expected = local_sweep_bytes();
    let backends: Vec<RunningServer> = (0..4).map(|_| start_backend()).collect();
    let views: Vec<&RunningServer> = backends.iter().collect();
    for count in [1usize, 2, 4] {
        let coordinator = start_coordinator(&views[..count], None);
        let response = client::post(coordinator.addr(), "/sweep", SWEEP_BODY.as_bytes())
            .expect("sweep request reaches the coordinator");
        assert_eq!(response.status, 200, "{}", response.body_str());
        assert_eq!(
            response.body, expected,
            "{count}-backend sweep must be byte-identical to a local SweepRunner"
        );
        coordinator.shutdown();
    }
    for backend in backends {
        backend.shutdown();
    }
}

/// A sweep carrying the coherence-protocol and retention-profile axes
/// fans out, forwards the axis fields to the backends, and merges to the
/// exact bytes of a local axis sweep — the composed report keys
/// (`lu dragon`, `R.WB(32,32) dragon bimodal(25,60)`) survive the trip.
#[test]
fn coordinator_axis_sweeps_match_the_local_runner() {
    const AXIS_BODY: &str = "{\"apps\":[\"lu\"],\"refs\":400,\"cores\":2,\
                             \"policies\":[\"R.WB(32,32)\"],\"retentions_us\":[50],\
                             \"protocols\":[\"mesi\",\"dragon\"],\
                             \"retention_profiles\":[\"uniform\",\"bimodal(25,60)\"]}";
    let mut cfg = ExperimentConfig::quick()
        .with_apps(vec![AppPreset::Lu])
        .with_refs_per_thread(400)
        .with_protocols(vec![CoherenceProtocol::Mesi, CoherenceProtocol::Dragon])
        .with_retention_profiles(vec![
            RetentionProfile::Uniform,
            RetentionProfile::Bimodal {
                weak_pct: 25,
                weak_retention_pct: 60,
            },
        ]);
    cfg.cores = 2;
    cfg.policies = vec!["R.WB(32,32)".parse::<RefreshPolicy>().expect("valid label")];
    cfg.retentions_us = vec![50];
    let results = SweepRunner::new(cfg)
        .sequential()
        .run()
        .expect("valid axis sweep");
    let expected = format!("{}\n", refrint::json::sweep(&results)).into_bytes();

    let backends: Vec<RunningServer> = (0..2).map(|_| start_backend()).collect();
    let views: Vec<&RunningServer> = backends.iter().collect();
    let coordinator = start_coordinator(&views, None);
    let response = client::post(coordinator.addr(), "/sweep", AXIS_BODY.as_bytes())
        .expect("axis sweep reaches the coordinator");
    assert_eq!(response.status, 200, "{}", response.body_str());
    assert_eq!(
        response.body, expected,
        "axis sweep must be byte-identical to a local SweepRunner"
    );
    let body = String::from_utf8_lossy(&response.body).into_owned();
    assert!(body.contains("R.WB(32,32) dragon bimodal(25,60)"), "{body}");
    coordinator.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// A sweep whose reports would collide — a repeated policy label or a
/// repeated workload — is refused at validation with the same 422, byte
/// for byte, by a plain server and by a coordinator: both build the same
/// sweep plan before anything runs.
#[test]
fn colliding_sweeps_get_the_same_answer_locally_and_through_a_coordinator() {
    let backend = start_backend();
    let coordinator = start_coordinator(&[&backend], None);
    for body in [
        "{\"apps\":[\"lu\"],\"policies\":[\"R.valid\",\"R.valid\"],\"refs\":400,\"cores\":2}",
        "{\"apps\":[\"lu\",\"lu\"],\"refs\":400,\"cores\":2}",
    ] {
        let local = client::post(backend.addr(), "/sweep", body.as_bytes())
            .expect("sweep reaches the plain server");
        let fleet = client::post(coordinator.addr(), "/sweep", body.as_bytes())
            .expect("sweep reaches the coordinator");
        assert_eq!(local.status, 422, "{body}: {}", local.body_str());
        assert_eq!(fleet.status, local.status, "{body}");
        assert_eq!(fleet.body, local.body, "{body}");
        assert!(
            local.body_str().contains("\"invalid_config\""),
            "{}",
            local.body_str()
        );
        assert!(
            local.body_str().contains("duplicate"),
            "{}",
            local.body_str()
        );
    }
    coordinator.shutdown();
    backend.shutdown();
}

#[test]
fn backend_killed_mid_sweep_is_reassigned_without_changing_the_bytes() {
    let expected = local_sweep_bytes();
    let survivors: Vec<RunningServer> = (0..2).map(|_| start_backend()).collect();
    let victim = start_backend();
    let views: Vec<&RunningServer> = survivors.iter().chain(std::iter::once(&victim)).collect();
    let coordinator = start_coordinator(&views, None);
    let addr = coordinator.addr();

    // Issue the sweep from a thread and kill one backend shortly after the
    // dispatch fan-out starts; its in-flight and remaining points must be
    // retried on the survivors.
    let request = std::thread::spawn(move || client::post(addr, "/sweep", SWEEP_BODY.as_bytes()));
    std::thread::sleep(Duration::from_millis(100));
    victim.shutdown();
    let response = request
        .join()
        .expect("request thread")
        .expect("sweep request completes despite the killed backend");

    assert_eq!(response.status, 200, "{}", response.body_str());
    assert_eq!(
        response.body, expected,
        "losing a backend mid-sweep must not change the merged bytes"
    );
    coordinator.shutdown();
    for backend in survivors {
        backend.shutdown();
    }
}

#[test]
fn disk_cache_survives_a_coordinator_restart() {
    let cache_dir =
        std::env::temp_dir().join(format!("refrint-coordinator-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let expected = local_sweep_bytes();

    // First life: one backend, a cold cache.
    let backend = start_backend();
    let coordinator = start_coordinator(&[&backend], Some(cache_dir.clone()));
    let first =
        client::post(coordinator.addr(), "/sweep", SWEEP_BODY.as_bytes()).expect("sweep request");
    assert_eq!(first.status, 200, "{}", first.body_str());
    assert_eq!(first.body, expected);
    assert_eq!(first.header("X-Refrint-Cache"), Some("miss"));
    coordinator.shutdown();
    backend.shutdown();

    // Second life: same cache directory, ZERO backends. The sweep must be
    // answered from disk — there is nothing to dispatch to.
    let revived = start_coordinator(&[], Some(cache_dir.clone()));
    let second = client::post(revived.addr(), "/sweep", SWEEP_BODY.as_bytes())
        .expect("sweep request after restart");
    assert_eq!(second.status, 200, "{}", second.body_str());
    assert_eq!(second.header("X-Refrint-Cache"), Some("hit"));
    assert_eq!(
        second.body, expected,
        "the disk cache must replay the exact pre-restart bytes"
    );

    // Individual points of the sweep are cached under the same canonical
    // keys `POST /run` uses, so they replay too.
    let run = client::post(
        revived.addr(),
        "/run",
        b"{\"app\":\"lu\",\"sram\":true,\"refs\":400,\"seed\":48879,\"cores\":2}",
    )
    .expect("run request after restart");
    assert_eq!(run.status, 200, "{}", run.body_str());
    assert_eq!(run.header("X-Refrint-Cache"), Some("hit"));

    revived.shutdown();
    std::fs::remove_dir_all(&cache_dir).ok();
}

/// A fixed inbound trace context so span ids — which derive
/// deterministically from the trace id — are comparable across runs.
const TRACEPARENT: &str = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";

/// Fetches a finished job's `/jobs/<id>/trace`. The server waits for the
/// trace to be attached, so the first answer is the document.
fn fetch_trace(addr: std::net::SocketAddr, id: &str) -> Value {
    let response = client::get(addr, &format!("/jobs/{id}/trace")).expect("trace request");
    assert_eq!(response.status, 200, "{}", response.body_str());
    parse(response.body_str().trim_end()).expect("trace document parses")
}

/// Collapses a fleet trace document to its deterministic skeleton: the
/// sorted `(spanId, parentSpanId, name)` tuples across **all** resource
/// groups. `backend/<addr>` dispatch spans are excluded — they carry the
/// backends' ephemeral ports, the one part of the tree that legitimately
/// varies between fleets.
fn canonical_spans(doc: &Value) -> Vec<(String, String, String)> {
    let groups = doc
        .get("resourceSpans")
        .and_then(Value::as_arr)
        .expect("trace document has resourceSpans");
    let mut tuples = Vec::new();
    for group in groups {
        let Some(spans) = group
            .get("scopeSpans")
            .and_then(Value::as_arr)
            .and_then(|ss| ss.first())
            .and_then(|s| s.get("spans"))
            .and_then(Value::as_arr)
        else {
            continue;
        };
        for span in spans {
            let field = |key: &str| {
                span.get(key)
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned()
            };
            let name = field("name");
            if name.starts_with("backend/") {
                continue;
            }
            tuples.push((field("spanId"), field("parentSpanId"), name));
        }
    }
    tuples.sort();
    tuples
}

#[test]
fn stitched_fleet_trace_is_deterministic_across_backend_counts() {
    // Fresh backends for every fleet size: reusing them would turn later
    // sweeps into backend cache hits, which legitimately produce different
    // (simulation-free) subtrees.
    let mut skeletons: Vec<Vec<(String, String, String)>> = Vec::new();
    for count in [1usize, 2, 4] {
        let backends: Vec<RunningServer> = (0..count).map(|_| start_backend()).collect();
        let views: Vec<&RunningServer> = backends.iter().collect();
        let coordinator = start_coordinator(&views, None);
        let addr = coordinator.addr();

        let response = client::request_with_headers(
            addr,
            "POST",
            "/sweep",
            Some(SWEEP_BODY.as_bytes()),
            &[("traceparent", TRACEPARENT)],
        )
        .expect("sweep request");
        assert_eq!(response.status, 200, "{}", response.body_str());
        let id = response
            .header("X-Refrint-Job")
            .expect("sweep response names its job")
            .to_owned();

        let doc = fetch_trace(addr, &id);
        let skeleton = canonical_spans(&doc);
        // Every point must be stitched: 14 anchors plus their backend
        // subtrees, far more spans than the coordinator's own stages.
        let anchors = skeleton
            .iter()
            .filter(|(_, _, name)| name.starts_with("point/"))
            .count();
        assert_eq!(anchors, 14, "one anchor span per sweep point");
        assert!(
            skeleton.len() > 14 * 2,
            "backend subtrees must be stitched under the anchors, got {} spans",
            skeleton.len()
        );
        skeletons.push(skeleton);

        coordinator.shutdown();
        for backend in backends {
            backend.shutdown();
        }
    }
    assert_eq!(
        skeletons[0], skeletons[1],
        "1-backend and 2-backend fleet traces must have identical skeletons"
    );
    assert_eq!(
        skeletons[1], skeletons[2],
        "2-backend and 4-backend fleet traces must have identical skeletons"
    );
}

/// An async sweep fans out on a coordinator worker and its polled result
/// is the local runner's bytes.
#[test]
fn async_sweep_through_a_coordinator_matches_the_local_bytes() {
    let backend = start_backend();
    let coordinator = start_coordinator(&[&backend], None);
    let addr = coordinator.addr();

    let async_body = SWEEP_BODY.replacen('{', "{\"mode\":\"async\",", 1);
    let accepted =
        client::post(addr, "/sweep", async_body.as_bytes()).expect("async sweep request");
    assert_eq!(accepted.status, 202, "{}", accepted.body_str());
    let id = accepted
        .header("X-Refrint-Job")
        .expect("async response names its job")
        .to_owned();

    let mut result = None;
    for _ in 0..1200 {
        let r = client::get(addr, &format!("/jobs/{id}/result")).expect("result request");
        if r.status != 202 {
            result = Some(r);
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let result = result.expect("the async sweep finishes");
    assert_eq!(result.status, 200, "{}", result.body_str());
    assert!(result.body_str().contains("\"anomalies\""));
    assert_eq!(
        result.body,
        local_sweep_bytes(),
        "an async coordinator sweep must be byte-identical to a local SweepRunner"
    );

    coordinator.shutdown();
    backend.shutdown();
}

#[test]
fn backends_register_dynamically_over_http() {
    let coordinator = start_coordinator(&[], None);
    let addr = coordinator.addr();
    let run_body = b"{\"app\":\"lu\",\"refs\":400,\"cores\":2}";

    // No backends yet: dispatch fails with a typed 502.
    let refused = client::post(addr, "/run", run_body).expect("request reaches the coordinator");
    assert_eq!(refused.status, 502, "{}", refused.body_str());
    assert!(refused.body_str().contains("no_backends"));

    // Register a live backend, then the same request succeeds.
    let backend = start_backend();
    let registration = client::post(
        addr,
        "/backends",
        format!("{{\"addr\":\"{}\"}}", backend.addr()).as_bytes(),
    )
    .expect("registration request");
    assert_eq!(registration.status, 200, "{}", registration.body_str());
    let listing = client::get(addr, "/backends").expect("backend listing");
    assert!(listing.body_str().contains(&backend.addr().to_string()));

    let accepted = client::post(addr, "/run", run_body).expect("run request");
    assert_eq!(accepted.status, 200, "{}", accepted.body_str());

    // Unresolvable and unreachable registrations are typed errors.
    let bad = client::post(addr, "/backends", b"{\"addr\":\"no-such-host-3f9a:bad\"}")
        .expect("bad registration request");
    assert_eq!(bad.status, 422, "{}", bad.body_str());

    // A plain backend is not a coordinator: /backends is 404 there.
    let not_coordinator =
        client::get(backend.addr(), "/backends").expect("backend /backends request");
    assert_eq!(not_coordinator.status, 404);

    coordinator.shutdown();
    backend.shutdown();
}
