//! `serve-client` — a command-line client for `refrint-serve`, used by the
//! CI smoke job and for manual poking without `curl`.
//!
//! Commands (all need `--addr HOST:PORT`; `serve-client` alone prints the
//! usage, rendered from [`refrint_cli::args::SERVE_CLIENT`]):
//!
//! * `health` — `GET /healthz`, exit 0 on 200.
//! * `metrics` — `GET /metrics`, print the exposition text.
//! * `run --app <name>|--trace <name> [RUN OVERRIDES]` — `POST /run`,
//!   print the result body (byte-identical to `refrint-cli run --format
//!   json` with the same overrides).
//! * `sweep [--apps a,b] [--refs N] [--cores N]` — `POST /sweep`.
//! * `job --id ID [--result]` — `GET /jobs/<id>[/result]`.
//! * `trace <job-id>` — `GET /jobs/<id>/trace`, pretty-print the span
//!   tree with per-stage durations and the critical path marked. Fleet
//!   traces from a coordinator are stitched across every resource group,
//!   so backend subtrees appear under their dispatch anchors.
//! * `obs-verify [--refs N] [--cores N]` — replay a known workload (two
//!   distinct runs plus one repeat) and cross-check the `/metrics` deltas
//!   against ground truth computed from the responses; exits non-zero on
//!   any counter drift.
//! * `shutdown` — `POST /shutdown`.
//!
//! Exit status is non-zero on an argument the usage does not list, on any
//! non-2xx response, and on an `--expect-cache` mismatch (the smoke job
//! uses this to prove the second identical request was served from the
//! cache).

use std::net::SocketAddr;
use std::process::ExitCode;

use refrint_cli::args::{Parsed, SERVE_CLIENT};
use refrint_cli::{client_run_body, parse_apps};
use refrint_engine::json::{parse, Value};
use refrint_serve::client::{self, HttpResponse};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve-client: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = SERVE_CLIENT
        .split(args)
        .map_err(|e| format!("{e}\n\n{}", SERVE_CLIENT.usage()))?;
    let p = SERVE_CLIENT.parse(command.name, &rest)?;
    let addr: SocketAddr = p
        .value("--addr")
        .ok_or("--addr HOST:PORT is required")?
        .parse()
        .map_err(|e| format!("bad --addr: {e}"))?;

    let (response, expect_cache) = match command.name {
        "trace" => return trace_command(&p, addr),
        "obs-verify" => return obs_verify_command(&p, addr),
        "health" => (client::get(addr, "/healthz"), None),
        "metrics" => (client::get(addr, "/metrics"), None),
        "shutdown" => (client::post(addr, "/shutdown", b""), None),
        "run" => {
            let body = client_run_body(&p)?;
            (
                post_traced(&p, addr, "/run", &body),
                p.value("--expect-cache"),
            )
        }
        "sweep" => {
            let body = sweep_body(&p)?;
            (
                post_traced(&p, addr, "/sweep", &body),
                p.value("--expect-cache"),
            )
        }
        "job" => {
            let id = p.value("--id").ok_or("job requires --id ID")?;
            let path = if p.flag("--result") {
                format!("/jobs/{id}/result")
            } else {
                format!("/jobs/{id}")
            };
            (client::get(addr, &path), None)
        }
        other => unreachable!("`{other}` is in the serve-client table but has no handler"),
    };
    let response = response.map_err(|e| format!("request failed: {e}"))?;
    print!("{}", response.body_str());
    if let Some(expected) = expect_cache {
        let got = response.header("X-Refrint-Cache").unwrap_or("(absent)");
        if got != expected {
            return Err(format!(
                "expected X-Refrint-Cache: {expected}, server sent {got}"
            ));
        }
    }
    if response.status / 100 == 2 {
        Ok(())
    } else {
        Err(format!(
            "{} failed with HTTP {}",
            command.name, response.status
        ))
    }
}

/// `POST`s a body, forwarding a `--traceparent` header when given.
fn post_traced(
    p: &Parsed,
    addr: SocketAddr,
    path: &str,
    body: &str,
) -> std::io::Result<HttpResponse> {
    match p.value("--traceparent") {
        Some(tp) => client::request_with_headers(
            addr,
            "POST",
            path,
            Some(body.as_bytes()),
            &[("traceparent", tp)],
        ),
        None => client::post(addr, path, body.as_bytes()),
    }
}

/// `trace <job-id>`: fetches `/jobs/<id>/trace` and pretty-prints the
/// span tree. A job still queued or running has no trace yet (HTTP 202).
fn trace_command(p: &Parsed, addr: SocketAddr) -> Result<(), String> {
    let id = p
        .operands()
        .first()
        .ok_or("trace requires a job id: trace <job-id>")?;
    let response = client::get(addr, &format!("/jobs/{id}/trace"))
        .map_err(|e| format!("request failed: {e}"))?;
    if response.status != 200 {
        print!("{}", response.body_str());
        return Err(format!("trace failed with HTTP {}", response.status));
    }
    print_trace(&response.body_str())
}

/// Returns the string or int value of the attribute named `key`.
fn attr<'a>(attrs: &'a [Value], key: &str) -> Option<&'a str> {
    attrs.iter().find_map(|a| {
        if a.get("key").and_then(Value::as_str) == Some(key) {
            let value = a.get("value")?;
            value
                .get("stringValue")
                .or_else(|| value.get("intValue"))
                .and_then(Value::as_str)
        } else {
            None
        }
    })
}

fn span_field<'a>(span: &'a Value, key: &str) -> &'a str {
    span.get(key).and_then(Value::as_str).unwrap_or("")
}

fn span_nanos(span: &Value, key: &str) -> u64 {
    span_field(span, key).parse().unwrap_or(0)
}

/// Pretty-prints one OTLP request-trace document as an indented span tree
/// with durations, marking the critical stage and subsystem. Fleet traces
/// hold one resource group per node: spans from every group are merged
/// into a single tree (backend subtrees arrive parented on the
/// coordinator's per-point anchors), while the summary attributes come
/// from the first (coordinator) group.
fn print_trace(text: &str) -> Result<(), String> {
    let doc = parse(text.trim_end()).map_err(|e| format!("bad trace document: {e}"))?;
    let groups = doc
        .get("resourceSpans")
        .and_then(Value::as_arr)
        .ok_or("trace document has no resourceSpans")?;
    let empty = Vec::new();
    let resource_attrs = groups
        .first()
        .and_then(|g| g.get("resource"))
        .and_then(|r| r.get("attributes"))
        .and_then(Value::as_arr)
        .unwrap_or(&empty);
    let mut spans: Vec<&Value> = Vec::new();
    for group in groups {
        if let Some(group_spans) = group
            .get("scopeSpans")
            .and_then(Value::as_arr)
            .and_then(|ss| ss.first())
            .and_then(|s| s.get("spans"))
            .and_then(Value::as_arr)
        {
            spans.extend(group_spans.iter());
        }
    }
    if spans.is_empty() {
        return Err("trace document has no spans".to_owned());
    }

    let critical_stage = attr(resource_attrs, "refrint.request_critical_stage").unwrap_or("-");
    let critical_subsystem = attr(resource_attrs, "refrint.run_critical_subsystem");
    if let Some(first) = spans.first() {
        println!("trace {}", span_field(first, "traceId"));
    }
    for (key, label) in [
        ("refrint.job", "job"),
        ("refrint.job_kind", "kind"),
        ("refrint.job_cached", "cached"),
        ("refrint.request_total_nanos", "total_nanos"),
        ("refrint.points_total", "points"),
        ("refrint.points_stitched", "points stitched"),
        ("refrint.fleet_straggler", "fleet straggler"),
    ] {
        if let Some(v) = attr(resource_attrs, key) {
            println!("{label}: {v}");
        }
    }

    // Index spans by id and group children under their parent.
    let known: Vec<&str> = spans.iter().map(|s| span_field(s, "spanId")).collect();
    let roots: Vec<&Value> = spans
        .iter()
        .filter(|s| !known.contains(&span_field(s, "parentSpanId")))
        .copied()
        .collect();
    for root in roots {
        print_span(root, &spans, 0, critical_stage, critical_subsystem);
    }
    if let Some(subsystem) = critical_subsystem {
        println!("run critical subsystem: {subsystem}");
    }
    if let Some(step) = attr(resource_attrs, "refrint.fleet_critical_step") {
        println!("fleet critical step: {step}");
    }
    println!("request critical stage: {critical_stage}");
    Ok(())
}

fn print_span(
    span: &Value,
    all: &[&Value],
    depth: usize,
    critical_stage: &str,
    critical_subsystem: Option<&str>,
) {
    let name = span_field(span, "name");
    let dur =
        span_nanos(span, "endTimeUnixNano").saturating_sub(span_nanos(span, "startTimeUnixNano"));
    let empty = Vec::new();
    let attrs = span
        .get("attributes")
        .and_then(Value::as_arr)
        .unwrap_or(&empty);
    // Simulator spans carry cycle timestamps, not host nanoseconds.
    let duration = if attr(attrs, "refrint.sim_cycles").is_some() {
        format!("{dur} cycles")
    } else {
        format!("{:.3} ms", dur as f64 / 1e6)
    };
    let critical = name.strip_prefix("stage/") == Some(critical_stage)
        || attr(attrs, "refrint.subsystem").is_some_and(|s| Some(s) == critical_subsystem);
    let marker = if critical { "  <== critical" } else { "" };
    let node = attr(attrs, "refrint.node")
        .map(|n| format!("  @{n}"))
        .unwrap_or_default();
    println!("{}{name}  [{duration}]{node}{marker}", "  ".repeat(depth));
    let id = span_field(span, "spanId");
    for &child in all {
        if span_field(child, "parentSpanId") == id {
            print_span(child, all, depth + 1, critical_stage, critical_subsystem);
        }
    }
}

/// Scrapes `GET /metrics` into a map from metric name to the sum of its
/// sample values (labelled series collapse onto their base name, which is
/// exactly what the subsystem-cycle consistency check wants).
fn scrape_counters(addr: SocketAddr) -> Result<std::collections::HashMap<String, f64>, String> {
    let response = client::get(addr, "/metrics").map_err(|e| format!("metrics: {e}"))?;
    if response.status != 200 {
        return Err(format!("metrics returned HTTP {}", response.status));
    }
    let mut map = std::collections::HashMap::new();
    for line in response.body_str().lines() {
        if line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        let base = name.split('{').next().unwrap_or(name);
        if let Ok(v) = value.parse::<f64>() {
            *map.entry(base.to_owned()).or_insert(0.0) += v;
        }
    }
    Ok(map)
}

/// `obs-verify`: replays a known workload — two distinct runs and one
/// repeat of the first — against a live node or fleet, then cross-checks
/// the `/metrics` deltas against ground truth computed from the responses
/// themselves. Every run uses fresh seeds so warm caches from earlier
/// traffic cannot skew the counts. Fails loudly on any drift.
fn obs_verify_command(p: &Parsed, addr: SocketAddr) -> Result<(), String> {
    let refs = p.number::<u64>("--refs")?.unwrap_or(400);
    let cores = p.number::<u64>("--cores")?.unwrap_or(2);
    // Seeds unique to this invocation, so the first two runs are always
    // cache misses even against a long-lived server. Kept well below 2^53:
    // JSON numbers travel as f64, where bigger integers collapse onto
    // their neighbours.
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        ^ u64::from(std::process::id());
    let seed_a = nonce % 1_000_000_000_000 + 1_000;
    let seed_b = seed_a + 1;

    // Probe the topology before the first snapshot so the probe itself
    // stays out of the delta window.
    let coordinator = client::get(addr, "/backends")
        .map_err(|e| format!("probe: {e}"))?
        .status
        == 200;
    let mode = if coordinator {
        "coordinator"
    } else {
        "single node"
    };
    println!("obs-verify: target {addr} ({mode}), refs {refs}, cores {cores}");

    let before = scrape_counters(addr)?;
    let run = |seed: u64| -> Result<HttpResponse, String> {
        let body = format!("{{\"app\":\"lu\",\"refs\":{refs},\"cores\":{cores},\"seed\":{seed}}}");
        client::post(addr, "/run", body.as_bytes()).map_err(|e| format!("run: {e}"))
    };
    let first = run(seed_a)?;
    let second = run(seed_b)?;
    let repeat = run(seed_a)?;
    let after = scrape_counters(addr)?;

    let mut failures: Vec<&str> = Vec::new();
    let mut check = |name: &'static str, ok: bool, detail: String| {
        if ok {
            println!("ok:   {name} ({detail})");
        } else {
            println!("FAIL: {name} ({detail})");
            failures.push(name);
        }
    };
    let delta = |name: &str| -> f64 {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let refs_of = |r: &HttpResponse| -> u64 {
        parse(r.body_str().trim_end())
            .ok()
            .and_then(|doc| doc.get("counts")?.get("dl1_accesses")?.as_u64())
            .unwrap_or(0)
    };

    check(
        "runs succeed",
        first.status == 200 && second.status == 200 && repeat.status == 200,
        format!(
            "HTTP {} / {} / {}",
            first.status, second.status, repeat.status
        ),
    );
    check(
        "cache headers",
        first.header("X-Refrint-Cache") == Some("miss")
            && second.header("X-Refrint-Cache") == Some("miss")
            && repeat.header("X-Refrint-Cache") == Some("hit"),
        format!(
            "miss/miss/hit expected, got {}/{}/{}",
            first.header("X-Refrint-Cache").unwrap_or("-"),
            second.header("X-Refrint-Cache").unwrap_or("-"),
            repeat.header("X-Refrint-Cache").unwrap_or("-"),
        ),
    );
    check(
        "cache hit is byte-identical",
        repeat.body == first.body,
        format!("{} vs {} bytes", repeat.body.len(), first.body.len()),
    );
    // Between the two snapshots this client sent exactly three /run
    // requests plus the closing /metrics scrape, which counts itself.
    check(
        "http requests counted once each",
        delta("refrint_http_requests_total") == 4.0,
        format!("delta {}", delta("refrint_http_requests_total")),
    );
    check(
        "no http errors",
        delta("refrint_http_errors_total") == 0.0,
        format!("delta {}", delta("refrint_http_errors_total")),
    );
    check(
        "jobs counted once",
        delta("refrint_jobs_submitted_total") == 2.0
            && delta("refrint_jobs_completed_total") == 2.0
            && delta("refrint_jobs_failed_total") == 0.0,
        format!(
            "submitted {} completed {} failed {}",
            delta("refrint_jobs_submitted_total"),
            delta("refrint_jobs_completed_total"),
            delta("refrint_jobs_failed_total"),
        ),
    );
    check(
        "cache hits + misses = run requests",
        delta("refrint_cache_hits_total") == 1.0 && delta("refrint_cache_misses_total") == 2.0,
        format!(
            "hits {} misses {}",
            delta("refrint_cache_hits_total"),
            delta("refrint_cache_misses_total"),
        ),
    );
    let refs_truth = refs_of(&first) + refs_of(&second);
    check(
        "refs_simulated matches response ground truth",
        delta("refrint_refs_simulated_total") == refs_truth as f64,
        format!(
            "delta {} vs {} from response bodies",
            delta("refrint_refs_simulated_total"),
            refs_truth,
        ),
    );
    let cycles = delta("refrint_subsystem_cycles_total");
    if coordinator {
        // A coordinator never simulates locally; the cycles land on its
        // backends.
        check(
            "coordinator attributes no local subsystem cycles",
            cycles == 0.0,
            format!("delta {cycles}"),
        );
    } else {
        check(
            "subsystem cycles attributed to the simulation",
            cycles > 0.0,
            format!("delta {cycles}"),
        );
    }

    if failures.is_empty() {
        println!("obs-verify: all checks passed against {mode}");
        Ok(())
    } else {
        Err(format!(
            "obs-verify: {} check(s) drifted: {}",
            failures.len(),
            failures.join(", ")
        ))
    }
}

/// The `POST /sweep` body for the flags.
fn sweep_body(p: &Parsed) -> Result<String, String> {
    let mut fields = Vec::new();
    if let Some(apps) = p.parse("--apps", parse_apps)? {
        let names: Vec<String> = apps.iter().map(|a| format!("\"{}\"", a.name())).collect();
        fields.push(format!("\"apps\":[{}]", names.join(",")));
    }
    if let Some(refs) = p.number::<u64>("--refs")? {
        fields.push(format!("\"refs\":{refs}"));
    }
    if let Some(cores) = p.number::<u64>("--cores")? {
        fields.push(format!("\"cores\":{cores}"));
    }
    if let Some(mode) = p.value("--mode") {
        fields.push(format!("\"mode\":\"{mode}\""));
    }
    Ok(format!("{{{}}}", fields.join(",")))
}
