//! OTLP-shaped JSON export.
//!
//! Renders an [`ObsSummary`] as a document shaped like an OpenTelemetry
//! OTLP/JSON trace export (`resourceSpans` → `scopeSpans` → `spans`), so
//! standard trace tooling can ingest simulator runs. Timestamps are the
//! *simulated* cycle numbers used as nanoseconds — the document is a pure
//! function of the run, so it is byte-deterministic like every other
//! Refrint JSON artifact. Host wall-time lives in the resource attributes
//! (`refrint.host_nanos.<subsystem>`), not in span timestamps.

use refrint_engine::fnv1a;
use refrint_engine::json::{emit, Value};

use crate::critical_path::{
    fleet_critical_path, fleet_straggler, request_critical_path, subsystem_critical_path,
    FleetPoint,
};
use crate::recorder::ObsSummary;
use crate::span::{DispatchSpan, RequestTrace, Span};

fn attr_str(key: &str, value: &str) -> Value {
    Value::Obj(vec![
        ("key".to_owned(), Value::Str(key.to_owned())),
        (
            "value".to_owned(),
            Value::Obj(vec![(
                "stringValue".to_owned(),
                Value::Str(value.to_owned()),
            )]),
        ),
    ])
}

fn attr_int(key: &str, value: u64) -> Value {
    Value::Obj(vec![
        ("key".to_owned(), Value::Str(key.to_owned())),
        (
            "value".to_owned(),
            // OTLP/JSON carries 64-bit ints as strings.
            Value::Obj(vec![("intValue".to_owned(), Value::Str(value.to_string()))]),
        ),
    ])
}

/// A deterministic 16-hex span id derived from the trace id and a slot.
fn span_id(trace_id: &str, slot: u64) -> String {
    format!("{:016x}", fnv1a(slot, trace_id.as_bytes()))
}

fn span_value(span: &Span, trace_id: &str, index: usize, parent: Option<&str>) -> Value {
    let mut fields = vec![
        ("traceId".to_owned(), Value::Str(trace_id.to_owned())),
        (
            "spanId".to_owned(),
            Value::Str(span_id(trace_id, index as u64)),
        ),
    ];
    if let Some(parent) = parent {
        fields.push(("parentSpanId".to_owned(), Value::Str(parent.to_owned())));
    }
    fields.extend([
        (
            "name".to_owned(),
            Value::Str(format!("{}/{}", span.subsystem.name(), span.kind)),
        ),
        ("kind".to_owned(), Value::Num(1.0)), // SPAN_KIND_INTERNAL
        (
            "startTimeUnixNano".to_owned(),
            Value::Str(span.t_start.to_string()),
        ),
        (
            "endTimeUnixNano".to_owned(),
            Value::Str((span.t_start + span.dur).to_string()),
        ),
        (
            "attributes".to_owned(),
            Value::Arr(vec![
                attr_str("refrint.subsystem", span.subsystem.name()),
                attr_int("refrint.sim_cycles", span.dur),
                attr_int("refrint.meta", span.meta),
            ]),
        ),
    ]);
    Value::Obj(fields)
}

/// Builds the OTLP-shaped document for one run.
///
/// `config_label` and `workload` identify the run (they seed the
/// deterministic trace id and become resource attributes).
#[must_use]
pub fn document(summary: &ObsSummary, config_label: &str, workload: &str) -> Value {
    let seed = fnv1a(0, config_label.as_bytes());
    let trace_id = format!("{:016x}{:016x}", seed, fnv1a(seed, workload.as_bytes()));

    let mut resource_attrs = vec![
        attr_str("service.name", "refrint"),
        attr_str("refrint.config", config_label),
        attr_str("refrint.workload", workload),
        attr_int("refrint.sample_every", u64::from(summary.sample_every)),
        attr_int("refrint.spans_total", summary.total_spans()),
        attr_int("refrint.spans_overwritten", summary.overwritten),
    ];
    for t in &summary.per_subsystem {
        resource_attrs.push(attr_int(
            &format!("refrint.sim_cycles.{}", t.subsystem.name()),
            t.cycles,
        ));
        resource_attrs.push(attr_int(
            &format!("refrint.host_nanos.{}", t.subsystem.name()),
            t.host_nanos,
        ));
    }

    let spans: Vec<Value> = summary
        .sampled
        .iter()
        .enumerate()
        .map(|(i, s)| span_value(s, &trace_id, i, None))
        .collect();

    wrap_resource_spans(resource_attrs, spans)
}

/// Wraps resource attributes and a span list in the OTLP envelope
/// (`resourceSpans` → `scopeSpans` → `spans`).
fn wrap_resource_spans(resource_attrs: Vec<Value>, spans: Vec<Value>) -> Value {
    Value::Obj(vec![(
        "resourceSpans".to_owned(),
        Value::Arr(vec![resource_group(resource_attrs, spans)]),
    )])
}

/// One `resourceSpans` group: a resource attribute list plus its spans
/// under the shared `refrint-obs` scope.
fn resource_group(resource_attrs: Vec<Value>, spans: Vec<Value>) -> Value {
    Value::Obj(vec![
        (
            "resource".to_owned(),
            Value::Obj(vec![("attributes".to_owned(), Value::Arr(resource_attrs))]),
        ),
        (
            "scopeSpans".to_owned(),
            Value::Arr(vec![Value::Obj(vec![
                (
                    "scope".to_owned(),
                    Value::Obj(vec![
                        ("name".to_owned(), Value::Str("refrint-obs".to_owned())),
                        ("version".to_owned(), Value::Str("1".to_owned())),
                    ]),
                ),
                ("spans".to_owned(), Value::Arr(spans)),
            ])]),
        ),
    ])
}

/// Renders the OTLP document as a compact JSON string.
#[must_use]
pub fn render(summary: &ObsSummary, config_label: &str, workload: &str) -> String {
    emit(&document(summary, config_label, workload))
}

/// The slot `span_id` derives a request's root span id from.
pub const ROOT_SPAN_SLOT: u64 = 0x524f_4f54; // "ROOT"
const STAGE_SPAN_SLOT: u64 = 0x1000;
const DISPATCH_SPAN_SLOT: u64 = 0x2000;
const SIM_SPAN_SLOT: u64 = 0x10_0000;
/// The slot block a coordinator's per-point anchor spans are derived
/// from: point `i` of a fanned-out request gets `POINT_SPAN_SLOT + i`.
pub const POINT_SPAN_SLOT: u64 = 0x100_0000;
/// Stitched backend span ids start here; each point owns a
/// [`STITCH_POINT_STRIDE`]-wide block so remapped ids never collide
/// across points even when every backend minted identical ids (they all
/// derive span ids from the same propagated trace id).
const STITCH_SPAN_SLOT: u64 = 0x4000_0000;
const STITCH_POINT_STRIDE: u64 = 0x10_000;

/// The deterministic root span id for a trace id (exposed so servers can
/// propagate `traceparent` onwards and tests can assert linkage).
#[must_use]
pub fn root_span_id(trace_id: &str) -> String {
    span_id(trace_id, ROOT_SPAN_SLOT)
}

/// The deterministic anchor span id for point `index` of a fanned-out
/// request. The coordinator sends this as the `traceparent` parent on the
/// dispatched `POST /run`, so the backend's root span arrives already
/// parented under the coordinator's point anchor.
#[must_use]
pub fn point_span_id(trace_id: &str, index: usize) -> String {
    span_id(trace_id, POINT_SPAN_SLOT + index as u64)
}

/// Builds the OTLP-shaped document for one served request: a `request`
/// root span (parented on the caller's span when the request arrived with
/// a `traceparent` header), one child span per lifecycle stage, and — for
/// requests that actually executed a simulation — the run's sampled
/// subsystem spans attached as children of the `execute` stage.
///
/// `extra` carries request-identity resource attributes (job id, kind,
/// cache disposition); `sim` is `(summary, config_label, workload)` for
/// executed runs. Stage timestamps are host nanoseconds from request
/// start; simulator span timestamps remain simulated cycles, exactly as
/// in [`document`].
///
/// `dispatch` lists the backend attempts of a request a coordinator
/// fanned out: each [`DispatchSpan`] becomes a `backend/<addr>` child of
/// the `execute` stage, so the trace shows where every point ran and
/// where retries went.
#[must_use]
pub fn request_document(
    trace: &RequestTrace,
    extra: &[(String, String)],
    sim: Option<(&ObsSummary, &str, &str)>,
    dispatch: &[DispatchSpan],
) -> Value {
    let trace_id = trace.context.trace_id.as_str();
    let mut resource_attrs = request_resource_attrs(trace, extra);
    let (mut spans, root_id, execute_id) = root_and_stage_spans(trace);

    for (i, d) in dispatch.iter().enumerate() {
        let parent = execute_id.as_deref().unwrap_or(root_id.as_str());
        spans.push(dispatch_span_value(trace_id, i, d, parent));
    }

    if let Some((summary, config_label, workload)) = sim {
        let sim_path = subsystem_critical_path(summary);
        resource_attrs.push(attr_str("refrint.config", config_label));
        resource_attrs.push(attr_str("refrint.workload", workload));
        resource_attrs.push(attr_int(
            "refrint.sample_every",
            u64::from(summary.sample_every),
        ));
        resource_attrs.push(attr_str(
            "refrint.run_critical_subsystem",
            sim_path.bounding_name(),
        ));
        for t in &summary.per_subsystem {
            resource_attrs.push(attr_int(
                &format!("refrint.sim_cycles.{}", t.subsystem.name()),
                t.cycles,
            ));
            resource_attrs.push(attr_int(
                &format!("refrint.host_nanos.{}", t.subsystem.name()),
                t.host_nanos,
            ));
        }
        let parent = execute_id.as_deref().unwrap_or(root_id.as_str());
        for (i, s) in summary.sampled.iter().enumerate() {
            spans.push(span_value(
                s,
                trace_id,
                SIM_SPAN_SLOT as usize + i,
                Some(parent),
            ));
        }
    }

    wrap_resource_spans(resource_attrs, spans)
}

fn request_resource_attrs(trace: &RequestTrace, extra: &[(String, String)]) -> Vec<Value> {
    let request_path = request_critical_path(&trace.stages);
    let mut resource_attrs = vec![
        attr_str("service.name", "refrint-serve"),
        attr_int("refrint.request_total_nanos", trace.total_nanos),
        attr_str(
            "refrint.request_critical_stage",
            request_path.bounding_name(),
        ),
    ];
    for (key, value) in extra {
        resource_attrs.push(attr_str(key, value));
    }
    resource_attrs
}

/// The `request` root span and its `stage/*` children; returns the span
/// list, the root span id and the `execute` stage's span id (if present).
fn root_and_stage_spans(trace: &RequestTrace) -> (Vec<Value>, String, Option<String>) {
    let trace_id = trace.context.trace_id.as_str();
    let root_id = root_span_id(trace_id);

    let mut spans = Vec::with_capacity(trace.stages.len() + 1);
    let mut root = vec![
        ("traceId".to_owned(), Value::Str(trace_id.to_owned())),
        ("spanId".to_owned(), Value::Str(root_id.clone())),
    ];
    if let Some(parent) = &trace.context.parent_span_id {
        root.push(("parentSpanId".to_owned(), Value::Str(parent.clone())));
    }
    root.extend([
        ("name".to_owned(), Value::Str("request".to_owned())),
        ("kind".to_owned(), Value::Num(2.0)), // SPAN_KIND_SERVER
        ("startTimeUnixNano".to_owned(), Value::Str("0".to_owned())),
        (
            "endTimeUnixNano".to_owned(),
            Value::Str(trace.total_nanos.to_string()),
        ),
        ("attributes".to_owned(), Value::Arr(Vec::new())),
    ]);
    spans.push(Value::Obj(root));

    let mut execute_id = None;
    for (i, stage) in trace.stages.iter().enumerate() {
        let id = span_id(trace_id, STAGE_SPAN_SLOT + i as u64);
        if stage.name == "execute" {
            execute_id = Some(id.clone());
        }
        spans.push(Value::Obj(vec![
            ("traceId".to_owned(), Value::Str(trace_id.to_owned())),
            ("spanId".to_owned(), Value::Str(id)),
            ("parentSpanId".to_owned(), Value::Str(root_id.clone())),
            (
                "name".to_owned(),
                Value::Str(format!("stage/{}", stage.name)),
            ),
            ("kind".to_owned(), Value::Num(1.0)),
            (
                "startTimeUnixNano".to_owned(),
                Value::Str(stage.start_nanos.to_string()),
            ),
            (
                "endTimeUnixNano".to_owned(),
                Value::Str((stage.start_nanos + stage.dur_nanos).to_string()),
            ),
            (
                "attributes".to_owned(),
                Value::Arr(vec![
                    attr_str("refrint.stage", stage.name),
                    attr_int("refrint.stage_nanos", stage.dur_nanos),
                ]),
            ),
        ]));
    }
    (spans, root_id, execute_id)
}

fn dispatch_span_value(trace_id: &str, index: usize, d: &DispatchSpan, parent: &str) -> Value {
    Value::Obj(vec![
        ("traceId".to_owned(), Value::Str(trace_id.to_owned())),
        (
            "spanId".to_owned(),
            Value::Str(span_id(trace_id, DISPATCH_SPAN_SLOT + index as u64)),
        ),
        ("parentSpanId".to_owned(), Value::Str(parent.to_owned())),
        (
            "name".to_owned(),
            Value::Str(format!("backend/{}", d.backend)),
        ),
        ("kind".to_owned(), Value::Num(3.0)), // SPAN_KIND_CLIENT
        (
            "startTimeUnixNano".to_owned(),
            Value::Str(d.start_nanos.to_string()),
        ),
        (
            "endTimeUnixNano".to_owned(),
            Value::Str((d.start_nanos + d.dur_nanos).to_string()),
        ),
        (
            "attributes".to_owned(),
            Value::Arr(vec![
                attr_str("refrint.backend", &d.backend),
                attr_int("refrint.attempt", u64::from(d.attempt)),
                attr_str("refrint.outcome", d.outcome),
                attr_int("refrint.dispatch_nanos", d.dur_nanos),
            ]),
        ),
    ])
}

/// One point of a fanned-out request, carrying the backend's own trace
/// document for stitching.
#[derive(Debug, Clone)]
pub struct BackendSubtree {
    /// The point's index in dispatch order (keys the anchor span id).
    pub point_index: usize,
    /// Deterministic point label, e.g. `lu/50us/R.valid`.
    pub label: String,
    /// The node that served the point (`host:port`, or `result-cache`).
    pub node: String,
    /// The backend-side job id, when the dispatch response carried one.
    pub backend_job: Option<String>,
    /// Dispatch start, host nanoseconds from the coordinator request.
    pub start_nanos: u64,
    /// Dispatch round-trip duration in host nanoseconds.
    pub dur_nanos: u64,
    /// The backend's `GET /jobs/<id>/trace` document, parsed; `None` when
    /// the point was served from cache or the trace was unavailable.
    pub document: Option<Value>,
}

/// An attribute's value from an OTLP attribute list (`stringValue` or
/// stringified `intValue`).
fn find_attr<'a>(attrs: &'a [Value], key: &str) -> Option<&'a str> {
    attrs
        .iter()
        .find(|a| a.get("key").and_then(Value::as_str) == Some(key))?
        .get("value")
        .map(|v| {
            v.get("stringValue")
                .or_else(|| v.get("intValue"))
                .and_then(Value::as_str)
        })?
}

/// All spans of an OTLP document, across every resource group.
fn document_spans(doc: &Value) -> Vec<&Value> {
    let mut out = Vec::new();
    let Some(groups) = doc.get("resourceSpans").and_then(Value::as_arr) else {
        return out;
    };
    for group in groups {
        let Some(scopes) = group.get("scopeSpans").and_then(Value::as_arr) else {
            continue;
        };
        for scope in scopes {
            if let Some(spans) = scope.get("spans").and_then(Value::as_arr) {
                out.extend(spans.iter());
            }
        }
    }
    out
}

/// The backend-reported `refrint.request_total_nanos` of a trace
/// document (its first resource group's attribute).
fn document_total_nanos(doc: &Value) -> Option<u64> {
    let groups = doc.get("resourceSpans").and_then(Value::as_arr)?;
    let attrs = groups
        .first()?
        .get("resource")?
        .get("attributes")
        .and_then(Value::as_arr)?;
    find_attr(attrs, "refrint.request_total_nanos")?
        .parse()
        .ok()
}

/// Builds the stitched fleet-wide trace document for a coordinator
/// request.
///
/// The coordinator's own group carries `refrint.node = "coordinator"`,
/// the cross-node critical-path attributes and every dispatch span; each
/// stitched point contributes a deterministic `point/<label>` anchor span
/// under the `execute` stage plus its backend's whole span tree in a
/// per-node resource group. Backend span ids are remapped into a
/// per-point slot block — every backend derives ids from the same
/// propagated trace id, so the raw ids collide across points — keyed only
/// by point index and span position, which keeps the stitched tree
/// byte-deterministic modulo host timings at any backend count.
#[must_use]
pub fn fleet_request_document(
    trace: &RequestTrace,
    extra: &[(String, String)],
    dispatch: &[DispatchSpan],
    points: &[BackendSubtree],
) -> Value {
    let trace_id = trace.context.trace_id.as_str();
    let mut resource_attrs = request_resource_attrs(trace, extra);
    let (mut spans, root_id, execute_id) = root_and_stage_spans(trace);
    let anchor_parent = execute_id.as_deref().unwrap_or(root_id.as_str()).to_owned();

    for (i, d) in dispatch.iter().enumerate() {
        spans.push(dispatch_span_value(trace_id, i, d, &anchor_parent));
    }

    let fleet_points: Vec<FleetPoint> = points
        .iter()
        .map(|p| FleetPoint {
            label: p.label.clone(),
            dispatch_nanos: p.dur_nanos,
            backend_nanos: p
                .document
                .as_ref()
                .and_then(document_total_nanos)
                .unwrap_or(0),
        })
        .collect();
    let fleet_path = fleet_critical_path(&trace.stages, &fleet_points);
    resource_attrs.push(attr_str("refrint.node", "coordinator"));
    resource_attrs.push(attr_str(
        "refrint.fleet_critical_step",
        fleet_path.bounding_name(),
    ));
    resource_attrs.push(attr_str(
        "refrint.fleet_straggler",
        fleet_straggler(&fleet_points).map_or("-", |p| p.label.as_str()),
    ));
    resource_attrs.push(attr_int("refrint.points_total", points.len() as u64));
    resource_attrs.push(attr_int(
        "refrint.points_stitched",
        points.iter().filter(|p| p.document.is_some()).count() as u64,
    ));

    let mut groups = Vec::with_capacity(points.len() + 1);
    for point in points {
        // The anchor: a deterministic per-point span the dispatched
        // traceparent already named as the backend root's parent.
        let anchor_id = point_span_id(trace_id, point.point_index);
        let mut attrs = vec![
            attr_str("refrint.point", &point.label),
            attr_str("refrint.node", &point.node),
            attr_str(
                "refrint.stitched",
                if point.document.is_some() {
                    "true"
                } else {
                    "false"
                },
            ),
        ];
        if let Some(job) = &point.backend_job {
            attrs.push(attr_str("refrint.backend_job", job));
        }
        spans.push(Value::Obj(vec![
            ("traceId".to_owned(), Value::Str(trace_id.to_owned())),
            ("spanId".to_owned(), Value::Str(anchor_id.clone())),
            ("parentSpanId".to_owned(), Value::Str(anchor_parent.clone())),
            (
                "name".to_owned(),
                Value::Str(format!("point/{}", point.label)),
            ),
            ("kind".to_owned(), Value::Num(3.0)), // SPAN_KIND_CLIENT
            (
                "startTimeUnixNano".to_owned(),
                Value::Str(point.start_nanos.to_string()),
            ),
            (
                "endTimeUnixNano".to_owned(),
                Value::Str((point.start_nanos + point.dur_nanos).to_string()),
            ),
            ("attributes".to_owned(), Value::Arr(attrs)),
        ]));

        let Some(doc) = &point.document else {
            continue;
        };
        let backend_spans = document_spans(doc);
        let base = STITCH_SPAN_SLOT + point.point_index as u64 * STITCH_POINT_STRIDE;
        let remap: std::collections::HashMap<&str, String> = backend_spans
            .iter()
            .enumerate()
            .filter_map(|(pos, s)| {
                let old = s.get("spanId").and_then(Value::as_str)?;
                Some((old, span_id(trace_id, base + pos as u64)))
            })
            .collect();
        let stitched: Vec<Value> = backend_spans
            .iter()
            .enumerate()
            .map(|(pos, s)| {
                let mut fields: Vec<(String, Value)> = Vec::new();
                let mut saw_parent = false;
                if let Value::Obj(obj) = s {
                    for (key, value) in obj {
                        match key.as_str() {
                            "traceId" => {
                                fields.push(("traceId".to_owned(), Value::Str(trace_id.to_owned())))
                            }
                            "spanId" => fields.push((
                                "spanId".to_owned(),
                                Value::Str(span_id(trace_id, base + pos as u64)),
                            )),
                            "parentSpanId" => {
                                saw_parent = true;
                                let old = value.as_str().unwrap_or("");
                                let new =
                                    remap.get(old).cloned().unwrap_or_else(|| anchor_id.clone());
                                fields.push(("parentSpanId".to_owned(), Value::Str(new)));
                            }
                            _ => fields.push((key.clone(), value.clone())),
                        }
                    }
                }
                if !saw_parent {
                    // A backend root with no inbound parent still belongs
                    // under this point's anchor.
                    fields.insert(
                        2.min(fields.len()),
                        ("parentSpanId".to_owned(), Value::Str(anchor_id.clone())),
                    );
                }
                Value::Obj(fields)
            })
            .collect();

        // The stitched group keeps the backend's own resource attributes
        // (sim-cycle and host-nanos attribution) and names the node.
        let mut group_attrs = vec![
            attr_str("refrint.node", &point.node),
            attr_str("refrint.point", &point.label),
        ];
        if let Some(attrs) = doc
            .get("resourceSpans")
            .and_then(Value::as_arr)
            .and_then(|g| g.first())
            .and_then(|g| g.get("resource"))
            .and_then(|r| r.get("attributes"))
            .and_then(Value::as_arr)
        {
            group_attrs.extend(attrs.iter().cloned());
        }
        groups.push(resource_group(group_attrs, stitched));
    }

    let mut all = vec![resource_group(resource_attrs, spans)];
    all.extend(groups);
    Value::Obj(vec![("resourceSpans".to_owned(), Value::Arr(all))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{ObsConfig, Recorder};
    use crate::span::Subsystem;

    fn sample_summary() -> ObsSummary {
        let mut r = Recorder::enabled(ObsConfig::full());
        r.record(Subsystem::Cache, "dl1.access", 10, 2, 0);
        r.record(Subsystem::Dram, "dram.fetch", 12, 40, 1);
        r.summary()
    }

    #[test]
    fn document_is_otlp_shaped_and_parseable() {
        let text = render(&sample_summary(), "eDRAM 50us R.WB(32,32)", "lu");
        let doc = refrint_engine::json::parse(&text).expect("emitted JSON parses");
        let spans = doc
            .get("resourceSpans")
            .and_then(|v| v.as_arr())
            .and_then(|rs| rs[0].get("scopeSpans"))
            .and_then(|v| v.as_arr())
            .and_then(|ss| ss[0].get("spans"))
            .and_then(|v| v.as_arr())
            .expect("resourceSpans[0].scopeSpans[0].spans exists");
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].get("name").and_then(|v| v.as_str()),
            Some("cache/dl1.access")
        );
        let start = spans[1]
            .get("startTimeUnixNano")
            .and_then(|v| v.as_str())
            .unwrap();
        let end = spans[1]
            .get("endTimeUnixNano")
            .and_then(|v| v.as_str())
            .unwrap();
        assert_eq!(start, "12");
        assert_eq!(end, "52");
    }

    #[test]
    fn documents_are_deterministic_and_ids_depend_on_the_run() {
        let s = sample_summary();
        let a = render(&s, "cfg", "lu");
        let b = render(&s, "cfg", "lu");
        assert_eq!(a, b, "export must be byte-deterministic");
        let c = render(&s, "cfg", "fft");
        assert_ne!(a, c, "different runs get different trace ids");
    }

    #[test]
    fn resource_attributes_carry_the_attribution_totals() {
        let text = render(&sample_summary(), "cfg", "lu");
        assert!(text.contains("refrint.sim_cycles.dram"));
        assert!(text.contains("refrint.host_nanos.cache"));
        assert!(text.contains("\"service.name\""));
    }

    fn sample_trace() -> crate::span::RequestTrace {
        crate::span::RequestTrace {
            context: crate::span::TraceContext {
                trace_id: "4bf92f3577b34da6a3ce929d0e0e4736".to_owned(),
                parent_span_id: Some("00f067aa0ba902b7".to_owned()),
            },
            stages: vec![
                crate::span::StageSpan {
                    name: "parse",
                    start_nanos: 0,
                    dur_nanos: 500,
                },
                crate::span::StageSpan {
                    name: "execute",
                    start_nanos: 500,
                    dur_nanos: 90_000,
                },
                crate::span::StageSpan {
                    name: "write",
                    start_nanos: 90_500,
                    dur_nanos: 700,
                },
            ],
            total_nanos: 91_200,
        }
    }

    #[test]
    fn request_document_links_root_stages_and_sim_spans() {
        let summary = sample_summary();
        let extra = [("refrint.job".to_owned(), "j00000001".to_owned())];
        let text = emit(&request_document(
            &sample_trace(),
            &extra,
            Some((&summary, "cfg", "lu")),
            &[],
        ));
        let doc = refrint_engine::json::parse(&text).expect("request doc parses");
        let spans = doc
            .get("resourceSpans")
            .and_then(|v| v.as_arr())
            .and_then(|rs| rs[0].get("scopeSpans"))
            .and_then(|v| v.as_arr())
            .and_then(|ss| ss[0].get("spans"))
            .and_then(|v| v.as_arr())
            .expect("spans array exists");
        // root + 3 stages + 2 sim spans
        assert_eq!(spans.len(), 6);

        let root = &spans[0];
        assert_eq!(root.get("name").and_then(|v| v.as_str()), Some("request"));
        assert_eq!(
            root.get("parentSpanId").and_then(|v| v.as_str()),
            Some("00f067aa0ba902b7"),
            "root must be parented on the inbound traceparent span"
        );
        let root_id = root.get("spanId").and_then(|v| v.as_str()).unwrap();
        assert_eq!(root_id, root_span_id("4bf92f3577b34da6a3ce929d0e0e4736"));

        let execute = spans
            .iter()
            .find(|s| s.get("name").and_then(|v| v.as_str()) == Some("stage/execute"))
            .expect("execute stage span");
        assert_eq!(
            execute.get("parentSpanId").and_then(|v| v.as_str()),
            Some(root_id),
            "stages are children of the root"
        );
        let execute_id = execute.get("spanId").and_then(|v| v.as_str()).unwrap();

        let sim = spans
            .iter()
            .find(|s| s.get("name").and_then(|v| v.as_str()) == Some("cache/dl1.access"))
            .expect("sim span attached");
        assert_eq!(
            sim.get("parentSpanId").and_then(|v| v.as_str()),
            Some(execute_id),
            "sim spans are children of the execute stage"
        );

        assert!(text.contains("refrint.request_critical_stage"));
        assert!(text.contains("\"stringValue\":\"execute\""));
        assert!(text.contains("refrint.run_critical_subsystem"));
        assert!(text.contains("j00000001"));
    }

    #[test]
    fn dispatch_spans_attach_under_the_execute_stage() {
        let trace = sample_trace();
        let dispatch = vec![
            DispatchSpan {
                backend: "127.0.0.1:7878".to_owned(),
                attempt: 1,
                start_nanos: 600,
                dur_nanos: 40_000,
                outcome: "error",
            },
            DispatchSpan {
                backend: "127.0.0.1:7879".to_owned(),
                attempt: 2,
                start_nanos: 41_000,
                dur_nanos: 45_000,
                outcome: "ok",
            },
        ];
        let text = emit(&request_document(&trace, &[], None, &dispatch));
        let doc = refrint_engine::json::parse(&text).expect("parses");
        let spans = doc
            .get("resourceSpans")
            .and_then(|v| v.as_arr())
            .and_then(|rs| rs[0].get("scopeSpans"))
            .and_then(|v| v.as_arr())
            .and_then(|ss| ss[0].get("spans"))
            .and_then(|v| v.as_arr())
            .unwrap();
        assert_eq!(spans.len(), 6, "root + 3 stages + 2 dispatch spans");

        let execute = spans
            .iter()
            .find(|s| s.get("name").and_then(|v| v.as_str()) == Some("stage/execute"))
            .expect("execute stage span");
        let execute_id = execute.get("spanId").and_then(|v| v.as_str()).unwrap();

        let backend = spans
            .iter()
            .find(|s| s.get("name").and_then(|v| v.as_str()) == Some("backend/127.0.0.1:7879"))
            .expect("dispatch span attached");
        assert_eq!(
            backend.get("parentSpanId").and_then(|v| v.as_str()),
            Some(execute_id),
            "dispatch spans are children of the execute stage"
        );
        assert_eq!(
            backend.get("endTimeUnixNano").and_then(|v| v.as_str()),
            Some("86000")
        );
        assert!(text.contains("refrint.outcome"));
        assert!(text.contains("refrint.attempt"));

        assert_ne!(emit(&request_document(&trace, &[], None, &[])), text);
    }

    /// A backend-side trace document for point `index`, exactly as a
    /// backend that received the coordinator's propagated traceparent
    /// would serve it: same trace id, root parented on the point anchor.
    fn backend_document(trace_id: &str, index: usize) -> Value {
        let summary = sample_summary();
        let trace = crate::span::RequestTrace {
            context: crate::span::TraceContext {
                trace_id: trace_id.to_owned(),
                parent_span_id: Some(point_span_id(trace_id, index)),
            },
            stages: vec![
                crate::span::StageSpan {
                    name: "parse",
                    start_nanos: 0,
                    dur_nanos: 400,
                },
                crate::span::StageSpan {
                    name: "execute",
                    start_nanos: 400,
                    dur_nanos: 30_000,
                },
            ],
            total_nanos: 30_400,
        };
        request_document(&trace, &[], Some((&summary, "cfg", "lu")), &[])
    }

    #[test]
    fn fleet_document_stitches_backend_subtrees_under_point_anchors() {
        let trace = sample_trace();
        let trace_id = trace.context.trace_id.clone();
        let points = vec![
            BackendSubtree {
                point_index: 0,
                label: "lu/sram".to_owned(),
                node: "127.0.0.1:7001".to_owned(),
                backend_job: Some("j00000001".to_owned()),
                start_nanos: 600,
                dur_nanos: 40_000,
                document: Some(backend_document(&trace_id, 0)),
            },
            BackendSubtree {
                point_index: 1,
                label: "fft/sram".to_owned(),
                node: "result-cache".to_owned(),
                backend_job: None,
                start_nanos: 700,
                dur_nanos: 100,
                document: None,
            },
        ];
        let text = emit(&fleet_request_document(&trace, &[], &[], &points));
        let doc = refrint_engine::json::parse(&text).expect("fleet doc parses");
        let groups = doc.get("resourceSpans").and_then(Value::as_arr).unwrap();
        assert_eq!(groups.len(), 2, "coordinator group + one stitched node");

        let all = document_spans(&doc);
        let by_name = |name: &str| {
            all.iter()
                .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
                .copied()
        };

        // Anchors: deterministic ids under the execute stage.
        let anchor = by_name("point/lu/sram").expect("anchor span");
        assert_eq!(
            anchor.get("spanId").and_then(Value::as_str),
            Some(point_span_id(&trace_id, 0).as_str())
        );
        let execute = by_name("stage/execute").unwrap();
        assert_eq!(
            anchor.get("parentSpanId").and_then(Value::as_str),
            execute.get("spanId").and_then(Value::as_str)
        );
        assert!(by_name("point/fft/sram").is_some(), "cached point anchored");

        // The backend root is remapped off the colliding root_span_id and
        // hangs under its point anchor.
        let backend_roots: Vec<&&Value> = all
            .iter()
            .filter(|s| s.get("name").and_then(Value::as_str) == Some("request"))
            .collect();
        assert_eq!(backend_roots.len(), 2, "coordinator root + stitched root");
        let stitched_root = backend_roots
            .iter()
            .find(|s| {
                s.get("parentSpanId").and_then(Value::as_str)
                    == Some(point_span_id(&trace_id, 0).as_str())
            })
            .expect("stitched backend root parented on its anchor");
        assert_ne!(
            stitched_root.get("spanId").and_then(Value::as_str),
            Some(root_span_id(&trace_id).as_str()),
            "backend span ids must be remapped out of the colliding slots"
        );

        // Every stitched span's parent resolves inside the document.
        let ids: Vec<&str> = all
            .iter()
            .filter_map(|s| s.get("spanId").and_then(Value::as_str))
            .collect();
        for span in &all {
            if let Some(parent) = span.get("parentSpanId").and_then(Value::as_str) {
                if parent == "00f067aa0ba902b7" {
                    continue; // the coordinator's own inbound parent
                }
                assert!(ids.contains(&parent), "dangling parent {parent}");
            }
        }

        assert!(text.contains("refrint.fleet_critical_step"));
        assert!(text.contains("refrint.fleet_straggler"));
        assert!(text.contains("\"refrint.node\""));
        assert!(text.contains("refrint.points_total"));
        assert!(text.contains("j00000001"));

        // Stitching is deterministic.
        assert_eq!(
            text,
            emit(&fleet_request_document(&trace, &[], &[], &points))
        );
    }

    #[test]
    fn fleet_document_without_points_matches_the_dispatch_document_shape() {
        let trace = sample_trace();
        let text = emit(&fleet_request_document(&trace, &[], &[], &[]));
        let doc = refrint_engine::json::parse(&text).expect("parses");
        let groups = doc.get("resourceSpans").and_then(Value::as_arr).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(document_spans(&doc).len(), 4, "root + 3 stages");
        assert!(text.contains("\"refrint.fleet_straggler\""));
    }

    #[test]
    fn request_document_without_sim_keeps_the_stage_tree() {
        let trace = sample_trace();
        let text = emit(&request_document(&trace, &[], None, &[]));
        let doc = refrint_engine::json::parse(&text).expect("parses");
        let spans = doc
            .get("resourceSpans")
            .and_then(|v| v.as_arr())
            .and_then(|rs| rs[0].get("scopeSpans"))
            .and_then(|v| v.as_arr())
            .and_then(|ss| ss[0].get("spans"))
            .and_then(|v| v.as_arr())
            .unwrap();
        assert_eq!(spans.len(), 4, "root + 3 stages, no sim spans");
        let a = emit(&request_document(&trace, &[], None, &[]));
        assert_eq!(a, text, "request docs are deterministic");
    }
}
