//! Spans, the subsystem taxonomy, the fixed-size span ring, and the
//! request-scoped trace context used by `refrint-serve`.

/// FNV-1a, the workspace's deterministic id hash (trace ids, span ids).
#[must_use]
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The subsystems the simulator attributes time to.
///
/// Matches the paper's accounting: the on-chip cache hierarchy, the
/// directory coherence protocol, the eDRAM refresh machinery, the torus
/// interconnect and main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// Cache array accesses (DL1 / L2 / L3 tag and data paths).
    Cache,
    /// Directory transactions and remote invalidations/downgrades.
    Coherence,
    /// Refresh engine work: stalls, settlements, policy invalidations.
    Refresh,
    /// On-chip network message latencies and flit hops.
    Noc,
    /// DRAM fetches and writebacks.
    Dram,
}

impl Subsystem {
    /// Number of subsystems (array dimension for attribution tables).
    pub const COUNT: usize = 5;

    /// Every subsystem, in display order.
    pub const ALL: [Subsystem; Subsystem::COUNT] = [
        Subsystem::Cache,
        Subsystem::Coherence,
        Subsystem::Refresh,
        Subsystem::Noc,
        Subsystem::Dram,
    ];

    /// Stable lowercase name, used in reports and metric labels.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Subsystem::Cache => "cache",
            Subsystem::Coherence => "coherence",
            Subsystem::Refresh => "refresh",
            Subsystem::Noc => "noc",
            Subsystem::Dram => "dram",
        }
    }

    /// Dense index into attribution tables.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Subsystem::Cache => 0,
            Subsystem::Coherence => 1,
            Subsystem::Refresh => 2,
            Subsystem::Noc => 3,
            Subsystem::Dram => 4,
        }
    }
}

/// One recorded event: a latency contribution attributed to a subsystem.
///
/// Times are in *simulated cycles* (`t_start` is the core-local cycle the
/// event happened at, `dur` the cycles it contributed to the critical
/// path); `meta` is a small event-specific payload (refresh count, hop
/// count, bank index — whatever the `kind` documents).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The subsystem this time belongs to.
    pub subsystem: Subsystem,
    /// A static event kind, e.g. `"dl1.access"` or `"dram.fetch"`.
    pub kind: &'static str,
    /// Simulated cycle the event started at.
    pub t_start: u64,
    /// Duration in simulated cycles (0 for pure point events).
    pub dur: u64,
    /// Event-specific payload.
    pub meta: u64,
}

/// A fixed-capacity ring of sampled spans: inserts are O(1), and once the
/// ring is full the oldest span is overwritten (`dropped` counts the
/// overwrites, so exporters can say what fraction of samples survived).
#[derive(Debug, Clone)]
pub struct SpanRing {
    spans: Vec<Span>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl SpanRing {
    /// A ring holding at most `capacity` spans (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SpanRing {
            spans: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// Inserts a span, overwriting the oldest once full.
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.spans[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of retained spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the ring holds no spans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// How many sampled spans were overwritten by newer ones.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained spans, oldest first.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.spans.len());
        out.extend_from_slice(&self.spans[self.head..]);
        out.extend_from_slice(&self.spans[..self.head]);
        out
    }
}

/// The canonical request lifecycle stages `refrint-serve` records, in
/// wall-clock order. The names double as the `stage` label values of the
/// `refrint_request_stage_seconds` metrics family.
pub const REQUEST_STAGES: [&str; 8] = [
    "accept",
    "parse",
    "read_body",
    "validate",
    "cache_lookup",
    "queue_wait",
    "execute",
    "write",
];

/// One stage of a request's lifecycle, in host nanoseconds relative to
/// the moment `accept` returned the request's connection.
///
/// Stage spans are children of the implicit `request` root span; the
/// simulator's [`Span`]s attach under the `execute` stage at export time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage name, one of [`REQUEST_STAGES`].
    pub name: &'static str,
    /// Nanoseconds from request start to stage start.
    pub start_nanos: u64,
    /// Stage duration in nanoseconds.
    pub dur_nanos: u64,
}

/// W3C trace context: a request's trace id plus the caller's span id when
/// the request arrived with a `traceparent` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// 32 lowercase hex chars.
    pub trace_id: String,
    /// The inbound parent span id (16 hex chars), if the caller sent one.
    pub parent_span_id: Option<String>,
}

impl TraceContext {
    /// Parses a W3C `traceparent` header value
    /// (`00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>`). Returns
    /// `None` for malformed values or all-zero ids, per the spec.
    #[must_use]
    pub fn parse_traceparent(value: &str) -> Option<TraceContext> {
        let mut parts = value.trim().split('-');
        let version = parts.next()?;
        let trace_id = parts.next()?;
        let span_id = parts.next()?;
        let flags = parts.next()?;
        if parts.next().is_some() && version == "00" {
            return None; // version 00 allows exactly four fields
        }
        let hex = |s: &str, len: usize| {
            s.len() == len
                && s.bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        };
        if !hex(version, 2) || !hex(trace_id, 32) || !hex(span_id, 16) || !hex(flags, 2) {
            return None;
        }
        if trace_id.bytes().all(|b| b == b'0') || span_id.bytes().all(|b| b == b'0') {
            return None;
        }
        Some(TraceContext {
            trace_id: trace_id.to_owned(),
            parent_span_id: Some(span_id.to_owned()),
        })
    }

    /// Mints a deterministic trace context from request identity material
    /// (refrint-serve feeds the validated cache key, which carries the
    /// seed — so identical requests mint identical trace ids).
    #[must_use]
    pub fn mint(material: &str) -> TraceContext {
        let hi = fnv1a(0x0074_7261_6365, material.as_bytes()); // "trace"
        let lo = fnv1a(hi, material.as_bytes());
        TraceContext {
            trace_id: format!("{hi:016x}{lo:016x}"),
            parent_span_id: None,
        }
    }

    /// Renders the context as a `traceparent` header value with the given
    /// span id as the active span.
    #[must_use]
    pub fn to_traceparent(&self, span_id: &str) -> String {
        format!("00-{}-{}-01", self.trace_id, span_id)
    }
}

/// One dispatch attempt of a coordinator fanning a point job out to a
/// backend node. Recorded per attempt (retries produce several spans for
/// the same point) and rendered as children of the `execute` stage in the
/// OTLP request tree, so a sweep's trace shows which backends did the work
/// and where retries went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchSpan {
    /// The backend's address label (e.g. `127.0.0.1:7878`).
    pub backend: String,
    /// 1-based attempt number for the point this span belongs to.
    pub attempt: u32,
    /// Nanoseconds from execute start to the attempt's start.
    pub start_nanos: u64,
    /// Attempt duration in nanoseconds.
    pub dur_nanos: u64,
    /// `"ok"`, `"error"` or `"cache"` (the point was answered from the
    /// coordinator's result cache without dispatching).
    pub outcome: &'static str,
}

/// A request's recorded lifecycle: the trace context plus the stage spans
/// the connection handler measured. Stored per job so `GET
/// /jobs/<id>/trace` can replay the tree after the fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request's trace context (inbound or minted).
    pub context: TraceContext,
    /// Recorded stages, in wall-clock order.
    pub stages: Vec<StageSpan>,
    /// Total request wall time in nanoseconds (read start to write end).
    pub total_nanos: u64,
}

impl RequestTrace {
    /// Whether a stage with this name was recorded.
    #[must_use]
    pub fn has_stage(&self, name: &str) -> bool {
        self.stages.iter().any(|s| s.name == name)
    }

    /// End of the last recorded stage, in nanoseconds from request start.
    #[must_use]
    pub fn last_stage_end(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.start_nanos + s.dur_nanos)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(t: u64) -> Span {
        Span {
            subsystem: Subsystem::Cache,
            kind: "test",
            t_start: t,
            dur: 1,
            meta: 0,
        }
    }

    #[test]
    fn subsystem_names_and_indices_are_dense_and_stable() {
        let mut seen = [false; Subsystem::COUNT];
        for s in Subsystem::ALL {
            assert!(!seen[s.index()], "duplicate index {}", s.index());
            seen[s.index()] = true;
            assert!(!s.name().is_empty());
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn ring_keeps_newest_spans_in_order() {
        let mut ring = SpanRing::new(3);
        for t in 0..5 {
            ring.push(span(t));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring.to_vec().iter().map(|s| s.t_start).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut ring = SpanRing::new(8);
        ring.push(span(1));
        ring.push(span(2));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 0);
        let kept: Vec<u64> = ring.to_vec().iter().map(|s| s.t_start).collect();
        assert_eq!(kept, vec![1, 2]);
    }

    #[test]
    fn ring_wraparound_evicts_oldest_in_order() {
        // Fill well past capacity and check the retained window is exactly
        // the newest `capacity` spans, oldest first, at every fill level.
        let capacity = 7;
        let mut ring = SpanRing::new(capacity);
        for t in 0..40u64 {
            ring.push(span(t));
            let kept: Vec<u64> = ring.to_vec().iter().map(|s| s.t_start).collect();
            let expect: Vec<u64> = (t.saturating_sub(capacity as u64 - 1)..=t).collect();
            assert_eq!(kept, expect, "after pushing span {t}");
            assert_eq!(ring.dropped(), (t + 1).saturating_sub(capacity as u64));
        }
    }

    #[test]
    fn traceparent_roundtrip_and_rejects() {
        let tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
        let ctx = TraceContext::parse_traceparent(tp).expect("valid header parses");
        assert_eq!(ctx.trace_id, "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(ctx.parent_span_id.as_deref(), Some("00f067aa0ba902b7"));
        assert_eq!(ctx.to_traceparent("00f067aa0ba902b7"), tp);

        for bad in [
            "",
            "00-xyz-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // missing flags
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
            "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
        ] {
            assert!(
                TraceContext::parse_traceparent(bad).is_none(),
                "must reject {bad:?}"
            );
        }
    }

    #[test]
    fn minted_trace_ids_are_deterministic_per_material() {
        let a = TraceContext::mint("run|seed=1");
        let b = TraceContext::mint("run|seed=1");
        let c = TraceContext::mint("run|seed=2");
        assert_eq!(a, b);
        assert_ne!(a.trace_id, c.trace_id);
        assert_eq!(a.trace_id.len(), 32);
        assert!(a.parent_span_id.is_none());
        // Minted ids must themselves be valid traceparent material.
        let rt = TraceContext::parse_traceparent(&a.to_traceparent("00f067aa0ba902b7"));
        assert_eq!(rt.expect("valid").trace_id, a.trace_id);
    }
}
