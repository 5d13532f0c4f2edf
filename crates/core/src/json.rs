//! JSON emitters for the suite's machine-readable documents.
//!
//! The workspace builds without external dependencies, so instead of serde
//! derives this module hand-emits the small, stable document shapes every
//! front end needs: one [`SimReport`] (`refrint-cli run --format json`, the
//! `refrint-serve` `POST /run` response), full [`SweepResults`]
//! (`sweep --format json`, `POST /sweep`), and a [`TraceSummary`]
//! (`trace info --format json`). Keeping exactly one implementation here is
//! what makes the server's byte-identity guarantee checkable: the CLI and
//! the service render through the same code.
//!
//! String escaping and the matching parser live in
//! [`refrint_engine::json`]; non-finite floats (which the energy model
//! never produces) render as `null`.

use std::borrow::Cow;
use std::collections::BTreeMap;

use refrint_engine::json::{escape, num, parse};
use refrint_trace::{TraceSummary, FORMAT_VERSION};

use crate::anomaly::{self, PointMetrics, SweepAnomaly};
use crate::experiment::SweepResults;
use crate::report::SimReport;

/// Renders one [`SimReport`] as a JSON object.
#[must_use]
pub fn report(r: &SimReport) -> String {
    let c = &r.counts;
    let b = &r.breakdown;
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"config\":\"{}\",\"execution_cycles\":{},",
            "\"counts\":{{\"instructions\":{},\"il1_accesses\":{},\"dl1_accesses\":{},",
            "\"l2_accesses\":{},\"l3_accesses\":{},\"l1_refreshes\":{},",
            "\"l2_refreshes\":{},\"l3_refreshes\":{},\"dram_reads\":{},",
            "\"dram_writes\":{},\"noc_flit_hops\":{}}},",
            "\"energy_j\":{{\"memory_total\":{},\"system_total\":{},",
            "\"on_chip_dynamic\":{},\"on_chip_leakage\":{},\"refresh\":{},\"dram\":{}}},",
            "\"l3_miss_rate_per_mille\":{},\"refreshes_per_kilocycle\":{}}}"
        ),
        escape(&r.workload),
        escape(&r.config_label),
        r.execution_cycles,
        c.instructions,
        c.il1_accesses,
        c.dl1_accesses,
        c.l2_accesses,
        c.l3_accesses,
        c.l1_refreshes,
        c.l2_refreshes,
        c.l3_refreshes,
        c.dram_reads,
        c.dram_writes,
        c.noc_flit_hops,
        num(b.memory_total()),
        num(b.total_system()),
        num(b.on_chip_dynamic()),
        num(b.on_chip_leakage()),
        num(b.refresh_total()),
        num(b.dram),
        num(r.l3_miss_rate_per_mille()),
        num(r.refreshes_per_kilocycle()),
    )
}

/// A report rendered by [`report`], read back: the text plus the fields a
/// sweep merge and a progress counter need. This module writes the report
/// format, so it is also the one place that reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportBody {
    json: String,
    metrics: PointMetrics,
    /// `counts.dl1_accesses` of the run.
    pub dl1_accesses: u64,
}

impl ReportBody {
    /// Reads a rendered report, ignoring surrounding whitespace such as
    /// the newline a printed or served report ends with. `None` when the
    /// text is not a report object. The parser round-trips every float
    /// [`num`] emits, so the scored energy equals the in-process value bit
    /// for bit.
    #[must_use]
    pub fn parse(text: &str) -> Option<ReportBody> {
        let json = text.trim();
        let doc = parse(json).ok()?;
        Some(ReportBody {
            metrics: PointMetrics {
                system_energy_j: doc.get("energy_j")?.get("system_total")?.as_num()?,
                execution_cycles: doc.get("execution_cycles")?.as_u64()?,
            },
            dl1_accesses: doc.get("counts")?.get("dl1_accesses")?.as_u64()?,
            json: json.to_owned(),
        })
    }
}

/// A per-point result a sweep document can be rendered from: a
/// [`SimReport`] in process, or a [`ReportBody`] received as text.
pub(crate) trait SweepEntry {
    /// The point's report object.
    fn report_json(&self) -> Cow<'_, str>;
    /// The metrics anomaly scoring reads.
    fn metrics(&self) -> PointMetrics;
}

impl SweepEntry for SimReport {
    fn report_json(&self) -> Cow<'_, str> {
        Cow::Owned(report(self))
    }

    fn metrics(&self) -> PointMetrics {
        PointMetrics::of(self)
    }
}

impl SweepEntry for ReportBody {
    fn report_json(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.json)
    }

    fn metrics(&self) -> PointMetrics {
        self.metrics
    }
}

/// Renders one flagged sweep point for the `anomalies` array.
fn sweep_anomaly(a: &SweepAnomaly) -> String {
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"retention_us\":{},\"policy\":\"{}\",",
            "\"metric\":\"{}\",\"axis\":\"{}\",\"value\":{},\"median\":{},",
            "\"robust_z\":{}}}"
        ),
        escape(&a.workload),
        a.retention_us,
        escape(&a.policy),
        a.metric,
        a.axis,
        num(a.value),
        num(a.median),
        num(a.robust_z),
    )
}

/// Renders full [`SweepResults`] as a JSON object: the swept axes, one
/// entry per run, and the `anomalies` the analytics pass flagged (see
/// [`crate::anomaly`]). Map iteration is ordered, so the output is
/// deterministic.
#[must_use]
pub fn sweep(results: &SweepResults) -> String {
    let workloads: Vec<String> = results
        .apps
        .iter()
        .map(|a| a.name().to_owned())
        .chain(results.traces.iter().map(|t| t.name.clone()))
        .collect();
    render_sweep(
        &workloads,
        &results.retentions_us,
        &results.sram,
        &results.edram,
    )
}

/// The one sweep-document renderer, over merged per-point results: the
/// swept axes, a `runs` entry per SRAM report (by workload key) then per
/// eDRAM report (by `(workload, retention, policy)` key), and the
/// `anomalies` scored over the eDRAM points.
pub(crate) fn render_sweep<R: SweepEntry>(
    workloads: &[String],
    retentions_us: &[u64],
    sram: &BTreeMap<String, R>,
    edram: &BTreeMap<(String, u64, String), R>,
) -> String {
    let mut runs = Vec::with_capacity(sram.len() + edram.len());
    for (workload, r) in sram {
        runs.push(format!(
            "{{\"workload\":\"{}\",\"retention_us\":null,\"policy\":null,\"report\":{}}}",
            escape(workload),
            r.report_json(),
        ));
    }
    for ((workload, retention_us, label), r) in edram {
        runs.push(format!(
            "{{\"workload\":\"{}\",\"retention_us\":{retention_us},\"policy\":\"{}\",\"report\":{}}}",
            escape(workload),
            escape(label),
            r.report_json(),
        ));
    }
    let points: Vec<_> = edram.iter().map(|(key, r)| (key, r.metrics())).collect();
    let anomalies: Vec<String> = anomaly::detect_points(&points)
        .iter()
        .map(sweep_anomaly)
        .collect();
    let workloads: Vec<String> = workloads
        .iter()
        .map(|w| format!("\"{}\"", escape(w)))
        .collect();
    let retentions: Vec<String> = retentions_us.iter().map(u64::to_string).collect();
    format!(
        "{{\"workloads\":[{}],\"retentions_us\":[{}],\"runs\":[{}],\"anomalies\":[{}]}}",
        workloads.join(","),
        retentions.join(","),
        runs.join(","),
        anomalies.join(",")
    )
}

/// Renders one histogram as `{"mean":…,"p50":…,"p90":…,"p99":…,"max":…}`
/// (all `null` when the histogram has no samples).
fn histogram(h: &refrint_engine::stats::Histogram) -> String {
    let pct = |p: f64| match h.percentile(p) {
        Some(v) => v.to_string(),
        None => "null".to_owned(),
    };
    format!(
        "{{\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        h.mean().map_or_else(|| "null".to_owned(), num),
        pct(50.0),
        pct(90.0),
        pct(99.0),
        h.max().map_or_else(|| "null".to_owned(), |v| v.to_string()),
    )
}

/// Renders a [`TraceSummary`] as a JSON object (the machine-readable form
/// of `refrint-cli trace info`).
#[must_use]
pub fn trace_summary(s: &TraceSummary) -> String {
    let per_thread: Vec<String> = s.per_thread.iter().map(u64::to_string).collect();
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"format\":\"binary v{}\",\"threads\":{},\"seed\":{},",
            "\"records\":{},\"reads\":{},\"writes\":{},\"per_thread\":[{}],",
            "\"gap_cycles\":{},\"addr_stride_bytes\":{},",
            "\"min_addr\":{},\"max_addr\":{},\"address_span_bytes\":{}}}"
        ),
        escape(&s.meta.workload),
        FORMAT_VERSION,
        s.meta.threads,
        s.meta.seed,
        s.records,
        s.reads,
        s.writes,
        per_thread.join(","),
        histogram(&s.gaps),
        histogram(&s.strides),
        s.min_addr,
        s.max_addr,
        s.address_span(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use refrint_engine::json::Value;

    #[test]
    fn report_json_is_balanced_and_complete() {
        let mut sim = Simulation::builder()
            .cores(2)
            .refs_per_thread(500)
            .build()
            .unwrap();
        let outcome = sim.run(AppPreset::Lu);
        let doc = report(&outcome.report);
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("workload").and_then(Value::as_str), Some("lu"));
        for key in [
            "\"workload\":\"lu\"",
            "\"execution_cycles\":",
            "\"dram_reads\":",
            "\"memory_total\":",
            "\"refreshes_per_kilocycle\":",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
    }

    #[test]
    fn sweep_json_lists_every_run() {
        let config = ExperimentConfig {
            apps: vec![AppPreset::Lu],
            retentions_us: vec![50],
            policies: vec![RefreshPolicy::recommended()],
            refs_per_thread: 600,
            cores: 2,
            ..ExperimentConfig::default()
        };
        let results = SweepRunner::new(config).sequential().run().unwrap();
        let doc = sweep(&results);
        assert!(parse(&doc).is_ok(), "sweep output must be valid JSON");
        assert!(doc.contains("\"workloads\":[\"lu\"]"));
        assert!(doc.contains("\"retention_us\":null"));
        assert!(doc.contains("\"retention_us\":50"));
        assert!(doc.contains("R.WB(32,32)"));
        assert_eq!(doc.matches("\"report\":").count(), 2);
    }

    #[test]
    fn trace_summary_json_round_trips_through_the_parser() {
        let path =
            std::env::temp_dir().join(format!("refrint-json-summary-{}.rft", std::process::id()));
        let sim = Simulation::builder()
            .cores(2)
            .refs_per_thread(400)
            .build()
            .unwrap();
        sim.capture(AppPreset::Fft, &path).unwrap();
        let trace = TraceFile::open(&path).unwrap();
        let summary = TraceSummary::collect(&trace).unwrap();
        let doc = trace_summary(&summary);
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("workload").and_then(Value::as_str), Some("fft"));
        assert_eq!(parsed.get("threads").and_then(Value::as_u64), Some(2));
        assert_eq!(parsed.get("records").and_then(Value::as_u64), Some(800));
        assert!(parsed.get("gap_cycles").unwrap().get("p99").is_some());
        std::fs::remove_file(&path).ok();
    }
}
