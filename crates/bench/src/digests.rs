//! Digests of the simulator's output bytes, pinned across commits.
//!
//! This module pins every byte a run reports, over a fixed grid: every
//! [`AppPreset`] under each of the 14 paper policies and the SRAM
//! baseline, with MESI and with Dragon coherence, at 4 cores, 600
//! references per thread, seed 42. A point's digest is the 64-bit FNV-1a
//! of its `json::report` bytes, and its `execution_cycles` sits next to
//! it as a plain number, so a diff of the document shows how far
//! simulated time moved.
//!
//! Those runs end before the first sentry period, so none of them fires a
//! policy invalidation. Eight longer points do: lu and fft under
//! `R.WB(0,0)` and `P.WB(0,0)`, with MESI and with Dragon, at 2,000
//! references per thread (named `…@2000`). They pin the bytes that pass
//! through the system's eager invalidation queue. Six `perf/…` points run
//! the paper's full 16-core chip (seed 7, 2,000 references per thread):
//! lu on the recommended eDRAM chip, on SRAM and under Periodic-All, fft
//! and blackscholes on the recommended chip, and lu captured to a trace
//! and replayed. One more entry digests the `json::sweep` bytes of a
//! two-app sweep.
//!
//! `perfgate --record` writes the document ([`FILE_NAME`]), and two unit
//! tests here recompute it (the perf points in one, the rest in the
//! other) and name every point whose digest or cycles moved. Matching a committed constant also implies that each run is
//! deterministic.

use std::fmt;

use refrint::experiment::ExperimentConfig;
use refrint::json;
use refrint::report::SimReport;
use refrint::simulation::{Simulation, SimulationBuilder};
use refrint::sweep::SweepRunner;
use refrint::CoherenceProtocol;
use refrint_edram::policy::{DataPolicy, RefreshPolicy, TimePolicy};
use refrint_engine::fnv1a;
use refrint_engine::json::{JsonError, Value};
use refrint_workloads::apps::AppPreset;

/// The digest document's file name, at the repository root.
pub const FILE_NAME: &str = "BENCH_DIGESTS.json";

const SUITE: &str = "output_digests";

/// References per thread of a grid point.
const GRID_REFS: u64 = 600;

/// References per thread of a drain or perf point: long enough for
/// `WB(0,0)` invalidations to fire on lu and fft.
const LONG_REFS: u64 = 2_000;

const VALID: &str = "every pinned point is a valid configuration";

/// One pinned output: a point name, the FNV-1a digest of its bytes and,
/// for a run, its simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// `app/policy/protocol` for a grid or drain run (`sram` for the SRAM
    /// baseline), `perf/<scenario>` for a 16-core run, `sweep` for the
    /// sweep document.
    pub name: String,
    /// 64-bit FNV-1a of the rendered JSON.
    pub fnv1a: u64,
    /// The run's `execution_cycles`; `None` for the sweep.
    pub execution_cycles: Option<u64>,
}

/// Computes every digest, in document order: each app, each chip (the
/// paper policies, then SRAM), each protocol; then the drain points; then
/// the perf points; then the sweep.
#[must_use]
pub fn compute() -> Vec<Digest> {
    let runs = grid_points()
        .into_iter()
        .chain(drain_points())
        .chain(perf_points());
    digests_of(runs).chain([sweep_digest()]).collect()
}

/// The digest and `execution_cycles` of each named report.
fn digests_of(
    points: impl IntoIterator<Item = (String, SimReport)>,
) -> impl Iterator<Item = Digest> {
    points.into_iter().map(|(name, report)| Digest {
        name,
        fnv1a: fnv1a(0, json::report(&report).as_bytes()),
        execution_cycles: Some(report.execution_cycles),
    })
}

/// The digest of the sweep document.
fn sweep_digest() -> Digest {
    Digest {
        name: "sweep".to_owned(),
        fnv1a: fnv1a(0, sweep_json().as_bytes()),
        execution_cycles: None,
    }
}

/// The grid points and their reports: each app × (each paper policy,
/// then SRAM) × each protocol, at [`GRID_REFS`] references per thread.
fn grid_points() -> Vec<(String, SimReport)> {
    let chips: Vec<Option<RefreshPolicy>> = RefreshPolicy::paper_sweep()
        .into_iter()
        .map(Some)
        .chain([None])
        .collect();
    let mut out = Vec::new();
    for app in AppPreset::ALL {
        for &policy in &chips {
            for protocol in CoherenceProtocol::ALL {
                let label = policy.map_or_else(|| "sram".to_owned(), |p| p.label());
                let name = format!("{}/{label}/{}", app.name(), protocol.label());
                out.push((name, run(app, policy, protocol, GRID_REFS)));
            }
        }
    }
    out
}

/// The drain points and their reports: lu and fft × `R.WB(0,0)` and
/// `P.WB(0,0)` × each protocol, at [`LONG_REFS`] references per thread.
fn drain_points() -> Vec<(String, SimReport)> {
    let mut out = Vec::new();
    for app in [AppPreset::Lu, AppPreset::Fft] {
        for time in TimePolicy::ALL.into_iter().rev() {
            let policy = RefreshPolicy::new(time, DataPolicy::write_back(0, 0));
            for protocol in CoherenceProtocol::ALL {
                let name = format!(
                    "{}/{}/{}@{LONG_REFS}",
                    app.name(),
                    policy.label(),
                    protocol.label()
                );
                out.push((name, run(app, Some(policy), protocol, LONG_REFS)));
            }
        }
    }
    out
}

/// The perf points and their reports: the paper's 16-core chip, seed 7,
/// [`LONG_REFS`] references per thread. `perf/lu_replay` captures lu to a
/// temporary trace and replays it, so it reports the same bytes as
/// `perf/lu`.
fn perf_points() -> Vec<(String, SimReport)> {
    let chip = Simulation::builder()
        .cores(16)
        .seed(7)
        .refs_per_thread(LONG_REFS);
    let recommended = chip.clone().edram_recommended();
    let live = [
        ("lu", AppPreset::Lu, recommended.clone()),
        ("lu_sram", AppPreset::Lu, chip.clone().sram_baseline()),
        ("lu_periodic_all", AppPreset::Lu, chip.edram_baseline()),
        ("fft", AppPreset::Fft, recommended.clone()),
        ("blackscholes", AppPreset::Blackscholes, recommended.clone()),
    ];
    let mut out: Vec<(String, SimReport)> = live
        .into_iter()
        .map(|(name, app, builder)| {
            let report = builder.build().expect(VALID).run(app).report;
            (format!("perf/{name}"), report)
        })
        .collect();
    out.push((
        "perf/lu_replay".to_owned(),
        replay(AppPreset::Lu, recommended),
    ));
    out
}

/// Captures `app` under `builder` to a temporary trace, replays it and
/// removes the trace.
fn replay(app: AppPreset, builder: SimulationBuilder) -> SimReport {
    let path = std::env::temp_dir().join(format!(
        "refrint-digest-{}-{}.rft",
        app.name(),
        std::process::id()
    ));
    builder
        .clone()
        .build()
        .expect(VALID)
        .capture(app, &path)
        .expect("trace capture to the temp dir succeeds");
    let outcome = builder
        .trace(&path)
        .build()
        .expect(VALID)
        .replay()
        .expect("captured trace replays cleanly");
    let _ = std::fs::remove_file(&path);
    outcome.report
}

/// One run of `app` on an eDRAM chip under `policy` (SRAM if `None`).
fn run(
    app: AppPreset,
    policy: Option<RefreshPolicy>,
    protocol: CoherenceProtocol,
    refs_per_thread: u64,
) -> SimReport {
    let builder = Simulation::builder();
    let builder = match policy {
        Some(policy) => builder.edram_recommended().policy(policy),
        None => builder.sram_baseline(),
    };
    let mut sim = builder
        .protocol(protocol)
        .cores(4)
        .refs_per_thread(refs_per_thread)
        .seed(42)
        .build()
        .expect(VALID);
    sim.run(app).report
}

/// The sweep of `tests/hot_path_determinism.rs`: lu and blackscholes at
/// 50 µs under the recommended and baseline policies.
fn sweep_json() -> String {
    let config = ExperimentConfig {
        apps: vec![AppPreset::Lu, AppPreset::Blackscholes],
        retentions_us: vec![50],
        policies: vec![
            RefreshPolicy::recommended(),
            RefreshPolicy::edram_baseline(),
        ],
        refs_per_thread: 600,
        cores: 4,
        ..ExperimentConfig::default()
    };
    json::sweep(
        &SweepRunner::new(config)
            .sequential()
            .run()
            .expect("the pinned sweep is valid"),
    )
}

/// Renders the digests, one per line, as JSON. A digest is a 16-digit hex
/// string: a JSON number cannot hold every `u64`.
#[must_use]
pub fn render(digests: &[Digest]) -> String {
    let mut out = format!("{{\n  \"suite\": \"{SUITE}\",\n  \"digests\": [\n");
    for (i, d) in digests.iter().enumerate() {
        let cycles = d
            .execution_cycles
            .map_or_else(String::new, |c| format!(", \"execution_cycles\": {c}"));
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"fnv1a\": \"{:016x}\"{cycles}}}{}\n",
            refrint_engine::json::escape(&d.name),
            d.fnv1a,
            if i + 1 < digests.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Why a digest document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The JSON text itself is malformed.
    Syntax(JsonError),
    /// The JSON is valid but not a digest document.
    Schema(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(err) => err.fmt(f),
            ParseError::Schema(reason) => write!(f, "unexpected document shape: {reason}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<JsonError> for ParseError {
    fn from(err: JsonError) -> Self {
        ParseError::Syntax(err)
    }
}

/// Parses a digest document, in document order.
///
/// # Errors
///
/// Returns [`ParseError::Syntax`] for malformed JSON and
/// [`ParseError::Schema`] for valid JSON that is not a digest document.
pub fn parse(text: &str) -> Result<Vec<Digest>, ParseError> {
    let root = refrint_engine::json::parse(text)?;
    if root.get("suite").and_then(Value::as_str) != Some(SUITE) {
        return Err(ParseError::Schema(format!("\"suite\" is not \"{SUITE}\"")));
    }
    let Some(Value::Arr(items)) = root.get("digests") else {
        return Err(ParseError::Schema("missing \"digests\" array".to_owned()));
    };
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let field = |key: &str| {
                item.get(key)
                    .and_then(Value::as_str)
                    .ok_or_else(|| ParseError::Schema(format!("digest {i}: missing \"{key}\"")))
            };
            let hex = field("fnv1a")?;
            let execution_cycles = match item.get("execution_cycles") {
                None => None,
                Some(value) => Some(value.as_u64().ok_or_else(|| {
                    ParseError::Schema(format!("digest {i}: \"execution_cycles\" is not a u64"))
                })?),
            };
            Ok(Digest {
                name: field("name")?.to_owned(),
                fnv1a: u64::from_str_radix(hex, 16).map_err(|_| {
                    ParseError::Schema(format!("digest {i}: \"{hex}\" is not a hex u64"))
                })?,
                execution_cycles,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Digest> {
        vec![
            Digest {
                name: "lu/R.WB(32,32)/mesi".to_owned(),
                fnv1a: u64::MAX,
                execution_cycles: Some(987_654),
            },
            Digest {
                name: "a\"b".to_owned(),
                fnv1a: 0,
                execution_cycles: Some(0),
            },
            Digest {
                name: "sweep".to_owned(),
                fnv1a: 7,
                execution_cycles: None,
            },
        ]
    }

    /// The committed document, checked to be in the form
    /// `perfgate --record` writes.
    fn committed() -> Vec<Digest> {
        let committed = include_str!("../../../BENCH_DIGESTS.json");
        let recorded = parse(committed).expect("BENCH_DIGESTS.json parses");
        assert_eq!(
            render(&recorded),
            committed,
            "BENCH_DIGESTS.json is in the form perfgate --record writes"
        );
        recorded
    }

    fn is_perf(d: &Digest) -> bool {
        d.name.starts_with("perf/")
    }

    /// Asserts that `computed` lists the committed points that `keep`
    /// selects, in order, and names every one whose digest or cycles moved.
    fn assert_unmoved(computed: &[Digest], keep: fn(&Digest) -> bool) {
        let recorded: Vec<Digest> = committed().into_iter().filter(keep).collect();
        let names = |d: &[Digest]| d.iter().map(|d| d.name.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(&recorded),
            names(computed),
            "BENCH_DIGESTS.json lists the computed points"
        );
        let cycles = |c: Option<u64>| c.map_or_else(|| "-".to_owned(), |c| c.to_string());
        let moved: Vec<String> = recorded
            .iter()
            .zip(computed)
            .filter(|(r, c)| r != c)
            .map(|(r, c)| {
                format!(
                    "{} (execution_cycles {} recorded, {} computed)",
                    r.name,
                    cycles(r.execution_cycles),
                    cycles(c.execution_cycles)
                )
            })
            .collect();
        assert!(
            moved.is_empty(),
            "{} of {} outputs moved: {}",
            moved.len(),
            computed.len(),
            moved.join(", ")
        );
    }

    #[test]
    fn render_parse_round_trip() {
        let digests = sample();
        assert_eq!(parse(&render(&digests)).unwrap(), digests);
    }

    #[test]
    fn malformed_json_reports_offset() {
        let err = parse("{\"suite\": ").unwrap_err();
        assert!(
            matches!(&err, ParseError::Syntax(json) if json.offset == 10),
            "{err}"
        );
        let err = parse("{}extra").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn wrong_schema_is_a_schema_error() {
        assert!(matches!(parse("{}"), Err(ParseError::Schema(_))));
        let text = render(&sample());
        let other = text.replace(SUITE, "sim_throughput");
        assert!(matches!(parse(&other), Err(ParseError::Schema(_))));
        let bad = text.replace("0000000000000007", "xyz");
        assert!(parse(&bad).unwrap_err().to_string().contains("xyz"));
        let bad = text.replace("987654", "-1");
        assert!(parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("execution_cycles"));
        let bad = text.replace("\"name\": \"sweep\", ", "");
        assert!(parse(&bad).unwrap_err().to_string().contains("\"name\""));
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let text = format!(
            "{{\"suite\": \"{SUITE}\", \"digests\": [{{\"name\": \"a\\\"b\\u0041\", \
             \"fnv1a\": \"00000000000000ff\", \"execution_cycles\": 1e3}}]}}"
        );
        let d = parse(&text).unwrap();
        assert_eq!(d[0].name, "a\"bA");
        assert_eq!(d[0].fnv1a, 255);
        assert_eq!(d[0].execution_cycles, Some(1000));
    }

    #[test]
    fn point_names_are_unique_and_include_perf_lu() {
        let recorded = committed();
        let unique: std::collections::BTreeSet<&str> =
            recorded.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(unique.len(), recorded.len(), "duplicate point names");
        assert!(unique.contains("perf/lu"), "the perf/lu point must exist");
    }

    #[test]
    fn every_output_matches_its_committed_digest() {
        let runs = grid_points().into_iter().chain(drain_points());
        let computed: Vec<Digest> = digests_of(runs).chain([sweep_digest()]).collect();
        assert_unmoved(&computed, |d| !is_perf(d));
    }

    #[test]
    fn perf_points_reproduce_the_committed_execution_cycles() {
        let computed: Vec<Digest> = digests_of(perf_points()).collect();
        assert_unmoved(&computed, is_perf);
        let digest_of = |name: &str| {
            let point = computed.iter().find(|d| d.name == name);
            point.unwrap_or_else(|| panic!("{name} is pinned")).fnv1a
        };
        assert_eq!(
            digest_of("perf/lu_replay"),
            digest_of("perf/lu"),
            "a replayed trace reports the live run's bytes"
        );
    }

    #[test]
    fn every_drain_point_fires_policy_invalidations() {
        for (name, report) in drain_points() {
            let invalidations: u64 = report
                .stats
                .iter()
                .filter(|(k, _)| k.starts_with("l3.") && k.ends_with(".invalidations"))
                .map(|(_, v)| v)
                .sum();
            assert!(invalidations > 0, "{name} fires no L3 policy invalidation");
        }
    }
}
