//! Digests of the simulator's output bytes, pinned across commits.
//!
//! `BENCH_SIM.json` pins six `execution_cycles` values. This module pins
//! every other byte a run reports, over a fixed grid: every [`AppPreset`]
//! under each of the 14 paper policies and the SRAM baseline, with MESI
//! and with Dragon coherence, at 4 cores, 600 references per thread,
//! seed 42. A point's digest is the 64-bit FNV-1a of its `json::report`
//! bytes. One more entry digests the `json::sweep` bytes of a two-app
//! sweep.
//!
//! `perfgate --record` writes the document ([`FILE_NAME`], next to
//! `BENCH_SIM.json`), and a unit test here recomputes it and names every
//! point whose digest moved. Matching a committed constant also implies
//! that each run is deterministic.

use refrint::experiment::ExperimentConfig;
use refrint::json;
use refrint::simulation::Simulation;
use refrint::sweep::SweepRunner;
use refrint::CoherenceProtocol;
use refrint_edram::policy::RefreshPolicy;
use refrint_engine::json::Value;
use refrint_obs::span::fnv1a;
use refrint_workloads::apps::AppPreset;

use crate::results::ParseError;

/// The digest document's file name; it sits next to `BENCH_SIM.json`.
pub const FILE_NAME: &str = "BENCH_DIGESTS.json";

const SUITE: &str = "output_digests";

/// One pinned output: a point name and the FNV-1a digest of its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// `app/policy/protocol` for a run (`sram` for the SRAM baseline),
    /// `sweep` for the sweep document.
    pub name: String,
    /// 64-bit FNV-1a of the rendered JSON.
    pub fnv1a: u64,
}

/// Computes every digest of the grid, in document order: each app, each
/// chip (the paper policies, then SRAM), each protocol; then the sweep.
#[must_use]
pub fn compute() -> Vec<Digest> {
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
                out.push(Digest {
                    name: format!("{}/{label}/{}", app.name(), protocol.label()),
                    fnv1a: fnv1a(0, run_json(app, policy, protocol).as_bytes()),
                });
            }
        }
    }
    out.push(Digest {
        name: "sweep".to_owned(),
        fnv1a: fnv1a(0, sweep_json().as_bytes()),
    });
    out
}

/// One small run of `app` on an eDRAM chip under `policy` (SRAM if `None`).
fn run_json(app: AppPreset, policy: Option<RefreshPolicy>, protocol: CoherenceProtocol) -> String {
    let builder = Simulation::builder();
    let builder = match policy {
        Some(policy) => builder.edram_recommended().policy(policy),
        None => builder.sram_baseline(),
    };
    let mut sim = builder
        .protocol(protocol)
        .cores(4)
        .refs_per_thread(600)
        .seed(42)
        .build()
        .expect("every grid point is a valid configuration");
    json::report(&sim.run(app).report)
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
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"fnv1a\": \"{:016x}\"}}{}\n",
            refrint_engine::json::escape(&d.name),
            d.fnv1a,
            if i + 1 < digests.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
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
            Ok(Digest {
                name: field("name")?.to_owned(),
                fnv1a: u64::from_str_radix(hex, 16).map_err(|_| {
                    ParseError::Schema(format!("digest {i}: \"{hex}\" is not a hex u64"))
                })?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let digests = vec![
            Digest {
                name: "lu/R.WB(32,32)/mesi".to_owned(),
                fnv1a: u64::MAX,
            },
            Digest {
                name: "sweep".to_owned(),
                fnv1a: 7,
            },
        ];
        assert_eq!(parse(&render(&digests)).unwrap(), digests);
        assert!(matches!(parse("{}"), Err(ParseError::Schema(_))));
        let bad = render(&digests).replace("0000000000000007", "xyz");
        assert!(parse(&bad).unwrap_err().to_string().contains("xyz"));
    }

    #[test]
    fn every_output_matches_its_committed_digest() {
        let recorded =
            parse(include_str!("../../../BENCH_DIGESTS.json")).expect("BENCH_DIGESTS.json parses");
        let computed = compute();
        let names = |d: &[Digest]| d.iter().map(|d| d.name.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(&recorded),
            names(&computed),
            "BENCH_DIGESTS.json lists the grid's points"
        );
        let moved: Vec<&str> = recorded
            .iter()
            .zip(&computed)
            .filter(|(r, c)| r.fnv1a != c.fnv1a)
            .map(|(r, _)| r.name.as_str())
            .collect();
        assert!(
            moved.is_empty(),
            "{} of {} outputs moved: {}",
            moved.len(),
            computed.len(),
            moved.join(", ")
        );
    }
}
