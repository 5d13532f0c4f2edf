//! The differential-conformance harness: run oracle and optimized
//! simulator side by side on seeded scenarios, diff the reports field by
//! field, and shrink any divergence to a minimal repro.

use std::fmt;
use std::path::PathBuf;

use refrint::replay;
use refrint::report::SimReport;
use refrint::system::CmpSystem;
use refrint_trace::TraceFile;
use refrint_workloads::trace::MemRef;

use crate::diff::{diff_reports, FieldDiff};
use crate::scenario::Scenario;
use crate::system::{Fault, OracleError, OracleSystem};

/// A confirmed oracle/simulator disagreement, with its shrunk minimal
/// repro.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The scenario that first diverged.
    pub scenario: Scenario,
    /// The fields it diverged on.
    pub diffs: Vec<FieldDiff>,
    /// The smallest still-diverging scenario the shrinker found.
    pub shrunk: Scenario,
    /// The fields the shrunk scenario diverges on.
    pub shrunk_diffs: Vec<FieldDiff>,
    /// How many shrink steps were applied.
    pub shrink_steps: usize,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "oracle and simulator disagree")?;
        writeln!(f, "  first divergence : {}", self.scenario.spec())?;
        for d in &self.diffs {
            writeln!(f, "    {d}")?;
        }
        writeln!(
            f,
            "  minimal repro    : {} ({} shrink steps)",
            self.shrunk.spec(),
            self.shrink_steps
        )?;
        for d in &self.shrunk_diffs {
            writeln!(f, "    {d}")?;
        }
        write!(f, "  reproduce with   : {}", self.shrunk.repro_command())
    }
}

/// The result of a conformance run.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// How many scenarios ran (stops at the first divergence).
    pub scenarios_run: u64,
    /// The first divergence found, shrunk — `None` means full agreement.
    pub divergence: Option<Divergence>,
}

/// Runs one scenario through both implementations and returns the field
/// diffs (empty = agreement).
///
/// # Errors
///
/// [`OracleError`] if the scenario cannot be built or a trace round trip
/// fails — never a report mismatch, which is data, not an error.
pub fn run_scenario(scenario: &Scenario) -> Result<Vec<FieldDiff>, OracleError> {
    run_scenario_with(scenario, None)
}

/// Like [`run_scenario`], optionally with a [`Fault`] injected into the
/// oracle (validation aid).
///
/// # Errors
///
/// See [`run_scenario`].
pub fn run_scenario_with(
    scenario: &Scenario,
    fault: Option<Fault>,
) -> Result<Vec<FieldDiff>, OracleError> {
    let (oracle, simulator) = run_pair(scenario, fault)?;
    Ok(diff_reports(&oracle, &simulator))
}

/// Runs `count` scenarios seeded from `master_seed`; on the first
/// divergence, shrinks it and stops. `progress` is called before each
/// scenario with its index.
///
/// # Errors
///
/// See [`run_scenario`].
pub fn run_check(
    master_seed: u64,
    count: u64,
    fault: Option<Fault>,
    progress: impl FnMut(u64, &Scenario),
) -> Result<CheckOutcome, OracleError> {
    run_check_pinned(master_seed, count, None, fault, progress)
}

/// Like [`run_check`], with every generated scenario's coherence protocol
/// optionally pinned — the hook behind `refrint-cli check --protocol` and
/// the per-protocol CI conformance matrix, which needs each leg to
/// exercise one transition table over the full scenario stream rather
/// than the generator's random protocol mix.
///
/// # Errors
///
/// See [`run_scenario`].
pub fn run_check_pinned(
    master_seed: u64,
    count: u64,
    protocol: Option<refrint::CoherenceProtocol>,
    fault: Option<Fault>,
    mut progress: impl FnMut(u64, &Scenario),
) -> Result<CheckOutcome, OracleError> {
    for index in 0..count {
        let mut scenario = Scenario::generate(master_seed, index);
        if let Some(protocol) = protocol {
            scenario.protocol = protocol;
        }
        progress(index, &scenario);
        let diffs = run_scenario_with(&scenario, fault)?;
        if !diffs.is_empty() {
            let divergence = shrink(scenario, diffs, fault)?;
            return Ok(CheckOutcome {
                scenarios_run: index + 1,
                divergence: Some(divergence),
            });
        }
    }
    Ok(CheckOutcome {
        scenarios_run: count,
        divergence: None,
    })
}

/// Greedily simplifies a diverging scenario: repeatedly applies the first
/// shrink candidate that still diverges, until none does.
fn shrink(
    scenario: Scenario,
    diffs: Vec<FieldDiff>,
    fault: Option<Fault>,
) -> Result<Divergence, OracleError> {
    let mut current = scenario.clone();
    let mut current_diffs = diffs.clone();
    let mut steps = 0;
    // Each accepted step strictly simplifies one axis; 64 steps bounds
    // even the most gradual descent.
    'outer: for _ in 0..64 {
        for candidate in current.shrink_candidates() {
            // A candidate that errors (e.g. an unsupported shrink) is
            // skipped, not fatal — the original repro is already in hand.
            let Ok(d) = run_scenario_with(&candidate, fault) else {
                continue;
            };
            if !d.is_empty() {
                current = candidate;
                current_diffs = d;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    Ok(Divergence {
        scenario,
        diffs,
        shrunk: current,
        shrunk_diffs: current_diffs,
        shrink_steps: steps,
    })
}

/// Runs the scenario through both implementations.
fn run_pair(
    scenario: &Scenario,
    fault: Option<Fault>,
) -> Result<(SimReport, SimReport), OracleError> {
    let cfg = scenario.config();
    let mut oracle = match fault {
        None => OracleSystem::new(cfg.clone())?,
        Some(fault) => OracleSystem::with_fault(cfg.clone(), fault)?,
    };
    let mut simulator =
        CmpSystem::new(cfg.clone()).map_err(|e| OracleError::InvalidConfig(e.to_string()))?;
    let model = scenario.app.model();

    if !scenario.via_trace {
        let oracle_report = oracle.run_model(&model)?;
        let sim_report = simulator.run_model(&model);
        return Ok((oracle_report, sim_report));
    }

    // Trace round trip: capture once, replay the file through the
    // simulator's streaming decoder, and feed the oracle the same records.
    let path = trace_path(scenario);
    let result = (|| {
        replay::capture_to_path(&cfg, &model, &path)
            .map_err(|e| OracleError::Trace(e.to_string()))?;
        let trace = TraceFile::open(&path).map_err(|e| OracleError::Trace(e.to_string()))?;
        let meta = trace.meta().clone();
        let streams = (0..meta.threads)
            .map(|t| {
                trace
                    .thread(t)
                    .and_then(|refs| refs.collect::<Result<Vec<MemRef>, _>>())
                    .map(Vec::into_iter)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| OracleError::Trace(e.to_string()))?;
        let oracle_report = oracle.run_streams(&meta.workload, streams)?;
        let sim_report = replay::replay(&mut simulator, &trace)
            .map_err(|e| OracleError::Trace(e.to_string()))?;
        Ok((oracle_report, sim_report))
    })();
    std::fs::remove_file(&path).ok();
    result
}

fn trace_path(scenario: &Scenario) -> PathBuf {
    // Parallel tests in one process can run the same scenario (same seed)
    // concurrently; a per-call counter keeps their capture files disjoint.
    use std::sync::atomic::{AtomicU64, Ordering};
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "refrint-oracle-{}-{}-{}.rft",
        std::process::id(),
        scenario.seed,
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handful_of_scenarios_agree() {
        let outcome = run_check(0xFEED, 8, None, |_, _| {}).unwrap();
        assert_eq!(outcome.scenarios_run, 8);
        assert!(
            outcome.divergence.is_none(),
            "{}",
            outcome.divergence.unwrap()
        );
    }

    #[test]
    fn injected_fault_is_caught_and_shrunk() {
        let outcome =
            run_check(0xFEED, 64, Some(Fault::DecayCleanBudgetOffByOne), |_, _| {}).unwrap();
        let divergence = outcome.divergence.expect("the fault must be caught");
        assert!(divergence.shrunk.cores <= 4, "{}", divergence.shrunk.spec());
        assert!(
            divergence.shrunk.refs_per_thread <= 1_000,
            "{}",
            divergence.shrunk.spec()
        );
        assert!(!divergence.shrunk_diffs.is_empty());
        let text = divergence.to_string();
        assert!(text.contains("refrint-cli check --scenario"), "{text}");
    }

    #[test]
    fn pinned_protocol_reaches_every_scenario() {
        for protocol in [
            refrint::CoherenceProtocol::Mesi,
            refrint::CoherenceProtocol::Dragon,
        ] {
            let mut seen = 0;
            let outcome = run_check_pinned(0xFEED, 8, Some(protocol), None, |_, scenario| {
                assert_eq!(scenario.protocol, protocol, "{}", scenario.spec());
                seen += 1;
            })
            .unwrap();
            assert_eq!(seen, 8);
            assert!(
                outcome.divergence.is_none(),
                "{}",
                outcome.divergence.unwrap()
            );
        }
    }

    #[test]
    fn dragon_fault_is_caught_and_shrinks_to_a_dragon_repro() {
        // The planted update-vs-invalidate divergence only fires under
        // Dragon, so the harness must (a) find a Dragon scenario that
        // exposes it and (b) never shrink the protocol axis away.
        let outcome =
            run_check(0xFEED, 64, Some(Fault::DragonUpdateInvalidates), |_, _| {}).unwrap();
        let divergence = outcome.divergence.expect("the Dragon fault must be caught");
        assert_eq!(
            divergence.shrunk.protocol,
            refrint::CoherenceProtocol::Dragon,
            "{}",
            divergence.shrunk.spec()
        );
        assert!(!divergence.shrunk_diffs.is_empty());
        let command = divergence.shrunk.repro_command();
        assert!(
            command.contains("refrint-cli check --scenario"),
            "{command}"
        );
        assert!(command.contains("protocol=dragon"), "{command}");
        // The repro really is minimal: every further shrink agrees.
        for candidate in divergence.shrunk.shrink_candidates() {
            if let Ok(d) = run_scenario_with(&candidate, Some(Fault::DragonUpdateInvalidates)) {
                assert!(d.is_empty(), "shrink was not minimal: {}", candidate.spec());
            }
        }
    }
}
