//! The `sim_throughput` suite: end-to-end simulator throughput in
//! references per second.
//!
//! Refrint's headline results come from sweeping many (policy × retention ×
//! workload) points, so refs/sec directly bounds how much of the design
//! space we can explore. This module defines a fixed set of scenarios
//! (synthetic presets across the paper's three application classes, an SRAM
//! baseline, the Periodic-All burst path, and a trace replay) and measures
//! each one with wall-clock timing. Results carry two kinds of signal:
//!
//! * `refs_per_sec` — machine-dependent throughput, gated with a tolerance;
//! * `execution_cycles` — the simulated clock, which is deterministic and
//!   must match a recorded baseline *exactly* on any machine.
//!
//! The `perfgate` binary records these results to `BENCH_SIM.json` and
//! fails CI when a metric regresses.

use std::path::{Path, PathBuf};
use std::time::Instant;

use refrint::simulation::{ObsConfig, Simulation, SimulationBuilder};
use refrint_workloads::apps::AppPreset;

/// How a scenario drives the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// Generate the preset's synthetic reference streams on the fly.
    Synthetic,
    /// Capture the preset to a binary trace once, then replay it.
    Replay,
}

/// Which chip configuration a scenario uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chip {
    /// SRAM baseline (no refresh machinery at all).
    Sram,
    /// eDRAM with the paper's recommended Refrint WB(32,32) policy.
    EdramRecommended,
    /// eDRAM with the Periodic-All baseline (exercises the burst path).
    EdramPeriodicAll,
}

/// One named throughput scenario.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable metric name, used as the key in `BENCH_SIM.json`.
    pub name: &'static str,
    app: AppPreset,
    chip: Chip,
    driver: Driver,
}

/// The fixed scenario list. Order is stable; names are the JSON keys.
#[must_use]
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "lu",
            app: AppPreset::Lu,
            chip: Chip::EdramRecommended,
            driver: Driver::Synthetic,
        },
        Scenario {
            name: "lu_sram",
            app: AppPreset::Lu,
            chip: Chip::Sram,
            driver: Driver::Synthetic,
        },
        Scenario {
            name: "lu_periodic_all",
            app: AppPreset::Lu,
            chip: Chip::EdramPeriodicAll,
            driver: Driver::Synthetic,
        },
        Scenario {
            name: "fft",
            app: AppPreset::Fft,
            chip: Chip::EdramRecommended,
            driver: Driver::Synthetic,
        },
        Scenario {
            name: "blackscholes",
            app: AppPreset::Blackscholes,
            chip: Chip::EdramRecommended,
            driver: Driver::Synthetic,
        },
        Scenario {
            name: "lu_replay",
            app: AppPreset::Lu,
            chip: Chip::EdramRecommended,
            driver: Driver::Replay,
        },
    ]
}

/// Measurement effort: `Quick` for CI smoke runs, `Full` for baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small runs, few repetitions — seconds, for CI.
    Quick,
    /// Larger runs, more repetitions — for recording baselines.
    Full,
}

impl Effort {
    /// References per thread for each simulated run.
    #[must_use]
    pub fn refs_per_thread(self) -> u64 {
        match self {
            Effort::Quick => 2_000,
            Effort::Full => 8_000,
        }
    }

    /// Timed repetitions per scenario (the median is reported).
    #[must_use]
    pub fn repetitions(self) -> usize {
        match self {
            Effort::Quick => 3,
            Effort::Full => 7,
        }
    }

    /// The mode string stored in the results document.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Effort::Quick => "quick",
            Effort::Full => "full",
        }
    }

    /// Parses a mode string (`quick` / `full`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(Effort::Quick),
            "full" => Some(Effort::Full),
            _ => None,
        }
    }
}

/// The measured result of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Scenario name (JSON key).
    pub name: String,
    /// Data references processed per simulated run.
    pub refs: u64,
    /// Median wall-clock references per second across repetitions.
    pub refs_per_sec: f64,
    /// Simulated execution cycles — deterministic, must match exactly.
    pub execution_cycles: u64,
}

/// The observability setting the `REFRINT_OBS` environment variable asks
/// for: unset/`off` disables the recorder, `default` samples every 64th
/// event, `full` samples everything. The CI `obs-smoke` job uses this to
/// measure instrumentation overhead with the very same `perfgate` flow —
/// `execution_cycles` must match the baseline exactly (recording never
/// perturbs), and refs/sec must stay within the gate's tolerance.
fn obs_from_env() -> Option<ObsConfig> {
    match std::env::var("REFRINT_OBS").as_deref() {
        Ok("default") => Some(ObsConfig::default()),
        Ok("full") => Some(ObsConfig::full()),
        Ok("off") | Ok("") | Err(_) => None,
        Ok(other) => panic!("REFRINT_OBS must be off/default/full, not `{other}`"),
    }
}

fn builder_for(s: &Scenario, effort: Effort) -> SimulationBuilder {
    let mut b = Simulation::builder()
        .cores(16)
        .seed(7)
        .refs_per_thread(effort.refs_per_thread());
    if let Some(obs) = obs_from_env() {
        b = b.observability(obs);
    }
    match s.chip {
        Chip::Sram => b.sram_baseline(),
        Chip::EdramRecommended => b.edram_recommended(),
        Chip::EdramPeriodicAll => b.edram_baseline(),
    }
}

/// Runs one scenario once and returns `(refs, execution_cycles, seconds)`.
///
/// Building the system is excluded from the timed region; for replay
/// scenarios the trace is read from `trace_path`, which must already exist.
fn run_once(s: &Scenario, effort: Effort, trace_path: Option<&Path>) -> (u64, u64, f64) {
    match s.driver {
        Driver::Synthetic => {
            let mut sim = builder_for(s, effort)
                .build()
                .expect("throughput scenarios are valid configurations");
            let start = Instant::now();
            let outcome = sim.run(s.app);
            let secs = start.elapsed().as_secs_f64();
            (
                outcome.report.counts.dl1_accesses,
                outcome.report.execution_cycles,
                secs,
            )
        }
        Driver::Replay => {
            let path = trace_path.expect("replay scenarios need a captured trace");
            let mut sim = builder_for(s, effort)
                .trace(path)
                .build()
                .expect("throughput scenarios are valid configurations");
            let start = Instant::now();
            let outcome = sim.replay().expect("captured trace replays cleanly");
            let secs = start.elapsed().as_secs_f64();
            (
                outcome.report.counts.dl1_accesses,
                outcome.report.execution_cycles,
                secs,
            )
        }
    }
}

/// Captures a replay scenario's trace to a temporary file, outside any
/// timed region; synthetic scenarios need none.
fn capture_trace(s: &Scenario, effort: Effort) -> Option<PathBuf> {
    if s.driver != Driver::Replay {
        return None;
    }
    let path = std::env::temp_dir().join(format!(
        "refrint-throughput-{}-{}-{}.rft",
        s.name,
        effort.label(),
        std::process::id()
    ));
    builder_for(s, effort)
        .build()
        .expect("throughput scenarios are valid configurations")
        .capture(s.app, &path)
        .expect("trace capture to the temp dir succeeds");
    Some(path)
}

/// Runs one scenario once, untimed, and returns `(refs, execution_cycles)`:
/// the deterministic half of a [`Measurement`], exactly as the warm-up run
/// of [`measure`] computes it.
#[must_use]
pub fn simulate(s: &Scenario, effort: Effort) -> (u64, u64) {
    let trace_path = capture_trace(s, effort);
    let (refs, cycles, _) = run_once(s, effort, trace_path.as_deref());
    if let Some(p) = trace_path {
        let _ = std::fs::remove_file(p);
    }
    (refs, cycles)
}

/// Measures one scenario: one warm-up run, then `effort.repetitions()` timed
/// runs; reports the median refs/sec (robust against scheduler noise).
#[must_use]
pub fn measure(s: &Scenario, effort: Effort) -> Measurement {
    let trace_path = capture_trace(s, effort);
    let trace_path = trace_path.as_deref();

    let (refs, cycles, _) = run_once(s, effort, trace_path); // warm-up
    let mut rates: Vec<f64> = Vec::with_capacity(effort.repetitions());
    for _ in 0..effort.repetitions() {
        let (r, c, secs) = run_once(s, effort, trace_path);
        assert_eq!(r, refs, "scenario {} is not deterministic (refs)", s.name);
        assert_eq!(
            c, cycles,
            "scenario {} is not deterministic (cycles)",
            s.name
        );
        rates.push(r as f64 / secs.max(1e-9));
    }
    rates.sort_by(f64::total_cmp);
    let median = rates[rates.len() / 2];

    if let Some(p) = trace_path {
        let _ = std::fs::remove_file(p);
    }
    Measurement {
        name: s.name.to_owned(),
        refs,
        refs_per_sec: median,
        execution_cycles: cycles,
    }
}

/// Runs the whole suite, printing progress to stderr.
#[must_use]
pub fn run_suite(effort: Effort) -> Vec<Measurement> {
    scenarios()
        .iter()
        .map(|s| {
            eprintln!(
                "sim_throughput: measuring {} ({})...",
                s.name,
                effort.label()
            );
            let m = measure(s, effort);
            eprintln!(
                "sim_throughput: {:<16} {:>12.0} refs/sec ({} refs, {} cycles)",
                m.name, m.refs_per_sec, m.refs, m.execution_cycles
            );
            m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_are_unique_and_include_lu() {
        let names: Vec<&str> = scenarios().iter().map(|s| s.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario names");
        assert!(names.contains(&"lu"), "the gated lu scenario must exist");
    }

    #[test]
    fn effort_modes_round_trip() {
        for e in [Effort::Quick, Effort::Full] {
            assert_eq!(Effort::parse(e.label()), Some(e));
        }
        assert_eq!(Effort::parse("bogus"), None);
        assert!(Effort::Quick.refs_per_thread() < Effort::Full.refs_per_thread());
    }

    #[test]
    fn quick_runs_reproduce_the_committed_execution_cycles() {
        // The exact-cycle half of the CI perf gate, untimed: every scenario
        // must simulate the refs and cycles recorded in BENCH_SIM.json.
        let doc = crate::results::parse(include_str!("../../../BENCH_SIM.json"))
            .expect("BENCH_SIM.json parses");
        assert_eq!(doc.mode, Effort::Quick.label());
        let recorded: Vec<&str> = doc.metrics.iter().map(|m| m.name.as_str()).collect();
        let names: Vec<&str> = scenarios().iter().map(|s| s.name).collect();
        assert_eq!(
            recorded, names,
            "BENCH_SIM.json lists the suite's scenarios"
        );
        for (s, m) in scenarios().iter().zip(&doc.metrics) {
            assert_eq!(
                simulate(s, Effort::Quick),
                (m.refs, m.execution_cycles),
                "scenario {} (refs, execution_cycles)",
                s.name
            );
        }
    }
}
