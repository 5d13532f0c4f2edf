//! The perf suite's scenarios and the simulated cycles each one takes.
//!
//! A fixed set of scenarios (synthetic presets across the paper's three
//! application classes, an SRAM baseline, the Periodic-All burst path, and
//! a trace replay) each simulate a known number of references in a known
//! number of cycles. The simulated clock is deterministic, so those pairs
//! are the same on every machine: `perfgate --record` writes them to
//! `BENCH_SIM.json`, and a unit test here pins every scenario to them.
//!
//! Nothing here is timed. `scripts/perf_ab.sh` times the same six
//! scenarios, ten times longer, through `refrint-cli` in alternating
//! same-host pairs, and perfbench times the layers (`docs/perf.md`).

use refrint::simulation::{Simulation, SimulationBuilder};
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

/// References per thread each scenario simulates.
pub const REFS_PER_THREAD: u64 = 2_000;

/// One scenario's deterministic result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measurement {
    /// Scenario name (JSON key).
    pub name: String,
    /// Data references processed.
    pub refs: u64,
    /// Simulated execution cycles.
    pub execution_cycles: u64,
}

fn builder_for(s: &Scenario) -> SimulationBuilder {
    let b = Simulation::builder()
        .cores(16)
        .seed(7)
        .refs_per_thread(REFS_PER_THREAD);
    match s.chip {
        Chip::Sram => b.sram_baseline(),
        Chip::EdramRecommended => b.edram_recommended(),
        Chip::EdramPeriodicAll => b.edram_baseline(),
    }
}

/// Runs one scenario; a replay scenario first captures its trace to a
/// temporary file.
#[must_use]
pub fn simulate(s: &Scenario) -> Measurement {
    const VALID: &str = "suite scenarios are valid configurations";
    let outcome = match s.driver {
        Driver::Synthetic => builder_for(s).build().expect(VALID).run(s.app),
        Driver::Replay => {
            let path = std::env::temp_dir().join(format!(
                "refrint-throughput-{}-{}.rft",
                s.name,
                std::process::id()
            ));
            builder_for(s)
                .build()
                .expect(VALID)
                .capture(s.app, &path)
                .expect("trace capture to the temp dir succeeds");
            let outcome = builder_for(s)
                .trace(&path)
                .build()
                .expect(VALID)
                .replay()
                .expect("captured trace replays cleanly");
            let _ = std::fs::remove_file(&path);
            outcome
        }
    };
    Measurement {
        name: s.name.to_owned(),
        refs: outcome.report.counts.dl1_accesses,
        execution_cycles: outcome.report.execution_cycles,
    }
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
        assert!(names.contains(&"lu"), "the lu scenario must exist");
    }

    #[test]
    fn quick_runs_reproduce_the_committed_execution_cycles() {
        // Every scenario must simulate the refs and cycles recorded in
        // BENCH_SIM.json, so a change that moves simulated time fails here.
        let recorded = crate::results::parse(include_str!("../../../BENCH_SIM.json"))
            .expect("BENCH_SIM.json parses");
        let names: Vec<&str> = recorded.iter().map(|m| m.name.as_str()).collect();
        let suite: Vec<&str> = scenarios().iter().map(|s| s.name).collect();
        assert_eq!(names, suite, "BENCH_SIM.json lists the suite's scenarios");
        for (s, m) in scenarios().iter().zip(&recorded) {
            assert_eq!(
                &simulate(s),
                m,
                "scenario {} (refs, execution_cycles)",
                s.name
            );
        }
    }
}
