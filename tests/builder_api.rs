//! Integration tests for the unified `Simulation::builder()` API and the
//! parallel `SweepRunner`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use refrint::experiment::ExperimentConfig;
use refrint::prelude::*;
use refrint::sweep::SweepProgress;

// ---------------------------------------------------------------------- //
// Builder validation
// ---------------------------------------------------------------------- //

#[test]
fn builder_rejects_zero_cores_with_a_typed_error() {
    let err = Simulation::builder().cores(0).build().unwrap_err();
    assert_eq!(err, BuildError::ZeroCores);
}

#[test]
fn builder_gives_every_core_one_l3_bank() {
    // No builder input sets the bank count apart from the core count, so
    // `SystemConfig`'s bank/core rule cannot fire on a built simulation.
    for cores in [1, 4, 16] {
        let config = Simulation::builder().cores(cores).build_config().unwrap();
        assert_eq!((config.cores, config.l3_banks), (cores, cores));
    }
    let config = Simulation::builder().build_config().unwrap();
    assert_eq!(config.l3_banks, config.cores);
}

#[test]
fn builder_rejects_refresh_settings_on_sram() {
    let err = Simulation::builder()
        .sram_baseline()
        .retention(RetentionConfig::microseconds_100())
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::SramWithRefreshSettings {
            setting: "retention"
        }
    );

    let err = Simulation::builder()
        .sram_baseline()
        .policy(RefreshPolicy::recommended())
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::SramWithRefreshSettings { setting: "policy" }
    );
}

#[test]
fn builder_errors_are_real_errors() {
    let err = Simulation::builder().cores(0).build().unwrap_err();
    let as_dyn: &dyn std::error::Error = &err;
    assert!(!as_dyn.to_string().is_empty());
    // And they convert into the crate-level error type.
    let refrint_err: refrint::RefrintError = err.into();
    assert!(refrint_err.to_string().contains("core"));
}

#[test]
fn builder_replaces_manual_config_poking() {
    // The fluent form and the legacy SystemConfig form describe the same
    // system.
    let fluent = Simulation::builder()
        .edram_recommended()
        .cores(4)
        .retention_us(200)
        .seed(11)
        .refs_per_thread(1_000)
        .build_config()
        .unwrap();
    let legacy = SystemConfig::edram_recommended()
        .with_cores(4)
        .with_retention(RetentionConfig::microseconds_200())
        .with_seed(11)
        .with_scale(1_000);
    assert_eq!(fluent.label(), legacy.label());
    assert_eq!(fluent.cores, legacy.cores);
    assert_eq!(fluent.seed, legacy.seed);
    assert_eq!(fluent.refs_per_thread, legacy.refs_per_thread);
}

// ---------------------------------------------------------------------- //
// Parallel sweep runner
// ---------------------------------------------------------------------- //

fn sweep_config() -> ExperimentConfig {
    ExperimentConfig {
        apps: vec![AppPreset::Fft, AppPreset::Blackscholes],
        retentions_us: vec![50, 100],
        policies: vec![
            RefreshPolicy::edram_baseline(),
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid),
            RefreshPolicy::recommended(),
        ],
        refs_per_thread: 1_000,
        seed: 21,
        cores: 4,
        traces: Vec::new(),
        protocols: vec![CoherenceProtocol::Mesi],
        retention_profiles: vec![RetentionProfile::Uniform],
    }
}

#[test]
fn parallel_sweep_is_byte_identical_to_the_sequential_path() {
    let sequential = SweepRunner::new(sweep_config())
        .sequential()
        .run()
        .expect("sequential sweep runs");
    for workers in [2, 4] {
        let parallel = SweepRunner::new(sweep_config())
            .workers(workers)
            .run()
            .expect("parallel sweep runs");
        // Byte-identical: the full Debug serialisation (every report, every
        // stat, every float) must match exactly.
        assert_eq!(
            format!("{sequential:?}"),
            format!("{parallel:?}"),
            "results diverged with {workers} workers"
        );
    }
}

#[test]
fn sweep_runner_streams_progress_for_every_point() {
    let cfg = sweep_config();
    let total = cfg.total_runs();
    // 2 apps x (1 sram + 2 retentions x 3 policies) = 2 x 7.
    assert_eq!(total, 14);
    let events = Arc::new(AtomicUsize::new(0));
    let events_in_observer = Arc::clone(&events);
    let max_completed = Arc::new(AtomicUsize::new(0));
    let max_in_observer = Arc::clone(&max_completed);
    let results = SweepRunner::new(cfg)
        .workers(3)
        .observer(move |p: &SweepProgress| {
            events_in_observer.fetch_add(1, Ordering::Relaxed);
            max_in_observer.fetch_max(p.completed, Ordering::Relaxed);
            assert_eq!(p.total, 14);
        })
        .run()
        .unwrap();
    assert_eq!(events.load(Ordering::Relaxed), total);
    assert_eq!(max_completed.load(Ordering::Relaxed), total);

    // Every point's report is in the results, keyed by label.
    for app in [AppPreset::Fft, AppPreset::Blackscholes] {
        for retention in [50, 100] {
            let report = results
                .edram_report_by_label(app, retention, "R.valid")
                .expect("every eDRAM point's report is present");
            assert!(report.execution_cycles > 0);
            assert!(report.breakdown.is_physical());
        }
    }
}
