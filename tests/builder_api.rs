//! Integration tests for the unified `Simulation::builder()` API, custom
//! refresh-policy registration, and the parallel `SweepRunner`.

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
// Custom policy models
// ---------------------------------------------------------------------- //

/// A custom policy outside the descriptor grammar: refresh every valid line
/// but only `budget` times, then write back / invalidate — regardless of the
/// line's dirtiness the budget is shared ("flat lease").
#[derive(Debug)]
struct FlatLease {
    period: refrint_engine::time::Cycle,
    budget: u64,
}

impl RefreshPolicyModel for FlatLease {
    fn label(&self) -> String {
        format!("flat-lease({})", self.budget)
    }
    fn opportunity(
        &self,
        touch: refrint_engine::time::Cycle,
        k: u64,
    ) -> refrint_engine::time::Cycle {
        touch + self.period * k
    }
    fn opportunity_period(&self) -> refrint_engine::time::Cycle {
        self.period
    }
    fn action(&self, kind: LineKind, refreshes_so_far: u64) -> RefreshAction {
        match kind {
            LineKind::Invalid => RefreshAction::Skip,
            _ if refreshes_so_far < self.budget => RefreshAction::Refresh,
            LineKind::Dirty => RefreshAction::WriteBack,
            LineKind::Clean => RefreshAction::Invalidate,
        }
    }
}

#[derive(Debug)]
struct FlatLeaseFactory {
    budget: u64,
}

impl PolicyFactory for FlatLeaseFactory {
    fn label(&self) -> String {
        format!("flat-lease({})", self.budget)
    }
    fn build(&self, binding: &PolicyBinding) -> Arc<dyn RefreshPolicyModel> {
        Arc::new(FlatLease {
            period: binding.sentry_period(),
            budget: self.budget,
        })
    }
}

#[test]
fn custom_policy_registers_and_runs_through_the_builder() {
    let mut sim = Simulation::builder()
        .register_policy(Arc::new(FlatLeaseFactory { budget: 4 }))
        .policy_label("flat-lease(4)")
        .cores(4)
        .refs_per_thread(2_000)
        .build()
        .unwrap();
    assert_eq!(sim.config().label(), "eDRAM 50us flat-lease(4)");
    let outcome = sim.run(AppPreset::Lu);
    assert!(outcome.execution_cycles() > 0);
    assert!(outcome.total_refreshes() > 0);
    assert!(outcome.breakdown().is_physical());
}

#[test]
fn custom_policy_behaves_physically_between_valid_and_wb00() {
    // A lease of 0 is maximally aggressive (like WB(0,0)); a huge lease
    // approximates Valid. The custom model must land between the two
    // built-ins on refresh count, on the same workload.
    let run_with = |factory: Option<Arc<dyn PolicyFactory>>, policy: Option<RefreshPolicy>| {
        let mut builder = Simulation::builder()
            .cores(4)
            .refs_per_thread(3_000)
            .seed(5);
        if let Some(f) = factory {
            builder = builder.policy_model(f);
        }
        if let Some(p) = policy {
            builder = builder.policy(p);
        }
        builder.build().unwrap().run(AppPreset::Fft)
    };
    let valid = run_with(
        None,
        Some(RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid)),
    );
    let lease = run_with(Some(Arc::new(FlatLeaseFactory { budget: 2 })), None);
    let wb00 = run_with(
        None,
        Some(RefreshPolicy::new(
            TimePolicy::Refrint,
            DataPolicy::write_back(0, 0),
        )),
    );
    assert!(
        lease.report.counts.l3_refreshes <= valid.report.counts.l3_refreshes,
        "a 2-opportunity lease must refresh no more than Valid"
    );
    assert!(
        wb00.report.counts.l3_refreshes <= lease.report.counts.l3_refreshes,
        "WB(0,0) must refresh no more than the lease"
    );
}

#[test]
fn duplicate_custom_registration_fails_at_build() {
    let err = Simulation::builder()
        .register_policy(Arc::new(FlatLeaseFactory { budget: 4 }))
        .register_policy(Arc::new(FlatLeaseFactory { budget: 4 }))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("already registered"), "{err}");
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
        models: vec![Arc::new(FlatLeaseFactory { budget: 3 })],
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
fn sweep_runner_streams_progress_and_covers_custom_models() {
    let cfg = sweep_config();
    let total = cfg.total_runs();
    // 2 apps x (1 sram + 2 retentions x (3 policies + 1 model)) = 2 x 9.
    assert_eq!(total, 18);
    let events = Arc::new(AtomicUsize::new(0));
    let events_in_observer = Arc::clone(&events);
    let max_completed = Arc::new(AtomicUsize::new(0));
    let max_in_observer = Arc::clone(&max_completed);
    let results = SweepRunner::new(cfg)
        .workers(3)
        .observer(move |p: &SweepProgress| {
            events_in_observer.fetch_add(1, Ordering::Relaxed);
            max_in_observer.fetch_max(p.completed, Ordering::Relaxed);
            assert_eq!(p.total, 18);
        })
        .run()
        .unwrap();
    assert_eq!(events.load(Ordering::Relaxed), total);
    assert_eq!(max_completed.load(Ordering::Relaxed), total);

    // The custom model's reports are in the results, keyed by label.
    assert_eq!(results.custom_labels, vec!["flat-lease(3)".to_owned()]);
    for app in [AppPreset::Fft, AppPreset::Blackscholes] {
        for retention in [50, 100] {
            let report = results
                .edram_report_by_label(app, retention, "flat-lease(3)")
                .expect("custom model report present");
            assert!(report.execution_cycles > 0);
            assert!(report.breakdown.is_physical());
        }
    }
}
