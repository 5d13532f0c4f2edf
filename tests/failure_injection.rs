//! Failure injection and edge cases: misconfigurations must be rejected with
//! useful errors, and degenerate-but-legal configurations must still run.

use refrint::prelude::*;
use refrint_edram::retention::RetentionConfig;
use refrint_engine::time::{Freq, SimDuration};
use refrint_workloads::model::WorkloadModel;

#[test]
fn retention_shorter_than_the_sentry_margin_is_rejected() {
    // A 10 us retention leaves no room for the 16K-cycle L3 sentry margin.
    let retention = RetentionConfig::new(SimDuration::from_micros(10), Freq::gigahertz(1)).unwrap();
    let config = SystemConfig::edram_recommended().with_retention(retention);
    let err = CmpSystem::new(config).expect_err("must be rejected");
    let message = err.to_string();
    assert!(
        message.contains("retention"),
        "unexpected message: {message}"
    );
}

#[test]
fn mismatched_bank_and_core_counts_are_rejected() {
    let mut config = SystemConfig::edram_recommended();
    config.l3_banks = 8;
    assert!(CmpSystem::new(config).is_err());
}

#[test]
fn zero_cores_is_rejected() {
    let mut config = SystemConfig::sram_baseline();
    config.cores = 0;
    config.l3_banks = 0;
    assert!(CmpSystem::new(config).is_err());
}

#[test]
fn sram_configuration_accepts_any_retention() {
    // For SRAM the retention/sentry constraint does not apply.
    let retention = RetentionConfig::new(SimDuration::from_micros(10), Freq::gigahertz(1)).unwrap();
    let config = SystemConfig::sram_baseline()
        .with_retention(retention)
        .with_scale(500);
    let mut system = CmpSystem::new(config).expect("SRAM ignores retention");
    let report = system.run_model(&AppPreset::Lu.model());
    assert_eq!(report.counts.total_refreshes(), 0);
}

#[test]
fn invalid_workload_models_are_rejected() {
    let mut model = AppPreset::Lu.model();
    model.write_fraction = 2.0;
    assert!(model.validate().is_err());
    model.write_fraction = 0.3;
    model.hot_bytes_per_thread = 0;
    assert!(model.validate().is_err());
}

#[test]
fn unknown_application_and_policy_labels_fail_to_parse() {
    assert!("quake3".parse::<AppPreset>().is_err());
    assert!("Z.WB(1,2)".parse::<RefreshPolicy>().is_err());
    assert!("R.WB(1;2)".parse::<RefreshPolicy>().is_err());
    // Sensible labels keep parsing.
    assert!("R.WB(32,32)".parse::<RefreshPolicy>().is_ok());
    assert!("fluidanimate".parse::<AppPreset>().is_ok());
}

#[test]
fn single_reference_per_thread_runs_to_completion() {
    let report = Simulation::builder()
        .edram_recommended()
        .refs_per_thread(1)
        .build()
        .unwrap()
        .run(AppPreset::Barnes)
        .report;
    assert_eq!(report.counts.dl1_accesses, 16);
    assert!(report.execution_cycles > 0);
    assert!(report.breakdown.is_physical());
}

#[test]
fn tiny_two_core_chip_still_maintains_inclusion_and_coherence() {
    let report = Simulation::builder()
        .edram_recommended()
        .cores(2)
        .refs_per_thread(4_000)
        .seed(5)
        .build()
        .unwrap()
        .run(AppPreset::Radix)
        .report;
    assert_eq!(report.counts.dl1_accesses, 2 * 4_000);
    // The directory saw traffic from both tiles and nothing went wrong.
    assert!(report.stats.get("coherence.reads") + report.stats.get("coherence.writes") > 0);
}

#[test]
fn workload_with_extreme_write_fraction_runs() {
    let model = WorkloadModel {
        name: "write-storm".into(),
        threads: 16,
        refs_per_thread: 2_000,
        private_bytes_per_thread: 256 * 1024,
        shared_bytes: 2 * 1024 * 1024,
        hot_bytes_per_thread: 8 * 1024,
        hot_fraction: 0.3,
        shared_fraction: 0.6,
        write_fraction: 1.0,
        mean_gap_cycles: 2,
        stride_run: 4,
    };
    let mut system = CmpSystem::new(SystemConfig::edram_recommended()).unwrap();
    let report = system.run_model(&model);
    assert!(
        report.counts.dram_writes > 0,
        "an all-store workload must write back data"
    );
    assert!(report.breakdown.is_physical());
}

#[test]
fn read_only_workload_produces_no_dirty_writebacks_on_sram() {
    let model = WorkloadModel {
        name: "read-only".into(),
        threads: 16,
        refs_per_thread: 2_000,
        private_bytes_per_thread: 256 * 1024,
        shared_bytes: 2 * 1024 * 1024,
        hot_bytes_per_thread: 8 * 1024,
        hot_fraction: 0.5,
        shared_fraction: 0.4,
        write_fraction: 0.0,
        mean_gap_cycles: 2,
        stride_run: 4,
    };
    let mut system = CmpSystem::new(SystemConfig::sram_baseline()).unwrap();
    let report = system.run_model(&model);
    assert_eq!(
        report.counts.dram_writes, 0,
        "nothing is ever dirty in a read-only run"
    );
}
