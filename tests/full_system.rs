//! End-to-end integration tests: the full 16-core system, SRAM vs eDRAM,
//! determinism, and the headline orderings of the paper.

use refrint::prelude::*;

fn run(cells: CellTech, policy: RefreshPolicy, app: AppPreset, scale: u64) -> refrint::SimReport {
    let mut builder = Simulation::builder().refs_per_thread(scale).seed(2024);
    builder = match cells {
        CellTech::Sram => builder.sram_baseline(),
        CellTech::Edram => builder
            .edram_recommended()
            .policy(policy)
            .retention(RetentionConfig::microseconds_50()),
    };
    let mut simulation = builder.build().expect("configuration is valid");
    simulation.run(app).report
}

#[test]
fn sram_baseline_never_refreshes_and_is_physical() {
    let report = run(
        CellTech::Sram,
        RefreshPolicy::recommended(),
        AppPreset::Lu,
        4_000,
    );
    assert_eq!(report.counts.total_refreshes(), 0);
    assert_eq!(report.breakdown.refresh_total(), 0.0);
    assert!(report.breakdown.is_physical());
    assert!(report.execution_cycles > 0);
    assert_eq!(report.counts.dl1_accesses, 16 * 4_000);
    assert!(report.counts.instructions >= report.counts.dl1_accesses);
}

#[test]
fn edram_saves_memory_energy_relative_to_sram() {
    for app in [AppPreset::Lu, AppPreset::Blackscholes] {
        let sram = run(CellTech::Sram, RefreshPolicy::recommended(), app, 6_000);
        let refrint = run(CellTech::Edram, RefreshPolicy::recommended(), app, 6_000);
        assert!(
            refrint.memory_energy_vs(&sram) < 1.0,
            "{app}: Refrint eDRAM must beat SRAM ({})",
            refrint.memory_energy_vs(&sram)
        );
        assert!(
            refrint.breakdown.on_chip_leakage() < sram.breakdown.on_chip_leakage(),
            "{app}: eDRAM leakage must shrink"
        );
    }
}

#[test]
fn refrint_beats_the_naive_edram_baseline() {
    for app in [AppPreset::Fft, AppPreset::Lu] {
        let sram = run(CellTech::Sram, RefreshPolicy::recommended(), app, 6_000);
        let naive = run(CellTech::Edram, RefreshPolicy::edram_baseline(), app, 6_000);
        let refrint = run(CellTech::Edram, RefreshPolicy::recommended(), app, 6_000);
        // Energy ordering (the paper's Figure 6.1/6.3 shape).
        assert!(
            refrint.memory_energy_vs(&sram) < naive.memory_energy_vs(&sram),
            "{app}: Refrint must save more memory energy than Periodic All"
        );
        // Execution-time ordering (the paper's Figure 6.4 shape).
        assert!(
            naive.slowdown_vs(&sram) > refrint.slowdown_vs(&sram),
            "{app}: Periodic All must be slower than Refrint"
        );
        // The naive baseline must show a visible slowdown; Refrint must not.
        assert!(
            naive.slowdown_vs(&sram) > 1.02,
            "{app}: Periodic All slowdown"
        );
        assert!(refrint.slowdown_vs(&sram) < 1.10, "{app}: Refrint slowdown");
        // Refresh counts: Periodic All refreshes every line, every period.
        assert!(naive.counts.total_refreshes() > refrint.counts.total_refreshes());
    }
}

#[test]
fn longer_retention_reduces_refresh_activity() {
    let barnes = |retention_us| {
        Simulation::builder()
            .edram_recommended()
            .retention_us(retention_us)
            .refs_per_thread(6_000)
            .build()
            .unwrap()
            .run(AppPreset::Barnes)
            .report
    };
    let short = barnes(50);
    let long = barnes(200);
    assert!(
        long.counts.total_refreshes() < short.counts.total_refreshes(),
        "200 us retention must refresh less than 50 us ({} vs {})",
        long.counts.total_refreshes(),
        short.counts.total_refreshes()
    );
    assert!(long.breakdown.refresh_total() < short.breakdown.refresh_total());
}

#[test]
fn runs_are_reproducible_across_system_instances() {
    let a = run(
        CellTech::Edram,
        RefreshPolicy::recommended(),
        AppPreset::Radix,
        3_000,
    );
    let b = run(
        CellTech::Edram,
        RefreshPolicy::recommended(),
        AppPreset::Radix,
        3_000,
    );
    assert_eq!(a.execution_cycles, b.execution_cycles);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.breakdown.memory_total(), b.breakdown.memory_total());
}

#[test]
fn different_seeds_change_the_interleaving_but_not_the_workload_size() {
    let radix = |seed| {
        Simulation::builder()
            .edram_recommended()
            .refs_per_thread(3_000)
            .seed(seed)
            .build()
            .unwrap()
            .run(AppPreset::Radix)
            .report
    };
    let a = radix(1);
    let b = radix(2);
    assert_eq!(a.counts.dl1_accesses, b.counts.dl1_accesses);
    assert_ne!(
        (a.execution_cycles, a.counts.l3_accesses),
        (b.execution_cycles, b.counts.l3_accesses),
        "different seeds should not produce identical runs"
    );
}

#[test]
fn every_application_preset_runs_on_the_full_chip() {
    for app in AppPreset::ALL {
        let report = run(CellTech::Edram, RefreshPolicy::recommended(), app, 1_200);
        assert!(report.execution_cycles > 0, "{app}");
        assert!(report.breakdown.is_physical(), "{app}");
        assert_eq!(report.workload, app.name(), "{app}");
    }
}

#[test]
fn instruction_l1_is_hot_under_refrint_but_refreshed_under_periodic() {
    let periodic = run(
        CellTech::Edram,
        RefreshPolicy::new(TimePolicy::Periodic, DataPolicy::Valid),
        AppPreset::Blackscholes,
        6_000,
    );
    let refrint = run(
        CellTech::Edram,
        RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid),
        AppPreset::Blackscholes,
        6_000,
    );
    assert!(
        periodic.counts.l1_refreshes > refrint.counts.l1_refreshes,
        "Periodic refreshes the (hot) L1s anyway; Refrint's sentries are recharged by accesses"
    );
}
