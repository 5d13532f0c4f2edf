//! Custom refresh policy, end to end: define a `RefreshPolicyModel` the
//! descriptor grammar cannot express, run it through `Simulation::builder()`,
//! then sweep it against the paper's built-in policies on the parallel
//! `SweepRunner` — and verify the parallel results are identical to the
//! sequential path.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use std::sync::Arc;

use refrint::experiment::ExperimentConfig;
use refrint::prelude::*;
use refrint::sweep::SweepProgress;
use refrint_engine::time::Cycle;

/// An "aging lease" policy: every valid line gets a flat budget of refresh
/// opportunities, but dirty lines age twice as slowly (each second
/// opportunity is free). This is not expressible as `WB(n,m)` because the
/// budget is consumed at different rates per kind, yet it plugs into the
/// simulator without touching any `refrint-edram` source.
#[derive(Debug)]
struct AgingLease {
    period: Cycle,
    budget: u64,
}

impl RefreshPolicyModel for AgingLease {
    fn label(&self) -> String {
        format!("aging-lease({})", self.budget)
    }

    fn opportunity(&self, touch: Cycle, k: u64) -> Cycle {
        touch + self.period * k
    }

    fn opportunity_period(&self) -> Cycle {
        self.period
    }

    fn action(&self, kind: LineKind, refreshes_so_far: u64) -> RefreshAction {
        match kind {
            LineKind::Invalid => RefreshAction::Skip,
            // Dirty lines age at half rate: budget lasts twice as long.
            LineKind::Dirty if refreshes_so_far < 2 * self.budget => RefreshAction::Refresh,
            LineKind::Dirty => RefreshAction::WriteBack,
            LineKind::Clean if refreshes_so_far < self.budget => RefreshAction::Refresh,
            LineKind::Clean => RefreshAction::Invalidate,
        }
    }
}

/// The factory that binds the lease to each cache's sentry period.
#[derive(Debug)]
struct AgingLeaseFactory {
    budget: u64,
}

impl PolicyFactory for AgingLeaseFactory {
    fn label(&self) -> String {
        format!("aging-lease({})", self.budget)
    }

    fn build(&self, binding: &PolicyBinding) -> Arc<dyn RefreshPolicyModel> {
        Arc::new(AgingLease {
            period: binding.sentry_period(),
            budget: self.budget,
        })
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let factory: Arc<dyn PolicyFactory> = Arc::new(AgingLeaseFactory { budget: 8 });

    // ---- 1. One run through the builder. ---------------------------------
    let mut baseline = Simulation::builder()
        .sram_baseline()
        .refs_per_thread(8_000)
        .build()?;
    let sram = baseline.run(AppPreset::Lu);

    let mut custom = Simulation::builder()
        .edram_recommended()
        .policy_model(Arc::clone(&factory))
        .refs_per_thread(8_000)
        .build()?;
    let outcome = custom.run(AppPreset::Lu);
    let rel = outcome.vs(&sram);
    println!("single run: lu on {}", outcome.config_label());
    println!(
        "  memory {:.2}x  system {:.2}x  time {:.2}x  refreshes {}",
        rel.memory_energy,
        rel.system_energy,
        rel.slowdown,
        outcome.total_refreshes()
    );
    println!();

    // ---- 2. Sweep it against the built-ins, in parallel. -----------------
    let config = ExperimentConfig {
        apps: vec![AppPreset::Fft, AppPreset::Lu, AppPreset::Blackscholes],
        retentions_us: vec![50],
        policies: vec![
            RefreshPolicy::edram_baseline(),
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid),
            RefreshPolicy::recommended(),
        ],
        refs_per_thread: 4_000,
        seed: 0xBEEF,
        cores: 16,
        models: vec![Arc::clone(&factory)],
        traces: Vec::new(),
        protocols: vec![CoherenceProtocol::Mesi],
        retention_profiles: vec![RetentionProfile::Uniform],
    };

    let workers = std::thread::available_parallelism()?.get().max(2);
    println!(
        "sweeping {} simulations on {} workers...",
        config.total_runs(),
        workers
    );
    let parallel = SweepRunner::new(config.clone())
        .workers(workers)
        .observer(|p: &SweepProgress| {
            eprintln!(
                "  [{}/{}] {} on {}",
                p.completed, p.total, p.app, p.config_label
            );
        })
        .run()?;

    // ---- 3. Determinism: the parallel merge equals the sequential path. ---
    let sequential = SweepRunner::new(config.clone()).sequential().run()?;
    assert_eq!(
        format!("{sequential:?}"),
        format!("{parallel:?}"),
        "parallel sweep must be identical to the sequential sweep"
    );
    println!("parallel results verified identical to the sequential path");
    println!();

    // ---- 4. Compare the custom policy against the built-ins. -------------
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>10}",
        "policy", "memory", "time", "refreshes", "dram"
    );
    let labels: Vec<String> = config
        .policies
        .iter()
        .map(RefreshPolicy::label)
        .chain(config.models.iter().map(|m| m.label()))
        .collect();
    for app in &config.apps {
        println!("-- {app}");
        let sram_report = parallel.sram_report(*app).expect("baseline present");
        for label in &labels {
            let report = parallel
                .edram_report_by_label(*app, 50, label)
                .expect("swept point present");
            println!(
                "{:<18} {:>9.2}x {:>9.2}x {:>12} {:>10}",
                label,
                report.memory_energy_vs(sram_report),
                report.slowdown_vs(sram_report),
                report.counts.total_refreshes(),
                report.counts.dram_accesses()
            );
        }
    }
    println!();
    println!(
        "The aging lease sits between R.valid (never discards) and the WB\n\
         budgets (flat ageing): dirty lines survive longer than clean ones,\n\
         so write-heavy working sets keep their L3 residency at roughly half\n\
         the refresh cost of R.valid."
    );
    Ok(())
}
