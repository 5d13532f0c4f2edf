//! The oracle cross-check: one small point per workload, at the workload
//! seed, run through both the simulator and `refrint-oracle` and diffed
//! field by field. It runs outside every timed region; a divergence is a
//! failed operation.

use refrint::prelude::*;
use refrint_oracle::{diff_reports, OracleSystem};

use crate::Ctx;

/// The small point checked for `workload`: its app on its kind of chip.
fn point(workload: &str, seed: u64) -> (SimulationBuilder, AppPreset) {
    let base = Simulation::builder()
        .cores(16)
        .seed(seed)
        .refs_per_thread(300);
    match workload {
        "long_run" => (base.edram_recommended(), AppPreset::Fft),
        "sweep_small" => (
            base.edram_recommended()
                .policy_label("R.valid")
                .protocol(CoherenceProtocol::Dragon),
            AppPreset::Lu,
        ),
        _ => (base.edram_recommended(), AppPreset::Blackscholes),
    }
}

pub fn cross_check(ctx: &mut Ctx, workload: &str) {
    let (builder, app) = point(workload, ctx.seed);
    let outcome = builder
        .build()
        .map_err(|e| e.to_string())
        .and_then(|mut sim| {
            let cfg = sim.config().clone();
            let simulated = sim.run(app).report;
            let oracle = OracleSystem::new(cfg)
                .and_then(|mut o| o.run_model(&app.model()))
                .map_err(|e| e.to_string())?;
            Ok((oracle, simulated))
        });
    match outcome {
        Ok((oracle, simulated)) => {
            let diffs = diff_reports(&oracle, &simulated);
            ctx.op(diffs.is_empty(), || {
                format!("oracle diverges from the simulator on {app:?}: {diffs:?}")
            });
            println!(
                "# oracle cross-check: {} on `{}`, {} cycles, {} field diffs",
                app.name(),
                simulated.config_label,
                simulated.execution_cycles,
                diffs.len()
            );
            ctx.check_value("oracle.execution_cycles", simulated.execution_cycles);
        }
        Err(e) => ctx.op(false, || format!("oracle cross-check could not run: {e}")),
    }
}
