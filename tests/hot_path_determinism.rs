//! Determinism regression tests for the optimized hot path.
//!
//! The throughput overhaul (flat cache sets, allocation-free victim
//! selection, bitmask coherence outcomes, devirtualized settlement, scratch
//! buffers) is only valid if it is *invisible* in the results: every run
//! must still be a pure function of its configuration. These tests pin that
//! down byte-for-byte — two independent simulations of every preset ×
//! policy must render identical JSON reports, recording spans must not
//! perturb any of them, and the parallel sweep runner must produce
//! identical output for worker counts 1, 2 and 8.
//!
//! Across commits, `every_output_matches_its_committed_digest` (in
//! `crates/bench/src/digests.rs`) compares the report of every preset ×
//! policy (and SRAM) × protocol with a digest in `BENCH_DIGESTS.json`, and
//! `quick_runs_reproduce_the_committed_execution_cycles` compares each perf
//! scenario's `execution_cycles` with `BENCH_SIM.json`: a change that moves
//! any output byte fails tier-1 even if it is internally self-consistent.

use refrint::experiment::ExperimentConfig;
use refrint::json;
use refrint::simulation::{ObsConfig, Simulation};
use refrint::sweep::SweepRunner;
use refrint_edram::policy::RefreshPolicy;
use refrint_workloads::apps::AppPreset;

/// Renders one small run of `app` under `policy` as a JSON report string,
/// optionally with the observability recorder enabled.
fn run_json_with(app: AppPreset, policy: RefreshPolicy, obs: Option<ObsConfig>) -> String {
    let mut builder = Simulation::builder()
        .edram_recommended()
        .policy(policy)
        .cores(4)
        .refs_per_thread(600)
        .seed(42);
    if let Some(obs) = obs {
        builder = builder.observability(obs);
    }
    let mut sim = builder
        .build()
        .expect("paper policies build on the recommended configuration");
    json::report(&sim.run(app).report)
}

/// Renders one small run of `app` under `policy` as a JSON report string.
fn run_json(app: AppPreset, policy: RefreshPolicy) -> String {
    run_json_with(app, policy, None)
}

#[test]
fn every_preset_and_policy_is_byte_identical_across_runs() {
    for app in AppPreset::ALL {
        for policy in RefreshPolicy::paper_sweep() {
            let first = run_json(app, policy);
            let second = run_json(app, policy);
            assert_eq!(
                first,
                second,
                "non-deterministic report for {} under {}",
                app.name(),
                policy.label()
            );
        }
    }
}

/// The observability invariant of `crates/obs`: recording observes without
/// perturbing. Every preset × policy report must be byte-identical with
/// the recorder at full sampling and with it disabled.
#[test]
fn observability_at_full_sampling_never_perturbs_reports() {
    for app in AppPreset::ALL {
        for policy in RefreshPolicy::paper_sweep() {
            let plain = run_json(app, policy);
            let observed = run_json_with(app, policy, Some(ObsConfig::full()));
            assert_eq!(
                plain,
                observed,
                "observability perturbed {} under {}",
                app.name(),
                policy.label()
            );
        }
    }
}

#[test]
fn sram_baseline_is_byte_identical_across_runs() {
    let run = || {
        let mut sim = Simulation::builder()
            .sram_baseline()
            .cores(4)
            .refs_per_thread(600)
            .seed(42)
            .build()
            .expect("the SRAM baseline builds");
        json::report(&sim.run(AppPreset::Lu).report)
    };
    assert_eq!(run(), run());
}

/// The span ring's contents are a pure function of the configuration:
/// two identically-seeded runs carry identical sampled spans, identical
/// per-subsystem event/cycle attribution, and identical overwrite counts
/// at every sampling rate. Host wall-time is the one field that may (and
/// will) differ, so it is excluded.
#[test]
fn span_ring_contents_are_deterministic_at_every_sampling_rate() {
    let summarize = |cfg: ObsConfig| {
        let mut sim = Simulation::builder()
            .edram_recommended()
            .cores(2)
            .refs_per_thread(600)
            .seed(42)
            .observability(cfg)
            .build()
            .expect("the recommended configuration builds");
        sim.run(AppPreset::Lu);
        sim.obs_summary()
    };
    for sample_every in [1, 2, 7, 64] {
        let cfg = ObsConfig::sampled(sample_every);
        let first = summarize(cfg);
        let second = summarize(cfg);
        assert_eq!(
            first.sampled, second.sampled,
            "ring contents diverged at sample_every = {sample_every}"
        );
        assert_eq!(first.overwritten, second.overwritten);
        for (a, b) in first.per_subsystem.iter().zip(&second.per_subsystem) {
            assert_eq!(a.subsystem, b.subsystem);
            assert_eq!(a.spans, b.spans, "{} event count", a.subsystem.name());
            assert_eq!(a.cycles, b.cycles, "{} cycles", a.subsystem.name());
        }
    }
}

/// Wraparound does not break determinism: with a ring far smaller than
/// the event stream the oldest spans are overwritten, and two seeded runs
/// still agree on exactly which spans survived.
#[test]
fn span_ring_wraparound_is_deterministic() {
    let summarize = || {
        let mut sim = Simulation::builder()
            .edram_recommended()
            .cores(2)
            .refs_per_thread(600)
            .seed(7)
            .observability(ObsConfig {
                sample_every: 1,
                ring_capacity: 64,
            })
            .build()
            .expect("the recommended configuration builds");
        sim.run(AppPreset::Fft);
        sim.obs_summary()
    };
    let first = summarize();
    let second = summarize();
    assert!(
        first.overwritten > 0,
        "a 64-slot ring at full sampling must wrap"
    );
    assert_eq!(first.sampled.len(), 64, "the ring stays at capacity");
    assert_eq!(first.sampled, second.sampled);
    assert_eq!(first.overwritten, second.overwritten);
}

#[test]
fn sweep_output_is_byte_identical_for_worker_counts_1_2_8() {
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
    let reference = json::sweep(
        &SweepRunner::new(config.clone())
            .workers(1)
            .run()
            .expect("sequential sweep succeeds"),
    );
    for workers in [2, 8] {
        let parallel = json::sweep(
            &SweepRunner::new(config.clone())
                .workers(workers)
                .run()
                .expect("parallel sweep succeeds"),
        );
        assert_eq!(
            reference, parallel,
            "sweep output diverged at {workers} workers"
        );
    }
}
