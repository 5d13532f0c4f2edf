//! Cross-crate trace tests: capture→replay determinism (the subsystem's
//! core guarantee) and round-trip properties over randomized workloads
//! from the in-repo deterministic case generator.

use refrint::prelude::*;
use refrint_engine::rng::DeterministicRng;
use refrint_trace::{capture_model, TraceWriter};
use refrint_workloads::model::WorkloadModel;
use refrint_workloads::trace::MemRef;
use refrint_workloads::ThreadStream;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("refrint-it-{}-{name}", std::process::id()))
}

/// Recording an `AppPreset` run and replaying it through
/// `Simulation::builder().trace(...)` reproduces the live `SimReport` bit
/// for bit — for two presets on two refresh policies (plus SRAM).
#[test]
fn capture_then_replay_is_bit_identical_across_presets_and_policies() {
    type BaseBuilder = fn() -> SimulationBuilder;
    let configs: [(&str, BaseBuilder); 3] = [
        ("recommended", || Simulation::builder().edram_recommended()),
        ("periodic-all", || Simulation::builder().edram_baseline()),
        ("sram", || Simulation::builder().sram_baseline()),
    ];
    for app in [AppPreset::Lu, AppPreset::Blackscholes] {
        for (label, base) in configs {
            let build = || {
                base()
                    .cores(2)
                    .refs_per_thread(1_000)
                    .seed(17)
                    .build()
                    .unwrap()
            };
            let path = tmp(&format!("{app}-{label}.rft"));
            build().capture(app, &path).unwrap();

            let live = build().run(app);
            let mut replayer = base()
                .refs_per_thread(1_000)
                .seed(17)
                .trace(&path)
                .build()
                .unwrap();
            assert_eq!(replayer.config().cores, 2, "{app}/{label}");
            let replayed = replayer.replay().unwrap();
            assert_eq!(
                format!("{:?}", live.report),
                format!("{:?}", replayed.report),
                "{app} on {label} replayed differently"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A randomized workload model drawn from the deterministic case generator.
fn arbitrary_model(rng: &mut DeterministicRng, case: u64) -> WorkloadModel {
    WorkloadModel {
        name: format!("prop-{case}"),
        threads: 1 + rng.below(4) as usize,
        refs_per_thread: 50 + rng.below(300),
        private_bytes_per_thread: 64 << rng.below(12),
        shared_bytes: 64 << rng.below(14),
        hot_bytes_per_thread: 64 << rng.below(8),
        hot_fraction: rng.unit(),
        shared_fraction: rng.unit(),
        write_fraction: rng.unit(),
        mean_gap_cycles: 1 + rng.below(20),
        stride_run: 1 + rng.below(32),
    }
}

fn streams_of(model: &WorkloadModel, seed: u64) -> Vec<Vec<MemRef>> {
    (0..model.threads)
        .map(|t| ThreadStream::new(model, t, seed).collect())
        .collect()
}

fn decode_all(trace: &TraceFile) -> Vec<Vec<MemRef>> {
    (0..trace.meta().threads)
        .map(|t| {
            trace
                .thread(t)
                .unwrap()
                .map(|r| r.expect("trace decodes"))
                .collect()
        })
        .collect()
}

/// Traces reproduce arbitrary generated streams exactly, over a few dozen
/// randomized workloads.
#[test]
fn traces_round_trip_arbitrary_workloads() {
    for case in 0..48u64 {
        let mut rng = DeterministicRng::from_seed(0x7ACE).fork(case);
        let model = arbitrary_model(&mut rng, case);
        let seed = rng.next_u64();
        let expected = streams_of(&model, seed);
        let meta = TraceMeta::new(&model.name, model.threads, seed);

        let mut binary = TraceWriter::new(Vec::new(), &meta).unwrap();
        capture_model(&model, seed, &mut binary).unwrap();
        let binary = TraceFile::from_bytes(binary.into_inner().unwrap()).unwrap();
        assert_eq!(binary.meta(), &meta, "case {case}");
        assert_eq!(decode_all(&binary), expected, "case {case}");
    }
}

/// Malformed files yield typed errors with byte offsets, never panics.
#[test]
fn malformed_traces_yield_typed_errors() {
    // Wrong magic.
    let err = TraceFile::from_bytes(b"GARBAGE!".to_vec()).unwrap_err();
    assert!(
        matches!(err, TraceError::BadMagic { offset: 0, .. }),
        "{err}"
    );

    // Version from the future.
    let model = AppPreset::Lu
        .model()
        .with_threads(1)
        .with_refs_per_thread(10);
    let meta = TraceMeta::new("lu", 1, 0);
    let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
    capture_model(&model, 0, &mut w).unwrap();
    let good = w.into_inner().unwrap();
    let mut versioned = good.clone();
    versioned[4] = 0xff;
    let err = TraceFile::from_bytes(versioned).unwrap_err();
    assert!(
        matches!(
            err,
            TraceError::UnsupportedVersion {
                offset: 4,
                found: 0xff,
                ..
            }
        ),
        "{err}"
    );

    // Truncated at every prefix length: always a typed error (or a valid
    // shorter parse failing validation), never a panic.
    for cut in 0..good.len() {
        match TraceFile::from_bytes(good[..cut].to_vec()) {
            Err(
                TraceError::Truncated { .. }
                | TraceError::Corrupt { .. }
                | TraceError::BadMagic { .. }
                | TraceError::UnsupportedVersion { .. },
            ) => {}
            Err(other) => panic!("cut at {cut}: unexpected error {other}"),
            Ok(trace) => {
                trace.validate().unwrap_err();
            }
        }
    }
}
