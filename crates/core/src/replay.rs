//! Trace capture and replay glue between `refrint-trace` and the system
//! simulator.
//!
//! Capture writes exactly the reference streams [`CmpSystem::run_model`]
//! would feed the system (threads pinned to the core count, length scaled
//! by the configured override), so replaying the trace through the same
//! configuration reproduces the live run's [`SimReport`] bit for bit —
//! the common [`CmpSystem::run_streams`] driver guarantees the same
//! interleaving for the same per-thread streams.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

use refrint_trace::{capture_model, ThreadRefs, TraceError, TraceFile, TraceMeta, TraceWriter};
use refrint_workloads::model::WorkloadModel;
use refrint_workloads::trace::MemRef;

use crate::config::SystemConfig;
use crate::error::RefrintError;
use crate::report::SimReport;
use crate::system::CmpSystem;

/// Captures the streams `config` would run for `model` into a trace at
/// `path`. Returns the written trace's metadata.
///
/// # Errors
///
/// [`RefrintError::InvalidConfig`] for an invalid configuration,
/// [`RefrintError::Trace`] for trace-level failures (I/O, invalid model).
pub fn capture_to_path(
    config: &SystemConfig,
    model: &WorkloadModel,
    path: impl AsRef<Path>,
) -> Result<TraceMeta, RefrintError> {
    config.validate()?;
    let model = config.adjusted_model(model);
    let meta = TraceMeta::new(&model.name, model.threads, config.seed);
    let mut writer = TraceWriter::create(path, &meta)?;
    capture_model(&model, config.seed, &mut writer)?;
    Ok(meta)
}

/// A per-thread trace cursor that parks the first decode error in a shared
/// cell (ending its stream) instead of panicking; [`replay`] checks the
/// cell after the run and turns a poisoned run into an error.
struct CheckedRefs {
    inner: ThreadRefs,
    error: Rc<RefCell<Option<TraceError>>>,
}

impl Iterator for CheckedRefs {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        match self.inner.next() {
            Some(Ok(r)) => Some(r),
            Some(Err(e)) => {
                self.error.borrow_mut().get_or_insert(e);
                None
            }
            None => None,
        }
    }
}

/// Replays an opened trace through `system` and returns the report — for a
/// trace captured from the same configuration, identical to the live run's.
///
/// # Errors
///
/// [`RefrintError::Trace`] if the trace's thread count differs from the
/// system's core count, or if any record fails to decode (the partial run
/// is discarded).
pub fn replay(system: &mut CmpSystem, trace: &TraceFile) -> Result<SimReport, RefrintError> {
    let meta = trace.meta().clone();
    let cores = system.config().cores;
    if meta.threads != cores {
        return Err(RefrintError::Trace {
            reason: format!(
                "trace `{}` has {} threads but the system has {cores} cores \
                 (configure `.cores({})` to replay it)",
                meta.workload, meta.threads, meta.threads
            ),
        });
    }
    let error: Rc<RefCell<Option<TraceError>>> = Rc::new(RefCell::new(None));
    let streams = (0..meta.threads)
        .map(|t| {
            Ok(CheckedRefs {
                inner: trace.thread(t)?,
                error: Rc::clone(&error),
            })
        })
        .collect::<Result<Vec<_>, TraceError>>()?;
    let report = system.run_streams(&meta.workload, streams)?;
    if let Some(e) = error.borrow_mut().take() {
        return Err(e.into());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint_workloads::apps::AppPreset;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("refrint-replay-{}-{name}", std::process::id()))
    }

    fn config() -> SystemConfig {
        SystemConfig::edram_recommended()
            .with_cores(2)
            .with_scale(800)
            .with_seed(13)
    }

    #[test]
    fn capture_then_replay_reproduces_the_live_report() {
        let path = tmp("roundtrip.rft");
        let meta = capture_to_path(&config(), &AppPreset::Lu.model(), &path).unwrap();
        assert_eq!(meta.threads, 2);
        assert_eq!(meta.workload, "lu");

        let live = CmpSystem::new(config())
            .unwrap()
            .run_model(&AppPreset::Lu.model());
        let trace = TraceFile::open(&path).unwrap();
        let replayed = replay(&mut CmpSystem::new(config()).unwrap(), &trace).unwrap();
        assert_eq!(format!("{live:?}"), format!("{replayed:?}"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn thread_core_mismatch_is_a_typed_error() {
        let path = tmp("mismatch.rft");
        capture_to_path(&config(), &AppPreset::Fft.model(), &path).unwrap();
        let trace = TraceFile::open(&path).unwrap();
        let four_cores = SystemConfig::edram_recommended().with_cores(4);
        let err = replay(&mut CmpSystem::new(four_cores).unwrap(), &trace).unwrap_err();
        match err {
            RefrintError::Trace { reason } => {
                assert!(reason.contains("2 threads"), "{reason}");
                assert!(reason.contains("4 cores"), "{reason}");
            }
            other => panic!("unexpected error {other}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
