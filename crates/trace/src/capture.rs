//! Capturing synthetic workloads to traces.

use refrint_workloads::generator::ThreadStream;
use refrint_workloads::model::WorkloadModel;

use std::io::Write;

use crate::error::TraceError;
use crate::writer::TraceWriter;

/// Streams every thread of `model` (seeded from `seed`, exactly as the
/// simulator would generate them) into `writer` and finishes the trace.
/// Returns the number of references written.
///
/// The writer's header must declare `model.threads` threads; pair it with
/// a [`crate::TraceMeta`] built from the same model.
///
/// # Errors
///
/// [`TraceError::InvalidMeta`] if the model fails validation or its thread
/// count disagrees with the writer's; otherwise whatever the writer
/// reports.
pub fn capture_model<W: Write>(
    model: &WorkloadModel,
    seed: u64,
    writer: &mut TraceWriter<W>,
) -> Result<u64, TraceError> {
    model.validate().map_err(|e| TraceError::InvalidMeta {
        reason: e.to_string(),
    })?;
    let mut records = 0u64;
    for thread in 0..model.threads {
        writer.begin_thread(thread)?;
        for r in ThreadStream::new(model, thread, seed) {
            writer.record(&r)?;
            records += 1;
        }
        writer.end_thread()?;
    }
    writer.finish()?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::TraceFile;
    use crate::TraceMeta;
    use refrint_workloads::apps::AppPreset;

    fn small_model() -> WorkloadModel {
        AppPreset::Lu
            .model()
            .with_threads(3)
            .with_refs_per_thread(250)
    }

    #[test]
    fn captured_traces_replay_the_generator_exactly() {
        let model = small_model();
        let meta = TraceMeta::new(&model.name, model.threads, 11);
        let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
        let records = capture_model(&model, 11, &mut w).unwrap();
        assert_eq!(records, 3 * 250);
        let trace = TraceFile::from_bytes(w.into_inner().unwrap()).unwrap();
        for t in 0..model.threads {
            let from_trace: Vec<_> = trace.thread(t).unwrap().map(Result::unwrap).collect();
            let from_generator: Vec<_> = ThreadStream::new(&model, t, 11).collect();
            assert_eq!(from_trace, from_generator, "thread {t}");
        }
    }

    #[test]
    fn invalid_models_are_rejected() {
        let mut model = small_model();
        model.refs_per_thread = 0;
        let meta = TraceMeta::new("bad", 3, 0);
        let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
        let err = capture_model(&model, 0, &mut w).unwrap_err();
        assert!(matches!(err, TraceError::InvalidMeta { .. }), "{err}");
    }
}
