//! Tunable parameters of a synthetic multi-threaded application.

use std::fmt;

use crate::error::WorkloadError;

/// The parameters that place a synthetic application on the paper's two axes
/// (footprint vs. LLC size, visibility at the LLC) and fix its intensity.
///
/// Every thread owns a *private region* and all threads additionally share a
/// *shared region*; the generator draws each reference from the thread's hot
/// set (small, L1/L2-resident), its private cold region, or the shared
/// region, with the probabilities below. Large cold regions create long reuse
/// distances (Class 1); high sharing creates L3-visible state transitions
/// (Class 2); hot-set-dominated, unshared streams create low visibility
/// (Class 3).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadModel {
    /// Human-readable application name (e.g. `fft`).
    pub name: String,
    /// Number of threads (the paper uses 16).
    pub threads: usize,
    /// Data references emitted per thread.
    pub refs_per_thread: u64,
    /// Bytes of cold private data per thread.
    pub private_bytes_per_thread: u64,
    /// Bytes of shared data (one region for the whole application).
    pub shared_bytes: u64,
    /// Bytes of each thread's hot set (kept small enough to live in L1/L2).
    pub hot_bytes_per_thread: u64,
    /// Probability that a reference targets the hot set.
    pub hot_fraction: f64,
    /// Probability that a (non-hot) reference targets the shared region.
    pub shared_fraction: f64,
    /// Probability that a reference is a store.
    pub write_fraction: f64,
    /// Mean number of compute cycles between data references.
    pub mean_gap_cycles: u64,
    /// Spatial-locality run length: consecutive references walk sequential
    /// lines within the chosen region for this many references on average.
    pub stride_run: u64,
}

impl WorkloadModel {
    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidModel`] if any probability is outside
    /// `[0, 1]`, any size/count is zero, or the hot set is larger than the
    /// private region.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let fail = |reason: String| Err(WorkloadError::InvalidModel { reason });
        if self.threads == 0 {
            return fail("threads must be non-zero".into());
        }
        if self.refs_per_thread == 0 {
            return fail("refs_per_thread must be non-zero".into());
        }
        if self.private_bytes_per_thread < 64
            || self.shared_bytes < 64
            || self.hot_bytes_per_thread < 64
        {
            return fail("regions must be at least one cache line".into());
        }
        for (name, p) in [
            ("hot_fraction", self.hot_fraction),
            ("shared_fraction", self.shared_fraction),
            ("write_fraction", self.write_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return fail(format!("{name} = {p} is not a probability"));
            }
        }
        if self.mean_gap_cycles == 0 {
            return fail("mean_gap_cycles must be non-zero".into());
        }
        if self.stride_run == 0 {
            return fail("stride_run must be non-zero".into());
        }
        Ok(())
    }

    /// Total data footprint of the application in bytes
    /// (private regions + shared region; hot sets are carved out of the
    /// private regions).
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.private_bytes_per_thread * self.threads as u64 + self.shared_bytes
    }

    /// The largest compute gap the generator will ever emit
    /// (the geometric draw is truncated at four times the mean).
    #[must_use]
    pub fn max_gap_cycles(&self) -> u64 {
        self.mean_gap_cycles * 4
    }

    /// Scales the reference count per thread (used by quick tests and
    /// benches to shrink runs without changing the access pattern).
    #[must_use]
    pub fn with_refs_per_thread(mut self, refs: u64) -> Self {
        self.refs_per_thread = refs;
        self
    }

    /// Overrides the thread count (used by small-configuration tests).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl fmt::Display for WorkloadModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} threads, {:.1} MB footprint, {:.0}% writes)",
            self.name,
            self.threads,
            self.footprint_bytes() as f64 / (1024.0 * 1024.0),
            self.write_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_model() -> WorkloadModel {
        WorkloadModel {
            name: "test".into(),
            threads: 16,
            refs_per_thread: 1000,
            private_bytes_per_thread: 1024 * 1024,
            shared_bytes: 4 * 1024 * 1024,
            hot_bytes_per_thread: 16 * 1024,
            hot_fraction: 0.6,
            shared_fraction: 0.3,
            write_fraction: 0.3,
            mean_gap_cycles: 3,
            stride_run: 4,
        }
    }

    #[test]
    fn valid_model_passes() {
        assert!(valid_model().validate().is_ok());
    }

    #[test]
    fn footprint_sums_private_and_shared() {
        let m = valid_model();
        assert_eq!(m.footprint_bytes(), 16 * 1024 * 1024 + 4 * 1024 * 1024);
    }

    #[test]
    fn invalid_probabilities_rejected() {
        let mut m = valid_model();
        m.write_fraction = 1.5;
        assert!(m.validate().is_err());
        let mut m = valid_model();
        m.hot_fraction = -0.1;
        assert!(m.validate().is_err());
        let mut m = valid_model();
        m.shared_fraction = f64::NAN;
        assert!(m.validate().is_err());
    }

    #[test]
    fn zero_sizes_rejected() {
        let mut m = valid_model();
        m.threads = 0;
        assert!(m.validate().is_err());
        let mut m = valid_model();
        m.refs_per_thread = 0;
        assert!(m.validate().is_err());
        let mut m = valid_model();
        m.hot_bytes_per_thread = 0;
        assert!(m.validate().is_err());
        let mut m = valid_model();
        m.mean_gap_cycles = 0;
        assert!(m.validate().is_err());
        let mut m = valid_model();
        m.stride_run = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn builders_override_fields() {
        let m = valid_model().with_refs_per_thread(5).with_threads(4);
        assert_eq!(m.refs_per_thread, 5);
        assert_eq!(m.threads, 4);
        assert_eq!(m.max_gap_cycles(), 12);
    }

    #[test]
    fn display_mentions_name_and_footprint() {
        let s = valid_model().to_string();
        assert!(s.contains("test"));
        assert!(s.contains("MB"));
    }
}
