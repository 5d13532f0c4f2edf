//! Named application presets.
//!
//! One preset per application of the paper's Table 5.3, with parameters
//! chosen so that each lands in the class the paper reports in Table 6.1:
//!
//! * **Class 1** (large footprint, high visibility): FFT, FMM, Cholesky,
//!   Fluidanimate — footprints larger than the 16 MB L3, streaming-like
//!   reuse, moderate sharing.
//! * **Class 2** (small footprint, high visibility): Barnes, LU, Radix,
//!   Radiosity — footprints that fit in the L3 but with substantial
//!   sharing/migratory data, so the L3 sees dirty→shared transitions.
//! * **Class 3** (small footprint, low visibility): Blackscholes,
//!   Streamcluster, Raytrace — per-thread hot sets that live in the L1/L2,
//!   little sharing, so the L3 sees almost nothing after warm-up.
//!
//! These are synthetic analogues, not the original benchmarks; see the
//! crate-level documentation for the substitution argument.

use std::fmt;
use std::str::FromStr;

use crate::classify::AppClass;
use crate::error::WorkloadError;
use crate::model::WorkloadModel;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// The eleven applications of the paper's Table 5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppPreset {
    /// SPLASH-2 FFT (2^20 points) — Class 1.
    Fft,
    /// SPLASH-2 LU (512×512) — Class 2.
    Lu,
    /// SPLASH-2 Radix (2M keys) — Class 2.
    Radix,
    /// SPLASH-2 Cholesky (tk29.O) — Class 1.
    Cholesky,
    /// SPLASH-2 Barnes (16K particles) — Class 2.
    Barnes,
    /// SPLASH-2 FMM (16K particles) — Class 1.
    Fmm,
    /// SPLASH-2 Radiosity (batch) — Class 2.
    Radiosity,
    /// SPLASH-2 Raytrace (teapot) — Class 3.
    Raytrace,
    /// PARSEC Streamcluster (simsmall) — Class 3.
    Streamcluster,
    /// PARSEC Blackscholes (simmedium) — Class 3.
    Blackscholes,
    /// PARSEC Fluidanimate (simsmall) — Class 1.
    Fluidanimate,
}

impl AppPreset {
    /// All presets, in the order of Table 5.3.
    pub const ALL: [AppPreset; 11] = [
        AppPreset::Fft,
        AppPreset::Lu,
        AppPreset::Radix,
        AppPreset::Cholesky,
        AppPreset::Barnes,
        AppPreset::Fmm,
        AppPreset::Radiosity,
        AppPreset::Raytrace,
        AppPreset::Streamcluster,
        AppPreset::Blackscholes,
        AppPreset::Fluidanimate,
    ];

    /// The application's lowercase name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            AppPreset::Fft => "fft",
            AppPreset::Lu => "lu",
            AppPreset::Radix => "radix",
            AppPreset::Cholesky => "cholesky",
            AppPreset::Barnes => "barnes",
            AppPreset::Fmm => "fmm",
            AppPreset::Radiosity => "radiosity",
            AppPreset::Raytrace => "raytrace",
            AppPreset::Streamcluster => "streamcluster",
            AppPreset::Blackscholes => "blackscholes",
            AppPreset::Fluidanimate => "fluidanimate",
        }
    }

    /// The class the paper bins this application into (Table 6.1).
    #[must_use]
    pub const fn paper_class(self) -> AppClass {
        match self {
            AppPreset::Fft | AppPreset::Fmm | AppPreset::Cholesky | AppPreset::Fluidanimate => {
                AppClass::Class1
            }
            AppPreset::Barnes | AppPreset::Lu | AppPreset::Radix | AppPreset::Radiosity => {
                AppClass::Class2
            }
            AppPreset::Blackscholes | AppPreset::Streamcluster | AppPreset::Raytrace => {
                AppClass::Class3
            }
        }
    }

    /// The presets belonging to `class`, in Table 5.3 order.
    #[must_use]
    pub fn in_class(class: AppClass) -> Vec<AppPreset> {
        Self::ALL
            .iter()
            .copied()
            .filter(|a| a.paper_class() == class)
            .collect()
    }

    /// The synthetic workload model for this application.
    ///
    /// The default reference count per thread is sized so a run covers
    /// several 50 µs retention periods at 1 GHz; scale it with
    /// [`WorkloadModel::with_refs_per_thread`] for quick tests.
    #[must_use]
    pub fn model(self) -> WorkloadModel {
        let base = WorkloadModel {
            name: self.name().to_owned(),
            threads: 16,
            refs_per_thread: 60_000,
            private_bytes_per_thread: MB,
            shared_bytes: 4 * MB,
            hot_bytes_per_thread: 16 * KB,
            hot_fraction: 0.5,
            shared_fraction: 0.3,
            write_fraction: 0.3,
            mean_gap_cycles: 3,
            stride_run: 4,
        };
        match self {
            // ---- Class 1: footprint well beyond the 16 MB L3, long reuse
            // distances, streaming behaviour, moderate sharing.
            AppPreset::Fft => WorkloadModel {
                private_bytes_per_thread: 2 * MB,
                shared_bytes: 24 * MB,
                hot_fraction: 0.35,
                shared_fraction: 0.5,
                write_fraction: 0.35,
                stride_run: 32,
                ..base
            },
            AppPreset::Fmm => WorkloadModel {
                private_bytes_per_thread: 2 * MB,
                shared_bytes: 16 * MB,
                hot_fraction: 0.4,
                shared_fraction: 0.45,
                write_fraction: 0.3,
                mean_gap_cycles: 4,
                stride_run: 24,
                ..base
            },
            AppPreset::Cholesky => WorkloadModel {
                private_bytes_per_thread: 3 * MB,
                shared_bytes: 12 * MB,
                hot_fraction: 0.4,
                shared_fraction: 0.4,
                write_fraction: 0.4,
                stride_run: 24,
                ..base
            },
            AppPreset::Fluidanimate => WorkloadModel {
                private_bytes_per_thread: 2 * MB,
                shared_bytes: 20 * MB,
                hot_fraction: 0.35,
                shared_fraction: 0.4,
                write_fraction: 0.35,
                mean_gap_cycles: 4,
                stride_run: 32,
                ..base
            },

            // ---- Class 2: footprint fits in the L3, heavy sharing /
            // producer-consumer data keeps the L3 informed.
            AppPreset::Barnes => WorkloadModel {
                private_bytes_per_thread: 256 * KB,
                shared_bytes: 6 * MB,
                hot_fraction: 0.45,
                shared_fraction: 0.6,
                write_fraction: 0.3,
                stride_run: 8,
                ..base
            },
            AppPreset::Lu => WorkloadModel {
                private_bytes_per_thread: 256 * KB,
                shared_bytes: 4 * MB,
                hot_fraction: 0.5,
                shared_fraction: 0.55,
                write_fraction: 0.35,
                stride_run: 8,
                ..base
            },
            AppPreset::Radix => WorkloadModel {
                private_bytes_per_thread: 512 * KB,
                shared_bytes: 8 * MB,
                hot_fraction: 0.4,
                shared_fraction: 0.55,
                write_fraction: 0.45,
                stride_run: 8,
                ..base
            },
            AppPreset::Radiosity => WorkloadModel {
                private_bytes_per_thread: 256 * KB,
                shared_bytes: 5 * MB,
                hot_fraction: 0.5,
                shared_fraction: 0.6,
                write_fraction: 0.3,
                mean_gap_cycles: 4,
                stride_run: 8,
                ..base
            },

            // ---- Class 3: working set lives in the L1/L2, almost no
            // sharing; the L3 has little visibility.
            AppPreset::Blackscholes => WorkloadModel {
                private_bytes_per_thread: 128 * KB,
                shared_bytes: MB,
                hot_bytes_per_thread: 24 * KB,
                hot_fraction: 0.92,
                shared_fraction: 0.05,
                write_fraction: 0.2,
                mean_gap_cycles: 5,
                ..base
            },
            AppPreset::Streamcluster => WorkloadModel {
                private_bytes_per_thread: 192 * KB,
                shared_bytes: 2 * MB,
                hot_bytes_per_thread: 32 * KB,
                hot_fraction: 0.9,
                shared_fraction: 0.08,
                write_fraction: 0.15,
                ..base
            },
            AppPreset::Raytrace => WorkloadModel {
                private_bytes_per_thread: 256 * KB,
                shared_bytes: 3 * MB,
                hot_bytes_per_thread: 32 * KB,
                hot_fraction: 0.88,
                shared_fraction: 0.1,
                write_fraction: 0.1,
                mean_gap_cycles: 4,
                ..base
            },
        }
    }
}

impl fmt::Display for AppPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AppPreset {
    type Err = WorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        AppPreset::ALL
            .iter()
            .copied()
            .find(|a| a.name() == lower)
            .ok_or_else(|| WorkloadError::UnknownApplication { name: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_presets_matching_table_5_3() {
        assert_eq!(AppPreset::ALL.len(), 11);
        let mut names: Vec<&str> = AppPreset::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn binning_matches_table_6_1() {
        use AppClass::*;
        assert_eq!(AppPreset::in_class(Class1).len(), 4);
        assert_eq!(AppPreset::in_class(Class2).len(), 4);
        assert_eq!(AppPreset::in_class(Class3).len(), 3);
        assert_eq!(AppPreset::Fft.paper_class(), Class1);
        assert_eq!(AppPreset::Lu.paper_class(), Class2);
        assert_eq!(AppPreset::Blackscholes.paper_class(), Class3);
    }

    #[test]
    fn every_model_validates() {
        for app in AppPreset::ALL {
            let m = app.model();
            m.validate().unwrap_or_else(|e| panic!("{app}: {e}"));
            assert_eq!(m.threads, 16);
            assert_eq!(m.name, app.name());
        }
    }

    #[test]
    fn class1_footprints_exceed_llc_class23_fit() {
        const LLC: u64 = 16 * 1024 * 1024;
        for app in AppPreset::in_class(AppClass::Class1) {
            assert!(
                app.model().footprint_bytes() > LLC,
                "{app} should exceed the L3"
            );
        }
        for app in AppPreset::in_class(AppClass::Class2) {
            assert!(
                app.model().footprint_bytes() <= LLC,
                "{app} should fit in the L3"
            );
        }
        for app in AppPreset::in_class(AppClass::Class3) {
            assert!(
                app.model().footprint_bytes() <= LLC,
                "{app} should fit in the L3"
            );
        }
    }

    #[test]
    fn class3_is_hot_set_dominated_and_unshared() {
        for app in AppPreset::in_class(AppClass::Class3) {
            let m = app.model();
            assert!(m.hot_fraction >= 0.85, "{app}");
            assert!(m.shared_fraction <= 0.15, "{app}");
        }
        for app in AppPreset::in_class(AppClass::Class2) {
            let m = app.model();
            assert!(m.shared_fraction >= 0.5, "{app}");
        }
    }

    #[test]
    fn parse_round_trip() {
        for app in AppPreset::ALL {
            let parsed: AppPreset = app.name().parse().unwrap();
            assert_eq!(parsed, app);
        }
        assert_eq!("FFT".parse::<AppPreset>().unwrap(), AppPreset::Fft);
        assert!("doom".parse::<AppPreset>().is_err());
    }

    #[test]
    fn display_is_name() {
        assert_eq!(AppPreset::Streamcluster.to_string(), "streamcluster");
    }
}
