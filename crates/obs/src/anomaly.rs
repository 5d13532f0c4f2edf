//! Robust outlier scoring for sweep analytics.
//!
//! A sweep point is judged against its *parameter neighbourhood*: the other
//! points that differ from it along exactly one axis (same workload and
//! retention, varying policy, say). Within such a slice the modified
//! z-score of Iglewicz & Hoaglin — median/MAD based, so up to half the
//! slice can be wild without corrupting the scale estimate — flags points
//! that do not fit their neighbours. The slicing itself lives with the
//! sweep types in `refrint::anomaly`; this module is the scoring math.

/// Points scoring at or above this modified z magnitude are outliers.
///
/// 3.5 is the textbook Iglewicz–Hoaglin cutoff; Refrint sweeps compare
/// *different refresh policies*, whose legitimate spread is wide, so the
/// default is more conservative.
pub const DEFAULT_THRESHOLD: f64 = 8.0;

/// Slices smaller than this have no meaningful neighbourhood and are
/// never scored.
pub const MIN_SLICE: usize = 4;

/// Modified z-scores are capped here so a zero-spread slice with one
/// deviant point yields a large *finite* score (∞ would not survive JSON).
pub const MAX_Z: f64 = 1e9;

/// The median of `values`, or `None` when empty. Non-finite inputs are
/// ignored.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The median absolute deviation of `values` around `center`.
#[must_use]
pub fn mad(values: &[f64], center: f64) -> f64 {
    let devs: Vec<f64> = values
        .iter()
        .filter(|x| x.is_finite())
        .map(|x| (x - center).abs())
        .collect();
    median(&devs).unwrap_or(0.0)
}

/// Modified (robust) z-scores for every value, Iglewicz–Hoaglin style:
/// `0.6745 (x - median) / MAD`, falling back to the mean absolute
/// deviation when the MAD degenerates to zero, and capped at [`MAX_Z`].
/// Non-finite values score [`MAX_Z`] (they are always anomalous).
#[must_use]
pub fn robust_z_scores(values: &[f64]) -> Vec<f64> {
    let Some(med) = median(values) else {
        return values.iter().map(|_| MAX_Z).collect();
    };
    let mad_scale = mad(values, med);
    let scale = if mad_scale > 0.0 {
        mad_scale / 0.6745
    } else {
        // Degenerate MAD (more than half the slice is identical): fall
        // back to the mean absolute deviation, as Iglewicz & Hoaglin do.
        let finite: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        let mean_ad =
            finite.iter().map(|x| (x - med).abs()).sum::<f64>() / finite.len().max(1) as f64;
        mean_ad * 1.253_314
    };
    values
        .iter()
        .map(|&x| {
            if !x.is_finite() {
                return MAX_Z;
            }
            if scale > 0.0 {
                ((x - med) / scale).clamp(-MAX_Z, MAX_Z)
            } else if x == med {
                0.0
            } else {
                // Every neighbour is identical and this point is not.
                if x > med {
                    MAX_Z
                } else {
                    -MAX_Z
                }
            }
        })
        .collect()
}

/// One flagged value from [`flag_outliers`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flag {
    /// Index of the flagged value in the input slice.
    pub index: usize,
    /// The flagged value itself.
    pub value: f64,
    /// The slice median it was judged against.
    pub median: f64,
    /// Its modified z-score (signed; magnitude crossed the threshold).
    pub robust_z: f64,
}

/// Scores one neighbourhood slice and returns the outliers.
///
/// Slices shorter than [`MIN_SLICE`] return no flags — a point cannot be
/// anomalous against two neighbours.
#[must_use]
pub fn flag_outliers(values: &[f64], threshold: f64) -> Vec<Flag> {
    if values.len() < MIN_SLICE {
        return Vec::new();
    }
    let med = median(values).unwrap_or(f64::NAN);
    robust_z_scores(values)
        .into_iter()
        .enumerate()
        .filter(|(_, z)| z.abs() >= threshold)
        .map(|(index, z)| Flag {
            index,
            value: values[index],
            median: med,
            robust_z: z,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 9.0, 5.0]), Some(5.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[f64::NAN, 2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn a_planted_outlier_is_flagged_and_only_it() {
        let mut values = vec![10.0, 10.5, 9.8, 10.2, 9.9, 10.1, 10.3];
        values.push(95.0); // the plant
        let flags = flag_outliers(&values, DEFAULT_THRESHOLD);
        assert_eq!(flags.len(), 1, "exactly the planted point: {flags:?}");
        assert_eq!(flags[0].index, 7);
        assert!(flags[0].robust_z > DEFAULT_THRESHOLD);
    }

    #[test]
    fn clean_slices_produce_no_flags() {
        let values = vec![10.0, 11.0, 9.0, 12.0, 8.5, 10.5];
        assert!(flag_outliers(&values, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn tiny_slices_are_never_scored() {
        let values = vec![1.0, 1.0, 100.0];
        assert!(flag_outliers(&values, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn zero_mad_slices_fall_back_instead_of_dividing_by_zero() {
        // More than half identical: MAD is 0, the mean-AD fallback kicks in
        // and still produces a finite, flaggable score.
        let values = vec![5.0, 5.0, 5.0, 5.0, 5.0, 50.0];
        let flags = flag_outliers(&values, 4.0);
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].index, 5);
        assert!(flags[0].robust_z.is_finite());

        // Fully constant slices flag nothing.
        let constant = vec![5.0; 8];
        assert!(flag_outliers(&constant, 4.0).is_empty());
    }

    #[test]
    fn scores_are_signed_and_capped() {
        let values = vec![10.0, 10.0, 10.0, 10.0, 10.0, -80.0];
        let flags = flag_outliers(&values, 4.0);
        assert_eq!(flags.len(), 1);
        assert!(flags[0].robust_z < 0.0);
        assert!(flags[0].robust_z >= -MAX_Z);
        let zs = robust_z_scores(&[f64::NAN, 1.0, 1.0]);
        assert_eq!(zs[0], MAX_Z, "non-finite values are always anomalous");
    }
}
