//! The ledger's arithmetic: percentiles over samples, span self time,
//! and ratios that stay defined when a layer did no work.

/// The `p`-th percentile (`0..=100`) of `values`, linearly interpolated
/// between the two nearest ranks; `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values`; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// A span's self time: its duration minus the time its child spans
/// cover. Clamped at zero, since children timed with separate clock reads
/// can sum to a hair more than their parent.
pub fn self_time(span: f64, children: &[f64]) -> f64 {
    (span - children.iter().sum::<f64>()).max(0.0)
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work has no
/// waste either).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of the total held by the `k` largest values.
pub fn top_share(values: &[f64], k: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    ratio(sorted.iter().take(k).sum(), sorted.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 25.0), Some(1.75));
        assert_eq!(median(&[7.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_children_and_never_goes_negative() {
        assert_eq!(self_time(10.0, &[3.0, 4.5]), 2.5);
        assert_eq!(self_time(10.0, &[]), 10.0);
        assert_eq!(self_time(1.0, &[0.6, 0.5]), 0.0);
    }

    #[test]
    fn ratios_are_zero_without_a_base() {
        assert_eq!(ratio(514.0, 4447.0), 514.0 / 4447.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn top_share_takes_the_largest_values() {
        assert_eq!(top_share(&[1.0, 5.0, 2.0, 2.0], 2), 0.7);
        assert_eq!(top_share(&[4.0], 2), 1.0);
        assert_eq!(top_share(&[], 2), 0.0);
    }
}
