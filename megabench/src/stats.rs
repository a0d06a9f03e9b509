//! Order statistics over wall-time samples.

/// A sorted copy of `samples` (NaN-free by construction: every sample is a
/// measured duration).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The arithmetic mean of `samples`; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency distribution: the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at that percentile.
    pub value: f64,
    /// Which percentile it is, in percent.
    pub percentile: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The highest percentile of `samples` with at least [`TAIL_BEYOND`]
/// samples strictly above its rank: the `(TAIL_BEYOND + 1)`-th largest
/// value. With too few samples for that, the median stands in and the
/// percentile reads 50.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    if n <= 2 * TAIL_BEYOND {
        return Tail {
            value: median(samples),
            percentile: 50.0,
            samples: n,
        };
    }
    let v = sorted(samples);
    let rank = n - TAIL_BEYOND - 1;
    Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    }
}

/// The tail of samples taken in groups (one per ingest pass, say): the
/// median over the non-empty groups of each group's [`tail`], so that the
/// value keeps the percentile one group's sample count gives, with the
/// tails it was taken from.
pub fn group_tail(groups: &[Vec<f64>]) -> (f64, Vec<Tail>) {
    let tails: Vec<Tail> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| tail(g))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    (median(&values), tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), 10);
    }

    #[test]
    fn group_tail_is_the_median_of_the_groups_tails() {
        let low: Vec<f64> = (1..=100).map(f64::from).collect();
        let high: Vec<f64> = (101..=200).map(f64::from).collect();
        let (value, tails) = group_tail(&[low, Vec::new(), high]);
        assert_eq!(tails.len(), 2);
        assert_eq!(value, (90.0 + 190.0) / 2.0);
        assert!(tails.iter().all(|t| t.percentile == 90.0));
    }

    #[test]
    fn tail_falls_back_to_median_when_samples_are_few() {
        let t = tail(&[1.0, 2.0, 3.0]);
        assert_eq!(t.value, 2.0);
        assert_eq!(t.percentile, 50.0);
    }
}
