//! Order statistics over timing samples.

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The largest sample (0 for an empty slice).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// A tail percentile: the highest of p99.9, p99, p95, p90, p75 that
/// still has at least ten samples beyond it, by nearest rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile taken (50 when too few samples leave a tail, in
    /// which case `value` is the median).
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

/// The [`Tail`] of `xs`.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    for p in [99.9, 99.0, 95.0, 90.0, 75.0] {
        // Nearest rank: the smallest sample with at least p% at or below it.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank == 0 {
            continue;
        }
        let beyond = n - rank;
        if beyond >= 10 {
            return Tail {
                percentile: p,
                value: s[rank - 1],
                beyond,
                samples: n,
            };
        }
    }
    Tail {
        percentile: 50.0,
        value: median(xs),
        beyond: n / 2,
        samples: n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
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
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 99.0);
        let t = tail(&[1.0, 2.0, 3.0]);
        assert_eq!((t.percentile, t.value), (50.0, 2.0));
    }
}
