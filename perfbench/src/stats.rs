//! Order statistics for the report: median, quartiles (matching Python's
//! `statistics.quantiles(values, n=4)`) and the tail percentile.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); NaN
/// for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three cut points of `statistics.quantiles(values, n=4)` (Python's
/// default "exclusive" method), so spreads computed here agree with the
/// ones computed from the printed values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    Some((q3 - q1) / median(values))
}

/// A tail percentile and how many samples it leaves beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples in total.
    pub samples: usize,
    /// Samples ranked above the percentile's value.
    pub beyond: usize,
}

const TAIL_CANDIDATES: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0];

/// The highest candidate percentile that leaves at least `min_beyond`
/// samples ranked above it (nearest-rank definition), or `None` when
/// even the median would not.
pub fn tail(values: &[f64], min_beyond: usize) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n.max(1));
        let beyond = n.checked_sub(rank)?;
        (n > 0 && beyond >= min_beyond).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            samples: n,
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&v).expect("ten values");
        assert!((share - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_enough_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.0: rank 990, 10 beyond; p99.5 leaves only 5.
        let t = tail(&v, 10).expect("1000 samples");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // With 200 samples p95 leaves exactly 10 beyond.
        let t = tail(&v[..200], 10).expect("200 samples");
        assert_eq!((t.percentile, t.beyond), (95.0, 10));
        // 20 samples: only the median leaves 10 beyond.
        let t = tail(&v[..20], 10).expect("20 samples");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        // 19 samples: nothing qualifies.
        assert_eq!(tail(&v[..19], 10), None);
        assert_eq!(tail(&[], 10), None);
    }
}
