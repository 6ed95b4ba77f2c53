//! Order statistics: the only maths the harness does on its samples.

/// The `q`-quantile (`0.0..=1.0`) of an ascending-sorted slice, by the
/// nearest-rank rule: the smallest sample with at least `q` of the
/// samples at or below it. `None` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted slice (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(f64::midpoint(v[n / 2 - 1], v[n / 2])),
    }
}

/// First and third quartile by the same exclusive method as Python's
/// `statistics.quantiles(values, n=4)`, which is what the acceptance
/// driver computes: position `(n + 1) * k / 4`, linearly interpolated.
/// `None` with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = (n + 1) * k;
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the spread the
/// acceptance driver holds against each metric's bound.
pub fn iqr_over_median(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// What a metric's repetitions reduce to in a result file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over repetitions (the reported value).
    pub median: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
    /// Repetitions summarised.
    pub reps: usize,
    /// Individual samples behind the repetitions (latency samples, cycles
    /// counted), summed over repetitions.
    pub samples: u64,
    spread: f64,
}

impl Summary {
    /// Summarises one value per repetition; `None` if there are none.
    pub fn of(values: &[f64], samples: u64) -> Option<Summary> {
        let median = median(values)?;
        Some(Summary {
            median,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            reps: values.len(),
            samples,
            spread: iqr_over_median(values).unwrap_or(0.0),
        })
    }

    /// Interquartile range of the repetitions over their median, the
    /// acceptance driver's measure of spread (with three repetitions that
    /// is `(max - min) / median`); 0 for a single repetition.
    pub fn spread(&self) -> f64 {
        self.spread
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert!((q1 - 10.0).abs() < 1e-12 && (q3 - 40.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        let spread = iqr_over_median(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_median_and_extremes() {
        let s = Summary::of(&[10.0, 12.0, 11.0], 300).unwrap();
        assert_eq!(
            (s.median, s.min, s.max, s.reps, s.samples),
            (11.0, 10.0, 12.0, 3, 300)
        );
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
        assert!(Summary::of(&[7.0], 1).unwrap().spread().abs() < 1e-12);
        assert_eq!(Summary::of(&[], 0), None);
    }
}
