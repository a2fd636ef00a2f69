//! Order statistics over the samples one run collects.

/// n, median and quartiles of a sample set, by linear interpolation
/// between order statistics (the "inclusive" method, which is what
/// Python's `statistics.quantiles(method="inclusive")` computes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
        })
    }
}

/// Interpolated quantile `q` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`, 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Percentile `pct` of `samples` and the number of samples above it
/// (0 and 0 when empty).
pub fn percentile(samples: &[f64], pct: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let value = quantile(&v, pct / 100.0);
    (value, v.iter().filter(|&&x| x > value).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!(s.median, 1.5);
    }

    #[test]
    fn percentile_counts_samples_beyond() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), (90.0, 10));
        assert_eq!(percentile(&[], 90.0), (0.0, 0));
    }
}
