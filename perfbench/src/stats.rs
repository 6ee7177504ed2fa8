//! Sample summaries: medians, quartiles and percentiles.

/// Median, quartiles and count of one metric's samples within a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quartiles by the exclusive method (Python's
/// `statistics.quantiles(data, n=4)`); a single sample is its own
/// quartiles.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |p: f64| -> f64 {
        match n {
            0 => f64::NAN,
            1 => s[0],
            _ => {
                // Position p·(n+1) on the 1-based order statistics.
                let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                s[lo - 1] + (s[hi - 1] - s[lo - 1]) * (pos - lo as f64)
            }
        }
    };
    Summary {
        median: median(&s),
        q1: at(0.25),
        q3: at(0.75),
        n,
    }
}

/// The smallest sample: the best of several timings of the same work.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    hc_bench::percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert!((s.q1 - 2.75).abs() < 1e-12);
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.q3 - 8.25).abs() < 1e-12);
        assert_eq!(s.n, 10);
        assert_eq!(summarize(&[4.0]).q3, 4.0);
    }
}
