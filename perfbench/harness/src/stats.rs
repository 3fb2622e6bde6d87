//! Order statistics over per-op timings, and the metric map the harness
//! prints.

use std::collections::BTreeMap;

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller times at least one op.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of `v`: the value at the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples above it, that percentile, and the count
/// of samples beyond it. With too few samples for such a percentile the
/// maximum is returned at 100, with none beyond.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let s = sorted(v);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return (s[n - 1], 100.0, 0);
    }
    let k = n - TAIL_BEYOND - 1;
    (s[k], 100.0 * (k + 1) as f64 / n as f64, TAIL_BEYOND)
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Index of the sample whose value is the lower median of `v`: the op a
/// per-layer breakdown is read from, so its parts sum to a real op.
pub fn median_index(v: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    idx[(v.len() - 1) / 2]
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Record `name = value unit`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The metrics as the JSON object the benchmark contract prints:
    /// `{"name": {"value": v, "unit": "u"}, ...}`, full precision.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct, beyond) = tail(&v);
        assert_eq!(value, 30.0);
        assert_eq!(pct, 75.0);
        assert_eq!(beyond, TAIL_BEYOND);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (5.0, 100.0, 0));
    }

    #[test]
    fn median_index_points_at_the_lower_median() {
        let v = [0.3, 0.1, 0.4, 0.2];
        assert_eq!(v[median_index(&v)], 0.2);
    }
}
