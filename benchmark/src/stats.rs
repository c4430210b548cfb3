//! Order statistics over the samples of one run.
//!
//! One percentile definition (nearest rank on the sorted sample, so every
//! reported value was observed) for everything a run prints or writes.
//! `compare` summarises *across* runs and mirrors the driver's
//! interpolating quartiles instead; see `compare.rs`.

use sunway_sim::Json;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it. `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile rank {q} outside [0, 1]"
    );
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile — the guide's
/// "at least ten samples beyond it" test for a reportable tail.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Percentile of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted_copy(values), q)
}

/// What is written beside every reported timing: how many samples, the
/// extremes, the median and the quartiles. `iqr_rel` is `(q3 - q1) / median`,
/// the spread `compare` holds against a metric's bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted_copy(values);
        Summary {
            n: s.len(),
            min: s[0],
            q1: percentile_sorted(&s, 0.25),
            median: percentile_sorted(&s, 0.5),
            q3: percentile_sorted(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    pub fn iqr_rel(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        Json::Obj(vec![
            ("n".into(), Json::Num(self.n as f64)),
            ("min".into(), Json::Num(self.min)),
            ("q1".into(), Json::Num(self.q1)),
            ("median".into(), Json::Num(self.median)),
            ("q3".into(), Json::Num(self.q3)),
            ("max".into(), Json::Num(self.max)),
            ("iqr_rel".into(), Json::Num(self.iqr_rel())),
        ])
    }
}

/// Smallest sample: the best op or block where lower is better.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest sample: the best block where higher is better.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median of an unsorted sample (nearest rank, so always an observed value).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_known_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        // Unsorted input goes through the sorting front door.
        let shuffled = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&shuffled, 0.5), 5.0);
        assert_eq!(median(&[4.0, 1.0]), 1.0, "nearest rank never interpolates");
        assert_eq!(percentile(&[42.0], 0.99), 42.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(8000, 0.99), 80);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(20, 0.5), 10);
        assert_eq!(samples_beyond(1, 0.99), 0);
    }

    #[test]
    fn summary_reports_quartiles_and_relative_spread() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (8, 1.0, 2.0, 4.0, 6.0, 8.0)
        );
        assert_eq!(s.iqr_rel(), 1.0);
        let flat = Summary::of(&[3.0, 3.0, 3.0]);
        assert_eq!(flat.iqr_rel(), 0.0);
    }
}
