//! `compare A.json B.json`: for every (end-to-end metric, workload) pair,
//! is B better, the same, worse, or unresolved against the metric's bound?
//!
//! Each side is a `results.json` with one or more repeats per workload. A
//! side is summarised by the median over its repeats; its spread is the
//! distance between the first and third quartile over that median, with the
//! quartiles computed as Python's `statistics.quantiles(values, n=4)` does,
//! because that is how the acceptance check computes them. A pair whose
//! spread on either side exceeds the bound is *unresolved*, never "same".

use crate::catalog::{self, Better};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use sunway_sim::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median with the two middle values averaged on even counts.
pub fn median_interp(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// `(q1, q3)` by the exclusive method (`statistics.quantiles(v, n=4)`);
/// `None` for fewer than two values, where no spread can be stated.
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Spread of one side: IQR over median; 0 when a single value is all there is.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles_exclusive(values), median_interp(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median_interp(a), median_interp(b));
    // Positive = B is worse, as a share of A's median.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// `(workload, metric) -> values over repeats`, from the untraced runs.
fn load(path: &Path) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no \"runs\" array", path.display()))?;
    let mut out = Samples::new();
    for run in runs {
        if run.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: run without a workload", path.display()))?;
        for (name, m) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: {workload}.{name} has no value", path.display()))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

pub fn main(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:16} {:12} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "delta%", "iqrA%", "iqrB%", "bound%"
    );
    let mut worst = Verdict::Same;
    for ((workload, metric), va) in &a {
        let (Some(vb), Some(def)) = (
            b.get(&(workload.clone(), metric.clone())),
            catalog::end_to_end(metric),
        ) else {
            println!("{workload:16} {metric:12} missing on side B or not an end-to-end metric");
            worst = Verdict::Worse;
            continue;
        };
        let v = verdict(va, vb, def.better, def.bound);
        let (ma, mb) = (median_interp(va), median_interp(vb));
        println!(
            "{workload:16} {metric:12} {ma:>14.5} {mb:>14.5} {:>+8.2} {:>8.2} {:>8.2} {:>6.0}  {}",
            100.0 * (mb - ma) / ma.abs(),
            100.0 * spread(va),
            100.0 * spread(vb),
            100.0 * def.bound,
            v.as_str()
        );
        if v == Verdict::Worse || (v == Verdict::Unresolved && worst != Verdict::Worse) {
            worst = v;
        }
    }
    match worst {
        Verdict::Worse => ExitCode::from(1),
        _ => ExitCode::SUCCESS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), Some((2.75, 8.25)));
        assert_eq!(median_interp(&v), 5.5);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles_exclusive(&[7.0]), None);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tight = |c: f64| vec![c * 0.99, c, c * 1.01, c, c];
        // Lower is better: +20 % is worse at a 10 % bound, -20 % better.
        assert_eq!(
            verdict(&tight(10.0), &tight(12.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&tight(10.0), &tight(8.0), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&tight(10.0), &tight(10.5), Better::Lower, 0.1),
            Verdict::Same
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(&tight(10.0), &tight(8.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        // A side noisier than the bound cannot resolve anything.
        let noisy = vec![5.0, 10.0, 15.0, 10.0, 20.0];
        assert_eq!(
            verdict(&noisy, &tight(20.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
