//! What the `grist` binary runs: the paper's tables and figures
//! ([`report`]), the five pinned suites ([`smoke`], [`ml`], [`partition`],
//! [`serve`], [`scaling`]) whose `BENCH_*.json` are exact golden pins
//! ([`pin`]), the serving-telemetry scenario ([`obs`]), and their shared
//! helpers (aligned-column tables, CSV output into `results/`).

// Indexed loops mirror the Fortran stencil kernels they reproduce and are
// clearer than iterator chains for staggered-grid code.
#![allow(clippy::needless_range_loop)]
pub mod ml;
pub mod obs;
pub mod partition;
pub mod pin;
pub mod report;
pub mod scaling;
pub mod serve;
pub mod smoke;

use std::fs;
use std::path::PathBuf;

/// A simple text table accumulated row by row.
#[derive(Debug, Default)]
pub struct Table {
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Print with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("| {} |", parts.join(" | "));
        };
        line(&self.header);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&sep);
        for row in &self.rows {
            line(row);
        }
    }

    /// Also write as CSV under `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> Result<PathBuf, String> {
        let path = PathBuf::from("results").join(format!("{name}.csv"));
        let mut text = format!("{}\n", self.header.join(","));
        for row in &self.rows {
            text.push_str(&row.join(","));
            text.push('\n');
        }
        fs::create_dir_all("results")
            .and_then(|()| fs::write(&path, text))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Minimal self-timed benchmark harness for the `harness = false` bench
/// targets: the workspace builds fully offline (see README "Offline
/// builds"), so criterion is not available. Each benchmark warms up once,
/// then repeats in batches until ~200 ms of samples accumulate, reporting
/// the best and mean per-iteration times.
#[derive(Debug, Default)]
pub struct Bencher {
    group: String,
    rows: Vec<(String, f64, f64)>,
}

impl Bencher {
    pub fn group(name: &str) -> Self {
        Bencher {
            group: name.to_string(),
            rows: Vec::new(),
        }
    }

    /// Time `f`, storing best/mean seconds per iteration under `name`.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) {
        f(); // warm-up (first call pays allocation/fault costs)
        let budget = std::time::Duration::from_millis(200);
        let started = std::time::Instant::now();
        let mut best = f64::INFINITY;
        let mut total = 0.0;
        let mut iters = 0u64;
        // Batch size chosen from one probe call so very fast closures are
        // not dominated by timer overhead.
        let probe = {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };
        let batch = ((1e-4 / probe.max(1e-9)) as u64).clamp(1, 10_000);
        while started.elapsed() < budget && iters < 1_000_000 {
            let t0 = std::time::Instant::now();
            for _ in 0..batch {
                f();
            }
            let per_iter = t0.elapsed().as_secs_f64() / batch as f64;
            best = best.min(per_iter);
            total += per_iter * batch as f64;
            iters += batch;
        }
        self.rows
            .push((name.to_string(), best, total / iters as f64));
    }

    /// Print the group's results as an aligned table (and a CSV).
    pub fn finish(self) {
        println!("\n## {}\n", self.group);
        let mut t = Table::new(&["benchmark", "best", "mean"]);
        for (name, best, mean) in &self.rows {
            t.row(&[name.clone(), fmt_time(*best), fmt_time(*mean)]);
        }
        t.print();
        let _ = t.write_csv(&format!("bench_{}", self.group));
    }
}

/// Render a duration in seconds with an auto-scaled unit.
pub fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Format a float compactly.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_align_with_header() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn fmt_picks_sensible_representations() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1.5), "1.500");
        assert!(fmt(12345.0).contains('e'));
        assert!(fmt(0.0001).contains('e'));
    }

    #[test]
    fn fmt_time_scales_units() {
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(2e-3), "2.000 ms");
        assert_eq!(fmt_time(2e-6), "2.000 us");
        assert_eq!(fmt_time(2e-9), "2.0 ns");
    }

    #[test]
    fn bencher_records_positive_times() {
        let mut b = Bencher::group("selftest");
        b.bench("spin", || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert_eq!(b.rows.len(), 1);
        assert!(b.rows[0].1 > 0.0 && b.rows[0].2 >= b.rows[0].1);
    }
}
