//! The telemetry-plane report behind the CI `obs` job: run the observed
//! serving scenario ([`grist_bench::obs`]), emit the machine-readable
//! `grist-obs-v1` dashboard JSON plus the human Markdown summary, and gate:
//!
//! * any SLO breach recorded during or after the scenario,
//! * any `HealthWatch` alert,
//! * disabled-path overhead above 1% of the measured serve p50,
//! * any embedded percentile not bitwise reproducible from its own bucket
//!   counts (checked inside the scenario; a mismatch panics there).
//!
//! Usage: `cargo run --release -p grist-bench --bin obs_report -- \
//!   [DASHBOARD.json [REPORT.md]]` — with no arguments the JSON goes to
//! stdout and the Markdown to stderr. Exit codes: 0 = all gates pass,
//! 1 = a gate failed (the report is still written first, so CI uploads the
//! evidence of the failure), 2 = an output path could not be written.

use grist_bench::obs::{run_obs, MAX_OVERHEAD_PCT};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let b = run_obs();

    grist_bench::emit_doc(
        "obs_report",
        args.first().map(String::as_str),
        &b.dashboard.pretty(),
    );
    match args.get(1) {
        Some(path) => {
            std::fs::write(path, &b.markdown).unwrap_or_else(|e| {
                eprintln!("obs_report: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("obs_report: markdown -> {path}");
        }
        None => eprint!("{}", b.markdown),
    }

    eprintln!(
        "obs_report: {} queries, p50 {:.3} ms, disabled path {:.2} ns/query \
         ({:.4}% of p50, limit {MAX_OVERHEAD_PCT}%), {} percentiles verified bitwise",
        b.plane.serve_latency_snapshot().count,
        b.p50_ns as f64 / 1e6,
        b.disabled_ns_per_query,
        b.overhead_pct,
        b.percentiles_verified,
    );

    let mut failed = false;
    let alerts = b.plane.watch().alerts();
    if !alerts.is_empty() {
        failed = true;
        eprintln!("obs_report: FAIL — {} health alert(s):", alerts.len());
        for a in &alerts {
            eprintln!(
                "  {} at epoch {}: {:.6e} (threshold {:.6e})",
                a.kind.name(),
                a.epoch,
                a.value,
                a.threshold
            );
        }
    }
    if b.plane.slo_breaches() > 0 {
        failed = true;
        eprintln!(
            "obs_report: FAIL — {} SLO breach(es) in {} evaluation(s): {:?}",
            b.plane.slo_breaches(),
            b.plane.slo_evals(),
            b.plane.last_slo_status().map(|s| s.violated),
        );
    }
    if b.overhead_pct > MAX_OVERHEAD_PCT {
        failed = true;
        eprintln!(
            "obs_report: FAIL — disabled-path overhead {:.4}% of serve p50 \
             exceeds the {MAX_OVERHEAD_PCT}% budget",
            b.overhead_pct
        );
    }

    let _ = std::io::stderr().flush();
    if failed {
        std::process::exit(1);
    }
    eprintln!("obs_report: OK");
}
