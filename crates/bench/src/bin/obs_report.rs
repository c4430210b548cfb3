//! The serving-telemetry report behind the CI `obs` job: run the scenario
//! ([`grist_bench::obs`]), write the serving engine's registry as a metrics
//! JSON document (counters, kernels, spans and the `serve.latency_ns` /
//! `serve.batch_size` histograms) plus a Markdown summary, and gate:
//!
//! * the end-of-run SLO holds,
//! * no ensemble member raised a health alert,
//! * the written document re-parses to an equal `MetricsSnapshot`.
//!
//! Usage: `cargo run --release -p grist-bench --bin obs_report -- \
//!   [METRICS.json [REPORT.md]]` — with no arguments the JSON goes to
//! stdout and the Markdown to stderr. Exit codes: 0 = all gates pass,
//! 1 = a gate failed (the report is still written first, so CI uploads the
//! evidence of the failure), 2 = an output path could not be written or
//! read back.

use grist_bench::obs::run_obs;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let b = run_obs();

    let doc_path = args.first().map(String::as_str);
    grist_bench::emit_doc("obs_report", doc_path, &b.document);
    let written = match doc_path {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("obs_report: cannot read back {path}: {e}");
            std::process::exit(2);
        }),
        None => b.document.clone(),
    };
    let markdown = b.to_markdown();
    match args.get(1) {
        Some(path) => {
            std::fs::write(path, &markdown).unwrap_or_else(|e| {
                eprintln!("obs_report: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("obs_report: markdown -> {path}");
        }
        None => eprint!("{markdown}"),
    }

    let lat = b.latency();
    eprintln!(
        "obs_report: {} queries, p50 {:.3} ms, p99 {:.3} ms, {:.1} qps",
        lat.count,
        lat.percentile_ms(0.50),
        lat.percentile_ms(0.99),
        b.slo.qps,
    );

    let failed = b.failures(&written);
    for f in &failed {
        eprintln!("obs_report: FAIL — {f}");
    }
    let _ = std::io::stderr().flush();
    if !failed.is_empty() {
        std::process::exit(1);
    }
    eprintln!("obs_report: OK");
}
