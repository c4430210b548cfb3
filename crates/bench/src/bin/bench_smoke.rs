//! Runs the pinned smoke benchmark suite and writes the `BENCH_*.json`
//! document (see `grist_bench::smoke` for exactly what runs), then appends
//! the tracing-overhead measurement as the document's `"trace"` section and
//! fails the run when compiled-in-but-disabled tracing costs >= 1% of the
//! smoke window (`grist_bench::smoke::trace_overhead` explains how that
//! number is made robust to host noise).
//!
//! Usage: `cargo run --release -p grist-bench --bin bench_smoke -- [OUT.json]`
//! (defaults to stdout when no path is given).

use sunway_sim::Json;

fn main() {
    let mut doc = grist_bench::smoke::run_smoke();
    let trace = grist_bench::smoke::trace_overhead();
    let off_pct = trace
        .get("overhead_off_pct")
        .and_then(Json::as_f64)
        .expect("trace_overhead reports overhead_off_pct");
    let Json::Obj(fields) = &mut doc else {
        unreachable!("run_smoke returns an object document");
    };
    fields.push(("trace".into(), trace));

    grist_bench::emit_doc(
        "bench_smoke",
        std::env::args().nth(1).as_deref(),
        &doc.pretty(),
    );

    eprintln!("bench_smoke: tracing-disabled overhead {off_pct:.4}% (budget 1%)");
    if off_pct.is_nan() || off_pct >= 1.0 {
        eprintln!("bench_smoke: FAIL — disabled tracing must cost < 1% of the smoke window");
        std::process::exit(1);
    }
}
