//! Runs the pinned serving benchmark and writes the `BENCH_serve.json`
//! document (see `grist_bench::serve` for what runs).
//!
//! Usage:
//!   cargo run --release -p grist-bench --bin bench_serve -- \
//!       [OUT.json]
//!
//! Defaults to stdout when no path is given. The binary fails (exit 1) when
//! the batched dispatch path is slower than [`MIN_SPEEDUP`] × the per-query
//! reference path, or when the bitwise recompute-from-checkpoint
//! verification covered nothing. The verification itself has no tolerance:
//! any served product differing from its source checkpoint by a single bit
//! panics inside the run.

/// Acceptance floor: batched dispatch over the per-query reference path.
const MIN_SPEEDUP: f64 = 2.0;

fn main() {
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg.starts_with("--") {
            usage(&format!("unknown flag {arg}"));
        } else if out_path.is_some() {
            usage("at most one output path");
        }
        out_path = Some(arg);
    }

    let bench = grist_bench::serve::run_serve();
    eprintln!(
        "bench_serve: batched/per-query speedup {:.2}x, {} products verified \
         bitwise against checkpoints; traffic p50 {:.3} ms, p99 {:.3} ms, \
         {:.0} qps",
        bench.speedup, bench.verified_products, bench.p50_ms, bench.p99_ms, bench.qps
    );

    grist_bench::emit_doc("bench_serve", out_path.as_deref(), &bench.doc.pretty());

    if bench.verified_products == 0 {
        eprintln!("bench_serve: FAIL — the bitwise verification covered no products");
        std::process::exit(1);
    }
    if bench.speedup < MIN_SPEEDUP {
        eprintln!(
            "bench_serve: FAIL — batched speedup {:.2}x below the {MIN_SPEEDUP}x floor",
            bench.speedup
        );
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("bench_serve: {msg}\nusage: bench_serve [OUT.json]");
    std::process::exit(2);
}
