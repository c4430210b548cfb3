//! Runs the pinned serving benchmark and writes the `BENCH_serve.json`
//! document (see `grist_bench::serve` for what runs).
//!
//! Usage:
//!   cargo run --release -p grist-bench --bin bench_serve -- \
//!       [OUT.json] [--min-speedup X]
//!
//! Defaults to stdout when no path is given. The binary fails (exit 1) when
//! the batched dispatch path is slower than `--min-speedup` × the per-query
//! reference path (acceptance floor 2×), or when the bitwise
//! recompute-from-checkpoint verification covered nothing. The verification
//! itself has no tolerance: any served product differing from its source
//! checkpoint by a single bit panics inside the run. Pass 0 to the flag to
//! disable the speedup gate when exploring.

fn main() {
    let mut out_path: Option<String> = None;
    let mut min_speedup = 2.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--min-speedup" => {
                min_speedup = args
                    .next()
                    .unwrap_or_else(|| usage("--min-speedup needs a value"))
                    .parse()
                    .unwrap_or_else(|_| usage("--min-speedup value must be a number"));
            }
            _ if arg.starts_with("--") => usage(&format!("unknown flag {arg}")),
            _ if out_path.is_none() => out_path = Some(arg),
            _ => usage("at most one output path"),
        }
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
    if bench.speedup < min_speedup {
        eprintln!(
            "bench_serve: FAIL — batched speedup {:.2}x below the {min_speedup}x floor",
            bench.speedup
        );
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "bench_serve: {msg}\n\
         usage: bench_serve [OUT.json] [--min-speedup X]"
    );
    std::process::exit(2);
}
