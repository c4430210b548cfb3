//! Runs the pinned batched-vs-per-column ML inference benchmark and writes
//! the `BENCH_ml.json` document (see `grist_bench::ml` for what runs).
//!
//! Usage:
//!   cargo run --release -p grist-bench --bin bench_ml -- \
//!       [OUT.json] [--min-speedup X] [--min-simd-speedup X]
//!
//! Defaults to stdout when no path is given. The binary fails (exit 1) when
//! the batched engine is slower than `--min-speedup` × the per-column path
//! on the *serial* target (acceptance floor 3×), or when the SIMD GEMM
//! microkernel is slower than `--min-simd-speedup` × the scalar oracle on
//! the pinned macro-tile shape (floor 1.5×, best-of-N minima). Pass 0 to
//! either flag to disable that gate when exploring.

fn main() {
    let mut out_path: Option<String> = None;
    let mut min_speedup = 3.0f64;
    let mut min_simd_speedup = 1.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> f64 {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
                .parse()
                .unwrap_or_else(|_| usage(&format!("{name} value must be a number")))
        };
        match arg.as_str() {
            "--min-speedup" => min_speedup = num("--min-speedup"),
            "--min-simd-speedup" => min_simd_speedup = num("--min-simd-speedup"),
            _ if arg.starts_with("--") => usage(&format!("unknown flag {arg}")),
            _ if out_path.is_none() => out_path = Some(arg),
            _ => usage("at most one output path"),
        }
    }

    let bench = grist_bench::ml::run_ml();
    eprintln!(
        "bench_ml: serial batched/per-column speedup {:.2}x, cpe {:.2}x, \
         gemm simd/scalar {:.2}x",
        bench.serial_speedup, bench.cpe_speedup, bench.gemm_simd_speedup
    );

    grist_bench::emit_doc("bench_ml", out_path.as_deref(), &bench.doc.pretty());

    if bench.serial_speedup < min_speedup {
        eprintln!(
            "bench_ml: FAIL — serial speedup {:.2}x below the {min_speedup}x floor",
            bench.serial_speedup
        );
        std::process::exit(1);
    }
    if bench.gemm_simd_speedup < min_simd_speedup {
        eprintln!(
            "bench_ml: FAIL — gemm simd speedup {:.2}x below the {min_simd_speedup}x floor",
            bench.gemm_simd_speedup
        );
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "bench_ml: {msg}\n\
         usage: bench_ml [OUT.json] [--min-speedup X] [--min-simd-speedup X]"
    );
    std::process::exit(2);
}
