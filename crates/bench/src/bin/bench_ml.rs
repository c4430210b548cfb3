//! Runs the pinned batched-vs-per-column ML inference benchmark and writes
//! the `BENCH_ml.json` document (see `grist_bench::ml` for what runs).
//!
//! Usage:
//!   cargo run --release -p grist-bench --bin bench_ml -- \
//!       [OUT.json]
//!
//! Defaults to stdout when no path is given. The binary fails (exit 1) when
//! the batched engine is slower than [`MIN_SPEEDUP`] × the per-column path
//! on the *serial* target, or when the SIMD GEMM microkernel is slower than
//! [`MIN_SIMD_SPEEDUP`] × the scalar oracle on the pinned macro-tile shape
//! (best-of-N minima).

/// Acceptance floor: batched inference over the per-column path, serial.
const MIN_SPEEDUP: f64 = 3.0;
/// Acceptance floor: SIMD GEMM microkernel over the scalar oracle.
const MIN_SIMD_SPEEDUP: f64 = 1.5;

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

    let bench = grist_bench::ml::run_ml();
    eprintln!(
        "bench_ml: serial batched/per-column speedup {:.2}x, cpe {:.2}x, \
         gemm simd/scalar {:.2}x",
        bench.serial_speedup, bench.cpe_speedup, bench.gemm_simd_speedup
    );

    grist_bench::emit_doc("bench_ml", out_path.as_deref(), &bench.doc.pretty());

    if bench.serial_speedup < MIN_SPEEDUP {
        eprintln!(
            "bench_ml: FAIL — serial speedup {:.2}x below the {MIN_SPEEDUP}x floor",
            bench.serial_speedup
        );
        std::process::exit(1);
    }
    if bench.gemm_simd_speedup < MIN_SIMD_SPEEDUP {
        eprintln!(
            "bench_ml: FAIL — gemm simd speedup {:.2}x below the {MIN_SIMD_SPEEDUP}x floor",
            bench.gemm_simd_speedup
        );
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("bench_ml: {msg}\nusage: bench_ml [OUT.json]");
    std::process::exit(2);
}
