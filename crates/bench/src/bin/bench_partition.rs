//! Emit the pinned partition-quality document behind `BENCH_partition.json`
//! (see [`grist_bench::partition`]): edge-cut, balance, and measured
//! halo-surface profiles over the part-count ladder.
//!
//! Usage: `cargo run --release -p grist-bench --bin bench_partition -- [OUT.json]`
//! (defaults to stdout). The document is fully deterministic; CI gates it
//! against the committed baseline with `bench_compare`.

use grist_bench::partition::run_partition;
use grist_bench::Table;

fn main() {
    let bench = run_partition();

    let mut table = Table::new(&[
        "parts",
        "edge_cut",
        "imbalance",
        "max_degree",
        "mean_halo",
        "max_ratio",
        "surface_coeff",
    ]);
    for r in &bench.rungs {
        table.row(&[
            r.n_parts.to_string(),
            r.edge_cut.to_string(),
            format!("{:.4}", r.imbalance),
            r.max_part_degree.to_string(),
            format!("{:.1}", r.mean_halo),
            format!("{:.4}", r.max_ratio),
            format!("{:.4}", r.surface_coeff),
        ]);
    }
    table.print();

    grist_bench::emit_doc(
        "bench_partition",
        std::env::args().nth(1).as_deref(),
        &bench.doc.pretty(),
    );
}
