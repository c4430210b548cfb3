//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **BFS index reordering** (§3.1.3) — cache-locality metric and LDCache
//!    hit ratio with and without the breadth-first renumbering.
//! 2. **Gathered halo exchange** (§3.1.3) — message count of the linked-list
//!    single-call exchange vs one message per variable.
//! 3. **Address distribution** (§3.3.3) — LDCache hit ratio sweep over the
//!    number of concurrently streamed arrays, aligned vs distributed.
//! 4. **Grouped parallel I/O** (§3.1.3) — concurrent writer counts.

use grist_bench::{fmt, Table};
use grist_mesh::{bfs_cell_order, edge_index_span, HexMesh, Partition, Permutation};
use sunway_sim::distributor::{AllocPolicy, PoolAllocator};
use sunway_sim::ldcache::{simulate_streams, LdCache};
use sunway_sim::SunwaySpec;

fn main() {
    let spec = SunwaySpec::next_gen();

    // ---------------- 1. BFS reorder ----------------
    println!("# Ablation 1: BFS index-sequence optimization (§3.1.3)\n");
    let mesh = HexMesh::build(5);
    let ident = Permutation::identity(mesh.n_cells());
    let bfs = bfs_cell_order(&mesh, 0);
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut shuffled: Vec<u32> = (0..mesh.n_cells() as u32).collect();
    shuffled.shuffle(&mut rng);
    let random = Permutation::from_order(shuffled);

    let mut t1 = Table::new(&["ordering", "mean edge index span", "vs random"]);
    let spans = [
        ("random", edge_index_span(&mesh, &random)),
        ("construction order", edge_index_span(&mesh, &ident)),
        ("BFS", edge_index_span(&mesh, &bfs)),
    ];
    for (name, s) in spans {
        t1.row(&[name.into(), fmt(s), fmt(s / spans[0].1)]);
    }
    t1.print();
    t1.write_csv("ablation_bfs").expect("csv");

    // ---------------- 2. Gathered exchange ----------------
    println!("\n# Ablation 2: gathered vs per-variable halo exchange\n");
    let partition = Partition::build(&mesh, 16, 2);
    let layout = grist_mesh::HaloLayout::build(&mesh, &partition, 1);
    let pairs = layout.message_count();
    let mut t2 = Table::new(&[
        "variables",
        "gathered msgs",
        "per-variable msgs",
        "reduction",
    ]);
    for nvars in [1usize, 4, 10, 20] {
        t2.row(&[
            nvars.to_string(),
            pairs.to_string(),
            (pairs * nvars).to_string(),
            format!("{nvars}x"),
        ]);
    }
    t2.print();
    t2.write_csv("ablation_exchange").expect("csv");

    // ---------------- 3. Address distribution sweep ----------------
    println!("\n# Ablation 3: LDCache hit ratio vs streamed arrays (Fig. 6 mechanism)\n");
    let mut t3 = Table::new(&["arrays", "aligned hit%", "distributed hit%"]);
    for n in 1..=10usize {
        let mut hit = [0.0f64; 2];
        for (i, policy) in [AllocPolicy::Aligned, AllocPolicy::Distributed]
            .iter()
            .enumerate()
        {
            let mut alloc = PoolAllocator::new(*policy, &spec, n.max(1));
            let bases: Vec<u64> = (0..n).map(|_| alloc.alloc(512 * 1024)).collect();
            let mut cache = LdCache::sw26010p(&spec);
            hit[i] = simulate_streams(&mut cache, &bases, 8, 20_000);
        }
        t3.row(&[
            n.to_string(),
            format!("{:.1}", hit[0] * 100.0),
            format!("{:.1}", hit[1] * 100.0),
        ]);
    }
    t3.print();
    t3.write_csv("ablation_distributor").expect("csv");
    println!("\n(The aligned layout collapses once arrays exceed the 4 cache ways.)");

    // ---------------- 3b. BFS reorder → measured LDCache hits ----------------
    // Feed the *actual* edge→cell indirect access stream of a gradient-type
    // kernel through the cache simulator under each cell ordering.
    println!("\n# Ablation 3b: cell ordering vs LDCache hit ratio (real index streams, G6)\n");
    let mesh6 = HexMesh::build(6);
    let ident6 = Permutation::identity(mesh6.n_cells());
    let bfs6 = bfs_cell_order(&mesh6, 0);
    let mut shuffled6: Vec<u32> = (0..mesh6.n_cells() as u32).collect();
    shuffled6.shuffle(&mut rng);
    let random6 = Permutation::from_order(shuffled6);
    let mesh = &mesh6;
    let mut t3b = Table::new(&["ordering", "hit ratio %"]);
    let run_stream = |perm: &Permutation| -> f64 {
        let mut cache = LdCache::sw26010p(&spec);
        // Two cell arrays (e.g. ke at c1 and c2) + one edge output stream.
        let cell_base0: u64 = 0;
        let cell_base1: u64 = 1 << 24;
        let edge_base: u64 = 1 << 25;
        for e in 0..mesh.n_edges() {
            let [c1, c2] = mesh.edge_cells[e];
            let a = perm.new_of_old[c1 as usize] as u64;
            let b = perm.new_of_old[c2 as usize] as u64;
            cache.access(cell_base0 + a * 8);
            cache.access(cell_base1 + b * 8);
            cache.access(edge_base + e as u64 * 8);
        }
        cache.hit_ratio()
    };
    for (name, perm) in [
        ("random", &random6),
        ("construction order", &ident6),
        ("BFS", &bfs6),
    ] {
        t3b.row(&[name.into(), format!("{:.1}", run_stream(perm) * 100.0)]);
    }
    t3b.print();
    t3b.write_csv("ablation_reorder_cache").expect("csv");

    // ---------------- 4. Grouped I/O ----------------
    // Groups of `g` ranks ship to one leader that writes: `⌈p / g⌉` writers.
    println!("\n# Ablation 4: grouped parallel I/O writer counts\n");
    let mut t4 = Table::new(&["processes", "group=1 (naive)", "group=64", "group=256"]);
    for p in [128usize, 32_768, 524_288] {
        t4.row(&[
            p.to_string(),
            p.div_ceil(1).to_string(),
            p.div_ceil(64).to_string(),
            p.div_ceil(256).to_string(),
        ]);
    }
    t4.print();
    t4.write_csv("ablation_pio").expect("csv");
}
