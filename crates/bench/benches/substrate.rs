//! Benchmarks of the substrate layers: mesh generation and partitioning,
//! the gathered halo exchange, hyperdiffusion, the SWGOMP job server, and
//! the DMA/cache simulators themselves. Uses the offline self-timed
//! harness in `grist_bench::Bencher`.

use grist_bench::Bencher;
use grist_dycore::diffusion::{hyperdiffuse_cell, max_stable_nu4};
use grist_dycore::operators::ScaledGeometry;
use grist_dycore::Field2;
use grist_mesh::{bfs_cell_order, HaloLayout, HexMesh, Partition, EARTH_OMEGA, EARTH_RADIUS_M};
use grist_runtime::{exchange_gathered, run_world, VarList};
use sunway_model::{simulate_streams, LdCache, SunwaySpec};
use sunway_sim::{JobServer, Substrate};

fn bench_mesh_build() {
    let mut g = Bencher::group("mesh");
    for level in [3u32, 4, 5] {
        g.bench(&format!("build/G{level}"), || {
            HexMesh::build(level);
        });
    }
    let mesh = HexMesh::build(4);
    g.bench("partition_16/G4", || {
        Partition::build(&mesh, 16, 2);
    });
    g.bench("bfs_order/G4", || {
        bfs_cell_order(&mesh, 0);
    });
    g.finish();
}

fn bench_halo_exchange() {
    let mesh = HexMesh::build(4);
    let partition = Partition::build(&mesh, 4, 1);
    let layout = HaloLayout::build(&mesh, &partition, 1);
    let n = mesh.n_cells();
    let mut g = Bencher::group("exchange");
    g.bench("gathered_4ranks_3vars/G4", || {
        let layout = &layout;
        run_world(4, move |mut ctx| {
            let locale = &layout.locales[ctx.rank];
            let mut f1 = vec![1.0f64; n * 4];
            let mut f2 = vec![2.0f64; n];
            let mut f3 = vec![3.0f64; n * 2];
            let mut list = VarList::new();
            list.push("a", 4, &mut f1);
            list.push("b", 1, &mut f2);
            list.push("c", 2, &mut f3);
            exchange_gathered(&mut ctx, locale, &mut list, 1).expect("uniform lists");
        });
    });
    g.finish();
}

fn bench_hyperdiffusion() {
    let mesh = HexMesh::build(4);
    let geom: ScaledGeometry<f64> = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
    let dt = 300.0;
    let nu4 = 0.5 * max_stable_nu4(&mesh, EARTH_RADIUS_M, dt);
    let mut h = Field2::from_fn(30, mesh.n_cells(), |k, cl| ((cl + k) % 7) as f64);
    let mut l1 = Field2::zeros(30, mesh.n_cells());
    let mut l2 = Field2::zeros(30, mesh.n_cells());
    let mut g = Bencher::group("diffusion");
    for (label, sub) in [
        ("serial", Substrate::serial()),
        ("cpe64", Substrate::cpe_teams(64)),
    ] {
        g.bench(&format!("hyperdiffuse_30lev/G4/{label}"), || {
            hyperdiffuse_cell(&sub, &mesh, &geom, &mut h, nu4, dt, &mut l1, &mut l2)
        });
    }
    g.finish();
}

fn bench_swgomp() {
    let server = JobServer::new(16);
    let mut g = Bencher::group("swgomp");
    g.bench("target_parallel_for_64k", || {
        server.target_parallel_for(65_536, 1024, &|i| {
            std::hint::black_box(i * i);
        })
    });
    let mut data = vec![0.0f64; 1 << 20];
    g.bench("workshare_fill_1M", || {
        server.target_workshare_fill(&mut data, 1.5)
    });
    g.finish();
}

fn bench_simulators() {
    let spec = SunwaySpec::next_gen();
    let mut g = Bencher::group("simulators");
    let bases: Vec<u64> = (0..7).map(|k| k * (1 << 20)).collect();
    g.bench("ldcache_7stream_20k", || {
        let mut cache = LdCache::sw26010p(&spec);
        simulate_streams(&mut cache, &bases, 8, 20_000);
    });
    g.finish();
}

fn main() {
    bench_mesh_build();
    bench_halo_exchange();
    bench_hyperdiffusion();
    bench_swgomp();
    bench_simulators();
}
