//! Traced multi-rank chaos scenario + performance-attribution report.
//!
//! Runs a short resilient coupled window on every rank of a 4-rank world
//! (each rank drives its own CPE-teams substrate over one *shared* metrics
//! registry, so all lanes share a clock origin), with ML physics on, a
//! seeded dispatch-fault storm per rank (transient retries plus one pinned
//! fault that forces degrade-to-serial), and one gathered halo-exchange
//! round with a pinned in-flight truncation — then:
//!
//! 1. exports the event trace as Chrome/Perfetto `trace_event` JSON
//!    (load it at <https://ui.perfetto.dev>),
//! 2. validates it (balanced `B`/`E`, per-lane monotone timestamps,
//!    >= 4 rank lanes, halo-wait events, >= 1 fault-injection event), and
//! 3. computes the roofline/critical-path attribution report
//!    (`sunway_sim::analyze`), written as JSON and printed as text.
//!
//! Usage:
//!   cargo run --release -p grist-bench --bin trace_report -- \
//!       [--json] [TRACE_OUT.json [REPORT_OUT.json]]
//!
//! Defaults: `target/trace.json` and `target/trace_report.json`; `--json`
//! prints the report document on stdout instead of the text table. Seed
//! with `CHAOS_SEED=<n>` (default 42). Exits nonzero when the trace fails
//! validation or misses any of the acceptance events above.

use grist_core::{GristModel, RunConfig};
use grist_mesh::{HaloLayout, HexMesh, Partition};
use grist_runtime::{halo_fault_key, run_world, ExchangeCtx, VarList};
use sunway_sim::{
    analyze, dispatch_fault_key, trace, validate_chrome, EventKind, FaultPlan, FaultSite, Metrics,
    RooflineInputs, Substrate, SunwaySpec,
};

const RANKS: usize = 4;
const LEVEL: u32 = 2;
const NLEV: usize = 8;
const CPES: usize = 8;
const HALO_MESH_LEVEL: u32 = 3;
const HALO_TAG: u32 = 7;

fn fail(msg: &str) -> ! {
    eprintln!("trace_report: FAIL — {msg}");
    std::process::exit(1);
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut json_mode = false;
    for a in std::env::args().skip(1) {
        if a == "--json" {
            json_mode = true;
        } else {
            paths.push(a);
        }
    }
    let trace_out = paths.first().cloned().unwrap_or("target/trace.json".into());
    let report_out = paths
        .get(1)
        .cloned()
        .unwrap_or("target/trace_report.json".into());
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // One shared registry: every rank's substrate clones it, so all lanes
    // land in one tracer with a single clock origin.
    let metrics = Metrics::default();
    metrics.tracer().enable();

    let mesh = HexMesh::build(HALO_MESH_LEVEL);
    let partition = Partition::build(&mesh, RANKS, 2);
    let layout = HaloLayout::build(&mesh, &partition, 1);
    let n = mesh.n_cells();
    // Pin the in-flight truncation onto a (receiver, sender) pair that
    // actually exchanges, like the chaos suite does.
    let victim = layout
        .locales
        .iter()
        .find(|l| !l.recv.is_empty())
        .expect("some rank has halos");
    let (vrank, vsrc) = (victim.rank, victim.recv[0].0);
    let halo_plan = FaultPlan::new(seed).pin(
        FaultSite::HaloExchange,
        halo_fault_key(vrank, vsrc, HALO_TAG),
    );

    run_world(RANKS, |mut ctx| {
        trace::set_thread_rank(ctx.rank as u32);

        // Resilient coupled window under a per-rank dispatch-fault storm.
        let sub = Substrate::cpe_teams_with_metrics(CPES, metrics.clone());
        sub.arm_faults(
            FaultPlan::new(seed.wrapping_add(ctx.rank as u64))
                .with_rate(FaultSite::Dispatch, 0.02)
                .pin(FaultSite::Dispatch, dispatch_fault_key("hevi_mass_flux", 0)),
        );
        let cfg = RunConfig::for_level(LEVEL, NLEV).with_ml_physics(true);
        let window = cfg.dt_dyn * cfg.dyn_per_phy() as f64;
        let mut model = GristModel::<f64>::with_substrate(cfg, sub);
        model.advance_resilient(window);

        // One gathered halo round; the pinned truncation surfaces as a
        // typed error on the victim rank and a fault event in the trace.
        let locale = &layout.locales[ctx.rank];
        let mut h = vec![0.0f64; n * NLEV];
        let mut list = VarList::new();
        list.push("h", NLEV, &mut h);
        let xctx = ExchangeCtx {
            metrics: Some(&metrics),
            plan: Some(&halo_plan),
        };
        let r = xctx.exchange(&mut ctx, locale, &mut list, HALO_TAG);
        if ctx.rank == vrank {
            if r.is_ok() {
                fail("pinned halo truncation did not surface on the victim rank");
            }
        } else {
            r.expect("clean ranks exchange successfully");
        }
    });
    metrics.tracer().disable();

    let snap = metrics.tracer().snapshot();
    let chrome = snap.to_chrome_json();
    let stats = match validate_chrome(&chrome) {
        Ok(s) => s,
        Err(e) => fail(&format!("exported trace fails schema validation: {e}")),
    };
    if stats.ranks < RANKS {
        fail(&format!(
            "only {} rank lanes traced, need {RANKS}",
            stats.ranks
        ));
    }
    if snap.count_kind(EventKind::HaloWait) == 0 {
        fail("no halo-wait events traced");
    }
    if snap.count_kind(EventKind::Fault) == 0 {
        fail("no fault-injection events traced");
    }

    // Roofline inputs: arch constants plus the exact ML FLOP counters,
    // mirroring `GristModel::roofline_inputs` over the shared registry.
    let mut inputs = RooflineInputs::from_arch(&SunwaySpec::next_gen());
    for (counter, leaf) in [
        ("ml.flops_batched", "ml_physics_blocks"),
        ("ml.flops_percol", "ml_physics_columns"),
    ] {
        let v = metrics.counter(counter);
        if v > 0 {
            inputs.flops_by_kernel.insert(leaf.into(), v);
        }
    }
    let report = analyze(&snap, &inputs);

    for (path, text) in [
        (&trace_out, snap.to_chrome_string()),
        (&report_out, report.to_json().pretty()),
    ] {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, &text).unwrap_or_else(|e| {
            eprintln!("trace_report: cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("trace_report: wrote {path} ({} bytes)", text.len());
    }

    if json_mode {
        println!("{}", report.to_json().pretty());
    } else {
        print!("{}", report.to_text());
        println!(
            "trace_report: {} events across {} lanes / {} ranks ({} B / {} E / {} i), {} dropped",
            stats.events,
            stats.lanes,
            stats.ranks,
            stats.begins,
            stats.ends,
            stats.instants,
            snap.dropped
        );
        println!("trace_report: OK — open {trace_out} at https://ui.perfetto.dev");
    }
}
