//! Workload 3, `swe_halo_2rank`: Williamson TC5 on two ranks with the
//! overlapped halo exchange — the only workload where `grist-runtime` does
//! real work (phase split, exchange, peer wait).
//!
//! Both ranks live in one `run_world` call. A block is `BLOCK_STEPS` steps
//! from a freshly initialised state (untimed) behind a barrier; its time is
//! the slower rank's, because a distributed step is only done when every
//! rank is. The op is one step. Blocks stay far below the step count at
//! which TC5 goes non-finite at this level and `dt` (README, "Findings").

use crate::common::{fnv_f64, ms, repeat_setup, time_calls_ms, Outcome, Params, Rng, Size};
use crate::span::{by_name, layer_table_json, Lane, SpanRec};
use crate::stats::{self, median, percentile};
use grist_core::{swe_dyn_step, DynStepMode};
use grist_dycore::swe::{SwePhases, SweSolver, SweState};
use grist_dycore::swe_cases::{install_tc5_mountain, williamson_tc5};
use grist_mesh::{HaloLayout, HexMesh, Partition};
use grist_runtime::{exchange_gathered, run_world, RankCtx, VarList};
use std::time::{Duration, Instant};
use sunway_sim::Json;

const RANKS: usize = 2;
const DT: f64 = 150.0;
/// Shallow water has one layer; only the level matters.
const FULL_SIZE: Size = Size { level: 4, nlev: 1 };
const WARMUP_STEPS: usize = 20;

fn block_steps(p: &Params) -> usize {
    if p.smoke {
        20
    } else {
        600
    }
}

fn level(p: &Params) -> u32 {
    p.size(FULL_SIZE).level
}

/// Tags are drawn in the same order on every rank, so equal draws match.
struct Tags(u32);

impl Tags {
    /// A tag that owns `tag` and `tag + 1` (barriers use both).
    fn next(&mut self) -> u32 {
        self.0 += 2;
        self.0
    }
}

/// One rank's half of the world: its solver, its endpoint, its span lane.
struct Rank<'a> {
    solver: SweSolver<f64>,
    phases: SwePhases,
    ctx: RankCtx,
    layout: &'a HaloLayout,
    tags: Tags,
    lane: Lane,
    seed: u64,
    epoch: Instant,
}

/// The per-rank part of set-up: mesh, solver, interior/boundary phase split.
fn rank_solver(ctx: &RankCtx, layout: &HaloLayout, level: u32) -> (SweSolver<f64>, SwePhases) {
    let mesh = HexMesh::build(level);
    let split = layout.locales[ctx.rank].phase_split(&mesh, 1);
    let solver = SweSolver::<f64>::new(mesh);
    let phases = SwePhases::build(&solver.mesh, &split.interior_cells);
    (solver, phases)
}

/// TC5 with a seeded 1e-6 relative thickness noise, identical on every rank.
fn init_state(solver: &mut SweSolver<f64>, seed: u64) -> SweState<f64> {
    let mut state = williamson_tc5::<f64>(&solver.mesh);
    install_tc5_mountain(solver, &mut state);
    let mut rng = Rng::new(seed);
    for h in state.h.as_mut_slice() {
        *h *= 1.0 + 1e-6 * (2.0 * rng.unit() - 1.0);
    }
    state
}

#[derive(Debug, Clone)]
struct Block {
    traced: bool,
    wall: Duration,
    step_ms: Vec<f64>,
    /// Step end stamps on the run's shared clock (traced blocks only).
    end_ns: Vec<u64>,
    hash: u64,
    finite: bool,
    mass_drift: f64,
    msgs_per_step: f64,
    bytes_per_step: f64,
}

impl<'a> Rank<'a> {
    fn new(ctx: RankCtx, layout: &'a HaloLayout, p: &Params, epoch: Instant) -> Rank<'a> {
        let (solver, phases) = rank_solver(&ctx, layout, level(p));
        Rank {
            solver,
            phases,
            ctx,
            layout,
            tags: Tags(0),
            lane: Lane::new(epoch, false),
            seed: p.seed,
            epoch,
        }
    }

    /// `steps` steps from a fresh state, behind a barrier.
    fn block(&mut self, steps: usize, mode: DynStepMode) -> Block {
        let layout: &'a HaloLayout = self.layout;
        let locale = &layout.locales[self.ctx.rank];
        let mut state = init_state(&mut self.solver, self.seed);
        let mass0 = self.solver.total_mass(&state);
        let traced = self.lane.enabled();
        let mut step_ms = Vec::with_capacity(steps);
        let mut end_ns = Vec::with_capacity(if traced { steps } else { 0 });
        let (mut msgs, mut bytes) = (0u64, 0u64);
        self.ctx.barrier(self.tags.next());
        let block = self.lane.enter("block");
        let t_block = Instant::now();
        for _ in 0..steps {
            let tag = self.tags.next();
            let t = Instant::now();
            let receipt = self.lane.time("runtime.swe_dyn_step", || {
                swe_dyn_step(
                    &mut self.solver,
                    &mut state,
                    DT,
                    &mut self.ctx,
                    locale,
                    &self.phases,
                    tag,
                    mode,
                    None,
                    None,
                )
            });
            step_ms.push(ms(t.elapsed()));
            if traced {
                end_ns.push(self.epoch.elapsed().as_nanos() as u64);
            }
            let receipt = receipt.expect("fault-free exchange");
            msgs += receipt.messages_sent;
            bytes += receipt.bytes_sent;
        }
        let wall = t_block.elapsed();
        self.lane.exit(block);
        let mass1 = self.solver.total_mass(&state);
        Block {
            traced,
            wall,
            step_ms,
            end_ns,
            hash: fnv_f64(&[state.h.as_slice(), state.u.as_slice()]),
            finite: state
                .h
                .as_slice()
                .iter()
                .chain(state.u.as_slice())
                .all(|v| v.is_finite()),
            mass_drift: (mass1 - mass0) / mass0,
            msgs_per_step: msgs as f64 / steps as f64,
            bytes_per_step: bytes as f64 / steps as f64,
        }
    }

    /// Rank 0 decides whether another block fits the budget; the sum carries
    /// its vote to every rank so all leave the loop together.
    fn agree(&mut self, rank0_vote: bool) -> bool {
        let mine = if self.ctx.rank == 0 && rank0_vote {
            1.0
        } else {
            0.0
        };
        self.ctx.allreduce_sum(mine, self.tags.next()) > 0.5
    }
}

#[derive(Debug, Default)]
struct RankOut {
    blocks: Vec<Block>,
    sync_step_ms: Vec<f64>,
    exchange_us: Vec<f64>,
    barrier_us: Vec<f64>,
    spans: Vec<SpanRec>,
}

struct Global {
    layout: HaloLayout,
    mesh_ms: f64,
    partition_ms: f64,
}

fn global_setup(level: u32) -> Global {
    let t = Instant::now();
    let mesh = HexMesh::build(level);
    let mesh_ms = ms(t.elapsed());
    let t = Instant::now();
    let partition = Partition::build(&mesh, RANKS, 2);
    let layout = HaloLayout::build(&mesh, &partition, 2);
    Global {
        layout,
        mesh_ms,
        partition_ms: ms(t.elapsed()),
    }
}

/// Everything a run builds before its first step, torn down again: mesh,
/// partition, halo layout, and both ranks' solvers and phase splits.
fn full_setup(p: &Params) -> Global {
    let g = global_setup(level(p));
    let layout = &g.layout;
    run_world(RANKS, |ctx| {
        std::hint::black_box(rank_solver(&ctx, layout, level(p)));
    });
    g
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let (g, setup_s, setup_times) = repeat_setup(p.setup_reps(), || full_setup(p));
    let layout = &g.layout;
    let steps = block_steps(p);
    let min_blocks = if p.smoke { 2 } else { 4 };
    // Traced: two thirds of the budget for the blocks, the rest for probes.
    let budget = Duration::from_secs_f64(if p.traced {
        p.seconds * 0.66
    } else {
        p.seconds
    });
    let epoch = Instant::now();

    let (ranks, _stats) = run_world(RANKS, |ctx| {
        let mut rank = Rank::new(ctx, layout, p, epoch);
        let mut r = RankOut::default();
        rank.block(WARMUP_STEPS, DynStepMode::Overlapped);
        let t_run = Instant::now();
        loop {
            let n = r.blocks.len();
            // Traced pass: odd blocks carry spans, even blocks do not, so
            // the overhead is a ratio of interleaved blocks.
            rank.lane.set_enabled(p.traced && n % 2 == 1);
            rank.lane.set_block(n as u32 + 1);
            r.blocks.push(rank.block(steps, DynStepMode::Overlapped));
            let more = r.blocks.len() < min_blocks || t_run.elapsed() < budget;
            if !rank.agree(more) {
                break;
            }
        }
        rank.lane.set_enabled(false);
        if p.traced {
            r.sync_step_ms = rank.block(steps / 3, DynStepMode::Synchronous).step_ms;
            let reps = if p.smoke { 50 } else { 2000 };
            // Isolated exchange: the same `h` halo the step moves, with no
            // compute between rounds.
            let mut state = init_state(&mut rank.solver, p.seed);
            let locale = &layout.locales[rank.ctx.rank];
            rank.ctx.barrier(rank.tags.next());
            for _ in 0..reps {
                let tag = rank.tags.next();
                let t = Instant::now();
                let mut list = VarList::new();
                list.push("h", state.h.nlev(), state.h.as_mut_slice());
                exchange_gathered(&mut rank.ctx, locale, &mut list, tag)
                    .expect("fault-free exchange");
                r.exchange_us.push(ms(t.elapsed()) * 1e3);
            }
            for _ in 0..reps {
                let tag = rank.tags.next();
                let t = Instant::now();
                rank.ctx.barrier(tag);
                r.barrier_us.push(ms(t.elapsed()) * 1e3);
            }
        }
        r.spans = rank.lane.into_spans();
        r
    });

    // --- correctness: every block of every rank ---
    let n_blocks = ranks[0].blocks.len();
    let hash0 = ranks[0].blocks[0].hash;
    for b in 0..n_blocks {
        let (r0, r1) = (&ranks[0].blocks[b], &ranks[1].blocks[b]);
        let ok = r0.hash == r1.hash
            && r0.hash == hash0
            && r0.finite
            && r1.finite
            && r0.mass_drift.abs() < 1e-12
            && r1.mass_drift.abs() < 1e-12;
        out.op(ok, || {
            format!(
                "block {b}: hashes {:016x}/{:016x} (first {hash0:016x}), finite {}/{}, \
                 mass drift {:e}/{:e}",
                r0.hash, r1.hash, r0.finite, r1.finite, r0.mass_drift, r1.mass_drift
            )
        });
    }

    // A step is done when the slower rank is.
    let slower = |b: usize| -> Vec<f64> {
        ranks[0].blocks[b]
            .step_ms
            .iter()
            .zip(&ranks[1].blocks[b].step_ms)
            .map(|(a, c)| a.max(*c))
            .collect()
    };
    let block_wall_s = |b: usize| {
        ranks[0].blocks[b]
            .wall
            .max(ranks[1].blocks[b].wall)
            .as_secs_f64()
    };
    let sim_s_per_block = steps as f64 * DT;

    if !p.traced {
        let step_ms: Vec<f64> = (0..n_blocks).flat_map(slower).collect();
        let rates: Vec<f64> = (0..n_blocks)
            .map(|b| sim_s_per_block / block_wall_s(b))
            .collect();
        let block_p50: Vec<f64> = (0..n_blocks).map(|b| median(&slower(b))).collect();
        // Blocks are identical work and interference only adds time: the
        // best block is the steadiest estimate (README, "Estimators").
        out.metric("rate_per_s", stats::max(&rates));
        out.metric("op_ms", stats::min(&block_p50));
        out.metric("setup_s", setup_s);
        out.summary("op_ms", &step_ms);
        out.summary("block_rate_per_s", &rates);
        out.summary("block_p50_step_ms", &block_p50);
        out.detail("op_p99_ms", Json::Num(percentile(&step_ms, 0.99)));
        out.summary("setup_s", &setup_times);
        out.detail("state_hash", Json::Str(format!("{hash0:016x}")));
        return out;
    }

    // --- traced pass: per-layer numbers ---
    let on = |want: bool| -> Vec<usize> {
        (0..n_blocks)
            .filter(|&b| ranks[0].blocks[b].traced == want)
            .collect()
    };
    let (traced_blocks, plain_blocks) = (on(true), on(false));
    let step_ms: Vec<f64> = traced_blocks.iter().flat_map(|&b| slower(b)).collect();
    let skew_us: Vec<f64> = traced_blocks
        .iter()
        .flat_map(|&b| {
            ranks[0].blocks[b]
                .end_ns
                .iter()
                .zip(&ranks[1].blocks[b].end_ns)
                .map(|(a, c)| a.abs_diff(*c) as f64 / 1e3)
        })
        .collect();
    let walls = |idx: &[usize]| -> Vec<f64> { idx.iter().map(|&b| block_wall_s(b)).collect() };

    // Serial reference on this thread, alone: the same steps with no ranks.
    let mut serial = SweSolver::<f64>::new(HexMesh::build(level(p)));
    let mut state = init_state(&mut serial, p.seed);
    for _ in 0..WARMUP_STEPS {
        serial.step_rk3(&mut state, DT);
    }
    let serial_ms = time_calls_ms(steps / 3, || serial.step_rk3(&mut state, DT));

    let step_p50 = median(&step_ms);
    let serial_p50 = median(&serial_ms);
    let sync_step: Vec<f64> = ranks[0]
        .sync_step_ms
        .iter()
        .zip(&ranks[1].sync_step_ms)
        .map(|(a, c)| a.max(*c))
        .collect();
    let b0 = &ranks[0].blocks[0];
    let cells = serial.mesh.n_cells() as f64;

    out.metric("mesh.build_ms", g.mesh_ms);
    out.metric("mesh.partition_ms", g.partition_ms);
    out.metric("dycore.swe_step_ms_p50", serial_p50);
    out.metric("dycore.share", (serial_p50 / step_p50).min(1.0));
    out.metric("dycore.cell_lev_updates_per_s", cells / (serial_p50 / 1e3));
    out.metric("runtime.step_ms_p50", step_p50);
    out.metric("runtime.sync_step_ms_p50", median(&sync_step));
    out.metric("runtime.rank_overhead_ms", step_p50 - serial_p50);
    out.metric("runtime.exchange_us_p50", median(&ranks[0].exchange_us));
    out.metric("runtime.barrier_us_p50", median(&ranks[0].barrier_us));
    out.metric("runtime.rank_skew_us_p50", median(&skew_us));
    // Per step, summed over ranks (each rank counts its own sends).
    out.metric(
        "runtime.halo_msgs_per_step",
        b0.msgs_per_step + ranks[1].blocks[0].msgs_per_step,
    );
    out.metric(
        "runtime.halo_bytes_per_step",
        b0.bytes_per_step + ranks[1].blocks[0].bytes_per_step,
    );
    let table = by_name(&ranks[0].spans);
    let wall_ns = table.get("block").map_or(1, |b| b.total_ns);
    out.metric(
        "trace.other_pct",
        100.0 * table.get("block").map_or(0.0, |b| b.self_ns as f64) / wall_ns as f64,
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&walls(&traced_blocks)) / median(&walls(&plain_blocks)) - 1.0),
    );
    out.summary("step_ms", &step_ms);
    out.summary("serial_step_ms", &serial_ms);
    out.summary("rank_skew_us", &skew_us);
    out.detail("layer_table_rank0", layer_table_json(&table, wall_ns));
    out.detail("state_hash", Json::Str(format!("{hash0:016x}")));
    let mut lanes = Vec::new();
    for (name, r) in ["rank0", "rank1"].into_iter().zip(ranks) {
        lanes.push((name, r.spans));
    }
    crate::write_trace(p, "swe_halo_2rank", &lanes, &mut out);
    out
}
