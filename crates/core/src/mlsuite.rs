//! The ML-based physics suite assembled for online coupling (§3.2.3–3.2.4):
//! the CNN tendency module (Q1/Q2), the MLP radiation diagnostic module
//! (gsw/glw), and the conventional physics *diagnostic* module (surface
//! precipitation from the moisture budget) — "they together form the new
//! model physics suite".
//!
//! ## Batched inference (the §3.3.4 "unified computational pattern")
//!
//! [`MlSuite::step_columns`] packs blocks of [`MlSuite::block`] columns into
//! row-major `[B × n_in]` stage matrices and runs each block through
//! `grist_ml`'s batched engine (the CNN's conv register tiles, the MLP's
//! GEMMs) — one `Substrate` dispatch item per *block*, metered with
//! a per-block DMA payload so DMA counters, the `ml` trace span and the
//! fault/degradation path all see the batched kernel. All
//! intermediate storage comes from a shared [`ScratchPool`]; after warm-up
//! the steady-state loop performs zero heap allocations — a block runs one
//! path and every buffer on it is a pooled arena — on the inference side
//! (the `MlOutput` assembly allocates its `Tendencies`, as the per-column
//! path does), which [`MlSuite::scratch_alloc_events`] lets tests assert.
//!
//! The batched path is **bitwise identical** to the per-column reference
//! ([`MlSuite::step_columns_per_column`]): the conv tiles and the GEMM
//! accumulate each output element in the same order as the per-column
//! loops (see `grist_ml::batch`), so equivalence tests use exact equality
//! and the chaos suite's determinism guarantees carry over unchanged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use grist_ml::batch::{CnnScratch, MlpScratch};
use grist_ml::models::{RadiationMlp, TendencyCnn, CNN_INPUT_CHANNELS, CNN_OUTPUT_CHANNELS};
use grist_ml::{cnn_batch_flops, mlp_batch_flops, GemmVariant};
use grist_physics::column::consts::LVAP;
use grist_physics::surface::{bulk_fluxes, SurfaceConfig};
use grist_physics::{Column, SurfaceDiag, Tendencies};
use sunway_sim::{ColumnsMut, Substrate};

/// Default number of columns per batched dispatch block. A CPE's 256 KiB
/// LDM cannot hold a whole activation plane at the production-like
/// 64-channel, 30-level shape: the padded plane `B·(nlev + 2) × ch` f32 is
/// 256 KiB (262 144 B) by itself. It need not: a conv register tile holds
/// resident only its receptive field, `(MR + 2)` rows × `c_in` (1.75 KiB),
/// and the layer's weights, `3·c_in × c_out` f32 (48 KiB), and streams the
/// rows through — see DESIGN.md "Batched ML inference".
pub const DEFAULT_ML_BLOCK: usize = 32;

/// Per-block working storage: the packed stage matrices plus the network
/// scratch arenas. Lives in a [`ScratchPool`] and is reused across blocks
/// and steps.
#[derive(Debug, Default)]
struct BlockScratch {
    cnn: CnnScratch,
    mlp: MlpScratch,
    xs_cnn: Vec<f32>,
    ys_cnn: Vec<f32>,
    xs_mlp: Vec<f32>,
    ys_mlp: Vec<f32>,
    grows: u64,
}

impl BlockScratch {
    /// Size every buffer for the suite's configured block (or `b`, if a
    /// larger block ever arrives) rather than for the block that happens to
    /// arrive, so a pooled arena that meets a short tail block first does
    /// not grow a second time when a full block follows.
    fn ensure(&mut self, suite: &MlSuite, b: usize) {
        let cap = suite.block.max(b);
        let nlev = suite.nlev;
        let want = cap * CNN_INPUT_CHANNELS * nlev;
        if self.xs_cnn.len() < want {
            self.grows += 1;
            self.xs_cnn.resize(want, 0.0);
            self.ys_cnn.resize(cap * CNN_OUTPUT_CHANNELS * nlev, 0.0);
            self.xs_mlp.resize(cap * suite.mlp.n_in, 0.0);
            self.ys_mlp.resize(cap * suite.mlp.n_out, 0.0);
            // The network arenas grow with the stage matrices, so a block
            // that fits does no sizing work beyond the one compare above.
            self.cnn.reserve(&suite.cnn, cap);
            self.mlp.reserve(&suite.mlp, cap);
        }
    }

    fn alloc_events(&self) -> u64 {
        self.grows + self.cnn.grows() + self.mlp.grows()
    }
}

/// A free-list of `BlockScratch` arenas shared (via `Arc`) by every clone
/// of a suite. Workers pop an arena per block and push it back when done;
/// one arena is created per *concurrently active* worker, after which the
/// pool is in steady state and [`Self::alloc_events`] stops moving.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<BlockScratch>>,
    created: AtomicU64,
}

/// Why locking the free list can fail: only a panic while it was held, and
/// the pool holds it just to push or pop an arena.
const POOL_POISONED: &str = "ML scratch pool poisoned: a block panicked while holding it";

impl ScratchPool {
    fn take(&self) -> BlockScratch {
        let popped = self.free.lock().expect(POOL_POISONED).pop();
        popped.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            BlockScratch::default()
        })
    }

    fn put(&self, s: BlockScratch) {
        self.free.lock().expect(POOL_POISONED).push(s);
    }

    /// Total allocation events: arenas created plus every buffer growth
    /// inside the pooled arenas. Constant across repeated `step_columns`
    /// calls ⇒ the batched inference loop is allocation-free. (Only
    /// meaningful between dispatches, when all arenas are back in the
    /// pool.)
    pub fn alloc_events(&self) -> u64 {
        let free = self.free.lock().expect(POOL_POISONED);
        self.created.load(Ordering::Relaxed) + free.iter().map(|s| s.alloc_events()).sum::<u64>()
    }
}

/// The coupled ML physics suite.
#[derive(Debug, Clone)]
pub struct MlSuite {
    pub cnn: TendencyCnn,
    pub mlp: RadiationMlp,
    pub nlev: usize,
    /// Execution target for the blocked inference fan-out (§3.3.4).
    pub sub: Substrate,
    /// Surface-layer parameters for the bulk-flux diagnostic — previously
    /// hardcoded to `SurfaceConfig::default()`; now plumbed so a model
    /// configured with non-default surface physics keeps it under the ML
    /// suite too (ocean β, matching the conventional suite's ocean branch).
    pub surface: SurfaceConfig,
    /// Columns per batched dispatch block.
    pub block: usize,
    /// Shared scratch arenas for the batched engine.
    scratch: Arc<ScratchPool>,
}

/// Output of the ML suite on one column (mirrors the conventional suite's).
#[derive(Debug, Clone)]
pub struct MlOutput {
    pub tend: Tendencies,
    pub diag: SurfaceDiag,
}

impl MlSuite {
    /// An untrained suite (for architecture/performance work); training is
    /// done by `datagen::train_ml_suite`.
    pub fn untrained(nlev: usize, channels: usize, seed: u64) -> Self {
        let mut cnn = TendencyCnn::new(nlev, channels, seed);
        // Untrained output scaling: keep raw-network O(1) outputs at the
        // physical scale of small tendencies so an untrained suite perturbs
        // rather than destroys a coupled run. Training overwrites these.
        cnn.out_norm = vec![(0.0, 1e-6); 2];
        // Three diagnostic outputs: gsw, glw (§3.2.3) plus surface
        // precipitation (our diagnostic-module extension — DESIGN.md).
        let mut mlp = RadiationMlp::with_outputs(2 * nlev + 2, 3, 64, seed ^ 0x5eed);
        mlp.out_norm = vec![(200.0, 20.0), (350.0, 20.0), (1.0, 0.5)];
        MlSuite {
            cnn,
            mlp,
            nlev,
            sub: Substrate::serial(),
            surface: SurfaceConfig::default(),
            block: DEFAULT_ML_BLOCK,
            scratch: Arc::new(ScratchPool::default()),
        }
    }

    /// Build the CNN input vector `[U|V|T|Q|P] × nlev` from a column
    /// (raw physical units; normalization is the model's).
    pub fn cnn_input(&self, col: &Column) -> Vec<f32> {
        let mut x = vec![0.0f32; CNN_INPUT_CHANNELS * self.nlev];
        self.cnn_input_into(col, &mut x);
        x
    }

    /// Fill a `[5 × nlev]` slice with the CNN input — the allocation-free
    /// form the batched packer uses.
    pub fn cnn_input_into(&self, col: &Column, x: &mut [f32]) {
        let nlev = self.nlev;
        debug_assert_eq!(x.len(), CNN_INPUT_CHANNELS * nlev);
        let fields: [&[f64]; CNN_INPUT_CHANNELS] = [&col.u, &col.v, &col.t, &col.qv, &col.p];
        for (chunk, field) in x.chunks_mut(nlev).zip(fields) {
            for (d, &s) in chunk.iter_mut().zip(field) {
                *d = s as f32;
            }
        }
    }

    /// Build the radiation MLP input `[T | Q | tskin | coszr]`.
    pub fn mlp_input(&self, col: &Column) -> Vec<f32> {
        let mut x = vec![0.0f32; 2 * self.nlev + 2];
        self.mlp_input_into(col, &mut x);
        x
    }

    /// Fill a `[2·nlev + 2]` slice with the MLP input (allocation-free
    /// form).
    pub fn mlp_input_into(&self, col: &Column, x: &mut [f32]) {
        let nlev = self.nlev;
        debug_assert_eq!(x.len(), 2 * nlev + 2);
        for (d, &s) in x[..nlev].iter_mut().zip(&col.t) {
            *d = s as f32;
        }
        for (d, &s) in x[nlev..2 * nlev].iter_mut().zip(&col.qv) {
            *d = s as f32;
        }
        x[2 * nlev] = col.tskin as f32;
        x[2 * nlev + 1] = col.coszr as f32;
    }

    /// Assemble one column's [`MlOutput`] from the *denormalized* CNN
    /// profile `y [2 × nlev]` and MLP diagnostics `r [n_out]` — the shared
    /// tail of the per-column and batched paths.
    fn assemble_output(&self, col: &Column, y: &[f32], r: &[f32]) -> MlOutput {
        let nlev = self.nlev;
        let mut tend = Tendencies::zeros(nlev);
        for k in 0..nlev {
            tend.dt_dt[k] = y[k] as f64; // Q1
            tend.dqv_dt[k] = y[nlev + k] as f64; // Q2
        }
        let gsw = (r[0] as f64).max(0.0);
        let glw = (r[1] as f64).max(0.0);
        // Learned precipitation diagnostic (third MLP output); if the suite
        // was built with only the two radiation outputs, fall back to the
        // column moisture-budget closure P = E − ∫Q2 dm.
        let (shflx, lhflx) = bulk_fluxes(col, &self.surface, self.surface.beta_ocean);
        let precip = if r.len() >= 3 {
            (r[2] as f64).max(0.0)
        } else {
            let mut dq_int = 0.0;
            for k in 0..nlev {
                dq_int += tend.dqv_dt[k] * col.layer_mass(k);
            }
            (lhflx / LVAP - dq_int).max(0.0) * 86_400.0
        };
        MlOutput {
            tend,
            diag: SurfaceDiag {
                gsw,
                glw,
                precip,
                shflx,
                lhflx,
                tskin: col.tskin,
                cloud_cover: 0.0,
            },
        }
    }

    /// Run the suite on one column (matrix–vector reference path).
    pub fn step_column(&self, col: &Column) -> MlOutput {
        let nlev = self.nlev;
        // --- ML physical tendency module ---
        let mut x = self.cnn_input(col);
        self.cnn.normalize_input(&mut x);
        let mut y = vec![0.0f32; 2 * nlev];
        self.cnn.infer(&x, &mut y);
        self.cnn.denormalize_output(&mut y);

        // --- ML radiation/surface diagnostic module ---
        let mut rx = self.mlp_input(col);
        self.mlp.normalize_input(&mut rx);
        let mut r = self.mlp.infer(&rx);
        self.mlp.denormalize_output(&mut r);

        self.assemble_output(col, &y, &r)
    }

    /// Run one block of columns through the batched engine, writing
    /// column `i`'s result into `out[i]`.
    fn step_block(&self, block: &[Column], out: &mut [Option<MlOutput>], s: &mut BlockScratch) {
        let b = block.len();
        let nlev = self.nlev;
        let (n_in, n_out) = (self.mlp.n_in, self.mlp.n_out);
        s.ensure(self, b);

        // Pack the stage matrices (row per column), raw physical units.
        let xs_cnn = &mut s.xs_cnn[..b * CNN_INPUT_CHANNELS * nlev];
        for (i, col) in block.iter().enumerate() {
            let row = &mut xs_cnn[i * CNN_INPUT_CHANNELS * nlev..][..CNN_INPUT_CHANNELS * nlev];
            self.cnn_input_into(col, row);
        }
        let xs_mlp = &mut s.xs_mlp[..b * n_in];
        for (i, col) in block.iter().enumerate() {
            let row = &mut xs_mlp[i * n_in..][..n_in];
            self.mlp_input_into(col, row);
        }

        // Normalize in place, one row per column.
        for row in xs_cnn.chunks_mut(CNN_INPUT_CHANNELS * nlev) {
            self.cnn.normalize_input(row);
        }
        for row in xs_mlp.chunks_mut(n_in) {
            self.mlp.normalize_input(row);
        }

        // One pass per network for the whole block: the CNN's conv tiles,
        // the MLP's GEMMs.
        let ys_cnn = &mut s.ys_cnn[..b * CNN_OUTPUT_CHANNELS * nlev];
        self.cnn.infer_batch(b, xs_cnn, ys_cnn, &mut s.cnn);
        let ys_mlp = &mut s.ys_mlp[..b * n_out];
        self.mlp
            .infer_batch(GemmVariant::default(), b, xs_mlp, ys_mlp, &mut s.mlp);

        // Denormalize and assemble per column.
        for (i, col) in block.iter().enumerate() {
            let y = &mut ys_cnn[i * CNN_OUTPUT_CHANNELS * nlev..][..CNN_OUTPUT_CHANNELS * nlev];
            self.cnn.denormalize_output(y);
            let r = &mut ys_mlp[i * n_out..][..n_out];
            self.mlp.denormalize_output(r);
            out[i] = Some(self.assemble_output(col, y, r));
        }
    }

    /// Run on many columns — "a simplified, unified computational pattern
    /// (primarily matrix multiplication)": blocks of [`Self::block`]
    /// columns, each through the conv tiles and the MLP's GEMMs, one
    /// `Substrate` dispatch item per block with the streamed bytes metered
    /// for the DMA model.
    pub fn step_columns(&self, cols: &[Column]) -> Vec<MlOutput> {
        // Attribute the inference fan-out to the "ml" trace span.
        let _span = self.sub.span("ml");
        let n = cols.len();
        let block = self.block.max(1);
        let n_blocks = n.div_ceil(block);
        // Streamed per block: CNN in/out (5+2 profiles) + MLP in/out
        // (2·nlev+2 in, 3 out ≈ +5), all f32.
        let bytes_per_block = 4 * block * (9 * self.nlev + 5);
        // Exact FLOP accounting for the roofline attribution: the sum of
        // the per-block GEMM shapes actually dispatched (`batch_flops`),
        // surfaced as the `ml.flops_batched` counter.
        let flops: u64 = (0..n_blocks)
            .map(|bi| self.batch_flops(((bi * block + block).min(n)) - bi * block))
            .sum();
        self.sub.metrics().counter_add("ml.flops_batched", flops);
        let mut out: Vec<Option<MlOutput>> = (0..n).map(|_| None).collect();
        // One view column per block; the last is short when `block ∤ n`.
        let blocks = ColumnsMut::new(&mut out, block);
        self.sub
            .run_cols("ml_physics_blocks", bytes_per_block, blocks, |bi, out| {
                let lo = bi * block;
                let mut scratch = self.scratch.take();
                self.step_block(&cols[lo..lo + out.len()], out, &mut scratch);
                self.scratch.put(scratch);
            });
        out.into_iter()
            .map(|o| o.expect("block dispatched"))
            .collect()
    }

    /// The pre-batching reference: one dispatch item per column, each a
    /// matrix–vector inference. Kept because gates consume it: `grist gate ml`
    /// requires [`Self::step_columns`] to be ≥3× faster than this path, the
    /// equivalence tests require bitwise-equal output, and
    /// `QueryEngine::serve_one_percol` (the `grist gate serve` reference) runs on
    /// it.
    pub fn step_columns_per_column(&self, cols: &[Column]) -> Vec<MlOutput> {
        let _span = self.sub.span("ml");
        let n = cols.len();
        // Exact FLOPs for this path: n independent matrix–vector inferences.
        self.sub
            .metrics()
            .counter_add("ml.flops_percol", n as u64 * self.flops_per_column());
        let mut out: Vec<Option<MlOutput>> = (0..n).map(|_| None).collect();
        self.sub
            .run_cols("ml_physics_columns", 0, &mut out[..], |i, o| {
                *o = Some(self.step_column(&cols[i]));
            });
        out.into_iter()
            .map(|o| o.expect("column dispatched"))
            .collect()
    }

    /// Inference FLOPs per column (for the §4.7 comparison).
    pub fn flops_per_column(&self) -> u64 {
        self.cnn.flops() + self.mlp.flops()
    }

    /// FLOPs the batched engine issues for a block of `b` columns, summed
    /// from the exact layer shapes the lowering performs. Consistency:
    /// `batch_flops(b) == b · flops_per_column()`.
    pub fn batch_flops(&self, b: usize) -> u64 {
        cnn_batch_flops(&self.cnn, b) + mlp_batch_flops(&self.mlp, b)
    }

    /// Allocation events inside the batched-inference scratch arenas (see
    /// [`ScratchPool::alloc_events`]). Flat across steps ⇒ zero-alloc
    /// steady state.
    pub fn scratch_alloc_events(&self) -> u64 {
        self.scratch.alloc_events()
    }

    /// Save the trained suite (both networks + normalization) to one file —
    /// the "weight of the AI-enhanced physics suite along with its
    /// corresponding parameter files" of the paper's artifact.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        self.cnn.save_to(&mut f)?;
        self.mlp.save_to(&mut f)?;
        Ok(())
    }

    /// Load a suite saved with [`Self::save`]. Runtime knobs (substrate,
    /// surface config, block size) are not part of the weight file and come
    /// back as defaults.
    pub fn load(path: &std::path::Path) -> std::io::Result<MlSuite> {
        let mut f = std::fs::File::open(path)?;
        let cnn = TendencyCnn::load_from(&mut f)?;
        let mlp = RadiationMlp::load_from(&mut f)?;
        let nlev = cnn.nlev;
        Ok(MlSuite {
            cnn,
            mlp,
            nlev,
            sub: Substrate::serial(),
            surface: SurfaceConfig::default(),
            block: DEFAULT_ML_BLOCK,
            scratch: Arc::new(ScratchPool::default()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_suite_produces_finite_outputs() {
        let suite = MlSuite::untrained(30, 16, 7);
        let col = Column::reference(30);
        let out = suite.step_column(&col);
        assert!(out.tend.dt_dt.iter().all(|x| x.is_finite()));
        assert!(out.tend.dqv_dt.iter().all(|x| x.is_finite()));
        assert!(out.diag.precip >= 0.0);
        assert!(out.diag.gsw >= 0.0 && out.diag.glw >= 0.0);
    }

    #[test]
    fn input_layout_is_channel_major() {
        let suite = MlSuite::untrained(5, 8, 1);
        let mut col = Column::reference(5);
        col.u = vec![1.0; 5];
        col.v = vec![2.0; 5];
        col.t = vec![3.0; 5];
        col.qv = vec![4.0; 5];
        col.p = vec![5.0; 5];
        let x = suite.cnn_input(&col);
        assert_eq!(&x[0..5], &[1.0; 5]);
        assert_eq!(&x[5..10], &[2.0; 5]);
        assert_eq!(&x[20..25], &[5.0; 5]);
        let rx = suite.mlp_input(&col);
        assert_eq!(rx.len(), 12);
        assert_eq!(suite.mlp.n_out, 3);
        assert_eq!(rx[10], col.tskin as f32);
        assert_eq!(rx[11], col.coszr as f32);
    }

    fn varied_columns(nlev: usize, n: usize) -> Vec<Column> {
        (0..n)
            .map(|i| {
                let mut c = Column::reference(nlev);
                c.t[nlev / 2] += (i % 17) as f64 * 0.3;
                c.qv[nlev - 1] *= 1.0 + 0.01 * (i % 5) as f64;
                c
            })
            .collect()
    }

    #[test]
    fn parallel_and_serial_agree() {
        let suite = MlSuite::untrained(10, 8, 3);
        let cols = varied_columns(10, 8);
        let par = suite.step_columns(&cols);
        for (c, p) in cols.iter().zip(&par) {
            let s = suite.step_column(c);
            assert_eq!(s.tend.dt_dt, p.tend.dt_dt);
        }
    }

    #[test]
    fn batched_blocks_match_per_column_dispatch_bitwise() {
        // n chosen to exercise a full block, a partial tail block, and the
        // b=1 degenerate tail.
        let mut suite = MlSuite::untrained(9, 8, 11);
        suite.block = 4;
        for n in [1usize, 3, 4, 5, 9] {
            let cols = varied_columns(9, n);
            let batched = suite.step_columns(&cols);
            let reference = suite.step_columns_per_column(&cols);
            for (a, b) in batched.iter().zip(&reference) {
                assert_eq!(a.tend.dt_dt, b.tend.dt_dt);
                assert_eq!(a.tend.dqv_dt, b.tend.dqv_dt);
                assert_eq!(a.diag.gsw, b.diag.gsw);
                assert_eq!(a.diag.glw, b.diag.glw);
                assert_eq!(a.diag.precip, b.diag.precip);
                assert_eq!(a.diag.shflx, b.diag.shflx);
                assert_eq!(a.diag.lhflx, b.diag.lhflx);
            }
        }
    }

    #[test]
    fn batched_steady_state_is_allocation_free() {
        let mut suite = MlSuite::untrained(8, 8, 5);
        suite.block = 4;
        let cols = varied_columns(8, 11);
        suite.step_columns(&cols); // warm-up grows the arenas
        let warm = suite.scratch_alloc_events();
        assert!(warm >= 1);
        for _ in 0..5 {
            suite.step_columns(&cols);
        }
        assert_eq!(
            suite.scratch_alloc_events(),
            warm,
            "batched inference allocated in steady state"
        );
    }

    #[test]
    fn arena_growth_is_independent_of_block_arrival_order() {
        // A pooled arena that meets a short tail block before a full one
        // (as a CPE worker can) must already be sized for the full block.
        let suite = MlSuite::untrained(8, 8, 5);
        suite.step_columns(&varied_columns(8, DEFAULT_ML_BLOCK / 2));
        let first = suite.scratch_alloc_events();
        suite.step_columns(&varied_columns(8, DEFAULT_ML_BLOCK));
        assert_eq!(
            suite.scratch_alloc_events(),
            first,
            "arena sized by the arriving block, not the configured one"
        );
    }

    #[test]
    fn configured_surface_parameters_reach_bulk_fluxes() {
        // The old code hardcoded SurfaceConfig::default() here; pin that
        // the configured parameters now flow through both paths.
        let mut suite = MlSuite::untrained(6, 4, 2);
        let col = Column::reference(6);
        let base = suite.step_column(&col);
        suite.surface.ch *= 2.0;
        let out = suite.step_column(&col);
        let (sh, lh) = bulk_fluxes(&col, &suite.surface, suite.surface.beta_ocean);
        assert_eq!(out.diag.shflx, sh);
        assert_eq!(out.diag.lhflx, lh);
        assert!(
            (out.diag.shflx - 2.0 * base.diag.shflx).abs() < 1e-9,
            "bulk SH flux is linear in ch: {} vs 2×{}",
            out.diag.shflx,
            base.diag.shflx
        );
        let batched = suite.step_columns(std::slice::from_ref(&col));
        assert_eq!(batched[0].diag.shflx, sh);
        assert_eq!(batched[0].diag.lhflx, lh);
    }

    #[test]
    fn learned_precip_diagnostic_is_used_and_clamped() {
        // Pin the MLP's third output via a zero-std out-norm and check the
        // diagnostic path (and its non-negativity clamp).
        let mut suite = MlSuite::untrained(4, 4, 9);
        suite.mlp.out_norm = vec![(250.0, 0.0), (340.0, 0.0), (7.5, 0.0)];
        let col = Column::reference(4);
        let out = suite.step_column(&col);
        assert!(
            (out.diag.precip - 7.5).abs() < 1e-6,
            "precip {}",
            out.diag.precip
        );
        suite.mlp.out_norm[2] = (-3.0, 0.0);
        let out = suite.step_column(&col);
        assert_eq!(out.diag.precip, 0.0, "negative prediction must clamp");
    }

    #[test]
    fn two_output_suite_falls_back_to_budget_closure() {
        use grist_ml::models::RadiationMlp;
        let mut suite = MlSuite::untrained(4, 4, 9);
        suite.mlp = RadiationMlp::new(2 * 4 + 2, 8, 3); // gsw/glw only
        suite.cnn.out_norm = vec![(0.0, 0.0); 2];
        suite.cnn.out_norm[1] = (-1e-7, 0.0); // uniform drying Q2
        let mut col = Column::reference(4);
        col.tskin = 200.0; // suppress evaporation
        let out = suite.step_column(&col);
        let expected = 1e-7 * (0..4).map(|k| col.layer_mass(k)).sum::<f64>() * 86_400.0;
        assert!(
            (out.diag.precip - expected).abs() < 0.05 * expected,
            "precip {} vs expected {expected}",
            out.diag.precip
        );
        // The budget closure must survive batching too.
        let batched = suite.step_columns(std::slice::from_ref(&col));
        assert_eq!(batched[0].diag.precip, out.diag.precip);
    }

    #[test]
    fn suite_save_load_roundtrips_predictions() {
        let suite = MlSuite::untrained(6, 8, 31);
        let dir = std::env::temp_dir().join(format!("grist-mlsuite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("suite.gml");
        suite.save(&path).unwrap();
        let back = MlSuite::load(&path).unwrap();
        let col = Column::reference(6);
        let a = suite.step_column(&col);
        let b = back.step_column(&col);
        assert_eq!(a.tend.dt_dt, b.tend.dt_dt);
        assert_eq!(a.diag.gsw, b.diag.gsw);
        assert_eq!(a.diag.precip, b.diag.precip);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flops_count_covers_both_modules() {
        let suite = MlSuite::untrained(30, 128, 1);
        assert!(suite.flops_per_column() > suite.cnn.flops());
        assert!(suite.flops_per_column() > 1_000_000);
    }

    #[test]
    fn batch_flops_match_gemm_shapes_exactly() {
        let suite = MlSuite::untrained(16, 64, 4);
        for b in [1u64, 3, 32, 33, 64] {
            assert_eq!(
                suite.batch_flops(b as usize),
                b * suite.flops_per_column(),
                "batched op count must be exactly b × per-column FLOPs"
            );
        }
    }
}
