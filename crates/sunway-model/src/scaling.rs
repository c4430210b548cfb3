//! SDPD projection model: combines the SW26010P roofline (per-kernel compute
//! time), the fat-tree exchange model, partition imbalance, and LDCache
//! residency into simulated-days-per-day for any (grid, scheme, process
//! count) — the machinery that regenerates Fig. 10 (weak scaling) and
//! Fig. 11 (strong scaling).
//!
//! Calibration constants are chosen so the *shape* of the paper's curves
//! holds (who wins, where the knees are); absolute SDPD values depend on the
//! real machine and are documented as modeled values in EXPERIMENTS.md.

use crate::arch::SunwaySpec;
use crate::fattree::{exchange_time, ExchangeProfile};
use crate::perf::{kernel_time, Domain, ExecTarget};
use sunway_sim::{KernelSpec, Metrics};

/// Typed failures of the scaling-model API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScalingError {
    /// A grid label that is not a row of Table 2.
    UnknownGrid {
        label: String,
        known: Vec<&'static str>,
    },
    /// A scaling ladder with no entries: there is no baseline point to
    /// normalize efficiencies against.
    EmptyLadder,
    /// Calibration needs a counter the metrics registry never recorded.
    MissingCounter { name: &'static str },
}

impl std::fmt::Display for ScalingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalingError::UnknownGrid { label, known } => {
                write!(f, "unknown grid label {label:?}: Table 2 defines {known:?}")
            }
            ScalingError::EmptyLadder => write!(
                f,
                "scaling ladder is empty: no baseline point to normalize efficiencies against"
            ),
            ScalingError::MissingCounter { name } => write!(
                f,
                "metrics registry has no {name:?} counter: calibration needs a metered \
                 multi-rank run (Substrate::*_with_metrics + an ExchangeCtx carrying the same registry)"
            ),
        }
    }
}

impl std::error::Error for ScalingError {}

/// Look up a Table 2 grid by its label, with a descriptive error listing
/// the known labels instead of a bare `unwrap` panic.
pub fn grid_by_label(label: &str) -> Result<GridSpec, ScalingError> {
    let grids = table2_grids();
    grids
        .iter()
        .find(|g| g.label == label)
        .copied()
        .ok_or_else(|| ScalingError::UnknownGrid {
            label: label.to_string(),
            known: grids.iter().map(|g| g.label).collect(),
        })
}

/// Project the paper's weak-scaling efficiency `eff(N) = P_N / P_base`
/// (eq. 1) along `ladder`, normalized against the ladder's first entry.
pub fn weak_scaling_efficiencies(
    model: &SdpdModel,
    scheme: Scheme,
    ladder: &[(&str, usize)],
) -> Result<Vec<(usize, f64)>, ScalingError> {
    let (base_label, base_procs) = ladder.first().ok_or(ScalingError::EmptyLadder)?;
    let base = model
        .project(&grid_by_label(base_label)?, scheme, *base_procs)
        .sdpd;
    let mut effs = Vec::with_capacity(ladder.len());
    for (label, procs) in ladder {
        let g = grid_by_label(label)?;
        effs.push((*procs, model.project(&g, scheme, *procs).sdpd / base));
    }
    Ok(effs)
}

/// Per-step communication structure measured from a metered run's counter
/// registry. Only deterministic counters are read — never wall times — so
/// a calibration taken on one machine reproduces bit-for-bit on another.
/// `substrate.dispatches` is not among them: how many host dispatches a
/// step makes is a property of how far the host kernels are fused, not of
/// how many kernels the modeled GRIST code launches per dynamics step (a
/// constant of [`SdpdModel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredCosts {
    /// Gathered halo exchanges per rank per dynamics step
    /// (`halo.exchanges`).
    pub exchanges_per_step: f64,
    /// Packed messages per exchange (`halo.messages`).
    pub messages_per_exchange: f64,
    /// Payload bytes per packed message (`halo.bytes`).
    pub bytes_per_message: f64,
}

impl MeasuredCosts {
    /// Read the per-step costs out of `metrics` after a run of
    /// `rank_steps` rank-steps (ranks × dynamics steps, since a shared
    /// registry sums over ranks).
    pub fn from_metrics(metrics: &Metrics, rank_steps: u64) -> Result<Self, ScalingError> {
        assert!(rank_steps >= 1, "calibration needs at least one step");
        let need = |name: &'static str| -> Result<f64, ScalingError> {
            match metrics.counter(name) {
                0 => Err(ScalingError::MissingCounter { name }),
                v => Ok(v as f64),
            }
        };
        let exchanges = need("halo.exchanges")?;
        let messages = need("halo.messages")?;
        let bytes = need("halo.bytes")?;
        Ok(MeasuredCosts {
            exchanges_per_step: exchanges / rank_steps as f64,
            messages_per_exchange: messages / exchanges,
            bytes_per_message: bytes / messages,
        })
    }
}

/// Grid + timestep configuration (one row of Table 2).
#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    pub label: &'static str,
    pub cells: usize,
    pub edges: usize,
    pub verts: usize,
    pub nlev: usize,
    /// Timesteps in seconds (Table 2's Dyn/Trac/Phy/Rad quadruple).
    pub dt_dyn: f64,
    pub dt_trac: f64,
    pub dt_phy: f64,
    pub dt_rad: f64,
}

/// Scheme configuration (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheme {
    /// Mixed-precision dycore?
    pub mixed: bool,
    /// ML physics suite?
    pub ml_physics: bool,
}

impl Scheme {
    pub fn label(&self) -> &'static str {
        match (self.mixed, self.ml_physics) {
            (false, false) => "DP-PHY",
            (false, true) => "DP-ML",
            (true, false) => "MIX-PHY",
            (true, true) => "MIX-ML",
        }
    }

    pub fn all() -> [Scheme; 4] {
        [
            Scheme {
                mixed: false,
                ml_physics: false,
            },
            Scheme {
                mixed: false,
                ml_physics: true,
            },
            Scheme {
                mixed: true,
                ml_physics: false,
            },
            Scheme {
                mixed: true,
                ml_physics: true,
            },
        ]
    }
}

// Calibration constants of the projection (DESIGN.md §6).

/// Kernel launches per dynamics step of the modeled GRIST code (RK stages ×
/// operator groups) — not of the host's fused kernels: the seven host
/// dispatches would put the G12 MIX-ML communication share at 0.75, past
/// the paper's 37 %.
const DYN_LAUNCHES_PER_STEP: f64 = 30.0;
/// Variables (per-level values) carried per exchanged halo cell.
const EXCHANGE_VARS: f64 = 10.0;
/// Conventional-physics flops per column per physics step.
const CONV_PHY_FLOPS: f64 = 2.0e6;
/// Conventional radiation flops per column per radiation step.
const CONV_RAD_FLOPS: f64 = 8.0e6;
/// Achieved fraction of CG peak for conventional physics (§4.7: ~6%).
const CONV_EFFICIENCY: f64 = 0.06;
/// ML tendency-CNN flops per column per physics step.
const ML_PHY_FLOPS: f64 = 3.0e7;
/// ML radiation-MLP flops per column per radiation step.
const ML_RAD_FLOPS: f64 = 3.6e5;
/// Achieved fraction of CG peak for the ML suite (§4.7: 74–84%).
const ML_EFFICIENCY: f64 = 0.78;
/// Number of transported tracers (the six prognostic tracer variables).
const N_TRACERS: f64 = 6.0;
/// Load-imbalance growth per doubling of the process count.
const IMBALANCE_PER_DOUBLING: f64 = 0.015;
/// LDCache working-set scale factor (fraction of a CPE's share of the local
/// points that must be resident to cut DDR traffic).
const WS_FACTOR: f64 = 0.25;
/// Traffic reduction at full residency.
const RESIDENCY_SAVING: f64 = 0.6;
/// Per-kernel-group software overhead at scale (MPE serial sections,
/// athread spawn + barrier, MPI progress) \[s\].
const PER_GROUP_OVERHEAD: f64 = 150.0e-6;
/// Software latency per halo message at the 128-process baseline \[s\].
const MSG_SOFTWARE_LATENCY: f64 = 120.0e-6;
/// Relative growth of message latency per doubling of the process count
/// (network diameter + software collective costs).
const LATENCY_GROWTH_PER_DOUBLING: f64 = 0.22;

/// The projection's settable inputs: what a metered run or the partitioner
/// measures in place of a modeled default.
#[derive(Debug, Clone, Copy)]
pub struct SdpdModelConfig {
    /// Halo exchanges per dynamics step.
    pub exchanges_per_dyn_step: f64,
    /// Fraction of the per-step communication time hidden behind interior
    /// compute by the async begin/complete exchange (0 = fully synchronous).
    /// Communication can only hide under compute that exists, so the hidden
    /// time is capped at the per-step dynamics compute.
    pub overlap_factor: f64,
    /// Halo surface coefficient: halo cells ≈ coeff · √(local cells). The
    /// default 3.5 is the analytic compact-patch guess; `grist gate scaling`
    /// overrides it with the coefficient measured from the partitioner's
    /// `grist_mesh::SurfaceProfile` (committed in `BENCH_partition.json`).
    pub halo_surface_coeff: f64,
}

impl Default for SdpdModelConfig {
    fn default() -> Self {
        SdpdModelConfig {
            exchanges_per_dyn_step: 3.0,
            overlap_factor: 0.0,
            halo_surface_coeff: 3.5,
        }
    }
}

impl SdpdModelConfig {
    /// Replace the hand-set exchange count with the one measured from a
    /// metered run, and set the comm/compute overlap fraction. Wall-derived
    /// constants (roofline fractions, software latencies) stay modeled:
    /// counter-derived values are deterministic across machines, wall times
    /// are not.
    pub fn with_measured(mut self, costs: &MeasuredCosts, overlap_factor: f64) -> Self {
        self.exchanges_per_dyn_step = costs.exchanges_per_step;
        self.overlap_factor = overlap_factor.clamp(0.0, 1.0);
        self
    }

    /// Replace the analytic halo surface coefficient with one measured from
    /// the partitioner (`SurfaceProfile::surface_coeff`). Clamped away from
    /// degenerate values so a pathological partition cannot zero out the
    /// communication term.
    pub fn with_measured_surface(mut self, surface_coeff: f64) -> Self {
        self.halo_surface_coeff = surface_coeff.clamp(0.5, 10.0);
        self
    }
}

/// Per-simulated-day time breakdown and the resulting SDPD.
#[derive(Debug, Clone, Copy)]
pub struct SdpdResult {
    pub sdpd: f64,
    pub dyn_s: f64,
    pub tracer_s: f64,
    pub physics_s: f64,
    pub comm_s: f64,
    pub comm_fraction: f64,
}

/// The projection model.
#[derive(Debug, Clone, Copy)]
pub struct SdpdModel {
    pub spec: SunwaySpec,
    pub cfg: SdpdModelConfig,
    dyn_kernels: &'static [KernelSpec],
    tracer_kernels: &'static [KernelSpec],
}

impl SdpdModel {
    /// The model of a dycore whose dynamics step runs `dyn_kernels` and
    /// whose tracer step runs `tracer_kernels` per tracer — the descriptors
    /// the dycore declares beside its dispatches
    /// (`grist_dycore::hevi::DYN_KERNELS`, `grist_dycore::tracer::FCT_KERNELS`).
    pub fn new(dyn_kernels: &'static [KernelSpec], tracer_kernels: &'static [KernelSpec]) -> Self {
        assert!(!dyn_kernels.is_empty(), "a dynamics step runs kernels");
        SdpdModel {
            spec: SunwaySpec::next_gen(),
            cfg: SdpdModelConfig::default(),
            dyn_kernels,
            tracer_kernels,
        }
    }

    /// Effective traffic multiplier from LDCache residency of the local
    /// working set (the Fig. 11 plateau mechanism).
    fn residency(&self, local_edge_points: usize, arrays: f64, elem: f64) -> f64 {
        let ws = local_edge_points as f64 * arrays * elem * WS_FACTOR;
        let cache = self.spec.ldcache_bytes as f64;
        ((cache - ws) / cache).clamp(0.0, 1.0)
    }

    /// Project SDPD for `grid` under `scheme` on `procs` CGs.
    pub fn project(&self, grid: &GridSpec, scheme: Scheme, procs: usize) -> SdpdResult {
        assert!(procs >= 1);
        let local_cells = grid.cells.div_ceil(procs);
        let local_edges = grid.edges.div_ceil(procs);
        let nlev = grid.nlev;
        let local = Domain {
            cells: local_cells,
            edges: local_edges,
            verts: grid.verts.div_ceil(procs),
            nlev,
        };
        let elem = if scheme.mixed { 4.0 } else { 8.0 };
        let target = if scheme.mixed {
            ExecTarget::CpeMixDst
        } else {
            ExecTarget::CpeDpDst
        };

        let time = |kernels: &[KernelSpec]| -> f64 {
            kernels
                .iter()
                .map(|k| kernel_time(k, &local, target, &self.spec, None))
                .sum()
        };

        // --- dynamics compute per step ---
        let n_dyn_kernels = self.dyn_kernels.len() as f64;
        // LDCache residency of the local state trims the memory-bound part;
        // its working set is the mean launch's arrays.
        let mean_arrays = self
            .dyn_kernels
            .iter()
            .map(|k| k.arrays as f64)
            .sum::<f64>()
            / n_dyn_kernels;
        let res = self.residency(local_edges * nlev, mean_arrays, elem);
        let t_group = time(self.dyn_kernels) * (1.0 - RESIDENCY_SAVING * res);
        // One dynamics step makes `DYN_LAUNCHES_PER_STEP` launches, each
        // costing the mean of the executed ensemble plus the fixed per-group
        // software overhead that dominates at small local sizes (and caps
        // strong scaling, as in Fig. 11).
        // Full residency also shortens the per-group overhead (resident
        // arrays skip DMA descriptor setup and kernel tails) — the mechanism
        // behind G11S's late extra efficiency in Fig. 11.
        let group_overhead = PER_GROUP_OVERHEAD * (1.0 - 0.35 * res);
        let dyn_per_step = DYN_LAUNCHES_PER_STEP * (t_group / n_dyn_kernels + group_overhead);

        // --- tracer transport per tracer step ---
        let tracer_per_step =
            time(self.tracer_kernels) * N_TRACERS * (1.0 - RESIDENCY_SAVING * res);

        // --- physics per physics/radiation step ---
        let cg_peak = self.spec.cg_peak_f64();
        let cols = local_cells as f64;
        let (phy_per_step, rad_per_step) = if scheme.ml_physics {
            (
                cols * ML_PHY_FLOPS / (ML_EFFICIENCY * cg_peak),
                cols * ML_RAD_FLOPS / (ML_EFFICIENCY * cg_peak),
            )
        } else {
            (
                cols * CONV_PHY_FLOPS / (CONV_EFFICIENCY * cg_peak),
                cols * CONV_RAD_FLOPS / (CONV_EFFICIENCY * cg_peak),
            )
        };

        // --- communication per dynamics step ---
        let halo_cells =
            (self.cfg.halo_surface_coeff * (local_cells as f64).sqrt()).min(local_cells as f64);
        let msg_bytes = halo_cells / 6.0 * nlev as f64 * EXCHANGE_VARS * elem;
        let profile = ExchangeProfile {
            procs,
            msg_bytes,
            n_neighbors: 6.0,
        };
        // Bandwidth/contention terms from the fat-tree model, plus per-message
        // software latency that grows with system size (MPI stack, network
        // diameter) — the dominant term at these message sizes.
        let lat_growth =
            1.0 + LATENCY_GROWTH_PER_DOUBLING * ((procs.max(128) as f64) / 128.0).log2();
        let comm_per_step = (exchange_time(&profile, &self.spec).total()
            + 6.0 * MSG_SOFTWARE_LATENCY * lat_growth)
            * self.cfg.exchanges_per_dyn_step;

        // --- assemble one simulated day ---
        let n_dyn = 86_400.0 / grid.dt_dyn;
        let n_trac = 86_400.0 / grid.dt_trac;
        let n_phy = 86_400.0 / grid.dt_phy;
        let n_rad = 86_400.0 / grid.dt_rad;

        let imbalance = 1.0 + IMBALANCE_PER_DOUBLING * ((procs.max(128) as f64 / 128.0).log2());
        let dyn_s = dyn_per_step * n_dyn * imbalance;
        let tracer_s = tracer_per_step * n_trac * imbalance;
        let physics_s = (phy_per_step * n_phy + rad_per_step * n_rad) * imbalance;
        // The async begin/complete exchange hides part of the comm time
        // behind the interior compute; it can hide at most the compute that
        // actually runs while the messages are in flight.
        let hidden = self.cfg.overlap_factor * comm_per_step.min(dyn_per_step);
        let comm_s = (comm_per_step - hidden) * n_dyn;
        let total = dyn_s + tracer_s + physics_s + comm_s;
        SdpdResult {
            sdpd: 86_400.0 / total,
            dyn_s,
            tracer_s,
            physics_s,
            comm_s,
            comm_fraction: comm_s / total,
        }
    }
}

/// Table 2 of the paper as [`GridSpec`]s (30-layer rows, weak-scaling
/// timesteps equal to G12's).
pub fn table2_grids() -> Vec<GridSpec> {
    let g = |label, level: u32, dt: [f64; 4]| {
        let p = 4usize.pow(level);
        GridSpec {
            label,
            cells: 10 * p + 2,
            edges: 30 * p,
            verts: 20 * p,
            nlev: 30,
            dt_dyn: dt[0],
            dt_trac: dt[1],
            dt_phy: dt[2],
            dt_rad: dt[3],
        }
    };
    vec![
        g("G12", 12, [4.0, 30.0, 60.0, 180.0]),
        g("G11W", 11, [4.0, 30.0, 60.0, 180.0]),
        g("G11S", 11, [8.0, 60.0, 120.0, 360.0]),
        g("G10", 10, [4.0, 30.0, 60.0, 180.0]),
        g("G9", 9, [4.0, 30.0, 60.0, 180.0]),
        g("G8", 8, [4.0, 30.0, 60.0, 180.0]),
        g("G6", 6, [4.0, 30.0, 60.0, 180.0]),
    ]
}

/// The weak-scaling ladder of Fig. 10: (grid label, process count) pairs
/// with a fixed ~320 cells/CG.
pub fn weak_scaling_ladder() -> Vec<(&'static str, usize)> {
    vec![
        ("G6", 128),
        ("G8", 2_048),
        ("G9", 8_192),
        ("G10", 32_768),
        ("G11W", 131_072),
        ("G12", 524_288),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use grist_dycore::hevi::DYN_KERNELS;
    use grist_dycore::tracer::FCT_KERNELS;

    fn model() -> SdpdModel {
        SdpdModel::new(&DYN_KERNELS, &FCT_KERNELS)
    }

    fn grid(label: &str) -> GridSpec {
        grid_by_label(label).expect("Table 2 grid")
    }

    const MIX_ML: Scheme = Scheme {
        mixed: true,
        ml_physics: true,
    };
    const MIX_PHY: Scheme = Scheme {
        mixed: true,
        ml_physics: false,
    };
    const DP_ML: Scheme = Scheme {
        mixed: false,
        ml_physics: true,
    };
    const DP_PHY: Scheme = Scheme {
        mixed: false,
        ml_physics: false,
    };

    #[test]
    fn table2_matches_paper_counts() {
        let grids = table2_grids();
        let g12 = grids.iter().find(|g| g.label == "G12").unwrap();
        assert_eq!(g12.cells, 167_772_162);
        assert_eq!(g12.edges, 503_316_480);
        assert_eq!(g12.verts, 335_544_320);
        assert_eq!(g12.dt_dyn, 4.0);
        let g11s = grids.iter().find(|g| g.label == "G11S").unwrap();
        assert_eq!(g11s.dt_dyn, 8.0);
        assert_eq!(g11s.cells, 41_943_042);
        let g6 = grids.iter().find(|g| g.label == "G6").unwrap();
        assert_eq!(g6.cells, 40_962);
    }

    #[test]
    fn table3_has_all_four_schemes() {
        let labels: Vec<&str> = Scheme::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["DP-PHY", "DP-ML", "MIX-PHY", "MIX-ML"]);
    }

    #[test]
    fn scheme_ordering_matches_table3_expectations() {
        // At the paper's headline configuration every optimization must help:
        // MIX-ML ≥ {MIX-PHY, DP-ML} ≥ DP-PHY.
        let m = model();
        let g = grid("G12");
        let p = 524_288;
        let s = |sch: Scheme| m.project(&g, sch, p).sdpd;
        assert!(s(MIX_ML) > s(MIX_PHY), "ML physics must beat conventional");
        assert!(s(MIX_ML) > s(DP_ML), "mixed precision must beat DP");
        assert!(s(MIX_PHY) > s(DP_PHY));
        assert!(s(DP_ML) > s(DP_PHY));
    }

    #[test]
    fn strong_scaling_speedup_is_sublinear_but_real() {
        let m = model();
        let g = grid("G12");
        let s32 = m.project(&g, MIX_ML, 32_768).sdpd;
        let s524 = m.project(&g, MIX_ML, 524_288).sdpd;
        let speedup = s524 / s32;
        assert!(speedup > 2.0, "strong scaling collapsed: {speedup}");
        assert!(
            speedup < 16.0,
            "unrealistically ideal strong scaling: {speedup}"
        );
    }

    #[test]
    fn g11s_outruns_g12_at_full_scale() {
        // Fig. 11's headline: 491 SDPD (G11S) vs 181 SDPD (G12): the coarser
        // grid with its doubled timestep is ~2.7x faster.
        let m = model();
        let a = m.project(&grid("G11S"), MIX_ML, 524_288).sdpd;
        let b = m.project(&grid("G12"), MIX_ML, 524_288).sdpd;
        let ratio = a / b;
        assert!((1.8..6.0).contains(&ratio), "G11S/G12 SDPD ratio {ratio}");
    }

    #[test]
    fn weak_scaling_efficiency_declines_with_scale() {
        let m = model();
        let effs = weak_scaling_efficiencies(&m, MIX_ML, &weak_scaling_ladder())
            .expect("built-in ladder is valid");
        assert!((effs[0].1 - 1.0).abs() < 1e-12);
        // Efficiency never exceeds 1 and declines overall.
        for w in effs.windows(2) {
            assert!(w[1].1 <= w[0].1 * 1.02, "weak efficiency rose: {effs:?}");
        }
        let (_, last) = *effs.last().expect("ladder is non-empty");
        assert!(
            (0.2..0.95).contains(&last),
            "end-of-ladder efficiency {last}"
        );
    }

    #[test]
    fn unknown_grid_label_yields_a_descriptive_error() {
        let err = grid_by_label("G42").expect_err("G42 is not a Table 2 row");
        let msg = err.to_string();
        assert!(
            msg.contains("G42"),
            "message must name the bad label: {msg}"
        );
        assert!(
            msg.contains("G12"),
            "message must list the known labels: {msg}"
        );
        let err = weak_scaling_efficiencies(&model(), MIX_ML, &[("nope", 128)])
            .expect_err("bad label must propagate");
        assert!(matches!(err, ScalingError::UnknownGrid { .. }));
    }

    #[test]
    fn empty_ladder_yields_a_typed_error() {
        let err =
            weak_scaling_efficiencies(&model(), MIX_ML, &[]).expect_err("no ladder, no baseline");
        assert_eq!(err, ScalingError::EmptyLadder);
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn calibration_rejects_an_unmetered_registry() {
        let metrics = Metrics::default();
        let err =
            MeasuredCosts::from_metrics(&metrics, 8).expect_err("no counters were ever recorded");
        assert_eq!(
            err,
            ScalingError::MissingCounter {
                name: "halo.exchanges"
            }
        );
        assert!(err.to_string().contains("halo.exchanges"), "{err}");
        // A registry with rounds but no messages names the next counter.
        metrics.counter_add("halo.exchanges", 10);
        let err = MeasuredCosts::from_metrics(&metrics, 8).expect_err("no message counter");
        assert_eq!(
            err,
            ScalingError::MissingCounter {
                name: "halo.messages"
            }
        );
    }

    #[test]
    fn measured_costs_come_out_per_rank_step() {
        let metrics = Metrics::default();
        // Host dispatches are recorded and deliberately not read.
        metrics.counter_add("substrate.dispatches", 120);
        metrics.counter_add("halo.exchanges", 12);
        metrics.counter_add("halo.messages", 36);
        metrics.counter_add("halo.bytes", 7_200);
        let costs = MeasuredCosts::from_metrics(&metrics, 12).expect("all counters present");
        assert_eq!(costs.exchanges_per_step, 1.0);
        assert_eq!(costs.messages_per_exchange, 3.0);
        assert_eq!(costs.bytes_per_message, 200.0);
        let cfg = SdpdModelConfig::default().with_measured(&costs, 0.4);
        assert_eq!(cfg.exchanges_per_dyn_step, 1.0);
        assert_eq!(cfg.overlap_factor, 0.4);
    }

    #[test]
    fn overlap_factor_shrinks_comm_time_and_nothing_else() {
        let base = model();
        let mut overlapped = model();
        overlapped.cfg.overlap_factor = 0.5;
        let g = grid("G12");
        let r0 = base.project(&g, MIX_PHY, 524_288);
        let r1 = overlapped.project(&g, MIX_PHY, 524_288);
        assert_eq!(r0.dyn_s, r1.dyn_s, "overlap must not touch compute");
        assert_eq!(r0.tracer_s, r1.tracer_s);
        assert_eq!(r0.physics_s, r1.physics_s);
        assert!(r1.comm_s < r0.comm_s, "overlap must hide comm time");
        assert!(r1.sdpd > r0.sdpd, "hidden comm must raise SDPD");
        // Comm can hide at most under the compute that runs concurrently.
        assert!(r0.comm_s - r1.comm_s <= 0.5 * r0.dyn_s + 1e-9);
    }

    #[test]
    fn measured_surface_coeff_scales_comm_and_is_clamped() {
        let base = model();
        let mut wider = model();
        wider.cfg = wider.cfg.with_measured_surface(7.0);
        let g = grid("G12");
        let r0 = base.project(&g, MIX_PHY, 524_288);
        let r1 = wider.project(&g, MIX_PHY, 524_288);
        assert_eq!(r0.dyn_s, r1.dyn_s, "surface coeff must only touch comm");
        assert_eq!(r0.physics_s, r1.physics_s);
        assert!(r1.comm_s > r0.comm_s, "2× the halo must cost more comm");
        // Degenerate measurements clamp instead of zeroing the comm term.
        assert_eq!(
            SdpdModelConfig::default()
                .with_measured_surface(0.0)
                .halo_surface_coeff,
            0.5
        );
        assert_eq!(
            SdpdModelConfig::default()
                .with_measured_surface(1e9)
                .halo_surface_coeff,
            10.0
        );
    }

    #[test]
    fn comm_fraction_grows_along_the_weak_scaling_ladder() {
        // §4.7: "The proportion of communication time rises from 19% to 37%".
        let m = model();
        let first = m.project(&grid("G6"), MIX_PHY, 128).comm_fraction;
        let last = m.project(&grid("G12"), MIX_PHY, 524_288).comm_fraction;
        assert!(
            last > 1.5 * first,
            "comm fraction must grow: {first} -> {last}"
        );
        assert!((0.05..0.45).contains(&first), "baseline comm share {first}");
        assert!((0.15..0.60).contains(&last), "full-scale comm share {last}");
    }

    #[test]
    fn g11s_shows_late_cache_residency_gain() {
        // Fig. 11: G11S gains extra efficiency at the largest scale as the
        // working set drops into the LDCache.
        let m = model();
        let g = grid("G11S");
        let s1 = m.project(&g, MIX_ML, 131_072).sdpd;
        let s2 = m.project(&g, MIX_ML, 262_144).sdpd;
        let s4 = m.project(&g, MIX_ML, 524_288).sdpd;
        let first_ratio = s2 / s1;
        let second_ratio = s4 / s2;
        assert!(
            second_ratio > first_ratio * 0.9,
            "late residency gain missing: {first_ratio} then {second_ratio}"
        );
    }

    #[test]
    fn residency_decreases_with_local_size() {
        let m = model();
        assert!(m.residency(100 * 30, 7.0, 4.0) > m.residency(10_000 * 30, 7.0, 4.0));
        assert_eq!(m.residency(10_000_000, 7.0, 8.0), 0.0);
    }

    #[test]
    fn headline_sdpd_magnitudes_are_in_a_sane_band() {
        // The shape requirement: hundreds of SDPD at full scale, not 5 and
        // not 50,000.
        let m = model();
        let g12 = m.project(&grid("G12"), MIX_ML, 524_288).sdpd;
        let g11s = m.project(&grid("G11S"), MIX_ML, 524_288).sdpd;
        assert!((50.0..2000.0).contains(&g12), "G12 SDPD {g12}");
        assert!((150.0..6000.0).contains(&g11s), "G11S SDPD {g11s}");
    }
}
