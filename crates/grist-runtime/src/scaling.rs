//! SDPD projection model: combines the SW26010P roofline (per-kernel compute
//! time), the fat-tree exchange model, partition imbalance, and LDCache
//! residency into simulated-days-per-day for any (grid, scheme, process
//! count) — the machinery that regenerates Fig. 10 (weak scaling) and
//! Fig. 11 (strong scaling).
//!
//! Calibration constants are chosen so the *shape* of the paper's curves
//! holds (who wins, where the knees are); absolute SDPD values depend on the
//! real machine and are documented as modeled values in EXPERIMENTS.md.

use crate::fattree::{exchange_time, ExchangeProfile};
use sunway_sim::perf::{kernel_time, ExecTarget, KernelSpec, PerfModel};
use sunway_sim::{Metrics, SunwaySpec};

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
/// how many operator kernel groups GRIST launches
/// ([`SdpdModelConfig::dyn_kernel_groups`]).
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

/// Calibration constants of the projection.
#[derive(Debug, Clone, Copy)]
pub struct SdpdModelConfig {
    /// Dyn-solver kernel-group invocations per dynamics step (RK stages ×
    /// operator groups).
    pub dyn_kernel_groups: f64,
    /// Halo exchanges per dynamics step.
    pub exchanges_per_dyn_step: f64,
    /// Variables (per-level values) carried per exchanged halo cell.
    pub exchange_vars: f64,
    /// Conventional-physics flops per column per physics step.
    pub conv_phy_flops: f64,
    /// Conventional radiation flops per column per radiation step.
    pub conv_rad_flops: f64,
    /// Achieved fraction of CG peak for conventional physics (§4.7: ~6%).
    pub conv_efficiency: f64,
    /// ML tendency-CNN flops per column per physics step.
    pub ml_phy_flops: f64,
    /// ML radiation-MLP flops per column per radiation step.
    pub ml_rad_flops: f64,
    /// Achieved fraction of CG peak for the ML suite (§4.7: 74–84%).
    pub ml_efficiency: f64,
    /// Number of transported tracers (the six prognostic tracer variables).
    pub n_tracers: f64,
    /// Load-imbalance growth per doubling of the process count.
    pub imbalance_per_doubling: f64,
    /// LDCache working-set scale factor (fraction of a CPE's share of the
    /// local points that must be resident to cut DDR traffic).
    pub ws_factor: f64,
    /// Traffic reduction at full residency.
    pub residency_saving: f64,
    /// Per-kernel-group software overhead at scale (MPE serial sections,
    /// athread spawn + barrier, MPI progress) \[s\].
    pub per_group_overhead: f64,
    /// Software latency per halo message at the 128-process baseline \[s\].
    pub msg_software_latency: f64,
    /// Relative growth of message latency per doubling of the process count
    /// (network diameter + software collective costs).
    pub latency_growth_per_doubling: f64,
    /// Fraction of the per-step communication time hidden behind interior
    /// compute by the async begin/complete exchange (0 = fully synchronous).
    /// Communication can only hide under compute that exists, so the hidden
    /// time is capped at the per-step dynamics compute.
    pub overlap_factor: f64,
    /// Halo surface coefficient: halo cells ≈ coeff · √(local cells). The
    /// default 3.5 is the analytic compact-patch guess; `bench_gate scaling`
    /// overrides it with the coefficient measured from the partitioner's
    /// [`grist_mesh::SurfaceProfile`] (committed in `BENCH_partition.json`).
    pub halo_surface_coeff: f64,
}

impl Default for SdpdModelConfig {
    fn default() -> Self {
        SdpdModelConfig {
            dyn_kernel_groups: 30.0,
            exchanges_per_dyn_step: 3.0,
            exchange_vars: 10.0,
            conv_phy_flops: 2.0e6,
            conv_rad_flops: 8.0e6,
            conv_efficiency: 0.06,
            ml_phy_flops: 3.0e7,
            ml_rad_flops: 3.6e5,
            ml_efficiency: 0.78,
            n_tracers: 6.0,
            imbalance_per_doubling: 0.015,
            ws_factor: 0.25,
            residency_saving: 0.6,
            per_group_overhead: 150.0e-6,
            msg_software_latency: 120.0e-6,
            latency_growth_per_doubling: 0.22,
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
    pub perf: PerfModel,
    pub cfg: SdpdModelConfig,
}

impl Default for SdpdModel {
    fn default() -> Self {
        SdpdModel {
            spec: SunwaySpec::next_gen(),
            perf: PerfModel::default(),
            cfg: SdpdModelConfig::default(),
        }
    }
}

impl SdpdModel {
    /// The representative per-dyn-step kernel ensemble at local sizes.
    fn dyn_kernels(&self, local_cells: usize, local_edges: usize, nlev: usize) -> Vec<KernelSpec> {
        sunway_sim::perf::fig9_kernels(local_cells, local_edges, nlev)
    }

    /// Effective traffic multiplier from LDCache residency of the local
    /// working set (the Fig. 11 plateau mechanism).
    fn residency(&self, local_edge_points: usize, arrays: f64, elem: f64) -> f64 {
        let ws = local_edge_points as f64 * arrays * elem * self.cfg.ws_factor;
        let cache = self.spec.ldcache_bytes as f64;
        ((cache - ws) / cache).clamp(0.0, 1.0)
    }

    /// Project SDPD for `grid` under `scheme` on `procs` CGs.
    pub fn project(&self, grid: &GridSpec, scheme: Scheme, procs: usize) -> SdpdResult {
        assert!(procs >= 1);
        let local_cells = grid.cells.div_ceil(procs);
        let local_edges = grid.edges.div_ceil(procs);
        let nlev = grid.nlev;
        let elem = if scheme.mixed { 4.0 } else { 8.0 };
        let target = if scheme.mixed {
            ExecTarget::CpeMixDst
        } else {
            ExecTarget::CpeDpDst
        };

        // --- dynamics compute per step ---
        let kernels = self.dyn_kernels(local_cells, local_edges, nlev);
        let mut t_group: f64 = kernels
            .iter()
            .map(|k| kernel_time(k, target, &self.spec, &self.perf, None))
            .sum();
        // LDCache residency of the local state trims the memory-bound part.
        let res = self.residency(local_edges * nlev, 7.0, elem);
        t_group *= 1.0 - self.cfg.residency_saving * res;
        // One dynamics step runs `dyn_kernel_groups` kernel-group
        // invocations, each costing the mean of the representative ensemble
        // plus the fixed per-group software overhead that dominates at small
        // local sizes (and caps strong scaling, as in Fig. 11).
        // Full residency also shortens the per-group overhead (resident
        // arrays skip DMA descriptor setup and kernel tails) — the mechanism
        // behind G11S's late extra efficiency in Fig. 11.
        let group_overhead = self.cfg.per_group_overhead * (1.0 - 0.35 * res);
        let dyn_per_step =
            self.cfg.dyn_kernel_groups * (t_group / kernels.len() as f64 + group_overhead);

        // --- tracer transport per tracer step ---
        let tracer_kernel = KernelSpec {
            name: "tracer_transport_hori_flux_limiter",
            points: local_edges * nlev,
            flops_per_point: 14.0,
            expensive_per_point: 1.0,
            arrays: 6,
            has_mixed_variant: true,
        };
        let tracer_per_step = kernel_time(&tracer_kernel, target, &self.spec, &self.perf, None)
            * self.cfg.n_tracers
            * (1.0 - self.cfg.residency_saving * res);

        // --- physics per physics/radiation step ---
        let cg_peak = self.spec.cg_peak_f64();
        let cols = local_cells as f64;
        let (phy_per_step, rad_per_step) = if scheme.ml_physics {
            (
                cols * self.cfg.ml_phy_flops / (self.cfg.ml_efficiency * cg_peak),
                cols * self.cfg.ml_rad_flops / (self.cfg.ml_efficiency * cg_peak),
            )
        } else {
            (
                cols * self.cfg.conv_phy_flops / (self.cfg.conv_efficiency * cg_peak),
                cols * self.cfg.conv_rad_flops / (self.cfg.conv_efficiency * cg_peak),
            )
        };

        // --- communication per dynamics step ---
        let halo_cells =
            (self.cfg.halo_surface_coeff * (local_cells as f64).sqrt()).min(local_cells as f64);
        let msg_bytes = halo_cells / 6.0 * nlev as f64 * self.cfg.exchange_vars * elem;
        let profile = ExchangeProfile {
            procs,
            msg_bytes,
            n_neighbors: 6.0,
        };
        // Bandwidth/contention terms from the fat-tree model, plus per-message
        // software latency that grows with system size (MPI stack, network
        // diameter) — the dominant term at these message sizes.
        let lat_growth =
            1.0 + self.cfg.latency_growth_per_doubling * ((procs.max(128) as f64) / 128.0).log2();
        let comm_per_step = (exchange_time(&profile, &self.spec).total()
            + 6.0 * self.cfg.msg_software_latency * lat_growth)
            * self.cfg.exchanges_per_dyn_step;

        // --- assemble one simulated day ---
        let n_dyn = 86_400.0 / grid.dt_dyn;
        let n_trac = 86_400.0 / grid.dt_trac;
        let n_phy = 86_400.0 / grid.dt_phy;
        let n_rad = 86_400.0 / grid.dt_rad;

        let imbalance =
            1.0 + self.cfg.imbalance_per_doubling * ((procs.max(128) as f64 / 128.0).log2());
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

    fn model() -> SdpdModel {
        SdpdModel::default()
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
        assert_eq!(
            cfg.dyn_kernel_groups,
            SdpdModelConfig::default().dyn_kernel_groups
        );
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
