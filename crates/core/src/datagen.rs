//! Training-data generation and ML-suite training (§3.2.1–3.2.2).
//!
//! The paper trains on 30 km coarse-grained 5 km GRIST-GSRM output, deriving
//! Q1/Q2 "as residuals". This module reproduces the *workflow* with the
//! substitute data source documented in DESIGN.md: it runs **our own model**
//! at a finer grid level with the conventional physics suite, coarse-grains
//! the coupling-interface columns to a coarser grid level, and uses the
//! conventional suite's total tendencies — exactly the physics residual of
//! the (T, q) budgets — as the Q1/Q2 targets. Four forcing regimes stand in
//! for the Table-1 ENSO/MJO periods.

use crate::config::RunConfig;
use crate::coupling::extract_columns;
use crate::mlsuite::MlSuite;
use crate::model::{GristModel, PhysicsEngine};
use grist_mesh::HexMesh;
use grist_ml::data::{ChannelNormalizer, Dataset, Sample, TRAINING_PERIODS};
use grist_ml::models::{CNN_INPUT_CHANNELS, CNN_OUTPUT_CHANNELS};
use grist_ml::{Adam, AdamConfig};
use grist_physics::Column;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Mapping of fine-grid cells onto their nearest coarse-grid cell.
#[derive(Debug, Clone)]
pub struct CoarseMap {
    pub n_coarse: usize,
    pub fine_to_coarse: Vec<u32>,
}

impl CoarseMap {
    /// Nearest-coarse-cell assignment by great-circle distance.
    pub fn build(fine: &HexMesh, coarse: &HexMesh) -> Self {
        let fine_to_coarse = fine
            .cell_xyz
            .iter()
            .map(|&p| {
                (0..coarse.n_cells())
                    .max_by(|&a, &b| {
                        coarse.cell_xyz[a]
                            .dot(p)
                            .partial_cmp(&coarse.cell_xyz[b].dot(p))
                            .unwrap()
                    })
                    .unwrap() as u32
            })
            .collect();
        CoarseMap {
            n_coarse: coarse.n_cells(),
            fine_to_coarse,
        }
    }

    /// Average a per-fine-cell vector onto the coarse cells.
    pub fn average(&self, fine_vals: &[f64]) -> Vec<f64> {
        let mut sum = vec![0.0; self.n_coarse];
        let mut cnt = vec![0usize; self.n_coarse];
        for (f, &c) in self.fine_to_coarse.iter().enumerate() {
            sum[c as usize] += fine_vals[f];
            cnt[c as usize] += 1;
        }
        for (s, n) in sum.iter_mut().zip(&cnt) {
            if *n > 0 {
                *s /= *n as f64;
            }
        }
        sum
    }
}

/// The nine profiles of a column: p, dp, z, t, qv, qc, qr, u, v.
fn profiles(c: &Column) -> [&[f64]; 9] {
    [&c.p, &c.dp, &c.z, &c.t, &c.qv, &c.qc, &c.qr, &c.u, &c.v]
}

/// [`profiles`], mutably.
fn profiles_mut(c: &mut Column) -> [&mut [f64]; 9] {
    [
        &mut c.p, &mut c.dp, &mut c.z, &mut c.t, &mut c.qv, &mut c.qc, &mut c.qr, &mut c.u,
        &mut c.v,
    ]
}

/// Coarse-grain a set of fine columns (profile-wise averaging).
pub fn coarse_grain_columns(map: &CoarseMap, fine: &[Column]) -> Vec<Column> {
    assert_eq!(fine.len(), map.fine_to_coarse.len());
    let mut zero = fine[0].clone();
    for v in profiles_mut(&mut zero).into_iter().flatten() {
        *v = 0.0;
    }
    (zero.tskin, zero.coszr) = (0.0, 0.0);
    let mut out = vec![zero; map.n_coarse];
    let mut counts = vec![0usize; map.n_coarse];
    for (f, col) in fine.iter().enumerate() {
        let c = map.fine_to_coarse[f] as usize;
        counts[c] += 1;
        let o = &mut out[c];
        for (acc, v) in profiles_mut(o).into_iter().zip(profiles(col)) {
            for (a, b) in acc.iter_mut().zip(v) {
                *a += b;
            }
        }
        o.tskin += col.tskin;
        o.coszr += col.coszr;
    }
    for (o, &n) in out.iter_mut().zip(&counts) {
        if n == 0 {
            continue;
        }
        let inv = 1.0 / n as f64;
        for v in profiles_mut(o).into_iter().flatten() {
            *v *= inv;
        }
        o.tskin *= inv;
        o.coszr *= inv;
    }
    out
}

/// Configuration of the data-generation run.
#[derive(Debug, Clone)]
pub struct DataGenConfig {
    /// Fine ("GSRM") grid level run with conventional physics.
    pub fine_level: u32,
    /// Coarse-graining target level (the 30 km analogue).
    pub coarse_level: u32,
    pub nlev: usize,
    /// Physics steps recorded per simulated "day" (paper: hourly snapshots).
    pub steps_per_day: usize,
    /// Simulated days per Table-1 period.
    pub days_per_period: usize,
    /// How many of the four Table-1 regimes to run.
    pub n_periods: usize,
    /// Record every `cell_stride`-th coarse cell (1 = all; larger strides
    /// thin the dataset for quick training runs).
    pub cell_stride: usize,
}

impl Default for DataGenConfig {
    fn default() -> Self {
        DataGenConfig {
            fine_level: 3,
            coarse_level: 2,
            nlev: 10,
            steps_per_day: 8,
            days_per_period: 1,
            n_periods: 2,
            cell_stride: 1,
        }
    }
}

/// Output of the generator: CNN samples (x = [U|V|T|Q|P]×nlev,
/// y = [Q1|Q2]×nlev) and MLP samples (x = [T|Q|tskin|coszr], y = [gsw, glw]).
pub struct GeneratedData {
    pub cnn: Vec<Sample>,
    pub mlp: Vec<Sample>,
    pub nlev: usize,
}

/// Run the fine model and harvest coarse-grained training samples.
pub fn generate_training_data(cfg: &DataGenConfig) -> GeneratedData {
    let coarse_mesh = HexMesh::build(cfg.coarse_level);
    let mut cnn_samples = Vec::new();
    let mut mlp_samples = Vec::new();

    for (pi, period) in TRAINING_PERIODS.iter().take(cfg.n_periods).enumerate() {
        let run_cfg = RunConfig::for_level(cfg.fine_level, cfg.nlev);
        let mut model = GristModel::<f64>::new(run_cfg);
        model.declination = period.solar_declination;
        // ENSO regime: shift the SST field by a fraction of the ONI.
        for t in model.surface.tskin.iter_mut() {
            *t += 0.5 * period.oni;
        }
        // MJO-like zonal moisture modulation.
        let nlev = cfg.nlev;
        for c in 0..model.n_cells() {
            let modu = 1.0 + 0.1 * period.mjo * model.lons[c].sin();
            for k in 0..nlev {
                let q = model.state.tracers[0].at(k, c) * modu;
                model.state.tracers[0].set(k, c, q);
            }
        }
        let map = CoarseMap::build(&model.solver.mesh, &coarse_mesh);
        // No spin-up: the sampling window starts at the initial state so the
        // dataset covers the active adjustment regime (convective rain) that
        // coupled evaluation runs traverse from the same initial-state family.

        let total_steps = cfg.steps_per_day * cfg.days_per_period;
        for step in 0..total_steps {
            model.advance(model.config.dt_phy);
            let day = pi * cfg.days_per_period + step / cfg.steps_per_day;
            let step_in_day = step % cfg.steps_per_day;
            // Inputs: coarse-grained coupling columns (the 30 km analogue
            // of the paper's coarse-grained 5 km GSRM fields).
            let fine_cols = extract_columns(&mut model.solver, &model.state, &model.surface);
            let coarse_cols = coarse_grain_columns(&map, &fine_cols);
            // Targets: the *fine-grid* physics tendencies and diagnostics of
            // the step just taken, coarse-grained — the residual method of
            // §3.2.2. This is what lets the ML suite inherit sub-coarse-grid
            // rain that physics re-run on smoothed columns would never see.
            assert!(
                matches!(model.physics, PhysicsEngine::Conventional { .. }),
                "data generation uses conventional physics"
            );
            let fine_tends = model.last_tendencies.clone();
            let fine_diags = model.last_diag.clone();
            let avg_levels = |get: &dyn Fn(usize) -> f64| {
                map.average(&(0..fine_cols.len()).map(get).collect::<Vec<f64>>())
            };
            let mut tends: Vec<grist_physics::Tendencies> = (0..map.n_coarse)
                .map(|_| grist_physics::Tendencies::zeros(nlev))
                .collect();
            for k in 0..nlev {
                let q1 = avg_levels(&|c| fine_tends[c].dt_dt[k]);
                let q2 = avg_levels(&|c| fine_tends[c].dqv_dt[k]);
                for (ci, t) in tends.iter_mut().enumerate() {
                    t.dt_dt[k] = q1[ci];
                    t.dqv_dt[k] = q2[ci];
                }
            }
            let gsw = map.average(&fine_diags.iter().map(|d| d.gsw).collect::<Vec<_>>());
            let glw = map.average(&fine_diags.iter().map(|d| d.glw).collect::<Vec<_>>());
            let pr = map.average(&fine_diags.iter().map(|d| d.precip).collect::<Vec<_>>());
            let diags: Vec<grist_physics::SurfaceDiag> = (0..map.n_coarse)
                .map(|ci| grist_physics::SurfaceDiag {
                    gsw: gsw[ci],
                    glw: glw[ci],
                    precip: pr[ci],
                    ..Default::default()
                })
                .collect();
            for (ci, col) in coarse_cols.iter().enumerate() {
                if ci % cfg.cell_stride.max(1) != 0 {
                    continue;
                }
                let mut x = Vec::with_capacity(CNN_INPUT_CHANNELS * nlev);
                x.extend(col.u.iter().map(|&v| v as f32));
                x.extend(col.v.iter().map(|&v| v as f32));
                x.extend(col.t.iter().map(|&v| v as f32));
                x.extend(col.qv.iter().map(|&v| v as f32));
                x.extend(col.p.iter().map(|&v| v as f32));
                let mut y = Vec::with_capacity(CNN_OUTPUT_CHANNELS * nlev);
                y.extend(tends[ci].dt_dt.iter().map(|&v| v as f32));
                y.extend(tends[ci].dqv_dt.iter().map(|&v| v as f32));
                cnn_samples.push(Sample {
                    x,
                    y,
                    day,
                    step: step_in_day,
                });

                let mut rx = Vec::with_capacity(2 * nlev + 2);
                rx.extend(col.t.iter().map(|&v| v as f32));
                rx.extend(col.qv.iter().map(|&v| v as f32));
                rx.push(col.tskin as f32);
                rx.push(col.coszr as f32);
                let ry = vec![
                    diags[ci].gsw as f32,
                    diags[ci].glw as f32,
                    diags[ci].precip as f32,
                ];
                mlp_samples.push(Sample {
                    x: rx,
                    y: ry,
                    day,
                    step: step_in_day,
                });
            }
        }
    }
    GeneratedData {
        cnn: cnn_samples,
        mlp: mlp_samples,
        nlev: cfg.nlev,
    }
}

/// Training report.
#[derive(Debug, Clone, Copy)]
pub struct TrainReport {
    pub cnn_train_loss: f32,
    pub cnn_test_loss: f32,
    pub cnn_test_loss_untrained: f32,
    pub mlp_test_loss: f32,
    pub mlp_test_loss_untrained: f32,
    pub train_test_ratio: f64,
}

/// Train an [`MlSuite`] on generated data (normalized-space MSE, Adam,
/// minibatches), using the paper's day-wise 7:1 split.
pub fn train_ml_suite(
    data: &GeneratedData,
    channels: usize,
    epochs: usize,
    seed: u64,
) -> (MlSuite, TrainReport) {
    let nlev = data.nlev;
    let mut suite = MlSuite::untrained(nlev, channels, seed);

    // --- normalization fit on the training split ---
    let cnn_ds = Dataset::split_by_day(data.cnn.clone(), seed);
    let mlp_ds = Dataset::split_by_day(data.mlp.clone(), seed ^ 1);
    let xs = cnn_ds.train.iter().map(|s| &s.x);
    let ys = cnn_ds.train.iter().map(|s| &s.y);
    let in_norm = ChannelNormalizer::fit(xs, CNN_INPUT_CHANNELS, nlev);
    let out_norm = ChannelNormalizer::fit(ys, CNN_OUTPUT_CHANNELS, nlev);
    suite.cnn.in_norm = in_norm.as_inv_pairs();
    suite.cnn.out_norm = out_norm.stats.clone();

    let rxs = mlp_ds.train.iter().map(|s| &s.x);
    let rys = mlp_ds.train.iter().map(|s| &s.y);
    let rin = ChannelNormalizer::fit(rxs, 2 * nlev + 2, 1);
    let rout = ChannelNormalizer::fit(rys, 3, 1);
    suite.mlp.in_norm = rin.as_inv_pairs();
    suite.mlp.out_norm = rout.stats.clone();

    // Normalized sample tensors.
    let prep = |set: &[Sample], innorm: &ChannelNormalizer, outnorm: &ChannelNormalizer| {
        let normalized = |s: &Sample| {
            let (mut x, mut y) = (s.x.clone(), s.y.clone());
            innorm.normalize(&mut x);
            outnorm.normalize(&mut y);
            (x, y)
        };
        set.iter().map(normalized).collect::<Vec<_>>()
    };
    let cnn_train = prep(&cnn_ds.train, &in_norm, &out_norm);
    let cnn_test = prep(&cnn_ds.test, &in_norm, &out_norm);
    let mlp_train = prep(&mlp_ds.train, &rin, &rout);
    let mlp_test = prep(&mlp_ds.test, &rin, &rout);

    // The mean normalized-space MSE of `infer` over `set`.
    let mean_loss = |infer: &dyn Fn(&[f32]) -> Vec<f32>, set: &[(Vec<f32>, Vec<f32>)]| {
        let total = set
            .iter()
            .fold(0.0, |acc, (x, t)| acc + grist_ml::mse_loss(&infer(x), t).0);
        total / set.len().max(1) as f32
    };

    let cnn_test_loss_untrained = mean_loss(&|x| suite.cnn.infer(x), &cnn_test);
    let mlp_test_loss_untrained = mean_loss(&|x| suite.mlp.infer(x), &mlp_test);

    // --- training loops ---
    let cfg = AdamConfig {
        lr: 2e-3,
        ..Default::default()
    };
    let mut opt_cnn = Adam::new(cfg, suite.cnn.tensor_lens());
    let mut opt_mlp = Adam::new(cfg, suite.mlp.tensor_lens());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbeef);
    let batch = 16;
    let mut order: Vec<usize> = (0..cnn_train.len()).collect();
    let mut cnn_train_loss = 0.0;
    for _ in 0..epochs {
        order.shuffle(&mut rng);
        cnn_train_loss = 0.0;
        for chunk in order.chunks(batch) {
            for &i in chunk {
                let (x, y) = &cnn_train[i];
                cnn_train_loss += suite.cnn.train_sample(&mut opt_cnn, x, y);
            }
            suite.cnn.optimizer_step(&mut opt_cnn);
        }
        cnn_train_loss /= cnn_train.len().max(1) as f32;

        for chunk in mlp_train.chunks(batch) {
            for (x, y) in chunk {
                suite.mlp.train_sample(&mut opt_mlp, x, y);
            }
            suite.mlp.optimizer_step(&mut opt_mlp);
        }
    }

    let report = TrainReport {
        cnn_train_loss,
        cnn_test_loss: mean_loss(&|x| suite.cnn.infer(x), &cnn_test),
        cnn_test_loss_untrained,
        mlp_test_loss: mean_loss(&|x| suite.mlp.infer(x), &mlp_test),
        mlp_test_loss_untrained,
        train_test_ratio: cnn_ds.ratio(),
    };
    (suite, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_map_covers_every_coarse_cell() {
        let fine = HexMesh::build(3);
        let coarse = HexMesh::build(2);
        let map = CoarseMap::build(&fine, &coarse);
        let mut hit = vec![false; coarse.n_cells()];
        for &c in &map.fine_to_coarse {
            hit[c as usize] = true;
        }
        assert!(
            hit.iter().all(|&h| h),
            "some coarse cells received no fine cells"
        );
    }

    #[test]
    fn coarse_map_assigns_nearest() {
        let fine = HexMesh::build(3);
        let coarse = HexMesh::build(2);
        let map = CoarseMap::build(&fine, &coarse);
        for f in (0..fine.n_cells()).step_by(97) {
            let assigned = map.fine_to_coarse[f] as usize;
            let d_assigned = fine.cell_xyz[f].arc_dist(coarse.cell_xyz[assigned]);
            for c in 0..coarse.n_cells() {
                assert!(
                    d_assigned <= fine.cell_xyz[f].arc_dist(coarse.cell_xyz[c]) + 1e-12,
                    "cell {f} not assigned to nearest coarse cell"
                );
            }
        }
    }

    #[test]
    fn averaging_preserves_constant_fields() {
        let fine = HexMesh::build(3);
        let coarse = HexMesh::build(2);
        let map = CoarseMap::build(&fine, &coarse);
        let vals = vec![5.5; fine.n_cells()];
        let avg = map.average(&vals);
        assert!(avg.iter().all(|&v| (v - 5.5).abs() < 1e-12));
    }

    /// A level-2 run coarse-grained to level 1, 8 levels, `n_periods`
    /// Table-1 periods of one day.
    fn small_run(n_periods: usize) -> DataGenConfig {
        DataGenConfig {
            fine_level: 2,
            coarse_level: 1,
            nlev: 8,
            n_periods,
            ..DataGenConfig::default()
        }
    }

    #[test]
    fn generated_data_has_paperlike_split_and_shapes() {
        let data = generate_training_data(&small_run(1));
        assert!(!data.cnn.is_empty());
        assert_eq!(data.cnn.len(), data.mlp.len());
        assert_eq!(data.cnn[0].x.len(), 5 * 8);
        assert_eq!(data.cnn[0].y.len(), 2 * 8);
        assert_eq!(data.mlp[0].x.len(), 2 * 8 + 2);
        assert_eq!(data.mlp[0].y.len(), 3, "gsw, glw, precip targets");
        // Targets contain signal (radiative cooling at minimum).
        assert!(data.cnn.iter().any(|s| s.y.iter().any(|&v| v != 0.0)));
        let ds = Dataset::split_by_day(data.cnn.clone(), 3);
        assert!(!ds.test.is_empty() && !ds.train.is_empty());
    }

    #[test]
    fn training_reduces_test_loss() {
        let data = generate_training_data(&small_run(2));
        let (_suite, report) = train_ml_suite(&data, 8, 15, 42);
        assert!(
            report.cnn_test_loss < 0.8 * report.cnn_test_loss_untrained,
            "CNN did not learn: {} -> {}",
            report.cnn_test_loss_untrained,
            report.cnn_test_loss
        );
        assert!(
            report.mlp_test_loss < 0.5 * report.mlp_test_loss_untrained,
            "MLP did not learn: {} -> {}",
            report.mlp_test_loss_untrained,
            report.mlp_test_loss
        );
    }
}
