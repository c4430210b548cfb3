//! The physics–dynamics coupling interface (§3.2.4): "computing the
//! dynamical core and passing input variables (U, V, T, Q, P, tskin, coszr)
//! from the physics-dynamics coupling interface of GRIST model to our
//! trained ML-physics suite … which returns full physical tendencies and
//! diagnostic variables back … for the next-step dynamical core integration."
//!
//! [`extract_columns`] builds the per-cell [`Column`]s from the dycore
//! state; `apply_tendencies` (`GristModel::step_physics` is its one caller)
//! folds the returned Q1/Q2-style tendencies back into Θ and the moisture
//! tracers, with the Π the extraction diagnosed.

use grist_dycore::constants::GRAVITY;
use grist_dycore::operators::cell_velocity;
use grist_dycore::{Field2, NhSolver, NhState, Real};
use grist_physics::{Column, Tendencies};

/// Per-cell surface boundary state carried by the model.
#[derive(Debug, Clone)]
pub struct SurfaceState {
    /// Skin temperature (SST over ocean) \[K\].
    pub tskin: Vec<f64>,
    /// Cosine of solar zenith angle.
    pub coszr: Vec<f64>,
    /// Surface albedo.
    pub albedo: Vec<f64>,
    /// Ocean mask.
    pub ocean: Vec<bool>,
}

impl SurfaceState {
    /// Aqua-planet surface: zonally symmetric SST peaking at the equator,
    /// as in the paper's `demo-g6-aqua` artifact configuration.
    pub fn aqua_planet(lats: &[f64]) -> Self {
        let tskin = lats
            .iter()
            .map(|&lat| 271.0 + 29.0 * (lat.cos().powi(2)).max(0.0))
            .collect();
        SurfaceState {
            tskin,
            coszr: vec![0.0; lats.len()],
            albedo: vec![0.08; lats.len()],
            ocean: vec![true; lats.len()],
        }
    }

    /// Carve an idealized rectangular continent into an aqua-planet surface
    /// (land mask + higher albedo), activating the Noah-MP-lite land model
    /// there — §4.4: "an active land surface model has been coupled to the
    /// atmosphere model".
    pub fn add_continent(
        &mut self,
        lats: &[f64],
        lons: &[f64],
        lat_range: (f64, f64),
        lon_range: (f64, f64),
    ) {
        for i in 0..lats.len() {
            if lats[i] >= lat_range.0
                && lats[i] <= lat_range.1
                && lons[i] >= lon_range.0
                && lons[i] <= lon_range.1
            {
                self.ocean[i] = false;
                self.albedo[i] = 0.2;
            }
        }
    }

    /// Update `coszr` from the time of day and cell coordinates.
    /// `declination` in radians, `utc_hours` in \[0, 24).
    pub fn update_sun(&mut self, lats: &[f64], lons: &[f64], declination: f64, utc_hours: f64) {
        for (i, cz) in self.coszr.iter_mut().enumerate() {
            let hour_angle = (utc_hours / 12.0 - 1.0) * std::f64::consts::PI + lons[i];
            *cz = (lats[i].sin() * declination.sin()
                + lats[i].cos() * declination.cos() * hour_angle.cos())
            .max(0.0);
        }
    }
}

/// Extract physics input columns from the dycore state for every cell.
pub fn extract_columns<R: Real>(
    solver: &mut NhSolver<R>,
    state: &NhState<R>,
    surface: &SurfaceState,
) -> Vec<Column> {
    extract_columns_and_exner(solver, state, surface).0
}

/// [`extract_columns`], and the Π it diagnosed on the way: what
/// [`apply_tendencies`] converts `dT` to `dθ` with, borrowed from the solver
/// from the extraction to the application.
pub(crate) fn extract_columns_and_exner<'a, R: Real>(
    solver: &'a mut NhSolver<R>,
    state: &NhState<R>,
    surface: &SurfaceState,
) -> (Vec<Column>, &'a Field2<f64>) {
    let nlev = state.dpi.nlev();
    let nc = state.dpi.ncols();
    // Cell-centred winds.
    let mut ue = Field2::<R>::zeros(nlev, nc);
    let mut un = Field2::<R>::zeros(nlev, nc);
    cell_velocity(
        &solver.sub.clone(),
        &solver.mesh,
        &state.u,
        &mut ue,
        &mut un,
    );
    let (pres, theta, _dphi, exner) = solver.diagnose_fields(state);

    let mut cols = Vec::with_capacity(nc);
    for c in 0..nc {
        let mut p = Vec::with_capacity(nlev);
        let mut dp = Vec::with_capacity(nlev);
        let mut z = Vec::with_capacity(nlev);
        let mut t = Vec::with_capacity(nlev);
        for k in 0..nlev {
            p.push(pres.at(k, c));
            dp.push(state.dpi.at(k, c));
            z.push(0.5 * (state.phi.at(k, c) + state.phi.at(k + 1, c)) / GRAVITY);
            t.push(theta.at(k, c) * exner.at(k, c));
        }
        let getq = |idx: usize| -> Vec<f64> {
            if idx < state.tracers.len() {
                (0..nlev)
                    .map(|k| state.tracers[idx].at(k, c).to_f64())
                    .collect()
            } else {
                vec![0.0; nlev]
            }
        };
        cols.push(Column {
            p,
            dp,
            z,
            t,
            qv: getq(0),
            qc: getq(1),
            qr: getq(2),
            u: (0..nlev).map(|k| ue.at(k, c).to_f64()).collect(),
            v: (0..nlev).map(|k| un.at(k, c).to_f64()).collect(),
            tskin: surface.tskin[c],
            coszr: surface.coszr[c],
            albedo: surface.albedo[c],
            ocean: surface.ocean[c],
        });
    }
    (cols, exner)
}

/// Fold physics tendencies back into the prognostic state over `dt` seconds:
/// `dT/dt` enters Θ through `dθ = dT/Π`; moisture tendencies update the
/// tracers (clamped non-negative). `exner` is the Π of this `state` as
/// [`extract_columns_and_exner`] returned it with the columns the tendencies
/// were computed from.
pub(crate) fn apply_tendencies<R: Real>(
    exner: &Field2<f64>,
    state: &mut NhState<R>,
    tends: &[Tendencies],
    dt: f64,
) {
    let nlev = state.dpi.nlev();
    let nc = state.dpi.ncols();
    assert_eq!(tends.len(), nc);

    for c in 0..nc {
        let tend = &tends[c];
        for k in 0..nlev {
            let dpi = state.dpi.at(k, c);
            let d_theta = tend.dt_dt[k] * dt / exner.at(k, c);
            *state.theta_m.at_mut(k, c) += dpi * d_theta;
        }
        let mut setq = |idx: usize, dq: &[f64]| {
            if idx < state.tracers.len() {
                for k in 0..nlev {
                    let q = state.tracers[idx].at(k, c).to_f64() + dq[k] * dt;
                    state.tracers[idx].set(k, c, R::from_f64(q.max(0.0)));
                }
            }
        };
        setq(0, &tend.dqv_dt);
        setq(1, &tend.dqc_dt);
        setq(2, &tend.dqr_dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grist_dycore::hevi::NhConfig;
    use grist_dycore::VerticalCoord;
    use grist_mesh::HexMesh;

    fn setup() -> (NhSolver<f64>, NhState<f64>, SurfaceState) {
        let mesh = HexMesh::build(2);
        let lats: Vec<f64> = mesh.cell_xyz.iter().map(|p| p.lat()).collect();
        let solver = NhSolver::new(
            mesh,
            VerticalCoord::uniform(10),
            NhConfig {
                ntracers: 3,
                ..Default::default()
            },
        );
        let state = solver.isothermal_rest_state(285.0, 1.0e5);
        let surface = SurfaceState::aqua_planet(&lats);
        (solver, state, surface)
    }

    #[test]
    fn extracted_columns_are_physical() {
        let (mut solver, state, surface) = setup();
        let cols = extract_columns(&mut solver, &state, &surface);
        assert_eq!(cols.len(), solver.mesh.n_cells());
        for col in &cols {
            assert!(
                col.p.windows(2).all(|w| w[1] > w[0]),
                "p increases downward"
            );
            assert!(col.z.windows(2).all(|w| w[1] < w[0]), "z decreases with k");
            assert!(col.t.iter().all(|&t| (150.0..350.0).contains(&t)));
            assert!((250.0..305.0).contains(&col.tskin));
        }
    }

    #[test]
    fn aqua_planet_sst_peaks_at_equator() {
        let lats = vec![0.0, 0.8, -0.8, 1.4];
        let s = SurfaceState::aqua_planet(&lats);
        assert!(s.tskin[0] > s.tskin[1]);
        assert!((s.tskin[1] - s.tskin[2]).abs() < 1e-12);
        assert!(s.tskin[3] < s.tskin[1]);
        assert!((s.tskin[0] - 300.0).abs() < 0.1);
    }

    #[test]
    fn solar_zenith_tracks_longitude_and_time() {
        let lats = vec![0.0, 0.0];
        let lons = vec![0.0, std::f64::consts::PI];
        let mut s = SurfaceState::aqua_planet(&lats);
        s.update_sun(&lats, &lons, 0.0, 12.0); // noon at lon 0
        assert!((s.coszr[0] - 1.0).abs() < 1e-9, "noon overhead sun");
        assert_eq!(s.coszr[1], 0.0, "midnight on the far side");
    }

    #[test]
    fn heating_tendency_warms_the_state_through_theta() {
        let (mut solver, mut state, surface) = setup();
        let nc = solver.mesh.n_cells();
        let (before, exner) = extract_columns_and_exner(&mut solver, &state, &surface);
        let mut tends = vec![Tendencies::zeros(10); nc];
        for t in &mut tends {
            t.dt_dt[5] = 1.0 / 3600.0; // 1 K/hour at level 5
        }
        apply_tendencies(exner, &mut state, &tends, 3600.0);
        let after = extract_columns(&mut solver, &state, &surface);
        for c in 0..nc {
            // Heating at fixed layer volume also raises p and Π through the
            // EOS, so the diagnosed ΔT slightly exceeds ∫Q1 dt (≈ ×(1+κγ))
            // until the dynamics adjusts — accept the physical band.
            let dt5 = after[c].t[5] - before[c].t[5];
            assert!((0.9..1.7).contains(&dt5), "ΔT = {dt5}, expected ≈ 1–1.5 K");
            let dt3 = (after[c].t[3] - before[c].t[3]).abs();
            assert!(dt3 < 0.05, "level 3 should be untouched, ΔT = {dt3}");
        }
    }

    #[test]
    fn moisture_tendencies_clamp_at_zero() {
        let (mut solver, mut state, surface) = setup();
        let nc = solver.mesh.n_cells();
        let (_, exner) = extract_columns_and_exner(&mut solver, &state, &surface);
        let mut tends = vec![Tendencies::zeros(10); nc];
        for t in &mut tends {
            t.dqv_dt = vec![-1.0; 10]; // absurd drying
        }
        apply_tendencies(exner, &mut state, &tends, 100.0);
        assert!(state.tracers[0].as_slice().iter().all(|&q| q >= 0.0));
    }
}
