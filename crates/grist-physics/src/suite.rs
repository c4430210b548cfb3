//! The conventional physics suite driver: radiation (on its own, longer
//! timestep per Table 2), surface exchange + land model, PBL diffusion,
//! convection, and microphysics, composed per column exactly as the
//! physics–dynamics coupling interface of §3.2.4 expects.
//!
//! The suite returns the *summed* tendencies — the `Q1`/`Q2` of §3.2.2 —
//! plus the surface diagnostics (`gsw`, `glw`, precipitation), and keeps a
//! FLOP ledger so the conventional-vs-ML efficiency comparison of §4.7 can
//! be reproduced.

use crate::cloud::{cloud_fraction, total_cloud_cover, CloudConfig};
use crate::column::{Column, SurfaceDiag, Tendencies};
use crate::convection::{convection, ConvectionConfig};
use crate::microphysics::{microphysics, MicroConfig};
use crate::pbl::{pbl_diffusion, PblConfig};
use crate::radiation::{radiation, FlopLedger, RadiationConfig};
use crate::surface::{bulk_fluxes, land_step, LandConfig, LandState, SurfaceConfig};
use sunway_sim::Substrate;

/// Per-column persistent physics state.
#[derive(Debug, Clone)]
pub struct ColumnPhysicsState {
    /// Land model state (`None` over ocean).
    pub land: Option<LandState>,
    /// Radiation heating cached between radiation calls \[K/s\].
    pub rad_heating: Vec<f64>,
    /// Cached surface radiation diagnostics.
    pub gsw: f64,
    pub glw: f64,
    /// Seconds since the last radiation call.
    pub since_rad: f64,
}

impl ColumnPhysicsState {
    pub fn new(nlev: usize, ocean: bool, t0: f64) -> Self {
        ColumnPhysicsState {
            land: if ocean {
                None
            } else {
                Some(LandState::new(t0))
            },
            rad_heating: vec![0.0; nlev],
            gsw: 0.0,
            glw: 0.0,
            since_rad: f64::INFINITY, // force radiation on the first call
        }
    }
}

/// Configuration bundle for the whole suite.
#[derive(Debug, Clone, Default)]
pub struct SuiteConfig {
    pub radiation: RadiationConfig,
    pub cloud: CloudConfig,
    pub micro: MicroConfig,
    pub pbl: PblConfig,
    pub convection: ConvectionConfig,
    pub surface: SurfaceConfig,
    pub land: LandConfig,
}

/// Output of one suite invocation on one column.
#[derive(Debug, Clone)]
pub struct PhysicsOutput {
    /// Summed tendencies of all processes — Q1 (dT/dt) and Q2 (dq/dt) et al.
    pub tend: Tendencies,
    pub diag: SurfaceDiag,
    pub ledger: FlopLedger,
}

/// The conventional physics suite.
#[derive(Debug, Clone, Default)]
pub struct ConventionalSuite {
    pub cfg: SuiteConfig,
    /// Execution target for the per-column fan-out (§3.3.4): serial MPE
    /// fallback or SWGOMP CPE-team offload.
    pub sub: Substrate,
}

impl ConventionalSuite {
    pub fn new(cfg: SuiteConfig) -> Self {
        Self::with_substrate(cfg, Substrate::serial())
    }

    /// Build the suite on an explicit execution target; column dispatches go
    /// through the shared job server and are profiled under
    /// `"physics_columns"`.
    pub fn with_substrate(cfg: SuiteConfig, sub: Substrate) -> Self {
        ConventionalSuite { cfg, sub }
    }

    /// Run all physics on one column over `dt_phy`, refreshing radiation if
    /// `dt_rad` has elapsed (Table 2 uses rad = 3× phy).
    pub fn step_column(
        &self,
        col: &Column,
        state: &mut ColumnPhysicsState,
        dt_phy: f64,
        dt_rad: f64,
    ) -> PhysicsOutput {
        let nlev = col.nlev();
        let mut total = Tendencies::zeros(nlev);
        let mut ledger = FlopLedger::default();

        // --- radiation (long timestep, cached in between) ---
        state.since_rad += dt_phy;
        if state.since_rad >= dt_rad {
            let (rt, rd, rl) = radiation(col, &self.cfg.radiation);
            state.rad_heating.copy_from_slice(&rt.dt_dt);
            state.gsw = rd.gsw;
            state.glw = rd.glw;
            state.since_rad = 0.0;
            ledger.merge(&rl);
        }
        for k in 0..nlev {
            total.dt_dt[k] += state.rad_heating[k];
        }

        // --- surface fluxes (ocean bulk / land model) ---
        let mut working = col.clone();
        let (sh, lh, tskin) = match &mut state.land {
            None => {
                let (sh, lh) = bulk_fluxes(col, &self.cfg.surface, self.cfg.surface.beta_ocean);
                (sh, lh, col.tskin)
            }
            Some(land) => {
                let (sh, lh) = land_step(
                    land,
                    &self.cfg.land,
                    &self.cfg.surface,
                    col,
                    state.gsw,
                    state.glw,
                    0.0, // precip fed back next step
                    dt_phy,
                );
                (sh, lh, land.tskin)
            }
        };
        working.tskin = tskin;

        // --- PBL diffusion driven by the surface fluxes ---
        let pbl_t = pbl_diffusion(&working, &self.cfg.pbl, sh, lh, dt_phy);
        total.accumulate(&pbl_t);
        pbl_t.apply(&mut working, dt_phy);

        // --- convection ---
        let (conv_t, conv_precip) = convection(&working, &self.cfg.convection, dt_phy);
        total.accumulate(&conv_t);
        conv_t.apply(&mut working, dt_phy);

        // --- grid-scale microphysics ---
        let (micro_t, ls_precip) = microphysics(&working, &self.cfg.micro, dt_phy);
        total.accumulate(&micro_t);

        let cover = total_cloud_cover(&cloud_fraction(&working, &self.cfg.cloud));
        let diag = SurfaceDiag {
            gsw: state.gsw,
            glw: state.glw,
            precip: conv_precip + ls_precip,
            shflx: sh,
            lhflx: lh,
            tskin,
            cloud_cover: cover,
        };
        PhysicsOutput {
            tend: total,
            diag,
            ledger,
        }
    }

    /// Run the suite over many columns in parallel (the column model is
    /// embarrassingly parallel — §3.3.4).
    pub fn step_columns(
        &self,
        cols: &[Column],
        states: &mut [ColumnPhysicsState],
        dt_phy: f64,
        dt_rad: f64,
    ) -> Vec<PhysicsOutput> {
        // Attribute the column sweep to the "physics" trace span.
        let _span = self.sub.span("physics");
        let mut out: Vec<Option<PhysicsOutput>> = (0..cols.len()).map(|_| None).collect();
        self.sub
            .run_cols("physics_columns", (&mut out[..], states), |i, (o, s)| {
                *o = Some(self.step_column(&cols[i], s, dt_phy, dt_rad));
            });
        out.into_iter()
            .map(|o| o.expect("column dispatched"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::saturation_mixing_ratio;

    #[test]
    fn suite_produces_bounded_tendencies() {
        let suite = ConventionalSuite::default();
        let col = Column::reference(30);
        let mut st = ColumnPhysicsState::new(30, true, 290.0);
        let out = suite.step_column(&col, &mut st, 600.0, 1800.0);
        // |dT/dt| below 100 K/day everywhere.
        for &x in &out.tend.dt_dt {
            assert!(x.abs() * 86400.0 < 100.0, "dT/dt = {} K/day", x * 86400.0);
        }
        assert!(out.diag.gsw >= 0.0 && out.diag.glw > 0.0);
    }

    #[test]
    fn radiation_is_cached_between_rad_steps() {
        let suite = ConventionalSuite::default();
        let col = Column::reference(30);
        let mut st = ColumnPhysicsState::new(30, true, 290.0);
        let o1 = suite.step_column(&col, &mut st, 600.0, 1800.0);
        assert!(o1.ledger.total() > 0, "first call must run radiation");
        let o2 = suite.step_column(&col, &mut st, 600.0, 1800.0);
        assert_eq!(
            o2.ledger.total(),
            0,
            "second call must reuse cached radiation"
        );
        let o3 = suite.step_column(&col, &mut st, 600.0, 1800.0);
        let o4 = suite.step_column(&col, &mut st, 600.0, 1800.0);
        assert!(
            o3.ledger.total() + o4.ledger.total() > 0,
            "radiation must refresh after dt_rad"
        );
    }

    #[test]
    fn moist_unstable_column_rains_through_the_suite() {
        let suite = ConventionalSuite::default();
        let mut col = Column::reference(30);
        for k in 24..30 {
            col.t[k] += 4.0;
            col.qv[k] = 0.98 * saturation_mixing_ratio(col.t[k], col.p[k]);
        }
        col.u[29] = 6.0;
        let mut st = ColumnPhysicsState::new(30, true, col.t[29] + 2.0);
        let mut total_precip = 0.0;
        for _ in 0..6 {
            let out = suite.step_column(&col, &mut st, 600.0, 1800.0);
            out.tend.apply(&mut col, 600.0);
            total_precip += out.diag.precip;
        }
        assert!(total_precip > 0.5, "suite precip = {total_precip}");
    }

    #[test]
    fn land_column_maintains_diurnal_skin_cycle() {
        let suite = ConventionalSuite::default();
        let mut col = Column::reference(30);
        col.ocean = false;
        let mut st = ColumnPhysicsState::new(30, false, col.t[29]);
        // Day.
        col.coszr = 0.8;
        for _ in 0..12 {
            let out = suite.step_column(&col, &mut st, 600.0, 1800.0);
            out.tend.apply(&mut col, 600.0);
        }
        let t_day = st.land.as_ref().unwrap().tskin;
        // Night.
        col.coszr = 0.0;
        st.since_rad = f64::INFINITY;
        for _ in 0..12 {
            let out = suite.step_column(&col, &mut st, 600.0, 1800.0);
            out.tend.apply(&mut col, 600.0);
        }
        let t_night = st.land.as_ref().unwrap().tskin;
        assert!(
            t_day > t_night,
            "diurnal cycle missing: day {t_day} night {t_night}"
        );
    }

    #[test]
    fn parallel_columns_match_serial() {
        let suite = ConventionalSuite::default();
        let cols: Vec<Column> = (0..16)
            .map(|i| {
                let mut c = Column::reference(30);
                c.coszr = i as f64 / 16.0;
                c
            })
            .collect();
        let mut st_par: Vec<ColumnPhysicsState> = (0..16)
            .map(|_| ColumnPhysicsState::new(30, true, 290.0))
            .collect();
        let mut st_ser = st_par.clone();
        let par = suite.step_columns(&cols, &mut st_par, 600.0, 1800.0);
        let ser: Vec<PhysicsOutput> = cols
            .iter()
            .zip(st_ser.iter_mut())
            .map(|(c, s)| suite.step_column(c, s, 600.0, 1800.0))
            .collect();
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.tend.dt_dt, s.tend.dt_dt);
            assert_eq!(p.diag.precip, s.diag.precip);
        }
    }

    #[test]
    fn ten_day_single_column_integration_is_stable() {
        // A long-run smoke test: the suite must neither blow up nor freeze
        // the column into unphysical temperatures.
        let suite = ConventionalSuite::default();
        let mut col = Column::reference(30);
        let mut st = ColumnPhysicsState::new(30, true, 290.0);
        let dt = 1200.0;
        for step in 0..(10 * 72) {
            // Diurnal cycle of insolation.
            let hour = (step as f64 * dt / 3600.0) % 24.0;
            col.coszr = (0.4 * (std::f64::consts::PI * (hour - 12.0) / 12.0).cos() + 0.3).max(0.0);
            let out = suite.step_column(&col, &mut st, dt, 3600.0);
            out.tend.apply(&mut col, dt);
        }
        for (k, &t) in col.t.iter().enumerate() {
            assert!((170.0..350.0).contains(&t), "lev {k} temperature {t}");
        }
        assert!(col.qv.iter().all(|&q| (0.0..0.05).contains(&q)));
    }
}
