//! Run configurations: host-scale configurations that exercise the code
//! paths of the paper's Table 2 grids at laptop-tractable grid levels, and
//! the recovery policy of a resilient run. (Table 2's grids and Table 3's
//! scheme matrix themselves are `sunway-model`'s `scaling` rows.)

use grist_dycore::PrecisionMode;

/// How the model driver survives injected or real faults: the checkpoint /
/// health cadence and the restore budget of `GristModel::advance_resilient`
/// (a dispatch's retry budget is its `FaultPlan`'s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Dyn steps between automatic checkpoints.
    pub checkpoint_interval: usize,
    /// Dyn steps between prognostic-field health scans.
    pub health_interval: usize,
    /// Checkpoint restores tolerated before the run is declared lost.
    pub max_restores: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_interval: 8,
            health_interval: 4,
            max_restores: 3,
        }
    }
}

/// A runnable model configuration (host-scale analogue of a Table 2 row).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Icosahedral grid level to actually build (e.g. 4 ⇒ 2562 cells).
    pub level: u32,
    /// Vertical layers.
    pub nlev: usize,
    /// Dynamics / tracer / physics / radiation timesteps \[s\]. Table 2 runs
    /// 4 / 30 / 60 / 180 s (1 : 7.5 : 15 : 45); [`Self::for_level`] builds the
    /// nearest whole-number cadence, 1 : 8 : 16 : 48, scaled to the grid.
    pub dt_dyn: f64,
    pub dt_trac: f64,
    pub dt_phy: f64,
    pub dt_rad: f64,
    /// Dycore precision (Table 3's DP vs MIX).
    pub precision: PrecisionMode,
    /// ML physics suite instead of the conventional one.
    pub ml_physics: bool,
    /// Reference temperature of the initial isothermal state \[K\].
    pub t_ref: f64,
    /// Reference surface (dry) pressure \[Pa\].
    pub ps_ref: f64,
    /// Fault-recovery ladder configuration.
    pub recovery: RecoveryPolicy,
}

impl RunConfig {
    /// A stable default for grid `level`: timesteps scaled by cell size so
    /// the horizontal acoustic CFL matches the paper's G12 @ 4 s.
    pub fn for_level(level: u32, nlev: usize) -> Self {
        // G12 spacing ≈ 1.7 km at dt = 4 s; spacing grows 2× per level down.
        let spacing_km = 1.7 * 2f64.powi(12 - level as i32);
        // dt scales linearly with spacing from G12's 4 s, capped for physics
        // cadence sanity at coarse test grids.
        let dt_dyn = (4.0 * spacing_km / 1.7).clamp(4.0, 400.0);
        RunConfig {
            level,
            nlev,
            dt_dyn,
            dt_trac: 8.0 * dt_dyn,
            dt_phy: 16.0 * dt_dyn,
            dt_rad: 48.0 * dt_dyn,
            precision: PrecisionMode::Double,
            ml_physics: false,
            t_ref: 288.0,
            ps_ref: 1.0e5,
            recovery: RecoveryPolicy::default(),
        }
    }

    pub fn with_precision(mut self, p: PrecisionMode) -> Self {
        self.precision = p;
        self
    }

    pub fn with_ml_physics(mut self, ml: bool) -> Self {
        self.ml_physics = ml;
        self
    }

    /// Table 3 label of this configuration.
    pub fn scheme_label(&self) -> &'static str {
        match (self.precision, self.ml_physics) {
            (PrecisionMode::Double, false) => "DP-PHY",
            (PrecisionMode::Double, true) => "DP-ML",
            (PrecisionMode::Mixed, false) => "MIX-PHY",
            (PrecisionMode::Mixed, true) => "MIX-ML",
        }
    }

    /// Dynamics substeps per tracer step: the nearest whole number, at least
    /// one (a `dt_trac` below `dt_dyn` transports every substep). Need not
    /// divide `dyn_per_phy`: the model ends a tracer cycle before each
    /// physics step, however far it got.
    pub fn dyn_per_trac(&self) -> usize {
        ((self.dt_trac / self.dt_dyn).round() as usize).max(1)
    }

    pub fn dyn_per_phy(&self) -> usize {
        (self.dt_phy / self.dt_dyn).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_config_keeps_table2_cadence() {
        let c = RunConfig::for_level(4, 20);
        assert_eq!(c.dyn_per_trac(), 8);
        assert_eq!(c.dyn_per_phy(), 16);
        assert_eq!(
            (c.dt_rad / c.dt_phy).round() as usize,
            3,
            "rad = 3× phy as in Table 2"
        );
    }

    #[test]
    fn run_config_timestep_scales_with_level() {
        // Coarse levels clamp at 400 s; below the clamp dt halves per level.
        let c8 = RunConfig::for_level(8, 10);
        let c9 = RunConfig::for_level(9, 10);
        assert!((c8.dt_dyn / c9.dt_dyn - 2.0).abs() < 1e-12);
        assert!(RunConfig::for_level(4, 10).dt_dyn <= 400.0);
    }

    #[test]
    fn scheme_labels_follow_table3() {
        let c = RunConfig::for_level(3, 10)
            .with_precision(PrecisionMode::Mixed)
            .with_ml_physics(true);
        assert_eq!(c.scheme_label(), "MIX-ML");
    }
}
