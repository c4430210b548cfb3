//! The coupled GRIST-rs model driver: dynamical core + physics suite
//! (conventional or ML) advancing together on the Table-2 cadence
//! (dyn < trac < phy < rad).

use crate::checkpoint::Checkpoint;
use crate::config::RunConfig;
use crate::coupling::{apply_tendencies, extract_columns_and_exner, SurfaceState};
use crate::health::{HealthReport, RunState};
use crate::mlsuite::MlSuite;
use grist_dycore::hevi::NhConfig;
use grist_dycore::{NhSolver, NhState, Real, VerticalCoord};
use grist_mesh::HexMesh;
use grist_physics::suite::SuiteConfig;
use grist_physics::{ColumnPhysicsState, ConventionalSuite, SurfaceDiag, Tendencies};
use sunway_sim::{KernelReportRow, Metrics, MetricsSnapshot, Substrate};

/// Which side of the dyn step a [`GristModel`] halo hook is called on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaloPhase {
    /// Before the solver step: begin the async exchange (pack + send) so
    /// the messages are in flight during interior compute.
    Begin,
    /// After the solver step: complete the exchange (receive + unpack).
    Complete,
}

/// Per-step halo callback of a multi-rank [`GristModel`] driver: owns the
/// rank context and the in-flight [`grist_runtime::PendingExchange`]
/// between the [`HaloPhase::Begin`] and [`HaloPhase::Complete`] calls.
pub type HaloHook<R> = Box<dyn FnMut(HaloPhase, &mut NhState<R>) + Send>;

/// Which physics suite is coupled (Table 3's "Physics" column).
#[allow(clippy::large_enum_variant)] // one engine per model; size is irrelevant
pub enum PhysicsEngine {
    Conventional {
        suite: ConventionalSuite,
        states: Vec<ColumnPhysicsState>,
    },
    Ml(Box<MlSuite>),
}

impl PhysicsEngine {
    pub fn label(&self) -> &'static str {
        match self {
            PhysicsEngine::Conventional { .. } => "Conventional",
            PhysicsEngine::Ml(_) => "ML-physics",
        }
    }
}

/// The coupled model.
pub struct GristModel<R: Real> {
    pub config: RunConfig,
    pub solver: NhSolver<R>,
    pub state: NhState<R>,
    pub surface: SurfaceState,
    pub physics: PhysicsEngine,
    /// Cell latitudes/longitudes \[rad\].
    pub lats: Vec<f64>,
    pub lons: Vec<f64>,
    /// Model time \[s\] since initialization.
    pub time_s: f64,
    /// Accumulated surface precipitation \[mm\] per cell.
    pub precip_accum: Vec<f64>,
    /// Most recent surface diagnostics per cell.
    pub last_diag: Vec<SurfaceDiag>,
    /// Most recent physics tendencies per cell (the Q1/Q2 residuals handed
    /// to the training pipeline).
    pub last_tendencies: Vec<Tendencies>,
    /// Solar declination used for the insolation cycle \[rad\].
    pub declination: f64,
    pub(crate) dyn_steps_taken: usize,
    /// Last checkpoint captured by [`Self::advance_resilient`] — the state
    /// the recovery ladder rolls back to when a health scan finds corruption.
    pub(crate) last_checkpoint: Option<Checkpoint>,
    /// Multi-rank halo hook called around every [`Self::step_dyn`]
    /// (see [`Self::set_halo_hook`]). `None` for single-rank runs.
    halo_hook: Option<HaloHook<R>>,
}

/// What one [`GristModel::advance_resilient`] window did: how often the
/// recovery ladder fired and where the run ended up.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// The window finished with a non-corrupt state.
    pub completed: bool,
    /// Checkpoint restores performed.
    pub restores: u32,
    /// Checkpoints captured.
    pub checkpoints: u64,
    /// Health report at the end of the window.
    pub final_health: HealthReport,
}

impl<R: Real> GristModel<R> {
    /// Build an aqua-planet model at the configured grid level, at rest,
    /// running every hot loop serially on the calling thread.
    pub fn new(config: RunConfig) -> Self {
        Self::with_substrate(config, Substrate::serial())
    }

    /// Build the model on an explicit execution target (§3.3). The dycore
    /// solver and the physics suite share the substrate's job server and
    /// profiler, so [`Self::kernel_report`] covers the whole coupled step.
    pub fn with_substrate(config: RunConfig, sub: Substrate) -> Self {
        let mesh = HexMesh::build(config.level);
        let lats: Vec<f64> = mesh.cell_xyz.iter().map(|p| p.lat()).collect();
        let lons: Vec<f64> = mesh.cell_xyz.iter().map(|p| p.lon()).collect();
        let nc = mesh.n_cells();
        let solver = NhSolver::with_substrate(
            mesh,
            VerticalCoord::uniform(config.nlev),
            NhConfig {
                ntracers: 3,
                dyn_per_trac: config.dyn_per_trac(),
                ..Default::default()
            },
            sub.clone(),
        );
        let mut state = solver.isothermal_rest_state(config.t_ref, config.ps_ref);
        // Moisten the lower troposphere (qv tracer) for a live hydrology.
        let nlev = config.nlev;
        for c in 0..nc {
            for k in 0..nlev {
                let frac = (k as f64 + 0.5) / nlev as f64; // 0 top → 1 surface
                let q = 0.016 * frac.powi(3) * lats[c].cos().powi(2) + 1e-6;
                state.tracers[0].set(k, c, R::from_f64(q));
            }
        }
        let surface = SurfaceState::aqua_planet(&lats);
        let physics = if config.ml_physics {
            let mut suite = MlSuite::untrained(config.nlev, 32, 2024);
            suite.sub = sub.clone();
            PhysicsEngine::Ml(Box::new(suite))
        } else {
            let states = (0..nc)
                .map(|c| ColumnPhysicsState::new(config.nlev, surface.ocean[c], surface.tskin[c]))
                .collect();
            PhysicsEngine::Conventional {
                suite: ConventionalSuite::with_substrate(SuiteConfig::default(), sub.clone()),
                states,
            }
        };
        GristModel {
            solver,
            state,
            surface,
            physics,
            lats,
            lons,
            time_s: 0.0,
            precip_accum: vec![0.0; nc],
            last_diag: vec![SurfaceDiag::default(); nc],
            last_tendencies: vec![Tendencies::default(); nc],
            declination: 0.0,
            config,
            dyn_steps_taken: 0,
            last_checkpoint: None,
            halo_hook: None,
        }
    }

    /// Install the multi-rank halo hook: called with [`HaloPhase::Begin`]
    /// immediately before each dyn-step's solver integration and with
    /// [`HaloPhase::Complete`] immediately after, so a rank driver can
    /// overlap its gathered halo exchange (begin: pack + send; complete:
    /// receive + unpack) with the step's interior compute.
    pub fn set_halo_hook(&mut self, hook: HaloHook<R>) {
        self.halo_hook = Some(hook);
    }

    /// Add an idealized continent (rebuilding the per-column land states
    /// for the conventional suite).
    pub fn add_continent(&mut self, lat_range: (f64, f64), lon_range: (f64, f64)) {
        let (lats, lons) = (self.lats.clone(), self.lons.clone());
        self.surface
            .add_continent(&lats, &lons, lat_range, lon_range);
        if let PhysicsEngine::Conventional { states, .. } = &mut self.physics {
            for (c, st) in states.iter_mut().enumerate() {
                *st = ColumnPhysicsState::new(
                    self.config.nlev,
                    self.surface.ocean[c],
                    self.surface.tskin[c],
                );
            }
        }
    }

    /// Replace the physics engine (e.g. with a trained [`MlSuite`]). The
    /// suite is re-homed onto the model's substrate so its column dispatches
    /// keep feeding the shared kernel profiler.
    pub fn set_ml_suite(&mut self, mut suite: MlSuite) {
        assert_eq!(suite.nlev, self.config.nlev);
        suite.sub = self.solver.sub.clone();
        self.physics = PhysicsEngine::Ml(Box::new(suite));
    }

    /// The execution substrate shared by the dycore and the physics suite.
    pub fn substrate(&self) -> &Substrate {
        &self.solver.sub
    }

    /// Per-kernel wall time and invocation counts accumulated over every
    /// dispatch since construction (or the last [`Self::reset_kernel_report`])
    /// — the Fig. 9-style measured table, hottest kernel first.
    pub fn kernel_report(&self) -> Vec<KernelReportRow> {
        self.solver.sub.kernel_report()
    }

    /// Clear the accumulated kernel profile (e.g. after spin-up, before a
    /// measured `measure_sdpd` window).
    pub fn reset_kernel_report(&self) {
        self.solver.sub.reset_profile();
    }

    /// The shared observability registry behind [`Self::kernel_report`]:
    /// span-qualified kernel stats, trace spans, and hardware-model counters
    /// (`dma.*`, `ldcache.*`, `halo.*`, …).
    pub fn metrics(&self) -> &Metrics {
        self.solver.sub.metrics()
    }

    /// Snapshot of the registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics().snapshot()
    }

    /// The registry serialized as a pretty-printed JSON document (the
    /// `<scenario>.run.json` that `grist gate` writes to its `--out`).
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    pub fn n_cells(&self) -> usize {
        self.solver.mesh.n_cells()
    }

    /// One dynamics substep. The tracers move on the `dt_trac` cadence: on
    /// every [`RunConfig::dyn_per_trac`]-th substep since the last tracer
    /// step, by the mass flux accumulated in between.
    pub fn step_dyn(&mut self) {
        let dt = self.config.dt_dyn;
        // Root trace span: kernels record under `step/dycore/...`.
        // (Cloned handle: the guard must not borrow `self`.)
        let span_sub = self.solver.sub.clone();
        span_sub
            .metrics()
            .tracer()
            .set_step(self.dyn_steps_taken as u64);
        let _span = span_sub.span("step");
        // The hook is taken out of `self` for the duration of the step so it
        // can receive `&mut self.state` without aliasing the model.
        let mut hook = self.halo_hook.take();
        if let Some(h) = hook.as_mut() {
            h(HaloPhase::Begin, &mut self.state);
        }
        self.solver.step(&mut self.state, dt);
        if let Some(h) = hook.as_mut() {
            h(HaloPhase::Complete, &mut self.state);
        }
        self.halo_hook = hook;
        self.time_s += dt;
        self.dyn_steps_taken += 1;
    }

    /// One physics step over `dt_phy`, using the §3.2.4 coupling interface.
    /// A tracer cycle in progress ends first, so physics reads — and adds its
    /// tendencies to — tracers transported up to the model time, whether or
    /// not `dt_phy` is a multiple of `dt_trac`.
    pub fn step_physics(&mut self) {
        // Root trace span: suite kernels record under `step/physics/...` (or
        // `step/ml/...` for the ML suite).
        let span_sub = self.solver.sub.clone();
        span_sub
            .metrics()
            .tracer()
            .set_step(self.dyn_steps_taken as u64);
        let _span = span_sub.span("step");
        self.solver
            .flush_tracers(&mut self.state, self.config.dt_dyn);
        let dt_phy = self.config.dt_phy;
        let utc_hours = (self.time_s / 3600.0) % 24.0;
        let (lats, lons) = (&self.lats, &self.lons);
        self.surface
            .update_sun(lats, lons, self.declination, utc_hours);
        let (cols, exner) = extract_columns_and_exner(&mut self.solver, &self.state, &self.surface);

        let (tends, diags): (Vec<Tendencies>, Vec<SurfaceDiag>) = match &mut self.physics {
            PhysicsEngine::Conventional { suite, states } => {
                let outs = suite.step_columns(&cols, states, dt_phy, self.config.dt_rad);
                outs.into_iter().map(|o| (o.tend, o.diag)).unzip()
            }
            PhysicsEngine::Ml(suite) => {
                let outs = suite.step_columns(&cols);
                outs.into_iter().map(|o| (o.tend, o.diag)).unzip()
            }
        };
        apply_tendencies(exner, &mut self.state, &tends, dt_phy);
        self.last_tendencies = tends;
        for (c, d) in diags.iter().enumerate() {
            self.precip_accum[c] += d.precip * dt_phy / 86_400.0; // mm/day → mm
                                                                  // Land skin temperature persists; ocean SST is prescribed.
            if !self.surface.ocean[c] {
                self.surface.tskin[c] = d.tskin;
            }
        }
        self.last_diag = diags;
    }

    /// One dyn step, then physics when the step count lands on its cadence.
    fn step_coupled(&mut self) {
        self.step_dyn();
        let dyn_per_phy = self.config.dyn_per_phy().max(1);
        if self.dyn_steps_taken.is_multiple_of(dyn_per_phy) {
            self.step_physics();
        }
    }

    /// Dyn steps in a window of `seconds`: the nearest whole number of
    /// `dt_dyn`, for [`Self::advance`] and [`Self::advance_resilient`] alike.
    fn window_steps(&self, seconds: f64) -> usize {
        (seconds / self.config.dt_dyn).round() as usize
    }

    /// Advance the coupled model by `seconds`, firing physics on its cadence.
    pub fn advance(&mut self, seconds: f64) {
        for _ in 0..self.window_steps(seconds) {
            self.step_coupled();
        }
    }

    /// Dynamics substeps taken since initialization (rewound by
    /// [`Self::restore`](GristModel::restore)).
    pub fn dyn_steps(&self) -> usize {
        self.dyn_steps_taken
    }

    /// The last checkpoint [`Self::advance_resilient`] captured, if any —
    /// persists across calls so a blowup detected at the *start* of a window
    /// can still roll back to the previous window's state.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.last_checkpoint.as_ref()
    }

    /// Restore [`Self::last_checkpoint`]. `false` when there is none; also
    /// `false`, with a `recovery.restore_failed` tick, when it does not
    /// restore — the caller ends its window `completed: false` either way.
    fn roll_back(&mut self) -> bool {
        // Shares the image (a reference-count bump) so `restore` can borrow
        // the model mutably.
        let Some(ck) = self.last_checkpoint.clone() else {
            return false;
        };
        let restored = self.restore(&ck).is_ok();
        if !restored {
            self.metrics().counter_add("recovery.restore_failed", 1);
        }
        restored
    }

    /// [`Self::advance`] under the configured
    /// [`RecoveryPolicy`](crate::config::RecoveryPolicy): checkpoints are
    /// captured every `checkpoint_interval` dyn steps, the prognostic fields
    /// are health-scanned every `health_interval` steps, and a scan that
    /// finds corruption (NaN/Inf, non-physical layers) restores the last
    /// checkpoint instead of crashing — up to `max_restores` times, after
    /// which the window is abandoned with `completed = false`. The final
    /// report is of the state the window ends on: the last scan's, when no
    /// step followed it, otherwise one more scan's.
    ///
    /// Deterministic by construction: the checkpoint/scan cadence is keyed
    /// to `dyn_steps_taken` (which restores rewind), so a fixed corruption
    /// produces the same rollback points on every run.
    pub fn advance_resilient(&mut self, seconds: f64) -> RecoveryOutcome {
        let policy = self.config.recovery.clone();
        let mut restores = 0u32;
        let mut checkpoints = 0u64;
        // Entry scan: corruption carried in from outside this window can
        // only be repaired if a previous window left a checkpoint behind.
        let mut report = self.health();
        if report.state == RunState::Corrupt {
            if restores < policy.max_restores && self.roll_back() {
                restores += 1;
                report = self.health();
            }
            if report.state == RunState::Corrupt {
                return RecoveryOutcome {
                    completed: false,
                    restores,
                    checkpoints,
                    final_health: report,
                };
            }
        }
        if self.last_checkpoint.is_none() {
            self.last_checkpoint = Some(self.checkpoint());
            checkpoints += 1;
        }
        // The report of the state as it stands, while there is one: a step
        // invalidates it, a scan renews it, and the exit reuses it instead
        // of scanning the same state twice when the window ends on a scan.
        let mut current = Some(report);
        // A restore rewinds the step count, so the window ends at a step
        // number, however many times it is re-run.
        let end_step = self.dyn_steps_taken + self.window_steps(seconds);
        while self.dyn_steps_taken < end_step {
            self.step_coupled();
            current = None;
            let steps = self.dyn_steps_taken;
            let scan_due =
                policy.health_interval > 0 && steps.is_multiple_of(policy.health_interval);
            let ck_due =
                policy.checkpoint_interval > 0 && steps.is_multiple_of(policy.checkpoint_interval);
            if scan_due || ck_due {
                let report = self.health();
                if report.state == RunState::Corrupt {
                    if restores >= policy.max_restores || !self.roll_back() {
                        return RecoveryOutcome {
                            completed: false,
                            restores,
                            checkpoints,
                            final_health: report,
                        };
                    }
                    restores += 1;
                    continue;
                }
                if ck_due {
                    self.last_checkpoint = Some(self.checkpoint());
                    checkpoints += 1;
                }
                current = Some(report);
            }
        }
        let final_health = current.unwrap_or_else(|| self.health());
        RecoveryOutcome {
            completed: final_health.state != RunState::Corrupt,
            restores,
            checkpoints,
            final_health,
        }
    }

    /// Mean precipitation rate \[mm/day\] over the last physics step.
    pub fn mean_precip_rate(&self) -> f64 {
        if self.last_diag.is_empty() {
            return 0.0;
        }
        let mesh = &self.solver.mesh;
        let mut num = 0.0;
        let mut den = 0.0;
        for (c, d) in self.last_diag.iter().enumerate() {
            num += d.precip * mesh.cell_area[c];
            den += mesh.cell_area[c];
        }
        num / den
    }

    /// Surface dry pressure per cell (the `ps` observable).
    pub fn surface_pressure(&self) -> Vec<f64> {
        self.state.surface_pressure(self.solver.vc.p_top)
    }

    /// Measure actual simulation speed: run `sim_seconds` of model time and
    /// return SDPD = simulated-days / wall-clock-days.
    pub fn measure_sdpd(&mut self, sim_seconds: f64) -> f64 {
        let wall = std::time::Instant::now();
        self.advance(sim_seconds);
        let elapsed = wall.elapsed().as_secs_f64();
        (sim_seconds / 86_400.0) / (elapsed / 86_400.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;

    fn small_config() -> RunConfig {
        RunConfig::for_level(2, 10)
    }

    #[test]
    fn model_initializes_with_moist_tropics() {
        let m = GristModel::<f64>::new(small_config());
        // Moisture at the lowest level should peak near the equator.
        let nlev = m.config.nlev;
        let eq = (0..m.n_cells())
            .min_by(|&a, &b| m.lats[a].abs().partial_cmp(&m.lats[b].abs()).unwrap())
            .unwrap();
        let pole = (0..m.n_cells())
            .max_by(|&a, &b| m.lats[a].abs().partial_cmp(&m.lats[b].abs()).unwrap())
            .unwrap();
        assert!(m.state.tracers[0].at(nlev - 1, eq) > m.state.tracers[0].at(nlev - 1, pole));
    }

    #[test]
    fn coupled_model_runs_stably_with_conventional_physics() {
        let mut m = GristModel::<f64>::new(small_config());
        m.advance(4.0 * m.config.dt_phy);
        assert!(m.state.u.as_slice().iter().all(|x| x.is_finite()));
        assert!(m
            .state
            .theta_m
            .as_slice()
            .iter()
            .all(|x| x.is_finite() && *x > 0.0));
        let ps = m.surface_pressure();
        assert!(ps.iter().all(|&p| (8.0e4..1.2e5).contains(&p)));
    }

    #[test]
    fn coupled_model_runs_with_untrained_ml_physics() {
        // Untrained ML physics produces small random tendencies (initialized
        // near zero by out-norm identity); the model must stay finite.
        let cfg = small_config().with_ml_physics(true);
        let mut m = GristModel::<f64>::new(cfg);
        m.advance(2.0 * m.config.dt_phy);
        assert!(m.state.u.as_slice().iter().all(|x| x.is_finite()));
        assert_eq!(m.physics.label(), "ML-physics");
    }

    #[test]
    fn physics_fires_on_the_configured_cadence() {
        let mut m = GristModel::<f64>::new(small_config());
        let dyn_per_phy = m.config.dyn_per_phy();
        // One dyn step less than a physics interval: no diagnostics yet.
        for _ in 0..dyn_per_phy - 1 {
            m.step_dyn();
        }
        assert!(
            m.last_diag.iter().all(|d| d.glw == 0.0),
            "physics ran early"
        );
        m.step_dyn();
        m.step_physics();
        assert!(
            m.last_diag.iter().any(|d| d.glw > 0.0),
            "physics did not run"
        );
    }

    #[test]
    fn radiation_reaches_the_surface_diagnostics() {
        let mut m = GristModel::<f64>::new(small_config());
        m.advance(2.0 * m.config.dt_phy);
        // Somewhere on the day side gsw must be positive, glw everywhere.
        assert!(m.last_diag.iter().any(|d| d.gsw > 50.0));
        assert!(m.last_diag.iter().all(|d| d.glw > 100.0));
    }

    #[test]
    fn continent_activates_the_land_model_with_a_diurnal_cycle() {
        let mut m = GristModel::<f64>::new(small_config());
        m.add_continent((0.1, 0.8), (0.0, 1.5));
        let land_cells: Vec<usize> = (0..m.n_cells()).filter(|&c| !m.surface.ocean[c]).collect();
        assert!(!land_cells.is_empty(), "continent carved no cells");
        let t0: Vec<f64> = land_cells.iter().map(|&c| m.surface.tskin[c]).collect();
        // Integrate across several physics steps: land tskin must evolve
        // (prognostic), ocean tskin must stay prescribed.
        let ocean_t0 = m.surface.tskin[(0..m.n_cells()).find(|&c| m.surface.ocean[c]).unwrap()];
        m.advance(6.0 * m.config.dt_phy);
        let moved = land_cells
            .iter()
            .zip(&t0)
            .filter(|(&c, &t)| (m.surface.tskin[c] - t).abs() > 0.05)
            .count();
        assert!(
            moved > land_cells.len() / 2,
            "land skin temperature did not evolve ({moved}/{})",
            land_cells.len()
        );
        let ocean_c = (0..m.n_cells()).find(|&c| m.surface.ocean[c]).unwrap();
        assert_eq!(
            m.surface.tskin[ocean_c], ocean_t0,
            "SST must stay prescribed"
        );
    }

    #[test]
    fn advance_resilient_rolls_back_a_nan_blowup() {
        let mut m = GristModel::<f64>::new(small_config());
        let out = m.advance_resilient(2.0 * m.config.dt_phy);
        assert!(out.completed, "{}", out.final_health.diagnosis);
        assert_eq!(out.restores, 0);
        assert!(out.checkpoints >= 1, "entry checkpoint must be captured");
        assert!(m.last_checkpoint().is_some());
        // Poke a NaN between windows; the next window's entry scan must
        // detect it and roll back to the previous window's checkpoint.
        m.state.u.set(0, 3, f64::NAN);
        let out2 = m.advance_resilient(m.config.dt_phy);
        assert!(out2.completed, "{}", out2.final_health.diagnosis);
        assert_eq!(out2.restores, 1);
        assert!(m.state.u.as_slice().iter().all(|x| x.is_finite()));
        assert!(m.metrics().counter("recovery.restores") >= 1);
    }

    #[test]
    fn unrecoverable_corruption_is_reported_not_panicked() {
        let mut m = GristModel::<f64>::new(small_config());
        // Corrupt before any checkpoint exists: nothing to roll back to.
        m.state.u.set(0, 3, f64::NAN);
        let out = m.advance_resilient(m.config.dt_phy);
        assert!(!out.completed);
        assert_eq!(out.final_health.state, crate::health::RunState::Corrupt);
        assert_eq!(out.restores, 0);
    }

    #[test]
    fn a_checkpoint_that_does_not_restore_ends_the_window_instead_of_panicking() {
        let mut m = GristModel::<f64>::new(small_config());
        assert!(m.advance_resilient(m.config.dt_phy).completed);
        // A slot holding another resolution's image cannot restore.
        m.last_checkpoint = Some(GristModel::<f64>::new(RunConfig::for_level(2, 8)).checkpoint());
        m.state.u.set(0, 3, f64::NAN);
        let out = m.advance_resilient(m.config.dt_phy);
        assert!(!out.completed);
        assert_eq!(out.restores, 0);
        assert_eq!(out.final_health.state, crate::health::RunState::Corrupt);
        assert_eq!(m.metrics().counter("recovery.restore_failed"), 1);
        assert_eq!(m.metrics().counter("recovery.restores"), 0);
    }

    #[test]
    fn a_window_that_ends_on_a_scan_does_not_scan_its_last_state_twice() {
        let cfg = small_config();
        let interval = cfg.recovery.health_interval;
        let scans = |m: &GristModel<f64>| m.metrics().counter("health.scans");
        // Ends on the cadence: entry, one scan per interval, no exit scan.
        let mut m = GristModel::<f64>::new(cfg.clone());
        let out = m.advance_resilient(cfg.dt_phy);
        assert!(out.completed && out.restores == 0);
        let in_window = (m.dyn_steps() / interval) as u64;
        assert_eq!(m.dyn_steps() % interval, 0);
        assert_eq!(scans(&m), 1 + in_window);
        assert_eq!(out.final_health, m.health(), "the reused report is current");
        // Ends two steps past the cadence: the exit scan is the only one
        // that has seen the final state.
        let mut m = GristModel::<f64>::new(cfg.clone());
        let out = m.advance_resilient((interval + 2) as f64 * cfg.dt_dyn);
        assert_eq!(m.dyn_steps(), interval + 2);
        assert_eq!(scans(&m), 1 + 1 + 1);
        assert_eq!(out.final_health, m.health());
    }

    #[test]
    fn advance_and_advance_resilient_agree_on_window_length() {
        let cfg = small_config();
        for w in [cfg.dt_phy, 1.4 * cfg.dt_dyn, 2.6 * cfg.dt_dyn] {
            let mut plain = GristModel::<f64>::new(cfg.clone());
            let mut resilient = GristModel::<f64>::new(cfg.clone());
            plain.advance(w);
            let out = resilient.advance_resilient(w);
            assert!(out.completed && out.restores == 0, "fault-free window");
            assert_eq!(
                plain.dyn_steps(),
                (w / cfg.dt_dyn).round() as usize,
                "window {w} s"
            );
            assert_eq!(resilient.dyn_steps(), plain.dyn_steps(), "window {w} s");
            assert_eq!(resilient.state_hash(), plain.state_hash(), "window {w} s");
        }
    }

    #[test]
    fn f32_model_matches_f64_under_gate_for_short_run() {
        let mut m64 = GristModel::<f64>::new(small_config());
        let mut m32 = GristModel::<f32>::new(small_config());
        m64.advance(2.0 * m64.config.dt_phy);
        m32.advance(2.0 * m32.config.dt_phy);
        let e = grist_dycore::relative_l2_error(&m32.surface_pressure(), &m64.surface_pressure());
        assert!(
            e < grist_dycore::MIXED_PRECISION_ERROR_THRESHOLD,
            "ps deviation {e}"
        );
    }
}
