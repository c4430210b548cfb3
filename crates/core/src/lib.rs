//! # grist-core
//!
//! The coupled GRIST-rs model of the PPoPP '25 reproduction: host-scale run
//! configurations, the physics–dynamics coupling interface
//! (§3.2.4), the assembled ML physics suite, the coupled model driver, the
//! idealized case library (tropical cyclone / baroclinic wave / supercell /
//! aqua-planet), the ML training-data pipeline (§3.2.1–3.2.2), and the
//! evaluation diagnostics (spatial correlation, lat–lon maps, the §3.4.1
//! mixed-precision gate).

// Indexed loops mirror the Fortran stencil kernels they reproduce and are
// clearer than iterator chains for staggered-grid code.
#![allow(clippy::needless_range_loop)]
pub mod cases;
pub mod checkpoint;
pub mod config;
pub mod coupling;
pub mod datagen;
pub mod diag;
pub mod health;
pub mod mlsuite;
pub mod model;
pub mod observe;
pub mod overlap;
pub mod scenario;

pub use cases::{
    add_baroclinic_jet, add_supercell_patch, add_tropical_cyclone, apply_held_suarez, HeldSuarez,
    TropicalCyclone,
};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::{RecoveryPolicy, RunConfig};
pub use coupling::{extract_columns, SurfaceState};
pub use datagen::{
    coarse_grain_columns, generate_training_data, train_ml_suite, CoarseMap, DataGenConfig,
    GeneratedData, TrainReport,
};
pub use diag::{bin_latlon, precision_gate, spatial_correlation, PrecisionGate};
pub use health::{HealthReport, HealthThresholds, RunState};
pub use mlsuite::{MlOutput, MlSuite, ScratchPool, DEFAULT_ML_BLOCK};
pub use model::{GristModel, HaloHook, HaloPhase, PhysicsEngine, RecoveryOutcome};
pub use overlap::{swe_dyn_step, DynStepMode};
pub use scenario::{
    parse_pin_file, parse_scenario_file, pin_file_json, CaseSpec, FaultSpec, PhysicsChoice,
    RefinementSpec, Scenario, ScenarioArtifact, ScenarioError, ScenarioRun, ScenarioRunner,
    TargetSpec, SCENARIO_SCHEMA,
};
