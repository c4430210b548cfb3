//! # grist-dycore
//!
//! The layer-averaged nonhydrostatic dynamical core of the GRIST-rs
//! reproduction: staggered finite-volume operators on the unstructured
//! hexagonal C-grid, a horizontally-explicit / vertically-implicit (HEVI)
//! integrator, flux-limited tracer transport, and the precision-switchable
//! (`ns`-style) mixed-precision machinery of §3.4 of the paper.

// Indexed loops mirror the Fortran stencil kernels they reproduce and are
// clearer than iterator chains for staggered-grid code.
#![allow(clippy::needless_range_loop)]
pub mod constants;
pub mod diffusion;
pub mod energetics;
pub mod field;
pub mod hevi;
pub mod operators;
pub mod real;
pub mod swe;
pub mod swe_cases;
pub mod tracer;
pub mod vertical;

pub use energetics::{energy_budget, EnergyBudget};
pub use field::{Field1, Field2};
pub use hevi::{NhSolver, NhState};
pub use operators::ScaledGeometry;
pub use real::{relative_l2_error, PrecisionMode, Real, MIXED_PRECISION_ERROR_THRESHOLD};
pub use swe::{SwePhases, SweSolver, SweState, SweSubset};
pub use vertical::VerticalCoord;
