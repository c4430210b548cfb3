//! # grist-physics
//!
//! The conventional physics parameterization suite of the GRIST-rs
//! reproduction: band-looped two-stream radiation (the RRTMG stand-in, with
//! a FLOP ledger for the §4.7 efficiency comparison), Kessler warm-rain
//! microphysics, K-profile PBL diffusion, Betts–Miller convective
//! adjustment, bulk surface fluxes, and a Noah-MP-lite land surface model —
//! all composed per column by [`suite::ConventionalSuite`].

// Indexed loops mirror the Fortran stencil kernels they reproduce and are
// clearer than iterator chains for staggered-grid code.
#![allow(clippy::needless_range_loop)]
pub mod cloud;
pub mod column;
pub mod convection;
pub mod microphysics;
pub mod pbl;
pub mod radiation;
pub mod suite;
pub mod surface;

pub use cloud::{cloud_fraction, total_cloud_cover, CloudConfig};
pub use column::{
    saturation_mixing_ratio, saturation_vapor_pressure, Column, SurfaceDiag, Tendencies,
};
pub use radiation::{FlopLedger, RadiationConfig};
pub use suite::{ColumnPhysicsState, ConventionalSuite, PhysicsOutput, SuiteConfig};
