//! # grist-ml
//!
//! The AI-enhanced physics suite of the GRIST-rs reproduction (§3.2): a
//! dependency-free f32 neural-network library (stateless dense + 1-D conv
//! layers that hold only their weights, with hand-written backprop, and
//! Adam, which owns every gradient and moment), the paper's two models —
//! the 11-layer ~0.5M-parameter [`TendencyCnn`] for the Q1/Q2 physical
//! tendencies and the 7-layer residual [`RadiationMlp`] for the `gsw`/`glw`
//! surface radiation diagnostics, each with one forward pass whose planes
//! both `infer` and `train_sample` use — plus the train/test split and
//! normalization machinery of §3.2.1 and the achieved-peak-fraction model
//! behind §4.7's efficiency claims.

// Indexed loops mirror the Fortran stencil kernels they reproduce and are
// clearer than iterator chains for staggered-grid code.
#![allow(clippy::needless_range_loop)]
pub mod batch;
pub mod data;
pub mod flops;
pub mod gemm;
pub mod io;
pub mod models;
pub mod optim;
pub mod tensor;

pub use batch::{cnn_batch_flops, mlp_batch_flops, CnnScratch, MlpScratch};
pub use data::{ChannelNormalizer, Dataset, Sample, TrainingPeriod, TRAINING_PERIODS};
pub use flops::{
    achieved_peak_fraction, compare_radiation, gemm_lane_utilization, RadiationComparison,
    WorkloadMix,
};
pub use gemm::simd::{gemm_nn_simd, F32x8, Lanes, LANE_WIDTH, MR_SIMD, NR_SIMD};
pub use gemm::{gemm_flops, gemm_nn};
pub use models::{RadiationMlp, TendencyCnn, CNN_INPUT_CHANNELS, CNN_OUTPUT_CHANNELS};
pub use optim::{Adam, AdamConfig};
pub use tensor::{mse_loss, Conv1d, Dense};
