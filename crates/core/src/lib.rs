//! # mpx-model — the paper's analytical performance model
//!
//! The primary contribution of *"Accelerating Intra-Node GPU
//! Communication: A Performance Model for Multi-Path Transfers"*: given a
//! topology's per-path Hockney parameters, compute — in closed form, with
//! no exhaustive search — how to split one point-to-point GPU transfer
//! across the direct, GPU-staged and host-staged paths so all paths
//! finish simultaneously (Theorem 1).
//!
//! | Paper artifact | Here |
//! |---|---|
//! | Eq. 1 (Hockney) | [`hockney`] |
//! | Eq. 2–4 (per-path time) | `mpx_topo::params::PathParams` + [`optimizer::OmegaDelta`] |
//! | Theorem 1 + Eq. 8/11/24 (optimal shares) | [`optimizer::optimal_shares`] (closed form) and [`optimizer::optimal_shares_bisection`] (numeric cross-check) |
//! | Eq. 12–18 (pipelined chunks) | [`pipeline::time_pipelined`], [`pipeline::optimal_chunks_exact`] |
//! | Eq. 19–23 (φ linearization) | [`pipeline::PipelinedLaw`] |
//! | Algorithm 1 (+ config cache) | [`planner::Planner`], [`planner::PlanTable`] |
//! | Fig. 2(a) Step 1 (parameter extraction) | [`calibrate::fit_hockney`] |
//!
//! ```
//! use std::sync::Arc;
//! use mpx_model::Planner;
//! use mpx_topo::{presets, PathSelection};
//!
//! let planner = Planner::new(Arc::new(presets::beluga()));
//! let gpus = planner.topology().gpus();
//! let plan = planner
//!     .plan(gpus[0], gpus[1], 64 << 20, PathSelection::THREE_GPUS_WITH_HOST)
//!     .unwrap();
//! assert_eq!(plan.paths.iter().map(|p| p.share_bytes).sum::<usize>(), 64 << 20);
//! assert!(plan.predicted_bandwidth > 100e9); // beats the 48 GB/s direct link
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod calibrate;
pub mod collectives;
pub mod contention;
pub mod hockney;
pub mod optimizer;
pub mod pipeline;
pub mod planner;
pub mod sensitivity;

pub use cache::{CacheCounters, ShardedMap};
pub use calibrate::{fit_hockney, fit_hockney_from_bandwidth, CalibrationError};
pub use collectives::{
    predict_allgather_rd, predict_allreduce_knomial, predict_allreduce_knomial_radix,
    predict_alltoall_bruck, predict_bcast_binomial, CollectivePrediction,
};
pub use contention::{plan_concurrent, ConcurrentPlan, ConcurrentTransfer};
pub use optimizer::{optimal_shares, optimal_shares_bisection, OmegaDelta, ShareSolution};
pub use pipeline::{
    chunk_count, omega_delta_unpipelined, optimal_chunks_exact, time_pipelined, time_pipelined_opt,
    PipelinedLaw,
};
pub use planner::{
    quantize_shares, PairEntry, PairKey, PipelineMode, PlanTable, PlannedPath, Planner,
    PlannerConfig, PlannerStats, TransferPlan, MAX_PATHS, MEMO_CAP,
};
pub use sensitivity::{perturb, regret, Perturb};
