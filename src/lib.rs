//! # multipath-gpu — multi-path intra-node GPU communication
//!
//! A full-stack reproduction of *"Accelerating Intra-Node GPU
//! Communication: A Performance Model for Multi-Path Transfers"*
//! (SC Workshops '25): the analytical performance model, an
//! Algorithm-1 planner with configuration caching, a UCX-style transport
//! with a chunked multi-path pipeline engine, a miniature MPI with the
//! paper's collective algorithms, OSU-style benchmarks — all running over
//! a discrete-event simulation of multi-GPU nodes (Beluga: 4×V100
//! NVLink-V2; Narval: 4×A100 NVLink-V3).
//!
//! This crate is the umbrella: it re-exports the whole stack and hosts
//! the runnable examples and cross-crate integration tests.
//!
//! ```
//! use multipath_gpu::prelude::*;
//! use std::sync::Arc;
//!
//! // Ask the model how to split a 64 MB transfer on a Beluga node.
//! let planner = Planner::new(Arc::new(presets::beluga()));
//! let gpus = planner.topology().gpus();
//! let plan = planner
//!     .plan(gpus[0], gpus[1], 64 << 20, PathSelection::THREE_GPUS_WITH_HOST)
//!     .unwrap();
//! assert_eq!(plan.active_path_count(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use mpx_gpu as gpu;
pub use mpx_model as model;
pub use mpx_mpi as mpi;
pub use mpx_obs as obs;
pub use mpx_omb as omb;
pub use mpx_sim as sim;
pub use mpx_topo as topo;
pub use mpx_ucx as ucx;

/// The names most programs need.
pub mod prelude {
    pub use mpx_gpu::{Buffer, GpuRuntime, ReduceOp};
    pub use mpx_model::{Planner, PlannerConfig, TransferPlan};
    pub use mpx_mpi::{Rank, World};
    pub use mpx_obs::{
        export_chrome_trace, phases_present, render_openmetrics, AnomalyConfig, AnomalyEngine,
        BlackBoxDump, FlightRecorder, MetricsSnapshot, Phase, QuantileHist, Recorder,
        ResidualTracker, TelemetryRegistry, TriggerClass,
    };
    pub use mpx_omb::{osu_bibw, osu_bw, osu_latency, P2pConfig};
    pub use mpx_sim::{
        equivalence_diff, Engine, FaultInjector, FaultKind, FaultPlan, FlowSpec, JitterModel,
        OnComplete, Scenario, SimTime, Waker,
    };
    pub use mpx_topo::{presets, LinkId, PathSelection, Topology, TopologyBuilder};
    pub use mpx_ucx::{
        DeadlinePolicy, HealthConfig, PutRequest, TransferError, TransferPolicy, TransferReport,
        TuningMode, UcxConfig, UcxContext,
    };
}
