//! # mpx-ucx — UCX-style transport with multi-path pipelining
//!
//! The integration layer of the paper (Section 4): a `cuda_ipc`-like
//! context that, per transfer, resolves a configuration — single-path,
//! model-driven (Algorithm 1), or statically tuned — and executes it on
//! the multi-path chunk pipeline engine over the simulated GPU runtime.
//!
//! ```
//! use std::sync::Arc;
//! use mpx_gpu::GpuRuntime;
//! use mpx_sim::Engine;
//! use mpx_topo::presets;
//! use mpx_ucx::{UcxConfig, UcxContext};
//!
//! let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
//! let ctx = UcxContext::new(rt, UcxConfig::default());
//! let gpus = ctx.runtime().engine().topology().gpus();
//! let n = 16 << 20;
//! let src = ctx.runtime().alloc(gpus[0], n);
//! let dst = ctx.runtime().alloc(gpus[1], n);
//! let handle = ctx.put_async(&src, &dst, n).unwrap();
//! ctx.runtime().engine().run_until_idle();
//! assert!(handle.is_complete());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compile;
pub mod context;
pub mod deadline;
pub mod health;
pub mod pipeline;
pub mod probe;
pub mod recover;
pub mod tuner;

pub use compile::{graph_key, GraphStats, CLASS_TAG, MAX_GRAPHS_PER_KEY};
pub use context::{CacheStats, ParamSource, TransferError, TuningMode, UcxConfig, UcxContext};
pub use deadline::DeadlinePolicy;
pub use health::{
    BreakerEvent, BreakerState, HealthConfig, HealthStats, HealthSupervisor, HedgeConfig,
    HedgeReport, PathAdmissions,
};
pub use pipeline::{execute_plan, PathSlot, TimedOut, TransferHandle, RING_DEPTH};
pub use probe::PROBE_BYTES;
pub use recover::{RecoveryConfig, RecoveryError, RecoveryReport, ResilienceStats};
pub use tuner::{manual_plan, measure_plan, share_grid, tune_exhaustive, TuneResult};
