//! # mpx-gpu — simulated CUDA-like runtime
//!
//! The device runtime the UCX-style transport drives: buffers, ordered
//! asynchronous [`Stream`]s, one-shot [`GpuEvent`]s for cross-stream
//! synchronization, an IPC handle cache, and element-wise reduction
//! kernels — everything the paper's pipeline engine (Section 3.4's
//! copy → sync → copy chunk loop) needs from CUDA, re-implemented over the
//! discrete-event fabric of `mpx-sim`.
//!
//! ```
//! use std::sync::Arc;
//! use mpx_gpu::GpuRuntime;
//! use mpx_sim::Engine;
//! use mpx_topo::presets;
//!
//! let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
//! let gpus = rt.engine().topology().gpus();
//! let src = rt.alloc_bytes(gpus[0], vec![42; 1024]);
//! let dst = rt.alloc_zeroed(gpus[1], 1024);
//! let s = rt.stream(gpus[0]);
//! rt.memcpy_peer_async(&s, &src, &dst).unwrap();
//! rt.engine().run_until_idle();
//! assert_eq!(dst.to_vec().unwrap(), vec![42; 1024]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod event;
pub mod graph;
pub mod ipc;
pub mod memory;
pub mod reduce;
pub mod runtime;
pub mod stream;

pub use buffer::Buffer;
pub use event::GpuEvent;
pub use graph::{
    staging_ring, GraphBuf, GraphBuilder, GraphCopy, GraphLaunchError, GraphOp, GraphStream,
    Instance, Schedule, TransferGraph,
};
pub use ipc::{IpcCache, IpcStats, IPC_OPEN_COST};
pub use memory::{MemTracker, MemoryStats};
pub use reduce::ReduceOp;
pub use runtime::{GpuRuntime, KernelCostModel};
pub use stream::{KernelEffect, Program, Stream};
