//! # mpx-mpi — a miniature MPI over the simulated fabric
//!
//! Message passing with MPI semantics, one task per rank: non-blocking
//! send/receive with tag matching and wildcards, waitall, barriers, and
//! the collective algorithms the paper's UCC configuration uses
//! (recursive K-nomial scatter-reduce + allgather for MPI_Allreduce,
//! Bruck for MPI_Alltoall). A rank body is a future; every wait in it is
//! an `.await` on the virtual clock. Every byte moves through `mpx-ucx`, so
//! the transport's single-path/static/dynamic tuning modes apply to
//! collectives unchanged.
//!
//! ```
//! use std::sync::Arc;
//! use mpx_mpi::World;
//! use mpx_topo::presets;
//! use mpx_ucx::UcxConfig;
//!
//! let world = World::new(Arc::new(presets::beluga()), UcxConfig::default());
//! let times = world.run_tasks(2, |rank| async move {
//!     let buf = rank.alloc(1 << 20);
//!     if rank.rank == 0 {
//!         rank.send(&buf, 1 << 20, 1, 0).await;
//!     } else {
//!         rank.recv(&buf, 1 << 20, Some(0), Some(0)).await;
//!     }
//!     rank.now().as_secs()
//! });
//! assert!(times[1] > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collective;
pub mod p2p;
pub mod world;

pub use collective::{
    allgather_recursive_doubling, allgather_ring, allreduce, allreduce_knomial,
    allreduce_rabenseifner, allreduce_ring, alltoall, alltoall_bruck, alltoall_pairwise, bcast,
    bcast_binomial, bcast_scatter_allgather, gather_linear, scatter_linear, scatter_linear_inplace,
};
pub use p2p::{waitall, MessageStatus, Request, ANY_SOURCE, ANY_TAG, MAX_APP_TAG};
pub use world::{Rank, World};
