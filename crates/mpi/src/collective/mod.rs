//! UCC-style collective operations built from non-blocking P2P steps,
//! exactly as the paper's evaluation stack does (Section 5.3): every
//! transfer inside a collective goes through the UCX context, so enabling
//! multi-path transport accelerates the collectives with no algorithm
//! changes.

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod bcast;
pub mod knomial;
pub mod selector;

pub use allgather::{allgather_recursive_doubling, allgather_ring};
pub use allreduce::{allreduce_rabenseifner, allreduce_ring};
pub use alltoall::{alltoall_bruck, alltoall_pairwise};
pub use bcast::{bcast_binomial, gather_linear, scatter_linear, scatter_linear_inplace};
pub use knomial::{allreduce_knomial, bcast_scatter_allgather};
pub use selector::{
    allreduce, alltoall, bcast, select_allreduce, select_alltoall, select_bcast, AllreduceChoice,
    AlltoallChoice, BcastChoice,
};
