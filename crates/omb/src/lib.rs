//! # mpx-omb — OSU-micro-benchmark-style harness
//!
//! The measurement protocols of the paper's evaluation (Section 5): OMB
//! unidirectional/bidirectional windowed bandwidth, ping-pong latency,
//! and collective latency tests, plus the panel runners that produce the
//! exact series each figure plots.
//!
//! ```
//! use std::sync::Arc;
//! use mpx_omb::{osu_bw, P2pConfig};
//! use mpx_topo::presets;
//! use mpx_ucx::{TuningMode, UcxConfig};
//!
//! let topo = Arc::new(presets::beluga());
//! let single = osu_bw(
//!     &topo,
//!     UcxConfig { mode: TuningMode::SinglePath, ..UcxConfig::default() },
//!     16 << 20,
//!     P2pConfig::default(),
//! );
//! let multi = osu_bw(&topo, UcxConfig::default(), 16 << 20, P2pConfig::default());
//! assert!(multi > 1.5 * single);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bw;
pub mod collective_bench;
pub mod panels;
pub mod pattern;
pub mod report;

pub use bw::{osu_bibw, osu_bibw_on, osu_bw, osu_bw_on, osu_latency, P2pConfig};
pub use collective_bench::{
    allreduce_on, alltoall_on, bcast_on, osu_allgather, osu_allreduce, osu_alltoall, osu_bcast,
    AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, CollectiveConfig,
};
pub use panels::{collective_panel, p2p_panel, replay_panel, CollectiveKind, P2pKind};
pub use pattern::{ring_pairs, run_pattern, PatternPlanning, PatternResult};
pub use report::{mean_relative_error, size_ladder, Series, SeriesPoint};
