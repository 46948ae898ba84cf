//! # mpx-sim — discrete-event fabric simulator
//!
//! Replaces the physical multi-GPU node the paper measures on. Transfers
//! are *fluid flows* over the directed links of an [`mpx_topo::Topology`];
//! concurrent flows share links max-min fairly, which is what produces the
//! contention phenomena the paper reports (window-size effects,
//! host-staged bidirectional degradation) without any per-experiment
//! tuning.
//!
//! Three ways to drive a simulation:
//!
//! * **Callback-structured** — inject flows/timers with
//!   [`Engine::start_flow`] / [`Engine::schedule_in`] and drain with
//!   [`Engine::run_until_idle`]. Deterministic; used by unit tests. The
//!   GPU stream layer submits op queues the event loop runs itself
//!   ([`Engine::with_lanes`]).
//! * **Task-structured** — write each actor as a future that awaits
//!   [`task::wait`], [`task::wait_until`] or [`task::sleep`], and run the
//!   set with [`task::run`] on the calling thread. The executor polls every
//!   task that can move in task-id order and handles the next event when
//!   none can, so a run repeats to the bit. This is how `mpx-mpi` runs
//!   ranks.
//! * **Thread-structured** — register OS threads as simulated actors
//!   ([`Engine::register_thread`]) and write straight-line blocking code
//!   ([`SimThread::sleep`], [`SimThread::wait`], [`SimThread::transfer`]).
//!   Virtual time advances only when every registered thread is blocked.
//!   What is left on it: the rank threads of `World::run` (and their
//!   `waitall`) and `Stream::synchronize` callers.
//!
//! ```
//! use std::sync::Arc;
//! use mpx_sim::{Engine, FlowSpec, OnComplete};
//! use mpx_topo::presets;
//!
//! let topo = Arc::new(presets::beluga());
//! let eng = Engine::new(topo.clone());
//! let gpus = topo.gpus();
//! let link = topo.link_between(gpus[0], gpus[1]).unwrap().id;
//! eng.start_flow(FlowSpec::new(vec![link], 64 << 20), OnComplete::Nothing);
//! eng.run_until_idle();
//! assert!(eng.now().as_secs() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod fairness;
pub mod fault;
pub mod label;
pub mod parallel;
pub mod partition;
pub mod stats;
pub mod task;
pub mod time;
pub mod waker;

pub use engine::{
    Ctx, Effect, Engine, EventFn, FlagId, FlowId, FlowSpec, Handle, JitterModel, LaneId, LaneOp,
    Lanes, LinkStats, OnComplete, Route, SimThread, StatsSnapshot, TraceRecord,
};
pub use fairness::{max_min_rates, max_min_rates_fast, FairShareScratch, FlowDemand, Links};
pub use fault::{plan_horizon, FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use label::{Label, Template};
pub use parallel::{equivalence_diff, PartitionRun, Scenario, ScenarioReport};
pub use partition::{partition_scenario, Partition, PartitionPlan};
pub use stats::{
    bottleneck_link, link_utilization, summarize_trace, trace_to_chrome_json, LinkUtilization,
    TraceSummary,
};
pub use time::SimTime;
pub use waker::Waker;
