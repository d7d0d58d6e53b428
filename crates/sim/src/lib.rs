//! # tauhls-sim — cycle-accurate simulation of telescopic control units
//!
//! The evaluation substrate of the `tauhls` workspace (paper §5):
//!
//! * [`simulate_distributed`] — steps every arithmetic-unit controller FSM
//!   cycle by cycle against the datapath, with combinational completion
//!   propagation and latched (`done`) completion flags;
//! * [`simulate_cent_sync`] — the synchronized TAUBM step-walk (`LT_TAU`);
//! * [`CompletionModel`] — Bernoulli(`P`), deterministic extremes, or
//!   operand-driven completion through `tauhls-datapath` bit-level units;
//! * [`latency_batch`] — the `[best][avg@P...][worst]` cells of Table 2
//!   for any set of controller styles, measured on one coupled completion
//!   draw per trial, plus the enhancement column;
//! * [`BatchRunner`] / [`SimJob`] — a deterministic parallel Monte-Carlo
//!   engine: per-trial RNGs derived from `(base_seed, job_id, trial)` and
//!   chunk-ordered reduction make results bit-identical for any thread
//!   count, with `threads = 1` as the reference oracle;
//! * [`FaultPlan`] / [`SimConfig`] — deterministic completion-signal fault
//!   injection (stuck-at predictors, dropped/spurious pulses, delayed
//!   latches, state-register upsets), with abnormal runs classified as
//!   structured [`SimError`]s carrying per-controller diagnostics instead
//!   of panicking.
//!
//! # Examples
//!
//! Measure the FIR5 row of Table 2 (in cycles):
//!
//! ```
//! use tauhls_sim::{latency_batch, enhancement_percent, BatchRunner, ControlStyleSet, ElasticSpec};
//! use tauhls_sched::{Allocation, BoundDfg};
//! use tauhls_dfg::benchmarks::fir5;
//!
//! let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
//! let styles = ControlStyleSet::TAU | ControlStyleSet::DIST;
//! let legs = latency_batch(
//!     &bound, styles, &[(0, 0.9)], 200, 7, ElasticSpec::zero(), &BatchRunner::new(2),
//! ).unwrap();
//! let (sync, dist) = (&legs[0], &legs[1]);
//! assert!(dist.average_cycles[0] <= sync.average_cycles[0]);
//! assert!(enhancement_percent(sync, dist)[0] >= 0.0);
//! ```
//!
//! Inject a stuck-at-long completion signal and observe the deadlock:
//!
//! ```
//! use tauhls_sim::{simulate_distributed_with, CompletionModel, FaultKind, FaultPlan,
//!                  SimConfig, SimError};
//! use tauhls_sched::{Allocation, BoundDfg};
//! use tauhls_fsm::DistributedControlUnit;
//! use tauhls_dfg::{benchmarks::fir5, OpId};
//! use rand::SeedableRng;
//!
//! let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
//! let cu = DistributedControlUnit::generate(&bound);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let cfg = SimConfig::with_faults(FaultPlan::single(1, FaultKind::StuckAtLong { op: OpId(0) }));
//! let err = simulate_distributed_with(
//!     &bound, &cu, &CompletionModel::AlwaysShort, None, &mut rng, &cfg,
//! ).unwrap_err();
//! assert!(matches!(err, SimError::Deadlock(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod batch;
mod cent;
mod centsync;
mod distributed;
mod elastic;
mod error;
mod fault;
mod invariant;
pub mod kernel;
mod latency;
mod model;
mod pipeline;
mod result;
pub mod sliced;

pub use batch::{
    derive_seed, trial_rng, Accumulator, BatchRunner, CancelToken, CycleStats, FirstError, SimJob,
    DEFAULT_CHUNK_SIZE,
};
pub use cent::{simulate_cent, simulate_cent_with, CentControlUnit, CENT_FSM_NAME};
pub use centsync::{simulate_cent_sync, simulate_cent_sync_with, simulate_cent_sync_with_schedule};
pub use distributed::{simulate_distributed, simulate_distributed_with};
pub use elastic::{
    elastic_trial_skew_seed, simulate_elastic, simulate_elastic_saturated, simulate_elastic_with,
    ELASTIC_SKEW_SALT,
};
pub use error::{ControllerSnapshot, Diagnostics, SimError};
pub use fault::{Fault, FaultKind, FaultPlan, SimConfig, Watchdog};
pub use invariant::{check_lockstep, check_token_conservation};
pub use kernel::{ClockFabric, ElasticSpec};
pub use latency::{
    enhancement_percent, latency_batch, latency_quad_batch, latency_summary_batch, ControlStyle,
    ControlStyleSet, LatencySummary,
};
pub use model::{CompletionModel, TauLibrary};
pub use pipeline::{simulate_pipelined, simulate_pipelined_with, PipelinedResult};
pub use result::SimResult;
pub use sliced::{LaneConfigs, LaneModels, LaneOutcome, PipelinedLaneOutcome, SlicedSim, LANES};
