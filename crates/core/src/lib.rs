//! # tauhls-core — distributed synchronous control units for telescopic datapaths
//!
//! End-to-end reproduction of *"Distributed Synchronous Control Units for
//! Dataflow Graphs under Allocation of Telescopic Arithmetic Units"*
//! (DATE 2003). This crate ties the workspace substrates into the pipeline
//! a downstream user drives:
//!
//! 1. describe a dataflow graph (`tauhls-dfg`) and a resource allocation
//!    with telescopic classes (`tauhls-sched`);
//! 2. [`Synthesis`] schedules, binds (inserting schedule arcs), and
//!    generates the distributed per-unit controllers plus the centralized
//!    baselines (`tauhls-fsm`);
//! 3. the resulting [`Design`] reports gate-level area (`tauhls-logic`)
//!    and simulated latency (`tauhls-sim`, optionally operand-driven via
//!    `tauhls-datapath`).
//!
//! The [`experiments`] module regenerates the paper's Table 1, Table 2 and
//! the Fig 4 state-explosion sweep; [`figures`] regenerates the worked
//! examples of Figs 1-3, 6 and 7.
//!
//! # Examples
//!
//! ```
//! use tauhls_core::{Synthesis, Timing};
//! use tauhls_dfg::benchmarks::diffeq;
//! use tauhls_sched::Allocation;
//! use tauhls_sim::{BatchRunner, ControlStyle};
//!
//! let design = Synthesis::new(diffeq())
//!     .allocation(Allocation::paper(2, 1, 1))
//!     .timing(Timing::default())
//!     .run()?;
//!
//! let runner = BatchRunner::new(2);
//! let dist = design.latency_batch(ControlStyle::Distributed, &[0.9, 0.5], 1000, 1, &runner);
//! let sync = design.latency_batch(ControlStyle::CentSync, &[0.9, 0.5], 1000, 1, &runner);
//! assert!(dist.average_cycles[1] <= sync.average_cycles[1]);
//! # Ok::<(), tauhls_core::SynthesisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod experiments;
pub mod explore;
pub mod figures;
pub mod jobspec;
mod json;
pub mod partition;
mod pipeline;
pub mod report;
pub mod resilience;
pub mod stages;
pub mod sweeps;
pub mod utilization;

pub use pipeline::{Design, Synthesis, SynthesisError, Timing};
pub use stages::{BindStrategy, PipelineTrace, StageCache, StageRecord};
