//! # seve-sim — the EMULab-substitute experiment harness
//!
//! The paper evaluated SEVE on a 65-machine EMULab testbed (Section V-A):
//! 64 clients + 1 server, Pentium-III nodes, 238 ms average latency,
//! 100 Kbps links, one move per client per 300 ms, runs averaged over 10
//! repetitions. This crate reproduces that testbed as a deterministic
//! discrete-event simulation:
//!
//! * [`machine`] — a simulated machine with a busy-time compute model; the
//!   per-action costs come from the world's calibrated cost model (e.g.
//!   7.44 ms per Manhattan People move at 100 000 walls).
//! * [`Simulation`] — the event loop wiring one server and N clients over
//!   latency/bandwidth [`seve_net::link::Link`]s, driving workload move
//!   timers, server ticks (τ) and push cycles (ω·RTT), and collecting every
//!   metric the paper reports. The loop itself lives in
//!   [`seve_driver::sim`] (the discrete-event substrate of the unified
//!   node driver); this crate re-exports it.
//! * [`experiment`] — the parameter sets behind Table I and each figure.
//! * [`report`] — plain-text table/series rendering for the `repro` binary.
//!
//! Determinism: all randomness is seeded, events tie-break FIFO, and the
//! compute model is virtual — so every run is exactly reproducible,
//! machine-independent, and ~10⁴× faster than real time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod machine;
pub mod report;

pub use machine::Machine;
pub use seve_driver::sim::{AveragedResult, RunResult, SimConfig, Simulation};
