//! # seve-net — discrete-event kernel and simulated network
//!
//! The paper's experiments ran on an EMULab testbed of 65 machines with
//! 238 ms of emulated wide-area latency and 100 Kbps links (Section V-A).
//! This crate is our substitute: a deterministic discrete-event simulation
//! kernel plus a network model with exactly those knobs.
//!
//! * [`time`] — virtual time with microsecond resolution. A one-hour
//!   experiment runs in milliseconds of real time and every run is exactly
//!   reproducible.
//! * [`event`] — a priority event queue with deterministic tie-breaking
//!   (FIFO among simultaneous events).
//! * [`link`] — a point-to-point link with one-way latency, a bandwidth cap
//!   with FIFO queueing delay, and byte/message counters (the Figure 9
//!   "total data transfer" instrumentation).
//! * [`stats`] — online summary statistics and response-time collectors
//!   backing every reported series.
//! * [`wire`] — the binary serde codec every real transport frames: varint
//!   integers, exact float bits, validated decoding, and the [`wire::Raw`]
//!   splice that lets a value encoded once be copied into later messages.
//!   It sits below `seve-core` so protocol messages can cache their own
//!   encodings; the simulator never calls it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod link;
pub mod stats;
pub mod time;
pub mod wire;

pub use event::EventQueue;
pub use link::Link;
pub use stats::{Histogram, RunningSummary, Summary};
pub use time::{SimDuration, SimTime};
