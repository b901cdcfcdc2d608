//! # seve-rt — the real-network runtime
//!
//! The paper evaluates SEVE "using both simulation and real experiments"
//! (Section I). This crate is the real half: the same protocol engines from
//! `seve-core` — byte-for-byte the same client and server state machines —
//! driven over actual TCP sockets with a binary wire format, OS threads,
//! and wall-clock tick/push timers.
//!
//! * [`wire`] — the binary serde codec, re-exported from `seve-net` (it
//!   sits below `seve-core` so protocol messages can cache their own
//!   encodings). No wire-format crate is among the project's allowed
//!   dependencies, so the format is implemented in-repo; anything with a
//!   serde derive encodes.
//! * [`frame`] — length-prefixed framing over a byte stream (a fixed `u32`
//!   prefix, so a reader can size a frame from four bytes).
//! * [`lane`] — one nonblocking stream's framed traffic, the [`Lane`]
//!   both ends drive, over TCP or an in-memory [`pipe`].
//! * [`server`] — a server hosting any [`seve_core::ServerNode`], its
//!   sockets nonblocking and owned by the engine thread.
//! * [`client`] — a client driving a [`seve_core::SeveClient`] with a
//!   workload at a fixed move cadence, its one socket a lane on the
//!   client's own thread.
//! * [`inproc`] — a whole session in one process, over pipes.
//!
//! The engine loops themselves live in the driver layer (`seve-driver`):
//! this crate contributes [`server::StreamServerTransport`] and
//! [`client::StreamClientTransport`], the framed-stream implementations of
//! the driver's transport traits, and thin entry points that wire them to
//! [`seve_driver::NodeDriver`]. Reports are the driver's shared
//! [`ServerReport`]/[`ClientReport`] types, so the pipeline stage profile
//! and replay-work counters are available here exactly as in the
//! simulator.
//!
//! The loopback integration tests run full Manhattan People sessions over
//! sockets and pipes and check the same Theorem 1 oracle the simulator uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod frame;
pub mod inproc;
pub mod lane;
pub mod pipe;
pub mod server;
pub use seve_net::wire;

pub use client::{run_client_with, ClientReport, StreamClientTransport};
pub use inproc::{run_inproc_session, SessionConfig};
pub use lane::Lane;
pub use server::{fan_out, run_server_with, ServerReport, StreamServerTransport};
