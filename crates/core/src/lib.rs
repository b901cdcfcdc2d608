//! # seve-core — the action-based consistency protocols
//!
//! This crate is the paper's contribution: a family of **action-based
//! protocols** (Section III) in which clients ship *actions* — functions
//! with declared read/write sets — to a serializing server, instead of
//! shipping object state. Four variants of increasing sophistication:
//!
//! | Variant | Paper | Server configuration |
//! |---|---|---|
//! | Basic action protocol | Algs 1–3 | [`pipeline`] (broadcast routing) + [`client`] |
//! | Incomplete World Model | Algs 4–6 | [`pipeline`] (closure routing) + [`client`] |
//! | Information Bound Model | Alg 7 | [`pipeline`] (sphere routing + drops) |
//! | First Bound Model | §III-D | [`pipeline`] (sphere routing, no drops) |
//!
//! All four run on one staged server engine
//! ([`pipeline::PipelineServer`]): ingress → serialize → analyze → route →
//! egress, with the variant-specific behaviour injected as routing / drop /
//! push policies at construction time ([`server::SeveSuite`]).
//!
//! The client engine ([`client::SeveClient`]) is shared by all variants: it
//! maintains the optimistic state ζ_CO and stable state ζ_CS, the pending
//! queue Q of optimistically executed own actions, reconciliation
//! (Algorithm 3), and completion messages.
//!
//! ## A note on ordered replay
//!
//! The paper's client pseudocode says "action b is applied to ζ_CS" in
//! arrival order. Under the Incomplete World Model the server may send a
//! client an *older* action in a *later* reply (Algorithm 6 includes
//! actions lazily, per-client). Applying strictly in arrival order would
//! let a stale write clobber a newer one. Theorem 1 therefore requires
//! applying received items in **queue-position order**, re-evaluating the
//! suffix when an older item arrives; [`replay::ReplayLog`] implements
//! that. A pleasing corollary of Algorithm 6 (tested in the integration
//! suite): re-evaluated actions always reproduce their original outcomes,
//! because any action that could have changed an already evaluated action's
//! inputs must already have been in that action's closure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod client;
pub mod closure;
pub mod config;
pub mod consistency;
pub mod cost;
pub mod engine;
pub mod metrics;
pub mod msg;
pub mod pending;
pub mod pipeline;
pub mod replay;
pub mod server;

pub use client::SeveClient;
pub use config::{ProtocolConfig, ServerMode};
pub use engine::{ClientNode, ProtocolSuite, ServerNode};
pub use metrics::{ClientMetrics, ServerMetrics};
pub use msg::{Item, Payload, ToClient, ToServer};
pub use pipeline::PipelineServer;
pub use server::SeveSuite;
