//! Transport-agnostic node driver: one engine drive loop for every
//! substrate.
//!
//! The protocol engines in `seve-core` are pure state machines — submit,
//! deliver, tick, push. Everything around them (when the timers fire, how
//! messages travel, what happens when a peer vanishes) is *scheduling*, and
//! before this crate it existed twice: once inside the simulator's event
//! loop and once, hand-rolled, in the TCP runtime. This crate owns it once:
//!
//! * [`clock`], [`timer`] — the wall clock the threaded loops read, and the
//!   two catch-up disciplines (nominal grid for the simulator, clamped for
//!   wall-clock servers).
//! * [`transport`] — how a driven node exchanges messages; implemented by
//!   `seve-rt`'s framed streams, over TCP or in-memory pipes.
//! * [`node`] — the [`node::NodeDriver`] loops: server τ-tick + ω·RTT push
//!   cycles, client move/drain/linger phases, shared by every threaded
//!   backend.
//! * [`sim`] — the discrete-event substrate (an event queue in virtual time),
//!   deterministic and pinned by the golden digests.
//! * [`fault`] — seeded client crashes and link partitions, plus
//!   drop/duplicate/reorder/delay of clients' submissions, realized on
//!   simulator links ([`fault::FaultyLink`]) and on threaded transports
//!   ([`fault::FaultyClientTransport`]) from one [`fault::FaultPlan`].
//! * [`session`] — the supervision layer every threaded session runs
//!   under: sequence numbers, delayed acks, resume after a lost
//!   connection, liveness reaping and eviction.
//! * [`report`] — uniform [`report::ServerReport`]/[`report::ClientReport`]
//!   with the pipeline stage profile and replay-work counters, whatever the
//!   substrate.

#![warn(missing_docs)]

pub mod clock;
pub mod fault;
pub mod machine;
pub mod node;
pub mod report;
pub mod session;
pub mod sim;
pub mod timer;
pub mod transport;

pub use clock::{Clock, WallClock};
pub use fault::{FaultPlan, FaultPolicy, FaultyClientTransport, FaultyLink, LinkPartition};
pub use machine::Machine;
pub use node::NodeDriver;
pub use report::{ClientReport, ReplayWork, ServerReport, SessionReport};
pub use session::{
    session_token, Backoff, BackoffParams, RetryBudgetExhausted, SendWindow, SessionDown,
    SessionParams, SessionStats, SessionUp, SupervisedClientTransport, SupervisedServerTransport,
};
pub use sim::{AveragedResult, RunResult, SimConfig, Simulation};
pub use timer::{CatchUp, MoveTimer, PeriodicTimer, Timer};
pub use transport::{ClientEvent, ClientTransport, EgressStats, ServerEvent, ServerTransport};
