//! Node abstractions: how protocol engines plug into a harness.
//!
//! Both the deterministic simulator (`seve-sim`) and the real TCP runtime
//! (`seve-rt`) drive protocol engines through these traits. An engine is a
//! pure state machine: messages in, messages out, plus a compute-cost
//! receipt in simulated microseconds that the harness charges to the
//! hosting machine (this is what makes Central and Broadcast saturate in
//! Figure 6 while SEVE stays flat).
//!
//! The receipt is priced by a [`CostModel`](crate::cost::CostModel) that
//! only the simulator hands out ([`ProtocolSuite::build_metered`]): a real
//! runtime has a real clock, so the engines it builds carry an unpriced
//! [`Meter`], charge 0, and never run the world's cost query.

use crate::cost::Meter;
use crate::metrics::{ClientMetrics, ServerMetrics};
use seve_net::time::{SimDuration, SimTime};
use seve_world::ids::ClientId;
use seve_world::state::WorldState;
use seve_world::GameWorld;
use std::sync::Arc;

/// Identity of a shareable message payload, for encode-once fan-out.
///
/// Transports key their per-batch frame cache on this: the first message
/// with a given id is encoded, later messages with the same id reuse the
/// encoded frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ShareId {
    /// Pointer identity of a refcounted payload. Stable for the lifetime
    /// of the batch being sent (the batch holds the clones, so the
    /// allocation cannot be freed and its address reused mid-send).
    Ptr(usize),
    /// A GC notice broadcast for this installed position.
    Gc(u64),
}

/// Messages that may share one encoded frame across destinations.
///
/// Contract: any two messages in the *same outbound batch* that report the
/// same `Some(id)` must encode to byte-identical wire frames. `None` means
/// "encode individually" and is always sound (the default).
pub trait ShareKey {
    /// The message's sharing identity, if any.
    fn share_key(&self) -> Option<ShareId> {
        None
    }
}

/// A client-side protocol engine.
pub trait ClientNode<W: GameWorld>: Send {
    /// Message type sent to the server.
    type Up: serde::Serialize + Clone + Send + std::fmt::Debug;
    /// Message type received from the server.
    type Down: serde::Serialize + Clone + Send + std::fmt::Debug;

    /// This client's identity.
    fn id(&self) -> ClientId;

    /// The sequence number the next submitted action must carry.
    fn next_seq(&self) -> u32;

    /// The optimistic state ζ_CO — what the player currently sees, and the
    /// view workloads generate actions from.
    fn optimistic(&self) -> &WorldState;

    /// The stable state ζ_CS — the serialized-prefix replica.
    fn stable(&self) -> &WorldState;

    /// Submit a locally created action (workload-driven). Outgoing messages
    /// are appended to `out`; returns the compute cost in microseconds.
    fn submit(&mut self, now: SimTime, action: W::Action, out: &mut Vec<Self::Up>) -> u64;

    /// Deliver one message from the server. Outgoing messages are appended
    /// to `out`; returns the compute cost in microseconds.
    fn deliver(&mut self, now: SimTime, msg: Self::Down, out: &mut Vec<Self::Up>) -> u64;

    /// Mutable access to the metrics sink.
    fn metrics_mut(&mut self) -> &mut ClientMetrics;

    /// Read access to the metrics sink.
    fn metrics(&self) -> &ClientMetrics;

    /// How many submitted actions are still awaiting their stable outcome.
    /// Drivers use this to decide when a client has fully drained; engines
    /// without a pending queue report zero (already drained).
    fn pending_len(&self) -> usize {
        0
    }

    /// Report this engine's evaluations to `meter` from now on. An engine
    /// that prices nothing from the model keeps the default, which ignores
    /// it. Harnesses install through [`ProtocolSuite::build_metered`].
    fn install_meter(&mut self, _meter: Meter) {}
}

/// A server-side protocol engine.
pub trait ServerNode<W: GameWorld>: Send {
    /// Message type received from clients.
    type Up: serde::Serialize + Clone + Send + std::fmt::Debug;
    /// Message type sent to clients.
    type Down: serde::Serialize + Clone + Send + std::fmt::Debug;

    /// Deliver one message from client `from`. Outgoing `(dest, msg)` pairs
    /// are appended to `out`; returns the compute cost in microseconds.
    fn deliver(
        &mut self,
        now: SimTime,
        from: ClientId,
        msg: Self::Up,
        out: &mut Vec<(ClientId, Self::Down)>,
    ) -> u64;

    /// The simulation tick τ: Algorithm 7's `onNextTick` analysis (a no-op
    /// for servers without dropping).
    fn tick(&mut self, now: SimTime, out: &mut Vec<(ClientId, Self::Down)>) -> u64;

    /// The ω·RTT proactive push cycle (First/Information Bound servers).
    /// Returns the compute cost; a no-op for pull-based servers.
    fn push_tick(&mut self, now: SimTime, out: &mut Vec<(ClientId, Self::Down)>) -> u64;

    /// The push period, if this server pushes ([`push_tick`] should then be
    /// invoked at this interval).
    ///
    /// [`push_tick`]: ServerNode::push_tick
    fn push_period(&self) -> Option<SimDuration>;

    /// Mutable access to the metrics sink.
    fn metrics_mut(&mut self) -> &mut ServerMetrics;

    /// Read access to the metrics sink.
    fn metrics(&self) -> &ServerMetrics;

    /// The authoritative committed state ζ_S, for servers that maintain one.
    fn committed(&self) -> Option<&WorldState>;

    /// Report this engine's evaluations, messages and scans to `meter`
    /// from now on. An engine that prices nothing from the model keeps the
    /// default, which ignores it. Harnesses install through
    /// [`ProtocolSuite::build_metered`].
    fn install_meter(&mut self, _meter: Meter) {}
}

/// A protocol family: how to build a matched server + client set over a
/// world. The harness is generic over this.
pub trait ProtocolSuite<W: GameWorld> {
    /// Client → server message type.
    type Up: serde::Serialize + Clone + Send + std::fmt::Debug;
    /// Server → client message type.
    type Down: serde::Serialize + Clone + Send + std::fmt::Debug;
    /// The client engine type.
    type Client: ClientNode<W, Up = Self::Up, Down = Self::Down>;
    /// The server engine type.
    type Server: ServerNode<W, Up = Self::Up, Down = Self::Down>;

    /// Short name for reports ("SEVE", "Central", ...).
    fn name(&self) -> &'static str;

    /// Instantiate the server and one client engine per world participant.
    /// Their meters are empty and price nothing.
    fn build(&self, world: Arc<W>) -> (Self::Server, Vec<Self::Client>);

    /// [`build`](ProtocolSuite::build), then install `meter` on every
    /// engine built. The simulator builds this way, with its cost model;
    /// every other harness calls `build`.
    fn build_metered(&self, world: Arc<W>, meter: Meter) -> (Self::Server, Vec<Self::Client>) {
        let (mut server, mut clients) = self.build(world);
        server.install_meter(meter);
        for client in &mut clients {
            client.install_meter(meter);
        }
        (server, clients)
    }
}
