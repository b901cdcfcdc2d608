//! Transport traits: how a driven node exchanges protocol messages.
//!
//! The [`crate::node::NodeDriver`] loops are written against these traits
//! only; the substrate underneath — `seve-rt`'s framed streams over TCP
//! or in-memory pipes, or anything else — is interchangeable. The simulator does not implement them (its transport is
//! the event queue itself, see [`crate::sim`]), but the fault decorator
//! ([`crate::fault::FaultyClientTransport`]) wraps any implementation.

use crate::session::SessionStats;
use seve_world::ids::ClientId;
use std::time::Duration;

/// One observation from the server's side of the transport.
#[derive(Debug)]
pub enum ServerEvent<U> {
    /// A protocol message arrived from a client.
    Msg(ClientId, U),
    /// The client finished with an orderly goodbye.
    Done(ClientId),
    /// The client's connection was lost abruptly (a broken socket or
    /// pipe) with no goodbye. The supervised transport absorbs it and
    /// holds the lane open for a resume; a driver that sees it treats it
    /// like [`Done`].
    ///
    /// [`Done`]: ServerEvent::Done
    Gone(ClientId),
    /// Nothing arrived within the timeout.
    Timeout,
}

/// One observation from a client's side of the transport.
#[derive(Debug)]
pub enum ClientEvent<D> {
    /// A protocol message arrived from the server.
    Msg(D),
    /// The server ended the session.
    Stop,
    /// Nothing arrived within the timeout.
    Timeout,
    /// The transport is gone; no further events will arrive.
    Closed,
}

/// Wire-path work a transport performed on the server's behalf — the
/// part of egress the engine cannot observe (buffer recycling, syscall
/// batching). Merged into the stage profile by
/// [`crate::node::NodeDriver::run_server`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EgressStats {
    /// Encode buffers served from a recycle pool (zero-allocation
    /// steady state when this tracks the encode count).
    pub pool_hits: u64,
    /// Encode buffers that had to be freshly allocated.
    pub pool_misses: u64,
    /// Vectored-write batches (syscalls) issued while draining egress.
    pub writev_batches: u64,
    /// Pooled encode buffers currently checked out (a non-zero value after
    /// a drained shutdown is a leak).
    pub pool_outstanding: u64,
    /// Session-supervision counters, when a supervised wrapper is
    /// stacked on this transport (zeros otherwise).
    pub session: SessionStats,
}

/// The server's view of the network: a merged inbound stream from every
/// client, and per-client outbound delivery.
pub trait ServerTransport<U, D> {
    /// Transport-level failure (I/O, codec). Lost *peers* are not errors —
    /// they surface as [`ServerEvent::Done`].
    type Error: std::fmt::Debug;

    /// Wait up to `timeout` for the next inbound event.
    fn recv(&mut self, timeout: Duration) -> Result<ServerEvent<U>, Self::Error>;

    /// Deliver one engine step's outbound batch, preserving per-client
    /// FIFO order (the ordering contract the replay log depends on).
    /// Returns the bytes written.
    fn send_batch(&mut self, out: &[(ClientId, D)]) -> Result<u64, Self::Error>;

    /// End the session: tell every client to stop.
    fn stop_all(&mut self) -> Result<(), Self::Error>;

    /// Release every resource held for client `c` (sockets, egress lanes,
    /// pooled buffers) — the reaping hook. Default: nothing to release.
    fn release(&mut self, _c: ClientId) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Cumulative wire-path statistics. Transports without an encode pool
    /// report zeros (the default).
    fn egress_stats(&self) -> EgressStats {
        EgressStats::default()
    }
}

/// A client's view of the network: one duplex lane to the server.
pub trait ClientTransport<U, D> {
    /// Transport-level failure (I/O, codec).
    type Error: std::fmt::Debug;

    /// Wait up to `timeout` for the next inbound event.
    fn recv(&mut self, timeout: Duration) -> Result<ClientEvent<D>, Self::Error>;

    /// Send one message to the server; returns the bytes written.
    fn send(&mut self, msg: U) -> Result<u64, Self::Error>;

    /// Announce the orderly end of this client's workload (the goodbye
    /// frame); returns the bytes written. A client that crashes never
    /// calls this — the transport signals the loss on drop/close instead.
    fn finish(&mut self) -> Result<u64, Self::Error>;

    /// Re-establish the substrate connection after a loss. `Ok(true)`
    /// means a fresh connection is up, `Ok(false)` that this transport has
    /// no connection of its own to re-establish, `Err` that the attempt
    /// failed and may be retried. Default: nothing to do.
    fn reconnect(&mut self) -> Result<bool, Self::Error> {
        Ok(false)
    }

    /// Simulate a link outage for `d` from now: a transport that can drop
    /// its connection does so (the server observes the loss), others
    /// no-op — the supervised wrapper models the loss either way.
    fn partition(&mut self, _d: Duration) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Session-supervision counters, when a supervised wrapper is stacked
    /// on this transport (zeros otherwise).
    fn session_stats(&self) -> SessionStats {
        SessionStats::default()
    }
}
