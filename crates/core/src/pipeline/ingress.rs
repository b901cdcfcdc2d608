//! Ingress stage: admission, then timestamp and enqueue (Algorithm 2 step a).
//!
//! Every submission enters the serializer the same way regardless of mode:
//! the [`AdmissionLedger`] lets each action id in once, the action is
//! stamped with the arrival time, appended to the global queue, and
//! assigned the queue position that *is* its serialization order.
//! Everything downstream (closure scans, drop verdicts, Eq. 1 routing, batch
//! assembly) keys off that position.

use crate::pipeline::state::PipelineState;
use seve_net::time::SimTime;
use seve_world::ids::{ActionId, QueuePos};
use seve_world::GameWorld;

/// Timestamp and enqueue a submission, returning its queue position.
pub fn admit<W: GameWorld>(st: &mut PipelineState<W>, now: SimTime, action: W::Action) -> QueuePos {
    st.metrics.submissions += 1;
    let pos = st.queue.push(action, now);
    st.metrics.max_queue_len = st.metrics.max_queue_len.max(st.queue.len());
    pos
}

/// The ledger's verdict on one submitted action id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admission {
    /// First sighting: serialize it.
    Fresh,
    /// Already admitted — an at-least-once transport redelivered it.
    Redelivered,
    /// The issuer is not one of the world's clients.
    Foreign,
}

/// Which action ids have been admitted, per issuer. Serialization assigns
/// one queue position per action, so a submission redelivered by an
/// at-least-once transport must be ignored, not enqueued again.
///
/// A client numbers its actions `0, 1, 2, …`, so the ledger keeps, per
/// issuer, a low-water mark below which every sequence number has been
/// admitted, and the ascending list of numbers admitted above it. An
/// in-order stream keeps that list empty, so the ledger holds O(clients)
/// however long the run; reordering parks numbers in the list until the gap
/// below them fills. Exact under any redelivery or reordering, and a forged
/// number costs one list entry, once.
pub(crate) struct AdmissionLedger {
    issuers: Vec<Issuer>,
}

/// One issuer's admitted sequence numbers.
#[derive(Clone, Default)]
struct Issuer {
    /// Every sequence number below this has been admitted; this one has
    /// not. A `u64`, so admitting `u32::MAX` in order does not wrap.
    low: u64,
    /// The numbers admitted above `low`, ascending.
    above: Vec<u32>,
}

impl AdmissionLedger {
    /// An empty ledger for issuers `0..clients`.
    pub(crate) fn new(clients: usize) -> Self {
        Self {
            issuers: vec![Issuer::default(); clients],
        }
    }

    /// Admit `id` if it is new, recording it.
    pub(crate) fn admit(&mut self, id: ActionId) -> Admission {
        let Some(is) = self.issuers.get_mut(id.client.index()) else {
            return Admission::Foreign;
        };
        let seq = u64::from(id.seq);
        if seq < is.low {
            return Admission::Redelivered;
        }
        if seq == is.low {
            // Fill the gap, then absorb the run parked directly above it.
            let run = is
                .above
                .iter()
                .zip(seq + 1..)
                .take_while(|&(&s, want)| u64::from(s) == want)
                .count();
            is.above.drain(..run);
            is.low = seq + 1 + run as u64;
            return Admission::Fresh;
        }
        match is.above.binary_search(&id.seq) {
            Ok(_) => Admission::Redelivered,
            Err(i) => {
                is.above.insert(i, id.seq);
                Admission::Fresh
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProtocolConfig, ServerMode};
    use crate::cost::{CostModel, Meter};
    use crate::engine::ServerNode;
    use crate::msg::ToServer;
    use crate::pipeline::PipelineServer;
    use seve_world::ids::ClientId;
    use seve_world::worlds::dining::{DiningAction, DiningConfig, DiningWorld};
    use std::sync::Arc;

    fn id(client: u16, seq: u32) -> ActionId {
        ActionId::new(ClientId(client), seq)
    }

    #[test]
    fn in_order_sequence_numbers_leave_nothing_above_the_mark() {
        let mut ledger = AdmissionLedger::new(3);
        for seq in 0..1000 {
            for c in 0..3 {
                assert_eq!(ledger.admit(id(c, seq)), Admission::Fresh);
            }
        }
        for is in &ledger.issuers {
            assert_eq!(is.low, 1000);
            assert!(is.above.is_empty());
        }
        assert_eq!(ledger.admit(id(1, 999)), Admission::Redelivered);
        assert_eq!(ledger.admit(id(1, 0)), Admission::Redelivered);
    }

    #[test]
    fn reordered_sequence_numbers_are_each_admitted_once() {
        let mut ledger = AdmissionLedger::new(1);
        for seq in [2, 0, 1] {
            assert_eq!(ledger.admit(id(0, seq)), Admission::Fresh, "seq {seq}");
        }
        for seq in [2, 0, 1] {
            assert_eq!(
                ledger.admit(id(0, seq)),
                Admission::Redelivered,
                "seq {seq}"
            );
        }
        assert_eq!(ledger.issuers[0].low, 3);
        assert!(ledger.issuers[0].above.is_empty());
    }

    #[test]
    fn a_forged_maximal_sequence_number_is_admitted_once() {
        let mut ledger = AdmissionLedger::new(1);
        assert_eq!(ledger.admit(id(0, u32::MAX)), Admission::Fresh);
        assert_eq!(ledger.admit(id(0, u32::MAX)), Admission::Redelivered);
        assert_eq!(ledger.issuers[0].above, vec![u32::MAX]);
        assert_eq!(ledger.issuers[0].low, 0);
        // The honest stream is unaffected.
        assert_eq!(ledger.admit(id(0, 0)), Admission::Fresh);
        assert_eq!(ledger.issuers[0].low, 1);
        // Reaching it in order moves the mark past it without wrapping.
        ledger.issuers[0].low = u64::from(u32::MAX - 1);
        assert_eq!(ledger.admit(id(0, u32::MAX - 1)), Admission::Fresh);
        assert_eq!(ledger.issuers[0].low, 1 << 32);
        assert!(ledger.issuers[0].above.is_empty());
        assert_eq!(ledger.admit(id(0, u32::MAX)), Admission::Redelivered);
        assert_eq!(ledger.admit(id(0, 0)), Admission::Redelivered);
    }

    fn server(n: usize) -> (Arc<DiningWorld>, PipelineServer<DiningWorld>) {
        let world = Arc::new(DiningWorld::new(DiningConfig {
            philosophers: n,
            ..DiningConfig::default()
        }));
        let cfg = ProtocolConfig::with_mode(ServerMode::Incomplete);
        let mut server = PipelineServer::new(Arc::clone(&world), cfg);
        server.install_meter(Meter::priced(CostModel::default()));
        (world, server)
    }

    #[test]
    fn a_redelivered_submission_is_ignored_and_charged_one_message() {
        let (world, mut s) = server(4);
        let mut out = Vec::new();
        let a = world.grab(ClientId(1), 0);
        let first = s.deliver(
            SimTime::ZERO,
            ClientId(1),
            ToServer::Submit { action: a.clone() },
            &mut out,
        );
        let replies = out.len();
        let again = s.deliver(
            SimTime::ZERO,
            ClientId(1),
            ToServer::Submit { action: a },
            &mut out,
        );
        let cost = CostModel::default().msg_cost_us;
        assert!(first >= cost);
        assert_eq!(again, cost, "a redelivery costs one message");
        assert_eq!(out.len(), replies, "and is not answered");
        let m = s.metrics();
        assert_eq!(m.submissions, 1);
        assert_eq!(m.refused, 0);
        assert_eq!(m.compute_us, first + again);
        assert_eq!(s.state().queue.len(), 1);
    }

    #[test]
    fn a_submission_from_an_issuer_outside_the_world_is_refused() {
        let (world, mut s) = server(4);
        let mut out = Vec::new();
        // Client 0's grab, in the world in every id it names, claiming an
        // issuer the world does not have.
        let mut forged = world.grab(ClientId(0), 0);
        if let DiningAction::Grab { id: forged_id, .. } = &mut forged {
            *forged_id = id(4, 0);
        }
        let cost = s.deliver(
            SimTime::ZERO,
            ClientId(0),
            ToServer::Submit { action: forged },
            &mut out,
        );
        assert_eq!(cost, 0);
        assert!(out.is_empty());
        let m = s.metrics();
        assert_eq!(m.refused, 1);
        assert_eq!(m.submissions, 0);
        assert!(s.state().queue.is_empty());
    }
}
