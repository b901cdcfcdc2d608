//! Egress stage: per-client batch assembly and hand-off.
//!
//! Everything a client receives funnels through here: blind writes
//! `W(S, ζ_S(S))` filtered against the per-client version tables, action
//! items in queue-position order (the per-client FIFO the replay contract
//! depends on), and the egress message/frame counters. The caller laps the
//! stage clock to `egress` after emitting (see [`crate::pipeline`]), and the
//! simulated cost model stays with it too.

use crate::closure::ClosureResult;
use crate::msg::{Item, Shared, ToClient};
use crate::pipeline::state::PipelineState;
use seve_world::ids::{ClientId, QueuePos};
use seve_world::objset::ObjectSet;
use seve_world::GameWorld;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Per-push-cycle cache of assembled action spans, keyed by the position
/// range. Valid only while the queue is untouched (one `on_tick` catch-up
/// loop): clients lagging at the same position share one item vector — and
/// therefore, downstream, one encoded wire frame.
pub type SpanCache<A> = HashMap<(QueuePos, QueuePos), Shared<Vec<Item<A>>>>;

/// Build the blind-write item `W(S, ζ_S(S))` for a residual read set,
/// filtered against what `client` is already known to hold — shipping an
/// object whose committed value the client has (or holds a newer
/// uncommitted value for) is pure overhead. Returns `None` when nothing
/// remains to supply.
pub fn blind_item_for<W: GameWorld>(
    st: &mut PipelineState<W>,
    client: ClientId,
    set: &ObjectSet,
) -> Option<Item<W::Action>> {
    if set.is_empty() {
        return None;
    }
    let known = &mut st.client_known[client.index()];
    let mut snap = seve_world::state::Snapshot::new();
    for o in set.iter() {
        let committed = st.committed_version[o.index()];
        let held = known.get(&o).copied();
        // `held = None` means the client holds the initial value
        // (version 0), which every replica bootstraps with.
        if held.unwrap_or(0) >= committed {
            continue;
        }
        if let Some(obj) = st.zeta_s.get(o) {
            snap.push(o, obj.clone());
            known.insert(o, committed);
        }
    }
    if snap.is_empty() {
        return None;
    }
    Some(Item::blind(st.last_committed, snap))
}

/// Build the batch items for positions `send` (ascending), prefixed by the
/// (version-filtered) blind write for `blind_set`, updating the per-client
/// known-version table.
pub fn batch_items<W: GameWorld>(
    st: &mut PipelineState<W>,
    client: ClientId,
    send: &[QueuePos],
    blind_set: &ObjectSet,
) -> Vec<Item<W::Action>> {
    let mut items = Vec::with_capacity(send.len() + 1);
    if let Some(blind) = blind_item_for(st, client, blind_set) {
        items.push(blind);
    }
    for &pos in send {
        let e = st.queue.get(pos).expect("sent positions are queued");
        // The client will apply this action's writes at `pos`.
        let known = &mut st.client_known[client.index()];
        for o in e.ws().iter() {
            let entry = known.entry(o).or_insert(0);
            *entry = (*entry).max(pos);
        }
        items.push(Item::action(pos, e.action.clone()));
    }
    items
}

/// Assemble and emit the closure-routed batch (blind write + transitive
/// support + candidates, in queue order) for `client`. Records the
/// batch-size metric and the egress message/frame counters.
pub fn emit_closure_batch<W: GameWorld>(
    st: &mut PipelineState<W>,
    client: ClientId,
    result: &ClosureResult,
    out: &mut Vec<(ClientId, ToClient<W::Action>)>,
) {
    let items = batch_items(st, client, &result.send, &result.blind_set);
    st.metrics.batch_items.record(items.len() as f64);
    finish(st, client, Shared::new(items), false, out);
}

/// Assemble and emit the plain action span `lo..=hi` for `client`
/// (broadcast delivery), skipping positions already trimmed from the
/// queue. Returns the number of items emitted (zero means no message went
/// out). `record_summary` preserves the Algorithm 2 accounting convention:
/// solicited replies record batch sizes, the quiescence flush does not.
pub fn emit_span<W: GameWorld>(
    st: &mut PipelineState<W>,
    client: ClientId,
    lo: QueuePos,
    hi: QueuePos,
    record_summary: bool,
    out: &mut Vec<(ClientId, ToClient<W::Action>)>,
) -> usize {
    let items = span_items(st, lo, hi);
    let n = items.len();
    if record_summary {
        st.metrics.batch_items.record(n as f64);
    }
    if n > 0 {
        finish(st, client, Shared::new(items), false, out);
    }
    n
}

/// [`emit_span`] with encode-once sharing: spans already assembled this
/// push cycle (same `(lo, hi)` under an unchanged queue) are reused by
/// reference, so every recipient's batch carries the *same* item vector —
/// one frame on the wire side — and counts as a frame reuse instead of an
/// encode. Byte-identical to [`emit_span`] (the cache key pins the exact
/// positions and the queue is immutable for the cache's lifetime).
pub fn emit_span_cached<W: GameWorld>(
    st: &mut PipelineState<W>,
    client: ClientId,
    lo: QueuePos,
    hi: QueuePos,
    cache: &mut SpanCache<W::Action>,
    out: &mut Vec<(ClientId, ToClient<W::Action>)>,
) -> usize {
    let (items, reused) = match cache.entry((lo, hi)) {
        Entry::Occupied(e) => (e.get().clone(), true),
        Entry::Vacant(v) => {
            let items = span_items(st, lo, hi);
            (v.insert(Shared::new(items)).clone(), false)
        }
    };
    let n = items.len();
    if n > 0 {
        finish(st, client, items, reused, out);
    }
    n
}

/// Collect the action items for positions `lo..=hi`, skipping positions
/// already trimmed from the queue.
fn span_items<W: GameWorld>(
    st: &PipelineState<W>,
    lo: QueuePos,
    hi: QueuePos,
) -> Vec<Item<W::Action>> {
    let mut items = Vec::with_capacity(hi.saturating_sub(lo).saturating_add(1) as usize);
    for p in lo..=hi {
        if let Some(e) = st.queue.get(p) {
            items.push(Item::action(p, e.action.clone()));
        }
    }
    items
}

/// Emit one identical message to every client — the shared-payload
/// broadcast path (GC notices). The first copy counts as an encode, the
/// rest as frame reuses; the transport's frame cache sees the same split
/// through the message's [`ShareKey`](crate::engine::ShareKey). The
/// `egress_msgs` counter is untouched: it has only ever counted batches.
pub fn broadcast<W: GameWorld>(
    st: &mut PipelineState<W>,
    msg: ToClient<W::Action>,
    out: &mut Vec<(ClientId, ToClient<W::Action>)>,
) {
    for i in 0..st.num_clients() {
        if i == 0 {
            st.metrics.stage.frames_encoded += 1;
        } else {
            st.metrics.stage.frames_reused += 1;
        }
        out.push((ClientId(i as u16), msg.clone()));
    }
}

/// Wrap the assembled items into a batch, charge the egress traffic and
/// frame counters, and hand the message off. `reused` marks a batch whose
/// item vector (and hence wire frame) is shared with an earlier message
/// this cycle.
fn finish<W: GameWorld>(
    st: &mut PipelineState<W>,
    client: ClientId,
    items: Shared<Vec<Item<W::Action>>>,
    reused: bool,
    out: &mut Vec<(ClientId, ToClient<W::Action>)>,
) {
    let msg = ToClient::Batch { items };
    st.metrics.stage.egress_msgs += 1;
    if reused {
        st.metrics.stage.frames_reused += 1;
    } else {
        st.metrics.stage.frames_encoded += 1;
    }
    out.push((client, msg));
}
