//! Serialize stage: commit-order installs into ζ_S (Algorithm 5 step 5)
//! and garbage-collection notices.
//!
//! Completions may arrive out of order; each is held on its queue entry
//! until the whole prefix below it is ready, then the ready prefix installs
//! into the authoritative state in one sweep. Dropped entries (Algorithm 7)
//! commit as no-ops when they reach the front.

use crate::msg::ToClient;
use crate::pipeline::{egress, state::PipelineState};
use seve_world::action::Outcome;
use seve_world::ids::{ClientId, QueuePos};
use seve_world::state::WriteLog;
use seve_world::GameWorld;

/// Record a completion for `pos`: hold it until ζ_S(pos − 1) is available,
/// then install in order. Returns whether `last_committed` advanced.
pub fn on_completion<W: GameWorld>(
    st: &mut PipelineState<W>,
    pos: QueuePos,
    writes: WriteLog,
    aborted: bool,
) -> bool {
    let Some(entry) = st.queue.get_mut(pos) else {
        // Already installed (redundant completion after commit): fine.
        return false;
    };
    let outcome = if aborted {
        Outcome::abort()
    } else {
        Outcome::ok(writes)
    };
    if let Some(existing) = &entry.completion {
        // Redundant completions must agree — every replica computes the
        // same stable result (Theorem 1).
        debug_assert_eq!(
            existing.digest(),
            outcome.digest(),
            "conflicting completions for pos {pos}"
        );
        return false;
    }
    entry.completion = Some(outcome);
    install_ready(st)
}

/// Does a completion for `pos` write only objects in its queued action's
/// write set? Under the [`Action`](seve_world::Action) contract `WS` bounds
/// what evaluation may write, so anything else is forged. A position no
/// longer queued passes: [`on_completion`] ignores it.
pub(crate) fn writes_declared<W: GameWorld>(
    st: &PipelineState<W>,
    pos: QueuePos,
    writes: &WriteLog,
) -> bool {
    st.queue
        .get(pos)
        .is_none_or(|e| writes.iter().all(|(o, _, _)| e.ws().contains(o)))
}

/// Re-run the install loop (e.g. after a front entry was dropped by
/// Algorithm 7 and now commits as a no-op).
pub fn try_install<W: GameWorld>(st: &mut PipelineState<W>) -> bool {
    install_ready(st)
}

/// Install every ready prefix entry into ζ_S.
fn install_ready<W: GameWorld>(st: &mut PipelineState<W>) -> bool {
    let mut advanced = false;
    while let Some(front) = st.queue.front() {
        if front.dropped {
            // Dropped actions are no-ops: commit and discard.
            let e = st.queue.pop_front().expect("front exists");
            st.last_committed = e.pos;
            advanced = true;
            continue;
        }
        if front.completion.is_some() {
            let e = st.queue.pop_front().expect("front exists");
            let outcome = e.completion.expect("checked above");
            if !outcome.aborted {
                st.zeta_s.apply_writes(&outcome.writes);
                // An object written twice is stamped twice with the same
                // position: the table needs no set of touched objects.
                for (o, _, _) in outcome.writes.iter() {
                    st.committed_version[o.index()] = e.pos;
                }
            }
            st.last_committed = e.pos;
            st.metrics.installed += 1;
            advanced = true;
            continue;
        }
        break;
    }
    advanced
}

/// If enough installs have accumulated, broadcast a GC notice letting
/// clients trim their replay logs (Section III-C memory optimization).
/// Goes through the egress shared-payload broadcast: one notice per GC
/// epoch is built (and, on the wire, encoded) once, not per client.
pub fn maybe_gc_notice<W: GameWorld>(
    st: &mut PipelineState<W>,
    out: &mut Vec<(ClientId, ToClient<W::Action>)>,
) {
    if st.last_committed >= st.last_gc_sent + st.cfg.gc_every {
        st.last_gc_sent = st.last_committed;
        let notice = ToClient::GcUpTo {
            pos: st.last_committed,
        };
        egress::broadcast(st, notice, out);
    }
}
