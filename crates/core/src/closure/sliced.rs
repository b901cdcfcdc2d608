//! Algorithm 6 for every client of a push cycle in one descending pass.
//!
//! [`closure_for`](super::closure_for) walks one client's conflict chain. On
//! a push cycle the recipients of one action share most of that chain, so
//! running the walk once per client re-derives it once per recipient.
//! [`SlicedClosure::run`] turns the loop inside out: the support set `S`
//! of every client is kept *sliced by object* — per object `o` a client
//! bitmask `M[o]`, bit `c` set iff `o ∈ S_c` — and the queue is visited once,
//! newest position first. At a visited, undropped position `q`:
//!
//! ```text
//! need      = cand[q] | OR M[o] over o ∈ WS(q)     who processes q
//! need &  sent(q):  M[o] &= !bits  for o ∈ WS(q)   S ← S \ WS   (already held)
//! need & !sent(q):  M[o] |=  bits  for o ∈ RS(q)   S ← S ∪ RS   (sent now)
//! ```
//!
//! which is the per-client predicate of Algorithm 6 evaluated for 64 clients
//! per word operation. A client's bits first appear at its newest candidate
//! and stop appearing once its support is empty and its candidates are
//! spent, so nothing has to say when a client's walk "starts" or "breaks".
//!
//! **Which positions are visited** comes from the queue's inverted write
//! index, not from a scan: a pending-position bitmap over the queue window is
//! seeded with every candidate, and every *live* object (`M[o] ≠ 0`) keeps
//! one cursor in it, shared by all clients — parked on the object's largest
//! posting below the position where it went live, and moved one posting
//! lower each time its posting is visited while the object stays live
//! (dropped entries are stepped past the same way). An object only leaves
//! the live set at one of its own postings (only `WS(q)` is ever
//! subtracted), which is exactly where its cursor is parked, so a live
//! object always has its next writer pending and a dead one leaves nothing
//! behind: every undropped position the pass visits is processed for at
//! least one client.
//!
//! **Sparse masks.** A mask is one `u64` per 64 clients, but a word loop
//! never runs over all of them: every mask row carries a one-word summary of
//! its non-zero words (bit `w % 64` for word `w`), the visit ORs the
//! summaries first and touches only the words some client is in, and rows
//! are zeroed by the operations that empty them, never wholesale. A sparse
//! world therefore pays per recipient, not per client.
//!
//! **The per-client result** is the transpose: `send` is filled as bits are
//! sent (descending, reversed at the end), `blind_set` is every object whose
//! mask still holds the client, and `scanned` — the length of the linear
//! scan the cost model charges — is reconstructible because that scan stops
//! early only at the last entry it processes, and only if the support is
//! empty there with no candidate left: `newest + 1 − stop`, where `stop` is
//! the lowest position processed for the client if its residue is empty, and
//! the queue head otherwise.

use super::{ActionQueue, ClosureResult};
use seve_world::ids::{ObjectId, QueuePos};
use seve_world::Action;

/// `row_of` value of a position no client has as a candidate, and `slot_of`
/// value of an object with no mask row this cycle.
const NO_ROW: u32 = u32::MAX;

/// The set bits of `word`, lowest first.
#[inline]
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// The mask words a summary word stands for: word `w` is summarised by bit
/// `w % 64`, exact up to 4096 clients and conservative beyond.
#[inline]
fn words_of(summary: u64, words: usize) -> impl Iterator<Item = usize> {
    bits(summary).flat_map(move |b| (b..words).step_by(64))
}

/// Reusable state of the sliced closure pass: everything it allocates is
/// kept across push cycles, and between cycles every mask word is zero.
#[derive(Default)]
pub struct SlicedClosure {
    /// Mask words per row: one per 64 clients.
    words: usize,
    /// Per object id, its row of `mask` this cycle, or [`NO_ROW`]. Sized to
    /// the largest id given a row so far; only the entries of `slot_obj` are
    /// ever set, and [`SlicedClosure::begin`] resets just those.
    slot_of: Vec<u32>,
    /// Row → object.
    slot_obj: Vec<ObjectId>,
    /// `M[o]`: `words` words per object row.
    mask: Vec<u64>,
    /// Per object row, the summary of its non-zero words; non-zero iff the
    /// object is live.
    live: Vec<u64>,
    /// Positions still to visit, one bit per queue entry (offset from the
    /// queue head).
    pending: Vec<u64>,
    /// Per queue entry, its row in `cand`, or [`NO_ROW`].
    row_of: Vec<u32>,
    /// `cand[q]`: the clients that have `q` as a candidate, `words` words
    /// per row, allocated only for positions that are candidates.
    cand: Vec<u64>,
    /// Per `cand` row, the summary of its non-zero words.
    cand_sum: Vec<u64>,
    /// Per client, the lowest position processed for it so far.
    low: Vec<QueuePos>,
    /// Per client, this cycle's result.
    results: Vec<ClosureResult>,
    /// Per visit: rows of the live objects of `WS(q)`.
    ws_rows: Vec<u32>,
    /// Per visit: rows of the objects of `RS(q)`.
    rs_rows: Vec<u32>,
    /// Per visit: the rows of `rs_rows` that were dead before it.
    woken: Vec<u32>,
    /// Per visit: `(word, need, sent)` of every word some client is in.
    need: Vec<(usize, u64, u64)>,
}

impl SlicedClosure {
    /// Fresh state (buffers grow to steady-state sizes on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Run Algorithm 6 for every client at once: `candidates[c]` are client
    /// `c`'s candidate positions — ascending, live and not dropped, as the
    /// route stage selects them. Returns one result per client, each equal
    /// to what [`closure_for`](super::closure_for) returns for that client
    /// alone — `send`, `blind_set`, `scanned` and the `sent` bits left on
    /// the queue — with `visited` counting the positions the client was
    /// processed at.
    pub fn run<A: Action>(
        &mut self,
        queue: &mut ActionQueue<A>,
        candidates: &[Vec<QueuePos>],
    ) -> &[ClosureResult] {
        let ActionQueue {
            entries,
            index,
            next_pos,
        } = queue;
        let first = *next_pos - entries.len() as QueuePos;
        self.begin(candidates.len(), entries.len());
        let words = self.words;
        for (c, cands) in candidates.iter().enumerate() {
            debug_assert!(cands.windows(2).all(|w| w[0] < w[1]));
            for &q in cands {
                debug_assert!(
                    q >= first && q < *next_pos,
                    "candidates must reference live queue entries"
                );
                let off = (q - first) as usize;
                debug_assert!(
                    !entries[off].dropped,
                    "a dropped action is nobody's candidate"
                );
                self.pending[off / 64] |= 1 << (off % 64);
                if self.row_of[off] == NO_ROW {
                    self.row_of[off] = self.cand_sum.len() as u32;
                    self.cand_sum.push(0);
                    self.cand.resize(self.cand.len() + words, 0);
                }
                let row = self.row_of[off] as usize;
                self.cand[row * words + c / 64] |= 1 << (c % 64);
                self.cand_sum[row] |= 1 << (c / 64 % 64);
            }
        }

        // Descending over the pending bitmap. A visit only ever marks
        // positions below itself, so re-reading the current word each round
        // sees every mark.
        let mut wi = self.pending.len();
        while wi > 0 {
            let word = self.pending[wi - 1];
            if word == 0 {
                wi -= 1;
                continue;
            }
            let b = 63 - word.leading_zeros() as usize;
            self.pending[wi - 1] &= !(1 << b);
            let off = (wi - 1) * 64 + b;
            let q = first + off as QueuePos;
            let e = &mut entries[off];
            debug_assert_eq!(e.pos, q);

            // Who processes q. Dropped actions are no-ops — they neither
            // need sending nor supply values — so nobody does, candidate or
            // not; only the cursors parked here move on.
            self.ws_rows.clear();
            let mut summary = 0;
            for o in e.ws().iter() {
                let row = self.slot_of.get(o.index()).copied().unwrap_or(NO_ROW);
                if row != NO_ROW && self.live[row as usize] != 0 {
                    self.ws_rows.push(row);
                    summary |= self.live[row as usize];
                }
            }
            if e.dropped {
                for &row in &self.ws_rows {
                    mark_below(
                        &mut self.pending,
                        index,
                        first,
                        self.slot_obj[row as usize],
                        q,
                    );
                }
                continue;
            }
            let cand_row = self.row_of[off];
            if cand_row != NO_ROW {
                summary |= self.cand_sum[cand_row as usize];
            }
            self.need.clear();
            let mut any_new = false;
            for w in words_of(summary, words) {
                let mut need = match cand_row {
                    NO_ROW => 0,
                    row => self.cand[row as usize * words + w],
                };
                for &row in &self.ws_rows {
                    need |= self.mask[row as usize * words + w];
                }
                if need != 0 {
                    let sent = e.sent.word(w);
                    any_new |= need & !sent != 0;
                    self.need.push((w, need, sent));
                }
            }
            // A candidate has its clients; a cursor is only ever parked by a
            // live object, which stays live down to its next posting.
            debug_assert!(!self.need.is_empty(), "a cursor outlived its object");

            // Rows for RS(q) are only needed — and only created — when q is
            // sent to somebody. Rows that are dead at this point go live
            // below and will need a cursor.
            self.rs_rows.clear();
            self.woken.clear();
            if any_new {
                for o in e.rs().iter() {
                    let row = self.row_for(o);
                    self.rs_rows.push(row);
                    if self.live[row as usize] == 0 {
                        self.woken.push(row);
                    }
                }
            }
            for &(w, need, sent) in &self.need {
                for c in bits(need) {
                    let c = w * 64 + c;
                    self.low[c] = q;
                    self.results[c].visited += 1;
                }
                // Clients that already hold q: its writes satisfy that part
                // of their support.
                let held = need & sent;
                if held != 0 {
                    for &row in &self.ws_rows {
                        let row = row as usize;
                        if self.mask[row * words + w] & held == 0 {
                            continue;
                        }
                        self.mask[row * words + w] &= !held;
                        if (w % 64..words)
                            .step_by(64)
                            .all(|w| self.mask[row * words + w] == 0)
                        {
                            self.live[row] &= !(1 << (w % 64));
                        }
                    }
                }
                // Clients that do not: q is sent, and its reads join their
                // support.
                let new = need & !sent;
                if new != 0 {
                    e.sent.or_word(w, new);
                    for &row in &self.rs_rows {
                        let row = row as usize;
                        self.mask[row * words + w] |= new;
                        self.live[row] |= 1 << (w % 64);
                    }
                    for c in bits(new) {
                        self.results[w * 64 + c].send.push(q);
                    }
                }
            }

            // Cursors: a write-set object that was live above q and still is
            // steps one posting lower; an object that went live here parks
            // below q. (The two lists are disjoint: `ws_rows` were live
            // before the visit, `woken` were not.)
            for &row in &self.ws_rows {
                if self.live[row as usize] != 0 {
                    mark_below(
                        &mut self.pending,
                        index,
                        first,
                        self.slot_obj[row as usize],
                        q,
                    );
                }
            }
            for &row in &self.woken {
                mark_below(
                    &mut self.pending,
                    index,
                    first,
                    self.slot_obj[row as usize],
                    q,
                );
            }
        }

        // Transpose: whatever is left in a mask is that client's residue.
        // Emptying the rows here is what keeps `mask` all-zero between
        // cycles.
        for (row, &o) in self.slot_obj.iter().enumerate() {
            for w in words_of(self.live[row], words) {
                let m = std::mem::take(&mut self.mask[row * words + w]);
                for c in bits(m) {
                    self.results[w * 64 + c].blind_set.insert(o);
                }
            }
        }
        for (c, cands) in candidates.iter().enumerate() {
            let Some(&newest) = cands.last() else {
                continue;
            };
            let r = &mut self.results[c];
            r.send.reverse();
            // Where the linear scan would have stopped: it breaks only at a
            // processed entry that leaves the support empty with no
            // candidate left — the last one processed, every candidate being
            // processed itself — and otherwise walks to the queue head.
            let stop = if r.blind_set.is_empty() {
                self.low[c]
            } else {
                first
            };
            r.scanned = (newest + 1).saturating_sub(stop) as usize;
        }
        &self.results
    }

    /// Size the per-cycle state for `clients` clients over a queue of
    /// `window` entries and forget the previous cycle's.
    fn begin(&mut self, clients: usize, window: usize) {
        debug_assert!(self.mask.iter().all(|&m| m == 0), "a cycle left mask bits");
        self.words = clients.div_ceil(64);
        for o in self.slot_obj.drain(..) {
            self.slot_of[o.index()] = NO_ROW;
        }
        self.live.clear();
        self.pending.clear();
        self.pending.resize(window.div_ceil(64), 0);
        self.row_of.clear();
        self.row_of.resize(window, NO_ROW);
        self.cand.clear();
        self.cand_sum.clear();
        self.low.clear();
        self.low.resize(clients, QueuePos::MAX);
        self.results.resize_with(clients, ClosureResult::default);
        for r in &mut self.results {
            r.send.clear();
            r.blind_set.clear();
            r.scanned = 0;
            r.visited = 0;
        }
    }

    /// The mask row of `o`, created (dead, all-zero) on first use.
    fn row_for(&mut self, o: ObjectId) -> u32 {
        if self.slot_of.len() <= o.index() {
            self.slot_of.resize(o.index() + 1, NO_ROW);
        }
        if self.slot_of[o.index()] == NO_ROW {
            let row = self.slot_obj.len();
            self.slot_obj.push(o);
            self.live.push(0);
            if self.mask.len() < (row + 1) * self.words {
                self.mask.resize((row + 1) * self.words, 0);
            }
            self.slot_of[o.index()] = row as u32;
        }
        self.slot_of[o.index()]
    }
}

/// Park (or step) the shared cursor of `o`: mark its largest posting
/// strictly below `q` pending, if it has one.
#[inline]
fn mark_below(
    pending: &mut [u64],
    index: &[Vec<QueuePos>],
    first: QueuePos,
    o: ObjectId,
    q: QueuePos,
) {
    if let Some(list) = index.get(o.index()) {
        let i = list.partition_point(|&p| p < q);
        if i > 0 {
            let off = (list[i - 1] - first) as usize;
            pending[off / 64] |= 1 << (off % 64);
        }
    }
}
