//! # seve-bench — benchmark harness for the paper's evaluation
//!
//! Two kinds of artifacts live here:
//!
//! * the **`repro` binary** (`cargo run -p seve-bench --release --bin
//!   repro`) — regenerates every table and figure of Section V as text
//!   series (see `EXPERIMENTS.md` for recorded output);
//! * **Criterion benches** (`cargo bench -p seve-bench`) — one bench per
//!   table/figure at reduced scale, plus microbenches for the paper's
//!   in-text cost claims (closure computation ≈0.04 ms per move; move cost
//!   linear in wall count) and ablations (ω sweep, threshold sweep,
//!   interest filtering, velocity culling, grid vs brute-force scans).
//!
//! The library portion provides small shared helpers for the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use seve_sim::experiment::Scale;

/// The scale benches run at (figures are simulations; Criterion measures
/// the wall-clock of regenerating them at reduced size).
pub const BENCH_SCALE: Scale = Scale::Quick;

pub mod replay_fixture {
    //! A reusable out-of-order storm for the client replay benches: a
    //! positioned action stream where every fourth position is delivered
    //! ~twelve positions late — half of the stragglers touching a private
    //! object (the commute fast path applies), half touching the shared
    //! pool (a genuine suffix replay). The same arrival schedule drives the
    //! checkpointed log and the full-rebuild oracle (`interval = 0`), so
    //! the two can be timed and differentially checked back-to-back.

    use seve_core::replay::ReplayLog;
    use seve_world::action::{Action, Influence, Outcome};
    use seve_world::geometry::Vec2;
    use seve_world::ids::{ActionId, AttrId, ClientId, ObjectId, QueuePos};
    use seve_world::objset::ObjectSet;
    use seve_world::state::{WorldState, WriteLog};

    /// Attribute holding each object's counter.
    pub const ATTR: AttrId = AttrId(0);
    /// Size of the shared object pool the in-order stream cycles through.
    pub const POOL: u32 = 24;
    /// Delayed stragglers arrive after this many later positions.
    pub const DELAY: u64 = 12;
    /// The object commuting stragglers write. One suffices: a straggler's
    /// log suffix only ever holds in-order positions (any straggler at a
    /// later position arrives strictly later still), so no commuting
    /// straggler ever finds another in its suffix.
    const PRIVATE: ObjectId = ObjectId(1_000);

    /// A state-dependent increment over a small object set: each object's
    /// counter is read and rewritten, so replay order is observable and
    /// RS = WS ⊇ WS as the paper assumes.
    #[derive(Clone, Debug)]
    pub struct StormAction {
        id: ActionId,
        delta: i64,
        set: ObjectSet,
    }

    impl Action for StormAction {
        type Env = ();
        fn id(&self) -> ActionId {
            self.id
        }
        fn read_set(&self) -> &ObjectSet {
            &self.set
        }
        fn write_set(&self) -> &ObjectSet {
            &self.set
        }
        fn influence(&self) -> Influence {
            Influence::sphere(Vec2::ZERO, 0.0)
        }
        fn evaluate(&self, _env: &(), s: &WorldState) -> Outcome {
            let mut w = WriteLog::new();
            for obj in self.set.iter() {
                let cur = s.attr(obj, ATTR).and_then(|v| v.as_i64()).unwrap_or(0);
                w.push(obj, ATTR, (cur + self.delta).into());
            }
            Outcome::ok(w)
        }
        fn wire_bytes(&self) -> u32 {
            16
        }
    }

    /// Is this position delivered late? One in four — a bursty link.
    fn is_delayed(pos: u64) -> bool {
        pos % 4 == 1
    }

    /// Do the writes of a delayed position stay private (commuting)?
    fn is_commuting(pos: u64) -> bool {
        (pos / 4).is_multiple_of(2)
    }

    /// The action at `pos`. In-order positions increment a run of three
    /// shared-pool objects (avatar-sized write sets); conflicting
    /// stragglers overlap the suffix's pool slice; commuting stragglers
    /// touch the private object nothing in any suffix ever reads.
    fn action_at(pos: u64) -> StormAction {
        let mut set = ObjectSet::new();
        if is_delayed(pos) && is_commuting(pos) {
            set.insert(PRIVATE);
        } else if is_delayed(pos) {
            // Conflict by construction: position pos + 6 (already applied
            // by the time this straggler lands) uses (pos + 6) % POOL.
            set.insert(ObjectId(pos as u32 % POOL));
            set.insert(ObjectId((pos as u32 + 6) % POOL));
        } else {
            for k in 0..3 {
                set.insert(ObjectId((pos as u32 + k) % POOL));
            }
        }
        StormAction {
            id: ActionId::new(ClientId((pos % 7) as u16), pos as u32),
            delta: 1 + (pos % 5) as i64,
            set,
        }
    }

    /// The storm's arrival schedule: positions `1..=len` with every
    /// straggler re-ranked `DELAY` positions later (deterministic — no
    /// randomness, so both variants and every repeat see the same stream).
    pub fn storm(len: usize) -> Vec<(QueuePos, StormAction)> {
        let mut ranked: Vec<(u64, QueuePos)> = (1..=len as u64)
            .map(|p| {
                (
                    if is_delayed(p) {
                        2 * (p + DELAY) + 1
                    } else {
                        2 * p
                    },
                    p,
                )
            })
            .collect();
        ranked.sort_unstable();
        ranked.into_iter().map(|(_, p)| (p, action_at(p))).collect()
    }

    /// The world the storm runs on: every touched object zeroed.
    pub fn initial_state(len: usize) -> WorldState {
        let mut s = WorldState::new();
        for p in 1..=len as u64 {
            for obj in action_at(p).set.iter() {
                s.set_attr(obj, ATTR, 0i64.into());
            }
        }
        s
    }

    /// One insert's result, owned: the stable outcome and whether the
    /// insert was out of order.
    #[derive(Debug, Clone, PartialEq)]
    pub struct InsertResult {
        /// The stable outcome of the inserted action.
        pub outcome: Option<Outcome>,
        /// Did the insert reconcile (out-of-order arrival)?
        pub rebuilt: bool,
    }

    /// Play the whole storm into a fresh log with the given checkpoint
    /// interval (`0` = full-rebuild oracle), returning the log and the
    /// per-insert results for differential comparison.
    pub fn play(
        initial: &WorldState,
        arrivals: &[(QueuePos, StormAction)],
        interval: usize,
    ) -> (ReplayLog<StormAction>, Vec<InsertResult>) {
        let mut log = ReplayLog::new(initial.clone());
        log.set_checkpoint_interval(interval);
        let mut results = Vec::with_capacity(arrivals.len());
        for (pos, a) in arrivals {
            let r = log.insert_action(*pos, a.clone(), |_, a, s, _| a.evaluate(&(), s));
            results.push(InsertResult {
                outcome: r.outcome.cloned(),
                rebuilt: r.rebuilt,
            });
        }
        (log, results)
    }

    /// Play the storm, accumulating the wall-clock spent inside
    /// *out-of-order* inserts only — the reconciliation cost the checkpoint
    /// chain and commute gate attack. The in-order stream costs the same in
    /// both variants and would otherwise drown the comparison.
    pub fn play_reconcile_ns(
        initial: &WorldState,
        arrivals: &[(QueuePos, StormAction)],
        interval: usize,
    ) -> u64 {
        let mut log = ReplayLog::new(initial.clone());
        log.set_checkpoint_interval(interval);
        let mut ns = 0u64;
        for (pos, a) in arrivals {
            let t = std::time::Instant::now();
            let r = log.insert_action(*pos, a.clone(), |_, a, s, _| a.evaluate(&(), s));
            let dt = t.elapsed().as_nanos() as u64;
            if r.rebuilt {
                ns += dt;
            }
        }
        ns
    }
}

pub mod push_fixture {
    //! A reusable bounded-push scenario for the routing benches: a
    //! Manhattan People world with a window of un-pushed queue entries and
    //! a [`SphereRouting`] whose grid tracks every submission — exactly the
    //! state `on_push` sees at the start of an ω·RTT cycle. Candidate
    //! selection is a pure read of this state, so the indexed and linear
    //! selectors can be timed back-to-back on one fixture.

    use seve_core::config::ServerMode;
    use seve_core::pipeline::{ingress, PipelineState, RoutingPolicy, SphereRouting};
    use seve_net::time::SimTime;
    use seve_sim::experiment::paper_protocol;
    use seve_world::ids::{ClientId, QueuePos};
    use seve_world::worlds::manhattan::{ManhattanConfig, ManhattanWorkload, ManhattanWorld};
    use seve_world::worlds::Workload;
    use seve_world::GameWorld;
    use std::sync::Arc;

    /// A server mid-run, one push window of entries queued.
    pub struct PushFixture {
        /// Pipeline state with `window` uncommitted, un-pushed entries.
        pub st: PipelineState<ManhattanWorld>,
        /// Sphere routing whose grid saw every submission.
        pub routing: SphereRouting,
        /// The push horizon (the queue tail).
        pub horizon: QueuePos,
        /// Simulated "now" at the push cycle, after every submission.
        pub now: SimTime,
    }

    /// Build a fixture: `clients` avatars on the Table I Manhattan world,
    /// `window` realistic moves queued and un-pushed.
    pub fn build(clients: usize, window: usize, mode: ServerMode) -> PushFixture {
        // The Table I geometry (1000×1000, clustered spawn) with the wall
        // set dropped: walls only add evaluation cost, and the routing
        // paths under test never look at them.
        let world = Arc::new(ManhattanWorld::new(ManhattanConfig {
            clients,
            walls: 0,
            ..ManhattanConfig::default()
        }));
        let cfg = paper_protocol(mode);
        let mut st = PipelineState::new(world.clone(), cfg.clone());
        let mut routing = SphereRouting::new(world.as_ref(), &cfg);
        let mut wl = ManhattanWorkload::new(&world);
        let mut state = world.initial_state();
        let mut seqs = vec![0u32; clients];
        for i in 0..window {
            let c = ClientId((i % clients) as u16);
            let a = wl.next_action(c, seqs[c.index()], &state, 0).expect("move");
            seqs[c.index()] += 1;
            // Advance the shared view so successive moves differ.
            let out = seve_world::Action::evaluate(&a, world.env(), &state);
            state.apply_writes(&out.writes);
            RoutingPolicy::<ManhattanWorld>::before_enqueue(&mut routing, &mut st, c, &a);
            ingress::admit(&mut st, SimTime(i as u64 * 1_000), a);
        }
        let horizon = st.queue.last_pos().unwrap_or(0);
        let now = SimTime(window as u64 * 1_000 + 10_000);
        PushFixture {
            st,
            routing,
            horizon,
            now,
        }
    }
}
