//! Mode `direct`: one thread drives the server engine and every client
//! engine through a virtual-time event loop.
//!
//! Client move timers fire every `move_period` (staggered from the seed),
//! every message takes a constant one-way `latency`, the server ticks every
//! τ and pushes every ω·RTT, and the loop runs `drain` of virtual time past
//! the last move. Every message really crosses the codec —
//! `encode_frame_into` → bytes → `from_bytes` — with an encode-once frame
//! cache keyed on `ShareKey`, exactly as the TCP transport's fan-out keeps.
//! No sockets, no session envelopes. The work is a pure function of the
//! inputs, so counts repeat exactly and wall time is pure CPU.

use crate::calib::Calibrator;
use crate::counters::Counters;
use crate::rep::{Rep, Replicas, WireTotals};
use crate::trace::{Layer, Meter, Side};
use crate::vtime::EventQueue;
use serde::de::DeserializeOwned;
use serde::Serialize;
use seve_core::engine::{ClientNode, ProtocolSuite, ServerNode, ShareId, ShareKey};
use seve_core::msg::{ToClient, ToServer};
use seve_core::{ProtocolConfig, SeveSuite};
use seve_net::time::SimTime;
use seve_rt::frame::encode_frame_into;
use seve_rt::wire::{self, BufferPool};
use seve_world::ids::{ActionId, ClientId};
use seve_world::worlds::Workload;
use seve_world::{Action, GameWorld};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The timing and size of one direct rep.
#[derive(Clone, Debug)]
pub struct DirectParams {
    pub moves: u32,
    pub move_period_us: u64,
    pub drain_us: u64,
    /// Seeds the stagger of the clients' move timers.
    pub seed: u64,
}

/// The same mixer the session layer uses; gives each client an independent
/// draw from the seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Client `c`'s offset into the first move period.
pub fn stagger_us(seed: u64, c: usize, period_us: u64) -> u64 {
    splitmix64(seed ^ (c as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)) % period_us.max(1)
}

enum Ev {
    Move(usize),
    Up {
        from: usize,
        frame: Vec<u8>,
        cause: u32,
    },
    Down {
        to: usize,
        frame: Arc<Vec<u8>>,
        cause: u32,
    },
    Tick,
    Push,
}

pub fn up_action_id<A: Action>(m: &ToServer<A>) -> ActionId {
    match m {
        ToServer::Submit { action } => action.id(),
        ToServer::Completion { id, .. } => *id,
    }
}

fn down_action_id<A>(m: &ToClient<A>) -> Option<ActionId> {
    match m {
        ToClient::Dropped { id, .. } => Some(*id),
        ToClient::Batch { .. } | ToClient::GcUpTo { .. } => None,
    }
}

struct Loop<W: GameWorld> {
    server: <SeveSuite as ProtocolSuite<W>>::Server,
    clients: Vec<<SeveSuite as ProtocolSuite<W>>::Client>,
    queue: EventQueue<Ev>,
    meter: Meter,
    wire: WireTotals,
    pool: BufferPool,
    latency_us: u64,
    up_out: Vec<ToServer<W::Action>>,
    down_out: Vec<(ClientId, ToClient<W::Action>)>,
    cache: HashMap<ShareId, Arc<Vec<u8>>>,
    staged: Vec<(usize, Arc<Vec<u8>>)>,
}

impl<W> Loop<W>
where
    W: GameWorld,
    W::Action: Serialize + DeserializeOwned,
{
    /// Client side: frame every message `up_out` holds and put it on the
    /// wire to the server.
    fn send_ups(&mut self, now_us: u64, from: usize, cause: u32) {
        for msg in self.up_out.drain(..) {
            let mut frame = self.pool.take();
            let t0 = Instant::now();
            encode_frame_into(&msg, &mut frame).expect("up frame encodes");
            let t1 = Instant::now();
            let id = up_action_id(&msg);
            let span = self.meter.record(Layer::UpEncode, t0, t1, cause, Some(id));
            self.wire.up_msgs += 1;
            self.wire.up_bytes += frame.len() as u64;
            self.queue.schedule(
                now_us + self.latency_us,
                Ev::Up {
                    from,
                    frame,
                    cause: span,
                },
            );
        }
    }

    /// Server side: the encode-once egress. Each distinct payload of the
    /// batch in `down_out` is framed once; messages reporting the same
    /// `ShareKey` share the frame.
    fn send_downs(&mut self, now_us: u64, cause: u32) {
        if self.down_out.is_empty() {
            return;
        }
        let t0 = Instant::now();
        for (dest, msg) in &self.down_out {
            let wire = &mut self.wire;
            let pool = &mut self.pool;
            let mut encode = || {
                let mut buf = pool.take();
                encode_frame_into(msg, &mut buf).expect("down frame encodes");
                wire.frames_encoded += 1;
                Arc::new(buf)
            };
            let frame = match msg.share_key() {
                None => encode(),
                Some(key) => match self.cache.entry(key) {
                    Entry::Vacant(slot) => Arc::clone(slot.insert(encode())),
                    Entry::Occupied(hit) => {
                        wire.frames_shared += 1;
                        Arc::clone(hit.get())
                    }
                },
            };
            wire.down_msgs += 1;
            wire.down_bytes += frame.len() as u64;
            self.staged.push((dest.index(), frame));
        }
        // The cache's references must go before delivery, or no frame
        // would ever be unique again and the pool would never refill.
        self.cache.clear();
        let t1 = Instant::now();
        let span = self.meter.record(Layer::DownEncode, t0, t1, cause, None);
        self.down_out.clear();
        for (to, frame) in self.staged.drain(..) {
            self.queue.schedule(
                now_us + self.latency_us,
                Ev::Down {
                    to,
                    frame,
                    cause: span,
                },
            );
        }
    }

    fn on_up(&mut self, now_us: u64, from: usize, frame: Vec<u8>, cause: u32) {
        let t0 = Instant::now();
        let msg: ToServer<W::Action> = wire::from_bytes(&frame[4..]).expect("up frame decodes");
        let t1 = Instant::now();
        self.pool.put(frame);
        let id = up_action_id(&msg);
        let span = self.meter.record(Layer::UpDecode, t0, t1, cause, Some(id));
        let t0 = Instant::now();
        self.server.deliver(
            SimTime(now_us),
            ClientId(from as u16),
            msg,
            &mut self.down_out,
        );
        let t1 = Instant::now();
        let span = self
            .meter
            .record(Layer::ServerDeliver, t0, t1, span, Some(id));
        self.send_downs(now_us, span);
    }

    fn on_down(&mut self, now_us: u64, to: usize, frame: Arc<Vec<u8>>, cause: u32) {
        let t0 = Instant::now();
        let msg: ToClient<W::Action> = wire::from_bytes(&frame[4..]).expect("down frame decodes");
        let t1 = Instant::now();
        if let Ok(buf) = Arc::try_unwrap(frame) {
            self.pool.put(buf);
        }
        let id = down_action_id(&msg);
        let span = self.meter.record(Layer::DownDecode, t0, t1, cause, id);
        let t0 = Instant::now();
        self.clients[to].deliver(SimTime(now_us), msg, &mut self.up_out);
        let t1 = Instant::now();
        let span = self.meter.record(Layer::ClientDeliver, t0, t1, span, id);
        self.send_ups(now_us, to, span);
    }

    fn on_cycle(&mut self, now_us: u64, layer: Layer) {
        let t0 = Instant::now();
        match layer {
            Layer::ServerTick => self.server.tick(SimTime(now_us), &mut self.down_out),
            _ => self.server.push_tick(SimTime(now_us), &mut self.down_out),
        };
        let t1 = Instant::now();
        let span = self.meter.record(layer, t0, t1, 0, None);
        self.send_downs(now_us, span);
    }
}

/// Actions sampled for `world.eval_calib_ns`.
const EVAL_SAMPLES: usize = 1000;

/// Run one rep: build a fresh world and engines (timed as set-up), drive
/// them through the whole workload, then check the outcome.
pub fn run_rep<W>(
    build: &dyn Fn() -> (Arc<W>, Box<dyn Workload<W>>),
    cfg: &ProtocolConfig,
    p: &DirectParams,
    traced: bool,
) -> Rep
where
    W: GameWorld,
    W::Action: Serialize + DeserializeOwned,
{
    let mut calib = Calibrator::start();
    let t_setup = Instant::now();
    let (world, mut workload) = build();
    let (server, clients) = SeveSuite::new(cfg.clone()).build(Arc::clone(&world));
    let setup_s = t_setup.elapsed().as_secs_f64();

    let n = clients.len();
    let mut lp: Loop<W> = Loop {
        server,
        clients,
        queue: EventQueue::new(),
        meter: Meter::new(traced),
        wire: WireTotals::default(),
        pool: BufferPool::new(),
        latency_us: cfg.rtt.0 / 2,
        up_out: Vec::new(),
        down_out: Vec::new(),
        cache: HashMap::new(),
        staged: Vec::new(),
    };
    let tick_us = cfg.tick.0;
    let push_us = cfg.push_period().0;
    let mut last_move_us = 0;
    for c in 0..n {
        let first = stagger_us(p.seed, c, p.move_period_us);
        lp.queue.schedule(first, Ev::Move(c));
        last_move_us =
            last_move_us.max(first + u64::from(p.moves.saturating_sub(1)) * p.move_period_us);
    }
    lp.queue.schedule(tick_us, Ev::Tick);
    lp.queue.schedule(push_us, Ev::Push);
    let hard_end_us = last_move_us + p.drain_us;
    let mut moves_left = vec![p.moves; n];
    let sample_every = (n * p.moves as usize / EVAL_SAMPLES).max(1);
    let mut eval_samples: Vec<W::Action> = Vec::new();
    let mut generated = 0usize;

    let excluded_before = calib.excluded();
    let loop_start = Instant::now();
    while let Some((now_us, ev)) = lp.queue.pop() {
        if now_us > hard_end_us {
            break;
        }
        match ev {
            Ev::Move(c) => {
                let seq = lp.clients[c].next_seq();
                let t0 = Instant::now();
                let action = workload.next_action(
                    ClientId(c as u16),
                    seq,
                    lp.clients[c].optimistic(),
                    now_us / 1000,
                );
                let t1 = Instant::now();
                let id = action.as_ref().map(|a| a.id());
                let span = lp.meter.record(Layer::WorldGen, t0, t1, 0, id);
                if let Some(action) = action {
                    if traced && generated.is_multiple_of(sample_every) {
                        eval_samples.push(action.clone());
                    }
                    generated += 1;
                    let t0 = Instant::now();
                    lp.clients[c].submit(SimTime(now_us), action, &mut lp.up_out);
                    let t1 = Instant::now();
                    let span = lp.meter.record(Layer::ClientSubmit, t0, t1, span, id);
                    lp.send_ups(now_us, c, span);
                }
                moves_left[c] -= 1;
                if moves_left[c] > 0 {
                    lp.queue.schedule(now_us + p.move_period_us, Ev::Move(c));
                }
            }
            Ev::Up { from, frame, cause } => lp.on_up(now_us, from, frame, cause),
            Ev::Down { to, frame, cause } => lp.on_down(now_us, to, frame, cause),
            Ev::Tick => {
                lp.on_cycle(now_us, Layer::ServerTick);
                lp.queue.schedule(now_us + tick_us, Ev::Tick);
            }
            Ev::Push => {
                lp.on_cycle(now_us, Layer::ServerPush);
                lp.queue.schedule(now_us + push_us, Ev::Push);
            }
        }
        calib.poll(Instant::now());
    }
    let loop_wall_s = (loop_start.elapsed() - (calib.excluded() - excluded_before)).as_secs_f64();

    // Outcome checks and counter reads, outside every stopwatch.
    let replicas = Replicas::collect(&mut lp.clients);
    let counters = Counters::read(
        lp.server.metrics(),
        lp.clients.iter().map(|c| c.metrics()),
        [],
    );
    let eval_calib_ns = if eval_samples.is_empty() {
        0.0
    } else {
        let state = world.initial_state();
        let t = Instant::now();
        for a in &eval_samples {
            black_box(a.evaluate(world.env(), &state));
        }
        t.elapsed().as_nanos() as f64 / eval_samples.len() as f64
    };

    let side = |s| lp.meter.side_ns(s) as f64 / 1e9;
    Rep {
        counters,
        replicas,
        wire: lp.wire,
        setup_s,
        loop_wall_s,
        server_s: side(Side::Server),
        client_s: side(Side::Client),
        generator_s: side(Side::Generator),
        busy_s: loop_wall_s,
        calib_slices_ns: calib.into_slices(),
        eval_calib_ns,
        spans: lp.meter.into_spans(),
        live: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stagger_is_seeded_and_inside_the_period() {
        let a: Vec<u64> = (0..64).map(|c| stagger_us(7, c, 300_000)).collect();
        let b: Vec<u64> = (0..64).map(|c| stagger_us(7, c, 300_000)).collect();
        let other: Vec<u64> = (0..64).map(|c| stagger_us(8, c, 300_000)).collect();
        assert_eq!(a, b, "same seed, same stagger");
        assert_ne!(a, other, "another seed, another stagger");
        assert!(a.iter().all(|&s| s < 300_000));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 60, "clients are spread over the period");
    }
}
