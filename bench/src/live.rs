//! Mode `live`: the real `rt::run_server_with` over loopback TCP, loaded by
//! one generator thread that multiplexes every client.
//!
//! The server runs untouched on its own thread (supervised sessions, default
//! `SessionParams`, its own acceptor, reader and drain threads). Each client
//! is a real `SeveClient` behind the real `SupervisedClientTransport`; only
//! the bottom of the stack is the benchmark's: [`NbTransport`], a
//! non-blocking framed socket, so that one thread can serve all clients
//! instead of 2·N threads fighting the server for two cores.
//!
//! The load is open-loop: client `c`'s `k`-th move is due at
//! `t0 + stagger_c + k·period` whatever happened before; `submit` is stamped
//! with the *due* time, so response times include any time a move waited for
//! the generator, and how late the generator ran is itself reported.

use crate::calib::Calibrator;
use crate::counters::Counters;
use crate::direct::{stagger_us, up_action_id};
use crate::procfs;
use crate::rep::{LiveFacts, Rep, Replicas, WireTotals};
use crate::trace::{Layer, Meter, Side};
use serde::de::DeserializeOwned;
use serde::Serialize;
use seve_core::engine::ClientNode;
use seve_core::msg::{ToClient, ToServer};
use seve_core::{PipelineServer, ProtocolConfig, SeveClient};
use seve_driver::{
    session_token, ClientEvent, ClientTransport, SessionDown, SessionParams, SessionUp,
    SupervisedClientTransport,
};
use seve_net::time::SimTime;
use seve_rt::frame::{encode_frame_into, write_msg, FrameError, MAX_FRAME};
use seve_rt::server::{RtDown, RtUp};
use seve_rt::wire;
use seve_world::ids::{ActionId, ClientId};
use seve_world::worlds::Workload;
use seve_world::{Action, GameWorld};
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The timing and size of one live rep.
#[derive(Clone, Debug)]
pub struct LiveParams {
    pub moves: u32,
    pub move_period: Duration,
    /// The server's tick and push period.
    pub cycle: Duration,
    /// How long past its last move a client waits for stragglers before it
    /// says goodbye regardless.
    pub drain: Duration,
    /// Seeds the stagger of the clients' move timers.
    pub seed: u64,
}

/// Longest the generator sleeps when a sweep found nothing to do.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Reassembles length-prefixed frames from a byte stream that may deliver
/// them in any fragmentation.
#[derive(Default)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    /// First unconsumed byte; frames are handed out as slices of `buf`, so
    /// consumed bytes are dropped lazily, on the next `extend`.
    start: usize,
}

impl FrameAccumulator {
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The payload of the next complete frame, if one has fully arrived.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let live = &self.buf[self.start..];
        let Some(prefix) = live.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(FrameError::Oversize(len));
        }
        if live.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.start + 4;
        self.start = payload + len;
        Ok(Some(&self.buf[payload..payload + len]))
    }
}

/// What the generator and its transports share: the stopwatches and spans,
/// the traffic totals, and the causal links between harness-level and
/// transport-level spans.
struct Shared {
    meter: Meter,
    wire: WireTotals,
    /// Span to name as the parent of the next frame written.
    cause: u32,
    /// Span of the latest frame decoded, parent of the `deliver` it feeds.
    last_decode: u32,
}

type Up<A> = SessionUp<ToServer<A>>;
type Down<A> = SessionDown<ToClient<A>>;

/// The bottom of a client's transport stack: `RtUp`/`RtDown` envelopes in
/// length-prefixed frames over a non-blocking socket. `recv` never waits.
struct NbTransport<A> {
    stream: TcpStream,
    inbound: FrameAccumulator,
    outbound: Vec<u8>,
    shared: Rc<RefCell<Shared>>,
    _action: PhantomData<A>,
}

impl<A: Action + Serialize> NbTransport<A> {
    /// Write the frame in `outbound`, spinning through `WouldBlock` (up
    /// traffic is a few hundred bytes a move; the socket buffer absorbs it).
    fn flush_outbound(&mut self) -> Result<(), FrameError> {
        let mut rest = &self.outbound[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(FrameError::Closed),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        Ok(())
    }

    fn send_envelope(
        &mut self,
        envelope: &RtUp<Up<A>>,
        id: Option<ActionId>,
    ) -> Result<u64, FrameError> {
        self.outbound.clear();
        let t0 = Instant::now();
        encode_frame_into(envelope, &mut self.outbound)?;
        let t1 = Instant::now();
        self.flush_outbound()?;
        let t2 = Instant::now();
        let mut sh = self.shared.borrow_mut();
        let cause = sh.cause;
        let span = sh.meter.record(Layer::UpEncode, t0, t1, cause, id);
        sh.meter.record(Layer::FrameWrite, t1, t2, span, id);
        sh.wire.up_msgs += 1;
        sh.wire.up_bytes += self.outbound.len() as u64;
        Ok(self.outbound.len() as u64)
    }
}

impl<A> ClientTransport<Up<A>, Down<A>> for NbTransport<A>
where
    A: Action + Serialize + DeserializeOwned,
{
    type Error = FrameError;

    fn recv(&mut self, _timeout: Duration) -> Result<ClientEvent<Down<A>>, FrameError> {
        let mut socket_drained = false;
        loop {
            let t0 = Instant::now();
            if let Some(payload) = self.inbound.next_frame()? {
                let bytes = payload.len() as u64 + 4;
                let envelope: RtDown<Down<A>> = wire::from_bytes(payload)?;
                let t1 = Instant::now();
                return Ok(match envelope {
                    RtDown::Stop => ClientEvent::Stop,
                    RtDown::Msg(m) => {
                        let mut sh = self.shared.borrow_mut();
                        sh.last_decode = sh.meter.record(Layer::DownDecode, t0, t1, 0, None);
                        sh.wire.down_msgs += 1;
                        sh.wire.down_bytes += bytes;
                        ClientEvent::Msg(m)
                    }
                });
            }
            if socket_drained {
                return Ok(ClientEvent::Timeout);
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(ClientEvent::Closed),
                Ok(n) => {
                    self.inbound.extend(&chunk[..n]);
                    socket_drained = n < chunk.len();
                    // Only reads that moved bytes are the frame layer's
                    // work; empty polls are the multiplexing's own cost.
                    let mut sh = self.shared.borrow_mut();
                    sh.meter
                        .record(Layer::FrameRead, t0, Instant::now(), 0, None);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ClientEvent::Timeout),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    fn send(&mut self, msg: Up<A>) -> Result<u64, FrameError> {
        let id = match &msg {
            SessionUp::Msg(m) => Some(up_action_id(m)),
            _ => None,
        };
        self.send_envelope(&RtUp::Msg(msg), id)
    }

    fn finish(&mut self) -> Result<u64, FrameError> {
        self.send_envelope(&RtUp::Bye, None)
    }
}

/// A client's whole transport stack: the real session layer over the
/// benchmark's socket.
type Stack<A> = SupervisedClientTransport<NbTransport<A>, ToServer<A>, ToClient<A>>;

/// One multiplexed client: the real engine over the real session layer.
struct Seat<W: GameWorld> {
    engine: SeveClient<W>,
    transport: Stack<W::Action>,
    next_due: Instant,
    moves_left: u32,
    said_bye: bool,
    stopped: bool,
}

/// Run one rep: start the server, connect every client (timed as set-up),
/// offer the whole workload, drain, and collect both sides' reports.
pub fn run_rep<W>(
    build: &dyn Fn() -> (Arc<W>, Box<dyn Workload<W>>),
    cfg: &ProtocolConfig,
    p: &LiveParams,
    traced: bool,
) -> Rep
where
    W: GameWorld,
    W::Action: Serialize + DeserializeOwned,
{
    let mut calib = Calibrator::start();
    let session = SessionParams::default();
    let epoch = Instant::now();
    let sim = |t: Instant| SimTime((t - epoch).as_micros() as u64);

    // Set-up: world, engines, bind, connect, hello.
    let (world, mut workload) = build();
    let n = world.num_clients();
    let digest = world.initial_state().digest();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let engine = PipelineServer::new(Arc::clone(&world), cfg.clone());
    let cycle = p.cycle;
    let server = std::thread::Builder::new()
        .name("bench-server".into())
        .spawn(move || {
            seve_rt::run_server_with::<W, _>(engine, listener, n, cycle, cycle, digest, session)
        })
        .expect("spawn server thread");
    let shared = Rc::new(RefCell::new(Shared {
        meter: Meter::new(traced),
        wire: WireTotals::default(),
        cause: 0,
        last_decode: 0,
    }));
    let mut seats: Vec<Seat<W>> = (0..n)
        .map(|c| {
            let id = ClientId(c as u16);
            let mut stream = TcpStream::connect(addr).expect("connect to server");
            stream.set_nodelay(true).expect("set_nodelay");
            let hello = RtUp::<Up<W::Action>>::Hello {
                client: id.0,
                world_digest: digest,
                token: session_token(session.seed, id),
            };
            write_msg(&mut stream, &hello).expect("hello");
            stream.set_nonblocking(true).expect("set_nonblocking");
            let inner = NbTransport {
                stream,
                inbound: FrameAccumulator::default(),
                outbound: Vec::new(),
                shared: Rc::clone(&shared),
                _action: PhantomData,
            };
            Seat {
                engine: SeveClient::new(id, Arc::clone(&world), cfg),
                transport: SupervisedClientTransport::new(inner, id, session),
                next_due: epoch,
                moves_left: p.moves,
                said_bye: false,
                stopped: false,
            }
        })
        .collect();
    let setup_s = epoch.elapsed().as_secs_f64();

    // The server seats the connections on its own threads; give it a
    // moment so the first moves do not queue behind the handshakes.
    let t0 = Instant::now() + Duration::from_millis(100);
    let period_us = p.move_period.as_micros() as u64;
    let mut last_due = t0;
    for (c, seat) in seats.iter_mut().enumerate() {
        seat.next_due = t0 + Duration::from_micros(stagger_us(p.seed, c, period_us));
        last_due = last_due.max(seat.next_due + p.move_period * p.moves.saturating_sub(1));
    }
    let drain_deadline = last_due + p.drain;
    let give_up = drain_deadline + Duration::from_secs(10);

    let mut live = LiveFacts::default();
    let mut up_out: Vec<ToServer<W::Action>> = Vec::new();
    let mut next_proc_sample = Instant::now();
    let excluded_before = calib.excluded();
    let (user_before, sys_before) = procfs::process_cpu();
    let thread_before = procfs::thread_cpu_s();
    let loop_start = Instant::now();

    while seats.iter().any(|s| !s.stopped) {
        let sweep_start = Instant::now();
        let mut worked = false;
        for (c, seat) in seats.iter_mut().enumerate() {
            if seat.stopped {
                continue;
            }
            let now = Instant::now();
            if seat.moves_left > 0 && now >= seat.next_due {
                let due = seat.next_due;
                live.late_ms.push((now - due).as_secs_f64() * 1e3);
                let seq = seat.engine.next_seq();
                let t0 = Instant::now();
                let action = workload.next_action(
                    ClientId(c as u16),
                    seq,
                    seat.engine.optimistic(),
                    sim(due).as_ms(),
                );
                let t1 = Instant::now();
                let id = action.as_ref().map(|a| a.id());
                let span = shared
                    .borrow_mut()
                    .meter
                    .record(Layer::WorldGen, t0, t1, 0, id);
                if let Some(action) = action {
                    let t0 = Instant::now();
                    seat.engine.submit(sim(due), action, &mut up_out);
                    let t1 = Instant::now();
                    let mut sh = shared.borrow_mut();
                    sh.cause = sh.meter.record(Layer::ClientSubmit, t0, t1, span, id);
                    drop(sh);
                    for m in up_out.drain(..) {
                        seat.transport.send(m).expect("send submit");
                    }
                }
                seat.next_due += p.move_period;
                seat.moves_left -= 1;
                worked = true;
            }
            loop {
                // Acks the session layer sends from inside `recv` have no
                // harness-level cause.
                shared.borrow_mut().cause = 0;
                match seat.transport.recv(Duration::ZERO).expect("client recv") {
                    ClientEvent::Msg(msg) => {
                        let t0 = Instant::now();
                        seat.engine.deliver(sim(t0), msg, &mut up_out);
                        let t1 = Instant::now();
                        let mut sh = shared.borrow_mut();
                        let parent = sh.last_decode;
                        sh.cause = sh.meter.record(Layer::ClientDeliver, t0, t1, parent, None);
                        drop(sh);
                        for m in up_out.drain(..) {
                            seat.transport.send(m).expect("send completion");
                        }
                        worked = true;
                    }
                    ClientEvent::Stop | ClientEvent::Closed => {
                        seat.stopped = true;
                        break;
                    }
                    ClientEvent::Timeout => break,
                }
            }
            if !seat.said_bye
                && !seat.stopped
                && seat.moves_left == 0
                && (seat.engine.pending_len() == 0 || Instant::now() >= drain_deadline)
            {
                shared.borrow_mut().cause = 0;
                seat.transport.finish().expect("send goodbye");
                seat.said_bye = true;
            }
        }
        let sweep_end = Instant::now();
        if worked {
            live.sweep_us
                .push((sweep_end - sweep_start).as_secs_f64() * 1e6);
        }
        if sweep_end >= give_up {
            break;
        }
        calib.poll(sweep_end);
        if sweep_end >= next_proc_sample {
            live.threads_peak = live.threads_peak.max(procfs::threads());
            live.fds_peak = live.fds_peak.max(procfs::fds());
            next_proc_sample = sweep_end + Duration::from_millis(500);
        }
        if !worked {
            let next_due = seats
                .iter()
                .filter(|s| s.moves_left > 0)
                .map(|s| s.next_due)
                .min();
            let nap = next_due.map_or(IDLE_SLEEP, |d| {
                d.saturating_duration_since(Instant::now()).min(IDLE_SLEEP)
            });
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    }
    let excluded = calib.excluded() - excluded_before;
    let loop_wall_s = (loop_start.elapsed() - excluded).as_secs_f64();

    // Tear down: close every socket, then collect the server's report.
    let replicas = Replicas::collect(seats.iter_mut().map(|s| &mut s.engine));
    let mut client_metrics = Vec::new();
    let mut client_sessions = Vec::new();
    for mut seat in seats {
        client_sessions.push(seat.transport.session_stats());
        client_metrics.push(std::mem::take(seat.engine.metrics_mut()));
    }
    let report = server
        .join()
        .expect("server thread panicked")
        .expect("server session failed");
    let (user_after, sys_after) = procfs::process_cpu();
    let thread_cpu_s = procfs::thread_cpu_s() - thread_before;
    let (user_s, sys_s) = (user_after - user_before, sys_after - sys_before);
    let process_cpu_s = user_s + sys_s;
    live.generator_cpu_s = thread_cpu_s - excluded.as_secs_f64();
    live.sys_share = sys_s / process_cpu_s;

    let counters = Counters::read(&report.metrics, &client_metrics, client_sessions);
    let shared = Rc::into_inner(shared)
        .expect("transports are gone")
        .into_inner();
    let mut wire = shared.wire;
    wire.frames_encoded = counters.frames_encoded;
    wire.frames_shared = counters.frames_reused;
    let side = |s| shared.meter.side_ns(s) as f64 / 1e9;
    Rep {
        counters,
        replicas,
        wire,
        setup_s,
        loop_wall_s,
        // Both terms include the calibration slices, which cancel.
        server_s: process_cpu_s - thread_cpu_s,
        client_s: side(Side::Client),
        generator_s: side(Side::Generator),
        busy_s: process_cpu_s - excluded.as_secs_f64(),
        calib_slices_ns: calib.into_slices(),
        eval_calib_ns: 0.0,
        spans: shared.meter.into_spans(),
        live: Some(live),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn accumulator_survives_one_byte_reads() {
        let mut stream = frame(b"hello");
        stream.extend(frame(b""));
        stream.extend(frame(&[7u8; 300]));
        let mut acc = FrameAccumulator::default();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for b in &stream {
            acc.extend(std::slice::from_ref(b));
            while let Some(p) = acc.next_frame().unwrap() {
                got.push(p.to_vec());
            }
        }
        assert_eq!(got, vec![b"hello".to_vec(), vec![], vec![7u8; 300]]);
        assert!(acc.next_frame().unwrap().is_none());
    }

    #[test]
    fn accumulator_splits_back_to_back_frames() {
        let mut stream = Vec::new();
        for i in 0..50u8 {
            stream.extend(frame(&vec![i; usize::from(i)]));
        }
        // Everything in one read, plus the first 3 bytes of another frame.
        stream.extend_from_slice(&frame(b"tail")[..3]);
        let mut acc = FrameAccumulator::default();
        acc.extend(&stream);
        for i in 0..50u8 {
            assert_eq!(acc.next_frame().unwrap().unwrap(), vec![i; usize::from(i)]);
        }
        assert!(acc.next_frame().unwrap().is_none(), "partial prefix waits");
        acc.extend(&frame(b"tail")[3..]);
        assert_eq!(acc.next_frame().unwrap().unwrap(), b"tail");
    }

    #[test]
    fn accumulator_rejects_a_lying_length_prefix() {
        let mut acc = FrameAccumulator::default();
        acc.extend(&u32::MAX.to_le_bytes());
        assert!(matches!(acc.next_frame(), Err(FrameError::Oversize(_))));
    }

    #[test]
    fn accumulator_reclaims_consumed_bytes() {
        let mut acc = FrameAccumulator::default();
        let big = frame(&[1u8; 100 * 1024]);
        for _ in 0..4 {
            acc.extend(&big);
            assert_eq!(acc.next_frame().unwrap().unwrap().len(), 100 * 1024);
        }
        assert!(acc.buf.len() <= big.len(), "consumed frames do not pile up");
    }
}
