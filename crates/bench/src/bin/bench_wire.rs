//! `bench_wire` — machine-readable perf trajectory for the encode-once
//! egress data path.
//!
//! Measures, on representative Manhattan People payloads:
//!
//! * per-message encode wall-clock: the allocating `wire::to_bytes` oracle
//!   vs pooled `wire::to_bytes_into` over recycled buffers, both on
//!   never-serialized payloads, and the pooled encode of a new batch over
//!   actions already encoded twice (each action's bytes spliced from its
//!   `Shared` slot);
//! * push-cycle egress wall-clock over real loopback TCP: the oracle
//!   per-message `write_msg` fan-out (encode N times, two syscalls per
//!   frame) vs the pooled shared-payload `fan_out` (encode once, vectored
//!   writes), per fleet size;
//! * the broadcast-frame reuse ratio of a full simulated session (the
//!   logical `frames_encoded`/`frames_reused` counters).
//!
//! Asserts in-process that the pooled encoding is byte-identical to the
//! oracle (including after pool recycling and with spliced action bytes)
//! and that the pool reaches a zero-allocation steady state. Writes
//! `BENCH_wire.json` (or the `--out` path), stamped with the commit it
//! measured. `--smoke` runs a seconds-scale subset for CI. Invoked by
//! `scripts/bench.sh`.

use seve_core::config::ServerMode;
use seve_core::engine::ShareKey;
use seve_core::msg::{Item, Payload, ToClient};
use seve_rt::server::{fan_out, RtDown};
use seve_rt::wire::{self, BufferPool};
use seve_sim::experiment::{paper_protocol, paper_sim, paper_world, run_seve, Scale};
use seve_world::ids::ClientId;
use seve_world::worlds::manhattan::{ManhattanWorkload, MoveAction};
use seve_world::worlds::Workload;
use seve_world::GameWorld;
use std::fmt::Write as _;
use std::io::{Read, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

type Down = ToClient<MoveAction>;

/// Median of the nanosecond samples.
fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// `len` real Manhattan moves, as the items of one broadcast-shaped frame.
fn sample_items(len: usize) -> Vec<Item<MoveAction>> {
    let world = paper_world(16, Scale::Quick);
    let mut wl = ManhattanWorkload::new(&world);
    let mut state = world.initial_state();
    let mut items = Vec::with_capacity(len);
    for i in 0..len {
        let c = ClientId((i % 16) as u16);
        let a = wl
            .next_action(c, (i / 16) as u32, &state, 0)
            .expect("move action");
        let out = seve_world::Action::evaluate(&a, world.env(), &state);
        state.apply_writes(&out.writes);
        items.push(Item::action((i + 1) as u64, a));
    }
    items
}

/// A batch of never-serialized copies of `items`.
fn fresh_batch(items: &[Item<MoveAction>]) -> Down {
    let copies: Vec<Item<MoveAction>> = items
        .iter()
        .map(|it| match &it.payload {
            Payload::Action(a) => Item::action(it.pos, (**a).clone()),
            Payload::Blind(s) => Item::blind(it.pos, (**s).clone()),
        })
        .collect();
    ToClient::Batch {
        items: copies.into(),
    }
}

/// A new batch vector sharing `items`' payloads (and their slots), as each
/// recipient of a push cycle gets.
fn batch_over(items: &[Item<MoveAction>]) -> Down {
    ToClient::Batch {
        items: items.to_vec().into(),
    }
}

/// The commit the tables were taken at, so a checked-in BENCH file names
/// the code it measured (`-dirty`: that commit plus uncommitted changes).
fn source_commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

struct EncodeRow {
    items: usize,
    frame_bytes: usize,
    oracle_ns: u64,
    pooled_ns: u64,
    spliced_ns: u64,
}

struct CycleRow {
    clients: usize,
    msgs_per_cycle: usize,
    oracle_ns: u64,
    pooled_ns: u64,
    writev_batches: u64,
    pool_hits: u64,
    pool_misses: u64,
}

/// Drain a socket until EOF, counting frames by walking the u32 length
/// prefixes. Deliberately does no decoding: the readers only verify frame
/// boundaries, so the measured wall-clock stays sender-side (a decoding
/// reader saturates the host and masks the egress path under test —
/// byte-level identity is already asserted separately).
fn drain_frames(mut stream: TcpStream) -> usize {
    let mut buf = [0u8; 64 * 1024];
    let mut frames = 0usize;
    let mut hdr = [0u8; 4];
    let mut hdr_len = 0usize; // header bytes collected so far
    let mut need = 0usize; // payload bytes left in the current frame
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut i = 0usize;
        while i < n {
            if need > 0 {
                let take = need.min(n - i);
                need -= take;
                i += take;
                if need == 0 {
                    frames += 1;
                }
            } else {
                let take = (4 - hdr_len).min(n - i);
                hdr[hdr_len..hdr_len + take].copy_from_slice(&buf[i..i + take]);
                hdr_len += take;
                i += take;
                if hdr_len == 4 {
                    need = u32::from_le_bytes(hdr) as usize;
                    hdr_len = 0;
                    if need == 0 {
                        frames += 1;
                    }
                }
            }
        }
    }
    assert_eq!(hdr_len, 0, "stream ended inside a length prefix");
    assert_eq!(need, 0, "stream ended inside a frame payload");
    frames
}

/// One egress session: a loopback listener, `n` draining reader threads
/// (each counts its frames until the socket closes), and the accepted
/// writer sockets.
fn egress_session(n: usize) -> (Vec<std::thread::JoinHandle<usize>>, Vec<Option<TcpStream>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    // Accept on a side thread: connecting all n clients first would
    // overflow the listen backlog at large fleets.
    let acceptor = std::thread::spawn(move || {
        let mut writers = Vec::with_capacity(n);
        for _ in 0..n {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            writers.push(Some(stream));
        }
        writers
    });
    let mut readers = Vec::with_capacity(n);
    for _ in 0..n {
        let stream = TcpStream::connect(addr).expect("connect");
        readers.push(std::thread::spawn(move || drain_frames(stream)));
    }
    let writers = acceptor.join().expect("acceptor");
    (readers, writers)
}

/// The pre-pool oracle fan-out: per-message encode (`write_msg`), one lane
/// thread per busy destination — the PR-6 egress path, reproduced here as
/// the baseline under test.
fn oracle_fan_out(writers: &mut [Option<TcpStream>], out: &[(ClientId, Down)]) {
    std::thread::scope(|s| {
        let mut lanes: Vec<Vec<&Down>> = (0..writers.len()).map(|_| Vec::new()).collect();
        for (dest, msg) in out {
            lanes[dest.index()].push(msg);
        }
        for (w, lane) in writers.iter_mut().zip(lanes) {
            let Some(w) = w.as_mut() else { continue };
            if lane.is_empty() {
                continue;
            }
            s.spawn(move || {
                for msg in lane {
                    let payload =
                        wire::to_bytes(&RtDown::Msg((*msg).clone())).expect("oracle encode");
                    w.write_all(&(payload.len() as u32).to_le_bytes())
                        .expect("oracle write");
                    w.write_all(&payload).expect("oracle write");
                    w.flush().expect("oracle flush");
                }
            });
        }
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_wire.json".to_string());

    // --- Byte identity: pooled encoding == to_bytes oracle, with reuse. --
    let pooled_matches_oracle = {
        let mut pool = BufferPool::new();
        let mut ok = true;
        for len in [1usize, 4, 16, 64] {
            let items = sample_items(len);
            let oracle = wire::to_bytes(&fresh_batch(&items)).expect("oracle");
            // Three rounds through the pool: the second runs over a
            // recycled (previously dirtied) buffer and fills the actions'
            // slots, the third splices them.
            for _ in 0..3 {
                let mut buf = pool.take();
                wire::to_bytes_into(&batch_over(&items), &mut buf).expect("pooled");
                ok &= buf == oracle;
                pool.put(buf);
            }
        }
        assert!(ok, "pooled encoding diverged from the to_bytes oracle");
        ok
    };

    // --- Encode throughput: to_bytes (alloc/call) vs pooled buffer, on ---
    // fresh payloads (built outside the stopwatch), then pooled over warm
    // action slots.
    let (encode_lens, encode_iters): (&[usize], usize) = if smoke {
        (&[16], 400)
    } else {
        (&[4, 16, 64], 4000)
    };
    let mut encode_rows = Vec::new();
    for &len in encode_lens {
        let items = sample_items(len);
        let frame_bytes = wire::to_bytes(&fresh_batch(&items)).expect("oracle").len();
        let oracle_ns = median_ns(
            (0..encode_iters)
                .map(|_| {
                    let msg = fresh_batch(&items);
                    let t = Instant::now();
                    std::hint::black_box(wire::to_bytes(&msg).expect("oracle"));
                    t.elapsed().as_nanos() as u64
                })
                .collect(),
        );
        let mut pool = BufferPool::new();
        let mut pooled = |msg: Down| {
            let t = Instant::now();
            let mut buf = pool.take();
            wire::to_bytes_into(&msg, &mut buf).expect("pooled");
            std::hint::black_box(&buf);
            pool.put(buf);
            t.elapsed().as_nanos() as u64
        };
        let pooled_ns = median_ns(
            (0..encode_iters)
                .map(|_| pooled(fresh_batch(&items)))
                .collect(),
        );
        // Two encodes warm every action's slot; each later batch splices.
        pooled(batch_over(&items));
        pooled(batch_over(&items));
        let spliced_ns = median_ns(
            (0..encode_iters)
                .map(|_| pooled(batch_over(&items)))
                .collect(),
        );
        eprintln!(
            "encode items={len} ({frame_bytes} B): oracle {oracle_ns} ns, \
             pooled {pooled_ns} ns ({:.2}x), spliced {spliced_ns} ns",
            oracle_ns as f64 / pooled_ns.max(1) as f64
        );
        encode_rows.push(EncodeRow {
            items: len,
            frame_bytes,
            oracle_ns,
            pooled_ns,
            spliced_ns,
        });
    }

    // --- Push-cycle egress over loopback TCP: oracle vs pooled. ----------
    // Each cycle broadcasts eight shared batches plus one GC notice to
    // every client — the fan-out shape of a busy broadcast push cycle. The
    // oracle encodes every copy; the pooled path encodes each payload once
    // and drains through vectored writes.
    let (fleet_sizes, cycles): (&[usize], usize) = if smoke {
        (&[16], 40)
    } else {
        (&[64, 256, 1024], 100)
    };
    let warmup = 5usize;
    // Distinct batch instances: each is its own shared payload (its own
    // ShareId) within a cycle, like consecutive spans of the queue.
    let batches: Vec<Down> = (0..8).map(|_| fresh_batch(&sample_items(8))).collect();
    let frames_per_client = batches.len() + 1;
    let mut cycle_rows = Vec::new();
    let mut pool_steady_state_zero_alloc = true;
    for &n in fleet_sizes {
        let mut out: Vec<(ClientId, Down)> = Vec::with_capacity(n * frames_per_client);
        for batch in &batches {
            for c in 0..n {
                out.push((ClientId(c as u16), batch.clone()));
            }
        }
        for c in 0..n {
            out.push((ClientId(c as u16), ToClient::GcUpTo { pos: 8 }));
        }
        let msgs_per_cycle = out.len();
        let expected_frames = (warmup + cycles) * frames_per_client;

        // Oracle session.
        let (readers, mut writers) = egress_session(n);
        for _ in 0..warmup {
            oracle_fan_out(&mut writers, &out);
        }
        let t = Instant::now();
        for _ in 0..cycles {
            oracle_fan_out(&mut writers, &out);
        }
        let oracle_ns = t.elapsed().as_nanos() as u64 / cycles as u64;
        drop(writers);
        for r in readers {
            assert_eq!(r.join().expect("reader"), expected_frames, "oracle frames");
        }

        // Pooled session. One persistent drain pool for the whole sweep,
        // exactly as the real transport holds one per session.
        let (readers, mut writers) = egress_session(n);
        let mut pool = BufferPool::new();
        let exec = seve_exec::Executor::new(4);
        let mut writev_batches = 0u64;
        for _ in 0..warmup {
            let (_, b) =
                fan_out(&mut writers, &out, Down::share_key, &mut pool, &exec).expect("fan out");
            writev_batches += b;
        }
        let misses_after_warmup = pool.misses();
        let t = Instant::now();
        for _ in 0..cycles {
            let (_, b) =
                fan_out(&mut writers, &out, Down::share_key, &mut pool, &exec).expect("fan out");
            writev_batches += b;
        }
        let pooled_ns = t.elapsed().as_nanos() as u64 / cycles as u64;
        drop(writers);
        for r in readers {
            assert_eq!(r.join().expect("reader"), expected_frames, "pooled frames");
        }
        // Zero-allocation steady state: once warm, every encode buffer
        // comes from the pool.
        let steady = pool.misses() == misses_after_warmup;
        assert!(steady, "pool kept allocating after warm-up at {n} clients");
        pool_steady_state_zero_alloc &= steady;

        eprintln!(
            "push-cycle clients={n} ({msgs_per_cycle} msgs/cycle): oracle {oracle_ns} ns, \
             pooled {pooled_ns} ns ({:.2}x), {} pool hits / {} misses",
            oracle_ns as f64 / pooled_ns.max(1) as f64,
            pool.hits(),
            pool.misses()
        );
        cycle_rows.push(CycleRow {
            clients: n,
            msgs_per_cycle,
            oracle_ns,
            pooled_ns,
            writev_batches,
            pool_hits: pool.hits(),
            pool_misses: pool.misses(),
        });
    }

    // --- Broadcast reuse ratio over a full simulated session. ------------
    // The logical frames_encoded / frames_reused split is backend-agnostic;
    // the Basic (broadcast) server is the reuse-heavy fixture.
    let fixture_clients = if smoke { 16 } else { 64 };
    let (frames_encoded, frames_reused) = {
        let world = paper_world(fixture_clients, Scale::Quick);
        let sim = paper_sim(Scale::Quick);
        let r = run_seve(
            &world,
            ServerMode::Basic,
            paper_protocol(ServerMode::Basic),
            &sim,
        );
        assert_eq!(r.violations, 0, "Theorem 1 on the broadcast fixture");
        (r.server.stage.frames_encoded, r.server.stage.frames_reused)
    };
    let reuse_ratio = frames_reused as f64 / (frames_encoded + frames_reused).max(1) as f64;
    eprintln!(
        "broadcast fixture clients={fixture_clients}: {frames_encoded} frames encoded, \
         {frames_reused} reused ({:.1}% reuse)",
        reuse_ratio * 100.0
    );

    // --- Emit JSON (no serializer dependency: the shape is flat). --------
    let commit = source_commit();
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(
        j,
        "  \"meta\": {{\"bench\": \"wire\", \"commit\": \"{commit}\", \"smoke\": {smoke}, \"world\": \"manhattan_people\", \"pooled_matches_oracle\": {pooled_matches_oracle}, \"pool_steady_state_zero_alloc\": {pool_steady_state_zero_alloc}}},"
    );
    j.push_str("  \"encode\": [\n");
    for (i, r) in encode_rows.iter().enumerate() {
        let sep = if i + 1 < encode_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"items\": {}, \"frame_bytes\": {}, \"oracle_median_ns\": {}, \"pooled_median_ns\": {}, \"spliced_median_ns\": {}, \"speedup\": {:.3}}}{sep}",
            r.items,
            r.frame_bytes,
            r.oracle_ns,
            r.pooled_ns,
            r.spliced_ns,
            r.oracle_ns as f64 / r.pooled_ns.max(1) as f64,
        );
    }
    j.push_str("  ],\n");
    j.push_str("  \"push_cycle_egress\": [\n");
    for (i, r) in cycle_rows.iter().enumerate() {
        let sep = if i + 1 < cycle_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"clients\": {}, \"msgs_per_cycle\": {}, \"oracle_ns_per_cycle\": {}, \"pooled_ns_per_cycle\": {}, \"speedup\": {:.3}, \"writev_batches\": {}, \"pool_hits\": {}, \"pool_misses\": {}}}{sep}",
            r.clients,
            r.msgs_per_cycle,
            r.oracle_ns,
            r.pooled_ns,
            r.oracle_ns as f64 / r.pooled_ns.max(1) as f64,
            r.writev_batches,
            r.pool_hits,
            r.pool_misses,
        );
    }
    j.push_str("  ],\n");
    let _ = writeln!(
        j,
        "  \"broadcast_fixture\": {{\"clients\": {fixture_clients}, \"frames_encoded\": {frames_encoded}, \"frames_reused\": {frames_reused}, \"reuse_ratio\": {reuse_ratio:.4}}}"
    );
    j.push_str("}\n");
    std::fs::write(&out_path, &j).expect("write bench json");
    println!("wrote {out_path}");
}
