//! Persistent work-stealing executor for SEVE's per-tick parallelism.
//!
//! Before this crate, every parallel hot path in the server (Algorithm 7
//! batch analysis, push candidate selection, egress drain) spawned fresh
//! OS threads each tick or push cycle, paying spawn/join latency thousands
//! of times per run — enough to turn the analyze stage's parallel path
//! into a net *slowdown* at 1024+ clients. An [`Executor`] amortizes that
//! cost into one long-lived pool:
//!
//! - `width - 1` worker threads live for the executor's lifetime; the
//!   *calling* thread is the remaining lane and executes tasks while it
//!   waits, so a batch of `width` tasks runs on `width` lanes with zero
//!   spawns. `width == 1` means no threads at all — tasks run inline on
//!   the caller, the true sequential path.
//! - Each worker owns a deque fed round-robin at submission; overflow
//!   spills to a shared injector. Idle workers first drain their own
//!   deque, then the injector, then steal from siblings' tails, so an
//!   uneven batch cannot strand work behind one slow lane.
//! - Idle workers park on a condvar and are woken by submissions; a
//!   bounded timed wait backstops any missed wakeup.
//! - **Determinism:** results are returned in submission order, whatever
//!   order tasks actually executed in. Callers that need bit-identical
//!   output across pool sizes get it by construction, as long as the
//!   tasks themselves are pure over their inputs.
//! - **Panic containment:** a panicking task marks its batch failed
//!   ([`BatchPanic`]) but still releases the batch latch; the pool itself
//!   keeps working and later batches are unaffected.
//!
//! The crate also hosts [`AdaptiveGate`]: the self-tuning replacement for
//! the static "parallelize above N items" constants, estimating per-item
//! sequential cost and parallel dispatch overhead from the site's own
//! measured history (see the struct docs for the math).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A type-erased, lifetime-erased unit of work queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Error returned by [`Executor::run`] when at least one task in the
/// batch panicked. The batch's other tasks still ran to completion and
/// the pool remains fully usable — only this batch's results are lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPanic;

impl std::fmt::Display for BatchPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a task in the batch panicked")
    }
}

impl std::error::Error for BatchPanic {}

/// Monotonic counters describing everything the pool has executed.
/// Wall-clock diagnostics only — never fed back into protocol decisions,
/// so protocol outcomes stay independent of pool size and scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tasks executed (worker- and caller-executed alike).
    pub tasks: u64,
    /// Tasks taken from a queue other than the taker's own — work the
    /// stealing mechanism actually moved between lanes.
    pub steals: u64,
    /// Summed wall-clock nanoseconds spent inside tasks across all lanes.
    pub busy_nanos: u64,
    /// High-water mark of jobs queued and not yet picked up.
    pub queue_hwm: u64,
}

/// Lock without poisoning: a panic inside a task is already contained by
/// `catch_unwind`, and none of the pool's internal critical sections can
/// panic, so a poisoned mutex only ever means "some unrelated thread
/// panicked while we held nothing" — recover the guard and continue.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// State shared between the submitting thread and the workers.
struct Shared {
    /// Per-worker deques: slot `w` is worker `w`'s own queue (absent for
    /// `width == 1`, which has no workers).
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Overflow queue any lane may feed from; the caller's "own" queue.
    injector: Mutex<VecDeque<Job>>,
    /// Jobs queued and not yet taken. Incremented *before* the jobs are
    /// pushed so a concurrent take can never underflow it; parked workers
    /// re-check it under the sleep lock, so no wakeup is lost.
    pending: AtomicUsize,
    /// Parking lot for idle workers.
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    tasks: AtomicU64,
    steals: AtomicU64,
    busy_nanos: AtomicU64,
    queue_hwm: AtomicU64,
}

impl Shared {
    /// Execute one job, charging the busy/task counters. The task is
    /// counted before it runs: running it releases its batch's latch, so a
    /// count taken after would race the `run` that returns on that latch.
    fn exec_job(&self, job: Job) {
        self.tasks.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        job();
        self.busy_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Take the next job for worker `w`: own deque first, then the
    /// injector, then steal from a sibling's tail.
    fn take_for_worker(&self, w: usize) -> Option<Job> {
        if let Some(job) = lock(&self.deques[w]).pop_front() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(job);
        }
        if let Some(job) = lock(&self.injector).pop_front() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            self.steals.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
        for (i, d) in self.deques.iter().enumerate() {
            if i == w {
                continue;
            }
            if let Some(job) = lock(d).pop_back() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Take the next job for the calling thread: the injector is its own
    /// queue; worker deques are steal targets.
    fn take_for_caller(&self) -> Option<Job> {
        if let Some(job) = lock(&self.injector).pop_front() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(job);
        }
        for d in &self.deques {
            if let Some(job) = lock(d).pop_back() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }
}

/// Worker main loop: drain jobs, then park until the next submission.
fn worker_loop(shared: &Shared, w: usize) {
    loop {
        if let Some(job) = shared.take_for_worker(w) {
            shared.exec_job(job);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let guard = lock(&shared.sleep);
        // Re-check under the sleep lock: submitters bump `pending` and
        // notify while holding it, so either we see the new jobs here or
        // the notification reaches our wait. The timed wait is a backstop
        // only; correctness never depends on it firing.
        if shared.pending.load(Ordering::Acquire) == 0 && !shared.shutdown.load(Ordering::Acquire) {
            let _ = shared.wake.wait_timeout(guard, Duration::from_millis(250));
        }
    }
}

/// Outcome latch for one [`Executor::run`] batch: per-task result slots
/// (submission-indexed), a countdown of unfinished tasks, and a panic
/// flag. The condvar fires when the countdown reaches zero.
struct BatchInner<T> {
    slots: Vec<Option<T>>,
    remaining: usize,
    panicked: bool,
}

/// A persistent pool of `width - 1` worker threads plus the caller's
/// lane. See the crate docs for the scheduling and determinism contract.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    width: usize,
}

impl Executor {
    /// Build a pool offering `width` parallel lanes (minimum 1). Spawns
    /// `width - 1` OS threads; `width == 1` spawns none and [`run`]
    /// executes inline.
    ///
    /// [`run`]: Executor::run
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let workers = width - 1;
        let shared = Arc::new(Shared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("seve-exec-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn executor worker")
            })
            .collect();
        Self {
            shared,
            handles,
            width,
        }
    }

    /// Number of parallel lanes (worker threads + the calling thread).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Snapshot of the pool's lifetime counters.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            busy_nanos: self.shared.busy_nanos.load(Ordering::Relaxed),
            queue_hwm: self.shared.queue_hwm.load(Ordering::Relaxed),
        }
    }

    /// Run a batch of tasks to completion, returning their results **in
    /// submission order**. The calling thread executes queued tasks while
    /// it waits, so the batch proceeds even on a width-1 pool. Returns
    /// [`BatchPanic`] if any task panicked; the remaining tasks still ran
    /// and the pool stays usable.
    ///
    /// Tasks may borrow from the caller's stack (`'env`): `run` does not
    /// return until every task has finished, which is what makes the
    /// internal lifetime erasure sound.
    pub fn run<'env, T: Send + 'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Result<Vec<T>, BatchPanic> {
        let n = tasks.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        if self.width == 1 {
            // Sequential fast path: no queues, no latch — but identical
            // semantics, including panic containment and stats.
            let mut out = Vec::with_capacity(n);
            let mut panicked = false;
            for task in tasks {
                let t0 = Instant::now();
                match catch_unwind(AssertUnwindSafe(task)) {
                    Ok(v) => out.push(v),
                    Err(_) => panicked = true,
                }
                self.shared
                    .busy_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                self.shared.tasks.fetch_add(1, Ordering::Relaxed);
            }
            return if panicked { Err(BatchPanic) } else { Ok(out) };
        }

        let batch = Arc::new((
            Mutex::new(BatchInner::<T> {
                slots: (0..n).map(|_| None).collect(),
                remaining: n,
                panicked: false,
            }),
            Condvar::new(),
        ));

        // Publish the batch size before any job becomes visible so a
        // concurrent take can never drive `pending` below zero.
        let queued = self.shared.pending.fetch_add(n, Ordering::AcqRel) + n;
        self.shared
            .queue_hwm
            .fetch_max(queued as u64, Ordering::Relaxed);

        let workers = self.width - 1;
        for (i, task) in tasks.into_iter().enumerate() {
            let batch = Arc::clone(&batch);
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(task));
                let (inner, done) = &*batch;
                let mut inner = lock(inner);
                match result {
                    Ok(v) => inner.slots[i] = Some(v),
                    Err(_) => inner.panicked = true,
                }
                inner.remaining -= 1;
                if inner.remaining == 0 {
                    done.notify_all();
                }
            });
            // SAFETY: the job borrows only data outliving `'env`, and
            // `run` blocks below until `remaining == 0` — the wrapper
            // decrements that latch on every exit path, panic included —
            // so no job can run after `run` returns and the borrows it
            // captures are live for as long as it can execute.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            // Round-robin the first `2 × workers` jobs across the worker
            // deques (for the common one-task-per-lane batch this is a
            // perfect spread); spill the rest to the injector for whoever
            // frees up first.
            if i < workers * 2 {
                lock(&self.shared.deques[i % workers]).push_back(job);
            } else {
                lock(&self.shared.injector).push_back(job);
            }
        }
        {
            // Notify under the sleep lock so a worker between its
            // `pending` check and its wait cannot miss the wakeup.
            let _g = lock(&self.shared.sleep);
            self.shared.wake.notify_all();
        }

        // Caller's lane: execute queued jobs (this batch's or not) while
        // the latch is up; between jobs, nap on the batch condvar. The
        // short timed wait re-polls the queues, covering the window where
        // a job was queued after our last take attempt but its owner is
        // busy elsewhere.
        let (inner_mutex, done) = &*batch;
        loop {
            if let Some(job) = self.shared.take_for_caller() {
                self.shared.exec_job(job);
                continue;
            }
            let mut inner = lock(inner_mutex);
            if inner.remaining == 0 {
                break;
            }
            let (g, _) = done
                .wait_timeout(inner, Duration::from_millis(1))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = g;
            if inner.remaining == 0 {
                break;
            }
        }

        let mut inner = lock(inner_mutex);
        if inner.panicked {
            return Err(BatchPanic);
        }
        let out = inner
            .slots
            .iter_mut()
            .map(|s| s.take().expect("latch down, every slot filled"))
            .collect();
        Ok(out)
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = lock(&self.shared.sleep);
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Resolve the pool width the same way the analyze stage resolves its
/// thread budget: an explicit config value wins, then the
/// `SEVE_EXEC_THREADS` environment variable, then the machine's available
/// parallelism capped at 8. Always at least 1.
pub fn resolve_width(cfg: Option<usize>) -> usize {
    cfg.or_else(|| {
        std::env::var("SEVE_EXEC_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
    })
    .unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
            .min(8)
    })
    .max(1)
}

/// Self-tuning "parallelize above N items" gate.
///
/// The static constants this replaces encoded a one-time guess about the
/// break-even batch size. The gate instead estimates it from the site's
/// own measurements: an EWMA of the **sequential per-item cost** `s`
/// (ns/item, updated from sequential wall time and from parallel workers'
/// summed busy time) and an EWMA of the **parallel dispatch overhead**
/// `o` (ns/batch: parallel wall time minus the ideal `busy / width`).
/// Parallel execution of `n` items wins when `n·s/width + o < n·s`, i.e.
///
/// ```text
/// n > o / (s · (1 − 1/width))
/// ```
///
/// which is the threshold returned once both estimates are warm, clamped
/// to `[seed/4, seed×16]` so one noisy sample can never push the gate to
/// a pathological extreme. Until warm — and whenever adaptation is off or
/// the pool has a single lane — the static seed applies unchanged. An
/// environment pin (e.g. `SEVE_PAR_MIN_ACTIONS`) overrides everything,
/// letting tests and experiments fix the gate exactly.
///
/// All state is atomic (`f64` bits in `AtomicU64`) so recording works
/// through `&self`; EWMA updates are read-blend-store and may rarely drop
/// a concurrent sample, which is harmless for a smoothed diagnostic.
pub struct AdaptiveGate {
    seed: usize,
    pin: Option<usize>,
    lo: usize,
    hi: usize,
    seq_item_ns: AtomicU64,
    overhead_ns: AtomicU64,
}

/// EWMA smoothing factor: new samples carry 20% weight.
const EWMA_ALPHA: f64 = 0.2;

/// Blend `x` into the EWMA stored as `f64` bits in `cell` (0 bits =
/// unset: the first sample seeds the average).
fn ewma_update(cell: &AtomicU64, x: f64) {
    let old = f64::from_bits(cell.load(Ordering::Relaxed));
    let new = if old > 0.0 {
        old * (1.0 - EWMA_ALPHA) + x * EWMA_ALPHA
    } else {
        x
    };
    cell.store(new.to_bits(), Ordering::Relaxed);
}

impl AdaptiveGate {
    /// A gate seeded with the site's historical static constant, pinnable
    /// via the `pin_env` environment variable.
    pub fn new(seed: usize, pin_env: &str) -> Self {
        let pin = std::env::var(pin_env).ok().and_then(|v| v.parse().ok());
        Self {
            seed,
            pin,
            lo: (seed / 4).max(1),
            hi: seed.saturating_mul(16),
            seq_item_ns: AtomicU64::new(0),
            overhead_ns: AtomicU64::new(0),
        }
    }

    /// The static seed threshold.
    pub fn seed(&self) -> usize {
        self.seed
    }

    /// Is the gate pinned by its environment variable?
    pub fn pinned(&self) -> bool {
        self.pin.is_some()
    }

    /// Current "parallelize at or above this many items" threshold for a
    /// pool of `width` lanes. `adaptive` off (config switch) falls back
    /// to the seed; a pin overrides everything.
    pub fn threshold(&self, width: usize, adaptive: bool) -> usize {
        if let Some(p) = self.pin {
            return p;
        }
        if !adaptive || width <= 1 {
            return self.seed;
        }
        let s = f64::from_bits(self.seq_item_ns.load(Ordering::Relaxed));
        let o = f64::from_bits(self.overhead_ns.load(Ordering::Relaxed));
        if s <= 0.0 || o <= 0.0 {
            return self.seed;
        }
        let gain = 1.0 - 1.0 / width as f64;
        let n = (o / (s * gain)).ceil();
        (n as usize).clamp(self.lo, self.hi)
    }

    /// Record a sequential run of `n` items taking `wall_ns`.
    pub fn record_seq(&self, n: usize, wall_ns: u64) {
        if n == 0 {
            return;
        }
        ewma_update(&self.seq_item_ns, wall_ns as f64 / n as f64);
    }

    /// Record a parallel run of `n` items: `wall_ns` end-to-end on the
    /// calling thread, `busy_ns` summed across workers (≈ the sequential
    /// work the batch contained), on `width` lanes.
    pub fn record_par(&self, n: usize, wall_ns: u64, busy_ns: u64, width: usize) {
        if n == 0 || width <= 1 {
            return;
        }
        ewma_update(&self.seq_item_ns, busy_ns as f64 / n as f64);
        let ideal = busy_ns as f64 / width as f64;
        // Floor at 1 ns so a lucky sample still marks the estimate warm.
        ewma_update(&self.overhead_ns, (wall_ns as f64 - ideal).max(1.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Box a closure as a batch task (inference helper for tests).
    fn task<T: Send>(f: impl FnOnce() -> T + Send + 'static) -> Box<dyn FnOnce() -> T + Send> {
        Box::new(f)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = Executor::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64)
            .map(|i| {
                task(move || {
                    // Vary runtimes so execution order scrambles.
                    if i % 7 == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    i * i
                })
            })
            .collect();
        let out = pool.run(tasks).expect("batch");
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_results_across_pool_widths() {
        let compute = |w: usize| {
            let pool = Executor::new(w);
            let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..40u64)
                .map(|i| task(move || i.wrapping_mul(0x9E37_79B9).rotate_left(7)))
                .collect();
            pool.run(tasks).expect("batch")
        };
        let base = compute(1);
        assert_eq!(base, compute(2));
        assert_eq!(base, compute(8));
    }

    #[test]
    fn width_one_executes_inline_without_threads() {
        let pool = Executor::new(1);
        let caller = std::thread::current().id();
        let out = pool
            .run(vec![
                task(move || std::thread::current().id() == caller),
                task(move || std::thread::current().id() == caller),
            ])
            .expect("batch");
        assert_eq!(out, vec![true, true]);
        assert_eq!(pool.stats().tasks, 2);
    }

    #[test]
    fn tasks_may_borrow_from_the_callers_stack() {
        let pool = Executor::new(3);
        let data: Vec<u64> = (0..100).collect();
        let chunks: Vec<&[u64]> = data.chunks(13).collect();
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = chunks
            .into_iter()
            .map(|c| {
                let b: Box<dyn FnOnce() -> u64 + Send + '_> =
                    Box::new(move || c.iter().sum::<u64>());
                b
            })
            .collect();
        let out = pool.run(tasks).expect("batch");
        assert_eq!(out.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn pool_stays_live_across_idle_gaps() {
        // Park/unpark: workers go idle between batches and must wake for
        // the next one. A lost wakeup hangs this test (harness timeout
        // turns that into a failure); the elapsed bound catches the
        // degenerate always-spinning or timed-poll-only implementations.
        let pool = Executor::new(2);
        for round in 0..3 {
            std::thread::sleep(Duration::from_millis(60));
            let t0 = Instant::now();
            let out = pool
                .run((0..8).map(|i| task(move || i + round)).collect())
                .expect("batch");
            assert_eq!(out.len(), 8);
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "batch after idle gap took {:?}",
                t0.elapsed()
            );
        }
    }

    #[test]
    fn panicking_task_fails_its_batch_without_poisoning_the_pool() {
        let pool = Executor::new(3);
        let ran = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..6)
            .map(|i| {
                let ran = Arc::clone(&ran);
                task(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(i != 3, "task 3 detonates");
                    i
                })
            })
            .collect();
        assert_eq!(pool.run(tasks), Err(BatchPanic));
        // Every non-panicking task still ran (latch released by all).
        assert_eq!(ran.load(Ordering::Relaxed), 6);
        // The pool is not poisoned: the next batch succeeds.
        let out = pool
            .run((0..4).map(|i| task(move || i * 10)).collect())
            .expect("pool survives a panicked batch");
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn width_one_contains_panics_too() {
        let pool = Executor::new(1);
        assert_eq!(
            pool.run(vec![task(|| panic!("boom")), task(|| ())]),
            Err(BatchPanic)
        );
        assert!(pool.run(vec![task(|| 1u8)]).is_ok());
    }

    #[test]
    fn stats_count_tasks_and_queue_high_water() {
        let pool = Executor::new(4);
        for _ in 0..5 {
            pool.run((0..16).map(|i| task(move || i)).collect::<Vec<_>>())
                .expect("batch");
        }
        let s = pool.stats();
        assert_eq!(s.tasks, 80);
        assert!(s.queue_hwm >= 1);
        assert!(s.busy_nanos > 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = Executor::new(2);
        let out: Vec<u8> = pool.run(Vec::new()).expect("empty batch");
        assert!(out.is_empty());
        assert_eq!(pool.stats().tasks, 0);
    }

    #[test]
    fn resolve_width_prefers_config() {
        assert_eq!(resolve_width(Some(3)), 3);
        assert_eq!(resolve_width(Some(0)), 1); // floor
    }

    #[test]
    fn gate_returns_seed_until_warm() {
        let g = AdaptiveGate::new(64, "SEVE_TEST_UNSET_PIN_1");
        assert_eq!(g.threshold(4, true), 64);
        g.record_seq(100, 100_000); // seq estimate alone is not enough
        assert_eq!(g.threshold(4, true), 64);
    }

    #[test]
    fn gate_is_static_for_single_lane_or_disabled() {
        let g = AdaptiveGate::new(64, "SEVE_TEST_UNSET_PIN_2");
        g.record_par(1000, 1_000_000, 3_000_000, 4);
        assert_eq!(g.threshold(1, true), 64, "one lane: no parallel win");
        assert_eq!(g.threshold(4, false), 64, "adaptation disabled");
    }

    #[test]
    fn gate_tracks_measured_break_even() {
        let g = AdaptiveGate::new(64, "SEVE_TEST_UNSET_PIN_3");
        // 1000 ns/item sequential; parallel overhead 30 µs on 4 lanes:
        // n* = 30_000 / (1000 × 0.75) = 40.
        for _ in 0..50 {
            g.record_seq(100, 100_000);
            g.record_par(100, 55_000, 100_000, 4);
        }
        let t = g.threshold(4, true);
        assert!((38..=42).contains(&t), "threshold {t} not near 40");
        // Cheap items push the break-even up, clamped at seed×16.
        for _ in 0..200 {
            g.record_seq(100, 100); // 1 ns/item
        }
        assert_eq!(g.threshold(4, true), 64 * 16);
    }

    #[test]
    fn gate_clamps_to_floor() {
        let g = AdaptiveGate::new(64, "SEVE_TEST_UNSET_PIN_4");
        // Huge items, tiny overhead: break-even below 1, clamped to 16.
        for _ in 0..50 {
            g.record_par(10, 2_500_001, 10_000_000, 4);
        }
        assert_eq!(g.threshold(4, true), 16);
    }

    #[test]
    fn gate_env_pin_overrides_everything() {
        std::env::set_var("SEVE_TEST_PIN_OVERRIDE", "7");
        let g = AdaptiveGate::new(64, "SEVE_TEST_PIN_OVERRIDE");
        assert!(g.pinned());
        g.record_par(1000, 1, 100_000_000, 8);
        assert_eq!(g.threshold(8, true), 7);
        assert_eq!(g.threshold(1, false), 7);
        std::env::remove_var("SEVE_TEST_PIN_OVERRIDE");
    }
}
