//! The TCP server's persistent drain pool.
//!
//! `rt::server::fan_out` writes each push cycle's frames to every busy
//! client socket, and a socket `write` can block on a slow peer. An
//! [`Executor`] runs those drain tasks on long-lived threads, so a stalled
//! client occupies one lane while the others keep draining, and no thread
//! is spawned per cycle:
//!
//! - `width - 1` worker threads live for the executor's lifetime; the
//!   *calling* thread is the remaining lane and executes tasks while it
//!   waits, so a batch of `width` tasks runs on `width` lanes. `width == 1`
//!   means no threads at all: tasks run inline on the caller.
//! - All lanes take jobs from one shared FIFO queue. Idle workers park on
//!   a condvar tied to the queue's lock, so a submission cannot be missed.
//! - **Order:** results are returned in submission order, whatever order
//!   tasks actually executed in.
//! - **Panic containment:** a panicking task marks its batch failed
//!   ([`BatchPanic`]) but still releases the batch latch; the pool itself
//!   keeps working and later batches are unaffected.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

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
/// Wall-clock diagnostics only — never fed back into protocol decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tasks executed (worker- and caller-executed alike).
    pub tasks: u64,
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

/// The shared job queue and its parking lot.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between the submitting thread and the workers.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when jobs are queued or shutdown begins; waited on with
    /// the queue's own lock, so no wakeup is lost.
    wake: Condvar,
    tasks: AtomicU64,
    busy_nanos: AtomicU64,
    queue_hwm: AtomicU64,
}

impl Shared {
    /// The next queued job. The queue's lock is released on return, so the
    /// caller runs the job without holding it.
    fn pop(&self) -> Option<Job> {
        lock(&self.queue).jobs.pop_front()
    }

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
}

/// Worker main loop: take the next job, or park until one is queued.
fn worker_loop(shared: &Shared) {
    let mut q = lock(&shared.queue);
    loop {
        if let Some(job) = q.jobs.pop_front() {
            drop(q);
            shared.exec_job(job);
            q = lock(&shared.queue);
        } else if q.shutdown {
            return;
        } else {
            q = shared
                .wake
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
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
/// lane. See the crate docs for the scheduling contract.
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
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            tasks: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
        });
        let handles = (0..width - 1)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("seve-exec-{w}"))
                    .spawn(move || worker_loop(&shared))
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
            // Sequential fast path: no queue, no latch — but identical
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
        {
            let mut q = lock(&self.shared.queue);
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
                q.jobs.push_back(job);
            }
            self.shared
                .queue_hwm
                .fetch_max(q.jobs.len() as u64, Ordering::Relaxed);
        }
        self.shared.wake.notify_all();

        // Caller's lane: execute queued jobs until the queue is empty. Every
        // job of this batch has then been taken by some lane, so waiting on
        // the latch without a timeout is safe.
        while let Some(job) = self.shared.pop() {
            self.shared.exec_job(job);
        }
        let (inner_mutex, done) = &*batch;
        let mut inner = lock(inner_mutex);
        while inner.remaining > 0 {
            inner = done
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        // Take every result out here, on the caller's thread, while `'env` is
        // live: a worker may drop the batch's last reference after `run`
        // has returned, and it must find no `T` left in it.
        let slots = std::mem::take(&mut inner.slots);
        if inner.panicked {
            return Err(BatchPanic);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("latch down, every slot filled"))
            .collect())
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

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
}
