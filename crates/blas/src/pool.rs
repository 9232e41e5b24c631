//! Persistent worker pool for the parallel BLAS dispatch.
//!
//! Every chunked dispatch in [`crate::parallel`], `tile` and `adaptive`
//! runs here. Spawning fresh OS threads on **every** kernel call costs tens
//! of microseconds against a sub-microsecond AXPY, so this module amortizes
//! the scheduling cost across calls with a lazily-initialized,
//! process-wide pool of workers that park between dispatches:
//!
//! * **Sizing** — `MF_BLAS_THREADS` workers (via
//!   [`crate::parallel::default_threads`]), re-checked on every dispatch:
//!   raising the value spawns workers, lowering it retires the excess the
//!   next time they wake (see [`reconfigure`]). Tests that flip the
//!   variable get a pool that follows it.
//! * **Queue protocol** — a mutex-guarded `VecDeque` of jobs plus one
//!   condvar. A job stays at the front of the queue while it still has
//!   chunks to hand out; workers (and the dispatching caller) claim chunk
//!   *indices* from the job's shared atomic cursor rather than owning a
//!   fixed range, so a straggling worker costs at most one chunk of
//!   imbalance and fast workers rebalance the rest.
//! * **Caller helps** — the dispatching thread executes chunks alongside
//!   the workers and only then blocks on the job's completion condvar.
//!   This is the no-deadlock guarantee: a dispatch completes even with
//!   zero free workers, so *nested* parallel calls (a kernel dispatched
//!   from inside another kernel's chunk) oversubscribe gracefully instead
//!   of deadlocking.
//! * **Panic containment** — chunk closures from `parallel.rs` catch their
//!   own panics (that layer's degrade-to-serial semantics); the pool
//!   additionally wraps every chunk in a defensive `catch_unwind` so a
//!   contract violation can never take a worker down or wedge a job.
//! * **Shutdown ordering** — [`shutdown`] marks the pool, wakes every
//!   worker, and blocks until each has decremented the live-worker count
//!   and exited. Workers exit at their next scheduling point (in-flight
//!   chunks complete; unclaimed chunks of queued jobs are drained by
//!   their dispatchers, which always help). The next dispatch lazily
//!   restarts the pool.
//!
//! The pool replaced a per-dispatch `std::thread::scope` executor; it won
//! at every measured size, from +22% to +2282% (EXPERIMENTS.md ablation 8).
//!
//! Telemetry (feature-gated, no-ops otherwise): `pool.jobs` counts
//! dispatches through the pool, `pool.park`/`pool.unpark` count worker
//! sleep/wake transitions, and the `pool.queue_wait` section sketches the
//! latency from job publication to its first claimed chunk. Live gauges for
//! the observability hub: `pool.queue_depth` (jobs with unclaimed chunks),
//! `pool.workers_live` (spawned and not retired), `pool.workers_busy`
//! (currently executing chunks), `pool.jobs_inflight` (dispatches between
//! publication and completion, nested dispatches included).

use mf_telemetry::{Counter, Gauge, Section};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static POOL_JOBS: Counter = Counter::new("pool.jobs");
static POOL_PARK: Counter = Counter::new("pool.park");
static POOL_UNPARK: Counter = Counter::new("pool.unpark");
static POOL_TASK_PANICS: Counter = Counter::new("pool.task_panics");
static POOL_QUEUE_WAIT: Section = Section::new("pool.queue_wait");
static POOL_QUEUE_DEPTH: Gauge = Gauge::new("pool.queue_depth");
static POOL_WORKERS_LIVE: Gauge = Gauge::new("pool.workers_live");
static POOL_WORKERS_BUSY: Gauge = Gauge::new("pool.workers_busy");
static POOL_JOBS_INFLIGHT: Gauge = Gauge::new("pool.jobs_inflight");

/// One dispatched job: a type-erased chunk runner plus the shared cursor
/// workers claim chunk indices from.
struct Job {
    /// The chunk runner. Lifetime-erased: the dispatcher blocks in
    /// [`run`] until `remaining` reaches zero, so the borrow it erased
    /// outlives every use (workers never touch `task` after completing
    /// their last claimed chunk).
    task: &'static (dyn Fn(usize) + Sync),
    nchunks: usize,
    /// Next chunk index to claim; values >= `nchunks` mean "exhausted".
    cursor: AtomicUsize,
    /// Chunks not yet finished; guarded so `done` waits can't miss the
    /// final decrement.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First-claim latch for the `pool.queue_wait` sketch.
    claimed: AtomicBool,
    enqueued: Instant,
}

impl Job {
    /// Claim and execute chunks until the cursor is exhausted.
    fn execute(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Relaxed);
            if i >= self.nchunks {
                return;
            }
            if mf_telemetry::ENABLED && !self.claimed.swap(true, Relaxed) {
                let ns = self.enqueued.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                POOL_QUEUE_WAIT.add_ns(ns);
            }
            // Defensive: parallel.rs chunk closures catch their own panics
            // (degrade-to-serial); a violation of that contract must not
            // kill a pool worker or leave `remaining` stuck above zero.
            if catch_unwind(AssertUnwindSafe(|| (self.task)(i))).is_err() {
                POOL_TASK_PANICS.incr();
            }
            let mut rem = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
            *rem -= 1;
            if *rem == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Block until every chunk has finished (the caller has already helped
    /// drain the cursor).
    fn wait(&self) {
        let mut rem = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *rem > 0 {
            rem = self.done.wait(rem).unwrap_or_else(|e| e.into_inner());
        }
    }
}

// SAFETY: `task` is only dereferenced between a successful cursor claim
// and the matching `remaining` decrement; the dispatcher keeps the
// underlying closure alive until `remaining == 0` (observed under the
// job mutex in `wait`), and the closure itself is `Sync`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct State {
    queue: VecDeque<Arc<Job>>,
    /// Live worker threads.
    workers: usize,
    /// Desired worker threads (last `default_threads()` seen).
    target: usize,
    shutdown: bool,
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here waiting for jobs (or shutdown/retire signals).
    work: Condvar,
    /// `shutdown` waits here for the live-worker count to reach zero.
    exited: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            workers: 0,
            target: 0,
            shutdown: false,
        }),
        work: Condvar::new(),
        exited: Condvar::new(),
    })
}

fn lock_state() -> MutexGuard<'static, State> {
    pool().state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bring the live worker count toward `default_threads()`: spawn the
/// deficit now, signal any excess to retire on its next wake. Called under
/// the state lock on every dispatch, so a changed `MF_BLAS_THREADS` takes
/// effect on the next kernel call.
fn reconfigure(st: &mut MutexGuard<'_, State>) {
    if st.shutdown {
        // A dispatch racing a shutdown runs on the caller alone; the pool
        // restarts on the first dispatch after shutdown() returns.
        return;
    }
    let want = crate::parallel::default_threads();
    st.target = want;
    while st.workers < want {
        st.workers += 1;
        let spawned = std::thread::Builder::new()
            .name("mf-blas-pool".into())
            .spawn(worker_loop);
        if spawned.is_err() {
            // Could not create the thread; the caller still drains the
            // cursor itself, so the dispatch completes regardless.
            st.workers -= 1;
            break;
        }
    }
    // Shrinking: workers observe `workers > target` when they next hold
    // the lock and retire themselves (see worker_loop).
    POOL_WORKERS_LIVE.set(st.workers as i64);
}

fn worker_loop() {
    loop {
        let job = {
            let mut st = lock_state();
            loop {
                if st.shutdown || st.workers > st.target {
                    st.workers -= 1;
                    POOL_WORKERS_LIVE.set(st.workers as i64);
                    pool().exited.notify_all();
                    return;
                }
                // Drop jobs whose cursor is exhausted — their chunks are
                // all claimed (possibly still running; completion is the
                // dispatcher's business via Job::wait).
                while let Some(j) = st.queue.front() {
                    if j.cursor.load(Relaxed) >= j.nchunks {
                        st.queue.pop_front();
                    } else {
                        break;
                    }
                }
                POOL_QUEUE_DEPTH.set(st.queue.len() as i64);
                if let Some(j) = st.queue.front() {
                    break Arc::clone(j);
                }
                POOL_PARK.incr();
                st = pool().work.wait(st).unwrap_or_else(|e| e.into_inner());
                POOL_UNPARK.incr();
            }
        };
        POOL_WORKERS_BUSY.incr();
        job.execute();
        POOL_WORKERS_BUSY.decr();
    }
}

/// Execute `task(i)` for every chunk index `i in 0..nchunks` on the pool,
/// blocking until all chunks have finished. The calling thread claims
/// chunks alongside the workers, so the call completes (and nested calls
/// cannot deadlock) even when every worker is busy or the pool is sized
/// to zero. `task` must not unwind — chunk-level panic handling belongs
/// to the caller (see `parallel.rs`); a panic that leaks through is
/// swallowed defensively and counted in `pool.task_panics`.
pub(crate) fn run(nchunks: usize, task: &(dyn Fn(usize) + Sync)) {
    assert!(nchunks > 0, "pool::run needs at least one chunk");
    POOL_JOBS.incr();
    // SAFETY: see `Job::task` — the borrow is only erased to 'static
    // because this function does not return until every chunk completed.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job {
        task,
        nchunks,
        cursor: AtomicUsize::new(0),
        remaining: Mutex::new(nchunks),
        done: Condvar::new(),
        claimed: AtomicBool::new(false),
        enqueued: Instant::now(),
    });
    POOL_JOBS_INFLIGHT.incr();
    {
        let mut st = lock_state();
        reconfigure(&mut st);
        st.queue.push_back(Arc::clone(&job));
        POOL_QUEUE_DEPTH.set(st.queue.len() as i64);
    }
    pool().work.notify_all();
    job.execute();
    job.wait();
    POOL_JOBS_INFLIGHT.decr();
}

/// Live pool workers (0 before the first dispatch or after [`shutdown`]).
pub fn worker_count() -> usize {
    lock_state().workers
}

/// Retire every worker and block until they have exited. Workers leave at
/// their next scheduling point — in-flight chunks complete, and unclaimed
/// chunks of still-queued jobs are drained by their dispatchers (which
/// always help). The pool restarts lazily on the next dispatch; calling
/// this with no live workers is a no-op.
pub fn shutdown() {
    let mut st = lock_state();
    st.shutdown = true;
    pool().work.notify_all();
    while st.workers > 0 {
        st = pool().exited.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    st.shutdown = false;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Pool tests reconfigure via MF_BLAS_THREADS and assert worker
    /// counts; serialize them against each other and against
    /// `parallel::tests::default_threads_env_override`.
    pub(crate) fn env_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_threads(n: usize) {
        std::env::set_var("MF_BLAS_THREADS", n.to_string());
    }

    #[test]
    fn all_chunks_run_exactly_once() {
        let _env = env_lock();
        set_threads(3);
        let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
        run(hits.len(), &|i| {
            hits[i].fetch_add(1, Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Relaxed), 1, "chunk {i}");
        }
        std::env::remove_var("MF_BLAS_THREADS");
        shutdown();
    }

    #[test]
    fn single_chunk_and_zero_worker_pool_complete() {
        let _env = env_lock();
        // A pool sized below the chunk count (even 1 worker for 8 chunks)
        // completes because the caller drains the cursor itself.
        set_threads(1);
        let sum = AtomicU64::new(0);
        run(8, &|i| {
            sum.fetch_add(i as u64 + 1, Relaxed);
        });
        assert_eq!(sum.load(Relaxed), 36);
        // Degenerate single-chunk job (the zero-length kernel shape).
        let ran = AtomicUsize::new(0);
        run(1, &|_| {
            ran.fetch_add(1, Relaxed);
        });
        assert_eq!(ran.load(Relaxed), 1);
        std::env::remove_var("MF_BLAS_THREADS");
        shutdown();
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        let _env = env_lock();
        // 2 workers, 4 outer chunks each dispatching 4 inner chunks:
        // heavily oversubscribed. Caller-helps means every level drains.
        set_threads(2);
        let inner_hits = AtomicU64::new(0);
        run(4, &|_| {
            run(4, &|j| {
                inner_hits.fetch_add(1 + j as u64, Relaxed);
            });
        });
        assert_eq!(inner_hits.load(Relaxed), 4 * (1 + 2 + 3 + 4));
        std::env::remove_var("MF_BLAS_THREADS");
        shutdown();
    }

    #[test]
    fn reconfigures_when_thread_env_changes() {
        let _env = env_lock();
        set_threads(2);
        run(2, &|_| {});
        assert_eq!(worker_count(), 2);
        set_threads(4);
        run(2, &|_| {});
        assert_eq!(worker_count(), 4);
        // Shrink: excess workers retire on their next wake. The dispatch
        // sets the new target and notifies; poll for the count to settle.
        set_threads(1);
        run(2, &|_| {});
        for _ in 0..200 {
            if worker_count() <= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(worker_count(), 1, "excess workers must retire");
        std::env::remove_var("MF_BLAS_THREADS");
        shutdown();
    }

    #[test]
    fn panicking_task_then_shutdown_then_restart() {
        let _env = env_lock();
        set_threads(2);
        // A task that violates the no-unwind contract: the pool swallows
        // the panic (counted) and every chunk still completes.
        let survived = AtomicUsize::new(0);
        run(4, &|i| {
            survived.fetch_add(1, Relaxed);
            if i == 1 {
                panic!("pool contract violation (injected)");
            }
        });
        assert_eq!(survived.load(Relaxed), 4);

        // Shutdown blocks until the workers (one of which just caught a
        // panic) have all exited; nothing is wedged.
        shutdown();
        assert_eq!(worker_count(), 0);
        // Idempotent on an empty pool.
        shutdown();

        // The next dispatch restarts the pool lazily and still computes.
        let after = AtomicUsize::new(0);
        run(3, &|_| {
            after.fetch_add(1, Relaxed);
        });
        assert_eq!(after.load(Relaxed), 3);
        assert_eq!(worker_count(), 2);
        std::env::remove_var("MF_BLAS_THREADS");
        shutdown();
    }

    /// Straggler rebalancing: with chunk-granular claiming, one slow chunk
    /// cannot serialize the rest — the other worker(s) and the caller
    /// drain every remaining chunk while it runs.
    #[test]
    fn slow_chunk_does_not_block_the_rest() {
        let _env = env_lock();
        set_threads(2);
        let done_before_slow = AtomicUsize::new(0);
        let slow_finished = AtomicBool::new(false);
        run(8, &|i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
                slow_finished.store(true, Relaxed);
            } else {
                if !slow_finished.load(Relaxed) {
                    done_before_slow.fetch_add(1, Relaxed);
                }
            }
        });
        // All 7 fast chunks normally finish during the slow one's sleep;
        // require at least one to keep the test robust on a loaded box.
        assert!(
            done_before_slow.load(Relaxed) >= 1,
            "fast chunks must proceed while a straggler runs"
        );
        std::env::remove_var("MF_BLAS_THREADS");
        shutdown();
    }
}
