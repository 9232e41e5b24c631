//! Persistent worker pool for the parallel BLAS dispatch.
//!
//! Every chunked dispatch in [`crate::parallel`], `tile` and `adaptive`
//! runs here. Spawning fresh OS threads on **every** kernel call costs tens
//! of microseconds against a sub-microsecond AXPY, so this module amortizes
//! the scheduling cost across calls with a lazily-initialized,
//! process-wide pool of workers that park between dispatches:
//!
//! * **Sizing** — the calls size the pool. A dispatch at `threads` grows
//!   it to `min(threads, cap) − 1` workers before publishing its job, since
//!   the dispatcher itself is the remaining thread. `cap` is
//!   [`crate::parallel::default_threads`] (`MF_BLAS_THREADS`, else the
//!   machine's parallelism), read once when the pool is first used. Workers
//!   are never retired; process exit ends them.
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
//! * **Panic containment** — the chunk executor in `parallel.rs`
//!   (`run_chunks`) catches every chunk's panic itself (its
//!   degrade-to-serial semantics); the pool additionally wraps every chunk
//!   in a defensive `catch_unwind` so a contract violation can never take a
//!   worker down or wedge a job.
//!
//! The pool replaced a per-dispatch `std::thread::scope` executor; it won
//! at every measured size, from +22% to +2282% (EXPERIMENTS.md ablation 8).
//!
//! Telemetry (feature-gated, no-ops otherwise): `pool.jobs` counts
//! dispatches through the pool, `pool.park`/`pool.unpark` count worker
//! sleep/wake transitions, and the `pool.queue_wait` section sketches
//! worker wake-up: the latency from a job's publication to the first chunk
//! a pool worker claims from it (a job the dispatcher drains alone records
//! nothing). Live gauges for the observability hub: `pool.queue_depth`
//! (jobs with unclaimed chunks), `pool.workers_live` (spawned workers),
//! `pool.workers_busy` (currently executing chunks), `pool.jobs_inflight`
//! (dispatches between publication and completion, nested dispatches
//! included).

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
    /// First-worker-claim latch for the `pool.queue_wait` sketch.
    claimed: AtomicBool,
    /// Publication time: stamped under the state lock as the job is
    /// queued, so no worker can see the job before it.
    enqueued: Instant,
}

impl Job {
    /// Claim and execute chunks until the cursor is exhausted. `worker`
    /// marks a pool worker, whose first claim is the job's queue wait.
    fn execute(&self, worker: bool) {
        loop {
            let i = self.cursor.fetch_add(1, Relaxed);
            if i >= self.nchunks {
                return;
            }
            if mf_telemetry::ENABLED && worker && !self.claimed.swap(true, Relaxed) {
                let ns = self.enqueued.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                POOL_QUEUE_WAIT.add_ns(ns);
            }
            // Defensive: the chunk executor catches its chunks' panics
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
    /// Live worker threads; only ever grows.
    workers: usize,
}

impl State {
    /// Drop the leading jobs whose chunks are all claimed (possibly still
    /// running; completion is their dispatcher's business via `Job::wait`)
    /// and return the first job with chunks left.
    fn prune(&mut self) -> Option<&Arc<Job>> {
        while (self.queue.front()).is_some_and(|j| j.cursor.load(Relaxed) >= j.nchunks) {
            self.queue.pop_front();
        }
        POOL_QUEUE_DEPTH.set(self.queue.len() as i64);
        self.queue.front()
    }
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here waiting for jobs.
    work: Condvar,
    /// Ceiling on a dispatch's thread count: the pool never holds more
    /// than `cap - 1` workers.
    cap: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            workers: 0,
        }),
        work: Condvar::new(),
        cap: crate::parallel::default_threads(),
    })
}

fn lock_state() -> MutexGuard<'static, State> {
    pool().state.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop() {
    loop {
        let job = {
            let mut st = lock_state();
            loop {
                if let Some(j) = st.prune() {
                    break Arc::clone(j);
                }
                POOL_PARK.incr();
                st = pool().work.wait(st).unwrap_or_else(|e| e.into_inner());
                POOL_UNPARK.incr();
            }
        };
        POOL_WORKERS_BUSY.incr();
        job.execute(true);
        POOL_WORKERS_BUSY.decr();
    }
}

/// Execute `task(i)` for every chunk index `i in 0..nchunks` on the pool,
/// blocking until all chunks have finished. A dispatch at `threads` first
/// grows the pool to `min(threads, cap) − 1` workers. The calling thread
/// claims chunks alongside the workers, so the call completes (and nested
/// calls cannot deadlock) even when every worker is busy or the pool has
/// none. `task` must not unwind — chunk-level panic handling belongs to
/// the caller (`parallel::run_chunks`); a panic that leaks through is
/// swallowed defensively and counted in `pool.task_panics`.
pub(crate) fn run(threads: usize, nchunks: usize, task: &(dyn Fn(usize) + Sync)) {
    assert!(nchunks > 0, "pool::run needs at least one chunk");
    POOL_JOBS.incr();
    // SAFETY: see `Job::task` — the borrow is only erased to 'static
    // because this function does not return until every chunk completed.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let pool = pool();
    POOL_JOBS_INFLIGHT.incr();
    let job = {
        let mut st = lock_state();
        while st.workers < threads.min(pool.cap).saturating_sub(1) {
            let spawned = std::thread::Builder::new()
                .name("mf-blas-pool".into())
                .spawn(worker_loop);
            if spawned.is_err() {
                // Could not create the thread; the caller still drains the
                // cursor itself, so the dispatch completes regardless.
                break;
            }
            st.workers += 1;
            POOL_WORKERS_LIVE.set(st.workers as i64);
        }
        let job = Arc::new(Job {
            task,
            nchunks,
            cursor: AtomicUsize::new(0),
            remaining: Mutex::new(nchunks),
            done: Condvar::new(),
            claimed: AtomicBool::new(false),
            enqueued: Instant::now(),
        });
        st.queue.push_back(Arc::clone(&job));
        // Pruning here too keeps the queue bounded when the pool has no
        // workers to prune it.
        st.prune();
        job
    };
    pool.work.notify_all();
    job.execute(false);
    job.wait();
    POOL_JOBS_INFLIGHT.decr();
}

/// Live pool workers (0 before the first dispatch that needs one).
pub fn worker_count() -> usize {
    lock_state().workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn all_chunks_run_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
        run(3, hits.len(), &|i| {
            hits[i].fetch_add(1, Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Relaxed), 1, "chunk {i}");
        }
    }

    #[test]
    fn single_chunk_and_zero_worker_pool_complete() {
        // A dispatch at one thread asks for no worker, yet its 8 chunks
        // complete because the caller drains the cursor itself.
        let sum = AtomicU64::new(0);
        run(1, 8, &|i| {
            sum.fetch_add(i as u64 + 1, Relaxed);
        });
        assert_eq!(sum.load(Relaxed), 36);
        // Degenerate single-chunk job (the zero-length kernel shape).
        let ran = AtomicUsize::new(0);
        run(2, 1, &|_| {
            ran.fetch_add(1, Relaxed);
        });
        assert_eq!(ran.load(Relaxed), 1);
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        // At most 1 worker for 4 outer chunks each dispatching 4 inner
        // chunks: heavily oversubscribed. Caller-helps means every level
        // drains.
        let inner_hits = AtomicU64::new(0);
        run(2, 4, &|_| {
            run(2, 4, &|j| {
                inner_hits.fetch_add(1 + j as u64, Relaxed);
            });
        });
        assert_eq!(inner_hits.load(Relaxed), 4 * (1 + 2 + 3 + 4));
    }

    /// The pool grows to `min(threads, cap) − 1` workers and never past
    /// `cap − 1`. Other tests in this binary may have grown it already, so
    /// only bounds are asserted.
    #[test]
    fn grows_to_threads_minus_one_under_the_cap() {
        let cap = pool().cap;
        for threads in [2, cap, cap + 3] {
            let hits: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            run(threads, hits.len(), &|i| {
                hits[i].fetch_add(1, Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Relaxed) == 1), "t={threads}");
            let live = worker_count();
            assert!(live >= threads.min(cap) - 1, "t={threads}: {live} workers");
            assert!(live < cap, "t={threads}: {live} workers, cap {cap}");
        }
    }

    #[test]
    fn panicking_task_is_contained() {
        // A task that violates the no-unwind contract: the pool swallows
        // the panic (counted) and every chunk still completes.
        let survived = AtomicUsize::new(0);
        run(2, 4, &|i| {
            survived.fetch_add(1, Relaxed);
            if i == 1 {
                panic!("pool contract violation (injected)");
            }
        });
        assert_eq!(survived.load(Relaxed), 4);
        // Nothing is wedged: the next dispatch still computes.
        let after = AtomicUsize::new(0);
        run(2, 3, &|_| {
            after.fetch_add(1, Relaxed);
        });
        assert_eq!(after.load(Relaxed), 3);
    }

    /// Straggler rebalancing: with chunk-granular claiming, one slow chunk
    /// cannot serialize the rest — the other worker(s) and the caller
    /// drain every remaining chunk while it runs.
    #[test]
    fn slow_chunk_does_not_block_the_rest() {
        let done_before_slow = AtomicUsize::new(0);
        let slow_finished = AtomicBool::new(false);
        run(2, 8, &|i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
                slow_finished.store(true, Relaxed);
            } else {
                if !slow_finished.load(Relaxed) {
                    done_before_slow.fetch_add(1, Relaxed);
                }
            }
        });
        let before = done_before_slow.load(Relaxed);
        if pool().cap == 1 {
            // No workers: the dispatcher runs every chunk, in order.
            assert_eq!(before, 0);
        } else {
            // All 7 fast chunks normally finish during the slow one's
            // sleep; require at least one to keep the test robust on a
            // loaded box.
            assert!(
                before >= 1,
                "fast chunks must proceed while a straggler runs"
            );
        }
    }
}
