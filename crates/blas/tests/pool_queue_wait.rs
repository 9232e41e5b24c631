//! `pool.queue_wait` measures worker wake-up: one sample per job, taken
//! when a pool worker makes the job's first worker claim, and none for a
//! job the dispatcher drains alone.
//!
//! The section is process-global, so this file holds a single test (its
//! own test binary, no concurrent dispatches).
#![cfg(feature = "telemetry")]

use mf_blas::{parallel, Scalar};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

const SLEEP: Duration = Duration::from_millis(50);
const SLOW: f64 = 2.0;

/// The thread that ran the last multiply.
static LAST_MUL: Mutex<Option<ThreadId>> = Mutex::new(None);

/// A scalar whose multiplies involving `SLOW` sleep for `SLEEP`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Slow(f64);

impl Scalar for Slow {
    fn s_zero() -> Self {
        Slow(0.0)
    }
    fn s_add(self, o: Self) -> Self {
        Slow(self.0 + o.0)
    }
    fn s_mul(self, o: Self) -> Self {
        *LAST_MUL.lock().unwrap() = Some(std::thread::current().id());
        if self.0 == SLOW || o.0 == SLOW {
            std::thread::sleep(SLEEP);
        }
        Slow(self.0 * o.0)
    }
    fn s_from_f64(x: f64) -> Self {
        Slow(x)
    }
    fn s_to_f64(self) -> f64 {
        self.0
    }
    fn s_is_zero(self) -> bool {
        self.0 == 0.0
    }
}

/// `(samples, total ns)` of the `pool.queue_wait` section so far.
fn queue_wait() -> (u64, u64) {
    (mf_telemetry::snapshot().sections.into_iter())
        .find(|s| s.name == "pool.queue_wait")
        .map_or((0, 0), |s| (s.count, s.total_ns))
}

/// `y <- x + y` from `y = 0` at two threads, one chunk per element.
fn axpy2(x: &[Slow]) -> Vec<Slow> {
    let mut y = vec![Slow(0.0); x.len()];
    parallel::axpy(Slow(1.0), x, &mut y, 2);
    y
}

mod pool {
    use super::*;

    #[test]
    #[cfg_attr(miri, ignore = "bounds a wall-clock wake-up latency")]
    fn queue_wait_samples_one_worker_claim_per_job() {
        // Warm-up, so the jobs below wake a parked worker (if the pool
        // has one) rather than spawn it.
        axpy2(&[Slow(1.0); 2]);

        // A one-chunk job: the dispatcher claims its chunk right after
        // publishing, nearly always before a worker wakes. It is sampled
        // exactly when a worker ran the chunk.
        let before = queue_wait().0;
        assert_eq!(axpy2(&[Slow(1.0)]), [Slow(1.0)]);
        let on_worker = *LAST_MUL.lock().unwrap() != Some(std::thread::current().id());
        assert_eq!(queue_wait().0, before + u64::from(on_worker));

        // Two chunks, chunk 0 sleeping. Whoever claims it, a worker claims
        // a chunk within the sleep: chunk 1, or chunk 0 itself.
        let before = queue_wait();
        assert_eq!(axpy2(&[Slow(SLOW), Slow(1.0)]), [Slow(SLOW), Slow(1.0)]);
        let (count, ns) = queue_wait();
        if parallel::default_threads() == 1 {
            // MF_BLAS_THREADS=1: no workers, so the dispatcher drains the
            // job alone and records nothing.
            assert_eq!(count, before.0);
        } else {
            assert_eq!(count, before.0 + 1, "one sample per job");
            let wait = Duration::from_nanos(ns - before.1);
            assert!(wait < SLEEP, "queue wait {wait:?} is not below the sleep");
        }
    }
}
