//! Thread-parallel kernel wrappers (chunked rows on the worker pool).
//!
//! The paper runs every kernel in thread-per-physical-core and
//! thread-per-logical-core configurations and reports the max. These
//! wrappers provide the same knob. On the 2-vCPU hosts this reproduction
//! is measured on they mostly measure dispatch overhead (EXPERIMENTS.md,
//! substitution T7); the implementations are real and scale on
//! multi-core hosts.
//!
//! # Executor
//!
//! Every pooled kernel in the crate — the wrappers here,
//! [`crate::tile::gemm_tiled`] and the [`crate::adaptive`] entry points —
//! runs its chunks through one executor, `run_chunks`. On the pool
//! ([`crate::pool`]) workers claim chunk indices from a shared atomic
//! cursor, amortizing thread creation across calls and rebalancing
//! stragglers. The dispatching thread claims chunks too, so a call at
//! `threads` needs only `threads − 1` workers, and the pool grows to that
//! (capped by [`default_threads`]) on the call itself. Chunk boundaries
//! are a function of `threads` alone, so which thread runs a chunk never
//! changes a result's bits.
//!
//! # Panic isolation
//!
//! Every pooled chunk runs under [`std::panic::catch_unwind`] with a
//! snapshot of its output slice. A panicking chunk no longer poisons the
//! whole call: its slice is restored and the executor then *degrades* it
//! to a rerun on the calling thread, in chunk order (counted in
//! `blas.parallel.degraded_*` telemetry). Only if the rerun panics too does
//! the panic propagate — and then with the kernel name and chunk range in
//! the message. Chunks never unwind into the pool.

use crate::{kernels, Matrix, Scalar};
use mf_telemetry::{trace, Counter, Histogram};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

static PAR_DISPATCHES: Counter = Counter::new("blas.parallel.dispatches");
static PAR_TASKS: Counter = Counter::new("blas.parallel.tasks");
static PAR_ROWS: Counter = Counter::new("blas.parallel.rows");
/// Per-dispatch work imbalance: largest minus smallest chunk (rows for
/// GEMV/GEMM, elements for AXPY/DOT). Nonzero buckets mean some threads
/// idle while others finish their remainder rows.
static PAR_CHUNK_IMBALANCE: Histogram = Histogram::new("blas.parallel.chunk_imbalance");
/// Dispatches in which at least one worker panicked and its chunks were
/// degraded to the serial kernel.
static PAR_DEGRADED_DISPATCHES: Counter = Counter::new("blas.parallel.degraded_dispatches");
/// Individual chunks rerun serially after a worker panic.
static PAR_DEGRADED_CHUNKS: Counter = Counter::new("blas.parallel.degraded_chunks");

/// `chunk_ranges(len, threads)` for one parallel dispatch, recorded as
/// one task per chunk.
pub(crate) fn dispatch_ranges(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let ranges = chunk_ranges(len, threads);
    if !mf_telemetry::ENABLED {
        return ranges;
    }
    PAR_DISPATCHES.incr();
    PAR_TASKS.add(ranges.len() as u64);
    let sizes = ranges.iter().map(|&(lo, hi)| hi - lo);
    PAR_ROWS.add(sizes.clone().sum::<usize>() as u64);
    let max = sizes.clone().max().unwrap_or(0);
    let min = sizes.min().unwrap_or(0);
    PAR_CHUNK_IMBALANCE.record((max - min) as u64);
    ranges
}

/// Default thread count: the `MF_BLAS_THREADS` environment variable when
/// set to a positive integer (reproducible benchmarking), otherwise the
/// machine's available parallelism. Each call re-reads both, which can
/// cost microseconds; the pool reads it once, as the ceiling on any
/// call's thread count (so `MF_BLAS_THREADS=1` means no pool workers).
pub fn default_threads() -> usize {
    threads_from(std::env::var("MF_BLAS_THREADS").ok().as_deref())
}

/// [`default_threads`] for a given value of `MF_BLAS_THREADS`.
fn threads_from(var: Option<&str>) -> usize {
    (var.and_then(|v| v.trim().parse::<usize>().ok()))
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

pub(crate) fn chunk_ranges(len: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let sz = base + usize::from(p < extra);
        out.push((start, start + sz));
        start += sz;
    }
    out
}

/// Best-effort description of a panic payload (the `&str`/`String` cases
/// `panic!` produces).
fn describe_panic(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The crate's one chunk executor: `task(ci, (lo, hi), chunk)` for every
/// chunk `ranges[ci] = (lo, hi)`, where `chunk` is `out[lo*stride..hi*stride]`.
/// Returns the results in chunk order and the number of degraded chunks.
/// The chunks must be ascending and disjoint (checked). With `stride == 0`
/// every chunk is empty (reductions, and kernels that write their output
/// themselves).
///
/// With `threads <= 1` the chunks run inline, in order, unisolated.
/// Otherwise they run on the pool, each under `catch_unwind` inside a
/// `span` (arg `hi - lo`) when one is named, with a snapshot of its slice:
/// a panicking chunk gets its slice restored and is rerun on the caller,
/// in chunk order, through [`degraded_rerun`].
pub(crate) fn run_chunks<S: Copy + Send, R: Send>(
    kernel: &str,
    span: Option<&'static str>,
    threads: usize,
    ranges: &[(usize, usize)],
    out: &mut [S],
    stride: usize,
    task: impl Fn(usize, (usize, usize), &mut [S]) -> R + Sync,
) -> (Vec<R>, usize) {
    let elems = |(lo, hi): (usize, usize)| lo * stride..hi * stride;
    if threads <= 1 {
        let results = (ranges.iter().enumerate())
            .map(|(ci, &r)| task(ci, r, &mut out[elems(r)]))
            .collect();
        return (results, 0);
    }
    // The pool decides at run time which thread runs which chunk, so split
    // `out` into the chunks' slices up front (`split_at_mut` checks that
    // they are ascending and in bounds), each in a cell with its result.
    let (mut rest, mut at) = (&mut *out, 0);
    let cells: Vec<Mutex<(&mut [S], Option<R>)>> = (ranges.iter())
        .map(|&r| {
            let e = elems(r);
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(e.start - at);
            let (chunk, tail) = tail.split_at_mut(e.len());
            (rest, at) = (tail, e.end);
            Mutex::new((chunk, None))
        })
        .collect();
    crate::pool::run(threads, ranges.len(), &|ci| {
        let (lo, hi) = ranges[ci];
        let _t = span.map(|name| trace::span(name, (hi - lo) as u64));
        let mut cell = cells[ci]
            .lock()
            .expect("chunk panics are caught inside the lock");
        let (chunk, result) = &mut *cell;
        let snapshot = chunk.to_vec();
        match catch_unwind(AssertUnwindSafe(|| task(ci, (lo, hi), chunk))) {
            Ok(r) => *result = Some(r),
            Err(_) => chunk.copy_from_slice(&snapshot),
        }
    });
    let slots: Vec<Option<R>> = (cells.into_iter())
        .map(|c| {
            c.into_inner()
                .expect("chunk panics are caught inside the lock")
                .1
        })
        .collect();
    let degraded = slots.iter().filter(|s| s.is_none()).count();
    if mf_telemetry::ENABLED && degraded > 0 {
        PAR_DEGRADED_DISPATCHES.incr();
        PAR_DEGRADED_CHUNKS.add(degraded as u64);
    }
    let results = (slots.into_iter().zip(ranges).enumerate())
        .map(|(ci, (slot, &r))| {
            slot.unwrap_or_else(|| degraded_rerun(kernel, r, || task(ci, r, &mut out[elems(r)])))
        })
        .collect();
    (results, degraded)
}

/// Serial retry of a degraded chunk. A second (deterministic) panic
/// propagates with the kernel name and chunk range attached.
fn degraded_rerun<R>(kernel: &str, (lo, hi): (usize, usize), f: impl FnOnce() -> R) -> R {
    // On the timeline a degrade shows as a serial span on the dispatching
    // thread *after* the worker spans — the visual signature of a panic
    // falling back to the serial kernel.
    let _sp = trace::span("par.degraded.rerun", (hi - lo) as u64);
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        panic!(
            "mf-blas {kernel}: worker and serial retry both panicked on chunk {lo}..{hi}: {}",
            describe_panic(p.as_ref())
        )
    })
}

/// Parallel `y <- alpha*x + y`.
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S], threads: usize) {
    assert_eq!(x.len(), y.len());
    if threads <= 1 {
        return kernels::axpy(alpha, x, y);
    }
    let ranges = dispatch_ranges(y.len(), threads);
    let _sp = trace::span("par.axpy", y.len() as u64);
    run_chunks(
        "axpy",
        Some("par.axpy.chunk"),
        threads,
        &ranges,
        y,
        1,
        |_, (lo, hi), y| kernels::axpy(alpha, &x[lo..hi], y),
    );
}

/// Parallel dot product (per-chunk partials, then a serial reduce in chunk
/// order).
pub fn dot<S: Scalar>(x: &[S], y: &[S], threads: usize) -> S {
    assert_eq!(x.len(), y.len());
    if threads <= 1 {
        return kernels::dot(x, y);
    }
    let ranges = dispatch_ranges(x.len(), threads);
    let _sp = trace::span("par.dot", x.len() as u64);
    let (partials, _) = run_chunks(
        "dot",
        Some("par.dot.chunk"),
        threads,
        &ranges,
        &mut [(); 0],
        0,
        |_, (lo, hi), _| kernels::dot(&x[lo..hi], &y[lo..hi]),
    );
    // The chunks' own work was counted by `kernels::dot`; add the reduce.
    S::s_record_ops(ranges.len(), 0);
    partials.into_iter().fold(S::s_zero(), S::s_add)
}

/// Parallel GEMV: rows are divided among threads.
pub fn gemv<S: Scalar>(alpha: S, a: &Matrix<S>, x: &[S], beta: S, y: &mut [S], threads: usize) {
    assert_eq!(
        a.cols,
        x.len(),
        "gemv: A is {}x{} but x has {} elements",
        a.rows,
        a.cols,
        x.len()
    );
    assert_eq!(
        a.rows,
        y.len(),
        "gemv: A is {}x{} but y has {} elements",
        a.rows,
        a.cols,
        y.len()
    );
    if threads <= 1 {
        return kernels::gemv(alpha, a, x, beta, y);
    }
    let ranges = dispatch_ranges(a.rows, threads);
    // The chunks' row blocks report nothing; count the whole GEMV once.
    let (adds, muls) = kernels::gemv_ops(a.rows, a.cols, beta.s_is_zero());
    S::s_record_ops(adds, muls);
    let _sp = trace::span("par.gemv", a.rows as u64);
    run_chunks(
        "gemv",
        Some("par.gemv.chunk"),
        threads,
        &ranges,
        y,
        1,
        |_, (lo, _), y| kernels::gemv_rows(alpha, a, x, beta, y, lo),
    );
}

/// Parallel GEMM: output row blocks are divided among threads.
pub fn gemm<S: Scalar>(
    alpha: S,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: S,
    c: &mut Matrix<S>,
    threads: usize,
) {
    // Validate shapes before any chunking: a mismatched `b.rows` would read
    // wrong strides, and a short `c.data` would hand out-of-bounds chunk
    // ranges to the executor.
    assert_eq!(
        a.cols, b.rows,
        "gemm: A is {}x{} but B is {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    assert_eq!(
        c.rows, a.rows,
        "gemm: C is {}x{} but A*B is {}x{}",
        c.rows, c.cols, a.rows, b.cols
    );
    assert_eq!(
        c.cols, b.cols,
        "gemm: C is {}x{} but A*B is {}x{}",
        c.rows, c.cols, a.rows, b.cols
    );
    if threads <= 1 {
        return kernels::gemm(alpha, a, b, beta, c);
    }
    let (adds, muls) = kernels::gemm_ops(a.rows, a.cols, b.cols, beta.s_is_zero());
    S::s_record_ops(adds, muls);
    let ranges = dispatch_ranges(a.rows, threads);
    let _sp = trace::span("par.gemm", a.rows as u64);
    let c = &mut c.data;
    run_chunks(
        "gemm",
        Some("par.gemm.chunk"),
        threads,
        &ranges,
        c,
        b.cols,
        |_, (lo, _), c| kernels::gemm_rows(alpha, a, b, beta, c, lo),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_core::F64x2;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

    #[test]
    fn parallel_matches_serial() {
        let mut rng = SmallRng::seed_from_u64(930);
        let n = 127;
        let alpha = F64x2::from(1.5);
        let x: Vec<F64x2> = (0..n)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let y0: Vec<F64x2> = (0..n)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect();

        for threads in [1usize, 2, 3, 8] {
            let mut y_par = y0.clone();
            axpy(alpha, &x, &mut y_par, threads);
            let mut y_ser = y0.clone();
            kernels::axpy(alpha, &x, &mut y_ser);
            for i in 0..n {
                assert_eq!(
                    y_par[i].components(),
                    y_ser[i].components(),
                    "t={threads} i={i}"
                );
            }

            // dot: partial sums reorder the reduction; compare numerically.
            let d_par = dot(&x, &y0, threads).to_f64();
            let d_ser = kernels::dot(&x, &y0).to_f64();
            assert!((d_par - d_ser).abs() <= 1e-25, "t={threads}");
        }
    }

    /// `dot`'s bits are fixed by its chunking alone: the serial dot of each
    /// `chunk_ranges(n, threads)` range, folded from zero in chunk order,
    /// whichever threads ran the chunks.
    #[test]
    fn dot_is_the_chunk_order_fold_of_serial_partials() {
        let mut rng = SmallRng::seed_from_u64(932);
        let n = 1001;
        let mut vec = || -> Vec<F64x2> {
            (0..n)
                .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)) * F64x2::from(rng.gen::<f64>()))
                .collect()
        };
        let (x, y) = (vec(), vec());
        for threads in [2usize, 3, 5, 8] {
            let folded = (chunk_ranges(n, threads).into_iter())
                .map(|(lo, hi)| kernels::dot(&x[lo..hi], &y[lo..hi]))
                .fold(F64x2::s_zero(), F64x2::s_add);
            assert_eq!(
                dot(&x, &y, threads).components().map(f64::to_bits),
                folded.components().map(f64::to_bits),
                "t={threads}"
            );
        }
    }

    /// Zero-length inputs dispatch a single empty chunk without touching
    /// memory or hanging.
    #[test]
    fn zero_length_inputs() {
        let alpha = F64x2::from(2.0);
        let x: Vec<F64x2> = Vec::new();
        let mut y: Vec<F64x2> = Vec::new();
        axpy(alpha, &x, &mut y, 4);
        assert!(y.is_empty());
        assert_eq!(dot(&x, &y, 4).to_f64(), 0.0);

        // 0-row matrix: gemv/gemm over no rows.
        let a = Matrix::from_fn(0, 3, |_, _| F64x2::from(1.0));
        let xv = vec![F64x2::from(1.0); 3];
        let mut yv: Vec<F64x2> = Vec::new();
        gemv(alpha, &a, &xv, F64x2::from(0.0), &mut yv, 4);
        let b = Matrix::from_fn(3, 2, |_, _| F64x2::from(1.0));
        let mut c = Matrix::from_fn(0, 2, |_, _| F64x2::from(0.0));
        gemm(alpha, &a, &b, F64x2::from(0.0), &mut c, 4);
        assert!(c.data.is_empty());
    }

    #[test]
    fn parallel_gemm_matches_serial() {
        let mut rng = SmallRng::seed_from_u64(931);
        let (m, k, n) = (13, 9, 11);
        let a = Matrix::from_fn(m, k, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let b = Matrix::from_fn(k, n, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let c0 = Matrix::from_fn(m, n, |_, _| F64x2::from(rng.gen_range(-1.0..1.0f64)));
        let alpha = F64x2::from(0.75);
        let beta = F64x2::from(-1.25);
        let mut c_ser = c0.clone();
        kernels::gemm(alpha, &a, &b, beta, &mut c_ser);
        for threads in [2usize, 4, 7] {
            let mut c_par = c0.clone();
            gemm(alpha, &a, &b, beta, &mut c_par, threads);
            for i in 0..m * n {
                assert_eq!(c_par.data[i].components(), c_ser.data[i].components());
            }
        }
        // gemv
        let x: Vec<F64x2> = (0..k)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let y0: Vec<F64x2> = (0..m)
            .map(|_| F64x2::from(rng.gen_range(-1.0..1.0)))
            .collect();
        let mut y_ser = y0.clone();
        kernels::gemv(alpha, &a, &x, beta, &mut y_ser);
        let mut y_par = y0.clone();
        gemv(alpha, &a, &x, beta, &mut y_par, 3);
        for i in 0..m {
            assert_eq!(y_par[i].components(), y_ser[i].components());
        }
    }

    #[test]
    #[should_panic(expected = "gemm: A is")]
    fn gemm_rejects_inner_dim_mismatch() {
        let a = Matrix::from_fn(3, 4, |_, _| F64x2::from(1.0));
        let b = Matrix::from_fn(5, 2, |_, _| F64x2::from(1.0));
        let mut c = Matrix::from_fn(3, 2, |_, _| F64x2::from(0.0));
        gemm(F64x2::from(1.0), &a, &b, F64x2::from(0.0), &mut c, 2);
    }

    #[test]
    #[should_panic(expected = "gemm: C is")]
    fn gemm_rejects_output_shape_mismatch() {
        let a = Matrix::from_fn(3, 4, |_, _| F64x2::from(1.0));
        let b = Matrix::from_fn(4, 2, |_, _| F64x2::from(1.0));
        let mut c = Matrix::from_fn(2, 2, |_, _| F64x2::from(0.0));
        gemm(F64x2::from(1.0), &a, &b, F64x2::from(0.0), &mut c, 2);
    }

    #[test]
    #[should_panic(expected = "gemv: A is")]
    fn gemv_rejects_x_length_mismatch() {
        let a = Matrix::from_fn(3, 4, |_, _| F64x2::from(1.0));
        let x = vec![F64x2::from(1.0); 3]; // needs 4
        let mut y = vec![F64x2::from(0.0); 3];
        gemv(F64x2::from(1.0), &a, &x, F64x2::from(0.0), &mut y, 2);
    }

    #[test]
    fn chunking_covers_everything() {
        for len in [0usize, 1, 5, 16, 17] {
            for parts in [1usize, 2, 3, 8, 20] {
                let r = chunk_ranges(len, parts);
                let total: usize = r.iter().map(|(a, b)| b - a).sum();
                assert_eq!(total, len, "len={len} parts={parts}");
                for w in r.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn chunking_edge_cases() {
        // len=0: a single empty range, never an empty vec (workers iterate it).
        assert_eq!(chunk_ranges(0, 4), vec![(0, 0)]);
        assert_eq!(chunk_ranges(0, 0), vec![(0, 0)]);
        // threads=0 degrades to one chunk.
        assert_eq!(chunk_ranges(5, 0), vec![(0, 5)]);
        // threads > len: one chunk per element, no empty chunks.
        let r = chunk_ranges(3, 8);
        assert_eq!(r, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(r.iter().all(|&(lo, hi)| hi > lo));
    }

    #[test]
    fn default_threads_env_override() {
        // Parsed without touching the environment, which the pool reads
        // once per process as its ceiling.
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 12 ")), 12);
        // Unset, invalid or non-positive values fall back to the machine
        // default.
        let machine = threads_from(None);
        assert!(machine >= 1);
        assert_eq!(threads_from(Some("0")), machine);
        assert_eq!(threads_from(Some("lots")), machine);
        assert!(default_threads() >= 1);
    }

    /// A scalar whose multiply panics while the global fuse is lit: lets the
    /// tests inject exactly one worker panic, which must degrade that chunk
    /// to the serial kernel instead of poisoning the dispatch.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Flaky(f64);

    /// Positive: number of multiplies until a single panic fires (the
    /// counter then disarms by running past zero). At or below PERSISTENT:
    /// every multiply panics (a deterministic fault that survives the
    /// retry).
    static FUSE: AtomicI64 = AtomicI64::new(0);
    const PERSISTENT: i64 = i64::MIN / 2;
    /// Serializes the tests that arm the shared fuse.
    static FLAKY_LOCK: Mutex<()> = Mutex::new(());

    impl Scalar for Flaky {
        fn s_zero() -> Self {
            Flaky(0.0)
        }
        fn s_add(self, o: Self) -> Self {
            Flaky(self.0 + o.0)
        }
        fn s_mul(self, o: Self) -> Self {
            let v = FUSE.fetch_sub(1, Ordering::SeqCst);
            if v == 1 || v <= PERSISTENT {
                panic!("flaky scalar blew its fuse");
            }
            Flaky(self.0 * o.0)
        }
        fn s_from_f64(x: f64) -> Self {
            Flaky(x)
        }
        fn s_to_f64(self) -> f64 {
            self.0
        }
        fn s_is_zero(self) -> bool {
            self.0 == 0.0
        }
    }

    #[test]
    fn worker_panic_degrades_to_serial() {
        let _fuse = FLAKY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let n = 64;
        let x: Vec<Flaky> = (0..n).map(|i| Flaky(i as f64 * 0.25)).collect();
        let y0: Vec<Flaky> = (0..n).map(|i| Flaky(1.0 - i as f64 * 0.5)).collect();
        let alpha = Flaky(1.5);

        // Serial reference with the fuse disarmed.
        FUSE.store(0, Ordering::SeqCst);
        let mut y_ref = y0.clone();
        kernels::axpy(alpha, &x, &mut y_ref);
        let d_ref = kernels::dot(&x, &y0);

        // axpy: one worker panics mid-chunk; the result must still match.
        FUSE.store(10, Ordering::SeqCst);
        let mut y_par = y0.clone();
        axpy(alpha, &x, &mut y_par, 4);
        FUSE.store(0, Ordering::SeqCst);
        assert_eq!(y_par, y_ref, "degraded axpy dispatch diverged");

        // dot: a panicking partial is recomputed serially.
        FUSE.store(10, Ordering::SeqCst);
        let d_par = dot(&x, &y0, 4);
        FUSE.store(0, Ordering::SeqCst);
        assert_eq!(d_par, d_ref, "degraded dot dispatch diverged");
    }

    #[test]
    fn worker_panic_degrades_gemv_gemm() {
        let _fuse = FLAKY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (m, k, n) = (12, 7, 9);
        let a = Matrix::from_fn(m, k, |i, j| Flaky((i * k + j) as f64 * 0.125 - 2.0));
        let b = Matrix::from_fn(k, n, |i, j| Flaky((i * n + j) as f64 * 0.0625 - 1.0));
        let c0 = Matrix::from_fn(m, n, |i, j| Flaky((i + j) as f64 * 0.5));
        let x: Vec<Flaky> = (0..k).map(|i| Flaky(i as f64 - 3.0)).collect();
        let y0: Vec<Flaky> = (0..m).map(|i| Flaky(i as f64 * 0.75)).collect();
        let (alpha, beta) = (Flaky(0.75), Flaky(-1.25));

        FUSE.store(0, Ordering::SeqCst);
        let mut c_ref = c0.clone();
        kernels::gemm(alpha, &a, &b, beta, &mut c_ref);
        let mut y_ref = y0.clone();
        kernels::gemv(alpha, &a, &x, beta, &mut y_ref);

        FUSE.store(25, Ordering::SeqCst);
        let mut c_par = c0.clone();
        gemm(alpha, &a, &b, beta, &mut c_par, 4);
        FUSE.store(0, Ordering::SeqCst);
        assert_eq!(c_par.data, c_ref.data, "degraded gemm dispatch diverged");

        FUSE.store(20, Ordering::SeqCst);
        let mut y_par = y0.clone();
        gemv(alpha, &a, &x, beta, &mut y_par, 4);
        FUSE.store(0, Ordering::SeqCst);
        assert_eq!(y_par, y_ref, "degraded gemv dispatch diverged");
    }

    #[test]
    fn persistent_panic_propagates_with_context() {
        let _fuse = FLAKY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // A deterministic panic (fuse lit for far more multiplies than the
        // call makes) fails the serial retry too; the propagated message
        // must carry the kernel name and chunk range.
        let x: Vec<Flaky> = (0..16).map(|i| Flaky(i as f64)).collect();
        let y: Vec<Flaky> = (0..16).map(|i| Flaky(i as f64)).collect();
        FUSE.store(PERSISTENT, Ordering::SeqCst);
        let err = catch_unwind(AssertUnwindSafe(|| dot(&x, &y, 2))).unwrap_err();
        FUSE.store(0, Ordering::SeqCst);
        let msg = describe_panic(err.as_ref());
        assert!(msg.contains("mf-blas dot"), "got: {msg}");
        assert!(msg.contains("chunk 0..8"), "got: {msg}");
        assert!(msg.contains("flaky scalar blew its fuse"), "got: {msg}");
    }

    /// Acceptance: a parallel dispatch shows one `par.*.chunk` span per
    /// chunk in the exported Chrome trace (whichever thread — worker or
    /// helping caller — claims a chunk emits its span; one worker may run
    /// several chunks).
    #[cfg(feature = "telemetry")]
    #[test]
    fn pool_dispatch_traces_one_span_per_chunk() {
        use mf_telemetry::trace;
        trace::arm();
        // 36 rows over 4 threads -> four chunks of exactly 9 rows; no other
        // test in this binary dispatches gemv with that chunk size.
        let (m, k) = (36, 6);
        let a = Matrix::from_fn(m, k, |i, j| F64x2::from((i + 2 * j) as f64 * 0.25));
        let x: Vec<F64x2> = (0..k).map(|j| F64x2::from(j as f64 - 2.0)).collect();
        let mut y = vec![F64x2::from(0.0); m];
        gemv(F64x2::from(1.0), &a, &x, F64x2::from(0.0), &mut y, 4);

        let doc = trace::chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let chunk_begins = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(|v| v.as_str()) == Some("par.gemv.chunk")
                    && e.get("ph").and_then(|v| v.as_str()) == Some("B")
                    && e.get("args")
                        .and_then(|a| a.get("arg"))
                        .and_then(|v| v.as_u64())
                        == Some(9)
            })
            .count();
        assert_eq!(chunk_begins, 4, "expected one chunk span per chunk");
    }

    /// A stride-3 task over 7 rows whose chunk 1, with `fuse` lit, writes
    /// its slice and then panics once: `(output, results, degraded)`.
    fn stride3_run(threads: usize, fuse: bool) -> (Vec<u64>, Vec<usize>, usize) {
        let (fuse, mut out) = (AtomicBool::new(fuse), (0..21).collect::<Vec<u64>>());
        let (r, degraded) = run_chunks(
            "probe",
            None,
            threads,
            &chunk_ranges(7, 3),
            &mut out,
            3,
            |ci, _, out| {
                out.iter_mut().for_each(|v| *v = *v * 10 + ci as u64);
                if ci == 1 && fuse.swap(false, Ordering::SeqCst) {
                    panic!("injected chunk panic");
                }
                ci
            },
        );
        (out, r, degraded)
    }

    #[test]
    fn run_chunks_restores_and_reruns_a_panicking_chunk() {
        let (clean, r, _) = stride3_run(1, false);
        assert_eq!(r, vec![0, 1, 2]);
        // The partial write is rolled back before the rerun.
        assert_eq!(stride3_run(2, true), (clean, r, 1));
    }

    #[test]
    fn run_chunks_degrades_a_reduction() {
        let ranges = chunk_ranges(10, 4);
        let fuse = AtomicBool::new(false);
        let task = |ci, (lo, hi): (usize, usize), _: &mut [()]| {
            if ci == 2 && fuse.swap(false, Ordering::SeqCst) {
                panic!("injected chunk panic");
            }
            (lo..hi).map(|i| i * i).sum::<usize>()
        };
        let (clean, _) = run_chunks("probe", None, 1, &ranges, &mut [(); 0], 0, task);
        fuse.store(true, Ordering::SeqCst);
        let (r, degraded) = run_chunks("probe", None, 3, &ranges, &mut [(); 0], 0, task);
        assert_eq!(degraded, 1);
        assert_eq!(r, clean);
        assert_eq!(r.iter().sum::<usize>(), (0..10).map(|i| i * i).sum());
    }

    #[test]
    fn run_chunks_returns_results_in_chunk_order() {
        let ranges = chunk_ranges(23, 9);
        let mut out = vec![0usize; 23];
        let (r, degraded) = run_chunks("probe", None, 4, &ranges, &mut out, 1, |ci, r, out| {
            out.fill(ci);
            r
        });
        assert_eq!((r, degraded), (ranges.clone(), 0));
        for (ci, &(lo, hi)) in ranges.iter().enumerate() {
            assert!(out[lo..hi].iter().all(|&v| v == ci), "chunk {ci}");
        }
    }

    #[test]
    fn run_chunks_persistent_panic_names_kernel_and_range() {
        let ranges = chunk_ranges(7, 3);
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_chunks("probe", None, 2, &ranges, &mut [(); 0], 0, |ci, _, _| {
                assert_ne!(ci, 1, "deterministic chunk fault");
            })
        }))
        .unwrap_err();
        let msg = describe_panic(err.as_ref());
        assert!(msg.contains("mf-blas probe"), "got: {msg}");
        assert!(msg.contains("chunk 3..5"), "got: {msg}");
        assert!(msg.contains("deterministic chunk fault"), "got: {msg}");
    }
}
