//! `dd-kernels`: double-double (`N = 2`) kernels through the SoA/SIMD,
//! tiled, pooled-parallel and adaptive paths, plus a serial GEMV on the
//! parallel GEMV's operands as the scaling baseline.

use super::{
    gops_metrics, mp, mp_dot, mp_gemm, mp_gemv, need_bits, push_bits, Call, CallTime, Check, Layer,
    Workload,
};
use crate::inputs::Rng;
use crate::measure::Tracer;
use mf_blas::adaptive::{dot_adaptive, AdaptiveReport, ADAPTIVE_CHUNK};
use mf_blas::soa::{SoaMatrix, SoaVec};
use mf_blas::{kernels, parallel, soa, tile, Matrix};
use mf_core::{EscalationPolicy, F64x2};
use mf_mpsoft::MpFloat;
use std::hint::black_box;

/// Element counts. With 16 bytes per element every operand set stays well
/// inside one core's 4 MiB L2 (the workload doc tabulates them).
pub const SOA_LEN: usize = 65536;
pub const SOA_GEMV: usize = 384;
/// Tiled GEMM is `TILE_M x TILE_K` times `TILE_K x TILE_M`: two row tiles,
/// so both pool threads get one.
pub const TILE_M: usize = 64;
pub const TILE_K: usize = 16;
pub const PAR_DOT_LEN: usize = 4096;
pub const PAR_GEMV: usize = 128;
pub const ADAPT_LEN: usize = 8192;
/// One adaptive chunk in this many is built to overflow and cancel.
pub const ADAPT_HOSTILE_EVERY: usize = 64;
/// Threads for the pooled calls (the pool itself keeps its default size).
pub const THREADS: usize = 2;

const SOA_DOT: u16 = 0;
const SOA_AXPY: u16 = 1;
const SOA_GEMV_C: u16 = 2;
const TILE_GEMM_C: u16 = 3;
const PAR_DOT: u16 = 4;
const PAR_GEMV_C: u16 = 5;
const SERIAL_GEMV: u16 = 6;
const ADAPT_DOT: u16 = 7;

/// Seeded operands, generated before set-up timing starts.
pub struct Inputs {
    alpha: F64x2,
    dot_x: Vec<F64x2>,
    dot_y: Vec<F64x2>,
    axpy_x: Vec<F64x2>,
    axpy_y: Vec<F64x2>,
    gemv_a: Vec<F64x2>,
    gemv_x: Vec<F64x2>,
    gemm_a: Vec<F64x2>,
    gemm_b: Vec<F64x2>,
    pdot_x: Vec<F64x2>,
    pdot_y: Vec<F64x2>,
    pgemv_a: Vec<F64x2>,
    pgemv_x: Vec<F64x2>,
    adapt_x: Vec<F64x2>,
    adapt_y: Vec<F64x2>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let v = |tag: u64, len: usize| Rng::new(seed, tag).mf_vec::<2>(len, 0.5, 2.0);
        let (mut adapt_x, mut adapt_y) = (v(13, ADAPT_LEN), v(14, ADAPT_LEN));
        // One seeded chunk in each group of ADAPT_HOSTILE_EVERY holds
        // x·y = 2^1023, 2^1023, -2^1024 at three consecutive seeded
        // positions: the products cancel exactly, but the running
        // double-double sum overflows, so the chunk escalates (through N=3
        // and N=4, which overflow too, to the exact MpFloat rung).
        let mut rng = Rng::new(seed, 15);
        let big = F64x2::from(2f64.powi(511));
        let huge = F64x2::from(2f64.powi(512));
        for group in 0..ADAPT_LEN / ADAPTIVE_CHUNK / ADAPT_HOSTILE_EVERY {
            let chunk = group * ADAPT_HOSTILE_EVERY + rng.below(ADAPT_HOSTILE_EVERY);
            let p = chunk * ADAPTIVE_CHUNK + rng.below(ADAPTIVE_CHUNK - 2);
            adapt_x[p..p + 3].copy_from_slice(&[big, big, huge]);
            adapt_y[p..p + 3].copy_from_slice(&[huge, huge, -huge]);
        }
        Inputs {
            alpha: Rng::new(seed, 0).mf(0.5, 2.0),
            dot_x: v(1, SOA_LEN),
            dot_y: v(2, SOA_LEN),
            axpy_x: v(3, SOA_LEN),
            axpy_y: v(4, SOA_LEN),
            gemv_a: v(5, SOA_GEMV * SOA_GEMV),
            gemv_x: v(6, SOA_GEMV),
            gemm_a: v(7, TILE_M * TILE_K),
            gemm_b: v(8, TILE_K * TILE_M),
            pdot_x: v(9, PAR_DOT_LEN),
            pdot_y: v(10, PAR_DOT_LEN),
            pgemv_a: v(11, PAR_GEMV * PAR_GEMV),
            pgemv_x: v(12, PAR_GEMV),
            adapt_x,
            adapt_y,
        }
    }
}

pub struct DdKernels {
    inp: Inputs,
    calls: Vec<Call>,
    policy: EscalationPolicy,
    dot_x: SoaVec<f64, 2>,
    dot_y: SoaVec<f64, 2>,
    axpy_x: SoaVec<f64, 2>,
    axpy_y0: SoaVec<f64, 2>,
    axpy_y: SoaVec<f64, 2>,
    gemv_a: SoaMatrix<f64, 2>,
    gemv_x: SoaVec<f64, 2>,
    gemv_y: SoaVec<f64, 2>,
    gemm_a: SoaMatrix<f64, 2>,
    gemm_b: SoaMatrix<f64, 2>,
    gemm_c: SoaMatrix<f64, 2>,
    pgemv_a: Matrix<F64x2>,
    pgemv_y: Vec<F64x2>,
    sgemv_y: Vec<F64x2>,
    soa_dot: F64x2,
    par_dot: F64x2,
    adapt: (F64x2, AdaptiveReport),
}

fn soa_matrix(data: &[F64x2], rows: usize, cols: usize) -> SoaMatrix<f64, 2> {
    SoaMatrix::from_fn(rows, cols, |i, j| data[i * cols + j])
}

impl DdKernels {
    /// Library-side set-up: SoA and AoS operand construction.
    pub fn setup(inp: Inputs) -> Self {
        let sq = |n: usize| (n * n) as f64;
        let calls = vec![
            Call {
                span: "blas.soa.dot.n2",
                layer: Layer::BlasSoa,
                ops: SOA_LEN as f64,
            },
            Call {
                span: "blas.soa.axpy.n2",
                layer: Layer::BlasSoa,
                ops: SOA_LEN as f64,
            },
            Call {
                span: "blas.soa.gemv.n2",
                layer: Layer::BlasSoa,
                ops: sq(SOA_GEMV),
            },
            Call {
                span: "blas.tile.gemm.n2",
                layer: Layer::BlasTile,
                ops: sq(TILE_M) * TILE_K as f64,
            },
            Call {
                span: "blas.parallel.dot.n2",
                layer: Layer::BlasParallel,
                ops: PAR_DOT_LEN as f64,
            },
            Call {
                span: "blas.parallel.gemv.n2",
                layer: Layer::BlasParallel,
                ops: sq(PAR_GEMV),
            },
            Call {
                span: "blas.kernels.gemv.n2",
                layer: Layer::BlasKernels,
                ops: sq(PAR_GEMV),
            },
            Call {
                span: "blas.adaptive.dot",
                layer: Layer::BlasAdaptive,
                ops: ADAPT_LEN as f64,
            },
        ];
        DdKernels {
            calls,
            policy: EscalationPolicy::default(),
            dot_x: SoaVec::from_slice(&inp.dot_x),
            dot_y: SoaVec::from_slice(&inp.dot_y),
            axpy_x: SoaVec::from_slice(&inp.axpy_x),
            axpy_y0: SoaVec::from_slice(&inp.axpy_y),
            axpy_y: SoaVec::from_slice(&inp.axpy_y),
            gemv_a: soa_matrix(&inp.gemv_a, SOA_GEMV, SOA_GEMV),
            gemv_x: SoaVec::from_slice(&inp.gemv_x),
            gemv_y: SoaVec::zeros(SOA_GEMV),
            gemm_a: soa_matrix(&inp.gemm_a, TILE_M, TILE_K),
            gemm_b: soa_matrix(&inp.gemm_b, TILE_K, TILE_M),
            gemm_c: SoaMatrix::zeros(TILE_M, TILE_M),
            pgemv_a: Matrix {
                rows: PAR_GEMV,
                cols: PAR_GEMV,
                data: inp.pgemv_a.clone(),
            },
            pgemv_y: vec![F64x2::ZERO; PAR_GEMV],
            sgemv_y: vec![F64x2::ZERO; PAR_GEMV],
            soa_dot: F64x2::ZERO,
            par_dot: F64x2::ZERO,
            adapt: (F64x2::ZERO, AdaptiveReport::default()),
            inp,
        }
    }
}

fn soa_bits(out: &mut Vec<u64>, comps: &[Vec<f64>]) {
    for c in comps {
        out.extend(c.iter().map(|v| v.to_bits()));
    }
}

impl Workload for DdKernels {
    fn calls(&self) -> &[Call] {
        &self.calls
    }

    fn unit(&mut self, tr: &mut Tracer) {
        let alpha = black_box(self.inp.alpha);
        let zero = F64x2::ZERO;
        self.soa_dot = tr.span(SOA_DOT, || soa::dot(&self.dot_x, &self.dot_y));
        // AXPY works in place: every unit starts from the same y.
        for (d, s) in self.axpy_y.comps.iter_mut().zip(&self.axpy_y0.comps) {
            d.copy_from_slice(s);
        }
        tr.span(SOA_AXPY, || {
            soa::axpy(alpha, &self.axpy_x, &mut self.axpy_y)
        });
        tr.span(SOA_GEMV_C, || {
            soa::gemv(alpha, &self.gemv_a, &self.gemv_x, zero, &mut self.gemv_y)
        });
        tr.span(TILE_GEMM_C, || {
            tile::gemm_tiled(
                alpha,
                &self.gemm_a,
                &self.gemm_b,
                zero,
                &mut self.gemm_c,
                THREADS,
            )
        });
        self.par_dot = tr.span(PAR_DOT, || {
            parallel::dot(&self.inp.pdot_x, &self.inp.pdot_y, THREADS)
        });
        tr.span(PAR_GEMV_C, || {
            parallel::gemv(
                alpha,
                &self.pgemv_a,
                &self.inp.pgemv_x,
                zero,
                &mut self.pgemv_y,
                THREADS,
            )
        });
        tr.span(SERIAL_GEMV, || {
            kernels::gemv(
                alpha,
                &self.pgemv_a,
                &self.inp.pgemv_x,
                zero,
                &mut self.sgemv_y,
            )
        });
        self.adapt = tr.span(ADAPT_DOT, || {
            dot_adaptive(&self.inp.adapt_x, &self.inp.adapt_y, &self.policy, 1)
        });
    }

    fn outputs(&self, out: &mut Vec<u64>) {
        push_bits(out, &[self.soa_dot, self.par_dot, self.adapt.0]);
        soa_bits(out, &self.axpy_y.comps);
        soa_bits(out, &self.gemv_y.comps);
        soa_bits(out, &self.gemm_c.comps);
        push_bits(out, &self.pgemv_y);
        push_bits(out, &self.sgemv_y);
        let r = &self.adapt.1;
        out.extend([r.chunks, r.escalated, r.n3, r.n4, r.oracle, r.degraded]);
    }

    fn check(&self) -> Check {
        let p = super::ORACLE_PREC;
        let inp = &self.inp;
        let mut c = Check::default();
        c.expect_mf(
            &self.soa_dot,
            &mp_dot(&inp.dot_x, &inp.dot_y),
            need_bits(2, SOA_LEN),
        );
        let alpha = mp(&inp.alpha);
        let axpy = self.axpy_y.to_vec();
        for ((x, y), got) in inp.axpy_x.iter().zip(&inp.axpy_y).zip(&axpy) {
            c.expect_mf(got, &alpha.mul(&mp(x), p).add(&mp(y), p), need_bits(2, 1));
        }
        let want = mp_gemv(&inp.alpha, &inp.gemv_a, &inp.gemv_x);
        for (got, w) in self.gemv_y.to_vec().iter().zip(&want) {
            c.expect_mf(got, w, need_bits(2, SOA_GEMV));
        }
        let want = mp_gemm(&inp.alpha, &inp.gemm_a, &inp.gemm_b, TILE_K, TILE_M);
        for (i, w) in want.iter().enumerate() {
            c.expect_mf(
                &self.gemm_c.get(i / TILE_M, i % TILE_M),
                w,
                need_bits(2, TILE_K),
            );
        }
        c.expect_mf(
            &self.par_dot,
            &mp_dot(&inp.pdot_x, &inp.pdot_y),
            need_bits(2, PAR_DOT_LEN),
        );
        let want = mp_gemv(&inp.alpha, &inp.pgemv_a, &inp.pgemv_x);
        for ((par, ser), w) in self.pgemv_y.iter().zip(&self.sgemv_y).zip(&want) {
            c.expect_mf(par, w, need_bits(2, PAR_GEMV));
            c.expect_mf(ser, w, need_bits(2, PAR_GEMV));
        }
        // The hostile products span 2^1024 down to 2^-110: only an exact
        // sum of the expanded component products resolves them.
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for (x, y) in inp.adapt_x.iter().zip(&inp.adapt_y) {
            for a in x.components() {
                for b in y.components() {
                    xs.push(a);
                    ys.push(b);
                }
            }
        }
        let exact = MpFloat::exact_dot(&xs, &ys);
        c.expect(
            &self.adapt.0.to_mp(exact.precision()),
            &exact,
            need_bits(2, ADAPT_LEN),
        );
        let chunks = (ADAPT_LEN / ADAPTIVE_CHUNK) as u64;
        let hostile = chunks / ADAPT_HOSTILE_EVERY as u64;
        let r = &self.adapt.1;
        if r.chunks != chunks || r.escalated != hostile {
            c.failed += 1;
        }
        c
    }

    fn layer_metrics(&self, times: &[CallTime]) -> Vec<(String, f64)> {
        let calls = &self.calls;
        let mut m = gops_metrics(
            calls,
            times,
            &[
                Layer::BlasSoa,
                Layer::BlasTile,
                Layer::BlasParallel,
                Layer::BlasKernels,
            ],
        );
        let par = times[PAR_GEMV_C as usize].gops(&calls[PAR_GEMV_C as usize]);
        let serial = times[SERIAL_GEMV as usize].gops(&calls[SERIAL_GEMV as usize]);
        m.push((
            "blas.parallel.gemv.n2.efficiency".into(),
            par / (THREADS as f64 * serial),
        ));
        m.push((
            "blas.adaptive.dot.gops".into(),
            times[ADAPT_DOT as usize].gops(&calls[ADAPT_DOT as usize]),
        ));
        m.push((
            "blas.adaptive.dot.escalation_rate".into(),
            self.adapt.1.escalation_rate(),
        ));
        m
    }
}
