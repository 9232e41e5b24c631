//! `wide-kernels` (and its telemetry-build twin): the flat AoS kernels at
//! `N = 3` and `N = 4`, and dependent chains of scalar `mf-core`
//! operations. Here the N ≥ 3 networks and their renormalization dominate.

use super::{
    gops_metrics, mp, mp_dot, mp_gemm, mp_gemv, need_bits, push_bits, Call, CallTime, Check, Layer,
    Workload, ORACLE_PREC,
};
use crate::inputs::Rng;
use crate::measure::Tracer;
use mf_blas::{kernels, Matrix};
use mf_core::MultiFloat;
use mf_mpsoft::MpFloat;
use std::hint::black_box;

/// Kernel sizes per N: at 32 bytes per `N = 4` element the largest operand
/// set (GEMV, 192 x 192) is 1.15 MiB, inside one core's 4 MiB L2.
pub const DOT_LEN: usize = 8192;
pub const GEMV: usize = 192;
pub const GEMM: usize = 48;
/// Scalar chains: each chain applies the operation `CHAIN_LEN` times, each
/// step depending on the previous result, so the section is latency-bound.
pub const CHAIN_LEN: usize = 16;
pub const ADD_MUL_CHAINS: usize = 1024;
pub const DIV_SQRT_CHAINS: usize = 256;

/// Seeded operands for one `N`.
struct NInputs<const N: usize> {
    alpha: MultiFloat<f64, N>,
    dot_x: Vec<MultiFloat<f64, N>>,
    dot_y: Vec<MultiFloat<f64, N>>,
    axpy_x: Vec<MultiFloat<f64, N>>,
    axpy_y: Vec<MultiFloat<f64, N>>,
    gemv_a: Vec<MultiFloat<f64, N>>,
    gemv_x: Vec<MultiFloat<f64, N>>,
    gemm_a: Vec<MultiFloat<f64, N>>,
    gemm_b: Vec<MultiFloat<f64, N>>,
    /// Chain start values and per-step operands for add, mul, div, sqrt.
    starts: Vec<MultiFloat<f64, N>>,
    steps: Vec<MultiFloat<f64, N>>,
}

impl<const N: usize> NInputs<N> {
    fn generate(seed: u64) -> Self {
        let base = 100 * N as u64;
        let v = |tag: u64, len: usize| Rng::new(seed, base + tag).mf_vec::<N>(len, 0.5, 2.0);
        NInputs {
            alpha: Rng::new(seed, base).mf(0.5, 2.0),
            dot_x: v(1, DOT_LEN),
            dot_y: v(2, DOT_LEN),
            axpy_x: v(3, DOT_LEN),
            axpy_y: v(4, DOT_LEN),
            gemv_a: v(5, GEMV * GEMV),
            gemv_x: v(6, GEMV),
            gemm_a: v(7, GEMM * GEMM),
            gemm_b: v(8, GEMM * GEMM),
            starts: v(9, ADD_MUL_CHAINS),
            steps: v(10, ADD_MUL_CHAINS * CHAIN_LEN),
        }
    }
}

/// Library-side operands and outputs for one `N`.
struct NState<const N: usize> {
    inp: NInputs<N>,
    gemv_a: Matrix<MultiFloat<f64, N>>,
    gemm_a: Matrix<MultiFloat<f64, N>>,
    gemm_b: Matrix<MultiFloat<f64, N>>,
    axpy_y: Vec<MultiFloat<f64, N>>,
    gemv_y: Vec<MultiFloat<f64, N>>,
    gemm_c: Matrix<MultiFloat<f64, N>>,
    dot: MultiFloat<f64, N>,
    add: Vec<MultiFloat<f64, N>>,
    mul: Vec<MultiFloat<f64, N>>,
    div: Vec<MultiFloat<f64, N>>,
    sqrt: Vec<MultiFloat<f64, N>>,
}

/// Run `chains` dependent chains: `x <- op(x, step)` `CHAIN_LEN` times
/// from each start value.
fn chains<const N: usize>(
    starts: &[MultiFloat<f64, N>],
    steps: &[MultiFloat<f64, N>],
    chains: usize,
    out: &mut Vec<MultiFloat<f64, N>>,
    op: impl Fn(MultiFloat<f64, N>, MultiFloat<f64, N>) -> MultiFloat<f64, N>,
) {
    out.clear();
    for (s, st) in starts[..chains].iter().zip(steps.chunks(CHAIN_LEN)) {
        out.push(st.iter().fold(*s, |x, c| op(x, *c)));
    }
}

fn mp_chains<const N: usize>(
    inp: &NInputs<N>,
    chains: usize,
    op: impl Fn(&MpFloat, &MpFloat) -> MpFloat,
) -> Vec<MpFloat> {
    inp.starts[..chains]
        .iter()
        .zip(inp.steps.chunks(CHAIN_LEN))
        .map(|(s, st)| st.iter().fold(mp(s), |x, c| op(&x, &mp(c))))
        .collect()
}

impl<const N: usize> NState<N> {
    fn setup(inp: NInputs<N>) -> Self {
        let m = |data: &[MultiFloat<f64, N>], n: usize| Matrix {
            rows: n,
            cols: n,
            data: data.to_vec(),
        };
        NState {
            gemv_a: m(&inp.gemv_a, GEMV),
            gemm_a: m(&inp.gemm_a, GEMM),
            gemm_b: m(&inp.gemm_b, GEMM),
            axpy_y: inp.axpy_y.clone(),
            gemv_y: vec![MultiFloat::ZERO; GEMV],
            gemm_c: Matrix::zeros(GEMM, GEMM),
            dot: MultiFloat::ZERO,
            add: Vec::with_capacity(ADD_MUL_CHAINS),
            mul: Vec::with_capacity(ADD_MUL_CHAINS),
            div: Vec::with_capacity(DIV_SQRT_CHAINS),
            sqrt: Vec::with_capacity(DIV_SQRT_CHAINS),
            inp,
        }
    }

    /// The four kernels; span names are `first..first + 4`.
    fn kernels(&mut self, tr: &mut Tracer, first: u16) {
        let alpha = black_box(self.inp.alpha);
        let zero = MultiFloat::ZERO;
        self.dot = tr.span(first, || kernels::dot(&self.inp.dot_x, &self.inp.dot_y));
        // AXPY works in place: every unit starts from the same y.
        self.axpy_y.copy_from_slice(&self.inp.axpy_y);
        tr.span(first + 1, || {
            kernels::axpy(alpha, &self.inp.axpy_x, &mut self.axpy_y)
        });
        tr.span(first + 2, || {
            kernels::gemv(
                alpha,
                &self.gemv_a,
                &self.inp.gemv_x,
                zero,
                &mut self.gemv_y,
            )
        });
        tr.span(first + 3, || {
            kernels::gemm(alpha, &self.gemm_a, &self.gemm_b, zero, &mut self.gemm_c)
        });
    }

    fn outputs(&self, out: &mut Vec<u64>) {
        push_bits(out, &[self.dot]);
        for v in [
            &self.axpy_y,
            &self.gemv_y,
            &self.gemm_c.data,
            &self.add,
            &self.mul,
            &self.div,
            &self.sqrt,
        ] {
            push_bits(out, v);
        }
    }

    fn check(&self, c: &mut Check) {
        let (inp, p) = (&self.inp, ORACLE_PREC);
        c.expect_mf(
            &self.dot,
            &mp_dot(&inp.dot_x, &inp.dot_y),
            need_bits(N, DOT_LEN),
        );
        let alpha = mp(&inp.alpha);
        for ((x, y), got) in inp.axpy_x.iter().zip(&inp.axpy_y).zip(&self.axpy_y) {
            c.expect_mf(got, &alpha.mul(&mp(x), p).add(&mp(y), p), need_bits(N, 1));
        }
        for (got, w) in self
            .gemv_y
            .iter()
            .zip(mp_gemv(&inp.alpha, &inp.gemv_a, &inp.gemv_x))
        {
            c.expect_mf(got, &w, need_bits(N, GEMV));
        }
        for (got, w) in
            self.gemm_c
                .data
                .iter()
                .zip(mp_gemm(&inp.alpha, &inp.gemm_a, &inp.gemm_b, GEMM, GEMM))
        {
            c.expect_mf(got, &w, need_bits(N, GEMM));
        }
        let need = need_bits(N, CHAIN_LEN);
        let sections: [(&Vec<MultiFloat<f64, N>>, Vec<MpFloat>); 4] = [
            (
                &self.add,
                mp_chains(inp, self.add.len(), |x, s| x.add(s, p)),
            ),
            (
                &self.mul,
                mp_chains(inp, self.mul.len(), |x, s| x.mul(s, p)),
            ),
            (
                &self.div,
                mp_chains(inp, self.div.len(), |x, s| x.div(s, p)),
            ),
            (
                &self.sqrt,
                mp_chains(inp, self.sqrt.len(), |x, _| x.sqrt(p)),
            ),
        ];
        for (got, want) in sections {
            for (g, w) in got.iter().zip(&want) {
                c.expect_mf(g, w, need);
            }
        }
    }
}

pub struct Inputs {
    n3: NInputs<3>,
    n4: NInputs<4>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        Inputs {
            n3: NInputs::generate(seed),
            n4: NInputs::generate(seed),
        }
    }
}

pub struct WideKernels {
    calls: Vec<Call>,
    n3: NState<3>,
    n4: NState<4>,
}

const KERNEL_SPANS: [[&str; 4]; 2] = [
    [
        "blas.kernels.dot.n3",
        "blas.kernels.axpy.n3",
        "blas.kernels.gemv.n3",
        "blas.kernels.gemm.n3",
    ],
    [
        "blas.kernels.dot.n4",
        "blas.kernels.axpy.n4",
        "blas.kernels.gemv.n4",
        "blas.kernels.gemm.n4",
    ],
];
const N3_KERNELS: u16 = 0;
const N4_KERNELS: u16 = 4;
const ADD_N3: u16 = 8;
const ADD_N4: u16 = 9;
const MUL_N3: u16 = 10;
const MUL_N4: u16 = 11;
const DIV_N4: u16 = 12;
const SQRT_N4: u16 = 13;

impl WideKernels {
    pub fn setup(inp: Inputs) -> Self {
        let mut calls = Vec::new();
        let (sq, cube) = ((GEMV * GEMV) as f64, (GEMM * GEMM * GEMM) as f64);
        for spans in KERNEL_SPANS {
            for (span, ops) in spans
                .into_iter()
                .zip([DOT_LEN as f64, DOT_LEN as f64, sq, cube])
            {
                calls.push(Call {
                    span,
                    layer: Layer::BlasKernels,
                    ops,
                });
            }
        }
        let am = (ADD_MUL_CHAINS * CHAIN_LEN) as f64;
        let ds = (DIV_SQRT_CHAINS * CHAIN_LEN) as f64;
        for (span, ops) in [
            ("core.add.n3", am),
            ("core.add.n4", am),
            ("core.mul.n3", am),
            ("core.mul.n4", am),
            ("core.div.n4", ds),
            ("core.sqrt.n4", ds),
        ] {
            calls.push(Call {
                span,
                layer: Layer::Core,
                ops,
            });
        }
        WideKernels {
            calls,
            n3: NState::setup(inp.n3),
            n4: NState::setup(inp.n4),
        }
    }
}

impl Workload for WideKernels {
    fn calls(&self) -> &[Call] {
        &self.calls
    }

    fn unit(&mut self, tr: &mut Tracer) {
        self.n3.kernels(tr, N3_KERNELS);
        self.n4.kernels(tr, N4_KERNELS);
        let (s3, s4) = (&mut self.n3, &mut self.n4);
        let (i3, i4) = (&s3.inp, &s4.inp);
        tr.span(ADD_N3, || {
            chains(
                &i3.starts,
                &i3.steps,
                ADD_MUL_CHAINS,
                &mut s3.add,
                |x, s| x.add(s),
            )
        });
        tr.span(ADD_N4, || {
            chains(
                &i4.starts,
                &i4.steps,
                ADD_MUL_CHAINS,
                &mut s4.add,
                |x, s| x.add(s),
            )
        });
        tr.span(MUL_N3, || {
            chains(
                &i3.starts,
                &i3.steps,
                ADD_MUL_CHAINS,
                &mut s3.mul,
                |x, s| x.mul(s),
            )
        });
        tr.span(MUL_N4, || {
            chains(
                &i4.starts,
                &i4.steps,
                ADD_MUL_CHAINS,
                &mut s4.mul,
                |x, s| x.mul(s),
            )
        });
        tr.span(DIV_N4, || {
            chains(
                &i4.starts,
                &i4.steps,
                DIV_SQRT_CHAINS,
                &mut s4.div,
                |x, s| x.div(s),
            )
        });
        tr.span(SQRT_N4, || {
            chains(
                &i4.starts,
                &i4.steps,
                DIV_SQRT_CHAINS,
                &mut s4.sqrt,
                |x, _| x.sqrt(),
            )
        });
    }

    fn outputs(&self, out: &mut Vec<u64>) {
        self.n3.outputs(out);
        self.n4.outputs(out);
    }

    fn check(&self) -> Check {
        let mut c = Check::default();
        self.n3.check(&mut c);
        self.n4.check(&mut c);
        c
    }

    fn layer_metrics(&self, times: &[CallTime]) -> Vec<(String, f64)> {
        let mut m = gops_metrics(&self.calls, times, &[Layer::BlasKernels]);
        for (c, t) in self
            .calls
            .iter()
            .zip(times)
            .filter(|(c, _)| c.layer == Layer::Core)
        {
            m.push((format!("{}.ns_per_op", c.span), t.ns_per_op(c)));
        }
        m
    }
}
