//! `mf-fpan`: floating-point accumulation networks as data.
//!
//! A *floating-point accumulation network* (FPAN, paper §3) is a branch-free
//! algorithm given by a fixed sequence of gates applied to a fixed number of
//! wires. Three gate kinds exist, mirroring the paper's diagrams:
//!
//! * **Add** — `hi <- hi ⊕ lo`; the rounding error of the addition is
//!   *discarded* (this is where an FPAN loses information, and what its
//!   error bound controls).
//! * **TwoSum** — `(hi, lo) <- TwoSum(hi, lo)`: error-free.
//! * **FastTwoSum** — same, under the magnitude precondition of paper
//!   Algorithm 3.
//!
//! This crate provides:
//!
//! * [`Fpan`] — the network representation, with [`Fpan::size`] /
//!   [`Fpan::depth`] matching the paper's cost metrics;
//! * [`Fpan::run`] — an interpreter generic over [`mf_eft::FloatBase`], so
//!   the same network object executes on `f64`, `f32`, or the bit-exact
//!   [`mf_softfloat::SoftFloat`] at any toy precision;
//! * [`networks`] — the six shipped networks (2/3/4-term addition and
//!   multiplication accumulation), built by [`Fpan::from_spec`] from the
//!   gate lists in `mf_core::nets` that also expand into `mf-core`'s
//!   kernels, so the verifier checks the code that runs;
//! * [`verify`] — the empirical verification procedure standing in for the
//!   paper's SMT pipeline (DESIGN.md substitution T1);
//! * [`search`] — the simulated-annealing discovery procedure of §4.1.

pub mod fault;
pub mod networks;
pub mod search;
pub mod verify;

use mf_core::nets::NetSpec;
use mf_core::renorm::kernel_sweeps;
use mf_eft::{two_sum, FloatBase};
use mf_telemetry::Counter;

static EXEC_RUNS: Counter = Counter::new("fpan.exec.runs");
static EXEC_ADD: Counter = Counter::new("fpan.exec.add_gates");
static EXEC_TWO_SUM: Counter = Counter::new("fpan.exec.two_sum_gates");
static EXEC_FAST_TWO_SUM: Counter = Counter::new("fpan.exec.fast_two_sum_gates");

/// Count one interpreter execution of `net` (per-gate-kind totals come from
/// the static structure, so the hot gate loop itself carries no probes).
#[inline]
fn record_run(net: &Fpan) {
    if !mf_telemetry::ENABLED {
        return;
    }
    let (adds, two_sums, fast_two_sums) = net.gate_counts();
    EXEC_RUNS.incr();
    EXEC_ADD.add(adds as u64);
    EXEC_TWO_SUM.add(two_sums as u64);
    EXEC_FAST_TWO_SUM.add(fast_two_sums as u64);
}

pub use mf_core::nets::{Gate, GateKind};

/// A floating-point accumulation network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fpan {
    /// Number of wires (inputs occupy wires `0..n_inputs`; extra wires
    /// start at zero).
    pub n_wires: usize,
    /// Number of input values.
    pub n_inputs: usize,
    /// Gate sequence, applied in order.
    pub gates: Vec<Gate>,
    /// Wire indices whose final values are the outputs, most significant
    /// first.
    pub outputs: Vec<usize>,
}

impl Fpan {
    /// Create an empty network (no gates: outputs are raw input wires).
    pub fn new(n_inputs: usize, outputs: Vec<usize>) -> Self {
        Fpan {
            n_wires: n_inputs,
            n_inputs,
            gates: Vec::new(),
            outputs,
        }
    }

    /// The network `spec` describes: its gates, then its renormalization
    /// unrolled into `TwoSum` sweeps over the renorm wires with the
    /// kernels' schedule (up, up, then `kernel_sweeps(m) - 2` down).
    pub fn from_spec(spec: &NetSpec) -> Self {
        let mut b = Builder::new(spec.inputs.len());
        b.fpan.gates.extend_from_slice(spec.gates);
        let (r, m) = (spec.renorm, spec.renorm.len());
        if m > 0 {
            for sweep in 0..kernel_sweeps(m) {
                for k in 0..m - 1 {
                    let i = if sweep < 2 { m - 2 - k } else { k };
                    b.two_sum(r[i], r[i + 1]);
                }
            }
        }
        b.finish(spec.outputs.to_vec())
    }

    /// Total number of gates (the paper's *size* metric).
    pub fn size(&self) -> usize {
        self.gates.len()
    }

    /// Longest gate chain from any input to any output (the paper's *depth*
    /// metric). Computed over wires: executing a gate makes both operand
    /// wires' new values depend on both old values.
    pub fn depth(&self) -> usize {
        let mut d = vec![0usize; self.n_wires];
        for g in &self.gates {
            let nd = d[g.hi].max(d[g.lo]) + 1;
            d[g.hi] = nd;
            match g.kind {
                GateKind::Add => d[g.lo] = 0,
                _ => d[g.lo] = nd,
            }
        }
        self.outputs.iter().map(|&w| d[w]).max().unwrap_or(0)
    }

    /// Execute the network on `inputs` (length `n_inputs`), returning the
    /// output values in `outputs` order.
    pub fn run<T: FloatBase>(&self, inputs: &[T]) -> Vec<T> {
        self.run_checked(inputs).0
    }

    /// Like [`Fpan::run`] but reports whether any `FastTwoSum` gate saw its
    /// precondition violated (checked without `debug_assert`, so usable in
    /// release-mode verification and search).
    pub fn run_checked<T: FloatBase>(&self, inputs: &[T]) -> (Vec<T>, bool) {
        assert_eq!(inputs.len(), self.n_inputs, "wrong input count");
        record_run(self);
        let mut w = vec![T::ZERO; self.n_wires];
        w[..inputs.len()].copy_from_slice(inputs);
        let mut precond_ok = true;
        for g in &self.gates {
            precond_ok &= apply(g, &mut w);
        }
        (self.outputs.iter().map(|&i| w[i]).collect(), precond_ok)
    }

    /// Gate-count breakdown `(adds, two_sums, fast_two_sums)`.
    pub fn gate_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for g in &self.gates {
            match g.kind {
                GateKind::Add => c.0 += 1,
                GateKind::TwoSum => c.1 += 1,
                GateKind::FastTwoSum => c.2 += 1,
            }
        }
        c
    }

    /// FLOP count with the usual per-gate costs (Add = 1, FastTwoSum = 3,
    /// TwoSum = 6).
    pub fn flops(&self) -> usize {
        let (a, t, f) = self.gate_counts();
        a + 6 * t + 3 * f
    }
}

/// Apply one gate to the wires `w` (the semantics of `mf_core::nets`'
/// kernels), returning whether a `FastTwoSum` gate's magnitude
/// precondition held. `FastTwoSum` is evaluated inline rather than through
/// `mf_eft::fast_two_sum`, whose `debug_assert` would reject the violations
/// that verification and fault injection must observe.
#[inline]
pub(crate) fn apply<T: FloatBase>(g: &Gate, w: &mut [T]) -> bool {
    let (a, b) = (w[g.hi], w[g.lo]);
    let (hi, lo, ok) = match g.kind {
        GateKind::Add => (a + b, T::ZERO, true),
        GateKind::TwoSum => {
            let (s, e) = two_sum(a, b);
            (s, e, true)
        }
        GateKind::FastTwoSum => {
            let s = a + b;
            (s, b - (s - a), a.fast_two_sum_ok(b))
        }
    };
    w[g.hi] = hi;
    w[g.lo] = lo;
    ok
}

/// Convenience builder used by [`networks`] and tests.
pub struct Builder {
    fpan: Fpan,
}

impl Builder {
    pub fn new(n_inputs: usize) -> Self {
        Builder {
            fpan: Fpan::new(n_inputs, Vec::new()),
        }
    }

    /// Allocate an extra (zero-initialized) wire.
    pub fn wire(&mut self) -> usize {
        let w = self.fpan.n_wires;
        self.fpan.n_wires += 1;
        w
    }

    pub fn two_sum(&mut self, hi: usize, lo: usize) -> &mut Self {
        self.fpan.gates.push(Gate {
            kind: GateKind::TwoSum,
            hi,
            lo,
        });
        self
    }

    pub fn fast_two_sum(&mut self, hi: usize, lo: usize) -> &mut Self {
        self.fpan.gates.push(Gate {
            kind: GateKind::FastTwoSum,
            hi,
            lo,
        });
        self
    }

    pub fn add(&mut self, hi: usize, lo: usize) -> &mut Self {
        self.fpan.gates.push(Gate {
            kind: GateKind::Add,
            hi,
            lo,
        });
        self
    }

    pub fn finish(mut self, outputs: Vec<usize>) -> Fpan {
        self.fpan.outputs = outputs;
        self.fpan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_two_sum_net() -> Fpan {
        let mut b = Builder::new(2);
        b.two_sum(0, 1);
        b.finish(vec![0, 1])
    }

    #[test]
    fn metrics() {
        let net = tiny_two_sum_net();
        assert_eq!(net.size(), 1);
        assert_eq!(net.depth(), 1);
        assert_eq!(net.gate_counts(), (0, 1, 0));
        assert_eq!(net.flops(), 6);
    }

    #[test]
    fn executor_matches_eft() {
        let net = tiny_two_sum_net();
        let out = net.run(&[1.0e16f64, 1.0]);
        let (s, e) = mf_eft::two_sum(1.0e16f64, 1.0);
        assert_eq!(out, vec![s, e]);
    }

    #[test]
    fn add_gate_discards() {
        let mut b = Builder::new(2);
        b.add(0, 1);
        let net = b.finish(vec![0]);
        let out = net.run(&[1.0e16f64, 1.0]);
        assert_eq!(out, vec![1.0e16 + 1.0]);
        assert_eq!(net.depth(), 1);
    }

    #[test]
    fn depth_counts_longest_chain() {
        // Chain of 3 dependent TwoSums vs 2 independent ones.
        let mut b = Builder::new(4);
        b.two_sum(0, 1).two_sum(2, 3).two_sum(0, 2);
        let net = b.finish(vec![0, 1, 2, 3]);
        assert_eq!(net.size(), 3);
        assert_eq!(net.depth(), 2);
    }

    #[test]
    fn runs_on_softfloat() {
        use mf_softfloat::SoftFloat;
        let net = tiny_two_sum_net();
        let a = SoftFloat::<6>::from_f64(1.0);
        let c = SoftFloat::<6>::from_f64(0.015625);
        let out = net.run(&[a, c]);
        assert_eq!(out[0].to_f64() + out[1].to_f64(), 1.015625);
    }

    #[test]
    fn run_checked_flags_bad_fast_two_sum() {
        let mut b = Builder::new(2);
        b.fast_two_sum(0, 1);
        let net = b.finish(vec![0, 1]);
        let (_, ok) = net.run_checked(&[1.0f64, 2.0]);
        assert!(!ok, "1 < 2 violates the FastTwoSum precondition");
        let (out, ok) = net.run_checked(&[2.0f64, 1.0]);
        assert!(ok);
        assert_eq!(out, vec![3.0, 0.0]);
    }
}
