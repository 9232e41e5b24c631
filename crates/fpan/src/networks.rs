//! The shipped accumulation networks, as data.
//!
//! Each network is written once, as a gate list in `mf_core::nets`; the
//! same invocation expands into the `mf-core` kernel that
//! [`mf_core::addition::add`] / [`mf_core::multiplication::mul`] run.
//! [`Fpan::from_spec`] turns that list into an [`Fpan`], unrolling the
//! kernel's final renormalization into `TwoSum` sweeps, so the verifier,
//! the fault simulator and the annealing search all reason about the code
//! that ships. The tests below check that interpreting a network and
//! running its kernel agree bitwise (the interpreter and the macro
//! expander are two readings of the same data).
//!
//! Input conventions (each spec's `inputs` list is the authority; build an
//! input vector with [`NetSpec::load`](mf_core::nets::NetSpec::load)):
//!
//! * **Addition networks** (`add_n(n)`): inputs are interleaved
//!   `[x0, y0, x1, y1, …]` — the initial layer of `TwoSum` gates pairs
//!   `(x_i, y_i)` exactly as the paper's Figures 2–4.
//! * **Multiplication networks** (`mul_n(n)`): inputs are the `n²` values
//!   produced by the pruned expansion step (paper §4.2): exact products
//!   `p_ij` and their `TwoProd` errors `e_ij` for `i+j <= n-2`, and plain
//!   products `r_ij` for `i+j = n-1`.

use crate::{Fpan, Gate};
use mf_core::nets::{self, Input, NetSpec};

/// The 2-term addition network (size 6): `AccurateDWPlusDW`.
pub fn add_2() -> Fpan {
    Fpan::from_spec(&nets::ADD2)
}

/// The 3-term addition network (size 20).
pub fn add_3() -> Fpan {
    Fpan::from_spec(&nets::ADD3)
}

/// The 4-term addition network (size 33).
pub fn add_4() -> Fpan {
    Fpan::from_spec(&nets::ADD4)
}

/// The 2-term multiplication accumulation network (size 3, depth 3 —
/// matching the paper's provably optimal Figure 5).
pub fn mul_2() -> Fpan {
    Fpan::from_spec(&nets::MUL2)
}

/// The 3-term multiplication accumulation network (size 16).
pub fn mul_3() -> Fpan {
    Fpan::from_spec(&nets::MUL3)
}

/// The 4-term multiplication accumulation network (size 32).
pub fn mul_4() -> Fpan {
    Fpan::from_spec(&nets::MUL4)
}

/// Addition network for `n`-term expansions (n in 2..=4).
pub fn add_n(n: usize) -> Fpan {
    Fpan::from_spec(add_spec(n))
}

/// Multiplication accumulation network for `n`-term expansions (n in 2..=4).
pub fn mul_n(n: usize) -> Fpan {
    Fpan::from_spec(mul_spec(n))
}

/// The spec of [`add_n`]; its `inputs` interleave the operands.
pub fn add_spec(n: usize) -> &'static NetSpec {
    nets::add_spec(n).unwrap_or_else(|| panic!("no addition network for n = {n}"))
}

/// The spec of [`mul_n`]; its `inputs` are the pruned expansion step.
pub fn mul_spec(n: usize) -> &'static NetSpec {
    nets::mul_spec(n).unwrap_or_else(|| panic!("no multiplication network for n = {n}"))
}

/// The §4.2 commutativity layer for an `n`-term multiplication
/// accumulation network: the gates of [`mul_n`] that pair mirror-image
/// input terms `(p_ij, p_ji)` / `(e_ij, e_ji)`, so the product is invariant
/// under operand swap. The paper notes this layer does **not** emerge from
/// search on its own and must be imposed; [`crate::search`] freezes it.
pub fn commutativity_layer(n: usize) -> Vec<Gate> {
    let spec = mul_spec(n);
    let mirror = |t: Input| match t {
        Input::P(i, j) => Input::P(j, i),
        Input::E(i, j) => Input::E(j, i),
        t => t,
    };
    let t = spec.inputs;
    let pairs = |g: &Gate| t[g.hi] != t[g.lo] && mirror(t[g.hi]) == t[g.lo];
    spec.gates.iter().copied().filter(pairs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_core::{addition, multiplication, renorm};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_expansion<const N: usize>(rng: &mut SmallRng) -> [f64; N] {
        let mut c = [0.0f64; N];
        let mut e = rng.gen_range(-30..30);
        for slot in c.iter_mut() {
            let m: f64 = rng.gen_range(-1.0f64..1.0);
            *slot = m * 2.0f64.powi(e);
            e -= 53 + rng.gen_range(0..4);
        }
        renorm::renorm(c)
    }

    #[test]
    fn shipped_sizes_and_depths() {
        // E7: our networks' measured size/depth, beside the paper's
        // ((6,4),(14,8),(26,11) add; (3,3),(12,7),(27,10) mul).
        // Depths are data, not targets; they are pinned to catch
        // regressions.
        let measured = |net: Fpan| (net.size(), net.depth());
        assert_eq!(measured(add_2()), (6, 5));
        assert_eq!(measured(add_3()), (20, 14));
        assert_eq!(measured(add_4()), (33, 19));
        assert_eq!(measured(mul_2()), (3, 3));
        assert_eq!(measured(mul_3()), (16, 12));
        assert_eq!(measured(mul_4()), (32, 18));
    }

    /// One random operand pair through the `N`-term networks and kernels.
    fn match_kernels<const N: usize>(rng: &mut SmallRng, mul: bool) {
        let x = rand_expansion::<N>(rng);
        let y = rand_expansion::<N>(rng);
        let (out, kernel) = if mul {
            (
                mul_n(N).run(&mul_spec(N).load(&x, &y)),
                multiplication::mul(&x, &y),
            )
        } else {
            let inputs: Vec<f64> = (0..N).flat_map(|i| [x[i], y[i]]).collect();
            (add_n(N).run(&inputs), addition::add(&x, &y))
        };
        assert_eq!(out.as_slice(), kernel.as_slice(), "n={N} x={x:?} y={y:?}");
    }

    #[test]
    fn add_networks_match_kernels_bitwise() {
        let mut rng = SmallRng::seed_from_u64(700);
        for _ in 0..20_000 {
            match_kernels::<2>(&mut rng, false);
            match_kernels::<3>(&mut rng, false);
            match_kernels::<4>(&mut rng, false);
        }
    }

    #[test]
    fn mul_networks_match_kernels_bitwise() {
        let mut rng = SmallRng::seed_from_u64(701);
        for _ in 0..20_000 {
            match_kernels::<2>(&mut rng, true);
            match_kernels::<3>(&mut rng, true);
            match_kernels::<4>(&mut rng, true);
        }
    }

    #[test]
    fn commutativity_layer_pairs_every_mirror_term_first() {
        for n in 2..=4 {
            let spec = mul_spec(n);
            let layer = commutativity_layer(n);
            // Every off-diagonal product term is paired exactly once ...
            let off_diagonal = spec
                .inputs
                .iter()
                .filter(|t| matches!(t, Input::P(i, j) | Input::E(i, j) if i != j));
            assert_eq!(2 * layer.len(), off_diagonal.count(), "n={n}");
            // ... by the first gate to touch either wire.
            for g in &layer {
                let first = spec
                    .gates
                    .iter()
                    .find(|h| [h.hi, h.lo].contains(&g.hi) || [h.hi, h.lo].contains(&g.lo));
                assert_eq!(first, Some(g), "n={n}");
            }
        }
    }

    #[test]
    fn commutativity_via_input_swap() {
        // Swapping the operands permutes the network inputs; outputs must
        // be bitwise identical (the paper's §4.2 property, network-level).
        let mut rng = SmallRng::seed_from_u64(702);
        let net = add_3();
        for _ in 0..5_000 {
            let x = rand_expansion::<3>(&mut rng);
            let y = rand_expansion::<3>(&mut rng);
            let a = net.run(&[x[0], y[0], x[1], y[1], x[2], y[2]]);
            let b = net.run(&[y[0], x[0], y[1], x[1], y[2], x[2]]);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn flop_counts() {
        // Total FLOPs per extended-precision operation — the paper's "each
        // extended-precision operation consists of several dozen machine
        // FLOPs" (§5).
        assert_eq!(add_2().flops(), 2 * 6 + 2 * 3 + 2);
        assert!(add_4().flops() < 200);
        assert_eq!(mul_2().flops(), 2 + 3);
    }
}
