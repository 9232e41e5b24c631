//! Pins the exact output bits of the core operations.
//!
//! Every other kernel test compares two implementations built from the same
//! source revision, so a change that moves both together goes unnoticed.
//! This test instead folds the outputs of the core operations at N = 2, 3, 4
//! on `f64` and `f32` bases, over a seeded corpus, into two digests per
//! (base, N) and compares them to recorded constants: a network digest of
//! `add`, `sub`, `mul` and `sqr`, and a Newton digest of `div`,
//! `div_scalar`, `sqrt`, `abs().sqrt()`, `recip` and `rsqrt`. A refactor of the networks must leave
//! every constant unchanged; a change to the Newton kernels moves only the
//! Newton constants.
//!
//! The corpus covers random expansions, head cancellation (`y[0] = -x[0]`
//! and `x - x`), signed zeros, subnormal tails, and ±∞ and NaN heads. NaNs
//! fold as one canonical value (their payload and sign are not portable);
//! every other bit, the sign of zero included, is pinned.

use mf_core::{FloatBase, MultiFloat};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold<T: FloatBase>(h: &mut u64, v: T) {
    let bits = if v.is_nan() {
        0x7ff8_0000_0000_0000
    } else {
        v.to_f64().to_bits()
    };
    for b in bits.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
}

/// A valid expansion: head `m * 2^e`, then tails below half an ulp of the
/// term above (sometimes exactly at the boundary), renormalized.
fn expansion<T: FloatBase, const N: usize>(rng: &mut SmallRng, e: i32) -> MultiFloat<T, N> {
    let mut c = [T::ZERO; N];
    let mut e = e;
    for slot in c.iter_mut() {
        *slot = T::from_f64(rng.gen_range(-1.0f64..1.0)) * T::exp2i(e);
        let gap = if rng.gen_ratio(1, 6) {
            0
        } else {
            rng.gen_range(0..6)
        };
        e = e - T::PRECISION as i32 - 1 - gap;
        // Stop at the bottom of the subnormal range.
        if e < T::MIN_EXP - T::PRECISION as i32 + 1 {
            break;
        }
    }
    MultiFloat::from_components_renorm(c)
}

fn head<T: FloatBase, const N: usize>(v: T) -> MultiFloat<T, N> {
    let mut c = [T::ZERO; N];
    c[0] = v;
    MultiFloat::from_components(c)
}

fn corpus<T: FloatBase, const N: usize>(seed: u64) -> Vec<(MultiFloat<T, N>, MultiFloat<T, N>)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    for _ in 0..200 {
        let ex = rng.gen_range(-20..20);
        let ey = if rng.gen_ratio(1, 2) {
            ex + rng.gen_range(-2..3)
        } else {
            rng.gen_range(-20..20)
        };
        pairs.push((expansion(&mut rng, ex), expansion(&mut rng, ey)));
    }
    // Head cancellation: equal and opposite heads, unrelated tails.
    for _ in 0..60 {
        let e = rng.gen_range(-20..20);
        let x: MultiFloat<T, N> = expansion(&mut rng, e);
        let mut c = expansion::<T, N>(&mut rng, e - T::PRECISION as i32 - 1).components();
        c[0] = -x.components()[0];
        pairs.push((x, MultiFloat::from_components_renorm(c)));
        pairs.push((x, x));
    }
    // Subnormal tails: heads close enough to the bottom of the range that
    // the lower components are subnormal.
    for _ in 0..30 {
        let e = T::MIN_EXP + T::PRECISION as i32 / 2 + rng.gen_range(0..4);
        let x = expansion(&mut rng, e);
        let ey = e + rng.gen_range(-1..2);
        let y = expansion(&mut rng, ey);
        pairs.push((x, y));
    }
    // Signed zeros, infinities and NaN heads, against each other and
    // against ordinary values.
    let specials = [
        T::ZERO,
        -T::ZERO,
        T::INFINITY,
        T::NEG_INFINITY,
        T::NAN,
        T::ONE,
        T::NEG_ONE,
    ];
    let ordinary: Vec<MultiFloat<T, N>> = (0..4).map(|i| pairs[i].0).collect();
    for &a in &specials {
        for &b in &specials {
            pairs.push((head(a), head(b)));
        }
        for &o in &ordinary {
            pairs.push((head(a), o));
            pairs.push((o, head(a)));
        }
    }
    pairs
}

/// FNV-1a over every component of `op(x, y)` for each corpus pair.
fn digest<T: FloatBase, const N: usize>(
    seed: u64,
    op: impl Fn(MultiFloat<T, N>, MultiFloat<T, N>) -> Vec<MultiFloat<T, N>>,
) -> u64 {
    let mut h = FNV_OFFSET;
    for (x, y) in corpus::<T, N>(seed) {
        for out in op(x, y) {
            for c in out.components() {
                fold(&mut h, c);
            }
        }
    }
    h
}

/// The network digest (`add`, `sub`, `mul`, `sqr`) and the Newton digest
/// (`div`, `div_scalar`, `sqrt`, `abs().sqrt()`, `recip`, `rsqrt`) of one
/// (base, N).
fn digests<T: FloatBase, const N: usize>(seed: u64) -> (u64, u64) {
    (
        digest::<T, N>(seed, |x, y| vec![x.add(y), x.sub(y), x.mul(y), x.sqr()]),
        digest::<T, N>(seed, |x, y| {
            vec![
                x.div(y),
                x.div_scalar(y.components()[0]),
                x.sqrt(),
                x.abs().sqrt(),
                x.recip(),
                x.abs().rsqrt(),
            ]
        }),
    )
}

#[test]
fn core_op_bits_are_pinned() {
    let got = [
        ("f64 N=2", digests::<f64, 2>(0xD1_6E57)),
        ("f64 N=3", digests::<f64, 3>(0xD1_6E57)),
        ("f64 N=4", digests::<f64, 4>(0xD1_6E57)),
        ("f32 N=2", digests::<f32, 2>(0xD1_6E57)),
        ("f32 N=3", digests::<f32, 3>(0xD1_6E57)),
        ("f32 N=4", digests::<f32, 4>(0xD1_6E57)),
    ];
    // (network, Newton) per (base, N).
    let want: [(u64, u64); 6] = [
        (0x9e75_4e98_e016_f92a, 0x76df_58eb_4898_13a5),
        (0xc26e_7139_f5d8_07cd, 0xb76b_8df5_ac55_32af),
        (0xdc17_aac9_b8c0_9897, 0x2254_3617_3aee_97c4),
        (0x2f57_a3c3_a6f6_3bdd, 0x0d48_c4bb_a9b3_2bd1),
        (0x77e5_2ff6_d311_01a3, 0xbf7b_b2bc_1d87_082b),
        (0xe836_f1c1_2529_1282, 0x3de5_3f26_cd67_abe7),
    ];
    for (name, (net, newton)) in &got {
        eprintln!("{name}: network {net:#018x}, Newton {newton:#018x}");
    }
    let got = got.map(|(_, g)| g);
    assert_eq!(got, want, "output bits changed");
}
