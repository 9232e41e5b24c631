//! Pins the exact output bits of the core operations.
//!
//! Every other kernel test compares two implementations built from the same
//! source revision, so a change that moves both together goes unnoticed.
//! This test instead folds the outputs of `add`, `sub`, `mul`, `sqr`, `div`
//! and `sqrt` at N = 2, 3, 4 on `f64` and `f32` bases, over a seeded corpus,
//! into one digest per (base, N) and compares it to a recorded constant. A
//! refactor of the networks must leave every constant unchanged.
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

fn digest<T: FloatBase, const N: usize>(seed: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for (x, y) in corpus::<T, N>(seed) {
        let outs = [
            x.add(y),
            x.sub(y),
            x.mul(y),
            x.sqr(),
            x.div(y),
            x.sqrt(),
            x.abs().sqrt(),
        ];
        for out in outs {
            for c in out.components() {
                fold(&mut h, c);
            }
        }
    }
    h
}

#[test]
fn core_op_bits_are_pinned() {
    let got = [
        ("f64 N=2", digest::<f64, 2>(0xD1_6E57)),
        ("f64 N=3", digest::<f64, 3>(0xD1_6E57)),
        ("f64 N=4", digest::<f64, 4>(0xD1_6E57)),
        ("f32 N=2", digest::<f32, 2>(0xD1_6E57)),
        ("f32 N=3", digest::<f32, 3>(0xD1_6E57)),
        ("f32 N=4", digest::<f32, 4>(0xD1_6E57)),
    ];
    let want: [u64; 6] = [
        0xb442_b1dc_0f08_7d53,
        0x820f_3073_8014_e6dc,
        0x9033_651c_e97b_92f7,
        0xae3c_4fa1_3292_6175,
        0x9623_7e86_2b09_aa3e,
        0x85ef_531f_4e63_1a4c,
    ];
    for (name, g) in &got {
        eprintln!("{name}: {g:#018x}");
    }
    let got = got.map(|(_, g)| g);
    assert_eq!(got, want, "output bits changed");
}
