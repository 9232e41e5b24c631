//! E10 — the paper's §4.3 claims about Newton–Raphson division and square
//! root: the number of correct bits roughly doubles on every iteration,
//! division-free iteration converges from the machine-precision seed, and
//! the Karp–Markstein fusion does not cost accuracy. The library runs each
//! step at the width its result can be accurate to (a step at width 2,
//! then one at width 3, each with its correction product at width 2); the
//! rungs of that width ladder must reach the bits their widths hold.

use multifloats::{F64x2, F64x3, F64x4, MpFloat, MultiFloat};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Run the reciprocal iteration manually at F64x4 width and report the
/// correct bits after each step.
fn recip_bits_per_iteration(a: f64) -> Vec<f64> {
    let prec = 600;
    let exact = MpFloat::from_f64(1.0, prec).div(&MpFloat::from_f64(a, prec), prec);
    let one = F64x4::ONE;
    let av = F64x4::from(a);
    let mut x = F64x4::from(1.0 / a);
    let mut bits = Vec::new();
    for _ in 0..4 {
        let err = x.to_mp(400).rel_error_vs(&exact);
        bits.push(if err == 0.0 { 256.0 } else { -err.log2() });
        // x <- x + x(1 - a x)   (paper Eq. 15)
        let e = one.sub(av.mul(x));
        x = x.add(x.mul(e));
    }
    let err = x.to_mp(400).rel_error_vs(&exact);
    bits.push(if err == 0.0 { 256.0 } else { -err.log2() });
    bits
}

#[test]
fn reciprocal_bits_double_per_iteration() {
    let mut rng = SmallRng::seed_from_u64(1100);
    for _ in 0..50 {
        let a = rng.gen_range(0.5..2.0) * 2.0f64.powi(rng.gen_range(-10..10));
        let bits = recip_bits_per_iteration(a);
        // Seed: ~53 bits. After one iteration: >= 90. After two: >= 170.
        // After three: at the format's limit (~205+).
        assert!(bits[0] >= 45.0, "seed bits {:.1} for a={a}", bits[0]);
        assert!(bits[1] >= 90.0, "iter1 bits {:.1} for a={a}", bits[1]);
        assert!(bits[2] >= 170.0, "iter2 bits {:.1} for a={a}", bits[2]);
        assert!(bits[3] >= 200.0, "iter3 bits {:.1} for a={a}", bits[3]);
        // Roughly doubling, not linear: iter1 gain over seed must be large.
        assert!(bits[1] - bits[0] >= 35.0, "not quadratic: {bits:?}");
    }
}

/// A random `N`-term expansion with its head within `2^±10`, each tail a
/// random fraction of a term 53 to 58 binades below the one above.
fn rand_expansion<const N: usize>(rng: &mut SmallRng) -> MultiFloat<f64, N> {
    let mut c = [0.0; N];
    let mut e = rng.gen_range(-10..10);
    for v in &mut c {
        *v = rng.gen_range(-1.0..1.0) * 2.0f64.powi(e);
        e -= 53 + rng.gen_range(0..6);
    }
    MultiFloat::from_components_renorm(c)
}

/// `x` cut to its leading `K` terms, or padded with zeros.
fn fit<const M: usize, const K: usize>(x: MultiFloat<f64, M>) -> MultiFloat<f64, K> {
    let mut c = [0.0; K];
    for (d, s) in c.iter_mut().zip(x.components()) {
        *d = s;
    }
    MultiFloat::from_components(c)
}

/// One rung of the library's reciprocal ladder: `x + x·(1 - a·x)` at width
/// `W` on `a` cut to `W` terms, with the correction product at width 2.
fn ladder_step<const W: usize>(a: F64x4, x: MultiFloat<f64, W>) -> MultiFloat<f64, W> {
    let e = MultiFloat::<f64, W>::ONE.sub(fit::<4, W>(a).mul(x));
    x.add(fit(fit::<W, 2>(x).mul(fit(e))))
}

fn correct_bits<const N: usize>(x: MultiFloat<f64, N>, exact: &MpFloat) -> f64 {
    let err = x.to_mp(400).rel_error_vs(exact);
    if err == 0.0 {
        256.0
    } else {
        -err.log2()
    }
}

#[test]
fn width_ladder_rungs_reach_their_bits() {
    let mut rng = SmallRng::seed_from_u64(1104);
    let one = MpFloat::from_f64(1.0, 53);
    for _ in 0..500 {
        let a: F64x4 = rand_expansion(&mut rng);
        let inv = one.div(&a.to_mp(400), 1200);
        // The width-2 step from the scalar seed, then the width-3 step.
        let x2 = ladder_step::<2>(a, F64x2::from(1.0 / a.components()[0]));
        let x3 = ladder_step::<3>(a, fit(x2));
        let (b2, b3) = (correct_bits(x2, &inv), correct_bits(x3, &inv));
        assert!(b2 >= 100.0, "width-2 step: {b2:.1} bits for a={a:?}");
        assert!(b3 >= 150.0, "width-3 step: {b3:.1} bits for a={a:?}");
        // The finished reciprocal of `a` cut to N terms sits within a few
        // bits of the N·53-bit format limit.
        for (n, b) in [
            (2, recip_bits::<2>(a)),
            (3, recip_bits::<3>(a)),
            (4, recip_bits::<4>(a)),
        ] {
            assert!(b >= 53.0 * n as f64 - 4.0, "N={n}: {b:.1} bits for a={a:?}");
        }
    }
}

/// Correct bits of the library's `recip` of `a` cut to `N` terms.
fn recip_bits<const N: usize>(a: F64x4) -> f64 {
    let a: MultiFloat<f64, N> = fit(a);
    let exact = MpFloat::from_f64(1.0, 53).div(&a.to_mp(400), 1200);
    correct_bits(a.recip(), &exact)
}

/// Worst log2 relative errors of Karp–Markstein division and of
/// `div_via_recip` over random `N`-term operands.
fn km_and_recip_worst<const N: usize>(rng: &mut SmallRng, cases: usize) -> (f64, f64) {
    let (mut km, mut recip) = (f64::MIN, f64::MIN);
    for _ in 0..cases {
        let (b, a) = (rand_expansion::<N>(rng), rand_expansion::<N>(rng));
        let exact = b.to_mp(400).div(&a.to_mp(400), 1200);
        km = km.max(-correct_bits(b.div(a), &exact));
        recip = recip.max(-correct_bits(b.div_via_recip(a), &exact));
    }
    (km, recip)
}

#[test]
fn karp_markstein_matches_full_reciprocal_accuracy() {
    let mut rng = SmallRng::seed_from_u64(1101);
    for (n, (km, recip), bound) in [
        (2, km_and_recip_worst::<2>(&mut rng, 3_000), -101.0),
        (3, km_and_recip_worst::<3>(&mut rng, 3_000), -152.0),
        (4, km_and_recip_worst::<4>(&mut rng, 3_000), -203.0),
    ] {
        eprintln!("N={n}: KM worst 2^{km:.2}, recip worst 2^{recip:.2}");
        assert!(
            km <= bound && recip <= bound,
            "N={n}: 2^{km:.1}, 2^{recip:.1}"
        );
        // The fusion stays within one bit of the full reciprocal.
        assert!(
            km <= recip + 1.0,
            "N={n}: KM 2^{km:.2} vs recip 2^{recip:.2}"
        );
    }
}

#[test]
fn division_exactness_on_representables() {
    // b / a where the quotient is exactly representable must be exact.
    for (b, a, q) in [(1.0f64, 4.0, 0.25), (3.0, 2.0, 1.5), (10.0, 8.0, 1.25)] {
        for_all_widths(b, a, q);
    }
    fn for_all_widths(b: f64, a: f64, q: f64) {
        assert_eq!((F64x2::from(b) / F64x2::from(a)).to_f64(), q);
        assert_eq!((F64x3::from(b) / F64x3::from(a)).to_f64(), q);
        assert_eq!((F64x4::from(b) / F64x4::from(a)).to_f64(), q);
        let c2 = (F64x2::from(b) / F64x2::from(a)).components();
        assert_eq!(c2[1], 0.0, "tail must be zero for exact quotient");
    }
}

#[test]
fn rsqrt_converges_from_scalar_seed() {
    let mut rng = SmallRng::seed_from_u64(1102);
    let prec = 700;
    for _ in 0..500 {
        let a = rng.gen_range(0.25..4.0f64) * 2.0f64.powi(2 * rng.gen_range(-20..20));
        let exact = MpFloat::from_f64(1.0, prec).div(&MpFloat::from_f64(a, prec).sqrt(prec), prec);
        let got = F64x3::from(a).rsqrt().to_mp(400);
        let err = got.rel_error_vs(&exact);
        assert!(err <= 2.0f64.powi(-150), "a={a:e} err 2^{:.1}", err.log2());
    }
}

#[test]
fn term_count_scaling_of_accuracy() {
    // The same division at N = 2, 3, 4: accuracy must scale ~(N p) bits.
    let mut rng = SmallRng::seed_from_u64(1103);
    let prec = 700;
    for _ in 0..300 {
        let b = rng.gen_range(0.5..2.0f64);
        let a = rng.gen_range(0.5..2.0f64);
        let exact = MpFloat::from_f64(b, prec).div(&MpFloat::from_f64(a, prec), prec);
        let e2 = (F64x2::from(b) / F64x2::from(a))
            .to_mp(400)
            .rel_error_vs(&exact);
        let e3 = (F64x3::from(b) / F64x3::from(a))
            .to_mp(400)
            .rel_error_vs(&exact);
        let e4 = (F64x4::from(b) / F64x4::from(a))
            .to_mp(400)
            .rel_error_vs(&exact);
        assert!(e2 <= 2.0f64.powi(-101), "N=2 err 2^{:.1}", e2.log2());
        assert!(e3 <= 2.0f64.powi(-152), "N=3 err 2^{:.1}", e3.log2());
        assert!(e4 <= 2.0f64.powi(-203), "N=4 err 2^{:.1}", e4.log2());
    }
}
