//! Guarded-evaluation lockstep tests: every arithmetic corpus entry —
//! including the witnesses of the old division and square-root collapse
//! regimes — must produce oracle-grade results when replayed through
//! `checked_*`, and a collapse the guard still exists for (a top-binade
//! sum) must be visible to the checker under `FastOnly` and recovered under
//! `OracleFallback`.

use mf_conformance::check::{guard_impl_name, run_case_guarded};
use mf_conformance::{corpus, run_guarded, Case};
use mf_core::GuardPolicy;

const ARITH_OPS: [&str; 5] = ["add", "sub", "mul", "div", "sqrt"];
const POLICIES: [GuardPolicy; 2] = [GuardPolicy::FastOnly, GuardPolicy::OracleFallback];

fn load_corpus() -> Vec<mf_conformance::Divergence> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/conformance/corpus.json"
    );
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    corpus::parse(&text).unwrap_or_else(|e| panic!("parse corpus: {e}"))
}

/// Every arithmetic corpus entry — including the range witnesses for the
/// old reciprocal-seed and residual-reconstruction collapse regimes —
/// replays clean through the guarded API under both policies: the
/// range-shifted kernels need no recovery there.
#[test]
fn corpus_arith_entries_replay_clean_under_guarded_policies() {
    let entries = load_corpus();
    let arith: Vec<_> = entries
        .iter()
        .filter(|e| ARITH_OPS.contains(&e.case.op.as_str()))
        .collect();
    assert!(
        arith.iter().any(|e| e.detail.contains("range witness")),
        "corpus lost its range witnesses"
    );
    for e in arith {
        for policy in POLICIES {
            let divs = run_case_guarded(&e.case, policy);
            assert!(
                divs.is_empty(),
                "[{}] corpus entry {} n={} diverged: {}",
                guard_impl_name(policy),
                e.case.op,
                e.case.n,
                divs[0].detail
            );
        }
    }
}

/// Negative control: a sum at the top binade whose head TwoSum rounds to
/// infinity although the exact sum `[MAX, 2^970 - 2^960]` is representable
/// collapses under `FastOnly`, and the lockstep checker sees it; the oracle
/// fallback recovers it. The old tiny-divisor witness no longer collapses.
#[test]
fn lockstep_checker_sees_the_collapse_under_fast_only() {
    let a = vec![f64::MAX, -(2.0f64.powi(960))];
    let b = vec![2.0f64.powi(970), 0.0];
    let case = Case::new("add", 2, vec![a, b]);
    let divs = run_case_guarded(&case, GuardPolicy::FastOnly);
    assert_eq!(divs.len(), 1, "FastOnly should collapse on the top binade");
    assert!(divs[0].detail.contains("unrecovered collapse"), "{divs:?}");
    assert!(run_case_guarded(&case, GuardPolicy::OracleFallback).is_empty());

    let a = vec![2.0f64.powi(-100), 0.0];
    let b = vec![f64::from_bits(1 << 34), 0.0]; // 2^-1040
    let case = Case::new("div", 2, vec![a, b]);
    assert!(run_case_guarded(&case, GuardPolicy::FastOnly).is_empty());
}

/// A generated guarded sweep (biased toward the range edges by the
/// `GuardRegime` generator class) stays clean under the oracle fallback.
#[test]
fn generated_guard_regime_sweep_is_clean() {
    let policy = GuardPolicy::OracleFallback;
    let (divs, _) = run_guarded(4_000, 0x6a72_64ed, policy);
    assert!(
        divs.is_empty(),
        "[{}] {} divergence(s), first: {}",
        guard_impl_name(policy),
        divs.len(),
        divs[0].detail
    );
}
