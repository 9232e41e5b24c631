//! Escalation-ladder vocabulary shared by the adaptive layers above mf-core.
//!
//! Scalar operations recover through the guard layer alone: `checked_*`
//! under [`GuardPolicy::OracleFallback`](crate::GuardPolicy) runs the
//! branch-free kernel and recomputes only a flagged operation exactly (see
//! [`crate::guard`]). The layers that escalate bigger units — mf-blas's
//! per-chunk DOT/AXPY/GEMV and mf-solve's residual ladder — describe their
//! ladders with the two types here: [`Rung`] names a precision level and
//! [`EscalationPolicy`] caps the ladder and sets its consistency bound.

use core::fmt;

use crate::guard::RESIDUAL_TOL_BITS;

/// One precision level, in increasing order.
///
/// mf-blas's adaptive ladders settle only on [`Rung::N2`] or
/// [`Rung::Oracle`]: `N3` and `N4` remain as `max_rung` caps (on those
/// ladders a cap below the oracle means "no escalation") and as the
/// `F64x3`/`F64x4` rungs of mf-solve's residual ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// The base rung: the branch-free `N=2` kernel (~107-bit).
    #[default]
    N2,
    /// `N=3` (~161-bit).
    N3,
    /// `N=4` (~215-bit).
    N4,
    /// Ladder top: an exact evaluation, rounded once. Always accepts.
    Oracle,
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rung::N2 => "N2",
            Rung::N3 => "N3",
            Rung::N4 => "N4",
            Rung::Oracle => "oracle",
        })
    }
}

/// Configuration of an escalation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// Highest rung the ladder may escalate to. The ladders over `N=2`
    /// values have one escalation, to the oracle: any cap below
    /// [`Rung::Oracle`] switches escalation off, and a tripped base result
    /// is accepted as it is. Default: [`Rung::Oracle`].
    pub max_rung: Rung,
    /// Head-consistency tolerance in bits: a base result whose head strays
    /// more than `2^-tol_bits` of the magnitude scale from a naive
    /// base-precision evaluation escalates. Default:
    /// [`RESIDUAL_TOL_BITS`], the guard layer's own bound.
    pub tol_bits: u32,
}

impl Default for EscalationPolicy {
    fn default() -> Self {
        EscalationPolicy {
            max_rung: Rung::Oracle,
            tol_bits: RESIDUAL_TOL_BITS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_display_and_order() {
        assert_eq!(Rung::N2.to_string(), "N2");
        assert_eq!(Rung::Oracle.to_string(), "oracle");
        assert!(Rung::N2 < Rung::N3 && Rung::N3 < Rung::N4 && Rung::N4 < Rung::Oracle);
        assert_eq!(EscalationPolicy::default().tol_bits, 40);
    }
}
