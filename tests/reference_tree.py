"""The decision tree as readable scalar Python: the kernel's test oracle.

classify_code states, one branch at a time, the tree that
hardylane._kernels.classify_codes evaluates as a NumPy mask cascade; the
tests assert that the two agree point for point (codes, margins with their
sign bits, flags).  Both take the threshold, the snap band, the roots and
the boundary formulas from hardylane.boundaries and the codes, flag bits
and tolerance from the kernel, so only the tree itself is written twice: a
change to the kernel's tree must be made here as well.

It works on raw floats and Python ints and returns (code, margin, flags)
as classify_codes gives them.
"""

from __future__ import annotations

import math

from hardylane import boundaries as bd
from hardylane._kernels import (CODE_CURVE_AB, CODE_CURVE_AQ, CODE_CURVE_BC,
                                CODE_DOTTED, CODE_INVALID, CODE_OUT_OF_SCOPE,
                                CODE_T1_I, CODE_T1_II, CODE_T2_I, CODE_T2_II,
                                CODE_T2_III, CODE_T3_I_CASE1, CODE_T3_I_CASE2,
                                CODE_T3_I_CASE3, CODE_T3_II_A1, CODE_T3_II_A2,
                                CODE_T3_II_B1, CODE_T3_II_B2, FLAG_MU0_EDGE,
                                FLAG_SWAPPED, REGIME_SHIFT, TOL)


def classify_code(N: int, mu1: float, mu2: float,
                  p: float, q: float) -> tuple[int, float, int]:
    """Classify one parameter point; returns (code, margin, flags)."""
    n2 = N - 2.0
    mu0, band = bd.mu0(n2), bd.snap_half_width(n2)
    if N < 3 or not (p > 0.0 and q > 0.0) or not (
            math.isfinite(p) and math.isfinite(q)):
        return CODE_INVALID, math.nan, 0
    if mu1 < mu0 - band or mu2 < mu0 - band:
        return CODE_INVALID, math.nan, 0
    if mu1 <= mu0 + band:
        mu1 = mu0
    if mu2 <= mu0 + band:
        mu2 = mu0

    # regimes split on the sign of tau_+, which is the sign of mu
    neg1 = _tau_plus(N, mu0, mu1) < 0.0
    neg2 = _tau_plus(N, mu0, mu2) < 0.0
    if neg1 and neg2:
        code, margin, flags = _regime_b(N, mu0, mu1, mu2, p, q)
        return code, margin, flags | (1 << REGIME_SHIFT)
    if neg1:
        return _regime_a(N, mu0, mu1, mu2, p, q, swapped=False)
    if neg2:
        code, margin, flags = _regime_a(N, mu0, mu2, mu1, q, p, swapped=True)
        return code, margin, flags
    # neither exponent negative: outside the singular regime
    return CODE_OUT_OF_SCOPE, min(mu1, mu2), (2 << REGIME_SHIFT)


def _tau_plus(N: int, mu0: float, mu: float) -> float:
    return bd.roots((N - 2.0) / 2.0, mu, math.sqrt(mu - mu0))[0]


def _gate(p: float, q: float, code: int, margin: float,
          flags: int) -> tuple[int, float, int]:
    """Existence constructions need p, q > 1; otherwise the point is open."""
    if p > 1.0 + TOL and q > 1.0 + TOL:
        return code, margin, flags
    return CODE_DOTTED, min(p, q) - 1.0, flags


def _regime_a(N: int, mu0: float, mu1: float, mu2: float,
              p: float, q: float, swapped: bool) -> tuple[int, float, int]:
    """mu0 <= mu1 < 0 <= mu2 (callers pre-swap so this orientation holds)."""
    flags = FLAG_SWAPPED if swapped else 0
    t1 = _tau_plus(N, mu0, mu1)
    t2 = _tau_plus(N, mu0, mu2)
    qup = bd.q_upper(N, t1, t2)
    qlo = bd.q_lower(t1, 0.0)
    e1 = bd.e1(t1, p, q)

    if q >= qup - TOL:
        return CODE_T1_I, q - qup, flags
    if q > qlo + TOL:
        if mu1 == mu0:
            if e1 <= TOL:
                if abs(e1) <= TOL:
                    flags |= FLAG_MU0_EDGE
                return CODE_T1_II, e1, flags
            return _gate(p, q, CODE_T3_I_CASE1, e1, flags)
        if e1 < -TOL:
            return CODE_T1_II, e1, flags
        if e1 <= TOL:
            return CODE_CURVE_AQ, e1, flags
        return _gate(p, q, CODE_T3_I_CASE1, e1, flags)
    if q >= qlo - TOL:
        return _gate(p, q, CODE_T3_I_CASE3, 0.0, flags)
    return _gate(p, q, CODE_T3_I_CASE2, qlo - q, flags)


def _regime_b(N: int, mu0: float, mu1: float, mu2: float,
              p: float, q: float) -> tuple[int, float, int]:
    """mu0 <= mu1, mu2 < 0."""
    t1 = _tau_plus(N, mu0, mu1)
    t2 = _tau_plus(N, mu0, mu2)
    qup = bd.q_upper(N, t1, t2)
    pup = bd.q_upper(N, t2, t1)
    qlo = bd.q_lower(t1, t2)
    plo = bd.q_lower(t2, t1)
    e1 = bd.e1(t1, p, q)
    e2 = bd.e1(t2, q, p)

    if p >= pup - TOL or q >= qup - TOL:
        margin = -math.inf
        if p >= pup - TOL:
            margin = p - pup
        if q >= qup - TOL:
            margin = max(margin, q - qup)
        return CODE_T2_I, margin, 0

    in_q = q > qlo + TOL
    in_p = p > plo + TOL
    fires_ii = in_q and e1 < -TOL
    fires_iii = in_p and e2 < -TOL
    if fires_ii and fires_iii:
        # both bootstraps certify; cite the more negative margin
        if e2 < e1:
            return CODE_T2_III, e2, 0
        return CODE_T2_II, e1, 0
    if fires_ii:
        return CODE_T2_II, e1, 0
    if fires_iii:
        return CODE_T2_III, e2, 0
    if in_q and abs(e1) <= TOL:
        return CODE_CURVE_AB, e1, 0
    if in_p and abs(e2) <= TOL:
        return CODE_CURVE_BC, e2, 0

    on_qlo = abs(q - qlo) <= TOL
    on_plo = abs(p - plo) <= TOL
    if in_q and e1 > TOL:
        return _gate(p, q, CODE_T3_II_A1, e1, 0)
    if in_p and e2 > TOL:
        return _gate(p, q, CODE_T3_II_B1, e2, 0)
    if on_plo and q < qlo - TOL:
        return _gate(p, q, CODE_T3_II_B2, qlo - q, 0)
    if (q < qlo - TOL or on_qlo) and p < plo - TOL:
        margin = min(qlo - q, plo - p)
        return _gate(p, q, CODE_T3_II_A2, margin, 0)
    # corner where both critical curves meet: no construction covers it
    return CODE_DOTTED, 0.0, 0
