"""Classification kernel: one vectorised NumPy decision tree.

classify_codes evaluates the decision tree of the scalar reference
_pure.classify_code as a first-match mask cascade: the points are split by
regime and each regime's branches, in the reference's order, go through
_first_match, a chain of np.where from the last branch to the first (what
np.select computes, in about a third of its time at a sweep's batch size).
Every margin is computed by the same floating-point expression as in the
reference, and min/max ties resolve the same way, so codes, margins
(signed zeros included) and flags agree bit for bit.
"""

import numpy as np

from .. import boundaries as bd
from . import _pure
from ._pure import classify_code

BACKEND = "numpy"

# Region codes, flag bits and tolerances are defined by the reference.
CODE_INVALID = _pure.CODE_INVALID
CODE_OUT_OF_SCOPE = _pure.CODE_OUT_OF_SCOPE
CODE_T1_I = _pure.CODE_T1_I
CODE_T1_II = _pure.CODE_T1_II
CODE_T2_I = _pure.CODE_T2_I
CODE_T2_II = _pure.CODE_T2_II
CODE_T2_III = _pure.CODE_T2_III
CODE_T3_I_CASE1 = _pure.CODE_T3_I_CASE1
CODE_T3_I_CASE2 = _pure.CODE_T3_I_CASE2
CODE_T3_I_CASE3 = _pure.CODE_T3_I_CASE3
CODE_T3_II_A1 = _pure.CODE_T3_II_A1
CODE_T3_II_A2 = _pure.CODE_T3_II_A2
CODE_T3_II_B1 = _pure.CODE_T3_II_B1
CODE_T3_II_B2 = _pure.CODE_T3_II_B2
CODE_CURVE_AQ = _pure.CODE_CURVE_AQ
CODE_CURVE_AB = _pure.CODE_CURVE_AB
CODE_CURVE_BC = _pure.CODE_CURVE_BC
CODE_DOTTED = _pure.CODE_DOTTED
FLAG_SWAPPED = _pure.FLAG_SWAPPED
FLAG_MU0_EDGE = _pure.FLAG_MU0_EDGE
REGIME_SHIFT = _pure.REGIME_SHIFT
TOL = _pure.TOL
MU0_SNAP_REL = _pure.MU0_SNAP_REL

__all__ = ["BACKEND", "classify_code", "classify_codes"]


def _min(a, b):
    """Elementwise min(a, b) with Python's tie rule: b only if b < a."""
    return np.where(b < a, b, a)


def _first_match(conds, choices, default):
    """np.select(conds, choices, default): each element takes the choice of
    the first condition that holds there, else the default.

    Built from the last condition to the first, so an earlier condition
    overwrites a later one.  np.where copies the chosen values, so signed
    zeros and NaN come through as np.select gives them.
    """
    out = default
    for cond, choice in zip(reversed(conds), reversed(choices)):
        out = np.where(cond, choice, out)
    return out


#: The codes each regime passes through _gate, as inclusive code ranges:
#: the reference gates exactly the codes in each range, and no other
#: branch of that regime yields one of them (tests/test_kernels.py checks
#: that each range still holds exactly the gated codes).
_GATED_A = (CODE_T3_I_CASE1, CODE_T3_I_CASE3)
_GATED_B = (CODE_T3_II_A1, CODE_T3_II_B2)


def _gate(p, q, code, margin, gated):
    """Existence constructions need p, q > 1; otherwise the point is open.

    gated is the (lowest, highest) code of the regime's gated range.
    """
    lo, hi = gated
    shut = (code >= lo) & (code <= hi) & ~((p > 1.0 + TOL) & (q > 1.0 + TOL))
    return (np.where(shut, CODE_DOTTED, code),
            np.where(shut, _min(p, q) - 1.0, margin))


def _regime_a(N, mu0, mu1, t1, t2, p, q):
    """mu0 <= mu1 < 0 <= mu2 (callers pre-swap so this orientation holds).

    Returns (codes, margins, mu0-edge mask).
    """
    qup = bd.q_upper(N, t1, t2)
    qlo = bd.q_lower(t1, 0.0)
    e1 = bd.e1(t1, p, q)
    upper = q >= qup - TOL
    strip = q > qlo + TOL
    at_mu0 = strip & (mu1 == mu0)
    edge_ii = at_mu0 & (e1 <= TOL)
    conds = [upper, edge_ii, at_mu0, strip & (e1 < -TOL),
             strip & (e1 <= TOL), strip, q >= qlo - TOL]
    code = _first_match(conds, [CODE_T1_I, CODE_T1_II, CODE_T3_I_CASE1,
                                CODE_T1_II, CODE_CURVE_AQ, CODE_T3_I_CASE1,
                                CODE_T3_I_CASE3], CODE_T3_I_CASE2)
    margin = _first_match(conds, [q - qup, e1, e1, e1, e1, e1, 0.0], qlo - q)
    code, margin = _gate(p, q, code, margin, _GATED_A)
    return code, margin, ~upper & edge_ii & (np.abs(e1) <= TOL)


def _regime_b(N, t1, t2, p, q):
    """mu0 <= mu1, mu2 < 0.  Returns (codes, margins)."""
    qup = bd.q_upper(N, t1, t2)
    pup = bd.q_upper(N, t2, t1)
    qlo = bd.q_lower(t1, t2)
    plo = bd.q_lower(t2, t1)
    e1 = bd.e1(t1, p, q)
    e2 = bd.e1(t2, q, p)

    over_p = p >= pup - TOL
    over_q = q >= qup - TOL
    margin_p = np.where(over_p, p - pup, -np.inf)
    # max(margin_p, q - qup): the second value wins only when greater
    half_plane = np.where(over_q & (q - qup > margin_p), q - qup, margin_p)

    in_q = q > qlo + TOL
    in_p = p > plo + TOL
    fires_ii = in_q & (e1 < -TOL)
    fires_iii = in_p & (e2 < -TOL)
    on_qlo = np.abs(q - qlo) <= TOL
    on_plo = np.abs(p - plo) <= TOL
    below_q = q < qlo - TOL
    conds = [over_p | over_q,
             # both bootstraps certify; cite the more negative margin
             fires_ii & fires_iii & (e2 < e1),
             fires_ii, fires_iii,
             in_q & (np.abs(e1) <= TOL), in_p & (np.abs(e2) <= TOL),
             in_q & (e1 > TOL), in_p & (e2 > TOL),
             on_plo & below_q,
             (below_q | on_qlo) & (p < plo - TOL)]
    code = _first_match(conds, [CODE_T2_I, CODE_T2_III, CODE_T2_II,
                                CODE_T2_III, CODE_CURVE_AB, CODE_CURVE_BC,
                                CODE_T3_II_A1, CODE_T3_II_B1, CODE_T3_II_B2,
                                CODE_T3_II_A2], CODE_DOTTED)
    margin = _first_match(conds, [half_plane, e2, e1, e2, e1, e2, e1, e2,
                                  qlo - q, _min(qlo - q, plo - p)], 0.0)
    # the corner where both critical curves meet (CODE_DOTTED) is not gated
    return _gate(p, q, code, margin, _GATED_B)


def _tau_pair(N, mu0, mu):
    """tau_+(mu), tau_-(mu) elementwise, for mu snapped onto [mu0, inf)."""
    half = (N - 2) / 2.0
    s = np.sqrt(mu - mu0)
    return -half + s, -half - s


def classify_codes(N, mu1, mu2, p, q):
    """Classify points; returns (codes int16, margins float64, flags uint8).

    p and q are equal-length 1-D arrays.  N, mu1 and mu2 are arrays of the
    same length or scalars (one parameter triple for every point, as on a
    region grid).  Point i gets exactly classify_code(N[i], mu1[i], mu2[i],
    p[i], q[i]).  When all five are scalars the one point is classified
    as a batch of one and the outputs are 0-d arrays holding
    classify_code(N, mu1, mu2, p, q).
    """
    N = np.asarray(N, dtype=np.int64)
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu2 = np.asarray(mu2, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    out_shape = np.broadcast_shapes(N.shape, mu1.shape, mu2.shape, p.shape,
                                    q.shape)
    # points() gathers by flat index, which a 0-d array does not take
    shape = out_shape or (1,)
    codes = np.full(shape, CODE_INVALID, dtype=np.int16)
    margins = np.full(shape, np.nan)
    flags = np.zeros(shape, dtype=np.uint8)

    with np.errstate(all="ignore"):
        mu0 = -((N - 2) * (N - 2)) / 4.0
        band = MU0_SNAP_REL * (N - 2) * (N - 2)
        valid = ((N >= 3) & (p > 0.0) & (q > 0.0) & np.isfinite(p)
                 & np.isfinite(q) & ~(mu1 < mu0 - band) & ~(mu2 < mu0 - band))
        mu1 = np.where(mu1 <= mu0 + band, mu0, mu1)
        mu2 = np.where(mu2 <= mu0 + band, mu0, mu2)
        # regimes split on the sign of the computed exponent (see _pure)
        t1, _ = _tau_pair(N, mu0, mu1)
        t2, _ = _tau_pair(N, mu0, mu2)
        neg1 = t1 < 0.0
        neg2 = t2 < 0.0

        def points(mask):
            """Index selecting the masked points, and a gather for them."""
            mask = np.broadcast_to(mask, shape)
            idx = slice(None) if mask.all() else np.flatnonzero(mask)
            return idx, lambda x: x if x.ndim == 0 else x[idx]

        idx, at = points(valid & neg1 & neg2)
        code, margin = _regime_b(at(N), at(t1), at(t2), at(p), at(q))
        codes[idx], margins[idx] = code, margin
        flags[idx] = 1 << REGIME_SHIFT

        idx, at = points(valid & neg1 & ~neg2)
        code, margin, edge = _regime_a(at(N), at(mu0), at(mu1), at(t1),
                                       at(t2), at(p), at(q))
        codes[idx], margins[idx] = code, margin
        flags[idx] = np.where(edge, FLAG_MU0_EDGE, 0)

        idx, at = points(valid & ~neg1 & neg2)
        code, margin, edge = _regime_a(at(N), at(mu0), at(mu2), at(t2),
                                       at(t1), at(q), at(p))
        codes[idx], margins[idx] = code, margin
        flags[idx] = np.where(edge, FLAG_SWAPPED | FLAG_MU0_EDGE, FLAG_SWAPPED)

        # neither exponent negative: outside the singular regime
        idx, at = points(valid & ~neg1 & ~neg2)
        codes[idx] = CODE_OUT_OF_SCOPE
        margins[idx] = _min(at(mu1), at(mu2))
        flags[idx] = 2 << REGIME_SHIFT
    if not out_shape:
        return codes.reshape(()), margins.reshape(()), flags.reshape(())
    return codes, margins, flags

