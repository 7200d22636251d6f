"""Classification kernel: the package's one decision tree, in NumPy.

classify_codes evaluates the decision tree as a first-match mask cascade
over inputs that broadcast together: equal-length 1-D arrays in a sweep,
p as a row and q as a column on a region grid, or five scalars for one
point (regions.classify).  The points are split by regime and each
regime's branches, in the tree's order, go through _first_match,
which writes each branch's choice into an output array with
np.copyto(where=...) from the last branch to the first, so no branch makes
a new array.  When one regime covers every point of a call, as on a region
grid, it writes straight into the outputs and the inputs keep their
broadcast axes: a term of q (or p) alone, such as q >= q_upper, is
computed once per row (or column), not once per cell.  At 200x200 (2
cores) that cut classify_field from about 4.9 to 1.4 ms and from about 800
to 200 minor page faults (ru_minflt) per call on a regime-A grid, and from
6.4 to 3.2 ms and 1,100 to 420 faults on a regime-B grid; most faults came
from full-grid temporaries mapped afresh on each call.  Otherwise each
regime's points are gathered by the index tuple of np.nonzero (one
integer gather for 1-D and broadcast inputs alike), classified into new
arrays and scattered back.

The kernel returns integer region codes, the signed margin of the binding
inequality and a flags byte:

    bit 0: roles swapped (mu2 < 0 <= mu1 handled by the mirrored rules)
    bit 1: closed-edge verdict at mu1 = mu0 with e1 snapped to zero
    bits 2-3: regime (0 = one negative coefficient, 1 = both, 2 = none)

tests/reference_tree.py states the same tree as readable scalar Python,
and the tests check the two agree bit for bit: codes, margins (signed
zeros included) and flags.
"""

import numpy as np

from . import boundaries as bd

BACKEND = "numpy"

# Region codes.  The mapping to citation strings lives in hardylane.regions.
CODE_INVALID = -1
CODE_OUT_OF_SCOPE = 0
CODE_T1_I = 1
CODE_T1_II = 2
CODE_T2_I = 3
CODE_T2_II = 4
CODE_T2_III = 5
CODE_T3_I_CASE1 = 6
CODE_T3_I_CASE2 = 7
CODE_T3_I_CASE3 = 8
CODE_T3_II_A1 = 9
CODE_T3_II_A2 = 10
CODE_T3_II_B1 = 11
CODE_T3_II_B2 = 12
CODE_CURVE_AQ = 13
CODE_CURVE_AB = 14
CODE_CURVE_BC = 15
CODE_DOTTED = 16

FLAG_SWAPPED = 1
FLAG_MU0_EDGE = 2
REGIME_SHIFT = 2  # bits 2-3

#: Boundary tolerance: a margin within this distance of zero is classified
#: by the closed/open rule of the relevant boundary.
TOL = 1e-12

__all__ = ["BACKEND", "classify_codes"]


def _min(a, b):
    """Elementwise min(a, b) with Python's tie rule: b only if b < a."""
    return np.where(b < a, b, a)


def _first_match(conds, choices, default, out):
    """np.select(conds, choices, default), written into out: each element
    takes the choice of the first condition that holds there, else the
    default.

    Written from the last condition to the first, so an earlier condition
    overwrites a later one.  np.copyto copies the chosen values, so signed
    zeros and NaN come through as np.select gives them, and no branch
    makes a new output array.
    """
    np.copyto(out, default)
    for cond, choice in zip(reversed(conds), reversed(choices)):
        np.copyto(out, choice, where=cond)


#: The codes each regime passes through _gate, as inclusive code ranges:
#: the tree gates exactly the codes in each range, and no other branch of
#: that regime yields one of them (tests/test_kernels.py checks that each
#: range still holds exactly the codes the reference tree gates).
_GATED_A = (CODE_T3_I_CASE1, CODE_T3_I_CASE3)
_GATED_B = (CODE_T3_II_A1, CODE_T3_II_B2)


def _gate(p, q, code, margin, gated):
    """Existence constructions need p, q > 1; otherwise the point is open.

    gated is the (lowest, highest) code of the regime's gated range; code
    and margin are updated in place.
    """
    lo, hi = gated
    shut = (code >= lo) & (code <= hi) & ~((p > 1.0 + TOL) & (q > 1.0 + TOL))
    np.copyto(code, CODE_DOTTED, where=shut)
    np.copyto(margin, _min(p, q) - 1.0, where=shut)


def _regime_a(N, mu0, mu1, t1, t2, p, q, code, margin):
    """mu0 <= mu1 < 0 <= mu2 (callers pre-swap so this orientation holds).

    Writes the points' codes and margins into code and margin; returns
    their mu0-edge mask.
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
    _first_match(conds, [CODE_T1_I, CODE_T1_II, CODE_T3_I_CASE1, CODE_T1_II,
                         CODE_CURVE_AQ, CODE_T3_I_CASE1, CODE_T3_I_CASE3],
                 CODE_T3_I_CASE2, code)
    _first_match(conds, [q - qup, e1, e1, e1, e1, e1, 0.0], qlo - q, margin)
    _gate(p, q, code, margin, _GATED_A)
    return ~upper & edge_ii & (np.abs(e1) <= TOL)


def _regime_b(N, t1, t2, p, q, code, margin):
    """mu0 <= mu1, mu2 < 0.  Writes the points' codes and margins into code
    and margin."""
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
    _first_match(conds, [CODE_T2_I, CODE_T2_III, CODE_T2_II, CODE_T2_III,
                         CODE_CURVE_AB, CODE_CURVE_BC, CODE_T3_II_A1,
                         CODE_T3_II_B1, CODE_T3_II_B2, CODE_T3_II_A2],
                 CODE_DOTTED, code)
    _first_match(conds, [half_plane, e2, e1, e2, e1, e2, e1, e2, qlo - q,
                         _min(qlo - q, plo - p)], 0.0, margin)
    # the corner where both critical curves meet (CODE_DOTTED) is not gated
    _gate(p, q, code, margin, _GATED_B)


def _out_of_scope(mu1, mu2, code, margin):
    """Neither exponent negative: outside the singular regime."""
    code[...] = CODE_OUT_OF_SCOPE
    margin[...] = _min(mu1, mu2)


def classify_codes(N, mu1, mu2, p, q, out=None):
    """Classify points; returns (codes int16, margins float64, flags uint8).

    N, mu1, mu2, p and q are arrays or scalars that broadcast together:
    equal-length 1-D arrays (a sweep), scalar N, mu1 and mu2 with p a row
    and q a column (a region grid), or any other shapes that broadcast.
    The element at each index of the broadcast shape gets the
    classification of the five values there; all-scalar inputs give 0-d
    outputs.  out, if given, is a (codes, margins, flags) triple of
    arrays of the broadcast shape and those dtypes: the results are
    written into it, and it is returned.
    """
    N = np.asarray(N, dtype=np.int64)
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu2 = np.asarray(mu2, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    shape = np.broadcast_shapes(N.shape, mu1.shape, mu2.shape, p.shape,
                                q.shape)
    if out is None:
        out = (np.empty(shape, dtype=np.int16), np.empty(shape),
               np.empty(shape, dtype=np.uint8))
    codes, margins, flags = out
    codes.fill(CODE_INVALID)
    margins.fill(np.nan)
    flags.fill(0)

    with np.errstate(all="ignore"):
        # N - 2 in float64, not int64, whose square wraps past N = 3.04e9
        n2 = (N - 2).astype(np.float64)
        mu0 = bd.mu0(n2)
        band = bd.snap_half_width(n2)
        valid = ((N >= 3) & (p > 0.0) & (q > 0.0) & np.isfinite(p)
                 & np.isfinite(q) & ~(mu1 < mu0 - band) & ~(mu2 < mu0 - band))
        mu1 = np.where(mu1 <= mu0 + band, mu0, mu1)
        mu2 = np.where(mu2 <= mu0 + band, mu0, mu2)
        # regimes split on the sign of tau_+, which is the sign of mu
        h = n2 / 2.0
        t1, _ = bd.roots(h, mu1, np.sqrt(mu1 - mu0))
        t2, _ = bd.roots(h, mu2, np.sqrt(mu2 - mu0))
        neg1 = t1 < 0.0
        neg2 = t2 < 0.0

        def classify(mask, regime, args, flag, edge_flag=0):
            """Write regime(*args)'s codes and margins at the masked points,
            and flag there, or flag | edge_flag where its mu0-edge mask
            holds."""
            if not mask.any():
                return
            if mask.all():
                # straight into the outputs; the inputs keep their axes
                edge = regime(*args, codes, margins)
                flags.fill(flag)
                if edge is not None:
                    np.copyto(flags, flag | edge_flag, where=edge)
                return
            # gather the points by index, classify them, scatter the results
            idx = np.nonzero(mask)
            # the mask, built from every input, has the broadcast shape;
            # in a sweep so does every array argument, indexed without a
            # broadcast_to view
            args = [x if x.ndim == 0 else x[idx] if x.shape == shape
                    else np.broadcast_to(x, shape)[idx] for x in args]
            code = np.empty(idx[0].size, dtype=np.int16)
            margin = np.empty(idx[0].size)
            edge = regime(*args, code, margin)
            codes[idx], margins[idx] = code, margin
            flags[idx] = flag if edge is None else np.where(
                edge, flag | edge_flag, flag)

        classify(valid & neg1 & neg2, _regime_b, (N, t1, t2, p, q),
                 1 << REGIME_SHIFT)
        classify(valid & neg1 & ~neg2, _regime_a, (N, mu0, mu1, t1, t2, p, q),
                 0, FLAG_MU0_EDGE)
        classify(valid & ~neg1 & neg2, _regime_a, (N, mu0, mu2, t2, t1, q, p),
                 FLAG_SWAPPED, FLAG_MU0_EDGE)
        classify(valid & ~neg1 & ~neg2, _out_of_scope, (mu1, mu2),
                 2 << REGIME_SHIFT)
    return codes, margins, flags
