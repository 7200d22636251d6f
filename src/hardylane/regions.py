"""Map a parameter point (N, mu1, mu2, p, q) to its region verdict.

Three regimes, split by the signs of the potential coefficients:

  regime A (one negative: mu0 <= mu1 < 0 <= mu2, or the mirrored roles):
      nonexistence above q = (N+tau_+(mu2))/(-tau_+(mu1)) (tag T1.i) or
      inside the strip with e1 = tau_+(mu1)(pq-1)+2p+2 negative (T1.ii;
      non-strict at mu1 = mu0); supersolutions on the unit ball below the
      critical curve (tags T3.i.case1/2/3 split at q = 2/(-tau_+(mu1)));
      the curve e1 = 0 inside the strip is open (CriticalCurve.AQ).

  regime B (both negative): closed half-planes p >= p_upper / q >= q_upper
      (T2.i), the two bootstrap regions T2.ii / T2.iii, the open curves AB
      and BC, and the four construction regions T3.ii.a1/a2/b1/b2.

  regime C (neither negative): out of scope.

Every nonexistence verdict is backed by a machine-checkable witness: a
weighted-L^1 failure or an iteration trace that crosses tau_-.  The witness
mechanism is determined by the citation; a classifier/engine disagreement
raises WitnessMismatchError rather than being papered over.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

from . import _kernels as K
from . import boundaries as bd
from ._frozen import frozen
from .exponents import DomainValidationError, HardyParams, Powers
from .integrability import IntegrabilityVerdict, power_verdict
from .iteration import IterationTrace, iterate_clamped, iterate_plain


class WitnessMismatchError(RuntimeError):
    """The cited nonexistence mechanism failed to produce its witness."""


class Verdict(Enum):
    NONEXISTENCE = "nonexistence"
    EXISTS_SUPERSOLUTION = "exists_supersolution"
    OPEN_CRITICAL = "open_critical"
    OUT_OF_SCOPE = "out_of_scope"


_NO, _YES, _OPEN = (Verdict.NONEXISTENCE, Verdict.EXISTS_SUPERSOLUTION,
                    Verdict.OPEN_CRITICAL)

#: code -> (verdict, citation, domain) for every valid region code: the one
#: table of what a kernel code means.
_OUTCOMES = {
    K.CODE_OUT_OF_SCOPE: (Verdict.OUT_OF_SCOPE, "Scope", None),
    K.CODE_T1_I: (_NO, "T1.i", None),
    K.CODE_T1_II: (_NO, "T1.ii", None),
    K.CODE_T2_I: (_NO, "T2.i", None),
    K.CODE_T2_II: (_NO, "T2.ii", None),
    K.CODE_T2_III: (_NO, "T2.iii", None),
    K.CODE_T3_I_CASE1: (_YES, "T3.i.case1", "unit_ball"),
    K.CODE_T3_I_CASE2: (_YES, "T3.i.case2", "unit_ball"),
    K.CODE_T3_I_CASE3: (_YES, "T3.i.case3", "unit_ball"),
    K.CODE_T3_II_A1: (_YES, "T3.ii.a1", None),
    K.CODE_T3_II_A2: (_YES, "T3.ii.a2", None),
    K.CODE_T3_II_B1: (_YES, "T3.ii.b1", None),
    K.CODE_T3_II_B2: (_YES, "T3.ii.b2", None),
    K.CODE_CURVE_AQ: (_OPEN, "CriticalCurve.AQ", None),
    K.CODE_CURVE_AB: (_OPEN, "CriticalCurve.AB", None),
    K.CODE_CURVE_BC: (_OPEN, "CriticalCurve.BC", None),
    K.CODE_DOTTED: (_OPEN, "CriticalCurve.DottedBoundary", None),
}
_REGIMES = {0: "A", 1: "B", 2: "C"}


@frozen
class RegionClass:
    """Classification outcome with its citation payload."""

    verdict: Verdict
    citation: str
    margin: float
    regime: str
    swapped: bool = False
    mu0_edge: bool = False
    domain: Optional[str] = None


#: (code, flags) -> the RegionClass field dict, in field order, with a
#: margin of 0.0, for every valid code and every flags value the kernel
#: can give.
_WRAPPED = {
    (code, regime << K.REGIME_SHIFT | mu0_edge | swapped): {
        "verdict": verdict, "citation": citation, "margin": 0.0,
        "regime": name, "swapped": bool(swapped),
        "mu0_edge": bool(mu0_edge), "domain": domain}
    for code, (verdict, citation, domain) in _OUTCOMES.items()
    for regime, name in _REGIMES.items()
    for mu0_edge in (0, K.FLAG_MU0_EDGE)
    for swapped in (0, K.FLAG_SWAPPED)}


def _wrap(code: int, margin: float, flags: int) -> RegionClass:
    """The RegionClass of a kernel result; an unknown code or flags raises.

    The instance dict is a copy of the table's, in field order, with the
    margin stored over its 0.0: the same dict RegionClass(...) builds.
    """
    try:
        row = _WRAPPED[code, flags]
    except KeyError:
        if code == K.CODE_INVALID:
            raise DomainValidationError(
                "parameters outside the admissible domain") from None
        raise
    out = object.__new__(RegionClass)
    state = out.__dict__
    state.update(row)
    state["margin"] = float(margin)
    return out


def classify(params: HardyParams, pq: Powers) -> RegionClass:
    """Classify one admissible parameter point (the kernel on scalars)."""
    code, margin, flags = K.classify_codes(params.N, params.mu1, params.mu2,
                                           pq.p, pq.q)
    return _wrap(int(code), float(margin), int(flags))


#: Grid cells per kernel call in classify_field (whole rows, at least one
#: row).  Measured on window (5, -2, -2), 2 cores: a 200x200 grid took
#: 4.5 ms in 4k-cell blocks and 3.3 ms in one call (each call has a fixed
#: cost); a 1500x1500 grid ran fastest in 64k-cell blocks (179 ms, against
#: 339 ms at 4k and 229 ms at 256k) and peaked at 56 MB RSS, 25 MB of it
#: the outputs (300 MB in one call over a meshgrid).
_FIELD_BLOCK_CELLS = 1 << 16


def classify_field(params: HardyParams, p_values: np.ndarray,
                   q_values: np.ndarray):
    """Classify the full p x q grid; returns (codes, margins, flags) arrays.

    Output arrays have shape (len(q_values), len(p_values)): row index runs
    over q ascending, column index over p ascending.  The kernel gets
    scalar N, mu1, mu2, p as a row and q as a column, so no meshgrid is
    built and a term of q (or p) alone is computed once per row (or
    column).  It runs over blocks of whole rows, about _FIELD_BLOCK_CELLS
    cells each, and writes straight into the preallocated outputs.
    """
    p = np.asarray(p_values, dtype=float).reshape(1, -1)
    q = np.asarray(q_values, dtype=float).reshape(-1, 1)
    shape = (q.size, p.size)
    out = (np.empty(shape, dtype=np.int16), np.empty(shape),
           np.empty(shape, dtype=np.uint8))
    rows = max(1, _FIELD_BLOCK_CELLS // max(1, p.size))
    for start in range(0, q.size, rows):
        block = slice(start, start + rows)
        K.classify_codes(params.N, params.mu1, params.mu2, p, q[block],
                         out=tuple(a[block] for a in out))
    return out


@frozen
class Witness:
    """Machine-checkable nonexistence evidence.

    Exactly one of (verdict, trace) is set:
      - integrability: the cited source power is not weighted-L^1
        (mechanism provenance tag P2.1);
      - iteration: the exponent bootstrap crossed tau_- (tags P3.1 / P3.2).
    """

    mechanism: str                  # "integrability" | "iteration"
    provenance: str                 # P2.1 | P3.1 | P3.2
    description: str
    verdict: Optional[IntegrabilityVerdict] = None
    exponent: Optional[float] = None
    weight_mu: Optional[float] = None
    trace: Optional[IterationTrace] = None


#: A witness margin within this band of zero counts as divergent: points on
#: snapped closed edges (q = q_upper, or e1 = 0 at the threshold) recompute
#: their margin with rounding noise of a few ulps, and the boundary itself
#: diverges, so the tolerance can only admit true edge points.
_WITNESS_EDGE_TOL = 1e-11


def _integrability_witness(N: int, source_tau: float, weight_mu: float,
                           weight_tp: float, label: str) -> Witness:
    """r^source_tau against |x|^weight_tp, where weight_tp = tau_+(weight_mu).

    The caller passes the tau_+ its HardyParams already holds.  A sigma in
    (0, _WITNESS_EDGE_TOL] is a closed edge's rounding noise: the witness
    is accepted, and its verdict says integrable=False with the signed
    sigma kept.  Only that rare branch builds a second verdict.
    """
    verdict = power_verdict(N, source_tau, weight_tp)
    gap = verdict.critical_exponent_gap
    if gap > 0.0:
        if gap > _WITNESS_EDGE_TOL:
            raise WitnessMismatchError(
                f"{label}: expected weighted-L^1 failure but sigma = "
                f"{gap:g} > 0")
        verdict = IntegrabilityVerdict(integrable=False,
                                       critical_exponent_gap=gap)
    return Witness("integrability", "P2.1", label, verdict, source_tau,
                   weight_mu)


def _iteration_witness(params: HardyParams, pq: Powers, clamped: bool,
                       label: str) -> Witness:
    trace = (iterate_clamped if clamped else iterate_plain)(params, pq)
    if not trace.crossed:
        raise WitnessMismatchError(
            f"{label}: iteration ended {trace.outcome.kind.value} "
            f"instead of crossing")
    return Witness("iteration", "P3.2" if clamped else "P3.1", label,
                   None, None, None, trace)


#: citation -> (clamped, label) of the bootstrap regions' iteration
#: witnesses; T1.ii on the mu1 = mu0 edge is an integrability failure.
_ITERATIONS = {
    "T1.ii": (False, "plain bootstrap crossing"),
    "T2.ii": (True, "clamped bootstrap crossing"),
    "T2.iii": (True, "clamped bootstrap crossing (roles swapped)"),
}


def nonexistence_witness(params: HardyParams, pq: Powers,
                         region: Optional[RegionClass] = None) -> Witness:
    """Produce the evidence chain backing a Nonexistence verdict.

    The mechanism matches the citation: the closed half-planes (T1.i, T2.i)
    and the mu1 = mu0 critical edge are integrability failures; interior
    bootstrap regions are iteration crossings.

    The citation reads the point in the region's orientation (mu1, mu2, p,
    q exchanged with mu2, mu1, q, p when region.swapped).  An integrability
    witness takes the oriented values straight from params and pq; an
    iteration witness gets params and pq swapped once when its roles are
    exchanged (T2.iii runs the bootstrap with the roles of the
    orientation exchanged again).
    """
    if region is None:
        region = classify(params, pq)
    if region.verdict is not _NO:
        raise DomainValidationError(
            f"witness requested for verdict {region.verdict.value}")
    cite = region.citation

    iteration = _ITERATIONS.get(cite)
    if iteration is not None and not (cite == "T1.ii" and region.mu0_edge):
        if region.swapped != (cite == "T2.iii"):
            params, pq = params.swapped(), pq.swapped()
        clamped, label = iteration
        return _iteration_witness(params, pq, clamped, label)

    N = params.N
    t1, _, t2, _ = params.roots
    if region.swapped:
        mu1, mu2, p, q = params.mu2, params.mu1, pq.q, pq.p
        t1, t2 = t2, t1
    else:
        mu1, mu2, p, q = params.mu1, params.mu2, pq.p, pq.q

    # T2.i lies in regime B, so t1 < 0 there
    if cite == "T1.i" or (cite == "T2.i"
                          and q >= bd.q_upper(N, t1, t2) - K.TOL):
        return _integrability_witness(
            N, t1 * q, mu2, t2, "u^q fails L^1 against the second weight")
    if cite == "T2.i":
        return _integrability_witness(
            N, t2 * p, mu1, t1, "v^p fails L^1 against the first weight")
    if cite == "T1.ii":
        return _integrability_witness(
            N, (t1 * q + 2.0) * p, mu1, t1,
            "one-bootstrap source power fails L^1 at the threshold edge")
    raise WitnessMismatchError(f"no witness mechanism for citation {cite}")
