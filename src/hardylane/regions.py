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

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

import numpy as np

from . import _kernels as K
from .exponents import (DomainValidationError, HardyParams, Powers,
                        boundary_expressions, tau_pair)
from .integrability import IntegrabilityVerdict, is_gamma_integrable
from .iteration import IterationTrace, iterate_clamped, iterate_plain
from .radial import RadialFunction


class WitnessMismatchError(RuntimeError):
    """The cited nonexistence mechanism failed to produce its witness."""


class Verdict(Enum):
    NONEXISTENCE = "nonexistence"
    EXISTS_SUPERSOLUTION = "exists_supersolution"
    OPEN_CRITICAL = "open_critical"
    OUT_OF_SCOPE = "out_of_scope"


_CITATIONS = {
    K.CODE_OUT_OF_SCOPE: "Scope",
    K.CODE_T1_I: "T1.i",
    K.CODE_T1_II: "T1.ii",
    K.CODE_T2_I: "T2.i",
    K.CODE_T2_II: "T2.ii",
    K.CODE_T2_III: "T2.iii",
    K.CODE_T3_I_CASE1: "T3.i.case1",
    K.CODE_T3_I_CASE2: "T3.i.case2",
    K.CODE_T3_I_CASE3: "T3.i.case3",
    K.CODE_T3_II_A1: "T3.ii.a1",
    K.CODE_T3_II_A2: "T3.ii.a2",
    K.CODE_T3_II_B1: "T3.ii.b1",
    K.CODE_T3_II_B2: "T3.ii.b2",
    K.CODE_CURVE_AQ: "CriticalCurve.AQ",
    K.CODE_CURVE_AB: "CriticalCurve.AB",
    K.CODE_CURVE_BC: "CriticalCurve.BC",
    K.CODE_DOTTED: "CriticalCurve.DottedBoundary",
}

_NONEXISTENCE_CODES = {K.CODE_T1_I, K.CODE_T1_II, K.CODE_T2_I,
                       K.CODE_T2_II, K.CODE_T2_III}
_EXISTENCE_CODES = {K.CODE_T3_I_CASE1, K.CODE_T3_I_CASE2, K.CODE_T3_I_CASE3,
                    K.CODE_T3_II_A1, K.CODE_T3_II_A2, K.CODE_T3_II_B1,
                    K.CODE_T3_II_B2}
_OPEN_CODES = {K.CODE_CURVE_AQ, K.CODE_CURVE_AB, K.CODE_CURVE_BC,
               K.CODE_DOTTED}
_UNIT_BALL_CODES = {K.CODE_T3_I_CASE1, K.CODE_T3_I_CASE2, K.CODE_T3_I_CASE3}
_REGIMES = {0: "A", 1: "B", 2: "C"}


def _verdict_of(code: int) -> Verdict:
    if code in _NONEXISTENCE_CODES:
        return Verdict.NONEXISTENCE
    if code in _EXISTENCE_CODES:
        return Verdict.EXISTS_SUPERSOLUTION
    if code in _OPEN_CODES:
        return Verdict.OPEN_CRITICAL
    return Verdict.OUT_OF_SCOPE


#: code -> (verdict, citation, domain) for every valid region code.
_OUTCOMES = {code: (_verdict_of(code), cite,
                    "unit_ball" if code in _UNIT_BALL_CODES else None)
             for code, cite in _CITATIONS.items()}


@dataclass(frozen=True)
class RegionClass:
    """Classification outcome with its citation payload."""

    verdict: Verdict
    citation: str
    margin: float
    regime: str
    swapped: bool = False
    mu0_edge: bool = False
    domain: Optional[str] = None

    @property
    def code(self) -> int:
        return _CODE_BY_CITATION[self.citation]


_CODE_BY_CITATION = {v: k for k, v in _CITATIONS.items()}


def _wrap(code: int, margin: float, flags: int) -> RegionClass:
    if code == K.CODE_INVALID:
        raise DomainValidationError("parameters outside the admissible domain")
    verdict, citation, domain = _OUTCOMES[code]
    return RegionClass(
        verdict=verdict,
        citation=citation,
        margin=float(margin),
        regime=_REGIMES[(flags >> K.REGIME_SHIFT) & 0x3],
        swapped=bool(flags & K.FLAG_SWAPPED),
        mu0_edge=bool(flags & K.FLAG_MU0_EDGE),
        domain=domain,
    )


def classify(params: HardyParams, pq: Powers) -> RegionClass:
    """Classify one admissible parameter point."""
    code, margin, flags = K.classify_code(params.N, params.mu1, params.mu2,
                                          pq.p, pq.q)
    return _wrap(code, margin, flags)


def classify_field(params: HardyParams, p_values: np.ndarray,
                   q_values: np.ndarray):
    """Classify the full p x q grid; returns (codes, margins, flags) arrays.

    Output arrays have shape (len(q_values), len(p_values)): row index runs
    over q ascending, column index over p ascending.  The whole grid goes
    through the vectorised kernel in one call with scalar N, mu1, mu2.
    """
    p_values = np.asarray(p_values, dtype=float)
    q_values = np.asarray(q_values, dtype=float)
    pp, qq = np.meshgrid(p_values, q_values)
    codes, margins, flags = K.classify_codes(params.N, params.mu1, params.mu2,
                                             pp.ravel(), qq.ravel())
    shape = (q_values.size, p_values.size)
    return codes.reshape(shape), margins.reshape(shape), flags.reshape(shape)


def classify_grid(params: HardyParams, p_range: tuple, q_range: tuple,
                  resolution: int) -> List[List[RegionClass]]:
    """Row-major matrix of classify results over the uniform inclusive grid."""
    if not (2 <= resolution <= 4096):
        raise DomainValidationError(
            f"resolution must lie in [2, 4096], got {resolution}")
    for lo, hi in (p_range, q_range):
        if not (0.0 < lo < hi):
            raise DomainValidationError(
                f"range must satisfy 0 < lo < hi, got ({lo}, {hi})")
    p_values = np.linspace(p_range[0], p_range[1], resolution)
    q_values = np.linspace(q_range[0], q_range[1], resolution)
    codes, margins, flags = classify_field(params, p_values, q_values)
    return [[_wrap(int(codes[i, j]), margins[i, j], int(flags[i, j]))
             for j in range(resolution)]
            for i in range(resolution)]


@dataclass(frozen=True)
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
                           label: str) -> Witness:
    f = RadialFunction.monomial(1.0, source_tau)
    verdict = is_gamma_integrable(N, weight_mu, f)
    if verdict.critical_exponent_gap > _WITNESS_EDGE_TOL:
        raise WitnessMismatchError(
            f"{label}: expected weighted-L^1 failure but sigma = "
            f"{verdict.critical_exponent_gap:g} > 0")
    return Witness(mechanism="integrability", provenance="P2.1",
                   description=label, verdict=verdict,
                   exponent=source_tau, weight_mu=weight_mu)


def _iteration_witness(params: HardyParams, pq: Powers, clamped: bool,
                       label: str) -> Witness:
    trace = (iterate_clamped if clamped else iterate_plain)(params, pq)
    if not trace.crossed:
        raise WitnessMismatchError(
            f"{label}: iteration ended {trace.outcome.kind.value} "
            f"instead of crossing")
    return Witness(mechanism="iteration",
                   provenance="P3.2" if clamped else "P3.1",
                   description=label, trace=trace)


def nonexistence_witness(params: HardyParams, pq: Powers,
                         region: Optional[RegionClass] = None) -> Witness:
    """Produce the evidence chain backing a Nonexistence verdict.

    The mechanism matches the citation: the closed half-planes (T1.i, T2.i)
    and the mu1 = mu0 critical edge are integrability failures; interior
    bootstrap regions are iteration crossings.
    """
    if region is None:
        region = classify(params, pq)
    if region.verdict is not Verdict.NONEXISTENCE:
        raise DomainValidationError(
            f"witness requested for verdict {region.verdict.value}")

    eff_params, eff_pq = params, pq
    if region.swapped:
        eff_params, eff_pq = params.swapped(), pq.swapped()
    t1 = eff_params.tau1.tau_plus
    t2 = eff_params.tau2.tau_plus
    cite = region.citation

    if cite == "T1.i":
        return _integrability_witness(
            eff_params.N, t1 * eff_pq.q, eff_params.mu2,
            "u^q fails L^1 against the second weight")
    if cite == "T2.i":
        vals = boundary_expressions(eff_params, eff_pq)
        if vals.q_upper is not None and eff_pq.q >= vals.q_upper - K.TOL:
            return _integrability_witness(
                eff_params.N, t1 * eff_pq.q, eff_params.mu2,
                "u^q fails L^1 against the second weight")
        return _integrability_witness(
            eff_params.N, t2 * eff_pq.p, eff_params.mu1,
            "v^p fails L^1 against the first weight")
    if cite == "T1.ii":
        if region.mu0_edge:
            boot = (t1 * eff_pq.q + 2.0) * eff_pq.p
            return _integrability_witness(
                eff_params.N, boot, eff_params.mu1,
                "one-bootstrap source power fails L^1 at the threshold edge")
        return _iteration_witness(eff_params, eff_pq, clamped=False,
                                  label="plain bootstrap crossing")
    if cite == "T2.ii":
        return _iteration_witness(eff_params, eff_pq, clamped=True,
                                  label="clamped bootstrap crossing")
    if cite == "T2.iii":
        return _iteration_witness(eff_params.swapped(), eff_pq.swapped(),
                                  clamped=True,
                                  label="clamped bootstrap crossing (roles swapped)")
    raise WitnessMismatchError(f"no witness mechanism for citation {cite}")
