"""Exponent bootstrap: sharpen origin singularity exponents until one crosses.

Starting from the homogeneous-solution exponents tau1 = tau_+(mu1),
tau2 = tau_+(mu2), each cycle applies

    tau2 <- tau1 * q + 2        (half-step: v picks up u^q's singularity)
    tau1 <- tau2 * p + 2        (half-step: u picks up v^p's singularity)

and stops as soon as an exponent reaches the lower root tau_-(mu_i): past
that point the corresponding source is no longer weighted-L^1 and no
positive supersolution can exist.  The clamped variant additionally caps
the *first* cycle with the seed values (min with tau_+), which is the
correct bootstrap when both potentials are negative; later cycles use the
plain recursion.

Eliminating the half-step shows tau1 evolves under the affine map
tau1 <- pq * tau1 + 2p + 2, with fixed point (2p+2)/(1-pq); for pq > 1 the
iteration diverges geometrically, which yields an a-priori bound on the
number of steps to a crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List

from .exponents import DomainValidationError, HardyParams, Powers

#: Absolute tolerance on exponent repetition used to declare a stall.
STALL_TOL = 1e-13

#: Iterations whose exponents run away upward (subcritical side, pq > 1)
#: are cut off at this magnitude to keep traces finite.
RUNAWAY_LIMIT = 1e15

DEFAULT_CAP = 10_000


class CertificateKind(Enum):
    CROSSED_TAU1 = "crossed_tau1"
    CROSSED_TAU2 = "crossed_tau2"
    STALLED = "stalled"
    CAP_REACHED = "cap_reached"


@dataclass(frozen=True)
class Certificate:
    """Termination evidence: which exponent crossed (or why none did)."""

    kind: CertificateKind
    step: int
    value: float
    threshold: float


@dataclass(frozen=True)
class StepRecord:
    """One full cycle j with its exponents and bookkeeping flags.

    tau1_carried marks a cycle that terminated at the tau2 half-step, where
    tau1 simply repeats its previous value.
    """

    j: int
    tau1: float
    tau2: float
    tau1_clamped: bool = False
    tau2_clamped: bool = False
    tau1_carried: bool = False


class Variant(Enum):
    PLAIN = "plain"
    CLAMPED = "clamped"


@dataclass(frozen=True)
class IterationTrace:
    variant: Variant
    params: HardyParams
    pq: Powers
    steps: List[StepRecord]
    outcome: Certificate

    @property
    def crossed(self) -> bool:
        return self.outcome.kind in (CertificateKind.CROSSED_TAU1,
                                     CertificateKind.CROSSED_TAU2)


def _iterate(params: HardyParams, pq: Powers, cap: int,
             variant: Variant) -> IterationTrace:
    if cap < 1:
        raise DomainValidationError(f"cap must be >= 1, got {cap}")
    p, q = pq.p, pq.q
    pair1, pair2 = params.tau1, params.tau2
    t1_minus, t2_minus = pair1.tau_minus, pair2.tau_minus
    tau1, tau2 = pair1.tau_plus, pair2.tau_plus
    seed1, seed2 = tau1, tau2

    steps = [StepRecord(j=0, tau1=tau1, tau2=tau2)]

    for j in range(1, cap + 1):
        clamp = variant is Variant.CLAMPED and j == 1

        new2 = tau1 * q + 2.0
        clamped2 = False
        if clamp and seed2 < new2:
            new2, clamped2 = seed2, True
        tau2 = new2
        if tau2 <= t2_minus:
            steps.append(StepRecord(j=j, tau1=tau1, tau2=tau2,
                                    tau2_clamped=clamped2, tau1_carried=True))
            cert = Certificate(CertificateKind.CROSSED_TAU2, j, tau2, t2_minus)
            return IterationTrace(variant, params, pq, steps, cert)

        new1 = tau2 * p + 2.0
        clamped1 = False
        if clamp and seed1 < new1:
            new1, clamped1 = seed1, True
        prev1 = tau1
        tau1 = new1
        steps.append(StepRecord(j=j, tau1=tau1, tau2=tau2,
                                tau1_clamped=clamped1, tau2_clamped=clamped2))
        if tau1 <= t1_minus:
            cert = Certificate(CertificateKind.CROSSED_TAU1, j, tau1, t1_minus)
            return IterationTrace(variant, params, pq, steps, cert)
        if abs(tau1 - prev1) <= STALL_TOL:
            cert = Certificate(CertificateKind.STALLED, j, tau1, t1_minus)
            return IterationTrace(variant, params, pq, steps, cert)
        if abs(tau1) > RUNAWAY_LIMIT:
            cert = Certificate(CertificateKind.CAP_REACHED, j, tau1, t1_minus)
            return IterationTrace(variant, params, pq, steps, cert)

    cert = Certificate(CertificateKind.CAP_REACHED, cap, tau1, t1_minus)
    return IterationTrace(variant, params, pq, steps, cert)


def iterate_plain(params: HardyParams, pq: Powers,
                  cap: int = DEFAULT_CAP) -> IterationTrace:
    """Run the unclamped bootstrap; crossing checks after every half-step."""
    return _iterate(params, pq, cap, Variant.PLAIN)


def iterate_clamped(params: HardyParams, pq: Powers,
                    cap: int = DEFAULT_CAP) -> IterationTrace:
    """Run the bootstrap with the first cycle clamped by the seed exponents."""
    return _iterate(params, pq, cap, Variant.CLAMPED)


def _usable_tau1(trace: IterationTrace) -> List[float]:
    """tau1 values after any clamping, excluding carried (uncomputed) entries."""
    start = 0
    if any(s.tau1_clamped or s.tau2_clamped for s in trace.steps):
        start = 1  # differences must not straddle the clamped first cycle
    vals = [s.tau1 for s in trace.steps[start:] if not s.tau1_carried]
    return vals


def claim1_check(trace: IterationTrace, pq: Powers,
                 rel_tol: float = 1e-9) -> bool:
    """Verify the geometric law s_{j+1} = pq * s_j of successive differences.

    s_j = tau1^(j) - tau1^(j-1).  Requires at least three usable tau1 values
    (so at least two consecutive differences) outside any clamped cycle.
    A single perturbed entry breaks the relation, so this doubles as a
    trace-corruption detector.
    """
    vals = _usable_tau1(trace)
    if len(vals) < 3:
        raise DomainValidationError(
            f"need >= 3 usable steps for the geometric-law check, "
            f"have {len(vals)}")
    ratio = pq.p * pq.q
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    for s_prev, s_next in zip(diffs, diffs[1:]):
        if abs(s_next - ratio * s_prev) > rel_tol * max(1.0, abs(s_prev)):
            return False
    return True


def affine_fixed_point(pq: Powers) -> float:
    """Fixed point (2p+2)/(1-pq) of the full-cycle tau1 map (pq != 1)."""
    denom = 1.0 - pq.p * pq.q
    if denom == 0.0:
        raise DomainValidationError("pq = 1 has no affine fixed point")
    return (2.0 * pq.p + 2.0) / denom


def crossing_step_bound(params: HardyParams, pq: Powers) -> int:
    """Upper bound on full cycles until tau1 crosses tau_-(mu1).

    Valid when pq > 1 and the first cycle is strictly decreasing (the
    supercritical side).  From tau1^(j) - fix = (pq)^j (tau1^(0) - fix) the
    crossing needs (pq)^j >= (tau_- - fix)/(tau1^(0) - fix), both factors
    negative, so

        j* = ceil( log((tau_- - fix)/(tau_+ - fix)) / log(pq) ).
    """
    ratio = pq.p * pq.q
    if ratio <= 1.0:
        raise DomainValidationError("step bound requires pq > 1")
    fix = affine_fixed_point(pq)
    pair = params.tau1
    top, bottom = pair.tau_plus, pair.tau_minus
    if top >= fix:
        raise DomainValidationError(
            "step bound requires a decreasing iteration (tau_+ < fixed point)")
    arg = (bottom - fix) / (top - fix)
    if arg <= 1.0:
        return 1
    return math.ceil(math.log(arg) / math.log(ratio))
