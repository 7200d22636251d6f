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
iteration diverges geometrically.  The test suite checks traces against
this law and against the a-priori bound on the number of steps to a
crossing that it yields.
"""

from __future__ import annotations

from enum import Enum
from typing import List

from ._frozen import frozen
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


@frozen
class Certificate:
    """Termination evidence: which exponent crossed (or why none did)."""

    kind: CertificateKind
    step: int
    value: float
    threshold: float


@frozen
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


# Enum members as module globals: the bootstrap reads them on every call,
# and a global read is about a tenth of a member read's cost.
_TAU1, _TAU2, _STALLED, _CAP = (
    CertificateKind.CROSSED_TAU1, CertificateKind.CROSSED_TAU2,
    CertificateKind.STALLED, CertificateKind.CAP_REACHED)

#: The kinds that end a trace with a crossing.
_CROSSED = (_TAU1, _TAU2)


class Variant(Enum):
    PLAIN = "plain"
    CLAMPED = "clamped"


_PLAIN, _CLAMPED = Variant.PLAIN, Variant.CLAMPED


@frozen
class IterationTrace:
    """One bootstrap run: its variant, inputs, cycles and outcome.

    steps[0] holds the seed exponents (cycle 0); outcome says how the run
    ended.
    """

    variant: Variant
    params: HardyParams
    pq: Powers
    steps: List[StepRecord]
    outcome: Certificate

    @property
    def crossed(self) -> bool:
        return self.outcome.kind in _CROSSED


def _iterate(params: HardyParams, pq: Powers, cap: int,
             variant: Variant) -> IterationTrace:
    if cap < 1:
        raise DomainValidationError(f"cap must be >= 1, got {cap}")
    p, q = pq.p, pq.q
    tau1, t1_minus, tau2, t2_minus = params.roots
    seed1, seed2 = tau1, tau2

    steps = [StepRecord(0, tau1, tau2)]

    # only the first cycle of the clamped variant is clamped
    clamp = variant is _CLAMPED
    for j in range(1, cap + 1):
        tau2 = tau1 * q + 2.0
        clamped2 = False
        if clamp and seed2 < tau2:
            tau2, clamped2 = seed2, True
        if tau2 <= t2_minus:
            steps.append(StepRecord(j, tau1, tau2, False, clamped2, True))
            cert = Certificate(_TAU2, j, tau2, t2_minus)
            return IterationTrace(variant, params, pq, steps, cert)

        prev1 = tau1
        tau1 = tau2 * p + 2.0
        clamped1 = False
        if clamp and seed1 < tau1:
            tau1, clamped1 = seed1, True
        clamp = False
        steps.append(StepRecord(j, tau1, tau2, clamped1, clamped2))
        if tau1 <= t1_minus:
            cert = Certificate(_TAU1, j, tau1, t1_minus)
            return IterationTrace(variant, params, pq, steps, cert)
        if abs(tau1 - prev1) <= STALL_TOL:
            cert = Certificate(_STALLED, j, tau1, t1_minus)
            return IterationTrace(variant, params, pq, steps, cert)
        if abs(tau1) > RUNAWAY_LIMIT:
            cert = Certificate(_CAP, j, tau1, t1_minus)
            return IterationTrace(variant, params, pq, steps, cert)

    cert = Certificate(_CAP, cap, tau1, t1_minus)
    return IterationTrace(variant, params, pq, steps, cert)


def iterate_plain(params: HardyParams, pq: Powers,
                  cap: int = DEFAULT_CAP) -> IterationTrace:
    """Run the unclamped bootstrap; crossing checks after every half-step."""
    return _iterate(params, pq, cap, _PLAIN)


def iterate_clamped(params: HardyParams, pq: Powers,
                    cap: int = DEFAULT_CAP) -> IterationTrace:
    """Run the bootstrap with the first cycle clamped by the seed exponents."""
    return _iterate(params, pq, cap, _CLAMPED)
