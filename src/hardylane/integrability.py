"""Membership of radial power/log functions in L^1(B_r0, |x|^tau_+(mu) dx).

For f = c r^tau (-ln r)^k with c > 0 the weighted integral over a small ball
reduces to int_0^r0 c r^(tau + tau_+(mu) + N - 1) (-ln r)^k dr, which
converges at the origin iff the margin

    sigma = tau + tau_+(mu) + N

is strictly positive; the log factor never rescues sigma <= 0 (at sigma = 0
the integrand is ~ 1/r or (-ln r)/r, both divergent).  Divergence of a
nonnegative source in this weighted space is the nonexistence trigger used
throughout the classifier.
"""

from __future__ import annotations

import math

from ._frozen import frozen
from .exponents import DomainValidationError, tau_pair
from .radial import RadialFunction


@frozen
class IntegrabilityVerdict:
    """Outcome of the weighted-L^1 test.

    critical_exponent_gap is the smallest margin sigma over the terms;
    integrable is equivalent to that margin being > 0.
    """

    integrable: bool
    critical_exponent_gap: float


def power_verdict(N: int, tau: float, tp: float) -> IntegrabilityVerdict:
    """Verdict for r^tau against the weight |x|^tp, tp = tau_+(mu).

    The one place the margin sigma = tau + tau_+(mu) + N is written; a
    caller that already holds tau_+(mu) passes it, so nothing is derived
    again.  A non-finite tau is rejected, as RadialTerm rejects it.
    """
    if not math.isfinite(tau):
        raise DomainValidationError(f"exponent must be finite, got {tau}")
    gap = tau + tp + N
    return IntegrabilityVerdict(integrable=gap > 0.0, critical_exponent_gap=gap)


def is_gamma_integrable(N: int, mu: float, f: RadialFunction,
                        r0: float = 1.0) -> IntegrabilityVerdict:
    """Decide whether f belongs to L^1(B_r0, |x|^tau_+(mu) dx).

    The test is for nonnegative f only; mixed-sign term lists are rejected
    because the verdict is undefined for them.  Integrability near the
    origin does not depend on r0, which is validated but otherwise ignored.
    """
    tp = tau_pair(N, mu).tau_plus
    if not (0.0 < r0 <= 1.0):
        raise DomainValidationError(f"r0 must lie in (0, 1], got {r0}")
    if f.is_zero:
        return IntegrabilityVerdict(integrable=True, critical_exponent_gap=math.inf)
    if any(t.coeff < 0.0 for t in f.terms):
        raise DomainValidationError(
            "mixed-sign radial function: integrability verdict undefined")
    return min((power_verdict(N, t.tau, tp) for t in f.terms),
               key=lambda v: v.critical_exponent_gap)
