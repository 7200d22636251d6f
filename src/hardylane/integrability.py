"""Membership of radial power sources in L^1(B_r0, |x|^tau_+(mu) dx).

For f = c r^tau with c > 0 the weighted integral over a small ball reduces
to int_0^r0 c r^(tau + tau_+(mu) + N - 1) dr, which converges at the origin
iff the margin

    sigma = tau + tau_+(mu) + N

is strictly positive (at sigma = 0 the integrand is ~ 1/r, divergent).
Divergence of a nonnegative source in this weighted space is the
nonexistence trigger behind every integrability witness of the classifier.
"""

from __future__ import annotations

import math

from ._frozen import frozen
from .exponents import DomainValidationError


@frozen
class IntegrabilityVerdict:
    """Outcome of the weighted-L^1 test.

    critical_exponent_gap is the margin sigma.  From power_verdict,
    integrable is equivalent to sigma > 0.  In a nonexistence witness it
    is always False: a witness on a closed edge (q = q_upper, or e1 = 0 at
    the threshold) may carry a positive sigma of rounding noise, up to
    regions._WITNESS_EDGE_TOL, and keeps that signed sigma, but the edge
    itself is not integrable.
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
    return IntegrabilityVerdict(gap > 0.0, gap)
