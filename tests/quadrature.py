"""Adaptive-quadrature cross-check of the closed-form weighted-L^1 margin.

hardylane.integrability decides integrability from the margin
sigma = tau + tau_+(mu) + N alone.  These helpers compute the truncated
weighted integrals numerically (scipy's adaptive quadrature, a test
dependency) and read convergence off their increments, so the tests can
check the closed form against an independent computation.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from hardylane.exponents import DomainValidationError
from hardylane.radial import RadialFunction
from oracles import pair_of, values

#: Increment-ratio threshold of the divergence detector (see
#: integral_behavior).  A tail ratio within this margin of 1 means the
#: truncated integrals keep growing by undiminished increments.
DIVERGENCE_RATIO_MARGIN = 5e-3


def weighted_integral(N: int, mu: float, f: RadialFunction,
                      eps: float, r0: float = 1.0) -> float:
    """Numerical value of int_eps^r0 f(r) r^(tau_+(mu) + N - 1) dr.

    Computed by adaptive quadrature after the substitution r = e^-u, which
    removes the power singularity from the integrand; independent of the
    closed-form margin of integrability.power_verdict.
    """
    tp = pair_of(N, mu)[0]
    if not (0.0 < eps < r0 <= 1.0):
        raise DomainValidationError(f"need 0 < eps < r0 <= 1, got ({eps}, {r0})")
    w = tp + N  # weight r^(w-1) dr becomes e^(-w u) du

    def integrand(u: float) -> float:
        r = math.exp(-u)
        return float(values(f, r)) * math.exp(-w * u)

    val, _ = quad(integrand, -math.log(r0), -math.log(eps),
                  epsabs=1e-12, epsrel=1e-10, limit=200)
    return val


def integral_behavior(N: int, mu: float, f: RadialFunction,
                      r0: float = 1.0,
                      epsilons=(1e-3, 1e-6, 1e-9)) -> tuple[str, list[float]]:
    """Classify the truncated-integral sequence as 'convergent'/'divergent'.

    Uses the increments I(eps_{k+1}) - I(eps_k): for a convergent integral
    they decay geometrically with the margin sigma, while at or beyond the
    threshold they stay level or grow.  The increment ratio cleanly
    separates log-divergence (ratio -> 1) from barely-convergent tails
    (ratio 10^(-3 sigma) < 1), which plain value comparison cannot.
    """
    vals = [weighted_integral(N, mu, f, e, r0) for e in epsilons]
    d1 = vals[1] - vals[0]
    d2 = vals[2] - vals[1]
    scale = max(abs(vals[-1]), 1e-300)
    if abs(d1) / scale < 1e-9 and abs(d2) / scale < 1e-9:
        return "convergent", vals
    if d1 > 0 and d2 / d1 >= 1.0 - DIVERGENCE_RATIO_MARGIN:
        return "divergent", vals
    return "convergent", vals
