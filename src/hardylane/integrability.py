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
from dataclasses import dataclass

from .exponents import DomainValidationError, tau_pair
from .radial import RadialFunction, evaluate

#: Increment-ratio threshold of the divergence detector (see
#: integral_behavior).  A tail ratio within this margin of 1 means the
#: truncated integrals keep growing by undiminished increments.
DIVERGENCE_RATIO_MARGIN = 5e-3


@dataclass(frozen=True)
class IntegrabilityVerdict:
    """Outcome of the weighted-L^1 test.

    critical_exponent_gap is the smallest margin sigma over the terms;
    integrable is equivalent to that margin being > 0.
    """

    integrable: bool
    critical_exponent_gap: float


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
    gap = min(t.tau + tp + N for t in f.terms)
    return IntegrabilityVerdict(integrable=gap > 0.0, critical_exponent_gap=gap)


def weighted_integral(N: int, mu: float, f: RadialFunction,
                      eps: float, r0: float = 1.0) -> float:
    """Numerical value of int_eps^r0 f(r) r^(tau_+(mu) + N - 1) dr.

    Computed by adaptive quadrature after the substitution r = e^-u, which
    removes the power singularity from the integrand; independent of the
    closed-form margin used by is_gamma_integrable.
    """
    # imported here: scipy.integrate is most of `import hardylane` otherwise
    from scipy.integrate import quad

    tp = tau_pair(N, mu).tau_plus
    if not (0.0 < eps < r0 <= 1.0):
        raise DomainValidationError(f"need 0 < eps < r0 <= 1, got ({eps}, {r0})")
    w = tp + N  # weight r^(w-1) dr becomes e^(-w u) du

    def integrand(u: float) -> float:
        r = math.exp(-u)
        return float(evaluate(f, r)) * math.exp(-w * u)

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
