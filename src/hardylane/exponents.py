"""Exact exponent formulas for the Hardy operator -Delta + mu/|x|^2.

Everything downstream (integrability tests, the exponent bootstrap, the
region classifier) is driven by the two roots of

    mu - tau * (tau + N - 2) = 0,

written tau_plus(mu) >= tau_minus(mu).  They exist for mu >= mu_zero(N)
= -(N-2)^2/4 and coincide at that threshold.  This module computes them,
the critical source power p_star, and the handful of scalar boundary
expressions that cut the (p, q) plane into regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


class DomainValidationError(ValueError):
    """Raised when parameters fall outside the admissible domain."""


#: Relative half-width (in units of (N-2)^2) of the snap band around the
#: Hardy threshold.  Values inside the band are treated as exactly mu_zero,
#: because the classifier's strict/non-strict boundary rule flips there.
MU0_SNAP_REL = 1e-13


def mu_zero(N: int) -> float:
    """Hardy threshold -(N-2)^2/4 below which the roots turn complex."""
    _check_dimension(N)
    return -((N - 2) ** 2) / 4.0


def _check_dimension(N: int) -> None:
    if not isinstance(N, (int,)) or isinstance(N, bool):
        raise DomainValidationError(f"dimension N must be an integer, got {N!r}")
    if N < 3:
        raise DomainValidationError(f"dimension N must be >= 3, got {N}")


def snap_mu(N: int, mu: float) -> float:
    """Validate mu >= mu_zero(N) and snap values near the threshold onto it."""
    _check_dimension(N)
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainValidationError(f"mu must be finite, got {mu!r}")
    m0 = mu_zero(N)
    band = MU0_SNAP_REL * (N - 2) ** 2
    if mu < m0 - band:
        raise DomainValidationError(
            f"mu={mu} below the Hardy threshold mu_zero({N})={m0}")
    if mu <= m0 + band:
        return m0
    return mu


@dataclass(frozen=True)
class ExponentPair:
    """The two homogeneity exponents tau_-(mu) <= tau_+(mu)."""

    tau_plus: float
    tau_minus: float

    @property
    def is_double_root(self) -> bool:
        return self.tau_plus == self.tau_minus


def tau_pair(N: int, mu: float) -> ExponentPair:
    """Roots -(N-2)/2 +- sqrt(mu - mu_zero) of mu - tau(tau+N-2) = 0.

    Rejects mu below the threshold (complex roots); at the snapped
    threshold the pair degenerates to the double root -(N-2)/2.
    """
    mu = snap_mu(N, mu)
    half = (N - 2) / 2.0
    s = math.sqrt(mu - mu_zero(N))
    return ExponentPair(tau_plus=-half + s, tau_minus=-half - s)


def root_coefficient(N: int, mu: float, tau: float) -> float:
    """mu - tau(tau+N-2), evaluated in the factored form -(tau-t+)(tau-t-).

    The factored form vanishes *exactly* (in floating point) at the stored
    roots, which downstream code relies on to recognise kernel functions.
    Like tau_pair, it reads mu after snap_mu: inside the snap band the value
    is that of mu = mu_zero(N).
    """
    pair = tau_pair(N, mu)
    return -(tau - pair.tau_plus) * (tau - pair.tau_minus)


def p_star(N: int, mu: float) -> float:
    """Critical power 1 + 2/(-tau_plus(mu)), defined for mu in [mu_zero, 0)."""
    mu = snap_mu(N, mu)
    if mu >= 0.0:
        raise DomainValidationError(
            f"p_star requires mu in [mu_zero, 0); got mu={mu}")
    tp = tau_pair(N, mu).tau_plus
    return 1.0 + 2.0 / (-tp)


@dataclass(frozen=True)
class HardyParams:
    """Dimension and the two inverse-square coefficients of the system.

    Both coefficients are validated against the Hardy threshold and snapped
    onto it when within the tolerance band, so that downstream boundary
    rules are deterministic.
    """

    N: int
    mu1: float
    mu2: float

    def __post_init__(self):
        object.__setattr__(self, "mu1", snap_mu(self.N, self.mu1))
        object.__setattr__(self, "mu2", snap_mu(self.N, self.mu2))

    @property
    def mu_zero(self) -> float:
        return mu_zero(self.N)

    @property
    def tau1(self) -> ExponentPair:
        return tau_pair(self.N, self.mu1)

    @property
    def tau2(self) -> ExponentPair:
        return tau_pair(self.N, self.mu2)

    def swapped(self) -> "HardyParams":
        return HardyParams(self.N, self.mu2, self.mu1)


@dataclass(frozen=True)
class Powers:
    """The source powers (p, q) of the coupled system."""

    p: float
    q: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainValidationError(
                    f"power {name} must be finite and > 0, got {v!r}")

    def swapped(self) -> "Powers":
        return Powers(self.q, self.p)


@dataclass(frozen=True)
class BoundaryValues:
    """Scalar values of every region boundary expression at one point.

    e1, e2 are the critical-curve expressions
        e1 = tau_+(mu1)(pq-1) + 2p + 2,
        e2 = tau_+(mu2)(pq-1) + 2q + 2,
    and e3 = tau_+(mu1)(pq+1) + 2p + N is the one-bootstrap integrability
    margin.  The four threshold ratios are present only when the relevant
    tau_+ is negative (otherwise the quotient is meaningless and left None):

        q_upper =  (N + tau_+(mu2)) / (-tau_+(mu1))
        p_upper =  (N + tau_+(mu1)) / (-tau_+(mu2))
        q_lower =  (2 - tau_+(mu2)) / (-tau_+(mu1))
        p_lower =  (2 - tau_+(mu1)) / (-tau_+(mu2))
    """

    e1: float
    e2: float
    e3: float
    q_upper: Optional[float]
    p_upper: Optional[float]
    q_lower: Optional[float]
    p_lower: Optional[float]


def boundary_expressions(params: HardyParams, pq: Powers) -> BoundaryValues:
    """Evaluate every boundary expression used by the region classifier."""
    t1 = params.tau1.tau_plus
    t2 = params.tau2.tau_plus
    p, q = pq.p, pq.q
    N = params.N
    e1 = t1 * (p * q - 1.0) + 2.0 * p + 2.0
    e2 = t2 * (p * q - 1.0) + 2.0 * q + 2.0
    e3 = t1 * (p * q + 1.0) + 2.0 * p + N

    def ratio(num: float, tp: float) -> Optional[float]:
        return num / (-tp) if tp < 0.0 else None

    return BoundaryValues(
        e1=e1,
        e2=e2,
        e3=e3,
        q_upper=ratio(N + t2, t1),
        p_upper=ratio(N + t1, t2),
        q_lower=ratio(2.0 - t2, t1),
        p_lower=ratio(2.0 - t1, t2),
    )
