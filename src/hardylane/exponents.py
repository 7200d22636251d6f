"""Exact exponent formulas for the Hardy operator -Delta + mu/|x|^2.

Everything downstream (integrability tests, the exponent bootstrap, the
region classifier) is driven by the two roots of

    mu - tau * (tau + N - 2) = 0,

written tau_plus(mu) >= tau_minus(mu).  They exist for mu >= mu_zero(N)
= -(N-2)^2/4 and coincide at that threshold.  This module validates and
snaps mu, computes the roots and the critical source power p_star, and
gathers the boundary formulas of hardylane.boundaries at one point
(boundary_expressions).
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

from . import boundaries as bd
from ._frozen import frozen


class DomainValidationError(ValueError):
    """Raised when parameters fall outside the admissible domain."""


#: Relative half-width (in units of (N-2)^2) of the snap band around the
#: Hardy threshold.  Values inside the band are treated as exactly mu_zero,
#: because the classifier's strict/non-strict boundary rule flips there.
MU0_SNAP_REL = 1e-13


def mu_zero(N: int) -> float:
    """Hardy threshold -(N-2)^2/4 below which the roots turn complex."""
    _check_dimension(N)
    return _mu0(N)


def _mu0(N: int) -> float:
    return -((N - 2) ** 2) / 4.0


def _check_dimension(N: int) -> None:
    if not isinstance(N, (int,)) or isinstance(N, bool):
        raise DomainValidationError(f"dimension N must be an integer, got {N!r}")
    if N < 3:
        raise DomainValidationError(f"dimension N must be >= 3, got {N}")


def snap_mu(N: int, mu: float) -> float:
    """Validate N and mu >= mu_zero(N); snap values near the threshold onto it.

    This is the validating entry point; HardyParams and tau_pair share its
    rule through _snap.
    """
    _check_dimension(N)
    return _snap(N, mu)


def _constants(N: int) -> tuple[float, float, float]:
    """(N-2)/2, mu_zero(N) and the snap band's half-width, for a valid N."""
    return (N - 2) / 2.0, _mu0(N), MU0_SNAP_REL * (N - 2) ** 2


#: _constants(N) for the dimensions met in practice, computed once.
_CONSTANTS_BY_N = {N: _constants(N) for N in range(3, 65)}


def _checked_constants(N: int) -> tuple[float, float, float]:
    """_check_dimension(N), then _constants(N), from the table for an int N.

    3.0, True and np.int64(5) hash like 3, 1 and 5, so the type test comes
    first: they miss the table and fail the check, as before.
    """
    if type(N) is int:
        found = _CONSTANTS_BY_N.get(N)
        if found is not None:
            return found
    _check_dimension(N)
    return _constants(N)


def _snap(N: int, mu: float) -> float:
    """snap_mu for an N that has already been validated."""
    _, m0, band = _constants(N)
    return _snap_near(N, mu, m0, band)


def _coefficient(mu) -> float:
    """mu as a float; a str or a bool is not a coefficient."""
    if isinstance(mu, bool) or not isinstance(mu, numbers.Real):
        raise DomainValidationError(f"mu must be a real number, got {mu!r}")
    return float(mu)


def _snap_near(N: int, mu: float, m0: float, band: float) -> float:
    """The snap rule, given mu_zero(N) and the band from _constants(N)."""
    if type(mu) is not float:
        mu = _coefficient(mu)
    if not math.isfinite(mu):
        raise DomainValidationError(f"mu must be finite, got {mu!r}")
    if mu < m0 - band:
        raise DomainValidationError(
            f"mu={mu} below the Hardy threshold mu_zero({N})={m0}")
    if mu <= m0 + band:
        return m0
    return mu


@frozen
class ExponentPair:
    """The two homogeneity exponents tau_-(mu) <= tau_+(mu)."""

    tau_plus: float
    tau_minus: float

    @property
    def is_double_root(self) -> bool:
        return self.tau_plus == self.tau_minus

    def coefficient_at(self, tau: float) -> float:
        """mu - tau(tau+N-2) for the mu of this pair, in the factored form
        -(tau - tau_+)(tau - tau_-).

        The one place the factored form is written.  It vanishes *exactly*
        (in floating point) at the stored roots, which downstream code
        relies on to recognise kernel functions.
        """
        return -(tau - self.tau_plus) * (tau - self.tau_minus)


def tau_pair(N: int, mu: float) -> ExponentPair:
    """Roots -(N-2)/2 +- sqrt(mu - mu_zero) of mu - tau(tau+N-2) = 0.

    The validating entry point: checks N once, rejects mu below the
    threshold (complex roots) and snaps mu as snap_mu does; at the snapped
    threshold the pair degenerates to the double root -(N-2)/2.
    """
    _check_dimension(N)
    return _pair(N, _snap(N, mu))


def _pair(N: int, mu: float) -> ExponentPair:
    """tau_pair for a validated N and an already snapped mu."""
    half, m0, _ = _constants(N)
    return _roots(mu, half, m0)


def _roots(mu: float, half: float, m0: float) -> ExponentPair:
    """The root formula, given (N-2)/2 and mu_zero(N) from _constants(N)."""
    s = math.sqrt(mu - m0)
    return ExponentPair(-half + s, -half - s)  # (tau_plus, tau_minus)


def root_coefficient(N: int, mu: float, tau: float) -> float:
    """mu - tau(tau+N-2), evaluated in the factored form -(tau-t+)(tau-t-).

    tau_pair(N, mu).coefficient_at(tau): like tau_pair, it reads mu after
    snap_mu, so inside the snap band the value is that of mu = mu_zero(N).
    """
    return tau_pair(N, mu).coefficient_at(tau)


def p_star(N: int, mu: float) -> float:
    """Critical power 1 + 2/(-tau_plus(mu)), defined for mu in [mu_zero, 0)."""
    mu = snap_mu(N, mu)
    if mu >= 0.0:
        raise DomainValidationError(
            f"p_star requires mu in [mu_zero, 0); got mu={mu}")
    tp = _pair(N, mu).tau_plus
    return 1.0 + 2.0 / (-tp)


@frozen
class HardyParams:
    """Dimension and the two inverse-square coefficients of the system.

    Both coefficients are validated against the Hardy threshold and snapped
    onto it when within the tolerance band, so that downstream boundary
    rules are deterministic.  N is validated once, and both exponent pairs
    are computed once, here at construction: tau1 and tau2 return the
    stored pairs, equal bit for bit to tau_pair(N, mu1) and tau_pair(N, mu2).
    swapped() hands the stored pairs over, exchanged, without validating or
    computing anything again.  Only (N, mu1, mu2) are fields: equality,
    hashing and repr see nothing else, and dataclasses.replace builds a new
    instance that computes its own pairs.
    """

    N: int
    mu1: float
    mu2: float

    def __post_init__(self):
        state = self.__dict__
        N = state["N"]
        half, m0, band = _checked_constants(N)
        state["mu1"] = mu1 = _snap_near(N, state["mu1"], m0, band)
        state["mu2"] = mu2 = _snap_near(N, state["mu2"], m0, band)
        state["_tau1"] = _roots(mu1, half, m0)
        state["_tau2"] = _roots(mu2, half, m0)

    @property
    def mu_zero(self) -> float:
        return _mu0(self.N)

    @property
    def tau1(self) -> ExponentPair:
        return self._tau1

    @property
    def tau2(self) -> ExponentPair:
        return self._tau2

    def swapped(self) -> "HardyParams":
        """HardyParams(N, mu2, mu1), bit for bit, built from what is stored.

        Both mu are already snapped and _snap is idempotent on snapped
        values, so validating and computing the pairs again would give
        back the same values.
        """
        out = object.__new__(HardyParams)
        out.__dict__.update(N=self.N, mu1=self.mu2, mu2=self.mu1,
                            _tau1=self._tau2, _tau2=self._tau1)
        return out


@frozen
class Powers:
    """The source powers (p, q) of the coupled system."""

    p: float
    q: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q)):
            if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) and v > 0):
                raise DomainValidationError(
                    f"power {name} must be finite and > 0, got {v!r}")

    def swapped(self) -> "Powers":
        """Powers(q, p), without checking again values already checked."""
        out = object.__new__(Powers)
        out.__dict__.update(p=self.q, q=self.p)
        return out


@frozen
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
    return BoundaryValues(
        e1=bd.e1(t1, p, q),
        e2=bd.e1(t2, q, p),
        e3=bd.e3(N, t1, p, q),
        q_upper=bd.q_upper(N, t1, t2) if t1 < 0.0 else None,
        p_upper=bd.q_upper(N, t2, t1) if t2 < 0.0 else None,
        q_lower=bd.q_lower(t1, t2) if t1 < 0.0 else None,
        p_lower=bd.q_lower(t2, t1) if t2 < 0.0 else None,
    )
