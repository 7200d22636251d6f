"""Exact exponent formulas for the Hardy operator -Delta + mu/|x|^2.

Everything downstream (integrability tests, the exponent bootstrap, the
region classifier) is driven by the two roots of

    mu - tau * (tau + N - 2) = 0,

written tau_plus(mu) >= tau_minus(mu).  They exist for mu >= mu0 =
-(N-2)^2/4 and coincide at that threshold.  HardyParams is the one
validating entry point: it checks N, snaps both coefficients and computes
the four roots once, by the formulas of hardylane.boundaries, which owns
the threshold, the snap band and the roots.
"""

from __future__ import annotations

import math
import numbers

from . import boundaries as bd
from ._frozen import frozen


class DomainValidationError(ValueError):
    """Raised when parameters fall outside the admissible domain."""


#: Largest admissible dimension: up to 2**53 a float64 holds every integer,
#: so the classification kernel's float arithmetic on N matches the exact
#: integer formulas.
N_MAX = 2 ** 53


def _check_dimension(N: int) -> None:
    if not isinstance(N, (int,)) or isinstance(N, bool):
        raise DomainValidationError(f"dimension N must be an integer, got {N!r}")
    if N < 3:
        raise DomainValidationError(f"dimension N must be >= 3, got {N}")
    if N > N_MAX:
        raise DomainValidationError(f"dimension N must be <= 2**53, got {N}")


def _constants(N: int) -> tuple[float, float, float]:
    """(N-2)/2, mu0 and the snap band's half-width, for a valid N."""
    n2 = N - 2.0
    return n2 / 2.0, bd.mu0(n2), bd.snap_half_width(n2)


#: _constants(N) for the dimensions met in practice, computed once.
_CONSTANTS_BY_N = {N: _constants(N) for N in range(3, 65)}


def _checked_constants(N: int) -> tuple[float, float, float]:
    """_check_dimension(N), then _constants(N)."""
    _check_dimension(N)
    return _constants(N)


def _coefficient(mu) -> float:
    """mu as a float; a str or a bool is not a coefficient."""
    if isinstance(mu, bool) or not isinstance(mu, numbers.Real):
        raise DomainValidationError(f"mu must be a real number, got {mu!r}")
    return float(mu)


def _snap_near(N: int, mu: float, m0: float, band: float) -> float:
    """The snap rule, given mu0 and the band from _constants(N).

    Another type than float, NaN, an infinity or a value below the band
    raises; a value in the band snaps onto m0; any other float comes back
    unchanged.  HardyParams passes the common case by without calling it.
    """
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
class HardyParams:
    """Dimension and the two inverse-square coefficients of the system.

    Both coefficients are validated against the Hardy threshold and snapped
    onto it when within the tolerance band, so that downstream boundary
    rules are deterministic.  N is validated once, and the four exponent
    roots are computed once, here at construction, by boundaries.roots, and
    stored as one tuple of floats:

        roots = (tau_+(mu1), tau_-(mu1), tau_+(mu2), tau_-(mu2)).

    This tuple is the one form of the exponents: every consumer unpacks
    it, and the symbolic operator images take one coefficient's pair from
    it (roots[:2] for mu1, roots[2:] for mu2).  swapped() hands the stored
    roots over, reordered, without validating or computing anything again.
    Only (N, mu1, mu2) are fields: equality, hashing and repr see nothing
    else, and dataclasses.replace builds a new instance that computes its
    own roots.
    """

    N: int
    mu1: float
    mu2: float

    def __post_init__(self):
        state = self.__dict__
        N, mu1, mu2 = state["N"], state["mu1"], state["mu2"]
        # 3.0, True and np.int64(5) hash like 3, 1 and 5: the type test
        # keeps them out of the table, and the check refuses them
        found = _CONSTANTS_BY_N.get(N) if type(N) is int else None
        half, m0, band = found or _checked_constants(N)
        # an N from the table and two plain floats above the band and
        # finite pass every check unchanged
        if not (found and type(mu1) is float and type(mu2) is float
                and m0 + band < mu1 < math.inf
                and m0 + band < mu2 < math.inf):
            state["mu1"] = mu1 = _snap_near(N, mu1, m0, band)
            state["mu2"] = mu2 = _snap_near(N, mu2, m0, band)
        state["roots"] = (bd.roots(half, mu1, math.sqrt(mu1 - m0))
                          + bd.roots(half, mu2, math.sqrt(mu2 - m0)))

    def swapped(self) -> "HardyParams":
        """HardyParams(N, mu2, mu1), bit for bit, built from what is stored.

        Both mu are already snapped and the snap rule is idempotent on
        snapped values, so validating and computing the roots again would
        give back the same values.  The dict is filled item by item, in
        field order, as __init__ fills it.
        """
        src = self.__dict__
        tp1, tm1, tp2, tm2 = src["roots"]
        out = object.__new__(HardyParams)
        state = out.__dict__
        state["N"] = src["N"]
        state["mu1"] = src["mu2"]
        state["mu2"] = src["mu1"]
        state["roots"] = (tp2, tm2, tp1, tm1)
        return out


@frozen
class Powers:
    """The source powers (p, q) of the coupled system."""

    p: float
    q: float

    def __post_init__(self):
        state = self.__dict__
        p, q = state["p"], state["q"]
        # plain finite positive floats pass the checks below unchanged
        if (type(p) is float and type(q) is float
                and 0.0 < p < math.inf and 0.0 < q < math.inf):
            return
        for name, v in (("p", p), ("q", q)):
            if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) and v > 0):
                raise DomainValidationError(
                    f"power {name} must be finite and > 0, got {v!r}")

    def swapped(self) -> "Powers":
        """Powers(q, p)."""
        return Powers(self.q, self.p)
