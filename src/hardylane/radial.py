"""Closed-form action of -Delta + mu/|x|^2 on radial power/log functions.

The algebra spanned by r^tau and r^tau * (-ln r) is closed under the
operator: for radial f,

    L_mu (c r^tau)            = c * (mu - tau(tau+N-2)) * r^(tau-2)
    L_mu (c r^tau (-ln r))    = c * (mu - tau(tau+N-2)) * r^(tau-2) (-ln r)
                              + c * (2 tau + N - 2)     * r^(tau-2)

so a finite sum of such terms maps to another finite sum.  The prefactor
mu - tau(tau+N-2) is evaluated in the factored form -(tau - tau_+)(tau - tau_-)
so the homogeneous solutions r^(tau_+-) are annihilated exactly, not just to
round-off.  Construction verification evaluates these sums on log grids
(_term_sums).
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, Union

import numpy as np

from ._frozen import frozen
from .exponents import DomainValidationError

ArrayLike = Union[float, np.ndarray]

#: A merged coefficient that falls below this fraction of the summed
#: magnitudes of the coefficients merged into it is dropped: cancellation at
#: kernel exponents must produce the exact zero function for downstream
#: logic.  A term is never dropped for being small next to a term of another
#: exponent: the operator may annihilate the larger one and amplify the
#: smaller one by r^-2, so such a drop would make the algebra non-linear.
COEFF_DROP_REL = 1e-14


@frozen(order=True)
class RadialTerm:
    """One summand c * r^tau * (-ln r)^k with k in {0, 1}."""

    tau: float
    log_power: int
    coeff: float

    def __post_init__(self):
        if self.log_power not in (0, 1):
            raise DomainValidationError(
                f"log_power must be 0 or 1, got {self.log_power}")
        if not (math.isfinite(self.coeff) and self.coeff != 0.0):
            raise DomainValidationError(
                f"coefficient must be finite and nonzero, got {self.coeff}")
        if not math.isfinite(self.tau):
            raise DomainValidationError(f"exponent must be finite, got {self.tau}")


@frozen
class RadialFunction:
    """A finite sum of RadialTerms, kept sorted and merged by (tau, log_power).

    The empty tuple is the zero function.
    """

    terms: tuple

    @staticmethod
    def from_terms(terms: Iterable[RadialTerm]) -> "RadialFunction":
        merged: dict = {}
        for t in terms:
            key = (t.tau, t.log_power)
            c, size = merged.get(key, (0.0, 0.0))
            merged[key] = (c + t.coeff, size + abs(t.coeff))
        out = tuple(RadialTerm(tau=k[0], log_power=k[1], coeff=c)
                    for k, (c, size) in sorted(merged.items())
                    if abs(c) > COEFF_DROP_REL * size)
        return RadialFunction(terms=out)

    @staticmethod
    def zero() -> "RadialFunction":
        return RadialFunction(terms=())

    @staticmethod
    def monomial(coeff: float, tau: float, log_power: int = 0) -> "RadialFunction":
        if coeff == 0.0:
            return RadialFunction.zero()
        # a single nonzero term: what from_terms would return, without merging
        return RadialFunction(terms=(RadialTerm(tau, log_power, float(coeff)),))

    @staticmethod
    def power_difference(a: float, b: float) -> "RadialFunction":
        """r^a - r^b: monomial(1.0, a) - monomial(1.0, b), without the merge.

        The two terms come in from_terms order (ascending exponent), and
        equal exponents (0.0 and -0.0 among them) give the zero function.
        """
        # both terms first, so a non-finite exponent raises as in monomial
        plus, minus = RadialTerm(a, 0, 1.0), RadialTerm(b, 0, -1.0)
        if a == b:
            return RadialFunction.zero()
        return RadialFunction(terms=(plus, minus) if a < b else (minus, plus))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if self.is_zero:
            return "RadialFunction(0)"
        bits = []
        for t in self.terms:
            s = f"{t.coeff:g}*r^{t.tau:g}"
            if t.log_power:
                s += "*(-ln r)"
            bits.append(s)
        return "RadialFunction(" + " + ".join(bits) + ")"


def _as_radii(r: ArrayLike) -> np.ndarray:
    """r as a float array, checked to be nonempty and positive."""
    arr = np.asarray(r, dtype=float)
    # min() is NaN when any radius is NaN, which fails the comparison too
    if arr.size == 0 or not arr.min() > 0.0:
        raise DomainValidationError("radii must be positive")
    return arr


def _term_sums(f: RadialFunction, arr: np.ndarray, with_magnitude: bool):
    """sum(c * r^tau * (-ln r)^k) over f's terms at the radii arr, and with
    with_magnitude the same sum over |c| (else None).

    Each r^tau is computed once and serves both sums; -ln r is computed
    only if a log term exists.  The bits are those of summing from 0.0
    and adding each term c * r^tau, times -ln r for a log term, in order
    (a lone -0.0 term sums to +0.0), with fewer numpy calls:

    - a sum starts from its first term, not from np.zeros(arr.shape) plus
      an add.  0.0 + x is x except at x = -0.0, which a first term can be
      only with a negative coefficient or a log factor (-ln 1 = -0.0, and
      0 * -ln r for r > 1), so only those first terms get + 0.0;
    - a coefficient of exactly +-1 multiplies nothing: 1 * x is x, and
      s + (-1 * x) is s - x, also with a log factor, since -1 * x * y is
      -(x * y).

    The zero function sums to zeros.  The two sums never share memory with
    each other or with arr.
    """
    out = mag = neg_ln = None
    for t in f.terms:
        pw = arr ** t.tau
        if t.log_power and neg_ln is None:
            neg_ln = -np.log(arr)
        log = neg_ln if t.log_power else None
        out = _add_term(out, t.coeff, pw, log)
        if with_magnitude:
            mag = _add_term(mag, abs(t.coeff), pw, log)
            if mag is out:  # a first term 1 * r^tau starts both sums
                mag = mag.copy()
    if out is None:
        out = np.zeros(arr.shape)
        mag = np.zeros(arr.shape) if with_magnitude else None
    return out, mag


def _add_term(total, coeff: float, pw: np.ndarray, neg_ln):
    """total + coeff * pw, times neg_ln unless it is None, added in place;
    total None starts _term_sums' sum with this term.

    pw may be returned as the sum, and is not written otherwise.
    """
    unit = abs(coeff) == 1.0
    minus = unit and coeff < 0.0
    if unit:
        term = pw if neg_ln is None else pw * neg_ln
    else:
        term = coeff * pw
        if neg_ln is not None:
            term *= neg_ln
    if total is None:
        if minus:
            return 0.0 - term
        if coeff < 0.0 or neg_ln is not None:
            term += 0.0
        return term
    if minus:
        total -= term
    else:
        total += term
    return total


def _hardy_image(N: int, tau_plus: float, tau_minus: float,
                 f: RadialFunction) -> RadialFunction:
    """Exact image of f under -Delta + mu/|x|^2, term by term, for a
    validated N and the roots tau_+ >= tau_- of mu.

    Each term's prefactor mu - tau(tau+N-2) is written here, and only
    here, in the factored form -(tau - tau_+)(tau - tau_-), which vanishes
    exactly (in floating point) at the stored roots.  Zero output
    coefficients are dropped, so applying the operator to r^(tau_+-) (or
    to r^(tau_-) * (-ln r) at the double root) returns the exact zero
    function.  An image of one term or none is returned without the
    merge, as monomial does: from_terms keeps a lone nonzero coefficient
    as it is (0.0 + c is c).  Each recipe's leading power is a kernel
    function, so its images have one term.
    """
    out = []
    for t in f.terms:
        c_main = t.coeff * (-(t.tau - tau_plus) * (t.tau - tau_minus))
        if t.log_power == 0:
            if c_main != 0.0:
                out.append(RadialTerm(t.tau - 2.0, 0, c_main))
        else:
            if c_main != 0.0:
                out.append(RadialTerm(t.tau - 2.0, 1, c_main))
            c_extra = t.coeff * (2.0 * t.tau + (N - 2))
            if c_extra != 0.0:
                out.append(RadialTerm(t.tau - 2.0, 0, c_extra))
    if len(out) < 2:
        return RadialFunction(terms=tuple(out))
    return RadialFunction.from_terms(out)


@frozen
class RadialGrid:
    """Logarithmically spaced radii on [r_min, r_max], origin excluded.

    The radii, np.geomspace(r_min, r_max, count), are made once per grid,
    checked once to be positive (_as_radii), so verification evaluates on
    them without checking again, and kept read-only: writing to them
    raises ValueError, also on a copied or unpickled grid.  Take a copy to
    modify them.  They sit in the instance dict beside the three fields,
    as HardyParams keeps its roots: equality, hashing and repr see only
    the fields, and equal grids hold equal radii, not one shared array.
    """

    r_min: float
    r_max: float
    count: int

    def __post_init__(self):
        # inf passes 0 < r_min < r_max, and geomspace would give inf radii
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise DomainValidationError(
                f"need 0 < r_min < r_max, both finite, got "
                f"[{self.r_min}, {self.r_max}]")
        # np.geomspace rejects a float count, and takes True for 1
        if (not isinstance(self.count, numbers.Integral)
                or isinstance(self.count, bool)):
            raise DomainValidationError(
                f"count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise DomainValidationError(f"count must be >= 2, got {self.count}")
        radii = _as_radii(np.geomspace(self.r_min, self.r_max, self.count))
        radii.flags.writeable = False
        self.__dict__["radii"] = radii

    def __setstate__(self, state):
        # deepcopy and unpickling make a writeable copy of the radii
        self.__dict__.update(state)
        self.radii.flags.writeable = False


def default_grid(count: int = 512, r_min: float = 1e-6) -> RadialGrid:
    """The standard verification grid [r_min, 1 - 1e-3] on the unit ball."""
    return RadialGrid(r_min=r_min, r_max=1.0 - 1e-3, count=count)
