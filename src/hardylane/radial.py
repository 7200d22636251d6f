"""Closed-form action of -Delta + mu/|x|^2 on radial power/log functions.

The algebra spanned by r^tau and r^tau * (-ln r) is closed under the
operator: for radial f,

    L_mu (c r^tau)            = c * (mu - tau(tau+N-2)) * r^(tau-2)
    L_mu (c r^tau (-ln r))    = c * (mu - tau(tau+N-2)) * r^(tau-2) (-ln r)
                              + c * (2 tau + N - 2)     * r^(tau-2)

so a finite sum of such terms maps to another finite sum.  The prefactor
mu - tau(tau+N-2) is evaluated in the factored form -(tau - tau_+)(tau - tau_-)
so the homogeneous solutions r^(tau_+-) are annihilated exactly, not just to
round-off.  A finite-difference evaluation of the same operator serves as an
independent cross-check.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Tuple, Union

import numpy as np

from ._frozen import frozen
from .exponents import (DomainValidationError, ExponentPair, snap_mu,
                        tau_pair)

ArrayLike = Union[float, np.ndarray]

#: A merged coefficient that falls below this fraction of the summed
#: magnitudes of the coefficients merged into it is dropped: cancellation at
#: kernel exponents must produce the exact zero function for downstream
#: logic.  A term is never dropped for being small next to a term of another
#: exponent: the operator may annihilate the larger one and amplify the
#: smaller one by r^-2, so such a drop would make the algebra non-linear.
COEFF_DROP_REL = 1e-14


class PositivityError(ValueError):
    """A fractional power was requested for a non-positive base."""


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

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        return RadialFunction.from_terms(self.terms + other.terms)

    def __sub__(self, other: "RadialFunction") -> "RadialFunction":
        return self + scale(other, -1.0)

    def __rmul__(self, t: float) -> "RadialFunction":
        return scale(self, t)

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
    arr = np.asarray(r, dtype=float)
    # min() is NaN when any radius is NaN, which fails the comparison too
    if arr.size == 0 or not arr.min() > 0.0:
        raise DomainValidationError("radii must be positive")
    return arr


def _term_sums(f: RadialFunction, arr: np.ndarray, with_magnitude: bool):
    """sum(c * r^tau * (-ln r)^k) over f's terms at the radii arr, and with
    with_magnitude the same sum over |c| (else None).

    Each r^tau is computed once and serves both sums; -ln r is computed
    only if a log term exists.  Both sums start from 0.0 and add the terms
    in order, so a lone -0.0 term sums to +0.0.  arr is float64, so
    np.zeros(arr.shape) is np.zeros_like(arr) without its Python overhead.
    """
    out = np.zeros(arr.shape)
    mag = np.zeros(arr.shape) if with_magnitude else None
    neg_ln = None
    for t in f.terms:
        pw = arr ** t.tau
        term = t.coeff * pw
        if t.log_power:
            if neg_ln is None:
                neg_ln = -np.log(arr)
            term *= neg_ln
        out += term
        if with_magnitude:
            term = abs(t.coeff) * pw
            if t.log_power:
                term *= neg_ln
            mag += term
    return out, mag


def evaluate(f: RadialFunction, r: ArrayLike) -> ArrayLike:
    """Pointwise value sum(c * r^tau * (-ln r)^k); r may be a scalar or array.

    For r >= 1 the factor (-ln r) is taken as-is and may be <= 0.  Scalar
    and 0-d r return a float, any other shape an array of that shape.
    """
    arr = _as_radii(r)
    out, _ = _term_sums(f, arr, False)
    return float(out) if arr.ndim == 0 else out


def evaluate_with_magnitude(f: RadialFunction, r: ArrayLike
                            ) -> Tuple[ArrayLike, ArrayLike]:
    """evaluate(f, r) together with the same sum over |c|.

    The second value is the scale a term-by-term cancellation is measured
    against; both come from one power r^tau per term and have evaluate's
    bits, so the magnitude equals evaluate of f with every coefficient
    replaced by its absolute value.
    """
    arr = _as_radii(r)
    out, mag = _term_sums(f, arr, True)
    if arr.ndim == 0:
        return float(out), float(mag)
    return out, mag


def scale(f: RadialFunction, t: float) -> RadialFunction:
    """Multiply every coefficient by t."""
    if not math.isfinite(t):
        raise DomainValidationError(f"scale factor must be finite, got {t}")
    if t == 0.0:
        return RadialFunction.zero()
    scaled = []
    for term in f.terms:
        c = term.coeff * t
        if c != 0.0:  # guard against underflow to zero
            scaled.append(RadialTerm(term.tau, term.log_power, c))
    return RadialFunction.from_terms(scaled)


def pow_eval(f: RadialFunction, s: float, r: ArrayLike) -> ArrayLike:
    """evaluate(f, r) ** s, rejecting negative bases for non-integer s.

    A negative base signals that the candidate function is not positive at
    r; callers treat that as a verification failure, not a crash.
    """
    base = evaluate(f, r)
    arr = np.asarray(base, dtype=float)
    if float(s) != round(float(s)) and np.any(arr < 0.0):
        worst = float(np.min(arr))
        raise PositivityError(
            f"negative base {worst:g} under fractional power {s}")
    out = np.power(arr, s)
    return float(out) if np.ndim(base) == 0 else out


def apply_hardy(N: int, mu: float, f: RadialFunction) -> RadialFunction:
    """Exact image of f under -Delta + mu/|x|^2, term by term.

    Zero output coefficients are dropped, so applying the operator to
    r^(tau_+-) (or to r^(tau_-) * (-ln r) at the double root) returns the
    exact zero function.  This is the validating entry point: a caller
    that already holds tau_pair(N, mu) (HardyParams stores both pairs)
    calls _hardy_image with it.
    """
    return _hardy_image(N, tau_pair(N, mu), f)


def _hardy_image(N: int, pair: ExponentPair, f: RadialFunction
                 ) -> RadialFunction:
    """apply_hardy for a validated N, given the exponent pair of mu."""
    out = []
    for t in f.terms:
        c_main = t.coeff * pair.coefficient_at(t.tau)
        if t.log_power == 0:
            if c_main != 0.0:
                out.append(RadialTerm(t.tau - 2.0, 0, c_main))
        else:
            if c_main != 0.0:
                out.append(RadialTerm(t.tau - 2.0, 1, c_main))
            c_extra = t.coeff * (2.0 * t.tau + (N - 2))
            if c_extra != 0.0:
                out.append(RadialTerm(t.tau - 2.0, 0, c_extra))
    return RadialFunction.from_terms(out)


def hardy_fd_oracle(N: int, mu: float, f: RadialFunction, r: ArrayLike,
                    h: ArrayLike = 1e-4) -> ArrayLike:
    """Finite-difference value of -(f'' + (N-1)/r f') + mu/r^2 f at r.

    Independent cross-check for apply_hardy: f is differentiated
    numerically through its values, never through its symbolic image.
    Both derivatives come from the symmetric 5-point stencil
    {r-2h, r-h, r, r+h, r+2h}: the first derivative uses the 4th-order
    combination, the second derivative the wide central difference over
    +-2h, so the overall truncation error is O(h^2) and halving h divides
    the deviation by ~4.

    r and h may be scalars or arrays; they broadcast together, every
    element must satisfy 0 < h < r/4, and the whole stencil is one
    evaluation.  Each element gets the same arithmetic as a scalar call,
    and scalar r and h return a float.  This validates N, mu, r and h,
    then applies _fd_hardy to the stencil of _fd_stencil; a caller that
    checks several functions at the same radii builds the stencil once.
    """
    mu = snap_mu(N, mu)
    stencil = _fd_stencil(r, h)
    out = _fd_hardy(N, mu, f, stencil)
    return float(out) if out.ndim == 0 else out


_FD_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _fd_stencil(r: ArrayLike, h: ArrayLike
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, h, stencil): r and h broadcast together and checked for
    0 < h < r/4, and the stencil's rows r + k h for k = -2..2.

    The check keeps every stencil radius above r/2 > 0, so the stencil is
    evaluated without checking its radii again.
    """
    r, h = np.asarray(r, dtype=float), np.asarray(h, dtype=float)
    if r.shape != h.shape:
        r, h = np.broadcast_arrays(r, h)
    good = (0.0 < h) & (h < r / 4.0)
    if not good.all():
        i = int(good.argmin())
        raise DomainValidationError(
            f"step h={h.flat[i]} must satisfy 0 < h < r/4 (r={r.flat[i]})")
    # one row of radii per offset; r + (-2.0 * h) is r - 2 * h exactly
    stencil = r + np.multiply.outer(_FD_OFFSETS, h)
    return r, h, stencil


def _fd_hardy(N: int, mu: float, f: RadialFunction,
              stencil: Tuple[np.ndarray, np.ndarray, np.ndarray]
              ) -> np.ndarray:
    """The finite-difference operator on a stencil from _fd_stencil, for a
    validated N and a snapped mu.

    The one place the 5-point combinations are written.
    """
    r, h, points = stencil
    fm2, fm1, f0, fp1, fp2 = _term_sums(f, points, False)[0]
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (fp2 - 2.0 * f0 + fm2) / (4.0 * h * h)
    return -(d2 + (N - 1) / r * d1) + mu / (r * r) * f0


@frozen
class RadialGrid:
    """Logarithmically spaced radii on [r_min, r_max], origin excluded."""

    r_min: float
    r_max: float
    count: int

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise DomainValidationError(
                f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.count < 2:
            raise DomainValidationError(f"count must be >= 2, got {self.count}")

    @property
    def radii(self) -> np.ndarray:
        """np.geomspace(r_min, r_max, count), as cached by log_radii.

        The array is shared by every grid with the same bounds and count
        and is read-only: writing to it raises ValueError.  Take a copy to
        modify it.
        """
        return log_radii(self.r_min, self.r_max, self.count)


# typed: np.geomspace rejects count=512.0, so it must not hit the entry of 512
@functools.lru_cache(maxsize=8, typed=True)
def log_radii(r_min: float, r_max: float, count: int) -> np.ndarray:
    """np.geomspace(r_min, r_max, count) as a shared, read-only array.

    The few most recent grids are kept: a verification reads the same
    radii several times, while a domain search walks through many.  The
    radii are checked here, once per grid, as evaluate checks its radii
    (DomainValidationError unless all are positive), so verification
    evaluates on them without checking again.
    """
    radii = np.geomspace(r_min, r_max, count)
    _as_radii(radii)
    radii.flags.writeable = False
    return radii


def default_grid(r_domain: float = 1.0, count: int = 512,
                 r_min: float = 1e-6) -> RadialGrid:
    """The standard verification grid [r_min, r_domain*(1 - 1e-3)]."""
    return RadialGrid(r_min=r_min, r_max=r_domain * (1.0 - 1e-3), count=count)
