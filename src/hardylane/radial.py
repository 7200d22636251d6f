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

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .exponents import DomainValidationError, snap_mu, tau_pair

ArrayLike = Union[float, np.ndarray]

#: Terms whose coefficient falls below this fraction of the largest
#: coefficient after merging are dropped: cancellation at kernel exponents
#: must produce the exact zero function for downstream logic.
COEFF_DROP_REL = 1e-14


class PositivityError(ValueError):
    """A fractional power was requested for a non-positive base."""


@dataclass(frozen=True, order=True)
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


@dataclass(frozen=True)
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
            merged[key] = merged.get(key, 0.0) + t.coeff
        if merged:
            top = max(abs(c) for c in merged.values())
            cutoff = COEFF_DROP_REL * top
            merged = {k: c for k, c in merged.items() if abs(c) > cutoff}
        out = tuple(RadialTerm(tau=k[0], log_power=k[1], coeff=c)
                    for k, c in sorted(merged.items()))
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
    if arr.size == 0 or not np.all(arr > 0.0):
        raise DomainValidationError("radii must be positive")
    return arr


def evaluate(f: RadialFunction, r: ArrayLike) -> ArrayLike:
    """Pointwise value sum(c * r^tau * (-ln r)^k); r may be a scalar or array.

    For r >= 1 the factor (-ln r) is taken as-is and may be <= 0.
    """
    arr = _as_radii(r)
    out = np.zeros_like(arr)
    if not f.is_zero:
        ln = np.log(arr)
        for t in f.terms:
            term = t.coeff * arr ** t.tau
            if t.log_power:
                term = term * (-ln)
            out = out + term
    return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out


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
    exact zero function.
    """
    pair = tau_pair(N, mu)
    out = []
    for t in f.terms:
        c_main = t.coeff * (-(t.tau - pair.tau_plus) * (t.tau - pair.tau_minus))
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


def hardy_fd_oracle(N: int, mu: float, f: RadialFunction, r: float,
                    h: float = 1e-4) -> float:
    """Finite-difference value of -(f'' + (N-1)/r f') + mu/r^2 f at r.

    Independent cross-check for apply_hardy.  Both derivatives come from the
    symmetric 5-point stencil {r-2h, r-h, r, r+h, r+2h}: the first derivative
    uses the 4th-order combination, the second derivative the wide central
    difference over +-2h, so the overall truncation error is O(h^2) and
    halving h divides the deviation by ~4.
    """
    mu = snap_mu(N, mu)
    r = float(r)
    h = float(h)
    if not (0.0 < h < r / 4.0):
        raise DomainValidationError(
            f"step h={h} must satisfy 0 < h < r/4 (r={r})")
    fm2, fm1, f0, fp1, fp2 = (evaluate(f, x) for x in
                              (r - 2 * h, r - h, r, r + h, r + 2 * h))
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (fp2 - 2.0 * f0 + fm2) / (4.0 * h * h)
    return -(d2 + (N - 1) / r * d1) + mu / (r * r) * f0


@dataclass(frozen=True)
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
        return np.geomspace(self.r_min, self.r_max, self.count)


def default_grid(r_domain: float = 1.0, count: int = 512,
                 r_min: float = 1e-6) -> RadialGrid:
    """The standard verification grid [r_min, r_domain*(1 - 1e-3)]."""
    return RadialGrid(r_min=r_min, r_max=r_domain * (1.0 - 1e-3), count=count)
