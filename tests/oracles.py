"""Test oracles: independent statements of what the package computes, and
the bare-(N, mu) forms of its radial calculus.

mu_zero is the Hardy threshold -(N-2)^2/4, from the exact integer square.
hardy_fd_oracle evaluates -Delta + mu/|x|^2 by finite differences from a
function's values alone, the cross-check of the symbolic image.
claim1_check and crossing_step_bound read a bootstrap trace against the
affine law of its full cycle.  e3 is the one-bootstrap integrability
margin, which equals e1 at the threshold.  decimal_roots is the Hardy
roots' high-precision value.  case_for_region names the construction
that realizes an existence citation.  svg_cells writes a region plot's
grid rects one cell at a time.  pair_of, hardy_image and values
are the roots (tau_+, tau_-), the symbolic image and the term sums of a
radial function for a coefficient given on its own.
"""

from __future__ import annotations

import decimal
import math
from typing import List

import numpy as np

from hardylane import boundaries as bd
from hardylane.constructions import LINE_TOL
from hardylane.exponents import DomainValidationError, HardyParams, Powers
from hardylane.iteration import IterationTrace
from hardylane.plotting import _COLORS, _MARGIN_L, _MARGIN_T, _PLOT_H, _PLOT_W
from hardylane.radial import (ArrayLike, RadialFunction, _fd_hardy,
                              _fd_stencil, _hardy_image, _term_sums)


def mu_zero(N: int) -> float:
    """Hardy threshold -(N-2)^2/4 of an int N, rounded once from the exact
    square: for N up to 2**53 the same float boundaries.mu0 gives."""
    return -(N - 2) ** 2 / 4


def decimal_roots(N: int, mu: float) -> tuple[decimal.Decimal,
                                               decimal.Decimal]:
    """(tau_+, tau_-) of the float mu, to 400 digits, with the exact
    threshold mu0 = -(N-2)^2/4: -h +- sqrt(mu + h^2), h = (N-2)/2.

    At 400 digits the sum -h + s keeps its accuracy down to |mu| near the
    smallest subnormal (at 60 it cancels from |mu| below about 1e-228).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        h = decimal.Decimal(N - 2) / 2
        s = (decimal.Decimal(mu) + h * h).sqrt()
        return -h + s, -h - s


def ulps_from(x: float, exact: decimal.Decimal) -> float:
    """|x - exact| in units of the last place of exact rounded to a float."""
    ulp = decimal.Decimal(math.ulp(float(exact)))
    return float(abs(decimal.Decimal(x) - exact) / ulp)


def e3(N, t1, p, q):
    """One-bootstrap integrability margin t1 (pq + 1) + 2p + N."""
    return t1 * (p * q + 1.0) + 2.0 * p + N


def pair_of(N: int, mu: float) -> tuple[float, float]:
    """(tau_+, tau_-) of a lone coefficient mu, as HardyParams stores them."""
    return HardyParams(N, mu, mu).roots[:2]


def values(f: RadialFunction, r: ArrayLike) -> np.ndarray:
    """The values of f at radii r, as verification sums its terms."""
    return _term_sums(f, np.asarray(r, dtype=float), False)[0]


def hardy_image(N: int, mu: float, f: RadialFunction) -> RadialFunction:
    """The symbolic image of f under -Delta + mu/|x|^2."""
    return _hardy_image(N, *pair_of(N, mu), f)


def hardy_fd_oracle(N: int, mu: float, f: RadialFunction, r: ArrayLike,
                    h: ArrayLike = 1e-4) -> ArrayLike:
    """Finite-difference value of -(f'' + (N-1)/r f') + mu/r^2 f at r.

    Independent cross-check for the symbolic image: f is differentiated
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
    then applies _fd_hardy to f's values on the stencil of _fd_stencil; a
    caller that checks several functions at the same radii builds the
    stencil once and stacks their values for one _fd_hardy pass.
    """
    mu = HardyParams(N, mu, mu).mu1
    geometry, points = _fd_stencil(r, h)
    out = _fd_hardy(N, mu, _term_sums(f, points, False)[0], geometry)
    return float(out) if out.ndim == 0 else out


def _usable_tau1(trace: IterationTrace) -> List[float]:
    """tau1 values after any clamping, excluding carried (uncomputed) entries."""
    start = 0
    if any(s.tau1_clamped or s.tau2_clamped for s in trace.steps):
        start = 1  # differences must not straddle the clamped first cycle
    vals = [s.tau1 for s in trace.steps[start:] if not s.tau1_carried]
    return vals


def claim1_check(trace: IterationTrace, pq: Powers,
                 rel_tol: float = 1e-9) -> bool:
    """Verify the geometric law s_{j+1} = pq * s_j of successive differences.

    s_j = tau1^(j) - tau1^(j-1).  Requires at least three usable tau1 values
    (so at least two consecutive differences) outside any clamped cycle.
    A single perturbed entry breaks the relation, so this doubles as a
    trace-corruption detector.
    """
    vals = _usable_tau1(trace)
    if len(vals) < 3:
        raise DomainValidationError(
            f"need >= 3 usable steps for the geometric-law check, "
            f"have {len(vals)}")
    ratio = pq.p * pq.q
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    for s_prev, s_next in zip(diffs, diffs[1:]):
        if abs(s_next - ratio * s_prev) > rel_tol * max(1.0, abs(s_prev)):
            return False
    return True


def affine_fixed_point(pq: Powers) -> float:
    """Fixed point (2p+2)/(1-pq) of the full-cycle tau1 map (pq != 1)."""
    denom = 1.0 - pq.p * pq.q
    if denom == 0.0:
        raise DomainValidationError("pq = 1 has no affine fixed point")
    return (2.0 * pq.p + 2.0) / denom


def crossing_step_bound(params: HardyParams, pq: Powers) -> int:
    """Upper bound on full cycles until tau1 crosses tau_-(mu1).

    Valid when pq > 1 and the first cycle is strictly decreasing (the
    supercritical side).  From tau1^(j) - fix = (pq)^j (tau1^(0) - fix) the
    crossing needs (pq)^j >= (tau_- - fix)/(tau1^(0) - fix), both factors
    negative, so

        j* = ceil( log((tau_- - fix)/(tau_+ - fix)) / log(pq) ).
    """
    ratio = pq.p * pq.q
    if ratio <= 1.0:
        raise DomainValidationError("step bound requires pq > 1")
    fix = affine_fixed_point(pq)
    top, bottom, _, _ = params.roots
    if top >= fix:
        raise DomainValidationError(
            "step bound requires a decreasing iteration (tau_+ < fixed point)")
    arg = (bottom - fix) / (top - fix)
    if arg <= 1.0:
        return 1
    return math.ceil(math.log(arg) / math.log(ratio))


def case_for_region(params: HardyParams, pq: Powers, citation: str) -> str:
    """Map an existence citation to the construction case that realizes it."""
    table = {"T3.i.case1": "C1", "T3.i.case2": "C2", "T3.i.case3": "C3",
             "T3.ii.a1": "C4", "T3.ii.b1": "C8", "T3.ii.b2": "C7"}
    if citation in table:
        return table[citation]
    if citation == "T3.ii.a2":
        t1, _, t2, _ = params.roots
        if t1 < 0.0:
            qlo = bd.q_lower(t1, t2)
            if abs(pq.q - qlo) <= LINE_TOL * max(1.0, qlo):
                return "C6"
        return "C5"
    raise DomainValidationError(f"no construction for citation {citation!r}")


def svg_cells(codes: np.ndarray, res: int) -> str:
    """The <rect> lines of an SVG region plot's grid cells, in row-major
    order (row i at the height of q row i, counted from the bottom), one
    f-string per cell."""
    cell_w, cell_h = _PLOT_W / res, _PLOT_H / res
    lines = []
    for i in range(res):
        for j in range(res):
            lines.append(f'<rect x="{_MARGIN_L + j * cell_w:.6f}" '
                         f'y="{_MARGIN_T + (res - 1 - i) * cell_h:.6f}" '
                         f'width="{cell_w:.6f}" height="{cell_h:.6f}" '
                         f'fill="{_COLORS[int(codes[i, j])]}"/>\n')
    return "".join(lines)
