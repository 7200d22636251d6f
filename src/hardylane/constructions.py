"""Explicit radial supersolution candidates and their grid verification.

Eight construction recipes (C1..C8) instantiate the candidate pairs used in
the existence regions.  Writing t1 = tau_+(mu1), t2 = tau_+(mu2):

  regime A (t1 < 0 <= t2):
    C1  strip q in (2/(-t1), (N+t2)/(-t1)), e1 > 0:
        u = r^t1 - r^((t1 q+2)p+2),  v = r^(t1 q+2)
    C2  q < 2/(-t1):
        u = r^t1 - r^(t2 p+2),       v = r^t2 - r^(t1 q+2)
    C3  q = 2/(-t1): C6's formulas at t2 = 0 (u = r^t1 - r, v = -ln r)
  regime B (t1, t2 < 0), with qlo = (2-t2)/(-t1), plo = (2-t1)/(-t2):
    C4  strip q in (qlo, (N+t2)/(-t1)), e1 > 0: same formulas as C1
    C5  q < qlo, p < plo: same formulas as C2
    C6  q = qlo, p < plo, with eps0 = min(1, (t2 p+2-t1)/2):
        u = r^t1 - r^(t2 p+2-eps0),  v = r^t2 (-ln r)
    C7  p = plo, q < qlo: C6 mirrored
    C8  p in (plo, (N+t1)/(-t2)), e2 > 0: C1 mirrored

Each pair is written once: _single_power_pair (C1, C4, C8), _two_term_pair
(C2, C5), _log_pair (C3, C6, C7).  A mirrored recipe's (v, u) is the
original's (u, v) from t2, t1 with p and q exchanged.

Every recipe is verified on the unit ball.  For the log pair, with
b' = t2 p + 2 - eps0 and K_u = (b' - tau_+(mu1))(b' - tau_-(mu1)),
Lu = K_u r^(t2 p - eps0), Lv = (2 t2 + N - 2) r^(t2-2) and, on the line,
(t u)^q <= t^q r^(t2-2).  As e^(eps0 x) x^-p >= (e eps0/p)^p for
x = -ln r > 0, both slacks are nonnegative on the punctured unit ball for
t <= min((K_u (e eps0/p)^p)^(1/(p-1)), (2 t2 + N - 2)^(1/(q-1))).

In every recipe the leading power is a kernel function of its operator, so
the symbolic image has a single positive term and the supersolution slack
at scale t has the pointwise form a(r) t - b(r) t^s with s > 1: small t
always wins where the recipe is valid.

Verification is grid-based, not a proof: both inequalities are checked at
log-spaced radii and the symbolic operator is cross-checked against the
finite-difference oracle at sample radii.  Failures are reported, never
masked.  Each candidate gets one verification pass: u, v, Lu and Lv are
evaluated once on the grid, the scale scan computes slack minima only,
and the report, cross-check included, is built for the accepted scale
alone.  The scan decides with the least work: a pair that is not finite
and positive fails before its images are built; an image Lu or Lv that
is negative somewhere fails before any scale is tried, since t L stays
negative at every power of two t and the slack t L - (t w)^s is below
it; then at each scale the v-slack is computed first, and the u-slack
only where the v-slack passes.  The cross-check's sample radii, stencil
and finite-difference denominators are built once per grid and shared,
and u and v go through one stacked finite-difference pass.  No numpy
call is made that does no arithmetic: _term_sums skips the zeros and the
products by +-1, and a call without a grid uses one default grid, and
its radii, built at import.  The bits are those of the plain arithmetic,
and of computing both slacks at every scale.

Known degeneracies handled here rather than assumed away:
  - in regime A with t2 > 0 the two-term v of C2 stays positive only for
    q < (2-t2)/(-t1); on the remaining band the single-power v of C1 is
    valid and is substituted (recorded in candidate.notes);
  - at q = (2-t2)/(-t1) exactly (t2 > 0) both recipes degenerate (v would
    vanish or be a kernel function); the builder rejects that line.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple

import numpy as np

from . import boundaries as bd
from ._frozen import frozen
from .exponents import DomainValidationError, HardyParams, Powers
from .radial import (RadialFunction, RadialGrid, _fd_hardy, _fd_stencil,
                     _hardy_image, _term_sums, default_grid)

CASE_IDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")

#: Tolerance for "on the line" case hypotheses (q = 2/(-t1) and friends).
LINE_TOL = 1e-9

#: Scan grid for the scaling parameter: descending powers of two.
SCALE_SCAN = tuple(2.0 ** -k for k in range(0, 61))

ORACLE_DEV_LIMIT = 1e-4

#: Largest finite-difference step and number of sample radii of the
#: operator cross-check.
ORACLE_STEP = 1e-4
ORACLE_SAMPLES = 16

#: The grid of find_scale and verify_on_grid when none is given, built once.
_DEFAULT_GRID = default_grid()


@frozen
class SupersolutionCandidate:
    """A candidate pair (u, v) for one construction case.

    The pair solves the system inequalities on the unit ball only after
    scaling by some t in (0, 1], which find_scale determines.
    """

    case_id: str
    params: HardyParams
    pq: Powers
    u: RadialFunction
    v: RadialFunction
    notes: Tuple[str, ...] = ()


@frozen
class VerificationReport:
    """Pointwise slack minima plus the symbolic/numeric cross-check.

    ok reflects the slack signs only (and positivity of the pair);
    oracle_max_dev is the largest scale-normalized deviation between the
    symbolic images and the finite-difference operator at the sample
    radii, and oracle_exceeded flags deviations beyond the contract limit
    so they are never silently passed.
    """

    ok: bool
    min_slack_u: float
    min_slack_v: float
    grid: RadialGrid
    oracle_max_dev: float
    oracle_exceeded: bool
    positivity_ok: bool
    diagnostic: str = ""


def _violated(case_id: str, msg: str, strict: bool, notes: list) -> None:
    """A case hypothesis does not hold: raise if strict, else note it.

    Callers test the hypothesis first, so the message is formatted only
    for a violation.
    """
    if strict:
        raise DomainValidationError(f"{case_id} hypothesis violated: {msg}")
    notes.append(f"hypothesis violated: {msg}")


def _single_power_pair(t1: float, p: float, q: float
                       ) -> Tuple[RadialFunction, RadialFunction]:
    """C1's pair u = r^t1 - r^((t1 q+2)p+2), v = r^(t1 q+2)."""
    tau2c = t1 * q + 2.0
    return (RadialFunction.power_difference(t1, tau2c * p + 2.0),
            RadialFunction.monomial(1.0, tau2c))


def _two_term_pair(t1: float, t2: float, p: float, q: float
                   ) -> Tuple[RadialFunction, RadialFunction]:
    """C2's pair u = r^t1 - r^(t2 p+2), v = r^t2 - r^(t1 q+2)."""
    diff = RadialFunction.power_difference
    return diff(t1, t2 * p + 2.0), diff(t2, t1 * q + 2.0)


def _log_pair(case_id: str, N: int, t1: float, t2: float, p: float
              ) -> Tuple[RadialFunction, RadialFunction]:
    """C6's pair u = r^t1 - r^(b-eps0), v = r^t2 (-ln r), b = t2 p + 2 and
    eps0 = min(1, (b - t1)/2): Lu's r^(t2 p - eps0) outgrows (t v)^p as
    r -> 0.  Lv's coefficient 2 t2 + N - 2 must be positive (mu > mu0)."""
    if not 2.0 * t2 + (N - 2) > 0.0:
        raise DomainValidationError(
            f"{case_id} needs mu > mu_zero on its log side: the log image "
            "coefficient 2 tau_+ + N - 2 vanishes at the threshold")
    b = t2 * p + 2.0
    eps0 = min(1.0, (b - t1) / 2.0)
    return (RadialFunction.power_difference(t1, b - eps0),
            RadialFunction.monomial(1.0, t2, log_power=1))


def build_candidate(case_id: str, params: HardyParams, pq: Powers,
                    strict: bool = True) -> SupersolutionCandidate:
    """Instantiate the radial pair of the given case.

    With strict=True (default) the case hypothesis is validated and
    violations raise; strict=False records strip, e1/e2 and p, q > 1
    violations in notes instead, which is how deliberately-wrong-side
    candidates are produced for testing.  The regime hypothesis (the signs
    of tau_+(mu1), tau_+(mu2)) raises DomainValidationError in both modes:
    outside it the recipe's exponents are undefined.
    """
    if case_id not in CASE_IDS:
        raise DomainValidationError(f"unknown case id {case_id!r}")
    t1, _, t2, _ = params.roots
    p, q = pq.p, pq.q
    N = params.N
    notes: list = []
    # same tau-sign regime rule as the classifier kernel
    regime_a = t1 < 0.0 <= t2
    regime_b = t1 < 0.0 and t2 < 0.0

    # strict in both modes: the recipe has no exponents outside its regime
    if case_id in ("C1", "C2", "C3"):
        if not regime_a:
            _violated(case_id, "needs mu1 < 0 <= mu2", True, notes)
    elif not regime_b:
        _violated(case_id, "needs mu1, mu2 < 0", True, notes)
    if not (p > 1.0 and q > 1.0):
        _violated(case_id, "constructions assume p, q > 1", strict, notes)
    if regime_b:
        qlo, plo = bd.q_lower(t1, t2), bd.q_lower(t2, t1)

    if case_id in ("C1", "C4"):
        lo = bd.q_lower(t1, 0.0) if case_id == "C1" else qlo
        qup = bd.q_upper(N, t1, t2)
        if not lo < q < qup:
            _violated(case_id, f"q={q} outside the strip "
                      f"({lo:g}, {qup:g})", strict, notes)
        e1 = bd.e1(t1, p, q)
        if not e1 > 0.0:
            _violated(case_id, f"e1={e1:g} not positive", strict, notes)
        u, v = _single_power_pair(t1, p, q)
    elif case_id == "C2":
        foot = bd.q_lower(t1, 0.0)
        if not q < foot:
            _violated(case_id, f"q={q} not below 2/(-t1)={foot:g}", strict,
                      notes)
        tau4c = t1 * q + 2.0
        gap_edge = t2 - tau4c  # > 0 where the paper's two-term v is positive
        if gap_edge > LINE_TOL:
            # t2 > 0 band where r^t2 - r^(t1 q + 2) is negative near the
            # origin: the single-power v of C1 remains valid there.
            notes.append("two-term v not positive here; using the "
                         "single-power v recipe")
            u, v = _single_power_pair(t1, p, q)
        elif gap_edge > -LINE_TOL:
            raise DomainValidationError(
                "C2 degenerates at q = (2 - tau_+(mu2))/(-tau_+(mu1)): "
                "the candidate v vanishes")
        else:
            if not tau4c > 0.0:
                notes.append(f"exponent window note: t1*q+2 = {tau4c:g} <= 0")
            u, v = _two_term_pair(t1, t2, p, q)
    elif case_id == "C3":
        foot = bd.q_lower(t1, 0.0)
        if not abs(q - foot) <= LINE_TOL * max(1.0, foot):
            _violated(case_id, f"q={q} not on the line 2/(-t1)={foot:g}",
                      strict, notes)
        if t2 > 0.0:
            # the strip recipe is valid down to q = 2/(-t1) when t2 > 0
            notes.append("tau_+(mu2) > 0: single-power v recipe valid on "
                         "the line; no log factor needed")
            u, v = _single_power_pair(t1, p, q)
        else:
            u, v = _log_pair(case_id, N, t1, t2, p)
            notes.append("log recipe on the unit ball")
    elif case_id == "C5":
        if not q < qlo:
            _violated(case_id, f"q={q} not below {qlo:g}", strict, notes)
        if not p < plo:
            _violated(case_id, f"p={p} not below {plo:g}", strict, notes)
        tau4c = t1 * q + 2.0
        if not tau4c < 0.0:
            # the recipe stays positive; the claimed window is informational
            notes.append(f"exponent window note: t1*q+2 = {tau4c:g} >= 0")
        u, v = _two_term_pair(t1, t2, p, q)
    elif case_id == "C6":
        if not abs(q - qlo) <= LINE_TOL * max(1.0, qlo):
            _violated(case_id, f"q={q} not on the line {qlo:g}", strict,
                      notes)
        if not p < plo:
            _violated(case_id, f"p={p} not below {plo:g}", strict, notes)
        u, v = _log_pair(case_id, N, t1, t2, p)
    elif case_id == "C7":
        if not abs(p - plo) <= LINE_TOL * max(1.0, plo):
            _violated(case_id, f"p={p} not on the line {plo:g}", strict,
                      notes)
        if not q < qlo:
            _violated(case_id, f"q={q} not below {qlo:g}", strict, notes)
        v, u = _log_pair(case_id, N, t2, t1, q)
    else:  # C8
        pup = bd.q_upper(N, t2, t1)
        if not plo < p < pup:
            _violated(case_id, f"p={p} outside the strip "
                      f"({plo:g}, {pup:g})", strict, notes)
        e2 = bd.e1(t2, q, p)
        if not e2 > 0.0:
            _violated(case_id, f"e2={e2:g} not positive", strict, notes)
        v, u = _single_power_pair(t2, q, p)

    return SupersolutionCandidate(case_id, params, pq, u, v,
                                  notes=tuple(notes))


def _images(cand: SupersolutionCandidate
            ) -> Tuple[RadialFunction, RadialFunction]:
    """The symbolic images Lu and Lv of the candidate pair, from the roots
    its params hold."""
    params = cand.params
    tp1, tm1, tp2, tm2 = params.roots
    return (_hardy_image(params.N, tp1, tm1, cand.u),
            _hardy_image(params.N, tp2, tm2, cand.v))


def _finite_positive(vals: np.ndarray) -> bool:
    """Every value finite and positive; NaN fails both comparisons."""
    return (np.minimum.reduce(vals) > 0.0
            and np.maximum.reduce(vals) < math.inf)


def _evaluated(cand: SupersolutionCandidate, radii: np.ndarray):
    """The values of u, v, Lu and Lv at a grid's radii, which RadialGrid
    has checked, then the symbolic images (Lu, Lv); None as soon as u,
    then v, is not finite and positive there.  Callers turn overflow
    warnings off."""
    u_vals = _term_sums(cand.u, radii, False)[0]
    if not _finite_positive(u_vals):
        return None
    v_vals = _term_sums(cand.v, radii, False)[0]
    if not _finite_positive(v_vals):
        return None
    images = _images(cand)
    lu = _term_sums(images[0], radii, False)[0]
    lv = _term_sums(images[1], radii, False)[0]
    return u_vals, v_vals, lu, lv, images


def _pair_defect(cand: SupersolutionCandidate, radii: np.ndarray) -> str:
    """The one-line diagnostic of a pair that _evaluated rejects: for u if
    it fails, else for v, the first radius with a NaN or infinite value,
    or the radius of the smallest value."""
    with np.errstate(over="ignore", invalid="ignore"):
        name, vals = "u", _term_sums(cand.u, radii, False)[0]
        if _finite_positive(vals):
            name, vals = "v", _term_sums(cand.v, radii, False)[0]
    bad = ~np.isfinite(vals)
    if bad.any():
        return f"{name} is not finite near r={radii[bad.argmax()]:.3e}"
    return f"{name} is not positive near r={radii[vals.argmin()]:.3e}"


@functools.lru_cache(maxsize=8)
def _oracle_stencil(r_min: float, r_max: float
                    ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """The operator cross-check's (geometry, stencil), from _fd_stencil,
    for a grid with bounds [r_min, r_max]; every array is shared and
    read-only.  geometry[0] holds the sample radii r.

    The ORACLE_SAMPLES sample radii r are np.geomspace(max(r_min,
    r_max/4), 0.85 r_max, ORACLE_SAMPLES), descending where r_min lies
    above 0.85 r_max, with step h = min(ORACLE_STEP, r/8).  _fd_stencil's
    check 0 < h < r/4 fails at a radius that is not positive, so they need
    no other check.  They depend on the bounds alone, so every candidate
    verified on a grid shares one geometry, built and checked once; the
    few most recent grids are kept.
    """
    radii = np.geomspace(max(r_min, 0.25 * r_max), r_max * 0.85,
                         ORACLE_SAMPLES)
    geometry, points = _fd_stencil(radii,
                                   np.minimum(ORACLE_STEP, radii / 8.0))
    for arr in geometry + (points,):
        arr.flags.writeable = False
    return geometry, points


def _oracle_deviation(cand: SupersolutionCandidate,
                      images: Tuple[RadialFunction, RadialFunction],
                      grid: RadialGrid) -> float:
    """Scale-normalized max deviation between the two operator evaluations.

    Deviation at radius r is |symbolic - finite difference| divided by
    max(1, |symbolic|, sum of |term| magnitudes), which keeps the measure
    meaningful for steeply singular candidates where absolute comparison
    would be dominated by the r^(tau-2) blow-up.  The sample radii and
    stencil are the grid's shared _oracle_stencil.  images are the
    candidate's symbolic images Lu and Lv, each evaluated in one pass over
    its terms for its value and magnitude.  u's and v's stencil values are
    stacked for one _fd_hardy pass with mu1 and mu2 per row (params holds
    snapped mu), which gives each row the bits of its own pass.  The
    deviation is reduced over both rows at once; a NaN deviation is
    skipped, not propagated into the maximum.
    """
    params = cand.params
    geometry, points = _oracle_stencil(grid.r_min, grid.r_max)
    # shape (5, 2, n): one row per stencil offset holding u's values, then
    # v's; contiguous, which numpy runs faster than a transposed stack
    values = np.concatenate((_term_sums(cand.u, points, False)[0],
                             _term_sums(cand.v, points, False)[0]),
                            axis=1).reshape(5, 2, -1)
    fd = _fd_hardy(params.N, np.array(((params.mu1,), (params.mu2,))),
                   values, geometry)
    (sym_u, mag_u), (sym_v, mag_v) = [_term_sums(image, geometry[0], True)
                                      for image in images]
    sym, mag = np.array((sym_u, sym_v)), np.array((mag_u, mag_v))
    dev = np.abs(sym - fd) / np.fmax(1.0, np.fmax(np.abs(sym), mag))
    return max(0.0, float(np.fmax.reduce(dev, axis=None)))


def _slack_min(t: float, image: np.ndarray, vals: np.ndarray,
               s: float) -> float:
    """min over the grid of one scaled inequality slack t L - (t w)^s,
    from the image L = Lu or Lv and the other function's values w.

    An image that overflows gives an infinite slack, or a NaN one (inf -
    inf); a NaN makes the minimum NaN.  Callers turn overflow and
    invalid-value warnings off.
    """
    return float(np.minimum.reduce(t * image - np.power(t * vals, s)))


def _slack_defect(radii: np.ndarray, t: float, min_u: float, min_v: float,
                  lu: np.ndarray, lv: np.ndarray) -> str:
    """"" unless a slack minimum is NaN, else a one-line diagnostic for the
    first such slack: the first radius where its scaled image t Lu or t Lv
    is not finite (a NaN slack needs one)."""
    for name, min_slack, image in (("Lu", min_u, lu), ("Lv", min_v, lv)):
        if math.isnan(min_slack):
            with np.errstate(over="ignore"):
                bad = ~np.isfinite(t * image)
            return f"{name} is not finite near r={radii[bad.argmax()]:.3e}"
    return ""


def _slack_ok(min_slack: float) -> bool:
    """A slack minimum finite and nonnegative; NaN fails both comparisons.
    The scaled pair passes when both of its minima do."""
    return 0.0 <= min_slack < math.inf


def _report(cand: SupersolutionCandidate, grid: RadialGrid, t: float,
            min_u: float, min_v: float, evaluated) -> VerificationReport:
    """The report at scale t on a pair that _evaluated accepts on the
    grid, from its slack minima there and _evaluated's result."""
    _, _, lu, lv, images = evaluated
    dev = _oracle_deviation(cand, images, grid)
    return VerificationReport(
        ok=_slack_ok(min_u) and _slack_ok(min_v),
        min_slack_u=min_u, min_slack_v=min_v,
        grid=grid, oracle_max_dev=dev, oracle_exceeded=dev > ORACLE_DEV_LIMIT,
        positivity_ok=True,
        diagnostic=_slack_defect(grid.radii, t, min_u, min_v, lu, lv))


def verify_on_grid(cand: SupersolutionCandidate, t: float,
                   grid: Optional[RadialGrid] = None) -> VerificationReport:
    """Check both scaled inequalities pointwise and cross-check the operator.

    The scaled pair is (t u, t v); the slacks are

        slack_u(r) = t Lu(r) - (t v(r))^p,
        slack_v(r) = t Lv(r) - (t u(r))^q,

    and ok means both minima over the grid (default_grid()'s unless given)
    are nonnegative.  t must be finite and positive.  A value of u or v
    on the grid that is not positive, or not finite (u, v, Lu, Lv and the
    slacks are evaluated with overflow warnings off),
    fails the report with a diagnostic instead of raising on the
    fractional power.  A slack minimum that is NaN (an image that
    overflows to inf against an infinite power, or is NaN) fails the
    report too, with a diagnostic naming the image; an infinite slack is
    decided by its sign.  find_scale's report for the scale it accepts is
    this function's, bit for bit: both run _evaluated and _report.
    """
    if not 0.0 < t < math.inf:
        raise DomainValidationError(
            "verification needs a finite positive scale t")
    if grid is None:
        grid = _DEFAULT_GRID
    radii = grid.radii
    with np.errstate(over="ignore", invalid="ignore"):
        evaluated = _evaluated(cand, radii)
        if evaluated is None:
            return VerificationReport(
                ok=False, min_slack_u=math.nan, min_slack_v=math.nan,
                grid=grid, oracle_max_dev=math.nan, oracle_exceeded=False,
                positivity_ok=False, diagnostic=_pair_defect(cand, radii))
        u_vals, v_vals, lu, lv, _ = evaluated
        min_u = _slack_min(t, lu, v_vals, cand.pq.p)
        min_v = _slack_min(t, lv, u_vals, cand.pq.q)
    return _report(cand, grid, t, min_u, min_v, evaluated)


def find_scale(cand: SupersolutionCandidate,
               grid: Optional[RadialGrid] = None
               ) -> Optional[Tuple[float, VerificationReport]]:
    """Scan t over descending powers of two; return the largest accepted one.

    Both slacks have the pointwise form a(r) t - b(r) t^s with s > 1 and
    a, b >= 0 where the recipe is valid, so acceptance is monotone in t and
    the first hit of the descending scan is the largest accepted scale.
    u, v, the symbolic images and their values are evaluated once, with
    overflow warnings off, and each scale is decided with the least work:

      1. u or v not finite and positive on the grid: None, no image built;
      2. an image Lu or Lv negative somewhere, by the test
         SCALE_SCAN[-1] * min(L) < 0: None, no scale tried.  Where L < 0,
         t L is L times a power of two no smaller than SCALE_SCAN[-1], and
         rounding is monotone, so t L <= SCALE_SCAN[-1] L < 0 at every
         scan scale; taking the nonnegative (possibly infinite) (t w)^s
         from it keeps the slack negative, so every scale would fail.  A
         NaN minimum fails the test, and a NaN image is scanned;
      3. at each scale, the v-slack minimum, then, only if it is finite
         and nonnegative, the u-slack minimum; the first scale where both
         are is accepted.

    The report is built for the accepted scale alone, by _report
    (including the operator cross-check on the grid's shared oracle
    stencil, which reuses the images), the same as verify_on_grid's, bit
    for bit: the minima are the same _slack_min expressions.  Returns None
    when no scale verifies: either the hypothesis is violated or the grid
    is too coarse, or u or v is not positive or not finite on the grid;
    callers decide, nothing is masked.
    """
    if grid is None:
        grid = _DEFAULT_GRID
    with np.errstate(over="ignore", invalid="ignore"):
        evaluated = _evaluated(cand, grid.radii)
        if evaluated is None:
            return None
        u_vals, v_vals, lu, lv, _ = evaluated
        p, q = cand.pq.p, cand.pq.q
        # t L - (t w)^s <= t L < 0 where L < 0, at every scale (step 2)
        last = SCALE_SCAN[-1]
        if (last * np.minimum.reduce(lu) < 0.0
                or last * np.minimum.reduce(lv) < 0.0):
            return None
        for t in SCALE_SCAN:
            min_v = _slack_min(t, lv, u_vals, q)
            if _slack_ok(min_v):
                min_u = _slack_min(t, lu, v_vals, p)
                if _slack_ok(min_u):
                    break
        else:
            return None
    return t, _report(cand, grid, t, min_u, min_v, evaluated)
