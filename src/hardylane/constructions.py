"""Explicit radial supersolution candidates and their grid verification.

Eight construction recipes (C1..C8) instantiate the candidate pairs used in
the existence regions.  Writing t1 = tau_+(mu1), t2 = tau_+(mu2):

  regime A (t1 < 0 <= t2):
    C1  strip q in (2/(-t1), (N+t2)/(-t1)), e1 > 0:
        u = r^t1 - r^((t1 q+2)p+2),  v = r^(t1 q+2)
    C2  q < 2/(-t1):
        u = r^t1 - r^(t2 p+2),       v = r^t2 - r^(t1 q+2)
    C3  q = 2/(-t1):
        u = r^t1 - r^(t2 p+1),       v = r^t2 (-ln r)   on a ball B_r1
  regime B (t1, t2 < 0), with qlo = (2-t2)/(-t1), plo = (2-t1)/(-t2):
    C4  strip q in (qlo, (N+t2)/(-t1)), e1 > 0: same formulas as C1
    C5  q < qlo, p < plo: same formulas as C2
    C6  q = qlo, p < plo:
        u = r^t1 - r^(t2 p+2+eps0),  v = r^t2 (-ln r)
    C7  p = plo, q < qlo:
        u = r^t1 (-ln r),            v = r^t2 - r^(t1 q+2)
    C8  p in (plo, (N+t1)/(-t2)), e2 > 0:
        u = r^(t2 p+2),              v = r^t2 - r^((t2 p+2)q+2)

In every recipe the leading power is a kernel function of its operator, so
the symbolic image has a single positive term and the supersolution slack
at scale t has the pointwise form a(r) t - b(r) t^s with s > 1: small t
always wins where the recipe is valid.

Verification is grid-based, not a proof: both inequalities are checked at
log-spaced radii and the symbolic operator is cross-checked against the
finite-difference oracle at sample radii.  Failures are reported, never
masked.

Known degeneracies handled here rather than assumed away:
  - in regime A with t2 > 0 the two-term v of C2 stays positive only for
    q < (2-t2)/(-t1); on the remaining band the single-power v of C1 is
    valid and is substituted (recorded in candidate.notes);
  - at q = (2-t2)/(-t1) exactly (t2 > 0) both recipes degenerate (v would
    vanish or be a kernel function); the builder rejects that line;
  - the log-bearing recipes C3/C6/C7 need the log-side coefficient
    2 tau_+ + N - 2 = 2 sqrt(mu - mu0) to be positive, hence mu > mu0.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from . import boundaries as bd
from ._frozen import frozen
from .exponents import (DomainValidationError, HardyParams, Powers,
                        boundary_expressions, mu_zero)
from .radial import (RadialFunction, RadialGrid, _fd_hardy, _fd_stencil,
                     _hardy_image, _term_sums, default_grid, log_radii)

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


@frozen
class SupersolutionCandidate:
    """A candidate pair (u, v) for one construction case.

    The pair solves the system inequalities only after scaling by some
    t in (0, 1]; t stays None until find_scale determines it.  r_domain
    is the verification ball radius (1 except for the C3 log recipe).
    """

    case_id: str
    params: HardyParams
    pq: Powers
    u: RadialFunction
    v: RadialFunction
    r_domain: float = 1.0
    t: Optional[float] = None
    notes: Tuple[str, ...] = ()


@frozen
class VerificationReport:
    """Pointwise slack minima plus the symbolic/numeric cross-check.

    ok reflects the slack signs only (and positivity of the pair);
    oracle_max_dev is the largest scale-normalized deviation between
    apply_hardy and the finite-difference oracle at the sample radii, and
    oracle_exceeded flags deviations beyond the contract limit so they are
    never silently passed.
    """

    ok: bool
    min_slack_u: float
    min_slack_v: float
    grid: RadialGrid
    oracle_max_dev: float
    oracle_exceeded: bool
    positivity_ok: bool
    diagnostic: str = ""


def _require(cond: bool, case_id: str, msg: str, strict: bool,
             notes: list) -> None:
    if cond:
        return
    if strict:
        raise DomainValidationError(f"{case_id} hypothesis violated: {msg}")
    notes.append(f"hypothesis violated: {msg}")


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
    t1 = params.tau1.tau_plus
    t2 = params.tau2.tau_plus
    p, q = pq.p, pq.q
    vals = boundary_expressions(params, pq)
    notes: list = []
    # same tau-sign regime rule as the classifier kernel
    regime_a = t1 < 0.0 <= t2
    regime_b = t1 < 0.0 and t2 < 0.0

    # strict in both modes: the recipe has no exponents outside its regime
    if case_id in ("C1", "C2", "C3"):
        _require(regime_a, case_id, "needs mu1 < 0 <= mu2", True, notes)
    else:
        _require(regime_b, case_id, "needs mu1, mu2 < 0", True, notes)
    _require(p > 1.0 and q > 1.0, case_id,
             "constructions assume p, q > 1", strict, notes)

    mono = RadialFunction.monomial
    diff = RadialFunction.power_difference

    if case_id in ("C1", "C4"):
        if case_id == "C1":
            lo = bd.q_lower(t1, 0.0)
        else:
            lo = vals.q_lower
        _require(lo < q < vals.q_upper, case_id,
                 f"q={q} outside the strip ({lo:g}, {vals.q_upper:g})",
                 strict, notes)
        _require(vals.e1 > 0.0, case_id, f"e1={vals.e1:g} not positive",
                 strict, notes)
        tau2c = t1 * q + 2.0
        tau1c = tau2c * p + 2.0
        u = diff(t1, tau1c)
        v = mono(1.0, tau2c)
        return SupersolutionCandidate(case_id, params, pq, u, v,
                                      notes=tuple(notes))

    if case_id == "C2":
        foot = bd.q_lower(t1, 0.0)
        _require(q < foot, case_id,
                 f"q={q} not below 2/(-t1)={foot:g}", strict, notes)
        tau4c = t1 * q + 2.0
        gap_edge = t2 - tau4c  # > 0 where the paper's two-term v is positive
        if gap_edge > LINE_TOL:
            # t2 > 0 band where r^t2 - r^(t1 q + 2) is negative near the
            # origin: the single-power v of C1 remains valid there.
            notes.append("two-term v not positive here; using the "
                         "single-power v recipe")
            tau2c = tau4c
            tau1c = tau2c * p + 2.0
            u = diff(t1, tau1c)
            v = mono(1.0, tau2c)
            return SupersolutionCandidate(case_id, params, pq, u, v,
                                          notes=tuple(notes))
        if gap_edge > -LINE_TOL:
            raise DomainValidationError(
                "C2 degenerates at q = (2 - tau_+(mu2))/(-tau_+(mu1)): "
                "the candidate v vanishes")
        tau3c = t2 * p + 2.0
        if not tau4c > 0.0:
            notes.append(f"exponent window note: t1*q+2 = {tau4c:g} <= 0")
        u = diff(t1, tau3c)
        v = diff(t2, tau4c)
        return SupersolutionCandidate(case_id, params, pq, u, v,
                                      notes=tuple(notes))

    if case_id == "C3":
        qlo = bd.q_lower(t1, 0.0)
        _require(abs(q - qlo) <= LINE_TOL * max(1.0, qlo), case_id,
                 f"q={q} not on the line 2/(-t1)={qlo:g}", strict, notes)
        if t2 > 0.0:
            # the strip recipe is valid down to q = 2/(-t1) when t2 > 0
            notes.append("tau_+(mu2) > 0: single-power v recipe valid on "
                         "the line; no log factor needed")
            tau2c = t1 * q + 2.0
            tau1c = tau2c * p + 2.0
            u = diff(t1, tau1c)
            v = mono(1.0, tau2c)
            return SupersolutionCandidate(case_id, params, pq, u, v,
                                          notes=tuple(notes))
        tau5c = t2 * p + 1.0
        u = diff(t1, tau5c)
        v = mono(1.0, t2, log_power=1)
        cand = SupersolutionCandidate(case_id, params, pq, u, v,
                                      r_domain=1.0, notes=tuple(notes))
        r1 = find_domain(cand)
        return replace(cand, r_domain=r1,
                       notes=cand.notes + (f"log recipe on the ball of "
                                           f"radius {r1:g}",))

    if case_id == "C5":
        _require(q < vals.q_lower, case_id,
                 f"q={q} not below {vals.q_lower:g}", strict, notes)
        _require(p < vals.p_lower, case_id,
                 f"p={p} not below {vals.p_lower:g}", strict, notes)
        tau3c = t2 * p + 2.0
        tau4c = t1 * q + 2.0
        if not tau4c < 0.0:
            # the recipe stays positive; the claimed window is informational
            notes.append(f"exponent window note: t1*q+2 = {tau4c:g} >= 0")
        u = diff(t1, tau3c)
        v = diff(t2, tau4c)
        return SupersolutionCandidate(case_id, params, pq, u, v,
                                      notes=tuple(notes))

    if case_id == "C6":
        _require(abs(q - vals.q_lower) <= LINE_TOL * max(1.0, vals.q_lower),
                 case_id, f"q={q} not on the line {vals.q_lower:g}",
                 strict, notes)
        _require(p < vals.p_lower, case_id,
                 f"p={p} not below {vals.p_lower:g}", strict, notes)
        if params.mu2 <= mu_zero(params.N):
            raise DomainValidationError(
                "C6 needs mu2 > mu_zero: the log image coefficient "
                "2 tau_+ + N - 2 vanishes at the threshold")
        eps0 = max(1e-3, t1 - (t2 * p + 2.0) + 1e-3)
        tau6c = t2 * p + 2.0 + eps0
        u = diff(t1, tau6c)
        v = mono(1.0, t2, log_power=1)
        return SupersolutionCandidate(case_id, params, pq, u, v,
                                      notes=tuple(notes))

    if case_id == "C7":
        _require(abs(p - vals.p_lower) <= LINE_TOL * max(1.0, vals.p_lower),
                 case_id, f"p={p} not on the line {vals.p_lower:g}",
                 strict, notes)
        _require(q < vals.q_lower, case_id,
                 f"q={q} not below {vals.q_lower:g}", strict, notes)
        if params.mu1 <= mu_zero(params.N):
            raise DomainValidationError(
                "C7 needs mu1 > mu_zero: the log image coefficient "
                "2 tau_+ + N - 2 vanishes at the threshold")
        tau8c = t1 * q + 2.0
        u = mono(1.0, t1, log_power=1)
        v = diff(t2, tau8c)
        return SupersolutionCandidate(case_id, params, pq, u, v,
                                      notes=tuple(notes))

    # C8
    _require(vals.p_lower < p < vals.p_upper, case_id,
             f"p={p} outside the strip ({vals.p_lower:g}, {vals.p_upper:g})",
             strict, notes)
    _require(vals.e2 > 0.0, case_id, f"e2={vals.e2:g} not positive",
             strict, notes)
    tau10c = t2 * p + 2.0
    tau9c = tau10c * q + 2.0
    u = mono(1.0, tau10c)
    v = diff(t2, tau9c)
    return SupersolutionCandidate("C8", params, pq, u, v, notes=tuple(notes))


def _images(cand: SupersolutionCandidate
            ) -> Tuple[RadialFunction, RadialFunction]:
    """The symbolic images Lu and Lv of the candidate pair, from the
    exponent pairs its params store."""
    params = cand.params
    return (_hardy_image(params.N, params.tau1, cand.u),
            _hardy_image(params.N, params.tau2, cand.v))


def _grid_values(f: RadialFunction, radii: np.ndarray) -> np.ndarray:
    """f at a grid's radii, which log_radii has already checked."""
    return _term_sums(f, radii, False)[0]


def _finite_positive(vals: np.ndarray) -> bool:
    """Every value finite and positive; NaN fails both comparisons."""
    return vals.min() > 0.0 and vals.max() < math.inf


def _pair_defect(radii: np.ndarray, u_vals: np.ndarray,
                 v_vals: np.ndarray) -> str:
    """"" when u and v are finite and positive at every grid radius, else
    a one-line diagnostic for u if it fails, else for v: the first radius
    with a NaN or infinite value, or the radius of the smallest value."""
    for name, vals in (("u", u_vals), ("v", v_vals)):
        if not _finite_positive(vals):
            bad = ~np.isfinite(vals)
            if bad.any():
                return f"{name} is not finite near r={radii[bad.argmax()]:.3e}"
            return f"{name} is not positive near r={radii[vals.argmin()]:.3e}"
    return ""


def _oracle_deviation(cand: SupersolutionCandidate,
                      images: Tuple[RadialFunction, RadialFunction],
                      grid: RadialGrid, h: float, samples: int) -> float:
    """Scale-normalized max deviation between the two operator evaluations.

    Deviation at radius r is |symbolic - finite difference| divided by
    max(1, |symbolic|, sum of |term| magnitudes), which keeps the measure
    meaningful for steeply singular candidates where absolute comparison
    would be dominated by the r^(tau-2) blow-up.  The sample radii are
    log-spaced over [max(r_min, r_max/4), 0.85 r_max] with step
    min(h, r/8).  images are the candidate's symbolic images Lu and Lv;
    u and v each take one oracle call over all sample radii, and their
    image one pass over its terms for its value and magnitude.  Both
    oracle calls share one stencil, checked once; they give the bits of
    hardy_fd_oracle(N, mu, f, radii, h_r), as params holds snapped mu.
    A NaN deviation is skipped, not propagated into the maximum.
    """
    params = cand.params
    r_hi = grid.r_max * 0.85
    r_lo = max(grid.r_min, 0.25 * grid.r_max)
    radii = log_radii(r_lo, r_hi, samples)
    stencil = _fd_stencil(radii, np.minimum(h, radii / 8.0))
    worst = 0.0
    for f, mu, image in ((cand.u, params.mu1, images[0]),
                         (cand.v, params.mu2, images[1])):
        fd = _fd_hardy(params.N, mu, f, stencil)
        sym, mag = _term_sums(image, radii, True)
        dev = np.abs(sym - fd) / np.fmax(1.0, np.fmax(np.abs(sym), mag))
        worst = max(worst, float(np.fmax.reduce(dev)))
    return worst


def _grid_slacks(cand: SupersolutionCandidate, t: float,
                 u_vals: np.ndarray, v_vals: np.ndarray,
                 lu: np.ndarray, lv: np.ndarray) -> Tuple[float, float]:
    """Minima of the two scaled inequality slacks over the grid."""
    with np.errstate(over="ignore"):
        slack_u = t * lu - np.power(t * v_vals, cand.pq.p)
        slack_v = t * lv - np.power(t * u_vals, cand.pq.q)
    return float(slack_u.min()), float(slack_v.min())


def _slacks_ok(min_u: float, min_v: float) -> bool:
    """Both slack minima finite and nonnegative: the scaled pair passes."""
    return (math.isfinite(min_u) and math.isfinite(min_v)
            and min_u >= 0.0 and min_v >= 0.0)


def _verified(cand: SupersolutionCandidate, grid: RadialGrid,
              min_u: float, min_v: float,
              images: Tuple[RadialFunction, RadialFunction],
              h: float, samples: int) -> VerificationReport:
    """The report on a pair positive on the grid, from its slack minima at
    the scale under test and its symbolic images (for the cross-check)."""
    dev = _oracle_deviation(cand, images, grid, h, samples)
    return VerificationReport(ok=_slacks_ok(min_u, min_v), min_slack_u=min_u,
                              min_slack_v=min_v, grid=grid,
                              oracle_max_dev=dev,
                              oracle_exceeded=dev > ORACLE_DEV_LIMIT,
                              positivity_ok=True)


def verify_on_grid(cand: SupersolutionCandidate, t: Optional[float] = None,
                   grid: Optional[RadialGrid] = None, h: float = ORACLE_STEP,
                   oracle_samples: int = ORACLE_SAMPLES, *,
                   evaluated: Optional[Tuple[np.ndarray, ...]] = None
                   ) -> VerificationReport:
    """Check both scaled inequalities pointwise and cross-check the operator.

    The scaled pair is (t u, t v); the slacks are

        slack_u(r) = t Lu(r) - (t v(r))^p,
        slack_v(r) = t Lv(r) - (t u(r))^q,

    and ok means both minima over the grid are nonnegative.  A value of u
    or v on the grid that is not positive, or not finite (u and v are
    evaluated with overflow warnings off), fails the report with a
    diagnostic instead of raising on the fractional power.  oracle_samples
    must be an int >= 1.

    evaluated, if given, is (u, v, Lu, Lv) already evaluated at
    grid.radii for this candidate; they are used instead of evaluating
    again.  Their shapes must match the grid, and the positivity check
    still runs on them.  The operator cross-check always evaluates its own
    sample radii.  find_scale gives the same report for the scale it
    accepts without calling this function: it shares the same private
    verification step and hands it the images it has already built.
    """
    if t is None:
        t = cand.t
    if t is None or not (t > 0.0):
        raise DomainValidationError("verification needs a positive scale t")
    if not (isinstance(oracle_samples, (int, np.integer))
            and not isinstance(oracle_samples, bool) and oracle_samples >= 1):
        raise DomainValidationError(
            f"oracle_samples must be an int >= 1, got {oracle_samples!r}")
    if grid is None:
        grid = default_grid(cand.r_domain)
    radii = grid.radii

    if evaluated is None:
        with np.errstate(over="ignore", invalid="ignore"):
            u_vals = _grid_values(cand.u, radii)
            v_vals = _grid_values(cand.v, radii)
    else:
        if len(evaluated) != 4 or any(np.shape(a) != radii.shape
                                      for a in evaluated):
            raise DomainValidationError(
                "evaluated must be (u, v, Lu, Lv) at the grid's radii")
        u_vals, v_vals, lu, lv = map(np.asarray, evaluated)
    defect = _pair_defect(radii, u_vals, v_vals)
    if defect:
        return VerificationReport(
            ok=False, min_slack_u=math.nan, min_slack_v=math.nan, grid=grid,
            oracle_max_dev=math.nan, oracle_exceeded=False,
            positivity_ok=False, diagnostic=defect)

    images = _images(cand)
    if evaluated is None:
        lu, lv = _grid_values(images[0], radii), _grid_values(images[1], radii)
    min_u, min_v = _grid_slacks(cand, t, u_vals, v_vals, lu, lv)
    return _verified(cand, grid, min_u, min_v, images, h, oracle_samples)


def find_scale(cand: SupersolutionCandidate,
               grid: Optional[RadialGrid] = None
               ) -> Optional[Tuple[float, VerificationReport]]:
    """Scan t over descending powers of two; return the largest accepted one.

    Both slacks have the pointwise form a(r) t - b(r) t^s with s > 1 and
    a, b >= 0 where the recipe is valid, so acceptance is monotone in t and
    the first hit of the descending scan is the largest accepted scale.
    u, v, the symbolic images Lu, Lv and their values are computed once;
    the scan evaluates the slack minima only, and the accepted scale gets
    the full report of verify_on_grid (including the operator
    cross-check, which reuses the images), bit for bit.  Returns None when
    no scale verifies: either the hypothesis is violated or the grid is
    too coarse, or u or v is not positive or not finite on the grid;
    callers decide, nothing is masked.
    """
    if grid is None:
        grid = default_grid(cand.r_domain)
    radii = grid.radii
    with np.errstate(over="ignore", invalid="ignore"):
        u_vals = _grid_values(cand.u, radii)
        if not _finite_positive(u_vals):
            return None
        v_vals = _grid_values(cand.v, radii)
        if not _finite_positive(v_vals):
            return None
    images = _images(cand)
    lu, lv = _grid_values(images[0], radii), _grid_values(images[1], radii)
    for t in SCALE_SCAN:
        min_u, min_v = _grid_slacks(cand, t, u_vals, v_vals, lu, lv)
        if _slacks_ok(min_u, min_v):
            return t, _verified(cand, grid, min_u, min_v, images,
                                ORACLE_STEP, ORACLE_SAMPLES)
    return None


def find_domain(cand: SupersolutionCandidate, grid_points: int = 512,
                r_floor: float = 1e-8) -> float:
    """Largest ball radius on which a log-bearing candidate verifies.

    Bisects r1 in (r_floor, 1): feasibility at r1 means some scale t passes
    verification on a log grid over (r1 * 1e-6, r1].  Candidates without a
    log factor in v are valid on the unit ball and return 1 unchanged.
    """
    if all(term.log_power == 0 for term in cand.v.terms):
        return 1.0

    def feasible(r1: float) -> bool:
        g = RadialGrid(r1 * 1e-6, r1, grid_points)
        return find_scale(replace(cand, r_domain=r1), grid=g) is not None

    hi = 1.0 - 1e-6
    if feasible(hi):
        return hi
    lo = hi
    while lo > r_floor:
        lo *= 0.25
        if feasible(lo):
            break
    else:
        raise DomainValidationError(
            f"no verification radius found above {r_floor:g}")
    # invariant: feasible(lo), not feasible(hi)
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def case_for_region(params: HardyParams, pq: Powers, citation: str) -> str:
    """Map an existence citation to the construction case that realizes it."""
    table = {"T3.i.case1": "C1", "T3.i.case2": "C2", "T3.i.case3": "C3",
             "T3.ii.a1": "C4", "T3.ii.b1": "C8", "T3.ii.b2": "C7"}
    if citation in table:
        return table[citation]
    if citation == "T3.ii.a2":
        vals = boundary_expressions(params, pq)
        if vals.q_lower is not None and \
                abs(pq.q - vals.q_lower) <= LINE_TOL * max(1.0, vals.q_lower):
            return "C6"
        return "C5"
    raise DomainValidationError(f"no construction for citation {citation!r}")
