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
    C8  p in (plo, (N+t1)/(-t2)), e2 > 0: C4 mirrored

Each pair is written once: _single_power_pair (C1, C4), _two_term_pair
(C2, C5), _log_pair (C3, C6).  C7 and C8 are built by the case they mirror,
hypotheses included: its branch runs on the system exchanged as (u, mu1, p)
<-> (v, mu2, q), and the pair it returns is their (v, u).

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

Each candidate gets one scale, decided from its terms and images before
any grid evaluation, and verified once on the grid (find_scale's docstring
states the rule).  A wrong-side pair fails a sign condition on its terms
and is refuted with no evaluation.  Otherwise t = 2^-k is a power of two
at or below the closed-form bound t_max of both slacks, the log pair's
above among them, so t is a proven scale for the stated recipe; the grid
confirms it, checking both inequalities at log-spaced radii with the
images Lu and Lv in the closed form of radial._hardy_image.  Failures are
reported, never masked.  u, v, Lu and Lv are evaluated once on the grid.
No numpy call is made that does no arithmetic: _term_sums skips the zeros
and the products by +-1, and a call without a grid uses one default grid,
and its radii, built at import.

Known degeneracies handled here rather than assumed away:
  - in regime A with t2 > 0 the two-term v of C2 stays positive only for
    q < (2-t2)/(-t1); on the remaining band the single-power v of C1 is
    valid and is substituted (recorded in candidate.notes);
  - at q = (2-t2)/(-t1) exactly (t2 > 0) both recipes degenerate (v would
    vanish or be a kernel function); the builder rejects that line.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Tuple

import numpy as np

from . import boundaries as bd
from ._frozen import frozen
from .exponents import DomainValidationError, HardyParams, Powers
from .radial import (RadialFunction, RadialGrid, _hardy_image, _term_sums,
                     default_grid)

CASE_IDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")

#: Tolerance for "on the line" case hypotheses (q = 2/(-t1) and friends).
LINE_TOL = 1e-9

#: The mirrored cases and the case whose branch builds each.
_MIRRORS = {"C7": "C6", "C8": "C4"}

#: The grid of find_scale and verify_on_grid when none is given, built once.
_DEFAULT_GRID = default_grid()

#: The margin in log2 t by which find_scale's scale lies below the
#: closed-form bound, and the largest k of its t = 2^-k: 2^-1022 is the
#: smallest normal float.
_MARGIN_LOG2 = 2.0 ** -20
_MAX_K = 1022

#: The relative tolerance on the exponent gap eps of _log2_bound within
#: which a pair lies on its recipe's line.
_GAP_TOL = 1e-8

#: log2 of the largest float: (t w)^s is finite where s log2(t w) is below.
_LOG2_MAX = math.log2(sys.float_info.max)


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
    """Pointwise slack minima of the scaled pair on a grid.

    ok reflects the slack signs and the positivity of the pair.
    """

    ok: bool
    min_slack_u: float
    min_slack_v: float
    grid: RadialGrid
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


def _on_line(x: float, line: float) -> bool:
    """x lies on the case line x = line, to LINE_TOL times max(1, line)."""
    return abs(x - line) <= LINE_TOL * max(1.0, line)


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
    # a mirrored case runs on the exchanged system, its messages naming
    # p, q and e1 by their mirrors, and swaps the pair back
    branch = _MIRRORS.get(case_id, case_id)
    pn, qn, en = "p", "q", "e1"
    if branch != case_id:
        t1, t2, p, q = t2, t1, q, p
        pn, qn, en = qn, pn, "e2"
    if regime_b:
        qlo, plo = bd.q_lower(t1, t2), bd.q_lower(t2, t1)

    if branch in ("C1", "C4"):
        lo = bd.q_lower(t1, 0.0) if branch == "C1" else qlo
        qup = bd.q_upper(N, t1, t2)
        if not lo < q < qup:
            _violated(case_id, f"{qn}={q} outside the strip "
                      f"({lo:g}, {qup:g})", strict, notes)
        e1 = bd.e1(t1, p, q)
        if not e1 > 0.0:
            _violated(case_id, f"{en}={e1:g} not positive", strict, notes)
        u, v = _single_power_pair(t1, p, q)
    elif branch == "C2":
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
    elif branch == "C3":
        foot = bd.q_lower(t1, 0.0)
        if not _on_line(q, foot):
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
    elif branch == "C5":
        if not q < qlo:
            _violated(case_id, f"q={q} not below {qlo:g}", strict, notes)
        if not p < plo:
            _violated(case_id, f"p={p} not below {plo:g}", strict, notes)
        tau4c = t1 * q + 2.0
        if not tau4c < 0.0:
            # the recipe stays positive; the claimed window is informational
            notes.append(f"exponent window note: t1*q+2 = {tau4c:g} >= 0")
        u, v = _two_term_pair(t1, t2, p, q)
    else:  # C6
        if not _on_line(q, qlo):
            _violated(case_id, f"{qn}={q} not on the line {qlo:g}", strict,
                      notes)
        if not p < plo:
            _violated(case_id, f"{pn}={p} not below {plo:g}", strict, notes)
        u, v = _log_pair(case_id, N, t1, t2, p)
    if branch != case_id:
        u, v = v, u

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


def _log2_bound(image: RadialFunction, w: RadialFunction,
                s: float) -> Optional[float]:
    """log2 of a scale t_side with t L - (t w)^s >= 0 on the punctured unit
    ball for every t <= t_side, from the terms of the image L and of w,
    whose leading coefficient c is positive; None where the terms give
    no such bound.

    The bound needs s > 1, L = K r^tau_L with K > 0 and no log, and w's
    later terms negative, so that w <= c r^tau_w (-ln r)^k.  With
    x = -ln r > 0 and eps = s tau_w - tau_L the slack is then at least
    t K r^tau_L (1 - t^(s-1) c^s e^(-eps x) x^(s k) / K), nonnegative for
    t^(s-1) <= K_eff, the infimum over x of K e^(eps x) x^(-s k) / c^s:
      k = 0: K_eff = K / c^s for eps >= 0.  An eps below -_GAP_TOL
        max(1, |tau_L|) is off the recipe's line, and the pair fails as
        r -> 0; a smaller |eps| is the line's rounding, taken as 0;
      k = 1: K_eff = K (e eps/s)^s / c^s, at x = s/eps, for eps > 0.
    """
    if not (s > 1.0 and len(image.terms) == 1):
        return None
    term, lead = image.terms[0], w.terms[0]
    if (term.log_power or not term.coeff > 0.0
            or any(later.coeff > 0.0 for later in w.terms[1:])):
        return None
    eps = s * lead.tau - term.tau
    log_k = math.log2(term.coeff) - s * math.log2(lead.coeff)
    if lead.log_power:
        if not eps > 0.0:
            return None
        log_k += s * math.log2(math.e * eps / s)
    elif not eps >= -_GAP_TOL * max(1.0, abs(term.tau)):
        return None
    return log_k / (s - 1.0)


def _finite_max(vals: np.ndarray) -> Optional[float]:
    """The largest value, if every value is finite and positive, else
    None; NaN fails both comparisons."""
    top = np.maximum.reduce(vals)
    if np.minimum.reduce(vals) > 0.0 and top < math.inf:
        return top
    return None


def _evaluated(cand: SupersolutionCandidate, images, radii: np.ndarray):
    """The values of u, v and of their images Lu and Lv at a grid's radii,
    which RadialGrid has checked, and the largest values of u and v; None
    as soon as u, then v, is not finite and positive there.  Callers turn
    overflow warnings off."""
    u_vals = _term_sums(cand.u, radii, False)[0]
    u_max = _finite_max(u_vals)
    if u_max is None:
        return None
    v_vals = _term_sums(cand.v, radii, False)[0]
    v_max = _finite_max(v_vals)
    if v_max is None:
        return None
    lu = _term_sums(images[0], radii, False)[0]
    lv = _term_sums(images[1], radii, False)[0]
    return u_vals, v_vals, lu, lv, u_max, v_max


def _pair_defect(cand: SupersolutionCandidate, radii: np.ndarray) -> str:
    """The one-line diagnostic of a pair that _evaluated rejects: for u if
    it fails, else for v, the first radius with a NaN or infinite value,
    or the radius of the smallest value."""
    with np.errstate(over="ignore", invalid="ignore"):
        name, vals = "u", _term_sums(cand.u, radii, False)[0]
        if _finite_max(vals) is not None:
            name, vals = "v", _term_sums(cand.v, radii, False)[0]
    bad = ~np.isfinite(vals)
    if bad.any():
        return f"{name} is not finite near r={radii[bad.argmax()]:.3e}"
    return f"{name} is not positive near r={radii[vals.argmin()]:.3e}"


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


def _report(grid: RadialGrid, t: float, min_u: float, min_v: float,
            lu: np.ndarray, lv: np.ndarray) -> VerificationReport:
    """The report at scale t on a pair that _evaluated accepts on the
    grid, from its slack minima there and the images' values lu and lv,
    which name a NaN slack's radius."""
    return VerificationReport(
        ok=_slack_ok(min_u) and _slack_ok(min_v),
        min_slack_u=min_u, min_slack_v=min_v, grid=grid, positivity_ok=True,
        diagnostic=_slack_defect(grid.radii, t, min_u, min_v, lu, lv))


def verify_on_grid(cand: SupersolutionCandidate, t: float,
                   grid: Optional[RadialGrid] = None) -> VerificationReport:
    """Check both scaled inequalities pointwise on a grid.

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
        evaluated = _evaluated(cand, _images(cand), radii)
        if evaluated is None:
            return VerificationReport(
                ok=False, min_slack_u=math.nan, min_slack_v=math.nan,
                grid=grid, positivity_ok=False,
                diagnostic=_pair_defect(cand, radii))
        u_vals, v_vals, lu, lv, _, _ = evaluated
        min_u = _slack_min(t, lu, v_vals, cand.pq.p)
        min_v = _slack_min(t, lv, u_vals, cand.pq.q)
    return _report(grid, t, min_u, min_v, lu, lv)


def find_scale(cand: SupersolutionCandidate,
               grid: Optional[RadialGrid] = None
               ) -> Optional[Tuple[float, VerificationReport]]:
    """The scale t = 2^-k of the candidate, decided from its terms and
    images before any grid evaluation and then verified once on the grid.

    t is a power of two at or below the closed-form bound t_max of both
    slacks on the punctured unit ball, not the largest scale the grid
    accepts.  The pair is refuted, with no evaluation, when u's or v's
    leading term (the smallest exponent) has a coefficient <= 0, or when
    either side, (Lu, v, p) or (Lv, u, q), gives no bound in _log2_bound:
    that needs s > 1, an image of one positive term without a log, w's
    later terms negative, and its exponent gap on or past the recipe's
    line.  Otherwise log2 t_max is the smaller side's bound, and k is the
    largest of 0, ceil(-log2 t_max + 2^-20) and, for each side,
    ceil(log2 max(w) - log2(DBL_MAX)/s), so that (t w)^s cannot overflow
    on the grid, where max(w) is the grid's largest value of w.  A k
    above 1022, or a u or v that is not finite and positive on the grid,
    gives None.

    The grid confirms the scale: u, v, Lu and Lv are evaluated once, with
    overflow warnings off, and the report at t is _report's, the same as
    verify_on_grid's, bit for bit.  Returns None when it fails, as a grid
    reaching past r = 1 does; callers decide, nothing is masked.
    """
    if grid is None:
        grid = _DEFAULT_GRID
    u, v = cand.u, cand.v
    if not (u.terms and v.terms and u.terms[0].coeff > 0.0
            and v.terms[0].coeff > 0.0):
        return None
    p, q = cand.pq.p, cand.pq.q
    images = _images(cand)
    log_u = _log2_bound(images[0], v, p)
    if log_u is None:
        return None
    log_v = _log2_bound(images[1], u, q)
    if log_v is None:
        return None
    k_bound = _MARGIN_LOG2 - min(log_u, log_v)
    if not k_bound <= _MAX_K:
        return None
    radii = grid.radii
    with np.errstate(over="ignore", invalid="ignore"):
        evaluated = _evaluated(cand, images, radii)
        if evaluated is None:
            return None
        u_vals, v_vals, lu, lv, u_max, v_max = evaluated
        k = max(math.ceil(max(k_bound, 0.0)),
                math.ceil(math.log2(v_max) - _LOG2_MAX / p),
                math.ceil(math.log2(u_max) - _LOG2_MAX / q))
        if k > _MAX_K:
            return None
        t = 2.0 ** -k
        min_u = _slack_min(t, lu, v_vals, p)
        min_v = _slack_min(t, lv, u_vals, q)
    report = _report(grid, t, min_u, min_v, lu, lv)
    return (t, report) if report.ok else None
