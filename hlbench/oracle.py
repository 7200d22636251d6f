"""Expected values computed apart from the program.

Nothing here imports hardylane.  The formulas are the paper's: the Hardy
exponents, the literal region predicates of Theorems 1-3, the corner points
of the region pictures, the exponent bootstrap and the action of
-Delta + mu/|x|^2 on c r^tau (-ln r)^k.  The check functions take the
program's outputs and return a list of failure messages (empty = pass).
"""

from __future__ import annotations

import math

import numpy as np

#: Cells closer than this to a region boundary may round either way.
BOUNDARY_BAND = 1e-9

VERDICTS = ("nonexistence", "exists_supersolution", "open_critical",
            "out_of_scope")


def mu_zero(N):
    """Hardy threshold -(N-2)^2/4."""
    return -((np.asarray(N, dtype=float) - 2.0) ** 2) / 4.0


def tau_pm(N, mu):
    """Closed form tau_+- = -(N-2)/2 +- sqrt(mu - mu0) over arrays."""
    half = (np.asarray(N, dtype=float) - 2.0) / 2.0
    s = np.sqrt(np.maximum(np.asarray(mu, dtype=float) - mu_zero(N), 0.0))
    return -half + s, -half - s


def tau_plus(N, mu):
    """tau_+(mu) for one point."""
    half = (N - 2.0) / 2.0
    return -half + math.sqrt(max(mu + half * half, 0.0))


def tau_minus(N, mu):
    """tau_-(mu) for one point."""
    half = (N - 2.0) / 2.0
    return -half - math.sqrt(max(mu + half * half, 0.0))


# --- literal region predicates -------------------------------------------

def region_masks(N, mu1, mu2, p, q):
    """(nonexistence, existence, near_boundary) masks of the paper's theorems.

    Regimes follow the signs of the coefficients: A has mu0 <= mu1 < 0 <= mu2
    (Theorem 1), its mirror swaps (mu1, p) with (mu2, q), B has both negative
    (Theorem 2).  Existence is the union of the construction regions of
    Theorem 3, all of which assume p, q > 1.  near_boundary marks points
    within BOUNDARY_BAND of any boundary expression of their regime.
    """
    N, mu1, mu2, p, q = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (N, mu1, mu2, p, q)))
    mu0 = mu_zero(N)
    t1, _ = tau_pm(N, mu1)
    t2, _ = tau_pm(N, mu2)
    reg_a = (mu1 < 0) & (mu2 >= 0)
    reg_m = (mu2 < 0) & (mu1 >= 0)
    reg_b = (mu1 < 0) & (mu2 < 0)
    e1 = t1 * (p * q - 1.0) + 2.0 * p + 2.0
    e2 = t2 * (p * q - 1.0) + 2.0 * q + 2.0
    gate = (p > 1.0) & (q > 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_up = (N + t2) / -t1
        p_up = (N + t1) / -t2
        q_lo_a = 2.0 / -t1
        p_lo_a = 2.0 / -t2
        q_lo_b = (2.0 - t2) / -t1
        p_lo_b = (2.0 - t1) / -t2

    # Theorem 1 (and its mirror): half-plane, then the strip below it
    strip_q = (q > q_lo_a) & (q < q_up)
    ne_a = (q >= q_up) | (strip_q & ((e1 < 0) | ((mu1 == mu0) & (e1 <= 0))))
    strip_p = (p > p_lo_a) & (p < p_up)
    ne_m = (p >= p_up) | (strip_p & ((e2 < 0) | ((mu2 == mu0) & (e2 <= 0))))
    # Theorem 2
    in_q = (q > q_lo_b) & (q < q_up)
    in_p = (p > p_lo_b) & (p < p_up)
    ne_b = (p >= p_up) | (q >= q_up) | (in_q & (e1 < 0)) | (in_p & (e2 < 0))
    nonexist = (reg_a & ne_a) | (reg_m & ne_m) | (reg_b & ne_b)

    # Theorem 3: C1-C3 below the critical curve, C4-C8 in regime B
    ex_a = (q < q_up) & (e1 > 0)
    ex_m = (p < p_up) & (e2 > 0)
    corner = (q == q_lo_b) & (p == p_lo_b)
    ex_b = (((in_q & (e1 > 0)) | (in_p & (e2 > 0))
             | ((q <= q_lo_b) & (p <= p_lo_b) & ~corner))
            & (p < p_up) & (q < q_up))
    exist = gate & ((reg_a & ex_a) | (reg_m & ex_m) | (reg_b & ex_b))

    def near(*exprs):
        out = np.zeros(p.shape, dtype=bool)
        for x in exprs:
            with np.errstate(invalid="ignore"):
                out |= np.abs(x) < BOUNDARY_BAND
        return out

    unit = near(p - 1.0, q - 1.0)
    near_b = unit | (reg_a & near(q - q_up, q - q_lo_a, e1)) \
        | (reg_m & near(p - p_up, p - p_lo_a, e2)) \
        | (reg_b & near(q - q_up, p - p_up, q - q_lo_b, p - p_lo_b, e1, e2))
    return nonexist, exist, near_b


def regime_letters(mu1, mu2):
    """'A' (one negative, including the mirror), 'B' (both) or 'C' (none)."""
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    return np.where((mu1 < 0) & (mu2 < 0), "B",
                    np.where((mu1 < 0) | (mu2 < 0), "A", "C"))


def check_region_grid(N, mu1, mu2, p_values, q_values, verdicts, citations):
    """Compare a (len(q), len(p)) grid of verdict/citation strings.

    Returns (failures, excluded): nonexistence cells must equal the literal
    predicate and existence cells must lie inside a construction region,
    except cells within BOUNDARY_BAND of a boundary, which are only counted.
    Nonexistence citations must name the theorem of the cell's regime.
    """
    pp, qq = np.meshgrid(np.asarray(p_values, float), np.asarray(q_values, float))
    ne, ex, near = region_masks(N, mu1, mu2, pp, qq)
    verdicts = np.asarray(verdicts)
    citations = np.asarray(citations)
    fails = []
    unknown = ~np.isin(verdicts, VERDICTS)
    if unknown.any():
        fails.append(f"{int(unknown.sum())} cells with unknown verdicts, "
                     f"e.g. {verdicts[unknown][0]!r}")
    got_ne = verdicts == "nonexistence"
    got_ex = verdicts == "exists_supersolution"
    keep = ~near
    bad_ne = (got_ne != ne) & keep
    if bad_ne.any():
        i, j = np.argwhere(bad_ne)[0]
        fails.append(f"{int(bad_ne.sum())} cells disagree with the "
                     f"nonexistence predicate, e.g. p={pp[i, j]:.12g} "
                     f"q={qq[i, j]:.12g} verdict {verdicts[i, j]}")
    bad_ex = got_ex & ~ex & keep
    if bad_ex.any():
        i, j = np.argwhere(bad_ex)[0]
        fails.append(f"{int(bad_ex.sum())} existence cells outside every "
                     f"construction region, e.g. p={pp[i, j]:.12g} "
                     f"q={qq[i, j]:.12g}")
    theorem = {"A": "T1.", "B": "T2."}.get(str(regime_letters(mu1, mu2)))
    if theorem is not None and got_ne.any():
        wrong = got_ne & ~np.char.startswith(citations.astype(str), theorem)
        if wrong.any():
            fails.append(f"{int(wrong.sum())} nonexistence cells cite another "
                         f"theorem than {theorem[:-1]}")
    return fails, int(near.sum())


# --- plot corner points ---------------------------------------------------

def expected_markers(N, mu1, mu2, p_range, q_range):
    """Corner points of the region pictures from the boundary equations.

    E/D: the half-plane edges on the axes; M, F, G: the construction lines
    on the axes; A: e1 = 0 on q = q_upper; C: e2 = 0 on p = p_upper;
    B: the two construction lines meet (and both critical curves vanish);
    Q: e1 = 0 on the right edge of the window, when inside it.
    """
    if mu2 < 0 <= mu1:
        mirrored = expected_markers(N, mu2, mu1, q_range, p_range)
        return {k: (xy[1], xy[0]) for k, xy in mirrored.items()}
    if not mu1 < 0:
        return {}
    t1, t2 = tau_plus(N, mu1), tau_plus(N, mu2)
    q_up = (N + t2) / -t1
    out = {"E": (0.0, q_up)}
    # t1 (p q_up - 1) + 2p + 2 = 0 solved for p
    p_a = (t1 - 2.0) / (t1 * q_up + 2.0)
    if p_a > 0:
        out["A"] = (p_a, q_up)
    if mu2 >= 0:
        out["M"] = (0.0, 2.0 / -t1)
        p_max = p_range[1]
        q_exit = (t1 - 2.0 * p_max - 2.0) / (t1 * p_max)
        if q_range[0] <= q_exit <= q_range[1]:
            out["Q"] = (p_max, q_exit)
        return out
    p_up = (N + t1) / -t2
    q_lo = (2.0 - t2) / -t1
    p_lo = (2.0 - t1) / -t2
    out.update(D=(p_up, 0.0), B=(p_lo, q_lo), F=(0.0, q_lo), G=(p_lo, 0.0))
    # t2 (p_up q - 1) + 2q + 2 = 0 solved for q
    q_c = (t2 - 2.0) / (t2 * p_up + 2.0)
    if q_c > 0:
        out["C"] = (p_up, q_c)
    return out


def check_markers(got, N, mu1, mu2, p_range, q_range, rel=1e-9):
    want = expected_markers(N, mu1, mu2, p_range, q_range)
    if set(got) != set(want):
        return [f"markers {sorted(got)} != expected {sorted(want)}"]
    fails = []
    for k, (px, py) in want.items():
        gx, gy = got[k]
        if abs(gx - px) > rel * max(1.0, abs(px)) or \
                abs(gy - py) > rel * max(1.0, abs(py)):
            fails.append(f"marker {k} = ({gx}, {gy}), expected ({px}, {py})")
    return fails


# --- witnesses --------------------------------------------------------------

def replay_bootstrap(N, mu1, mu2, p, q, clamped, step, kind):
    """Replay tau2 <- tau1 q + 2, tau1 <- tau2 p + 2 up to cycle `step`.

    Seeds are tau_+(mu1), tau_+(mu2); the clamped variant caps the first
    cycle by the seeds.  Returns (value, tau_minus) of the exponent named
    by kind ('crossed_tau1' or 'crossed_tau2') at that cycle.
    """
    seed1, seed2 = tau_plus(N, mu1), tau_plus(N, mu2)
    tau1, tau2 = seed1, seed2
    for j in range(1, step + 1):
        tau2 = tau1 * q + 2.0
        if clamped and j == 1:
            tau2 = min(tau2, seed2)
        if j == step and kind == "crossed_tau2":
            return tau2, tau_minus(N, mu2)
        tau1 = tau2 * p + 2.0
        if clamped and j == 1:
            tau1 = min(tau1, seed1)
    return tau1, tau_minus(N, mu1)


def check_witness(N, mu1, mu2, p, q, citation, witness):
    """Check one nonexistence witness against its citation.

    witness is a dict: mechanism, and either (exponent, weight_mu) for an
    integrability failure or (variant, kind, step, value) for a bootstrap
    crossing.  Roles are swapped for the mirrored regime A and for T2.iii.
    """
    fails = []
    swap = (mu2 < 0 <= mu1) or citation == "T2.iii"
    m1, m2, a, b = (mu2, mu1, q, p) if swap else (mu1, mu2, p, q)
    t1, t2 = tau_plus(N, m1), tau_plus(N, m2)
    mech = witness["mechanism"]
    e1 = t1 * (a * b - 1.0) + 2.0 * a + 2.0
    edge = citation == "T1.ii" and m1 == -((N - 2) ** 2) / 4.0 and \
        abs(e1) <= BOUNDARY_BAND
    want = "integrability" if citation in ("T1.i", "T2.i") or edge \
        else "iteration"
    if mech != want:
        return [f"{citation}: mechanism {mech}, expected {want}"]
    if mech == "integrability":
        # admissible source exponents with the weight they are tested against
        sources = [(t1 * b, m2)]
        if citation == "T2.i":
            sources.append((t2 * a, m1))
        if edge:
            sources = [((t1 * b + 2.0) * a, m1)]
        expo, w_mu = witness["exponent"], witness["weight_mu"]
        if not any(abs(expo - s) <= 1e-9 * max(1.0, abs(s)) and w_mu == w
                   for s, w in sources):
            fails.append(f"{citation}: exponent {expo} against mu={w_mu} is "
                         f"not a source power of this citation")
        sigma = expo + tau_plus(N, w_mu) + N
        if sigma > 1e-9 * max(1.0, abs(expo)):
            fails.append(f"{citation}: sigma = {sigma:g} > 0, source is "
                         f"weighted-L1")
        return fails
    kind, step, value = witness["kind"], witness["step"], witness["value"]
    clamped = citation in ("T2.ii", "T2.iii")
    if witness["variant"] != ("clamped" if clamped else "plain"):
        fails.append(f"{citation}: bootstrap variant {witness['variant']}")
    if kind not in ("crossed_tau1", "crossed_tau2") or step < 1:
        return fails + [f"{citation}: certificate {kind} at step {step} "
                        f"is no crossing"]
    replay, tau_minus = replay_bootstrap(N, m1, m2, a, b, clamped, step, kind)
    tol = 1e-9 * max(1.0, abs(replay))
    if abs(value - replay) > tol:
        fails.append(f"{citation}: certificate value {value!r} at step "
                     f"{step}, replay gives {replay!r}")
    if replay > tau_minus + tol:
        fails.append(f"{citation}: replayed value {replay!r} above "
                     f"tau_- = {tau_minus!r}")
    return fails


# --- supersolution inequalities ---------------------------------------------

def hardy_image(N, mu, terms, r):
    """(value, magnitude) of L = -Delta + mu/r^2 on sum c r^tau (-ln r)^k.

    L(c r^tau (-ln r)^k) = c r^(tau-2) [(mu - tau(tau+N-2)) (-ln r)^k
                                        + k (2 tau + N - 2)],  k in {0, 1}.
    The magnitude sums the absolute value of every piece before
    cancellation, which scales the rounding tolerance.
    """
    r = np.asarray(r, dtype=float)
    ell = -np.log(r)
    val = np.zeros_like(r)
    mag = np.zeros_like(r)
    for tau, k, c in terms:
        base = c * r ** (tau - 2.0) * ell ** k
        pieces = [mu * base, -tau * (tau + N - 2.0) * base]
        if k:
            pieces.append(c * (2.0 * tau + N - 2.0) * r ** (tau - 2.0))
        for x in pieces:
            val = val + x
            mag = mag + np.abs(x)
    return val, mag


def radial_value(terms, r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    for tau, k, c in terms:
        out = out + c * r ** tau * (-np.log(r)) ** k
    return out


def check_supersolution(N, mu1, mu2, p, q, u_terms, v_terms, t, radii,
                        rel=1e-9):
    """t Lu >= (t v)^p and t Lv >= (t u)^q with u, v > 0 at the radii."""
    u = radial_value(u_terms, radii)
    v = radial_value(v_terms, radii)
    if not (np.all(u > 0) and np.all(v > 0)):
        return ["candidate not positive on the grid"]
    fails = []
    with np.errstate(over="ignore"):
        for name, (f_terms, mu, other, s) in (
                ("u", (u_terms, mu1, v, p)), ("v", (v_terms, mu2, u, q))):
            lf, mag = hardy_image(N, mu, f_terms, radii)
            rhs = (t * other) ** s
            slack = t * lf - rhs
            tol = rel * (t * mag + rhs)
            bad = ~(slack >= -tol)
            if bad.any():
                k = int(np.argmax(bad))
                fails.append(f"t L{name} < (t {'v' if name == 'u' else 'u'})^"
                             f"{s:g} at r={radii[k]:.3e}: slack {slack[k]:.3e}")
    return fails
