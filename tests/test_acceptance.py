"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with pytest -s or read captured output on failure).

Criteria:
  1  exponent identities over 1e6 random admissible (N, mu)      < 5 s
  2  symbolic operator vs finite-difference oracle               < 30 s
  3  weighted-L^1 sharpness at the q = 5 threshold
  4  bootstrap certificates: worked traces + 1e4-point sweep
  5  classifier totality, predicate disjointness, witnesses      < 60 s
  6  threshold-edge semantics and the e3 = e1 identity
  7  all eight construction recipes verify; wrong side fails     < 120 s
  8  400x400 region plot reproduction, markers, determinism
"""

import math
import time

import numpy as np
import pytest

from hardylane import _kernels as K
from hardylane import boundaries as bd
from hardylane.constructions import build_candidate, find_scale
from hardylane.exponents import HardyParams, Powers
from hardylane.integrability import power_verdict
from hardylane.iteration import CertificateKind, iterate_clamped, iterate_plain
from hardylane.plotting import (PlotSpec, critical_curve_points,
                                region_markers, render_svg)
from hardylane.radial import RadialFunction, RadialTerm
from hardylane.regions import (Verdict, _wrap, classify, classify_field,
                               nonexistence_witness)
from oracles import (FD_DEV_LIMIT, claim1_check, crossing_step_bound, e3,
                     fd_deviation, hardy_fd_oracle, hardy_image, pair_of,
                     values)
from quadrature import integral_behavior

mono = RadialFunction.monomial

_NONEXIST_CODES = np.array([K.CODE_T1_I, K.CODE_T1_II, K.CODE_T2_I,
                            K.CODE_T2_II, K.CODE_T2_III])
_EXIST_CODES = np.array([K.CODE_T3_I_CASE1, K.CODE_T3_I_CASE2,
                         K.CODE_T3_I_CASE3, K.CODE_T3_II_A1,
                         K.CODE_T3_II_A2, K.CODE_T3_II_B1, K.CODE_T3_II_B2])


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_exponent_identities():
    n = 1_000_000
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    N = rng.integers(3, 11, n).astype(np.int64)
    mu0 = -((N - 2) ** 2) / 4.0
    mu = mu0 + rng.random(n) * 25.0
    mu[: n // 100] = mu0[: n // 100]  # exercise the double root too
    tp, tm = bd.roots((N - 2) / 2.0, mu, np.sqrt(mu - mu0))
    resid_p = np.abs(mu - tp * (tp + N - 2))
    resid_m = np.abs(mu - tm * (tm + N - 2))
    tol = 1e-12 * np.maximum(1.0, np.abs(mu))
    sum_resid = np.abs(tp + tm + (N - 2))
    elapsed = time.perf_counter() - start
    ok = (resid_p <= tol).all() and (resid_m <= tol).all() and \
        (sum_resid <= 1e-12).all() and elapsed < 5.0
    report(1, ok,
           f"root residual max {max(resid_p.max(), resid_m.max()):.2e}, "
           f"sum residual max {sum_resid.max():.2e}, {elapsed:.2f}s")


def test_criterion_2_operator_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    radii = np.geomspace(0.65, 0.95, 16)
    worst_dev = 0.0
    ratios = []
    for _ in range(1000):
        N = int(rng.integers(3, 7))
        mu = -((N - 2) ** 2) / 4.0 * (1.0 - rng.random()) + rng.random() * 2.0
        terms = [RadialTerm(rng.uniform(-3.0, 3.0), int(rng.integers(0, 2)),
                            rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0]))
                 for _ in range(int(rng.integers(1, 5)))]
        f = RadialFunction.from_terms(terms)
        sym = hardy_image(N, mu, f)
        sym_vals = [float(values(sym, float(r))) for r in radii]

        def rms(h):
            ds = [hardy_fd_oracle(N, mu, f, float(r), h) - s
                  for r, s in zip(radii, sym_vals)]
            return math.sqrt(sum(d * d for d in ds) / len(ds))

        worst_dev = max(worst_dev, max(
            abs(hardy_fd_oracle(N, mu, f, float(r), 1e-4) - s)
            for r, s in zip(radii, sym_vals)))
        e_coarse, e_fine = rms(1e-3), rms(5e-4)
        if e_coarse >= 1e-8:
            ratios.append(e_coarse / e_fine)
        else:
            assert e_fine < 1e-8  # oracle exact for this f

    # kernel functions map to the exact zero function
    kernels_exact = True
    for _ in range(100):
        N = int(rng.integers(3, 11))
        m0 = -((N - 2) ** 2) / 4.0
        mu = m0 + rng.random() * 20.0
        tau_plus, tau_minus = pair_of(N, mu)
        kernels_exact &= hardy_image(N, mu, mono(1.0, tau_plus)).is_zero
        kernels_exact &= hardy_image(N, mu, mono(1.0, tau_minus)).is_zero
        kernels_exact &= hardy_image(
            N, m0, mono(1.0, pair_of(N, m0)[1], log_power=1)).is_zero
    elapsed = time.perf_counter() - start
    ratios = np.asarray(ratios)
    ok = (len(ratios) >= 900 and (ratios >= 3.5).all()
          and (ratios <= 4.5).all() and worst_dev <= 1e-4
          and kernels_exact and elapsed < 30.0)
    report(2, ok,
           f"halving ratio in [{ratios.min():.3f}, {ratios.max():.3f}] "
           f"({len(ratios)} checked), |dev| max {worst_dev:.2e} at h=1e-4, "
           f"kernel exactness {kernels_exact}, {elapsed:.1f}s")


def test_criterion_3_integrability_sharpness():
    # f = r^(tau_+(mu1) q) = r^(-q) against the mu2 = 0 weight: the margin
    # is 5 - q, so the verdict flips exactly at q = 5
    tp = pair_of(5, 0.0)[0]
    flips_ok = True
    for q, expect in ((5.0, False), (4.999, True), (5.001, False),
                      (4.0, True), (6.0, False)):
        v = power_verdict(5, -q, tp)
        flips_ok &= v.integrable == expect
    v5 = power_verdict(5, -5.0, tp)
    kind_at, _ = integral_behavior(5, 0.0, mono(1.0, -5.0))
    kind_below, _ = integral_behavior(5, 0.0, mono(1.0, -4.999))
    ok = (flips_ok and v5.critical_exponent_gap == 0.0
          and kind_at == "divergent" and kind_below == "convergent")
    report(3, ok,
           f"flip at q=5 exact, sigma(5)={v5.critical_exponent_gap:g}, "
           f"quadrature: q=5 {kind_at}, q=4.999 {kind_below}")


def test_criterion_4_iteration_certificates():
    plain = iterate_plain(HardyParams(5, -2.0, 0.0), Powers(2, 4))
    clamped = iterate_clamped(HardyParams(5, -2.0, -2.0), Powers(2.5, 3.5))
    worked = (
        plain.outcome.kind is CertificateKind.CROSSED_TAU1
        and plain.outcome.step == 1
        and abs(plain.outcome.value - (-2.0)) <= 1e-12
        and clamped.outcome.kind is CertificateKind.CROSSED_TAU2
        and clamped.outcome.step == 2
        and abs(clamped.outcome.value - (-4.125)) <= 1e-12)

    rng = np.random.default_rng(404)
    crossings = 0
    within_bound = 0
    claim1_checked = 0
    claim1_ok = 0
    total = 10_000
    while crossings < total:
        N = int(rng.integers(3, 11))
        m0 = -((N - 2) ** 2) / 4.0
        mu1 = rng.uniform(m0, -1e-6 * abs(m0))
        mu2 = rng.uniform(0.0, 3.0)
        params = HardyParams(N, mu1, mu2)
        t1 = params.roots[0]
        t2 = params.roots[2]
        qlo, qup = 2.0 / (-t1), (N + t2) / (-t1)
        q = rng.uniform(qlo * 1.0001, qup * 0.9999)
        p_min = (2.0 - t1) / (-(t1 * q + 2.0))
        p = p_min * (1.0 + 10.0 ** rng.uniform(-4.0, 0.7))
        pq = Powers(p, q)
        trace = iterate_plain(params, pq)
        if not trace.crossed:
            continue  # should not happen; counted via totals below
        crossings += 1
        if trace.outcome.step <= crossing_step_bound(params, pq) + 2:
            within_bound += 1
        usable = [s for s in trace.steps if not s.tau1_carried]
        if len(usable) >= 3:
            claim1_checked += 1
            if claim1_check(trace, pq):
                claim1_ok += 1
    ok = (worked and crossings == total and within_bound == total
          and claim1_checked > 500 and claim1_ok == claim1_checked)
    report(4, ok,
           f"worked traces exact, {crossings} crossings, "
           f"{within_bound} within bound+2, geometric law "
           f"{claim1_ok}/{claim1_checked}")


def _theorem_masks(N, mu1, mu2, p, q):
    """Literal nonexistence predicates and construction-backed existence
    predicates, vectorized over the sweep arrays."""
    mu0 = -((N - 2) ** 2) / 4.0
    half = (N - 2) / 2.0
    t1 = -half + np.sqrt(mu1 - mu0)
    t2 = -half + np.sqrt(mu2 - mu0)
    neg1, neg2 = t1 < 0.0, t2 < 0.0
    reg_a = neg1 & ~neg2
    reg_as = neg2 & ~neg1
    reg_b = neg1 & neg2
    e1 = t1 * (p * q - 1.0) + 2.0 * p + 2.0
    e2 = t2 * (p * q - 1.0) + 2.0 * q + 2.0
    at_mu0_1 = mu1 == mu0
    at_mu0_2 = mu2 == mu0

    with np.errstate(divide="ignore", invalid="ignore"):
        qup = (N + t2) / (-t1)
        pup = (N + t1) / (-t2)
        qlo_a = 2.0 / (-t1)
        plo_a = 2.0 / (-t2)
        qlo_b = (2.0 - t2) / (-t1)
        plo_b = (2.0 - t1) / (-t2)

    t1_strip = (q > qlo_a) & (q < qup)
    ne_a = reg_a & ((q >= qup) | (t1_strip & ((e1 < 0)
                                              | (at_mu0_1 & (e1 <= 0)))))
    t1s_strip = (p > plo_a) & (p < pup)
    ne_as = reg_as & ((p >= pup) | (t1s_strip & ((e2 < 0)
                                                 | (at_mu0_2 & (e2 <= 0)))))
    in_q = (q > qlo_b) & (q < qup)
    in_p = (p > plo_b) & (p < pup)
    ne_b = reg_b & ((p >= pup) | (q >= qup) | (in_q & (e1 < 0))
                    | (in_p & (e2 < 0)))
    nonexist = ne_a | ne_as | ne_b

    ex_a = reg_a & (q < qup) & (e1 > 0)
    ex_as = reg_as & (p < pup) & (e2 > 0)
    gate = (p > 1.0) & (q > 1.0)
    square = (q <= qlo_b) & (p <= plo_b) & ~((q == qlo_b) & (p == plo_b))
    ex_b = reg_b & gate & ((in_q & (e1 > 0)) | (in_p & (e2 > 0)) | square)
    exist = ex_a | ex_as | ex_b
    return nonexist, exist


def test_criterion_5_disjointness_totality_witnesses():
    n = 1_000_000
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    N = rng.integers(3, 11, n).astype(np.int64)
    mu0 = -((N - 2) ** 2) / 4.0
    mu1 = mu0 + rng.random(n) * (3.0 - mu0)
    mu2 = mu0 + rng.random(n) * (3.0 - mu0)
    p = rng.random(n) * 19.999 + 1e-3
    q = rng.random(n) * 19.999 + 1e-3

    codes, margins, flags = K.classify_codes(N, mu1, mu2, p, q)
    totality = (codes != K.CODE_INVALID).all()

    ne_mask, ex_mask = _theorem_masks(N, mu1, mu2, p, q)
    disjoint = not (ne_mask & ex_mask).any()

    # the classifier's verdicts line up with the literal predicates
    cls_ne = np.isin(codes, _NONEXIST_CODES)
    cls_ex = np.isin(codes, _EXIST_CODES)
    verdict_match = (cls_ne == ne_mask).all() and (cls_ex <= ex_mask).all()

    # every nonexistence verdict is backed by its cited mechanism
    idx = np.nonzero(cls_ne)[0]
    witness_fail = 0
    mechanism_fail = 0
    for i in idx:
        params = HardyParams(int(N[i]), float(mu1[i]), float(mu2[i]))
        pq = Powers(float(p[i]), float(q[i]))
        region = _wrap(int(codes[i]), float(margins[i]), int(flags[i]))
        try:
            w = nonexistence_witness(params, pq, region)
        except Exception:
            witness_fail += 1
            continue
        if region.citation in ("T1.i", "T2.i") or region.mu0_edge:
            if w.mechanism != "integrability":
                mechanism_fail += 1
        elif w.mechanism != "iteration":
            mechanism_fail += 1
    elapsed = time.perf_counter() - start
    ok = (totality and disjoint and verdict_match and witness_fail == 0
          and mechanism_fail == 0 and elapsed < 60.0)
    report(5, ok,
           f"totality {totality}, disjoint {disjoint}, verdict/predicate "
           f"match {verdict_match}, witnesses {len(idx) - witness_fail}/"
           f"{len(idx)}, mechanism mismatches {mechanism_fail}, "
           f"{elapsed:.1f}s")


def test_criterion_6_threshold_edge_semantics():
    params0 = HardyParams(5, -2.25, 0.0)
    params_eps = HardyParams(5, -2.25 + 1e-6, 0.0)
    edge_ok = True
    for p in np.geomspace(1.2, 40.0, 50):
        t1 = params0.roots[0]
        q = (t1 - 2.0 * p - 2.0) / (t1 * p)  # e1 = 0 at the threshold
        r0 = classify(params0, Powers(float(p), float(q)))
        edge_ok &= (r0.verdict is Verdict.NONEXISTENCE
                    and r0.citation == "T1.ii" and r0.mu0_edge)
        w = nonexistence_witness(params0, Powers(float(p), float(q)), r0)
        edge_ok &= w.mechanism == "integrability"

        t1e = params_eps.roots[0]
        qe = (t1e - 2.0 * p - 2.0) / (t1e * p)
        re_ = classify(params_eps, Powers(float(p), float(qe)))
        edge_ok &= (re_.verdict is Verdict.OPEN_CRITICAL
                    and re_.citation == "CriticalCurve.AQ")

    rng = np.random.default_rng(606)
    worst = 0.0
    t1 = params0.roots[0]
    for _ in range(100_000):
        pv, qv = rng.uniform(0.1, 50.0, 2)
        worst = max(worst, abs(e3(params0.N, t1, pv, qv)
                               - bd.e1(t1, pv, qv)))
    ok = edge_ok and worst <= 1e-12
    report(6, ok, f"edge semantics on 50 curve points, "
                  f"|e3 - e1| max {worst:.2e} at the threshold")


def _sample_case_points(case, rng, count=10):
    """Hypothesis-satisfying parameter points for one construction case."""
    out = []
    attempts = 0
    while len(out) < count and attempts < 4000:
        attempts += 1
        N = int(rng.integers(3, 7))
        m0 = -((N - 2) ** 2) / 4.0
        if case in ("C1", "C2", "C3"):
            mu1 = m0 + (0.05 + 0.9 * rng.random()) * (-m0)
            # mu2 = 0 exercises the log-bearing recipe on the q = 2/(-t1) line
            mu2 = 0.0 if (case == "C3" and rng.random() < 0.5) \
                else rng.uniform(0.0, 2.0)
        else:
            mu1 = m0 + (0.05 + 0.9 * rng.random()) * (-m0)
            mu2 = m0 + (0.05 + 0.9 * rng.random()) * (-m0)
        params = HardyParams(N, mu1, mu2)
        t1 = params.roots[0]
        t2 = params.roots[2]
        vals_qup = (N + t2) / (-t1)
        try:
            if case in ("C1", "C4"):
                qlo = 2.0 / (-t1) if case == "C1" else (2.0 - t2) / (-t1)
                lo = max(qlo, 1.0) * 1.02
                if lo >= vals_qup * 0.98:
                    continue
                q = rng.uniform(lo, lo + 0.7 * (vals_qup * 0.98 - lo))
                p_max = (2.0 - t1) / (-(t1 * q + 2.0))
                if p_max <= 1.1:
                    continue
                p = rng.uniform(1.05, min(p_max * 0.95, 8.0))
            elif case == "C2":
                qlo = 2.0 / (-t1)
                if qlo <= 1.1:
                    continue
                q = rng.uniform(1.05, qlo * 0.97)
                edge = (2.0 - t2) / (-t1)
                if abs(q - edge) < 0.02:
                    continue
                p = rng.uniform(1.05, 6.0)
            elif case == "C3":
                qlo = 2.0 / (-t1)
                if qlo <= 1.1:
                    continue
                q = qlo
                p = rng.uniform(1.05, 6.0)
            elif case == "C5":
                qlo = (2.0 - t2) / (-t1)
                plo = (2.0 - t1) / (-t2)
                q = rng.uniform(1.05, qlo * 0.97)
                p = rng.uniform(1.05, plo * 0.97)
            elif case == "C6":
                qlo = (2.0 - t2) / (-t1)
                plo = (2.0 - t1) / (-t2)
                q = qlo
                p = rng.uniform(1.05, plo * 0.97)
            elif case == "C7":
                qlo = (2.0 - t2) / (-t1)
                plo = (2.0 - t1) / (-t2)
                p = plo
                q = rng.uniform(1.05, qlo * 0.97)
            else:  # C8
                plo = (2.0 - t1) / (-t2)
                pup = (N + t1) / (-t2)
                p = rng.uniform(plo * 1.02, plo + 0.7 * (pup * 0.98 - plo))
                q_max = (2.0 - t2) / (-(t2 * p + 2.0))
                if q_max <= 1.1:
                    continue
                q = rng.uniform(1.05, min(q_max * 0.95, 8.0))
            out.append((params, Powers(float(p), float(q))))
        except ValueError:
            continue
    return out


def test_criterion_7_construction_verification():
    rng = np.random.default_rng(707)
    start = time.perf_counter()
    per_case = {}
    all_ok = True
    for case in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"):
        points = _sample_case_points(case, rng)
        assert len(points) == 10, f"sampler starved for {case}"
        good = 0
        for params, pq in points:
            cand = build_candidate(case, params, pq)
            found = find_scale(cand)
            if found is None:
                continue
            t, rep = found
            if rep.ok and rep.min_slack_u >= 0 and rep.min_slack_v >= 0 \
                    and fd_deviation(cand, rep.grid) <= FD_DEV_LIMIT:
                good += 1
        per_case[case] = good
        all_ok &= good == 10

    # ten points in the adjacent nonexistence regions: no scale verifies
    failures = 0
    for k in range(10):
        if k % 2 == 0:
            params, pq = HardyParams(5, -2.0, 0.0), Powers(2.0, 4.0 + 0.1 * k)
            cand = build_candidate("C1", params, pq, strict=False)
        else:
            params, pq = HardyParams(5, -2.0, -2.0), Powers(2.5, 3.5 + 0.04 * k)
            cand = build_candidate("C4", params, pq, strict=False)
        if find_scale(cand) is None:
            failures += 1

    # hand-checked instance: first-inequality slack is (2t - t^2) r^-2
    cand = build_candidate("C1", HardyParams(5, -2.0, 0.0), Powers(2, 3))
    t_found, rep = find_scale(cand)
    grid = rep.grid
    lu = hardy_image(5, -2.0, cand.u)
    hand_ok = t_found == 1.0  # largest power of two below the t = 2 boundary
    for t in (1.0, 2.0):
        slack = t * values(lu, grid.radii) - \
            (t * values(cand.v, grid.radii)) ** 2
        hand_ok &= float(np.max(np.abs(slack * grid.radii ** 2
                                       - (2.0 * t - t * t)))) <= 1e-9

    elapsed = time.perf_counter() - start
    ok = all_ok and failures == 10 and hand_ok and elapsed < 120.0
    report(7, ok,
           f"verified per case {per_case}, wrong-side failures "
           f"{failures}/10, hand-checked slack law {hand_ok}, "
           f"{elapsed:.1f}s")


def test_criterion_8_picture_reproduction(tmp_path):
    res = 400
    p_values = np.linspace(0.1, 8.0, res)
    q_values = np.linspace(0.1, 8.0, res)
    cell = (8.0 - 0.1) / (res - 1)

    # regime with one negative coefficient: nonexistence is exactly the
    # union of the half-plane q >= 5 and the strip cells with e1 < 0
    params_a = HardyParams(5, -2.0, 0.0)
    codes_a, _, _ = classify_field(params_a, p_values, q_values)
    pp, qq = np.meshgrid(p_values, q_values)
    e1 = -(pp * qq - 1.0) + 2.0 * pp + 2.0
    formula = (qq >= 5.0) | ((qq > 2.0) & (qq < 5.0) & (e1 < 0.0))
    classifier = np.isin(codes_a, _NONEXIST_CODES)
    region_exact = bool((classifier == formula).all())

    # the critical-curve overlay passes through (3, 3)
    t1 = params_a.roots[0]
    q_at_3 = (t1 - 2.0 * 3.0 - 2.0) / (t1 * 3.0)
    pts = critical_curve_points(params_a, "e1", (0.1, 8.0), (0.1, 8.0))
    dist = min(math.hypot(pv - 3.0, qv - 3.0) for pv, qv in pts)
    curve_ok = abs(q_at_3 - 3.0) <= 1e-12 and dist <= cell

    # regime with both coefficients negative: corner markers at their
    # formula coordinates, on the computed boundaries within one cell
    params_b = HardyParams(5, -2.0, -2.0)
    markers = region_markers(params_b, (0.1, 8.0), (0.1, 8.0))
    marker_formula_ok = (markers["E"] == (0.0, 4.0)
                         and markers["D"] == (4.0, 0.0)
                         and markers["B"] == (3.0, 3.0))
    codes_b, _, _ = classify_field(params_b, p_values, q_values)
    ne_b = np.isin(codes_b, _NONEXIST_CODES)

    # E: transition along the first column crosses q = 4 within one cell
    col = ne_b[:, 0]
    i_first = int(np.argmax(col))
    e_ok = abs(q_values[i_first] - 4.0) <= cell
    # D: transition along the first row crosses p = 4 within one cell
    row = ne_b[0, :]
    j_first = int(np.argmax(row))
    d_ok = abs(p_values[j_first] - 4.0) <= cell
    # B: verdicts flip across (3, 3) along the diagonal
    b_lo = classify(params_b, Powers(3.0 - 2 * cell, 3.0 - 2 * cell))
    b_hi = classify(params_b, Powers(3.0 + 2 * cell, 3.0 + 2 * cell))
    b_ok = (b_lo.verdict is Verdict.EXISTS_SUPERSOLUTION
            and b_hi.verdict is Verdict.NONEXISTENCE)

    # byte-identical SVG across repeated runs
    spec = PlotSpec(params=params_b, p_range=(0.1, 8.0), q_range=(0.1, 8.0),
                    resolution=res)
    svg1 = render_svg(codes_b, spec)
    codes_b2, _, _ = classify_field(params_b, p_values, q_values)
    svg2 = render_svg(codes_b2, spec)
    deterministic = svg1 == svg2
    markers_drawn = all(f">{name}</text>" in svg1 for name in "EDB")

    ok = (region_exact and curve_ok and marker_formula_ok and e_ok and d_ok
          and b_ok and deterministic and markers_drawn)
    report(8, ok,
           f"region mask exact {region_exact}, curve through (3,3) "
           f"{curve_ok} (dist {dist:.4f}), markers {marker_formula_ok} "
           f"drawn {markers_drawn}, boundaries E/D/B {e_ok}/{d_ok}/{b_ok}, "
           f"svg deterministic {deterministic}")
