import ast
import hashlib
import itertools
import math
import pathlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hardylane
from hardylane import boundaries as bd
from hardylane import cli, constructions
from hardylane.constructions import (CASE_IDS, LINE_TOL, ORACLE_DEV_LIMIT,
                                     ORACLE_SAMPLES, ORACLE_STEP, SCALE_SCAN,
                                     SupersolutionCandidate,
                                     VerificationReport, build_candidate,
                                     find_scale, verify_on_grid)
from hardylane.exponents import DomainValidationError, HardyParams, Powers
from hardylane.radial import (RadialFunction, RadialGrid, RadialTerm,
                              _term_sums, default_grid)
from hardylane.regions import Verdict, classify
from oracles import (case_for_region, hardy_fd_oracle, hardy_image,
                     mu_zero, values)

A_PARAMS = HardyParams(5, -2.0, 0.0)
B_PARAMS = HardyParams(5, -2.0, -2.0)

#: The worked C1 instance and one accepting point for each of C2..C8.
ACCEPTING = (("C1", A_PARAMS, Powers(2, 3)), ("C2", A_PARAMS, Powers(1.5, 1.5)),
             ("C3", A_PARAMS, Powers(1.5, 2.0)),
             ("C4", B_PARAMS, Powers(1.5, 3.2)),
             ("C5", B_PARAMS, Powers(2.0, 2.5)),
             ("C6", B_PARAMS, Powers(2.0, 3.0)),
             ("C7", B_PARAMS, Powers(3.0, 2.0)),
             ("C8", B_PARAMS, Powers(3.2, 1.5)))


#: find_scale's (t, min_slack_u, min_slack_v, oracle_max_dev) by float.hex
#: at one accepting point per case, the worked C1 instance first, C3 both
#: with tau_+(mu2) > 0 (single-power v) and on the log recipe.
GOLDEN = (
    ("C1", (5, -2.0, 0.0, 2.0, 3.0),
     ("0x1.0000000000000p+0", "0x1.008344d4b1fc7p+0",
      "0x1.00c500788d518p+1", "0x1.588d97c9f287ep-19")),
    ("C1", (5, -2.0, 1.0, 1.2, 3.5),
     ("0x1.0000000000000p+0", "0x1.a498c601a6378p+0",
      "0x1.a175938174614p+1", "0x1.5aa43d8c678bbp-19")),
    ("C2", (5, -2.0, 0.0, 1.5, 1.5),
     ("0x1.0000000000000p+0", "0x1.600c48f10201ep+3",
      "0x1.c0a17a86fa97bp+0", "0x1.cc6475eeaaaabp-18")),
    ("C3", (5, -2.0, 4.0, 1.5, 2.0),
     ("0x1.0000000000000p+0", "0x1.6000000000000p+3",
      "0x1.00831f15032c3p+2", "0x1.cc6475eeaaaabp-18")),
    ("C3", (5, -2.0, 0.0, 1.5, 2.0),
     ("0x1.0000000000000p+0", "0x1.8061e247a8e9bp+2",
      "0x1.80c4c5a881f2bp+1", "0x1.cbdd380b6c49bp-19")),
    ("C4", (5, -2.0, -2.0, 1.5, 3.2),
     ("0x1.0000000000000p-2", "0x1.1269eb555e659p-1",
      "0x1.48bb1483ea514p-5", "0x1.8da5dad970e4dp-17")),
    ("C5", (5, -2.0, -2.0, 2.0, 2.5),
     ("0x1.0000000000000p-1", "0x1.008343c79669fp+0",
      "0x1.80f6307324095p-2", "0x1.8c76db31c5d0fp-19")),
    ("C6", (5, -2.0, -2.0, 2.0, 3.0),
     ("0x1.0000000000000p-2", "0x1.80f628697b18cp-3",
      "0x1.00c5007aac1acp-2", "0x1.2abb51f47eb0ap-18")),
    ("C7", (5, -2.0, -2.0, 3.0, 2.0),
     ("0x1.0000000000000p-2", "0x1.00c5007aac1acp-2",
      "0x1.80f628697b18cp-3", "0x1.2abb51f47eb0ap-18")),
    ("C8", (5, -2.0, -2.0, 3.2, 1.5),
     ("0x1.0000000000000p-2", "0x1.48bb1483ea514p-5",
      "0x1.1269eb555e659p-1", "0x1.8da5dad970e4dp-17")),
)

#: verify_on_grid"s (min_slack_u, min_slack_v) by float.hex and its
#: diagnostic at t = 1.0 and at t = 2**-60, which the scan tries first and
#: last, with whether find_scale accepts a scale: at GOLDEN"s points, then
#: at wrong-side candidates (built with strict=False) in nonexistence
#: regions, four whose u or v is not positive on the grid and one that is
#: positive but fails its slacks at every scale.
GOLDEN_VERIFY = (
    ("C1", (5, -2.0, 0.0, 2.0, 3.0), True,
     (("0x1.008344d4b1fc7p+0", "0x1.00c500788d518p+1", ""),
      ("0x1.008344d4b1fc7p-59", "0x1.00c5007ab4ba1p-59", ""))),
    ("C1", (5, -2.0, 1.0, 1.2, 3.5), True,
     (("0x1.a498c601a6378p+0", "0x1.a175938174614p+1", ""),
      ("0x1.527f6ff8df1e5p-59", "0x1.a175938195645p-59", ""))),
    ("C2", (5, -2.0, 0.0, 1.5, 1.5), True,
     (("0x1.600c48f10201ep+3", "0x1.c0a17a86fa97bp+0", ""),
      ("0x1.7fffffff80312p-57", "0x1.c0ac3f4e7914ap-60", ""))),
    ("C3", (5, -2.0, 4.0, 1.5, 2.0), True,
     (("0x1.6000000000000p+3", "0x1.00831f15032c3p+2", ""),
      ("0x1.7fffffff80000p-57", "0x1.008344d4b1fc7p-58", ""))),
    ("C3", (5, -2.0, 0.0, 1.5, 2.0), True,
     (("0x1.8061e247a8e9bp+2", "0x1.80c4c5a881f2bp+1", ""),
      ("0x1.80626703d8042p-58", "0x1.80c4e73f0afaap-59", ""))),
    ("C4", (5, -2.0, -2.0, 1.5, 3.2), True,
     (("0x1.a498c601a6372p+0", "-0x1.718343218e705p+63", ""),
      ("0x1.528773a7e8c35p-59", "0x1.48bb1484a66aep-63", ""))),
    ("C5", (5, -2.0, -2.0, 2.0, 2.5), True,
     (("0x1.008342ba7ad77p+1", "-0x1.c6be285d5ca5cp+47", ""),
      ("0x1.008344d4b1fc7p-59", "0x1.80f630d36b6fap-61", ""))),
    ("C6", (5, -2.0, -2.0, 2.0, 3.0), True,
     (("-0x1.d4e4df92741c0p+29", "0x1.00c5007a2ac57p+0", ""),
      ("0x1.80f630d36b6fap-61", "0x1.00c5007ab4ba1p-60", ""))),
    ("C7", (5, -2.0, -2.0, 3.0, 2.0), True,
     (("0x1.00c5007a2ac57p+0", "-0x1.d4e4df92741c0p+29", ""),
      ("0x1.00c5007ab4ba1p-60", "0x1.80f630d36b6fap-61", ""))),
    ("C8", (5, -2.0, -2.0, 3.2, 1.5), True,
     (("-0x1.718343218e705p+63", "0x1.a498c601a6372p+0", ""),
      ("0x1.48bb1484a66aep-63", "0x1.528773a7e8c35p-59", ""))),
    ("C1", (6, -1.466224069977757, 1.3635933411412808,
            4.307345989384064, 18.702592572508703), False,
     (("nan", "nan", "u is not positive near r=1.000e-06"),
      ("nan", "nan", "u is not positive near r=1.000e-06"))),
    ("C1", (3, -0.18882684173597436, 1.9482153936379671,
            11.197319654557168, 8.910917877907792), False,
     (("nan", "nan", "u is not positive near r=1.000e-06"),
      ("nan", "nan", "u is not positive near r=1.000e-06"))),
    ("C4", (6, -1.456693068040111, -3.348847614183617,
            1.0874007587868895, 11.4401550634079), False,
     (("nan", "nan", "u is not positive near r=1.000e-06"),
      ("nan", "nan", "u is not positive near r=1.000e-06"))),
    ("C8", (4, -0.3536216762791964, -0.7901893764767876,
            4.976153325372978, 4.726148340145729), False,
     (("nan", "nan", "v is not positive near r=1.000e-06"),
      ("nan", "nan", "v is not positive near r=1.000e-06"))),
    ("C1", (3, -0.07666130635571392, 0.7509608728391401,
            1.0613950941746315, 44.30528947058108), False,
     (("-0x1.8094edaf97b70p+35", "-0x1.7c1501a571975p+73", ""),
      ("0x1.c9a14dd55548cp-63", "-0x1.ac24c60d66711p+12", ""))),
)


#: r_min of the default grid and of two grids reaching toward 0.
GRID_R_MINS = (1e-6, 1e-30, 1e-100)

#: sha256 of `hardylane verify`'s JSON at each GOLDEN point, in GOLDEN's
#: order, on the grids of GRID_R_MINS.
GOLDEN_VERIFY_JSON = (
    ("e37fd7ca87abfcc30bc7fe583b6da37ae9d468b8056cb617913e8ce624cc194a",
     "774cafd30ae3106053273d2095bcaf5046298c1f725527edce42611c5280c8ab",
     "4a6031ea04a6a51aa9153623223a8f60d3387082e57857c05141edc544ddec84"),
    ("47956c4433426432f1b3ea0bc45c4a669af536da78b694e756bc2c13ee960fbc",
     "3b8b6b48df6875e4c1307ffb0770ace29de89072f810f24bb503e0a57dd6b9df",
     "487ba056177944610f36c0525efd0c24545d289aec33dd69bbc68222598a2df9"),
    ("5328ff338a57d07ec2f19424ab91d31e678107abac43536e1af18cc3cae0d92b",
     "4062e33a7d7cfec9c4b487db69ccdb30e964d7538a34100b30ab4453d7646045",
     "f51de98f2ade367c54b40946b90b8b86ca4ca9368fc52c0679bb5f5bb28f02c4"),
    ("9e2932eb4a51f153e52add770781c2e9432bd8e0e9a8d378a99af7b702789152",
     "d8d913f003cfc6cf6d4e8a96f985b49b3aca120974a635930109dc8eaa6debe4",
     "2b68e2fc1b0f43c6d115de6a111ec6762f1437a6482c9e7b7eb72aa7d13402f7"),
    ("77664190930b8691026bc05d0ea2e988285e1266c2b9617daec45cc6c4ed3407",
     "2f84402ca4f6a50df37d8a230cc3e5f07fa47de5e13185af72369e756414b39c",
     "6851e2081c48082420a718cf52e4cd39accc5084f6c7ebeea3105b666c40cb3e"),
    ("82c4799a8baa2e52ea5e27a8d32fb4758e4bf2a575fb675b5f431d95c103c04a",
     "21c926c6ed1cb1df9cd8b8314d8788224ad7dfd44a45e99ec1c3a1052576fb48",
     "40f1663783079cbfe6ed942849552e3bf476f145820c055ef5162f7f628250a3"),
    ("f8ee4d78a669fd1b3d1e18dbb2cf909b69124224016b564a6b6e00ee18714a13",
     "fdda8a7150e085899a13b288d3f366e2319507747210fec3aad71ffc99161ac8",
     "aa751977b1aa0e917e709ab8abeeed668d2155ab5c1775de0b9a66f1b8298094"),
    ("5dadc75d38f4b1e58658b689f4618bfb06d7a693e8777b6e569516a3429e784e",
     "105830b964d663142d29583280f259ab23f52d8acf2fd80301e591319998d7ea",
     "aa18ee83a308a1207ee9eef9834a8ab76a97025bb15e5f8ca394f8dbad8a4b65"),
    ("a24e6990122135e323dd236b4cea701e82083546b2a95c04cf6b6a4cf734c87b",
     "9cb05c8cae14fc7d960b7f9503f46ea15955a7ab1bf0e84bd9572aea638b5411",
     "e161df8419a0e7fd699fc09991b4314bdd1f26110a979c06a71502700fde3234"),
    ("77da3b393f3901c1ec03963520a9b003a5e556e577b8d95eb500f693c8046eb1",
     "d73ca6132f2fc25d79947cbb5f7e64176610293577d89b31d971d69a34c7f831",
     "215ba68140ed7bb417a18dc6ccfdcbc392d249b836f3944af0baf3fbda52f3db"),
)

#: The C3 log points of ROADMAP item 2, Step A, whose grid scale differs
#: from the closed form's, with that scale: at N = 4 on 1e-100 the 512
#: radii step over the u-slack's minimum and accept t = 0.5 above
#: t_max = 0.499935; at N = 3 on 1e-30 the rounded q rejects t = 1.  Then
#: GOLDEN's C6 on 1e-100, whose scan meets NaN slacks before t = 0.25.
KNOWN_GRID_SCALES = (
    ("C3", (4, -0.42342064925840817, 0.0, 5.951086995533937,
            8.31007286209953), 1e-100, 0.5),
    ("C3", (3, -0.2164895756882088, 0.0, 3.0454092829132895,
            6.310313324237998), 1e-30, 0.5),
    ("C6", (5, -2.0, -2.0, 2.0, 3.0), 1e-100, 0.25),
)

#: sha256 of `hardylane verify`'s JSON at KNOWN_GRID_SCALES' C3 points.
KNOWN_VERIFY_JSON = (
    "aac802c2f6d5b215153e388df1a668c68ac0f5749ff155c7d7e113a12fb51f6c",
    "a6fecd2f60a45a4b58fdd8c41adc1f9323d8a7047b3818f33f8df919f67ad49c",
)


def exponents_of(f):
    return [(t.tau, t.log_power, t.coeff) for t in f.terms]


def oracle_deviation_per_radius(params, cand, grid, h=1e-4, samples=16):
    """Reference: the operator cross-check one radius at a time."""
    r_hi = grid.r_max * 0.85
    r_lo = max(grid.r_min, 0.25 * grid.r_max)
    radii = np.geomspace(r_lo, r_hi, samples)
    worst = 0.0
    for f, mu in ((cand.u, params.mu1), (cand.v, params.mu2)):
        sym_f = hardy_image(params.N, mu, f)
        mag_f = RadialFunction.from_terms(
            [RadialTerm(t.tau, t.log_power, abs(t.coeff)) for t in sym_f.terms])
        for r in radii:
            h_r = min(h, r / 8.0)
            fd = hardy_fd_oracle(params.N, mu, f, float(r), h_r)
            sym = float(values(sym_f, float(r)))
            scale_r = max(1.0, abs(sym), float(values(mag_f, float(r))))
            worst = max(worst, abs(sym - fd) / scale_r)
    return worst


def oracle_deviation_public(cand, grid):
    """Reference: the operator cross-check one function at a time, one
    hardy_fd_oracle and one value-and-magnitude term sum per function."""
    params = cand.params
    radii = np.geomspace(max(grid.r_min, 0.25 * grid.r_max),
                         grid.r_max * 0.85, ORACLE_SAMPLES)
    h_r = np.minimum(ORACLE_STEP, radii / 8.0)
    worst = 0.0
    for f, mu in ((cand.u, params.mu1), (cand.v, params.mu2)):
        fd = hardy_fd_oracle(params.N, mu, f, radii, h_r)
        sym, mag = _term_sums(hardy_image(params.N, mu, f), radii, True)
        dev = np.abs(sym - fd) / np.fmax(1.0, np.fmax(np.abs(sym), mag))
        worst = max(worst, float(np.fmax.reduce(dev)))
    return worst


def slacks_reference(cand, t, u_vals, v_vals, lu, lv):
    with np.errstate(over="ignore"):
        return (float(np.min(t * lu - np.power(t * v_vals, cand.pq.p))),
                float(np.min(t * lv - np.power(t * u_vals, cand.pq.q))))


def verify_reference(cand, t, grid, h=1e-4, samples=16):
    """Reference: verify_on_grid with fresh np.geomspace radii, evaluating
    u, v, Lu and Lv itself and cross-checking the operator radius by
    radius."""
    radii = np.geomspace(grid.r_min, grid.r_max, grid.count)
    params = cand.params
    u_vals = values(cand.u, radii)
    v_vals = values(cand.v, radii)
    if np.min(u_vals) <= 0.0 or np.min(v_vals) <= 0.0:
        which = "u" if np.min(u_vals) <= 0.0 else "v"
        bad = radii[np.argmin(u_vals if which == "u" else v_vals)]
        return VerificationReport(
            ok=False, min_slack_u=math.nan, min_slack_v=math.nan, grid=grid,
            oracle_max_dev=math.nan, oracle_exceeded=False,
            positivity_ok=False,
            diagnostic=f"{which} is not positive near r={bad:.3e}")
    lu = values(hardy_image(params.N, params.mu1, cand.u), radii)
    lv = values(hardy_image(params.N, params.mu2, cand.v), radii)
    min_u, min_v = slacks_reference(cand, t, u_vals, v_vals, lu, lv)
    ok = (math.isfinite(min_u) and math.isfinite(min_v)
          and min_u >= 0.0 and min_v >= 0.0)
    dev = oracle_deviation_per_radius(params, cand, grid, h, samples)
    return VerificationReport(ok=ok, min_slack_u=min_u, min_slack_v=min_v,
                              grid=grid, oracle_max_dev=dev,
                              oracle_exceeded=dev > ORACLE_DEV_LIMIT,
                              positivity_ok=True)


def find_scale_reference(cand, grid=None):
    """Reference: the descending scan over both slacks at every scale,
    re-verified by verify_reference, on grid (default_grid() if None)."""
    if grid is None:
        grid = default_grid()
    radii = np.geomspace(grid.r_min, grid.r_max, grid.count)
    params = cand.params
    u_vals = values(cand.u, radii)
    v_vals = values(cand.v, radii)
    if np.min(u_vals) <= 0.0 or np.min(v_vals) <= 0.0:
        return None
    lu = values(hardy_image(params.N, params.mu1, cand.u), radii)
    lv = values(hardy_image(params.N, params.mu2, cand.v), radii)
    for t in SCALE_SCAN:
        min_u, min_v = slacks_reference(cand, t, u_vals, v_vals, lu, lv)
        if (math.isfinite(min_u) and math.isfinite(min_v)
                and min_u >= 0.0 and min_v >= 0.0):
            report = verify_reference(cand, t, grid)
            if report.ok:
                return t, report
    return None


def report_bits(report):
    """Every field of a report, floats by float.hex."""
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in vars(report).values())


def _inside(lo, hi, frac):
    assume(lo < hi)
    return lo + frac * (hi - lo)


@st.composite
def accepting_points(draw):
    """A (case, params, pq) whose case hypotheses hold, clear of degenerate
    lines."""
    case = draw(st.sampled_from(("C1", "C2", "C4", "C5", "C8")))
    N = draw(st.integers(min_value=3, max_value=6))
    frac = st.floats(min_value=0.05, max_value=0.95)
    mu1 = mu_zero(N) * draw(frac)
    mu2 = draw(st.floats(min_value=0.05, max_value=2.0)) \
        if case in ("C1", "C2") else mu_zero(N) * draw(frac)
    params = HardyParams(N, mu1, mu2)
    t1, t2 = params.roots[0], params.roots[2]
    if case in ("C1", "C4"):
        lo = 2.0 / -t1 if case == "C1" else (2.0 - t2) / -t1
        q = _inside(1.02 * max(lo, 1.0), 0.98 * (N + t2) / -t1, draw(frac))
        p_max = (2.0 - t1) / -(t1 * q + 2.0)  # e1 > 0 below it
        p = _inside(1.05, min(0.95 * p_max, 8.0), draw(frac))
    elif case == "C2":
        q = _inside(1.05, 0.97 * 2.0 / -t1, draw(frac))
        assume(abs(q - (2.0 - t2) / -t1) > 0.02)  # the degenerate line
        p = _inside(1.05, 6.0, draw(frac))
    elif case == "C5":
        q = _inside(1.05, 0.97 * (2.0 - t2) / -t1, draw(frac))
        p = _inside(1.05, 0.97 * (2.0 - t1) / -t2, draw(frac))
    else:
        p = _inside(1.02 * max((2.0 - t1) / -t2, 1.0),
                    0.98 * (N + t1) / -t2, draw(frac))
        q_max = (2.0 - t2) / -(t2 * p + 2.0)  # e2 > 0 below it
        q = _inside(1.05, min(0.95 * q_max, 8.0), draw(frac))
    return case, params, Powers(p, q)


def accepting_candidates():
    return accepting_points().map(lambda point: build_candidate(*point))


class TestRecipes:
    def test_strip_recipe_exponents(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        # tau2 = -1*3 + 2 = -1, tau1 = -1*2 + 2 = 0
        assert exponents_of(cand.u) == [(-1.0, 0, 1.0), (0.0, 0, -1.0)]
        assert exponents_of(cand.v) == [(-1.0, 0, 1.0)]

    def test_below_strip_recipe(self):
        cand = build_candidate("C2", A_PARAMS, Powers(2, 1.5))
        assert exponents_of(cand.u) == [(-1.0, 0, 1.0), (2.0, 0, -1.0)]
        assert exponents_of(cand.v) == [(0.0, 0, 1.0), (0.5, 0, -1.0)]

    def test_log_line_recipe(self):
        cand = build_candidate("C3", A_PARAMS, Powers(1.2, 2.0))
        assert exponents_of(cand.u) == [(-1.0, 0, 1.0), (1.0, 0, -1.0)]
        assert exponents_of(cand.v) == [(0.0, 1, 1.0)]
        assert cand.notes == ("log recipe on the unit ball",)

    def test_log_line_with_positive_second_exponent(self):
        # tau_+(mu2) > 0: no log needed, single-power v on the line
        params = HardyParams(5, -2.0, 4.0)  # tau_+(4) = 1
        cand = build_candidate("C3", params, Powers(1.5, 2.0))
        assert all(t.log_power == 0 for t in cand.v.terms)
        assert find_scale(cand) is not None

    def test_mirrored_edge_recipe(self):
        cand = build_candidate("C7", B_PARAMS, Powers(3.0, 2.0))
        assert exponents_of(cand.u) == [(-1.0, 1, 1.0)]
        # C6 mirrored: b = -1*2 + 2 = 0, eps0 = min(1, (0 - -1)/2) = 0.5
        assert exponents_of(cand.v) == [(-1.0, 0, 1.0), (-0.5, 0, -1.0)]

    def test_interior_power_recipe(self):
        cand = build_candidate("C8", B_PARAMS, Powers(3.2, 1.5))
        # tau10 = -1*3.2 + 2 = -1.2 inside (tau_-, tau_+) = (-2, -1)
        assert len(cand.u.terms) == 1
        assert cand.u.terms[0].tau == pytest.approx(-1.2, abs=1e-14)

    def test_unknown_case_rejected(self):
        with pytest.raises(DomainValidationError):
            build_candidate("C9", A_PARAMS, Powers(2, 2))

    @pytest.mark.parametrize("case", CASE_IDS)
    @pytest.mark.parametrize("mu1, mu2", ((0.0, 0.5), (0.5, 0.5),
                                          (-2.0, 0.5), (0.5, -2.0),
                                          (-2.0, -2.0)))
    def test_lenient_build_never_crashes(self, case, mu1, mu2):
        # a candidate or a validation error, never another exception;
        # outside the case's regime a validation error in both modes
        params = HardyParams(5, mu1, mu2)
        if case in ("C1", "C2", "C3"):
            in_regime = mu1 < 0.0 <= mu2
        else:
            in_regime = mu1 < 0.0 and mu2 < 0.0
        for pq, strict in itertools.product(
                (Powers(2, 3), Powers(1.5, 1.5), Powers(3.2, 1.5),
                 Powers(0.5, 6.0)), (False, True)):
            try:
                build_candidate(case, params, pq, strict=strict)
            except DomainValidationError as e:
                assert in_regime or "needs mu" in str(e)
            else:
                assert in_regime

    def test_hypothesis_validation(self):
        with pytest.raises(DomainValidationError):
            build_candidate("C1", A_PARAMS, Powers(2, 6))  # q above strip
        with pytest.raises(DomainValidationError):
            build_candidate("C1", B_PARAMS, Powers(2, 3.2))  # wrong regime
        with pytest.raises(DomainValidationError):
            build_candidate("C5", B_PARAMS, Powers(3.5, 2.0))  # p too big

    def test_degenerate_line_rejected(self):
        # regime A with tau_+(mu2) > 0: at q = (2 - t2)/(-t1) both recipes
        # degenerate (v would vanish or solve the homogeneous equation)
        params = HardyParams(5, -2.0, 4.0)  # t1 = -1, t2 = 1
        with pytest.raises(DomainValidationError):
            build_candidate("C2", params, Powers(2.0, 1.0))

    def test_gap_band_uses_single_power_recipe(self):
        # t2 > 0 and q between (2 - t2)/(-t1) and 2/(-t1): the two-term v
        # is not positive; the builder substitutes the single-power form
        params = HardyParams(5, -2.0, 4.0)
        cand = build_candidate("C2", params, Powers(2.0, 1.5))
        assert len(cand.v.terms) == 1
        assert cand.notes
        assert find_scale(cand) is not None

    def test_log_threshold_guard(self):
        at_edge = HardyParams(5, -2.25, -2.25)
        with pytest.raises(DomainValidationError):
            build_candidate("C6", at_edge, Powers(1.2, 7.0 / 3.0), strict=False)


class TestScaleSearch:
    def test_hand_checked_slack(self):
        # u-inequality slack is (2t - t^2) r^-2: accepted up to t = 2
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        found = find_scale(cand)
        assert found is not None
        t, report = found
        assert t == 1.0  # largest power of two not exceeding 2
        assert report.ok and report.min_slack_u >= 0 and report.min_slack_v >= 0

    def test_u_side_boundary_at_two(self):
        # first inequality slack is exactly (2t - t^2) r^-2: zero at t = 2,
        # so the grid values normalized by r^-2 must match 2t - t^2
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        grid = RadialGrid(1e-6, 0.999, 512)
        radii = grid.radii
        lu = hardy_image(5, -2.0, cand.u)
        for t in (1.0, 2.0, 4.0):
            slack = t * values(lu, radii) - (t * values(cand.v, radii)) ** 2
            normalized = slack * radii ** 2
            expected = 2.0 * t - t * t
            assert np.max(np.abs(normalized - expected)) <= 1e-9
        assert 2.0 * 2.0 - 2.0 ** 2 == 0.0   # accepted boundary
        assert 2.0 * 4.0 - 4.0 ** 2 < 0.0    # rejected beyond it

    def test_overscaled_candidate_fails(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        report = verify_on_grid(cand, t=10.0)
        assert not report.ok
        assert report.min_slack_u < 0

    def test_wrong_side_fails(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 4), strict=False)
        assert find_scale(cand) is None

    def test_zero_candidate_fails(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        broken = replace(cand, u=RadialFunction.zero())
        assert find_scale(broken) is None

    def test_monotone_in_scale(self):
        for case, params, pq in (("C1", A_PARAMS, Powers(2, 3)),
                                 ("C4", B_PARAMS, Powers(1.5, 3.2)),
                                 ("C8", B_PARAMS, Powers(3.2, 1.5))):
            cand = build_candidate(case, params, pq)
            t, _ = find_scale(cand)
            for smaller in (t / 2.0, t / 8.0, t / 64.0):
                assert verify_on_grid(cand, t=smaller).ok

    @given(accepting_candidates())
    @settings(max_examples=40, deadline=None)
    def test_scan_is_monotone(self, cand):
        found = find_scale(cand)
        assert found is not None
        t, _ = found
        for smaller in SCALE_SCAN[SCALE_SCAN.index(t) + 1:]:
            report = verify_on_grid(cand, t=smaller)
            assert report.min_slack_u >= 0.0 and report.min_slack_v >= 0.0
        if t < SCALE_SCAN[0]:
            assert not verify_on_grid(cand, t=2.0 * t).ok

    def test_scan_grid_shape(self):
        assert SCALE_SCAN[0] == 1.0
        assert SCALE_SCAN[-1] == 2.0 ** -60
        assert len(SCALE_SCAN) == 61


class TestVerification:
    def test_kernel_term_contributes_nothing(self):
        # the leading power of every recipe solves the homogeneous equation,
        # so the image has exactly one term (the correction power)
        for case, params, pq in (("C1", A_PARAMS, Powers(2, 3)),
                                 ("C5", B_PARAMS, Powers(2.0, 2.5)),
                                 ("C8", B_PARAMS, Powers(3.2, 1.5))):
            cand = build_candidate(case, params, pq)
            lu = hardy_image(params.N, params.mu1, cand.u)
            assert len(lu.terms) == 1

    def test_oracle_recorded_and_small(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        _, report = find_scale(cand)
        assert report.oracle_max_dev <= 1e-4
        assert not report.oracle_exceeded

    @pytest.mark.parametrize("case, params, pq", ACCEPTING,
                             ids=[c for c, _, _ in ACCEPTING])
    def test_oracle_matches_per_radius_loop(self, case, params, pq):
        cand = build_candidate(case, params, pq)
        _, report = find_scale(cand)
        ref = oracle_deviation_per_radius(params, cand, report.grid)
        assert report.oracle_max_dev.hex() == ref.hex()

    @given(accepting_candidates(), st.floats(min_value=1e-4, max_value=0.9))
    @settings(max_examples=150, deadline=None)
    def test_shared_stencil_matches_public_oracle(self, cand, r_max):
        # one stencil for u and v gives the bits of one hardy_fd_oracle and
        # one value-and-magnitude term sum per function
        grid = RadialGrid(r_max * 1e-3, r_max, 64)
        dev = constructions._oracle_deviation(
            cand, constructions._images(cand), grid)
        assert dev.hex() == oracle_deviation_public(cand, grid).hex()
        report = verify_on_grid(cand, 2.0 ** -30, grid)
        if report.positivity_ok:
            assert report.oracle_max_dev.hex() == dev.hex()

    def test_overflowing_pair_fails_with_diagnostic(self):
        # u = r^-1 - 1 is inf at r = 1e-320; no RuntimeWarning escapes
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        grid = RadialGrid(1e-320, 0.999, 512)
        assert find_scale(cand, grid=grid) is None
        report = verify_on_grid(cand, t=1.0, grid=grid)
        assert not report.ok and not report.positivity_ok
        assert math.isnan(report.min_slack_u)
        assert math.isnan(report.oracle_max_dev)
        assert report.diagnostic == "u is not finite near r=1.000e-320"

    def test_overflowing_image_fails_with_diagnostic(self):
        # u and v are finite at r = 1e-300, but Lu has an r^-2 term: the NaN
        # slack minimum is named, and no RuntimeWarning escapes
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        grid = RadialGrid(1e-300, 0.999, 512)
        assert find_scale(cand, grid=grid) is None
        report = verify_on_grid(cand, t=1.0, grid=grid)
        assert not report.ok and report.positivity_ok
        assert math.isnan(report.min_slack_u)
        assert report.diagnostic == "Lu is not finite near r=1.000e-300"

    def test_infinite_slack_is_decided_by_its_sign(self):
        # an image of +inf against a finite power leaves the slack +inf:
        # no diagnostic, and the minimum is the finite rest
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        radii = default_grid().radii
        u, v, lu, lv = [values(f, radii) for f in
                        (cand.u, cand.v, hardy_image(5, -2.0, cand.u),
                         hardy_image(5, 0.0, cand.v))]
        lu[[0, 7]] = math.inf
        min_u = constructions._slack_min(1.0, lu, v, cand.pq.p)
        min_v = constructions._slack_min(1.0, lv, u, cand.pq.q)
        assert constructions._slack_ok(min_u)
        assert constructions._slack_ok(min_v)
        assert constructions._slack_defect(radii, 1.0, min_u, min_v,
                                           lu, lv) == ""
        assert min_u == (lu - np.power(v, cand.pq.p)).min() < math.inf

    def test_positivity_diagnostic(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 4), strict=False)
        report = verify_on_grid(cand, t=1.0)
        assert not report.ok
        assert not report.positivity_ok
        assert "not positive" in report.diagnostic

    def test_handed_arrays_still_checked_for_positivity(self):
        for case, params, pq in ACCEPTING:
            cand = build_candidate(case, params, pq)
            grid = default_grid()
            t, report = find_scale(cand)
            # find_scale's report is verify_on_grid's, computed from scratch
            assert report_bits(report) == \
                report_bits(verify_on_grid(cand, t, grid)), case
            # past r = 1 the leading power no longer dominates: a handed
            # grid that reaches there fails positivity, for u before v
            wide = RadialGrid(1e-6, 2.0, 512)
            assert find_scale(cand, grid=wide) is None, case
            bad = verify_on_grid(cand, t, wide)
            assert not bad.ok and not bad.positivity_ok, case
            u = values(cand.u, wide.radii)
            name, vals = ("u", u) if u.min() <= 0.0 else \
                ("v", values(cand.v, wide.radii))
            assert bad.diagnostic == f"{name} is not positive near " \
                f"r={wide.radii[vals.argmin()]:.3e}", case

    @pytest.mark.parametrize("case, params, pq", ACCEPTING,
                             ids=[c for c, _, _ in ACCEPTING])
    def test_find_scale_builds_each_image_once(self, case, params, pq,
                                               monkeypatch):
        cand = build_candidate(case, params, pq)
        calls = []
        image = constructions._hardy_image

        def counted(N, tau_plus, tau_minus, f):
            calls.append(f)
            return image(N, tau_plus, tau_minus, f)

        monkeypatch.setattr(constructions, "_hardy_image", counted)
        assert find_scale(cand) is not None
        # once for u and once for v: the oracle reuses the scan's images
        assert calls == [cand.u, cand.v]

    @pytest.mark.parametrize("case, point, bits", GOLDEN,
                             ids=[f"{c}-{pt[2]}" for c, pt, _ in GOLDEN])
    def test_golden_bits(self, case, point, bits):
        N, mu1, mu2, p, q = point
        t, report = find_scale(build_candidate(case, HardyParams(N, mu1, mu2),
                                               Powers(p, q)))
        assert report.ok and not report.oracle_exceeded
        assert (t.hex(), report.min_slack_u.hex(), report.min_slack_v.hex(),
                report.oracle_max_dev.hex()) == bits

    @pytest.mark.parametrize("case, point, accepted, bits", GOLDEN_VERIFY,
                             ids=[f"{c}-{pt[3]}-{pt[4]}"
                                  for c, pt, _, _ in GOLDEN_VERIFY])
    def test_golden_verify_bits(self, case, point, accepted, bits):
        N, mu1, mu2, p, q = point
        cand = build_candidate(case, HardyParams(N, mu1, mu2), Powers(p, q),
                               strict=False)
        assert (find_scale(cand) is not None) == accepted
        reports = [verify_on_grid(cand, t) for t in (1.0, 2.0 ** -60)]
        assert tuple((r.min_slack_u.hex(), r.min_slack_v.hex(), r.diagnostic)
                     for r in reports) == bits

    @pytest.mark.parametrize("case, point, r_min, sha", [
        (c, pt, r_min, sha)
        for (c, pt, _), shas in zip(GOLDEN, GOLDEN_VERIFY_JSON)
        for r_min, sha in zip(GRID_R_MINS, shas)] + [
        (c, pt, r_min, sha)
        for (c, pt, r_min, _), sha in zip(KNOWN_GRID_SCALES,
                                          KNOWN_VERIFY_JSON)],
        ids=[f"{c}-{pt[2]}-{r_min}" for c, pt, _ in GOLDEN
             for r_min in GRID_R_MINS]
        + [f"{c}-N{pt[0]}-{r_min}"
           for c, pt, r_min, _ in KNOWN_GRID_SCALES[:2]])
    def test_verify_json_bytes(self, case, point, r_min, sha, capsys):
        # the whole record of `hardylane verify`: scale, minima, oracle
        # deviation and diagnostic, on grids reaching toward 0
        N, mu1, mu2, p, q = point
        assert cli.main(["verify", "--N", str(N), f"--mu1={mu1!r}",
                         f"--mu2={mu2!r}", f"--p={p!r}", f"--q={q!r}",
                         "--case", case, f"--r-min={r_min!r}"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    @pytest.mark.parametrize("case, point, r_min, t", KNOWN_GRID_SCALES,
                             ids=[f"{c}-N{pt[0]}-{r_min}"
                                  for c, pt, r_min, _ in KNOWN_GRID_SCALES])
    def test_known_grid_scales(self, case, point, r_min, t):
        N, mu1, mu2, p, q = point
        cand = build_candidate(case, HardyParams(N, mu1, mu2), Powers(p, q))
        found = find_scale(cand, default_grid(r_min=r_min))
        assert found is not None and found[0] == t

    @pytest.mark.parametrize("case, point", [
        (c, pt) for c, pt, _, _ in GOLDEN_VERIFY[:10] + GOLDEN_VERIFY[-1:]])
    def test_unit_scale_slacks_are_the_scaled_form(self, case, point):
        # each slack minimum is the scaled form's, at t = 1.0 too, also at
        # the inf and NaN entries planted here
        N, mu1, mu2, p, q = point
        cand = build_candidate(case, HardyParams(N, mu1, mu2), Powers(p, q),
                               strict=False)
        arrays = [a.copy() for a in
                  constructions._evaluated(cand, default_grid().radii)[:4]]
        for planted in (None, math.inf, -math.inf, math.nan):
            if planted is not None:
                for k, a in enumerate(arrays):
                    a[3 + 5 * k] = planted
            u, v, lu, lv = arrays
            t = 1.0
            with np.errstate(all="ignore"):
                want = ((t * lu - np.power(t * v, p)).min(),
                        (t * lv - np.power(t * u, q)).min())
                got = (constructions._slack_min(t, lu, v, p),
                       constructions._slack_min(t, lv, u, q))
            assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_oracle_geometry_is_shared_per_grid(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        grid, other = default_grid(), RadialGrid(1e-5, 0.5, 200)
        shared = constructions._oracle_stencil(grid.r_min, grid.r_max)
        for arr in shared[0] + (shared[1],):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # one object per grid: reports on the grid and on a grid of other
        # bounds leave it in place; the other grid gets its own entry
        verify_on_grid(cand, 1.0, grid)
        verify_on_grid(cand, 1.0, other)
        assert constructions._oracle_stencil(grid.r_min, grid.r_max) \
            is shared
        second = constructions._oracle_stencil(other.r_min, other.r_max)
        assert second is not shared
        r, twelve_h, four_hh, rr = second[0]
        assert r.tobytes() == np.geomspace(
            max(other.r_min, 0.25 * other.r_max), other.r_max * 0.85,
            ORACLE_SAMPLES).tobytes()
        h = np.minimum(ORACLE_STEP, r / 8.0)
        assert (twelve_h.tobytes(), four_hh.tobytes(), rr.tobytes()) == (
            (12.0 * h).tobytes(), (4.0 * h * h).tobytes(),
            (r * r).tobytes())

    def test_oracle_samples_a_descending_range_on_a_narrow_grid(self):
        # r_min above 0.85 r_max: the sample radii run from r_min down to
        # 0.85 r_max, and the grid still verifies
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        grid = RadialGrid(0.9, 0.999, 64)
        r = constructions._oracle_stencil(grid.r_min, grid.r_max)[0][0]
        assert r.tobytes() == np.geomspace(0.9, 0.999 * 0.85,
                                           ORACLE_SAMPLES).tobytes()
        t, report = find_scale(cand, grid)
        assert t == 1.0 and report.ok and not report.oracle_exceeded

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_requires_finite_positive_scale(self, t):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        with pytest.raises(DomainValidationError) as err:
            verify_on_grid(cand, t)
        assert str(err.value) == "verification needs a finite positive scale t"

    def test_report_on_log_case(self):
        cand = build_candidate("C6", B_PARAMS, Powers(2.0, 3.0))
        found = find_scale(cand)
        assert found is not None
        assert found[1].oracle_max_dev <= 1e-4


@st.composite
def c3_log_points(draw):
    """A point of C3's log recipe: mu1 in (mu_zero, 0), mu2 = 0, q on the
    line 2/(-t1) and p in (1.05, 6)."""
    N = draw(st.integers(min_value=3, max_value=8))
    mu1 = draw(st.floats(min_value=mu_zero(N), max_value=0.0,
                         exclude_min=True, exclude_max=True))
    params = HardyParams(N, mu1, 0.0)
    t1 = params.roots[0]
    # t1 has mu1's sign, but the line 2/(-t1) overflows for |mu1| below
    # about 1e-308 and t1 underflows to -0.0 near the smallest subnormal;
    # every recipe assumes q > 1
    assume(t1 < 0.0 and 1.0 < 2.0 / -t1 < math.inf)
    p = draw(st.floats(min_value=1.05, max_value=6.0, exclude_min=True,
                       exclude_max=True))
    return params, Powers(p, 2.0 / -t1)


def log2_closed_form_scale(params, pq):
    """log2 of t_max = min((K_u (e/p)^p)^(1/(p-1)), (N-2)^(1/(q-1))),
    K_u = N - 1 - mu1: the largest scale at which both slacks of the C3
    log recipe are nonnegative on the whole punctured unit ball."""
    N, p, q = params.N, pq.p, pq.q
    k_u = N - 1 - params.mu1
    return min((math.log2(k_u) + p * math.log2(math.e / p)) / (p - 1),
               math.log2(N - 2) / (q - 1))


@st.composite
def log_pair_points(draw):
    """A C6 point, N <= 6, on the line q = (2 - t2)/(-t1) <= 10 with p below
    (2 - t1)/(-t2) and 10; half of them mirrored into C7 points."""
    N = draw(st.integers(min_value=3, max_value=6))
    frac = st.floats(min_value=0.05, max_value=0.95)
    params = HardyParams(N, mu_zero(N) * draw(frac), mu_zero(N) * draw(frac))
    t1, t2 = params.roots[0], params.roots[2]
    q = bd.q_lower(t1, t2)
    assume(1.05 < q <= 10.0)
    p = _inside(1.05, min(0.97 * bd.q_lower(t2, t1), 10.0), draw(frac))
    if draw(st.booleans()):
        return "C7", params.swapped(), Powers(q, p)
    return "C6", params, Powers(p, q)


def log_pair_sides(cand):
    """(N, tp, tm, t_log, s, r): the power side's roots tau_+ and tau_-,
    the log side's tau_+, the power s of the log side in the power side's
    slack and the other power r; C7 is C6 mirrored."""
    tp1, tm1, tp2, tm2 = cand.params.roots
    p, q = cand.pq.p, cand.pq.q
    if cand.case_id == "C7":
        return cand.params.N, tp2, tm2, tp1, q, p
    return cand.params.N, tp1, tm1, tp2, p, q


def log2_log_pair_scale(cand):
    """log2 of the log pair's t_max = min((K (e eps0/s)^s)^(1/(s-1)),
    (2 t_log + N - 2)^(1/(r-1))), with b = t_log s + 2,
    eps0 = min(1, (b - tp)/2) and K = (b - eps0 - tp)(b - eps0 - tm): the
    largest scale at which both slacks are nonnegative on the whole
    punctured unit ball."""
    N, tp, tm, t_log, s, r = log_pair_sides(cand)
    b = t_log * s + 2.0
    eps0 = min(1.0, (b - tp) / 2.0)
    k = (b - eps0 - tp) * (b - eps0 - tm)
    return min((math.log2(k) + s * math.log2(math.e * eps0 / s)) / (s - 1),
               math.log2(2.0 * t_log + N - 2) / (r - 1))


class TestDomainSearch:
    """Every candidate, C3's log recipe included, is verified on the unit
    ball: the default grid ends at r = 1 - 1e-3."""

    def test_power_candidates_keep_unit_ball(self):
        cand = build_candidate("C1", A_PARAMS, Powers(2, 3))
        assert find_scale(cand)[1].grid == default_grid()

    def test_log_candidate_radius(self):
        cand = build_candidate("C3", A_PARAMS, Powers(1.2, 2.0))
        found = find_scale(cand)
        assert found is not None and found[1].ok
        assert found[1].grid == default_grid()
        assert default_grid().r_max == 0.999

    @given(c3_log_points())
    @settings(max_examples=60, deadline=None)
    def test_log_recipe_scale_is_the_closed_form(self, point):
        params, pq = point
        cand = build_candidate("C3", params, pq)
        assert cand.notes == ("log recipe on the unit ball",)
        expect = 2.0 ** min(0, math.floor(log2_closed_form_scale(params, pq)))
        t, report = find_scale(cand)
        assert t == expect and report.ok
        # C3's log pair is C6's at t2 = 0: the same closed form
        assert log2_log_pair_scale(cand) == pytest.approx(
            log2_closed_form_scale(params, pq), rel=1e-12, abs=1e-12)
        # on grids reaching closer to 0 the scale keeps its power of two
        # within one, as the closed form holds on the whole punctured ball.
        # It can move by one because at N = 3 the v-side bound t = 1 is
        # attained only as r -> 0, where rounding of q decides the slack's
        # sign, and because 512 radii over 100 decades can step over the
        # u-side minimum at r = e^-p
        for r_min in (1e-30, 1e-100):
            found = find_scale(cand, grid=default_grid(r_min=r_min))
            assert found is not None
            assert expect / 2.0 <= found[0] <= 2.0 * expect, r_min

    @given(log_pair_points())
    @settings(max_examples=100, deadline=None)
    def test_log_pair_scale_is_at_least_the_closed_form(self, point):
        cand = build_candidate(*point)
        _, _, _, t_log, s, _ = log_pair_sides(cand)
        # grid-free: the power side's image has one positive term, at
        # r^(b - eps0 - 2) = r^(t_log s - eps0), which outgrows the (t v)^p
        # of r^(t_log s) (-ln r)^p as r -> 0 (v, u and q for C7)
        image = constructions._images(cand)[point[0] == "C7"]
        lead = [t.tau for t in image.terms if t.coeff > 0.0]
        assert len(lead) == 1 and lead[0] < t_log * s
        # the grid's scale is at least the closed form's power of two, on
        # grids near the origin too: a pair that fails as r -> 0 loses a
        # factor (-ln r_min)^(s/(s-1))
        expect = 2.0 ** min(0, math.floor(log2_log_pair_scale(cand)))
        for r_min in (1e-6, 1e-30):
            found = find_scale(cand, grid=default_grid(r_min=r_min))
            assert found is not None and found[0] >= expect, r_min


class TestCaseSelection:
    def test_citation_mapping(self):
        assert case_for_region(A_PARAMS, Powers(2, 2.5), "T3.i.case1") == "C1"
        assert case_for_region(A_PARAMS, Powers(1.5, 1.5), "T3.i.case2") == "C2"
        assert case_for_region(A_PARAMS, Powers(1.5, 2.0), "T3.i.case3") == "C3"
        assert case_for_region(B_PARAMS, Powers(1.5, 3.2), "T3.ii.a1") == "C4"
        assert case_for_region(B_PARAMS, Powers(2.0, 2.5), "T3.ii.a2") == "C5"
        assert case_for_region(B_PARAMS, Powers(2.0, 3.0), "T3.ii.a2") == "C6"
        assert case_for_region(B_PARAMS, Powers(3.2, 1.5), "T3.ii.b1") == "C8"
        assert case_for_region(B_PARAMS, Powers(3.0, 2.0), "T3.ii.b2") == "C7"

    def test_swapped_orientation_builds_on_swapped_system(self):
        # mu2 < 0 <= mu1: the classifier mirrors the roles; constructions
        # are built and verified for the swapped system
        params = HardyParams(5, 0.0, -2.0)
        pq = Powers(2.5, 2.0)
        region = classify(params, pq)
        assert region.swapped
        assert region.citation == "T3.i.case1"
        case = case_for_region(params.swapped(), pq.swapped(), region.citation)
        cand = build_candidate(case, params.swapped(), pq.swapped())
        found = find_scale(cand)
        assert found is not None and found[1].ok

    def test_classifier_tags_verify(self):
        # sampled points per tag: classify, build, scale, verify
        cases = [(A_PARAMS, Powers(2, 2.5)), (A_PARAMS, Powers(1.5, 1.5)),
                 (A_PARAMS, Powers(1.5, 2.0)), (B_PARAMS, Powers(1.5, 3.2)),
                 (B_PARAMS, Powers(2.0, 2.5)), (B_PARAMS, Powers(2.0, 3.0)),
                 (B_PARAMS, Powers(3.2, 1.5)), (B_PARAMS, Powers(3.0, 2.0))]
        for params, pq in cases:
            region = classify(params, pq)
            assert region.verdict is Verdict.EXISTS_SUPERSOLUTION
            case = case_for_region(params, pq, region.citation)
            cand = build_candidate(case, params, pq)
            found = find_scale(cand)
            assert found is not None, (case, pq)
            assert found[1].ok


#: Wrong-side candidates next to the accepting ones: q above the strip,
#: e1 < 0 in regime A and B, e2 < 0, and a pair that is not positive.
WRONG_SIDE = (("C1", A_PARAMS, Powers(2.0, 5.5)),
              ("C1", A_PARAMS, Powers(4.0, 3.0)),
              ("C4", B_PARAMS, Powers(2.5, 3.54)),
              ("C8", B_PARAMS, Powers(3.5, 3.0)),
              ("C1", A_PARAMS, Powers(2, 4)))


@st.composite
def wrong_side_points(draw):
    """A (case, params, pq) in a nonexistence region next to its case, as
    the benchmark draws its rejecting points: q above the strip (T1.i),
    e1 < 0 in regime A or B (T1.ii, T2.ii), e2 < 0 (T2.iii)."""
    kind = draw(st.sampled_from(("T1.i", "T1.ii", "T2.ii", "T2.iii")))
    N = draw(st.integers(min_value=3, max_value=6))
    frac = st.floats(min_value=0.05, max_value=0.95)
    mu1 = mu_zero(N) * draw(frac)
    mu2 = draw(st.floats(min_value=0.0, max_value=2.0)) \
        if kind in ("T1.i", "T1.ii") else mu_zero(N) * draw(frac)
    params = HardyParams(N, mu1, mu2)
    t1, t2 = params.roots[0], params.roots[2]
    q_up = (N + t2) / -t1
    if kind == "T1.i":
        case = "C1"
        q = 1.02 * q_up + 3.0 * draw(st.floats(0.0, 1.0))
        p = _inside(1.05, 6.0, draw(frac))
    elif kind in ("T1.ii", "T2.ii"):
        case = "C1" if kind == "T1.ii" else "C4"
        lo = max(2.0 / -t1 if kind == "T1.ii" else (2.0 - t2) / -t1, 1.0)
        q = _inside(1.02 * lo, 0.98 * q_up, draw(frac))
        p_min = max(1.05, 1.05 * (2.0 - t1) / -(t1 * q + 2.0))  # e1 < 0
        p = p_min + 3.0 * draw(st.floats(0.0, 1.0))
    else:
        case = "C8"
        lo = max((2.0 - t1) / -t2, 1.0)
        p = _inside(1.02 * lo, 0.98 * (N + t1) / -t2, draw(frac))
        q_min = max(1.05, 1.05 * (2.0 - t2) / -(t2 * p + 2.0))  # e2 < 0
        q = q_min + 3.0 * draw(st.floats(0.0, 1.0))
    pq = Powers(p, q)
    assume(classify(params, pq).verdict is Verdict.NONEXISTENCE)
    return case, params, pq


@st.composite
def off_kernel_candidates(draw):
    """A C6 candidate whose v is r^a (-ln r) with a in (tau_+(mu2), -1.1):
    positive on the unit ball, but Lv = c r^(a-2) (-ln r) + c' r^(a-2)
    with c = -(a - tau_+)(a - tau_-) < 0 < c' = 2a + N - 2, which is
    -inf + inf = NaN where r^(a-2) overflows, as at r = 1e-100."""
    N = draw(st.integers(min_value=5, max_value=8))
    params = HardyParams(
        N, mu_zero(N) * draw(st.floats(min_value=0.05, max_value=0.95)),
        mu_zero(N) * draw(st.floats(min_value=0.85, max_value=0.99)))
    tp2 = params.roots[2]
    a = _inside(tp2, -1.1, draw(st.floats(min_value=0.05, max_value=0.95)))
    pq = Powers(*draw(st.tuples(st.floats(min_value=1.05, max_value=6.0),
                                st.floats(min_value=1.05, max_value=6.0))))
    cand = build_candidate("C6", params, pq, strict=False)
    return replace(cand, v=RadialFunction.monomial(1.0, a, log_power=1))


class TestAgainstReference:
    """find_scale and verify_on_grid give the reference's bits."""

    def test_find_scale_on_drawn_candidates(self, monkeypatch):
        # accepting, wrong-side and off-kernel candidates on grids toward
        # 0: the v-first scan and the negative-image return give the
        # reference's result, which tries both slacks at every scale.  The
        # draws are fixed (derandomized), and must reach the negative-image
        # return (no slack computed) and a NaN image (scanned)
        slack_min = constructions._slack_min
        calls = []

        def counted(*args):
            calls.append(args)
            return slack_min(*args)

        monkeypatch.setattr(constructions, "_slack_min", counted)
        seen = {"accepted": 0, "negative_image": 0, "nan_image": 0}

        @given(st.one_of(accepting_points().map(
                             lambda point: build_candidate(*point)),
                         log_pair_points().map(
                             lambda point: build_candidate(*point)),
                         wrong_side_points().map(
                             lambda point: build_candidate(*point,
                                                           strict=False)),
                         off_kernel_candidates()),
               st.sampled_from(GRID_R_MINS))
        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        def check(cand, r_min):
            grid = default_grid(r_min=r_min)
            calls.clear()
            found = find_scale(cand, grid)
            with np.errstate(over="ignore", invalid="ignore"):
                ref = find_scale_reference(cand, grid)
            assert (found is None) == (ref is None)
            if found is not None:
                seen["accepted"] += 1
                assert found[0].hex() == ref[0].hex()
                assert report_bits(found[1]) == report_bits(ref[1])
            radii = grid.radii
            with np.errstate(over="ignore", invalid="ignore"):
                u, v = values(cand.u, radii), values(cand.v, radii)
                if not (np.isfinite(u).all() and np.isfinite(v).all()
                        and u.min() > 0.0 and v.min() > 0.0):
                    return
                params = cand.params
                lu = values(hardy_image(params.N, params.mu1, cand.u), radii)
                lv = values(hardy_image(params.N, params.mu2, cand.v), radii)
            if np.isnan(lu).any() or np.isnan(lv).any():
                seen["nan_image"] += 1
                assert calls  # scanned
            if found is None and not calls:
                seen["negative_image"] += 1
                assert (lu < 0.0).any() or (lv < 0.0).any()

        check()
        assert all(seen.values()), seen

    @pytest.mark.parametrize("case, params, pq", ACCEPTING + WRONG_SIDE,
                             ids=[f"{c}-{pq.p}-{pq.q}"
                                  for c, _, pq in ACCEPTING + WRONG_SIDE])
    def test_find_scale(self, case, params, pq):
        cand = build_candidate(case, params, pq,
                               strict=(case, params, pq) in ACCEPTING)
        found, ref = find_scale(cand), find_scale_reference(cand)
        assert (found is None) == (ref is None)
        assert (found is None) == ((case, params, pq) in WRONG_SIDE)
        if found is not None:
            assert found[0].hex() == ref[0].hex()
            assert report_bits(found[1]) == report_bits(ref[1])

    @pytest.mark.parametrize("case, params, pq", ACCEPTING[:1] + WRONG_SIDE,
                             ids=[f"{c}-{pq.p}-{pq.q}"
                                  for c, _, pq in ACCEPTING[:1] + WRONG_SIDE])
    def test_verify_on_grid(self, case, params, pq):
        cand = build_candidate(case, params, pq, strict=False)
        grid = default_grid()
        for t in (1.0, 0.5, 10.0):
            assert report_bits(verify_on_grid(cand, t=t)) == \
                report_bits(verify_reference(cand, t, grid))


# --- build_candidate against the builder it replaced -------------------------
# A verbatim copy of build_candidate as it was before each recipe shape got
# one builder and one return, with C3's log recipe on the unit ball and
# C6/C7's exponent b - eps0, eps0 = min(1, (b - t1)/2) in place of C6's
# b + 1e-3 and C7's b, which fail as r -> 0: the reference the current
# builder must match bit for bit.

def _require(cond: bool, case_id: str, msg: str, strict: bool,
             notes: list) -> None:
    if cond:
        return
    if strict:
        raise DomainValidationError(f"{case_id} hypothesis violated: {msg}")
    notes.append(f"hypothesis violated: {msg}")


def boundary_values(params: HardyParams, pq: Powers) -> SimpleNamespace:
    """Every boundary expression at one point; a ratio is None unless the
    exponent it divides by is negative."""
    t1, _, t2, _ = params.roots
    p, q, N = pq.p, pq.q, params.N
    return SimpleNamespace(
        e1=bd.e1(t1, p, q), e2=bd.e1(t2, q, p),
        q_upper=bd.q_upper(N, t1, t2) if t1 < 0.0 else None,
        p_upper=bd.q_upper(N, t2, t1) if t2 < 0.0 else None,
        q_lower=bd.q_lower(t1, t2) if t1 < 0.0 else None,
        p_lower=bd.q_lower(t2, t1) if t2 < 0.0 else None)


def reference_build_candidate(case_id: str, params: HardyParams, pq: Powers,
                              strict: bool = True) -> SupersolutionCandidate:
    if case_id not in CASE_IDS:
        raise DomainValidationError(f"unknown case id {case_id!r}")
    t1 = params.roots[0]
    t2 = params.roots[2]
    p, q = pq.p, pq.q
    vals = boundary_values(params, pq)
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
        notes.append("log recipe on the unit ball")
        return SupersolutionCandidate(case_id, params, pq, u, v,
                                      notes=tuple(notes))

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
                "C6 needs mu > mu_zero on its log side: the log image "
                "coefficient 2 tau_+ + N - 2 vanishes at the threshold")
        tau3c = t2 * p + 2.0
        eps0 = min(1.0, (tau3c - t1) / 2.0)
        tau6c = tau3c - eps0
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
                "C7 needs mu > mu_zero on its log side: the log image "
                "coefficient 2 tau_+ + N - 2 vanishes at the threshold")
        tau4c = t1 * q + 2.0
        eps0 = min(1.0, (tau4c - t2) / 2.0)
        tau8c = tau4c - eps0
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


def candidate_bits(builder, case, params, pq, strict):
    """The builder's candidate, its terms by float.hex and its notes, or
    the type and message of the error it raises."""
    try:
        cand = builder(case, params, pq, strict=strict)
    except DomainValidationError as exc:
        return type(exc).__name__, str(exc)
    return (cand.case_id, cand.params is params, cand.pq is pq,
            tuple(tuple((t.tau.hex(), t.log_power, t.coeff.hex())
                        for t in f.terms) for f in (cand.u, cand.v)),
            cand.notes)


def assert_builds_like_reference(case, params, pq):
    for strict in (True, False):
        assert candidate_bits(build_candidate, case, params, pq, strict) == \
            candidate_bits(reference_build_candidate, case, params, pq,
                           strict), (case, params, pq, strict)


@st.composite
def random_case_point(draw):
    """Any case, mostly in its regime, with p and q often on the recipes'
    lines: 2/(-t1), (2 - t2)/(-t1) and (2 - t1)/(-t2)."""
    case = draw(st.sampled_from(CASE_IDS))
    N = draw(st.integers(min_value=3, max_value=8))
    m0 = mu_zero(N)
    negative = st.one_of(st.just(m0), st.floats(min_value=m0, max_value=-1e-3))
    second = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4.0)) \
        if case in ("C1", "C2", "C3") else negative
    if draw(st.integers(min_value=0, max_value=9)):
        params = HardyParams(N, draw(negative), draw(second))
    else:
        anywhere = st.one_of(negative, second, st.floats(0.0, 4.0))
        params = HardyParams(N, draw(anywhere), draw(anywhere))
    t1, t2 = params.roots[0], params.roots[2]
    power = st.floats(min_value=0.5, max_value=8.0)
    p_lines = [bd.q_lower(t2, t1)] if t2 < 0.0 else []
    q_lines = [bd.q_lower(t1, 0.0), bd.q_lower(t1, t2)] if t1 < 0.0 else []
    p = draw(st.one_of(power, *map(st.just, p_lines)))
    q = draw(st.one_of(power, *map(st.just, q_lines)))
    return case, params, Powers(p, q)


MU0_5 = mu_zero(5)

#: Points on the paths the random points reach least often.
BUILDER_POINTS = (
    ("C2", HardyParams(5, -2.0, 4.0), Powers(2.0, 1.5)),   # gap band
    ("C2", HardyParams(5, -2.0, 4.0), Powers(2.0, 1.0)),   # degenerate line
    ("C2", HardyParams(5, -2.0, 4.0), Powers(2.0, 1.25)),  # gap band
    ("C3", HardyParams(5, -2.0, 4.0), Powers(1.5, 2.0)),   # t2 > 0
    ("C3", A_PARAMS, Powers(1.2, 2.0)),                    # log recipe
    ("C3", A_PARAMS, Powers(1.5, 2.0)),                    # log recipe
    ("C6", HardyParams(5, -2.0, MU0_5), Powers(1.2, 7.0 / 3.0)),
    ("C6", HardyParams(5, MU0_5, MU0_5), Powers(1.2, 7.0 / 3.0)),
    ("C7", HardyParams(5, MU0_5, -2.0), Powers(7.0 / 3.0, 1.2)),
    ("C7", HardyParams(5, MU0_5, MU0_5), Powers(7.0 / 3.0, 1.2)),
) + ACCEPTING


class TestBuilderMatchesReference:
    @given(st.one_of(accepting_points(), random_case_point()))
    @settings(max_examples=600, deadline=None)
    def test_random_points(self, point):
        assert_builds_like_reference(*point)

    @pytest.mark.parametrize("case, params, pq", BUILDER_POINTS,
                             ids=[f"{c}-{pr.mu1:.3g}-{pr.mu2:.3g}-{pq.p:.3g}-"
                                  f"{pq.q:.3g}" for c, pr, pq in BUILDER_POINTS])
    def test_fixed_points(self, case, params, pq):
        assert_builds_like_reference(case, params, pq)


#: The single-power pair's exponents, (lead, first power, second power):
#: C1's order and C8's mirror.  The other lead's product is a different
#: recipe (C2, C5, C6).
_SINGLE_POWER = (("t1", "q", "p", "t2"), ("t2", "p", "q", "t1"))

#: The two-term pair's exponents; its mirror forms the same two.
_TWO_TERM = {"t2 * p + 2.0", "t1 * q + 2.0"}


def _log_pair_spelled(fn):
    """The lines where fn builds a log term (log_power=1) or names eps0:
    the log pair written out."""
    return [node.lineno for node in ast.walk(fn)
            if isinstance(node, ast.keyword) and node.arg == "log_power"
            and isinstance(node.value, ast.Constant) and node.value.value == 1
            or isinstance(node, ast.Name) and node.id == "eps0"]


def test_single_power_recipe_has_one_owner():
    # each pair is spelled out by its builder alone: a function that forms
    # lead * first + 2.0 and then x * second + 2.0 spells out the
    # single-power pair (_single_power_pair), one that forms both of
    # _TWO_TERM the two-term pair (_two_term_pair), and one that builds a
    # log term or names eps0 the log pair (_log_pair), so C7 cannot drift
    # away from C6 again
    package = pathlib.Path(hardylane.__file__).parent
    hits = []
    for path in sorted(package.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            where = f"{path.relative_to(package)}:{fn.name}"
            sums = [(node.lineno, ast.unparse(node)) for node in ast.walk(fn)
                    if isinstance(node, ast.BinOp)]
            texts = {text for _, text in sums}
            if fn.name != "_single_power_pair":
                for lead, first, second, other in _SINGLE_POWER:
                    if f"{lead} * {first} + 2.0" in texts:
                        hits += [f"{where}:{n}: {text}" for n, text in sums
                                 if text.endswith(f" * {second} + 2.0")
                                 and text != f"{other} * {second} + 2.0"]
            if fn.name != "_two_term_pair" and _TWO_TERM <= texts:
                hits.append(f"{where}: {sorted(_TWO_TERM)}")
            if fn.name != "_log_pair":
                hits += [f"{where}:{n}: log pair"
                         for n in _log_pair_spelled(fn)]
    assert hits == []

