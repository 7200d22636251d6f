import dataclasses
import decimal
import itertools
import math
import pickle
import tracemalloc
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_tree
from oracles import exact_sign, mu_zero, pair_of
from hardylane import _kernels as K
from hardylane import boundaries as bd
from hardylane import regions
from hardylane.exponents import DomainValidationError, HardyParams, Powers
from hardylane.integrability import IntegrabilityVerdict, power_verdict
from hardylane.iteration import CertificateKind, iterate_clamped, iterate_plain
from hardylane.regions import (_OUTCOMES, _WITNESS_EDGE_TOL, RegionClass,
                               Verdict, Witness, WitnessMismatchError, _wrap,
                               classify, classify_field, nonexistence_witness)


def ver(*args):
    params = HardyParams(*args[:3])
    return classify(params, Powers(*args[3:]))


def batch_regions(points):
    """The RegionClass of each (params, pq), or None where the kernel finds
    it invalid: one classify_codes call over the points' columns, then
    _wrap per point, as a sweep classifies."""
    N, mu1, mu2, p, q = (np.array(c) for c in zip(*(
        (params.N, params.mu1, params.mu2, pq.p, pq.q)
        for params, pq in points)))
    return [None if code == K.CODE_INVALID
            else _wrap(int(code), float(margin), int(flags))
            for code, margin, flags in zip(*K.classify_codes(N, mu1, mu2,
                                                            p, q))]


class TestRegimeA:
    def test_integrability_half_plane(self):
        r = ver(5, -2.0, 0.0, 2.0, 6.0)
        assert r.verdict is Verdict.NONEXISTENCE
        assert r.citation == "T1.i"
        assert r.margin == pytest.approx(1.0)

    def test_half_plane_closed_edge(self):
        r = ver(5, -2.0, 0.0, 2.0, 5.0)
        assert r.citation == "T1.i"
        assert r.margin == pytest.approx(0.0, abs=1e-12)

    def test_bootstrap_strip(self):
        r = ver(5, -2.0, 0.0, 2.0, 4.0)
        assert r.verdict is Verdict.NONEXISTENCE
        assert r.citation == "T1.ii"
        assert r.margin == pytest.approx(-1.0)
        assert not r.mu0_edge

    def test_open_critical_curve(self):
        r = ver(5, -2.0, 0.0, 3.0, 3.0)
        assert r.verdict is Verdict.OPEN_CRITICAL
        assert r.citation == "CriticalCurve.AQ"

    def test_existence_below_strip(self):
        r = ver(5, -2.0, 0.0, 1.5, 1.5)
        assert r.verdict is Verdict.EXISTS_SUPERSOLUTION
        assert r.citation == "T3.i.case2"
        assert r.domain == "unit_ball"

    def test_existence_in_strip(self):
        r = ver(5, -2.0, 0.0, 2.0, 2.5)  # e1 = -4 + 6 = 2 > 0
        assert r.citation == "T3.i.case1"

    def test_existence_on_log_line(self):
        r = ver(5, -2.0, 0.0, 1.5, 2.0)  # q = 2/(-tau_+) exactly
        assert r.citation == "T3.i.case3"

    def test_small_powers_are_open(self):
        r = ver(5, -2.0, 0.0, 0.9, 1.5)
        assert r.verdict is Verdict.OPEN_CRITICAL
        assert r.citation == "CriticalCurve.DottedBoundary"

    def test_swapped_roles(self):
        direct = ver(5, -2.0, 0.0, 2.0, 6.0)
        mirrored = ver(5, 0.0, -2.0, 6.0, 2.0)
        assert mirrored.citation == direct.citation == "T1.i"
        assert mirrored.swapped and not direct.swapped
        assert mirrored.margin == pytest.approx(direct.margin)


class TestThresholdEdge:
    def test_closed_nonexistence_at_threshold(self):
        # mu1 = mu_zero(5): tau_+ = -1.5, strip (4/3, 10/3); e1 = 0 on the
        # curve q = (4p + 7)/(3p)
        p = 2.0
        q = (4 * p + 7) / (3 * p)
        r = ver(5, -2.25, 0.0, p, q)
        assert r.verdict is Verdict.NONEXISTENCE
        assert r.citation == "T1.ii"
        assert r.mu0_edge

    def test_open_curve_just_above_threshold(self):
        p = 2.0
        params = HardyParams(5, -2.25 + 1e-6, 0.0)
        t1 = params.roots[0]
        q = (t1 - 2.0 * p - 2.0) / (t1 * p)  # e1 = 0 at this mu1
        r = classify(params, Powers(p, q))
        assert r.verdict is Verdict.OPEN_CRITICAL
        assert r.citation == "CriticalCurve.AQ"


class TestRegimeB:
    def test_strip_nonexistence(self):
        r = ver(5, -2.0, -2.0, 2.5, 3.5)
        assert r.verdict is Verdict.NONEXISTENCE
        assert r.citation == "T2.ii"
        assert r.margin == pytest.approx(-0.75)

    def test_half_plane(self):
        r = ver(5, -2.0, -2.0, 4.5, 1.0)
        assert r.citation == "T2.i"
        assert r.margin == pytest.approx(0.5)

    def test_swap_symmetry_between_clauses(self):
        params = HardyParams(5, -2.0, -2.2)
        a = classify(params, Powers(2.5, 3.4))
        b = classify(params.swapped(), Powers(3.4, 2.5))
        pair = {a.citation, b.citation}
        if a.citation in ("T2.ii", "T2.iii"):
            assert pair in ({"T2.ii", "T2.iii"},)
            assert a.margin == pytest.approx(b.margin, abs=1e-12)

    def test_existence_regions(self):
        params = HardyParams(5, -2.0, -2.0)
        assert classify(params, Powers(1.5, 3.2)).citation == "T3.ii.a1"
        assert classify(params, Powers(2.0, 2.5)).citation == "T3.ii.a2"
        assert classify(params, Powers(3.2, 1.5)).citation == "T3.ii.b1"
        assert classify(params, Powers(3.0, 2.0)).citation == "T3.ii.b2"
        assert classify(params, Powers(2.0, 3.0)).citation == "T3.ii.a2"

    def test_corner_of_critical_curves_is_open(self):
        r = ver(5, -2.0, -2.0, 3.0, 3.0)
        assert r.verdict is Verdict.OPEN_CRITICAL

    def test_open_curves(self):
        # AB: q in (3, 4), e1 = 0 at q = (2p + 3)/p -> p = 2.4, q = 3.25
        r = ver(5, -2.0, -2.0, 2.4, 3.25)
        assert r.citation == "CriticalCurve.AB"
        r = ver(5, -2.0, -2.0, 3.25, 2.4)
        assert r.citation == "CriticalCurve.BC"

    def test_t2iii_sliver_beats_literal_a2(self):
        # q below the strip but p inside it with e2 < 0: the swapped
        # bootstrap proves nonexistence there
        r = ver(5, -2.0, -2.0, 3.5, 2.9)
        assert r.verdict is Verdict.NONEXISTENCE
        assert r.citation == "T2.iii"


class TestScope:
    def test_both_nonnegative(self):
        r = ver(5, 1.0, 2.0, 2.0, 2.0)
        assert r.verdict is Verdict.OUT_OF_SCOPE
        assert r.regime == "C"

    def test_rejects_bad_powers(self):
        with pytest.raises(DomainValidationError):
            ver(5, -2.0, 0.0, 0.0, 1.0)


@st.composite
def admissible_point(draw):
    N = draw(st.integers(min_value=3, max_value=10))
    m0 = mu_zero(N)
    mu1 = draw(st.floats(min_value=m0, max_value=3.0))
    mu2 = draw(st.floats(min_value=m0, max_value=3.0))
    p = draw(st.floats(min_value=1e-3, max_value=20.0))
    q = draw(st.floats(min_value=1e-3, max_value=20.0))
    return HardyParams(N, mu1, mu2), Powers(p, q)


class TestTotalityAndSoundness:
    @given(admissible_point())
    @settings(max_examples=500, deadline=None)
    def test_every_point_classifies(self, point):
        params, pq = point
        r = classify(params, pq)
        assert isinstance(r, RegionClass)
        assert r.verdict in Verdict

    @given(admissible_point())
    @settings(max_examples=300, deadline=None)
    def test_witness_backs_every_nonexistence(self, point):
        params, pq = point
        r = classify(params, pq)
        if r.verdict is not Verdict.NONEXISTENCE:
            return
        w = nonexistence_witness(params, pq, r)
        if r.citation in ("T1.i", "T2.i"):
            assert w.mechanism == "integrability"
            assert not w.verdict.integrable
        elif r.citation == "T1.ii" and r.mu0_edge:
            assert w.mechanism == "integrability"
        else:
            assert w.mechanism == "iteration"
            assert w.trace.outcome.kind in (CertificateKind.CROSSED_TAU1,
                                            CertificateKind.CROSSED_TAU2)

    def test_witness_refused_for_existence(self):
        with pytest.raises(DomainValidationError):
            nonexistence_witness(HardyParams(5, -2.0, 0.0), Powers(1.5, 1.5))


@st.composite
def edge_point(draw):
    """admissible_point, each mu also at mu_zero or inside its snap band."""
    N = draw(st.integers(min_value=3, max_value=10))
    m0 = mu_zero(N)
    band = bd.snap_half_width(N - 2.0)
    mu = st.one_of(st.floats(min_value=m0, max_value=3.0), st.just(m0),
                   st.floats(min_value=m0 - band, max_value=m0 + band))
    power = st.floats(min_value=1e-3, max_value=20.0)
    return (HardyParams(N, draw(mu), draw(mu)),
            Powers(draw(power), draw(power)))


def assert_matches_power_verdict(params, w):
    """The witness's sigma is power_verdict's on r^exponent against the
    tau_+ of a fresh HardyParams of weight_mu, summed as tau + tau_+ + N in
    that order, and its verdict is not integrable, also where a closed
    edge leaves sigma a little above 0."""
    tp = pair_of(params.N, w.weight_mu)[0]
    ref = power_verdict(params.N, w.exponent, tp)
    assert w.verdict.integrable is False
    gap = w.verdict.critical_exponent_gap.hex()
    assert gap == ref.critical_exponent_gap.hex()
    assert gap == (w.exponent + tp + params.N).hex()


class TestIntegrabilityWitnessOracle:
    """The witness's sigma, from the held tau_+, is the one a fresh
    HardyParams of its weight gives."""

    @given(edge_point())
    @settings(max_examples=500, deadline=None)
    def test_random_points(self, point):
        params, pq = point
        r = classify(params, pq)
        if r.verdict is not Verdict.NONEXISTENCE:
            return
        w = nonexistence_witness(params, pq, r)
        if w.mechanism == "integrability":
            assert_matches_power_verdict(params, w)

    def test_every_integrability_branch(self):
        # a random batch, plus a (p, q) grid at both mu0 edges, where the
        # one-bootstrap witness lives in a thin strip: every integrability
        # branch is hit, in both orientations
        rng = np.random.default_rng(4243)
        n = 3000
        N = rng.integers(3, 11, n)
        m0 = -((N - 2) ** 2) / 4.0
        mu1 = m0 + rng.random(n) * (3.0 - m0)
        mu2 = m0 + rng.random(n) * (3.0 - m0)
        points = [(int(N[i]), float(mu1[i]), float(mu2[i]),
                   20.0 * (1.0 - rng.random()), 20.0 * (1.0 - rng.random()))
                  for i in range(n)]
        grid = np.linspace(0.2, 8.0, 25).tolist()
        for Ne in range(3, 11):
            for p in grid:
                for q in grid:
                    points.append((Ne, mu_zero(Ne), 0.5, p, q))
                    points.append((Ne, 0.5, mu_zero(Ne), q, p))
        cases = [(HardyParams(Ni, m1, m2), Powers(p, q))
                 for Ni, m1, m2, p, q in points]
        seen = set()
        for (params, pq), r in zip(cases, batch_regions(cases)):
            if r.verdict is not Verdict.NONEXISTENCE:
                continue
            w = nonexistence_witness(params, pq, r)
            if w.mechanism == "integrability":
                assert_matches_power_verdict(params, w)
                seen.add((r.citation, r.swapped, w.description))
        assert {(c, sw) for c, sw, _ in seen} >= {
            ("T1.i", False), ("T1.i", True), ("T1.ii", False),
            ("T1.ii", True), ("T2.i", False)}
        assert {d for c, _, d in seen if c == "T2.i"} == {
            "u^q fails L^1 against the second weight",
            "v^p fails L^1 against the first weight"}


@st.composite
def raised_point(draw):
    """A regime A or B point with q raised above q_upper, or, in regime B,
    p raised above p_upper; regime A points come in both orientations."""
    N = draw(st.integers(min_value=3, max_value=10))
    m0 = mu_zero(N)
    negative = st.one_of(st.just(m0), st.floats(min_value=m0, max_value=0.0,
                                                 exclude_max=True))
    regime_b = draw(st.booleans())
    mu1 = draw(negative)
    mu2 = draw(negative if regime_b else st.floats(min_value=0.0,
                                                   max_value=3.0))
    params = HardyParams(N, mu1, mu2)
    t1, t2 = params.roots[0], params.roots[2]
    p = draw(st.floats(min_value=1e-3, max_value=20.0))
    q = draw(st.floats(min_value=1e-3, max_value=20.0))
    grow = 1.0 + draw(st.floats(min_value=1e-6, max_value=10.0))
    # a negative mu whose tau_+ underflows to -0.0 has no half-plane
    if regime_b and draw(st.booleans()):
        assume(t2 < 0.0)
        edge = (N + t1) / (-t2)
        assume(math.isfinite(edge * grow))
        return params, Powers(edge * grow, q)
    assume(t1 < 0.0)
    edge = (N + t2) / (-t1)
    assume(math.isfinite(edge * grow))
    pq = Powers(p, edge * grow)
    if not regime_b and draw(st.booleans()):
        return HardyParams(N, params.mu2, params.mu1), Powers(pq.q, pq.p)
    return params, pq


class TestMonotonePastHalfPlanes:
    @given(raised_point())
    @settings(max_examples=500, deadline=None)
    def test_raised_point_keeps_integrability_nonexistence(self, point):
        params, pq = point
        r = classify(params, pq)
        assert r.verdict is Verdict.NONEXISTENCE
        assert r.citation in ("T1.i", "T2.i")
        w = nonexistence_witness(params, pq, r)
        assert w.mechanism == "integrability"
        assert not w.verdict.integrable
        assert w.verdict.critical_exponent_gap <= 0.0


class TestMirrorSymmetry:
    """(mu1, p) <-> (mu2, q) is the same system with the roles exchanged."""

    @given(admissible_point())
    @settings(max_examples=500, deadline=None)
    def test_verdict_is_mirror_invariant(self, point):
        params, pq = point
        r = classify(params, pq)
        m = classify(params.swapped(), pq.swapped())
        assert m.verdict is r.verdict
        assert m.regime == r.regime
        assert m.mu0_edge == r.mu0_edge
        if r.regime == "A":
            assert m.swapped != r.swapped
            assert (m.citation, m.margin) == (r.citation, r.margin)
            return
        assert not m.swapped and not r.swapped
        if r.citation == "T2.i":
            assert (m.citation, m.margin) == (r.citation, r.margin)
        if r.citation in ("T2.ii", "T2.iii"):
            # the mirror cites the other bootstrap with the same margin; when
            # both bootstraps fire with equal margins, both sides cite T2.ii
            t1, _, t2, _ = params.roots
            assert m.margin == r.margin
            assert ({m.citation, r.citation} == {"T2.ii", "T2.iii"}
                    or m.citation == r.citation == "T2.ii"
                    and bd.e1(t1, pq.p, pq.q) == bd.e1(t2, pq.q, pq.p))

    @given(admissible_point())
    @settings(max_examples=400, deadline=None)
    def test_mirrored_witnesses_agree(self, point):
        params, pq = point
        r = classify(params, pq)
        if r.verdict is not Verdict.NONEXISTENCE:
            return
        w = nonexistence_witness(params, pq, r)
        m = nonexistence_witness(params.swapped(), pq.swapped())
        assert m.mechanism == w.mechanism
        if w.mechanism == "iteration":
            a, b = w.trace.outcome, m.trace.outcome
            assert (a.kind, a.step, a.value) == (b.kind, b.step, b.value)
            return
        t1, _, t2, _ = params.roots
        both = (r.citation == "T2.i"
                and pq.q >= bd.q_upper(params.N, t1, t2) - K.TOL
                and pq.p >= bd.q_upper(params.N, t2, t1) - K.TOL)
        if both:
            # each side cites its own q half-plane: the mirror's u^q is
            # this point's v^p
            t2 = params.roots[2]
            assert (m.exponent, m.weight_mu) == (t2 * pq.p, params.mu1)
        else:
            assert (m.exponent, m.weight_mu) == (w.exponent, w.weight_mu)

    def test_regime_b_corner_of_both_half_planes(self):
        params, pq = HardyParams(5, -2.0, -2.0), Powers(6.0, 5.0)
        w = nonexistence_witness(params, pq)
        m = nonexistence_witness(params.swapped(), pq.swapped())
        assert (w.exponent, m.exponent) == (-5.0, -6.0)
        assert w.verdict.critical_exponent_gap < 0.0
        assert m.verdict.critical_exponent_gap < 0.0


class TestWitnessExamples:
    def test_integrability_payload(self):
        params = HardyParams(5, -2.0, 0.0)
        w = nonexistence_witness(params, Powers(2, 6))
        assert w.mechanism == "integrability"
        assert w.exponent == pytest.approx(-6.0)
        assert w.weight_mu == 0.0
        assert w.verdict.critical_exponent_gap == pytest.approx(-1.0)

    def test_plain_iteration_payload(self):
        w = nonexistence_witness(HardyParams(5, -2.0, 0.0), Powers(2, 4))
        assert w.mechanism == "iteration"
        assert w.provenance == "P3.1"
        assert w.trace.outcome.kind is CertificateKind.CROSSED_TAU1
        assert w.trace.outcome.step == 1
        assert w.trace.outcome.value == -2.0

    def test_clamped_iteration_payload(self):
        w = nonexistence_witness(HardyParams(5, -2.0, -2.0), Powers(2.5, 3.5))
        assert w.provenance == "P3.2"
        assert w.trace.outcome.kind is CertificateKind.CROSSED_TAU2
        assert w.trace.outcome.step == 2
        assert w.trace.outcome.value == -4.125

    def test_threshold_edge_uses_one_bootstrap(self):
        p = 2.0
        q = (4 * p + 7) / (3 * p)
        params = HardyParams(5, -2.25, 0.0)
        w = nonexistence_witness(params, Powers(p, q))
        assert w.mechanism == "integrability"
        # bootstrap exponent (t1 q + 2) p with t1 = -1.5
        assert w.exponent == pytest.approx((-1.5 * q + 2.0) * p, abs=1e-12)
        assert w.weight_mu == params.mu1

    def test_non_finite_exponent_is_refused(self):
        # t1 * q overflows: the source exponent -inf is no witness
        params = HardyParams(8, -9.0, 0.7)
        with pytest.raises(DomainValidationError, match="must be finite"):
            nonexistence_witness(params, Powers(1.0, 1e308))

    def test_p_side_half_plane(self):
        params = HardyParams(5, -2.0, -2.0)
        w = nonexistence_witness(params, Powers(4.5, 1.0))
        assert w.mechanism == "integrability"
        assert w.exponent == pytest.approx(-4.5)
        assert w.weight_mu == params.mu1


#: (N, mu1, mu2) of regime A, mirrored A, B, C and the mu1 = mu0 (or
#: mu2 = mu0) edge.
FIELD_WINDOWS = [(5, -2.0, 0.0), (5, 0.0, -2.0), (5, -2.0, -2.0),
                 (4, 1.0, 0.5), (5, -2.25, 0.0), (5, 0.0, -2.25),
                 (6, -4.0, -1.0)]


@st.composite
def field_grids(draw):
    """(params, p_values, q_values) whose rows fill classify_field's last
    block partly, exactly, or by one row; the ranges may reach p <= 0 or
    q <= 0."""
    n_p = draw(st.integers(64, 512))
    rows = regions._FIELD_BLOCK_CELLS // n_p
    n_q = rows * draw(st.integers(1, 2)) + draw(st.one_of(
        st.integers(1 - rows, -1), st.just(0), st.just(1)))

    def axis(n):
        lo = draw(st.floats(-1.0, 2.0))
        return np.linspace(lo, lo + draw(st.floats(0.5, 10.0)), n)

    params = HardyParams(*draw(st.sampled_from(FIELD_WINDOWS)))
    return params, axis(n_p), axis(n_q)


class TestGrid:
    def test_grid_matches_pointwise(self):
        params = HardyParams(5, -2.0, 0.0)
        p_values = np.linspace(1.0, 4.0, 7)
        q_values = np.linspace(1.0, 6.0, 7)
        codes, margins, flags = classify_field(params, p_values, q_values)
        for i, qv in enumerate(q_values):
            for j, pv in enumerate(p_values):
                direct = _wrap(*reference_tree.classify_code(
                    params.N, params.mu1, params.mu2, float(pv), float(qv)))
                cell = _wrap(int(codes[i, j]), margins[i, j],
                             int(flags[i, j]))
                assert cell.citation == direct.citation
                assert cell.margin == pytest.approx(direct.margin)

    def test_single_cell(self):
        codes, margins, flags = classify_field(HardyParams(5, 1.0, 1.0),
                                               np.array([1.0, 2.0]),
                                               np.array([1.0, 2.0]))
        assert codes.shape == (2, 2)
        assert all(_wrap(int(c), m, int(f)).verdict is Verdict.OUT_OF_SCOPE
                   for c, m, f in zip(codes.ravel(), margins.ravel(),
                                      flags.ravel()))

    def test_threshold_column_structure(self):
        # cells straddling q = 5 carry T1.i exactly when q >= 5
        params = HardyParams(5, -2.0, 0.0)
        q_values = np.array([4.5, 5.0, 5.5])
        codes, _, _ = classify_field(params, np.array([2.0]), q_values)
        for i, qv in enumerate(q_values):
            assert (codes[i, 0] == K.CODE_T1_I) == (qv >= 5.0)

    def test_field_matches_per_point_kernel(self):
        for mu, p_values, q_values in (
                (-2.0, np.linspace(0.5, 6.0, 90), np.linspace(0.5, 6.0, 91)),
                # one out-of-scope cell
                (1.0, np.array([1.0]), np.array([2.0]))):
            params = HardyParams(5, mu, mu)
            field = classify_field(params, p_values, q_values)
            pp, qq = np.meshgrid(p_values, q_values)
            n = pp.size
            per_point = K.classify_codes(np.full(n, 5), np.full(n, mu),
                                         np.full(n, mu), pp.ravel(),
                                         qq.ravel())
            for a, b in zip(field, per_point):
                assert a.shape == (q_values.size, p_values.size)
                assert np.array_equal(a.ravel(), b)
        assert field[0][0, 0] == K.CODE_OUT_OF_SCOPE

    @settings(max_examples=40, deadline=None)
    @given(field_grids())
    def test_field_is_the_flat_kernel_call(self, grid):
        # row blocks and broadcast axes give the bits of one flat call on
        # the meshgrid, signed zeros included
        params, p_values, q_values = grid
        field = classify_field(params, p_values, q_values)
        pp, qq = np.meshgrid(p_values, q_values)
        flat = K.classify_codes(params.N, params.mu1, params.mu2, pp.ravel(),
                                qq.ravel())
        for a, b in zip(field, flat):
            assert a.shape == (q_values.size, p_values.size)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("mus", [(-2.0, -2.0), (-2.0, 0.0), (0.0, -2.0),
                                     (-2.25, 0.0)])
    def test_field_holds_little_beyond_its_outputs(self, mus):
        # the kernel runs on row blocks into preallocated outputs, so its
        # temporaries stay block-sized: a 1000x1000 grid in one call with a
        # meshgrid peaked at 7.6-10.7 times the outputs
        params = HardyParams(5, *mus)
        grid = np.linspace(0.1, 8.0, 1000)
        classify_field(params, grid, grid)      # lazy set-up outside
        tracemalloc.start()
        try:
            out = classify_field(params, grid, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(a.nbytes for a in out), peak


#: The 17 valid region codes and the 12 flags values the kernel can give
#: (regime 0-2 in bits 2-3, swapped in bit 0, mu0 edge in bit 1).
VALID_CODES = sorted(_OUTCOMES)
VALID_FLAGS = [regime << K.REGIME_SHIFT | bits
               for regime in range(3) for bits in range(4)]


class TestWrapOracle:
    def test_codes_and_flags(self):
        assert len(VALID_CODES) == 17 and len(VALID_FLAGS) == 12
        assert K.CODE_INVALID not in VALID_CODES
        # a citation names one code
        assert len({cite for _, cite, _ in _OUTCOMES.values()}) == 17

    @pytest.mark.parametrize("code", VALID_CODES)
    def test_table_matches_field_by_field_derivation(self, code):
        verdict, citation, domain = _OUTCOMES[code]
        for flags in VALID_FLAGS:
            for margin in (1.25, -0.0, 3):
                got = _wrap(code, margin, flags)
                want = RegionClass(
                    verdict=verdict, citation=citation, margin=float(margin),
                    regime="ABC"[(flags >> K.REGIME_SHIFT) & 0x3],
                    swapped=bool(flags & K.FLAG_SWAPPED),
                    mu0_edge=bool(flags & K.FLAG_MU0_EDGE), domain=domain)
                assert got == want and repr(got) == repr(want)
                assert type(got.margin) is float
                assert got.margin.hex() == float(margin).hex()
                assert type(got.swapped) is bool
                assert type(got.mu0_edge) is bool

    def test_numpy_integers_look_up_the_same_entry(self):
        for code in VALID_CODES:
            for flags in VALID_FLAGS:
                assert _wrap(np.int64(code), np.float64(0.5),
                             np.int64(flags)) == _wrap(code, 0.5, flags)

    @pytest.mark.parametrize("flags", VALID_FLAGS + [12, 15, 16])
    def test_invalid_code_raises_domain_error(self, flags):
        with pytest.raises(DomainValidationError):
            _wrap(K.CODE_INVALID, 0.0, flags)

    @pytest.mark.parametrize("code", VALID_CODES)
    def test_regime_bits_three_raise(self, code):
        for flags in range(12, 16):
            with pytest.raises(KeyError):
                _wrap(code, 0.0, flags)

    @pytest.mark.parametrize("code, flags", [(17, 0), (-2, 0), (3, 16),
                                             (3, -1)])
    def test_unknown_key_raises(self, code, flags):
        with pytest.raises(KeyError):
            _wrap(code, 0.0, flags)

    @pytest.mark.parametrize("code", VALID_CODES)
    def test_copy_matches_the_constructor(self, code):
        # _wrap fills the instance dict from the table without __init__;
        # NaN margins are compared by their bits, since NaN != NaN
        assert set(regions._WRAPPED) == {(c, f) for c in VALID_CODES
                                         for f in VALID_FLAGS}
        verdict, citation, domain = _OUTCOMES[code]
        for flags, margin in itertools.product(
                VALID_FLAGS, (0.0, -0.0, 1.5, math.nan, math.inf,
                              np.float64(2.5), 3)):
            got = _wrap(code, margin, flags)
            want = RegionClass(
                verdict, citation, float(margin),
                "ABC"[(flags >> K.REGIME_SHIFT) & 0x3],
                bool(flags & K.FLAG_SWAPPED), bool(flags & K.FLAG_MU0_EDGE),
                domain)
            assert type(got) is RegionClass
            assert type(got.margin) is float
            assert got.margin.hex() == want.margin.hex()
            if margin == margin:
                assert got == want and hash(got) == hash(want)
            assert list(vars(got)) == list(vars(want))
            assert pickle.dumps(got) == pickle.dumps(want)
            assert regions._WRAPPED[code, flags]["margin"] == 0.0


# --- the witness path against the functions it replaced ----------------------
# Verbatim copies of nonexistence_witness and its two helpers as they were
# before the witness path took its oriented values straight from params and
# pq, with one later rule (an accepted integrability witness says
# integrable=False): the reference the current path must match bit for bit.

def _reference_integrability_witness(N: int, source_tau: float,
                                     weight_mu: float, weight_tp: float,
                                     label: str) -> Witness:
    verdict = power_verdict(N, source_tau, weight_tp)
    if verdict.critical_exponent_gap > _WITNESS_EDGE_TOL:
        raise WitnessMismatchError(
            f"{label}: expected weighted-L^1 failure but sigma = "
            f"{verdict.critical_exponent_gap:g} > 0")
    # an accepted witness is never integrable, also at a sigma of rounding
    # noise above 0 on a closed edge
    verdict = IntegrabilityVerdict(False, verdict.critical_exponent_gap)
    return Witness(mechanism="integrability", provenance="P2.1",
                   description=label, verdict=verdict,
                   exponent=source_tau, weight_mu=weight_mu)


def _reference_iteration_witness(params: HardyParams, pq: Powers,
                                 clamped: bool, label: str) -> Witness:
    trace = (iterate_clamped if clamped else iterate_plain)(params, pq)
    if not trace.crossed:
        raise WitnessMismatchError(
            f"{label}: iteration ended {trace.outcome.kind.value} "
            f"instead of crossing")
    return Witness(mechanism="iteration",
                   provenance="P3.2" if clamped else "P3.1",
                   description=label, trace=trace)


def reference_witness(params: HardyParams, pq: Powers,
                      region: Optional[RegionClass] = None) -> Witness:
    if region is None:
        region = classify(params, pq)
    if region.verdict is not Verdict.NONEXISTENCE:
        raise DomainValidationError(
            f"witness requested for verdict {region.verdict.value}")

    eff_params, eff_pq = params, pq
    if region.swapped:
        eff_params, eff_pq = params.swapped(), pq.swapped()
    t1 = eff_params.roots[0]
    t2 = eff_params.roots[2]
    cite = region.citation

    if cite == "T1.i":
        return _reference_integrability_witness(
            eff_params.N, t1 * eff_pq.q, eff_params.mu2, t2,
            "u^q fails L^1 against the second weight")
    if cite == "T2.i":
        # regime B, so t1 < 0
        if eff_pq.q >= bd.q_upper(eff_params.N, t1, t2) - K.TOL:
            return _reference_integrability_witness(
                eff_params.N, t1 * eff_pq.q, eff_params.mu2, t2,
                "u^q fails L^1 against the second weight")
        return _reference_integrability_witness(
            eff_params.N, t2 * eff_pq.p, eff_params.mu1, t1,
            "v^p fails L^1 against the first weight")
    if cite == "T1.ii":
        if region.mu0_edge:
            boot = (t1 * eff_pq.q + 2.0) * eff_pq.p
            return _reference_integrability_witness(
                eff_params.N, boot, eff_params.mu1, t1,
                "one-bootstrap source power fails L^1 at the threshold edge")
        return _reference_iteration_witness(eff_params, eff_pq, clamped=False,
                                            label="plain bootstrap crossing")
    if cite == "T2.ii":
        return _reference_iteration_witness(eff_params, eff_pq, clamped=True,
                                            label="clamped bootstrap crossing")
    if cite == "T2.iii":
        return _reference_iteration_witness(
            eff_params.swapped(), eff_pq.swapped(), clamped=True,
            label="clamped bootstrap crossing (roles swapped)")
    raise WitnessMismatchError(f"no witness mechanism for citation {cite}")


def bits(v):
    """v with its type, every float by float.hex, through the fields of the
    value types (and a HardyParams' stored roots) and lists."""
    if dataclasses.is_dataclass(v):
        out = [type(v).__name__]
        out += [bits(getattr(v, f.name)) for f in dataclasses.fields(v)]
        if isinstance(v, HardyParams):
            out += [bits(list(v.roots))]
        return tuple(out)
    if isinstance(v, list):
        return tuple(map(bits, v))
    if isinstance(v, float):
        return type(v).__name__, float.hex(v)
    return type(v).__name__, v


def witness_outcome(function, params, pq, region):
    """The bits of function's witness, or the error it raises."""
    try:
        return bits(function(params, pq, region))
    except (DomainValidationError, WitnessMismatchError) as exc:
        return type(exc).__name__, str(exc)


def assert_witness_matches_reference(params, pq, region):
    """The same witness, or error, as the reference, with the region given
    and without it.  region is the point's RegionClass from batch_regions
    (None if it is invalid: then nothing is compared)."""
    if region is None:
        return
    for given_region in (None, region):
        assert witness_outcome(nonexistence_witness, params, pq,
                               given_region) == \
            witness_outcome(reference_witness, params, pq, given_region)


@st.composite
def witness_point(draw):
    """edge_point's points, plus points on the e1 = 0 curve at mu1 = mu0
    (the one-bootstrap witness of the threshold edge), in both
    orientations."""
    N = draw(st.integers(min_value=3, max_value=10))
    m0 = mu_zero(N)
    band = bd.snap_half_width(N - 2.0)
    power = st.floats(min_value=1e-3, max_value=20.0)
    if draw(st.booleans()):
        mu = st.one_of(st.floats(min_value=m0, max_value=3.0), st.just(m0),
                       st.floats(min_value=m0 - band, max_value=m0 + band))
        params = HardyParams(N, draw(mu), draw(mu))
        pq = Powers(draw(power), draw(power))
    else:
        t1 = -(N - 2) / 2.0
        p = draw(power)
        q = (1.0 - (2.0 * p + 2.0) / t1) / p
        params = HardyParams(N, m0, draw(st.floats(min_value=0.0,
                                                   max_value=3.0)))
        pq = Powers(p, q)
    if draw(st.booleans()):
        return params.swapped(), pq.swapped()
    return params, pq


#: (citation, swapped, mu0_edge) of every kind of nonexistence witness.
WITNESS_KINDS = {("T1.i", False, False), ("T1.i", True, False),
                 ("T1.ii", False, False), ("T1.ii", True, False),
                 ("T1.ii", False, True), ("T1.ii", True, True),
                 ("T2.i", False, False), ("T2.ii", False, False),
                 ("T2.iii", False, False)}


class TestWitnessMatchesReference:
    @given(witness_point())
    @settings(max_examples=1000, deadline=None)
    def test_random_points(self, point):
        assert_witness_matches_reference(*point, *batch_regions([point]))

    def test_every_witness_kind(self):
        # a random batch with mu = mu0 in both roles, plus points on the
        # threshold edge's e1 = 0 curve in both orientations: every kind
        # of witness is compared, both T2.i branches and the mu0 edge
        rng = np.random.default_rng(2718)
        points = []
        for _ in range(4000):
            N = int(rng.integers(3, 11))
            m0 = mu_zero(N)
            mu1, mu2 = (m0 + rng.random(2) * (3.0 - m0)).tolist()
            roll = rng.random()
            mu1 = m0 if roll < 0.1 else mu1
            mu2 = m0 if 0.1 <= roll < 0.2 else mu2
            p, q = (20.0 * (1.0 - rng.random(2))).tolist()
            points.append((HardyParams(N, mu1, mu2), Powers(p, q)))
        for N in range(3, 11):
            for p in np.linspace(0.5, 8.0, 16).tolist():
                q = (1.0 + (2.0 * p + 2.0) / ((N - 2) / 2.0)) / p
                params, pq = HardyParams(N, mu_zero(N), 0.5), Powers(p, q)
                points += [(params, pq), (params.swapped(), pq.swapped())]
        seen, descriptions = set(), set()
        for (params, pq), region in zip(points, batch_regions(points)):
            assert_witness_matches_reference(params, pq, region)
            if region is not None and \
                    region.verdict is Verdict.NONEXISTENCE:
                seen.add((region.citation, region.swapped, region.mu0_edge))
                if region.citation == "T2.i":
                    descriptions.add(
                        nonexistence_witness(params, pq, region).description)
        assert seen == WITNESS_KINDS
        assert descriptions == {"u^q fails L^1 against the second weight",
                                "v^p fails L^1 against the first weight"}


@st.composite
def tree_point(draw):
    """(N, mu1, mu2, p, q) in every regime, in both orientations: N up to
    2**53 (an int64 square (N - 2)^2 would wrap from N = 3,037,000,502), each
    mu at mu0, inside its snap band or anywhere up to 3, and sometimes
    mu1 = mu0 with q on the e1 = 0 curve (the closed mu0 edge)."""
    N = draw(st.one_of(st.integers(3, 10), st.integers(11, 2 ** 53),
                       st.sampled_from([3_037_000_501, 3_037_000_502,
                                        2 ** 53 - 1, 2 ** 53])))
    m0 = mu_zero(N)
    band = bd.snap_half_width(N - 2.0)
    mu = st.one_of(st.floats(min_value=m0, max_value=3.0), st.just(m0),
                   st.floats(min_value=m0 - band, max_value=m0 + band))
    power = st.floats(min_value=1e-3, max_value=20.0)
    mu1, mu2, p, q = draw(mu), draw(mu), draw(power), draw(power)
    if draw(st.booleans()):
        t1 = -(N - 2) / 2.0
        mu1, q = m0, (1.0 - (2.0 * p + 2.0) / t1) / p
    if draw(st.booleans()):
        return N, mu2, mu1, q, p
    return N, mu1, mu2, p, q


class TestClassifyIsTheReferenceTree:
    """classify runs the kernel on one point's scalars; its codes, margins,
    flags and RegionClass are the reference tree's, bit for bit."""

    @given(tree_point())
    @settings(max_examples=500, deadline=None)
    def test_random_points(self, point):
        params, pq = HardyParams(*point[:3]), Powers(*point[3:])
        args = (params.N, params.mu1, params.mu2, pq.p, pq.q)
        code, margin, flags = reference_tree.classify_code(*args)
        got = K.classify_codes(*args)
        assert (int(got[0]), float(got[1]).hex(), int(got[2])) == \
            (code, margin.hex(), flags)
        region, want = classify(params, pq), _wrap(code, margin, flags)
        assert bits(region) == bits(want)
        assert region.citation == want.citation == _OUTCOMES[code][1]


#: Points where the float test q >= q_upper - TOL says T1.i while the exact
#: q lies below q_upper - TOL: exact q - q_upper is -1.7e-11 and -3.3e-4
#: (120-digit decimal).  At p = 2, e1 < 0, so T1.ii holds and the verdict
#: (nonexistence) stands; the T1.i citation and its witness do not.
Q_UPPER_ROUNDING = [
    (8, -1.647807573350895e-05, 2.423539220432381, 2.0, 3051279.3956754208),
    (3, -1.69497541888945e-13, 2.63263995824818, 2.0, 24766340886482.805)]


def _q_upper_terms(N, mu1, mu2, q, tol):
    """(a, b, d1, c, d2) with q + tol - q_upper of the sign of
    a - b sqrt(d1) - c sqrt(d2), for mu1 < 0: q_upper = (N + t2)/(-t1)
    with t_i = -h + sqrt(d_i), d_i = mu_i + h^2 and h = (N - 2)/2, and
    -t1 > 0 multiplies the difference without changing its sign."""
    h = Fraction(N - 2, 2)
    x = Fraction(q) + Fraction(tol)
    return x * h + h - N, x, Fraction(mu1) + h * h, 1, Fraction(mu2) + h * h


def _decimal_value(a, b, d1, c, d2, digits=100):
    """a - b sqrt(d1) - c sqrt(d2) in decimal at the given digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        a, b, d1, c, d2 = (decimal.Decimal(x.numerator)
                           / decimal.Decimal(x.denominator)
                           for x in map(Fraction, (a, b, d1, c, d2)))
        return a - b * d1.sqrt() - c * d2.sqrt()


class TestRoundingAtQUpper:
    """The kernel's absolute TOL against q - q_upper's rounding error."""

    @pytest.mark.parametrize("point", Q_UPPER_ROUNDING,
                             ids=["N8", "N3"])
    def test_exact_q_lies_below_the_tolerance_band(self, point):
        N, mu1, mu2, _, q = point
        terms = _q_upper_terms(N, mu1, mu2, q, K.TOL)
        assert exact_sign(*terms) == -1
        assert _decimal_value(*terms) < 0
        assert exact_sign(*_q_upper_terms(N, mu1, mu2, q, 0.0)) == -1

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the kernel's "
                       "float q - q_upper rounds across q_upper - TOL")
    @pytest.mark.parametrize("point", Q_UPPER_ROUNDING,
                             ids=["N8", "N3"])
    def test_t1_i_is_not_cited_below_q_upper(self, point):
        assert ver(*point).citation != "T1.i"

    def test_exact_sign_on_known_values(self):
        assert exact_sign(2, 1, 4) == 0
        assert exact_sign(3, 1, 4, 1, 1) == 0
        assert exact_sign(3, 1, 2, 1, 2) == 1         # 3 > 2 sqrt(2)
        assert exact_sign(2.8284271247461903, 2, 2) == 1
        assert exact_sign(2.82842712474619, 2, 2) == -1
        assert exact_sign(0, -1, 2, 1, 3) == -1        # sqrt 2 < sqrt 3
        assert exact_sign(-1, 0, 0, 0, 0) == -1

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=0.0, max_value=1e12),
           st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=0.0, max_value=1e12),
           st.integers(min_value=-4, max_value=4))
    @settings(max_examples=300, deadline=None)
    def test_exact_sign_agrees_with_decimal(self, b, d1, c, d2, nudge):
        # a rounds b sqrt(d1) + c sqrt(d2), nudged by a few ulps, so the
        # value nearly cancels; 100 digits still resolve it
        a = b * math.sqrt(d1) + c * math.sqrt(d2)
        for _ in range(abs(nudge)):
            a = math.nextafter(a, math.copysign(math.inf, nudge))
        value = _decimal_value(a, b, d1, c, d2)
        scale = abs(a) + abs(b) * math.sqrt(d1) + abs(c) * math.sqrt(d2)
        assume(abs(value) > 1e-80 * scale)
        assert exact_sign(a, b, d1, c, d2) == (1 if value > 0 else -1)
