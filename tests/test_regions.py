import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylane import _kernels as K
from hardylane.exponents import (DomainValidationError, HardyParams, Powers,
                                 boundary_expressions, mu_zero)
from hardylane.iteration import CertificateKind
from hardylane.regions import (RegionClass, Verdict, classify, classify_field,
                               classify_grid, nonexistence_witness)


def ver(*args):
    params = HardyParams(*args[:3])
    return classify(params, Powers(*args[3:]))


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
        t1 = params.tau1.tau_plus
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
            vals = boundary_expressions(params, pq)
            assert m.margin == r.margin
            assert ({m.citation, r.citation} == {"T2.ii", "T2.iii"}
                    or m.citation == r.citation == "T2.ii"
                    and vals.e1 == vals.e2)

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
        vals = boundary_expressions(params, pq)
        both = (r.citation == "T2.i"
                and pq.q >= vals.q_upper - K.TOL
                and pq.p >= vals.p_upper - K.TOL)
        if both:
            # each side cites its own q half-plane: the mirror's u^q is
            # this point's v^p
            t2 = params.tau2.tau_plus
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

    def test_p_side_half_plane(self):
        params = HardyParams(5, -2.0, -2.0)
        w = nonexistence_witness(params, Powers(4.5, 1.0))
        assert w.mechanism == "integrability"
        assert w.exponent == pytest.approx(-4.5)
        assert w.weight_mu == params.mu1


class TestGrid:
    def test_grid_matches_pointwise(self):
        params = HardyParams(5, -2.0, 0.0)
        grid = classify_grid(params, (1.0, 4.0), (1.0, 6.0), 7)
        p_values = np.linspace(1.0, 4.0, 7)
        q_values = np.linspace(1.0, 6.0, 7)
        for i, qv in enumerate(q_values):
            for j, pv in enumerate(p_values):
                direct = classify(params, Powers(pv, qv))
                assert grid[i][j].citation == direct.citation
                assert grid[i][j].margin == pytest.approx(direct.margin)

    def test_single_cell(self):
        grid = classify_grid(HardyParams(5, 1.0, 1.0), (1, 2), (1, 2), 2)
        assert all(c.verdict is Verdict.OUT_OF_SCOPE
                   for row in grid for c in row)

    def test_threshold_column_structure(self):
        # cells straddling q = 5 carry T1.i exactly when q >= 5
        params = HardyParams(5, -2.0, 0.0)
        q_values = np.array([4.5, 5.0, 5.5])
        codes, _, _ = classify_field(params, np.array([2.0]), q_values)
        grid = classify_grid(params, (2.0, 2.1), (4.5, 5.5), 3)
        for i, qv in enumerate(q_values):
            assert (grid[i][0].citation == "T1.i") == (qv >= 5.0)

    def test_validation(self):
        params = HardyParams(5, -2.0, 0.0)
        with pytest.raises(DomainValidationError):
            classify_grid(params, (1.0, 2.0), (1.0, 2.0), 1)
        with pytest.raises(DomainValidationError):
            classify_grid(params, (2.0, 1.0), (1.0, 2.0), 8)
        with pytest.raises(DomainValidationError):
            classify_grid(params, (1.0, 2.0), (1.0, 2.0), 5000)

    def test_field_matches_per_point_kernel(self):
        params = HardyParams(5, -2.0, -2.0)
        p_values = np.linspace(0.5, 6.0, 90)
        q_values = np.linspace(0.5, 6.0, 91)
        field = classify_field(params, p_values, q_values)
        pp, qq = np.meshgrid(p_values, q_values)
        n = pp.size
        per_point = K.classify_codes(np.full(n, 5), np.full(n, -2.0),
                                     np.full(n, -2.0), pp.ravel(), qq.ravel())
        for a, b in zip(field, per_point):
            assert a.shape == (91, 90)
            assert np.array_equal(a.ravel(), b)
